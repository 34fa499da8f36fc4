//! Don't-care fill policies (the TetraMAX `-fill` options, paper §3.1).

use std::fmt;

/// How unspecified scan-load bits are filled before pattern application.
///
/// The paper's experiment matrix:
///
/// * [`FillPolicy::Random`] — the conventional default; maximizes
///   fortuitous detection but also switching activity (high SCAP),
/// * [`FillPolicy::Zero`] — the option that "provided the best results"
///   for launch-to-capture power in the paper,
/// * [`FillPolicy::One`] — symmetric alternative,
/// * [`FillPolicy::Adjacent`] — each X takes the value of the nearest
///   preceding care bit in its scan chain; minimizes *shift* switching.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FillPolicy {
    /// Pseudorandom fill (conventional ATPG).
    Random,
    /// Fill all don't-cares with 0 (the paper's chosen low-power option).
    Zero,
    /// Fill all don't-cares with 1.
    One,
    /// Repeat the most recent care value along each scan chain.
    Adjacent,
}

impl FillPolicy {
    /// All policies, for sweep experiments.
    pub const ALL: [FillPolicy; 4] = [
        FillPolicy::Random,
        FillPolicy::Zero,
        FillPolicy::One,
        FillPolicy::Adjacent,
    ];
}

impl fmt::Display for FillPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FillPolicy::Random => "random-fill",
            FillPolicy::Zero => "fill-0",
            FillPolicy::One => "fill-1",
            FillPolicy::Adjacent => "fill-adjacent",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_vocabulary() {
        assert_eq!(FillPolicy::Zero.to_string(), "fill-0");
        assert_eq!(FillPolicy::Random.to_string(), "random-fill");
        assert_eq!(FillPolicy::Adjacent.to_string(), "fill-adjacent");
        assert_eq!(FillPolicy::One.to_string(), "fill-1");
    }

    #[test]
    fn all_lists_every_policy_once() {
        let mut seen = std::collections::HashSet::new();
        for p in FillPolicy::ALL {
            assert!(seen.insert(p));
        }
        assert_eq!(seen.len(), 4);
    }
}
