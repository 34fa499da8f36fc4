//! Test-pattern representation and batch conversion.

use crate::FillPolicy;
use rand::Rng;
use scap_netlist::{Logic, Netlist};

/// A launch-off-capture test pattern before fill: a scan load (one value
/// per flop, X = don't-care) plus held primary-input values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestPattern {
    /// Scan-load value per flop (by [`FlopId`](scap_netlist::FlopId) index).
    pub load: Vec<Logic>,
    /// Primary-input values, held across both frames.
    pub pi: Vec<Logic>,
}

impl TestPattern {
    /// An all-X pattern for a netlist.
    pub fn unspecified(netlist: &Netlist) -> Self {
        TestPattern {
            load: vec![Logic::X; netlist.num_flops()],
            pi: vec![Logic::X; netlist.primary_inputs().len()],
        }
    }

    /// Number of specified (care) bits across load and PIs.
    pub fn specified_bits(&self) -> usize {
        self.load
            .iter()
            .chain(self.pi.iter())
            .filter(|v| v.is_known())
            .count()
    }

    /// Number of don't-care bits.
    pub fn x_bits(&self) -> usize {
        self.load.len() + self.pi.len() - self.specified_bits()
    }

    /// Fills don't-cares according to `policy`, producing a fully-specified
    /// pattern. `Adjacent` fill follows scan-chain order using the
    /// netlist's scan roles (cells without a role fall back to 0).
    /// PIs are filled with the policy's scalar value (random for `Random`,
    /// 0 otherwise — held PIs are kept quiet in low-power modes).
    pub fn fill(&self, netlist: &Netlist, policy: FillPolicy, rng: &mut impl Rng) -> FilledPattern {
        let mut load: Vec<bool> = Vec::with_capacity(self.load.len());
        match policy {
            FillPolicy::Random => {
                for v in &self.load {
                    load.push(v.to_bool().unwrap_or_else(|| rng.gen()));
                }
            }
            FillPolicy::Zero => {
                for v in &self.load {
                    load.push(v.to_bool().unwrap_or(false));
                }
            }
            FillPolicy::One => {
                for v in &self.load {
                    load.push(v.to_bool().unwrap_or(true));
                }
            }
            FillPolicy::Adjacent => {
                load = self.fill_adjacent(netlist);
            }
        }
        let pi: Vec<bool> = self
            .pi
            .iter()
            .map(|v| {
                v.to_bool().unwrap_or_else(|| match policy {
                    FillPolicy::Random => rng.gen(),
                    FillPolicy::One => true,
                    _ => false,
                })
            })
            .collect();
        FilledPattern { load, pi }
    }

    fn fill_adjacent(&self, netlist: &Netlist) -> Vec<bool> {
        // Group flops by chain, ordered by position; each X copies the
        // nearest preceding care value (or the nearest following one when
        // the chain starts with Xs), default 0.
        let mut out = vec![false; self.load.len()];
        let mut chains: Vec<Vec<(u32, usize)>> = Vec::new();
        let mut chainless: Vec<usize> = Vec::new();
        for (i, f) in netlist.flops().iter().enumerate() {
            match f.scan {
                Some(role) => {
                    let c = role.chain as usize;
                    if chains.len() <= c {
                        chains.resize(c + 1, Vec::new());
                    }
                    chains[c].push((role.position, i));
                }
                None => chainless.push(i),
            }
        }
        for chain in &mut chains {
            chain.sort_unstable();
            let mut last: Option<bool> = None;
            // Forward pass: propagate the previous care value.
            let mut pending: Vec<usize> = Vec::new();
            for &(_, i) in chain.iter() {
                match self.load[i].to_bool() {
                    Some(v) => {
                        for &p in &pending {
                            out[p] = v; // leading Xs take the first care value
                        }
                        pending.clear();
                        out[i] = v;
                        last = Some(v);
                    }
                    None => match last {
                        Some(v) => out[i] = v,
                        None => pending.push(i),
                    },
                }
            }
            // A chain of all-X stays 0.
        }
        for &i in &chainless {
            out[i] = self.load[i].to_bool().unwrap_or(false);
        }
        out
    }
}

/// A fully-specified pattern (after fill).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilledPattern {
    /// Scan-load bit per flop.
    pub load: Vec<bool>,
    /// Primary-input bit per PI.
    pub pi: Vec<bool>,
}

/// Up to 64 filled patterns packed for the bit-parallel simulators.
#[derive(Clone, Debug, Default)]
pub struct PatternBatch {
    /// One word per flop; bit *p* = pattern *p*'s load.
    pub load_words: Vec<u64>,
    /// One word per primary input.
    pub pi_words: Vec<u64>,
    /// Valid-pattern mask (bit *p* set when pattern *p* exists).
    pub valid_mask: u64,
    /// Number of patterns in the batch.
    pub count: usize,
}

impl PatternBatch {
    /// Packs a slice of up to 64 patterns.
    ///
    /// # Panics
    ///
    /// Panics if `patterns.len() > 64` or the patterns have inconsistent
    /// widths.
    pub fn pack(patterns: &[FilledPattern]) -> Self {
        assert!(patterns.len() <= 64, "a batch holds at most 64 patterns");
        if patterns.is_empty() {
            return PatternBatch::default();
        }
        let flops = patterns[0].load.len();
        let pis = patterns[0].pi.len();
        let mut load_words = vec![0u64; flops];
        let mut pi_words = vec![0u64; pis];
        for (p, pat) in patterns.iter().enumerate() {
            assert_eq!(pat.load.len(), flops, "inconsistent load width");
            assert_eq!(pat.pi.len(), pis, "inconsistent PI width");
            for (i, &b) in pat.load.iter().enumerate() {
                load_words[i] |= (b as u64) << p;
            }
            for (i, &b) in pat.pi.iter().enumerate() {
                pi_words[i] |= (b as u64) << p;
            }
        }
        let valid_mask = if patterns.len() == 64 {
            !0
        } else {
            (1u64 << patterns.len()) - 1
        };
        PatternBatch {
            load_words,
            pi_words,
            valid_mask,
            count: patterns.len(),
        }
    }
}

/// An ordered collection of filled patterns with their pre-fill sources.
#[derive(Clone, Debug, Default)]
pub struct PatternSet {
    /// The patterns as generated (with X bits), parallel to `filled`.
    pub source: Vec<TestPattern>,
    /// The fully-specified forms actually applied.
    pub filled: Vec<FilledPattern>,
    /// Fill policy used.
    pub fill: Option<FillPolicy>,
}

impl PatternSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.filled.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.filled.is_empty()
    }

    /// Appends a pattern pair.
    pub fn push(&mut self, source: TestPattern, filled: FilledPattern) {
        self.source.push(source);
        self.filled.push(filled);
    }

    /// Appends all patterns of another set.
    pub fn extend(&mut self, other: PatternSet) {
        self.source.extend(other.source);
        self.filled.extend(other.filled);
    }

    /// Iterates 64-pattern batches for the bit-parallel simulators,
    /// yielding `(first_pattern_index, batch)`.
    pub fn batches(&self) -> impl Iterator<Item = (usize, PatternBatch)> + '_ {
        self.filled
            .chunks(64)
            .enumerate()
            .map(|(i, chunk)| (i * 64, PatternBatch::pack(chunk)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use scap_netlist::{ClockEdge, NetlistBuilder, ScanRole};

    fn netlist_with_chain(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new("p");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        for i in 0..n {
            let d = b.add_primary_input(format!("d{i}"));
            let q = b.add_net(format!("q{i}"));
            b.add_flop(format!("ff{i}"), d, q, clk, ClockEdge::Rising, blk)
                .unwrap();
        }
        let mut nl = b.finish().unwrap();
        for i in 0..n {
            nl.set_scan_role(
                scap_netlist::FlopId::new(i as u32),
                ScanRole {
                    chain: 0,
                    position: i as u32,
                },
            );
        }
        nl
    }

    #[test]
    fn zero_and_one_fill() {
        let nl = netlist_with_chain(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut p = TestPattern::unspecified(&nl);
        p.load[1] = Logic::One;
        let f0 = p.fill(&nl, FillPolicy::Zero, &mut rng);
        assert_eq!(f0.load, vec![false, true, false, false]);
        let f1 = p.fill(&nl, FillPolicy::One, &mut rng);
        assert_eq!(f1.load, vec![true, true, true, true]);
    }

    #[test]
    fn random_fill_preserves_care_bits() {
        let nl = netlist_with_chain(32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut p = TestPattern::unspecified(&nl);
        p.load[5] = Logic::Zero;
        p.load[9] = Logic::One;
        for _ in 0..10 {
            let f = p.fill(&nl, FillPolicy::Random, &mut rng);
            assert!(!f.load[5]);
            assert!(f.load[9]);
        }
    }

    #[test]
    fn adjacent_fill_repeats_last_care_value() {
        let nl = netlist_with_chain(6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut p = TestPattern::unspecified(&nl);
        // chain order = flop order here.
        p.load[1] = Logic::One;
        p.load[4] = Logic::Zero;
        let f = p.fill(&nl, FillPolicy::Adjacent, &mut rng);
        // leading X takes the first care value (1); 2,3 repeat 1; 5 repeats 0.
        assert_eq!(f.load, vec![true, true, true, true, false, false]);
    }

    #[test]
    fn adjacent_fill_all_x_chain_is_zero() {
        let nl = netlist_with_chain(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let p = TestPattern::unspecified(&nl);
        let f = p.fill(&nl, FillPolicy::Adjacent, &mut rng);
        assert_eq!(f.load, vec![false; 3]);
    }

    #[test]
    fn specified_bit_accounting() {
        let nl = netlist_with_chain(4);
        let mut p = TestPattern::unspecified(&nl);
        assert_eq!(p.specified_bits(), 0);
        assert_eq!(p.x_bits(), 4 + nl.primary_inputs().len());
        p.load[0] = Logic::One;
        p.pi[0] = Logic::Zero;
        assert_eq!(p.specified_bits(), 2);
    }

    #[test]
    fn batch_packing_round_trips() {
        let pats = vec![
            FilledPattern {
                load: vec![true, false],
                pi: vec![false],
            },
            FilledPattern {
                load: vec![false, true],
                pi: vec![true],
            },
        ];
        let batch = PatternBatch::pack(&pats);
        assert_eq!(batch.count, 2);
        assert_eq!(batch.valid_mask, 0b11);
        assert_eq!(batch.load_words, vec![0b01, 0b10]);
        assert_eq!(batch.pi_words, vec![0b10]);
    }

    #[test]
    fn pattern_set_batches_cover_all() {
        let mut set = PatternSet::new();
        let nl = netlist_with_chain(2);
        for i in 0..130usize {
            set.push(
                TestPattern::unspecified(&nl),
                FilledPattern {
                    load: vec![i % 2 == 0, false],
                    pi: vec![],
                },
            );
        }
        let batches: Vec<_> = set.batches().collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].0, 0);
        assert_eq!(batches[2].0, 128);
        assert_eq!(batches[2].1.count, 2);
        assert_eq!(batches[2].1.valid_mask, 0b11);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn oversized_batch_rejected() {
        let pats = vec![
            FilledPattern {
                load: vec![],
                pi: vec![]
            };
            65
        ];
        let _ = PatternBatch::pack(&pats);
    }
}
