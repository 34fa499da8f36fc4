//! Power-constrained SOC test scheduling.
//!
//! The paper's introduction motivates supply-noise-aware ATPG with SOC
//! test scheduling: blocks are tested *in parallel* to cut test time, but
//! the combined test power must stay below the functional power threshold
//! (refs 5 and 6 of the paper). This module implements the classic
//! greedy first-fit-decreasing scheduler over per-block test descriptors
//! so the trade-off can be explored with the SCAP numbers this crate
//! already produces.

use crate::{CaseStudy, PatternAnalyzer};
use scap_netlist::BlockId;

/// One block's test requirements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockTest {
    /// The block under test.
    pub block: BlockId,
    /// Patterns to apply.
    pub patterns: usize,
    /// Average test power while the block's patterns run, mW.
    pub power_mw: f64,
}

/// A set of blocks tested concurrently.
#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    /// Blocks running in this session.
    pub members: Vec<BlockTest>,
}

impl Session {
    /// Combined power of the session, mW.
    pub fn power_mw(&self) -> f64 {
        self.members.iter().map(|m| m.power_mw).sum()
    }

    /// Session length: the longest member's pattern count (blocks run in
    /// lock-step on the shared tester).
    pub fn length(&self) -> usize {
        self.members.iter().map(|m| m.patterns).max().unwrap_or(0)
    }
}

/// A full schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    /// Sessions, applied one after another.
    pub sessions: Vec<Session>,
}

impl Schedule {
    /// Total test length (patterns, summed over sessions).
    pub fn total_length(&self) -> usize {
        self.sessions.iter().map(|s| s.length()).sum()
    }

    /// Worst session power, mW.
    pub fn peak_power_mw(&self) -> f64 {
        self.sessions
            .iter()
            .map(|s| s.power_mw())
            .fold(0.0, f64::max)
    }
}

/// Greedy first-fit-decreasing scheduling under a session power budget.
///
/// Blocks whose standalone power already exceeds the budget get a
/// dedicated session (they cannot be split here; the paper's answer to
/// such blocks is exactly the noise-aware pattern generation that lowers
/// their per-pattern power).
pub fn schedule(tests: &[BlockTest], budget_mw: f64) -> Schedule {
    let mut order: Vec<BlockTest> = tests.to_vec();
    order.sort_by(|a, b| {
        b.power_mw
            .partial_cmp(&a.power_mw)
            .expect("powers are finite")
    });
    let mut sessions: Vec<Session> = Vec::new();
    for t in order {
        let slot = sessions
            .iter_mut()
            .find(|s| s.power_mw() + t.power_mw <= budget_mw);
        match slot {
            Some(s) => s.members.push(t),
            None => sessions.push(Session { members: vec![t] }),
        }
    }
    Schedule { sessions }
}

/// Serial baseline: one block at a time.
pub fn serial_length(tests: &[BlockTest]) -> usize {
    tests.iter().map(|t| t.patterns).sum()
}

/// Derives per-block test descriptors from a flow: each block's pattern
/// count is its share of the design's flops times the whole set's
/// pattern count (for a staged flow as for a flat one), and its power is
/// the mean block SCAP over the flow's patterns.
pub fn block_tests_from_flow(study: &CaseStudy, flow: &crate::flows::FlowResult) -> Vec<BlockTest> {
    let analyzer = PatternAnalyzer::new(study);
    let profile = analyzer.power_profile(&flow.patterns);
    let n_blocks = study.design.netlist.blocks().len();
    (0..n_blocks)
        .map(|b| {
            let block = BlockId::new(b as u32);
            let mean = profile.iter().map(|p| p.scap_vdd_mw(block)).sum::<f64>()
                / profile.len().max(1) as f64;
            BlockTest {
                block,
                // Per-block pattern demand approximated by flop share.
                patterns: flow.patterns.len()
                    * study.design.netlist.flops_in_block(block).count().max(1)
                    / study.design.netlist.num_flops().max(1),
                power_mw: mean,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tests_fixture() -> Vec<BlockTest> {
        (0..6u32)
            .map(|i| BlockTest {
                block: BlockId::new(i),
                patterns: 100 + 40 * i as usize,
                power_mw: [5.0, 1.0, 2.0, 1.5, 8.0, 2.5][i as usize],
            })
            .collect()
    }

    #[test]
    fn schedule_respects_the_budget() {
        let tests = tests_fixture();
        let s = schedule(&tests, 9.0);
        for session in &s.sessions {
            assert!(
                session.power_mw() <= 9.0 || session.members.len() == 1,
                "over-budget multi-block session: {session:?}"
            );
        }
        // Every block appears exactly once.
        let mut seen: Vec<u32> = s
            .sessions
            .iter()
            .flat_map(|s| s.members.iter().map(|m| m.block.raw()))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn parallel_schedule_beats_serial() {
        let tests = tests_fixture();
        let s = schedule(&tests, 12.0);
        assert!(
            s.total_length() < serial_length(&tests),
            "{} vs serial {}",
            s.total_length(),
            serial_length(&tests)
        );
        assert!(s.peak_power_mw() <= 12.0);
    }

    #[test]
    fn tight_budget_degenerates_to_serial() {
        let tests = tests_fixture();
        let s = schedule(&tests, 0.5);
        assert_eq!(s.sessions.len(), tests.len());
        assert_eq!(s.total_length(), serial_length(&tests));
    }

    #[test]
    fn flow_derived_tests_are_consistent() {
        let (study, conv, _) = crate::flows::tests::fixture();
        let tests = block_tests_from_flow(study, conv);
        assert_eq!(tests.len(), 6);
        let b5 = study.design.block_named("B5").unwrap();
        let b5_test = tests.iter().find(|t| t.block == b5).unwrap();
        // B5 is the hungriest block.
        for t in &tests {
            assert!(b5_test.power_mw >= t.power_mw * 0.99, "{t:?}");
        }
        // Scheduling under 1.5x B5 power must still fit everything.
        let s = schedule(&tests, 1.5 * b5_test.power_mw);
        assert!(s.peak_power_mw() <= 1.5 * b5_test.power_mw + 1e-9);
        assert!(s.total_length() <= serial_length(&tests));
    }
}
