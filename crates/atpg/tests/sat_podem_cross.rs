//! Differential properties between the PODEM and SAT ATPG engines.
//!
//! Both engines answer the same two-frame question — "is there a scan
//! load that launches a transition at the fault site and captures its
//! effect?" — over the same netlist semantics, so their verdicts must
//! agree wherever both are definite, under launch-off-capture and under
//! launch-off-shift on randomly, partially stitched scan chains:
//!
//! * PODEM `Test` ⇒ the CNF is satisfiable (SAT also finds a test),
//! * SAT `Untestable` (an UNSAT proof) ⇒ PODEM never returns `Test`,
//! * every test either engine finds detects the fault in the fault
//!   simulator of the same launch mode,
//! * the hybrid generator's pattern stream is bit-identical regardless
//!   of the drop-simulation thread count.

use proptest::prelude::*;
use scap_dft::{FillPolicy, PatternBatch, TestPattern};
use scap_netlist::{
    CellKind, ClockEdge, ClockId, FlopId, NetId, Netlist, NetlistBuilder, ScanRole,
};
use scap_sim::{FaultList, LaunchMode, TransitionFaultSim};
use scap_tgen::{AtpgConfig, EngineKind, Generator, Podem, PodemOutcome, SatAtpg, SatOutcome};

const CLK: ClockId = ClockId::new(0);

/// Strategy: a random acyclic netlist mixing chains, dead cones and
/// reconvergent gates — the same shape the sim-kernel equivalence tests
/// use, so both engines face redundancy and unobservability.
fn arb_netlist(max_gates: usize) -> impl Strategy<Value = Netlist> {
    (2usize..6, 5usize..max_gates.max(6), any::<u64>())
        .prop_map(|(n_ff, n_gates, seed)| random_netlist(n_ff, n_gates, seed))
}

/// Strategy: [`arb_netlist`] with a random subset of its flops stitched
/// into up to two scan chains, in random order with position gaps.
fn arb_stitched_netlist(max_gates: usize) -> impl Strategy<Value = Netlist> {
    (2usize..6, 5usize..max_gates.max(6), any::<u64>()).prop_map(|(n_ff, n_gates, seed)| {
        use rand::{Rng, SeedableRng};
        let mut n = random_netlist(n_ff, n_gates, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.rotate_left(17));
        let mut order: Vec<u32> = (0..n_ff as u32).collect();
        for i in (1..n_ff).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let mut next_pos = [0u32; 2];
        for f in order {
            if rng.gen_range(0..3) == 0 {
                continue;
            }
            let chain = rng.gen_range(0..2usize);
            next_pos[chain] += rng.gen_range(1..3u32);
            let role = ScanRole {
                chain: chain as u16,
                position: next_pos[chain],
            };
            n.set_scan_role(FlopId::new(f), role);
        }
        n
    })
}

fn random_netlist(n_ff: usize, n_gates: usize, seed: u64) -> Netlist {
    {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new("cross");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let mut pool = vec![b.add_primary_input("pi0"), b.add_primary_input("pi1")];
        let qs: Vec<NetId> = (0..n_ff).map(|i| b.add_net(format!("q{i}"))).collect();
        pool.extend(qs.iter().copied());
        let kinds = [
            CellKind::Nand2,
            CellKind::Nor2,
            CellKind::Xor2,
            CellKind::And2,
            CellKind::Or2,
            CellKind::Buf,
            CellKind::Inv,
        ];
        let mut outs = Vec::new();
        for i in 0..n_gates {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let y = b.add_net(format!("w{i}"));
            let a = pool[rng.gen_range(0..pool.len())];
            if matches!(kind, CellKind::Buf | CellKind::Inv) {
                b.add_gate(kind, &[a], y, blk).unwrap();
            } else {
                let c = pool[rng.gen_range(0..pool.len())];
                b.add_gate(kind, &[a, c], y, blk).unwrap();
            }
            pool.push(y);
            outs.push(y);
        }
        for (i, &q) in qs.iter().enumerate() {
            let d = outs[rng.gen_range(0..outs.len())];
            b.add_flop(format!("ff{i}"), d, q, clk, ClockEdge::Rising, blk)
                .unwrap();
        }
        b.finish().unwrap()
    }
}

/// Whether the zero-filled `pattern` detects `fault` in `fsim`.
fn fault_sim_detects(
    n: &Netlist,
    fsim: &TransitionFaultSim,
    fault: scap_sim::TransitionFault,
    pattern: &TestPattern,
) -> bool {
    let mut rng = rand::rngs::mock::StepRng::new(0, 1);
    let filled = pattern.fill(n, FillPolicy::Zero, &mut rng);
    let batch = PatternBatch::pack(std::slice::from_ref(&filled));
    fsim.detect_batch(&batch.load_words, &batch.pi_words, 1, &[fault])
        .detect_mask[0]
        == 1
}

/// Wherever PODEM finds a test the CNF must be satisfiable, and
/// wherever SAT proves the fault untestable PODEM must never have found
/// a test. A generous backtrack/conflict budget keeps both engines
/// definite on these tiny cones, so the implications bind on nearly
/// every fault. Every test either engine finds must detect the fault in
/// the fault simulator of the same launch mode.
fn verdicts_agree(n: &Netlist, mode: LaunchMode) -> Result<(), TestCaseError> {
    let podem = Podem::with_mode(n, CLK, mode, 10_000);
    let sat = SatAtpg::new(n, CLK, mode, 1_000_000);
    let fsim = TransitionFaultSim::with_mode(n, CLK, mode);
    for &fault in FaultList::full(n).faults() {
        let mut pp = TestPattern::unspecified(n);
        let p = podem.generate(fault, &mut pp);
        let mut sp = TestPattern::unspecified(n);
        let s = sat.generate(fault, &mut sp);
        if p == PodemOutcome::Test {
            prop_assert_eq!(
                s,
                SatOutcome::Test,
                "PODEM detected {:?} but SAT disagreed",
                fault
            );
            prop_assert!(
                fault_sim_detects(n, &fsim, fault, &pp),
                "PODEM test for {:?} not confirmed by fault simulation",
                fault
            );
        }
        if s == SatOutcome::Test {
            prop_assert!(
                fault_sim_detects(n, &fsim, fault, &sp),
                "SAT test for {:?} not confirmed by fault simulation",
                fault
            );
        }
        if s == SatOutcome::Untestable {
            prop_assert_ne!(
                p,
                PodemOutcome::Test,
                "SAT proved {:?} untestable but PODEM found a test",
                fault
            );
        }
        if p == PodemOutcome::Untestable {
            prop_assert_eq!(
                s,
                SatOutcome::Untestable,
                "PODEM exhausted the space of {:?} but the CNF is SAT",
                fault
            );
        }
    }
    Ok(())
}

/// A SAT-produced test pattern must actually be a test: handing its care
/// bits to PODEM as pre-set constraints still yields `Test` (the witness
/// is consistent with PODEM's own semantics).
fn sat_witness_passes_podem(n: &Netlist, mode: LaunchMode) -> Result<(), TestCaseError> {
    let podem = Podem::with_mode(n, CLK, mode, 10_000);
    let sat = SatAtpg::new(n, CLK, mode, 1_000_000);
    for &fault in FaultList::full(n).faults() {
        let mut sp = TestPattern::unspecified(n);
        if sat.generate(fault, &mut sp) != SatOutcome::Test {
            continue;
        }
        let mut check = sp.clone();
        prop_assert_eq!(
            podem.generate(fault, &mut check),
            PodemOutcome::Test,
            "SAT witness for {:?} rejected by PODEM",
            fault
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn podem_and_sat_verdicts_agree(n in arb_netlist(20)) {
        verdicts_agree(&n, LaunchMode::Capture)?;
    }

    #[test]
    fn sat_witness_is_a_podem_consistent_test(n in arb_netlist(20)) {
        sat_witness_passes_podem(&n, LaunchMode::Capture)?;
    }

    #[test]
    fn launch_off_shift_verdicts_agree(n in arb_stitched_netlist(20)) {
        verdicts_agree(&n, LaunchMode::Shift)?;
    }

    #[test]
    fn launch_off_shift_sat_witness_is_a_podem_consistent_test(
        n in arb_stitched_netlist(20),
    ) {
        sat_witness_passes_podem(&n, LaunchMode::Shift)?;
    }
}

/// The hybrid engine's pattern stream is bit-identical across
/// drop-simulation thread counts: SAT rescues happen in the serial
/// targeting loop, and the PPSFP drop kernel is sharded
/// deterministically.
#[test]
fn hybrid_stream_is_thread_count_invariant() {
    for seed in 0..6u64 {
        let n = random_netlist(4, 16, 0x5EED ^ seed.wrapping_mul(0x9E37_79B9));
        let faults = FaultList::full(&n);
        let config = AtpgConfig {
            engine: EngineKind::Hybrid,
            // Tight budget so some primary targets abort and take the
            // SAT path — the stream must stay deterministic through it.
            backtrack_limit: 2,
            ..AtpgConfig::default()
        };
        let run_with = |threads: usize| {
            scap_exec::set_default_threads(threads);
            Generator::new(&n, CLK, config).run(&faults)
        };
        let one = run_with(1);
        let three = run_with(3);
        scap_exec::set_default_threads(1);
        assert_eq!(
            one.patterns.source, three.patterns.source,
            "hybrid source patterns diverged across thread counts"
        );
        assert_eq!(
            one.patterns.filled, three.patterns.filled,
            "hybrid filled patterns diverged across thread counts"
        );
        assert_eq!(one.status, three.status, "fault statuses diverged");
    }
}
