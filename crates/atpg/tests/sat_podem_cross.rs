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
//!   of the thread count.
//!
//! A third, engine-free oracle checks the SAT encoding itself: on netlists
//! small enough to enumerate every scan load and primary-input value, the
//! fault simulator finds a detecting assignment exactly when SAT answers
//! `Test`. It catches an unsound clause (a D-chain that drops detections,
//! a gate clause too weak or too strong), which an UNSAT proof checker
//! cannot see.

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
        let mut n = random_netlist(n_ff, n_gates, seed);
        stitch(&mut n, seed);
        n
    })
}

/// Stitches a random subset of `n`'s flops into up to two scan chains,
/// in random order with position gaps.
fn stitch(n: &mut Netlist, seed: u64) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed.rotate_left(17));
    let n_ff = n.num_flops();
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
}

/// A random acyclic netlist over two primary inputs and `n_ff` flops of
/// the active domain, with `n_gates` gates of random kinds (each with its
/// own arity) reading earlier nets.
fn random_netlist(n_ff: usize, n_gates: usize, seed: u64) -> Netlist {
    build_netlist(n_ff, &[], n_gates, false, seed)
}

/// Builds [`random_netlist`]'s shape: `fixed` kinds first, then
/// `n_random` gates of random kinds, and, with `off_domain`, one extra
/// flop in a second clock domain whose Q feeds the logic but whose D is
/// never observed.
fn build_netlist(
    n_ff: usize,
    fixed: &[CellKind],
    n_random: usize,
    off_domain: bool,
    seed: u64,
) -> Netlist {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new("cross");
    let blk = b.add_block("B1");
    let clk = b.add_clock_domain("clka", 100e6);
    let mut pool = vec![b.add_primary_input("pi0"), b.add_primary_input("pi1")];
    let mut flops: Vec<(NetId, ClockId)> = (0..n_ff)
        .map(|i| (b.add_net(format!("q{i}")), clk))
        .collect();
    if off_domain {
        let clkb = b.add_clock_domain("clkb", 50e6);
        flops.push((b.add_net("qb"), clkb));
    }
    pool.extend(flops.iter().map(|&(q, _)| q));
    let mut kinds = fixed.to_vec();
    kinds.extend((0..n_random).map(|_| CellKind::ALL[rng.gen_range(0..CellKind::ALL.len())]));
    let mut outs = Vec::new();
    for (i, kind) in kinds.into_iter().enumerate() {
        let y = b.add_net(format!("w{i}"));
        let ins: Vec<NetId> = (0..kind.num_inputs())
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        b.add_gate(kind, &ins, y, blk).unwrap();
        pool.push(y);
        outs.push(y);
    }
    for (i, &(q, c)) in flops.iter().enumerate() {
        let d = outs[rng.gen_range(0..outs.len())];
        b.add_flop(format!("ff{i}"), d, q, c, ClockEdge::Rising, blk)
            .unwrap();
    }
    b.finish().unwrap()
}

/// Strategy: a netlist small enough to enumerate — up to four
/// active-domain flops plus one off-domain flop, two primary inputs —
/// holding every cell kind once (in random order) plus a few random
/// gates, with a random subset of flops stitched for launch-off-shift.
fn arb_enumerable_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..5, 0usize..6, any::<u64>()).prop_map(|(n_ff, n_random, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xA11_C311);
        let mut kinds = CellKind::ALL.to_vec();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.gen_range(0..i + 1));
        }
        let mut n = build_netlist(n_ff, &kinds, n_random, true, seed);
        stitch(&mut n, seed);
        n
    })
}

/// Enumerates every scan load and primary-input assignment through the
/// fault simulator, 64 per word, and requires, per fault of the full
/// list: some assignment detects ⇔ SAT answers `Test`, and SAT never
/// answers `Unknown`.
fn sat_matches_exhaustive_simulation(n: &Netlist, mode: LaunchMode) -> Result<(), TestCaseError> {
    let sat = SatAtpg::new(n, CLK, mode, 1_000_000);
    let fsim = TransitionFaultSim::with_mode(n, CLK, mode);
    let faults = FaultList::full(n);
    let faults = faults.faults();
    let (n_ff, n_pi) = (n.num_flops(), n.primary_inputs().len());
    let rows = 1u64 << (n_ff + n_pi);
    let mut detectable = vec![false; faults.len()];
    for base in (0..rows).step_by(64) {
        let lanes = (rows - base).min(64);
        let word =
            |bit: usize| (0..lanes).fold(0u64, |w, lane| w | ((base + lane) >> bit & 1) << lane);
        let load: Vec<u64> = (0..n_ff).map(word).collect();
        let pi: Vec<u64> = (n_ff..n_ff + n_pi).map(word).collect();
        let valid = if lanes == 64 { !0 } else { (1 << lanes) - 1 };
        let summary = fsim.detect_batch(&load, &pi, valid, faults);
        for (d, mask) in detectable.iter_mut().zip(&summary.detect_mask) {
            *d |= *mask != 0;
        }
    }
    for (&fault, &detected) in faults.iter().zip(&detectable) {
        let outcome = sat.generate(fault, &mut TestPattern::unspecified(n));
        prop_assert_ne!(outcome, SatOutcome::Unknown, "SAT gave up on {:?}", fault);
        prop_assert_eq!(
            outcome == SatOutcome::Test,
            detected,
            "SAT says {:?} for {:?}; exhaustive simulation says detectable = {}",
            outcome,
            fault,
            detected
        );
    }
    Ok(())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn sat_verdicts_match_exhaustive_simulation(n in arb_enumerable_netlist()) {
        sat_matches_exhaustive_simulation(&n, LaunchMode::Capture)?;
    }

    #[test]
    fn launch_off_shift_sat_verdicts_match_exhaustive_simulation(
        n in arb_enumerable_netlist(),
    ) {
        sat_matches_exhaustive_simulation(&n, LaunchMode::Shift)?;
    }
}

/// The hybrid engine's pattern stream is bit-identical across thread
/// counts: at three threads two speculators run the PODEM searches and
/// the SAT calls after their aborts, and the targeting loop commits
/// their verdicts in fault order, as one thread does alone.
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
