//! Differential tests of the word-packed (PPSFP) detection kernel.
//!
//! [`TransitionFaultSim::detect_batch_with_scratch`] grades up to 64
//! fully specified patterns per gate evaluation; these properties pin
//! it, lane for lane, to the scalar three-valued machinery ([`LogicSim`]
//! plus the fault injection of [`eval_injected`]) on randomized, randomly
//! and partially stitched netlists under both launch modes — including
//! partially filled final batches, where stale lanes must never leak into
//! a detection mask.
//!
//! The scalar oracle derives the launch state itself: the active domain's
//! D values for launch-off-capture, and for launch-off-shift the load of
//! the next lower [`ScanRole`] position of the same chain (scan-in 0 at
//! the head, unstitched flops hold). It never calls
//! `loc::state2_sources`, so the shared launch rule keeps an independent
//! check.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use scap_netlist::{
    CellKind, ClockEdge, ClockId, FlopId, Logic, NetId, Netlist, NetlistBuilder, ScanRole,
};
use scap_sim::{
    FaultList, FaultSite, LaunchMode, LogicSim, PropagationScratch, TransitionFault,
    TransitionFaultSim,
};

/// Strategy: a random acyclic netlist (same shape as the scalar kernel
/// equivalence tests: chains, dead cones, mixing gates) whose flops are
/// randomly stitched into up to two scan chains — some flops stay
/// unstitched, and positions leave gaps and run out of flop order.
fn arb_netlist(max_gates: usize) -> impl Strategy<Value = Netlist> {
    (2usize..6, 5usize..max_gates.max(6), any::<u64>()).prop_map(|(n_ff, n_gates, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new("blk");
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
            CellKind::Mux2,
            CellKind::Buf,
            CellKind::Inv,
        ];
        let mut outs = Vec::new();
        for i in 0..n_gates {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let y = b.add_net(format!("w{i}"));
            let mut ins = Vec::with_capacity(kind.num_inputs());
            for _ in 0..kind.num_inputs() {
                ins.push(pool[rng.gen_range(0..pool.len())]);
            }
            b.add_gate(kind, &ins, y, blk).unwrap();
            pool.push(y);
            outs.push(y);
        }
        for (i, &q) in qs.iter().enumerate() {
            let d = outs[rng.gen_range(0..outs.len())];
            b.add_flop(format!("ff{i}"), d, q, clk, ClockEdge::Rising, blk)
                .unwrap();
        }
        let mut n = b.finish().unwrap();
        // Stitch a random subset in a random order.
        let mut order: Vec<usize> = (0..n_ff).collect();
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
            n.set_scan_role(FlopId::new(f as u32), role);
        }
        n
    })
}

/// Frame-2 flop state of one three-valued pattern, derived from the
/// netlist alone.
fn oracle_state2(
    n: &Netlist,
    mode: LaunchMode,
    active: ClockId,
    load: &[Logic],
    frame1: &[Logic],
) -> Vec<Logic> {
    let flops = n.flops();
    (0..flops.len())
        .map(|i| match mode {
            LaunchMode::Capture if flops[i].clock == active => frame1[flops[i].d.index()],
            LaunchMode::Capture => load[i],
            LaunchMode::Shift => match flops[i].scan {
                None => load[i],
                Some(role) => flops
                    .iter()
                    .enumerate()
                    .filter_map(|(j, g)| g.scan.map(|r| (r, j)))
                    .filter(|(r, _)| r.chain == role.chain && r.position < role.position)
                    .max_by_key(|(r, _)| r.position)
                    .map_or(Logic::Zero, |(_, j)| load[j]),
            },
        })
        .collect()
}

/// The faulty machine: [`LogicSim::eval`] with `value` forced at `site`.
/// A `Net` site overrides the net's value (a primary-input or flop stem
/// too); a `Pin` site overrides the value *seen by that gate pin only*.
fn eval_injected(
    sim: &LogicSim,
    flop_q: &[Logic],
    pi: &[Logic],
    site: FaultSite,
    value: Logic,
) -> Vec<Logic> {
    let n = sim.netlist();
    // Sources as the good machine sets them; every gate is re-evaluated
    // below, in level order, so each reads its faulty inputs.
    let mut values = sim.eval(flop_q, pi);
    if let FaultSite::Net(net) = site {
        values[net.index()] = value;
    }
    for &g in sim.levelization().order() {
        let gate = n.gate(g);
        if site == FaultSite::Net(gate.output) {
            continue;
        }
        let ins: Vec<Logic> = (0..gate.inputs.len())
            .map(|pin| match site {
                FaultSite::Pin { gate: fg, pin: fp } if fg == g && usize::from(fp) == pin => value,
                _ => values[gate.inputs[pin].index()],
            })
            .collect();
        values[gate.output.index()] = gate.kind.eval(&ins);
    }
    values
}

/// One pattern's fault-free frames, built from [`LogicSim`] alone.
struct ScalarLane {
    pi: Vec<Logic>,
    state2: Vec<Logic>,
    frame1: Vec<Logic>,
    good2: Vec<Logic>,
}

impl ScalarLane {
    fn new(
        n: &Netlist,
        sim: &LogicSim,
        mode: LaunchMode,
        active: ClockId,
        load: Vec<Logic>,
        pi: Vec<Logic>,
    ) -> Self {
        let frame1 = sim.eval(&load, &pi);
        let state2 = oracle_state2(n, mode, active, &load, &frame1);
        let good2 = sim.eval(&state2, &pi);
        ScalarLane {
            pi,
            state2,
            frame1,
            good2,
        }
    }

    /// Scalar detection of one fault: launch check on the site net,
    /// faulty frame 2 via injection of the pre-transition value,
    /// detection where a capture flop's D net is known on both machines
    /// and differs.
    fn detects(
        &self,
        n: &Netlist,
        sim: &LogicSim,
        active: ClockId,
        fault: TransitionFault,
    ) -> bool {
        let site = fault.site.net(n).index();
        let v_init = Logic::from_bool(fault.polarity.initial_value());
        let v_final = Logic::from_bool(fault.polarity.final_value());
        if self.frame1[site] != v_init || self.good2[site] != v_final {
            return false;
        }
        let faulty2 = eval_injected(sim, &self.state2, &self.pi, fault.site, v_init);
        n.flops().iter().any(|f| {
            let d = f.d.index();
            f.clock == active
                && self.good2[d] != Logic::X
                && faulty2[d] != Logic::X
                && self.good2[d] != faulty2[d]
        })
    }
}

/// Lane `p` of packed words as a `Logic` vector.
fn lane(words: &[u64], p: usize) -> Vec<Logic> {
    words.iter().map(|w| Logic::from(w >> p & 1 == 1)).collect()
}

fn launch_mode(shift: bool) -> LaunchMode {
    if shift {
        LaunchMode::Shift
    } else {
        LaunchMode::Capture
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `detect_batch_with_scratch` ≡ `count` scalar single-pattern
    /// detections, on random netlists, the full fault universe and
    /// partially filled batches whose stale lanes hold random bits. Stale
    /// lanes never appear in a mask.
    #[test]
    fn block_kernel_matches_scalar_lanes(
        n in arb_netlist(20),
        seed in any::<u64>(),
        count in 1usize..=64,
        shift in any::<bool>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let clka = ClockId::new(0);
        let mode = launch_mode(shift);
        let fsim = TransitionFaultSim::with_mode(&n, clka, mode);
        let sim = LogicSim::new(&n);
        let load: Vec<u64> = (0..n.num_flops()).map(|_| rng.gen()).collect();
        let pi: Vec<u64> = (0..n.primary_inputs().len()).map(|_| rng.gen()).collect();
        let valid_mask = if count == 64 { !0 } else { (1u64 << count) - 1 };
        let faults = FaultList::full(&n);
        let mut scratch = PropagationScratch::new(n.num_nets());
        let summary =
            fsim.detect_batch_with_scratch(&load, &pi, valid_mask, faults.faults(), &mut scratch);
        let lanes: Vec<ScalarLane> = (0..count)
            .map(|p| ScalarLane::new(&n, &sim, mode, clka, lane(&load, p), lane(&pi, p)))
            .collect();
        for (&fault, &mask) in faults.faults().iter().zip(&summary.detect_mask) {
            prop_assert_eq!(
                mask & !valid_mask, 0,
                "stale lanes leaked into the mask of {:?}", fault
            );
            for (p, scalar) in lanes.iter().enumerate() {
                prop_assert_eq!(
                    mask >> p & 1 == 1,
                    scalar.detects(&n, &sim, clka, fault),
                    "{:?} lane {} of {:?} diverged (mask {:#x})", mode, p, fault, mask
                );
            }
        }
    }

    /// A single-lane `valid_mask` (the ATPG drop-simulation shape: one
    /// candidate pattern against many faults) returns exactly the
    /// corresponding lane of the full-batch result, for every lane and
    /// every fault.
    #[test]
    fn sparse_masks_match_full_batch(
        n in arb_netlist(20),
        seed in any::<u64>(),
        shift in any::<bool>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let clka = ClockId::new(0);
        let fsim = TransitionFaultSim::with_mode(&n, clka, launch_mode(shift));
        let faults = FaultList::full(&n);
        let load: Vec<u64> = (0..n.num_flops()).map(|_| rng.gen()).collect();
        let pi: Vec<u64> = (0..n.primary_inputs().len()).map(|_| rng.gen()).collect();
        let mut scratch = PropagationScratch::new(n.num_nets());
        let full =
            fsim.detect_batch_with_scratch(&load, &pi, !0, faults.faults(), &mut scratch);
        for p in [0usize, 1, 17, 40, 63] {
            let bit = 1u64 << p;
            let single =
                fsim.detect_batch_with_scratch(&load, &pi, bit, faults.faults(), &mut scratch);
            for (i, (&f, &s)) in full.detect_mask.iter().zip(&single.detect_mask).enumerate() {
                prop_assert_eq!(
                    s, f & bit,
                    "fault {} lane {} disagrees between sparse and full mask", i, p
                );
            }
        }
    }
}
