//! Differential tests of the bucket-queue fault-propagation kernel.
//!
//! The fast path (epoch-stamped [`scap_sim::LevelQueue`] scheduling,
//! observability pruning, equivalence collapsing) must be *bit-identical*
//! to the heap-based reference propagator below on every fault and
//! every pattern lane — these properties drive randomized netlists and
//! loads through both and compare the raw detect masks.

use proptest::prelude::*;
use scap_netlist::{
    CellKind, ClockEdge, ClockId, GateId, Levelization, NetId, Netlist, NetlistBuilder,
};
use scap_sim::loc::BatchFrames;
use scap_sim::{
    FaultList, FaultSite, Polarity, PropagationScratch, TransitionFault, TransitionFaultSim,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// The reference propagator the bucket-queue kernel replaced, built
/// from public netlist API only: frame-2 diffs pushed through a
/// `BinaryHeap<Reverse<(level, gate)>>` with a `HashSet` of enqueued
/// gates, allocating its working set per call.
struct Reference<'n> {
    netlist: &'n Netlist,
    levels: Levelization,
    /// Capture points: D nets of the active domain's flops.
    observed: Vec<bool>,
}

impl<'n> Reference<'n> {
    fn new(netlist: &'n Netlist, active: ClockId) -> Self {
        let mut observed = vec![false; netlist.num_nets()];
        for f in netlist.flops().iter().filter(|f| f.clock == active) {
            observed[f.d.index()] = true;
        }
        Reference {
            netlist,
            levels: Levelization::build(netlist),
            observed,
        }
    }

    /// Detect mask of `fault` over the lanes in `valid_mask`.
    fn detect(&self, frames: &BatchFrames, valid_mask: u64, fault: TransitionFault) -> u64 {
        let n = self.netlist;
        let site = fault.site.net(n);
        let (v1, v2) = (frames.frame1[site.index()], frames.frame2[site.index()]);
        let launch = match fault.polarity {
            Polarity::SlowToRise => !v1 & v2,
            Polarity::SlowToFall => v1 & !v2,
        } & valid_mask;
        if launch == 0 {
            return 0;
        }
        let mut diff = vec![0u64; n.num_nets()];
        let mut queue: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        let mut enqueued: HashSet<u32> = HashSet::new();
        let mut detected = 0u64;
        // Seeds the diff on `net`, credits an observed net and schedules
        // its fanout gates (each at most once).
        let mut seed = |net: NetId,
                        d: u64,
                        diff: &mut Vec<u64>,
                        queue: &mut BinaryHeap<Reverse<(u32, u32)>>| {
            diff[net.index()] |= d;
            if self.observed[net.index()] {
                detected |= d;
            }
            for &g in n.fanout_gates(net) {
                if enqueued.insert(g.raw()) {
                    queue.push(Reverse((self.levels.level(g), g.raw())));
                }
            }
        };
        match fault.site {
            FaultSite::Net(net) => seed(net, launch, &mut diff, &mut queue),
            FaultSite::Pin { gate, pin } => {
                let g = n.gate(gate);
                let mut ins = [0u64; 4];
                for (k, &inp) in g.inputs.iter().enumerate() {
                    ins[k] = frames.frame2[inp.index()];
                }
                ins[pin as usize] ^= launch;
                let d = (g.kind.eval_word(&ins[..g.inputs.len()])
                    ^ frames.frame2[g.output.index()])
                    & valid_mask;
                if d == 0 {
                    return 0;
                }
                seed(g.output, d, &mut diff, &mut queue);
            }
        }
        while let Some(Reverse((_, raw))) = queue.pop() {
            let gate = n.gate(GateId::new(raw));
            let mut ins = [0u64; 4];
            for (k, &inp) in gate.inputs.iter().enumerate() {
                ins[k] = frames.frame2[inp.index()] ^ diff[inp.index()];
            }
            let out = gate.output;
            let d = (gate.kind.eval_word(&ins[..gate.inputs.len()]) ^ frames.frame2[out.index()])
                & valid_mask;
            if d != 0 {
                seed(out, d, &mut diff, &mut queue);
            }
        }
        detected
    }
}

/// Strategy: a random acyclic netlist with inverter/buffer chains (to
/// exercise equivalence collapsing), dead logic (to exercise
/// observability pruning) and multi-input mixing gates.
fn arb_netlist(max_gates: usize) -> impl Strategy<Value = Netlist> {
    (2usize..6, 5usize..max_gates.max(6), any::<u64>()).prop_map(|(n_ff, n_gates, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new("prop");
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
            CellKind::Buf, // weighted: more single-input chains
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
        // Only some gate outputs feed flops: the rest are dead cones the
        // pruning pass must classify as unobservable.
        for (i, &q) in qs.iter().enumerate() {
            let d = outs[rng.gen_range(0..outs.len())];
            b.add_flop(format!("ff{i}"), d, q, clk, ClockEdge::Rising, blk)
                .unwrap();
        }
        b.finish().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bucket-queue kernel and the heap-based reference propagator
    /// return the same detect mask for every fault of the full
    /// (uncollapsed) universe on random fully-specified pattern batches.
    #[test]
    fn bucket_kernel_matches_reference_propagator(
        n in arb_netlist(24),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let clka = ClockId::new(0);
        let fsim = TransitionFaultSim::new(&n, clka);
        let oracle = Reference::new(&n, clka);
        let faults = FaultList::full(&n);
        let load: Vec<u64> = (0..n.num_flops()).map(|_| rng.gen()).collect();
        let pi: Vec<u64> = (0..n.primary_inputs().len()).map(|_| rng.gen()).collect();
        let frames = fsim.frames(&load, &pi);
        let mut scratch = PropagationScratch::new(n.num_nets());
        for &fault in faults.faults() {
            let fast = fsim.detect_one(&frames, !0, fault, &mut scratch);
            let reference = oracle.detect(&frames, !0, fault);
            prop_assert_eq!(
                fast, reference,
                "kernel diverged from reference on {:?}", fault
            );
            // The pruning pass may only skip faults the reference also
            // never detects.
            if !fsim.is_observable(fault) {
                prop_assert_eq!(reference, 0, "pruned a detectable fault {:?}", fault);
            }
        }
    }

    /// Transition-fault equivalence collapsing is exact: a class
    /// representative's detect mask equals every member's own mask, so
    /// credit expansion over the class loses nothing.
    #[test]
    fn collapse_representative_answers_for_members(
        n in arb_netlist(24),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let clka = ClockId::new(0);
        let fsim = TransitionFaultSim::new(&n, clka);
        let faults = FaultList::full(&n);
        let collapse = faults.collapse(&n);
        let rep = collapse.rep();
        let list = faults.faults();
        let load: Vec<u64> = (0..n.num_flops()).map(|_| rng.gen()).collect();
        let pi: Vec<u64> = (0..n.primary_inputs().len()).map(|_| rng.gen()).collect();
        let frames = fsim.frames(&load, &pi);
        let mut scratch = PropagationScratch::new(n.num_nets());
        // Idempotence: a representative represents itself.
        for (i, &r) in rep.iter().enumerate() {
            prop_assert_eq!(rep[r as usize], r, "rep chain not flattened at {}", i);
        }
        for (i, &fault) in list.iter().enumerate() {
            let own = fsim.detect_one(&frames, !0, fault, &mut scratch);
            let via_rep = fsim.detect_one(&frames, !0, list[rep[i] as usize], &mut scratch);
            prop_assert_eq!(
                own, via_rep,
                "member {:?} and representative {:?} disagree",
                fault, list[rep[i] as usize]
            );
        }
    }
}
