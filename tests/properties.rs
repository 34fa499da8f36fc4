//! Property-based tests (proptest) on core invariants.

use proptest::prelude::*;
use scap::dft::{FillPolicy, TestPattern};
use scap::netlist::{
    CellKind, ClockEdge, Die, Levelization, Logic, NetId, Netlist, NetlistBuilder, ScanRole,
};
use scap::power::{GridConfig, PowerGrid};
use scap::sim::{BatchSim, EventSim, LogicSim};
use scap::timing::DelayAnnotation;

/// Strategy: a random acyclic netlist with `n_ff` flops and `n_gates`
/// two-input gates, everything observable enough to be interesting.
fn arb_netlist(max_gates: usize) -> impl Strategy<Value = Netlist> {
    (2usize..6, 4usize..max_gates.max(5), any::<u64>()).prop_map(|(n_ff, n_gates, seed)| {
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
        ];
        let mut outs = Vec::new();
        for i in 0..n_gates {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let a = pool[rng.gen_range(0..pool.len())];
            let c = pool[rng.gen_range(0..pool.len())];
            let y = b.add_net(format!("w{i}"));
            b.add_gate(kind, &[a, c], y, blk).unwrap();
            pool.push(y);
            outs.push(y);
        }
        for (i, &q) in qs.iter().enumerate() {
            let d = outs[rng.gen_range(0..outs.len())];
            b.add_flop(format!("ff{i}"), d, q, clk, ClockEdge::Rising, blk)
                .unwrap();
        }
        let mut n = b.finish().unwrap();
        for i in 0..n_ff {
            n.set_scan_role(
                scap::netlist::FlopId::new(i as u32),
                ScanRole {
                    chain: 0,
                    position: i as u32,
                },
            );
        }
        n
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The levelization visits every gate exactly once and never before
    /// its combinational predecessors.
    #[test]
    fn levelization_is_a_valid_topological_order(n in arb_netlist(40)) {
        let lv = Levelization::build(&n);
        prop_assert_eq!(lv.order().len(), n.num_gates());
        let mut pos = vec![usize::MAX; n.num_gates()];
        for (i, &g) in lv.order().iter().enumerate() {
            pos[g.index()] = i;
        }
        for &g in lv.order() {
            for &inp in &n.gate(g).inputs {
                if let Some(scap::netlist::NetSource::Gate(src)) = n.net(inp).source {
                    prop_assert!(pos[src.index()] < pos[g.index()]);
                    prop_assert!(lv.level(src) < lv.level(g));
                }
            }
        }
    }

    /// Bit-parallel simulation agrees with scalar three-valued simulation
    /// on fully-specified vectors — for every bit lane.
    #[test]
    fn batch_sim_matches_scalar_sim(
        n in arb_netlist(30),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scalar = LogicSim::new(&n);
        let batch = BatchSim::new(&n);
        let lanes = 7usize;
        let flop_words: Vec<u64> =
            (0..n.num_flops()).map(|_| rng.gen::<u64>() & ((1 << lanes) - 1)).collect();
        let pi_words: Vec<u64> =
            (0..n.primary_inputs().len()).map(|_| rng.gen::<u64>() & ((1 << lanes) - 1)).collect();
        let words = batch.eval(&flop_words, &pi_words);
        for lane in 0..lanes {
            let loads: Vec<Logic> = flop_words
                .iter()
                .map(|w| Logic::from(w >> lane & 1 == 1))
                .collect();
            let pis: Vec<Logic> = pi_words
                .iter()
                .map(|w| Logic::from(w >> lane & 1 == 1))
                .collect();
            let values = scalar.eval(&loads, &pis);
            for i in 0..n.num_nets() {
                prop_assert_eq!(
                    words[i] >> lane & 1 == 1,
                    values[i] == Logic::One,
                    "net {} lane {}", i, lane
                );
            }
        }
    }

    /// Filling never changes care bits, and every policy fully specifies
    /// the pattern.
    #[test]
    fn fill_preserves_care_bits(
        n in arb_netlist(20),
        seed in any::<u64>(),
        fill_idx in 0usize..4,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pattern = TestPattern::unspecified(&n);
        for v in pattern.load.iter_mut() {
            *v = match rng.gen_range(0..3) {
                0 => Logic::Zero,
                1 => Logic::One,
                _ => Logic::X,
            };
        }
        let policy = FillPolicy::ALL[fill_idx];
        let filled = pattern.fill(&n, policy, &mut rng);
        prop_assert_eq!(filled.load.len(), pattern.load.len());
        for (src, dst) in pattern.load.iter().zip(&filled.load) {
            if let Some(v) = src.to_bool() {
                prop_assert_eq!(v, *dst);
            }
        }
    }

    /// Three-valued simulation is monotone: refining an X input never
    /// changes an already-known net value.
    #[test]
    fn three_valued_simulation_is_monotone(
        n in arb_netlist(25),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sim = LogicSim::new(&n);
        let mut loads: Vec<Logic> = (0..n.num_flops())
            .map(|_| match rng.gen_range(0..3) {
                0 => Logic::Zero,
                1 => Logic::One,
                _ => Logic::X,
            })
            .collect();
        let pis: Vec<Logic> = (0..n.primary_inputs().len())
            .map(|_| Logic::from(rng.gen::<bool>()))
            .collect();
        let before = sim.eval(&loads, &pis);
        // Refine one X load (if any).
        if let Some(slot) = loads.iter_mut().position(|v| *v == Logic::X) {
            loads[slot] = Logic::from(rng.gen::<bool>());
            let after = sim.eval(&loads, &pis);
            for i in 0..n.num_nets() {
                if before[i].is_known() {
                    prop_assert_eq!(before[i], after[i], "net {}", i);
                }
            }
        }
    }

    /// The grid solver is linear: scaling all currents scales all drops.
    #[test]
    fn grid_solve_is_linear(
        k in 1.0f64..10.0,
        node in 1usize..15,
    ) {
        // A 4×4 mesh with a single pad, at node 0.
        let grid = PowerGrid::new(
            Die::square(1000.0),
            GridConfig {
                nodes_per_side: 4,
                branch_resistance_ohm: 2.0,
                num_pads: 1,
            },
        );
        let n = grid.num_nodes();
        let mut solver = grid.solver();
        let mut inj = vec![0.0; n];
        inj[node] = 0.01;
        let base = solver.solve(&inj);
        inj[node] = 0.01 * k;
        let scaled = solver.solve(&inj);
        for i in 0..n {
            prop_assert!((scaled[i] - k * base[i]).abs() < 1e-6 * (1.0 + k * base[i].abs()));
        }
    }

    /// Event simulation invariants: (a) each net's final value equals its
    /// initial value XOR its toggle-count parity; (b) the STW equals the
    /// last event's time; (c) inertial semantics never produce more
    /// toggles than transport semantics.
    #[test]
    fn event_sim_parity_and_inertial_bounds(
        n in arb_netlist(30),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ann = DelayAnnotation::unit_wire(&n);
        let batch = BatchSim::new(&n);
        let loads: Vec<u64> = (0..n.num_flops()).map(|_| rng.gen::<u64>() & 1).collect();
        let pis: Vec<u64> = (0..n.primary_inputs().len()).map(|_| rng.gen::<u64>() & 1).collect();
        let frames = scap::sim::loc::loc_frames_batch(&batch, &loads, &pis, scap::netlist::ClockId::new(0));
        let frame1: Vec<bool> = frames.frame1.iter().map(|w| w & 1 == 1).collect();
        let launches: Vec<(scap::netlist::FlopId, bool, f64)> = n
            .flops()
            .iter()
            .enumerate()
            .filter(|(i, _)| (frames.state2[*i] ^ loads[*i]) & 1 == 1)
            .map(|(i, _)| (scap::netlist::FlopId::new(i as u32), frames.state2[i] & 1 == 1, 500.0))
            .collect();
        let inertial = EventSim::new(&n, &ann).run(&frame1, &launches);
        let transport = EventSim::new(&n, &ann)
            .with_transport_delays()
            .run(&frame1, &launches);
        // (c) inertial filters, never adds.
        prop_assert!(inertial.num_toggles() <= transport.num_toggles());
        // (a) parity for the transport run (no swallowed pulses).
        let counts = transport.toggle_counts(n.num_nets());
        for i in 0..n.num_nets() {
            let (r, f) = counts[i];
            let toggles = (r + f) as usize;
            if toggles > 0 {
                // Final value after an odd number of toggles differs from
                // the initial value.
                let last_rising = transport
                    .events
                    .iter()
                    .rev()
                    .find(|e| e.net.index() == i)
                    .map(|e| e.rising);
                if let Some(final_v) = last_rising {
                    prop_assert_eq!(
                        final_v != frame1[i],
                        toggles % 2 == 1,
                        "net {} toggles {}", i, toggles
                    );
                }
            }
        }
        // (b) STW is the last event time.
        if let Some(last) = transport.events.last() {
            prop_assert!((transport.stw_ps() - last.time_ps).abs() < 1e-9);
        }
    }

    /// Scan shift is a permutation plus the injected scan-in bits: every
    /// loaded value is either preserved somewhere or shifted out.
    #[test]
    fn scan_shift_conserves_interior_values(n in arb_netlist(20), si in any::<bool>()) {
        let loads: Vec<Logic> = (0..n.num_flops())
            .map(|i| Logic::from(i % 2 == 0))
            .collect();
        let src = scap::sim::loc::state2_sources(
            &n,
            scap::netlist::ClockId::new(0),
            scap::sim::LaunchMode::Shift,
        );
        let shifted = scap::sim::loc::launch_state(&src, &loads, &[], Logic::from(si));
        // Chain 0 holds all flops: position p takes position p-1's value.
        let mut by_pos: Vec<(u32, usize)> = n
            .flops()
            .iter()
            .enumerate()
            .map(|(i, f)| (f.scan.unwrap().position, i))
            .collect();
        by_pos.sort_unstable();
        for w in by_pos.windows(2) {
            prop_assert_eq!(shifted[w[1].1], loads[w[0].1]);
        }
        prop_assert_eq!(shifted[by_pos[0].1], Logic::from(si));
    }
}
