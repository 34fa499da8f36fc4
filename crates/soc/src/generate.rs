//! The seeded SOC generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scap_dft::{insert_scan, ChainReport, ScanConfig};
use scap_netlist::{
    BlockId, CellKind, ClockEdge, ClockId, Die, Floorplan, NetId, Netlist, NetlistBuilder,
    Placement, Point, Rect,
};

/// Smallest scale the Turbo-Eagle plan builds at. Every block needs at
/// least one flop to seed its logic cloud. The binding block is B4,
/// whose only flops are its 8 % share of `clka`'s 18 000: it gets one
/// once `round(18 000 · scale) ≥ 7`, i.e. from scale 6.5 / 18 000
/// ≈ 0.00036. The floor rounds that up. Flop counts depend on the scale
/// alone, not the seed, so the floor holds for every seed.
pub const MIN_SCALE: f64 = 0.0004;

/// Generator parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct SocConfig {
    /// Design size relative to the paper's chip (1.0 ≈ 23 K flops).
    pub scale: f64,
    /// RNG seed; the same seed always yields the same design.
    pub seed: u64,
    /// Combinational gates per flop (industrial designs run ~4–8).
    pub gates_per_flop: f64,
    /// Logic depth of the random clouds (levels between flops).
    pub logic_depth: u32,
    /// Scan chains to stitch.
    pub num_chains: u16,
    /// Fraction of block nets exported onto the inter-block "bus".
    pub bus_fraction: f64,
    /// Chip primary inputs.
    pub num_primary_inputs: usize,
}

impl SocConfig {
    /// The Turbo-Eagle preset at a given scale.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1.0`.
    pub fn turbo_eagle(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        SocConfig {
            scale,
            seed: 0x7EA61E,
            gates_per_flop: 4.5,
            logic_depth: 50,
            num_chains: 16,
            bus_fraction: 0.02,
            num_primary_inputs: (64.0 * scale.sqrt()).ceil() as usize,
        }
    }
}

/// One clock domain of a [`SocPlan`].
#[derive(Clone, Debug, PartialEq)]
pub struct DomainPlan {
    /// Domain name (e.g. `"clka"`).
    pub name: String,
    /// Functional frequency, Hz.
    pub frequency_hz: f64,
    /// Flop count at scale 1.0.
    pub flops: f64,
    /// Share of the domain's flops per block (must have one entry per
    /// block; shares should sum to ~1).
    pub block_shares: Vec<f64>,
}

/// The architectural plan a design is generated from: blocks, clock
/// domains and the falling-edge flop budget.
///
/// [`SocPlan::turbo_eagle`] is the paper's case-study chip; custom plans
/// let downstream users model their own SOC.
#[derive(Clone, Debug, PartialEq)]
pub struct SocPlan {
    /// Block names, in floorplan order (the generator's floorplan expects
    /// exactly six blocks; index 4 is the hot center block).
    pub blocks: Vec<String>,
    /// Clock domains.
    pub domains: Vec<DomainPlan>,
    /// Falling-edge flops at scale 1.0 (assigned to the last block, first
    /// domain).
    pub negative_edge_flops: f64,
}

impl SocPlan {
    /// The paper's Table 2 plan: `clka` dominant at the 20 ns test cycle
    /// spanning B1–B6 (B5 the largest share), the other domains
    /// block-local, 22 falling-edge flops.
    pub fn turbo_eagle() -> Self {
        let d = |name: &str, hz: f64, flops: f64, shares: [f64; 6]| DomainPlan {
            name: name.to_owned(),
            frequency_hz: hz,
            flops,
            block_shares: shares.to_vec(),
        };
        SocPlan {
            blocks: (1..=6).map(|i| format!("B{i}")).collect(),
            domains: vec![
                d(
                    "clka",
                    50.0e6,
                    18_000.0,
                    [0.12, 0.10, 0.12, 0.08, 0.38, 0.20],
                ),
                d("clkb", 100.0e6, 1_473.0, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
                d("clkc", 33.0e6, 1_100.0, [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
                d("clkd", 25.0e6, 900.0, [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
                d("clke", 12.5e6, 800.0, [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
                d("clkf", 66.0e6, 700.0, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
            ],
            negative_edge_flops: 22.0,
        }
    }
}

/// A generated design: netlist + floorplan + scan report.
#[derive(Clone, Debug)]
pub struct SocDesign {
    /// The gate-level netlist with scan inserted.
    pub netlist: Netlist,
    /// Die, block rectangles and placement.
    pub floorplan: Floorplan,
    /// Scan-chain summary.
    pub chains: ChainReport,
    /// The configuration that produced the design.
    pub config: SocConfig,
}

impl SocDesign {
    /// Generates a design from a configuration with the Turbo-Eagle plan
    /// (deterministic per seed).
    pub fn generate(config: &SocConfig) -> Self {
        Self::generate_with_plan(config, &SocPlan::turbo_eagle())
    }

    /// Generates a design from a configuration and an explicit plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no blocks/domains, if any domain's
    /// `block_shares` length disagrees with the block count, or if the
    /// plan does not have exactly six blocks (the built-in floorplan's
    /// layout).
    pub fn generate_with_plan(config: &SocConfig, plan: &SocPlan) -> Self {
        assert!(!plan.domains.is_empty(), "plan needs at least one domain");
        assert_eq!(
            plan.blocks.len(),
            6,
            "the built-in floorplan has six block slots"
        );
        for d in &plan.domains {
            assert_eq!(
                d.block_shares.len(),
                plan.blocks.len(),
                "domain {} shares must cover every block",
                d.name
            );
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut b = NetlistBuilder::new(format!("turbo-eagle-{:.3}", config.scale));
        let blocks: Vec<BlockId> = plan.blocks.iter().map(|n| b.add_block(n.clone())).collect();
        let clocks: Vec<ClockId> = plan
            .domains
            .iter()
            .map(|d| b.add_clock_domain(d.name.clone(), d.frequency_hz))
            .collect();

        // Chip primary inputs (the paper's design holds them constant in
        // test mode; they still feed logic).
        let pis: Vec<NetId> = (0..config.num_primary_inputs.max(4))
            .map(|i| b.add_primary_input(format!("pad_in{i}")))
            .collect();

        // Flop membership per (block, clock), with Q nets pre-created so
        // logic clouds can reference any flop in their block.
        let mut membership: Vec<(BlockId, ClockId, ClockEdge)> = Vec::new();
        for (di, domain) in plan.domains.iter().enumerate() {
            let total = (domain.flops * config.scale).round().max(4.0) as usize;
            for (bi, share) in domain.block_shares.iter().enumerate() {
                let k = (total as f64 * share).round() as usize;
                for _ in 0..k {
                    membership.push((blocks[bi], clocks[di], ClockEdge::Rising));
                }
            }
        }
        let neg = (plan.negative_edge_flops * config.scale).ceil().max(2.0) as usize;
        for _ in 0..neg {
            membership.push((
                *blocks.last().expect("plan has blocks"),
                clocks[0],
                ClockEdge::Falling,
            ));
        }
        let plan = membership;

        // Pre-create Q nets per flop, grouped by block, so logic clouds
        // can reference any flop in their block before the flop exists.
        let mut q_by_block: Vec<Vec<NetId>> = vec![Vec::new(); 6];
        let mut flop_q: Vec<NetId> = Vec::with_capacity(plan.len());
        for (i, &(blk, _, _)) in plan.iter().enumerate() {
            let q = b.add_net(format!("ff{i}_q"));
            q_by_block[blk.index()].push(q);
            flop_q.push(q);
        }

        // Logic clouds per block; blocks may import bus nets exported by
        // earlier blocks only (keeps the combinational graph acyclic).
        let mut bus: Vec<NetId> = pis.clone();
        // `zero_value[net]` is the net's value when every flop holds 0 and
        // every primary input is 0 — maintained incrementally so the
        // generator can make the all-zero state an exact fixed point (a
        // reset-like quiescent state, which is what makes the paper's
        // fill-0 procedure keep untargeted blocks quiet on real designs).
        let mut zero_value: Vec<bool> = vec![false; b.num_nets()];
        let mut d_assignment: Vec<(usize, NetId)> = Vec::new(); // flop index -> driver net
        let mut flops_so_far = 0usize;
        for bi in 0..6 {
            let block = blocks[bi];
            let flops_here: Vec<usize> = plan
                .iter()
                .enumerate()
                .filter(|(_, &(blk, _, _))| blk == block)
                .map(|(i, _)| i)
                .collect();
            let n_gates = ((flops_here.len() as f64) * config.gates_per_flop)
                .round()
                .max(4.0) as usize;
            let sources: Vec<NetId> = q_by_block[bi].clone();
            let cloud = build_cloud(
                &mut b,
                &mut rng,
                block,
                bi,
                &sources,
                &bus,
                n_gates,
                config.logic_depth,
                &mut zero_value,
            );
            // Export a slice of this block's nets onto the bus. Only
            // early-level nets are exported (bus signals are registered
            // near block boundaries in practice) so combinational depth
            // does not stack up across blocks.
            let exportable = &cloud.outputs[..cloud.outputs.len() / 5 + 1];
            let n_export = ((cloud.outputs.len() as f64) * config.bus_fraction).ceil() as usize;
            for k in 0..n_export.min(exportable.len()) {
                bus.push(exportable[k * exportable.len() / n_export.max(1)]);
            }
            // Hook flop D pins: reduce leftover (unconsumed) nets with
            // compactor gates so no logic dangles, then assign.
            let mut pool = cloud.unconsumed;
            while pool.len() > flops_here.len().max(1) {
                let take = 2.min(pool.len());
                let a = pool.swap_remove(rng.gen_range(0..pool.len()));
                let c = if take == 2 && !pool.is_empty() {
                    pool.swap_remove(rng.gen_range(0..pool.len()))
                } else {
                    a
                };
                let y = b.add_net(format!("b{bi}_red{}", pool.len()));
                let kind = if rng.gen() {
                    CellKind::Xor2
                } else {
                    CellKind::Or2
                };
                b.add_gate(kind, &[a, c], y, block).expect("compactor gate");
                let zv = kind.eval_bool(&[zero_value[a.index()], zero_value[c.index()]]);
                push_zero_value(&mut zero_value, y, zv);
                pool.push(y);
            }
            for (k, &fi) in flops_here.iter().enumerate() {
                let own_q = flop_q[fi];
                let mut driver = if k < pool.len() {
                    pool[k]
                } else if !cloud.outputs.is_empty() {
                    cloud.outputs[rng.gen_range(0..cloud.outputs.len())]
                } else {
                    sources[rng.gen_range(0..sources.len())]
                };
                // Never wire a flop to its own Q: a D = Q self-loop can
                // never launch a transition, poisoning testability.
                if driver == own_q {
                    driver = if !cloud.outputs.is_empty() {
                        cloud.outputs[rng.gen_range(0..cloud.outputs.len())]
                    } else {
                        sources[(sources.iter().position(|&s| s == own_q).unwrap_or(0) + 1)
                            % sources.len()]
                    };
                }
                // Pin the all-zero state as a fixed point: if this D would
                // sample 1 under the quiescent state, interpose an
                // inverter so the flop reloads 0.
                if zero_value[driver.index()] {
                    let y = b.add_net(format!("ff{fi}_dz"));
                    b.add_gate(CellKind::Inv, &[driver], y, block)
                        .expect("quiescence inverter");
                    push_zero_value(&mut zero_value, y, false);
                    driver = y;
                }
                d_assignment.push((fi, driver));
            }
            flops_so_far += flops_here.len();
        }
        debug_assert_eq!(flops_so_far, plan.len());

        // Wire each flop directly to its assigned driver net.
        d_assignment.sort_unstable_by_key(|&(fi, _)| fi);
        for &(fi, driver) in &d_assignment {
            let (blk, clk, edge) = plan[fi];
            b.add_flop(format!("ff{fi}"), driver, flop_q[fi], clk, edge, blk)
                .expect("flop wiring");
        }

        // A few observable pads.
        for k in 0..(4.0 * config.scale.sqrt()).ceil() as usize {
            let src = bus[rng.gen_range(0..bus.len())];
            b.add_primary_output(src);
            let _ = k;
        }

        let mut netlist = b.finish().expect("generated netlist is well-formed");

        // Floorplan: die sized for ~70 % utilization; B5 at the center.
        let cell_area: f64 = netlist
            .gates()
            .iter()
            .map(|g| netlist.library.cell(g.kind).area_um2)
            .sum::<f64>()
            + netlist.num_flops() as f64 * netlist.library.flop().area_um2;
        let side = (cell_area / 0.70).sqrt().max(200.0);
        let rects = block_rects(side);
        let mut gate_xy = Vec::with_capacity(netlist.num_gates());
        for g in netlist.gates() {
            gate_xy.push(random_in(&rects[g.block.index()], &mut rng));
        }
        let mut flop_xy = Vec::with_capacity(netlist.num_flops());
        for f in netlist.flops() {
            flop_xy.push(random_in(&rects[f.block.index()], &mut rng));
        }
        let floorplan = Floorplan::new(
            &netlist,
            Die::square(side),
            rects,
            Placement::new(gate_xy, flop_xy),
        );

        let chains = insert_scan(
            &mut netlist,
            &ScanConfig::new(config.num_chains),
            Some(&floorplan),
        );

        SocDesign {
            netlist,
            floorplan,
            chains,
            config: config.clone(),
        }
    }

    /// The dominant clock domain (always `clka` for the preset).
    pub fn dominant_clock(&self) -> ClockId {
        self.netlist.dominant_clock().expect("design has flops")
    }

    /// Block id by name (`"B5"` → id).
    pub fn block_named(&self, name: &str) -> Option<BlockId> {
        self.netlist
            .blocks()
            .iter()
            .position(|b| b.name == name)
            .map(|i| BlockId::new(i as u32))
    }
}

struct Cloud {
    outputs: Vec<NetId>,
    unconsumed: Vec<NetId>,
}

/// Builds one block's random logic: `depth` levels, every gate's first
/// input drawn from the unconsumed outputs of the previous level so that
/// (almost) nothing dangles.
#[allow(clippy::too_many_arguments)]
fn build_cloud(
    b: &mut NetlistBuilder,
    rng: &mut StdRng,
    block: BlockId,
    bi: usize,
    sources: &[NetId],
    bus: &[NetId],
    n_gates: usize,
    depth: u32,
    zero_value: &mut Vec<bool>,
) -> Cloud {
    // The mix is biased toward zero-preserving cells (AND/OR/XOR/MUX map
    // the all-zero state to zero) so that a 0-filled scan state is close
    // to a quiescent fixed point — the property real designs have that
    // makes the paper's fill-0 procedure effective. Roughly 1 in 5 cells
    // inverts, which keeps the logic expressive without turning the
    // all-zero state into a launch storm.
    const KINDS: [CellKind; 16] = [
        CellKind::And2,
        CellKind::And2,
        CellKind::And3,
        CellKind::Xor2,
        CellKind::Or2,
        CellKind::Or2,
        CellKind::Or3,
        CellKind::Xor2,
        CellKind::Xor2,
        CellKind::Mux2,
        CellKind::Mux2,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Inv,
        CellKind::Aoi22,
    ];
    if sources.is_empty() {
        return Cloud {
            outputs: Vec::new(),
            unconsumed: Vec::new(),
        };
    }
    // Level 0 is sized to consume every source (flop Q) so the whole scan
    // state actually drives logic; the remaining gate budget is spread
    // over the deeper levels.
    let level0 = sources.len().div_ceil(2).clamp(1, n_gates.max(1));
    let deeper_levels = (depth.max(2) as usize) - 1;
    let per_level = (n_gates.saturating_sub(level0) / deeper_levels).max(1);
    let mut all: Vec<NetId> = sources.to_vec();
    let mut unconsumed: Vec<NetId> = sources.to_vec();
    let mut outputs = Vec::new();
    let mut made = 0usize;
    for level in 0..depth {
        if made >= n_gates {
            break;
        }
        let width = if level == 0 { level0 } else { per_level };
        let mut next_unconsumed = Vec::new();
        for k in 0..width {
            if made >= n_gates {
                break;
            }
            let kind = KINDS[rng.gen_range(0..KINDS.len())];
            let mut ins = Vec::with_capacity(kind.num_inputs());
            // Drain the unconsumed pool in random order so every flop Q
            // reaches logic and nothing dangles.
            while ins.len() < kind.num_inputs().min(2) && !unconsumed.is_empty() {
                let pick = rng.gen_range(0..unconsumed.len());
                ins.push(unconsumed.swap_remove(pick));
            }
            while ins.len() < kind.num_inputs() {
                // Mostly local history, occasionally the bus.
                let n = if !bus.is_empty() && rng.gen_bool(0.04) {
                    bus[rng.gen_range(0..bus.len())]
                } else {
                    all[rng.gen_range(0..all.len())]
                };
                ins.push(n);
            }
            let y = b.add_net(format!("b{bi}_l{level}_{k}"));
            b.add_gate(kind, &ins, y, block).expect("cloud gate");
            let zin: Vec<bool> = ins.iter().map(|n| zero_value[n.index()]).collect();
            let zv = kind.eval_bool(&zin);
            push_zero_value(zero_value, y, zv);
            made += 1;
            all.push(y);
            outputs.push(y);
            next_unconsumed.push(y);
        }
        // Anything the level failed to consume stays in the pool.
        unconsumed.extend(next_unconsumed);
    }
    // Parity spine: an XOR chain with one tap per level. XOR propagates
    // unconditionally, so any activity entering the spine rides it to the
    // end — giving the design deep *sensitized* paths (the paper's design
    // shows switching time windows close to half the 20 ns cycle, which a
    // purely AND/OR cloud would not reproduce). Real SOCs carry similar
    // structures (parity/CRC/ECC chains).
    if outputs.len() >= 2 {
        // Tap only the earliest ~40 % of the cloud and bound each chain's
        // length so spine endpoints still meet timing at 20 ns (their
        // arrivals land around half the cycle, mirroring the paper's
        // observed 8.34 ns switching time windows). The number of parallel
        // spines scales with the cloud so the spine share of switching
        // activity is independent of design scale.
        let cut = (outputs.len() * 2 / 5).max(2);
        let taps_per_spine = 20usize.min(cut.max(2) - 1).max(1);
        let num_spines = (cut / 500 + 1).max(1);
        let early: Vec<NetId> = outputs[..cut].to_vec();
        for sp in 0..num_spines {
            let mut spine = early[sp % early.len()];
            let step = (cut / (taps_per_spine * num_spines)).max(1);
            let taps = early
                .iter()
                .copied()
                .skip(1 + sp)
                .step_by(step)
                .take(taps_per_spine);
            for (k, tap) in taps.enumerate() {
                let y = b.add_net(format!("b{bi}_spine{sp}_{k}"));
                b.add_gate(CellKind::Xor2, &[spine, tap], y, block)
                    .expect("spine gate");
                let zv = zero_value[spine.index()] ^ zero_value[tap.index()];
                push_zero_value(zero_value, y, zv);
                spine = y;
            }
            unconsumed.push(spine);
            outputs.push(spine);
        }
    }
    Cloud {
        outputs,
        unconsumed,
    }
}

/// Records a net's value under the all-zero quiescent state.
fn push_zero_value(zero_value: &mut Vec<bool>, net: NetId, value: bool) {
    if zero_value.len() <= net.index() {
        zero_value.resize(net.index() + 1, false);
    }
    zero_value[net.index()] = value;
}

/// The Figure 1-style floorplan: B5 large at the center, the rest around
/// the periphery.
fn block_rects(s: f64) -> Vec<Rect> {
    vec![
        Rect::new(0.00 * s, 0.00 * s, 0.28 * s, 1.00 * s), // B1 left strip
        Rect::new(0.30 * s, 0.00 * s, 1.00 * s, 0.28 * s), // B2 bottom strip
        Rect::new(0.77 * s, 0.30 * s, 1.00 * s, 1.00 * s), // B3 right strip
        Rect::new(0.30 * s, 0.77 * s, 0.55 * s, 1.00 * s), // B4 top-left
        Rect::new(0.30 * s, 0.30 * s, 0.75 * s, 0.75 * s), // B5 center
        Rect::new(0.57 * s, 0.77 * s, 0.75 * s, 1.00 * s), // B6 top-right
    ]
}

fn random_in(r: &Rect, rng: &mut StdRng) -> Point {
    Point::new(
        rng.gen_range(r.min.x..r.max.x),
        rng.gen_range(r.min.y..r.max.y),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SocConfig::turbo_eagle(0.01);
        let a = SocDesign::generate(&cfg);
        let b = SocDesign::generate(&cfg);
        assert_eq!(a.netlist.num_gates(), b.netlist.num_gates());
        assert_eq!(a.netlist.num_flops(), b.netlist.num_flops());
        assert_eq!(a.chains.lengths, b.chains.lengths);
    }

    #[test]
    fn structure_matches_the_paper_shape() {
        let d = SocDesign::generate(&SocConfig::turbo_eagle(0.02));
        assert_eq!(d.netlist.blocks().len(), 6);
        assert_eq!(d.netlist.clocks().len(), 6);
        assert_eq!(d.chains.num_chains(), 16);
        // clka dominates.
        let dom = d.dominant_clock();
        assert_eq!(d.netlist.clock(dom).name, "clka");
        // Falling-edge flops isolated on the last chain.
        assert!(d.chains.negative_edge_chain.is_some());
        // B5 has the most clka flops.
        let b5 = d.block_named("B5").unwrap();
        let count = |blk| d.netlist.flops_in_block(blk).count();
        for other in 0..6 {
            let o = BlockId::new(other);
            if o != b5 {
                assert!(count(b5) >= count(o), "B5 must be the largest block");
            }
        }
    }

    #[test]
    fn every_block_gets_flops_at_the_scale_floor() {
        for seed in [1, 2, 3, SocConfig::turbo_eagle(1.0).seed] {
            let mut config = SocConfig::turbo_eagle(MIN_SCALE);
            config.seed = seed;
            let d = SocDesign::generate(&config);
            for b in 0..6 {
                assert!(
                    d.netlist.flops_in_block(BlockId::new(b)).count() > 0,
                    "block {b} has no flops at the floor (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn scale_controls_size_roughly_linearly() {
        let small = SocDesign::generate(&SocConfig::turbo_eagle(0.01));
        let large = SocDesign::generate(&SocConfig::turbo_eagle(0.04));
        let r = large.netlist.num_flops() as f64 / small.netlist.num_flops() as f64;
        assert!(r > 2.5 && r < 6.0, "flop ratio {r}");
    }

    #[test]
    fn all_cells_are_inside_their_block_rect() {
        let d = SocDesign::generate(&SocConfig::turbo_eagle(0.01));
        for (i, g) in d.netlist.gates().iter().enumerate() {
            let p = d
                .floorplan
                .placement
                .gate(scap_netlist::GateId::new(i as u32));
            assert!(
                d.floorplan.block_rect(g.block).contains(p),
                "gate {i} outside {:?}",
                g.block
            );
        }
        for (i, f) in d.netlist.flops().iter().enumerate() {
            let p = d
                .floorplan
                .placement
                .flop(scap_netlist::FlopId::new(i as u32));
            assert!(d.floorplan.block_rect(f.block).contains(p));
        }
    }

    #[test]
    fn little_logic_dangles() {
        let d = SocDesign::generate(&SocConfig::turbo_eagle(0.02));
        let n = &d.netlist;
        let mut dangling = 0usize;
        for (i, _) in n.nets().iter().enumerate() {
            let id = NetId::new(i as u32);
            let readers = n.fanout_gates(id).len() + n.fanout_flops(id).len();
            if readers == 0 && !n.primary_outputs().contains(&id) {
                dangling += 1;
            }
        }
        // Only a handful of exported-but-unused bus nets may dangle.
        assert!(
            dangling * 20 <= n.num_nets(),
            "{dangling} dangling nets out of {}",
            n.num_nets()
        );
    }

    #[test]
    fn custom_plan_generates_matching_structure() {
        let mut plan = SocPlan::turbo_eagle();
        plan.blocks = (0..6).map(|i| format!("CORE{i}")).collect();
        plan.domains.truncate(2);
        plan.domains[0].name = "cpu_clk".to_owned();
        plan.domains[0].block_shares = vec![0.5, 0.1, 0.1, 0.1, 0.1, 0.1];
        let cfg = SocConfig::turbo_eagle(0.01);
        let d = SocDesign::generate_with_plan(&cfg, &plan);
        assert_eq!(d.netlist.clocks().len(), 2);
        assert_eq!(
            d.netlist.clock(scap_netlist::ClockId::new(0)).name,
            "cpu_clk"
        );
        assert_eq!(d.netlist.blocks()[0].name, "CORE0");
        assert!(d.netlist.num_flops() > 50);
    }

    #[test]
    #[should_panic(expected = "shares must cover every block")]
    fn plan_share_width_is_validated() {
        let mut plan = SocPlan::turbo_eagle();
        plan.domains[0].block_shares.pop();
        let _ = SocDesign::generate_with_plan(&SocConfig::turbo_eagle(0.01), &plan);
    }

    /// The generator's headline invariant: the all-zero scan state is an
    /// exact fixed point — no flop launches when everything is 0-filled.
    /// This is what makes fill-0 keep untargeted blocks quiet.
    #[test]
    fn all_zero_state_is_quiescent() {
        use scap_netlist::Logic;
        use scap_sim::{loc, LogicSim};
        let d = SocDesign::generate(&SocConfig::turbo_eagle(0.015));
        let n = &d.netlist;
        let sim = LogicSim::new(n);
        let loads = vec![Logic::Zero; n.num_flops()];
        let pis = vec![Logic::Zero; n.primary_inputs().len()];
        let frames = loc::loc_frames(&sim, &loads, &pis, d.dominant_clock());
        for (i, v) in frames.state2.iter().enumerate() {
            assert_eq!(*v, Logic::Zero, "flop {i} must reload 0");
        }
    }

    #[test]
    fn gates_per_flop_is_respected() {
        let cfg = SocConfig::turbo_eagle(0.02);
        let d = SocDesign::generate(&cfg);
        let r = d.netlist.num_gates() as f64 / d.netlist.num_flops() as f64;
        assert!(
            r > 0.7 * cfg.gates_per_flop && r < 2.0 * cfg.gates_per_flop,
            "{r}"
        );
    }
}
