//! Vector-less statistical IR-drop analysis (paper §2.2).
//!
//! Every net is assumed to toggle with a uniform probability per cycle
//! (the paper uses a deliberately pessimistic 30 % where designers
//! usually assume 20 %), and all switching energy is assumed to land
//! inside a chosen time window: the full clock cycle (Table 3 "Case 1") or
//! the average switching time window of half a cycle (Table 3 "Case 2",
//! motivated by the authors' earlier b19 measurements). The per-block
//! average switching power of Case 2 is the **SCAP threshold** the
//! pattern-generation procedure screens against.

use crate::{GridConfig, PowerGrid};
use scap_netlist::{BlockId, Floorplan, NetSource, Netlist};
use scap_timing::DelayAnnotation;

/// Per-block statistical results.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BlockStatistics {
    /// Average switching power over the window, mW.
    pub avg_power_mw: f64,
    /// Worst average IR-drop on the VDD network over the block's cells, V.
    pub worst_drop_vdd_v: f64,
    /// Worst average ground bounce on the VSS network, V.
    pub worst_drop_vss_v: f64,
}

/// Statistical analysis report: one row per block plus the chip total —
/// the shape of the paper's Table 3.
#[derive(Clone, Debug)]
pub struct StatisticalReport {
    /// Toggle probability assumed.
    pub toggle_probability: f64,
    /// Averaging window, ps.
    pub window_ps: f64,
    /// Per-block rows, indexed by [`BlockId::index`].
    pub blocks: Vec<BlockStatistics>,
    /// Chip-level row.
    pub chip: BlockStatistics,
}

/// Vector-less statistical IR-drop analyzer.
///
/// # Example
///
/// ```no_run
/// # use scap_netlist::{Netlist, Floorplan};
/// # use scap_timing::DelayAnnotation;
/// # fn demo(netlist: &Netlist, fp: &Floorplan, ann: &DelayAnnotation) {
/// use scap_power::{GridConfig, StatisticalAnalysis};
/// let stat = StatisticalAnalysis::new(netlist, fp, GridConfig::default());
/// // Case 2 of the paper's Table 3: half-cycle window, 30 % toggles.
/// let report = stat.run(ann, 0.30, 10_000.0);
/// println!("chip avg power {:.1} mW", report.chip.avg_power_mw);
/// # }
/// ```
#[derive(Debug)]
pub struct StatisticalAnalysis<'a> {
    netlist: &'a Netlist,
    floorplan: &'a Floorplan,
    grid: PowerGrid,
}

impl<'a> StatisticalAnalysis<'a> {
    /// Builds the analyzer (constructs the power mesh once).
    pub fn new(netlist: &'a Netlist, floorplan: &'a Floorplan, grid: GridConfig) -> Self {
        StatisticalAnalysis {
            netlist,
            floorplan,
            grid: PowerGrid::new(floorplan.die, grid),
        }
    }

    /// The underlying mesh (shared with dynamic analysis in callers).
    pub fn grid(&self) -> &PowerGrid {
        &self.grid
    }

    /// Runs the analysis for a toggle probability and averaging window.
    pub fn run(
        &self,
        annotation: &DelayAnnotation,
        toggle_probability: f64,
        window_ps: f64,
    ) -> StatisticalReport {
        let n = self.netlist;
        let vdd = n.library.vdd;
        let num_blocks = n.blocks().len();
        let mut gate_current = vec![0.0f64; n.num_gates()];
        let mut flop_current = vec![0.0f64; n.num_flops()];
        let mut block_power = vec![0.0f64; num_blocks];
        let mut chip_power = 0.0f64;
        for (i, net) in n.nets().iter().enumerate() {
            let cap = annotation.net_total_cap_ff(scap_netlist::NetId::new(i as u32));
            // Energy per cycle: p · C · V²  (fJ); power over window (mW).
            let power_mw = toggle_probability * cap * vdd * vdd / window_ps;
            // Average rail current: half the toggles draw from VDD.
            // fF·V/ps = mA; convert to A.
            let current_a = 0.5 * toggle_probability * cap * vdd / window_ps * 1e-3;
            match net.source {
                Some(NetSource::Gate(g)) => {
                    gate_current[g.index()] += current_a;
                    block_power[n.gate(g).block.index()] += power_mw;
                    chip_power += power_mw;
                }
                Some(NetSource::Flop(f)) => {
                    flop_current[f.index()] += current_a;
                    block_power[n.flop(f).block.index()] += power_mw;
                    chip_power += power_mw;
                }
                _ => {}
            }
        }
        let node_currents = self
            .grid
            .stamp(n, self.floorplan, &gate_current, &flop_current);
        // The symmetric mesh serves both rails; ground bounce mirrors the
        // VDD drop with the return current, which is identical here.
        let drops = self.grid.solver().solve(&node_currents);
        let mut blocks = vec![BlockStatistics::default(); num_blocks];
        for (b, stat) in blocks.iter_mut().enumerate() {
            stat.avg_power_mw = block_power[b];
        }
        let mut chip = BlockStatistics {
            avg_power_mw: chip_power,
            ..BlockStatistics::default()
        };
        let mut visit = |block: BlockId, location: scap_netlist::Point| {
            let d = drops[self.grid.node_of(location)];
            let s = &mut blocks[block.index()];
            s.worst_drop_vdd_v = s.worst_drop_vdd_v.max(d);
            s.worst_drop_vss_v = s.worst_drop_vss_v.max(d);
            chip.worst_drop_vdd_v = chip.worst_drop_vdd_v.max(d);
            chip.worst_drop_vss_v = chip.worst_drop_vss_v.max(d);
        };
        for (i, g) in n.gates().iter().enumerate() {
            visit(
                g.block,
                self.floorplan
                    .placement
                    .gate(scap_netlist::GateId::new(i as u32)),
            );
        }
        for (i, f) in n.flops().iter().enumerate() {
            visit(
                f.block,
                self.floorplan
                    .placement
                    .flop(scap_netlist::FlopId::new(i as u32)),
            );
        }
        StatisticalReport {
            toggle_probability,
            window_ps,
            blocks,
            chip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use scap_netlist::{CellKind, ClockEdge, Die, NetlistBuilder, Placement, Point, Rect};

    /// Two blocks: B1 near the left edge, B2 dense at die center.
    fn two_block_design(gates_b1: usize, gates_b2: usize) -> (Netlist, Floorplan) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut b = NetlistBuilder::new("d");
        let b1 = b.add_block("B1");
        let b2 = b.add_block("B2");
        let clk = b.add_clock_domain("clka", 50e6);
        let mut gate_xy = Vec::new();
        // Keep each block's logic local so wire caps don't leak across
        // blocks and distort the per-block power comparison.
        let mut pool1 = vec![b.add_primary_input("pi0")];
        let mut pool2 = vec![b.add_primary_input("pi1")];
        for i in 0..gates_b1 {
            let a = pool1[rng.gen_range(0..pool1.len())];
            let y = b.add_net(format!("b1w{i}"));
            b.add_gate(CellKind::Inv, &[a], y, b1).unwrap();
            gate_xy.push(Point::new(
                rng.gen_range(10.0..120.0),
                rng.gen_range(10.0..990.0),
            ));
            pool1.push(y);
        }
        for i in 0..gates_b2 {
            let a = pool2[rng.gen_range(0..pool2.len())];
            let y = b.add_net(format!("b2w{i}"));
            b.add_gate(CellKind::Inv, &[a], y, b2).unwrap();
            gate_xy.push(Point::new(
                rng.gen_range(400.0..600.0),
                rng.gen_range(400.0..600.0),
            ));
            pool2.push(y);
        }
        let q = b.add_net("q");
        let d = pool2[pool2.len() - 1];
        b.add_flop("ff", d, q, clk, ClockEdge::Rising, b2).unwrap();
        let n = b.finish().unwrap();
        let fp = Floorplan::new(
            &n,
            Die::square(1000.0),
            vec![
                Rect::new(0.0, 0.0, 130.0, 1000.0),
                Rect::new(350.0, 350.0, 650.0, 650.0),
            ],
            Placement::new(gate_xy, vec![Point::new(500.0, 500.0)]),
        );
        (n, fp)
    }

    #[test]
    fn halving_the_window_doubles_power() {
        let (n, fp) = two_block_design(50, 50);
        let ann = DelayAnnotation::extract(&n, &fp);
        let stat = StatisticalAnalysis::new(&n, &fp, GridConfig::default());
        let full = stat.run(&ann, 0.30, 20_000.0);
        let half = stat.run(&ann, 0.30, 10_000.0);
        for b in 0..n.blocks().len() {
            let r = half.blocks[b].avg_power_mw / full.blocks[b].avg_power_mw;
            assert!((r - 2.0).abs() < 1e-9, "block {b}: ratio {r}");
        }
        assert!(half.chip.avg_power_mw > full.chip.avg_power_mw);
    }

    #[test]
    fn center_block_sees_higher_drop_than_periphery_block() {
        let (n, fp) = two_block_design(80, 80);
        let ann = DelayAnnotation::extract(&n, &fp);
        let stat = StatisticalAnalysis::new(
            &n,
            &fp,
            GridConfig {
                branch_resistance_ohm: 4.0,
                ..GridConfig::default()
            },
        );
        let rep = stat.run(&ann, 0.30, 10_000.0);
        assert!(
            rep.blocks[1].worst_drop_vdd_v > rep.blocks[0].worst_drop_vdd_v,
            "center {} vs periphery {}",
            rep.blocks[1].worst_drop_vdd_v,
            rep.blocks[0].worst_drop_vdd_v
        );
        // Chip worst equals the max over blocks.
        assert!((rep.chip.worst_drop_vdd_v - rep.blocks[1].worst_drop_vdd_v).abs() < 1e-12);
    }

    #[test]
    fn power_scales_with_toggle_probability() {
        let (n, fp) = two_block_design(30, 30);
        let ann = DelayAnnotation::extract(&n, &fp);
        let stat = StatisticalAnalysis::new(&n, &fp, GridConfig::default());
        let p20 = stat.run(&ann, 0.20, 10_000.0);
        let p30 = stat.run(&ann, 0.30, 10_000.0);
        let r = p30.chip.avg_power_mw / p20.chip.avg_power_mw;
        assert!((r - 1.5).abs() < 1e-9, "{r}");
    }

    #[test]
    fn bigger_block_consumes_more_power() {
        let (n, fp) = two_block_design(20, 120);
        let ann = DelayAnnotation::extract(&n, &fp);
        let stat = StatisticalAnalysis::new(&n, &fp, GridConfig::default());
        let rep = stat.run(&ann, 0.30, 10_000.0);
        assert!(rep.blocks[1].avg_power_mw > rep.blocks[0].avg_power_mw);
    }
}
