//! Dynamic (per-pattern) IR-drop analysis (paper §2.4, Figure 3).
//!
//! The toggle trace of one pattern's launch-to-capture window is converted
//! into per-cell average rail currents over the pattern's switching time
//! window, stamped onto the power mesh and solved — the SOC Encounter
//! dynamic-rail-analysis substitute. Rising edges load the VDD network,
//! falling edges the VSS network, so a pattern full of rising activity
//! stresses VDD harder than VSS, exactly as in the paper's Table 4.

use crate::grid::CellNodes;
use crate::{GridConfig, GridSolver, PowerGrid};
use scap_netlist::{BlockId, Floorplan, FlopId, GateId, NetId, NetSource, Netlist, Point};
use scap_sim::ToggleTrace;
use scap_timing::DelayAnnotation;

/// The solved IR-drop map of one pattern.
#[derive(Clone, Debug)]
pub struct IrDropMap {
    /// Per-mesh-node VDD drop, V.
    pub node_drop_vdd_v: Vec<f64>,
    /// Per-mesh-node VSS bounce, V.
    pub node_drop_vss_v: Vec<f64>,
    gate_drop_vdd_v: Vec<f64>,
    gate_drop_vss_v: Vec<f64>,
    flop_drop_vdd_v: Vec<f64>,
    flop_drop_vss_v: Vec<f64>,
    nodes_per_side: usize,
}

impl IrDropMap {
    /// VDD drop seen by a gate, V.
    pub fn gate_drop_vdd(&self, g: GateId) -> f64 {
        self.gate_drop_vdd_v[g.index()]
    }

    /// Total supply compression seen by a gate (VDD drop + ground bounce),
    /// the ΔV that scales its delay.
    pub fn gate_drop_total(&self, g: GateId) -> f64 {
        self.gate_drop_vdd_v[g.index()] + self.gate_drop_vss_v[g.index()]
    }

    /// Total supply compression seen by a flop, V.
    pub fn flop_drop_total(&self, f: FlopId) -> f64 {
        self.flop_drop_vdd_v[f.index()] + self.flop_drop_vss_v[f.index()]
    }

    /// Per-gate total droop vector (for `scap_timing::scaling`).
    pub fn gate_drops_total(&self) -> Vec<f64> {
        self.gate_drop_vdd_v
            .iter()
            .zip(&self.gate_drop_vss_v)
            .map(|(a, b)| a + b)
            .collect()
    }

    /// Per-flop total droop vector (for `scap_timing::scaling`).
    pub fn flop_drops_total(&self) -> Vec<f64> {
        self.flop_drop_vdd_v
            .iter()
            .zip(&self.flop_drop_vss_v)
            .map(|(a, b)| a + b)
            .collect()
    }

    /// Worst VDD drop over the cells of a block, V.
    pub fn worst_block_drop_vdd(&self, netlist: &Netlist, block: BlockId) -> f64 {
        let mut worst = 0.0f64;
        for (i, g) in netlist.gates().iter().enumerate() {
            if g.block == block {
                worst = worst.max(self.gate_drop_vdd_v[i]);
            }
        }
        for (i, f) in netlist.flops().iter().enumerate() {
            if f.block == block {
                worst = worst.max(self.flop_drop_vdd_v[i]);
            }
        }
        worst
    }

    /// Worst VSS bounce over the cells of a block, V.
    pub fn worst_block_drop_vss(&self, netlist: &Netlist, block: BlockId) -> f64 {
        let mut worst = 0.0f64;
        for (i, g) in netlist.gates().iter().enumerate() {
            if g.block == block {
                worst = worst.max(self.gate_drop_vss_v[i]);
            }
        }
        for (i, f) in netlist.flops().iter().enumerate() {
            if f.block == block {
                worst = worst.max(self.flop_drop_vss_v[i]);
            }
        }
        worst
    }

    /// Worst VDD drop anywhere, V.
    pub fn worst_drop_vdd(&self) -> f64 {
        self.node_drop_vdd_v.iter().cloned().fold(0.0, f64::max)
    }

    /// Worst VSS bounce anywhere, V.
    pub fn worst_drop_vss(&self) -> f64 {
        self.node_drop_vss_v.iter().cloned().fold(0.0, f64::max)
    }

    /// Fraction of mesh nodes whose VDD drop exceeds `threshold_v` — the
    /// "red region" of the paper's Figure 3 plots (10 % of VDD = 0.18 V).
    pub fn red_fraction(&self, threshold_v: f64) -> f64 {
        if self.node_drop_vdd_v.is_empty() {
            return 0.0;
        }
        self.node_drop_vdd_v
            .iter()
            .filter(|&&d| d > threshold_v)
            .count() as f64
            / self.node_drop_vdd_v.len() as f64
    }

    /// An ASCII rendering of the VDD drop map (rows top-to-bottom), one
    /// character per node: `.` <2.5 %, `-` <5 %, `+` <10 %, `#` ≥10 % of
    /// `vdd`.
    pub fn render_vdd_map(&self, vdd: f64) -> String {
        let n = self.nodes_per_side;
        let mut out = String::with_capacity(n * (n + 1));
        for y in (0..n).rev() {
            for x in 0..n {
                let d = self.node_drop_vdd_v[y * n + x] / vdd;
                out.push(if d >= 0.10 {
                    '#'
                } else if d >= 0.05 {
                    '+'
                } else if d >= 0.025 {
                    '-'
                } else {
                    '.'
                });
            }
            out.push('\n');
        }
        out
    }
}

/// Dynamic IR-drop analyzer bound to a design: the mesh, factored once
/// in [`DynamicAnalysis::new`], and the mesh node of every cell.
/// Patterns are solved through the [`DynSession`]s it hands out.
///
/// # Example
///
/// ```no_run
/// # use scap_netlist::{Netlist, Floorplan};
/// # use scap_timing::DelayAnnotation;
/// # use scap_sim::ToggleTrace;
/// # fn demo(netlist: &Netlist, fp: &Floorplan, ann: &DelayAnnotation, trace: &ToggleTrace) {
/// use scap_power::{DynamicAnalysis, GridConfig};
/// let dyn_ir = DynamicAnalysis::new(netlist, fp, GridConfig::default());
/// let map = dyn_ir.session().analyze(ann, trace);
/// println!("worst VDD drop {:.3} V", map.worst_drop_vdd());
/// print!("{}", map.render_vdd_map(netlist.library.vdd));
/// # }
/// ```
#[derive(Debug)]
pub struct DynamicAnalysis<'a> {
    netlist: &'a Netlist,
    grid: PowerGrid,
    nodes: CellNodes,
    /// The cell driving each net, as a stamping key: gate `g` is `g`,
    /// flop `f` is `num_gates + f` — the order currents are summed in.
    /// [`NO_CELL`] for primary inputs and constants.
    net_cell: Vec<u32>,
    /// The net each stamping key drives.
    cell_net: Vec<u32>,
}

/// No driving cell (primary input or constant net).
const NO_CELL: u32 = u32::MAX;

impl<'a> DynamicAnalysis<'a> {
    /// Builds the analyzer (constructs the mesh and maps every cell to
    /// its node once; reuse across patterns).
    pub fn new(netlist: &'a Netlist, floorplan: &'a Floorplan, grid: GridConfig) -> Self {
        let grid = PowerGrid::new(floorplan.die, grid);
        let num_gates = netlist.num_gates() as u32;
        let mut cell_net = vec![0; netlist.num_gates() + netlist.num_flops()];
        let net_cell = netlist
            .nets()
            .iter()
            .enumerate()
            .map(|(i, net)| {
                let cell = match net.source {
                    Some(NetSource::Gate(g)) => g.raw(),
                    Some(NetSource::Flop(f)) => num_gates + f.raw(),
                    _ => return NO_CELL,
                };
                cell_net[cell as usize] = i as u32;
                cell
            })
            .collect();
        DynamicAnalysis {
            netlist,
            nodes: grid.cell_nodes(netlist, floorplan),
            grid,
            net_cell,
            cell_net,
        }
    }

    /// The underlying mesh.
    pub fn grid(&self) -> &PowerGrid {
        &self.grid
    }

    /// A per-thread analysis context: one [`GridSolver`] per rail and the
    /// current-stamping buffers, kept alive across patterns so
    /// back-to-back [`DynSession::analyze`] calls skip the per-pattern
    /// allocations.
    pub fn session(&self) -> DynSession<'_, 'a> {
        let cells = self.cell_net.len();
        DynSession {
            analysis: self,
            vdd: self.grid.solver(),
            vss: self.grid.solver(),
            counts: vec![(0, 0); cells],
            toggled: vec![0; cells.div_ceil(64)],
            node_vdd: Vec::new(),
            node_vss: Vec::new(),
        }
    }

    /// The mesh node of a stamping key.
    fn cell_node(&self, cell: usize) -> usize {
        match self.nodes.gates.get(cell) {
            Some(&k) => k as usize,
            None => self.nodes.flops[cell - self.nodes.gates.len()] as usize,
        }
    }

    /// Samples the solved node drops at every cell location.
    fn assemble_map(&self, node_drop_vdd_v: Vec<f64>, node_drop_vss_v: Vec<f64>) -> IrDropMap {
        let sample = |cells: &[u32], drops: &[f64]| -> Vec<f64> {
            cells.iter().map(|&k| drops[k as usize]).collect()
        };
        IrDropMap {
            gate_drop_vdd_v: sample(&self.nodes.gates, &node_drop_vdd_v),
            gate_drop_vss_v: sample(&self.nodes.gates, &node_drop_vss_v),
            flop_drop_vdd_v: sample(&self.nodes.flops, &node_drop_vdd_v),
            flop_drop_vss_v: sample(&self.nodes.flops, &node_drop_vss_v),
            node_drop_vdd_v,
            node_drop_vss_v,
            nodes_per_side: self.grid.nodes_per_side(),
        }
    }

    /// Samples the solved VDD-drop map at an arbitrary die location — used
    /// to retime clock-tree buffers.
    pub fn drop_at(&self, map: &IrDropMap, p: Point) -> f64 {
        map.node_drop_vdd_v[self.grid.node_of(p)] + map.node_drop_vss_v[self.grid.node_of(p)]
    }
}

/// A per-thread dynamic-analysis context with reusable rail solvers and
/// current-stamping buffers.
///
/// Created by [`DynamicAnalysis::session`]. The solvers cold-start every
/// solve and the stamping buffers are zero again after every pattern
/// (only allocations are reused), so a result never depends on which
/// session solved it or what that session solved before — the property
/// the parallel per-pattern loops rely on.
#[derive(Debug)]
pub struct DynSession<'d, 'a> {
    analysis: &'d DynamicAnalysis<'a>,
    vdd: GridSolver<'d>,
    vss: GridSolver<'d>,
    /// Rising / falling toggles per stamping key; zero between patterns.
    counts: Vec<(u32, u32)>,
    /// One bit per stamping key with a toggle; zero between patterns.
    toggled: Vec<u64>,
    /// Per-node rail currents of the pattern being solved.
    node_vdd: Vec<f64>,
    node_vss: Vec<f64>,
}

impl DynSession<'_, '_> {
    /// Solves the IR-drop of one pattern's trace, averaging the switching
    /// charge over the pattern's STW (the paper's SCAP model).
    pub fn analyze(&mut self, annotation: &DelayAnnotation, trace: &ToggleTrace) -> IrDropMap {
        self.analyze_windowed(annotation, trace, trace.stw_ps())
    }

    /// Like [`DynSession::analyze`] but averages the charge over an
    /// explicit window — pass the full tester cycle to reproduce the CAP
    /// model's (underestimated) IR-drop of the paper's Table 4.
    pub fn analyze_windowed(
        &mut self,
        annotation: &DelayAnnotation,
        trace: &ToggleTrace,
        window_ps: f64,
    ) -> IrDropMap {
        self.rail_currents(annotation, trace, window_ps);
        let node_drop_vdd_v = self.vdd.solve(&self.node_vdd);
        let node_drop_vss_v = self.vss.solve(&self.node_vss);
        self.analysis.assemble_map(node_drop_vdd_v, node_drop_vss_v)
    }

    /// Stamps a trace's average per-rail currents onto the mesh nodes in
    /// `node_vdd` / `node_vss`. Only the toggled nets are visited, and
    /// their currents are summed onto nodes in stamping-key order (gates
    /// by index, then flops), as a stamp over every cell would.
    fn rail_currents(&mut self, annotation: &DelayAnnotation, trace: &ToggleTrace, window_ps: f64) {
        let a = self.analysis;
        let vdd = a.netlist.library.vdd;
        let stw = window_ps.max(1.0);
        for e in &trace.events {
            let cell = a.net_cell[e.net.index()];
            if cell == NO_CELL {
                continue; // no cell on the die drives it
            }
            let c = &mut self.counts[cell as usize];
            if *c == (0, 0) {
                self.toggled[cell as usize / 64] |= 1 << (cell % 64);
            }
            if e.rising {
                c.0 += 1;
            } else {
                c.1 += 1;
            }
        }
        let nodes = a.grid.num_nodes();
        for plane in [&mut self.node_vdd, &mut self.node_vss] {
            plane.clear();
            plane.resize(nodes, 0.0);
        }
        for (w, word) in self.toggled.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let cell = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (rise, fall) = std::mem::take(&mut self.counts[cell]);
                let cap = annotation.net_total_cap_ff(NetId::new(a.cell_net[cell]));
                // Average current over the STW: Q = C·V per toggle; fF·V/ps = mA.
                let i_vdd = rise as f64 * cap * vdd / stw * 1e-3;
                let i_vss = fall as f64 * cap * vdd / stw * 1e-3;
                let k = a.cell_node(cell);
                if i_vdd != 0.0 {
                    self.node_vdd[k] += i_vdd;
                }
                if i_vss != 0.0 {
                    self.node_vss[k] += i_vss;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_netlist::{CellKind, ClockEdge, Die, NetId, NetlistBuilder, Placement, Rect};
    use scap_sim::{ToggleEvent, ToggleTrace};

    fn single_gate_design(at: Point) -> (Netlist, Floorplan) {
        let mut b = NetlistBuilder::new("d");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 50e6);
        let a = b.add_primary_input("a");
        let y = b.add_net("y");
        let q = b.add_net("q");
        b.add_gate(CellKind::Inv, &[a], y, blk).unwrap();
        b.add_flop("ff", y, q, clk, ClockEdge::Rising, blk).unwrap();
        let n = b.finish().unwrap();
        let fp = Floorplan::new(
            &n,
            Die::square(1000.0),
            vec![Rect::new(0.0, 0.0, 1000.0, 1000.0)],
            Placement::new(vec![at], vec![at]),
        );
        (n, fp)
    }

    fn trace_on(net: NetId, toggles: usize, rising: bool) -> ToggleTrace {
        let mut t = ToggleTrace::default();
        for k in 0..toggles {
            t.events.push(ToggleEvent {
                time_ps: 100.0 * (k + 1) as f64,
                net,
                rising: if toggles > 1 {
                    k % 2 == (!rising) as usize
                } else {
                    rising
                },
            });
        }
        t
    }

    #[test]
    fn more_toggles_mean_deeper_drop() {
        let (n, fp) = single_gate_design(Point::new(500.0, 500.0));
        let ann = DelayAnnotation::extract(&n, &fp);
        let dynir = DynamicAnalysis::new(
            &n,
            &fp,
            GridConfig {
                branch_resistance_ohm: 50.0,
                ..GridConfig::default()
            },
        );
        let y = NetId::new(1);
        // One toggle over a 900 ps window vs 9 toggles over the same
        // window: 9x the average current density.
        let mut t1 = ToggleTrace::default();
        t1.events.push(ToggleEvent {
            time_ps: 900.0,
            net: y,
            rising: true,
        });
        let m1 = dynir.session().analyze(&ann, &t1);
        let mut t9 = ToggleTrace::default();
        for k in 0..9 {
            t9.events.push(ToggleEvent {
                time_ps: 100.0 * (k + 1) as f64,
                net: y,
                rising: k % 2 == 0,
            });
        }
        let m9 = dynir.session().analyze(&ann, &t9);
        assert!(m9.worst_drop_vdd() > m1.worst_drop_vdd());
    }

    #[test]
    fn rising_only_trace_loads_vdd_not_vss() {
        let (n, fp) = single_gate_design(Point::new(500.0, 500.0));
        let ann = DelayAnnotation::extract(&n, &fp);
        let dynir = DynamicAnalysis::new(
            &n,
            &fp,
            GridConfig {
                branch_resistance_ohm: 50.0,
                ..GridConfig::default()
            },
        );
        let m = dynir
            .session()
            .analyze(&ann, &trace_on(NetId::new(1), 1, true));
        assert!(m.worst_drop_vdd() > 0.0);
        assert_eq!(m.worst_drop_vss(), 0.0);
        assert!(m.gate_drop_total(GateId::new(0)) > 0.0);
    }

    #[test]
    fn center_activity_drops_more_than_edge_activity() {
        let cfg = GridConfig {
            branch_resistance_ohm: 50.0,
            ..GridConfig::default()
        };
        let (nc, fc) = single_gate_design(Point::new(500.0, 500.0));
        let annc = DelayAnnotation::extract(&nc, &fc);
        let dc = DynamicAnalysis::new(&nc, &fc, cfg);
        let mc = dc
            .session()
            .analyze(&annc, &trace_on(NetId::new(1), 1, true));
        let (ne, fe) = single_gate_design(Point::new(15.0, 15.0));
        let anne = DelayAnnotation::extract(&ne, &fe);
        let de = DynamicAnalysis::new(&ne, &fe, cfg);
        let me = de
            .session()
            .analyze(&anne, &trace_on(NetId::new(1), 1, true));
        assert!(mc.worst_drop_vdd() > me.worst_drop_vdd());
    }

    #[test]
    fn block_reduction_and_render() {
        let (n, fp) = single_gate_design(Point::new(500.0, 500.0));
        let ann = DelayAnnotation::extract(&n, &fp);
        let dynir = DynamicAnalysis::new(
            &n,
            &fp,
            GridConfig {
                branch_resistance_ohm: 100.0,
                ..GridConfig::default()
            },
        );
        let m = dynir
            .session()
            .analyze(&ann, &trace_on(NetId::new(1), 1, true));
        let b = scap_netlist::BlockId::new(0);
        assert!(m.worst_block_drop_vdd(&n, b) > 0.0);
        assert_eq!(m.worst_block_drop_vss(&n, b), 0.0);
        let art = m.render_vdd_map(n.library.vdd);
        assert_eq!(art.lines().count(), dynir.grid().nodes_per_side());
        assert!(m.red_fraction(0.0) <= 1.0);
    }

    /// A session reused across several patterns reproduces a fresh
    /// session per pattern bit for bit.
    #[test]
    fn session_matches_one_shot_analysis_exactly() {
        let (n, fp) = single_gate_design(Point::new(500.0, 500.0));
        let ann = DelayAnnotation::extract(&n, &fp);
        let dynir = DynamicAnalysis::new(
            &n,
            &fp,
            GridConfig {
                branch_resistance_ohm: 50.0,
                ..GridConfig::default()
            },
        );
        let mut session = dynir.session();
        for toggles in [1usize, 4, 9] {
            let t = trace_on(NetId::new(1), toggles, true);
            let one_shot = dynir.session().analyze(&ann, &t);
            let via_session = session.analyze(&ann, &t);
            for (a, b) in one_shot
                .node_drop_vdd_v
                .iter()
                .chain(&one_shot.node_drop_vss_v)
                .zip(
                    via_session
                        .node_drop_vdd_v
                        .iter()
                        .chain(&via_session.node_drop_vss_v),
                )
            {
                assert_eq!(a.to_bits(), b.to_bits(), "toggles = {toggles}");
            }
        }
    }

    #[test]
    fn quiescent_trace_has_no_drop() {
        let (n, fp) = single_gate_design(Point::new(500.0, 500.0));
        let ann = DelayAnnotation::extract(&n, &fp);
        let dynir = DynamicAnalysis::new(&n, &fp, GridConfig::default());
        let m = dynir.session().analyze(&ann, &ToggleTrace::default());
        assert_eq!(m.worst_drop_vdd(), 0.0);
        assert_eq!(m.worst_drop_vss(), 0.0);
        assert_eq!(m.red_fraction(0.18), 0.0);
    }
}
