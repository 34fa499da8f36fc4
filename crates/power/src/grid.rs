//! The on-chip power-distribution mesh.

use crate::solve::{assemble, ReducedSystem};
use scap_netlist::{Floorplan, FlopId, GateId, Netlist, Point};

/// Configuration of one power mesh (used for both the VDD and VSS
/// networks, which the paper's chip routes symmetrically).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridConfig {
    /// Mesh nodes per side (the grid is `nodes_per_side²`).
    pub nodes_per_side: usize,
    /// Resistance of one mesh branch, Ω.
    pub branch_resistance_ohm: f64,
    /// Number of supply pads distributed around the die periphery
    /// (the paper's design has 37 VDD and 37 VSS pads).
    pub num_pads: usize,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            nodes_per_side: 24,
            branch_resistance_ohm: 1.0,
            num_pads: 37,
        }
    }
}

impl GridConfig {
    /// Pad flag per mesh node: `num_pads` pads spread evenly along the
    /// periphery ring.
    pub fn pads(&self) -> Vec<bool> {
        let n = self.nodes_per_side;
        // Periphery nodes in ring order.
        let mut ring: Vec<usize> = Vec::new();
        for x in 0..n {
            ring.push(x); // bottom
        }
        for y in 1..n {
            ring.push(y * n + (n - 1)); // right
        }
        for x in (0..n - 1).rev() {
            ring.push((n - 1) * n + x); // top
        }
        for y in (1..n - 1).rev() {
            ring.push(y * n); // left
        }
        let mut pinned = vec![false; n * n];
        let pads = self.num_pads.min(ring.len());
        for k in 0..pads {
            pinned[ring[(k * ring.len()) / pads]] = true;
        }
        pinned
    }

    /// The mesh branch list as `(node_a, node_b, conductance_S)` triples:
    /// horizontal and vertical neighbor links, nodes numbered row by row.
    pub fn branches(&self) -> Vec<(u32, u32, f64)> {
        let n = self.nodes_per_side;
        let g = 1.0 / self.branch_resistance_ohm;
        let mut branches = Vec::with_capacity(2 * n * n);
        for y in 0..n {
            for x in 0..n {
                let i = (y * n + x) as u32;
                if x + 1 < n {
                    branches.push((i, i + 1, g));
                }
                if y + 1 < n {
                    branches.push((i, i + n as u32, g));
                }
            }
        }
        branches
    }

    /// The reduced Laplacian as `(row, col, value)` triplets and its
    /// dimension: the matrix [`PowerGrid::new`] factors, assembled by the
    /// same code but not factored. Lets the `GRID003` lint rule check
    /// symmetry and diagonal dominance even of a matrix the factor
    /// rejects.
    pub fn system_triplets(&self) -> (usize, Vec<(u32, u32, f64)>) {
        let (_, dim, triplets) = assemble(&self.branches(), &self.pads());
        (dim, triplets)
    }
}

/// A resistive power mesh bound to a die outline.
///
/// The same structure serves the VDD and VSS networks: its
/// [`GridSolver`] maps cell currents to the voltage *drop* at every node
/// (for VSS, the drop is the ground bounce).
///
/// # Example
///
/// ```
/// use scap_power::{GridConfig, PowerGrid};
/// use scap_netlist::{Die, Point};
///
/// let grid = PowerGrid::new(Die::square(1000.0), GridConfig::default());
/// let mut currents = vec![0.0; grid.num_nodes()];
/// currents[grid.node_of(Point::new(500.0, 500.0))] = 0.05; // 50 mA at center
/// let drops = grid.solver().solve(&currents);
/// assert!(drops.iter().cloned().fold(0.0, f64::max) > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct PowerGrid {
    config: GridConfig,
    die: scap_netlist::Die,
    pinned: Vec<bool>,
    /// The reduced Laplacian's Cholesky factor, computed once here and
    /// shared by every solve.
    system: ReducedSystem,
}

impl PowerGrid {
    /// Builds a mesh over the die with pads spread along the periphery,
    /// and factors its matrix.
    ///
    /// # Panics
    ///
    /// Panics if `nodes_per_side < 2` or `num_pads == 0`, or if the
    /// matrix is not positive definite (a non-positive or non-finite
    /// branch resistance), naming the failing pivot's row.
    pub fn new(die: scap_netlist::Die, config: GridConfig) -> Self {
        assert!(
            config.nodes_per_side >= 2,
            "mesh needs at least 2 nodes per side"
        );
        assert!(config.num_pads > 0, "at least one pad required");
        let pinned = config.pads();
        let system = {
            let _span = scap_obs::span!("power.grid_factor");
            ReducedSystem::build(&config.branches(), &pinned)
        };
        PowerGrid {
            config,
            die,
            pinned,
            system,
        }
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        let n = self.config.nodes_per_side;
        n * n
    }

    /// Nodes per side.
    pub fn nodes_per_side(&self) -> usize {
        self.config.nodes_per_side
    }

    /// The configuration used to build the grid.
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// Maps a die location to its nearest mesh node.
    pub fn node_of(&self, p: Point) -> usize {
        let n = self.config.nodes_per_side;
        let o = self.die.outline;
        let fx = ((p.x - o.min.x) / o.width().max(1e-9)) * (n as f64 - 1.0);
        let fy = ((p.y - o.min.y) / o.height().max(1e-9)) * (n as f64 - 1.0);
        let x = fx.round().clamp(0.0, n as f64 - 1.0) as usize;
        let y = fy.round().clamp(0.0, n as f64 - 1.0) as usize;
        y * n + x
    }

    /// The die location of a mesh node (for plotting).
    pub fn location_of(&self, node: usize) -> Point {
        let n = self.config.nodes_per_side;
        let o = self.die.outline;
        let x = node % n;
        let y = node / n;
        Point::new(
            o.min.x + o.width() * x as f64 / (n as f64 - 1.0),
            o.min.y + o.height() * y as f64 / (n as f64 - 1.0),
        )
    }

    /// Whether a node is a pad (ideal supply).
    pub fn is_pad(&self, node: usize) -> bool {
        self.pinned[node]
    }

    /// A solver over this mesh, the one way to solve it. It keeps its
    /// substitution vector alive across solves; create one per thread in
    /// hot loops.
    pub fn solver(&self) -> GridSolver<'_> {
        GridSolver {
            system: &self.system,
            work: Vec::new(),
        }
    }

    /// The mesh node of every gate and flop of a placed netlist.
    pub(crate) fn cell_nodes(&self, netlist: &Netlist, floorplan: &Floorplan) -> CellNodes {
        let placement = &floorplan.placement;
        let node = |p: Point| self.node_of(p) as u32;
        CellNodes {
            gates: (0..netlist.num_gates() as u32)
                .map(|i| node(placement.gate(GateId::new(i))))
                .collect(),
            flops: (0..netlist.num_flops() as u32)
                .map(|i| node(placement.flop(FlopId::new(i))))
                .collect(),
        }
    }
}

/// The mesh node of every gate and flop, computed once per analysis so
/// that stamping currents and sampling drops per pattern are lookups.
#[derive(Clone, Debug)]
pub(crate) struct CellNodes {
    pub(crate) gates: Vec<u32>,
    pub(crate) flops: Vec<u32>,
}

impl CellNodes {
    /// Sums per-cell currents onto their mesh nodes, gates first, then
    /// flops.
    ///
    /// # Panics
    ///
    /// Panics if the slices don't match the netlist.
    pub(crate) fn stamp(
        &self,
        num_nodes: usize,
        gate_current: &[f64],
        flop_current: &[f64],
    ) -> Vec<f64> {
        assert_eq!(gate_current.len(), self.gates.len());
        assert_eq!(flop_current.len(), self.flops.len());
        let mut node = vec![0.0; num_nodes];
        for (&k, &c) in self
            .gates
            .iter()
            .zip(gate_current)
            .chain(self.flops.iter().zip(flop_current))
        {
            if c != 0.0 {
                node[k as usize] += c;
            }
        }
        node
    }
}

/// A solver context bound to one [`PowerGrid`]: the grid's factor plus
/// a reusable substitution vector.
///
/// Only the vector's allocation carries over between solves, never its
/// values, so a result depends on its right-hand side alone. That makes
/// one solver per worker safe in deterministic parallel loops.
#[derive(Clone, Debug)]
pub struct GridSolver<'g> {
    system: &'g ReducedSystem,
    work: Vec<f64>,
}

impl GridSolver<'_> {
    /// Solves the mesh for the given per-node current draw (A), returning
    /// the voltage drop (V) at every node.
    pub fn solve(&mut self, node_currents: &[f64]) -> Vec<f64> {
        let _span = scap_obs::span!("power.grid_solve");
        self.system.solve_into(node_currents, &mut self.work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_netlist::Die;

    fn grid() -> PowerGrid {
        PowerGrid::new(Die::square(1000.0), GridConfig::default())
    }

    #[test]
    fn center_drop_exceeds_periphery_drop() {
        let g = grid();
        // Uniform current everywhere.
        let currents = vec![1e-4; g.num_nodes()];
        let drops = g.solver().solve(&currents);
        let center = drops[g.node_of(Point::new(500.0, 500.0))];
        let corner_area = drops[g.node_of(Point::new(40.0, 40.0))];
        assert!(
            center > corner_area,
            "center {center} vs periphery {corner_area}"
        );
    }

    #[test]
    fn pads_have_zero_drop() {
        let g = grid();
        let currents = vec![1e-4; g.num_nodes()];
        let drops = g.solver().solve(&currents);
        let mut pad_count = 0;
        for (i, d) in drops.iter().enumerate() {
            if g.is_pad(i) {
                pad_count += 1;
                assert_eq!(*d, 0.0);
            }
        }
        assert_eq!(pad_count, 37);
    }

    #[test]
    fn node_mapping_round_trips() {
        let g = grid();
        for &node in &[0usize, 5, 100, g.num_nodes() - 1] {
            let p = g.location_of(node);
            assert_eq!(g.node_of(p), node);
        }
    }

    #[test]
    fn out_of_die_points_clamp() {
        let g = grid();
        assert_eq!(g.node_of(Point::new(-50.0, -50.0)), 0);
        assert_eq!(g.node_of(Point::new(2000.0, 2000.0)), g.num_nodes() - 1);
    }

    /// One solver reused across many right-hand sides returns exactly
    /// what a fresh solver returns for each.
    #[test]
    fn grid_solver_cold_start_is_bit_identical() {
        let g = grid();
        let mut solver = g.solver();
        for case in 0..8 {
            let currents: Vec<f64> = (0..g.num_nodes())
                .map(|i| 1e-5 * ((i + case) % 11) as f64)
                .collect();
            let fresh = g.solver().solve(&currents);
            let reused = solver.solve(&currents);
            for (a, b) in reused.iter().zip(&fresh) {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case}");
            }
        }
    }

    #[test]
    fn halving_resistance_halves_drops() {
        let die = Die::square(1000.0);
        let g1 = PowerGrid::new(die, GridConfig::default());
        let g2 = PowerGrid::new(
            die,
            GridConfig {
                branch_resistance_ohm: 0.5,
                ..GridConfig::default()
            },
        );
        let currents = vec![1e-4; g1.num_nodes()];
        let d1 = g1.solver().solve(&currents);
        let d2 = g2.solver().solve(&currents);
        let m1: f64 = d1.iter().cloned().fold(0.0, f64::max);
        let m2: f64 = d2.iter().cloned().fold(0.0, f64::max);
        assert!((m1 - 2.0 * m2).abs() < 0.05 * m1, "{m1} vs {m2}");
    }
}
