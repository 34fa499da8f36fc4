//! A recursive-subdivision clock-tree model with IR-drop-aware retiming.
//!
//! Clock-tree synthesis in the paper's flow (SOC Encounter) balances
//! insertion delay; residual skew plus IR-drop-induced buffer slow-down is
//! what makes some endpoints in Figure 7 *gain* apparent slack ("Region
//! 2"). This model captures exactly that: a buffer tree over the flops of
//! one clock domain, per-flop arrival times, and a re-timing entry point
//! that scales each buffer's delay by the local supply droop.

use scap_netlist::{ClockId, Floorplan, FlopId, Netlist, Point, Rect};

/// One buffer of the clock tree.
#[derive(Clone, Debug)]
pub struct TreeBuffer {
    /// Physical location of the buffer.
    pub location: Point,
    /// Parent buffer index, `None` for the root.
    pub parent: Option<u32>,
    /// Nominal propagation delay of this buffer stage, ps (buffer cell +
    /// wire to its children's region).
    pub delay_ps: f64,
    /// Tree depth (root = 0).
    pub depth: u8,
}

/// Per-flop clock arrival times for one clock domain.
#[derive(Clone, Debug)]
pub struct ClockArrivals {
    arrivals_ps: Vec<(FlopId, f64)>,
}

impl ClockArrivals {
    /// Arrival time at a flop's clock pin, ps, or `None` if the flop is not
    /// in this tree's domain.
    pub fn arrival_ps(&self, flop: FlopId) -> Option<f64> {
        self.arrivals_ps
            .iter()
            .find(|(f, _)| *f == flop)
            .map(|&(_, t)| t)
    }

    /// All `(flop, arrival)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FlopId, f64)> + '_ {
        self.arrivals_ps.iter().copied()
    }

    /// Worst-case skew: max − min arrival, ps (0 for fewer than 2 flops).
    pub fn skew_ps(&self) -> f64 {
        let mut min = f64::MAX;
        let mut max = f64::MIN;
        for &(_, t) in &self.arrivals_ps {
            min = min.min(t);
            max = max.max(t);
        }
        if self.arrivals_ps.len() < 2 {
            0.0
        } else {
            max - min
        }
    }
}

/// A synthesized clock tree for one clock domain.
///
/// # Example
///
/// ```no_run
/// # use scap_netlist::{Netlist, Floorplan, ClockId};
/// # fn demo(netlist: &Netlist, floorplan: &Floorplan) {
/// use scap_timing::ClockTree;
/// let tree = ClockTree::synthesize(netlist, floorplan, ClockId::new(0));
/// let nominal = tree.arrivals();
/// println!("skew = {} ps", nominal.skew_ps());
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ClockTree {
    /// The domain this tree clocks.
    pub clock: ClockId,
    buffers: Vec<TreeBuffer>,
    /// `(flop, leaf buffer index, stub delay ps)`.
    sinks: Vec<(FlopId, u32, f64)>,
}

/// Max sinks per leaf region before the region is subdivided.
const LEAF_CAPACITY: usize = 16;
/// Nominal delay of one clock buffer stage, ps.
const BUFFER_DELAY_PS: f64 = 120.0;
/// Wire delay per micron of clock stub, ps/µm (RC-ish lumped figure).
const STUB_DELAY_PS_PER_UM: f64 = 0.08;

impl ClockTree {
    /// Builds a tree over all flops of `clock` by recursive quadrant
    /// subdivision of the die, one buffer per region.
    pub fn synthesize(netlist: &Netlist, floorplan: &Floorplan, clock: ClockId) -> Self {
        let flops: Vec<FlopId> = netlist.flops_in_clock(clock).collect();
        let mut tree = ClockTree {
            clock,
            buffers: Vec::new(),
            sinks: Vec::new(),
        };
        if flops.is_empty() {
            return tree;
        }
        let root_rect = floorplan.die.outline;
        tree.subdivide(floorplan, root_rect, &flops, None, 0);
        tree
    }

    fn subdivide(
        &mut self,
        floorplan: &Floorplan,
        region: Rect,
        flops: &[FlopId],
        parent: Option<u32>,
        depth: u8,
    ) {
        let idx = self.buffers.len() as u32;
        self.buffers.push(TreeBuffer {
            location: region.center(),
            parent,
            delay_ps: BUFFER_DELAY_PS,
            depth,
        });
        if flops.len() <= LEAF_CAPACITY || depth >= 12 {
            let center = region.center();
            for &f in flops {
                let stub = floorplan.placement.flop(f).manhattan(center) * STUB_DELAY_PS_PER_UM;
                self.sinks.push((f, idx, stub));
            }
            return;
        }
        let c = region.center();
        let quads = [
            Rect::new(region.min.x, region.min.y, c.x, c.y),
            Rect::new(c.x, region.min.y, region.max.x, c.y),
            Rect::new(region.min.x, c.y, c.x, region.max.y),
            Rect::new(c.x, c.y, region.max.x, region.max.y),
        ];
        for (qi, quad) in quads.into_iter().enumerate() {
            let members: Vec<FlopId> = flops
                .iter()
                .copied()
                .filter(|&f| {
                    let p = floorplan.placement.flop(f);
                    // Assign boundary points by strict comparison against
                    // the center so each flop lands in exactly one quadrant.
                    let right = p.x > c.x;
                    let top = p.y > c.y;
                    (right as usize) + 2 * (top as usize) == qi
                })
                .collect();
            if !members.is_empty() {
                self.subdivide(floorplan, quad, &members, Some(idx), depth + 1);
            }
        }
    }

    /// Number of buffers in the tree.
    pub fn num_buffers(&self) -> usize {
        self.buffers.len()
    }

    /// The buffers, indexable by the indices stored in sink records.
    pub fn buffers(&self) -> &[TreeBuffer] {
        &self.buffers
    }

    /// Mutable access to a buffer — **invariant-breaking**.
    ///
    /// Exists for defect-injection tests: rewriting `parent` can break the
    /// parents-precede-children ordering [`ClockTree::arrivals_with_drop`]
    /// relies on (caught by the `CLK001` lint rule), and a negative
    /// `delay_ps` is caught by `CLK002`. Nothing in the production flow
    /// calls this.
    pub fn buffer_mut(&mut self, index: u32) -> &mut TreeBuffer {
        &mut self.buffers[index as usize]
    }

    /// Nominal per-flop arrivals (no IR-drop).
    pub fn arrivals(&self) -> ClockArrivals {
        self.arrivals_with_drop(|_| 0.0, 0.0)
    }

    /// Per-flop arrivals with each buffer's delay scaled by
    /// `1 + k_volt · drop(location)` — the clock-network half of the
    /// paper's IR-drop-aware re-simulation.
    ///
    /// `drop_at` returns the local supply droop in volts at a die location.
    pub fn arrivals_with_drop(
        &self,
        drop_at: impl Fn(Point) -> f64,
        k_volt_per_volt: f64,
    ) -> ClockArrivals {
        // Accumulate root-to-buffer delays iteratively (parents always
        // precede children in `buffers` by construction).
        let mut accum = vec![0.0f64; self.buffers.len()];
        for (i, b) in self.buffers.iter().enumerate() {
            let scale = 1.0 + k_volt_per_volt * drop_at(b.location).max(0.0);
            let own = b.delay_ps * scale;
            accum[i] = own + b.parent.map_or(0.0, |p| accum[p as usize]);
        }
        let arrivals_ps = self
            .sinks
            .iter()
            .map(|&(f, buf, stub)| (f, accum[buf as usize] + stub))
            .collect();
        ClockArrivals { arrivals_ps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_netlist::{CellKind, ClockEdge, Die, NetlistBuilder, Placement};

    /// Builds `n` flops scattered on a diagonal of a 1000 µm die.
    fn scattered(n: usize) -> (Netlist, Floorplan) {
        let mut b = NetlistBuilder::new("d");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let mut flop_xy = Vec::new();
        for i in 0..n {
            let inp = b.add_primary_input(format!("in{i}"));
            let q = b.add_net(format!("q{i}"));
            b.add_flop(format!("ff{i}"), inp, q, clk, ClockEdge::Rising, blk)
                .unwrap();
            let t = i as f64 / n.max(2) as f64;
            flop_xy.push(Point::new(10.0 + 980.0 * t, 10.0 + 980.0 * (1.0 - t)));
        }
        // One dummy gate so the netlist is non-trivial.
        let y = b.add_net("y");
        let a0 = b.add_primary_input("pi");
        b.add_gate(CellKind::Inv, &[a0], y, blk).unwrap();
        let netlist = b.finish().unwrap();
        let fp = Floorplan::new(
            &netlist,
            Die::square(1000.0),
            vec![Rect::new(0.0, 0.0, 1000.0, 1000.0)],
            Placement::new(vec![Point::new(500.0, 500.0)], flop_xy),
        );
        (netlist, fp)
    }

    #[test]
    fn covers_every_flop_exactly_once() {
        let (n, fp) = scattered(100);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let arr = tree.arrivals();
        assert_eq!(arr.iter().count(), 100);
        for f in n.flops_in_clock(ClockId::new(0)) {
            assert!(arr.arrival_ps(f).is_some());
        }
    }

    #[test]
    fn deep_trees_for_many_sinks() {
        let (n, fp) = scattered(200);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        assert!(tree.num_buffers() > 4);
        assert!(tree.buffers().iter().any(|b| b.depth >= 2));
    }

    #[test]
    fn skew_is_bounded_and_nonnegative() {
        let (n, fp) = scattered(64);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let arr = tree.arrivals();
        let skew = arr.skew_ps();
        assert!(skew >= 0.0);
        // Balanced subdivision keeps skew within a couple of buffer stages.
        assert!(skew < 6.0 * BUFFER_DELAY_PS, "skew {skew}");
    }

    #[test]
    fn ir_drop_slows_the_clock_path() {
        let (n, fp) = scattered(32);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let nominal = tree.arrivals();
        let dropped = tree.arrivals_with_drop(|_| 0.2, 0.9);
        for (f, t) in nominal.iter() {
            let td = dropped.arrival_ps(f).unwrap();
            assert!(td > t, "flop {f}: {td} !> {t}");
        }
    }

    #[test]
    fn localized_drop_skews_only_nearby_sinks() {
        let (n, fp) = scattered(64);
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(0));
        let nominal = tree.arrivals();
        // Droop only in the lower-right quadrant.
        let dropped =
            tree.arrivals_with_drop(|p| if p.x > 500.0 && p.y < 500.0 { 0.3 } else { 0.0 }, 0.9);
        let mut delayed = 0;
        let mut unchanged = 0;
        for (f, t) in nominal.iter() {
            let td = dropped.arrival_ps(f).unwrap();
            if (td - t).abs() < 1e-9 {
                unchanged += 1;
            } else {
                delayed += 1;
            }
        }
        assert!(delayed > 0, "some sinks must slow down");
        assert!(unchanged > 0, "far sinks must be unaffected");
    }

    #[test]
    fn empty_domain_yields_empty_tree() {
        let (n, fp) = scattered(4);
        // ClockId 1 does not exist in the netlist's flops.
        let tree = ClockTree::synthesize(&n, &fp, ClockId::new(1));
        assert_eq!(tree.num_buffers(), 0);
        assert_eq!(tree.arrivals().iter().count(), 0);
        assert_eq!(tree.arrivals().skew_ps(), 0.0);
    }
}
