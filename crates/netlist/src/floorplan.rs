//! Die geometry, block rectangles and cell placement.
//!
//! Stands in for the Cadence SOC Encounter place-and-route database the
//! paper uses: every gate and flop gets a physical location inside its
//! block's rectangle, and the power crate maps locations onto power-grid
//! nodes.

use crate::{BlockId, FlopId, GateId, Netlist};

/// A point on the die, in microns.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Point {
    /// X coordinate, µm.
    pub x: f64,
    /// Y coordinate, µm.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Manhattan distance to another point, µm.
    #[inline]
    pub fn manhattan(self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

/// An axis-aligned rectangle on the die, in microns.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from corner coordinates.
    pub const fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Rect {
            min: Point::new(x0, y0),
            max: Point::new(x1, y1),
        }
    }

    /// Width in µm.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height in µm.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in µm².
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Geometric center.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            0.5 * (self.min.x + self.max.x),
            0.5 * (self.min.y + self.max.y),
        )
    }

    /// Whether the point lies inside (inclusive of edges).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }
}

/// The die outline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Die {
    /// Die boundary rectangle.
    pub outline: Rect,
}

impl Die {
    /// A square die of the given side length in µm.
    pub const fn square(side_um: f64) -> Self {
        Die {
            outline: Rect::new(0.0, 0.0, side_um, side_um),
        }
    }
}

/// Per-instance placement coordinates.
#[derive(Clone, Debug, Default)]
pub struct Placement {
    gate_xy: Vec<Point>,
    flop_xy: Vec<Point>,
}

impl Placement {
    /// Creates a placement from per-gate and per-flop coordinate vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths disagree with the netlist (checked by
    /// [`Floorplan::new`]).
    pub fn new(gate_xy: Vec<Point>, flop_xy: Vec<Point>) -> Self {
        Placement { gate_xy, flop_xy }
    }

    /// Location of a gate.
    #[inline]
    pub fn gate(&self, id: GateId) -> Point {
        self.gate_xy[id.index()]
    }

    /// Location of a flop.
    #[inline]
    pub fn flop(&self, id: FlopId) -> Point {
        self.flop_xy[id.index()]
    }

    /// Number of placed gates.
    pub fn num_gates(&self) -> usize {
        self.gate_xy.len()
    }

    /// Number of placed flops.
    pub fn num_flops(&self) -> usize {
        self.flop_xy.len()
    }
}

/// Die + block rectangles + instance placement.
///
/// # Example
///
/// ```
/// use scap_netlist::{Die, Floorplan, Placement, Point, Rect};
/// # use scap_netlist::{CellKind, NetlistBuilder};
///
/// # fn main() -> Result<(), scap_netlist::BuildError> {
/// # let mut b = NetlistBuilder::new("d");
/// # let blk = b.add_block("B1");
/// # let a = b.add_primary_input("a");
/// # let y = b.add_net("y");
/// # b.add_gate(CellKind::Inv, &[a], y, blk)?;
/// # let netlist = b.finish()?;
/// let die = Die::square(1000.0);
/// let blocks = vec![Rect::new(0.0, 0.0, 1000.0, 1000.0)];
/// let placement = Placement::new(vec![Point::new(10.0, 20.0)], vec![]);
/// let fp = Floorplan::new(&netlist, die, blocks, placement);
/// assert!(fp.die.outline.contains(fp.placement.gate(scap_netlist::GateId::new(0))));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Floorplan {
    /// The die outline.
    pub die: Die,
    /// Rectangle of each block, indexed by [`BlockId::index`].
    pub block_rects: Vec<Rect>,
    /// Instance locations.
    pub placement: Placement,
}

impl Floorplan {
    /// Assembles a floorplan, validating that placement covers the netlist.
    ///
    /// # Panics
    ///
    /// Panics if `placement` does not have exactly one coordinate per gate
    /// and per flop, or if `block_rects` does not cover every block id.
    pub fn new(netlist: &Netlist, die: Die, block_rects: Vec<Rect>, placement: Placement) -> Self {
        assert_eq!(
            placement.num_gates(),
            netlist.num_gates(),
            "placement must cover every gate"
        );
        assert_eq!(
            placement.num_flops(),
            netlist.num_flops(),
            "placement must cover every flop"
        );
        assert_eq!(
            block_rects.len(),
            netlist.blocks().len(),
            "one rectangle per block"
        );
        Floorplan {
            die,
            block_rects,
            placement,
        }
    }

    /// Rectangle of a block.
    #[inline]
    pub fn block_rect(&self, block: BlockId) -> Rect {
        self.block_rects[block.index()]
    }

    /// Estimated wire length of a net: Manhattan half-perimeter over the
    /// driver and reader pins, µm.
    pub fn net_wirelength_um(&self, netlist: &Netlist, net: crate::NetId) -> f64 {
        use crate::NetSource;
        let mut pts: Vec<Point> = Vec::new();
        match netlist.net(net).source {
            Some(NetSource::Gate(g)) => pts.push(self.placement.gate(g)),
            Some(NetSource::Flop(f)) => pts.push(self.placement.flop(f)),
            _ => {}
        }
        for &g in netlist.fanout_gates(net) {
            pts.push(self.placement.gate(g));
        }
        for &f in netlist.fanout_flops(net) {
            pts.push(self.placement.flop(f));
        }
        if pts.len() < 2 {
            return 0.0;
        }
        let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for p in &pts {
            x0 = x0.min(p.x);
            x1 = x1.max(p.x);
            y0 = y0.min(p.y);
            y1 = y1.max(p.y);
        }
        (x1 - x0) + (y1 - y0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellKind, ClockEdge, NetlistBuilder};

    #[test]
    fn rect_geometry() {
        let r = Rect::new(0.0, 0.0, 10.0, 20.0);
        assert_eq!(r.width(), 10.0);
        assert_eq!(r.height(), 20.0);
        assert_eq!(r.area(), 200.0);
        assert_eq!(r.center(), Point::new(5.0, 10.0));
        assert!(r.contains(Point::new(10.0, 0.0)));
        assert!(!r.contains(Point::new(10.1, 0.0)));
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Point::new(1.0, 2.0).manhattan(Point::new(4.0, 6.0)), 7.0);
    }

    #[test]
    fn wirelength_is_half_perimeter() {
        let mut b = NetlistBuilder::new("d");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let a = b.add_primary_input("a");
        let y = b.add_net("y");
        let q = b.add_net("q");
        b.add_gate(CellKind::Inv, &[a], y, blk).unwrap();
        b.add_flop("ff", y, q, clk, ClockEdge::Rising, blk).unwrap();
        let n = b.finish().unwrap();
        let placement = Placement::new(vec![Point::new(0.0, 0.0)], vec![Point::new(30.0, 40.0)]);
        let fp = Floorplan::new(
            &n,
            Die::square(100.0),
            vec![Rect::new(0.0, 0.0, 100.0, 100.0)],
            placement,
        );
        // Net y: driver gate at (0,0), flop at (30,40) -> HPWL 70.
        assert_eq!(fp.net_wirelength_um(&n, y), 70.0);
        // Primary input a has a single pin reader and no placed driver.
        assert_eq!(fp.net_wirelength_um(&n, a), 0.0);
    }

    #[test]
    #[should_panic(expected = "placement must cover every gate")]
    fn floorplan_validates_counts() {
        let mut b = NetlistBuilder::new("d");
        let blk = b.add_block("B1");
        let a = b.add_primary_input("a");
        let y = b.add_net("y");
        b.add_gate(CellKind::Inv, &[a], y, blk).unwrap();
        let n = b.finish().unwrap();
        let _ = Floorplan::new(
            &n,
            Die::square(10.0),
            vec![Rect::new(0.0, 0.0, 10.0, 10.0)],
            Placement::default(),
        );
    }
}
