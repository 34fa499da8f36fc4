//! Per-instance delay annotation — the SPEF/SDF substitute.

use scap_netlist::{Floorplan, FlopId, GateId, NetId, Netlist};

/// Per-instance rise/fall delays and per-net wire capacitance.
///
/// Produced either by [`DelayAnnotation::extract`] (floorplan-aware, the
/// STAR-RCXT substitute) or [`DelayAnnotation::unit_wire`] (no placement,
/// fixed wire load — handy for tests).
///
/// Delays are in picoseconds, capacitance in femtofarads.
#[derive(Clone, Debug)]
pub struct DelayAnnotation {
    gate_rise_ps: Vec<f64>,
    gate_fall_ps: Vec<f64>,
    flop_clk_to_q_ps: Vec<f64>,
    net_wire_cap_ff: Vec<f64>,
    /// Total switched capacitance per net (pin loads + wire), fF. This is
    /// the `C_i` of the paper's CAP/SCAP formulas.
    net_total_cap_ff: Vec<f64>,
    /// Capacitance the driver sees for delay purposes: like
    /// `net_total_cap_ff` but with the wire portion clamped to the
    /// library's buffered-wire limit.
    net_delay_cap_ff: Vec<f64>,
}

impl DelayAnnotation {
    /// Extracts delays from the netlist, library and floorplan.
    ///
    /// Wire capacitance is estimated as half-perimeter wirelength × the
    /// library's per-micron capacitance. Cell delay is
    /// `intrinsic + R_drive · (pin load + wire cap)`.
    pub fn extract(netlist: &Netlist, floorplan: &Floorplan) -> Self {
        Self::build(netlist, |net| {
            floorplan.net_wirelength_um(netlist, net) * netlist.library.wire_cap_ff_per_um
        })
    }

    /// Annotation with a fixed per-net wire capacitance of 2 fF —
    /// placement-free, for unit tests and quick experiments.
    pub fn unit_wire(netlist: &Netlist) -> Self {
        Self::build(netlist, |_| 2.0)
    }

    fn build(netlist: &Netlist, wire_cap: impl Fn(NetId) -> f64) -> Self {
        let lib = &netlist.library;
        let num_nets = netlist.num_nets();
        let mut net_wire_cap_ff = vec![0.0; num_nets];
        let mut net_total_cap_ff = vec![0.0; num_nets];
        let mut net_delay_cap_ff = vec![0.0; num_nets];
        for i in 0..num_nets {
            let id = NetId::new(i as u32);
            let wire = wire_cap(id);
            let pins = netlist.pin_load_ff(id);
            net_wire_cap_ff[i] = wire;
            net_total_cap_ff[i] = wire + pins;
            net_delay_cap_ff[i] = (wire + pins).min(lib.wire_cap_delay_limit_ff);
        }
        let mut gate_rise_ps = Vec::with_capacity(netlist.num_gates());
        let mut gate_fall_ps = Vec::with_capacity(netlist.num_gates());
        for g in netlist.gates() {
            let p = lib.cell(g.kind);
            let load = net_delay_cap_ff[g.output.index()];
            gate_rise_ps.push(p.rise_delay_ps + p.drive_res_kohm * load);
            gate_fall_ps.push(p.fall_delay_ps + p.drive_res_kohm * load);
        }
        let fp = lib.flop();
        let mut flop_clk_to_q_ps = Vec::with_capacity(netlist.num_flops());
        for f in netlist.flops() {
            let load = net_delay_cap_ff[f.q.index()];
            flop_clk_to_q_ps.push(fp.clk_to_q_ps + fp.drive_res_kohm * load);
        }
        DelayAnnotation {
            gate_rise_ps,
            gate_fall_ps,
            flop_clk_to_q_ps,
            net_wire_cap_ff,
            net_total_cap_ff,
            net_delay_cap_ff,
        }
    }

    /// Rise delay of a gate, ps.
    #[inline]
    pub fn gate_rise_ps(&self, g: GateId) -> f64 {
        self.gate_rise_ps[g.index()]
    }

    /// Fall delay of a gate, ps.
    #[inline]
    pub fn gate_fall_ps(&self, g: GateId) -> f64 {
        self.gate_fall_ps[g.index()]
    }

    /// Worst-case (max of rise/fall) delay of a gate, ps.
    #[inline]
    pub fn gate_delay_ps(&self, g: GateId) -> f64 {
        self.gate_rise_ps[g.index()].max(self.gate_fall_ps[g.index()])
    }

    /// Clock-to-Q delay of a flop, ps.
    #[inline]
    pub fn flop_clk_to_q_ps(&self, f: FlopId) -> f64 {
        self.flop_clk_to_q_ps[f.index()]
    }

    /// Wire capacitance of a net, fF.
    #[inline]
    pub fn net_wire_cap_ff(&self, n: NetId) -> f64 {
        self.net_wire_cap_ff[n.index()]
    }

    /// Total switched capacitance of a net (wire + pins), fF — the `C_i`
    /// consumed by the SCAP calculator.
    #[inline]
    pub fn net_total_cap_ff(&self, n: NetId) -> f64 {
        self.net_total_cap_ff[n.index()]
    }

    /// Capacitance the driver sees for delay purposes, fF: total cap with
    /// the wire portion clamped to the library's buffered-wire limit.
    #[inline]
    pub fn net_delay_cap_ff(&self, n: NetId) -> f64 {
        self.net_delay_cap_ff[n.index()]
    }

    /// Number of annotated gates.
    pub fn num_gates(&self) -> usize {
        self.gate_rise_ps.len()
    }

    /// Number of annotated flops.
    pub fn num_flops(&self) -> usize {
        self.flop_clk_to_q_ps.len()
    }

    /// Mutable access to `(gate_rise_ps, gate_fall_ps, flop_clk_to_q_ps)`.
    ///
    /// Used by [`crate::scaling`] to apply IR-drop derating, and by
    /// defect-injection tests that corrupt an annotation (negative or
    /// non-finite delays are caught by the `TIM002` lint rule). Values
    /// written here are trusted by STA without further validation.
    pub fn delays_mut(&mut self) -> (&mut [f64], &mut [f64], &mut [f64]) {
        (
            &mut self.gate_rise_ps,
            &mut self.gate_fall_ps,
            &mut self.flop_clk_to_q_ps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_netlist::{CellKind, ClockEdge, Die, NetlistBuilder, Placement, Point, Rect};

    fn fanout_pair() -> Netlist {
        let mut b = NetlistBuilder::new("d");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let a = b.add_primary_input("a");
        let y = b.add_net("y");
        let z1 = b.add_net("z1");
        let z2 = b.add_net("z2");
        let q = b.add_net("q");
        b.add_gate(CellKind::Inv, &[a], y, blk).unwrap();
        b.add_gate(CellKind::Buf, &[y], z1, blk).unwrap();
        b.add_gate(CellKind::Buf, &[y], z2, blk).unwrap();
        b.add_flop("ff", z1, q, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn higher_fanout_means_longer_delay() {
        let n = fanout_pair();
        let ann = DelayAnnotation::unit_wire(&n);
        // Gate 0 (inv driving two buffers) sees more load than gate 1
        // (buffer driving one flop D)... inv is also intrinsically faster,
        // so compare like cells: both buffers drive different loads.
        let g1 = ann.gate_delay_ps(GateId::new(1)); // drives flop D
        let g2 = ann.gate_delay_ps(GateId::new(2)); // drives nothing
        assert!(g1 > g2, "{g1} vs {g2}");
    }

    #[test]
    fn extract_uses_placement_distance() {
        let n = fanout_pair();
        let near = Floorplan::new(
            &n,
            Die::square(1000.0),
            vec![Rect::new(0.0, 0.0, 1000.0, 1000.0)],
            Placement::new(vec![Point::new(0.0, 0.0); 3], vec![Point::new(0.0, 0.0); 1]),
        );
        let far = Floorplan::new(
            &n,
            Die::square(1000.0),
            vec![Rect::new(0.0, 0.0, 1000.0, 1000.0)],
            Placement::new(
                vec![
                    Point::new(0.0, 0.0),
                    Point::new(900.0, 900.0),
                    Point::new(0.0, 900.0),
                ],
                vec![Point::new(900.0, 0.0); 1],
            ),
        );
        let ann_near = DelayAnnotation::extract(&n, &near);
        let ann_far = DelayAnnotation::extract(&n, &far);
        assert!(ann_far.gate_delay_ps(GateId::new(0)) > ann_near.gate_delay_ps(GateId::new(0)));
        assert!(ann_far.net_wire_cap_ff(n.gate(GateId::new(0)).output) > 0.0);
    }

    #[test]
    fn total_cap_includes_pins_and_wire() {
        let n = fanout_pair();
        let ann = DelayAnnotation::unit_wire(&n);
        let y = n.gate(GateId::new(0)).output;
        let expected = 2.0 + n.pin_load_ff(y);
        assert!((ann.net_total_cap_ff(y) - expected).abs() < 1e-12);
    }

    #[test]
    fn flop_clk_to_q_exceeds_intrinsic() {
        let n = fanout_pair();
        let ann = DelayAnnotation::unit_wire(&n);
        assert!(ann.flop_clk_to_q_ps(FlopId::new(0)) > n.library.flop().clk_to_q_ps);
    }
}
