//! The CAP and SCAP pattern power models (paper §2.3).
//!
//! For pattern *j* with switched output capacitances `C_i`:
//!
//! ```text
//! CAP_j  = Σ C_i · VDD² / T        (cycle average power, prior art [21])
//! SCAP_j = Σ C_i · VDD² / STW_j    (switching cycle average power, this paper)
//! ```
//!
//! where `STW_j` is the pattern's switching time window — the span of its
//! launch-to-capture switching activity. The calculator consumes the
//! toggle trace of the event-driven simulator exactly like the paper's PLI
//! consumes VCS simulation state, so no VCD file is ever materialized.
//! Rising transitions draw charge from the VDD network; falling
//! transitions dump it into VSS — the two networks are accounted
//! separately, as in the paper's Table 4.

use scap_netlist::{BlockId, NetSource, Netlist};
use scap_sim::ToggleTrace;
use scap_timing::DelayAnnotation;

/// Power accounting for one block (or the whole chip).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BlockPower {
    /// Energy drawn from VDD during the window, fJ.
    pub energy_vdd_fj: f64,
    /// Energy sunk into VSS during the window, fJ.
    pub energy_vss_fj: f64,
    /// Toggle count attributed to the block.
    pub toggles: u32,
}

impl BlockPower {
    /// Average power over a window of `window_ps`, mW, for the VDD network.
    ///
    /// A pattern with no transitions has an empty (zero-width) switching
    /// time window; its SCAP is defined as 0, never NaN/∞. The guard must
    /// be `is_finite() && > 0.0` — a bare `<= 0.0` lets NaN through
    /// (`NaN <= 0.0` is false) and a NaN window would poison every
    /// downstream aggregate.
    pub fn power_vdd_mw(&self, window_ps: f64) -> f64 {
        if window_ps.is_finite() && window_ps > 0.0 {
            self.energy_vdd_fj / window_ps
        } else {
            0.0
        }
    }

    /// Average power over a window of `window_ps`, mW, for the VSS network.
    /// Same empty-window convention as [`BlockPower::power_vdd_mw`].
    pub fn power_vss_mw(&self, window_ps: f64) -> f64 {
        if window_ps.is_finite() && window_ps > 0.0 {
            self.energy_vss_fj / window_ps
        } else {
            0.0
        }
    }
}

/// Per-pattern CAP/SCAP report.
#[derive(Clone, Debug)]
pub struct PatternPower {
    /// Switching time window of the pattern, ps.
    pub stw_ps: f64,
    /// Tester cycle (clock period of the active domain), ps.
    pub period_ps: f64,
    /// Per-block energy, indexed by [`BlockId::index`].
    pub blocks: Vec<BlockPower>,
    /// Chip-level totals.
    pub chip: BlockPower,
}

impl PatternPower {
    /// SCAP of a block's VDD network, mW.
    pub fn scap_vdd_mw(&self, block: BlockId) -> f64 {
        self.blocks[block.index()].power_vdd_mw(self.stw_ps)
    }

    /// Chip-level SCAP on VDD, mW.
    pub fn chip_scap_vdd_mw(&self) -> f64 {
        self.chip.power_vdd_mw(self.stw_ps)
    }

    /// Chip-level CAP on VDD, mW.
    pub fn chip_cap_vdd_mw(&self) -> f64 {
        self.chip.power_vdd_mw(self.period_ps)
    }
}

/// The SCAP calculator (the paper's Figure 5 flow, minus the VCD detour).
///
/// # Example
///
/// ```no_run
/// # use scap_netlist::Netlist;
/// # use scap_timing::DelayAnnotation;
/// # use scap_sim::ToggleTrace;
/// # fn demo(netlist: &Netlist, ann: &DelayAnnotation, trace: &ToggleTrace) {
/// use scap_power::ScapCalculator;
/// let calc = ScapCalculator::new(netlist, ann, 20_000.0); // 20 ns cycle
/// let power = calc.measure(trace);
/// println!("chip SCAP = {:.1} mW vs CAP = {:.1} mW",
///          power.chip_scap_vdd_mw(), power.chip_cap_vdd_mw());
/// # }
/// ```
#[derive(Debug)]
pub struct ScapCalculator<'a> {
    netlist: &'a Netlist,
    annotation: &'a DelayAnnotation,
    period_ps: f64,
    net_block: Vec<Option<BlockId>>,
    vdd_sq: f64,
}

impl<'a> ScapCalculator<'a> {
    /// Builds the calculator for an active clock period of `period_ps`.
    pub fn new(netlist: &'a Netlist, annotation: &'a DelayAnnotation, period_ps: f64) -> Self {
        let net_block = netlist
            .nets()
            .iter()
            .map(|net| match net.source {
                Some(NetSource::Gate(g)) => Some(netlist.gate(g).block),
                Some(NetSource::Flop(f)) => Some(netlist.flop(f).block),
                _ => None,
            })
            .collect();
        ScapCalculator {
            netlist,
            annotation,
            period_ps,
            net_block,
            vdd_sq: netlist.library.vdd * netlist.library.vdd,
        }
    }

    /// Measures one pattern's toggle trace.
    pub fn measure(&self, trace: &ToggleTrace) -> PatternPower {
        let mut blocks = vec![BlockPower::default(); self.netlist.blocks().len()];
        let mut chip = BlockPower::default();
        for ev in &trace.events {
            let c = self.annotation.net_total_cap_ff(ev.net);
            let e = c * self.vdd_sq;
            let slot = self.net_block[ev.net.index()].map(|b| &mut blocks[b.index()]);
            for acc in [Some(&mut chip), slot].into_iter().flatten() {
                if ev.rising {
                    acc.energy_vdd_fj += e;
                } else {
                    acc.energy_vss_fj += e;
                }
                acc.toggles += 1;
            }
        }
        PatternPower {
            stw_ps: trace.stw_ps(),
            period_ps: self.period_ps,
            blocks,
            chip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_netlist::{CellKind, ClockEdge, FlopId, NetlistBuilder};
    use scap_sim::EventSim;

    fn chain() -> Netlist {
        let mut b = NetlistBuilder::new("c");
        let blk1 = b.add_block("B1");
        let blk2 = b.add_block("B2");
        let clk = b.add_clock_domain("clka", 50e6);
        let q0 = b.add_net("q0");
        let w = b.add_net("w");
        let d1 = b.add_net("d1");
        let q1 = b.add_net("q1");
        let d0 = b.add_net("d0");
        b.add_gate(CellKind::Inv, &[q0], w, blk1).unwrap();
        b.add_gate(CellKind::Inv, &[w], d1, blk2).unwrap();
        b.add_gate(CellKind::Buf, &[q0], d0, blk1).unwrap();
        b.add_flop("ff0", d0, q0, clk, ClockEdge::Rising, blk1)
            .unwrap();
        b.add_flop("ff1", d1, q1, clk, ClockEdge::Rising, blk2)
            .unwrap();
        b.finish().unwrap()
    }

    fn trace(n: &Netlist, ann: &DelayAnnotation) -> ToggleTrace {
        let sim = EventSim::new(n, ann);
        // frame1: all zero is stable? q0=0 -> w=1, d1=0, d0=0. Build that.
        let mut frame1 = vec![false; n.num_nets()];
        frame1[1] = true; // w
        sim.run(&frame1, &[(FlopId::new(0), true, 500.0)])
    }

    #[test]
    fn scap_exceeds_cap_when_stw_is_shorter_than_cycle() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let t = trace(&n, &ann);
        let calc = ScapCalculator::new(&n, &ann, 20_000.0);
        let p = calc.measure(&t);
        assert!(p.stw_ps < p.period_ps);
        assert!(p.chip_scap_vdd_mw() > p.chip_cap_vdd_mw());
        // Ratio equals period / STW exactly.
        let ratio = p.chip_scap_vdd_mw() / p.chip_cap_vdd_mw();
        assert!((ratio - p.period_ps / p.stw_ps).abs() < 1e-9);
    }

    #[test]
    fn energy_is_attributed_to_driver_blocks() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let t = trace(&n, &ann);
        let calc = ScapCalculator::new(&n, &ann, 20_000.0);
        let p = calc.measure(&t);
        // q0 (flop in B1) rises, w (B1) falls, d1 (B2) rises, d0 (B1) rises.
        let b1 = p.blocks[0];
        let b2 = p.blocks[1];
        assert_eq!(b1.toggles, 3);
        assert_eq!(b2.toggles, 1);
        assert!(b1.energy_vdd_fj > 0.0 && b1.energy_vss_fj > 0.0);
        assert!(b2.energy_vdd_fj > 0.0);
        assert_eq!(b2.energy_vss_fj, 0.0);
        // Chip totals are the block sums (no PI nets toggle here).
        assert!((p.chip.energy_vdd_fj - (b1.energy_vdd_fj + b2.energy_vdd_fj)).abs() < 1e-9);
    }

    #[test]
    fn quiescent_trace_measures_zero() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let calc = ScapCalculator::new(&n, &ann, 20_000.0);
        let p = calc.measure(&ToggleTrace::default());
        assert_eq!(p.chip.toggles, 0);
        assert_eq!(p.chip_scap_vdd_mw(), 0.0);
        assert_eq!(p.chip_cap_vdd_mw(), 0.0);
    }

    /// Regression: a pattern that launches no transitions through the
    /// simulator (identical frames, no flop updates) has STW = 0; SCAP is
    /// defined as 0 for that empty window — not NaN from 0/0 and not ∞
    /// from energy/0.
    #[test]
    fn quiescent_pattern_yields_zero_scap_not_nan() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let sim = EventSim::new(&n, &ann);
        // A stable frame with no flop launch events: nothing toggles.
        let mut frame = vec![false; n.num_nets()];
        frame[1] = true; // w = !q0 is the settled value
        let t = sim.run(&frame, &[]);
        assert!(t.events.is_empty(), "launch-free run must not toggle");
        assert_eq!(t.stw_ps(), 0.0);
        let calc = ScapCalculator::new(&n, &ann, 20_000.0);
        let p = calc.measure(&t);
        for b in p.blocks.iter().chain([&p.chip]) {
            for v in [
                b.power_vdd_mw(p.stw_ps),
                b.power_vss_mw(p.stw_ps),
                b.power_vdd_mw(p.period_ps),
            ] {
                assert!(v.is_finite(), "non-finite power {v}");
            }
        }
        assert_eq!(p.chip_scap_vdd_mw(), 0.0);
        assert_eq!(p.chip_scap_vdd_mw(), p.chip_scap_vdd_mw()); // not NaN
    }

    /// A non-finite window (NaN/∞ from an upstream bug) must degrade to
    /// zero power rather than poisoning aggregates: `NaN <= 0.0` is false,
    /// so the old guard let NaN windows produce NaN power.
    #[test]
    fn non_finite_window_yields_zero_power() {
        let b = BlockPower {
            energy_vdd_fj: 12.0,
            energy_vss_fj: 7.0,
            toggles: 4,
        };
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -5.0] {
            assert_eq!(b.power_vdd_mw(w), 0.0, "window {w}");
            assert_eq!(b.power_vss_mw(w), 0.0, "window {w}");
        }
        assert!(b.power_vdd_mw(2.0) > 0.0);
    }

    #[test]
    fn vdd_vss_split_follows_toggle_direction() {
        let n = chain();
        let ann = DelayAnnotation::unit_wire(&n);
        let t = trace(&n, &ann);
        let calc = ScapCalculator::new(&n, &ann, 20_000.0);
        let p = calc.measure(&t);
        let rising = t.events.iter().filter(|e| e.rising).count();
        let falling = t.events.len() - rising;
        assert_eq!(rising, 3);
        assert_eq!(falling, 1);
        assert!(p.chip.energy_vdd_fj > p.chip.energy_vss_fj);
    }
}
