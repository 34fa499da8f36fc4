//! IR-drop-aware delay scaling (paper §3.2).
//!
//! The paper's second PLI plugs reported per-instance voltages into the
//! gate-level simulator, scaling every cell delay by
//! `1 + k_volt · ΔV` with `k_volt = 0.9` (a 0.1 V droop slows a cell by
//! 9 %). [`scale_annotation`] implements the same transformation on a
//! [`DelayAnnotation`], producing the "Case 2" timing the paper's Figure 7
//! compares against the nominal "Case 1".

use crate::DelayAnnotation;

/// Returns a new annotation with every gate and flop delay scaled by
/// `1 + k_volt · ΔV` using per-instance supply droops (in volts).
///
/// Negative droop entries are clamped to zero (supply overshoot is not
/// allowed to speed cells up, matching the paper's one-sided model).
///
/// # Panics
///
/// Panics if the droop slices do not match the annotation's gate/flop
/// counts.
pub fn scale_annotation(
    annotation: &DelayAnnotation,
    gate_drop_v: &[f64],
    flop_drop_v: &[f64],
    k_volt_per_volt: f64,
) -> DelayAnnotation {
    assert_eq!(
        gate_drop_v.len(),
        annotation.num_gates(),
        "one droop entry per gate"
    );
    assert_eq!(
        flop_drop_v.len(),
        annotation.num_flops(),
        "one droop entry per flop"
    );
    let mut scaled = annotation.clone();
    let (rise, fall, clk_to_q) = scaled.delays_mut();
    for (i, d) in gate_drop_v.iter().enumerate() {
        let s = 1.0 + k_volt_per_volt * d.max(0.0);
        rise[i] *= s;
        fall[i] *= s;
    }
    for (i, d) in flop_drop_v.iter().enumerate() {
        let s = 1.0 + k_volt_per_volt * d.max(0.0);
        clk_to_q[i] *= s;
    }
    scaled
}

/// Convenience: the delay scale factor for a droop of `delta_v` volts.
///
/// # Example
///
/// ```
/// // k_volt = 0.9: a 0.1 V droop slows a cell by 9 %.
/// assert!((scap_timing::scaling::scale_factor(0.1, 0.9) - 1.09).abs() < 1e-12);
/// ```
#[inline]
pub fn scale_factor(delta_v: f64, k_volt_per_volt: f64) -> f64 {
    1.0 + k_volt_per_volt * delta_v.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_netlist::{CellKind, ClockEdge, FlopId, GateId, NetlistBuilder};

    fn ann() -> (scap_netlist::Netlist, DelayAnnotation) {
        let mut b = NetlistBuilder::new("d");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let a = b.add_primary_input("a");
        let y = b.add_net("y");
        let q = b.add_net("q");
        b.add_gate(CellKind::Inv, &[a], y, blk).unwrap();
        b.add_flop("ff", y, q, clk, ClockEdge::Rising, blk).unwrap();
        let n = b.finish().unwrap();
        let ann = DelayAnnotation::unit_wire(&n);
        (n, ann)
    }

    #[test]
    fn paper_calibration_point() {
        // 5 % voltage decrease (0.1 V at 1.8 V… the paper's example) → +9 %.
        assert!((scale_factor(0.1, 0.9) - 1.09).abs() < 1e-12);
        // No droop → no change.
        assert_eq!(scale_factor(0.0, 0.9), 1.0);
    }

    #[test]
    fn scales_gates_and_flops_independently() {
        let (_, a) = ann();
        let scaled = scale_annotation(&a, &[0.2], &[0.0], 0.9);
        let g = GateId::new(0);
        let f = FlopId::new(0);
        assert!((scaled.gate_rise_ps(g) - a.gate_rise_ps(g) * 1.18).abs() < 1e-9);
        assert!((scaled.gate_fall_ps(g) - a.gate_fall_ps(g) * 1.18).abs() < 1e-9);
        assert_eq!(scaled.flop_clk_to_q_ps(f), a.flop_clk_to_q_ps(f));
    }

    #[test]
    fn negative_droop_is_clamped() {
        let (_, a) = ann();
        let scaled = scale_annotation(&a, &[-0.5], &[-0.1], 0.9);
        assert_eq!(
            scaled.gate_rise_ps(GateId::new(0)),
            a.gate_rise_ps(GateId::new(0))
        );
        assert_eq!(
            scaled.flop_clk_to_q_ps(FlopId::new(0)),
            a.flop_clk_to_q_ps(FlopId::new(0))
        );
    }

    #[test]
    #[should_panic(expected = "one droop entry per gate")]
    fn validates_slice_lengths() {
        let (_, a) = ann();
        let _ = scale_annotation(&a, &[], &[0.0], 0.9);
    }
}
