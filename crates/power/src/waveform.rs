//! Instantaneous power waveforms from toggle traces.
//!
//! CAP and SCAP are single-number averages; for peak-power questions (the
//! paper's §1: "excessive peak power … large IR-drop") the time-resolved
//! profile matters. [`PowerWaveform`] bins a pattern's switching energy
//! into fixed time slots and reports peak windowed power.

use scap_netlist::Netlist;
use scap_sim::ToggleTrace;
use scap_timing::DelayAnnotation;

/// A binned launch-to-capture power profile.
#[derive(Clone, Debug)]
pub struct PowerWaveform {
    /// Bin width, ps.
    pub bin_ps: f64,
    /// Energy per bin, fJ (bin k covers `[k·bin, (k+1)·bin)`).
    pub energy_fj: Vec<f64>,
}

impl PowerWaveform {
    /// Builds the waveform of a trace with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_ps <= 0`.
    pub fn from_trace(
        netlist: &Netlist,
        annotation: &DelayAnnotation,
        trace: &ToggleTrace,
        bin_ps: f64,
    ) -> Self {
        assert!(bin_ps > 0.0, "bin width must be positive");
        let vdd2 = netlist.library.vdd * netlist.library.vdd;
        let bins = (trace.stw_ps() / bin_ps).floor() as usize + 1;
        let mut energy_fj = vec![0.0; bins];
        for ev in &trace.events {
            let k = ((ev.time_ps / bin_ps) as usize).min(bins - 1);
            energy_fj[k] += annotation.net_total_cap_ff(ev.net) * vdd2;
        }
        PowerWaveform { bin_ps, energy_fj }
    }

    /// Average power of one bin, mW.
    pub fn bin_power_mw(&self, k: usize) -> f64 {
        self.energy_fj[k] / self.bin_ps
    }

    /// Peak power over a sliding window of `window_ps` (rounded up to a
    /// whole number of bins), mW.
    pub fn peak_power_mw(&self, window_ps: f64) -> f64 {
        let w = ((window_ps / self.bin_ps).ceil() as usize).max(1);
        let mut sum: f64 = self.energy_fj.iter().take(w).sum();
        let mut best = sum;
        for k in w..self.energy_fj.len() {
            sum += self.energy_fj[k] - self.energy_fj[k - w];
            best = best.max(sum);
        }
        best / (w as f64 * self.bin_ps)
    }

    /// Total energy, fJ.
    pub fn total_energy_fj(&self) -> f64 {
        self.energy_fj.iter().sum()
    }

    /// A one-line sparkline of the profile (for reports).
    pub fn sparkline(&self) -> String {
        let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
        let max = self.energy_fj.iter().cloned().fold(1e-12, f64::max);
        self.energy_fj
            .iter()
            .map(|&e| glyphs[((e / max) * (glyphs.len() - 1) as f64).round() as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_netlist::{CellKind, ClockEdge, NetId, NetlistBuilder};
    use scap_sim::ToggleEvent;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("w");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 50e6);
        let a = b.add_primary_input("a");
        let y = b.add_net("y");
        let q = b.add_net("q");
        b.add_gate(CellKind::Inv, &[a], y, blk).unwrap();
        b.add_flop("ff", y, q, clk, ClockEdge::Rising, blk).unwrap();
        b.finish().unwrap()
    }

    fn trace(times: &[f64]) -> ToggleTrace {
        let mut t = ToggleTrace::default();
        for (k, &tp) in times.iter().enumerate() {
            t.events.push(ToggleEvent {
                time_ps: tp,
                net: NetId::new(1),
                rising: k % 2 == 0,
            });
        }
        t
    }

    #[test]
    fn bins_collect_energy_at_the_right_times() {
        let n = tiny();
        let ann = DelayAnnotation::unit_wire(&n);
        let t = trace(&[100.0, 150.0, 900.0]);
        let w = PowerWaveform::from_trace(&n, &ann, &t, 500.0);
        assert_eq!(w.energy_fj.len(), 2);
        // Two events in bin 0, one in bin 1.
        assert!((w.energy_fj[0] - 2.0 * w.energy_fj[1]).abs() < 1e-9);
        let total = w.total_energy_fj();
        let per_event = total / 3.0;
        assert!(per_event > 0.0);
    }

    #[test]
    fn peak_exceeds_average_for_bursty_traces() {
        let n = tiny();
        let ann = DelayAnnotation::unit_wire(&n);
        // A burst at the start, then silence.
        let t = trace(&[10.0, 20.0, 30.0, 40.0, 9_000.0]);
        let w = PowerWaveform::from_trace(&n, &ann, &t, 100.0);
        let avg = w.total_energy_fj() / 9_000.0;
        let peak = w.peak_power_mw(100.0);
        assert!(peak > 5.0 * avg, "peak {peak} vs avg {avg}");
    }

    #[test]
    fn peak_window_spanning_everything_equals_average() {
        let n = tiny();
        let ann = DelayAnnotation::unit_wire(&n);
        let t = trace(&[0.0, 400.0, 800.0]);
        let w = PowerWaveform::from_trace(&n, &ann, &t, 100.0);
        let span = w.energy_fj.len() as f64 * w.bin_ps;
        let peak = w.peak_power_mw(span);
        let avg = w.total_energy_fj() / span;
        assert!((peak - avg).abs() < 1e-9);
    }

    #[test]
    fn sparkline_matches_bin_count() {
        let n = tiny();
        let ann = DelayAnnotation::unit_wire(&n);
        let t = trace(&[100.0, 1_100.0]);
        let w = PowerWaveform::from_trace(&n, &ann, &t, 250.0);
        assert_eq!(w.sparkline().chars().count(), w.energy_fj.len());
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn rejects_zero_bin() {
        let n = tiny();
        let ann = DelayAnnotation::unit_wire(&n);
        let _ = PowerWaveform::from_trace(&n, &ann, &ToggleTrace::default(), 0.0);
    }
}
