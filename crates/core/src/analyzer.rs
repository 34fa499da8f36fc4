//! Per-pattern analysis: toggle traces, SCAP power and endpoint delays.

use crate::CaseStudy;
use scap_dft::{FilledPattern, PatternBatch, PatternSet};
use scap_exec::Executor;
use scap_netlist::{ClockId, FlopId, Netlist};
use scap_power::{DynSession, DynamicAnalysis, IrDropMap, PatternPower, ScapCalculator};
use scap_sim::loc::{self, State2Src};
use scap_sim::{BatchSim, EventSim, LaunchMode, ToggleTrace};
use scap_timing::{scaling, ClockArrivals, DelayAnnotation};

/// Per-endpoint delay report (the paper's Figure 7 data).
#[derive(Clone, Debug)]
pub struct EndpointDelayReport {
    /// For each flop of the active domain: the path delay observed at the
    /// endpoint, measured relative to the clock arrival at that endpoint,
    /// ps. `0.0` marks a non-active endpoint (no transition captured).
    pub delay_ps: Vec<(FlopId, f64)>,
}

impl EndpointDelayReport {
    /// Endpoints whose delay is non-zero (active endpoints).
    pub fn active(&self) -> impl Iterator<Item = (FlopId, f64)> + '_ {
        self.delay_ps.iter().copied().filter(|&(_, d)| d != 0.0)
    }

    /// The largest endpoint delay, ps.
    pub fn max_delay_ps(&self) -> f64 {
        self.delay_ps.iter().map(|&(_, d)| d).fold(0.0, f64::max)
    }
}

/// Computes traces, power, IR drop and timing for individual patterns of
/// one case-study design. The power mesh is assembled once, in
/// [`PatternAnalyzer::new`]; every IR-drop solve goes through a
/// [`DynSession`] over it.
///
/// # Example
///
/// ```
/// use scap::{CaseStudy, PatternAnalyzer};
/// use scap_dft::FilledPattern;
///
/// let study = CaseStudy::small();
/// let analyzer = PatternAnalyzer::new(&study);
/// let quiet = FilledPattern {
///     load: vec![false; study.design.netlist.num_flops()],
///     pi: vec![false; study.design.netlist.primary_inputs().len()],
/// };
/// let trace = analyzer.trace(&quiet);
/// let power = analyzer.power(&quiet);
/// assert_eq!(power.stw_ps, trace.stw_ps());
/// ```
#[derive(Debug)]
pub struct PatternAnalyzer<'a> {
    study: &'a CaseStudy,
    batch: BatchSim<'a>,
    dynir: DynamicAnalysis<'a>,
    active_clock: ClockId,
    /// Launch-off-capture state source per flop.
    state2: Vec<State2Src>,
}

impl<'a> PatternAnalyzer<'a> {
    /// Builds an analyzer bound to a case study.
    pub fn new(study: &'a CaseStudy) -> Self {
        let d = &study.design;
        let active_clock = study.clka();
        PatternAnalyzer {
            study,
            batch: BatchSim::new(&d.netlist),
            dynir: DynamicAnalysis::new(&d.netlist, &d.floorplan, study.grid),
            active_clock,
            state2: loc::state2_sources(&d.netlist, active_clock, LaunchMode::Capture),
        }
    }

    /// A dynamic IR-drop session over the analyzer's mesh: reusable
    /// solver buffers, one session per thread.
    pub(crate) fn session(&self) -> DynSession<'_, 'a> {
        self.dynir.session()
    }

    fn netlist(&self) -> &'a Netlist {
        &self.study.design.netlist
    }

    /// Launch events of a pattern under given clock arrivals and delays:
    /// `(flop, new value, Q transition time)` for every active-domain flop
    /// whose state changes at the launch edge.
    fn launches(
        &self,
        filled: &FilledPattern,
        annotation: &DelayAnnotation,
        arrivals: &ClockArrivals,
    ) -> (Vec<bool>, Vec<(FlopId, bool, f64)>) {
        let n = self.netlist();
        let b = PatternBatch::pack(std::slice::from_ref(filled));
        let frame1 = self.batch.eval(&b.load_words, &b.pi_words);
        let state2 = loc::launch_state(&self.state2, &b.load_words, &frame1, 0);
        let frame1: Vec<bool> = frame1.iter().map(|w| w & 1 == 1).collect();
        let mut launches = Vec::new();
        for (i, f) in n.flops().iter().enumerate() {
            if f.clock != self.active_clock {
                continue;
            }
            let id = FlopId::new(i as u32);
            let old = b.load_words[i] & 1 == 1;
            let new = state2[i] & 1 == 1;
            if old != new {
                let t = arrivals.arrival_ps(id).unwrap_or(0.0) + annotation.flop_clk_to_q_ps(id);
                launches.push((id, new, t));
            }
        }
        (frame1, launches)
    }

    /// The launch-to-capture toggle trace of a pattern (nominal delays).
    pub fn trace(&self, filled: &FilledPattern) -> ToggleTrace {
        self.trace_with(filled, &self.study.annotation, &self.study.arrivals)
    }

    /// Toggle trace under explicit (e.g. IR-drop-scaled) delays and clock
    /// arrivals.
    pub fn trace_with(
        &self,
        filled: &FilledPattern,
        annotation: &DelayAnnotation,
        arrivals: &ClockArrivals,
    ) -> ToggleTrace {
        let (frame1, launches) = self.launches(filled, annotation, arrivals);
        EventSim::new(self.netlist(), annotation).run(&frame1, &launches)
    }

    /// CAP/SCAP power of one pattern.
    pub fn power(&self, filled: &FilledPattern) -> PatternPower {
        let trace = self.trace(filled);
        self.power_of_trace(&trace)
    }

    /// CAP/SCAP power of an existing trace.
    pub fn power_of_trace(&self, trace: &ToggleTrace) -> PatternPower {
        let calc = ScapCalculator::new(
            self.netlist(),
            &self.study.annotation,
            self.study.period_ps(),
        );
        calc.measure(trace)
    }

    /// SCAP profile of a whole pattern set — the data behind the paper's
    /// Figures 2 and 6. Patterns are analyzed in parallel (order-stable,
    /// bit-identical to the serial loop for every thread count).
    pub fn power_profile(&self, set: &PatternSet) -> Vec<PatternPower> {
        Executor::new().parallel_map(&set.filled, |f| self.power(f))
    }

    /// Dynamic IR-drop of one pattern.
    pub fn ir_drop(&self, filled: &FilledPattern) -> IrDropMap {
        let trace = self.trace(filled);
        self.session().analyze(&self.study.annotation, &trace)
    }

    /// Dynamic IR-drop of many patterns, solved in parallel with one
    /// [`DynSession`] per worker. Results are bit-identical to calling
    /// [`PatternAnalyzer::ir_drop`] per pattern, in order.
    pub fn ir_drop_profile(&self, patterns: &[FilledPattern]) -> Vec<IrDropMap> {
        Executor::new().parallel_map_with(
            || self.session(),
            patterns,
            |session, filled| {
                let trace = self.trace(filled);
                session.analyze(&self.study.annotation, &trace)
            },
        )
    }

    /// Endpoint delays of a pattern under nominal timing.
    pub fn endpoint_delays(&self, filled: &FilledPattern) -> EndpointDelayReport {
        self.endpoint_delays_with(filled, &self.study.annotation, &self.study.arrivals)
    }

    /// Endpoint delays under explicit delays/arrivals.
    pub fn endpoint_delays_with(
        &self,
        filled: &FilledPattern,
        annotation: &DelayAnnotation,
        arrivals: &ClockArrivals,
    ) -> EndpointDelayReport {
        let trace = self.trace_with(filled, annotation, arrivals);
        self.endpoints_from_trace(&trace, arrivals)
    }

    /// Endpoint delays of an already-computed trace.
    fn endpoints_from_trace(
        &self,
        trace: &ToggleTrace,
        arrivals: &ClockArrivals,
    ) -> EndpointDelayReport {
        let n = self.netlist();
        let delay_ps = arrivals
            .iter()
            .map(|(f, t_clk)| {
                let d = n.flop(f).d;
                let delay = trace
                    .last_change_ps(d)
                    .map(|t| (t - t_clk).max(0.0))
                    .unwrap_or(0.0);
                (f, delay)
            })
            .collect();
        EndpointDelayReport { delay_ps }
    }

    /// The paper's §3.2 IR-drop-aware re-simulation: solves the pattern's
    /// dynamic IR-drop, scales every cell *and clock-tree buffer* delay by
    /// `1 + k_volt·ΔV`, and re-runs the endpoint timing. Returns
    /// `(nominal, scaled)` endpoint reports.
    pub fn endpoint_delays_scaled(
        &self,
        filled: &FilledPattern,
    ) -> (EndpointDelayReport, EndpointDelayReport) {
        self.endpoint_delays_scaled_k(filled, self.netlist().library.k_volt_per_volt)
    }

    /// [`PatternAnalyzer::endpoint_delays_scaled`] with an explicit
    /// delay-scaling coefficient (V⁻¹) instead of the library's
    /// calibrated `k_volt` — the timing screen's aggressive-derating
    /// sensitivity knob.
    pub fn endpoint_delays_scaled_k(
        &self,
        filled: &FilledPattern,
        k: f64,
    ) -> (EndpointDelayReport, EndpointDelayReport) {
        self.endpoint_delays_scaled_in(&mut self.session(), filled, k)
    }

    /// [`PatternAnalyzer::endpoint_delays_scaled_k`] solving the IR drop
    /// through the caller's session, so a worker screening many patterns
    /// keeps its solver buffers.
    pub(crate) fn endpoint_delays_scaled_in(
        &self,
        session: &mut DynSession<'_, '_>,
        filled: &FilledPattern,
        k: f64,
    ) -> (EndpointDelayReport, EndpointDelayReport) {
        let trace = self.trace(filled);
        let nominal = self.endpoints_from_trace(&trace, &self.study.arrivals);
        let map = session.analyze(&self.study.annotation, &trace);
        let scaled_ann = scaling::scale_annotation(
            &self.study.annotation,
            &map.gate_drops_total(),
            &map.flop_drops_total(),
            k,
        );
        let scaled_arrivals = self
            .study
            .clock_tree
            .arrivals_with_drop(|p| self.dynir.drop_at(&map, p), k);
        let scaled = self.endpoint_delays_with(filled, &scaled_ann, &scaled_arrivals);
        (nominal, scaled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_pattern(study: &CaseStudy, seed: u64) -> FilledPattern {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        FilledPattern {
            load: (0..study.design.netlist.num_flops())
                .map(|_| rng.gen())
                .collect(),
            pi: (0..study.design.netlist.primary_inputs().len())
                .map(|_| rng.gen())
                .collect(),
        }
    }

    #[test]
    fn random_pattern_produces_activity() {
        let study = CaseStudy::small();
        let an = PatternAnalyzer::new(&study);
        let p = random_pattern(&study, 1);
        let trace = an.trace(&p);
        assert!(trace.num_toggles() > 10);
        assert!(trace.stw_ps() > 0.0);
        let power = an.power_of_trace(&trace);
        assert!(power.chip_scap_vdd_mw() > 0.0);
        assert!(power.chip_scap_vdd_mw() >= power.chip_cap_vdd_mw());
    }

    /// The mechanism behind the paper's fill-0 procedure: loading 0s into
    /// a block's scan cells keeps that block's switching (and thus its
    /// SCAP contribution) down, on average over patterns.
    #[test]
    fn zeroing_b5_loads_reduces_b5_energy_on_average() {
        let study = CaseStudy::small();
        let an = PatternAnalyzer::new(&study);
        let b5 = study.design.block_named("B5").unwrap();
        let b5_flops: Vec<usize> = study
            .design
            .netlist
            .flops()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.block == b5)
            .map(|(i, _)| i)
            .collect();
        let mut with = 0.0;
        let mut without = 0.0;
        for seed in 0..6 {
            let p = random_pattern(&study, seed);
            with += an.power(&p).blocks[b5.index()].energy_vdd_fj;
            let mut zeroed = p.clone();
            for &i in &b5_flops {
                zeroed.load[i] = false;
            }
            without += an.power(&zeroed).blocks[b5.index()].energy_vdd_fj;
        }
        assert!(
            without < with,
            "zeroed-B5 energy {without} should be below random-B5 energy {with}"
        );
    }

    #[test]
    fn scaled_timing_slows_most_active_endpoints() {
        let study = CaseStudy::small();
        let an = PatternAnalyzer::new(&study);
        let p = random_pattern(&study, 3);
        let (nominal, scaled) = an.endpoint_delays_scaled(&p);
        assert_eq!(nominal.delay_ps.len(), scaled.delay_ps.len());
        let nom_max = nominal.max_delay_ps();
        let sc_max = scaled.max_delay_ps();
        assert!(nom_max > 0.0);
        assert!(
            sc_max >= nom_max * 0.99,
            "worst path should not speed up materially: {nom_max} -> {sc_max}"
        );
    }

    #[test]
    fn ir_drop_map_has_positive_drop_for_random_pattern() {
        let study = CaseStudy::small();
        let an = PatternAnalyzer::new(&study);
        let m = an.ir_drop(&random_pattern(&study, 4));
        assert!(m.worst_drop_vdd() > 0.0);
    }
}
