//! Per-pattern analysis: toggle traces, SCAP power and endpoint delays.
//!
//! Every trace starts from frame 1 and a launch set. Both come from one
//! bit-parallel [`BatchSim`] pass per block of up to 64 patterns (a
//! single pattern is a one-lane block); a trace then pays only for its
//! own events, through an [`EventSim`] over the batch simulator's
//! [`SimTable`](scap_sim::SimTable) and its thread's `TraceScratch`.

use crate::CaseStudy;
use scap_dft::{FilledPattern, PatternBatch, PatternSet};
use scap_exec::Executor;
use scap_netlist::{FlopId, Netlist};
use scap_power::{DynSession, DynamicAnalysis, IrDropMap, PatternPower, ScapCalculator};
use scap_sim::loc::{self, State2Src};
use scap_sim::{BatchSim, EventScratch, EventSim, GateDelays, LaunchMode, ToggleTrace};
use scap_timing::{scaling, ClockArrivals, DelayAnnotation};
use std::cell::RefCell;

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

/// Frame 1 and the launch state of up to 64 patterns, from one
/// bit-parallel pass: lane `p` of every word belongs to pattern `p`.
#[derive(Debug)]
pub(crate) struct FrameBlock {
    /// Settled frame-1 value of every net.
    frame1: Vec<u64>,
    /// Per active-domain flop (in [`PatternAnalyzer::active`] order): the
    /// lanes whose Q toggles at the launch edge.
    toggles: Vec<u64>,
    /// Per active-domain flop: the Q value after the launch edge.
    launched: Vec<u64>,
}

/// A thread's reusable tracing buffers: the event kernel's scratch, the
/// frame-1 plane of the pattern being traced and its launch list. What
/// a trace computes never depends on what the buffers held before.
#[derive(Debug, Default)]
struct TraceScratch {
    events: EventScratch,
    frame1: Vec<bool>,
    launches: Vec<(FlopId, bool, f64)>,
}

thread_local! {
    static SCRATCH: RefCell<TraceScratch> = RefCell::default();
}

/// Runs `f` on this thread's tracing buffers. `f` must not trace through
/// the analyzer itself: the buffers are borrowed for its duration.
fn with_scratch<R>(f: impl FnOnce(&mut TraceScratch) -> R) -> R {
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
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
    scap: ScapCalculator<'a>,
    /// Launch-off-capture state source per flop.
    state2: Vec<State2Src>,
    /// The active clock domain's flops, in index order: the only flops
    /// the launch edge toggles.
    active: Vec<FlopId>,
    /// Nominal launch instant of each active flop, ps.
    nominal_launch_ps: Vec<f64>,
    /// The study's gate delays in the event kernel's femtoseconds.
    nominal_delays: GateDelays,
}

impl<'a> PatternAnalyzer<'a> {
    /// Builds an analyzer bound to a case study.
    pub fn new(study: &'a CaseStudy) -> Self {
        let d = &study.design;
        let active_clock = study.clka();
        let active = (0..d.netlist.num_flops() as u32)
            .map(FlopId::new)
            .filter(|&f| d.netlist.flop(f).clock == active_clock)
            .collect();
        let mut analyzer = PatternAnalyzer {
            study,
            batch: BatchSim::new(&d.netlist),
            dynir: DynamicAnalysis::new(&d.netlist, &d.floorplan, study.grid),
            scap: ScapCalculator::new(&d.netlist, &study.annotation, study.period_ps()),
            state2: loc::state2_sources(&d.netlist, active_clock, LaunchMode::Capture),
            active,
            nominal_launch_ps: Vec::new(),
            nominal_delays: GateDelays::new(&study.annotation),
        };
        analyzer.nominal_launch_ps = analyzer.launch_times(&study.annotation, &study.arrivals);
        analyzer
    }

    /// A dynamic IR-drop session over the analyzer's mesh: reusable
    /// solver buffers, one session per thread.
    pub(crate) fn session(&self) -> DynSession<'_, 'a> {
        self.dynir.session()
    }

    fn netlist(&self) -> &'a Netlist {
        &self.study.design.netlist
    }

    /// Launch instant of every active flop under given delays and clock
    /// arrivals: clock arrival (0 where the tree has none) plus
    /// clock-to-Q, ps.
    fn launch_times(&self, annotation: &DelayAnnotation, arrivals: &ClockArrivals) -> Vec<f64> {
        let mut arrival: Vec<Option<f64>> = vec![None; self.netlist().num_flops()];
        for (f, t) in arrivals.iter() {
            arrival[f.index()].get_or_insert(t);
        }
        self.active
            .iter()
            .map(|&f| arrival[f.index()].unwrap_or(0.0) + annotation.flop_clk_to_q_ps(f))
            .collect()
    }

    /// Frame 1 and launch state of up to 64 patterns, one [`BatchSim`]
    /// pass.
    fn frame_block(&self, patterns: &[FilledPattern]) -> FrameBlock {
        let b = PatternBatch::pack(patterns);
        let frame1 = self.batch.eval(&b.load_words, &b.pi_words);
        let (toggles, launched) = self
            .active
            .iter()
            .map(|f| {
                let i = f.index();
                let new = self.state2[i].value(i, &b.load_words, &frame1, 0);
                (b.load_words[i] ^ new, new)
            })
            .unzip();
        FrameBlock {
            frame1,
            toggles,
            launched,
        }
    }

    /// Frame blocks of a pattern list, 64 patterns per block: pattern `i`
    /// is lane `i % 64` of block `i / 64`.
    pub(crate) fn frame_blocks(&self, patterns: &[FilledPattern]) -> Vec<FrameBlock> {
        patterns.chunks(64).map(|c| self.frame_block(c)).collect()
    }

    /// Loads lane `lane` of `block` as the frame 1 of the next traces.
    fn load_lane(s: &mut TraceScratch, block: &FrameBlock, lane: usize) {
        s.frame1.clear();
        s.frame1
            .extend(block.frame1.iter().map(|w| w >> lane & 1 == 1));
    }

    /// The toggle trace of the loaded lane under `delays`, with the
    /// active flops launching at `launch_ps`.
    fn run_lane(
        &self,
        s: &mut TraceScratch,
        block: &FrameBlock,
        lane: usize,
        delays: &GateDelays,
        launch_ps: &[f64],
    ) -> ToggleTrace {
        s.launches.clear();
        for (k, &f) in self.active.iter().enumerate() {
            if block.toggles[k] >> lane & 1 == 1 {
                s.launches
                    .push((f, block.launched[k] >> lane & 1 == 1, launch_ps[k]));
            }
        }
        EventSim::with_table(self.netlist(), self.batch.table(), delays).run_in(
            &mut s.events,
            &s.frame1,
            &s.launches,
        )
    }

    /// The nominal toggle trace of one lane.
    fn nominal_lane(&self, s: &mut TraceScratch, block: &FrameBlock, lane: usize) -> ToggleTrace {
        Self::load_lane(s, block, lane);
        self.run_lane(
            s,
            block,
            lane,
            &self.nominal_delays,
            &self.nominal_launch_ps,
        )
    }

    /// Maps `f` over the nominal traces of `patterns` in parallel, with
    /// a per-worker state from `init`; order-stable and bit-identical at
    /// every thread count.
    fn map_traces<S, R: Send>(
        &self,
        patterns: &[FilledPattern],
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, ToggleTrace) -> R + Sync,
    ) -> Vec<R> {
        let blocks = self.frame_blocks(patterns);
        let index: Vec<usize> = (0..patterns.len()).collect();
        Executor::new().parallel_map_with(init, &index, |state, &i| {
            let trace = with_scratch(|s| self.nominal_lane(s, &blocks[i / 64], i % 64));
            f(state, trace)
        })
    }

    /// The launch-to-capture toggle trace of a pattern (nominal delays).
    pub fn trace(&self, filled: &FilledPattern) -> ToggleTrace {
        self.trace_one(filled, &self.nominal_delays, &self.nominal_launch_ps)
    }

    /// Toggle trace under explicit (e.g. IR-drop-scaled) delays and clock
    /// arrivals.
    pub fn trace_with(
        &self,
        filled: &FilledPattern,
        annotation: &DelayAnnotation,
        arrivals: &ClockArrivals,
    ) -> ToggleTrace {
        let launch_ps = self.launch_times(annotation, arrivals);
        self.trace_one(filled, &GateDelays::new(annotation), &launch_ps)
    }

    /// One pattern's trace, its frame 1 from a one-lane block.
    fn trace_one(
        &self,
        filled: &FilledPattern,
        delays: &GateDelays,
        launch_ps: &[f64],
    ) -> ToggleTrace {
        let block = self.frame_block(std::slice::from_ref(filled));
        with_scratch(|s| {
            Self::load_lane(s, &block, 0);
            self.run_lane(s, &block, 0, delays, launch_ps)
        })
    }

    /// CAP/SCAP power of one pattern.
    pub fn power(&self, filled: &FilledPattern) -> PatternPower {
        let trace = self.trace(filled);
        self.power_of_trace(&trace)
    }

    /// CAP/SCAP power of an existing trace.
    pub fn power_of_trace(&self, trace: &ToggleTrace) -> PatternPower {
        self.scap.measure(trace)
    }

    /// SCAP profile of a whole pattern set — the data behind the paper's
    /// Figures 2 and 6. Patterns are analyzed in parallel (order-stable,
    /// bit-identical to the serial loop for every thread count).
    pub fn power_profile(&self, set: &PatternSet) -> Vec<PatternPower> {
        self.map_traces(&set.filled, || (), |(), trace| self.scap.measure(&trace))
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
        self.map_traces(
            patterns,
            || self.session(),
            |session, trace| session.analyze(&self.study.annotation, &trace),
        )
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
        let block = self.frame_block(std::slice::from_ref(filled));
        let (nominal, scaled) = self.scaled_lane(&mut self.session(), &block, 0, k);
        (
            self.endpoints_from_trace(&nominal, &self.study.arrivals),
            scaled,
        )
    }

    /// The §3.2 re-simulation of one lane, solving the IR drop through
    /// the caller's session: the nominal trace and the endpoint report
    /// under the delays and clock arrivals its IR drop derates. Both
    /// traces start from the same frame 1; only launch instants and gate
    /// delays differ.
    pub(crate) fn scaled_lane(
        &self,
        session: &mut DynSession<'_, '_>,
        block: &FrameBlock,
        lane: usize,
        k: f64,
    ) -> (ToggleTrace, EndpointDelayReport) {
        with_scratch(|s| {
            let nominal = self.nominal_lane(s, block, lane);
            let map = session.analyze(&self.study.annotation, &nominal);
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
            let launch_ps = self.launch_times(&scaled_ann, &scaled_arrivals);
            let scaled = self.run_lane(s, block, lane, &GateDelays::new(&scaled_ann), &launch_ps);
            (
                nominal,
                self.endpoints_from_trace(&scaled, &scaled_arrivals),
            )
        })
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
