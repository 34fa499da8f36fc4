//! The pattern-generation loop: primary targeting, greedy dynamic
//! compaction, fill and PPSFP fault dropping.

use crate::{Podem, PodemOutcome, PodemScratch, SatAtpg, SatOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scap_dft::{FillPolicy, PatternBatch, PatternSet, TestPattern};
use scap_exec::{shard_ranges, Executor};
use scap_netlist::{ClockId, Netlist};
use scap_sim::{FaultList, LaunchMode, PropagationScratch, TransitionFault, TransitionFaultSim};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which search engine targets primary faults, and whether aborted
/// searches get a SAT second opinion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// Structural PODEM only — the default; aborts stay aborts.
    #[default]
    Podem,
    /// SAT primary targeting ([`SatAtpg`]); dynamic compaction of
    /// secondary faults still runs PODEM (it merges incrementally into
    /// a partially-specified pattern, which is PODEM's home turf).
    Sat,
    /// PODEM first; only faults PODEM *aborts* on go to SAT, which
    /// either finds the test or proves them untestable. This is the
    /// coverage-accounting fix: an abort is not evidence either way,
    /// and leaving aborted faults in the test-coverage denominator
    /// silently deflates the reported number.
    Hybrid,
}

impl EngineKind {
    /// Parses a CLI/HTTP value (`podem`, `sat`, `hybrid`).
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "podem" => Some(EngineKind::Podem),
            "sat" => Some(EngineKind::Sat),
            "hybrid" => Some(EngineKind::Hybrid),
            _ => None,
        }
    }

    /// The canonical spelling `parse` accepts.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Podem => "podem",
            EngineKind::Sat => "sat",
            EngineKind::Hybrid => "hybrid",
        }
    }
}

/// ATPG knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AtpgConfig {
    /// Don't-care fill policy applied to every closed pattern.
    pub fill: FillPolicy,
    /// Launch mechanism (the paper uses launch-off-capture).
    pub mode: LaunchMode,
    /// Primary-targeting engine (see [`EngineKind`]).
    pub engine: EngineKind,
    /// PODEM backtrack limit per fault.
    pub backtrack_limit: u32,
    /// CDCL conflict budget per SAT solve (`sat`/`hybrid` engines).
    pub sat_conflict_limit: u64,
    /// Consecutive failed secondary-merge attempts before a pattern is
    /// closed (the greedy compaction cut-off).
    pub secondary_fail_limit: u32,
    /// Hard cap on secondary targets examined per pattern.
    pub secondary_scan_window: usize,
    /// RNG seed (random fill).
    pub seed: u64,
    /// Safety cap on generated patterns.
    pub max_patterns: usize,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            fill: FillPolicy::Random,
            mode: LaunchMode::Capture,
            engine: EngineKind::Podem,
            backtrack_limit: 100,
            sat_conflict_limit: 20_000,
            secondary_fail_limit: 8,
            secondary_scan_window: 2000,
            seed: 0xC0FFEE,
            max_patterns: 100_000,
        }
    }
}

/// Classification of each fault after a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultStatus {
    /// Not yet detected.
    Undetected,
    /// Detected (by a targeted test or fortuitously during fault
    /// simulation).
    Detected,
    /// Proven untestable by exhausting the search space.
    Untestable,
    /// Search hit the backtrack limit.
    Aborted,
}

/// The result of one ATPG run.
#[derive(Clone, Debug)]
pub struct AtpgRun {
    /// Generated patterns, in generation order.
    pub patterns: PatternSet,
    /// Final status per fault (parallel to the input fault list).
    pub status: Vec<FaultStatus>,
    /// `(pattern count, cumulative detected faults)` after each pattern —
    /// the paper's Figure 4 coverage curve.
    pub coverage_curve: Vec<(usize, usize)>,
    /// Size of the uncollapsed fault universe (for Table 1 style totals).
    pub uncollapsed_total: usize,
}

impl AtpgRun {
    /// Detected fault count.
    pub fn num_detected(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, FaultStatus::Detected))
            .count()
    }

    /// Untestable fault count.
    pub fn num_untestable(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, FaultStatus::Untestable))
            .count()
    }

    /// Aborted fault count.
    pub fn num_aborted(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, FaultStatus::Aborted))
            .count()
    }

    /// Undetected fault count (excludes aborted faults, which have
    /// their own bucket).
    pub fn num_undetected(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, FaultStatus::Undetected))
            .count()
    }

    /// Test coverage: `detected / (total − untestable)`, the figure
    /// commercial tools report.
    ///
    /// Only *proven* untestable faults leave the denominator. Aborted
    /// faults stay in it — an abort is not evidence of untestability —
    /// which is exactly why the hybrid engine's UNSAT reclassification
    /// raises this number: every abort it proves untestable moves from
    /// the denominator's dead weight into the `Untestable` bucket.
    pub fn test_coverage(&self) -> f64 {
        let total = self.status.len();
        let testable = total - self.num_untestable();
        if testable == 0 {
            return 0.0;
        }
        self.num_detected() as f64 / testable as f64
    }

    /// Fault coverage: `detected / total`, over every fault in the
    /// list — untestable and aborted faults included.
    pub fn fault_coverage(&self) -> f64 {
        if self.status.is_empty() {
            return 0.0;
        }
        self.num_detected() as f64 / self.status.len() as f64
    }
}

/// Drives [`Podem`] (and optionally [`SatAtpg`]) over a fault list.
#[derive(Debug)]
pub struct Generator<'a> {
    netlist: &'a Netlist,
    podem: Podem<'a>,
    /// Built only when the configured engine needs it, so the default
    /// PODEM path carries no extra state and stays byte-identical.
    sat: Option<SatAtpg<'a>>,
    fault_sim: TransitionFaultSim<'a>,
    config: AtpgConfig,
    exec: Executor,
}

impl<'a> Generator<'a> {
    /// Builds a generator for one clock domain.
    pub fn new(netlist: &'a Netlist, active_clock: ClockId, config: AtpgConfig) -> Self {
        let sat = (config.engine != EngineKind::Podem).then(|| {
            SatAtpg::new(
                netlist,
                active_clock,
                config.mode,
                config.sat_conflict_limit,
            )
        });
        Generator {
            netlist,
            podem: Podem::with_mode(netlist, active_clock, config.mode, config.backtrack_limit),
            sat,
            fault_sim: TransitionFaultSim::with_mode(netlist, active_clock, config.mode),
            config,
            exec: Executor::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AtpgConfig {
        &self.config
    }

    /// Runs ATPG to completion over `faults`.
    pub fn run(&self, faults: &FaultList) -> AtpgRun {
        self.run_with_status(faults, vec![FaultStatus::Undetected; faults.faults().len()])
    }

    /// Runs ATPG continuing from a prior status vector (used by the staged
    /// procedure to avoid re-targeting already-covered faults).
    pub fn run_with_status(&self, faults: &FaultList, status: Vec<FaultStatus>) -> AtpgRun {
        let order: Vec<usize> = (0..faults.faults().len()).collect();
        self.run_with_status_in_order(faults, status, &order)
    }

    /// Runs ATPG targeting faults in an explicit order — e.g. the STA
    /// risk-tier priority that puts faults on near-critical (derated)
    /// paths first, so the budgeted pattern count covers the paths supply
    /// noise actually threatens. `order` must hold in-range fault indices,
    /// each at most once; faults absent from it are never targeted as
    /// primaries (drop-simulation can still detect them). With the
    /// identity order this is exactly [`Generator::run_with_status`].
    pub fn run_with_status_in_order(
        &self,
        faults: &FaultList,
        mut status: Vec<FaultStatus>,
        order: &[usize],
    ) -> AtpgRun {
        assert_eq!(status.len(), faults.faults().len());
        assert!(
            order.iter().all(|&i| i < status.len()),
            "fault order index out of range"
        );
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut patterns = PatternSet {
            fill: Some(self.config.fill),
            ..PatternSet::new()
        };
        let mut coverage_curve = Vec::new();
        let mut detected_total = status
            .iter()
            .filter(|s| matches!(s, FaultStatus::Detected))
            .count();
        let list = faults.faults();
        // Drop-sim works on equivalence-class representatives: a
        // representative's detect mask answers for every class member,
        // so statuses evolve exactly as with per-fault simulation.
        let collapse = faults.collapse(self.netlist);
        let rep = collapse.rep();
        // One propagation scratch per worker for the whole run; workers
        // claim distinct slots per round, so buffers stay warm across
        // patterns instead of being reallocated
        // (the scratch is epoch-stamped — reuse cannot leak state).
        let scratch_pool: Vec<Mutex<PropagationScratch>> = (0..self.exec.threads().max(1))
            .map(|_| Mutex::new(PropagationScratch::default()))
            .collect();
        let next_scratch = AtomicUsize::new(0);
        // One simulation scratch for every PODEM call in the run: the
        // engine resyncs it incrementally instead of re-simulating the
        // whole netlist three times per decision.
        let mut podem_scratch = PodemScratch::default();
        let mut rep_targets: Vec<TransitionFault> = Vec::new();
        let mut rep_ids: Vec<u32> = Vec::new();
        let mut slot_of: Vec<u32> = vec![u32::MAX; list.len()];
        // Secondary-merge abort counter per fault. The backtrack budget
        // is constant within a run, so two aborts at it are two aborts
        // "at the same budget": further merge attempts are suppressed
        // (they burn the full budget and nearly always abort again).
        let mut secondary_aborts: Vec<u8> = vec![0; list.len()];
        const SECONDARY_ABORT_CAP: u8 = 2;
        for (pos, &idx) in order.iter().enumerate() {
            if patterns.len() >= self.config.max_patterns {
                break;
            }
            if status[idx] != FaultStatus::Undetected {
                continue;
            }
            let mut pattern = TestPattern::unspecified(self.netlist);
            let primary = match self.config.engine {
                EngineKind::Podem | EngineKind::Hybrid => {
                    let _span = scap_obs::span!("atpg.podem_primary");
                    self.podem
                        .generate_with_scratch(list[idx], &mut pattern, &mut podem_scratch)
                }
                EngineKind::Sat => {
                    let sat = self.sat.as_ref().expect("sat engine built for engine=sat");
                    match sat.generate(list[idx], &mut pattern) {
                        SatOutcome::Test => PodemOutcome::Test,
                        SatOutcome::Untestable => PodemOutcome::Untestable,
                        SatOutcome::Unknown => PodemOutcome::Aborted,
                    }
                }
            };
            match primary {
                PodemOutcome::Untestable => {
                    status[idx] = FaultStatus::Untestable;
                    continue;
                }
                PodemOutcome::Aborted => {
                    if self.config.engine == EngineKind::Hybrid {
                        // A PODEM abort proves nothing. Ask the SAT
                        // engine for a verdict: UNSAT is a proof of
                        // untestability (the fault leaves the coverage
                        // denominator), a model is a test PODEM missed.
                        let sat = self.sat.as_ref().expect("sat engine built for hybrid");
                        match sat.generate(list[idx], &mut pattern) {
                            SatOutcome::Test => {
                                scap_obs::counter!("atpg.sat_rescued_tests").incr();
                            }
                            SatOutcome::Untestable => {
                                scap_obs::counter!("atpg.reclassified_untestable").incr();
                                status[idx] = FaultStatus::Untestable;
                                continue;
                            }
                            SatOutcome::Unknown => {
                                status[idx] = FaultStatus::Aborted;
                                continue;
                            }
                        }
                    } else {
                        status[idx] = FaultStatus::Aborted;
                        continue;
                    }
                }
                PodemOutcome::Test => {}
            }
            // Greedy dynamic compaction: pull further undetected faults
            // into the same pattern until merges keep failing.
            let mut fails = 0u32;
            let mut scanned = 0usize;
            for &jdx in &order[pos + 1..] {
                let f2 = list[jdx];
                if fails >= self.config.secondary_fail_limit
                    || scanned >= self.config.secondary_scan_window
                {
                    break;
                }
                if status[jdx] != FaultStatus::Undetected {
                    continue;
                }
                if secondary_aborts[jdx] >= SECONDARY_ABORT_CAP {
                    // Suppressed: treat the would-be attempt exactly as
                    // an abort (same loop accounting) without paying
                    // the backtrack budget again.
                    scanned += 1;
                    fails += 1;
                    scap_obs::counter!("atpg.aborts_suppressed").incr();
                    continue;
                }
                scanned += 1;
                let _span = scap_obs::span!("atpg.podem_secondary");
                match self
                    .podem
                    .generate_with_scratch(f2, &mut pattern, &mut podem_scratch)
                {
                    PodemOutcome::Test => fails = 0,
                    PodemOutcome::Aborted => {
                        secondary_aborts[jdx] = secondary_aborts[jdx].saturating_add(1);
                        fails += 1;
                    }
                    PodemOutcome::Untestable => fails += 1,
                }
            }
            let filled = pattern.fill(self.netlist, self.config.fill, &mut rng);
            // PPSFP drop: the filled pattern is ground truth for status.
            let batch = PatternBatch::pack(std::slice::from_ref(&filled));
            let _span = scap_obs::span!("atpg.drop_sim");
            rep_ids.clear();
            rep_targets.clear();
            for (i, s) in status.iter().enumerate() {
                if matches!(s, FaultStatus::Detected) {
                    continue;
                }
                let r = rep[i] as usize;
                if slot_of[r] == u32::MAX {
                    slot_of[r] = rep_targets.len() as u32;
                    rep_ids.push(r as u32);
                    rep_targets.push(list[r]);
                }
            }
            let detect_mask = self.drop_sim(&batch, &rep_targets, &scratch_pool, &next_scratch);
            for (i, s) in status.iter_mut().enumerate() {
                if matches!(s, FaultStatus::Detected) {
                    continue;
                }
                if detect_mask[slot_of[rep[i] as usize] as usize] != 0 {
                    *s = FaultStatus::Detected;
                    detected_total += 1;
                }
            }
            for &r in &rep_ids {
                slot_of[r as usize] = u32::MAX;
            }
            patterns.push(pattern, filled);
            coverage_curve.push((patterns.len(), detected_total));
        }
        AtpgRun {
            patterns,
            status,
            coverage_curve,
            uncollapsed_total: faults.uncollapsed_count(),
        }
    }

    /// PPSFP drop simulation of one filled pattern: evaluates the launch
    /// frames once, then fans the target faults across the executor's
    /// workers in contiguous shards. Every fault's detect mask is an
    /// independent function of the frames and lands at the fault's own
    /// slot, so the result is bit-identical at every thread count (a
    /// one-worker executor degenerates to the serial loop).
    fn drop_sim(
        &self,
        batch: &PatternBatch,
        targets: &[TransitionFault],
        scratch_pool: &[Mutex<PropagationScratch>],
        next_scratch: &AtomicUsize,
    ) -> Vec<u64> {
        let frames = self.fault_sim.frames(&batch.load_words, &batch.pi_words);
        scap_obs::counter!("sim.block_evals").incr();
        scap_obs::counter!("sim.patterns_per_block").add(batch.valid_mask.count_ones() as u64);
        let shards = shard_ranges(targets.len(), self.exec.threads());
        let masks: Vec<Vec<u64>> = self.exec.parallel_map_with(
            // Each worker locks a distinct pool slot: at most
            // `scratch_pool.len()` workers run per call, so consecutive
            // claims (mod pool size) never collide within a call.
            || {
                let slot = next_scratch.fetch_add(1, Ordering::Relaxed) % scratch_pool.len();
                scratch_pool[slot].lock().expect("scratch pool poisoned")
            },
            &shards,
            |scratch, range| {
                let mut out = Vec::with_capacity(range.len());
                let mut detections = 0u64;
                let mut skipped = 0u64;
                for &fault in &targets[range.clone()] {
                    let mask = if self.fault_sim.is_observable(fault) {
                        self.fault_sim
                            .detect_one(&frames, batch.valid_mask, fault, scratch)
                    } else {
                        skipped += 1;
                        0
                    };
                    detections += u64::from(mask != 0);
                    out.push(mask);
                }
                scap_obs::counter!("sim.fault_detections").add(detections);
                scap_obs::counter!("sim.faults_skipped_unobservable").add(skipped);
                out
            },
        );
        scap_obs::counter!("sim.fault_sim_batches").incr();
        scap_obs::counter!("sim.fault_sim_checks").add(targets.len() as u64);
        masks.concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use scap_netlist::{CellKind, ClockEdge, NetlistBuilder};

    /// A register ring with mixing logic — everything reachable and
    /// observable, so coverage should be high.
    fn ring(k: usize) -> Netlist {
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = NetlistBuilder::new("ring");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let qs: Vec<_> = (0..k).map(|i| b.add_net(format!("q{i}"))).collect();
        let mut ds = Vec::new();
        for i in 0..k {
            let a = qs[i];
            let c = qs[(i + 1) % k];
            let w = b.add_net(format!("w{i}"));
            let kind = match rng.gen_range(0..4) {
                0 => CellKind::Nand2,
                1 => CellKind::Nor2,
                2 => CellKind::Xor2,
                _ => CellKind::And2,
            };
            b.add_gate(kind, &[a, c], w, blk).unwrap();
            ds.push(w);
        }
        for i in 0..k {
            b.add_flop(format!("ff{i}"), ds[i], qs[i], clk, ClockEdge::Rising, blk)
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn reaches_high_coverage_on_ring() {
        let n = ring(12);
        let faults = FaultList::full(&n);
        let gen = Generator::new(&n, ClockId::new(0), AtpgConfig::default());
        let run = gen.run(&faults);
        assert!(
            run.test_coverage() > 0.85,
            "coverage {:.3} with {} patterns ({} aborted, {} untestable)",
            run.test_coverage(),
            run.patterns.len(),
            run.num_aborted(),
            run.num_untestable()
        );
        assert!(!run.patterns.is_empty());
    }

    #[test]
    fn coverage_curve_is_monotone() {
        let n = ring(10);
        let faults = FaultList::full(&n);
        let gen = Generator::new(&n, ClockId::new(0), AtpgConfig::default());
        let run = gen.run(&faults);
        let mut prev = 0;
        for &(p, d) in &run.coverage_curve {
            assert!(d >= prev, "curve must be non-decreasing");
            assert!(p >= 1);
            prev = d;
        }
        assert_eq!(prev, run.num_detected());
    }

    #[test]
    fn compaction_yields_fewer_patterns_than_faults() {
        let n = ring(12);
        let faults = FaultList::full(&n);
        let gen = Generator::new(&n, ClockId::new(0), AtpgConfig::default());
        let run = gen.run(&faults);
        assert!(
            run.patterns.len() * 3 < run.num_detected(),
            "{} patterns for {} detections — compaction is not working",
            run.patterns.len(),
            run.num_detected()
        );
    }

    #[test]
    fn fill_zero_produces_mostly_zero_loads() {
        let n = ring(12);
        let faults = FaultList::full(&n);
        let cfg = AtpgConfig {
            fill: FillPolicy::Zero,
            ..AtpgConfig::default()
        };
        let gen = Generator::new(&n, ClockId::new(0), cfg);
        let run = gen.run(&faults);
        let ones: usize = run
            .patterns
            .filled
            .iter()
            .map(|f| f.load.iter().filter(|&&b| b).count())
            .sum();
        let total: usize = run.patterns.filled.iter().map(|f| f.load.len()).sum();
        assert!(
            (ones as f64) < 0.8 * total as f64,
            "fill-0 loads should be biased toward zero ({ones}/{total})"
        );
        // Source patterns keep their X bits for inspection.
        assert_eq!(run.patterns.source.len(), run.patterns.filled.len());
    }

    #[test]
    fn run_with_status_skips_detected_faults() {
        let n = ring(10);
        let faults = FaultList::full(&n);
        let gen = Generator::new(&n, ClockId::new(0), AtpgConfig::default());
        let first = gen.run(&faults);
        // Re-run with everything already detected: no new patterns.
        let second = gen.run_with_status(&faults, first.status.clone());
        let new_patterns = second.patterns.len();
        let still_undetected = first
            .status
            .iter()
            .filter(|s| matches!(s, FaultStatus::Undetected | FaultStatus::Aborted))
            .count();
        assert!(
            new_patterns <= still_undetected.max(1),
            "{new_patterns} new patterns for {still_undetected} leftovers"
        );
    }

    /// Pins the coverage formulas over every [`FaultStatus`]:
    /// test coverage = detected / (total − untestable) — aborted and
    /// undetected faults stay in the denominator — and fault coverage
    /// = detected / total.
    #[test]
    fn coverage_formulas_are_pinned_for_all_statuses() {
        let mk = |status: Vec<FaultStatus>| AtpgRun {
            patterns: PatternSet::new(),
            status,
            coverage_curve: Vec::new(),
            uncollapsed_total: 0,
        };
        let run = mk(vec![
            FaultStatus::Detected,
            FaultStatus::Undetected,
            FaultStatus::Untestable,
            FaultStatus::Aborted,
        ]);
        assert_eq!(run.num_detected(), 1);
        assert_eq!(run.num_undetected(), 1);
        assert_eq!(run.num_untestable(), 1);
        assert_eq!(run.num_aborted(), 1);
        // 1 detected over (4 − 1 untestable) = 3 testable.
        assert_eq!(run.test_coverage(), 1.0 / 3.0);
        assert_eq!(run.fault_coverage(), 1.0 / 4.0);
        // Reclassifying the aborted fault as untestable shrinks the
        // denominator: same detections, higher test coverage.
        let run = mk(vec![
            FaultStatus::Detected,
            FaultStatus::Undetected,
            FaultStatus::Untestable,
            FaultStatus::Untestable,
        ]);
        assert_eq!(run.test_coverage(), 1.0 / 2.0);
        assert_eq!(run.fault_coverage(), 1.0 / 4.0);
        // Degenerate denominators report 0, not NaN.
        assert_eq!(mk(vec![]).test_coverage(), 0.0);
        assert_eq!(mk(vec![]).fault_coverage(), 0.0);
        assert_eq!(mk(vec![FaultStatus::Untestable]).test_coverage(), 0.0);
    }

    /// A fault whose excitation is contradictory (`y = x ∧ ¬x` can
    /// never rise) buried under enough XOR state that a small backtrack
    /// budget aborts before exhausting the space.
    fn redundant_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("redundant");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let qs: Vec<_> = (0..4).map(|i| b.add_net(format!("q{i}"))).collect();
        for (i, &q) in qs.iter().enumerate() {
            b.add_flop(format!("ff{i}"), q, q, clk, ClockEdge::Rising, blk)
                .unwrap();
        }
        let x1 = b.add_net("x1");
        let x2 = b.add_net("x2");
        let x = b.add_net("x");
        let nx = b.add_net("nx");
        let c = b.add_net("c");
        let qc = b.add_net("qc");
        b.add_gate(CellKind::Xor2, &[qs[0], qs[1]], x1, blk)
            .unwrap();
        b.add_gate(CellKind::Xor2, &[qs[2], qs[3]], x2, blk)
            .unwrap();
        b.add_gate(CellKind::Xor2, &[x1, x2], x, blk).unwrap();
        b.add_gate(CellKind::Inv, &[x], nx, blk).unwrap();
        b.add_gate(CellKind::And2, &[x, nx], c, blk).unwrap();
        b.add_flop("cap", c, qc, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_primary_output(qc);
        b.finish().unwrap()
    }

    /// The regression the hybrid engine exists for: PODEM aborts on the
    /// redundant fault (backtrack budget too small to exhaust the
    /// space), silently deflating test coverage; the SAT engine proves
    /// the CNF unsatisfiable and reclassifies the fault `Untestable`.
    #[test]
    fn hybrid_reclassifies_podem_abort_as_untestable() {
        use scap_sim::{FaultSite, Polarity};
        let n = redundant_netlist();
        // Net insertion order: q0..q3, x1, x2, x, nx, c.
        let c = scap_netlist::NetId::new(8);
        let fault = TransitionFault::new(FaultSite::Net(c), Polarity::SlowToRise);
        let faults = FaultList::from_faults(vec![fault], 2);
        let cfg = AtpgConfig {
            backtrack_limit: 2,
            ..AtpgConfig::default()
        };
        let podem_run = Generator::new(&n, ClockId::new(0), cfg).run(&faults);
        assert_eq!(
            podem_run.status[0],
            FaultStatus::Aborted,
            "fixture must make PODEM abort for the regression to bite"
        );
        let hybrid_cfg = AtpgConfig {
            engine: EngineKind::Hybrid,
            ..cfg
        };
        let hybrid_run = Generator::new(&n, ClockId::new(0), hybrid_cfg).run(&faults);
        assert_eq!(
            hybrid_run.status[0],
            FaultStatus::Untestable,
            "SAT must prove the aborted fault untestable"
        );
        assert_eq!(hybrid_run.num_aborted(), 0);
        assert!(hybrid_run.test_coverage() >= podem_run.test_coverage());
    }

    #[test]
    fn sat_engine_matches_podem_coverage_on_ring() {
        let n = ring(12);
        let faults = FaultList::full(&n);
        let cfg = AtpgConfig {
            engine: EngineKind::Sat,
            ..AtpgConfig::default()
        };
        let run = Generator::new(&n, ClockId::new(0), cfg).run(&faults);
        let podem = Generator::new(&n, ClockId::new(0), AtpgConfig::default()).run(&faults);
        assert!(
            run.test_coverage() >= podem.test_coverage() - 1e-9,
            "sat {:.3} vs podem {:.3}",
            run.test_coverage(),
            podem.test_coverage()
        );
        assert_eq!(run.num_aborted(), 0, "sat must never abort on the ring");
    }

    #[test]
    fn engine_kind_parses_its_own_labels() {
        for e in [EngineKind::Podem, EngineKind::Sat, EngineKind::Hybrid] {
            assert_eq!(EngineKind::parse(e.label()), Some(e));
        }
        assert_eq!(EngineKind::parse("bogus"), None);
        assert_eq!(EngineKind::default(), EngineKind::Podem);
    }

    #[test]
    fn max_patterns_caps_the_run() {
        let n = ring(12);
        let faults = FaultList::full(&n);
        let cfg = AtpgConfig {
            max_patterns: 2,
            ..AtpgConfig::default()
        };
        let gen = Generator::new(&n, ClockId::new(0), cfg);
        let run = gen.run(&faults);
        assert!(run.patterns.len() <= 2);
    }
}
