//! The pattern-generation loop: primary targeting, greedy dynamic
//! compaction, fill and PPSFP fault dropping, with primary searches
//! optionally speculated on spare threads and committed in order.

use crate::{Podem, PodemOutcome, PodemScratch, SatAtpg, SatOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scap_dft::{FillPolicy, PatternBatch, PatternSet, TestPattern};
use scap_netlist::{ClockId, Netlist};
use scap_sim::{FaultGrader, FaultList, LaunchMode, TransitionFault, TransitionFaultSim};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
    /// Per fault, the index in `patterns` of the first pattern whose
    /// drop simulation detected it; `None` for a fault no pattern of
    /// this run detected, or one already `Detected` when the run began.
    pub first_detection: Vec<Option<usize>>,
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
        test_coverage(&self.status)
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

/// Test coverage of a status vector: `detected / (total − untestable)`
/// (see [`AtpgRun::test_coverage`]); 0 when no fault is testable.
pub fn test_coverage(status: &[FaultStatus]) -> f64 {
    let count = |kind| status.iter().filter(|&&s| s == kind).count();
    let testable = status.len() - count(FaultStatus::Untestable);
    if testable == 0 {
        return 0.0;
    }
    count(FaultStatus::Detected) as f64 / testable as f64
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
}

/// How many `order` positions a speculator may run ahead of the
/// position the targeting loop commits next. A wider window keeps a
/// speculator busy through a run of long secondary merges, at the price
/// of more searches for faults that drop simulation detects before the
/// loop reaches them. On the noise-aware flow at scale 0.05 and two
/// threads of a 2-vCPU host, windows of 16, 64 and 256 wasted 7 %, 13 %
/// and 19 % of the
/// speculated searches and left the loop waiting 1.1, 0.75 and 0.45 s.
const LOOKAHEAD: usize = 256;

/// A primary search's verdict, as the targeting loop commits it.
///
/// Every primary search starts from the unspecified pattern, so the
/// verdict and the cube are a function of the fault alone: that is what
/// lets speculator threads compute them ahead of the loop.
#[derive(Debug)]
enum Primary {
    /// A test cube; `rescued` when SAT found it after a PODEM abort.
    Test { cube: TestPattern, rescued: bool },
    /// No test exists; `reclassified` when SAT proved it after a PODEM
    /// abort.
    Untestable { reclassified: bool },
    /// No engine settled the fault within its budget.
    Aborted,
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
    ///
    /// The run uses the executor's width ([`scap_exec::Executor::new`]).
    /// At width T ≥ 2, T − 1 speculator threads run primary searches
    /// ahead of the targeting loop, which commits their verdicts in
    /// `order`; the patterns, statuses and first detections are those of
    /// width 1, where the loop runs alone on the calling thread.
    pub fn run_with_status_in_order(
        &self,
        faults: &FaultList,
        status: Vec<FaultStatus>,
        order: &[usize],
    ) -> AtpgRun {
        self.run_at_width(scap_exec::Executor::new().threads(), faults, status, order)
    }

    /// [`Generator::run_with_status_in_order`] at an explicit width.
    fn run_at_width(
        &self,
        threads: usize,
        faults: &FaultList,
        status: Vec<FaultStatus>,
        order: &[usize],
    ) -> AtpgRun {
        assert_eq!(status.len(), faults.faults().len());
        assert!(
            order.iter().all(|&i| i < status.len()),
            "fault order index out of range"
        );
        if threads < 2 || order.is_empty() {
            return self.commit(
                faults,
                status,
                order,
                |pos, scratch| self.primary(faults.faults()[order[pos]], scratch),
                |_| {},
            );
        }
        let spec = Speculation::new(&status);
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(|| spec.speculate(self, faults.faults(), order));
            }
            // Releases the speculators however the loop ends, unwinding
            // included, so the scope's join never waits on a blocked one.
            let _stop = StopOnDrop(&spec);
            self.commit(
                faults,
                status,
                order,
                |pos, _| spec.take(pos),
                |idx| spec.settle(idx),
            )
        })
    }

    /// The primary search for `fault`, from the unspecified pattern:
    /// PODEM (or SAT under [`EngineKind::Sat`]), then under
    /// [`EngineKind::Hybrid`] SAT on a PODEM abort.
    fn primary(&self, fault: TransitionFault, scratch: &mut PodemScratch) -> Primary {
        let mut cube = TestPattern::unspecified(self.netlist);
        let sat = || {
            self.sat
                .as_ref()
                .expect("sat engine built for engine=sat|hybrid")
        };
        let outcome = match self.config.engine {
            EngineKind::Podem | EngineKind::Hybrid => {
                let _span = scap_obs::span!("atpg.podem_primary");
                self.podem.generate_with_scratch(fault, &mut cube, scratch)
            }
            EngineKind::Sat => match sat().generate(fault, &mut cube) {
                SatOutcome::Test => PodemOutcome::Test,
                SatOutcome::Untestable => PodemOutcome::Untestable,
                SatOutcome::Unknown => PodemOutcome::Aborted,
            },
        };
        match outcome {
            PodemOutcome::Test => Primary::Test {
                cube,
                rescued: false,
            },
            PodemOutcome::Untestable => Primary::Untestable {
                reclassified: false,
            },
            // A PODEM abort proves nothing. Ask the SAT engine for a
            // verdict: UNSAT is a proof of untestability (the fault
            // leaves the coverage denominator), a model is a test PODEM
            // missed.
            PodemOutcome::Aborted if self.config.engine == EngineKind::Hybrid => {
                match sat().generate(fault, &mut cube) {
                    SatOutcome::Test => Primary::Test {
                        cube,
                        rescued: true,
                    },
                    SatOutcome::Untestable => Primary::Untestable { reclassified: true },
                    SatOutcome::Unknown => Primary::Aborted,
                }
            }
            PodemOutcome::Aborted => Primary::Aborted,
        }
    }

    /// The targeting loop. `primary(pos, scratch)` yields the primary
    /// verdict of `order[pos]`, and `settled(idx)` hears of every status
    /// write; everything else — secondary merges, fill, drop simulation,
    /// status — happens here, in `order`, on the calling thread.
    fn commit(
        &self,
        faults: &FaultList,
        mut status: Vec<FaultStatus>,
        order: &[usize],
        mut primary: impl FnMut(usize, &mut PodemScratch) -> Primary,
        settled: impl Fn(usize),
    ) -> AtpgRun {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut patterns = PatternSet {
            fill: Some(self.config.fill),
            ..PatternSet::new()
        };
        let list = faults.faults();
        // Drop simulation: the filled pattern is ground truth for status.
        // One pattern per call, on this thread: a per-pattern fan-out
        // costs more than it saves, and speculators use the other cores.
        let mut grader = FaultGrader::new(&self.fault_sim, faults, |i| {
            status[i] == FaultStatus::Detected
        })
        .on_calling_thread();
        // One simulation scratch for every PODEM call on this thread: the
        // engine resyncs it incrementally instead of re-simulating the
        // whole netlist three times per decision.
        let mut podem_scratch = PodemScratch::default();
        // Secondary-merge abort counter per fault. The backtrack budget
        // is constant within a run, so two aborts at it are two aborts
        // "at the same budget": further merge attempts are suppressed
        // (they burn the full budget and nearly always abort again).
        let mut secondary_aborts: Vec<u8> = vec![0; list.len()];
        const SECONDARY_ABORT_CAP: u8 = 2;
        // Greedy compaction cut-offs: a pattern closes after this many
        // consecutive failed merge attempts, or after this many secondary
        // targets were examined.
        const SECONDARY_FAIL_LIMIT: u32 = 8;
        const SECONDARY_SCAN_WINDOW: usize = 2000;
        for (pos, &idx) in order.iter().enumerate() {
            if patterns.len() >= self.config.max_patterns {
                break;
            }
            if status[idx] != FaultStatus::Undetected {
                continue;
            }
            let mut pattern = match primary(pos, &mut podem_scratch) {
                Primary::Test { cube, rescued } => {
                    if rescued {
                        scap_obs::counter!("atpg.sat_rescued_tests").incr();
                    }
                    cube
                }
                Primary::Untestable { reclassified } => {
                    if reclassified {
                        scap_obs::counter!("atpg.reclassified_untestable").incr();
                    }
                    status[idx] = FaultStatus::Untestable;
                    settled(idx);
                    continue;
                }
                Primary::Aborted => {
                    status[idx] = FaultStatus::Aborted;
                    settled(idx);
                    continue;
                }
            };
            // Greedy dynamic compaction: pull further undetected faults
            // into the same pattern until merges keep failing.
            let mut fails = 0u32;
            let mut scanned = 0usize;
            for &jdx in &order[pos + 1..] {
                let f2 = list[jdx];
                if fails >= SECONDARY_FAIL_LIMIT || scanned >= SECONDARY_SCAN_WINDOW {
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
            let filled = {
                let _span = scap_obs::span!("atpg.fill");
                pattern.fill(self.netlist, self.config.fill, &mut rng)
            };
            {
                let _span = scap_obs::span!("atpg.drop_sim");
                let batch = PatternBatch::pack(std::slice::from_ref(&filled));
                let frames = self.fault_sim.frames(&batch.load_words, &batch.pi_words);
                for i in grader.apply(patterns.len(), &[(frames, batch.valid_mask)]) {
                    status[i as usize] = FaultStatus::Detected;
                    settled(i as usize);
                }
            }
            patterns.push(pattern, filled);
        }
        AtpgRun {
            patterns,
            status,
            first_detection: (0..list.len()).map(|i| grader.first_detection(i)).collect(),
            uncollapsed_total: faults.uncollapsed_count(),
        }
    }
}

/// What the targeting loop (the committer) shares with its speculator
/// threads. Speculators claim `order` positions in sequence, run each
/// claimed fault's primary search with their own scratch and park the
/// verdict in a ring slot; the committer takes the verdicts in `order`.
/// It alone writes the statuses, so the run is the width-1 run whatever
/// the speculators' timing.
struct Speculation {
    /// The next `order` position a speculator claims.
    cursor: AtomicUsize,
    /// Per fault: has the committer moved it out of `Undetected`? Only a
    /// hint that saves a speculator a wasted search; the committer reads
    /// its own statuses.
    settled: Vec<AtomicBool>,
    ring: Mutex<Ring>,
    /// Speculators wait here for the window to reach their position.
    window: Condvar,
    /// The committer waits here for the slot of its position.
    filled: Condvar,
}

/// The lock-protected half of [`Speculation`].
struct Ring {
    /// Slot `pos % LOOKAHEAD` holds `(pos, verdict)` once a speculator
    /// stores position `pos`'s verdict.
    slots: Vec<Option<(usize, Primary)>>,
    /// The committer has taken every position below this one: the
    /// window is `commit..commit + LOOKAHEAD`.
    commit: usize,
    /// The committer is done, or unwinding, or a speculator unwound.
    stop: bool,
    /// A speculator unwound; the position it held never fills.
    failed: bool,
}

impl Speculation {
    fn new(status: &[FaultStatus]) -> Self {
        Speculation {
            cursor: AtomicUsize::new(0),
            settled: status
                .iter()
                .map(|&s| AtomicBool::new(s != FaultStatus::Undetected))
                .collect(),
            ring: Mutex::new(Ring {
                slots: (0..LOOKAHEAD).map(|_| None).collect(),
                commit: 0,
                stop: false,
                failed: false,
            }),
            window: Condvar::new(),
            filled: Condvar::new(),
        }
    }

    /// The ring, whatever a panicking thread left it as: every field is
    /// written whole, so a poisoned lock holds nothing half-updated.
    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Committer: records that fault `idx` left `Undetected`.
    fn settle(&self, idx: usize) {
        self.settled[idx].store(true, Ordering::Relaxed);
    }

    /// Committer: moves the window to start at `commit`.
    fn advance(&self, ring: &mut Ring, commit: usize) {
        ring.commit = commit;
        self.window.notify_all();
    }

    /// Committer: the verdict of position `pos`, whose fault is
    /// `Undetected`, blocking until a speculator stores it. A speculator
    /// never skips such a position (the settled hint lags the status), so
    /// the wait ends unless a speculator unwound, which panics here.
    fn take(&self, pos: usize) -> Primary {
        let slot = pos % LOOKAHEAD;
        let ready = |ring: &Ring| matches!(ring.slots[slot], Some((p, _)) if p == pos);
        let mut ring = self.lock();
        self.advance(&mut ring, pos);
        if !ready(&ring) {
            let _span = scap_obs::span!("atpg.commit_wait");
            while !ready(&ring) {
                if ring.failed {
                    panic!("a primary-search speculator panicked");
                }
                ring = self
                    .filled
                    .wait(ring)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let (_, verdict) = ring.slots[slot].take().expect("the slot was just checked");
        self.advance(&mut ring, pos + 1);
        scap_obs::counter!("atpg.speculation_used").incr();
        verdict
    }

    /// Speculator: claims positions in sequence and stores the primary
    /// verdict of each one whose fault is not known to be settled, never
    /// more than [`LOOKAHEAD`] positions past the committer.
    fn speculate(&self, gen: &Generator<'_>, list: &[TransitionFault], order: &[usize]) {
        let _unwind = WakeOnUnwind(self);
        let mut scratch = PodemScratch::default();
        loop {
            let pos = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&idx) = order.get(pos) else {
                return;
            };
            if self.settled[idx].load(Ordering::Relaxed) {
                continue;
            }
            {
                let mut ring = self.lock();
                while !ring.stop && pos >= ring.commit + LOOKAHEAD {
                    ring = self
                        .window
                        .wait(ring)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if ring.stop {
                    return;
                }
                // The committer went past `pos`: it found the fault settled.
                if pos < ring.commit {
                    continue;
                }
            }
            if self.settled[idx].load(Ordering::Relaxed) {
                continue;
            }
            let verdict = gen.primary(list[idx], &mut scratch);
            scap_obs::counter!("atpg.speculated").incr();
            let mut ring = self.lock();
            if ring.stop {
                return;
            }
            if pos >= ring.commit {
                ring.slots[pos % LOOKAHEAD] = Some((pos, verdict));
                self.filled.notify_one();
            }
        }
    }
}

/// Stops the speculators when the committer's loop ends, however it
/// ends.
struct StopOnDrop<'s>(&'s Speculation);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        let mut ring = self.0.lock();
        ring.stop = true;
        self.0.window.notify_all();
    }
}

/// Wakes the committer (and the other speculators) when a speculator
/// unwinds, so the run ends in a panic rather than a hang.
struct WakeOnUnwind<'s>(&'s Speculation);

impl Drop for WakeOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut ring = self.0.lock();
            ring.failed = true;
            ring.stop = true;
            self.0.filled.notify_all();
            self.0.window.notify_all();
        }
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

    /// A fault has a first detection exactly when it ends `Detected`,
    /// at a pattern of the run; every pattern first-detects at least its
    /// primary target; and the record matches re-simulating the
    /// patterns in order.
    #[test]
    fn first_detection_matches_status_and_resimulation() {
        let n = ring(10);
        let faults = FaultList::full(&n);
        let gen = Generator::new(&n, ClockId::new(0), AtpgConfig::default());
        let run = gen.run(&faults);
        let mut first_detects = vec![0usize; run.patterns.len()];
        for (s, d) in run.status.iter().zip(&run.first_detection) {
            assert_eq!(*s == FaultStatus::Detected, d.is_some());
            if let Some(p) = *d {
                first_detects[p] += 1;
            }
        }
        assert!(first_detects.iter().all(|&c| c > 0), "{first_detects:?}");
        let sim = TransitionFaultSim::new(&n, ClockId::new(0));
        let mut expected: Vec<Option<usize>> = vec![None; faults.faults().len()];
        for (p, filled) in run.patterns.filled.iter().enumerate() {
            let batch = PatternBatch::pack(std::slice::from_ref(filled));
            let summary = sim.detect_batch(&batch.load_words, &batch.pi_words, 1, faults.faults());
            for (e, &mask) in expected.iter_mut().zip(&summary.detect_mask) {
                if mask != 0 && e.is_none() {
                    *e = Some(p);
                }
            }
        }
        assert_eq!(run.first_detection, expected);
    }

    /// Faults already `Detected` when a run begins are neither targeted
    /// nor credited again.
    #[test]
    fn run_with_status_never_credits_earlier_detections() {
        let n = ring(10);
        let faults = FaultList::full(&n);
        let gen = Generator::new(&n, ClockId::new(0), AtpgConfig::default());
        let mut status = vec![FaultStatus::Undetected; faults.faults().len()];
        for s in status.iter_mut().step_by(3) {
            *s = FaultStatus::Detected;
        }
        let run = gen.run_with_status(&faults, status.clone());
        for (i, before) in status.iter().enumerate() {
            if *before == FaultStatus::Detected {
                assert_eq!(run.status[i], FaultStatus::Detected);
                assert_eq!(run.first_detection[i], None);
            }
        }
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
            first_detection: vec![None; status.len()],
            status,
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
        use scap_sim::{FaultSite, Polarity, TransitionFault};
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

    /// The run at `threads` over the identity order.
    fn run_at(gen: &Generator<'_>, threads: usize, faults: &FaultList) -> AtpgRun {
        let order: Vec<usize> = (0..faults.faults().len()).collect();
        let status = vec![FaultStatus::Undetected; order.len()];
        gen.run_at_width(threads, faults, status, &order)
    }

    fn assert_same_run(serial: &AtpgRun, parallel: &AtpgRun, what: &str) {
        assert_eq!(serial.patterns.source, parallel.patterns.source, "{what}");
        assert_eq!(serial.patterns.filled, parallel.patterns.filled, "{what}");
        assert_eq!(serial.status, parallel.status, "{what}");
        assert_eq!(serial.first_detection, parallel.first_detection, "{what}");
    }

    /// Speculated primaries commit to the width-1 run under every
    /// engine, including SAT rescues and reclassifications after PODEM
    /// aborts (a tight backtrack budget makes PODEM abort). The fault
    /// list is longer than two windows, so ring slots are reused.
    #[test]
    fn speculative_runs_match_the_serial_run() {
        let n = ring(96);
        let faults = FaultList::full(&n);
        assert!(faults.faults().len() > 2 * LOOKAHEAD);
        for engine in [EngineKind::Podem, EngineKind::Sat, EngineKind::Hybrid] {
            let cfg = AtpgConfig {
                engine,
                backtrack_limit: 2,
                ..AtpgConfig::default()
            };
            let gen = Generator::new(&n, ClockId::new(0), cfg);
            let serial = run_at(&gen, 1, &faults);
            if engine == EngineKind::Podem {
                assert!(serial.num_aborted() > 0, "the budget must make PODEM abort");
            }
            for threads in [2, 3, 8] {
                let what = format!("{} at {threads} threads", engine.label());
                assert_same_run(&serial, &run_at(&gen, threads, &faults), &what);
            }
        }
    }

    /// `max_patterns` ends a speculative run where it ends the serial
    /// one, with speculators still holding unclaimed verdicts.
    #[test]
    fn max_patterns_stops_a_speculative_run() {
        let n = ring(16);
        let faults = FaultList::full(&n);
        let cfg = AtpgConfig {
            max_patterns: 3,
            ..AtpgConfig::default()
        };
        let gen = Generator::new(&n, ClockId::new(0), cfg);
        let serial = run_at(&gen, 1, &faults);
        assert_eq!(serial.patterns.len(), 3, "the cap must bite");
        assert!(serial.num_undetected() > 0, "the cap must leave work");
        assert_same_run(&serial, &run_at(&gen, 3, &faults), "capped at 3 threads");
    }

    /// A primary search that panics on a speculator thread ends the run
    /// with a panic: the committer, waiting on that fault's slot, is woken
    /// rather than left to hang. The fault names an input pin its gate
    /// does not have; the grader only reads the gate's output, so it
    /// accepts the fault, but PODEM reads the pin's net.
    #[test]
    fn panicking_speculator_fails_the_run_instead_of_hanging() {
        use scap_sim::{FaultSite, Polarity};
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let n = ring(8);
            let bad = TransitionFault::new(
                FaultSite::Pin {
                    gate: scap_netlist::GateId::new(0),
                    pin: 7,
                },
                Polarity::SlowToRise,
            );
            let mut list = vec![bad];
            list.extend_from_slice(FaultList::full(&n).faults());
            let faults = FaultList::from_faults(list, 0);
            let gen = Generator::new(&n, ClockId::new(0), AtpgConfig::default());
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_at(&gen, 2, &faults)));
            done.send(outcome.is_err())
                .expect("the test waits for the verdict");
        });
        let panicked = finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("the run hung after its speculator panicked");
        assert!(panicked, "the run must end in a panic");
    }
}
