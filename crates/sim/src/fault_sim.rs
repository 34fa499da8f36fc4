//! PPSFP (parallel-pattern single-fault propagation) transition-fault
//! simulation over 64-pattern word batches.
//!
//! Detection criterion (the standard transition-fault approximation): the
//! pattern must *launch* the target transition at the fault site (frame 1
//! value = initial, frame 2 good value = final) and the corresponding
//! stuck-at-initial-value fault must propagate in frame 2 to an observed
//! capture point (a D pin of an active-domain flop — primary outputs are
//! not measured, per the paper's low-cost-tester setup). Launch state and
//! observability come from the shared two-frame model in [`crate::loc`].

use crate::loc::{self, BatchFrames, LaunchMode, State2Src};
use crate::sched::LevelQueue;
use crate::Polarity;
use crate::{BatchSim, CollapseMap, FaultList, FaultSite, TransitionFault};
use scap_exec::{shard_ranges, Executor};
use scap_netlist::{ClockId, Netlist};
use std::sync::Mutex;

/// Result of simulating a pattern batch against a fault list.
#[derive(Clone, Debug, Default)]
pub struct DetectionSummary {
    /// For each fault (same order as the input list): a bitmask of the
    /// patterns in the batch that detect it (0 = undetected).
    pub detect_mask: Vec<u64>,
}

impl DetectionSummary {
    /// Number of faults detected by at least one pattern.
    pub fn num_detected(&self) -> usize {
        self.detect_mask.iter().filter(|&&m| m != 0).count()
    }
}

/// Transition-fault simulator bound to one netlist and active clock domain.
///
/// # Example
///
/// ```no_run
/// # use scap_netlist::{Netlist, ClockId};
/// # fn demo(netlist: &Netlist) {
/// use scap_sim::{FaultList, TransitionFaultSim};
/// let faults = FaultList::full(netlist);
/// let sim = TransitionFaultSim::new(netlist, ClockId::new(0));
/// // 64 patterns, all-zero loads and PIs:
/// let loads = vec![0u64; netlist.num_flops()];
/// let pis = vec![0u64; netlist.primary_inputs().len()];
/// let summary = sim.detect_batch(&loads, &pis, !0, faults.faults());
/// println!("{} faults detected", summary.num_detected());
/// # }
/// ```
#[derive(Debug)]
pub struct TransitionFaultSim<'a> {
    batch: BatchSim<'a>,
    /// Frame-2 state source per flop.
    state2: Vec<State2Src>,
    /// Whether each net is a capture observation point.
    observed: Vec<bool>,
    /// Whether each net reaches an observed capture point through
    /// combinational logic ([`loc::observable_mask`]). Faults whose
    /// effect enters on a net outside this set can never be detected and
    /// are skipped before launch-checking.
    observable: Vec<bool>,
    /// Bucket count for the levelized scheduler (max net level + 1).
    num_levels: u32,
    /// Propagation buffers kept between calls; each caller or worker
    /// borrows one for the length of its loop ([`Self::with_scratch`]).
    scratch: Mutex<Vec<PropagationScratch>>,
}

impl<'a> TransitionFaultSim<'a> {
    /// Builds a launch-off-capture simulator for `active_clock`'s flops.
    pub fn new(netlist: &'a Netlist, active_clock: ClockId) -> Self {
        Self::with_mode(netlist, active_clock, LaunchMode::Capture)
    }

    /// Builds a simulator with an explicit launch mode.
    pub fn with_mode(netlist: &'a Netlist, active_clock: ClockId, mode: LaunchMode) -> Self {
        let batch = BatchSim::new(netlist);
        let lv = batch.levelization();
        let points = loc::observation_points(netlist, active_clock);
        let mut observed = vec![false; netlist.num_nets()];
        for n in &points {
            observed[n.index()] = true;
        }
        // Net levels run from 0 (sources) to one past the deepest gate.
        let num_levels = lv
            .order()
            .iter()
            .map(|&g| lv.level(g) + 1)
            .max()
            .unwrap_or(0)
            + 1;
        TransitionFaultSim {
            batch,
            state2: loc::state2_sources(netlist, active_clock, mode),
            observed,
            observable: loc::observable_mask(netlist, &points),
            num_levels,
            scratch: Mutex::default(),
        }
    }

    /// Whether `fault`'s effect can structurally reach an observed
    /// capture point of the active clock. Unobservable faults always
    /// yield an all-zero detect mask; callers may skip simulating them.
    #[inline]
    pub fn is_observable(&self, fault: TransitionFault) -> bool {
        self.observable[fault.site.effect_net(self.batch.netlist()).index()]
    }

    /// The underlying batch simulator (for callers that also need good
    /// frames).
    pub fn batch_sim(&self) -> &BatchSim<'a> {
        &self.batch
    }

    /// Computes launch frames for a batch of up to 64 fully-specified
    /// loads under the configured mode (launch-off-shift scans in 0).
    pub fn frames(&self, load: &[u64], pi: &[u64]) -> BatchFrames {
        let frame1 = self.batch.eval(load, pi);
        let state2 = loc::launch_state(&self.state2, load, &frame1, 0);
        let frame2 = self.batch.eval(&state2, pi);
        BatchFrames {
            frame1,
            frame2,
            state2,
        }
    }

    /// Simulates `faults` against up to 64 patterns.
    ///
    /// `valid_mask` has one bit per real pattern (use `!0` for a full
    /// batch). Returns a per-fault mask of detecting patterns.
    pub fn detect_batch(
        &self,
        load: &[u64],
        pi: &[u64],
        valid_mask: u64,
        faults: &[TransitionFault],
    ) -> DetectionSummary {
        let frames = self.frames(load, pi);
        self.with_scratch(|scratch| DetectionSummary {
            detect_mask: faults
                .iter()
                .map(|&fault| self.detect_one(&frames, valid_mask, fault, scratch))
                .collect(),
        })
    }

    /// Runs `f` with propagation buffers borrowed from the simulator's
    /// pool, so they stay warm across calls; the pool grows to the most
    /// borrowers ever active at once. The lock is held only to take and
    /// return a buffer, never while `f` runs.
    fn with_scratch<R>(&self, f: impl FnOnce(&mut PropagationScratch) -> R) -> R {
        const POISON: &str = "the pool lock is never held across a panic";
        let mut scratch = self.scratch.lock().expect(POISON).pop().unwrap_or_default();
        let out = f(&mut scratch);
        self.scratch.lock().expect(POISON).push(scratch);
        out
    }

    /// Detection mask of one fault against precomputed frames: the
    /// valid lanes that launch the transition at the site *and*
    /// propagate the frame-2 stuck-at difference to an observed capture
    /// point. The one detection kernel: [`FaultGrader`] and
    /// [`TransitionFaultSim::detect_batch`] call it.
    pub fn detect_one(
        &self,
        frames: &BatchFrames,
        valid_mask: u64,
        fault: TransitionFault,
        scratch: &mut PropagationScratch,
    ) -> u64 {
        let launch = self.launch_mask(frames, valid_mask, fault);
        if launch == 0 {
            return 0;
        }
        self.propagate_diff(&frames.frame2, valid_mask, fault, launch, scratch)
    }

    /// The valid lanes that launch `fault`'s transition at its site (0
    /// for an unobservable fault, which no lane can detect).
    fn launch_mask(&self, frames: &BatchFrames, valid_mask: u64, fault: TransitionFault) -> u64 {
        if !self.is_observable(fault) {
            return 0;
        }
        let site_net = fault.site.net(self.batch.netlist());
        let v1 = frames.frame1[site_net.index()];
        let v2 = frames.frame2[site_net.index()];
        let launched = match fault.polarity {
            Polarity::SlowToRise => !v1 & v2,
            Polarity::SlowToFall => v1 & !v2,
        };
        launched & valid_mask
    }

    /// Seeds the fault effect and runs the level-ordered word propagation
    /// behind [`TransitionFaultSim::detect_one`]. `good2` is the
    /// fault-free frame-2 word plane the faulty machine is diffed against.
    fn propagate_diff(
        &self,
        good2: &[u64],
        valid_mask: u64,
        fault: TransitionFault,
        launch: u64,
        scratch: &mut PropagationScratch,
    ) -> u64 {
        let t = self.batch.table();
        scratch.ensure(t.num_nets(), self.num_levels as usize, t.num_gates());
        scratch.reset();
        let mut detected = 0u64;
        match fault.site {
            FaultSite::Net(n) => {
                let ni = n.index();
                scratch.seed(ni, launch);
                if self.observed[ni] {
                    detected |= launch;
                }
                for &g in t.fanout(ni) {
                    scratch.queue.push(t.gate_level(g as usize) + 1, g);
                }
            }
            FaultSite::Pin { gate, pin } => {
                // Flip only this branch: evaluate the gate with the pin's
                // word complemented on launched bits.
                let g = gate.index();
                let gins = t.inputs(g);
                let mut ins = [0u64; 4];
                for (k, &inp) in gins.iter().enumerate() {
                    ins[k] = good2[inp as usize];
                }
                ins[pin as usize] ^= launch;
                let faulty = t.kind(g).eval_word(&ins[..gins.len()]);
                let out = t.output(g) as usize;
                let diff = (faulty ^ good2[out]) & valid_mask;
                if diff == 0 {
                    return 0;
                }
                scratch.seed(out, diff);
                if self.observed[out] {
                    detected |= diff;
                }
                for &succ in t.fanout(out) {
                    scratch.queue.push(t.gate_level(succ as usize) + 1, succ);
                }
            }
        }
        // Level-ordered propagation: each gate is evaluated after all its
        // in-cone predecessors.
        while let Some(g) = scratch.queue.pop() {
            let g = g as usize;
            let gins = t.inputs(g);
            let mut ins = [0u64; 4];
            for (k, &inp) in gins.iter().enumerate() {
                let inp = inp as usize;
                ins[k] = good2[inp] ^ scratch.diff(inp);
            }
            let faulty = t.kind(g).eval_word(&ins[..gins.len()]);
            let out = t.output(g) as usize;
            let diff = (faulty ^ good2[out]) & valid_mask;
            if diff != 0 {
                scratch.seed(out, diff);
                if self.observed[out] {
                    detected |= diff;
                }
                for &succ in t.fanout(out) {
                    scratch.queue.push(t.gate_level(succ as usize) + 1, succ);
                }
            }
        }
        detected
    }
}

/// `FaultGrader::first` of a fault not yet detected.
const UNDETECTED: u32 = u32::MAX;
/// `FaultGrader::first` of a fault detected before the grader was built.
const EARLIER: u32 = u32::MAX - 1;

/// Fault simulation with dropping: the one loop behind ATPG drop
/// simulation, post-hoc grading and static compaction.
///
/// The fault list is collapsed into equivalence classes
/// ([`CollapseMap`]). Only each class's representative is simulated, and
/// only while the class is undetected and the representative observable;
/// a detection credits every member. Each [`FaultGrader::apply`] shards
/// the pending representatives across the executor's workers, each on
/// propagation buffers the simulator keeps between calls. A
/// representative runs through the call's blocks in order and stops at
/// the first block that detects it, crediting that block's lowest
/// detecting lane. A fault's first detection depends only on the pattern
/// order, so the record is bit-identical at every thread count.
#[derive(Debug)]
pub struct FaultGrader<'s, 'a> {
    sim: &'s TransitionFaultSim<'a>,
    exec: Executor,
    faults: &'s [TransitionFault],
    classes: CollapseMap,
    /// Observable representatives of undetected classes, ascending.
    pending: Vec<u32>,
    /// First detecting pattern per fault, or [`UNDETECTED`] / [`EARLIER`].
    first: Vec<u32>,
}

impl<'s, 'a> FaultGrader<'s, 'a> {
    /// A grader over `faults` on `sim`. Faults for which `detected`
    /// holds count as detected before the first pattern: they are never
    /// credited, and a class made only of them is never simulated.
    pub fn new(
        sim: &'s TransitionFaultSim<'a>,
        faults: &'s FaultList,
        detected: impl Fn(usize) -> bool,
    ) -> Self {
        let list = faults.faults();
        let classes = faults.collapse(sim.batch.netlist());
        let first: Vec<u32> = (0..list.len())
            .map(|i| if detected(i) { EARLIER } else { UNDETECTED })
            .collect();
        let mut unobservable = 0u64;
        let pending = (0..list.len() as u32)
            .filter(|&r| {
                let open = classes
                    .members(r as usize)
                    .iter()
                    .any(|&m| first[m as usize] == UNDETECTED);
                let observable = open && sim.is_observable(list[r as usize]);
                unobservable += u64::from(open && !observable);
                observable
            })
            .collect();
        scap_obs::counter!("sim.faults_skipped_unobservable").add(unobservable);
        FaultGrader {
            sim,
            exec: Executor::new(),
            faults: list,
            classes,
            pending,
            first,
        }
    }

    /// Makes every [`FaultGrader::apply`] run on the calling thread (a
    /// one-thread executor): for a caller that applies one pattern at a
    /// time while its other threads have work of their own (ATPG drop
    /// simulation). Detections and first-detection records do not depend
    /// on it.
    pub fn on_calling_thread(mut self) -> Self {
        self.exec = Executor::with_threads(1);
        self
    }

    /// Simulates consecutive blocks of up to 64 patterns against every
    /// pending class. `blocks[k]` holds the launch frames
    /// ([`TransitionFaultSim::frames`]) and valid lanes of the block
    /// whose lane 0 is pattern `first + 64 * k`. Returns the faults this
    /// call detected, ascending within each class.
    pub fn apply(&mut self, first: usize, blocks: &[(BatchFrames, u64)]) -> Vec<u32> {
        assert!(
            first + 64 * blocks.len() < EARLIER as usize,
            "pattern indices must stay below the grader's sentinels"
        );
        for (_, valid) in blocks {
            scap_obs::counter!("sim.block_evals").incr();
            scap_obs::counter!("sim.patterns_per_block").add(u64::from(valid.count_ones()));
        }
        let (sim, faults, pending) = (self.sim, self.faults, &self.pending);
        let shards = shard_ranges(pending.len(), self.exec.threads());
        let hits: Vec<Vec<(u32, u32)>> = self.exec.parallel_map(&shards, |range| {
            sim.with_scratch(|scratch| {
                let mut hits = Vec::new();
                let mut checks = 0u64;
                for &r in &pending[range.clone()] {
                    for (k, (frames, valid)) in blocks.iter().enumerate() {
                        checks += 1;
                        let mask = sim.detect_one(frames, *valid, faults[r as usize], scratch);
                        if mask != 0 {
                            let lane = (first + 64 * k) as u32 + mask.trailing_zeros();
                            hits.push((r, lane));
                            break;
                        }
                    }
                }
                scap_obs::counter!("sim.fault_sim_checks").add(checks);
                scap_obs::counter!("sim.fault_detections").add(hits.len() as u64);
                hits
            })
        });
        let mut credited = Vec::new();
        for &(r, p) in hits.iter().flatten() {
            for &m in self.classes.members(r as usize) {
                if self.first[m as usize] == UNDETECTED {
                    self.first[m as usize] = p;
                    credited.push(m);
                }
            }
        }
        // Hits come in pending order (shards are contiguous and ordered).
        let mut detected = hits.iter().flatten().map(|&(r, _)| r).peekable();
        self.pending.retain(|&r| detected.next_if_eq(&r).is_none());
        credited
    }

    /// The simulator whose kernel the grader runs.
    pub fn sim(&self) -> &'s TransitionFaultSim<'a> {
        self.sim
    }

    /// Number of classes still simulated: observable and undetected.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Index of the first pattern that detected `fault`; `None` if no
    /// applied pattern did, or if it counted as detected beforehand.
    pub fn first_detection(&self, fault: usize) -> Option<usize> {
        let p = self.first[fault];
        (p < EARLIER).then_some(p as usize)
    }
}

/// Reusable buffers for single-fault propagation.
///
/// Diff words are epoch-stamped (`u32` per net) and gates are scheduled
/// through an epoch-stamped [`LevelQueue`], so starting a new fault check
/// costs two epoch increments — nothing is cleared proportionally to the
/// previous cone. Buffers grow lazily to the simulator's netlist, so a
/// `PropagationScratch::default()` works for any design.
#[derive(Debug, Default)]
pub struct PropagationScratch {
    diff: Vec<u64>,
    diff_stamp: Vec<u32>,
    epoch: u32,
    queue: LevelQueue,
}

impl PropagationScratch {
    /// Creates scratch buffers for a netlist with `num_nets` nets.
    pub fn new(num_nets: usize) -> Self {
        PropagationScratch {
            diff: vec![0; num_nets],
            diff_stamp: vec![0; num_nets],
            epoch: 0,
            queue: LevelQueue::new(),
        }
    }

    fn ensure(&mut self, num_nets: usize, num_levels: usize, num_gates: usize) {
        if self.diff.len() < num_nets {
            self.diff.resize(num_nets, 0);
            self.diff_stamp.resize(num_nets, 0);
        }
        self.queue.ensure(num_levels, num_gates);
    }

    fn reset(&mut self) {
        if self.epoch == u32::MAX {
            self.diff_stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.queue.begin();
    }

    #[inline]
    fn seed(&mut self, net: usize, mask: u64) {
        if self.diff_stamp[net] != self.epoch {
            self.diff_stamp[net] = self.epoch;
            self.diff[net] = mask;
        } else {
            self.diff[net] |= mask;
        }
    }

    #[inline]
    fn diff(&self, net: usize) -> u64 {
        if self.diff_stamp[net] == self.epoch {
            self.diff[net]
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultList, Polarity};
    use scap_netlist::{CellKind, ClockEdge, NetId, NetlistBuilder};

    /// ff0.q --inv--> ff0.d  (self-toggling flop); ff1 captures inv2(q0).
    fn toggler() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let blk = b.add_block("B1");
        let clk = b.add_clock_domain("clka", 100e6);
        let q0 = b.add_net("q0");
        let d0 = b.add_net("d0");
        let q1 = b.add_net("q1");
        let d1 = b.add_net("d1");
        b.add_gate(CellKind::Inv, &[q0], d0, blk).unwrap();
        b.add_gate(CellKind::Inv, &[q0], d1, blk).unwrap();
        b.add_flop("ff0", d0, q0, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.add_flop("ff1", d1, q1, clk, ClockEdge::Rising, blk)
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn detects_launched_and_propagated_fault() {
        let n = toggler();
        let sim = TransitionFaultSim::new(&n, ClockId::new(0));
        // Load q0 = 0: frame1 q0 = 0, launch gives q0 = 1 in frame 2.
        // Slow-to-rise on q0 is launched; in frame 2 the stuck-0 q0 flips
        // d1, observed at ff1 -> detected.
        let str_q0 = TransitionFault::new(FaultSite::Net(NetId::new(0)), Polarity::SlowToRise);
        let summary = sim.detect_batch(&[0, 0], &[], 0b1, &[str_q0]);
        assert_eq!(summary.detect_mask, vec![0b1]);
        assert_eq!(summary.num_detected(), 1);
    }

    #[test]
    fn wrong_polarity_is_not_launched() {
        let n = toggler();
        let sim = TransitionFaultSim::new(&n, ClockId::new(0));
        let stf_q0 = TransitionFault::new(FaultSite::Net(NetId::new(0)), Polarity::SlowToFall);
        // Load 0 launches a rising transition on q0, not falling.
        let summary = sim.detect_batch(&[0, 0], &[], 0b1, &[stf_q0]);
        assert_eq!(summary.detect_mask, vec![0]);
    }

    #[test]
    fn opposite_load_detects_opposite_polarity() {
        let n = toggler();
        let sim = TransitionFaultSim::new(&n, ClockId::new(0));
        let stf_q0 = TransitionFault::new(FaultSite::Net(NetId::new(0)), Polarity::SlowToFall);
        let summary = sim.detect_batch(&[1, 0], &[], 0b1, &[stf_q0]);
        assert_eq!(summary.detect_mask, vec![0b1]);
    }

    #[test]
    fn valid_mask_gates_detection() {
        let n = toggler();
        let sim = TransitionFaultSim::new(&n, ClockId::new(0));
        let str_q0 = TransitionFault::new(FaultSite::Net(NetId::new(0)), Polarity::SlowToRise);
        let summary = sim.detect_batch(&[0, 0], &[], 0b10, &[str_q0]);
        // Pattern 0 would detect, but only pattern 1's bit is valid — and
        // pattern 1 has the same all-zero load, so it detects on bit 1.
        assert_eq!(summary.detect_mask, vec![0b10]);
    }

    #[test]
    fn batch_patterns_detect_independently() {
        let n = toggler();
        let sim = TransitionFaultSim::new(&n, ClockId::new(0));
        let str_q0 = TransitionFault::new(FaultSite::Net(NetId::new(0)), Polarity::SlowToRise);
        let stf_q0 = TransitionFault::new(FaultSite::Net(NetId::new(0)), Polarity::SlowToFall);
        // Pattern 0: q0 = 0 (rising launch); pattern 1: q0 = 1 (falling).
        let summary = sim.detect_batch(&[0b10, 0], &[], 0b11, &[str_q0, stf_q0]);
        assert_eq!(summary.detect_mask[0], 0b01);
        assert_eq!(summary.detect_mask[1], 0b10);
    }

    #[test]
    fn full_fault_list_of_toggler_is_mostly_detectable() {
        let n = toggler();
        let faults = FaultList::full(&n);
        let sim = TransitionFaultSim::new(&n, ClockId::new(0));
        // Two patterns covering both polarities everywhere.
        let summary = sim.detect_batch(&[0b10, 0b00], &[], 0b11, faults.faults());
        let detected = summary.num_detected();
        // q1 stem faults are undetectable (q1 drives nothing), all other
        // stems and branches are detectable.
        assert!(
            detected >= faults.faults().len() - 2,
            "{detected}/{}",
            faults.faults().len()
        );
    }
}
