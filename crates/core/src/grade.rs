//! Post-hoc pattern grading: exact coverage curves by fault simulation.
//!
//! Both flows are graded against the *same* full fault universe so their
//! coverage curves (the paper's Figure 4) are directly comparable, and
//! fortuitous detection across staged steps is credited correctly.

use scap_dft::PatternSet;
use scap_exec::{shard_ranges, Executor};
use scap_netlist::{ClockId, Netlist};
use scap_sim::loc::BatchFrames;
use scap_sim::{CollapseMap, FaultList, PropagationScratch, TransitionFaultSim};

/// Result of grading a pattern set.
#[derive(Clone, Debug)]
pub struct GradeResult {
    /// First detecting pattern index per fault (`None` = undetected).
    pub first_detection: Vec<Option<usize>>,
    /// `(patterns applied, cumulative faults detected)` — one point per
    /// pattern.
    pub curve: Vec<(usize, usize)>,
    /// Total faults in the graded universe.
    pub total_faults: usize,
}

impl GradeResult {
    /// Detected fault count.
    pub fn num_detected(&self) -> usize {
        self.first_detection.iter().flatten().count()
    }

    /// Final fault coverage (detected / total).
    pub fn fault_coverage(&self) -> f64 {
        if self.total_faults == 0 {
            return 0.0;
        }
        self.num_detected() as f64 / self.total_faults as f64
    }
}

/// Launch frames of one batch, computed once per round.
struct RoundBatch {
    start: usize,
    valid_mask: u64,
    frames: BatchFrames,
}

/// Computes the round's launch frames, one batch per worker.
fn round_frames(
    exec: &Executor,
    sim: &TransitionFaultSim<'_>,
    round: &[(usize, scap_dft::PatternBatch)],
) -> Vec<RoundBatch> {
    scap_obs::counter!("sim.fault_sim_batches").add(round.len() as u64);
    exec.parallel_map(round, |(start, batch)| {
        scap_obs::counter!("sim.block_evals").incr();
        scap_obs::counter!("sim.patterns_per_block").add(u64::from(batch.valid_mask.count_ones()));
        RoundBatch {
            start: *start,
            valid_mask: batch.valid_mask,
            frames: sim.frames(&batch.load_words, &batch.pi_words),
        }
    })
}

/// Fault-simulates `patterns` in order against `faults` with dropping,
/// recording each fault's first detecting pattern.
///
/// The universe is first collapsed to observable equivalence-class
/// representatives ([`CollapseMap`]); unobservable faults can never
/// detect and a representative's detect mask answers for every class
/// member, so expanding the credit afterwards reproduces the
/// uncollapsed result exactly. Batches are simulated in *rounds* of up
/// to [`Executor::threads`] batches each, with the launch frames of
/// each batch computed once per round. Within a round the
/// remaining-fault list is sharded across workers — each worker
/// propagates its fault shard through every batch of the round — and a
/// fault is credited to its earliest detecting pattern (min-merge).
/// Because a fault's earliest detection is a global property of the
/// pattern set — dropping only skips faults that are already credited —
/// the result is bit-identical for every thread count and shard
/// boundary, and a one-thread executor degenerates to the serial loop.
pub fn grade_patterns(
    netlist: &Netlist,
    active_clock: ClockId,
    faults: &FaultList,
    patterns: &PatternSet,
) -> GradeResult {
    let sim = TransitionFaultSim::new(netlist, active_clock);
    let exec = Executor::new();
    let list = faults.faults();
    let collapse = CollapseMap::build(netlist, faults);
    let members = collapse.members();
    let mut first_detection: Vec<Option<usize>> = vec![None; list.len()];
    let mut detections_at: Vec<usize> = vec![0; patterns.len() + 1];
    // Compacting index list of not-yet-detected representatives; shrunk
    // in place between rounds instead of being rebuilt by an O(faults)
    // scan per round.
    let mut remaining: Vec<u32> = (0..list.len() as u32)
        .filter(|&i| collapse.is_rep(i as usize) && sim.is_observable(list[i as usize]))
        .collect();
    let num_reps = list.len() - collapse.num_collapsed();
    scap_obs::counter!("sim.faults_skipped_unobservable").add((num_reps - remaining.len()) as u64);
    let batches: Vec<_> = patterns.batches().collect();
    let threads = exec.threads().max(1);
    for round in batches.chunks(threads) {
        if remaining.is_empty() {
            break;
        }
        scap_obs::counter!("grade.rounds").incr();
        scap_obs::counter!("grade.fault_sim_targets").add(remaining.len() as u64);
        let frames = round_frames(&exec, &sim, round);
        let shards = shard_ranges(remaining.len(), threads);
        scap_obs::counter!("grade.fault_shards").add(shards.len() as u64);
        let credited: Vec<Vec<(u32, u32)>> = exec.parallel_map_with(
            || PropagationScratch::new(netlist.num_nets()),
            &shards,
            |scratch, range| {
                let mut hits = Vec::new();
                let mut checks = 0u64;
                for &fi in &remaining[range.clone()] {
                    let fault = list[fi as usize];
                    let mut best = u32::MAX;
                    for rb in &frames {
                        checks += 1;
                        let mask = sim.detect_one(&rb.frames, rb.valid_mask, fault, scratch);
                        if mask != 0 {
                            best = best.min(rb.start as u32 + mask.trailing_zeros());
                        }
                    }
                    if best != u32::MAX {
                        hits.push((fi, best));
                    }
                }
                scap_obs::counter!("sim.fault_sim_checks").add(checks);
                scap_obs::counter!("sim.fault_detections").add(hits.len() as u64);
                hits
            },
        );
        for hits in &credited {
            for &(fi, p) in hits {
                for &m in &members[fi as usize] {
                    first_detection[m as usize] = Some(p as usize);
                    detections_at[p as usize + 1] += 1;
                }
                scap_obs::counter!("grade.faults_dropped").add(members[fi as usize].len() as u64);
            }
        }
        remaining.retain(|&fi| first_detection[fi as usize].is_none());
    }
    let mut curve = Vec::with_capacity(patterns.len());
    let mut cum = 0usize;
    for p in 0..patterns.len() {
        cum += detections_at[p + 1];
        curve.push((p + 1, cum));
    }
    GradeResult {
        first_detection,
        curve,
        total_faults: list.len(),
    }
}

/// Reverse-order static compaction: fault-simulates the set in reverse
/// and keeps only patterns that detect at least one not-yet-covered
/// fault. A standard ATPG post-pass; typically removes the early patterns
/// whose faults were re-detected fortuitously by later ones.
///
/// Returns the retained pattern indices (ascending) and the compacted
/// set.
pub fn compact_patterns(
    netlist: &Netlist,
    active_clock: ClockId,
    faults: &FaultList,
    patterns: &PatternSet,
) -> (Vec<usize>, PatternSet) {
    let sim = TransitionFaultSim::new(netlist, active_clock);
    let exec = Executor::new();
    let list = faults.faults();
    let collapse = CollapseMap::build(netlist, faults);
    let mut covered = vec![false; list.len()];
    let mut keep = vec![false; patterns.len()];
    // Walk batches from the END of the set in rounds of up to
    // `exec.threads()` batches each, sharding the remaining
    // representatives across workers; a fault is credited to its
    // highest-index detecting pattern (max-merge). A representative's
    // mask answers for the whole equivalence class, and a fault's latest
    // detection is a global property of the set, so the kept-pattern set
    // is bit-identical to the serial uncollapsed reverse walk for every
    // thread count and shard boundary.
    let mut remaining: Vec<u32> = (0..list.len() as u32)
        .filter(|&i| collapse.is_rep(i as usize) && sim.is_observable(list[i as usize]))
        .collect();
    let mut batches: Vec<_> = patterns.batches().collect();
    batches.reverse();
    let threads = exec.threads().max(1);
    for round in batches.chunks(threads) {
        if remaining.is_empty() {
            break;
        }
        scap_obs::counter!("compact.rounds").incr();
        let frames = round_frames(&exec, &sim, round);
        let shards = shard_ranges(remaining.len(), threads);
        scap_obs::counter!("grade.fault_shards").add(shards.len() as u64);
        let credited: Vec<Vec<(u32, u32)>> = exec.parallel_map_with(
            || PropagationScratch::new(netlist.num_nets()),
            &shards,
            |scratch, range| {
                let mut hits = Vec::new();
                let mut checks = 0u64;
                for &fi in &remaining[range.clone()] {
                    let fault = list[fi as usize];
                    let mut best: Option<u32> = None;
                    for rb in &frames {
                        checks += 1;
                        let mask = sim.detect_one(&rb.frames, rb.valid_mask, fault, scratch);
                        if mask != 0 {
                            let p = rb.start as u32 + (63 - mask.leading_zeros());
                            best = Some(best.map_or(p, |b| b.max(p)));
                        }
                    }
                    if let Some(p) = best {
                        hits.push((fi, p));
                    }
                }
                scap_obs::counter!("sim.fault_sim_checks").add(checks);
                scap_obs::counter!("sim.fault_detections").add(hits.len() as u64);
                hits
            },
        );
        for hits in &credited {
            for &(fi, p) in hits {
                covered[fi as usize] = true;
                keep[p as usize] = true;
            }
        }
        remaining.retain(|&fi| !covered[fi as usize]);
    }
    let kept: Vec<usize> = keep
        .iter()
        .enumerate()
        .filter(|(_, &k)| k)
        .map(|(i, _)| i)
        .collect();
    scap_obs::counter!("compact.patterns_kept").add(kept.len() as u64);
    scap_obs::counter!("compact.patterns_dropped").add((patterns.len() - kept.len()) as u64);
    let mut compacted = PatternSet {
        fill: patterns.fill,
        ..PatternSet::new()
    };
    for &i in &kept {
        compacted.push(patterns.source[i].clone(), patterns.filled[i].clone());
    }
    (kept, compacted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_dft::{FillPolicy, PatternSet, TestPattern};
    use scap_soc::{SocConfig, SocDesign};
    use scap_tgen::{AtpgConfig, Generator};

    #[test]
    fn grade_agrees_with_generator_count() {
        let design = SocDesign::generate(&SocConfig::turbo_eagle(0.005));
        let n = &design.netlist;
        let clka = design.dominant_clock();
        let faults = FaultList::full(n);
        let gen = Generator::new(n, clka, AtpgConfig::default());
        let run = gen.run(&faults);
        let grade = grade_patterns(n, clka, &faults, &run.patterns);
        // Grading the same patterns against the same universe must find at
        // least as many detections as the generator recorded (order of
        // dropping can only help).
        assert!(grade.num_detected() >= run.num_detected());
        // The curve is monotone and ends at the detected count.
        let mut prev = 0;
        for &(_, d) in &grade.curve {
            assert!(d >= prev);
            prev = d;
        }
        assert_eq!(prev, grade.num_detected());
    }

    #[test]
    fn empty_pattern_set_detects_nothing() {
        let design = SocDesign::generate(&SocConfig::turbo_eagle(0.005));
        let n = &design.netlist;
        let faults = FaultList::full(n);
        let grade = grade_patterns(n, design.dominant_clock(), &faults, &PatternSet::new());
        assert_eq!(grade.num_detected(), 0);
        assert!(grade.curve.is_empty());
        assert_eq!(grade.fault_coverage(), 0.0);
    }

    #[test]
    fn compaction_preserves_coverage_and_shrinks_the_set() {
        let design = SocDesign::generate(&SocConfig::turbo_eagle(0.005));
        let n = &design.netlist;
        let clka = design.dominant_clock();
        let faults = FaultList::full(n);
        let gen = Generator::new(n, clka, AtpgConfig::default());
        let run = gen.run(&faults);
        let before = grade_patterns(n, clka, &faults, &run.patterns);
        let (kept, compacted) = compact_patterns(n, clka, &faults, &run.patterns);
        assert!(compacted.len() <= run.patterns.len());
        assert_eq!(kept.len(), compacted.len());
        // Indices ascending and unique.
        for w in kept.windows(2) {
            assert!(w[0] < w[1]);
        }
        let after = grade_patterns(n, clka, &faults, &compacted);
        assert_eq!(
            after.num_detected(),
            before.num_detected(),
            "compaction must not lose coverage"
        );
    }

    #[test]
    fn first_detection_indices_are_in_range() {
        let design = SocDesign::generate(&SocConfig::turbo_eagle(0.005));
        let n = &design.netlist;
        let clka = design.dominant_clock();
        let faults = FaultList::full(n);
        // A handful of random-fill patterns.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        use rand::SeedableRng;
        let mut set = PatternSet::new();
        for _ in 0..10 {
            let p = TestPattern::unspecified(n);
            let f = p.fill(n, FillPolicy::Random, &mut rng);
            set.push(p, f);
        }
        let grade = grade_patterns(n, clka, &faults, &set);
        for d in grade.first_detection.iter().flatten() {
            assert!(*d < set.len());
        }
        assert!(
            grade.num_detected() > 0,
            "random fill should detect something"
        );
    }
}
