//! Post-hoc pattern grading: exact coverage curves by fault simulation.
//!
//! Both flows are graded against the *same* full fault universe so their
//! coverage curves (the paper's Figure 4) are directly comparable, and
//! fortuitous detection across staged steps is credited correctly.

use scap_dft::PatternSet;
use scap_exec::Executor;
use scap_netlist::{ClockId, Netlist};
use scap_sim::{FaultGrader, FaultList, TransitionFaultSim};

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
    /// The grade of `num_patterns` patterns whose first detection per
    /// fault is `first_detection`.
    pub(crate) fn new(first_detection: Vec<Option<usize>>, num_patterns: usize) -> Self {
        let mut curve: Vec<(usize, usize)> = (1..=num_patterns).map(|p| (p, 0)).collect();
        for &p in first_detection.iter().flatten() {
            curve[p].1 += 1;
        }
        let mut cum = 0;
        for point in &mut curve {
            cum += point.1;
            point.1 = cum;
        }
        GradeResult {
            total_faults: first_detection.len(),
            first_detection,
            curve,
        }
    }

    /// The grade a grader recorded over `num_patterns` patterns.
    pub(crate) fn of(
        grader: &FaultGrader<'_, '_>,
        faults: &FaultList,
        num_patterns: usize,
    ) -> Self {
        let first = (0..faults.faults().len())
            .map(|i| grader.first_detection(i))
            .collect();
        Self::new(first, num_patterns)
    }

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

/// Feeds `patterns`, whose first pattern is pattern `first` of the
/// grader's order, to `grader` in rounds of up to [`Executor::threads`]
/// 64-pattern blocks, computing a round's launch frames in parallel.
/// The one post-hoc grading loop: [`grade_patterns`] and the noise-aware
/// flow's step grading run it.
pub(crate) fn grade_into(grader: &mut FaultGrader<'_, '_>, first: usize, patterns: &PatternSet) {
    let _span = scap_obs::span!("grade.run");
    let exec = Executor::new();
    let batches: Vec<_> = patterns.batches().collect();
    for round in batches.chunks(exec.threads()) {
        let pending = grader.pending();
        if pending == 0 {
            break;
        }
        scap_obs::counter!("grade.rounds").incr();
        scap_obs::counter!("grade.fault_sim_targets").add(pending as u64);
        scap_obs::counter!("grade.fault_shards").add(pending.min(exec.threads()) as u64);
        let blocks = exec.parallel_map(round, |(_, batch)| {
            let frames = grader.sim().frames(&batch.load_words, &batch.pi_words);
            (frames, batch.valid_mask)
        });
        let credited = grader.apply(first + round[0].0, &blocks).len();
        scap_obs::counter!("grade.faults_dropped").add(credited as u64);
    }
}

/// Fault-simulates `patterns` in order against `faults` with dropping,
/// recording each fault's first detecting pattern ([`FaultGrader`]).
/// Bit-identical for every thread count.
pub fn grade_patterns(
    netlist: &Netlist,
    active_clock: ClockId,
    faults: &FaultList,
    patterns: &PatternSet,
) -> GradeResult {
    let sim = TransitionFaultSim::new(netlist, active_clock);
    let mut grader = FaultGrader::new(&sim, faults, |_| false);
    grade_into(&mut grader, 0, patterns);
    GradeResult::of(&grader, faults, patterns.len())
}

/// Reverse-order static compaction: keeps only the patterns that are
/// some fault's latest detection, i.e. its first detection when the set
/// is graded in reverse. A standard ATPG post-pass; typically removes
/// the early patterns whose faults were re-detected fortuitously by
/// later ones.
///
/// Returns the retained pattern indices (ascending) and the compacted
/// set.
pub fn compact_patterns(
    netlist: &Netlist,
    active_clock: ClockId,
    faults: &FaultList,
    patterns: &PatternSet,
) -> (Vec<usize>, PatternSet) {
    let mut reversed = patterns.clone();
    reversed.source.reverse();
    reversed.filled.reverse();
    let grade = grade_patterns(netlist, active_clock, faults, &reversed);
    let mut keep = vec![false; patterns.len()];
    for &p in grade.first_detection.iter().flatten() {
        keep[patterns.len() - 1 - p] = true;
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

    /// Every fault's first and latest detecting pattern, from
    /// [`TransitionFaultSim::detect_batch`] over each 64-pattern block
    /// against the whole list: no collapsing, no dropping, no sharding.
    fn oracle(
        study: &crate::CaseStudy,
        faults: &FaultList,
        patterns: &PatternSet,
    ) -> (Vec<Option<usize>>, Vec<Option<usize>>) {
        let sim = TransitionFaultSim::new(&study.design.netlist, study.clka());
        let mut first = vec![None; faults.faults().len()];
        let mut last = vec![None; faults.faults().len()];
        for (start, b) in patterns.batches() {
            let summary =
                sim.detect_batch(&b.load_words, &b.pi_words, b.valid_mask, faults.faults());
            for (i, &mask) in summary.detect_mask.iter().enumerate() {
                if mask != 0 {
                    first[i] = first[i].or(Some(start + mask.trailing_zeros() as usize));
                    last[i] = Some(start + 63 - mask.leading_zeros() as usize);
                }
            }
        }
        (first, last)
    }

    /// Both flows keep the grade their own drop simulation and step
    /// grading recorded; the oracle re-derives it from scratch, and
    /// compaction must keep exactly the patterns that are some fault's
    /// latest detection.
    #[test]
    fn flow_grades_and_compaction_match_an_undropped_oracle() {
        let (study, conv, na) = crate::flows::tests::fixture();
        let n = &study.design.netlist;
        for flow in [conv, na] {
            let (first, last) = oracle(study, &flow.faults, &flow.patterns);
            assert_eq!(flow.grade.first_detection, first);
            let mut at = vec![0usize; flow.patterns.len()];
            for &p in first.iter().flatten() {
                at[p] += 1;
            }
            let curve: Vec<(usize, usize)> = at
                .iter()
                .scan(0, |cum, &d| {
                    *cum += d;
                    Some(*cum)
                })
                .enumerate()
                .map(|(p, cum)| (p + 1, cum))
                .collect();
            assert_eq!(flow.grade.curve, curve);
            let mut latest: Vec<usize> = last.into_iter().flatten().collect();
            latest.sort_unstable();
            latest.dedup();
            let (kept, compacted) = compact_patterns(n, study.clka(), &flow.faults, &flow.patterns);
            assert_eq!(kept, latest);
            assert_eq!(compacted.len(), kept.len());
        }
        // The staged steps must not start on block boundaries, or a
        // wrong step offset could hide behind whole blocks.
        assert!(na.steps.iter().skip(1).any(|&(_, start)| start % 64 != 0));
    }

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
