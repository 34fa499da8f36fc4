//! The two pattern-generation flows the paper compares.
//!
//! * [`conventional`] — what commercial ATPG does by default: one run over
//!   the full fault list of the dominant clock domain with **random
//!   fill**, maximizing fortuitous detection (and, as the paper shows,
//!   switching activity and IR-drop).
//! * [`noise_aware`] — the paper's procedure (§3.1): split the dominant
//!   domain's ATPG into three steps — first the low-drop periphery blocks
//!   B1–B4, then B6, then the hot center block B5 — with **fill-0** on
//!   every don't-care, so whichever blocks are not being targeted stay
//!   quiet. Costs a few percent more patterns, slashes per-pattern SCAP.

use crate::grade::grade_into;
use crate::{CaseStudy, GradeResult};
use scap_dft::{FillPolicy, PatternSet};
use scap_netlist::BlockId;
use scap_sim::{FaultGrader, FaultList, TransitionFaultSim};
use scap_tgen::{AtpgConfig, EngineKind, FaultStatus, Generator};

/// Result of one flow.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// All generated patterns, in application order.
    pub patterns: PatternSet,
    /// `(step label, first pattern index of the step)`.
    pub steps: Vec<(String, usize)>,
    /// Exact grading of the pattern set against the full fault universe.
    pub grade: GradeResult,
    /// The fault universe used for grading.
    pub faults: FaultList,
    /// Final ATPG verdict per fault of `faults`: the run's for the
    /// conventional flow; for the noise-aware flow each step's verdicts
    /// on its own members, `Detected` wherever `grade` records a first
    /// detection.
    pub status: Vec<FaultStatus>,
}

impl FlowResult {
    /// Final fault coverage.
    pub fn fault_coverage(&self) -> f64 {
        self.grade.fault_coverage()
    }
}

/// Default ATPG configuration for a flow with the given fill.
pub fn flow_atpg_config(fill: FillPolicy) -> AtpgConfig {
    AtpgConfig {
        fill,
        ..AtpgConfig::default()
    }
}

/// Flow configuration with an explicit primary-targeting engine
/// (`--engine podem|sat|hybrid` on the CLI and `engine=` on the wire).
pub fn flow_atpg_config_with_engine(fill: FillPolicy, engine: EngineKind) -> AtpgConfig {
    AtpgConfig {
        fill,
        engine,
        ..AtpgConfig::default()
    }
}

/// The conventional flow: full fault list, random fill.
pub fn conventional(study: &CaseStudy) -> FlowResult {
    conventional_with(study, flow_atpg_config(FillPolicy::Random))
}

/// The conventional flow with an explicit ATPG configuration (used by the
/// fill-policy ablation).
pub fn conventional_with(study: &CaseStudy, config: AtpgConfig) -> FlowResult {
    let n = &study.design.netlist;
    let clka = study.clka();
    let faults = FaultList::full(n);
    let generator = Generator::new(n, clka, config);
    let run = generator.run(&faults);
    scap_obs::counter!("flow.stages").incr();
    scap_obs::counter!("flow.patterns_generated").add(run.patterns.len() as u64);
    // The run's drop simulation saw every pattern against every fault
    // not yet detected: its record is the grade.
    FlowResult {
        steps: vec![("all blocks".to_owned(), 0)],
        grade: GradeResult::new(run.first_detection, run.patterns.len()),
        patterns: run.patterns,
        faults,
        status: run.status,
    }
}

/// The paper's staged steps for the Turbo-Eagle floorplan.
pub fn paper_stages(study: &CaseStudy) -> Vec<(String, Vec<BlockId>)> {
    let blk = |name: &str| study.design.block_named(name).expect("block exists");
    vec![
        (
            "step1: B1-B4".to_owned(),
            vec![blk("B1"), blk("B2"), blk("B3"), blk("B4")],
        ),
        ("step2: B6".to_owned(), vec![blk("B6")]),
        ("step3: B5".to_owned(), vec![blk("B5")]),
    ]
}

/// The noise-aware flow: staged per-block targeting with fill-0.
pub fn noise_aware(study: &CaseStudy) -> FlowResult {
    noise_aware_with(
        study,
        flow_atpg_config(FillPolicy::Zero),
        &paper_stages(study),
    )
}

/// The noise-aware flow with explicit configuration and stages.
pub fn noise_aware_with(
    study: &CaseStudy,
    config: AtpgConfig,
    stages: &[(String, Vec<BlockId>)],
) -> FlowResult {
    let n = &study.design.netlist;
    let clka = study.clka();
    let full = FaultList::full(n);
    let generator = Generator::new(n, clka, config);
    // One grader over the whole universe for every step: a step's
    // patterns are simulated only against faults no earlier step
    // detected, at their place in the final set, so fortuitous
    // detections in *other* blocks are credited and the stitched record
    // is the grade of the whole set.
    let sim = TransitionFaultSim::new(n, clka);
    let mut grader = FaultGrader::new(&sim, &full, |_| false);
    let mut patterns = PatternSet {
        fill: Some(config.fill),
        ..PatternSet::new()
    };
    let mut steps = Vec::new();
    let mut status = vec![FaultStatus::Undetected; full.faults().len()];
    for (label, blocks) in stages {
        steps.push((label.clone(), patterns.len()));
        let members: Vec<usize> = full
            .faults()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.block(n).is_some_and(|b| blocks.contains(&b)))
            .map(|(i, _)| i)
            .collect();
        let sub = FaultList::from_faults(
            members.iter().map(|&i| full.faults()[i]).collect(),
            members.len() * full.uncollapsed_count() / full.faults().len().max(1),
        );
        // A later step never re-targets a fault the patterns so far
        // already detect.
        let initial: Vec<FaultStatus> = members
            .iter()
            .map(|&i| match grader.first_detection(i) {
                Some(_) => FaultStatus::Detected,
                None => FaultStatus::Undetected,
            })
            .collect();
        let run = generator.run_with_status(&sub, initial);
        scap_obs::counter!("flow.stages").incr();
        scap_obs::counter!("flow.patterns_generated").add(run.patterns.len() as u64);
        grade_into(&mut grader, patterns.len(), &run.patterns);
        patterns.extend(run.patterns);
        for (&i, &s) in members.iter().zip(&run.status) {
            status[i] = s;
        }
    }
    let grade = GradeResult::of(&grader, &full, patterns.len());
    // Later steps' patterns may detect an earlier step's aborted fault,
    // and any step's may detect a fault outside every step's blocks: the
    // grade of the whole set has the last word.
    for (s, first) in status.iter_mut().zip(&grade.first_detection) {
        if first.is_some() {
            *s = FaultStatus::Detected;
        }
    }
    FlowResult {
        patterns,
        steps,
        grade,
        faults: full,
        status,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Flows are the most expensive fixtures in the crate; build them once
    /// and share across every test that needs them.
    pub(crate) fn fixture() -> &'static (CaseStudy, FlowResult, FlowResult) {
        static FIXTURE: OnceLock<(CaseStudy, FlowResult, FlowResult)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let s = CaseStudy::small();
            let conv = conventional(&s);
            let na = noise_aware(&s);
            (s, conv, na)
        })
    }

    /// The evaluation's engine table prints the conventional flow as its
    /// PODEM row. A fresh generator with the table's PODEM configuration
    /// (its deep SAT budget, which PODEM never reads) reproduces the
    /// flow's patterns and verdicts.
    #[test]
    fn engine_table_podem_run_is_the_conventional_flow() {
        let (s, conv, _) = fixture();
        let config = AtpgConfig {
            sat_conflict_limit: 2_000_000,
            ..flow_atpg_config_with_engine(FillPolicy::Random, EngineKind::Podem)
        };
        let n = &s.design.netlist;
        let run = Generator::new(n, s.clka(), config).run(&FaultList::full(n));
        assert_eq!(run.patterns.filled, conv.patterns.filled);
        assert_eq!(run.status, conv.status);
        assert_eq!(scap_tgen::test_coverage(&conv.status), run.test_coverage());
    }

    #[test]
    fn status_is_detected_exactly_where_the_grade_detects() {
        let (_, conv, na) = fixture();
        for flow in [conv, na] {
            assert_eq!(flow.status.len(), flow.faults.faults().len());
            for (i, (s, first)) in flow
                .status
                .iter()
                .zip(&flow.grade.first_detection)
                .enumerate()
            {
                assert_eq!(
                    *s == FaultStatus::Detected,
                    first.is_some(),
                    "fault {i}: {s:?}, first detection {first:?}"
                );
            }
        }
    }

    /// No pattern of either set detects a fault that a run proved
    /// untestable, so the noise-aware status never lets the grade
    /// overrule a proof. Each noise-aware step is re-run with a fresh
    /// generator from its starting point in the grade, for the verdicts
    /// it reached before later steps' detections were stitched in.
    #[test]
    fn no_set_detects_a_fault_proven_untestable() {
        let (s, conv, na) = fixture();
        let n = &s.design.netlist;
        let untestable = |status: &[FaultStatus]| -> Vec<usize> {
            (0..status.len())
                .filter(|&i| status[i] == FaultStatus::Untestable)
                .collect()
        };
        let mut proven = untestable(&conv.status);
        let generator = Generator::new(n, s.clka(), flow_atpg_config(FillPolicy::Zero));
        let list = na.faults.faults();
        for (k, (_, blocks)) in paper_stages(s).iter().enumerate() {
            let start = na.steps[k].1;
            let end = na.steps.get(k + 1).map_or(na.patterns.len(), |step| step.1);
            let members: Vec<usize> = (0..list.len())
                .filter(|&i| list[i].block(n).is_some_and(|b| blocks.contains(&b)))
                .collect();
            let sub = FaultList::from_faults(members.iter().map(|&i| list[i]).collect(), 0);
            let initial = members
                .iter()
                .map(|&i| match na.grade.first_detection[i] {
                    Some(p) if p < start => FaultStatus::Detected,
                    _ => FaultStatus::Undetected,
                })
                .collect();
            let run = generator.run_with_status(&sub, initial);
            assert_eq!(run.patterns.filled[..], na.patterns.filled[start..end]);
            proven.extend(untestable(&run.status).into_iter().map(|k| members[k]));
        }
        assert!(
            !proven.is_empty(),
            "the fixture proves some fault untestable"
        );
        for i in proven {
            assert_eq!(conv.grade.first_detection[i], None, "fault {i}");
            assert_eq!(na.grade.first_detection[i], None, "fault {i}");
        }
    }

    #[test]
    fn both_flows_reach_similar_coverage() {
        let (_, conv, na) = fixture();
        assert!(
            conv.fault_coverage() > 0.5,
            "conv {:.3}",
            conv.fault_coverage()
        );
        let delta = (conv.fault_coverage() - na.fault_coverage()).abs();
        assert!(
            delta < 0.12,
            "flows should converge to similar coverage: conv {:.3}, na {:.3}",
            conv.fault_coverage(),
            na.fault_coverage()
        );
    }

    /// The fill and grading spans are inert while collection is off, as
    /// it is throughout this crate's tests.
    #[test]
    fn fill_and_grade_spans_are_inert_while_obs_is_off() {
        let _ = fixture();
        assert!(!scap_obs::is_enabled());
        for name in ["atpg.fill", "grade.run"] {
            assert_eq!(scap_obs::span_stats(name).get().0, 0, "{name}");
        }
    }

    #[test]
    fn noise_aware_generates_more_patterns() {
        let (_, conv, na) = fixture();
        assert!(
            na.patterns.len() >= conv.patterns.len(),
            "paper reports a pattern-count increase: conv {}, na {}",
            conv.patterns.len(),
            na.patterns.len()
        );
        assert_eq!(na.steps.len(), 3);
        // Step boundaries are ordered.
        assert!(na.steps[0].1 <= na.steps[1].1 && na.steps[1].1 <= na.steps[2].1);
    }

    #[test]
    fn noise_aware_steps_target_their_blocks() {
        let (s, _, na) = fixture();
        // During step 1+2 patterns, B5 loads should be almost all zero
        // (fill-0 keeps the untargeted block quiet).
        let b5 = s.design.block_named("B5").unwrap();
        let b5_flops: Vec<usize> = s
            .design
            .netlist
            .flops()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.block == b5)
            .map(|(i, _)| i)
            .collect();
        let step3_start = na.steps[2].1;
        let mut ones = 0usize;
        let mut total = 0usize;
        for p in &na.patterns.filled[..step3_start] {
            for &i in &b5_flops {
                ones += p.load[i] as usize;
                total += 1;
            }
        }
        if total > 0 {
            let frac = ones as f64 / total as f64;
            assert!(
                frac < 0.10,
                "B5 load should be quiet before step 3: {frac:.3}"
            );
        }
    }
}
