//! The two pattern-generation workloads.
//!
//! * `atpg_staged` — `flows::noise_aware`, the paper's §3.1 procedure:
//!   three per-block stages with fill-0, PODEM, greedy compaction,
//!   PPSFP drop-sim and grading. Deterministic; its pattern stream is
//!   pinned to the committed reference.
//! * `atpg_hybrid` — `Generator::run` over the full fault list with
//!   random fill and the hybrid engine (PODEM, then SAT on every abort)
//!   at the default conflict budget. Each pass fills from its own seed,
//!   derived from the run seed.

use crate::gate::{self, pattern_digest};
use crate::report::{ratio, Outcome};
use crate::{layers, pass_metrics, repeat_for, setup_median, traced_phase, Ctx};
use scap::dft::{FillPolicy, PatternSet};
use scap::flows::{self, FlowResult};
use scap::sim::FaultList;
use scap::tgen::{AtpgConfig, AtpgRun, EngineKind, Generator};
use scap::{grade_patterns, CaseStudy};
use scap_obs::json::Value;
use std::time::Instant;

/// Design scale of `atpg_staged`: 32 438 faults and a pass of about
/// 4.5 s on the default design. At 0.02 a pass makes about 700 short
/// parallel maps, and a stalled vCPU held up each one, so the pass time
/// moved by a third with the host's load; longer maps ride that out.
pub const STAGED_SCALE: f64 = 0.05;
/// Design scale of `atpg_hybrid`: SAT still takes about 0.9 of a pass
/// (about 0.7 at 0.005), and a pass is about 4.5 s.
pub const HYBRID_SCALE: f64 = 0.0075;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 101;
/// Fewest timed passes per untraced run.
const MIN_PASSES: usize = 3;

struct Setup {
    study: CaseStudy,
    faults: FaultList,
    case_study_s: f64,
}

/// Design build and fault list, `SETUP_REPEATS` times.
fn setup(out: &mut Outcome, scale: f64, design_seed: u64) -> Setup {
    let mut case_study_s = Vec::new();
    let (s, setup_s) = setup_median(SETUP_REPEATS, || {
        let t = Instant::now();
        let study = CaseStudy::with_seed(scale, design_seed);
        case_study_s.push(t.elapsed().as_secs_f64());
        let faults = FaultList::full(&study.design.netlist);
        (study, faults)
    });
    out.set("setup_s", setup_s);
    println!(
        "  design at scale {scale}: {} flops, {} faults; setup {setup_s:.4} s",
        s.0.design.netlist.num_flops(),
        s.1.faults().len()
    );
    Setup {
        study: s.0,
        faults: s.1,
        case_study_s: crate::stats::median(&case_study_s),
    }
}

pub fn staged(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let setup = setup(&mut out, STAGED_SCALE, ctx.design_seed);
    let nfaults = setup.faults.faults().len() as f64;
    let mut first: Option<FlowResult> = None;
    let mut digests = Vec::new();
    let mut pass = || {
        let t = Instant::now();
        let flow = flows::noise_aware(&setup.study);
        let secs = t.elapsed().as_secs_f64();
        digests.push(pattern_digest(&flow.patterns));
        first.get_or_insert(flow);
        secs
    };
    if let Some(tracer) = &ctx.tracer {
        let untraced_s = pass();
        let (flow, phase) = traced_phase(tracer, "timed", |root| {
            tracer
                .time("core.noise_aware", Some(root), || {
                    flows::noise_aware(&setup.study)
                })
                .0
        });
        digests.push(pattern_digest(&flow.patterns));
        layers::from_program(
            &mut out,
            &phase.snap,
            phase.wall_s,
            phase.cpu_s,
            ctx.threads,
        );
        // Grading runs inside the flow: replay it over the step ranges
        // (each stage grades its own patterns) and the whole set.
        let n = &setup.study.design.netlist;
        let replay = tracer.open("replay", None);
        let mut grade_s = 0.0;
        for range in step_ranges(&flow) {
            let part = subset(&flow.patterns, range);
            grade_s += tracer
                .time("core.grade_patterns", Some(replay.id()), || {
                    grade_patterns(n, setup.study.clka(), &flow.faults, &part)
                })
                .1;
        }
        tracer.close(replay);
        out.set("core.grade_s", grade_s);
        out.set("core.case_study_s", setup.case_study_s);
        let detected = flow.grade.num_detected() as f64;
        out.set(
            "atpg.faults_per_pattern",
            ratio(detected, flow.patterns.len() as f64),
        );
        let layer_s = [
            "atpg.podem_primary",
            "atpg.podem_secondary",
            "atpg.drop_sim",
        ]
        .iter()
        .map(|s| layers::span(&phase.snap, s).1)
        .sum::<f64>()
            + grade_s;
        out.set("trace.span_share", layer_s / phase.wall_s);
        out.set(
            "obs.overhead_pct",
            (phase.wall_s / untraced_s - 1.0) * 100.0,
        );
    } else {
        let times = repeat_for(ctx.seconds, MIN_PASSES, pass);
        pass_metrics(&mut out, nfaults, &times);
    }
    let flow = first.expect("at least one pass");
    out.attempted = nfaults as u64 * digests.len() as u64;
    out.set("coverage_pct", flow.fault_coverage() * 100.0);
    out.set("patterns", flow.patterns.len() as f64);
    println!(
        "  {} patterns, steps {:?}, fault coverage {:.2} %",
        flow.patterns.len(),
        flow.steps.iter().map(|s| s.1).collect::<Vec<_>>(),
        flow.fault_coverage() * 100.0
    );
    if digests.iter().any(|d| *d != digests[0]) {
        out.fail("the pattern stream differs between passes of one run");
    }
    match gate::reference("atpg_staged", STAGED_SCALE, ctx.design_seed) {
        Some(reference) => {
            for p in check_staged(&flow, &digests[0], &reference) {
                out.fail(p);
            }
        }
        None => out.fail(format!(
            "no committed atpg_staged reference for design seed {} (see README.md)",
            ctx.design_seed
        )),
    }
    out
}

/// The flow's per-stage pattern ranges, in order.
fn step_ranges(flow: &FlowResult) -> Vec<std::ops::Range<usize>> {
    let starts: Vec<usize> = flow.steps.iter().map(|s| s.1).collect();
    starts
        .iter()
        .enumerate()
        .map(|(i, &s)| s..starts.get(i + 1).copied().unwrap_or(flow.patterns.len()))
        .chain(std::iter::once(0..flow.patterns.len()))
        .collect()
}

fn subset(set: &PatternSet, range: std::ops::Range<usize>) -> PatternSet {
    PatternSet {
        source: set.source[range.clone()].to_vec(),
        filled: set.filled[range].to_vec(),
        fill: set.fill,
    }
}

/// Pattern-stream digest, step boundaries and fault coverage against the
/// committed reference.
fn check_staged(flow: &FlowResult, digest: &str, reference: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let want_digest = reference
        .get("digest")
        .and_then(Value::as_str)
        .unwrap_or("");
    if digest != want_digest {
        problems.push(format!(
            "pattern-stream digest {digest} differs from the reference {want_digest}"
        ));
    }
    let steps: Vec<f64> = flow.steps.iter().map(|s| s.1 as f64).collect();
    if steps != gate::f64_array(reference, "steps") {
        problems.push(format!(
            "step boundaries {steps:?} differ from the reference"
        ));
    }
    let detected = flow.grade.num_detected() as u64;
    let want = reference.get("detected").and_then(Value::as_u64);
    if Some(detected) != want
        || reference.get("faults").and_then(Value::as_u64)
            != Some(flow.faults.faults().len() as u64)
    {
        problems.push(format!(
            "fault coverage {detected}/{} differs from the reference {want:?}",
            flow.faults.faults().len()
        ));
    }
    problems
}

/// The `atpg_staged` reference entry for one design seed.
pub fn staged_reference(design_seed: u64) -> String {
    let study = CaseStudy::with_seed(STAGED_SCALE, design_seed);
    let flow = flows::noise_aware(&study);
    let mut steps = scap_obs::json::Arr::new();
    for s in &flow.steps {
        steps.u64(s.1 as u64);
    }
    let mut o = scap_obs::json::Obj::new();
    o.f64("scale", STAGED_SCALE)
        .u64("design_seed", design_seed)
        .u64("faults", flow.faults.faults().len() as u64)
        .u64("patterns", flow.patterns.len() as u64)
        .u64("detected", flow.grade.num_detected() as u64)
        .raw("steps", &steps.finish())
        .str("digest", &pattern_digest(&flow.patterns));
    o.finish()
}

/// The hybrid configuration with the given fill seed.
fn hybrid_config(fill_seed: u64) -> AtpgConfig {
    AtpgConfig {
        seed: fill_seed,
        ..flows::flow_atpg_config_with_engine(FillPolicy::Random, EngineKind::Hybrid)
    }
}

/// The fill seed of pass `pass`: each pass of a run fills don't-cares
/// from its own seed, so one run measures the engine over several fills.
fn fill_seed(run_seed: u64, pass: usize) -> u64 {
    crate::SplitMix::new(run_seed ^ (pass as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// What the gate and the report keep of one hybrid pass.
struct HybridPass {
    patterns: usize,
    test_coverage: f64,
    untestable: usize,
    aborted: usize,
    problems: Vec<String>,
}

pub fn hybrid(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let setup = setup(&mut out, HYBRID_SCALE, ctx.design_seed);
    let n = &setup.study.design.netlist;
    let clka = setup.study.clka();
    let nfaults = setup.faults.faults().len() as f64;
    let generate = |pass: usize| {
        Generator::new(n, clka, hybrid_config(fill_seed(ctx.seed, pass))).run(&setup.faults)
    };
    // A fresh grading of the patterns must detect exactly the faults the
    // run marks Detected, and no fault may end Undetected.
    let check = |run: &AtpgRun| {
        let graded = grade_patterns(n, clka, &setup.faults, &run.patterns);
        let detected: Vec<bool> = graded.first_detection.iter().map(Option::is_some).collect();
        HybridPass {
            patterns: run.patterns.len(),
            test_coverage: run.test_coverage(),
            untestable: run.num_untestable(),
            aborted: run.num_aborted(),
            problems: gate::check_hybrid(&run.status, &detected),
        }
    };
    let mut passes: Vec<HybridPass> = Vec::new();
    let mut timed_pass = || {
        let t = Instant::now();
        let run = generate(passes.len());
        let secs = t.elapsed().as_secs_f64();
        passes.push(check(&run));
        secs
    };
    if let Some(tracer) = &ctx.tracer {
        // Untraced and traced passes fill from the same seed.
        let untraced_s = timed_pass();
        let (run, phase) = traced_phase(tracer, "timed", |root| {
            tracer
                .time("tgen.generator_run", Some(root), || generate(0))
                .0
        });
        passes.push(check(&run));
        layers::from_program(
            &mut out,
            &phase.snap,
            phase.wall_s,
            phase.cpu_s,
            ctx.threads,
        );
        out.set("core.case_study_s", setup.case_study_s);
        out.set(
            "atpg.faults_per_pattern",
            ratio(run.num_detected() as f64, run.patterns.len() as f64),
        );
        out.set("atpg.aborted", run.num_aborted() as f64);
        let layer_s = [
            "atpg.podem_primary",
            "atpg.podem_secondary",
            "atpg.drop_sim",
            "atpg.sat_solve",
        ]
        .iter()
        .map(|s| layers::span(&phase.snap, s).1)
        .sum::<f64>();
        out.set("trace.span_share", layer_s / phase.wall_s);
        out.set(
            "obs.overhead_pct",
            (phase.wall_s / untraced_s - 1.0) * 100.0,
        );
    } else {
        let times = repeat_for(ctx.seconds, MIN_PASSES, timed_pass);
        pass_metrics(&mut out, nfaults, &times);
    }
    out.attempted = nfaults as u64 * passes.len() as u64;
    out.failed = passes.iter().map(|p| p.aborted as u64).sum();
    out.set(
        "coverage_pct",
        100.0 * passes.iter().map(|p| p.test_coverage).sum::<f64>() / passes.len() as f64,
    );
    let patterns: Vec<f64> = passes.iter().map(|p| p.patterns as f64).collect();
    out.set("patterns", crate::stats::median(&patterns));
    for (i, p) in passes.iter().enumerate() {
        println!(
            "  pass {i}: {} patterns, test coverage {:.2} %, {} untestable, {} aborted",
            p.patterns,
            p.test_coverage * 100.0,
            p.untestable,
            p.aborted
        );
        for problem in &p.problems {
            out.fail(format!("pass {i}: {problem}"));
        }
    }
    out
}
