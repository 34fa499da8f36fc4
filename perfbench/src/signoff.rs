//! `signoff`: sign off both flows' pattern sets — the busy conventional
//! random-fill set and the quiet noise-aware fill-0 set — by SCAP
//! profile, dynamic IR-drop profile and the IR-drop-derated timing
//! screen at the evaluation's ×40 factor. ATPG runs only in set-up.

use crate::gate::{self, close, power_digest, verdict_string, Fnv, CG_REL_TOL};
use crate::report::{ratio, Outcome};
use crate::trace::Tracer;
use crate::{layers, pass_metrics, repeat_for, setup_median, traced_phase, Ctx};
use scap::dft::PatternSet;
use scap::power::{DynamicAnalysis, PatternPower};
use scap::sta::TimingScreen;
use scap::timing::scaling;
use scap::{flows, CaseStudy, PatternAnalyzer};
use scap_obs::json::Value;
use std::time::Instant;

/// Design scale (428 conventional and 698 noise-aware patterns on the
/// default design).
pub const SCALE: f64 = 0.02;
/// The timing screen's derating factor (×40 the library `k_volt`), where
/// the verdicts are mixed.
pub const SCREEN_FACTOR: f64 = 40.0;
/// Set-ups per run (each builds the design and runs both flows).
const SETUP_REPEATS: usize = 3;
/// Fewest timed passes per untraced run.
const MIN_PASSES: usize = 3;

/// The two pattern sets, busy first.
fn pattern_sets(study: &CaseStudy) -> Vec<(&'static str, PatternSet)> {
    vec![
        ("conventional", flows::conventional(study).patterns),
        ("noise_aware", flows::noise_aware(study).patterns),
    ]
}

/// What sign-off says about one set, reduced to what the gate checks.
struct SetVerdict {
    power: Vec<PatternPower>,
    drop_vdd_v: Vec<f64>,
    drop_vss_v: Vec<f64>,
    screen: TimingScreen,
}

impl SetVerdict {
    /// Patterns with any non-finite result.
    fn non_finite(&self) -> usize {
        (0..self.power.len())
            .filter(|&i| {
                let vals = [
                    self.power[i].chip_scap_vdd_mw(),
                    self.drop_vdd_v[i],
                    self.drop_vss_v[i],
                    self.screen.max_derated_delay_ps[i],
                ];
                vals.iter().any(|v| !v.is_finite())
            })
            .count()
    }

    /// Exact digest of everything, to compare passes of one run.
    fn digest(&self) -> String {
        let mut h = Fnv::default();
        h.bytes(power_digest(&self.power).as_bytes())
            .bytes(verdict_string(&self.screen.invalidated).as_bytes());
        for v in self
            .drop_vdd_v
            .iter()
            .chain(&self.drop_vss_v)
            .chain(&self.screen.max_derated_delay_ps)
        {
            h.f64(*v);
        }
        h.hex()
    }
}

/// The three sign-off calls on one set, each in its own span when traced.
fn sign_off(study: &CaseStudy, set: &PatternSet, trace: Option<(&Tracer, u64)>) -> SetVerdict {
    let timed = |name: &str, f: &mut dyn FnMut()| match trace {
        Some((tracer, parent)) => {
            tracer.time(name, Some(parent), f);
        }
        None => f(),
    };
    let analyzer = PatternAnalyzer::new(study);
    let mut power = Vec::new();
    let mut maps = Vec::new();
    let mut screen = None;
    timed("core.power_profile", &mut || {
        power = analyzer.power_profile(set)
    });
    timed("core.ir_drop_profile", &mut || {
        maps = analyzer.ir_drop_profile(&set.filled)
    });
    timed("core.timing_screen", &mut || {
        screen = Some(TimingScreen::run(study, set, SCREEN_FACTOR))
    });
    SetVerdict {
        power,
        drop_vdd_v: maps.iter().map(|m| m.worst_drop_vdd()).collect(),
        drop_vss_v: maps.iter().map(|m| m.worst_drop_vss()).collect(),
        screen: screen.expect("screen ran"),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut case_study_s = Vec::new();
    let ((study, sets), setup_s) = setup_median(SETUP_REPEATS, || {
        let t = Instant::now();
        let study = CaseStudy::with_seed(SCALE, ctx.design_seed);
        case_study_s.push(t.elapsed().as_secs_f64());
        let sets = pattern_sets(&study);
        (study, sets)
    });
    out.set("setup_s", setup_s);
    let npatterns: usize = sets.iter().map(|(_, s)| s.len()).sum();
    println!(
        "  design at scale {SCALE}: {} + {} patterns; setup {setup_s:.4} s",
        sets[0].1.len(),
        sets[1].1.len()
    );
    let mut first: Option<Vec<SetVerdict>> = None;
    let mut digests = Vec::new();
    let mut pass = |trace: Option<(&Tracer, u64)>| {
        let t = Instant::now();
        let verdicts: Vec<SetVerdict> = sets
            .iter()
            .map(|(_, set)| sign_off(&study, set, trace))
            .collect();
        let secs = t.elapsed().as_secs_f64();
        digests.push(verdicts.iter().map(SetVerdict::digest).collect::<Vec<_>>());
        first.get_or_insert(verdicts);
        secs
    };
    if let Some(tracer) = &ctx.tracer {
        let untraced_s = pass(None);
        let (_, phase) = traced_phase(tracer, "timed", |root| pass(Some((tracer, root))));
        layers::from_program(
            &mut out,
            &phase.snap,
            phase.wall_s,
            phase.cpu_s,
            ctx.threads,
        );
        out.set("core.case_study_s", crate::stats::median(&case_study_s));
        for (call, metric) in [
            ("core.power_profile", "core.power_profile_s"),
            ("core.ir_drop_profile", "core.ir_drop_profile_s"),
            ("core.timing_screen", "core.timing_screen_s"),
        ] {
            let secs: f64 = tracer
                .spans()
                .iter()
                .filter(|s| s.name == call && s.parent == Some(phase.root))
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
                .sum();
            out.set(metric, secs);
        }
        let cost = replay(tracer, &study, &sets);
        let c = |name| layers::counter(&phase.snap, name);
        let screened = c("sta.screen.patterns");
        let event_s = cost.event * c("sim.event_runs");
        let layer = [
            ("sim.event_s", event_s),
            ("power.scap_s", cost.scap * npatterns as f64),
            // One grid per screened pattern, one per ir_drop_profile call.
            (
                "power.grid_build_s",
                cost.grid_build * (screened + sets.len() as f64),
            ),
            // Each analysis solves both rails.
            ("power.irdrop_s", cost.irdrop * c("cg.solves") / 2.0),
            ("timing.derate_s", cost.derate * screened),
        ];
        for (name, secs) in layer {
            out.set(name, secs);
        }
        out.set(
            "sim.toggle_events_per_s",
            ratio(c("sim.toggle_events"), event_s),
        );
        let busy: f64 = layer.iter().map(|(_, s)| s).sum();
        out.set(
            "trace.span_share",
            busy / (phase.wall_s * ctx.threads as f64),
        );
        out.set(
            "obs.overhead_pct",
            (phase.wall_s / untraced_s - 1.0) * 100.0,
        );
    } else {
        let times = repeat_for(ctx.seconds, MIN_PASSES, || pass(None));
        pass_metrics(&mut out, npatterns as f64, &times);
    }
    let verdicts = first.expect("at least one pass");
    let failed: usize = verdicts.iter().map(SetVerdict::non_finite).sum();
    out.attempted = (npatterns * digests.len()) as u64;
    out.failed = (failed * digests.len()) as u64;
    out.set(
        "coverage_pct",
        100.0 * (npatterns - failed) as f64 / npatterns as f64,
    );
    out.set("patterns", npatterns as f64);
    for ((name, set), v) in sets.iter().zip(&verdicts) {
        println!(
            "  {name}: {}/{} patterns invalidated at x{SCREEN_FACTOR}",
            v.screen.invalidated_count(),
            set.len()
        );
    }
    if digests.iter().any(|d| *d != digests[0]) {
        out.fail("sign-off results differ between passes of one run");
    }
    match gate::reference("signoff", SCALE, ctx.design_seed) {
        Some(reference) => {
            for p in check(&sets, &verdicts, &reference) {
                out.fail(p);
            }
        }
        None => out.fail(format!(
            "no committed signoff reference for design seed {} (see README.md)",
            ctx.design_seed
        )),
    }
    out
}

/// Mean single-threaded cost of one direct call into each hidden layer,
/// s.
struct CallCost {
    event: f64,
    scap: f64,
    grid_build: f64,
    irdrop: f64,
    derate: f64,
}

/// Replays the screen path by calling each layer's public function
/// directly, pattern by pattern, on the same inputs.
fn replay(tracer: &Tracer, study: &CaseStudy, sets: &[(&'static str, PatternSet)]) -> CallCost {
    let n = &study.design.netlist;
    let analyzer = PatternAnalyzer::new(study);
    let k = SCREEN_FACTOR * n.library.k_volt_per_volt;
    let mut sums = [0.0f64; 5];
    let mut calls = 0usize;
    let root = tracer.open("replay", None);
    for (name, set) in sets {
        let span = tracer.open(format!("replay.{name}"), Some(root.id()));
        let shared = DynamicAnalysis::new(n, &study.design.floorplan, study.grid);
        let mut session = shared.session();
        for filled in &set.filled {
            let mut lap = Instant::now();
            let mut split = |slot: usize| {
                sums[slot] += lap.elapsed().as_secs_f64();
                lap = Instant::now();
            };
            let trace = analyzer.trace(filled);
            split(0);
            std::hint::black_box(analyzer.power_of_trace(&trace));
            split(1);
            let dynir = DynamicAnalysis::new(n, &study.design.floorplan, study.grid);
            split(2);
            let map = session.analyze(&study.annotation, &trace);
            split(3);
            let scaled_ann = scaling::scale_annotation(
                &study.annotation,
                &map.gate_drops_total(),
                &map.flop_drops_total(),
                k,
            );
            let scaled_arrivals = study
                .clock_tree
                .arrivals_with_drop(|p| dynir.drop_at(&map, p), k);
            split(4);
            std::hint::black_box(analyzer.endpoint_delays_with(
                filled,
                &scaled_ann,
                &scaled_arrivals,
            ));
            split(0);
        }
        calls += set.len();
        tracer.close(span);
    }
    tracer.close(root);
    let per = |slot: usize, per_pattern: f64| sums[slot] / (calls as f64 * per_pattern);
    CallCost {
        event: per(0, 2.0),
        scap: per(1, 1.0),
        grid_build: per(2, 1.0),
        irdrop: per(3, 1.0),
        derate: per(4, 1.0),
    }
}

/// SCAP series, screen verdicts, IR drops and derated delays against the
/// committed reference.
fn check(
    sets: &[(&'static str, PatternSet)],
    verdicts: &[SetVerdict],
    reference: &Value,
) -> Vec<String> {
    let mut problems = Vec::new();
    let want_sets = reference.get("sets").and_then(Value::as_arr).unwrap_or(&[]);
    if want_sets.len() != sets.len() {
        return vec![format!(
            "reference has {} sets, not {}",
            want_sets.len(),
            sets.len()
        )];
    }
    for (((name, _), got), want) in sets.iter().zip(verdicts).zip(want_sets) {
        let str_field = |k: &str| want.get(k).and_then(Value::as_str).unwrap_or("");
        let digest = power_digest(&got.power);
        if digest != str_field("scap_digest") {
            problems.push(format!(
                "{name}: SCAP series digest {digest} differs from the reference"
            ));
        }
        let budget = want
            .get("budget_ps")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        if !close(got.screen.budget_ps, budget, CG_REL_TOL) {
            problems.push(format!(
                "{name}: screen budget {} differs from the reference",
                got.screen.budget_ps
            ));
        }
        let want_delay = gate::f64_array(want, "derated_delay_ps");
        problems.extend(gate::compare_verdicts(
            &format!("{name} screen"),
            &got.screen.invalidated,
            str_field("verdicts"),
            &want_delay,
            budget,
        ));
        for (what, series) in [
            ("irdrop_vdd_v", &got.drop_vdd_v),
            ("irdrop_vss_v", &got.drop_vss_v),
            ("derated_delay_ps", &got.screen.max_derated_delay_ps),
        ] {
            problems.extend(gate::compare_series(
                &format!("{name} {what}"),
                series,
                &gate::f64_array(want, what),
                CG_REL_TOL,
            ));
        }
    }
    problems
}

/// The `signoff` reference entry for one design seed.
pub fn reference(design_seed: u64) -> String {
    use scap_obs::json::{Arr, Obj};
    let study = CaseStudy::with_seed(SCALE, design_seed);
    let mut sets = Arr::new();
    for (name, set) in pattern_sets(&study) {
        let v = sign_off(&study, &set, None);
        let series = |values: &[f64]| {
            let mut a = Arr::new();
            for &x in values {
                a.f64(x);
            }
            a.finish()
        };
        let mut o = Obj::new();
        o.str("name", name)
            .u64("patterns", set.len() as u64)
            .str("scap_digest", &power_digest(&v.power))
            .f64("budget_ps", v.screen.budget_ps)
            .str("verdicts", &verdict_string(&v.screen.invalidated))
            .raw("irdrop_vdd_v", &series(&v.drop_vdd_v))
            .raw("irdrop_vss_v", &series(&v.drop_vss_v))
            .raw("derated_delay_ps", &series(&v.screen.max_derated_delay_ps));
        sets.raw(&o.finish());
    }
    let mut o = Obj::new();
    o.f64("scale", SCALE)
        .u64("design_seed", design_seed)
        .raw("sets", &sets.finish());
    o.finish()
}
