//! The metric catalogue and the one-line JSON result every run prints.
//!
//! Every run reports every metric of its kind: each end-to-end metric on
//! an untraced run, each per-layer metric on a traced run. A per-layer
//! metric whose layer a workload never enters reads 0; that zero is the
//! measurement ("this workload does not load the layer").

use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`: what a user of the workload sees.
/// Their per-workload meaning is documented in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("coverage_pct", "%"),
    ("patterns", "count"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, grouped by the crate they measure.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core
    ("core.case_study_s", "s"),
    ("core.grade_s", "s"),
    ("grade.rounds", "count"),
    ("grade.fault_sim_targets", "count"),
    ("grade.faults_dropped", "count"),
    ("core.power_profile_s", "s"),
    ("core.ir_drop_profile_s", "s"),
    ("core.timing_screen_s", "s"),
    // atpg
    ("atpg.podem_primary_s", "s"),
    ("atpg.podem_primary_calls", "count"),
    ("atpg.podem_secondary_s", "s"),
    ("atpg.podem_secondary_calls", "count"),
    ("atpg.aborts_suppressed", "count"),
    ("atpg.drop_sim_s", "s"),
    ("atpg.faults_per_pattern", "ratio"),
    ("atpg.aborted", "count"),
    ("atpg.sat_rescued_tests", "count"),
    ("atpg.reclassified_untestable", "count"),
    // sat
    ("sat.solve_s", "s"),
    ("sat.solves", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.learned_clauses", "count"),
    ("sat.propagations_per_s", "1/s"),
    ("sat.verdict_ratio", "ratio"),
    // sim
    ("sim.fault_sim_checks", "count"),
    ("sim.fault_detections", "count"),
    ("sim.detect_ratio", "ratio"),
    ("sim.faults_skipped_unobservable", "count"),
    ("sim.faults_collapsed", "count"),
    ("sim.block_lane_fill", "ratio"),
    ("sim.event_s", "s"),
    ("sim.event_runs", "count"),
    ("sim.toggle_events", "count"),
    ("sim.toggle_events_per_s", "1/s"),
    // power
    ("power.scap_s", "s"),
    ("power.irdrop_s", "s"),
    ("power.grid_build_s", "s"),
    ("cg.solves", "count"),
    ("cg.iterations", "count"),
    ("cg.iterations_per_solve", "ratio"),
    ("cg.warm_hits", "count"),
    // timing
    ("timing.derate_s", "s"),
    // serve
    ("serve.exchange_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.http_overhead_ms", "ms"),
    ("serve.respcache.hit_ratio", "ratio"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.design_builds", "count"),
    ("serve.design_build_s", "s"),
    ("serve.queue_depth", "count"),
    ("serve.jobs.rejected", "count"),
    ("serve.jobs.timed_out", "count"),
    ("serve.responses.5xx", "count"),
    // exec
    ("exec.cpu_util", "ratio"),
    ("exec.parallel_maps", "count"),
    ("exec.effective_threads", "count"),
    ("exec.worker_items_max", "count"),
    // the benchmark's own tracing
    ("obs.overhead_pct", "%"),
    ("trace.span_share", "ratio"),
    ("trace.timed_s", "s"),
];

/// What one run found: the correctness verdict, the work attempted and
/// failed, and the metrics measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Problems the correctness gate found; empty means correct.
    pub problems: Vec<String>,
    /// Work items attempted (faults, patterns or requests).
    pub attempted: u64,
    /// Work items that failed (aborted faults, non-finite patterns,
    /// non-200 or lost requests).
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Records a gate failure.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Whether the gate passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: every catalogue metric of the run's kind, in
    /// catalogue order. Untraced runs must have set every end-to-end
    /// metric; unset per-layer metrics read 0.
    pub fn to_json(&self, traced: bool) -> String {
        use scap_obs::json::{f64_token, Obj};
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Obj::new();
        for &(name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let mut m = Obj::new();
            m.raw("value", &f64_token(finite_or_zero(value)))
                .str("unit", unit);
            metrics.raw(name, &m.finish());
        }
        let mut root = Obj::new();
        root.bool("correct", self.correct())
            .u64("attempted", self.attempted.max(1))
            .u64("failed", self.failed)
            .raw("metrics", &metrics.finish());
        root.finish()
    }
}

/// JSON has no infinities; a non-finite metric (a ratio over nothing)
/// reads 0.
fn finite_or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_line_has_every_end_to_end_metric() {
        let mut out = Outcome::default();
        for &(name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        out.attempted = 10;
        let line = out.to_json(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"));
        let v = scap_obs::json::parse(&line).unwrap();
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["items_per_s"].get("unit").unwrap().as_str(),
            Some("1/s")
        );
    }

    #[test]
    fn traced_line_zero_fills_idle_layers() {
        let mut out = Outcome::default();
        out.set("sat.solves", 3.0);
        out.fail("digest differs");
        let v = scap_obs::json::parse(&out.to_json(true)).unwrap();
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            metrics["cg.solves"].get("value").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(
            metrics["sat.solves"].get("value").unwrap().as_f64(),
            Some(3.0)
        );
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(1));
        assert!(out.to_json(true).starts_with("{\"correct\":false"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn missing_end_to_end_metric_is_a_bug() {
        Outcome::default().to_json(false);
    }

    /// `BENCHMARK.json` declares exactly this catalogue, with these units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = scap_obs::json::parse(&text).unwrap();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(|a| a.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from the catalogue");
        }
    }
}
