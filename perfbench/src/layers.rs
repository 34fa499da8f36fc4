//! Per-layer numbers read from outside the program: the `scap-obs`
//! counters, gauges and spans the crates already record, plus process
//! CPU time and peak memory from `/proc`.

use crate::report::{ratio, Outcome};
use scap_obs::Snapshot;

/// A counter's value (0 when never registered).
pub fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

fn gauge(snap: &Snapshot, name: &str) -> f64 {
    snap.gauge(name).unwrap_or(0) as f64
}

/// `(calls, total seconds)` of a program span.
pub fn span(snap: &Snapshot, name: &str) -> (f64, f64) {
    snap.spans
        .iter()
        .find(|(n, _)| *n == name)
        .map_or((0.0, 0.0), |(_, s)| {
            (s.count as f64, s.total_ns as f64 / 1e9)
        })
}

/// `(calls, total seconds)` summed over every span whose name starts
/// with `prefix`.
pub fn spans_with_prefix(snap: &Snapshot, prefix: &str) -> (f64, f64) {
    snap.spans
        .iter()
        .filter(|(n, _)| n.starts_with(prefix))
        .fold((0.0, 0.0), |(c, t), (_, s)| {
            (c + s.count as f64, t + s.total_ns as f64 / 1e9)
        })
}

/// Sets every per-layer metric that comes straight from the program's
/// own metrics, recorded over a timed phase of `wall_s` seconds that
/// used `cpu_s` seconds of process CPU on `threads` threads.
pub fn from_program(out: &mut Outcome, snap: &Snapshot, wall_s: f64, cpu_s: f64, threads: usize) {
    let c = |name: &str| counter(snap, name);
    for name in [
        "grade.rounds",
        "grade.fault_sim_targets",
        "grade.faults_dropped",
        "atpg.aborts_suppressed",
        "atpg.sat_rescued_tests",
        "atpg.reclassified_untestable",
        "sat.solves",
        "sat.conflicts",
        "sat.decisions",
        "sat.propagations",
        "sat.learned_clauses",
        "sim.fault_sim_checks",
        "sim.fault_detections",
        "sim.faults_skipped_unobservable",
        "sim.faults_collapsed",
        "sim.event_runs",
        "sim.toggle_events",
        "cg.solves",
        "cg.iterations",
        "cg.warm_hits",
        "serve.design_builds",
        "serve.jobs.rejected",
        "serve.jobs.timed_out",
        "serve.responses.5xx",
        "exec.parallel_maps",
    ] {
        out.set(name, c(name));
    }
    let (calls, secs) = span(snap, "atpg.podem_primary");
    out.set("atpg.podem_primary_calls", calls);
    out.set("atpg.podem_primary_s", secs);
    let (calls, secs) = span(snap, "atpg.podem_secondary");
    out.set("atpg.podem_secondary_calls", calls);
    out.set("atpg.podem_secondary_s", secs);
    out.set("atpg.drop_sim_s", span(snap, "atpg.drop_sim").1);
    let solve_s = span(snap, "atpg.sat_solve").1;
    out.set("sat.solve_s", solve_s);
    out.set(
        "sat.propagations_per_s",
        ratio(c("sat.propagations"), solve_s),
    );
    out.set(
        "sat.verdict_ratio",
        ratio(
            c("sat.tests_found") + c("sat.untestable_proofs"),
            c("sat.solves"),
        ),
    );
    out.set(
        "sim.detect_ratio",
        ratio(c("sim.fault_detections"), c("sim.fault_sim_checks")),
    );
    out.set(
        "sim.block_lane_fill",
        ratio(c("sim.patterns_per_block"), 64.0 * c("sim.block_evals")),
    );
    out.set(
        "cg.iterations_per_solve",
        ratio(c("cg.iterations"), c("cg.solves")),
    );
    let hit_ratio = |family: &str| {
        let hits = c(&format!("{family}.hits"));
        ratio(hits, hits + c(&format!("{family}.misses")))
    };
    out.set("serve.respcache.hit_ratio", hit_ratio("serve.respcache"));
    out.set("serve.cache.hit_ratio", hit_ratio("serve.cache"));
    out.set("serve.design_build_s", span(snap, "serve.design_build").1);
    out.set("serve.queue_depth", gauge(snap, "serve.queue_depth"));
    out.set(
        "exec.effective_threads",
        gauge(snap, "exec.effective_threads"),
    );
    out.set(
        "exec.worker_items_max",
        gauge(snap, "exec.worker_items_max"),
    );
    out.set("exec.cpu_util", ratio(cpu_s, wall_s * threads as f64));
    out.set("trace.timed_s", wall_s);
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs wanted to run, summed over CPUs, s (`steal` in `/proc/stat`).
/// Printed beside timings: it is the usual cause of a slow run on a
/// shared host.
pub fn machine_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Process CPU time (user + system, every thread, live or exited), s.
/// `/proc/self/stat` counts in clock ticks of 1/100 s on Linux.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let spin: u64 = (0..20_000_000u64).fold(0, |a, b| a.wrapping_add(b * b));
        assert!(spin > 0);
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
