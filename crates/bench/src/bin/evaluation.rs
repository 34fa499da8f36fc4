//! One-shot regeneration of the paper's full evaluation.
//!
//! ```text
//! cargo run --release -p scap-bench --bin evaluation [scale]
//! ```
//!
//! Prints every table and figure of the DAC'07 paper at the requested
//! design scale (default 0.02 ≈ 460 flops; the paper's chip is scale 1.0).
//! The output of this binary is the source of `EXPERIMENTS.md`.
//!
//! Each flow runs once and each pattern set is power-profiled once; every
//! table, figure and ablation after the flows reads those results.
//!
//! Besides the human-readable report, the run writes
//! `BENCH_evaluation.json` (override the path with `SCAP_BENCH_JSON`):
//! per-stage wall-clock in milliseconds **and the counters and spans that
//! advanced during the stage** (grid solves, fault-sim detections,
//! patterns screened, PODEM search time, …), the requested and *effective*
//! worker-thread counts and the design scale, so serial-vs-parallel
//! comparisons are machine-checkable and hot stages are attributable to
//! actual work rather than guessed at.
//!
//! The final stages benchmark the serving tier on one rotating
//! `/v1/profile` burst over eight shard keys: `serve_profile_1p`, one
//! in-process `scap serve` whose caches hold all eight keys, and
//! `cluster_profile_{2,4}w`, real `scap-cluster-worker` processes
//! behind the rendezvous-routed coordinator. Each burst follows a warm
//! pass that fills the caches, timed as its own stage
//! (`serve_warm_1p`, `cluster_warm_{2,4}w`), so the stages account for
//! the whole run. The bursts' `requests_per_sec` fields are what
//! `scripts/check.sh` holds the fleets against: the cluster exists for
//! crash isolation, and the gate bounds what that isolation costs next
//! to the single process.
//!
//! The last stage, `thread_scaling`, reruns both flows at two threads,
//! where the pattern generator speculates primary searches on a second
//! thread, and asserts that their patterns, steps and statuses equal the
//! runs above. Its `thread_scaling` field holds each flow's wall-clock
//! at both widths and the speedup; the transcript prints only the
//! identity verdict. How many searches a speculator wastes depends on
//! timing, so the printed counter table and the JSON `totals` stop
//! before this stage; its own deltas are in its stage entry.

use scap::flows::FlowResult;
use scap::{ablation, experiments, flows, CaseStudy, PatternAnalyzer};
use scap_cluster::{ClusterConfig, Coordinator, Ring};
use scap_obs::SpanSnapshot;
use scap_serve::{loadgen, ServeConfig, Server};
use std::net::SocketAddr;
use std::time::Instant;

/// One timed pipeline stage: wall-clock plus the counter and span
/// activity it caused (deltas of the process-wide `scap-obs` registry
/// across the stage; zero deltas omitted).
struct Stage {
    name: &'static str,
    ms: f64,
    metrics: Vec<(&'static str, u64)>,
    spans: Vec<(&'static str, SpanSnapshot)>,
    /// Fault-simulation throughput over the stage (launch/detect checks
    /// per wall-clock second), when the stage ran any.
    checks_per_sec: Option<f64>,
    /// HTTP throughput over the stage (completed requests per
    /// wall-clock second), for the serving stages.
    requests_per_sec: Option<f64>,
    /// The flows' wall-clock at two widths, for `thread_scaling`.
    scaling: Option<Scaling>,
}

/// Both flows rerun at another width, against the evaluation's runs.
struct Scaling {
    threads: usize,
    /// Patterns, steps and statuses equal the evaluation's runs.
    identical: bool,
    /// `(flow, ms at the evaluation's width, ms at `threads`)`.
    flows: Vec<(&'static str, f64, f64)>,
}

/// Per-stage wall-clock + metrics collector feeding
/// `BENCH_evaluation.json`.
struct StageClock {
    stages: Vec<Stage>,
}

impl StageClock {
    fn new() -> Self {
        StageClock { stages: Vec::new() }
    }

    /// Runs `f`, recording its wall-clock and counter and span deltas
    /// under `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let before = scap_obs::snapshot();
        let t = Instant::now();
        let out = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let after = scap_obs::snapshot();
        let metrics = after.counter_deltas(&before);
        let spans = after.span_deltas(&before);
        let checks_per_sec = metrics
            .iter()
            .find(|(n, _)| *n == "sim.fault_sim_checks")
            .filter(|&&(_, d)| d > 0 && ms > 0.0)
            .map(|&(_, d)| d as f64 / (ms / 1e3));
        self.stages.push(Stage {
            name,
            ms,
            metrics,
            spans,
            checks_per_sec,
            requests_per_sec: None,
            scaling: None,
        });
        out
    }

    /// Stamps HTTP throughput onto the most recent stage, returning the
    /// value for the caller's own reporting.
    fn annotate_requests_per_sec(&mut self, completed: usize) -> f64 {
        let stage = self.stages.last_mut().expect("a stage was just timed");
        let rps = completed as f64 / (stage.ms / 1e3);
        stage.requests_per_sec = Some(rps);
        rps
    }

    /// Renders the collected stages as a JSON document, built with the
    /// workspace's shared writer ([`scap_obs::json`]) so escaping and
    /// non-finite-float handling (NaN/∞ → `null`) live in one place.
    ///
    /// Per-stage `"metrics"` hold the *nonzero* counter deltas and
    /// `"spans"` the spans that completed in the stage (count and ms); the
    /// `"totals"` object lists every registered metric with its final
    /// cumulative value (zeros included), so the full instrumentation
    /// surface — counters whose call site ran but never advanced too —
    /// is visible in the document.
    fn to_json(
        &self,
        scale: f64,
        threads: usize,
        effective_threads: u64,
        total_ms: f64,
        totals: &scap_obs::Snapshot,
    ) -> String {
        use scap_obs::json::{f64_token_fixed, Arr, Obj};
        let mut stages = Arr::new();
        for stage in &self.stages {
            let mut metrics = Obj::new();
            for &(metric, delta) in &stage.metrics {
                metrics.u64(metric, delta);
            }
            let mut spans = Obj::new();
            for &(span, delta) in &stage.spans {
                let mut o = Obj::new();
                o.u64("count", delta.count)
                    .raw("ms", &f64_token_fixed(delta.total_ns as f64 / 1e6, 3));
                spans.raw(span, &o.finish());
            }
            let mut o = Obj::new();
            o.str("name", stage.name)
                .raw("ms", &f64_token_fixed(stage.ms, 3));
            if let Some(cps) = stage.checks_per_sec {
                o.raw("fault_sim_checks_per_sec", &f64_token_fixed(cps, 1));
            }
            if let Some(rps) = stage.requests_per_sec {
                o.raw("requests_per_sec", &f64_token_fixed(rps, 2));
            }
            if let Some(scaling) = &stage.scaling {
                let mut flows = Obj::new();
                for &(flow, base_ms, ms) in &scaling.flows {
                    let mut f = Obj::new();
                    f.raw("base_ms", &f64_token_fixed(base_ms, 3))
                        .raw("ms", &f64_token_fixed(ms, 3))
                        .raw("speedup", &f64_token_fixed(base_ms / ms, 3));
                    flows.raw(flow, &f.finish());
                }
                let mut t = Obj::new();
                t.u64("threads", scaling.threads as u64)
                    .bool("identical", scaling.identical)
                    .raw("flows", &flows.finish());
                o.raw("thread_scaling", &t.finish());
            }
            o.raw("metrics", &metrics.finish())
                .raw("spans", &spans.finish());
            stages.raw(&o.finish());
        }
        let mut tot = Obj::new();
        for &(n, v) in totals.counters.iter().chain(&totals.gauges) {
            tot.u64(n, v);
        }
        for &(n, v) in &totals.float_gauges {
            tot.f64(n, v);
        }
        let mut root = Obj::new();
        root.f64("scale", scale)
            .u64("threads", threads as u64)
            .u64("effective_threads", effective_threads)
            .raw("total_ms", &f64_token_fixed(total_ms, 3))
            .raw("stages", &stages.finish())
            .raw("totals", &tot.finish());
        scap_obs::json::pretty(&root.finish())
    }
}

/// Scale of the serving-tier stages. Kept as the literal query string
/// so the shard keys computed here match the ones the coordinator
/// derives from the request bytes.
const SERVE_SCALE: &str = "0.004";
/// Distinct `(scale, seed)` shard keys rotating through the burst.
const SERVE_KEYS: usize = 8;
/// Per-worker response/design cache capacity of the fleets: two
/// workers hold four keys each, four hold two each — every fleet keeps
/// its whole shard resident.
const WORKER_CACHE_CAP: usize = 4;
/// Pool settings of the single process and of every fleet worker.
const POOL_THREADS: usize = 2;
const POOL_QUEUE_DEPTH: usize = 64;

/// `scap-cluster-worker` sits next to this binary when the workspace
/// was built at the same profile; `None` (fleet stages skipped)
/// otherwise.
fn cluster_worker_binary() -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let bin = exe.parent()?.join("scap-cluster-worker");
    bin.is_file().then_some(bin)
}

/// Eight profile seeds splitting 4+4 / 2+2+2+2 across the 2- and
/// 4-worker fleets, so per-fleet cache residency is by construction,
/// not luck. Rendezvous hashing constrains the reachable `(owner of 2
/// slots, owner of 4 slots)` pairs: adding slots only moves keys *to
/// the new slots*, so a key owned by slot 0 or 1 of four has the same
/// owner of two. The quota below is the unique per-pair count that
/// balances both fleets under that constraint.
fn balanced_cluster_seeds() -> Vec<u64> {
    let scale: f64 = SERVE_SCALE.parse().expect("literal parses");
    let ring2 = Ring::new(2);
    let ring4 = Ring::new(4);
    // quota[o2][o4]: keys staying on slot 0/1 pin o2 == o4 (two each);
    // keys moving to slot 2/3 split evenly between the 2-slot owners.
    let mut quota = [[2, 0, 1, 1], [0, 2, 1, 1]];
    let mut seeds = Vec::with_capacity(SERVE_KEYS);
    for seed in 1..100_000u64 {
        let key = Ring::shard_key(scale, seed);
        let slot = &mut quota[ring2.owner(key)][ring4.owner(key)];
        if *slot > 0 {
            *slot -= 1;
            seeds.push(seed);
            if seeds.len() == SERVE_KEYS {
                break;
            }
        }
    }
    assert_eq!(
        seeds.len(),
        SERVE_KEYS,
        "balanced seed quota unfilled below seed 100000"
    );
    seeds
}

/// Warms every shard key once against `addr` as stage `warm_name`, then
/// times a rotating burst over the keys as stage `name`. Returns the
/// burst's requests per second.
fn profile_burst(
    clock: &mut StageClock,
    (warm_name, name): (&'static str, &'static str),
    addr: SocketAddr,
    targets: &[(String, String)],
) -> f64 {
    let warm = clock.time(warm_name, || {
        loadgen::burst_targets(addr, "POST", targets, targets.len(), 1)
    });
    assert_eq!(warm.transport_errors, 0, "{name}: warm pass lost requests");
    assert_eq!(
        warm.count(200),
        targets.len(),
        "{name}: warm pass statuses: {:?}",
        warm.statuses
    );
    let per_thread = 4;
    let report = clock.time(name, || {
        loadgen::burst_targets(addr, "POST", targets, targets.len(), per_thread)
    });
    let expected = targets.len() * per_thread;
    assert_eq!(report.transport_errors, 0, "{name}: burst lost requests");
    assert_eq!(
        report.count(200),
        expected,
        "{name}: burst statuses: {:?}",
        report.statuses
    );
    clock.annotate_requests_per_sec(expected)
}

/// The fair single-process baseline: one in-process server with the
/// fleet workers' pool settings and caches that hold every key.
fn serve_stage(clock: &mut StageClock, targets: &[(String, String)]) -> f64 {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: POOL_THREADS,
        queue_depth: POOL_QUEUE_DEPTH,
        cache_capacity: SERVE_KEYS,
        response_cache_capacity: SERVE_KEYS,
        ..ServeConfig::default()
    })
    .expect("binding the single-process server");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    let rps = profile_burst(clock, ("serve_warm_1p", "serve_profile_1p"), addr, targets);
    shutdown.signal();
    join.join().expect("server thread panicked");
    rps
}

/// Boots a `workers`-process fleet behind an in-process coordinator
/// and runs the same warm pass and burst as [`serve_stage`].
fn cluster_stage(
    clock: &mut StageClock,
    names: (&'static str, &'static str),
    worker_bin: &std::path::Path,
    workers: usize,
    targets: &[(String, String)],
) -> f64 {
    let worker_command = [
        worker_bin.to_str().expect("target paths are UTF-8"),
        "--workers",
        &POOL_THREADS.to_string(),
        "--queue-depth",
        &POOL_QUEUE_DEPTH.to_string(),
        "--cache-capacity",
        &WORKER_CACHE_CAP.to_string(),
        "--cache-cap",
        &WORKER_CACHE_CAP.to_string(),
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let coordinator = Coordinator::launch(ClusterConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        worker_command,
        ..ClusterConfig::default()
    })
    .expect("launching the cluster fleet");
    let addr = coordinator.local_addr();
    let control = coordinator.controller();
    let join = std::thread::spawn(move || coordinator.run().expect("coordinator run"));
    let rps = profile_burst(clock, names, addr, targets);
    control.shutdown();
    join.join().expect("coordinator thread panicked");
    rps
}

/// The serving-tier benchmark: `POST /v1/profile` over eight shard
/// keys against one process and against 2- and 4-worker fleets, each
/// holding every key in cache. What the fleets add is crash isolation;
/// this measures its price in throughput.
fn serving_tier(clock: &mut StageClock) {
    let targets: Vec<(String, String)> = balanced_cluster_seeds()
        .iter()
        .map(|seed| {
            (
                "/v1/profile".to_owned(),
                format!("scale={SERVE_SCALE}&seed={seed}&deadline_ms=120000"),
            )
        })
        .collect();
    let solo = serve_stage(clock, &targets);
    println!("Serving tier (POST /v1/profile, {SERVE_KEYS} shard keys, every key cached):");
    println!("  1 process (caches {SERVE_KEYS}):      {solo:>8.2} req/s");
    let Some(worker_bin) = cluster_worker_binary() else {
        println!(
            "  fleets skipped: scap-cluster-worker not found next to this binary \
             (build the full workspace at the same profile first)"
        );
        return;
    };
    for (names, workers) in [
        (("cluster_warm_2w", "cluster_profile_2w"), 2usize),
        (("cluster_warm_4w", "cluster_profile_4w"), 4),
    ] {
        let rps = cluster_stage(clock, names, &worker_bin, workers, &targets);
        println!(
            "  {workers} workers (caches {WORKER_CACHE_CAP} each): {rps:>8.2} req/s  \
             ({:.2}x the single process)",
            rps / solo
        );
    }
}

/// Width of the `thread_scaling` reruns: one targeting loop and one
/// speculator.
const SCALING_THREADS: usize = 2;

/// The `thread_scaling` stage: reruns both flows at [`SCALING_THREADS`]
/// through the process-wide default width, restores `threads`
/// afterwards, and asserts that the reruns equal `runs`.
fn thread_scaling(
    clock: &mut StageClock,
    study: &CaseStudy,
    threads: usize,
    runs: [(&'static str, &'static str, &FlowResult); 2],
) {
    let reruns = clock.time("thread_scaling", || {
        scap_exec::set_default_threads(SCALING_THREADS);
        let reruns = [flows::conventional, flows::noise_aware].map(|flow| {
            let t = Instant::now();
            let rerun = flow(study);
            (rerun, t.elapsed().as_secs_f64() * 1e3)
        });
        scap_exec::set_default_threads(threads);
        reruns
    });
    let identical = runs.iter().zip(&reruns).all(|((_, _, run), (rerun, _))| {
        run.patterns.source == rerun.patterns.source
            && run.patterns.filled == rerun.patterns.filled
            && run.steps == rerun.steps
            && run.status == rerun.status
    });
    assert!(
        identical,
        "a flow at {SCALING_THREADS} threads differs from its {threads}-thread run"
    );
    println!(
        "Thread scaling: both flows at {SCALING_THREADS} threads are identical to their \
         {threads}-thread runs (patterns, steps, status)"
    );
    let base_ms = |stage| {
        clock
            .stages
            .iter()
            .find(|s| s.name == stage)
            .map_or(0.0, |s| s.ms)
    };
    let scaling = Scaling {
        threads: SCALING_THREADS,
        identical,
        flows: runs
            .iter()
            .zip(&reruns)
            .map(|(&(flow, stage, _), &(_, ms))| (flow, base_ms(stage), ms))
            .collect(),
    };
    clock.stages.last_mut().expect("just timed").scaling = Some(scaling);
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02);
    let threads = scap_exec::Executor::new().threads();
    scap_obs::set_enabled(true);
    let mut clock = StageClock::new();
    let t0 = Instant::now();
    println!("== scap-atpg evaluation @ scale {scale}, {threads} thread(s) ==\n");
    let study = clock.time("design", || CaseStudy::new(scale));

    // Tables 1 & 2.
    let report = clock.time("table1", || experiments::table1(&study));
    println!("{}", experiments::render_table1(&report));
    println!("{}", experiments::render_table2(&report));

    // Table 3 + thresholds.
    let t3 = clock.time("table3_statistical", || experiments::table3(&study));
    println!("{}", experiments::render_table3(&study, &t3));
    let b5 = study.design.block_named("B5").expect("B5 exists");
    let thr = clock.time("scap_thresholds", || {
        experiments::scap_thresholds(&study)[b5.index()]
    });
    println!("B5 SCAP screening threshold: {thr:.2} mW\n");

    // Flows.
    println!(
        "[{}s] running conventional random-fill ATPG …",
        t0.elapsed().as_secs()
    );
    let conventional = clock.time("flow_conventional", || flows::conventional(&study));
    println!(
        "[{}s] running noise-aware staged ATPG …",
        t0.elapsed().as_secs()
    );
    let noise_aware = clock.time("flow_noise_aware", || flows::noise_aware(&study));

    // Figures 2 & 6: one analyzer, and one SCAP profile per pattern set
    // (the parallel_map hot loop). Table 4, Figures 3 and 7 and the
    // ablations read these.
    let (analyzer, conventional_profile, f2) = clock.time("fig2_scap_profile", || {
        let analyzer = PatternAnalyzer::new(&study);
        let profile = analyzer.power_profile(&conventional.patterns);
        let series = experiments::scap_series(&profile, b5, thr);
        (analyzer, profile, series)
    });
    let f6 = clock.time("fig6_scap_profile", || {
        experiments::scap_series(&analyzer.power_profile(&noise_aware.patterns), b5, thr)
    });

    // Table 4.
    let t4 = clock.time("table4_cap_scap", || {
        experiments::table4(&study, &analyzer, &conventional, &conventional_profile)
    });
    println!("\n{}", experiments::render_table4(&t4));
    println!(
        "{}",
        experiments::render_scap_series("Figure 2 (conventional B5 SCAP)", &f2)
    );
    println!(
        "{}",
        experiments::render_scap_series("Figure 6 (noise-aware B5 SCAP)", &f6)
    );
    for (label, start) in &noise_aware.steps {
        println!("  {label}: starts at pattern {start}");
    }

    // Figure 3 (two dynamic IR-drop solves).
    let f3 = clock.time("fig3_irdrop", || {
        experiments::fig3(&analyzer, &conventional, &f2)
    });
    println!("\n{}", experiments::render_fig3(&study, &f3));

    // Figure 4.
    println!("{}", experiments::render_fig4(&conventional, &noise_aware));

    // Figure 5 pipeline smoke: one trace through the SCAP calculator.
    let trace = analyzer.trace(&conventional.patterns.filled[0]);
    println!(
        "Figure 5 pipeline: pattern 0 -> {} toggles, STW {:.2} ns, chip SCAP {:.1} mW\n",
        trace.num_toggles(),
        trace.stw_ps() / 1000.0,
        analyzer.power_of_trace(&trace).chip_scap_vdd_mw()
    );

    // Figure 7.
    let f7 = clock.time("fig7_delay_scaling", || {
        experiments::fig7(&analyzer, &noise_aware, &f6)
    });
    println!("{}", experiments::render_fig7(&f7));

    // Noise-aware STA: nominal-vs-derated slack distribution, fault risk
    // tiers driving ATPG targeting order, and the derated
    // launch-to-capture pattern screen.
    let sta = clock.time("sta_noise_aware", || {
        scap::sta::NoiseAwareSta::worst_case(&study)
    });
    let period = study.period_ps();
    let slacks = sta.endpoint_slacks();
    println!(
        "Noise-aware STA ({} endpoints, cycle {:.0} ps):",
        slacks.len(),
        period
    );
    println!(
        "  nominal: critical path {:.0} ps, worst slack {:.0} ps",
        sta.nominal.critical_path_ps(),
        sta.nominal.worst_slack_ps().unwrap_or(0.0)
    );
    println!(
        "  derated: critical path {:.0} ps, worst slack {:.0} ps",
        sta.derated.critical_path_ps(),
        sta.derated.worst_slack_ps().unwrap_or(0.0)
    );
    // Slack histogram: ten 10 %-of-cycle bins (plus a negative bucket).
    let bin_of = |s: f64| {
        if s < 0.0 {
            0usize
        } else {
            1 + ((s / period * 10.0) as usize).min(9)
        }
    };
    let mut nominal_bins = [0usize; 11];
    let mut derated_bins = [0usize; 11];
    for &(_, nom, der) in &slacks {
        nominal_bins[bin_of(nom)] += 1;
        derated_bins[bin_of(der)] += 1;
    }
    println!("  slack histogram (% of cycle): bucket nominal derated");
    for (i, (n_count, d_count)) in nominal_bins.iter().zip(&derated_bins).enumerate() {
        let label = if i == 0 {
            "  <0".to_owned()
        } else {
            format!("{:>2}0%", i - 1)
        };
        println!("    {label:>6} {n_count:>7} {d_count:>7}");
    }
    let mut worst = slacks.clone();
    worst.sort_by(|a, b| {
        a.2.total_cmp(&b.2)
            .then_with(|| a.0.index().cmp(&b.0.index()))
    });
    for &(flop, nom, der) in worst.iter().take(5) {
        println!(
            "    endpoint {:<12} nominal {:>8.0} ps  derated {:>8.0} ps",
            study.design.netlist.flop(flop).name,
            nom,
            der
        );
    }
    let full_faults = scap::sim::FaultList::full(&study.design.netlist);
    let tier_hist = sta.tier_histogram(&study.design.netlist, &full_faults);
    let tier_parts: Vec<String> = tier_hist
        .iter()
        .map(|(t, c)| format!("{} {}", t.label(), c))
        .collect();
    println!("  fault risk tiers: {}", tier_parts.join(" | "));
    let prioritized = clock.time("atpg_risk_prioritized", || {
        use scap::dft::FillPolicy;
        use scap::tgen::FaultStatus;
        let n = &study.design.netlist;
        let order = sta.fault_priority_order(n, &full_faults);
        let config = flows::flow_atpg_config(FillPolicy::Zero);
        scap::tgen::Generator::new(n, study.clka(), config).run_with_status_in_order(
            &full_faults,
            vec![FaultStatus::Undetected; full_faults.faults().len()],
            &order,
        )
    });
    println!(
        "  risk-prioritized ATPG: {} patterns, {:.2} % fault coverage",
        prioritized.patterns.len(),
        prioritized.fault_coverage() * 100.0
    );
    let screen = clock.time("timing_screen_derated", || {
        scap::sta::TimingScreen::run(&study, &noise_aware.patterns, 40.0)
    });
    println!(
        "  derated timing screen (k x40): {}/{} patterns exceed the {:.0} ps budget\n",
        screen.invalidated_count(),
        noise_aware.patterns.len(),
        screen.budget_ps
    );

    // Ablations.
    let rows = clock.time("ablation_fill_matrix", || {
        ablation::staged_fill_matrix(&study, &analyzer, (&conventional, &f2), (&noise_aware, &f6))
    });
    println!("{}", ablation::render_matrix(&rows));
    let sweep = clock.time("ablation_threshold_sweep", || {
        ablation::threshold_sensitivity(&f2, &[0.25, 0.5, 1.0, 2.0, 4.0])
    });
    println!("threshold sensitivity (factor -> conventional patterns above):");
    for (f, above) in &sweep {
        println!("  x{f:<5} {above}");
    }

    // Engine comparison: the hybrid (PODEM + SAT-on-abort) engine must
    // leave no fault Aborted-and-unproven — every PODEM abort either
    // gets a SAT-found test or an UNSAT untestability proof — and its
    // test coverage may only improve on PODEM's (reclassifying proven
    // redundancies shrinks the denominator). The PODEM row is the
    // conventional flow: the same generator over the same full fault
    // list, fill and seed; the deep conflict budget below is the only
    // difference, and a PODEM-only generator builds no SAT engine.
    println!(
        "\n[{}s] running PODEM-vs-hybrid engine comparison …",
        t0.elapsed().as_secs()
    );
    let before_sat = scap_obs::snapshot();
    let hybrid_run = clock.time("engine_comparison", || {
        use scap::dft::FillPolicy;
        use scap::tgen::EngineKind;
        // A deep conflict budget: at evaluation scale every abort must
        // end in a definite verdict, not an Unknown timeout.
        let config = scap::tgen::AtpgConfig {
            sat_conflict_limit: 2_000_000,
            ..flows::flow_atpg_config_with_engine(FillPolicy::Random, EngineKind::Hybrid)
        };
        scap::tgen::Generator::new(&study.design.netlist, study.clka(), config)
            .run(&conventional.faults)
    });
    let sat_delta = |name| {
        scap_obs::snapshot()
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before_sat.counter(name).unwrap_or(0))
    };
    println!("Engine comparison (full fault list, random fill):");
    println!("  engine   patterns   test cov   aborted   untestable");
    for (label, patterns, status) in [
        ("podem", conventional.patterns.len(), &conventional.status),
        ("hybrid", hybrid_run.patterns.len(), &hybrid_run.status),
    ] {
        use scap::tgen::FaultStatus;
        let count = |kind| status.iter().filter(|&&s| s == kind).count();
        println!(
            "  {label:<8} {patterns:>8}   {:>7.2}%   {:>7}   {:>10}",
            scap::tgen::test_coverage(status) * 100.0,
            count(FaultStatus::Aborted),
            count(FaultStatus::Untestable),
        );
    }
    println!(
        "  hybrid verdicts for PODEM aborts: {} proven untestable, {} SAT-rescued tests, {} unresolved",
        sat_delta("atpg.reclassified_untestable"),
        sat_delta("atpg.sat_rescued_tests"),
        hybrid_run.num_aborted(),
    );
    println!(
        "  solver: {} solves, {} conflicts, {} propagations",
        sat_delta("sat.solves"),
        sat_delta("sat.conflicts"),
        sat_delta("sat.propagations"),
    );

    // Serving tier: one process against the crash-isolated fleets.
    println!("\n[{}s] running the serving tier …", t0.elapsed().as_secs());
    serving_tier(&mut clock);

    // Thread scaling, last: the totals below stop before it.
    let totals = scap_obs::snapshot();
    println!(
        "\n[{}s] rerunning both flows at {SCALING_THREADS} threads …",
        t0.elapsed().as_secs()
    );
    thread_scaling(
        &mut clock,
        &study,
        threads,
        [
            ("conventional", "flow_conventional", &conventional),
            ("noise_aware", "flow_noise_aware", &noise_aware),
        ],
    );

    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("\ntotal wall time: {:.0} s", total_ms / 1e3);
    // The high-water mark the executor actually reached — distinct from
    // the requested width when every map had fewer items than workers.
    let effective_threads = totals.gauge("exec.effective_threads").unwrap_or(0);
    println!("{}", scap_obs::render(&totals));
    let json = clock.to_json(scale, threads, effective_threads, total_ms, &totals);
    let path = std::env::var("SCAP_BENCH_JSON").unwrap_or_else(|_| "BENCH_evaluation.json".into());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}
