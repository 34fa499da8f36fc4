//! `scap` — command-line front-end for the supply-voltage-noise-aware
//! transition-delay-fault ATPG suite.
//!
//! ```text
//! scap generate --scale 0.01 [--verilog out.v]          design + Tables 1-2
//! scap atpg     --scale 0.01 [--flow noise-aware]       run a flow
//!               [--fill fill-0] [--stil out.stil] [--compact]
//! scap profile  --scale 0.01 [--flow conventional]      per-pattern SCAP
//! scap schedule --scale 0.01 --budget <mW>              session scheduling
//! scap lint     --scale 0.01 [--format json] [--deny warn]   design-rule check
//! scap sta      --scale 0.01 [--derate] [--paths N]     slack analysis
//! scap serve    --addr 127.0.0.1:7878                   resident HTTP API
//! scap cluster  --workers 4 [--port 7900]               crash-isolated serving
//! ```
//!
//! Everything is regenerated deterministically from `--scale`/`--seed`,
//! so commands compose without intermediate files. Flag parsing lives in
//! `scap_serve::params` — the same parser backs the server's query
//! strings, so `--scale 0.02` here and `scale=0.02` on the wire behave
//! identically. Parse errors return `ExitCode::from(2)` (destructors
//! run; nothing calls `process::exit`).

use scap::{ablation, compact_patterns, experiments, schedule, CaseStudy, PatternAnalyzer};
use scap_serve::flow::FlowSpec;
use scap_serve::params::Args;
use std::process::ExitCode;

/// Unwraps a flag-accessor `Result`, or prints the error and returns
/// usage exit code 2 from the enclosing function.
macro_rules! try_flag {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        }
    };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: scap <generate|atpg|profile|schedule|sta|lint|serve|cluster> [--scale S] [--seed N] [--threads N] [options]\n\
         \n  generate   build the case-study SOC; Tables 1-2; --verilog FILE to dump netlist\
         \n  atpg       run a flow: --flow conventional|noise-aware (default noise-aware),\
         \n             --fill random-fill|fill-0|fill-1|fill-adjacent, --stil FILE, --compact,\
         \n             --engine podem|sat|hybrid (default podem; hybrid gives PODEM\
         \n             aborts a SAT verdict: a test or an untestability proof)\
         \n  profile    per-pattern B5 SCAP of a flow vs the screening threshold;\
         \n             --metrics prints the pipeline counter breakdown\
         \n  schedule   power-constrained session scheduling: --budget MILLIWATTS\
         \n  sta        per-endpoint slack analysis; --derate adds the IR-drop-derated\
         \n             pass (worst-case regional droop through the delay model),\
         \n             --derate-k F scales the droop sensitivity, --paths N,\
         \n             --metrics prints the sta.* counter breakdown\
         \n  lint       cross-layer design-rule check of the generated design, the\
         \n             noise-aware flow's patterns, the supply meshes and the\
         \n             nominal/derated timing; --format text|json, --deny warn to\
         \n             fail on warnings, --only RULEPREFIX (e.g. TIM, NET002)\
         \n             exit 0 clean, 1 findings at or above the deny level, 2 usage\
         \n  serve      resident HTTP JSON API (see docs/SERVER.md):\
         \n             --addr HOST:PORT (default 127.0.0.1:7878; port 0 = ephemeral),\
         \n             --workers N, --queue-depth N, --cache-capacity N (design LRU),\
         \n             --cache-cap N (response LRU), --deadline-ms MS\
         \n  cluster    crash-isolated serving: a coordinator proxy over N scap-serve\
         \n             worker processes, rendezvous-routed on (scale, seed), with\
         \n             failover and respawn (see docs/SERVER.md): --workers N\
         \n             (default 2), --addr HOST:PORT / --port P (default\
         \n             127.0.0.1:7900), --probe-ms MS (default 500), plus per-worker\
         \n             --worker-threads, --queue-depth, --cache-capacity, --cache-cap\
         \n\
         \n  --threads N  worker threads for the parallel hot loops and ATPG's primary\
         \n               searches; always wins\
         \n               (precedence: --threads, then SCAP_THREADS env, then cores)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    match args.threads() {
        Ok(Some(n)) => {
            scap_exec::set_default_threads(n);
        }
        Ok(None) => {}
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    }
    let Some(cmd) = args.positional.first().map(String::as_str) else {
        return usage();
    };
    match cmd {
        "generate" => generate(&args),
        "atpg" => atpg(&args),
        "profile" => profile(&args),
        "schedule" => schedule_cmd(&args),
        "sta" => sta(&args),
        "lint" => lint(&args),
        "serve" => scap_serve::serve_main(&args),
        "cluster" => cluster(&args),
        _ => usage(),
    }
}

/// Builds the case study from `--scale`/`--seed` (validated; never
/// exits the process).
fn build_study(args: &Args) -> Result<CaseStudy, String> {
    Ok(CaseStudy::with_seed(args.scale()?, args.seed()?))
}

fn generate(args: &Args) -> ExitCode {
    let verilog = try_flag!(args.value("verilog"));
    let study = try_flag!(build_study(args));
    let report = experiments::table1(&study);
    println!("{}", experiments::render_table1(&report));
    println!("{}", experiments::render_table2(&report));
    if let Some(path) = verilog {
        let text = scap::netlist::verilog::to_verilog(&study.design.netlist);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn atpg(args: &Args) -> ExitCode {
    // `--flow`/`--fill`/`--engine` parse through the same FlowSpec as
    // the server's parameters, and before the design is built, so a
    // bad value fails fast.
    let spec = try_flag!(FlowSpec::parse(args));
    let stil = try_flag!(args.value("stil"));
    let study = try_flag!(build_study(args));
    let mut flow = spec.run(&study);
    println!(
        "{} patterns, {:.2} % fault coverage",
        flow.patterns.len(),
        100.0 * flow.fault_coverage()
    );
    if args.has("compact") {
        let (kept, compacted) = compact_patterns(
            &study.design.netlist,
            study.clka(),
            &flow.faults,
            &flow.patterns,
        );
        println!(
            "static compaction: {} -> {} patterns",
            flow.patterns.len(),
            kept.len()
        );
        flow.patterns = compacted;
    }
    if let Some(path) = stil {
        let text = scap::dft::export::to_stil(&study.design.netlist, &flow.patterns);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn profile(args: &Args) -> ExitCode {
    // Collection is enabled *before* the run so the breakdown covers
    // design build, ATPG, grading and SCAP measurement alike.
    if args.has("metrics") {
        scap_obs::set_enabled(true);
    }
    let spec = try_flag!(FlowSpec::parse(args));
    let study = try_flag!(build_study(args));
    let flow = spec.run(&study);
    let Some(b5) = study.design.block_named("B5") else {
        eprintln!("error: the generated design has no block named 'B5' to profile");
        return ExitCode::FAILURE;
    };
    let Some(&threshold) = experiments::scap_thresholds(&study).get(b5.index()) else {
        eprintln!("error: no screening threshold for block 'B5'");
        return ExitCode::FAILURE;
    };
    let profile = PatternAnalyzer::new(&study).power_profile(&flow.patterns);
    let series = experiments::scap_series(&profile, b5, threshold);
    println!(
        "{}",
        experiments::render_scap_series("B5 SCAP profile", &series)
    );
    let sweep = ablation::threshold_sensitivity(&series, &[0.5, 1.0, 2.0]);
    for (f, above) in sweep {
        println!("threshold x{f}: {above} patterns above");
    }
    if args.has("metrics") {
        let snap = scap_obs::snapshot();
        println!("\n{}", scap_obs::render(&snap));
        // Lane utilization of the word-packed fault-sim kernel: how full
        // the 64-pattern blocks actually were (ATPG drop-simulation runs
        // one-lane blocks; grading runs full ones).
        if let (Some(blocks), Some(patterns)) = (
            snap.counter("sim.block_evals").filter(|&b| b > 0),
            snap.counter("sim.patterns_per_block"),
        ) {
            println!(
                "block kernel utilization: {:.1}% ({patterns} patterns over {blocks} blocks of 64 lanes)",
                patterns as f64 / (64 * blocks) as f64 * 100.0
            );
        }
        // Primary searches run ahead on spare threads (--threads 2 and
        // up): how many the targeting loop used, and how long it waited.
        if let Some(speculated) = snap.counter("atpg.speculated").filter(|&n| n > 0) {
            let used = snap.counter("atpg.speculation_used").unwrap_or(0);
            let wait_ms = snap
                .spans
                .iter()
                .find(|(n, _)| *n == "atpg.commit_wait")
                .map_or(0.0, |(_, s)| s.total_ns as f64 / 1e6);
            println!(
                "speculated primary searches: {used} of {speculated} used ({:.1}% wasted), \
                 targeting loop waited {wait_ms:.0} ms",
                speculated.saturating_sub(used) as f64 / speculated as f64 * 100.0
            );
        }
    }
    ExitCode::SUCCESS
}

fn schedule_cmd(args: &Args) -> ExitCode {
    let spec = try_flag!(FlowSpec::parse(args));
    // Validated like `POST /v1/schedule`, before the design is built.
    let budget = try_flag!(args.f64_flag("budget"));
    if let Some(b) = budget.filter(|&b| b <= 0.0) {
        eprintln!("error: --budget expects a positive power in mW, got {b}");
        return ExitCode::from(2);
    }
    let study = try_flag!(build_study(args));
    let flow = spec.run(&study);
    let tests = schedule::block_tests_from_flow(&study, &flow);
    let serial = schedule::serial_length(&tests);
    let budget =
        budget.unwrap_or_else(|| 2.0 * tests.iter().map(|t| t.power_mw).fold(0.0, f64::max));
    let plan = schedule::schedule(&tests, budget);
    println!("budget {budget:.2} mW | serial length {serial} patterns");
    for (i, s) in plan.sessions.iter().enumerate() {
        let names: Vec<String> = s
            .members
            .iter()
            .map(|m| study.design.netlist.block(m.block).name.clone())
            .collect();
        println!(
            "session {i}: {:<18} {:>7.2} mW  {:>6} patterns",
            names.join("+"),
            s.power_mw(),
            s.length()
        );
    }
    println!(
        "scheduled length {} patterns ({:.0} % of serial)",
        plan.total_length(),
        100.0 * plan.total_length() as f64 / serial.max(1) as f64
    );
    ExitCode::SUCCESS
}

/// `scap lint` — runs the full design-rule registry against the generated
/// design, the noise-aware flow's patterns and both supply meshes. The
/// registry assembly itself lives in `scap_serve::lint_report`, shared
/// with `POST /v1/lint`.
///
/// Exit codes: 0 clean, 1 findings at or above the deny level (errors, or
/// warnings too under `--deny warn`), 2 usage error.
fn lint(args: &Args) -> ExitCode {
    let json = match try_flag!(args.value("format")) {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => {
            eprintln!("error: --format expects 'text' or 'json', got '{other}'");
            return ExitCode::from(2);
        }
    };
    let deny_warn = match try_flag!(args.value("deny")) {
        None => false,
        Some("warn") => true,
        Some(other) => {
            eprintln!("error: --deny expects 'warn', got '{other}'");
            return ExitCode::from(2);
        }
    };
    let only = match try_flag!(args.value("only")) {
        Some(prefix) => {
            let rules = scap_lint::rules_matching(prefix);
            if rules.is_empty() {
                eprintln!("error: --only '{prefix}' matches no registered rule");
                return ExitCode::from(2);
            }
            Some(rules)
        }
        None => None,
    };

    let study = try_flag!(build_study(args));
    let report = match only {
        Some(rules) => scap_serve::lint_report_with(&study, rules),
        None => scap_serve::lint_report(&study),
    };
    if json {
        println!("{}", report.render_json_pretty());
    } else {
        print!("{}", report.render_text());
    }
    if report.errors() > 0 || (deny_warn && report.warnings() > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `scap cluster` — boots the crash-isolated serving tier: this process
/// becomes the coordinator, spawning `--workers` copies of itself
/// running `scap serve` on ephemeral ports and routing requests by
/// rendezvous hashing on `(scale, seed)`. Blocks until
/// `POST /v1/shutdown` drains coordinator and fleet alike.
fn cluster(args: &Args) -> ExitCode {
    let addr = match (try_flag!(args.value("addr")), try_flag!(args.value("port"))) {
        (Some(a), _) => a.to_owned(),
        (None, Some(p)) => format!("127.0.0.1:{p}"),
        (None, None) => "127.0.0.1:7900".to_owned(),
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot resolve own executable for worker spawning: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Workers re-run this binary's `serve` subcommand with the
    // per-worker flags the user set; the rest keep `scap serve`'s
    // defaults.
    let mut worker_command = vec![exe.to_string_lossy().into_owned(), "serve".to_owned()];
    for (ours, theirs) in [
        ("worker-threads", "--workers"),
        ("queue-depth", "--queue-depth"),
        ("cache-capacity", "--cache-capacity"),
        ("cache-cap", "--cache-cap"),
    ] {
        if let Some(raw) = try_flag!(args.value(ours)) {
            try_flag!(args.usize_flag(ours, 1));
            worker_command.extend([theirs.to_owned(), raw.to_owned()]);
        }
    }
    if args.has("debug-endpoints") {
        worker_command.push("--debug-endpoints".to_owned());
    }
    let cfg = scap_cluster::ClusterConfig {
        addr,
        workers: try_flag!(args.usize_flag("workers", 2)),
        worker_command,
        probe_interval: std::time::Duration::from_millis(
            try_flag!(args.usize_flag("probe-ms", 500)) as u64,
        ),
    };
    let coordinator = match scap_cluster::Coordinator::launch(cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot launch cluster: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Stable lines check.sh and tooling parse: the coordinator address
    // first, then one line per worker with pid and address.
    let workers = coordinator.controller().worker_infos();
    println!(
        "scap cluster listening on http://{} ({} workers)",
        coordinator.local_addr(),
        workers.len()
    );
    for w in workers {
        println!(
            "scap cluster worker {} pid {} http://{}",
            w.index,
            w.pid,
            w.addr
                .map(|a| a.to_string())
                .unwrap_or_else(|| "-".to_owned())
        );
    }
    match coordinator.run() {
        Ok(snapshot) => {
            println!("scap cluster drained; final metrics:");
            print!("{}", scap_obs::render(&snapshot));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cluster failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `scap sta` — per-endpoint slack analysis of the generated design:
/// nominal by default, with `--derate` adding the IR-drop-derated pass
/// (worst-case regional droop mapped through the delay model) plus the
/// fault risk-tier histogram ATPG prioritization consumes.
fn sta(args: &Args) -> ExitCode {
    use scap::sta::NoiseAwareSta;
    use scap::timing::{RiskTier, SlackSta};

    if args.has("metrics") {
        scap_obs::set_enabled(true);
    }
    let path_count = try_flag!(args.usize_flag("paths", 5));
    let k = try_flag!(args.f64_flag("derate-k")).unwrap_or(1.0);
    if !k.is_finite() || k <= 0.0 {
        eprintln!("error: --derate-k expects a positive factor, got {k}");
        return ExitCode::from(2);
    }
    let study = try_flag!(build_study(args));
    let n = &study.design.netlist;
    if args.has("derate") {
        let sta = NoiseAwareSta::with_derate(&study, k);
        println!(
            "cycle {:.0} ps | nominal: critical path {:.0} ps, worst slack {:.0} ps",
            study.period_ps(),
            sta.nominal.critical_path_ps(),
            sta.nominal.worst_slack_ps().unwrap_or(0.0),
        );
        println!(
            "derated (k x{k}): critical path {:.0} ps, worst slack {:.0} ps",
            sta.derated.critical_path_ps(),
            sta.derated.worst_slack_ps().unwrap_or(0.0),
        );
        for (flop, nom, der) in sta.endpoint_slacks() {
            println!(
                "endpoint {:<12} nominal {:>8.0} ps  derated {:>8.0} ps  {}",
                n.flop(flop).name,
                nom,
                der,
                RiskTier::classify(der, study.period_ps()).label()
            );
        }
        let faults = scap::sim::FaultList::full(n);
        let hist = sta.tier_histogram(n, &faults);
        let parts: Vec<String> = hist
            .iter()
            .map(|(t, c)| format!("{} {}", t.label(), c))
            .collect();
        println!("fault risk tiers: {}", parts.join(" | "));
        for (i, p) in sta.derated.worst_paths(n, path_count).iter().enumerate() {
            println!(
                "derated path {i}: endpoint {} arrival {:.0} ps slack {:.0} ps depth {}",
                n.flop(p.endpoint).name,
                p.data_arrival_ps,
                p.slack_ps,
                p.depth()
            );
        }
    } else {
        let sta = SlackSta::run(n, &study.annotation, &study.arrivals);
        println!(
            "cycle {:.0} ps | critical path {:.0} ps, worst slack {:.0} ps",
            study.period_ps(),
            sta.critical_path_ps(),
            sta.worst_slack_ps().unwrap_or(0.0),
        );
        for e in sta.endpoints() {
            println!(
                "endpoint {:<12} slack {:>8.0} ps",
                n.flop(e.flop).name,
                e.slack_ps()
            );
        }
        let unreachable = sta.unreachable_endpoints(n);
        if !unreachable.is_empty() {
            println!(
                "{} endpoint(s) unreachable from any launch",
                unreachable.len()
            );
        }
        for (i, p) in sta.worst_paths(n, path_count).iter().enumerate() {
            println!(
                "path {i}: endpoint {} arrival {:.0} ps slack {:.0} ps depth {}",
                n.flop(p.endpoint).name,
                p.data_arrival_ps,
                p.slack_ps,
                p.depth()
            );
        }
    }
    if args.has("metrics") {
        println!("\n{}", scap_obs::render(&scap_obs::snapshot()));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full parser coverage (flag-before-flag, negative values, repeated
    // flags, trailing positionals, query strings) lives with the parser
    // in `scap_serve::params`; these spot-check the CLI wiring.

    fn cli(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn cli_tokens_parse_through_the_shared_parser() {
        let args = cli(&["atpg", "--scale", "0.02", "--compact", "--stil", "out.stil"]);
        assert_eq!(args.positional, vec!["atpg"]);
        assert_eq!(args.scale().unwrap(), 0.02);
        assert!(args.has("compact"));
        assert_eq!(args.value("stil"), Ok(Some("out.stil")));
    }

    #[test]
    fn unknown_flow_options_exit_with_usage_code() {
        // The server answers these with a 400; the CLI must not run a
        // default flow instead. Each fails before any design is built.
        for bad in [
            &["atpg", "--scale", "0.004", "--flow", "conventinal"][..],
            &["atpg", "--scale", "0.004", "--fill", "fill-O"],
            &["profile", "--scale", "0.004", "--engine", "cnf"],
            &["schedule", "--scale", "0.004", "--flow", "bogus"],
            &["schedule", "--scale", "0.004", "--budget", "abc"],
            &["schedule", "--scale", "0.004", "--budget", "-1"],
            // A value flag without its value never falls back to its
            // default (or, for an output path, to writing nothing).
            &["generate", "--scale"],
            &["generate", "--scale", "0.004", "--verilog"],
            &["atpg", "--scale", "0.01", "--stil"],
            &["atpg", "--scale", "0.004", "--flow"],
            &["lint", "--scale", "0.004", "--only"],
            &["lint", "--scale", "0.004", "--format"],
            &["sta", "--scale", "0.004", "--paths"],
            &["cluster", "--port"],
        ] {
            let args = cli(bad);
            let code = match bad[0] {
                "generate" => generate(&args),
                "atpg" => atpg(&args),
                "profile" => profile(&args),
                "lint" => lint(&args),
                "sta" => sta(&args),
                "cluster" => cluster(&args),
                _ => schedule_cmd(&args),
            };
            assert_eq!(code, ExitCode::from(2), "{bad:?}");
        }
    }

    #[test]
    fn malformed_scale_is_a_recoverable_error() {
        // The old parser exited the process here; now it surfaces a
        // Result the subcommands turn into ExitCode::from(2).
        assert!(cli(&["generate", "--scale", "2.0"]).scale().is_err());
        assert!(cli(&["generate", "--scale", "x"]).scale().is_err());
        assert!(cli(&["generate", "--threads", "0"]).threads().is_err());
    }
}
