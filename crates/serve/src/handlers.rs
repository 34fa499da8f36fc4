//! Endpoint implementations: typed parameter structs (parsed and
//! validated *before* a job is admitted to the pool) and the heavy
//! bodies that run on pool workers.
//!
//! Every handler is a pure function of the cached design and its
//! parameters, so identical requests produce byte-identical JSON no
//! matter how they interleave — the property the load tests assert.

use crate::cache::DesignCache;
use crate::flow::{fill_label, FlowSpec};
use crate::http::Response;
use crate::params::Args;
use scap::{experiments, flows, schedule, CaseStudy, PatternAnalyzer};
use scap_obs::json::{Arr, Obj};

/// Parameters shared by every design-backed endpoint.
#[derive(Clone, Copy, Debug)]
pub struct CommonParams {
    /// Design scale in `[MIN_SCALE, 1]` (see [`scap::soc::MIN_SCALE`]).
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
}

impl CommonParams {
    fn parse(args: &Args) -> Result<Self, String> {
        Ok(CommonParams {
            scale: args.scale()?,
            seed: args.seed()?,
        })
    }

    /// Canonical key fragment: the exact scale bits plus the seed —
    /// the same identity the design cache and the cluster router use.
    fn key_part(&self) -> String {
        format!("{:016x}|{}", self.scale.to_bits(), self.seed)
    }
}

fn reject_unknown(args: &Args, known: &[&str]) -> Result<(), String> {
    let unknown = args.unknown_flags(known);
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(format!("unknown parameter(s): {}", unknown.join(", ")))
    }
}

/// Flags every pooled endpoint accepts on top of its own.
const COMMON_KNOWN: &[&str] = &["scale", "seed", "deadline_ms"];

fn with_common<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut known: Vec<&'a str> = COMMON_KNOWN.to_vec();
    known.extend_from_slice(extra);
    known
}

// ---------------------------------------------------------------------
// GET /v1/design
// ---------------------------------------------------------------------

/// Parsed `/v1/design` request.
#[derive(Clone, Copy, Debug)]
pub struct DesignParams {
    /// Shared scale/seed pair.
    pub common: CommonParams,
}

impl DesignParams {
    /// Validates a request's parameters.
    pub fn parse(args: &Args) -> Result<Self, String> {
        reject_unknown(args, &with_common(&[]))?;
        Ok(DesignParams {
            common: CommonParams::parse(args)?,
        })
    }

    /// Canonical response-cache key: every parameter the handler's
    /// output depends on, nothing else (`deadline_ms` is operational,
    /// not semantic, so it never keys).
    pub fn cache_key(&self) -> String {
        format!("design|{}", self.common.key_part())
    }
}

/// Tables 1–2 of the cached design as JSON.
pub fn design(cache: &DesignCache, p: &DesignParams) -> Response {
    let study = cache.get_or_build(p.common.scale, p.common.seed);
    let report = experiments::table1(&study);
    let mut domains = Arr::new();
    for row in &report.domains {
        let mut blocks = Arr::new();
        for b in &row.blocks_covered {
            blocks.str(b);
        }
        let mut o = Obj::new();
        o.str("name", &row.name)
            .u64("scan_cells", row.scan_cells as u64)
            .f64("frequency_mhz", row.frequency_mhz)
            .raw("blocks_covered", &blocks.finish());
        domains.raw(&o.finish());
    }
    let mut design = Obj::new();
    design
        .u64("clock_domains", report.clock_domains as u64)
        .u64("scan_chains", report.scan_chains as u64)
        .u64("total_scan_flops", report.total_scan_flops as u64)
        .u64("negative_edge_flops", report.negative_edge_flops as u64)
        .u64("transition_faults", report.transition_faults as u64)
        .u64("collapsed_faults", report.collapsed_faults as u64)
        .u64("gates", report.gates as u64)
        .raw("domains", &domains.finish());
    let mut root = Obj::new();
    root.f64("scale", p.common.scale)
        .u64("seed", p.common.seed)
        .raw("design", &design.finish());
    Response::json(200, root.finish())
}

// ---------------------------------------------------------------------
// POST /v1/lint
// ---------------------------------------------------------------------

/// Parsed `/v1/lint` request.
#[derive(Clone, Copy, Debug)]
pub struct LintParams {
    /// Shared scale/seed pair.
    pub common: CommonParams,
}

impl LintParams {
    /// Validates a request's parameters.
    pub fn parse(args: &Args) -> Result<Self, String> {
        reject_unknown(args, &with_common(&[]))?;
        Ok(LintParams {
            common: CommonParams::parse(args)?,
        })
    }

    /// Canonical response-cache key (see
    /// [`DesignParams::cache_key`]).
    pub fn cache_key(&self) -> String {
        format!("lint|{}", self.common.key_part())
    }
}

/// Runs the full design-rule registry against a study: the generated
/// design, the noise-aware flow's patterns and both supply meshes.
/// Shared by the `scap lint` subcommand and `POST /v1/lint`.
pub fn lint_report(study: &CaseStudy) -> scap_lint::LintReport {
    lint_report_with(study, scap_lint::all_rules())
}

/// [`lint_report`] restricted to an explicit rule set — what backs the
/// CLI's `--only <RULEPREFIX>` filter. The context is still assembled in
/// full so cross-layer rules see the same inputs either way.
pub fn lint_report_with(
    study: &CaseStudy,
    rules: Vec<Box<dyn scap_lint::Rule>>,
) -> scap_lint::LintReport {
    use scap_lint::{LintContext, MeshKind, MeshSpec, QuietSpec, ScreenSpec, TimingSpec};

    let flow = flows::noise_aware(study);

    // Screen declaration: the flow's output is SCAP-screened, so measure
    // every pattern and declare the within-threshold ones as emitted; the
    // PAT003 rule then re-checks the declaration against the measurements.
    let thresholds = experiments::scap_thresholds(study);
    let profile = PatternAnalyzer::new(study).power_profile(&flow.patterns);
    let num_blocks = study.design.netlist.blocks().len();
    let pattern_block_mw: Vec<Vec<f64>> = profile
        .iter()
        .map(|p| {
            (0..num_blocks)
                .map(|b| p.scap_vdd_mw(scap_netlist::BlockId::new(b as u32)))
                .collect()
        })
        .collect();
    let emitted: Vec<usize> = pattern_block_mw
        .iter()
        .enumerate()
        .filter(|(_, row)| {
            row.iter()
                .zip(&thresholds)
                .all(|(&mw, &t)| mw <= t * (1.0 + 1e-9))
        })
        .map(|(p, _)| p)
        .collect();

    // Timing layer: nominal + worst-case-derated slack per endpoint.
    let sta = scap::sta::NoiseAwareSta::worst_case(study);
    let timing_spec = TimingSpec::from_analyses(
        &study.design.netlist,
        study.clka(),
        &sta.nominal,
        Some(&sta.derated),
    );

    let grid = scap::power::PowerGrid::new(study.design.floorplan.die, study.grid);
    let ctx = LintContext::new(&study.design.netlist)
        .with_timing(&study.annotation, &study.clock_tree)
        .with_mesh(MeshSpec::from_grid(MeshKind::Vdd, &grid))
        .with_mesh(MeshSpec::from_grid(MeshKind::Vss, &grid))
        .with_patterns(&flow.patterns)
        .with_quiet(QuietSpec::from_staged_flow(
            &flows::paper_stages(study),
            &flow.steps,
            flow.patterns.len(),
        ))
        .with_screen(ScreenSpec {
            thresholds_mw: thresholds,
            pattern_block_mw,
            emitted,
        })
        .with_sta(timing_spec);
    scap_lint::run_rules(&ctx, rules)
}

/// Design-rule check of the cached design as JSON.
pub fn lint(cache: &DesignCache, p: &LintParams) -> Response {
    let study = cache.get_or_build(p.common.scale, p.common.seed);
    let report = lint_report(&study);
    let mut root = Obj::new();
    root.f64("scale", p.common.scale)
        .u64("seed", p.common.seed)
        .raw("lint", &report.render_json());
    Response::json(200, root.finish())
}

// ---------------------------------------------------------------------
// POST /v1/sta
// ---------------------------------------------------------------------

/// Parsed `/v1/sta` request.
#[derive(Clone, Copy, Debug)]
pub struct StaParams {
    /// Shared scale/seed pair.
    pub common: CommonParams,
    /// Whether to also run the IR-drop-derated analysis.
    pub derate: bool,
    /// Derating aggressiveness: multiplies the library's calibrated
    /// delay-vs-droop sensitivity. `1.0` is the calibrated worst case.
    pub k: f64,
    /// How many worst paths to trace.
    pub paths: usize,
}

impl StaParams {
    /// Validates a request's parameters.
    pub fn parse(args: &Args) -> Result<Self, String> {
        reject_unknown(args, &with_common(&["derate", "k", "paths"]))?;
        // A boolean like `--derate`: bare means true, and a value may
        // say so explicitly.
        let derate = match args.get_all("derate").first() {
            None => args.has("derate"),
            Some(&("true" | "1" | "")) => true,
            Some(&("false" | "0")) => false,
            Some(other) => return Err(format!("derate expects true or false, got '{other}'")),
        };
        let k = args.f64_flag("k")?.unwrap_or(1.0);
        if !k.is_finite() || k <= 0.0 {
            return Err(format!("k expects a positive factor, got {k}"));
        }
        Ok(StaParams {
            common: CommonParams::parse(args)?,
            derate,
            k,
            paths: args.usize_flag("paths", 3)?,
        })
    }

    /// Canonical response-cache key (see
    /// [`DesignParams::cache_key`]).
    pub fn cache_key(&self) -> String {
        format!(
            "sta|{}|{}|{:016x}|{}",
            self.common.key_part(),
            self.derate,
            self.k.to_bits(),
            self.paths
        )
    }
}

fn paths_json(paths: &[scap::timing::PathReport], netlist: &scap_netlist::Netlist) -> String {
    let mut arr = Arr::new();
    for p in paths {
        let mut o = Obj::new();
        o.str("endpoint", &netlist.flop(p.endpoint).name)
            .f64("data_arrival_ps", p.data_arrival_ps)
            .f64("slack_ps", p.slack_ps)
            .u64("depth", p.depth() as u64);
        arr.raw(&o.finish());
    }
    arr.finish()
}

/// Nominal (and optionally IR-drop-derated) slack analysis as JSON.
pub fn sta(cache: &DesignCache, p: &StaParams) -> Response {
    use scap::timing::SlackSta;

    let study = cache.get_or_build(p.common.scale, p.common.seed);
    let n = &study.design.netlist;
    let mut root = Obj::new();
    root.f64("scale", p.common.scale)
        .u64("seed", p.common.seed)
        .f64("period_ps", study.period_ps())
        .bool("derate", p.derate);
    if p.derate {
        let sta = scap::sta::NoiseAwareSta::with_derate(&study, p.k);
        let faults = scap::sim::FaultList::full(n);
        let mut endpoints = Arr::new();
        for (flop, nom, der) in sta.endpoint_slacks() {
            let mut o = Obj::new();
            o.str("flop", &n.flop(flop).name)
                .f64("nominal_slack_ps", nom)
                .f64("derated_slack_ps", der)
                .str(
                    "tier",
                    scap::timing::RiskTier::classify(der, study.period_ps()).label(),
                );
            endpoints.raw(&o.finish());
        }
        let mut tiers = Obj::new();
        for (tier, count) in sta.tier_histogram(n, &faults) {
            tiers.u64(tier.label(), count as u64);
        }
        root.f64("k_factor", p.k)
            .f64(
                "nominal_worst_slack_ps",
                sta.nominal.worst_slack_ps().unwrap_or(f64::INFINITY),
            )
            .f64(
                "derated_worst_slack_ps",
                sta.derated.worst_slack_ps().unwrap_or(f64::INFINITY),
            )
            .f64("nominal_critical_path_ps", sta.nominal.critical_path_ps())
            .f64("derated_critical_path_ps", sta.derated.critical_path_ps())
            .raw("fault_tiers", &tiers.finish())
            .raw("endpoints", &endpoints.finish())
            .raw(
                "worst_paths",
                &paths_json(&sta.derated.worst_paths(n, p.paths), n),
            );
    } else {
        let nominal = SlackSta::run(n, &study.annotation, &study.arrivals);
        let mut endpoints = Arr::new();
        for e in nominal.endpoints() {
            let mut o = Obj::new();
            o.str("flop", &n.flop(e.flop).name)
                .f64("nominal_slack_ps", e.slack_ps());
            endpoints.raw(&o.finish());
        }
        root.f64(
            "nominal_worst_slack_ps",
            nominal.worst_slack_ps().unwrap_or(f64::INFINITY),
        )
        .f64("nominal_critical_path_ps", nominal.critical_path_ps())
        .u64(
            "unreachable_endpoints",
            nominal.unreachable_endpoints(n).len() as u64,
        )
        .raw("endpoints", &endpoints.finish())
        .raw(
            "worst_paths",
            &paths_json(&nominal.worst_paths(n, p.paths), n),
        );
    }
    Response::json(200, root.finish())
}

// ---------------------------------------------------------------------
// POST /v1/profile
// ---------------------------------------------------------------------

/// Parsed `/v1/profile` request.
#[derive(Clone, Debug)]
pub struct ProfileParams {
    /// Shared scale/seed pair.
    pub common: CommonParams,
    /// Which flow to profile, with its fill and engine.
    pub flow: FlowSpec,
    /// Block to profile (the paper's hot block B5 by default).
    pub block: String,
}

impl ProfileParams {
    /// Validates a request's parameters.
    pub fn parse(args: &Args) -> Result<Self, String> {
        reject_unknown(args, &with_common(&["flow", "fill", "engine", "block"]))?;
        Ok(ProfileParams {
            common: CommonParams::parse(args)?,
            flow: FlowSpec::parse(args)?,
            block: args.value("block")?.unwrap_or("B5").to_owned(),
        })
    }

    /// Canonical response-cache key (see [`DesignParams::cache_key`]).
    pub fn cache_key(&self) -> String {
        format!(
            "profile|{}|{}|{}",
            self.common.key_part(),
            self.flow.key_part(),
            self.block
        )
    }
}

/// Per-pattern SCAP of one block vs its screening threshold, with a
/// screen verdict per pattern.
pub fn profile(cache: &DesignCache, p: &ProfileParams) -> Response {
    let study = cache.get_or_build(p.common.scale, p.common.seed);
    let Some(block) = study.design.block_named(&p.block) else {
        return Response::error(400, &format!("no block named '{}'", p.block));
    };
    let Some(&threshold) = experiments::scap_thresholds(&study).get(block.index()) else {
        return Response::error(500, &format!("no screening threshold for '{}'", p.block));
    };
    let flow = p.flow.run(&study);
    let profile = PatternAnalyzer::new(&study).power_profile(&flow.patterns);
    let series = experiments::scap_series(&profile, block, threshold);
    let mut patterns = Arr::new();
    for (i, &mw) in series.scap_mw.iter().enumerate() {
        let mut o = Obj::new();
        o.u64("pattern", i as u64)
            .f64("scap_mw", mw)
            .bool("above", mw > threshold);
        patterns.raw(&o.finish());
    }
    let mut root = Obj::new();
    root.f64("scale", p.common.scale)
        .u64("seed", p.common.seed)
        .str("flow", p.flow.kind.label())
        .str("fill", fill_label(p.flow.effective_fill()))
        .str("engine", p.flow.engine.label())
        .str("block", &p.block)
        .f64("threshold_mw", threshold)
        .u64("patterns", series.scap_mw.len() as u64)
        .u64("above", series.above.len() as u64)
        .f64("fraction_above", series.fraction_above())
        .f64("fault_coverage", flow.fault_coverage())
        .raw("series", &patterns.finish());
    Response::json(200, root.finish())
}

// ---------------------------------------------------------------------
// POST /v1/schedule
// ---------------------------------------------------------------------

/// Parsed `/v1/schedule` request.
#[derive(Clone, Debug)]
pub struct ScheduleParams {
    /// Shared scale/seed pair.
    pub common: CommonParams,
    /// Which flow supplies the per-block tests, with its fill and
    /// engine.
    pub flow: FlowSpec,
    /// Session power budget, mW (2× the hottest block when absent —
    /// the CLI's default).
    pub budget_mw: Option<f64>,
}

impl ScheduleParams {
    /// Validates a request's parameters.
    pub fn parse(args: &Args) -> Result<Self, String> {
        reject_unknown(args, &with_common(&["flow", "fill", "engine", "budget"]))?;
        let budget_mw = args.f64_flag("budget")?;
        if let Some(b) = budget_mw {
            if b <= 0.0 {
                return Err(format!("budget expects a positive power in mW, got {b}"));
            }
        }
        Ok(ScheduleParams {
            common: CommonParams::parse(args)?,
            flow: FlowSpec::parse(args)?,
            budget_mw,
        })
    }

    /// Canonical response-cache key (see [`DesignParams::cache_key`]).
    /// An absent budget keys as `-`: the default is derived from the
    /// flow's tests, not a fixed number, so it must not collide with
    /// any explicit value.
    pub fn cache_key(&self) -> String {
        let budget = match self.budget_mw {
            Some(b) => format!("{:016x}", b.to_bits()),
            None => "-".to_owned(),
        };
        format!(
            "schedule|{}|{}|{}",
            self.common.key_part(),
            self.flow.key_part(),
            budget
        )
    }
}

/// Power-constrained session scheduling of the flow's per-block tests.
pub fn schedule(cache: &DesignCache, p: &ScheduleParams) -> Response {
    let study = cache.get_or_build(p.common.scale, p.common.seed);
    let flow = p.flow.run(&study);
    let tests = schedule::block_tests_from_flow(&study, &flow);
    let serial = schedule::serial_length(&tests);
    let budget = p
        .budget_mw
        .unwrap_or_else(|| 2.0 * tests.iter().map(|t| t.power_mw).fold(0.0, f64::max));
    let plan = schedule::schedule(&tests, budget);
    let mut sessions = Arr::new();
    for s in &plan.sessions {
        let mut members = Arr::new();
        for m in &s.members {
            let mut o = Obj::new();
            o.str("block", &study.design.netlist.block(m.block).name)
                .u64("patterns", m.patterns as u64)
                .f64("power_mw", m.power_mw);
            members.raw(&o.finish());
        }
        let mut o = Obj::new();
        o.raw("members", &members.finish())
            .f64("power_mw", s.power_mw())
            .u64("length", s.length() as u64);
        sessions.raw(&o.finish());
    }
    let mut root = Obj::new();
    root.f64("scale", p.common.scale)
        .u64("seed", p.common.seed)
        .str("flow", p.flow.kind.label())
        .str("engine", p.flow.engine.label())
        .f64("budget_mw", budget)
        .u64("serial_length", serial as u64)
        .u64("scheduled_length", plan.total_length() as u64)
        .f64("peak_power_mw", plan.peak_power_mw())
        .raw("sessions", &sessions.finish());
    Response::json(200, root.finish())
}

// ---------------------------------------------------------------------
// GET /v1/sleep (debug builds of the server only)
// ---------------------------------------------------------------------

/// Parsed `/v1/sleep` request (test-only endpoint).
#[derive(Clone, Copy, Debug)]
pub struct SleepParams {
    /// How long the pooled job sleeps.
    pub ms: u64,
}

impl SleepParams {
    /// Validates a request's parameters.
    pub fn parse(args: &Args) -> Result<Self, String> {
        reject_unknown(args, &["ms", "deadline_ms"])?;
        let raw = args.value("ms")?.unwrap_or("100");
        let ms = raw
            .parse::<u64>()
            .map_err(|_| format!("ms expects a non-negative integer, got '{raw}'"))?;
        if ms > 60_000 {
            return Err(format!("ms is capped at 60000, got {ms}"));
        }
        Ok(SleepParams { ms })
    }
}

/// Sleeps on a pool worker — a deterministic way for tests to saturate
/// the queue and exercise deadlines.
pub fn sleep(p: &SleepParams) -> Response {
    std::thread::sleep(std::time::Duration::from_millis(p.ms));
    let mut root = Obj::new();
    root.u64("slept_ms", p.ms);
    Response::json(200, root.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{parse_engine, parse_fill, FlowKind};
    use proptest::prelude::*;
    use scap::dft::FillPolicy;
    use scap::soc::MIN_SCALE;
    use scap::tgen::EngineKind;

    #[test]
    fn flow_and_fill_parse_strictly() {
        assert_eq!(FlowKind::parse(None).unwrap(), FlowKind::NoiseAware);
        assert_eq!(
            FlowKind::parse(Some("conventional")).unwrap(),
            FlowKind::Conventional
        );
        assert!(FlowKind::parse(Some("fast")).is_err());
        assert_eq!(parse_fill(Some("fill-1")).unwrap(), Some(FillPolicy::One));
        assert!(parse_fill(Some("ones")).is_err());
    }

    #[test]
    fn engine_parses_strictly_and_defaults_to_podem() {
        assert_eq!(parse_engine(None).unwrap(), EngineKind::Podem);
        assert_eq!(parse_engine(Some("hybrid")).unwrap(), EngineKind::Hybrid);
        assert_eq!(parse_engine(Some("sat")).unwrap(), EngineKind::Sat);
        assert!(parse_engine(Some("cnf")).is_err());
        let p = ProfileParams::parse(&Args::from_query("engine=hybrid&flow=conventional")).unwrap();
        assert_eq!(p.flow.engine, EngineKind::Hybrid);
        let p = ScheduleParams::parse(&Args::from_query("engine=sat")).unwrap();
        assert_eq!(p.flow.engine, EngineKind::Sat);
    }

    #[test]
    fn unknown_parameters_are_rejected() {
        let args = Args::from_query("scale=0.01&sacle=0.02");
        assert!(DesignParams::parse(&args).is_err());
        let args = Args::from_query("scale=0.01&seed=5&deadline_ms=100");
        assert!(DesignParams::parse(&args).is_ok());
    }

    #[test]
    fn sta_params_parse_strictly() {
        let p = StaParams::parse(&Args::from_query("")).unwrap();
        assert!(!p.derate);
        assert_eq!(p.k, 1.0);
        assert_eq!(p.paths, 3);
        let p = StaParams::parse(&Args::from_query("derate=true&k=4.5&paths=10")).unwrap();
        assert!(p.derate);
        assert_eq!(p.k, 4.5);
        assert_eq!(p.paths, 10);
        assert!(StaParams::parse(&Args::from_query("derate=maybe")).is_err());
        assert!(StaParams::parse(&Args::from_query("k=-2")).is_err());
        assert!(StaParams::parse(&Args::from_query("scael=0.01")).is_err());
    }

    /// A value parameter without its value is a 400, never its
    /// default: `scale&scale=0.5` used to parse as scale 0.01. A bare
    /// `derate` is the boolean it is on the CLI (`POST /v1/sta?derate`
    /// used to run the nominal analysis).
    #[test]
    fn valueless_parameters_error_except_boolean_derate() {
        assert!(DesignParams::parse(&Args::from_query("scale&scale=0.5")).is_err());
        assert!(DesignParams::parse(&Args::from_request("seed=1", "seed")).is_err());
        assert!(ProfileParams::parse(&Args::from_query("flow&flow=conventional")).is_err());
        assert!(ProfileParams::parse(&Args::from_query("block")).is_err());
        assert!(SleepParams::parse(&Args::from_query("ms")).is_err());
        let minute = std::time::Duration::from_secs(60);
        assert!(crate::deadline_of(&Args::from_query("deadline_ms"), minute).is_err());
        assert!(StaParams::parse(&Args::from_query("paths")).is_err());
        assert!(
            StaParams::parse(&Args::from_request("derate", ""))
                .unwrap()
                .derate
        );
        assert!(
            !StaParams::parse(&Args::from_query("derate=false&derate"))
                .unwrap()
                .derate
        );
    }

    #[test]
    fn schedule_budget_must_be_positive() {
        let args = Args::from_query("budget=-2");
        assert!(ScheduleParams::parse(&args).is_err());
        let args = Args::from_query("budget=1.5&flow=conventional&fill=random-fill");
        let p = ScheduleParams::parse(&args).unwrap();
        assert_eq!(p.budget_mw, Some(1.5));
        assert_eq!(p.flow.kind, FlowKind::Conventional);
    }

    #[test]
    fn sleep_params_are_bounded() {
        assert_eq!(
            SleepParams::parse(&Args::from_query("ms=250")).unwrap().ms,
            250
        );
        assert!(SleepParams::parse(&Args::from_query("ms=90000")).is_err());
        assert!(SleepParams::parse(&Args::from_query("ms=abc")).is_err());
    }

    /// Key sets the soup draws from: each endpoint's own keys (so some
    /// requests parse), then all of them.
    const KEY_SETS: [&[&str]; 5] = [
        &["scale", "seed", "deadline_ms"],
        &["scale", "seed", "k", "paths"],
        &["scale", "flow", "fill", "engine", "budget"],
        &["ms", "deadline_ms"],
        &[
            "scale",
            "seed",
            "k",
            "paths",
            "budget",
            "ms",
            "deadline_ms",
            "flow",
            "fill",
            "engine",
        ],
    ];

    /// Each key's edge values, about half of them accepted: both
    /// neighbours of every bound, signed zero, subnormals, `NaN`,
    /// infinities, overflows and misspellings.
    fn edge_values(key: &str) -> &'static [&'static str] {
        match key {
            "scale" => &["0.0004", "0.00039", "0.02", "1", "1.0000001", "NaN", "-inf"],
            "seed" => &["0", "18446744073709551615", "18446744073709551616", "-1"],
            "k" | "budget" => &[
                "-0", "0", "NaN", "inf", "-inf", "1e400", "1e-320", "0.5", "4.5", "1e308",
            ],
            "paths" | "deadline_ms" => &["0", "1", "3", "18446744073709551615", "1e3", "-1"],
            "ms" => &["0", "250", "60000", "60001", "1e3"],
            "flow" => &["conventional", "noise-aware", "fast"],
            "fill" => &["fill-0", "random-fill", "ones"],
            "engine" => &["podem", "sat", "hybrid", "cnf"],
            _ => &["0", "1"],
        }
    }

    /// Up to `pairs` `key=value` pairs of byte soup over `keys`, decoded
    /// lossily. A value is mostly one of the key's edge values, else a
    /// string of digits, `.`, `e`, `-`, `+`, escapes, separators and
    /// raw bytes; `=` and `&` are sometimes dropped and a raw byte
    /// sometimes replaces a key.
    fn param_soup(keys: &[&str], pairs: usize, seed: u64) -> String {
        const PIECES: [&str; 16] = [
            "0", "1", "4", "9", ".", "e", "-", "+", "%", "%2", "%3D", "%26", "=", "&", "NaN", "inf",
        ];
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as usize
        };
        let mut bytes = Vec::new();
        for i in 0..pairs {
            if i > 0 && next() % 8 != 0 {
                bytes.push(b'&');
            }
            let key = keys[next() % keys.len()];
            match next() % 8 {
                0 => bytes.push(next() as u8),
                _ => bytes.extend_from_slice(key.as_bytes()),
            }
            if next() % 6 == 0 {
                continue;
            }
            bytes.push(b'=');
            if next() % 4 != 0 {
                let edges = edge_values(key);
                bytes.extend_from_slice(edges[next() % edges.len()].as_bytes());
                continue;
            }
            for _ in 0..next() % 4 {
                match next() % 5 {
                    0 => bytes.push(next() as u8),
                    _ => bytes.extend_from_slice(PIECES[next() % PIECES.len()].as_bytes()),
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Every parameter parser returns (never panics) on arbitrary
        /// query and body bytes, and whatever it accepts lies within its
        /// documented bounds and keys the response cache the same way
        /// on every parse of the same request.
        #[test]
        fn request_parameters_never_panic_and_stay_in_bounds(
            keys in 0usize..KEY_SETS.len(),
            query_pairs in 0usize..4,
            body_pairs in 0usize..4,
            seed in any::<u64>(),
        ) {
            let keys = KEY_SETS[keys];
            let query = param_soup(keys, query_pairs, seed);
            let body = param_soup(keys, body_pairs, seed.rotate_left(29) ^ 0x9e37_79b9_7f4a_7c15);
            let args = Args::from_request(&query, &body);
            let again = Args::from_request(&query, &body);
            let scale_ok = |c: &CommonParams| (MIN_SCALE..=1.0).contains(&c.scale);
            if let Ok(d) = crate::deadline_of(&args, std::time::Duration::from_secs(60)) {
                prop_assert!(!d.is_zero());
            }
            if let Ok(p) = DesignParams::parse(&args) {
                prop_assert!(scale_ok(&p.common));
                prop_assert_eq!(p.cache_key(), DesignParams::parse(&again).unwrap().cache_key());
            }
            if let Ok(p) = LintParams::parse(&args) {
                prop_assert!(scale_ok(&p.common));
                prop_assert_eq!(p.cache_key(), LintParams::parse(&again).unwrap().cache_key());
            }
            if let Ok(p) = StaParams::parse(&args) {
                prop_assert!(scale_ok(&p.common));
                prop_assert!(p.k.is_finite() && p.k > 0.0, "k = {}", p.k);
                prop_assert!(p.paths >= 1);
                prop_assert_eq!(p.cache_key(), StaParams::parse(&again).unwrap().cache_key());
            }
            if let Ok(p) = ProfileParams::parse(&args) {
                prop_assert!(scale_ok(&p.common));
                prop_assert_eq!(p.cache_key(), ProfileParams::parse(&again).unwrap().cache_key());
            }
            if let Ok(p) = ScheduleParams::parse(&args) {
                prop_assert!(scale_ok(&p.common));
                if let Some(b) = p.budget_mw {
                    prop_assert!(b.is_finite() && b > 0.0, "budget = {}", b);
                }
                prop_assert_eq!(p.cache_key(), ScheduleParams::parse(&again).unwrap().cache_key());
            }
            if let Ok(p) = SleepParams::parse(&args) {
                prop_assert!(p.ms <= 60_000, "ms = {}", p.ms);
            }
        }
    }
}
