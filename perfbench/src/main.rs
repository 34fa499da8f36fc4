//! `scap-perfbench`: the repository's end-to-end and per-layer
//! benchmark. Each invocation runs one workload in its own process and
//! prints, as its last line, one JSON object with the correctness
//! verdict, the work attempted and failed, and the metrics: every
//! end-to-end metric on an untraced run, every per-layer metric on a
//! traced run (`--trace 1`). `perfbench/README.md` describes the
//! workloads and metrics; `perfbench/run.py` builds and drives it.

mod atpg;
mod gate;
mod heap;
mod layers;
mod report;
mod serve;
mod signoff;
mod stats;
mod trace;

use report::Outcome;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The Turbo-Eagle preset's generator seed: the design every ATPG and
/// sign-off number is quoted on.
pub const DEFAULT_DESIGN_SEED: u64 = 8_300_062;

/// The held-out design seed for confirming a claim made on the default.
pub const HOLDOUT_DESIGN_SEED: u64 = 1;

/// The workloads, in the order `run.py` runs them.
pub const WORKLOADS: [&str; 4] = ["atpg_staged", "atpg_hybrid", "signoff", "serve_mixed"];

/// One run's settings.
#[derive(Debug)]
pub struct Ctx {
    /// The run seed: every random choice of the workload derives from it.
    pub seed: u64,
    /// The design generator seed of the ATPG and sign-off workloads.
    pub design_seed: u64,
    /// How long the timed phase measures, s.
    pub seconds: f64,
    /// Present on a traced run.
    pub tracer: Option<Tracer>,
    /// Worker threads of the program (`SCAP_THREADS`).
    pub threads: usize,
}

const USAGE: &str = "usage: scap-perfbench --workload atpg_staged|atpg_hybrid|signoff|serve_mixed \
[--seed N] [--seconds S] [--trace 0|1] [--design-seed N]
       scap-perfbench --write-reference PATH";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Run(workload, ctx)) => run(&workload, &ctx),
        Ok(Command::WriteReference(path)) => match std::fs::write(&path, write_reference()) {
            Ok(()) => {
                println!("wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                ExitCode::from(1)
            }
        },
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

enum Command {
    Run(String, Ctx),
    WriteReference(String),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: DEFAULT_DESIGN_SEED,
        design_seed: DEFAULT_DESIGN_SEED,
        seconds: 10.0,
        tracer: None,
        threads: scap_exec::Executor::new().threads(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects an integer, got '{v}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => ctx.seed = number(value()?)?,
            "--design-seed" => ctx.design_seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                ctx.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds expects a positive number, got '{v}'"))?;
            }
            "--trace" => match value()?.as_str() {
                "0" => ctx.tracer = None,
                "1" => ctx.tracer = Some(Tracer::default()),
                other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
            },
            "--write-reference" => return Ok(Command::WriteReference(value()?.clone())),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Command::Run(workload, ctx))
}

fn run(workload: &str, ctx: &Ctx) -> ExitCode {
    let traced = ctx.tracer.is_some();
    println!(
        "{workload}: seed {}, design seed {}, {} s, trace {}, SCAP_THREADS={}",
        ctx.seed,
        ctx.design_seed,
        ctx.seconds,
        u8::from(traced),
        ctx.threads
    );
    let mut out = match workload {
        "atpg_staged" => atpg::staged(ctx),
        "atpg_hybrid" => atpg::hybrid(ctx),
        "signoff" => signoff::run(ctx),
        "serve_mixed" => serve::run(ctx),
        _ => unreachable!("workload validated by parse"),
    };
    if !traced {
        out.set("peak_heap_mb", heap::peak_mb());
        println!(
            "  peak heap {:.2} MB; peak RSS (VmHWM) {:.2} MB",
            heap::peak_mb(),
            layers::peak_rss_mb()
        );
    }
    if let Some(tracer) = &ctx.tracer {
        write_trace(workload, ctx.seed, tracer);
    }
    for p in &out.problems {
        eprintln!("correctness gate: {p}");
    }
    println!("{}", out.to_json(traced));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes the run's spans, with self times, under `perfbench/traces/`.
fn write_trace(workload: &str, seed: u64, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    let mut doc = scap_obs::json::Obj::new();
    doc.str("workload", workload)
        .u64("seed", seed)
        .raw("spans", &trace::to_json(&tracer.spans()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.finish())) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// SplitMix64: the small, well-mixed generator every random choice of a
/// run (request mix, fill seeds) derives from.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs `f` `repeats` times; returns the last result and the median
/// duration in seconds.
pub fn setup_median<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repeat"), stats::median(&times))
}

/// Calls `pass` (which times itself and returns seconds) until at least
/// `min_passes` passes ran and `seconds` of wall time have gone by.
pub fn repeat_for(seconds: f64, min_passes: usize, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let steal0 = layers::machine_steal_s();
    let mut times = Vec::new();
    while times.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        times.push(pass());
    }
    println!(
        "  passes (s): {:.3?}; machine steal {:.2} s",
        times,
        layers::machine_steal_s() - steal0
    );
    times
}

/// End-to-end timing metrics of a pass-based workload: `items` work
/// items per pass, one reply (a finished job) per pass.
pub fn pass_metrics(out: &mut Outcome, items: f64, pass_s: &[f64]) {
    let mut lat = stats::Latencies::new();
    for &s in pass_s {
        lat.ok(s * 1e3);
    }
    let tail = lat.tail();
    // Per median pass: one pass slowed by a burst of host contention
    // moves the median less than the mean.
    out.set("items_per_s", items / stats::median(pass_s));
    out.set("latency_p50_ms", stats::median(pass_s) * 1e3);
    out.set("latency_tail_ms", tail.value);
    println!(
        "  {} passes: median {:.3} s, tail p{} {:.3} s ({} beyond)",
        pass_s.len(),
        stats::median(pass_s),
        tail.percentile,
        tail.value / 1e3,
        tail.beyond
    );
}

/// A traced timed phase: program metrics reset and on (off again after),
/// process CPU and wall time measured, one root span around it.
pub struct TracedPhase {
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// Process CPU time of the phase, s.
    pub cpu_s: f64,
    /// The program's metrics at the end of the phase.
    pub snap: scap_obs::Snapshot,
    /// The root span's id.
    pub root: u64,
}

/// Runs `f` as a traced phase under a root span named `name`; `f`
/// receives the root's id for its child spans.
pub fn traced_phase<T>(tracer: &Tracer, name: &str, f: impl FnOnce(u64) -> T) -> (T, TracedPhase) {
    scap_obs::reset();
    scap_obs::set_enabled(true);
    let cpu0 = layers::process_cpu_s();
    let root = tracer.open(name, None);
    let root_id = root.id();
    let out = f(root_id);
    let wall_s = tracer.close(root);
    let cpu_s = layers::process_cpu_s() - cpu0;
    let snap = scap_obs::snapshot();
    scap_obs::set_enabled(false);
    (
        out,
        TracedPhase {
            wall_s,
            cpu_s,
            snap,
            root: root_id,
        },
    )
}

/// The committed reference document for every workload that pins its
/// outputs, at the default and the holdout design seed.
/// One entry per line, so a regenerated reference diffs by entry.
fn write_reference() -> String {
    let seeds = [DEFAULT_DESIGN_SEED, HOLDOUT_DESIGN_SEED];
    let staged: Vec<String> = seeds.iter().map(|&s| atpg::staged_reference(s)).collect();
    let signoff: Vec<String> = seeds.iter().map(|&s| signoff::reference(s)).collect();
    format!(
        "{{\n\"atpg_staged\": [\n{}\n],\n\"signoff\": [\n{}\n]\n}}\n",
        staged.join(",\n"),
        signoff.join(",\n")
    )
}
