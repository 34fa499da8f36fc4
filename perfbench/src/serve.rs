//! `serve_mixed`: an in-process `scap_serve::Server` with its default
//! configuration, driven as a closed loop — one client per program
//! thread, each sending its next request when the last one is answered.
//!
//! The mix replays the repository's own scripted callers of the tier,
//! one invocation of each: the serve and cluster smokes of
//! `scripts/check.sh` and the cluster stages of
//! `crates/bench/src/bin/evaluation.rs`. [`MIX`] counts their requests
//! by kind. The run seed picks the hot design seeds, the first-time
//! seeds and every client's request sequence.

use crate::gate;
use crate::report::{ratio, Outcome};
use crate::stats::Latencies;
use crate::trace::Tracer;
use crate::{layers, traced_phase, Ctx, SplitMix};
use scap_serve::cache::DesignCache;
use scap_serve::handlers;
use scap_serve::loadgen;
use scap_serve::params::Args;
use scap_serve::{ServeConfig, Server, ShutdownHandle};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Design scale of every request, as both callers send it.
const SCALE: &str = "0.004";
/// Profile seeds the callers rotate over: `check.sh`'s `--seeds 16`,
/// seeds 1 to 16.
const HOT_SEEDS: usize = 16;
/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// `POST /v1/profile` on a hot seed the server has answered before.
    ProfileRepeat,
    /// `POST /v1/profile` on a design seed the server has not seen: a
    /// design build and the noise-aware flow.
    ProfileFirst,
    /// `GET /v1/design?scale=0.004`, the default design.
    Design,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
}

/// The callers' requests by kind, over one invocation of each
/// (`POST /v1/shutdown`, which ends the server, left out):
///
/// * `check.sh` serve smoke: 8 + 1 `/healthz`, 8 + 1 `/v1/design`
///   (loadgen `--concurrency 4 --requests 2`, then the strict-JSON
///   probe), 1 `/metrics`;
/// * `check.sh` cluster smoke: `/v1/profile` over 16 seeds — a warm
///   pass of 16 first-time keys, then 800 + 16 repeats — and 1
///   `/metrics`;
/// * `evaluation.rs` cluster stages: per fleet, a warm pass of 8
///   first-time profile keys and 32 repeats; three fleets.
const MIX: [(Kind, u64); 5] = [
    (Kind::ProfileRepeat, 816 + 3 * 32),
    (Kind::ProfileFirst, 16 + 3 * 8),
    (Kind::Design, 9),
    (Kind::Healthz, 9),
    (Kind::Metrics, 2),
];
/// Set-ups per run (each binds a fresh server and warms the hot set).
const SETUP_REPEATS: usize = 3;
/// How long a client waits for a reply before counting it lost.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
/// Hot profile keys whose served body is checked against a direct
/// handler call (each call runs the flow).
const DIRECT_HOT_SAMPLES: usize = 4;
/// First-time-key bodies each client keeps for the direct-call check.
const FIRST_SAMPLES_PER_CLIENT: usize = 2;

fn count(kind: Kind) -> u64 {
    MIX.iter().find(|m| m.0 == kind).map_or(0, |m| m.1)
}

/// One request: `method path?query` with a form body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Key {
    method: &'static str,
    path: &'static str,
    query: String,
    body: String,
}

impl Key {
    /// A profile request as `scap-loadgen --seeds` sends it: the seed in
    /// the query, the scale in the body.
    fn profile(seed: u64) -> Key {
        Key {
            method: "POST",
            path: "/v1/profile",
            query: format!("seed={seed}"),
            body: format!("scale={SCALE}"),
        }
    }

    fn get(path: &'static str, query: &str) -> Key {
        Key {
            method: "GET",
            path,
            query: query.to_owned(),
            body: String::new(),
        }
    }

    fn send(&self, addr: SocketAddr) -> std::io::Result<loadgen::ClientResponse> {
        let target = if self.query.is_empty() {
            self.path.to_owned()
        } else {
            format!("{}?{}", self.path, self.query)
        };
        loadgen::request_with_timeouts(
            addr,
            self.method,
            &target,
            &self.body,
            CLIENT_TIMEOUT,
            CLIENT_TIMEOUT,
        )
    }

    /// The handler's answer when called directly on a fresh cache.
    fn direct(&self) -> Vec<u8> {
        let cache = DesignCache::new(1);
        let args = Args::from_request(&self.query, &self.body);
        let response = match self.path {
            "/v1/design" => {
                handlers::DesignParams::parse(&args).map(|p| handlers::design(&cache, &p))
            }
            _ => handlers::ProfileParams::parse(&args).map(|p| handlers::profile(&cache, &p)),
        };
        response.expect("benchmark keys are valid").body
    }

    fn label(&self) -> String {
        format!("{} {}?{} {}", self.method, self.path, self.query, self.body)
    }
}

/// One pick of a client's request stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pick {
    /// A repeat key: index into [`Mix::repeat`].
    Repeat(usize),
    /// A first-time profile key.
    First,
    /// A live-state probe (`/healthz` or `/metrics`): its body changes.
    Probe(Kind),
}

/// The mix a run seed generates.
#[derive(Debug)]
pub struct Mix {
    run_seed: u64,
    /// The hot profile keys, then the design key.
    repeat: Vec<Key>,
}

impl Mix {
    pub fn new(run_seed: u64) -> Mix {
        let mut repeat: Vec<Key> = (1..=HOT_SEEDS as u64).map(Key::profile).collect();
        repeat.push(Key::get("/v1/design", &format!("scale={SCALE}")));
        Mix { run_seed, repeat }
    }

    fn client_rng(&self, client: usize) -> SplitMix {
        SplitMix::new(self.run_seed ^ (0xa076_1d64_78bd_642f_u64.wrapping_mul(client as u64 + 1)))
    }

    /// A client's request stream. First-time keys fall evenly, one every
    /// `total ÷ first` requests from a random phase, so every run carries
    /// the callers' share of them exactly; the other kinds are drawn by
    /// their counts.
    fn stream(&self, client: usize) -> impl Iterator<Item = Pick> + '_ {
        let total: u64 = MIX.iter().map(|m| m.1).sum();
        let first = count(Kind::ProfileFirst);
        let mut rng = self.client_rng(client);
        let phase = rng.next_u64() % total;
        (0u64..).map(move |i| {
            let at = phase + i;
            if (at + 1) * first / total > at * first / total {
                return Pick::First;
            }
            let mut r = rng.next_u64() % (total - first);
            for &(kind, n) in MIX.iter().filter(|m| m.0 != Kind::ProfileFirst) {
                if r < n {
                    return match kind {
                        Kind::ProfileRepeat => {
                            Pick::Repeat((rng.next_u64() % HOT_SEEDS as u64) as usize)
                        }
                        Kind::Design => Pick::Repeat(HOT_SEEDS),
                        probe => Pick::Probe(probe),
                    };
                }
                r -= n;
            }
            unreachable!("r < the sum of the counts")
        })
    }

    /// The `i`-th first-time key of client `client`: a seed drawn from
    /// the run seed, above every hot seed and disjoint across clients.
    fn first(&self, client: usize, i: u64) -> Key {
        let base = 1_000 + self.run_seed % 1_000_000;
        Key::profile(base + (client as u64) * 100_000_000 + i)
    }
}

/// A bound server running on its own thread.
struct Running {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<()>,
}

impl Running {
    fn start() -> Running {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServeConfig::default()
        })
        .expect("binding the server");
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || {
            server.run().expect("server run");
        });
        Running {
            addr,
            shutdown,
            thread,
        }
    }

    fn stop(self) {
        self.shutdown.signal();
        self.thread.join().expect("server thread panicked");
    }
}

/// One client's closed loop.
#[derive(Debug, Default)]
struct ClientLog {
    /// `(completion time since the phase began, s; latency, ms)` per
    /// exchange, `+inf` for a failed one.
    samples: Vec<(f64, f64)>,
    problems: Vec<String>,
    /// First 200 body seen per repeat key.
    repeat_bodies: Vec<Option<Vec<u8>>>,
    first_bodies: Vec<(Key, Vec<u8>)>,
}

impl ClientLog {
    /// Checks a 200 body against what this client saw before for `pick`.
    fn record(&mut self, pick: Pick, key: Key, body: Vec<u8>) {
        match pick {
            Pick::Repeat(i) => match &self.repeat_bodies[i] {
                Some(first) if *first != body => self
                    .problems
                    .push(format!("{}: body changed between repeats", key.label())),
                Some(_) => {}
                None => self.repeat_bodies[i] = Some(body),
            },
            Pick::First if self.first_bodies.len() < FIRST_SAMPLES_PER_CLIENT => {
                self.first_bodies.push((key, body));
            }
            Pick::First => {}
            Pick::Probe(_) => {
                let text = String::from_utf8_lossy(&body);
                if let Err(e) = scap_obs::json::parse(&text) {
                    self.problems
                        .push(format!("{}: body is not strict JSON: {e}", key.label()));
                }
            }
        }
    }
}

/// Every exchange of `logs`, in completion order.
fn merged(logs: &[ClientLog]) -> Vec<(f64, f64)> {
    let mut all: Vec<(f64, f64)> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    all
}

fn latencies(samples: &[(f64, f64)]) -> Latencies {
    let mut lat = Latencies::new();
    for &(_, ms) in samples {
        if ms.is_finite() {
            lat.ok(ms);
        } else {
            lat.failed();
        }
    }
    lat
}

/// Requests answered 200 across `logs`.
fn answered(logs: &[ClientLog]) -> u64 {
    logs.iter()
        .map(|l| l.samples.iter().filter(|s| s.1.is_finite()).count() as u64)
        .sum()
}

/// Drives `clients` closed loops for `seconds`; each exchange becomes a
/// span under `trace` when traced. First-time seeds of client `c` start
/// after `first_offset`.
fn drive(
    addr: SocketAddr,
    mix: &Mix,
    clients: usize,
    seconds: f64,
    first_offset: u64,
    trace: Option<(&Tracer, u64)>,
) -> (Vec<ClientLog>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut log = ClientLog {
                        repeat_bodies: vec![None; mix.repeat.len()],
                        ..ClientLog::default()
                    };
                    let mut first_sent = first_offset;
                    let mut stream = mix.stream(client);
                    while Instant::now() < deadline {
                        let pick = stream.next().expect("the stream is endless");
                        let key = match pick {
                            Pick::Repeat(i) => mix.repeat[i].clone(),
                            Pick::First => {
                                first_sent += 1;
                                mix.first(client, first_sent)
                            }
                            Pick::Probe(Kind::Metrics) => Key::get("/metrics", ""),
                            Pick::Probe(_) => Key::get("/healthz", ""),
                        };
                        let span =
                            trace.map(|(t, parent)| (t, t.open("serve.exchange", Some(parent))));
                        let t = Instant::now();
                        let reply = key.send(addr);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if let Some((tracer, open)) = span {
                            tracer.close(open);
                        }
                        let at = start.elapsed().as_secs_f64();
                        match reply {
                            Ok(r) if r.status == 200 => {
                                log.samples.push((at, ms));
                                log.record(pick, key, r.body);
                            }
                            _ => log.samples.push((at, f64::INFINITY)),
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (logs, start.elapsed().as_secs_f64())
}

/// Binds, starts and warms a server: every repeat key answered once,
/// `clients` at a time, as the callers' warm passes do.
fn start_warm(mix: &Mix, clients: usize) -> Running {
    let server = Running::start();
    let addr = server.addr;
    std::thread::scope(|scope| {
        for client in 0..clients {
            scope.spawn(move || {
                for key in mix.repeat.iter().skip(client).step_by(clients) {
                    match key.send(addr) {
                        Ok(r) if r.status == 200 => {}
                        other => panic!(
                            "warming {} failed: {:?}",
                            key.label(),
                            other.map(|r| r.status)
                        ),
                    }
                }
            });
        }
    });
    server
}

/// The `patterns` field of each served hot profile body.
fn profile_patterns(bodies: &[&Vec<u8>]) -> Result<Vec<f64>, String> {
    bodies
        .iter()
        .map(|b| {
            scap_obs::json::parse(&String::from_utf8_lossy(b))
                .ok()
                .and_then(|v| v.get("patterns").and_then(|p| p.as_u64()))
                .map(|n| n as f64)
                .ok_or_else(|| "a profile body has no pattern count".to_owned())
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mix = Mix::new(ctx.seed);
    let clients = ctx.threads.max(1);
    // Each set-up binds a fresh server (fresh caches) and warms it; all
    // but the last are stopped again, untimed.
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut server: Option<Running> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            old.stop();
        }
        let t = Instant::now();
        server = Some(start_warm(&mix, clients));
        times.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let setup_s = crate::stats::median(&times);
    out.set("setup_s", setup_s);
    let total: u64 = MIX.iter().map(|m| m.1).sum();
    println!(
        "  {} repeat keys ({HOT_SEEDS} profile seeds + design), {:.1} % first-time keys, {clients} closed-loop clients; setup {setup_s:.4} s",
        mix.repeat.len(),
        100.0 * count(Kind::ProfileFirst) as f64 / total as f64
    );
    let logs = if let Some(tracer) = &ctx.tracer {
        let half = ctx.seconds / 2.0;
        let (untraced, untraced_s) = drive(server.addr, &mix, clients, half, 0, None);
        let ok0 = answered(&untraced);
        let ((traced, _), phase) = traced_phase(tracer, "timed", |root| {
            drive(
                server.addr,
                &mix,
                clients,
                half,
                1_000_000,
                Some((tracer, root)),
            )
        });
        layers::from_program(
            &mut out,
            &phase.snap,
            phase.wall_s,
            phase.cpu_s,
            ctx.threads,
        );
        let ok1 = answered(&traced);
        let exchanges: Vec<_> = tracer
            .spans()
            .into_iter()
            .filter(|s| s.parent == Some(phase.root))
            .collect();
        let exchange_ms = exchanges
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum::<f64>()
            / exchanges.len().max(1) as f64;
        let (handled, handle_s) = layers::spans_with_prefix(&phase.snap, "serve.handle.");
        let handle_ms = ratio(handle_s * 1e3, handled);
        out.set("serve.exchange_ms", exchange_ms);
        out.set("serve.handle_ms", handle_ms);
        out.set("serve.http_overhead_ms", exchange_ms - handle_ms);
        let intervals: Vec<(u64, u64)> = exchanges.iter().map(|s| (s.start_ns, s.end_ns)).collect();
        let root = tracer
            .spans()
            .into_iter()
            .find(|s| s.id == phase.root)
            .expect("root span");
        out.set(
            "trace.span_share",
            crate::trace::covered_ns(&intervals, root.start_ns, root.end_ns) as f64
                / (root.end_ns - root.start_ns) as f64,
        );
        // Per-item time traced vs untraced.
        out.set(
            "obs.overhead_pct",
            ((ok0 as f64 / untraced_s) / (ok1 as f64 / phase.wall_s) - 1.0) * 100.0,
        );
        // The design build hidden inside every first-time key, called
        // directly on the hot seeds.
        let scale: f64 = SCALE.parse().expect("literal scale");
        let builds: Vec<f64> = (1..=HOT_SEEDS as u64)
            .map(|seed| {
                let t = Instant::now();
                std::hint::black_box(scap::CaseStudy::with_seed(scale, seed));
                t.elapsed().as_secs_f64()
            })
            .collect();
        out.set("core.case_study_s", crate::stats::median(&builds));
        untraced.into_iter().chain(traced).collect::<Vec<_>>()
    } else {
        let steal0 = layers::machine_steal_s();
        let (logs, wall_s) = drive(server.addr, &mix, clients, ctx.seconds, 0, None);
        let steal_s = layers::machine_steal_s() - steal0;
        let lat = latencies(&merged(&logs));
        let ok = answered(&logs);
        let tail = lat.tail();
        // A lost request has no latency; report it as the client timeout.
        let cap = |ms: f64| ms.min(CLIENT_TIMEOUT.as_secs_f64() * 1e3);
        out.set("items_per_s", ok as f64 / wall_s);
        out.set("latency_p50_ms", cap(lat.p50()));
        out.set("latency_tail_ms", cap(tail.value));
        println!(
            "  {} requests in {wall_s:.2} s: {:.0} req/s, p50 {:.3} ms, tail p{} {:.3} ms ({} beyond); machine steal {steal_s:.2} s",
            lat.len(),
            ok as f64 / wall_s,
            lat.p50(),
            tail.percentile,
            tail.value,
            tail.beyond
        );
        logs
    };
    server.stop();
    let lat = latencies(&merged(&logs));
    out.attempted = lat.len() as u64;
    out.failed = lat.failures() as u64;
    out.set(
        "coverage_pct",
        100.0 * (lat.len() - lat.failures()) as f64 / lat.len().max(1) as f64,
    );
    for log in &logs {
        out.problems.extend(log.problems.iter().cloned());
    }
    // Every client must have been served the same body per repeat key;
    // a few of them, and the first first-time keys of each client, must
    // equal a direct handler call on a fresh cache.
    let mut served: Vec<Option<&Vec<u8>>> = vec![None; mix.repeat.len()];
    for (i, key) in mix.repeat.iter().enumerate() {
        let mut bodies = logs.iter().filter_map(|l| l.repeat_bodies[i].as_ref());
        served[i] = bodies.next();
        if let Some(first) = served[i] {
            if bodies.any(|b| b != first) {
                out.fail(format!(
                    "{}: clients were served different bodies",
                    key.label()
                ));
            }
        }
    }
    let mut checked = 0;
    let sampled = (0..DIRECT_HOT_SAMPLES).chain(std::iter::once(HOT_SEEDS));
    for i in sampled {
        if let Some(body) = served[i] {
            let key = &mix.repeat[i];
            out.problems
                .extend(gate::check_body(&key.label(), body, &key.direct()));
            checked += 1;
        }
    }
    for (key, body) in logs.iter().flat_map(|l| &l.first_bodies) {
        out.problems
            .extend(gate::check_body(&key.label(), body, &key.direct()));
        checked += 1;
    }
    println!("  {checked} served bodies checked against direct handler calls");
    let hot: Vec<&Vec<u8>> = served[..HOT_SEEDS].iter().flatten().copied().collect();
    match profile_patterns(&hot) {
        Ok(counts) if !counts.is_empty() => {
            out.set("patterns", crate::stats::median(&counts));
        }
        Ok(_) => out.fail("no hot profile key was answered"),
        Err(e) => out.fail(e),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_a_function_of_the_seed() {
        let a = Mix::new(7);
        assert_eq!(a.repeat.len(), HOT_SEEDS + 1);
        assert_eq!(a.first(0, 1), Mix::new(7).first(0, 1));
        assert_ne!(a.first(0, 1), Mix::new(8).first(0, 1));
        let s1: Vec<_> = a.stream(0).take(500).collect();
        assert_eq!(s1, a.stream(0).take(500).collect::<Vec<_>>());
        assert_ne!(s1, a.stream(1).take(500).collect::<Vec<_>>());
        assert_ne!(a.first(0, 1), a.first(1, 1));
    }

    /// Over whole rounds of the callers' 972 requests the stream carries
    /// each kind in the callers' share: first-time keys exactly, the
    /// rest within sampling noise.
    #[test]
    fn the_stream_replays_the_callers_shares() {
        let total: u64 = MIX.iter().map(|m| m.1).sum();
        assert_eq!(total, 972);
        let mix = Mix::new(3);
        let rounds = 100;
        let picks: Vec<Pick> = mix.stream(0).take((rounds * total) as usize).collect();
        let share = |f: &dyn Fn(&Pick) -> bool| picks.iter().filter(|p| f(p)).count() as f64;
        assert_eq!(share(&|p| *p == Pick::First), (rounds * 40) as f64);
        let expect = |n: u64| (rounds * n) as f64;
        let near = |got: f64, want: f64| (got - want).abs() <= 4.0 * want.sqrt() + 1.0;
        let repeats = share(&|p| matches!(p, Pick::Repeat(i) if *i < HOT_SEEDS));
        assert!(near(repeats, expect(912)), "{repeats}");
        let design = share(&|p| *p == Pick::Repeat(HOT_SEEDS));
        assert!(near(design, expect(9)), "{design}");
        let health = share(&|p| *p == Pick::Probe(Kind::Healthz));
        assert!(near(health, expect(9)), "{health}");
        let metrics = share(&|p| *p == Pick::Probe(Kind::Metrics));
        assert!(near(metrics, expect(2)), "{metrics}");
        // First-time keys are evenly spaced: never more than 25 apart.
        let at: Vec<usize> = (0..picks.len())
            .filter(|&i| picks[i] == Pick::First)
            .collect();
        assert!(at.windows(2).all(|w| w[1] - w[0] <= 25));
    }

    #[test]
    fn probe_bodies_must_be_strict_json() {
        let mut log = ClientLog::default();
        log.record(
            Pick::Probe(Kind::Healthz),
            Key::get("/healthz", ""),
            b"{\"status\":\"ok\"}".to_vec(),
        );
        assert!(log.problems.is_empty());
        log.record(
            Pick::Probe(Kind::Metrics),
            Key::get("/metrics", ""),
            b"{\"a\":".to_vec(),
        );
        assert_eq!(log.problems.len(), 1);
    }

    #[test]
    fn a_repeat_body_that_changes_is_a_problem() {
        let mut log = ClientLog {
            repeat_bodies: vec![None; 2],
            ..ClientLog::default()
        };
        let key = Key::profile(5);
        log.record(Pick::Repeat(1), key.clone(), b"a".to_vec());
        log.record(Pick::Repeat(1), key.clone(), b"a".to_vec());
        assert!(log.problems.is_empty());
        log.record(Pick::Repeat(1), key, b"b".to_vec());
        assert_eq!(log.problems.len(), 1);
    }
}
