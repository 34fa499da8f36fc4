//! The coordinator: a thin std-only HTTP proxy in front of the fleet.
//!
//! Request lifecycle:
//!
//! 1. parse the request with the same `scap_serve::http` reader the
//!    workers use;
//! 2. answer `/healthz`, `/metrics` and `/v1/shutdown` locally;
//! 3. for everything else, compute the shard key from the request's
//!    `(scale, seed)` (the same canonical parameters the workers
//!    validate) and forward on the connection thread, walking the
//!    key's rendezvous order restricted to live slots;
//! 4. **failover**: a transport error or gateway-shaped status
//!    (`500`/`502`, plus `503` sheds) moves on to the next live slot,
//!    each slot tried at most once per request; only when every
//!    candidate has failed does the client see a `502`.
//!
//! `/metrics` aggregation scrapes every live worker, sums counters and
//! span statistics, takes the max of gauges (capacities and queue
//! depths are per-process facts), folds in the coordinator's own
//! registry (the `cluster.*` family lives here), and appends a
//! `cluster` object describing per-worker liveness.

use crate::hash::{fnv1a64, Ring};
use crate::worker::{Fleet, WorkerInfo};
use scap_serve::http::{read_request, ReadError, Request, Response};
use scap_serve::loadgen::{self, ClientResponse};
use scap_serve::params::Args;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Forward-leg connect timeout (workers are local processes).
const FORWARD_CONNECT: Duration = Duration::from_secs(2);
/// Forward-leg read timeout — generous: heavy analyses are legitimate.
const FORWARD_READ: Duration = Duration::from_secs(120);
/// How long the fleet gets to drain before stragglers are killed.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Coordinator configuration; every knob mirrors a `scap cluster` flag.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Coordinator listen address (`host:port`, port 0 = ephemeral).
    pub addr: String,
    /// Worker processes to spawn.
    pub workers: usize,
    /// Worker argv; the fleet appends `--addr 127.0.0.1:0`. The binary
    /// must print `scap serve listening on http://ADDR` once bound.
    pub worker_command: Vec<String>,
    /// Supervision cycle period (probe + respawn cadence).
    pub probe_interval: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            addr: "127.0.0.1:7900".to_owned(),
            workers: 2,
            worker_command: Vec::new(),
            probe_interval: Duration::from_millis(500),
        }
    }
}

struct ClusterCtx {
    fleet: Fleet,
    ring: Ring,
    /// Set once shutdown is requested; the accept loop and the prober
    /// poll it.
    shutting_down: AtomicBool,
    addr: SocketAddr,
    started: Instant,
}

impl ClusterCtx {
    /// Requests shutdown: stop accepting, drain the fleet. Idempotent.
    fn signal_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        // Wake a blocked `accept` with a throwaway connection; the
        // handler sees an empty request and drops it silently.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }
}

/// The bound, fleet-launched, not-yet-serving coordinator.
/// [`Coordinator::launch`] then [`Coordinator::run`]; `run` blocks
/// until shutdown is signaled, then drains the fleet.
pub struct Coordinator {
    listener: TcpListener,
    ctx: Arc<ClusterCtx>,
    prober: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("addr", &self.local_addr())
            .field("workers", &self.ctx.fleet.len())
            .finish()
    }
}

impl Coordinator {
    /// Spawns the fleet, binds the listener, starts the supervision
    /// thread. Metrics collection is enabled as a side effect
    /// (`/metrics` is part of the API contract).
    pub fn launch(cfg: ClusterConfig) -> std::io::Result<Coordinator> {
        scap_obs::set_enabled(true);
        intern_counter_families();
        let fleet = Fleet::launch(cfg.worker_command.clone(), cfg.workers)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let ring = Ring::new(fleet.len());
        let ctx = Arc::new(ClusterCtx {
            fleet,
            ring,
            shutting_down: AtomicBool::new(false),
            addr,
            started: Instant::now(),
        });
        let probe_interval = cfg.probe_interval;
        let prober = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("scap-cluster-probe".to_owned())
                .spawn(move || {
                    while !ctx.is_shutting_down() {
                        ctx.fleet.probe_once();
                        // Sleep in short steps so shutdown is prompt
                        // even under long probe intervals.
                        let until = Instant::now() + probe_interval;
                        while Instant::now() < until && !ctx.is_shutting_down() {
                            std::thread::sleep(Duration::from_millis(25));
                        }
                    }
                })
                .expect("spawning probe thread")
        };
        Ok(Coordinator {
            listener,
            ctx,
            prober: Some(prober),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// The clone-cheap control handle, usable from any thread after
    /// [`Coordinator::run`] has consumed `self`: the CLI reads the fleet
    /// banner from it, the integration tests inject worker crashes and
    /// watch recovery, and any holder can request shutdown.
    pub fn controller(&self) -> ClusterController {
        ClusterController {
            ctx: Arc::clone(&self.ctx),
        }
    }

    /// Serves until shutdown is signaled, then drains the fleet and
    /// returns the coordinator's final metrics snapshot.
    pub fn run(mut self) -> std::io::Result<scap_obs::Snapshot> {
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.ctx.is_shutting_down() {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let ctx = Arc::clone(&self.ctx);
            let handle = std::thread::Builder::new()
                .name("scap-cluster-conn".to_owned())
                .spawn(move || handle_connection(&ctx, stream))
                .expect("spawning connection thread");
            connections.push(handle);
            connections.retain(|h| !h.is_finished());
        }
        drop(self.listener);
        for h in connections {
            let _ = h.join();
        }
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        self.ctx.fleet.drain(DRAIN_GRACE);
        Ok(scap_obs::snapshot())
    }
}

/// Clone-cheap control view of a running cluster (see
/// [`Coordinator::controller`]).
#[derive(Clone)]
pub struct ClusterController {
    ctx: Arc<ClusterCtx>,
}

impl std::fmt::Debug for ClusterController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterController")
            .field("workers", &self.ctx.fleet.len())
            .finish()
    }
}

impl ClusterController {
    /// Snapshot of every worker slot.
    pub fn worker_infos(&self) -> Vec<WorkerInfo> {
        self.ctx.fleet.infos()
    }

    /// Kills worker `i`'s process outright (failure injection); the
    /// router discovers the death like a crash.
    pub fn kill_worker(&self, i: usize) {
        self.ctx.fleet.kill(i);
    }

    /// Number of slots the router currently considers live.
    pub fn alive_workers(&self) -> usize {
        self.ctx.fleet.alive_count()
    }

    /// Requests graceful shutdown: the coordinator stops accepting and
    /// [`Coordinator::run`] returns once the fleet has drained.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.ctx.signal_shutdown();
    }
}

/// Interns the whole `cluster.*` counter family at startup so the
/// first `/metrics` scrape echoes every name, zeros included.
fn intern_counter_families() {
    for name in [
        "cluster.route.requests",
        "cluster.route.handoffs",
        "cluster.failover.reroutes",
        "cluster.failover.shed_retries",
        "cluster.failover.recovered",
        "cluster.probe.ok",
        "cluster.probe.failures",
        "cluster.probe.marked_dead",
        "cluster.probe.recovered",
        "cluster.worker.spawned",
        "cluster.worker.exited",
        "cluster.worker.restarts",
    ] {
        scap_obs::counter(name);
    }
    scap_obs::gauge("cluster.workers.total");
    scap_obs::gauge("cluster.workers.alive");
}

fn handle_connection(ctx: &ClusterCtx, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let response = match read_request(&mut stream) {
        Ok(Some(req)) => handle_request(ctx, &req),
        Ok(None) => return, // silent close (shutdown waker, port probe)
        Err(ReadError::Io(_)) => return,
        Err(ReadError::BadRequest(msg)) => Response::error(400, msg),
        Err(ReadError::TooLarge(msg)) => Response::error(413, msg),
    };
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn handle_request(ctx: &ClusterCtx, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(ctx),
        ("GET", "/metrics") => aggregate_metrics(ctx),
        ("POST", "/v1/shutdown") => {
            ctx.signal_shutdown();
            let mut obj = scap_obs::json::Obj::new();
            obj.bool("shutting_down", true);
            Response::json(200, obj.finish())
        }
        _ => forward(ctx, req),
    }
}

fn healthz(ctx: &ClusterCtx) -> Response {
    let mut obj = scap_obs::json::Obj::new();
    obj.str("status", "ok")
        .str("role", "coordinator")
        .u64("uptime_ms", ctx.started.elapsed().as_millis() as u64)
        .u64("workers_total", ctx.fleet.len() as u64)
        .u64("workers_alive", ctx.fleet.alive_count() as u64);
    Response::json(200, obj.finish())
}

/// The shard key of a request: `(scale, seed)` when both parse (the
/// overwhelmingly common case — defaults included), else a hash of the
/// raw parameter text so malformed requests still route *somewhere*
/// deterministic and come back with the worker's own `400`.
fn shard_key_of(req: &Request) -> u64 {
    let args = Args::from_request(&req.query, req.body_str());
    match (args.scale(), args.seed()) {
        (Ok(scale), Ok(seed)) => Ring::shard_key(scale, seed),
        _ => {
            let mut raw = req.query.clone().into_bytes();
            raw.extend_from_slice(&req.body);
            fnv1a64(&raw)
        }
    }
}

/// Statuses that indicate the *worker* (not the request) is in trouble
/// and the next live slot deserves a try. `504` passes through: the
/// deadline is a property of the request, not the worker.
fn retryable(status: u16) -> bool {
    matches!(status, 500 | 502 | 503)
}

fn to_response(upstream: ClientResponse) -> Response {
    let mut resp = Response::json(upstream.status, "");
    if let Some(v) = upstream.header("retry-after") {
        resp = resp.with_header("retry-after", v);
    }
    resp.body = upstream.body;
    resp
}

/// Forwards `req` to the live slots in the key's routing order, one at
/// a time, until one answers with a status the client should see (see
/// the module docs for the failover rules).
fn forward(ctx: &ClusterCtx, req: &Request) -> Response {
    scap_obs::counter!("cluster.route.requests").incr();
    let order = ctx.ring.order(shard_key_of(req));
    let candidates: Vec<(usize, SocketAddr)> = order
        .iter()
        .filter_map(|&slot| ctx.fleet.live_addr(slot).map(|a| (slot, a)))
        .collect();
    let Some(&(first_slot, _)) = candidates.first() else {
        return Response::error(503, "no live workers").with_header("retry-after", "1");
    };
    if first_slot != order[0] {
        // The owner is dead: its keys are handed to the next slot.
        scap_obs::counter!("cluster.route.handoffs").incr();
    }

    let target = if req.query.is_empty() {
        req.path.clone()
    } else {
        format!("{}?{}", req.path, req.query)
    };
    let body = String::from_utf8_lossy(&req.body);
    let mut had_failure = false;
    for (i, &(slot, addr)) in candidates.iter().enumerate() {
        let last = i + 1 == candidates.len();
        match loadgen::request_with_timeouts(
            addr,
            &req.method,
            &target,
            &body,
            FORWARD_CONNECT,
            FORWARD_READ,
        ) {
            Ok(resp) if retryable(resp.status) && !last => {
                if resp.status == 503 {
                    scap_obs::counter!("cluster.failover.shed_retries").incr();
                } else {
                    scap_obs::counter!("cluster.failover.reroutes").incr();
                }
                had_failure = true;
            }
            Ok(resp) => {
                if resp.status == 200 && had_failure {
                    scap_obs::counter!("cluster.failover.recovered").incr();
                }
                return to_response(resp);
            }
            Err(_) => {
                ctx.fleet.note_transport_failure(slot);
                had_failure = true;
                if !last {
                    scap_obs::counter!("cluster.failover.reroutes").incr();
                }
            }
        }
    }
    Response::error(502, "every live worker failed this request")
}

/// One worker's parsed `/metrics` folded into the running aggregate.
#[derive(Default)]
struct Aggregate {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    float_gauges: BTreeMap<String, f64>,
    spans: BTreeMap<String, (u64, u64)>,
}

impl Aggregate {
    fn add_counter(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += v;
    }

    fn max_gauge(&mut self, name: &str, v: u64) {
        let slot = self.gauges.entry(name.to_owned()).or_insert(0);
        *slot = (*slot).max(v);
    }

    fn max_float_gauge(&mut self, name: &str, v: f64) {
        let slot = self.float_gauges.entry(name.to_owned()).or_insert(0.0);
        *slot = slot.max(v);
    }

    fn add_span(&mut self, name: &str, count: u64, total_ns: u64) {
        let slot = self.spans.entry(name.to_owned()).or_insert((0, 0));
        slot.0 += count;
        slot.1 += total_ns;
    }

    /// Folds one worker's strict-JSON `/metrics` document in. Returns
    /// `false` (leaving the aggregate untouched for the unparsed
    /// remainder) when the document is not the expected shape.
    fn merge_json(&mut self, text: &str) -> bool {
        let Ok(doc) = scap_obs::json::parse(text) else {
            return false;
        };
        if let Some(counters) = doc.get("counters").and_then(|v| v.as_obj()) {
            for (name, v) in counters {
                if let Some(v) = v.as_u64() {
                    self.add_counter(name, v);
                }
            }
        }
        if let Some(gauges) = doc.get("gauges").and_then(|v| v.as_obj()) {
            for (name, v) in gauges {
                if let Some(v) = v.as_u64() {
                    self.max_gauge(name, v);
                }
            }
        }
        if let Some(fgauges) = doc.get("float_gauges").and_then(|v| v.as_obj()) {
            for (name, v) in fgauges {
                if let Some(v) = v.as_f64() {
                    self.max_float_gauge(name, v);
                }
            }
        }
        if let Some(spans) = doc.get("spans").and_then(|v| v.as_obj()) {
            for (name, v) in spans {
                if let (Some(count), Some(total_ns)) = (
                    v.get("count").and_then(|c| c.as_u64()),
                    v.get("total_ns").and_then(|t| t.as_u64()),
                ) {
                    self.add_span(name, count, total_ns);
                }
            }
        }
        true
    }

    /// Folds the coordinator's own registry in (the `cluster.*`
    /// family, plus anything else this process recorded).
    fn merge_local(&mut self, snap: &scap_obs::Snapshot) {
        for &(name, v) in &snap.counters {
            self.add_counter(name, v);
        }
        for &(name, v) in &snap.gauges {
            self.max_gauge(name, v);
        }
        for &(name, v) in &snap.float_gauges {
            self.max_float_gauge(name, v);
        }
        for &(name, s) in &snap.spans {
            self.add_span(name, s.count, s.total_ns);
        }
    }

    fn render(&self, cluster: &str) -> String {
        let mut counters = scap_obs::json::Obj::new();
        for (name, v) in &self.counters {
            counters.u64(name, *v);
        }
        let mut gauges = scap_obs::json::Obj::new();
        for (name, v) in &self.gauges {
            gauges.u64(name, *v);
        }
        let mut fgauges = scap_obs::json::Obj::new();
        for (name, v) in &self.float_gauges {
            fgauges.f64(name, *v);
        }
        let mut spans = scap_obs::json::Obj::new();
        for (name, (count, total_ns)) in &self.spans {
            let mut span = scap_obs::json::Obj::new();
            span.u64("count", *count).u64("total_ns", *total_ns);
            spans.raw(name, &span.finish());
        }
        let mut doc = scap_obs::json::Obj::new();
        doc.raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .raw("float_gauges", &fgauges.finish())
            .raw("spans", &spans.finish())
            .raw("cluster", cluster);
        doc.finish()
    }
}

fn aggregate_metrics(ctx: &ClusterCtx) -> Response {
    let mut agg = Aggregate::default();
    let infos = ctx.fleet.infos();
    let mut per_worker = scap_obs::json::Arr::new();
    for info in &infos {
        let mut scraped = false;
        if info.alive {
            if let Some(addr) = info.addr {
                if let Ok(resp) = loadgen::request_with_timeouts(
                    addr,
                    "GET",
                    "/metrics",
                    "",
                    FORWARD_CONNECT,
                    Duration::from_secs(10),
                ) {
                    if resp.status == 200 {
                        scraped = agg.merge_json(resp.text());
                    }
                }
            }
        }
        let mut w = scap_obs::json::Obj::new();
        w.u64("index", info.index as u64)
            .str(
                "addr",
                &info
                    .addr
                    .map(|a| a.to_string())
                    .unwrap_or_else(|| "-".to_owned()),
            )
            .bool("alive", info.alive)
            .u64("restarts", info.restarts)
            .bool("scraped", scraped);
        per_worker.raw(&w.finish());
    }
    agg.merge_local(&scap_obs::snapshot());
    let mut cluster = scap_obs::json::Obj::new();
    cluster
        .u64("workers_total", ctx.fleet.len() as u64)
        .u64("workers_alive", ctx.fleet.alive_count() as u64)
        .raw("per_worker", &per_worker.finish());
    Response::json(200, agg.render(&cluster.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_sums_counters_and_maxes_gauges() {
        let mut agg = Aggregate::default();
        let worker = |hits: u64, cap: u64, ns: u64| {
            format!(
                "{{\"counters\":{{\"serve.cache.hits\":{hits}}},\
                 \"gauges\":{{\"serve.cache.capacity\":{cap}}},\
                 \"float_gauges\":{{}},\
                 \"spans\":{{\"serve.handle.design\":{{\"count\":1,\"total_ns\":{ns}}}}}}}"
            )
        };
        assert!(agg.merge_json(&worker(3, 4, 100)));
        assert!(agg.merge_json(&worker(5, 8, 250)));
        assert_eq!(agg.counters["serve.cache.hits"], 8);
        assert_eq!(agg.gauges["serve.cache.capacity"], 8);
        assert_eq!(agg.spans["serve.handle.design"], (2, 350));

        // The rendered aggregate is itself strict JSON.
        let rendered = agg.render("{\"workers_total\":2}");
        let doc = scap_obs::json::parse(&rendered).expect("aggregate renders strict JSON");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("serve.cache.hits"))
                .and_then(|v| v.as_u64()),
            Some(8)
        );
        assert_eq!(
            doc.get("cluster")
                .and_then(|c| c.get("workers_total"))
                .and_then(|v| v.as_u64()),
            Some(2)
        );
    }

    #[test]
    fn malformed_worker_documents_are_rejected() {
        let mut agg = Aggregate::default();
        assert!(!agg.merge_json("not json"));
        assert!(agg.counters.is_empty());
    }

    #[test]
    fn retryable_covers_gateway_shaped_statuses_only() {
        assert!(retryable(500));
        assert!(retryable(502));
        assert!(retryable(503));
        assert!(!retryable(200));
        assert!(!retryable(400));
        assert!(!retryable(404));
        assert!(!retryable(504), "deadlines are request-scoped");
    }
}
