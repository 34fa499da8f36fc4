//! Resident HTTP serving layer for the SCAP pipeline.
//!
//! Every other surface of this workspace is one-shot: a `scap`
//! invocation regenerates the synthetic SOC, re-inserts scan and
//! re-runs analysis from scratch. This crate keeps the expensive state
//! resident and serves it over a zero-dependency (std-only, consistent
//! with the vendored-deps policy) HTTP/1.1 JSON API:
//!
//! | Endpoint            | What it serves                                   |
//! |---------------------|--------------------------------------------------|
//! | `GET /healthz`      | liveness (answered inline, never queued)         |
//! | `GET /metrics`      | the full `scap-obs` registry as JSON             |
//! | `GET /v1/design`    | Tables 1–2 design report                         |
//! | `POST /v1/lint`     | cross-layer design-rule check                    |
//! | `POST /v1/sta`      | nominal / IR-drop-derated slack analysis         |
//! | `POST /v1/profile`  | per-pattern SCAP + screen verdicts               |
//! | `POST /v1/schedule` | power-constrained session scheduling             |
//! | `POST /v1/shutdown` | graceful drain + exit                            |
//!
//! Three mechanisms make it hold up under concurrent traffic:
//!
//! * a **design cache** ([`cache::DesignCache`]) — LRU over built
//!   [`scap::CaseStudy`] instances keyed by `(scale, seed)`, with
//!   single-flight deduplication so N concurrent cold requests trigger
//!   exactly one build;
//! * a **response cache** ([`cache::ResponseCache`]) — LRU over
//!   rendered 200 bodies keyed by the full canonical parameter tuple
//!   (every analysis handler is pure, so repeats are answered from
//!   bytes); capacity is the `--cache-cap` flag, and the
//!   `serve.respcache.*` counters make shard-cache pressure visible to
//!   the cluster coordinator;
//! * a **bounded job pool** ([`pool::JobPool`], layered on
//!   [`scap_exec::BoundedQueue`]) — fixed workers, fixed queue depth,
//!   per-request deadlines; a full queue answers `503` +
//!   `Retry-After` (**backpressure**) instead of accepting unbounded
//!   work, a missed deadline answers `504` with the job abandoned, and
//!   a handler that panics answers `500` while its worker lives on;
//! * **graceful shutdown** — stop accepting, drain in-flight jobs,
//!   flush a final metrics snapshot (returned from [`Server::run`]).
//!
//! The cheap endpoints (`/healthz`, `/metrics`, `/v1/shutdown`) are
//! answered on the connection thread so the server stays observable
//! even when the pool is saturated.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod flow;
pub mod handlers;
pub mod http;
pub mod loadgen;
pub mod params;
pub mod pool;

pub use handlers::{lint_report, lint_report_with};

use cache::{DesignCache, ResponseCache};
use http::{read_request, ReadError, Request, Response};
use params::Args;
use pool::{JobError, JobPool};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server configuration; every knob mirrors a `scap serve` flag.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, `host:port` (port 0 picks an ephemeral port).
    pub addr: String,
    /// Pool worker threads running the heavy endpoints.
    pub workers: usize,
    /// Jobs the pool queues beyond the running ones before shedding.
    pub queue_depth: usize,
    /// Designs the LRU cache keeps resident.
    pub cache_capacity: usize,
    /// Rendered 200 responses the LRU response cache keeps resident
    /// (the `--cache-cap` flag); every analysis endpoint is pure, so a
    /// repeat request is answered from bytes.
    pub response_cache_capacity: usize,
    /// Default per-request deadline (override per request with
    /// `deadline_ms`).
    pub default_deadline: Duration,
    /// Enables the `/v1/sleep` test endpoint (integration tests only).
    pub debug_endpoints: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_owned(),
            workers: 2,
            queue_depth: 16,
            cache_capacity: 4,
            response_cache_capacity: 32,
            default_deadline: Duration::from_secs(60),
            debug_endpoints: false,
        }
    }
}

impl ServeConfig {
    /// Reads the `scap serve` flags over the [`ServeConfig::default`]
    /// values: `--addr`, `--workers`, `--queue-depth`,
    /// `--cache-capacity` (design LRU), `--cache-cap` (response LRU),
    /// `--deadline-ms` and `--debug-endpoints`.
    pub fn from_args(args: &Args) -> Result<ServeConfig, String> {
        let d = ServeConfig::default();
        let deadline_ms =
            args.usize_flag("deadline-ms", d.default_deadline.as_millis() as usize)?;
        Ok(ServeConfig {
            addr: args.value("addr")?.unwrap_or(&d.addr).to_owned(),
            workers: args.usize_flag("workers", d.workers)?,
            queue_depth: args.usize_flag("queue-depth", d.queue_depth)?,
            cache_capacity: args.usize_flag("cache-capacity", d.cache_capacity)?,
            response_cache_capacity: args.usize_flag("cache-cap", d.response_cache_capacity)?,
            default_deadline: Duration::from_millis(deadline_ms as u64),
            debug_endpoints: args.has("debug-endpoints"),
        })
    }
}

/// The `scap serve` process, shared by the `scap serve` subcommand and
/// the `scap-cluster-worker` binary: configures from
/// [`ServeConfig::from_args`], prints the one stable line tooling
/// parses for the (possibly ephemeral) port —
/// `scap serve listening on http://ADDR` — and serves until
/// `POST /v1/shutdown` drains it, printing the final metrics on the way
/// out. Exits 2 on a bad flag, 1 when binding or serving fails.
pub fn serve_main(args: &Args) -> ExitCode {
    let cfg = match ServeConfig::from_args(args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("scap serve listening on http://{}", server.local_addr());
    match server.run() {
        Ok(snapshot) => {
            println!("scap serve drained; final metrics:");
            print!("{}", scap_obs::render(&snapshot));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Signals a running [`Server`] to shut down gracefully. Clone-cheap;
/// usable from any thread (the CLI wires it to `POST /v1/shutdown`).
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Requests shutdown: the accept loop stops taking connections and
    /// drains everything in flight. Idempotent.
    pub fn signal(&self) {
        self.flag.store(true, Ordering::Release);
        // Wake a blocked `accept` with a throwaway connection; the
        // handler sees an empty request and drops it silently.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    /// Whether shutdown has been requested.
    pub fn is_signaled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

struct ServerCtx {
    cfg: ServeConfig,
    cache: Arc<DesignCache>,
    respcache: Arc<ResponseCache>,
    pool: JobPool,
    shutdown: ShutdownHandle,
    started: Instant,
}

/// The bound, not-yet-running server. [`Server::bind`] then
/// [`Server::run`]; `run` blocks until shutdown is signaled.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.local_addr())
            .finish()
    }
}

impl Server {
    /// Binds the listener and starts the worker pool. Metrics
    /// collection is enabled as a side effect: `/metrics` is part of
    /// the API contract, so the registry must be live.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        scap_obs::set_enabled(true);
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let ctx = Arc::new(ServerCtx {
            cache: Arc::new(DesignCache::new(cfg.cache_capacity)),
            respcache: Arc::new(ResponseCache::new(cfg.response_cache_capacity)),
            pool: JobPool::new(cfg.workers, cfg.queue_depth),
            shutdown: ShutdownHandle {
                flag: Arc::new(AtomicBool::new(false)),
                addr,
            },
            started: Instant::now(),
            cfg,
        });
        Ok(Server { listener, ctx })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// A handle that can signal graceful shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.ctx.shutdown.clone()
    }

    /// Serves until shutdown is signaled, then drains: in-flight
    /// connections finish, queued jobs run to completion, workers join.
    /// Returns the final metrics snapshot (the "flush").
    pub fn run(self) -> std::io::Result<scap_obs::Snapshot> {
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.ctx.shutdown.is_signaled() {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let ctx = Arc::clone(&self.ctx);
            let handle = std::thread::Builder::new()
                .name("scap-serve-conn".to_owned())
                .spawn(move || handle_connection(&ctx, stream))
                .expect("spawning connection thread");
            connections.push(handle);
            connections.retain(|h| !h.is_finished());
        }
        drop(self.listener); // stop accepting before draining
        for h in connections {
            let _ = h.join();
        }
        // All connection threads are joined, so the remaining Arc clones
        // are (at worst) mid-drop; spin briefly rather than assume.
        let mut shared = self.ctx;
        let ctx = loop {
            match Arc::try_unwrap(shared) {
                Ok(ctx) => break ctx,
                Err(still_shared) => {
                    shared = still_shared;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        ctx.pool.shutdown();
        Ok(scap_obs::snapshot())
    }
}

fn handle_connection(ctx: &ServerCtx, mut stream: TcpStream) {
    // Bound how long an idle or trickling peer can hold the thread —
    // also what lets shutdown's drain terminate.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let response = match read_request(&mut stream) {
        Ok(Some(req)) => handle_request(ctx, &req),
        Ok(None) => return, // silent close (shutdown waker, port probe)
        Err(ReadError::Io(_)) => return,
        Err(ReadError::BadRequest(msg)) => Response::error(400, msg),
        Err(ReadError::TooLarge(msg)) => Response::error(413, msg),
    };
    scap_obs::counter!("serve.responses").incr();
    match response.status / 100 {
        2 => scap_obs::counter!("serve.responses.2xx").incr(),
        4 => scap_obs::counter!("serve.responses.4xx").incr(),
        _ => scap_obs::counter!("serve.responses.5xx").incr(),
    }
    if response.status == 503 {
        scap_obs::counter!("serve.responses.503").incr();
    }
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Routes with statically-interned metric names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    Healthz,
    Metrics,
    Shutdown,
    Design,
    Lint,
    Sta,
    Profile,
    Schedule,
    Sleep,
}

impl Route {
    fn resolve(method: &str, path: &str) -> Result<Route, Response> {
        let route = match path {
            "/healthz" => Route::Healthz,
            "/metrics" => Route::Metrics,
            "/v1/shutdown" => Route::Shutdown,
            "/v1/design" => Route::Design,
            "/v1/lint" => Route::Lint,
            "/v1/sta" => Route::Sta,
            "/v1/profile" => Route::Profile,
            "/v1/schedule" => Route::Schedule,
            "/v1/sleep" => Route::Sleep,
            _ => return Err(Response::error(404, "no such endpoint")),
        };
        let expected = match route {
            Route::Healthz | Route::Metrics | Route::Design | Route::Sleep => "GET",
            Route::Shutdown | Route::Lint | Route::Sta | Route::Profile | Route::Schedule => "POST",
        };
        if method != expected {
            return Err(Response::error(405, &format!("{path} expects {expected}"))
                .with_header("allow", expected));
        }
        Ok(route)
    }

    fn request_counter(self) -> &'static str {
        match self {
            Route::Healthz => "serve.req.healthz",
            Route::Metrics => "serve.req.metrics",
            Route::Shutdown => "serve.req.shutdown",
            Route::Design => "serve.req.design",
            Route::Lint => "serve.req.lint",
            Route::Sta => "serve.req.sta",
            Route::Profile => "serve.req.profile",
            Route::Schedule => "serve.req.schedule",
            Route::Sleep => "serve.req.sleep",
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Route::Healthz => "serve.handle.healthz",
            Route::Metrics => "serve.handle.metrics",
            Route::Shutdown => "serve.handle.shutdown",
            Route::Design => "serve.handle.design",
            Route::Lint => "serve.handle.lint",
            Route::Sta => "serve.handle.sta",
            Route::Profile => "serve.handle.profile",
            Route::Schedule => "serve.handle.schedule",
            Route::Sleep => "serve.handle.sleep",
        }
    }
}

fn handle_request(ctx: &ServerCtx, req: &Request) -> Response {
    scap_obs::counter!("serve.requests").incr();
    let route = match Route::resolve(&req.method, &req.path) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    scap_obs::counter(route.request_counter()).incr();
    // Time-to-first-byte proxy: the whole handling window (the body is
    // written in one piece right after).
    let _span = scap_obs::Span::enter(scap_obs::span_stats(route.span_name()));
    let args = Args::from_request(&req.query, req.body_str());
    match route {
        Route::Healthz => healthz(ctx),
        Route::Metrics => Response::json(200, scap_obs::render_json(&scap_obs::snapshot())),
        Route::Shutdown => {
            ctx.shutdown.signal();
            let mut obj = scap_obs::json::Obj::new();
            obj.bool("shutting_down", true);
            Response::json(200, obj.finish())
        }
        Route::Sleep if !ctx.cfg.debug_endpoints => Response::error(404, "no such endpoint"),
        Route::Design
        | Route::Lint
        | Route::Sta
        | Route::Profile
        | Route::Schedule
        | Route::Sleep => pooled(ctx, route, &args),
    }
}

fn healthz(ctx: &ServerCtx) -> Response {
    let mut obj = scap_obs::json::Obj::new();
    obj.str("status", "ok")
        .u64("uptime_ms", ctx.started.elapsed().as_millis() as u64)
        .u64("queue_depth", ctx.pool.queue_len() as u64)
        .u64("cached_designs", ctx.cache.len() as u64)
        .u64("cached_responses", ctx.respcache.len() as u64);
    Response::json(200, obj.finish())
}

/// Validates parameters on the connection thread (a `400` must be fast
/// even when the pool is saturated), then admits the heavy body to the
/// pool — or sheds it with `503` + `Retry-After` when the queue is
/// full.
fn pooled(ctx: &ServerCtx, route: Route, args: &Args) -> Response {
    let deadline = match deadline_of(args, ctx.cfg.default_deadline) {
        Ok(d) => d,
        Err(msg) => return Response::error(400, &msg),
    };
    let cache = Arc::clone(&ctx.cache);
    let rc = Arc::clone(&ctx.respcache);
    // Analysis handlers are pure functions of their parameters, so each
    // runs behind the response cache under its canonical key; `/v1/sleep`
    // is the one pooled endpoint with a side effect (time) and skips it.
    let job: Box<dyn FnOnce() -> Response + Send> = match route {
        Route::Design => match handlers::DesignParams::parse(args) {
            Ok(p) => {
                let key = p.cache_key();
                Box::new(move || rc.get_or_respond(key, || handlers::design(&cache, &p)))
            }
            Err(msg) => return Response::error(400, &msg),
        },
        Route::Lint => match handlers::LintParams::parse(args) {
            Ok(p) => {
                let key = p.cache_key();
                Box::new(move || rc.get_or_respond(key, || handlers::lint(&cache, &p)))
            }
            Err(msg) => return Response::error(400, &msg),
        },
        Route::Sta => match handlers::StaParams::parse(args) {
            Ok(p) => {
                let key = p.cache_key();
                Box::new(move || rc.get_or_respond(key, || handlers::sta(&cache, &p)))
            }
            Err(msg) => return Response::error(400, &msg),
        },
        Route::Profile => match handlers::ProfileParams::parse(args) {
            Ok(p) => {
                let key = p.cache_key();
                Box::new(move || rc.get_or_respond(key, || handlers::profile(&cache, &p)))
            }
            Err(msg) => return Response::error(400, &msg),
        },
        Route::Schedule => match handlers::ScheduleParams::parse(args) {
            Ok(p) => {
                let key = p.cache_key();
                Box::new(move || rc.get_or_respond(key, || handlers::schedule(&cache, &p)))
            }
            Err(msg) => return Response::error(400, &msg),
        },
        Route::Sleep => match handlers::SleepParams::parse(args) {
            Ok(p) => Box::new(move || handlers::sleep(&p)),
            Err(msg) => return Response::error(400, &msg),
        },
        Route::Healthz | Route::Metrics | Route::Shutdown => {
            unreachable!("inline routes never reach the pool")
        }
    };
    match ctx.pool.try_submit(job) {
        Ok(handle) => match handle.wait_timeout(deadline) {
            Ok(response) => response,
            Err(JobError::TimedOut) => {
                Response::error(504, "deadline exceeded; partial work dropped")
            }
            Err(JobError::Panicked) => Response::error(500, "internal error: the handler panicked"),
        },
        Err(pool::Busy) => {
            Response::error(503, "job queue full; retry later").with_header("retry-after", "1")
        }
    }
}

fn deadline_of(args: &Args, default: Duration) -> Result<Duration, String> {
    let Some(raw) = args.value("deadline_ms")? else {
        return Ok(default);
    };
    match raw.parse::<u64>() {
        Ok(ms) if ms >= 1 => Ok(Duration::from_millis(ms)),
        _ => Err(format!(
            "deadline_ms expects a positive integer, got '{raw}'"
        )),
    }
}
