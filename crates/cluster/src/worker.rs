//! Worker fleet: spawning, health probing, restart with backoff, drain.
//!
//! Each worker is a child process running the `scap serve` surface
//! (the `scap-cluster-worker` binary, or `scap serve` itself) on an
//! ephemeral port. The fleet learns the port from the worker's one
//! stable stdout line — `scap serve listening on http://ADDR` — the
//! same line `scripts/check.sh` parses for single-process serving.
//!
//! Supervision is a single cycle ([`Fleet::probe_once`]) the
//! coordinator runs on a timer:
//!
//! * a worker whose process exited is marked dead immediately and
//!   scheduled for respawn after an exponential backoff
//!   ([`scap_exec::Backoff`], 250 ms doubling to 5 s);
//! * a live process failing `GET /healthz` (short timeouts)
//!   `PROBE_FAILURE_THRESHOLD` (3) times in a row is marked dead — its
//!   keys drain to their next slots in routing order until it recovers;
//! * a dead-but-running worker that answers a probe again is revived
//!   in place, caches intact.
//!
//! The request path reports its own transport failures through
//! [`Fleet::note_transport_failure`], so a crashed worker is usually
//! dead to the router before the next probe tick fires.

use scap_serve::loadgen;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long `spawn_worker` waits for the listening line before giving
/// up on a child that started but never bound.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);

/// Connect / read timeouts of a health probe — much shorter than a
/// client's, so a wedged worker cannot stall the supervision cycle.
const PROBE_CONNECT: Duration = Duration::from_millis(500);
const PROBE_READ: Duration = Duration::from_secs(2);

/// Consecutive probe or transport failures before a slot is marked
/// dead and its keys drain to their next slots.
const PROBE_FAILURE_THRESHOLD: u32 = 3;

/// Identity of one worker slot, for logs and `/metrics`.
#[derive(Clone, Debug)]
pub struct WorkerInfo {
    /// Slot index (the routing identity — stable across restarts).
    pub index: usize,
    /// OS process id of the current child, 0 when down.
    pub pid: u32,
    /// Bound address of the current child, if any.
    pub addr: Option<SocketAddr>,
    /// Whether the router currently considers the slot live.
    pub alive: bool,
    /// Times this slot has been respawned after an exit.
    pub restarts: u64,
}

struct Slot {
    proc: Option<Child>,
    addr: Option<SocketAddr>,
    alive: bool,
    failures: u32,
    backoff: scap_exec::Backoff,
    restarts: u64,
    respawn_at: Option<Instant>,
}

/// The supervised worker fleet (see module docs).
pub struct Fleet {
    command: Vec<String>,
    slots: Vec<Mutex<Slot>>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("workers", &self.slots.len())
            .finish()
    }
}

/// Spawns one worker process and waits for its listening line.
///
/// The child runs `command + ["--addr", "127.0.0.1:0"]` with stdout
/// piped; once `scap serve listening on http://ADDR` appears the
/// remaining stdout is drained (and discarded) on a background thread
/// so the child never blocks on a full pipe.
fn spawn_worker(command: &[String]) -> std::io::Result<(Child, SocketAddr)> {
    let (program, args) = command.split_first().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty worker command")
    })?;
    let mut child = Command::new(program)
        .args(args)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        // Null rather than inherited stderr: an inherited descriptor
        // would keep the parent's output pipes open for as long as any
        // worker lives, wedging shell pipelines around the coordinator.
        .stderr(Stdio::null())
        .stdin(Stdio::null())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut reader = BufReader::new(stdout);
    let started = Instant::now();
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "worker exited before announcing its address",
            ));
        }
        if let Some(raw) = line.trim().strip_prefix("scap serve listening on http://") {
            match raw.parse::<SocketAddr>() {
                Ok(a) => break a,
                Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unparseable worker address '{raw}'"),
                    ));
                }
            }
        }
        if started.elapsed() > SPAWN_TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "worker never announced its address",
            ));
        }
    };
    // Drain the rest of the child's stdout forever (it prints again at
    // drain time); the thread dies with the pipe.
    std::thread::Builder::new()
        .name("scap-cluster-stdout".to_owned())
        .spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        })
        .expect("spawning stdout drainer");
    Ok((child, addr))
}

impl Fleet {
    /// Spawns `workers` processes of `command` and waits until each has
    /// announced its address. Fails (killing what already started) if
    /// any worker cannot come up — a partially-launched fleet routes
    /// requests into a void.
    pub fn launch(command: Vec<String>, workers: usize) -> std::io::Result<Fleet> {
        let workers = workers.max(1);
        scap_obs::gauge("cluster.workers.total").set(workers as u64);
        let mut slots = Vec::with_capacity(workers);
        for _ in 0..workers {
            match spawn_worker(&command) {
                Ok((child, addr)) => {
                    scap_obs::counter!("cluster.worker.spawned").incr();
                    slots.push(Mutex::new(Slot {
                        proc: Some(child),
                        addr: Some(addr),
                        alive: true,
                        failures: 0,
                        backoff: scap_exec::Backoff::new(
                            Duration::from_millis(250),
                            Duration::from_secs(5),
                        ),
                        restarts: 0,
                        respawn_at: None,
                    }));
                }
                Err(e) => {
                    for s in &slots {
                        let mut s = lock(s);
                        if let Some(child) = s.proc.as_mut() {
                            let _ = child.kill();
                            let _ = child.wait();
                        }
                    }
                    return Err(e);
                }
            }
        }
        let fleet = Fleet { command, slots };
        fleet.update_alive_gauge();
        Ok(fleet)
    }

    /// Number of worker slots (live or not).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the fleet has no slots (never true after `launch`).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Address of slot `i` if the router currently considers it live.
    pub fn live_addr(&self, i: usize) -> Option<SocketAddr> {
        let s = lock(&self.slots[i]);
        if s.alive {
            s.addr
        } else {
            None
        }
    }

    /// Number of live slots.
    pub fn alive_count(&self) -> usize {
        (0..self.slots.len())
            .filter(|&i| lock(&self.slots[i]).alive)
            .count()
    }

    /// Snapshot of every slot, for `/metrics` and the CLI banner.
    pub fn infos(&self) -> Vec<WorkerInfo> {
        self.slots
            .iter()
            .enumerate()
            .map(|(index, s)| {
                let s = lock(s);
                WorkerInfo {
                    index,
                    pid: s.proc.as_ref().map(Child::id).unwrap_or(0),
                    addr: s.addr,
                    alive: s.alive,
                    restarts: s.restarts,
                }
            })
            .collect()
    }

    /// The request path saw a transport-level failure against slot `i`:
    /// counts toward the same consecutive-failure threshold as probes,
    /// so a crashed worker is dead to the router without waiting for
    /// the next probe tick.
    pub fn note_transport_failure(&self, i: usize) {
        let mut s = lock(&self.slots[i]);
        s.failures = s.failures.saturating_add(1);
        if s.alive && s.failures >= PROBE_FAILURE_THRESHOLD {
            s.alive = false;
            scap_obs::counter!("cluster.probe.marked_dead").incr();
        }
        drop(s);
        self.update_alive_gauge();
    }

    /// Kills slot `i`'s process outright (SIGKILL) — the failure
    /// injection the integration tests and the check.sh smoke use.
    pub fn kill(&self, i: usize) {
        let mut s = lock(&self.slots[i]);
        if let Some(child) = s.proc.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        s.proc = None;
        // Leave `alive`/`addr` untouched: the next request or probe
        // must *discover* the death, exactly like a real crash.
    }

    /// One supervision cycle over every slot: reap exits, probe
    /// `/healthz`, mark dead / revive, respawn after backoff.
    pub fn probe_once(&self) {
        for i in 0..self.slots.len() {
            self.supervise_slot(i);
        }
        self.update_alive_gauge();
    }

    fn supervise_slot(&self, i: usize) {
        let mut s = lock(&self.slots[i]);
        // 1. Reap an exited child.
        let exited = matches!(
            s.proc.as_mut().map(std::process::Child::try_wait),
            Some(Ok(Some(_)))
        );
        if exited {
            scap_obs::counter!("cluster.worker.exited").incr();
            s.proc = None;
            s.addr = None;
            if s.alive {
                s.alive = false;
                scap_obs::counter!("cluster.probe.marked_dead").incr();
            }
            let wait = s.backoff.advance();
            s.respawn_at = Some(Instant::now() + wait);
        }
        // 2. Probe a running child.
        if let Some(addr) = s.proc.as_ref().and(s.addr) {
            let ok = matches!(
                loadgen::request_with_timeouts(addr, "GET", "/healthz", "", PROBE_CONNECT, PROBE_READ),
                Ok(resp) if resp.status == 200
            );
            if ok {
                scap_obs::counter!("cluster.probe.ok").incr();
                s.failures = 0;
                if !s.alive {
                    s.alive = true;
                    s.backoff.reset();
                    scap_obs::counter!("cluster.probe.recovered").incr();
                }
            } else {
                scap_obs::counter!("cluster.probe.failures").incr();
                s.failures = s.failures.saturating_add(1);
                if s.alive && s.failures >= PROBE_FAILURE_THRESHOLD {
                    s.alive = false;
                    scap_obs::counter!("cluster.probe.marked_dead").incr();
                }
            }
        }
        // 3. Respawn a down slot whose backoff has elapsed.
        let due = s.proc.is_none() && s.respawn_at.map(|t| Instant::now() >= t).unwrap_or(true);
        if due && s.proc.is_none() {
            match spawn_worker(&self.command) {
                Ok((child, addr)) => {
                    scap_obs::counter!("cluster.worker.spawned").incr();
                    scap_obs::counter!("cluster.worker.restarts").incr();
                    s.proc = Some(child);
                    s.addr = Some(addr);
                    s.alive = true;
                    s.failures = 0;
                    s.restarts += 1;
                    s.respawn_at = None;
                    s.backoff.reset();
                }
                Err(_) => {
                    let wait = s.backoff.advance();
                    s.respawn_at = Some(Instant::now() + wait);
                }
            }
        }
    }

    /// Graceful fleet drain: `POST /v1/shutdown` to every live worker,
    /// then wait for each child (killing stragglers after `grace`).
    pub fn drain(&self, grace: Duration) {
        for s in &self.slots {
            let addr = lock(s).addr;
            if let Some(addr) = addr {
                let _ = loadgen::request_with_timeouts(
                    addr,
                    "POST",
                    "/v1/shutdown",
                    "",
                    PROBE_CONNECT,
                    PROBE_READ,
                );
            }
        }
        let deadline = Instant::now() + grace;
        for s in &self.slots {
            let mut s = lock(s);
            if let Some(child) = s.proc.as_mut() {
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(25))
                        }
                        Ok(None) | Err(_) => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
            s.proc = None;
            s.alive = false;
        }
        self.update_alive_gauge();
    }

    fn update_alive_gauge(&self) {
        scap_obs::gauge("cluster.workers.alive").set(self.alive_count() as u64);
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Last-resort cleanup: never leave orphan workers behind.
        for s in &mut self.slots {
            let s = s.get_mut().unwrap_or_else(|e| e.into_inner());
            if let Some(child) = s.proc.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

fn lock(slot: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}
