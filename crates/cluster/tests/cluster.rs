//! End-to-end tests of the cluster tier: a real coordinator in-process,
//! real `scap-cluster-worker` child processes on ephemeral ports.
//!
//! The `cluster.*` counters live in this (coordinator) process, so the
//! tests that assert on deltas take the `serial()` lock. Scales stay
//! tiny — the CI machine usually has a single CPU and every worker is
//! a full OS process.

use scap_cluster::{ClusterConfig, ClusterController, Coordinator, Ring};
use scap_serve::loadgen;
use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SCALE: &str = "0.003";

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_command() -> Vec<String> {
    [
        env!("CARGO_BIN_EXE_scap-cluster-worker"),
        "--workers",
        "2",
        "--cache-cap",
        "16",
    ]
    .map(str::to_owned)
    .to_vec()
}

struct Cluster {
    addr: SocketAddr,
    control: ClusterController,
    join: JoinHandle<scap_obs::Snapshot>,
}

fn boot(cfg: ClusterConfig) -> Cluster {
    let coordinator = Coordinator::launch(ClusterConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..cfg
    })
    .expect("launching the cluster");
    let addr = coordinator.local_addr();
    let control = coordinator.controller();
    let join = std::thread::spawn(move || coordinator.run().expect("coordinator run"));
    Cluster {
        addr,
        control,
        join,
    }
}

fn stop(c: Cluster) -> scap_obs::Snapshot {
    c.control.shutdown();
    c.join.join().expect("coordinator thread panicked")
}

#[test]
fn routes_the_full_surface_and_aggregates_metrics() {
    let _guard = serial();
    let before = scap_obs::snapshot();
    let c = boot(ClusterConfig {
        workers: 2,
        worker_command: worker_command(),
        ..ClusterConfig::default()
    });

    // Coordinator-local health, never forwarded.
    let health = loadgen::get(c.addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"role\":\"coordinator\""));
    assert!(health.text().contains("\"workers_alive\":2"));

    // Distinct seeds spread over the fleet; identical requests answer
    // byte-for-byte identically regardless of which worker owns them.
    let mut bodies = Vec::new();
    for seed in 1..=4u64 {
        let path = format!("/v1/design?scale={SCALE}&seed={seed}");
        let r1 = loadgen::get(c.addr, &path).unwrap();
        assert_eq!(r1.status, 200, "body: {}", r1.text());
        let r2 = loadgen::get(c.addr, &path).unwrap();
        assert_eq!(
            r1.body, r2.body,
            "repeat of seed {seed} must be byte-identical"
        );
        bodies.push(r1.body);
    }
    // …and the cluster answers exactly what a single-process server
    // answers for the same parameters (proxying changes nothing).
    let solo = scap_serve::Server::bind(scap_serve::ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..scap_serve::ServeConfig::default()
    })
    .expect("binding the reference server");
    let solo_addr = solo.local_addr();
    let solo_shutdown = solo.shutdown_handle();
    let solo_join = std::thread::spawn(move || solo.run().expect("solo run"));
    for (i, seed) in (1..=4u64).enumerate() {
        let r = loadgen::get(solo_addr, &format!("/v1/design?scale={SCALE}&seed={seed}")).unwrap();
        assert_eq!(
            r.body, bodies[i],
            "cluster and solo disagree on seed {seed}"
        );
    }
    solo_shutdown.signal();
    solo_join.join().unwrap();

    // POST endpoints forward with their bodies intact.
    let r = loadgen::post(c.addr, "/v1/lint", &format!("scale={SCALE}&seed=3")).unwrap();
    assert_eq!(r.status, 200, "body: {}", r.text());
    assert!(r.text().contains("\"lint\":{"));

    // Worker errors pass through untouched.
    let r = loadgen::get(c.addr, "/v1/design?scale=2.0").unwrap();
    assert_eq!(r.status, 400);
    let r = loadgen::get(c.addr, "/v1/nope").unwrap();
    assert_eq!(r.status, 404);

    // The aggregated /metrics is strict JSON carrying worker counters,
    // coordinator counters and the per-worker cluster object.
    let metrics = loadgen::get(c.addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let doc = scap_obs::json::parse(metrics.text()).expect("aggregated metrics parse strictly");
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    assert!(counter("serve.requests") >= 10, "workers saw the traffic");
    assert!(counter("cluster.route.requests") >= 10);
    assert_eq!(
        doc.get("cluster")
            .and_then(|cl| cl.get("workers_total"))
            .and_then(|v| v.as_u64()),
        Some(2)
    );
    let per_worker = doc
        .get("cluster")
        .and_then(|cl| cl.get("per_worker"))
        .and_then(|v| v.as_arr())
        .expect("per_worker array");
    assert_eq!(per_worker.len(), 2);
    for w in per_worker {
        assert!(
            matches!(w.get("alive"), Some(scap_obs::json::Value::Bool(true))),
            "both workers should be alive in the scrape"
        );
        assert!(
            matches!(w.get("scraped"), Some(scap_obs::json::Value::Bool(true))),
            "both live workers should have been scraped"
        );
    }

    let snap = stop(c);
    let delta = |name: &str| snap.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert!(delta("cluster.route.requests") >= 10);
    assert_eq!(delta("cluster.worker.spawned"), 2);
}

#[test]
fn killing_a_worker_mid_burst_loses_no_client_requests() {
    let _guard = serial();
    let before = scap_obs::snapshot();
    let c = boot(ClusterConfig {
        workers: 2,
        worker_command: worker_command(),
        // Probes far apart: the *request path* must discover the death
        // and fail over — deterministically exercising the reroute
        // counters rather than racing the prober.
        probe_interval: Duration::from_secs(120),
        ..ClusterConfig::default()
    });

    // Pick seeds that provably span both workers (the same router the
    // coordinator uses), so killing worker 0 actually cuts into the
    // burst's key set.
    let scale: f64 = SCALE.parse().unwrap();
    let ring = Ring::new(2);
    let mut seeds: Vec<u64> = Vec::new();
    let mut quota = [2usize; 2];
    for seed in 1..10_000u64 {
        let owner = ring.owner(Ring::shard_key(scale, seed));
        if quota[owner] > 0 {
            quota[owner] -= 1;
            seeds.push(seed);
        }
        if seeds.len() == 4 {
            break;
        }
    }
    assert_eq!(seeds.len(), 4, "no balanced seed set below 10000");

    // Warm every shard so the burst is cheap and fast.
    let targets: Vec<(String, String)> = seeds
        .iter()
        .map(|seed| {
            (
                format!("/v1/design?scale={SCALE}&seed={seed}"),
                String::new(),
            )
        })
        .collect();
    let warm = loadgen::burst_targets(c.addr, "GET", &targets, 4, 1);
    assert_eq!(warm.transport_errors, 0);
    assert_eq!(warm.count(200), 4);

    // Kill one worker, then burst straight through the outage window.
    c.control.kill_worker(0);
    let report = loadgen::burst_targets(c.addr, "GET", &targets, 4, 4);
    assert_eq!(
        report.transport_errors, 0,
        "clients must never see transport failures"
    );
    assert_eq!(
        report.count(200),
        16,
        "every client request must succeed; statuses: {:?}",
        report.statuses
    );

    let snap = stop(c);
    let delta = |name: &str| snap.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert!(
        delta("cluster.failover.reroutes") > 0,
        "the dead worker's requests must have been rerouted"
    );
    assert!(
        delta("cluster.failover.recovered") > 0,
        "rerouted requests must have succeeded on the successor"
    );
}

#[test]
fn a_crashed_worker_is_respawned_with_backoff() {
    let _guard = serial();
    let before = scap_obs::snapshot();
    let c = boot(ClusterConfig {
        workers: 2,
        worker_command: worker_command(),
        probe_interval: Duration::from_millis(50),
        ..ClusterConfig::default()
    });
    assert_eq!(c.control.alive_workers(), 2);

    c.control.kill_worker(1);
    let t = Instant::now();
    loop {
        let infos = c.control.worker_infos();
        if c.control.alive_workers() == 2 && infos[1].restarts >= 1 && infos[1].pid != 0 {
            break;
        }
        assert!(
            t.elapsed() < Duration::from_secs(20),
            "worker 1 was never respawned: {infos:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // The respawned worker serves its shard again.
    let r = loadgen::get(c.addr, &format!("/v1/design?scale={SCALE}&seed=9")).unwrap();
    assert_eq!(r.status, 200);

    let snap = stop(c);
    let delta = |name: &str| snap.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert!(delta("cluster.worker.restarts") >= 1);
    assert_eq!(
        delta("cluster.worker.spawned"),
        delta("cluster.worker.restarts") + 2
    );
}
