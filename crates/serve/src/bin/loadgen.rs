//! `scap-loadgen` — burst a running `scap serve` (or `scap cluster`)
//! instance and report the status-code breakdown plus latency
//! percentiles. Used by `scripts/check.sh` for the server and cluster
//! smoke stages; handy interactively too:
//!
//! ```text
//! scap-loadgen --addr 127.0.0.1:7878 --path /v1/design --query scale=0.004 \
//!              --concurrency 8 --requests 2
//! ```
//!
//! `--seeds K` rotates the burst across K distinct generator seeds
//! (`--seed-base`, `--seed-base`+1, …) by appending `seed=N` to the
//! query string — the cluster mode: each seed is a shard key, so the
//! burst exercises the coordinator's rendezvous routing.
//!
//! Exits 0 when every connection got an HTTP verdict (any status) and
//! at least one exchange returned 200 — or, under `--require-200`, only
//! when *every* exchange returned 200; exits 1 otherwise.

use scap_serve::loadgen;
use scap_serve::params::Args;
use std::net::SocketAddr;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let text = |name: &str, default: &'static str| args.value(name).map(|v| v.unwrap_or(default));
    let (addr_raw, method, path, query, body) = match (
        text("addr", "127.0.0.1:7878"),
        text("method", "GET"),
        text("path", "/healthz"),
        text("query", ""),
        text("body", ""),
    ) {
        (Ok(a), Ok(m), Ok(p), Ok(q), Ok(b)) => (a, m, p, q, b),
        (a, m, p, q, b) => {
            for e in [a.err(), m.err(), p.err(), q.err(), b.err()]
                .into_iter()
                .flatten()
            {
                eprintln!("scap-loadgen: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let addr: SocketAddr = match addr_raw.parse() {
        Ok(a) => a,
        Err(_) => {
            eprintln!("scap-loadgen: invalid --addr '{addr_raw}'");
            return ExitCode::from(2);
        }
    };
    let require_200 = args.has("require-200");
    let (concurrency, per_thread, seeds, seed_base) = match (
        args.usize_flag("concurrency", 4),
        args.usize_flag("requests", 1),
        args.usize_flag("seeds", 0),
        args.usize_flag("seed-base", 1),
    ) {
        (Ok(c), Ok(r), Ok(s), Ok(b)) => (c, r, s, b),
        (c, r, s, b) => {
            for e in [c.err(), r.err(), s.err(), b.err()].into_iter().flatten() {
                eprintln!("scap-loadgen: {e}");
            }
            return ExitCode::from(2);
        }
    };

    let target_of = |extra: Option<u64>| {
        let mut q = query.to_owned();
        if let Some(seed) = extra {
            if !q.is_empty() {
                q.push('&');
            }
            let _ = std::fmt::Write::write_fmt(&mut q, format_args!("seed={seed}"));
        }
        if q.is_empty() {
            (path.to_owned(), body.to_owned())
        } else {
            (format!("{path}?{q}"), body.to_owned())
        }
    };
    let targets: Vec<(String, String)> = if seeds == 0 {
        vec![target_of(None)]
    } else {
        (0..seeds)
            .map(|i| target_of(Some(seed_base as u64 + i as u64)))
            .collect()
    };

    let report = loadgen::burst_targets(addr, method, &targets, concurrency, per_thread);

    let total = report.statuses.len() + report.transport_errors;
    let what = if targets.len() == 1 {
        format!("{method} {}", targets[0].0)
    } else {
        format!("{method} {path} x {} seeds", targets.len())
    };
    println!("loadgen: {total} exchanges against {what} ({concurrency} threads x {per_thread})");
    for (code, count) in report.status_breakdown() {
        println!("  {code}: {count}");
    }
    if report.transport_errors > 0 {
        println!("  transport errors: {}", report.transport_errors);
    }
    if let (Some(p50), Some(p95), Some(p99)) = (
        report.percentile_ms(50.0),
        report.percentile_ms(95.0),
        report.percentile_ms(99.0),
    ) {
        println!("  latency ms: p50 {p50:.2}  p95 {p95:.2}  p99 {p99:.2}");
    }

    let ok = if require_200 {
        report.transport_errors == 0 && report.count(200) == report.statuses.len() && total > 0
    } else {
        report.transport_errors == 0 && report.count(200) > 0
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("scap-loadgen: FAILED (errors or missing 200s)");
        ExitCode::FAILURE
    }
}
