//! Tiny std-only HTTP client + load generator.
//!
//! The integration tests (and the `scap-loadgen` binary wired into
//! `scripts/check.sh`) exercise the server with this client rather than
//! an external tool: the build environment is offline, so `curl`-shaped
//! dependencies are out. It speaks exactly the dialect the server
//! emits — one exchange per connection, `Connection: close`,
//! `Content-Length` bodies.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response from the server.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header of this lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (panics on invalid UTF-8 — server bodies are
    /// always JSON text).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("server bodies are UTF-8")
    }
}

/// `GET path` against `addr`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<ClientResponse> {
    request(addr, "GET", path, "")
}

/// `POST path` with a `k=v&k2=v2` form body against `addr`.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<ClientResponse> {
    request(addr, "POST", path, body)
}

/// One full HTTP exchange: connect, send, read to EOF, parse.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<ClientResponse> {
    request_with_timeouts(
        addr,
        method,
        path,
        body,
        Duration::from_secs(5),
        Duration::from_secs(120),
    )
}

/// [`request`] with explicit connect/read timeouts — the cluster
/// coordinator's health prober needs much shorter ones than a client
/// willing to wait out a heavy analysis.
pub fn request_with_timeouts(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    connect_timeout: Duration,
    read_timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
    stream.set_read_timeout(Some(read_timeout))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

/// Parses one whole exchange read to EOF. A body that disagrees with a
/// declared `content-length` is rejected: a server that died between
/// writing the head and the body leaves a short body behind, and
/// passing that on as a complete answer would hide the crash (the
/// cluster coordinator fails over on the resulting transport error).
fn parse_response(raw: &[u8]) -> Option<ClientResponse> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let status: u16 = status_line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    let resp = ClientResponse {
        status,
        headers: lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_owned()))
            .collect(),
        body: raw[head_end + 4..].to_vec(),
    };
    match resp.header("content-length") {
        Some(len) if len.parse::<usize>().ok()? != resp.body.len() => None,
        _ => Some(resp),
    }
}

/// Outcome of one [`burst`]: every response (in completion order) plus
/// transport-level failures and per-exchange latencies.
#[derive(Debug, Default)]
pub struct BurstReport {
    /// Status code of every completed exchange.
    pub statuses: Vec<u16>,
    /// Bodies of the `200` responses.
    pub ok_bodies: Vec<Vec<u8>>,
    /// Connections that failed at the transport level.
    pub transport_errors: usize,
    /// Wall-clock of every completed exchange, milliseconds, in the
    /// same (completion) order as [`BurstReport::statuses`].
    pub latencies_ms: Vec<f64>,
}

impl BurstReport {
    /// How many exchanges returned this status.
    pub fn count(&self, status: u16) -> usize {
        self.statuses.iter().filter(|&&s| s == status).count()
    }

    /// Latency at percentile `p` in `[0, 100]` (nearest-rank over the
    /// completed exchanges); `None` when nothing completed.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        if self.latencies_ms.is_empty() {
            return None;
        }
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
    }

    /// `(status, count)` pairs, ascending by status.
    pub fn status_breakdown(&self) -> Vec<(u16, usize)> {
        let mut codes: Vec<u16> = self.statuses.clone();
        codes.sort_unstable();
        codes.dedup();
        codes.into_iter().map(|c| (c, self.count(c))).collect()
    }
}

/// Fires `concurrency` threads, each performing `per_thread` sequential
/// exchanges of `method path body`, and aggregates the outcomes. Every
/// connection gets *some* verdict: a status or a transport error —
/// nothing is silently lost.
pub fn burst(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    concurrency: usize,
    per_thread: usize,
) -> BurstReport {
    burst_targets(
        addr,
        method,
        &[(path.to_owned(), body.to_owned())],
        concurrency,
        per_thread,
    )
}

/// [`burst`] over a rotation of `(path, body)` targets: thread `t`
/// starts at target `t` and steps one target per exchange, so a round
/// of `concurrency ≥ targets.len()` threads has every target in flight
/// at once, and total coverage is balanced whenever
/// `concurrency × per_thread` is a multiple of `targets.len()`. This is
/// the cluster benchmark's access pattern: with K shard keys rotating
/// through, a worker set whose aggregate cache holds all K keys serves
/// at wire speed while a smaller one thrashes.
pub fn burst_targets(
    addr: SocketAddr,
    method: &str,
    targets: &[(String, String)],
    concurrency: usize,
    per_thread: usize,
) -> BurstReport {
    assert!(
        !targets.is_empty(),
        "burst_targets needs at least one target"
    );
    let handles: Vec<_> = (0..concurrency.max(1))
        .map(|t| {
            let method = method.to_owned();
            let targets = targets.to_vec();
            std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                for j in 0..per_thread.max(1) {
                    let (path, body) = &targets[(t + j) % targets.len()];
                    let start = std::time::Instant::now();
                    let result = request(addr, &method, path, body);
                    outcomes.push((result, start.elapsed()));
                }
                outcomes
            })
        })
        .collect();
    let mut report = BurstReport::default();
    for h in handles {
        for (outcome, elapsed) in h.join().expect("loadgen thread panicked") {
            match outcome {
                Ok(resp) => {
                    if resp.status == 200 {
                        report.ok_bodies.push(resp.body.clone());
                    }
                    report.statuses.push(resp.status);
                    report.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                }
                Err(_) => report.transport_errors += 1,
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_well_formed_response() {
        let raw =
            b"HTTP/1.1 503 Service Unavailable\r\nretry-after: 1\r\ncontent-length: 3\r\n\r\n{}\n";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.text(), "{}\n");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_none());
        assert!(parse_response(b"HTTP/1.1 banana\r\n\r\n").is_none());
    }

    #[test]
    fn rejects_a_body_shorter_than_its_content_length() {
        // What a worker killed between writing the head and the body
        // leaves on the wire: a 200 head promising 100 bytes, then 5.
        let truncated = b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\n{\"a\":";
        assert!(parse_response(truncated).is_none());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n").is_none());
        // The whole body parses.
        let whole = b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\n{}\n";
        assert_eq!(parse_response(whole).unwrap().text(), "{}\n");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let report = BurstReport {
            statuses: vec![200; 10],
            ok_bodies: Vec::new(),
            transport_errors: 0,
            latencies_ms: vec![10.0, 2.0, 7.0, 1.0, 9.0, 3.0, 8.0, 4.0, 6.0, 5.0],
        };
        assert_eq!(report.percentile_ms(50.0), Some(5.0));
        assert_eq!(report.percentile_ms(95.0), Some(10.0));
        assert_eq!(report.percentile_ms(99.0), Some(10.0));
        assert_eq!(report.percentile_ms(0.0), Some(1.0));
        assert_eq!(report.percentile_ms(100.0), Some(10.0));
        assert_eq!(BurstReport::default().percentile_ms(50.0), None);
    }

    #[test]
    fn status_breakdown_sorts_and_counts() {
        let report = BurstReport {
            statuses: vec![503, 200, 200, 400, 200],
            ok_bodies: Vec::new(),
            transport_errors: 1,
            latencies_ms: vec![1.0; 5],
        };
        assert_eq!(
            report.status_breakdown(),
            vec![(200, 3), (400, 1), (503, 1)]
        );
    }
}
