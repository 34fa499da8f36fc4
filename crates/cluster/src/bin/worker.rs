//! `scap-cluster-worker` — a standalone `scap serve` worker process.
//!
//! Exactly `scap serve` ([`scap_serve::serve_main`]: same flags, same
//! output), as a separate binary so the cluster integration tests (via
//! `CARGO_BIN_EXE_scap-cluster-worker`) and the benchmark harness can
//! spawn workers without depending on the full CLI. The one line of
//! stdout the fleet supervisor parses:
//!
//! ```text
//! scap serve listening on http://127.0.0.1:PORT
//! ```

use scap_serve::params::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    scap_serve::serve_main(&Args::parse(std::env::args().skip(1)))
}
