//! Shared fixtures for the `kernels` micro-benchmarks.
//!
//! The paper's tables and figures are regenerated by the `evaluation`
//! binary (`cargo run --release -p scap-bench --bin evaluation [scale]`),
//! which also writes `BENCH_evaluation.json`; the criterion benches here
//! only time individual kernels. The case study and the conventional
//! flow are expensive, so they are built once per process and shared.
//!
//! The design scale defaults to `0.01` (≈230 flops); set
//! `SCAP_BENCH_SCALE` to time the kernels on a larger design (e.g.
//! `SCAP_BENCH_SCALE=0.05`).

use scap::flows::{self, FlowResult};
use scap::CaseStudy;
use std::sync::OnceLock;

/// The benchmark design scale (`SCAP_BENCH_SCALE`, default 0.01).
pub fn bench_scale() -> f64 {
    std::env::var("SCAP_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01)
}

/// The shared case study.
pub fn study() -> &'static CaseStudy {
    static STUDY: OnceLock<CaseStudy> = OnceLock::new();
    STUDY.get_or_init(|| {
        let scale = bench_scale();
        eprintln!("[scap-bench] building case-study SOC at scale {scale}");
        CaseStudy::new(scale)
    })
}

/// The shared conventional (random-fill) flow result.
pub fn conventional() -> &'static FlowResult {
    static CONV: OnceLock<FlowResult> = OnceLock::new();
    CONV.get_or_init(|| {
        eprintln!("[scap-bench] running conventional random-fill ATPG …");
        flows::conventional(study())
    })
}
