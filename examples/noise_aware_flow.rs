//! The paper's Section 3 experiment: conventional random-fill ATPG vs the
//! staged, fill-0, per-block noise-aware procedure — coverage curves
//! (Figure 4), SCAP profiles (Figures 2 and 6) and the IR-drop-aware
//! endpoint re-timing (Figure 7).
//!
//! ```text
//! cargo run --release --example noise_aware_flow [scale]
//! ```

use scap::{experiments, flows, CaseStudy, PatternAnalyzer};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.005);
    println!("building case-study SOC at scale {scale} …");
    let study = CaseStudy::new(scale);

    println!("running conventional (random-fill) ATPG …");
    let conventional = flows::conventional(&study);
    println!("running the noise-aware staged procedure …");
    let noise_aware = flows::noise_aware(&study);
    for (label, start) in &noise_aware.steps {
        println!("  {label}: starts at pattern {start}");
    }

    println!(
        "\n{}",
        experiments::render_fig4(&conventional, &noise_aware)
    );

    // One analyzer and one SCAP profile per pattern set, screened in B5.
    let analyzer = PatternAnalyzer::new(&study);
    let b5 = study.design.block_named("B5").expect("B5 exists");
    let threshold = experiments::scap_thresholds(&study)[b5.index()];
    let series = |flow: &flows::FlowResult| {
        experiments::scap_series(&analyzer.power_profile(&flow.patterns), b5, threshold)
    };
    let fig2 = series(&conventional);
    let fig6 = series(&noise_aware);
    println!(
        "{}",
        experiments::render_scap_series("Figure 2 (random-fill B5 SCAP)", &fig2)
    );
    println!(
        "{}",
        experiments::render_scap_series("Figure 6 (noise-aware B5 SCAP)", &fig6)
    );
    println!(
        "patterns above the B5 threshold: conventional {} / noise-aware {}\n",
        fig2.above.len(),
        fig6.above.len()
    );

    let fig7 = experiments::fig7(&analyzer, &noise_aware, &fig6);
    println!("{}", experiments::render_fig7(&fig7));
}
