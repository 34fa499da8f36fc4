//! The paper's Section 2 case study: statistical IR-drop analysis
//! (Table 3), the CAP vs SCAP comparison (Table 4) and the dynamic
//! IR-drop maps of a hot and a near-threshold pattern (Figure 3).
//!
//! ```text
//! cargo run --release --example irdrop_case_study [scale]
//! ```

use scap::{experiments, flows, CaseStudy, PatternAnalyzer};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.005);
    println!("building case-study SOC at scale {scale} …");
    let study = CaseStudy::new(scale);

    // §2.2: vector-less statistical analysis, full vs half cycle.
    let t3 = experiments::table3(&study);
    println!("{}", experiments::render_table3(&study, &t3));
    let thresholds = experiments::scap_thresholds(&study);
    let b5 = study.design.block_named("B5").expect("B5 exists");
    println!(
        "SCAP screening threshold for B5 (Case 2 avg power): {:.2} mW\n",
        thresholds[b5.index()]
    );

    // §2.3–2.4: pick a high-activity conventional pattern, compare models.
    println!("running conventional random-fill ATPG …");
    let conventional = flows::conventional(&study);
    let analyzer = PatternAnalyzer::new(&study);
    let profile = analyzer.power_profile(&conventional.patterns);
    let t4 = experiments::table4(&study, &analyzer, &conventional, &profile);
    println!("{}", experiments::render_table4(&t4));

    // Figure 3: dynamic IR-drop maps of P1 (hot) and P2 (near threshold),
    // picked from the set's B5 series (Figure 2).
    let fig2 = experiments::scap_series(&profile, b5, thresholds[b5.index()]);
    let f3 = experiments::fig3(&analyzer, &conventional, &fig2);
    println!("{}", experiments::render_fig3(&study, &f3));
}
