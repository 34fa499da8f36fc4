//! Quickstart: generate a small SOC, run noise-aware ATPG, report SCAP.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use scap::experiments;
use scap::{flows, CaseStudy, PatternAnalyzer};

fn main() {
    // A seeded, deterministic instance of the Turbo-Eagle-style case-study
    // SOC at 0.5 % of the paper's size — small enough to run in seconds.
    let study = CaseStudy::small();
    let report = experiments::table1(&study);
    println!("{}", experiments::render_table1(&report));
    println!("{}", experiments::render_table2(&report));

    // Conventional (random-fill) vs the paper's noise-aware procedure.
    let conventional = flows::conventional(&study);
    let noise_aware = flows::noise_aware(&study);
    println!(
        "conventional: {:>4} patterns, {:.1} % fault coverage",
        conventional.patterns.len(),
        100.0 * conventional.fault_coverage()
    );
    println!(
        "noise-aware : {:>4} patterns, {:.1} % fault coverage",
        noise_aware.patterns.len(),
        100.0 * noise_aware.fault_coverage()
    );

    // SCAP screening in the hot block B5: one profile per pattern set.
    let analyzer = PatternAnalyzer::new(&study);
    let b5 = study.design.block_named("B5").expect("B5 exists");
    let threshold = experiments::scap_thresholds(&study)[b5.index()];
    let profile = analyzer.power_profile(&conventional.patterns);
    let fig2 = experiments::scap_series(&profile, b5, threshold);
    let fig6 = experiments::scap_series(
        &analyzer.power_profile(&noise_aware.patterns),
        b5,
        threshold,
    );
    println!(
        "{}",
        experiments::render_scap_series("random-fill  B5 SCAP", &fig2)
    );
    println!(
        "{}",
        experiments::render_scap_series("noise-aware  B5 SCAP", &fig6)
    );

    // Worst pattern's IR-drop map.
    let worst = profile
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            a.chip_scap_vdd_mw()
                .partial_cmp(&b.chip_scap_vdd_mw())
                .expect("finite power")
        })
        .map(|(i, _)| i)
        .unwrap_or(0);
    let map = analyzer.ir_drop(&conventional.patterns.filled[worst]);
    println!(
        "worst pattern #{worst}: VDD drop {:.3} V, VSS bounce {:.3} V",
        map.worst_drop_vdd(),
        map.worst_drop_vss()
    );
    print!("{}", map.render_vdd_map(study.design.netlist.library.vdd));
}
