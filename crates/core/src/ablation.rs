//! Ablation studies on the paper's design choices.
//!
//! The paper's procedure combines two mechanisms: *staged per-block fault
//! targeting* and *fill-0 don't-care filling*. [`staged_fill_matrix`]
//! separates their contributions; [`threshold_sensitivity`] sweeps the
//! SCAP screening threshold, exposing the threshold ↔ pattern-count
//! trade-off the paper discusses in §2.2 ("the lower the threshold … the
//! greater number of delay test patterns").

use crate::experiments::{self, ScapSeries};
use crate::flows::{self, FlowResult};
use crate::{CaseStudy, PatternAnalyzer};
use scap_dft::FillPolicy;

/// One row of the staged/fill ablation.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Patterns generated.
    pub patterns: usize,
    /// Final fault coverage.
    pub fault_coverage: f64,
    /// Fraction of patterns whose B5 SCAP exceeds the screening threshold.
    pub fraction_above: f64,
    /// Mean B5 SCAP, mW.
    pub mean_scap_mw: f64,
}

/// The row of a flow and its series, labelled from the flow itself:
/// `staged` when it ran more than one step, else `flat`, then its fill.
fn row(flow: &FlowResult, series: &ScapSeries) -> AblationRow {
    let staging = if flow.steps.len() > 1 {
        "staged"
    } else {
        "flat"
    };
    let fill = flow.patterns.fill.expect("flows record their fill");
    AblationRow {
        label: format!("{staging}/{fill}"),
        patterns: flow.patterns.len(),
        fault_coverage: flow.fault_coverage(),
        fraction_above: series.fraction_above(),
        mean_scap_mw: series.scap_mw.iter().sum::<f64>() / series.scap_mw.len().max(1) as f64,
    }
}

/// Runs the 2×2 matrix {flat, staged} × {random-fill, fill-0}.
///
/// The paper's procedure is the staged/fill-0 corner; the conventional
/// baseline is flat/random. The off-diagonal corners show that *both*
/// mechanisms are needed: staging without fill-0 still randomizes the
/// quiet blocks; fill-0 without staging still targets (and wakes) every
/// block at once.
///
/// The two paper flows come in with their series; only the off-diagonal
/// corners are run here, and screened in the block and at the threshold
/// of `conventional`'s series.
pub fn staged_fill_matrix(
    study: &CaseStudy,
    analyzer: &PatternAnalyzer,
    conventional: (&FlowResult, &ScapSeries),
    noise_aware: (&FlowResult, &ScapSeries),
) -> Vec<AblationRow> {
    let (block, threshold) = (conventional.1.block, conventional.1.threshold_mw);
    let measure = |flow: FlowResult| {
        scap_obs::counter!("ablation.flows_run").incr();
        let profile = analyzer.power_profile(&flow.patterns);
        row(&flow, &experiments::scap_series(&profile, block, threshold))
    };
    let flat_zero = measure(flows::conventional_with(
        study,
        flows::flow_atpg_config(FillPolicy::Zero),
    ));
    let staged_random = measure(flows::noise_aware_with(
        study,
        flows::flow_atpg_config(FillPolicy::Random),
        &flows::paper_stages(study),
    ));
    vec![
        row(conventional.0, conventional.1),
        flat_zero,
        staged_random,
        row(noise_aware.0, noise_aware.1),
    ]
}

/// Sweeps the screening threshold of an existing series by multiplying
/// it by each factor, returning `(factor, patterns above)`.
pub fn threshold_sensitivity(series: &ScapSeries, factors: &[f64]) -> Vec<(f64, usize)> {
    scap_obs::counter!("ablation.threshold_factors").add(factors.len() as u64);
    factors
        .iter()
        .map(|&f| {
            let t = series.threshold_mw * f;
            let above = series.scap_mw.iter().filter(|&&s| s > t).count();
            (f, above)
        })
        .collect()
}

/// Renders the ablation matrix.
pub fn render_matrix(rows: &[AblationRow]) -> String {
    use std::fmt::Write as _;
    let mut out =
        String::from("Ablation: staging x fill\n  config              patterns  coverage  B5>thr  mean B5 SCAP\n");
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<18} {:>9} {:>8.1}% {:>6.1}% {:>9.2} mW",
            r.label,
            r.patterns,
            100.0 * r.fault_coverage,
            100.0 * r.fraction_above,
            r.mean_scap_mw
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flow's B5 series at B5's screening threshold.
    fn b5_series(study: &CaseStudy, analyzer: &PatternAnalyzer, flow: &FlowResult) -> ScapSeries {
        let b5 = study.design.block_named("B5").expect("B5 exists");
        let threshold = experiments::scap_thresholds(study)[b5.index()];
        experiments::scap_series(&analyzer.power_profile(&flow.patterns), b5, threshold)
    }

    #[test]
    fn matrix_shows_fill0_reduces_scap() {
        let (study, conv, na) = crate::flows::tests::fixture();
        let analyzer = PatternAnalyzer::new(study);
        let conv_series = b5_series(study, &analyzer, conv);
        let na_series = b5_series(study, &analyzer, na);
        let rows = staged_fill_matrix(study, &analyzer, (conv, &conv_series), (na, &na_series));
        // Every label comes from the flow the row measures.
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "flat/random-fill",
                "flat/fill-0",
                "staged/random-fill",
                "staged/fill-0"
            ]
        );
        let flat_random = &rows[0];
        let staged_zero = &rows[3];
        assert_eq!(flat_random.patterns, conv.patterns.len());
        assert_eq!(staged_zero.patterns, na.patterns.len());
        // The paper's corner beats the conventional corner on noise.
        assert!(
            staged_zero.mean_scap_mw < flat_random.mean_scap_mw,
            "staged/fill-0 {:.2} must be quieter than flat/random {:.2}",
            staged_zero.mean_scap_mw,
            flat_random.mean_scap_mw
        );
        // Coverage stays comparable across the matrix.
        for r in &rows {
            assert!(
                (r.fault_coverage - flat_random.fault_coverage).abs() < 0.15,
                "{}: coverage {:.3}",
                r.label,
                r.fault_coverage
            );
        }
        assert!(render_matrix(&rows).contains("staged"));
    }

    #[test]
    fn threshold_sweep_is_monotone() {
        let (study, conv, _) = crate::flows::tests::fixture();
        let series = b5_series(study, &PatternAnalyzer::new(study), conv);
        let sweep = threshold_sensitivity(&series, &[0.25, 0.5, 1.0, 2.0, 4.0]);
        assert_eq!(sweep[2].1, series.above.len(), "factor 1 is the series");
        for w in sweep.windows(2) {
            assert!(
                w[0].1 >= w[1].1,
                "raising the threshold cannot increase violations: {sweep:?}"
            );
        }
    }
}
