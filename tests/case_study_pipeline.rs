//! End-to-end pipeline test: every table/figure driver runs on a small
//! case study and reproduces the paper's qualitative relations. The
//! paper's claims are stated here, in one place.

use scap::experiments::{self, ScapSeries};
use scap::power::PatternPower;
use scap::{flows, CaseStudy, PatternAnalyzer};
use std::sync::OnceLock;

fn fixture() -> &'static (CaseStudy, flows::FlowResult, flows::FlowResult) {
    static FIXTURE: OnceLock<(CaseStudy, flows::FlowResult, flows::FlowResult)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let study = CaseStudy::small();
        let conv = flows::conventional(&study);
        let na = flows::noise_aware(&study);
        (study, conv, na)
    })
}

/// What the evaluation computes once per pattern set: one analyzer, the
/// conventional set's power profile and both sets' B5 series.
struct Measured {
    analyzer: PatternAnalyzer<'static>,
    conventional_profile: Vec<PatternPower>,
    fig2: ScapSeries,
    fig6: ScapSeries,
}

fn measured() -> &'static Measured {
    static MEASURED: OnceLock<Measured> = OnceLock::new();
    MEASURED.get_or_init(|| {
        let (study, conv, na) = fixture();
        let analyzer = PatternAnalyzer::new(study);
        let b5 = study.design.block_named("B5").unwrap();
        let threshold = experiments::scap_thresholds(study)[b5.index()];
        let conventional_profile = analyzer.power_profile(&conv.patterns);
        let fig2 = experiments::scap_series(&conventional_profile, b5, threshold);
        let fig6 = experiments::scap_series(&analyzer.power_profile(&na.patterns), b5, threshold);
        Measured {
            analyzer,
            conventional_profile,
            fig2,
            fig6,
        }
    })
}

#[test]
fn table1_reports_paper_shape() {
    let (study, _, _) = fixture();
    let r = experiments::table1(study);
    assert!(experiments::render_table1(&r).contains("Clock Domains"));
    assert_eq!(r.clock_domains, 6);
    assert_eq!(r.scan_chains, 16);
    assert!(r.negative_edge_flops >= 1);
    assert!(r.transition_faults > r.total_scan_flops);
    // clka dominates with ~78 % of the flops.
    let clka = &r.domains[0];
    assert!(clka.scan_cells as f64 > 0.55 * r.total_scan_flops as f64);
}

#[test]
fn table3_case2_doubles_power_and_b5_dominates() {
    let (study, _, _) = fixture();
    let t3 = experiments::table3(study);
    assert!(experiments::render_table3(study, &t3).contains("Chip"));
    let b5 = study.design.block_named("B5").unwrap().index();
    // Every block's Case-2 power is a positive screening threshold.
    for t in experiments::scap_thresholds(study) {
        assert!(t > 0.0, "threshold {t}");
    }
    for (i, (c1, c2)) in t3.case1.blocks.iter().zip(&t3.case2.blocks).enumerate() {
        assert!(
            (c2.avg_power_mw - 2.0 * c1.avg_power_mw).abs() < 1e-9 * c1.avg_power_mw.max(1.0),
            "block {i}"
        );
    }
    for (i, b) in t3.case2.blocks.iter().enumerate() {
        if i != b5 {
            assert!(t3.case2.blocks[b5].avg_power_mw >= b.avg_power_mw);
        }
    }
    // The hot center block also sees the deepest statistical drop.
    for (i, b) in t3.case2.blocks.iter().enumerate() {
        if i != b5 {
            assert!(
                t3.case2.blocks[b5].worst_drop_vdd_v >= b.worst_drop_vdd_v,
                "B5 drop {} vs block {i} drop {}",
                t3.case2.blocks[b5].worst_drop_vdd_v,
                b.worst_drop_vdd_v
            );
        }
    }
}

#[test]
fn table4_scap_exceeds_cap() {
    let (study, conv, _) = fixture();
    let m = measured();
    let t4 = experiments::table4(study, &m.analyzer, conv, &m.conventional_profile);
    assert!(t4.stw_ps < t4.period_ps);
    // Power and worst drop are both underestimated by the CAP model.
    assert!(t4.scap.0 > t4.cap.0);
    assert!(t4.scap.2 >= t4.cap.2);
    // The paper reports roughly a 2x gap (STW ≈ half cycle).
    let ratio = t4.scap.0 / t4.cap.0;
    assert!(ratio > 1.2 && ratio < 5.0, "SCAP/CAP power ratio {ratio}");
}

#[test]
fn fig2_fig6_noise_aware_reduces_scap_violations() {
    let (_, _, na) = fixture();
    let (f2, f6) = (&measured().fig2, &measured().fig6);
    assert!(
        f6.fraction_above() < f2.fraction_above(),
        "noise-aware {:.3} must beat conventional {:.3}",
        f6.fraction_above(),
        f2.fraction_above()
    );
    // The noise-aware prefix (steps 1-2, other blocks targeted under
    // fill-0) keeps B5 nearly quiet.
    let step3 = na.steps.last().unwrap().1;
    if step3 > 0 {
        let prefix_mean: f64 = f6.scap_mw[..step3].iter().sum::<f64>() / step3 as f64;
        let conv_mean: f64 = f2.scap_mw.iter().sum::<f64>() / f2.scap_mw.len().max(1) as f64;
        assert!(
            prefix_mean < 0.5 * conv_mean,
            "fill-0 prefix {prefix_mean:.3} vs conventional {conv_mean:.3}"
        );
    }
}

#[test]
fn fig3_high_scap_pattern_drops_more() {
    let (_, conv, _) = fixture();
    let m = measured();
    let f3 = experiments::fig3(&m.analyzer, conv, &m.fig2);
    assert!(f3.p1_map.worst_drop_vdd() >= f3.p2_map.worst_drop_vdd());
    assert!(f3.scap_mw.0 >= f3.scap_mw.1);
}

#[test]
fn fig4_flows_converge_with_more_noise_aware_patterns() {
    let (_, conv, na) = fixture();
    assert!(na.patterns.len() > conv.patterns.len());
    let gap = (conv.fault_coverage() - na.fault_coverage()).abs();
    assert!(gap < 0.1, "coverage gap {gap:.3}");
}

#[test]
fn fig7_regions_exist() {
    let (_, _, na) = fixture();
    let m = measured();
    let f7 = experiments::fig7(&m.analyzer, na, &m.fig6);
    let active = f7.endpoints.iter().filter(|(_, n, _)| *n > 0.0).count();
    assert!(active > 0);
    // Region 1: some endpoints slow down under IR-drop.
    assert!(
        f7.endpoints.iter().any(|(_, n, s)| *n > 0.0 && s > n),
        "IR-drop must slow some endpoints"
    );
    assert!(f7.max_increase_pct() > 0.0);
    assert!(f7.max_increase_pct() < 100.0, "{}", f7.max_increase_pct());
}

#[test]
fn renders_are_nonempty() {
    let (study, conv, na) = fixture();
    let m = measured();
    let r = experiments::table1(study);
    assert!(experiments::render_table1(&r).contains("Scan Chains"));
    assert!(experiments::render_table2(&r).contains("clka"));
    let t3 = experiments::table3(study);
    assert!(experiments::render_table3(study, &t3).contains("Case1"));
    let t4 = experiments::table4(study, &m.analyzer, conv, &m.conventional_profile);
    assert!(experiments::render_table4(&t4).contains("SCAP"));
    assert!(experiments::render_scap_series("Figure 2", &m.fig2).contains("threshold"));
    let f3 = experiments::fig3(&m.analyzer, conv, &m.fig2);
    assert!(experiments::render_fig3(study, &f3).contains("P1 worst"));
    assert!(experiments::render_fig4(conv, na).contains("patterns"));
    let f7 = experiments::fig7(&m.analyzer, na, &m.fig6);
    assert!(experiments::render_fig7(&f7).contains("Region"));
}
