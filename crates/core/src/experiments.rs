//! One driver per table and figure of the paper's evaluation.
//!
//! Each function returns typed data; the `render_*` companions produce the
//! paper-style text rows printed by the benches and examples. A driver
//! takes what its caller already computed — the flows, one
//! [`PatternAnalyzer`], a set's power profile, a figure's series — so an
//! evaluation runs each flow and profiles each pattern set once. Absolute
//! numbers differ from the paper (the substrate is a scaled synthetic
//! design, not the authors' 23 K-flop chip + commercial tools); the
//! comparisons each experiment makes — who wins, by roughly what factor —
//! are the reproduction target. See `EXPERIMENTS.md` at the repo root.

use crate::flows::FlowResult;
use crate::{CaseStudy, PatternAnalyzer};
use scap_netlist::BlockId;
use scap_power::{IrDropMap, PatternPower, StatisticalAnalysis, StatisticalReport};
use scap_soc::DesignReport;
use std::fmt::Write as _;

/// Toggle probability the paper uses for the pessimistic statistical
/// analysis (§2.2).
pub const TOGGLE_PROBABILITY: f64 = 0.30;

// ---------------------------------------------------------------------
// Tables 1 & 2
// ---------------------------------------------------------------------

/// Table 1: design characteristics.
pub fn table1(study: &CaseStudy) -> DesignReport {
    DesignReport::build(&study.design)
}

/// Renders Table 1.
pub fn render_table1(report: &DesignReport) -> String {
    let mut out = String::from("Table 1: Design Characteristics\n");
    for (label, value) in report.table1_rows() {
        let _ = writeln!(out, "  {label:<26} {value:>10}");
    }
    out
}

/// Renders Table 2 (clock-domain analysis) from the same report.
pub fn render_table2(report: &DesignReport) -> String {
    let mut out = String::from(
        "Table 2: Clock Domain Analysis\n  Domain   #Scan Cells   Freq [MHz]   Blocks Covered\n",
    );
    for row in &report.domains {
        let _ = writeln!(
            out,
            "  {:<8} {:>11} {:>12.1}   {}",
            row.name,
            row.scan_cells,
            row.frequency_mhz,
            row.blocks_covered.join(",")
        );
    }
    out
}

// ---------------------------------------------------------------------
// Table 3: statistical IR-drop, full vs half cycle
// ---------------------------------------------------------------------

/// Table 3 data: Case 1 (full-cycle window) and Case 2 (half-cycle
/// window) statistical analyses.
#[derive(Debug)]
pub struct Table3 {
    /// Full-cycle window.
    pub case1: StatisticalReport,
    /// Half-cycle window (the paper's average-STW assumption).
    pub case2: StatisticalReport,
}

/// Runs the Table 3 experiment.
pub fn table3(study: &CaseStudy) -> Table3 {
    Table3 {
        case1: statistical_run(study, study.period_ps()),
        case2: statistical_case2(study),
    }
}

/// The paper's Case 2 statistical run (§2.2): toggle probability
/// [`TOGGLE_PROBABILITY`] over a half-cycle window, the average switching
/// time window. Its per-block power is the SCAP screening threshold
/// ([`scap_thresholds`]); its per-block worst drop derates noise-aware
/// STA ([`crate::sta::NoiseAwareSta`]).
pub fn statistical_case2(study: &CaseStudy) -> StatisticalReport {
    statistical_run(study, study.period_ps() / 2.0)
}

/// One statistical solve at the paper's toggle probability.
fn statistical_run(study: &CaseStudy, window_ps: f64) -> StatisticalReport {
    let d = &study.design;
    StatisticalAnalysis::new(&d.netlist, &d.floorplan, study.grid).run(
        &study.annotation,
        TOGGLE_PROBABILITY,
        window_ps,
    )
}

/// The per-block SCAP screening thresholds (mW): the Case 2 average
/// switching power of each block (§2.2 / §3.2).
pub fn scap_thresholds(study: &CaseStudy) -> Vec<f64> {
    statistical_case2(study)
        .blocks
        .iter()
        .map(|b| b.avg_power_mw)
        .collect()
}

/// Renders Table 3.
pub fn render_table3(study: &CaseStudy, t: &Table3) -> String {
    let mut out = String::from(
        "Table 3: Statistical functional IR-drop analysis per block\n\
                    -- Case1 (full cycle) --    -- Case2 (half cycle) --\n  \
         Block   Power[mW]  WorstDrop[V]    Power[mW]  WorstDrop[V]\n",
    );
    let names: Vec<&str> = study
        .design
        .netlist
        .blocks()
        .iter()
        .map(|b| b.name.as_str())
        .collect();
    for (i, name) in names.iter().enumerate() {
        let c1 = &t.case1.blocks[i];
        let c2 = &t.case2.blocks[i];
        let _ = writeln!(
            out,
            "  {name:<7} {:>9.2} {:>13.4} {:>12.2} {:>13.4}",
            c1.avg_power_mw, c1.worst_drop_vdd_v, c2.avg_power_mw, c2.worst_drop_vdd_v
        );
    }
    let _ = writeln!(
        out,
        "  {:<7} {:>9.2} {:>13.4} {:>12.2} {:>13.4}",
        "Chip",
        t.case1.chip.avg_power_mw,
        t.case1.chip.worst_drop_vdd_v,
        t.case2.chip.avg_power_mw,
        t.case2.chip.worst_drop_vdd_v
    );
    out
}

// ---------------------------------------------------------------------
// Table 4: CAP vs SCAP for one pattern
// ---------------------------------------------------------------------

/// Table 4 data: one pattern measured under both power models.
#[derive(Debug)]
pub struct Table4 {
    /// Index of the measured pattern in the conventional set.
    pub pattern_index: usize,
    /// Switching time window, ps.
    pub stw_ps: f64,
    /// Tester cycle, ps.
    pub period_ps: f64,
    /// (power VDD mW, power VSS mW, worst drop VDD V, worst drop VSS V)
    /// under the CAP (full-cycle) model.
    pub cap: (f64, f64, f64, f64),
    /// Same, under the SCAP (STW) model.
    pub scap: (f64, f64, f64, f64),
}

/// Runs Table 4 on a representative high-activity pattern of the
/// conventional set, whose power profile is `profile`.
pub fn table4(
    study: &CaseStudy,
    analyzer: &PatternAnalyzer,
    conventional: &FlowResult,
    profile: &[PatternPower],
) -> Table4 {
    // Representative pattern: the highest chip SCAP (the kind of pattern
    // CAP-based screening would wave through).
    let idx = argmax(profile.iter().map(|p| p.chip_scap_vdd_mw()));
    let filled = &conventional.patterns.filled[idx];
    let trace = analyzer.trace(filled);
    let power = analyzer.power_of_trace(&trace);
    let mut session = analyzer.session();
    let map_scap = session.analyze(&study.annotation, &trace);
    let map_cap = session.analyze_windowed(&study.annotation, &trace, study.period_ps());
    Table4 {
        pattern_index: idx,
        stw_ps: trace.stw_ps(),
        period_ps: study.period_ps(),
        cap: (
            power.chip.power_vdd_mw(study.period_ps()),
            power.chip.power_vss_mw(study.period_ps()),
            map_cap.worst_drop_vdd(),
            map_cap.worst_drop_vss(),
        ),
        scap: (
            power.chip.power_vdd_mw(trace.stw_ps()),
            power.chip.power_vss_mw(trace.stw_ps()),
            map_scap.worst_drop_vdd(),
            map_scap.worst_drop_vss(),
        ),
    }
}

/// Renders Table 4.
pub fn render_table4(t: &Table4) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4: Average dynamic power / IR-drop of pattern #{} (STW = {:.2} ns, cycle = {:.0} ns)",
        t.pattern_index,
        t.stw_ps / 1000.0,
        t.period_ps / 1000.0
    );
    let _ = writeln!(
        out,
        "          Power[mW] VDD/VSS      Worst Avg IR-drop [V] VDD/VSS"
    );
    let _ = writeln!(
        out,
        "  CAP   {:>9.2} / {:<9.2} {:>10.4} / {:<10.4}",
        t.cap.0, t.cap.1, t.cap.2, t.cap.3
    );
    let _ = writeln!(
        out,
        "  SCAP  {:>9.2} / {:<9.2} {:>10.4} / {:<10.4}",
        t.scap.0, t.scap.1, t.scap.2, t.scap.3
    );
    out
}

// ---------------------------------------------------------------------
// Figures 2 & 6: per-pattern SCAP in block B5
// ---------------------------------------------------------------------

/// A per-pattern SCAP series for one block (Figures 2 and 6).
#[derive(Debug)]
pub struct ScapSeries {
    /// Block the series measures (B5 in the paper).
    pub block: BlockId,
    /// Per-pattern SCAP on the VDD network, mW.
    pub scap_mw: Vec<f64>,
    /// The screening threshold, mW.
    pub threshold_mw: f64,
    /// Pattern indices above the threshold.
    pub above: Vec<usize>,
}

impl ScapSeries {
    /// Fraction of patterns above the threshold.
    pub fn fraction_above(&self) -> f64 {
        if self.scap_mw.is_empty() {
            return 0.0;
        }
        self.above.len() as f64 / self.scap_mw.len() as f64
    }
}

/// The per-pattern SCAP of one block, read from a set's power profile
/// ([`PatternAnalyzer::power_profile`]), screened against `threshold_mw`.
/// Figures 2 and 6 are B5's series at its [`scap_thresholds`] entry.
pub fn scap_series(profile: &[PatternPower], block: BlockId, threshold_mw: f64) -> ScapSeries {
    let scap_mw: Vec<f64> = profile.iter().map(|p| p.scap_vdd_mw(block)).collect();
    let above: Vec<usize> = scap_mw
        .iter()
        .enumerate()
        .filter(|(_, &s)| s > threshold_mw)
        .map(|(i, _)| i)
        .collect();
    scap_obs::counter!("screen.patterns_measured").add(scap_mw.len() as u64);
    scap_obs::counter!("screen.patterns_above").add(above.len() as u64);
    ScapSeries {
        block,
        scap_mw,
        threshold_mw,
        above,
    }
}

/// Renders a SCAP series as a down-sampled text sparkline plus summary.
pub fn render_scap_series(label: &str, s: &ScapSeries) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{label}: {} patterns, threshold {:.2} mW, {} above ({:.1} %)",
        s.scap_mw.len(),
        s.threshold_mw,
        s.above.len(),
        100.0 * s.fraction_above()
    );
    if s.scap_mw.is_empty() {
        return out;
    }
    let max = s.scap_mw.iter().cloned().fold(1e-12, f64::max);
    let buckets = 64.min(s.scap_mw.len());
    let per = s.scap_mw.len().div_ceil(buckets);
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let mut line = String::new();
    for chunk in s.scap_mw.chunks(per) {
        let m = chunk.iter().cloned().fold(0.0, f64::max);
        let g = ((m / max) * (glyphs.len() - 1) as f64).round() as usize;
        line.push(glyphs[g]);
    }
    let _ = writeln!(out, "  SCAP/pattern (max {max:.1} mW): [{line}]");
    out
}

// ---------------------------------------------------------------------
// Figure 3: dynamic IR-drop maps of two patterns
// ---------------------------------------------------------------------

/// Figure 3 data: the IR-drop maps of a high-SCAP pattern (P1) and a
/// near-threshold pattern (P2).
#[derive(Debug)]
pub struct Fig3 {
    /// Index of P1 (worst SCAP in B5).
    pub p1_index: usize,
    /// Index of P2 (the other pattern closest to the threshold, on either
    /// side of it).
    pub p2_index: usize,
    /// P1's solved map.
    pub p1_map: IrDropMap,
    /// P2's solved map.
    pub p2_map: IrDropMap,
    /// SCAP of P1 and P2 in B5, mW.
    pub scap_mw: (f64, f64),
}

/// Runs Figure 3 on the conventional pattern set, whose Figure 2 series
/// is `series`.
pub fn fig3(analyzer: &PatternAnalyzer, conventional: &FlowResult, series: &ScapSeries) -> Fig3 {
    let p1 = argmax(series.scap_mw.iter().copied());
    // P2: the pattern other than P1 closest to the threshold, above or
    // below it.
    let p2 = series
        .scap_mw
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != p1)
        .min_by(|(_, a), (_, b)| {
            let da = (*a - series.threshold_mw).abs();
            let db = (*b - series.threshold_mw).abs();
            da.partial_cmp(&db).expect("finite SCAP values")
        })
        .map(|(i, _)| i)
        .unwrap_or(p1);
    // One grid assembly, both patterns solved in parallel.
    let maps = analyzer.ir_drop_profile(&[
        conventional.patterns.filled[p1].clone(),
        conventional.patterns.filled[p2].clone(),
    ]);
    let mut maps = maps.into_iter();
    Fig3 {
        p1_index: p1,
        p2_index: p2,
        p1_map: maps.next().expect("two maps requested"),
        p2_map: maps.next().expect("two maps requested"),
        scap_mw: (series.scap_mw[p1], series.scap_mw[p2]),
    }
}

/// Renders Figure 3 (two ASCII IR-drop maps + worst drops).
pub fn render_fig3(study: &CaseStudy, f: &Fig3) -> String {
    let vdd = study.design.netlist.library.vdd;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3: VDD IR-drop maps ('#' = >10 % VDD). P1 = pattern #{} (SCAP {:.1} mW), \
         P2 = pattern #{} (SCAP {:.1} mW)",
        f.p1_index, f.scap_mw.0, f.p2_index, f.scap_mw.1
    );
    let _ = writeln!(
        out,
        "  P1 worst avg IR-drop: {:.3} V | P2 worst avg IR-drop: {:.3} V",
        f.p1_map.worst_drop_vdd(),
        f.p2_map.worst_drop_vdd()
    );
    let a = f.p1_map.render_vdd_map(vdd);
    let b = f.p2_map.render_vdd_map(vdd);
    for (la, lb) in a.lines().zip(b.lines()) {
        let _ = writeln!(out, "  {la}   {lb}");
    }
    out
}

// ---------------------------------------------------------------------
// Figure 4: coverage curves
// ---------------------------------------------------------------------

/// Renders the two coverage curves of Figure 4, down-sampled.
pub fn render_fig4(conventional: &FlowResult, noise_aware: &FlowResult) -> String {
    let mut out = String::from("Figure 4: Test coverage vs pattern count\n");
    let total = conventional.grade.total_faults.max(1);
    let _ = writeln!(
        out,
        "  conventional: {} patterns -> {:.2} % | noise-aware: {} patterns -> {:.2} % ({:+.1} % patterns)",
        conventional.patterns.len(),
        100.0 * conventional.fault_coverage(),
        noise_aware.patterns.len(),
        100.0 * noise_aware.fault_coverage(),
        100.0
            * (noise_aware.patterns.len() as f64 - conventional.patterns.len() as f64)
            / conventional.patterns.len().max(1) as f64,
    );
    let _ = writeln!(out, "  patterns  conventional  noise-aware");
    let max_len = conventional
        .grade
        .curve
        .len()
        .max(noise_aware.grade.curve.len());
    let samples = 12usize.min(max_len.max(1));
    for k in 1..=samples {
        let p = k * max_len / samples;
        let at = |c: &[(usize, usize)]| {
            c.iter()
                .take_while(|&&(pp, _)| pp <= p)
                .last()
                .map(|&(_, d)| d)
                .unwrap_or(0)
        };
        let _ = writeln!(
            out,
            "  {p:>8}  {:>11.2}%  {:>10.2}%",
            100.0 * at(&conventional.grade.curve) as f64 / total as f64,
            100.0 * at(&noise_aware.grade.curve) as f64 / total as f64
        );
    }
    out
}

// ---------------------------------------------------------------------
// Figure 7: endpoint delays with and without IR-drop scaling
// ---------------------------------------------------------------------

/// Figure 7 data: per-endpoint delays under nominal and IR-drop-scaled
/// timing for one pattern.
#[derive(Debug)]
pub struct Fig7 {
    /// The analyzed pattern's index in the noise-aware set.
    pub pattern_index: usize,
    /// `(endpoint, nominal delay ps, scaled delay ps)` per active-domain
    /// flop.
    pub endpoints: Vec<(scap_netlist::FlopId, f64, f64)>,
}

impl Fig7 {
    /// Endpoints whose delay grew by more than `pct` percent ("Region 1").
    pub fn region1(&self, pct: f64) -> usize {
        self.endpoints
            .iter()
            .filter(|(_, n, s)| *n > 0.0 && (s - n) / n * 100.0 > pct)
            .count()
    }

    /// Endpoints whose delay *shrank* (clock-path slow-down, "Region 2").
    pub fn region2(&self) -> usize {
        self.endpoints
            .iter()
            .filter(|(_, n, s)| *n > 0.0 && s < n)
            .count()
    }

    /// Largest relative increase, %.
    pub fn max_increase_pct(&self) -> f64 {
        self.endpoints
            .iter()
            .filter(|(_, n, _)| *n > 0.0)
            .map(|(_, n, s)| (s - n) / n * 100.0)
            .fold(0.0, f64::max)
    }
}

/// Runs Figure 7 on a step-3 (B5-heavy) pattern with SCAP below the
/// threshold — the pattern class the paper picks — reading the
/// noise-aware set's Figure 6 series.
pub fn fig7(analyzer: &PatternAnalyzer, noise_aware: &FlowResult, series: &ScapSeries) -> Fig7 {
    let step3 = noise_aware.steps.last().map(|&(_, i)| i).unwrap_or(0);
    // Highest-SCAP pattern of step 3 that stays below the threshold;
    // fall back to the overall below-threshold max.
    let candidates = |lo: usize| {
        series.scap_mw[lo..]
            .iter()
            .enumerate()
            .filter(|(_, &s)| s <= series.threshold_mw)
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite"))
            .map(|(i, _)| i + lo)
    };
    let idx = candidates(step3).or_else(|| candidates(0)).unwrap_or(0);
    let (nominal, scaled) = analyzer.endpoint_delays_scaled(&noise_aware.patterns.filled[idx]);
    let endpoints = nominal
        .delay_ps
        .iter()
        .zip(&scaled.delay_ps)
        .map(|(&(f, n), &(f2, s))| {
            debug_assert_eq!(f, f2);
            (f, n, s)
        })
        .collect();
    Fig7 {
        pattern_index: idx,
        endpoints,
    }
}

/// Renders Figure 7 as a summary plus a histogram of relative deltas.
pub fn render_fig7(f: &Fig7) -> String {
    let mut out = String::new();
    let active = f.endpoints.iter().filter(|(_, n, _)| *n > 0.0).count();
    let _ = writeln!(
        out,
        "Figure 7: endpoint delays, nominal vs IR-drop-scaled (pattern #{})",
        f.pattern_index
    );
    let _ = writeln!(
        out,
        "  {} endpoints, {} active | Region 1 (slower by >5 %): {} | Region 2 (faster): {} | max increase {:.1} %",
        f.endpoints.len(),
        active,
        f.region1(5.0),
        f.region2(),
        f.max_increase_pct()
    );
    // Histogram of deltas.
    let mut bins = [0usize; 9];
    let labels = [
        "<-5%", "-5..0", "0", "0..5", "5..10", "10..15", "15..20", "20..30", ">30%",
    ];
    for (_, n, s) in &f.endpoints {
        if *n <= 0.0 {
            continue;
        }
        let d = (s - n) / n * 100.0;
        let b = if d < -5.0 {
            0
        } else if d < 0.0 {
            1
        } else if d == 0.0 {
            2
        } else if d < 5.0 {
            3
        } else if d < 10.0 {
            4
        } else if d < 15.0 {
            5
        } else if d < 20.0 {
            6
        } else if d <= 30.0 {
            7
        } else {
            8
        };
        bins[b] += 1;
    }
    for (label, count) in labels.iter().zip(bins) {
        let _ = writeln!(out, "  {label:>7}: {count}");
    }
    out
}

fn argmax(values: impl Iterator<Item = f64>) -> usize {
    let mut best = 0usize;
    let mut best_v = f64::MIN;
    for (i, v) in values.enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows;
    use std::sync::OnceLock;

    /// The conventional set's power profile and the B5 series of both
    /// sets (Figures 2 and 6), computed once for every test here.
    struct Measured {
        analyzer: PatternAnalyzer<'static>,
        conventional_profile: Vec<PatternPower>,
        fig2: ScapSeries,
        fig6: ScapSeries,
    }

    fn measured() -> &'static Measured {
        static MEASURED: OnceLock<Measured> = OnceLock::new();
        MEASURED.get_or_init(|| {
            let (s, conv, na) = flows::tests::fixture();
            let analyzer = PatternAnalyzer::new(s);
            let b5 = s.design.block_named("B5").expect("B5 exists");
            let threshold = scap_thresholds(s)[b5.index()];
            let conventional_profile = analyzer.power_profile(&conv.patterns);
            let fig2 = scap_series(&conventional_profile, b5, threshold);
            let fig6 = scap_series(&analyzer.power_profile(&na.patterns), b5, threshold);
            Measured {
                analyzer,
                conventional_profile,
                fig2,
                fig6,
            }
        })
    }

    #[test]
    fn tables_1_2_render() {
        let s = CaseStudy::small();
        let r = table1(&s);
        let t1 = render_table1(&r);
        assert!(t1.contains("Clock Domains"));
        let t2 = render_table2(&r);
        assert!(t2.contains("clka"));
    }

    #[test]
    fn table3_halving_window_doubles_power() {
        let s = CaseStudy::small();
        let t = table3(&s);
        for (c1, c2) in t.case1.blocks.iter().zip(&t.case2.blocks) {
            if c1.avg_power_mw > 0.0 {
                let r = c2.avg_power_mw / c1.avg_power_mw;
                assert!((r - 2.0).abs() < 1e-6, "{r}");
            }
        }
        let rendered = render_table3(&s, &t);
        assert!(rendered.contains("Chip"));
        // B5 consumes the most power among blocks in Case 2.
        let b5 = s.design.block_named("B5").unwrap().index();
        for (i, b) in t.case2.blocks.iter().enumerate() {
            if i != b5 {
                assert!(
                    t.case2.blocks[b5].avg_power_mw >= b.avg_power_mw,
                    "B5 must dominate block power"
                );
            }
        }
    }

    #[test]
    fn thresholds_are_positive() {
        let s = CaseStudy::small();
        for t in scap_thresholds(&s) {
            assert!(t > 0.0);
        }
    }

    #[test]
    fn fig2_fig4_table4_pipeline() {
        let (s, conv, na) = flows::tests::fixture();
        let m = measured();
        // The headline result: the noise-aware set has a (much) smaller
        // fraction of patterns above the B5 SCAP threshold.
        assert!(
            m.fig6.fraction_above() <= m.fig2.fraction_above(),
            "noise-aware {:.3} vs conventional {:.3}",
            m.fig6.fraction_above(),
            m.fig2.fraction_above()
        );
        let t4 = table4(s, &m.analyzer, conv, &m.conventional_profile);
        assert!(t4.scap.0 >= t4.cap.0, "SCAP power >= CAP power");
        assert!(t4.scap.2 >= t4.cap.2, "SCAP drop >= CAP drop");
        assert!(!render_table4(&t4).is_empty());
        assert!(!render_fig4(conv, na).is_empty());
        assert!(!render_scap_series("fig2", &m.fig2).is_empty());
    }

    #[test]
    fn fig3_p1_drops_more_than_p2() {
        let (s, conv, _) = flows::tests::fixture();
        let m = measured();
        let f3 = fig3(&m.analyzer, conv, &m.fig2);
        assert!(f3.p1_map.worst_drop_vdd() >= f3.p2_map.worst_drop_vdd());
        assert!(!render_fig3(s, &f3).is_empty());
    }

    #[test]
    fn fig7_has_active_endpoints() {
        let (_, _, na) = flows::tests::fixture();
        let m = measured();
        let f7 = fig7(&m.analyzer, na, &m.fig6);
        let active = f7.endpoints.iter().filter(|(_, n, _)| *n > 0.0).count();
        assert!(active > 0, "the chosen pattern must exercise endpoints");
        assert!(!render_fig7(&f7).is_empty());
    }
}
