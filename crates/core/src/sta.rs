//! Noise-aware static timing analysis over a [`CaseStudy`]: nominal and
//! IR-drop-derated slack, fault risk tiers for ATPG targeting, and the
//! per-pattern timing screen that flags the paper's false failures.
//!
//! The derated pass is pattern-*independent*: it takes each block's
//! worst-case supply droop from the vector-less statistical grid solve
//! (paper Table 3, Case 2 — 30 % toggles over a half-cycle window) and
//! maps it through `scale_factor(ΔV, k)` into per-gate delay scaling, so
//! the slack distribution answers "which paths could noise break" before
//! a single pattern exists. The per-pattern screen
//! ([`TimingScreen::run`]) then replays generated patterns under their
//! *own* dynamic IR-drop and marks any whose derated launch-to-capture
//! delay exceeds the domain period as `timing_invalidated` — the paper's
//! §3.2 false-failure mechanism, complementing the SCAP power screen.

use crate::{experiments, CaseStudy, PatternAnalyzer};
use scap_dft::PatternSet;
use scap_exec::Executor;
use scap_netlist::Netlist;
use scap_power::StatisticalReport;
use scap_sim::FaultList;
use scap_timing::{scaling, RiskTier, SlackSta};

/// Nominal + worst-case-derated STA of one case study.
///
/// # Example
///
/// ```
/// use scap::{sta::NoiseAwareSta, CaseStudy};
///
/// let study = CaseStudy::small();
/// let sta = NoiseAwareSta::worst_case(&study);
/// // Derating can only shrink slack.
/// assert!(sta.derated.worst_slack_ps() <= sta.nominal.worst_slack_ps());
/// ```
#[derive(Debug)]
pub struct NoiseAwareSta {
    /// Slack analysis under nominal (extracted) delays.
    pub nominal: SlackSta,
    /// Slack analysis under worst-case-droop-derated delays.
    pub derated: SlackSta,
    /// The statistical droop solve the derating came from.
    pub statistical: StatisticalReport,
    /// The delay-scaling coefficient used, V⁻¹ (library `k_volt` times
    /// the caller's derating factor).
    pub k_volt: f64,
}

impl NoiseAwareSta {
    /// Runs nominal + derated STA with the library's calibrated `k_volt`
    /// (0.9: a 0.1 V droop slows a cell 9 %).
    pub fn worst_case(study: &CaseStudy) -> Self {
        Self::with_derate(study, 1.0)
    }

    /// Runs nominal + derated STA with the library `k_volt` scaled by
    /// `k_factor` — `k_factor > 1` models a supply margined worse than
    /// the calibration (the "aggressive derating" sensitivity knob).
    pub fn with_derate(study: &CaseStudy, k_factor: f64) -> Self {
        let n = &study.design.netlist;
        scap_obs::counter!("sta.runs").incr();
        let nominal = SlackSta::run(n, &study.annotation, &study.arrivals);
        scap_obs::counter!("sta.endpoints").add(nominal.endpoints().len() as u64);
        scap_obs::counter!("sta.negative_slack_endpoints").add(
            nominal
                .endpoints()
                .iter()
                .filter(|e| e.slack_ps() < 0.0)
                .count() as u64,
        );
        // Worst-case regional droop: the statistical solve's per-block
        // worst VDD drop, applied to every cell of the block (the paper's
        // region-level view of the grid).
        let statistical = experiments::statistical_case2(study);
        let gate_drop: Vec<f64> = n
            .gates()
            .iter()
            .map(|g| statistical.blocks[g.block.index()].worst_drop_vdd_v)
            .collect();
        let flop_drop: Vec<f64> = n
            .flops()
            .iter()
            .map(|f| statistical.blocks[f.block.index()].worst_drop_vdd_v)
            .collect();
        let k_volt = k_factor * n.library.k_volt_per_volt;
        let scaled = scaling::scale_annotation(&study.annotation, &gate_drop, &flop_drop, k_volt);
        // The clock tree spans the die; derate it by the chip-worst droop
        // (conservative, and launch/capture shift together).
        let chip_drop = statistical.chip.worst_drop_vdd_v;
        let derated_arrivals = study.clock_tree.arrivals_with_drop(|_| chip_drop, k_volt);
        let derated = SlackSta::run(n, &scaled, &derated_arrivals);
        scap_obs::counter!("sta.derated_runs").incr();
        NoiseAwareSta {
            nominal,
            derated,
            statistical,
            k_volt,
        }
    }

    /// Risk tier per fault: the tier of the worst *derated* path through
    /// the fault-site net.
    pub fn fault_risk_tiers(&self, netlist: &Netlist, faults: &FaultList) -> Vec<RiskTier> {
        faults
            .faults()
            .iter()
            .map(|f| self.derated.risk_tier(f.site.net(netlist)))
            .collect()
    }

    /// Fault-targeting order for
    /// [`Generator::run_with_status_in_order`](scap_tgen::Generator::run_with_status_in_order):
    /// most-at-risk tier first, original index within a tier (a stable
    /// sort, so the order is deterministic and degenerates to the
    /// identity when every fault shares a tier).
    pub fn fault_priority_order(&self, netlist: &Netlist, faults: &FaultList) -> Vec<usize> {
        let tiers = self.fault_risk_tiers(netlist, faults);
        let mut order: Vec<usize> = (0..tiers.len()).collect();
        order.sort_by_key(|&i| tiers[i]);
        // Dynamic name per tier, so the per-callsite `counter!` interning
        // macro would pin all four tiers to one counter — intern directly.
        for tier in RiskTier::ALL {
            let n = tiers.iter().filter(|&&t| t == tier).count() as u64;
            scap_obs::counter(match tier {
                RiskTier::Critical => "sta.risk.critical",
                RiskTier::High => "sta.risk.high",
                RiskTier::Moderate => "sta.risk.moderate",
                RiskTier::Low => "sta.risk.low",
            })
            .add(n);
        }
        order
    }

    /// `(tier, fault count)` histogram of the fault universe.
    pub fn tier_histogram(&self, netlist: &Netlist, faults: &FaultList) -> Vec<(RiskTier, usize)> {
        let tiers = self.fault_risk_tiers(netlist, faults);
        RiskTier::ALL
            .iter()
            .map(|&t| (t, tiers.iter().filter(|&&x| x == t).count()))
            .collect()
    }

    /// Per-endpoint `(flop, nominal slack, derated slack)` rows, in
    /// endpoint order — the data behind the CLI table and the
    /// evaluation's slack histogram.
    pub fn endpoint_slacks(&self) -> Vec<(scap_netlist::FlopId, f64, f64)> {
        self.nominal
            .endpoints()
            .iter()
            .zip(self.derated.endpoints())
            .map(|(n, d)| {
                debug_assert_eq!(n.flop, d.flop);
                (n.flop, n.slack_ps(), d.slack_ps())
            })
            .collect()
    }
}

/// Per-pattern timing screen: which generated patterns become false
/// failures once their own dynamic IR-drop derates the cell delays.
#[derive(Clone, Debug)]
pub struct TimingScreen {
    /// Worst derated endpoint delay per pattern, ps (relative to the
    /// capture clock arrival).
    pub max_derated_delay_ps: Vec<f64>,
    /// `true` where the derated delay exceeds the capture budget.
    pub invalidated: Vec<bool>,
    /// The budget: domain period minus flop setup, ps.
    pub budget_ps: f64,
    /// The delay-scaling coefficient used, V⁻¹.
    pub k_volt: f64,
}

impl TimingScreen {
    /// Screens every pattern of a set: re-simulates each under its own
    /// IR-drop-scaled delays (`k_factor` times the library `k_volt`) and
    /// flags patterns whose derated launch-to-capture delay exceeds
    /// `period − setup`. Frame 1 comes from one bit-parallel pass per 64
    /// patterns and is shared by each pattern's nominal and derated
    /// traces. Patterns are screened in parallel, one IR-drop session per
    /// worker; results are order-stable and bit-identical at every thread
    /// count.
    pub fn run(study: &CaseStudy, patterns: &PatternSet, k_factor: f64) -> Self {
        let analyzer = PatternAnalyzer::new(study);
        let n = &study.design.netlist;
        let k_volt = k_factor * n.library.k_volt_per_volt;
        let budget_ps = study.period_ps() - n.library.flop().setup_ps;
        let blocks = analyzer.frame_blocks(&patterns.filled);
        let index: Vec<usize> = (0..patterns.len()).collect();
        let max_derated_delay_ps: Vec<f64> = Executor::new().parallel_map_with(
            || analyzer.session(),
            &index,
            |session, &i| {
                let (_, scaled) = analyzer.scaled_lane(session, &blocks[i / 64], i % 64, k_volt);
                scaled.max_delay_ps()
            },
        );
        let invalidated: Vec<bool> = max_derated_delay_ps
            .iter()
            .map(|&d| d > budget_ps)
            .collect();
        scap_obs::counter!("sta.screen.patterns").add(invalidated.len() as u64);
        scap_obs::counter!("sta.screen.invalidated")
            .add(invalidated.iter().filter(|&&b| b).count() as u64);
        TimingScreen {
            max_derated_delay_ps,
            invalidated,
            budget_ps,
            k_volt,
        }
    }

    /// Number of timing-invalidated patterns.
    pub fn invalidated_count(&self) -> usize {
        self.invalidated.iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows;
    use scap_tgen::FaultStatus;
    use std::sync::OnceLock;

    fn study() -> &'static CaseStudy {
        static S: OnceLock<CaseStudy> = OnceLock::new();
        S.get_or_init(CaseStudy::small)
    }

    #[test]
    fn derating_slows_arrivals_and_shrinks_worst_slack() {
        let sta = NoiseAwareSta::worst_case(study());
        assert!(sta.statistical.chip.worst_drop_vdd_v > 0.0);
        let rows = sta.endpoint_slacks();
        assert!(!rows.is_empty());
        // Data arrivals only grow under derating (delays scale up, the
        // launch clock shifts later). Slack at a *short* endpoint can
        // grow — the capture clock shifts later too — but the worst
        // slack over the domain must shrink.
        for (n, d) in sta.nominal.endpoints().iter().zip(sta.derated.endpoints()) {
            assert!(
                d.data_arrival_ps >= n.data_arrival_ps - 1e-9,
                "{:?}",
                n.flop
            );
        }
        assert!(sta.derated.critical_path_ps() > sta.nominal.critical_path_ps());
        assert!(sta.derated.worst_slack_ps() < sta.nominal.worst_slack_ps());
    }

    #[test]
    fn aggressive_derate_is_monotone() {
        let mild = NoiseAwareSta::with_derate(study(), 1.0);
        let hot = NoiseAwareSta::with_derate(study(), 8.0);
        assert!(hot.derated.critical_path_ps() > mild.derated.critical_path_ps());
        assert!(hot.derated.worst_slack_ps() < mild.derated.worst_slack_ps());
    }

    #[test]
    fn priority_order_is_a_permutation_front_loading_risk() {
        let s = study();
        let sta = NoiseAwareSta::worst_case(s);
        let faults = FaultList::full(&s.design.netlist);
        let order = sta.fault_priority_order(&s.design.netlist, &faults);
        assert_eq!(order.len(), faults.faults().len());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &v)| i == v));
        // Tiers along the order are non-decreasing in risk rank.
        let tiers = sta.fault_risk_tiers(&s.design.netlist, &faults);
        for w in order.windows(2) {
            assert!(tiers[w[0]] <= tiers[w[1]]);
        }
        let hist = sta.tier_histogram(&s.design.netlist, &faults);
        assert_eq!(
            hist.iter().map(|&(_, c)| c).sum::<usize>(),
            faults.faults().len()
        );
    }

    #[test]
    fn prioritized_run_detects_comparable_coverage() {
        let s = study();
        let sta = NoiseAwareSta::worst_case(s);
        let n = &s.design.netlist;
        let faults = FaultList::full(n);
        let config = flows::flow_atpg_config(scap_dft::FillPolicy::Zero);
        let generator = scap_tgen::Generator::new(n, s.clka(), config);
        let order = sta.fault_priority_order(n, &faults);
        let base = generator.run(&faults);
        let prio = generator.run_with_status_in_order(
            &faults,
            vec![FaultStatus::Undetected; faults.faults().len()],
            &order,
        );
        // Same engine, same budget: coverage must not collapse just
        // because targeting order changed.
        assert!(prio.fault_coverage() >= base.fault_coverage() - 1.0);
    }

    #[test]
    fn identity_order_is_bit_identical_to_run() {
        let s = study();
        let n = &s.design.netlist;
        let faults = FaultList::full(n);
        let config = flows::flow_atpg_config(scap_dft::FillPolicy::Zero);
        let generator = scap_tgen::Generator::new(n, s.clka(), config);
        let base = generator.run(&faults);
        let order: Vec<usize> = (0..faults.faults().len()).collect();
        let same = generator.run_with_status_in_order(
            &faults,
            vec![FaultStatus::Undetected; faults.faults().len()],
            &order,
        );
        assert_eq!(base.patterns.filled, same.patterns.filled);
        assert_eq!(base.status, same.status);
    }

    /// The screen's per-worker sessions give exactly what one
    /// stand-alone call per pattern gives.
    #[test]
    fn screen_matches_per_pattern_scaled_delays() {
        let (s, conv, _) = flows::tests::fixture();
        let screen = TimingScreen::run(s, &conv.patterns, 40.0);
        let analyzer = PatternAnalyzer::new(s);
        for (i, filled) in conv.patterns.filled.iter().enumerate() {
            let (_, scaled) = analyzer.endpoint_delays_scaled_k(filled, screen.k_volt);
            assert_eq!(
                screen.max_derated_delay_ps[i].to_bits(),
                scaled.max_delay_ps().to_bits(),
                "pattern {i}"
            );
        }
    }

    #[test]
    fn aggressive_screen_invalidates_more() {
        let s = study();
        let flow = flows::conventional(s);
        let mild = TimingScreen::run(s, &flow.patterns, 1.0);
        let hot = TimingScreen::run(s, &flow.patterns, 40.0);
        assert_eq!(mild.invalidated.len(), flow.patterns.len());
        assert!(hot.invalidated_count() >= mild.invalidated_count());
        assert!(mild.budget_ps > 0.0);
    }
}
