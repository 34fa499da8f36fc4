//! The bundled case study: design + timing + clock tree + power grid.

use scap_netlist::ClockId;
use scap_power::GridConfig;
use scap_soc::{SocConfig, SocDesign};
use scap_timing::{ClockArrivals, ClockTree, DelayAnnotation};

/// A generated SOC together with everything the experiments need:
/// extracted delay annotation, the dominant domain's clock tree and a
/// power-grid configuration calibrated so that IR-drop magnitudes land in
/// the paper's range at any design scale.
#[derive(Debug)]
pub struct CaseStudy {
    /// The generated design.
    pub design: SocDesign,
    /// Extracted per-instance delays and net capacitances.
    pub annotation: DelayAnnotation,
    /// Clock tree of the dominant (`clka`) domain.
    pub clock_tree: ClockTree,
    /// Nominal clock arrivals of the dominant domain.
    pub arrivals: ClockArrivals,
    /// Power-grid configuration shared by all analyses.
    pub grid: GridConfig,
}

impl CaseStudy {
    /// Builds a case study at the given design scale (1.0 = paper size).
    pub fn new(scale: f64) -> Self {
        Self::with_config(SocConfig::turbo_eagle(scale))
    }

    /// Builds a case study at `scale` with an explicit generator seed
    /// (the Turbo-Eagle preset otherwise). Different seeds yield
    /// structurally different — but individually deterministic —
    /// designs; the serving layer keys its design cache on
    /// `(scale, seed)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1.0` (validate first when the inputs
    /// come from a request).
    pub fn with_seed(scale: f64, seed: u64) -> Self {
        let mut config = SocConfig::turbo_eagle(scale);
        config.seed = seed;
        Self::with_config(config)
    }

    /// The generator seed of the Turbo-Eagle preset (what
    /// [`CaseStudy::new`] uses).
    pub fn default_seed() -> u64 {
        SocConfig::turbo_eagle(1.0).seed
    }

    /// Builds a case study from an explicit SOC configuration.
    pub fn with_config(config: SocConfig) -> Self {
        let design = SocDesign::generate(&config);
        let annotation = DelayAnnotation::extract(&design.netlist, &design.floorplan);
        let clka = design.dominant_clock();
        let clock_tree = ClockTree::synthesize(&design.netlist, &design.floorplan, clka);
        let arrivals = clock_tree.arrivals();
        let grid = Self::calibrated_grid(config.scale);
        CaseStudy {
            design,
            annotation,
            clock_tree,
            arrivals,
            grid,
        }
    }

    /// A small instance suitable for tests and doc examples (seconds to
    /// run full flows on, ~120 flops).
    pub fn small() -> Self {
        Self::new(0.005)
    }

    /// The dominant clock domain (`clka`).
    pub fn clka(&self) -> ClockId {
        self.design.dominant_clock()
    }

    /// Tester cycle of the dominant domain, ps (20 ns in the paper).
    pub fn period_ps(&self) -> f64 {
        self.design.netlist.clock(self.clka()).period_ps()
    }

    /// Grid calibration: the mesh branch resistance scales inversely with
    /// design scale so that the *voltage* magnitudes stay in the paper's
    /// range (tenths of a volt for hot patterns on a 1.8 V rail) — a
    /// smaller synthetic chip draws proportionally less current, and a
    /// real smaller chip would also have a proportionally thinner grid.
    fn calibrated_grid(scale: f64) -> GridConfig {
        GridConfig {
            nodes_per_side: 24,
            // ~6 Ω per mesh branch at full scale; scaled designs draw
            // proportionally less current, so the branch resistance rises
            // to keep hot-pattern drops in the paper's 0.2-0.3 V range.
            branch_resistance_ohm: 6.0 / scale,
            num_pads: 37,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_study_is_consistent() {
        let s = CaseStudy::small();
        assert_eq!(s.annotation.num_gates(), s.design.netlist.num_gates());
        assert_eq!(s.annotation.num_flops(), s.design.netlist.num_flops());
        assert_eq!(s.design.netlist.clock(s.clka()).name, "clka");
        assert!((s.period_ps() - 20_000.0).abs() < 1e-6);
        // Every clka flop has a clock arrival.
        let covered = s.arrivals.iter().count();
        assert_eq!(covered, s.design.netlist.flops_in_clock(s.clka()).count());
    }

    #[test]
    fn grid_resistance_scales_inversely() {
        let a = CaseStudy::calibrated_grid(0.01);
        let b = CaseStudy::calibrated_grid(0.1);
        assert!(a.branch_resistance_ohm > b.branch_resistance_ohm);
        assert_eq!(a.num_pads, 37);
    }
}
