//! Design characteristic reports (the paper's Tables 1 and 2).

use crate::SocDesign;
use scap_netlist::{ClockEdge, ClockId};
use scap_sim::FaultList;

/// One row of the clock-domain table (paper Table 2).
#[derive(Clone, Debug, PartialEq)]
pub struct ClockDomainRow {
    /// Domain name.
    pub name: String,
    /// Scan cells controlled by the domain.
    pub scan_cells: usize,
    /// Functional frequency, MHz.
    pub frequency_mhz: f64,
    /// Names of the blocks covered.
    pub blocks_covered: Vec<String>,
}

/// Design characteristics (paper Table 1) plus the per-domain breakdown
/// (paper Table 2).
#[derive(Clone, Debug, PartialEq)]
pub struct DesignReport {
    /// Number of clock domains.
    pub clock_domains: usize,
    /// Number of scan chains.
    pub scan_chains: usize,
    /// Total scan flops.
    pub total_scan_flops: usize,
    /// Falling-edge scan flops.
    pub negative_edge_flops: usize,
    /// Uncollapsed transition-delay-fault count.
    pub transition_faults: usize,
    /// Collapsed (working-set) fault count.
    pub collapsed_faults: usize,
    /// Combinational gate count.
    pub gates: usize,
    /// Per-domain rows, `clka` first.
    pub domains: Vec<ClockDomainRow>,
}

impl DesignReport {
    /// Builds the report for a generated design.
    pub fn build(design: &SocDesign) -> Self {
        let n = &design.netlist;
        let faults = FaultList::full(n);
        let negative_edge_flops = n
            .flops()
            .iter()
            .filter(|f| f.edge == ClockEdge::Falling)
            .count();
        let domains = (0..n.clocks().len())
            .map(|ci| {
                let clock = ClockId::new(ci as u32);
                let mut blocks: Vec<String> = n
                    .flops()
                    .iter()
                    .filter(|f| f.clock == clock)
                    .map(|f| n.block(f.block).name.clone())
                    .collect();
                blocks.sort();
                blocks.dedup();
                ClockDomainRow {
                    name: n.clock(clock).name.clone(),
                    scan_cells: n.flops_in_clock(clock).count(),
                    frequency_mhz: n.clock(clock).frequency_hz / 1.0e6,
                    blocks_covered: blocks,
                }
            })
            .collect();
        DesignReport {
            clock_domains: n.clocks().len(),
            scan_chains: design.chains.num_chains(),
            total_scan_flops: n.num_flops(),
            negative_edge_flops,
            transition_faults: faults.uncollapsed_count(),
            collapsed_faults: faults.faults().len(),
            gates: n.num_gates(),
            domains,
        }
    }

    /// Renders the Table 1 rows as `(label, value)` pairs.
    pub fn table1_rows(&self) -> Vec<(&'static str, String)> {
        vec![
            ("Clock Domains", self.clock_domains.to_string()),
            ("Scan Chains", self.scan_chains.to_string()),
            ("Total Scan Flops", self.total_scan_flops.to_string()),
            (
                "Negative Edge Scan Flops",
                self.negative_edge_flops.to_string(),
            ),
            (
                "Transition Delay Faults",
                self.transition_faults.to_string(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SocConfig;

    #[test]
    fn report_matches_the_design() {
        let d = SocDesign::generate(&SocConfig::turbo_eagle(0.01));
        let r = DesignReport::build(&d);
        assert_eq!(r.clock_domains, 6);
        assert_eq!(r.scan_chains, 16);
        assert_eq!(r.total_scan_flops, d.netlist.num_flops());
        assert!(r.negative_edge_flops >= 1);
        assert!(r.transition_faults > r.collapsed_faults);
        assert_eq!(r.domains.len(), 6);
        assert_eq!(r.table1_rows().len(), 5);
    }

    #[test]
    fn clka_covers_every_block() {
        let d = SocDesign::generate(&SocConfig::turbo_eagle(0.02));
        let r = DesignReport::build(&d);
        let clka = &r.domains[0];
        assert_eq!(clka.name, "clka");
        assert_eq!(clka.blocks_covered.len(), 6, "{:?}", clka.blocks_covered);
        // Block-local domains cover exactly one block.
        let clkb = &r.domains[1];
        assert_eq!(clkb.blocks_covered, vec!["B1".to_string()]);
    }

    #[test]
    fn domain_flop_counts_sum_to_total() {
        let d = SocDesign::generate(&SocConfig::turbo_eagle(0.015));
        let r = DesignReport::build(&d);
        let sum: usize = r.domains.iter().map(|d| d.scan_cells).sum();
        assert_eq!(sum, r.total_scan_flops);
    }
}
