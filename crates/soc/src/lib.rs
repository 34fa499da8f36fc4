//! Synthetic SOC generation modeled on the paper's case-study chip.
//!
//! The paper evaluates on *Turbo-Eagle*, a dual-processor 180 nm SOC with
//! six blocks (B1…B6) on an AMBA bus, six clock domains, ~23 K scan flops
//! in 16 chains and 22 falling-edge flops on a dedicated chain. The
//! netlist is proprietary, so this crate generates a seeded synthetic
//! design with the same *shape*:
//!
//! * per-domain flop counts follow the paper's Table 2 ratios (`clka`
//!   dominates with ~78 % of the flops and spans every block),
//! * block B5 sits at the die center with the highest cell density — the
//!   block the paper finds to dominate switching power and IR-drop,
//! * random logic clouds of configurable depth hang between scan flops,
//!   with every gate output consumed (no dead logic), plus a sprinkling
//!   of cross-block "bus" signals,
//! * placement is uniform inside each block's floorplan rectangle,
//! * scan is stitched by [`scap_dft::insert_scan`] over the placement.
//!
//! Everything is parameterized by a single [`SocConfig::scale`] so the
//! whole evaluation can run from laptop-sized (scale ≈ 0.05) to paper-
//! sized (scale = 1.0) designs.
//!
//! # Example
//!
//! ```
//! use scap_soc::{SocConfig, SocDesign};
//!
//! let design = SocDesign::generate(&SocConfig::turbo_eagle(0.01));
//! assert_eq!(design.netlist.blocks().len(), 6);
//! assert_eq!(design.netlist.clocks().len(), 6);
//! assert!(design.netlist.num_flops() > 100);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod generate;
mod report;

pub use generate::{DomainPlan, SocConfig, SocDesign, SocPlan, MIN_SCALE};
pub use report::{ClockDomainRow, DesignReport};
