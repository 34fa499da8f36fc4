//! Timing infrastructure: delay annotation, clock-tree modeling, static
//! timing analysis and IR-drop-aware delay scaling.
//!
//! This crate stands in for three pieces of the paper's commercial flow:
//!
//! * **Parasitic extraction** (Synopsys STAR-RCXT → SPEF):
//!   [`DelayAnnotation::extract`] derives per-instance rise/fall delays and
//!   per-net wire capacitance from the library and floorplan.
//! * **Clock-tree synthesis**: [`ClockTree`] builds a recursive-subdivision
//!   buffer tree per clock domain and reports per-flop clock arrival
//!   (insertion delay + skew).
//! * **SDF back-annotation + delay scaling under IR-drop** (paper §3.2):
//!   [`scaling::scale_annotation`] applies
//!   `scaled = delay · (1 + k_volt · ΔV)` per instance, and
//!   [`ClockTree::arrivals_with_drop`] re-times the clock network the same
//!   way — the mechanism behind the paper's Figure 7 "Region 2" endpoints.
//!
//! # Example
//!
//! ```
//! use scap_netlist::{CellKind, ClockEdge, NetlistBuilder};
//! use scap_timing::DelayAnnotation;
//!
//! # fn main() -> Result<(), scap_netlist::BuildError> {
//! let mut b = NetlistBuilder::new("d");
//! let blk = b.add_block("B1");
//! let a = b.add_primary_input("a");
//! let y = b.add_net("y");
//! b.add_gate(CellKind::Inv, &[a], y, blk)?;
//! let n = b.finish()?;
//! let ann = DelayAnnotation::unit_wire(&n);
//! assert!(ann.gate_rise_ps(scap_netlist::GateId::new(0)) > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod annotation;
mod clock_tree;
pub mod scaling;
mod slack;
#[cfg(test)]
mod sta;

pub use annotation::DelayAnnotation;
pub use clock_tree::{ClockArrivals, ClockTree, TreeBuffer};
pub use slack::{EndpointTiming, PathReport, RiskTier, SlackSta};
