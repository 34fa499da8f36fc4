//! # scap — supply-voltage-noise-aware transition delay fault ATPG
//!
//! A from-scratch reproduction of *"Transition Delay Fault Test Pattern
//! Generation Considering Supply Voltage Noise in a SOC Design"*
//! (Ahmed, Tehranipoor, Jayaram — DAC 2007), including every substrate the
//! paper's commercial flow provided: netlist + library, scan insertion,
//! two-frame PODEM ATPG with fill options, gate-level timing simulation,
//! parasitic-aware delay annotation, a clock tree, a resistive power grid
//! with statistical and dynamic IR-drop analysis, and the paper's CAP /
//! SCAP pattern power models.
//!
//! The crate is a facade: the subsystems live in the re-exported
//! sub-crates ([`netlist`], [`sim`], [`dft`], [`tgen`], [`power`],
//! [`timing`], [`soc`]) and this crate adds the paper's methodology:
//!
//! * [`CaseStudy`] — a generated Turbo-Eagle-like SOC bundled with its
//!   extracted timing, clock tree and calibrated power grid,
//! * [`PatternAnalyzer`] — per-pattern toggle traces, STW, SCAP/CAP and
//!   endpoint delays (with and without IR-drop-scaled cell delays),
//! * [`flows`] — the conventional random-fill flow and the paper's staged
//!   noise-aware flow (per-block targeting + fill-0 + SCAP screening),
//! * [`experiments`] — one driver per table/figure of the paper.
//!
//! # Quickstart
//!
//! ```
//! use scap::{CaseStudy, flows};
//!
//! // A small (seeded, deterministic) instance of the case-study SOC.
//! let study = CaseStudy::small();
//! let conventional = flows::conventional(&study);
//! let noise_aware = flows::noise_aware(&study);
//! assert!(noise_aware.patterns.len() >= conventional.patterns.len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
mod analyzer;
mod case_study;
pub mod experiments;
pub mod flows;
mod grade;
pub mod schedule;
pub mod sta;

pub use analyzer::{EndpointDelayReport, PatternAnalyzer};
pub use case_study::CaseStudy;
pub use grade::{compact_patterns, grade_patterns, GradeResult};

/// Re-export: scan insertion and pattern types.
pub use scap_dft as dft;
/// Re-export: netlist, library and floorplan types.
pub use scap_netlist as netlist;
/// Re-export: power grid, IR-drop and SCAP models.
pub use scap_power as power;
/// Re-export: logic/fault/event simulation.
pub use scap_sim as sim;
/// Re-export: the synthetic SOC generator.
pub use scap_soc as soc;
/// Re-export: the ATPG engine.
pub use scap_tgen as tgen;
/// Re-export: delay annotation, clock tree, STA, delay scaling.
pub use scap_timing as timing;
