//! Power-delivery analysis for the `scap-atpg` suite.
//!
//! Replaces the power half of the paper's flow (Cadence SOC Encounter):
//!
//! * [`PowerGrid`] — a resistive VDD/VSS mesh with periphery pads (the
//!   paper's chip has 37 VDD and 37 VSS pads), assembled once and solved
//!   by Jacobi-preconditioned conjugate gradient through a reusable
//!   [`GridSolver`] (every solve a cold start, so one solver per worker
//!   keeps parallel loops bit-identical),
//! * [`StatisticalAnalysis`] — vector-less IR-drop estimation from a
//!   uniform toggle probability over a chosen time window (paper §2.2,
//!   Table 3's full-cycle vs half-cycle cases),
//! * [`DynamicAnalysis`] — per-pattern IR-drop from an event-simulation
//!   toggle trace over the pattern's switching time window (paper §2.4,
//!   Figure 3), solved through per-thread [`DynSession`]s,
//! * [`ScapCalculator`] — the paper's headline contribution: per-pattern
//!   **CAP** (cycle average power) and **SCAP** (switching cycle average
//!   power) accounting, per block and chip-level (paper §2.3, Figures 2
//!   and 6).
//!
//! Unit conventions: capacitance fF, time ps, voltage V, power mW
//! (1 fJ/ps = 1 mW), current A.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dynamic;
mod grid;
mod scap;
mod solve;
mod statistical;
mod waveform;

pub use dynamic::{DynSession, DynamicAnalysis, IrDropMap};
pub use grid::{GridConfig, GridSolver, PowerGrid};
pub use scap::{BlockPower, PatternPower, ScapCalculator};
pub use statistical::{BlockStatistics, StatisticalAnalysis, StatisticalReport};
pub use waveform::PowerWaveform;
