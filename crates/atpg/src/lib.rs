//! Transition-delay-fault automatic test pattern generation.
//!
//! Replaces the ATPG half of the paper's flow (Synopsys TetraMAX):
//!
//! * [`Podem`] — a two-time-frame PODEM engine for transition faults under
//!   launch-off-capture: frame 1 justifies the initial value at the fault
//!   site from the scan load; frame 2 (the combinational response after
//!   the launch edge, with primary inputs held) justifies the final value
//!   and propagates the fault effect to a capturing scan flop,
//! * [`Generator`] — the pattern-generation loop with greedy dynamic
//!   compaction (secondary fault targeting into unspecified bits) and
//!   PPSFP fault dropping, mirroring the greedy many-faults-per-pattern
//!   behaviour the paper observes in commercial tools,
//! * per-block fault targeting via
//!   [`FaultList::for_blocks`](scap_sim::FaultList::for_blocks) — the
//!   mechanism behind the paper's staged low-noise procedure.
//!
//! # Example
//!
//! ```no_run
//! # use scap_netlist::{Netlist, ClockId};
//! # fn demo(netlist: &Netlist) {
//! use scap_dft::FillPolicy;
//! use scap_sim::FaultList;
//! use scap_tgen::{AtpgConfig, Generator};
//!
//! let faults = FaultList::full(netlist);
//! let config = AtpgConfig { fill: FillPolicy::Random, ..AtpgConfig::default() };
//! let run = Generator::new(netlist, ClockId::new(0), config).run(&faults);
//! println!("{} patterns, {:.2}% coverage", run.patterns.len(), run.test_coverage() * 100.0);
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod generator;
mod sat_engine;

pub use engine::{Podem, PodemOutcome, PodemScratch};
pub use generator::{test_coverage, AtpgConfig, AtpgRun, EngineKind, FaultStatus, Generator};
pub use sat_engine::{SatAtpg, SatOutcome};
