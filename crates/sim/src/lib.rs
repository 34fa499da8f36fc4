//! Logic, fault and timing simulation for the `scap-atpg` suite.
//!
//! This crate replaces the simulation half of the paper's commercial flow
//! (Synopsys VCS + PLI):
//!
//! * [`LogicSim`] — levelized three-valued (`0/1/X`) zero-delay simulation
//!   (PODEM's good-machine frames),
//! * [`loc`] — the two-frame transition-fault model every engine shares:
//!   the launch rule ([`loc::state2_sources`] / [`loc::launch_state`] for
//!   launch-off-capture and launch-off-shift) and the observability map
//!   ([`loc::observation_points`] / [`loc::observable_mask`]),
//! * [`BatchSim`] — 64-way bit-parallel good-machine simulation,
//! * [`TransitionFaultSim`] — PPSFP transition-delay-fault simulation with
//!   fault dropping (drives coverage curves and dynamic compaction); its
//!   [`TransitionFaultSim::detect_one`] over [`loc::BatchFrames`] is the
//!   one detection kernel,
//! * [`EventSim`] — event-driven gate-level timing simulation producing a
//!   [`ToggleTrace`] (the VCD substitute) and the per-pattern switching
//!   time window (STW) that defines SCAP; one exact femtosecond kernel
//!   over a [`SimTable`] and [`GateDelays`], whose working buffers a
//!   worker keeps in an [`EventScratch`] across patterns.
//!
//! # Example
//!
//! ```
//! use scap_netlist::{CellKind, Logic, NetlistBuilder};
//! use scap_sim::LogicSim;
//!
//! # fn main() -> Result<(), scap_netlist::BuildError> {
//! let mut b = NetlistBuilder::new("d");
//! let blk = b.add_block("B1");
//! let a = b.add_primary_input("a");
//! let y = b.add_net("y");
//! b.add_gate(CellKind::Inv, &[a], y, blk)?;
//! let n = b.finish()?;
//! let sim = LogicSim::new(&n);
//! let values = sim.eval(&[], &[Logic::One]);
//! assert_eq!(values[y.index()], Logic::Zero);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod event;
mod fault;
mod fault_sim;
pub mod loc;
mod logic_sim;
mod sched;
mod table;

pub use batch::BatchSim;
pub use event::{EventScratch, EventSim, GateDelays, ToggleEvent, ToggleTrace};
pub use fault::{CollapseMap, FaultList, FaultSite, Polarity, TransitionFault};
pub use fault_sim::{DetectionSummary, PropagationScratch, TransitionFaultSim};
pub use loc::LaunchMode;
pub use logic_sim::LogicSim;
pub use sched::LevelQueue;
pub use table::SimTable;
