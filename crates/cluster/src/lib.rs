//! Multi-process serving tier for the SCAP pipeline: crash isolation
//! for `scap serve`.
//!
//! A single `scap serve` process answers every endpoint from its own
//! design and response caches; a panic or abort that takes the process
//! down takes the whole API with it. This crate runs the same server
//! as N worker **processes** behind a **coordinator** that proxies the
//! API, so a dead worker costs one process, not the service: the
//! coordinator fails its requests over to the next live worker and
//! respawns it. Requests route by rendezvous hashing on the request's
//! `(scale, seed)`, so each worker owns a stable shard of the keyspace
//! and its caches stay warm for exactly that shard.
//!
//! ```text
//!              ┌────────────── scap cluster ──────────────┐
//!   client ──► │ coordinator: route ▸ failover            │
//!              │   │ rendezvous hash on (scale, seed)     │
//!              │   ├──► worker 0  (scap serve, own caches)│
//!              │   ├──► worker 1                          │
//!              │   └──► worker N-1                        │
//!              └──────── /metrics aggregation ────────────┘
//! ```
//!
//! * [`hash::Ring`] — the rendezvous router: balanced, and minimally
//!   disruptive when the fleet grows (property-tested).
//! * [`worker::Fleet`] — process supervision: spawn, probe `/healthz`,
//!   mark dead after consecutive failures, respawn with exponential
//!   backoff, drain on shutdown.
//! * [`coordinator::Coordinator`] — the thin std-only HTTP proxy:
//!   routing with handoff to the next slot when the owner is dead,
//!   failover on transport errors and gateway-shaped statuses,
//!   fleet-wide `/metrics` aggregation.
//!
//! Everything observable lives in the `cluster.*` metric family —
//! routing (`cluster.route.*`), failover (`cluster.failover.*`),
//! supervision (`cluster.probe.*`, `cluster.worker.*`) — documented in
//! the `scap-obs` name registry.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coordinator;
pub mod hash;
pub mod worker;

pub use coordinator::{ClusterConfig, ClusterController, Coordinator};
pub use hash::Ring;
pub use worker::{Fleet, WorkerInfo};
