//! Synchronous round-based network simulator.
//!
//! The paper's scheduler is a *distributed* algorithm: nodes gather k-hop
//! connectivity, elect m-hop independent sets and delete themselves in
//! rounds, all by exchanging messages with direct neighbours. This crate
//! provides the execution substrate:
//!
//! * [`Engine`] — a synchronous message-passing round engine over any
//!   [`confine_graph::GraphView`], with message/byte/round accounting and a
//!   hard rule that nodes may only message their direct neighbours.
//! * [`Protocol`] — the per-node state-machine trait.
//! * [`protocols`] — reusable building blocks: [`protocols::KHopDiscovery`]
//!   (learn the punctured k-hop neighbourhood graph),
//!   [`protocols::LocalMinElection`] (m-hop independent-set election by
//!   random priorities) and [`protocols::RepeatedDiscovery`] (loss-tolerant
//!   flooding).
//! * [`faults`] — deterministic fault injection: [`faults::FaultPlan`]
//!   scripts crash faults (with optional recovery), network partitions,
//!   link flapping and per-link loss, and [`faults::Heartbeat`] detects
//!   crashed neighbours within a configurable timeout.
//! * [`chaos`] — the deterministic simulation-testing substrate: seed
//!   triples, fault-event plans, replayable traces and a delta-debugging
//!   shrinker for minimal counterexamples.
//! * [`server_faults`] — deterministic fault scripts for the coverage
//!   server's request path (drop/duplicate/delay, slow-client stalls,
//!   combiner crashes), consumed by `confine-server`.
//!
//! See the [`Engine`] docs for a complete runnable example.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;

pub mod chaos;
pub mod faults;
pub mod protocols;
pub mod server_faults;

pub use engine::{Context, Engine, Envelope, LinkModel, Protocol, RunStats, SimError};
