//! Confine coverage: distributed, connectivity-only coverage scheduling by
//! topological graph approaches.
//!
//! This crate is the primary contribution of *"Distributed Coverage in
//! Wireless Ad Hoc and Sensor Networks by Topological Graph Approaches"*
//! (Dong, Liu, Liu, Liao — ICDCS 2010), rebuilt as a Rust library:
//!
//! * [`config`] — the confine-coverage granularity model (Proposition 1):
//!   confine size `τ` + sensing ratio `γ` → blanket or bounded-hole
//!   guarantee, and the `τ`-selection helpers that give DCC its edge over
//!   fixed-granularity baselines.
//! * [`vpt`] — the void preserving transformation (Definition 5): the local
//!   deletability test at the heart of the scheduler.
//! * [`edges`] — the edge-deletion operator of Definition 5 as a link
//!   pruner (an ablation the paper leaves unexercised).
//! * [`schedule`] — centralized DCC reference scheduler (maximal vertex
//!   deletion with m-hop-MIS parallel rounds).
//! * [`distributed`] — DCC-D: the same algorithm as an actual
//!   message-passing protocol with cost accounting.
//! * [`incremental`] — an optimized DCC-D that replaces per-round
//!   re-discovery with k-hop deletion notices and local view maintenance.
//! * [`repair`] — failure-adaptive coverage repair: heartbeat detection of
//!   crashed active nodes, k-hop wake-up of sleeping neighbours and local
//!   re-scheduling back to a VPT fixpoint, with Proposition-1 degradation
//!   bounds.
//! * [`chaos`] — the deterministic chaos harness: seed-triple campaigns of
//!   crash / recover / partition faults against the full schedule → repair
//!   → rejoin loop, with invariant oracles, replayable traces and a ddmin
//!   fault-script shrinker.
//! * [`churn`] — streaming coverage maintenance under continuous churn:
//!   mobility, duty-cycling and radio degradation feed per-round topology
//!   deltas into the repair loop, with graceful-degradation accounting
//!   (coverage-hole exposure, repair traffic, false-suspicion rate).
//! * [`verify`] — exact criterion verification (Propositions 2/3) and the
//!   boundary-coning pre-processing for multiply-connected areas.
//! * [`moebius`] — the Figure 1 Möbius-band network separating the
//!   cycle-partition criterion from the homology criterion.
//! * [`lifetime`] — an extension beyond the paper's evaluation: epoch-based
//!   rotation of coverage sets with energy-biased deletion priorities.
//!
//! # Quick start
//!
//! ```
//! use confine_core::config::best_tau_for_requirement;
//! use confine_core::prelude::*;
//! use confine_graph::generators;
//! use rand::SeedableRng;
//!
//! // A densely triangulated grid; outer ring is the boundary.
//! let g = generators::king_grid_graph(6, 6);
//! let boundary: Vec<bool> = (0..36)
//!     .map(|i| { let (x, y) = (i % 6, i / 6); x == 0 || y == 0 || x == 5 || y == 5 })
//!     .collect();
//!
//! // Application: γ = 1 sensing ratio, blanket coverage required.
//! let tau = best_tau_for_requirement(1.0, 1.0, 0.0).expect("γ ≤ √3");
//! assert_eq!(tau, 6);
//!
//! // One runner holds the parallel VPT engine; reuse it across runs to
//! // keep its worker arenas warm.
//! let mut runner = Dcc::builder(tau).centralized()?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let set = runner.run(&g, &boundary, &mut rng)?;
//! assert!(set.active_count() < 36, "some interior nodes sleep");
//! # Ok::<(), SimError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod churn;
pub mod config;
pub mod dcc;
pub mod distributed;
pub mod edges;
pub mod incremental;
pub mod lifetime;
pub mod moebius;
mod notices;
pub mod prelude;
pub mod repair;
pub mod schedule;
pub mod verify;
pub mod vpt;
pub mod vpt_engine;

pub use config::{ConfineConfig, Guarantee};
pub use dcc::{Dcc, DccBuilder};
pub use schedule::{CoverageSet, DeletionOrder};
pub use vpt_engine::{EngineConfig, EngineStats, VptEngine};
