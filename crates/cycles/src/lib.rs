//! Cycle-space machinery for connectivity-based coverage.
//!
//! This crate implements the graph-topological toolbox of Sec. IV of
//! *"Distributed Coverage in Wireless Ad Hoc and Sensor Networks by
//! Topological Graph Approaches"* (ICDCS 2010):
//!
//! * [`gf2`] — GF(2) bit vectors; cycles are edge-incidence vectors and
//!   cycle addition is XOR.
//! * [`linalg`] — incremental Gaussian elimination: independence oracles and
//!   unique-decomposition solvers.
//! * [`Cycle`] — elements of a graph's cycle space, with simple-cycle
//!   recovery.
//! * [`space`] — circuit rank and fundamental-cycle bases.
//! * [`horton`] — minimum cycle bases via the modified Horton algorithm
//!   (Algorithm 1 of the paper) and the min/max irreducible-cycle bounds of
//!   Theorem 4.
//! * [`partition`] — the exact `τ`-partitionability test behind the paper's
//!   coverage criterion (Propositions 2 and 3).
//! * [`relevant`] — enumeration of all irreducible (relevant) cycles, the
//!   "void spectrum" of a topology (Definition 4 / Vismara).
//! * [`brute`] — exponential-time reference oracles used to validate all of
//!   the above.
//!
//! # Example
//!
//! ```
//! use confine_cycles::{horton, partition::PartitionTester, Cycle};
//! use confine_graph::{generators, NodeId};
//!
//! // A wheel: hub 0, rim 1..=6. The rim is 3-partitionable because it is
//! // the sum of the six hub triangles.
//! let g = generators::wheel_graph(6);
//! let rim: Vec<NodeId> = (1..=6).map(NodeId::from).collect();
//! let rim_cycle = Cycle::from_vertex_cycle(&g, &rim)?;
//!
//! let bounds = horton::irreducible_cycle_bounds(&g).expect("the wheel has cycles");
//! assert_eq!((bounds.min, bounds.max), (3, 3));
//!
//! let tester = PartitionTester::new(&g);
//! assert_eq!(tester.min_partition_tau(rim_cycle.edge_vec()), Some(3));
//! # Ok::<(), confine_cycles::CycleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cycle;

pub mod brute;
pub mod gf2;
pub mod horton;
pub mod linalg;
pub mod partition;
pub mod relevant;
pub mod space;

pub use cycle::{Cycle, CycleError};
