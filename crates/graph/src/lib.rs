//! Undirected-graph substrate for the `confine` workspace.
//!
//! This crate provides the compact, deterministic graph representation that the
//! cycle-space machinery (`confine-cycles`) and the coverage scheduler
//! (`confine-core`) are built on. It is deliberately small and
//! self-contained: node and edge identifiers are dense indices, adjacency is
//! stored as sorted neighbour lists, and every edge owns a stable [`EdgeId`]
//! so that cycles can be represented as GF(2) incidence vectors over the edge
//! set.
//!
//! # Highlights
//!
//! * [`Graph`] — simple undirected graph with stable edge identifiers.
//! * [`GraphView`] — a read-only abstraction implemented both by [`Graph`] and
//!   by [`Masked`], the zero-copy "some nodes are switched off" view used by
//!   the sleep-scheduling algorithms. Adjacency is exposed as borrowed
//!   `&[NodeId]` slices; [`EdgeView`] adds edge-id access for the cycle-space
//!   kernels.
//! * [`CsrGraph`] and [`NeighborhoodScratch`] — the packed engine substrate:
//!   epoch-stamped, allocation-free k-hop ball extraction and induced-CSR
//!   construction, bit-identical to [`Graph::induced_subgraph`].
//! * [`traverse`] — BFS/DFS utilities, connectivity, k-hop balls.
//! * [`spt`] — shortest-path trees with lowest-common-ancestor queries, the
//!   building block of Horton's minimum-cycle-basis algorithm.
//! * [`mis`] — m-hop maximal independent sets, used to parallelise node
//!   deletions in the distributed coverage scheduler.
//! * [`generators`] — deterministic graph families used throughout the test
//!   and benchmark suites.
//! * [`cut`] — articulation points and bridges, used by the schedulers'
//!   connectivity diagnostics.
//!
//! # Example
//!
//! ```
//! use confine_graph::{Graph, GraphView, traverse};
//!
//! let mut g = Graph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! let c = g.add_node();
//! g.add_edge(a, b)?;
//! g.add_edge(b, c)?;
//! assert_eq!(g.node_count(), 3);
//! assert!(traverse::is_connected(&g));
//! assert_eq!(traverse::distance(&g, a, c), Some(2));
//! # Ok::<(), confine_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod error;
mod graph;
mod view;

pub mod cut;
pub mod generators;
pub mod mis;
pub mod spt;
pub mod traverse;

pub use csr::{CsrGraph, NeighborhoodScratch};
pub use error::GraphError;
pub use graph::{EdgeId, Graph, InducedSubgraph, NodeId};
pub use view::{EdgeView, GraphView, Masked};
