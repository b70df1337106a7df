//! Deployment, radio and geometric-verification substrate for the `confine`
//! workspace.
//!
//! The paper evaluates on simulated uniform deployments (Sec. VI-A) and on a
//! topology extracted from the GreenOrbs forest testbed (Sec. VI-B). This
//! crate provides everything those experiments need **except** the coverage
//! algorithms themselves:
//!
//! * [`geometry`] — points, rectangles, minimum enclosing circles (the hole
//!   metric), winding-parity tests;
//! * [`deployment`] — uniform / perturbed-grid node placement;
//! * [`radio`] — UDG and quasi-UDG connectivity models;
//! * [`mobility`] — random-waypoint / bounded-drift walkers, duty-cycle
//!   schedules and degradation-aware churn connectivity;
//! * [`trace`] — the synthetic GreenOrbs RSSI pipeline (log-normal
//!   shadowing, best-10 records per packet, threshold extraction);
//! * [`scenario`] — bundles graph + ground truth + boundary flags;
//! * [`coverage`] — rasterised ground-truth coverage verification with hole
//!   diameters;
//! * [`outer`] — certified outer-boundary walks for criterion verification;
//! * `format` — a plain-text scenario format for the CLI tooling;
//! * [`svg`] — SVG snapshot rendering (the graphical Fig. 2 / Fig. 7 glyphs);
//! * [`setcover`] — the location-privileged greedy disk-cover baseline.
//!
//! Ground-truth positions exist **only** for generation and verification;
//! the coverage algorithms in `confine-core` consume nothing but the
//! connectivity graph and the boundary flags, exactly as the paper requires.
//!
//! # Example
//!
//! ```
//! use confine_deploy::scenario::random_udg_scenario;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let s = random_udg_scenario(300, 1.0, 18.0, &mut rng);
//! assert_eq!(s.graph.node_count(), 300);
//! assert!(s.boundary_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod deployment;
pub mod format;
pub mod geometry;
pub mod mobility;
pub mod outer;
pub mod radio;
pub mod scenario;
pub mod setcover;
pub mod svg;
pub mod trace;

pub use deployment::Deployment;
pub use geometry::{Circle, Point, Rect};
pub use radio::CommModel;
pub use scenario::Scenario;
