//! One-stop imports for the builder-era API.
//!
//! ```
//! use confine_core::prelude::*;
//! ```
//!
//! brings in the [`Dcc`] builder with its runners, the coverage-set and
//! engine types, and the [`SimError`] they report with.

pub use crate::chaos::{ChaosOptions, ChaosReport, ChaosRunner, Counterexample};
pub use crate::churn::{ChurnMetrics, ChurnModel, ChurnOptions, ChurnReport, ChurnRunner};
pub use crate::config::{ConfineConfig, Guarantee};
pub use crate::dcc::{
    CentralizedRunner, Dcc, DccBuilder, DistributedRunner, IncrementalRunner, RepairRunner,
};
pub use crate::distributed::{DistributedStats, RepairTraffic};
pub use crate::repair::{ReconcileOutcome, RejoinOutcome, RejoinPolicy, RepairOutcome};
pub use crate::schedule::{CoverageSet, DeletionOrder};
pub use crate::vpt_engine::{EngineConfig, EngineStats, VptEngine};
pub use confine_netsim::SimError;
