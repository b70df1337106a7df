//! Unified entry point for every DCC scheduling flavour.
//!
//! [`Dcc::builder`] is the sole constructor idiom: one builder carries
//! τ, the deletion order, the [`EngineConfig`] of the shared
//! [`VptEngine`] and the fault plan, and yields
//! [`DccBuilder::centralized`], [`DccBuilder::distributed`],
//! [`DccBuilder::incremental`] and [`DccBuilder::repair`] runners. Every
//! runner owns its engine, so repeated runs reuse its worker arenas, and
//! invalid configurations surface as typed [`SimError`]s instead of panics.
//!
//! ```
//! use confine_core::prelude::*;
//! use confine_graph::generators;
//! use rand::SeedableRng;
//!
//! let g = generators::king_grid_graph(6, 6);
//! let boundary: Vec<bool> = (0..36)
//!     .map(|i| { let (x, y) = (i % 6, i / 6); x == 0 || y == 0 || x == 5 || y == 5 })
//!     .collect();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! let mut runner = Dcc::builder(4).threads(2).centralized()?;
//! let set = runner.run(&g, &boundary, &mut rng)?;
//! assert!(set.active_count() < 36, "some interior nodes sleep");
//!
//! // τ below the supported minimum is a typed error, not a panic.
//! assert!(matches!(
//!     Dcc::builder(2).centralized(),
//!     Err(SimError::InvalidTau { tau: 2, min: 3 })
//! ));
//! # Ok::<(), confine_netsim::SimError>(())
//! ```

use confine_graph::{Graph, NodeId};
use confine_netsim::faults::FaultPlan;
use confine_netsim::{LinkModel, SimError};
use rand::Rng;

use crate::distributed::{DistributedDcc, DistributedStats};
use crate::repair::{CoverageRepair, ReconcileOutcome, RejoinOutcome, RejoinPolicy, RepairOutcome};
use crate::schedule::{run_schedule, CoverageSet, DeletionOrder};
use crate::vpt_engine::{EngineConfig, EngineStats, VptEngine};

/// Namespace for the unified DCC builder; see the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct Dcc;

impl Dcc {
    /// Starts a builder for confine size `tau`.
    ///
    /// Validation happens in the finishers ([`DccBuilder::centralized`]
    /// etc.), which return [`SimError::InvalidTau`] for `tau < 3`.
    pub fn builder(tau: usize) -> DccBuilder {
        DccBuilder {
            tau,
            order: DeletionOrder::MisParallel,
            engine: EngineConfig::default(),
            link: LinkModel::Reliable,
            faults: None,
            round_limit: 10_000,
            heartbeat_timeout: crate::config::DEFAULT_HEARTBEAT_TIMEOUT,
            comm_range: 1.0,
        }
    }
}

/// Accumulates the configuration shared by all DCC flavours; finish with
/// [`DccBuilder::centralized`], [`DccBuilder::distributed`],
/// [`DccBuilder::incremental`] or [`DccBuilder::repair`].
#[derive(Debug)]
pub struct DccBuilder {
    tau: usize,
    order: DeletionOrder,
    engine: EngineConfig,
    link: LinkModel,
    faults: Option<FaultPlan>,
    round_limit: usize,
    heartbeat_timeout: usize,
    comm_range: f64,
}

impl DccBuilder {
    /// Selects the deletion discipline (default
    /// [`DeletionOrder::MisParallel`]).
    pub fn order(mut self, order: DeletionOrder) -> Self {
        self.order = order;
        self
    }

    /// Worker threads for the VPT fan-out; `0` (the default) resolves to the
    /// machine's available parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.engine.threads = threads;
        self
    }

    /// Replaces the whole engine configuration.
    pub fn engine_config(mut self, config: EngineConfig) -> Self {
        self.engine = config;
        self
    }

    /// Selects the link reliability model of the distributed flavour
    /// (default [`LinkModel::Reliable`]). The incremental and repair
    /// flavours model reliable links only and refuse a lossy model.
    pub fn link_model(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Runs the distributed and repair flavours under this crash/flap/loss
    /// script; the incremental flavour refuses one.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Overrides the per-phase communication round limit (default 10 000).
    pub fn round_limit(mut self, limit: usize) -> Self {
        self.round_limit = limit;
        self
    }

    /// Overrides the heartbeat silence timeout of the repair flavour
    /// (default [`crate::config::DEFAULT_HEARTBEAT_TIMEOUT`]).
    pub fn heartbeat_timeout(mut self, timeout: usize) -> Self {
        self.heartbeat_timeout = timeout;
        self
    }

    /// Sets the communication range `Rc` used to scale the repair
    /// degradation bounds (default 1.0).
    pub fn comm_range(mut self, rc: f64) -> Self {
        self.comm_range = rc;
        self
    }

    /// Refuses a lossy link model for the flavours that ignore it.
    fn check_reliable(&self, what: &'static str) -> Result<(), SimError> {
        match self.link {
            LinkModel::Reliable => Ok(()),
            LinkModel::Lossy { .. } => Err(SimError::UnsupportedFault { what }),
        }
    }

    fn check_tau(&self) -> Result<(), SimError> {
        if self.tau < crate::config::MIN_TAU {
            return Err(SimError::InvalidTau {
                tau: self.tau,
                min: crate::config::MIN_TAU,
            });
        }
        Ok(())
    }

    /// Finishes into the centralized scheduler (the paper's reference
    /// algorithm, engine-accelerated).
    pub fn centralized(self) -> Result<CentralizedRunner, SimError> {
        self.check_tau()?;
        Ok(CentralizedRunner {
            order: self.order,
            engine: VptEngine::new(self.tau, self.engine),
        })
    }

    /// Finishes into the message-passing DCC-D protocol driver.
    pub fn distributed(self) -> Result<DistributedRunner, SimError> {
        self.check_tau()?;
        Ok(DistributedRunner {
            inner: DistributedDcc::from_builder(self.tau, self.round_limit, self.link, self.faults),
            engine: VptEngine::new(self.tau, self.engine),
        })
    }

    /// Finishes into the incremental (deletion-notice) protocol driver.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTau`] for `tau < 3`, and
    /// [`SimError::UnsupportedFault`] for a lossy [`DccBuilder::link_model`]
    /// or any [`DccBuilder::fault_plan`]: the driver runs on reliable links
    /// without faults, and a dropped notice would leave a view stale.
    pub fn incremental(self) -> Result<IncrementalRunner, SimError> {
        self.check_tau()?;
        self.check_reliable("a lossy link model — the incremental driver assumes reliable links")?;
        if self.faults.is_some() {
            return Err(SimError::UnsupportedFault {
                what: "a fault plan — the incremental driver models no faults; \
                       use the distributed driver",
            });
        }
        Ok(IncrementalRunner {
            inner: CoverageRepair::from_builder(
                self.tau,
                self.heartbeat_timeout,
                self.round_limit,
                self.comm_range,
                FaultPlan::new(),
            ),
            engine: VptEngine::new(self.tau, self.engine),
        })
    }

    /// Finishes into the failure-adaptive coverage repair driver. A
    /// [`DccBuilder::fault_plan`] becomes the *ambient* environment every
    /// repair phase runs under (partitions, loss, flaps — crash entries
    /// stay the business of the explicit `crashed` argument).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTau`] for `tau < 3`, and
    /// [`SimError::UnsupportedFault`] for a lossy
    /// [`DccBuilder::link_model`]: every repair phase runs on reliable
    /// links. Per-link loss belongs in the ambient fault plan.
    pub fn repair(self) -> Result<RepairRunner, SimError> {
        self.check_tau()?;
        self.check_reliable("a lossy link model — repair phases run on reliable links; put per-link loss in the ambient fault plan")?;
        Ok(RepairRunner {
            inner: CoverageRepair::from_builder(
                self.tau,
                self.heartbeat_timeout,
                self.round_limit,
                self.comm_range,
                self.faults.unwrap_or_default(),
            ),
            engine: VptEngine::new(self.tau, self.engine),
        })
    }
}

/// Engine-backed centralized DCC scheduler produced by
/// [`DccBuilder::centralized`].
#[derive(Debug)]
pub struct CentralizedRunner {
    order: DeletionOrder,
    engine: VptEngine,
}

impl CentralizedRunner {
    /// Runs the schedule on `graph`; `boundary[i]` marks protected nodes.
    ///
    /// # Errors
    ///
    /// [`SimError::BoundaryMismatch`] if the flag slice does not cover the
    /// graph.
    pub fn run<R: Rng>(
        &mut self,
        graph: &Graph,
        boundary: &[bool],
        rng: &mut R,
    ) -> Result<CoverageSet, SimError> {
        run_schedule(
            graph,
            boundary,
            &[],
            |_| 0.0,
            self.order,
            &mut self.engine,
            rng,
        )
    }

    /// Counters of the underlying engine.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

/// Distributed DCC-D runner produced by [`DccBuilder::distributed`].
#[derive(Debug)]
pub struct DistributedRunner {
    inner: DistributedDcc,
    engine: VptEngine,
}

impl DistributedRunner {
    /// Executes the protocol on `graph` with the given boundary flags; see
    /// [`crate::distributed`] for the phase structure.
    ///
    /// Nodes crashed by the fault plan are removed from the topology as the
    /// run progresses; they end up in neither `active` nor `deleted` of the
    /// returned set, and are counted in [`DistributedStats::crashed`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BoundaryMismatch`] if the flag slice does not
    /// cover the graph, [`SimError::UnsupportedFault`] if the fault plan
    /// recovers a node, [`SimError::RoundLimitExceeded`] if any phase fails
    /// to converge within the configured limit (bounded-diameter phases
    /// always converge in `k` resp. `m` rounds, so this indicates a
    /// configuration error), or [`SimError::ElectionStalled`] when crashes
    /// keep emptying the winner set past the retry budget.
    pub fn run<R: Rng>(
        &mut self,
        graph: &Graph,
        boundary: &[bool],
        rng: &mut R,
    ) -> Result<(CoverageSet, DistributedStats), SimError> {
        self.inner.run(graph, boundary, &mut self.engine, rng)
    }

    /// Counters of the underlying engine.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

/// Incremental DCC-D runner produced by [`DccBuilder::incremental`].
#[derive(Debug)]
pub struct IncrementalRunner {
    inner: CoverageRepair,
    engine: VptEngine,
}

impl IncrementalRunner {
    /// Executes the protocol on `graph` with the given boundary flags; see
    /// [`crate::incremental`] for the phase structure.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BoundaryMismatch`] if the flag slice does not
    /// cover the graph, or [`SimError::RoundLimitExceeded`] if a phase
    /// exceeds the configured limit.
    pub fn run<R: Rng>(
        &mut self,
        graph: &Graph,
        boundary: &[bool],
        rng: &mut R,
    ) -> Result<(CoverageSet, DistributedStats), SimError> {
        crate::incremental::run(&self.inner, graph, boundary, &mut self.engine, rng)
    }

    /// Counters of the underlying engine.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

/// Coverage-repair runner produced by [`DccBuilder::repair`].
#[derive(Debug)]
pub struct RepairRunner {
    inner: CoverageRepair,
    engine: VptEngine,
}

impl RepairRunner {
    /// Detects the crash of `crashed`, wakes its `k`-ball and prunes back to
    /// a global VPT fixpoint; see [`crate::repair`] for the phases.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotActive`] if `crashed` is not in `active`,
    /// [`SimError::BoundaryMismatch`] if the flag slice does not cover the
    /// graph, or [`SimError::RoundLimitExceeded`] if a repair phase fails
    /// to converge within the configured limit.
    pub fn repair<R: Rng>(
        &mut self,
        graph: &Graph,
        boundary: &[bool],
        active: &[NodeId],
        crashed: NodeId,
        rng: &mut R,
    ) -> Result<RepairOutcome, SimError> {
        self.inner.repair(
            graph,
            boundary,
            active,
            crashed,
            CoverageRepair::prune_to_fixpoint,
            &mut self.engine,
            rng,
        )
    }

    /// Re-enters a crash-recovered `node` with its pre-crash active-set
    /// `snapshot` under the given [`RejoinPolicy`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BoundaryMismatch`] if the flag slice does not
    /// cover the graph, [`SimError::Internal`] if `node` is already active,
    /// or [`SimError::RoundLimitExceeded`] if a phase fails to converge.
    #[allow(clippy::too_many_arguments)]
    pub fn rejoin<R: Rng>(
        &mut self,
        graph: &Graph,
        boundary: &[bool],
        active: &[NodeId],
        node: NodeId,
        snapshot: &[NodeId],
        policy: RejoinPolicy,
        rng: &mut R,
    ) -> Result<RejoinOutcome, SimError> {
        self.inner.rejoin(
            graph,
            boundary,
            active,
            node,
            snapshot,
            policy,
            CoverageRepair::prune_to_fixpoint,
            &mut self.engine,
            rng,
        )
    }

    /// Reconciles the schedule around `dirty` seeds (the post-heal pass
    /// after a partition): sleeping nodes inside the seeds' `k`-balls wake
    /// and the union is pruned back to a global VPT fixpoint.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BoundaryMismatch`] if the flag slice does not
    /// cover the graph, or [`SimError::RoundLimitExceeded`] if a phase
    /// fails to converge.
    pub fn reconcile<R: Rng>(
        &mut self,
        graph: &Graph,
        boundary: &[bool],
        active: &[NodeId],
        dirty: &[NodeId],
        rng: &mut R,
    ) -> Result<ReconcileOutcome, SimError> {
        self.inner.reconcile(
            graph,
            boundary,
            active,
            dirty,
            CoverageRepair::prune_to_fixpoint,
            &mut self.engine,
            rng,
        )
    }

    /// Counters of the underlying engine.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confine_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn king_boundary(w: usize, h: usize) -> Vec<bool> {
        (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                x == 0 || y == 0 || x == w - 1 || y == h - 1
            })
            .collect()
    }

    #[test]
    fn builder_rejects_bad_inputs_with_typed_errors() {
        assert!(matches!(
            Dcc::builder(2).centralized(),
            Err(SimError::InvalidTau { tau: 2, min: 3 })
        ));
        assert!(matches!(
            Dcc::builder(0).distributed(),
            Err(SimError::InvalidTau { tau: 0, min: 3 })
        ));
        assert!(matches!(
            Dcc::builder(1).incremental(),
            Err(SimError::InvalidTau { .. })
        ));
        assert!(matches!(
            Dcc::builder(2).repair(),
            Err(SimError::InvalidTau { .. })
        ));
        let g = generators::path_graph(3);
        let mut rng = StdRng::seed_from_u64(0);
        let err = Dcc::builder(3)
            .centralized()
            .unwrap()
            .run(&g, &[true], &mut rng)
            .unwrap_err();
        assert_eq!(err, SimError::BoundaryMismatch { flags: 1, nodes: 3 });
    }

    #[test]
    fn repair_refuses_a_lossy_link_model() {
        let lossy = LinkModel::Lossy { p: 0.2, seed: 1 };
        assert!(matches!(
            Dcc::builder(4).link_model(lossy).repair(),
            Err(SimError::UnsupportedFault { .. })
        ));
        assert!(Dcc::builder(4)
            .link_model(LinkModel::Reliable)
            .repair()
            .is_ok());
        // Per-link loss stays available through the ambient plan.
        let plan = FaultPlan::new().link_loss(NodeId(0), NodeId(1), 0.5);
        assert!(Dcc::builder(4).fault_plan(plan).repair().is_ok());
    }

    #[test]
    fn incremental_refuses_a_lossy_link_model() {
        let lossy = LinkModel::Lossy { p: 0.2, seed: 1 };
        assert!(matches!(
            Dcc::builder(4).link_model(lossy).incremental(),
            Err(SimError::UnsupportedFault { .. })
        ));
        assert!(Dcc::builder(4)
            .link_model(LinkModel::Reliable)
            .incremental()
            .is_ok());
    }

    #[test]
    fn incremental_refuses_a_fault_plan() {
        let plan = FaultPlan::new().crash(NodeId(3), 2);
        assert!(matches!(
            Dcc::builder(4).fault_plan(plan).incremental(),
            Err(SimError::UnsupportedFault { .. })
        ));
    }

    #[test]
    fn centralized_runner_matches_reference_schedule() {
        let g = generators::king_grid_graph(6, 6);
        let boundary = king_boundary(6, 6);
        let mut new_rng = StdRng::seed_from_u64(21);
        let set = Dcc::builder(4)
            .centralized()
            .unwrap()
            .run(&g, &boundary, &mut new_rng)
            .unwrap();
        let reference = crate::schedule::reference_schedule(
            &g,
            &boundary,
            4,
            DeletionOrder::MisParallel,
            &mut StdRng::seed_from_u64(21),
        )
        .unwrap();
        assert_eq!(set.active, reference.active, "same RNG ⇒ same coverage set");
        assert_eq!(set.deleted, reference.deleted);
        assert_eq!(set.rounds, reference.rounds);
    }

    #[test]
    fn runner_reuse_keeps_results_stable() {
        let g = generators::king_grid_graph(6, 6);
        let boundary = king_boundary(6, 6);
        let mut runner = Dcc::builder(4).centralized().unwrap();
        let a = runner
            .run(&g, &boundary, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let evals_first = runner.engine_stats().evaluations;
        let b = runner
            .run(&g, &boundary, &mut StdRng::seed_from_u64(5))
            .unwrap();
        assert_eq!(a.active, b.active);
        assert_eq!(a.deleted, b.deleted);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(
            runner.engine_stats().evaluations,
            2 * evals_first,
            "a fresh run re-evaluates exactly what the first one did"
        );
    }
}
