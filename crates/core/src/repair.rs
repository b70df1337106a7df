//! Failure-adaptive coverage repair (robustness extension beyond the paper).
//!
//! The DCC scheduler produces a *static* active set; a crash-stop failure of
//! an active node afterwards can open a coverage hole the paper's guarantees
//! no longer cover. This module closes the loop distributedly:
//!
//! 1. **Detection** — the active nodes run [`Heartbeat`]; direct
//!    neighbours of the crashed node suspect it after `timeout + 1` silent
//!    rounds.
//! 2. **Wake-up** — the detectors flood a wake token `k + 1 = ⌈τ/2⌉ + 1`
//!    hops over the physical topology; every *sleeping* node inside the
//!    crashed node's `k`-hop neighbourhood rejoins the active set. Only
//!    nodes whose own punctured neighbourhood contained the crash site can
//!    have lost redundancy, so waking that ball restores all locally
//!    available coverage.
//! 3. **Local re-scheduling** — the enlarged active set is pruned back to a
//!    VPT fixpoint by election rounds, with candidates restricted to the
//!    *changed region*: nodes within `k` hops of any membership change so
//!    far (the crash, each woken node, each new deletion). Nodes outside the
//!    region kept their punctured `k`-ball verbatim, so their pre-crash "not
//!    deletable" verdicts still hold and the restricted loop reaches a
//!    **global** VPT fixpoint. Priorities are biased so freshly woken nodes
//!    go back to sleep first, keeping the repaired set close to the original
//!    schedule. The pass runs **one** `k`-hop discovery of the enlarged set;
//!    every internal node keeps what it learned as its view, and after each
//!    election the winners flood a deletion notice `k` hops, from which each
//!    receiver updates its view by a bounded BFS (the
//!    [`crate::incremental`] driver is this loop over the whole network).
//!    Under reliable links and an ambient plan that holds through every
//!    phase (round-0 crashes, open-ended partitions) each view equals what
//!    a fresh discovery would learn, so the verdicts, elections and
//!    schedule are those of re-discovering every round, at a fraction of
//!    the messages. Each view keeps its verdict until a notice changes it,
//!    so a prune round evaluates only the region's views that the last
//!    deletions reached.
//!
//! The returned [`Degradation`] bounds the transient via Proposition 1:
//! once repair completes the active set is again a `τ`-confine coverage, so
//! any hole has diameter at most `(τ − 2)·Rc`; *during* the transient the
//! crash can at worst merge the two confines sharing the dead node into one
//! cycle of `≤ 2τ − 2` hops, for a hole diameter of at most `(2τ − 4)·Rc`.

use std::collections::BTreeSet;

use confine_graph::{traverse, Graph, GraphView, Masked, NodeId};
use confine_netsim::faults::{FaultPlan, Heartbeat};
use confine_netsim::protocols::{KHopDiscovery, LocalMinElection, WakeFlood};
use confine_netsim::{Engine, SimError};
use rand::Rng;

use crate::distributed::{DistributedStats, RepairPhase};
use crate::notices::{flood_deletions, view_verdicts, LocalView};
use crate::schedule::CoverageSet;
use crate::vpt::{independence_radius, neighborhood_radius};
use crate::vpt_engine::VptEngine;

/// How far the repaired network strayed from the paper's guarantees, and for
/// how long (all bounds per Proposition 1; distances in units of `Rc`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degradation {
    /// Rounds from the crash until its neighbours suspected it
    /// (`timeout + 1` in the synchronous model).
    pub detection_rounds: usize,
    /// Communication rounds spent waking and re-scheduling after detection.
    pub repair_rounds: usize,
    /// Hole-diameter bound while the repair was in flight: the crash merges
    /// at most two `τ`-hop confines into a `≤ 2τ − 2` cycle, so
    /// `D ≤ (2τ − 4)·Rc`.
    pub transient_hole_bound: f64,
    /// Hole-diameter bound after repair: the active set is again a VPT
    /// fixpoint, hence a `τ`-confine coverage with `D ≤ (τ − 2)·Rc`.
    pub post_repair_hole_bound: f64,
}

/// The result of one [`RepairRunner::repair`](crate::dcc::RepairRunner::repair) call.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired schedule: `active` is the new active set, `deleted` the
    /// nodes this repair put (back) to sleep, `rounds` its deletion rounds.
    pub set: CoverageSet,
    /// Sleeping nodes woken by the repair (some may have been re-deleted;
    /// those appear in `set.deleted` too).
    pub woken: Vec<NodeId>,
    /// Detectors: active neighbours of the crash that raised the alarm.
    pub detectors: Vec<NodeId>,
    /// Traffic of all three repair phases (in `repair_messages`, split by
    /// phase in `repair`).
    pub stats: DistributedStats,
    /// Transient/steady-state coverage bounds.
    pub degradation: Degradation,
}

/// How a node that crash-recovered re-enters the schedule
/// ([`RepairRunner::rejoin`](crate::dcc::RepairRunner::rejoin)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RejoinPolicy {
    /// Wake the rejoiner's neighbourhood and re-run restricted VPT rounds
    /// until the active set is again a global fixpoint — the sound path.
    #[default]
    ReVerify,
    /// Trust the rejoiner's pre-crash snapshot verbatim: substitute nodes
    /// that woke while it was down are sent straight back to sleep and no
    /// VPT verdict is re-checked. **Deliberately unsound** — the snapshot
    /// is stale, so this can tear open a covered hole. Kept as the planted
    /// regression the chaos shrinker demo hunts (DESIGN.md §11).
    TrustSnapshot,
}

/// The result of one [`RepairRunner::rejoin`](crate::dcc::RepairRunner::rejoin) call.
#[derive(Debug, Clone)]
pub struct RejoinOutcome {
    /// The adjusted schedule: `active` is the new active set, `deleted` the
    /// nodes this rejoin put (back) to sleep, `rounds` its deletion rounds.
    pub set: CoverageSet,
    /// Sleeping nodes woken by the re-verification (always empty under
    /// [`RejoinPolicy::TrustSnapshot`]).
    pub woken: Vec<NodeId>,
    /// Substitutes: nodes awake now that the rejoiner's snapshot recorded
    /// as asleep (the churn its crash caused). Under `TrustSnapshot` these
    /// are exactly the nodes forced back to sleep.
    pub demoted: Vec<NodeId>,
    /// Traffic of the announcement flood and any re-scheduling rounds.
    pub stats: DistributedStats,
}

/// The result of one [`RepairRunner::reconcile`](crate::dcc::RepairRunner::reconcile) call.
#[derive(Debug, Clone)]
pub struct ReconcileOutcome {
    /// The reconciled schedule: `active` is the new active set, `deleted`
    /// the nodes this pass put (back) to sleep, `rounds` its deletion
    /// rounds.
    pub set: CoverageSet,
    /// Sleeping nodes woken around the dirty seeds (some may have been
    /// re-deleted; those appear in `set.deleted` too).
    pub woken: Vec<NodeId>,
    /// Traffic of the wake flood and the re-scheduling rounds.
    pub stats: DistributedStats,
}

/// Phase 3 of a repair, rejoin or reconcile pass: the enlarged overlay to
/// prune back to a VPT fixpoint, and where its candidates may come from.
pub(crate) struct PrunePass<'a> {
    graph: &'a Graph,
    boundary: &'a [bool],
    /// The enlarged active set, sorted.
    members: Vec<NodeId>,
    /// The changed region candidates must lie in; every deletion extends
    /// it by the winner's `k`-ball.
    region: Vec<bool>,
    /// Nodes that go back to sleep first (freshly woken, rejoiners,
    /// substitutes).
    prefer_sleep: BTreeSet<NodeId>,
}

impl<'a> PrunePass<'a> {
    /// The whole network as one pass: every node a member and in the
    /// region, and no preferred sleepers. Pruned to its fixpoint, this is
    /// the incremental DCC-D schedule.
    pub(crate) fn whole(graph: &'a Graph, boundary: &'a [bool]) -> Self {
        PrunePass {
            graph,
            boundary,
            members: graph.nodes().collect(),
            region: vec![true; graph.node_count()],
            prefer_sleep: BTreeSet::new(),
        }
    }
}

/// The pruner a pass runs as its phase 3: [`CoverageRepair::prune_to_fixpoint`]
/// in every runner; the tests substitute a re-discovering reference.
pub(crate) type Prune<R> = fn(
    &CoverageRepair,
    PrunePass<'_>,
    &mut VptEngine,
    &mut DistributedStats,
    &mut R,
) -> Result<CoverageSet, SimError>;

/// Distributed coverage repair around one crashed active node, plus the
/// rejoin and reconciliation passes of the chaos layer.
#[derive(Debug, Clone)]
pub struct CoverageRepair {
    tau: usize,
    heartbeat_timeout: usize,
    max_comm_rounds: usize,
    comm_range: f64,
    /// Ambient fault environment every repair phase runs under (partitions,
    /// link loss, flaps). Phases apply it afresh — entries are interpreted
    /// in per-phase rounds, so open-ended windows (e.g. a partition with
    /// `until = usize::MAX`) describe a condition that simply *holds*
    /// throughout the repair. Crash entries are not harvested by the repair
    /// loop and belong in the explicit `crashed` argument instead.
    ambient: FaultPlan,
}

impl CoverageRepair {
    pub(crate) fn from_builder(
        tau: usize,
        heartbeat_timeout: usize,
        max_comm_rounds: usize,
        comm_range: f64,
        ambient: FaultPlan,
    ) -> Self {
        CoverageRepair {
            tau,
            heartbeat_timeout,
            max_comm_rounds,
            comm_range,
            ambient,
        }
    }

    /// The ambient fault environment, if any was configured.
    fn ambient_plan(&self) -> Option<FaultPlan> {
        if self.ambient.is_empty() {
            None
        } else {
            Some(self.ambient.clone())
        }
    }

    /// Detects the crash of `crashed` by heartbeat, wakes the sleeping
    /// nodes in its `k`-hop neighbourhood and re-runs local VPT rounds
    /// until the active set is again a global VPT fixpoint (given the
    /// pre-crash `active` set was one). Verdicts are evaluated on the
    /// caller-owned `vpt` engine; `prune` runs phase 3.
    /// [`crate::dcc::RepairRunner::repair`] documents the errors.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn repair<R: Rng>(
        &self,
        graph: &Graph,
        boundary: &[bool],
        active: &[NodeId],
        crashed: NodeId,
        prune: Prune<R>,
        vpt: &mut VptEngine,
        rng: &mut R,
    ) -> Result<RepairOutcome, SimError> {
        if boundary.len() != graph.node_count() {
            return Err(SimError::BoundaryMismatch {
                flags: boundary.len(),
                nodes: graph.node_count(),
            });
        }
        if !active.contains(&crashed) {
            // Only active nodes can crash out of the schedule.
            return Err(SimError::NotActive { node: crashed });
        }
        let k = neighborhood_radius(self.tau);
        let mut stats = DistributedStats::default();

        // Phase 1: heartbeat detection on the pre-crash active overlay,
        // under the ambient fault environment plus the crash itself.
        let horizon = self.heartbeat_timeout + 3;
        let detectors: Vec<NodeId> = {
            let overlay = Masked::from_active(graph, active);
            let mut hb = Engine::new(&overlay, |_| {
                Heartbeat::new(self.heartbeat_timeout, horizon)
            })
            .with_faults(self.ambient.clone().crash(crashed, 1));
            stats.absorb_repair(RepairPhase::Heartbeat, hb.run(horizon + 4)?);
            // Ambient loss or partitions make live neighbours fall silent
            // too; count how often a node was suspected and then heard from
            // again (the false-positive side of the detector).
            stats.false_suspicions += overlay
                .active_nodes()
                .filter_map(|v| hb.state(v))
                .map(|state| state.false_suspicions())
                .sum::<usize>();
            overlay
                .view_neighbors(crashed)
                .filter(|&w| {
                    hb.state(w)
                        .is_some_and(|state| state.suspected().contains(&crashed))
                })
                .collect()
        };

        // Phase 2: detectors wake the sleeping nodes in the crash's k-ball.
        // Sleeping nodes keep their radio in a low-duty wake channel, so the
        // flood runs over the full physical topology (minus the dead node);
        // the extra hop of budget covers detours around the crash site.
        let mut wake_view = Masked::all_active(graph);
        wake_view.deactivate(crashed);
        let survivors: BTreeSet<NodeId> =
            active.iter().copied().filter(|&v| v != crashed).collect();
        let ball: BTreeSet<NodeId> = traverse::k_hop_neighbors(graph, crashed, k)
            .into_iter()
            .collect();
        let woken: Vec<NodeId> = {
            let sources: BTreeSet<NodeId> = detectors.iter().copied().collect();
            let mut flood =
                Engine::new(&wake_view, |v| WakeFlood::new(sources.contains(&v), k + 1));
            if let Some(plan) = self.ambient_plan() {
                flood = flood.with_faults(plan);
            }
            stats.absorb_repair(RepairPhase::Wake, flood.run(self.max_comm_rounds)?);
            wake_view
                .active_nodes()
                .filter(|v| !survivors.contains(v) && ball.contains(v))
                .filter(|&v| flood.state(v).is_some_and(|state| state.heard()))
                .collect()
        };

        // Phase 3: prune the enlarged set back to a fixpoint, electing only
        // inside the changed region. `region` is monotone: every membership
        // change marks its k-ball (on the physical graph — a superset of
        // any overlay ball, so no affected verdict escapes the region).
        let comm_rounds_before = stats.comm_rounds;
        let mut region = vec![false; graph.node_count()];
        self.mark_region(graph, crashed, &mut region);
        for &w in &woken {
            self.mark_region(graph, w, &mut region);
        }
        let mut members: Vec<NodeId> = survivors
            .iter()
            .copied()
            .chain(woken.iter().copied())
            .collect();
        members.sort_unstable();
        let pass = PrunePass {
            graph,
            boundary,
            members,
            region,
            prefer_sleep: woken.iter().copied().collect(),
        };
        let set = prune(self, pass, vpt, &mut stats, rng)?;
        let tau = self.tau as f64;
        let degradation = Degradation {
            detection_rounds: self.heartbeat_timeout + 1,
            repair_rounds: stats.comm_rounds - comm_rounds_before,
            transient_hole_bound: (2.0 * tau - 4.0) * self.comm_range,
            post_repair_hole_bound: (tau - 2.0) * self.comm_range,
        };
        Ok(RepairOutcome {
            set,
            woken,
            detectors,
            stats,
            degradation,
        })
    }

    /// Re-enters `node` into the schedule after a crash-recovery, given the
    /// active-set `snapshot` it held when it went down.
    ///
    /// The rejoiner floods an announcement `k + 1` hops; under
    /// [`RejoinPolicy::ReVerify`] the sleeping nodes of its `k`-ball wake
    /// and the union is pruned back to a global VPT fixpoint, while
    /// [`RejoinPolicy::TrustSnapshot`] reverts the neighbourhood to the
    /// stale snapshot without any re-verification (deliberately unsound —
    /// see [`RejoinPolicy`]); `prune` runs the re-verification.
    /// [`crate::dcc::RepairRunner::rejoin`] documents the errors.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rejoin<R: Rng>(
        &self,
        graph: &Graph,
        boundary: &[bool],
        active: &[NodeId],
        node: NodeId,
        snapshot: &[NodeId],
        policy: RejoinPolicy,
        prune: Prune<R>,
        vpt: &mut VptEngine,
        rng: &mut R,
    ) -> Result<RejoinOutcome, SimError> {
        if boundary.len() != graph.node_count() {
            return Err(SimError::BoundaryMismatch {
                flags: boundary.len(),
                nodes: graph.node_count(),
            });
        }
        if active.contains(&node) {
            return Err(SimError::Internal {
                what: "rejoin of a node that is already active",
            });
        }
        let k = neighborhood_radius(self.tau);
        let mut stats = DistributedStats::default();

        // Announcement: the rejoiner floods "I'm back" k + 1 hops over the
        // physical topology (its radio is up again).
        let wake_view = Masked::all_active(graph);
        let mut flood = Engine::new(&wake_view, |v| WakeFlood::new(v == node, k + 1));
        if let Some(plan) = self.ambient_plan() {
            flood = flood.with_faults(plan);
        }
        stats.absorb_repair(RepairPhase::Wake, flood.run(self.max_comm_rounds)?);

        let ball: BTreeSet<NodeId> = traverse::k_hop_neighbors(graph, node, k)
            .into_iter()
            .collect();
        let snapshot_set: BTreeSet<NodeId> = snapshot.iter().copied().collect();
        // Substitutes: nodes awake now that the snapshot recorded as asleep
        // — the churn the rejoiner's crash caused in its neighbourhood.
        let demoted: Vec<NodeId> = active
            .iter()
            .copied()
            .filter(|v| ball.contains(v) && !snapshot_set.contains(v))
            .collect();

        match policy {
            RejoinPolicy::TrustSnapshot => {
                // The planted regression: revert the neighbourhood to the
                // stale snapshot without re-checking a single VPT verdict.
                // Nodes the snapshot believed awake but the interim repair
                // put to sleep stay asleep, so coverage can tear.
                let demoted_set: BTreeSet<NodeId> = demoted.iter().copied().collect();
                let mut new_active: Vec<NodeId> = active
                    .iter()
                    .copied()
                    .filter(|v| !demoted_set.contains(v))
                    .chain(std::iter::once(node))
                    .collect();
                new_active.sort_unstable();
                Ok(RejoinOutcome {
                    set: CoverageSet {
                        active: new_active,
                        deleted: demoted.clone(),
                        rounds: 0,
                    },
                    woken: Vec::new(),
                    demoted,
                    stats,
                })
            }
            RejoinPolicy::ReVerify => {
                // Wake the sleepers of the rejoiner's ball that heard the
                // announcement, then prune the union back to a fixpoint.
                // Waking first makes the pass self-healing: if the interim
                // repair left the neighbourhood short of coverage (e.g. it
                // ran under a partition), the fresh candidates restore it.
                let active_set: BTreeSet<NodeId> = active.iter().copied().collect();
                let woken: Vec<NodeId> = wake_view
                    .active_nodes()
                    .filter(|v| *v != node && !active_set.contains(v) && ball.contains(v))
                    .filter(|&v| flood.state(v).is_some_and(|state| state.heard()))
                    .collect();
                let mut region = vec![false; graph.node_count()];
                self.mark_region(graph, node, &mut region);
                for &w in &woken {
                    self.mark_region(graph, w, &mut region);
                }
                let mut prefer_sleep: BTreeSet<NodeId> = woken.iter().copied().collect();
                prefer_sleep.insert(node);
                prefer_sleep.extend(demoted.iter().copied());
                let mut members: Vec<NodeId> = active
                    .iter()
                    .copied()
                    .chain(woken.iter().copied())
                    .chain(std::iter::once(node))
                    .collect();
                members.sort_unstable();
                let pass = PrunePass {
                    graph,
                    boundary,
                    members,
                    region,
                    prefer_sleep,
                };
                let set = prune(self, pass, vpt, &mut stats, rng)?;
                Ok(RejoinOutcome {
                    set,
                    woken,
                    demoted,
                    stats,
                })
            }
        }
    }

    /// Reconciles the schedule around a set of `dirty` seeds — nodes near a
    /// membership change whose verdicts may be stale (the post-heal pass
    /// after a network partition).
    ///
    /// The seeds flood a wake call `k + 1` hops; sleeping nodes inside the
    /// seeds' `k`-balls rejoin as candidates and the union is pruned back
    /// to a global VPT fixpoint. With no stale state this is a no-op (the
    /// pruner immediately re-sleeps every woken node), which the chaos
    /// harness checks as its churn oracle. `prune` runs the pruning.
    /// [`crate::dcc::RepairRunner::reconcile`] documents the errors.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reconcile<R: Rng>(
        &self,
        graph: &Graph,
        boundary: &[bool],
        active: &[NodeId],
        dirty: &[NodeId],
        prune: Prune<R>,
        vpt: &mut VptEngine,
        rng: &mut R,
    ) -> Result<ReconcileOutcome, SimError> {
        if boundary.len() != graph.node_count() {
            return Err(SimError::BoundaryMismatch {
                flags: boundary.len(),
                nodes: graph.node_count(),
            });
        }
        let k = neighborhood_radius(self.tau);
        let mut stats = DistributedStats::default();

        let sources: BTreeSet<NodeId> = dirty.iter().copied().collect();
        let wake_view = Masked::all_active(graph);
        let mut flood = Engine::new(&wake_view, |v| WakeFlood::new(sources.contains(&v), k + 1));
        if let Some(plan) = self.ambient_plan() {
            flood = flood.with_faults(plan);
        }
        stats.absorb_repair(RepairPhase::Wake, flood.run(self.max_comm_rounds)?);

        let balls: BTreeSet<NodeId> = dirty
            .iter()
            .copied()
            .chain(
                dirty
                    .iter()
                    .flat_map(|&d| traverse::k_hop_neighbors(graph, d, k)),
            )
            .collect();
        let active_set: BTreeSet<NodeId> = active.iter().copied().collect();
        let woken: Vec<NodeId> = wake_view
            .active_nodes()
            .filter(|v| !active_set.contains(v) && balls.contains(v))
            .filter(|&v| flood.state(v).is_some_and(|state| state.heard()))
            .collect();

        let mut region = vec![false; graph.node_count()];
        for &d in dirty {
            self.mark_region(graph, d, &mut region);
        }
        for &w in &woken {
            self.mark_region(graph, w, &mut region);
        }
        let mut members: Vec<NodeId> = active
            .iter()
            .copied()
            .chain(woken.iter().copied())
            .collect();
        members.sort_unstable();
        let pass = PrunePass {
            graph,
            boundary,
            members,
            region,
            prefer_sleep: woken.iter().copied().collect(),
        };
        let set = prune(self, pass, vpt, &mut stats, rng)?;
        Ok(ReconcileOutcome { set, woken, stats })
    }

    /// Marks `center` and its `k`-ball (on the physical graph) in `region`.
    fn mark_region(&self, graph: &Graph, center: NodeId, region: &mut [bool]) {
        let k = neighborhood_radius(self.tau);
        region[center.index()] = true;
        for w in traverse::k_hop_neighbors(graph, center, k) {
            region[w.index()] = true;
        }
    }

    /// Shared pruning core of repair, rejoin and reconcile: prunes the
    /// pass overlay back to a VPT fixpoint by election rounds restricted to
    /// the changed region, biasing elections so `prefer_sleep` nodes
    /// (freshly woken, rejoiners, substitutes) go back to sleep first.
    /// Every deletion extends the region by the winner's `k`-ball, so the
    /// restricted loop still reaches a *global* VPT fixpoint.
    ///
    /// One `k`-hop discovery runs per pass; each internal member keeps what
    /// it learned as its view, and the winners of every election flood
    /// deletion notices that keep the views exact (see the module docs). A
    /// view keeps its verdict until a notice changes it, so only the
    /// region's views without one are evaluated.
    pub(crate) fn prune_to_fixpoint<R: Rng>(
        &self,
        pass: PrunePass<'_>,
        vpt: &mut VptEngine,
        stats: &mut DistributedStats,
        rng: &mut R,
    ) -> Result<CoverageSet, SimError> {
        let PrunePass {
            graph,
            boundary,
            members,
            mut region,
            prefer_sleep,
        } = pass;
        let k = neighborhood_radius(self.tau);
        let mut masked = Masked::from_active(graph, &members);
        let mut views: Vec<Option<LocalView>> = {
            let mut discovery = Engine::new(&masked, |_| KHopDiscovery::new(k));
            if let Some(plan) = self.ambient_plan() {
                discovery = discovery.with_faults(plan);
            }
            stats.absorb_repair(RepairPhase::Discovery, discovery.run(self.max_comm_rounds)?);
            // A member without discovery state simply never becomes a
            // candidate (conservative: it stays awake).
            graph
                .nodes()
                .map(|v| {
                    if boundary[v.index()] {
                        None
                    } else {
                        discovery.state(v).map(LocalView::from_discovery)
                    }
                })
                .collect()
        };
        let mut resleep = Vec::new();
        let mut rounds = 0usize;
        loop {
            let consulted: Vec<NodeId> = masked
                .active_nodes()
                .filter(|&v| region[v.index()])
                .collect();
            #[cfg(feature = "strict-invariants")]
            crate::notices::audit_views(
                &masked,
                &self.ambient,
                k,
                consulted.iter().copied(),
                &views,
            );
            let deletable = view_verdicts(consulted, &mut views, vpt);
            let Some(winners) = self.elect(&masked, &deletable, &prefer_sleep, stats, rng)? else {
                break;
            };
            let notices = flood_deletions(
                &masked,
                &winners,
                k,
                self.ambient_plan(),
                self.max_comm_rounds,
                &mut views,
            )?;
            stats.absorb_repair(RepairPhase::Notice, notices);
            for v in winners {
                masked.deactivate(v);
                resleep.push(v);
                self.mark_region(graph, v, &mut region);
            }
            rounds += 1;
        }
        Ok(CoverageSet {
            active: masked.active_nodes().collect(),
            deleted: resleep,
            rounds,
        })
    }

    /// One prune round's decision: unless no candidate is `deletable`
    /// (indexed by node), draws the biased priorities and runs the `m`-hop
    /// election on `overlay`, returning its winners.
    fn elect<R: Rng>(
        &self,
        overlay: &Masked<'_>,
        deletable: &[bool],
        prefer_sleep: &BTreeSet<NodeId>,
        stats: &mut DistributedStats,
        rng: &mut R,
    ) -> Result<Option<Vec<NodeId>>, SimError> {
        if !deletable.contains(&true) {
            return Ok(None);
        }
        let mut priorities = vec![0.0f64; overlay.node_bound()];
        for v in overlay.active_nodes() {
            if deletable[v.index()] {
                // Preferred sleepers draw from [0, 1), the rest from
                // [1, 2): the pruner undoes churn before touching the
                // original schedule.
                let bias = if prefer_sleep.contains(&v) { 0.0 } else { 1.0 };
                priorities[v.index()] = bias + rng.gen::<f64>();
            }
        }
        let m = independence_radius(self.tau);
        let mut election = Engine::new(overlay, |v| {
            LocalMinElection::new(m, deletable[v.index()], priorities[v.index()])
        });
        if let Some(plan) = self.ambient_plan() {
            election = election.with_faults(plan);
        }
        stats.absorb_repair(RepairPhase::Election, election.run(self.max_comm_rounds)?);
        let winners: Vec<NodeId> = overlay
            .active_nodes()
            .filter(|&v| deletable[v.index()])
            .filter(|&v| election.state(v).is_some_and(|s| s.is_winner(v)))
            .collect();
        if winners.is_empty() {
            // A candidate that hears no stricter claim wins by default,
            // so an empty winner set indicates corrupted election state.
            return Err(SimError::ElectionStalled { retries: 0 });
        }
        Ok(Some(winners))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcc::Dcc;
    use crate::schedule::is_vpt_fixpoint;
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

    fn internal_actives(active: &[NodeId], boundary: &[bool]) -> Vec<NodeId> {
        active
            .iter()
            .copied()
            .filter(|v| !boundary[v.index()])
            .collect()
    }

    #[test]
    fn repair_restores_fixpoint_after_internal_crash() {
        let g = generators::king_grid_graph(7, 7);
        let boundary = king_boundary(7, 7);
        let tau = 4;
        let mut rng = StdRng::seed_from_u64(5);
        let (set, _) = Dcc::builder(tau)
            .distributed()
            .unwrap()
            .run(&g, &boundary, &mut rng)
            .unwrap();
        assert!(is_vpt_fixpoint(&g, &set.active, &boundary, tau));
        let victims = internal_actives(&set.active, &boundary);
        assert!(!victims.is_empty(), "7×7 fixpoints keep internal nodes");

        for &victim in &victims {
            let outcome = Dcc::builder(tau)
                .repair()
                .unwrap()
                .repair(&g, &boundary, &set.active, victim, &mut rng)
                .unwrap();
            assert!(
                is_vpt_fixpoint(&g, &outcome.set.active, &boundary, tau),
                "repair after crashing {victim:?} must restore the fixpoint"
            );
            assert!(!outcome.set.active.contains(&victim), "the dead stay dead");
            for (i, &b) in boundary.iter().enumerate() {
                if b {
                    assert!(outcome.set.active.contains(&NodeId::from(i)));
                }
            }
            assert!(outcome.stats.repair_messages > 0);
            assert_eq!(
                outcome.stats.crashed, 1,
                "the heartbeat run observed the crash"
            );
            assert!(!outcome.detectors.is_empty(), "neighbours must detect");
        }
    }

    #[test]
    fn woken_nodes_stay_inside_the_k_ball() {
        let g = generators::king_grid_graph(7, 7);
        let boundary = king_boundary(7, 7);
        let tau = 4;
        let mut rng = StdRng::seed_from_u64(8);
        let (set, _) = Dcc::builder(tau)
            .distributed()
            .unwrap()
            .run(&g, &boundary, &mut rng)
            .unwrap();
        let victim = internal_actives(&set.active, &boundary)[0];
        let outcome = Dcc::builder(tau)
            .repair()
            .unwrap()
            .repair(&g, &boundary, &set.active, victim, &mut rng)
            .unwrap();
        let k = neighborhood_radius(tau);
        let ball = traverse::k_hop_neighbors(&g, victim, k);
        for w in &outcome.woken {
            assert!(
                ball.contains(w),
                "{w:?} woke outside the {k}-ball of {victim:?}"
            );
            assert!(!set.active.contains(w), "woken nodes were asleep");
        }
    }

    #[test]
    fn degradation_report_follows_proposition_1() {
        let g = generators::king_grid_graph(6, 6);
        let boundary = king_boundary(6, 6);
        let tau = 4;
        let mut rng = StdRng::seed_from_u64(2);
        let (set, _) = Dcc::builder(tau)
            .distributed()
            .unwrap()
            .run(&g, &boundary, &mut rng)
            .unwrap();
        let victim = internal_actives(&set.active, &boundary)[0];
        let rc = 30.0;
        let outcome = Dcc::builder(tau)
            .heartbeat_timeout(2)
            .comm_range(rc)
            .repair()
            .unwrap()
            .repair(&g, &boundary, &set.active, victim, &mut rng)
            .unwrap();
        let d = outcome.degradation;
        assert_eq!(d.detection_rounds, 3, "timeout + 1");
        assert!(d.repair_rounds > 0);
        assert_eq!(d.post_repair_hole_bound, (tau as f64 - 2.0) * rc);
        assert_eq!(d.transient_hole_bound, 2.0 * (tau as f64 - 2.0) * rc);
        assert!(d.transient_hole_bound >= d.post_repair_hole_bound);
    }

    #[test]
    fn repair_prefers_putting_woken_nodes_back_to_sleep() {
        // Every node the repair re-deletes should be one it woke itself or
        // a node inside the changed region — never a far-away original.
        let g = generators::king_grid_graph(7, 7);
        let boundary = king_boundary(7, 7);
        let tau = 4;
        let mut rng = StdRng::seed_from_u64(13);
        let (set, _) = Dcc::builder(tau)
            .distributed()
            .unwrap()
            .run(&g, &boundary, &mut rng)
            .unwrap();
        let victim = internal_actives(&set.active, &boundary)[0];
        let outcome = Dcc::builder(tau)
            .repair()
            .unwrap()
            .repair(&g, &boundary, &set.active, victim, &mut rng)
            .unwrap();
        let k = neighborhood_radius(tau);
        // Region bound: everything resleep'd is within 2k of the crash, by
        // the locality argument (changes propagate one k-ball at a time but
        // start from the crash's ball).
        for v in &outcome.set.deleted {
            let d = traverse::distance(&g, victim, *v).expect("connected grid");
            assert!(
                d <= 3 * k,
                "resleep {v:?} at distance {d} strays far from the crash (k = {k})"
            );
        }
    }

    #[test]
    fn repairing_a_sleeping_node_errors() {
        let g = generators::king_grid_graph(5, 5);
        let boundary = king_boundary(5, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let (set, _) = Dcc::builder(4)
            .distributed()
            .unwrap()
            .run(&g, &boundary, &mut rng)
            .unwrap();
        let sleeper = set.deleted[0];
        let err = Dcc::builder(4)
            .repair()
            .unwrap()
            .repair(&g, &boundary, &set.active, sleeper, &mut rng)
            .unwrap_err();
        assert_eq!(err, SimError::NotActive { node: sleeper });
    }

    #[test]
    fn rejoin_reverify_restores_a_fixpoint_with_the_node_considered() {
        let g = generators::king_grid_graph(7, 7);
        let boundary = king_boundary(7, 7);
        let tau = 4;
        let mut rng = StdRng::seed_from_u64(9);
        let (set, _) = Dcc::builder(tau)
            .distributed()
            .unwrap()
            .run(&g, &boundary, &mut rng)
            .unwrap();
        let victim = internal_actives(&set.active, &boundary)[0];
        let snapshot = set.active.clone();
        let mut runner = Dcc::builder(tau).repair().unwrap();
        let repaired = runner
            .repair(&g, &boundary, &set.active, victim, &mut rng)
            .unwrap();

        let outcome = runner
            .rejoin(
                &g,
                &boundary,
                &repaired.set.active,
                victim,
                &snapshot,
                RejoinPolicy::ReVerify,
                &mut rng,
            )
            .unwrap();
        assert!(
            is_vpt_fixpoint(&g, &outcome.set.active, &boundary, tau),
            "re-verified rejoin ends on a global fixpoint"
        );
        assert!(outcome.stats.repair_messages > 0, "announcement traffic");
        // The rejoiner either serves or was pruned as redundant — but it
        // was *considered*: if asleep, it must be VPT-deletable right now.
        if !outcome.set.active.contains(&victim) {
            assert!(outcome.set.deleted.contains(&victim));
        }
    }

    #[test]
    fn rejoin_trust_snapshot_skips_verification_and_demotes_substitutes() {
        let g = generators::king_grid_graph(7, 7);
        let boundary = king_boundary(7, 7);
        let tau = 4;
        let mut rng = StdRng::seed_from_u64(13);
        let (set, _) = Dcc::builder(tau)
            .distributed()
            .unwrap()
            .run(&g, &boundary, &mut rng)
            .unwrap();
        let victim = internal_actives(&set.active, &boundary)[0];
        let snapshot = set.active.clone();
        let mut runner = Dcc::builder(tau).repair().unwrap();
        let repaired = runner
            .repair(&g, &boundary, &set.active, victim, &mut rng)
            .unwrap();

        let outcome = runner
            .rejoin(
                &g,
                &boundary,
                &repaired.set.active,
                victim,
                &snapshot,
                RejoinPolicy::TrustSnapshot,
                &mut rng,
            )
            .unwrap();
        assert_eq!(
            outcome.set.rounds, 0,
            "the planted bug runs zero verification rounds"
        );
        assert!(outcome.set.active.contains(&victim), "splices itself in");
        assert!(outcome.woken.is_empty(), "wakes nobody");
        // Every demoted substitute was active and absent from the snapshot.
        for d in &outcome.demoted {
            assert!(repaired.set.active.contains(d));
            assert!(!snapshot.contains(d));
            assert!(!outcome.set.active.contains(d));
        }
    }

    #[test]
    fn rejoining_an_active_node_is_a_typed_error() {
        let g = generators::king_grid_graph(5, 5);
        let boundary = king_boundary(5, 5);
        let mut rng = StdRng::seed_from_u64(2);
        let (set, _) = Dcc::builder(4)
            .distributed()
            .unwrap()
            .run(&g, &boundary, &mut rng)
            .unwrap();
        let snapshot = set.active.clone();
        let node = set.active[0];
        let err = Dcc::builder(4)
            .repair()
            .unwrap()
            .rejoin(
                &g,
                &boundary,
                &set.active,
                node,
                &snapshot,
                RejoinPolicy::ReVerify,
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::Internal { .. }));
    }

    #[test]
    fn reconcile_on_a_clean_fixpoint_is_a_noop() {
        let g = generators::king_grid_graph(7, 7);
        let boundary = king_boundary(7, 7);
        let tau = 4;
        let mut rng = StdRng::seed_from_u64(21);
        let (set, _) = Dcc::builder(tau)
            .distributed()
            .unwrap()
            .run(&g, &boundary, &mut rng)
            .unwrap();
        assert!(is_vpt_fixpoint(&g, &set.active, &boundary, tau));
        let dirty = internal_actives(&set.active, &boundary);
        let outcome = Dcc::builder(tau)
            .repair()
            .unwrap()
            .reconcile(&g, &boundary, &set.active, &dirty, &mut rng)
            .unwrap();
        assert_eq!(
            outcome.set.active, set.active,
            "a quiescent schedule reconciles to itself"
        );
    }
}

/// Oracle for [`CoverageRepair::prune_to_fixpoint`]: a reference pruner
/// that re-runs a full `k`-hop discovery of the overlay in every prune
/// round instead of maintaining views, run through the same passes.
#[cfg(test)]
mod prune_oracle {
    use super::*;
    use crate::vpt_engine::{EngineConfig, EvalJob};
    use confine_check::cases;
    use confine_deploy::{deployment, scenario, CommModel, Rect};
    use confine_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rediscovering_prune(
        repair: &CoverageRepair,
        pass: PrunePass<'_>,
        vpt: &mut VptEngine,
        stats: &mut DistributedStats,
        rng: &mut StdRng,
    ) -> Result<CoverageSet, SimError> {
        let PrunePass {
            graph,
            boundary,
            members,
            mut region,
            prefer_sleep,
        } = pass;
        let k = neighborhood_radius(repair.tau);
        let mut masked = Masked::from_active(graph, &members);
        let mut resleep = Vec::new();
        let mut rounds = 0usize;
        loop {
            let mut discovery = Engine::new(&masked, |_| KHopDiscovery::new(k));
            if let Some(plan) = repair.ambient_plan() {
                discovery = discovery.with_faults(plan);
            }
            stats.absorb_repair(
                RepairPhase::Discovery,
                discovery.run(repair.max_comm_rounds)?,
            );
            let jobs: Vec<EvalJob> = masked
                .active_nodes()
                .filter(|&v| !boundary[v.index()] && region[v.index()])
                .filter_map(|v| {
                    let (graph, _) = discovery.state(v)?.punctured_graph(v);
                    Some(EvalJob { node: v, graph })
                })
                .collect();
            drop(discovery);
            let mut deletable = vec![false; graph.node_count()];
            for (job, ok) in jobs.iter().zip(vpt.evaluate_jobs(&jobs)) {
                deletable[job.node.index()] = ok;
            }
            let Some(winners) = repair.elect(&masked, &deletable, &prefer_sleep, stats, rng)?
            else {
                break;
            };
            for v in winners {
                masked.deactivate(v);
                resleep.push(v);
                repair.mark_region(graph, v, &mut region);
            }
            rounds += 1;
        }
        Ok(CoverageSet {
            active: masked.active_nodes().collect(),
            deleted: resleep,
            rounds,
        })
    }

    /// What a pass decided: `set.active`, `set.deleted`, `set.rounds` and
    /// `woken`.
    type Decision = (Vec<NodeId>, Vec<NodeId>, usize, Vec<NodeId>);

    /// One pass's decision, its traffic and the overlay it pruned.
    struct Pass {
        decision: Decision,
        stats: DistributedStats,
        overlay: Vec<NodeId>,
    }

    fn pass(
        set: CoverageSet,
        woken: Vec<NodeId>,
        stats: DistributedStats,
        overlay: Vec<NodeId>,
    ) -> Pass {
        Pass {
            decision: (set.active, set.deleted, set.rounds, woken),
            stats,
            overlay,
        }
    }

    /// The overlay a pass pruned: `active` plus `extra`, minus `gone`.
    fn overlay(active: &[NodeId], extra: &[NodeId], gone: Option<NodeId>) -> Vec<NodeId> {
        let mut members: Vec<NodeId> = active
            .iter()
            .chain(extra)
            .copied()
            .filter(|&v| Some(v) != gone)
            .collect();
        members.sort_unstable();
        members.dedup();
        members
    }

    /// Crashes `victim` out of the fixpoint `active`, repairs, rejoins it
    /// under [`RejoinPolicy::ReVerify`] and reconciles around every active
    /// node, all with `prune` as phase 3.
    fn passes(
        graph: &Graph,
        boundary: &[bool],
        active: &[NodeId],
        victim: NodeId,
        repair: &CoverageRepair,
        seed: u64,
        prune: Prune<StdRng>,
    ) -> Result<Vec<Pass>, SimError> {
        let mut vpt = VptEngine::new(repair.tau, EngineConfig { threads: 1 });
        let mut rng = StdRng::seed_from_u64(seed);
        let repaired = repair.repair(graph, boundary, active, victim, prune, &mut vpt, &mut rng)?;
        let after_repair = repaired.set.active.clone();
        let first = pass(
            repaired.set,
            repaired.woken.clone(),
            repaired.stats,
            overlay(active, &repaired.woken, Some(victim)),
        );
        let rejoined = repair.rejoin(
            graph,
            boundary,
            &after_repair,
            victim,
            active,
            RejoinPolicy::ReVerify,
            prune,
            &mut vpt,
            &mut rng,
        )?;
        let after_rejoin = rejoined.set.active.clone();
        let mut extra = rejoined.woken.clone();
        extra.push(victim);
        let second = pass(
            rejoined.set,
            rejoined.woken,
            rejoined.stats,
            overlay(&after_repair, &extra, None),
        );
        let reconciled = repair.reconcile(
            graph,
            boundary,
            &after_rejoin,
            &after_rejoin,
            prune,
            &mut vpt,
            &mut rng,
        )?;
        let third = pass(
            reconciled.set,
            reconciled.woken.clone(),
            reconciled.stats,
            overlay(&after_rejoin, &reconciled.woken, None),
        );
        Ok(vec![first, second, third])
    }

    /// Messages of one `k`-hop discovery of `overlay` under the ambient
    /// plan: what a pass may spend on topology records.
    fn one_discovery(graph: &Graph, overlay: &[NodeId], repair: &CoverageRepair) -> usize {
        let masked = Masked::from_active(graph, overlay);
        let k = neighborhood_radius(repair.tau);
        let mut discovery = Engine::new(&masked, |_| KHopDiscovery::new(k));
        if let Some(plan) = repair.ambient_plan() {
            discovery = discovery.with_faults(plan);
        }
        discovery.run(repair.max_comm_rounds).unwrap().messages
    }

    /// The property: from the same scenario, crash and seed, the notice
    /// pruner decides every pass exactly as the re-discovering oracle,
    /// spending exactly one discovery per pass.
    fn assert_matches_oracle(
        graph: &Graph,
        boundary: &[bool],
        tau: usize,
        ambient: FaultPlan,
        seed: u64,
        pick: usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let active = crate::dcc::Dcc::builder(tau)
            .threads(1)
            .centralized()
            .unwrap()
            .run(graph, boundary, &mut rng)
            .unwrap()
            .active;
        // An internal victim if the fixpoint kept any, else a boundary one.
        let internal: Vec<NodeId> = active
            .iter()
            .copied()
            .filter(|v| !boundary[v.index()])
            .collect();
        let victims = if internal.is_empty() {
            &active
        } else {
            &internal
        };
        let victim = victims[pick % victims.len()];
        let repair = CoverageRepair::from_builder(
            tau,
            crate::config::DEFAULT_HEARTBEAT_TIMEOUT,
            10_000,
            1.0,
            ambient,
        );
        let run = |prune| passes(graph, boundary, &active, victim, &repair, seed, prune);
        let (notices, oracle) = match (
            run(CoverageRepair::prune_to_fixpoint),
            run(rediscovering_prune),
        ) {
            (Ok(n), Ok(o)) => (n, o),
            (n, o) => {
                assert_eq!(n.err(), o.err());
                return;
            }
        };
        for (i, (n, o)) in notices.iter().zip(&oracle).enumerate() {
            assert_eq!(&n.decision, &o.decision, "pass {i}");
            assert_eq!(
                n.stats.repair.discovery,
                one_discovery(graph, &n.overlay, &repair),
                "pass {i} sent more than one discovery of its overlay"
            );
            assert!(n.stats.repair.discovery <= o.stats.repair.discovery);
            assert_eq!(
                (
                    n.stats.repair.heartbeat,
                    n.stats.repair.wake,
                    n.stats.repair.election
                ),
                (
                    o.stats.repair.heartbeat,
                    o.stats.repair.wake,
                    o.stats.repair.election
                ),
                "pass {i} ran other detections, wake-ups or elections"
            );
            assert_eq!(n.stats.repair.total(), n.stats.repair_messages);
        }
    }

    /// A view keeps its verdict until a notice changes it: on a repair
    /// pass that prunes in two rounds or more, the notice pruner decides
    /// exactly as the re-discovering oracle while evaluating strictly fewer
    /// views. The schedule oracle alone cannot see a lost reuse.
    #[test]
    fn kept_verdicts_spare_evaluations() {
        let (w, h, tau) = (9, 9, 4);
        let g = generators::king_grid_graph(w, h);
        let boundary = king_boundary(w, h);
        let oracle = CoverageRepair::from_builder(
            tau,
            crate::config::DEFAULT_HEARTBEAT_TIMEOUT,
            10_000,
            1.0,
            FaultPlan::new(),
        );
        // The first seed and internal victim whose repair prunes in two
        // rounds or more.
        let found = (0..32u64).find_map(|seed| {
            let active = crate::dcc::Dcc::builder(tau)
                .threads(1)
                .centralized()
                .unwrap()
                .run(&g, &boundary, &mut StdRng::seed_from_u64(seed))
                .unwrap()
                .active;
            let internal: Vec<NodeId> = active
                .iter()
                .copied()
                .filter(|v| !boundary[v.index()])
                .collect();
            internal.into_iter().find_map(|victim| {
                let mut runner = crate::dcc::Dcc::builder(tau).threads(1).repair().unwrap();
                let set = runner
                    .repair(
                        &g,
                        &boundary,
                        &active,
                        victim,
                        &mut StdRng::seed_from_u64(seed),
                    )
                    .unwrap()
                    .set;
                if set.rounds < 2 {
                    return None;
                }
                let mut vpt = VptEngine::new(tau, EngineConfig { threads: 1 });
                let reference = oracle
                    .repair(
                        &g,
                        &boundary,
                        &active,
                        victim,
                        rediscovering_prune,
                        &mut vpt,
                        &mut StdRng::seed_from_u64(seed),
                    )
                    .unwrap()
                    .set;
                Some((
                    set,
                    runner.engine_stats().evaluations,
                    reference,
                    vpt.stats().evaluations,
                ))
            })
        });
        let (set, evaluations, reference, reference_evaluations) =
            found.expect("some repair on the 9 × 9 king grid prunes in two rounds");
        assert_eq!(
            (&set.active, &set.deleted, set.rounds),
            (&reference.active, &reference.deleted, reference.rounds)
        );
        assert!(
            evaluations < reference_evaluations,
            "kept verdicts saved nothing: {evaluations} evaluations against the oracle's {reference_evaluations}"
        );
    }

    fn king_boundary(w: usize, h: usize) -> Vec<bool> {
        (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                x == 0 || y == 0 || x == w - 1 || y == h - 1
            })
            .collect()
    }

    /// King grids, with and without a split down the middle columns
    /// that holds through every phase.
    #[test]
    fn notice_pruner_matches_rediscovery_on_king_grids() {
        cases(32, |rng| {
            let w = rng.gen_range(5usize..9);
            let h = rng.gen_range(5usize..9);
            let tau = rng.gen_range(3usize..6);
            let seed = rng.gen_range(0u64..1000);
            let pick = rng.gen_range(0usize..64);
            let split = rng.gen::<bool>();
            let g = generators::king_grid_graph(w, h);
            let boundary = king_boundary(w, h);
            let ambient = if split {
                let side: Vec<NodeId> = (0..w * h)
                    .filter(|i| i % w < w / 2)
                    .map(NodeId::from)
                    .collect();
                FaultPlan::new().partition(&side, 0, usize::MAX)
            } else {
                FaultPlan::new()
            };
            assert_matches_oracle(&g, &boundary, tau, ambient, seed, pick);
        });
    }

    /// Quasi-UDG deployments, with and without a geometric split.
    #[test]
    fn notice_pruner_matches_rediscovery_on_quasi_udgs() {
        cases(32, |rng| {
            let n = rng.gen_range(30usize..60);
            let tau = rng.gen_range(3usize..6);
            let seed = rng.gen_range(0u64..1000);
            let pick = rng.gen_range(0usize..64);
            let split = rng.gen::<bool>();
            let mut rng = StdRng::seed_from_u64(seed);
            let side = deployment::square_side_for_degree(n, 1.0, 10.0);
            let dep = deployment::uniform(n, Rect::new(0.0, 0.0, side, side), &mut rng);
            let sc = scenario::scenario_from_deployment(
                dep,
                CommModel::QuasiUdg {
                    r_in: 0.6,
                    rc: 1.0,
                    p_mid: 0.6,
                },
                &mut rng,
            );
            let ambient = if split {
                let left: Vec<NodeId> = (0..sc.positions.len())
                    .filter(|&i| sc.positions[i].x < side / 2.0)
                    .map(NodeId::from)
                    .collect();
                FaultPlan::new().partition(&left, 0, usize::MAX)
            } else {
                FaultPlan::new()
            };
            assert_matches_oracle(&sc.graph, &sc.boundary, tau, ambient, seed, pick);
        });
    }
}
