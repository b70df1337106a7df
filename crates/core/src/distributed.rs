//! The distributed DCC protocol (DCC-D), executed on the message-passing
//! simulator.
//!
//! Each deletion round of the paper's scheduler maps to two protocol phases
//! over the *current* active topology:
//!
//! 1. **Discovery** — every node floods its adjacency list `k = ⌈τ/2⌉` hops
//!    ([`confine_netsim::protocols::KHopDiscovery`]); each internal node
//!    reconstructs its punctured neighbourhood graph `Γ^k(v)` and evaluates
//!    the void preserving transformation locally.
//! 2. **Election** — deletable nodes draw random priorities and flood them
//!    `m = ⌈τ/2⌉ + 1` hops
//!    ([`confine_netsim::protocols::LocalMinElection`]); locally minimal
//!    candidates win and switch themselves off. Winners are `m`-hop
//!    independent, so their deletions are mutually safe (their punctured
//!    neighbourhoods are disjoint and unchanged by each other).
//!
//! Rounds repeat until no candidate exists. Whenever at least one candidate
//! exists, the globally minimal one wins its election, so the protocol makes
//! progress and terminates. The result coincides with a run of the
//! centralized scheduler with a particular deletion order, and retains every
//! guarantee of Theorems 5/6.
//!
//! # Faults
//!
//! `Dcc::builder(tau).link_model(..).fault_plan(..)` runs the same protocol
//! under a lossy [`LinkModel`] and a [`FaultPlan`] of crash-stop failures.
//! Discovery
//! switches to the loss-tolerant
//! [`confine_netsim::protocols::RepeatedDiscovery`], crashed nodes are
//! harvested from every phase and removed from the active topology, and an
//! election round whose winner crashed mid-flood is retried with fresh
//! priorities up to a bounded budget before the run aborts with
//! [`SimError::ElectionStalled`]. Post-schedule crashes are the domain of
//! [`crate::repair`].

use std::fmt;

use confine_graph::{Graph, GraphView, Masked, NodeId};
use confine_netsim::faults::FaultPlan;
use confine_netsim::protocols::{retry_jitter, KHopDiscovery, LocalMinElection, RepeatedDiscovery};
use confine_netsim::{Engine, LinkModel, RunStats, SimError};
use rand::Rng;

use crate::schedule::CoverageSet;
use crate::vpt::{independence_radius, neighborhood_radius};
use crate::vpt_engine::{EvalJob, VptEngine};

/// Aggregate cost of a distributed run, per phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistributedStats {
    /// Deletion rounds executed (each = one discovery + one election).
    pub deletion_rounds: usize,
    /// Total communication rounds across all phases.
    pub comm_rounds: usize,
    /// Messages spent in discovery phases.
    pub discovery_messages: usize,
    /// Messages spent in election phases.
    pub election_messages: usize,
    /// Messages spent by the repair layer ([`crate::repair`]): the sum of
    /// the per-phase counters in [`Self::repair`].
    pub repair_messages: usize,
    /// The repair layer's messages, split by phase.
    pub repair: RepairTraffic,
    /// Total payload bytes across all phases.
    pub bytes: usize,
    /// Messages lost in transit across all phases (loss, flaps, crashes).
    pub dropped: usize,
    /// Nodes that crash-stopped during the run.
    pub crashed: usize,
    /// Heartbeat false positives: times a node was suspected dead and then
    /// heard from again (live nodes silenced by loss, flaps or partitions).
    pub false_suspicions: usize,
}

/// Messages the repair layer ([`crate::repair`]) sent, by phase. Their sum
/// is [`DistributedStats::repair_messages`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairTraffic {
    /// Heartbeat beacons of crash detection.
    pub heartbeat: usize,
    /// Wake floods: detector wake-ups, rejoin announcements and reconcile
    /// wake calls.
    pub wake: usize,
    /// Topology records of the one `k`-hop discovery each prune pass runs.
    pub discovery: usize,
    /// Priority claims of the prune rounds' `m`-hop elections.
    pub election: usize,
    /// Deletion notices the prune rounds' winners flood `k` hops.
    pub notice: usize,
}

impl RepairTraffic {
    /// Messages across all repair phases.
    pub fn total(&self) -> usize {
        self.heartbeat + self.wake + self.discovery + self.election + self.notice
    }

    /// Folds another run's repair traffic into this one.
    pub fn merge(&mut self, other: &RepairTraffic) {
        self.heartbeat += other.heartbeat;
        self.wake += other.wake;
        self.discovery += other.discovery;
        self.election += other.election;
        self.notice += other.notice;
    }
}

/// `heartbeat H wake W discovery D election E notice N`, in messages.
impl fmt::Display for RepairTraffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "heartbeat {} wake {} discovery {} election {} notice {}",
            self.heartbeat, self.wake, self.discovery, self.election, self.notice
        )
    }
}

/// The repair-layer phase a protocol run belongs to; see [`RepairTraffic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RepairPhase {
    Heartbeat,
    Wake,
    Discovery,
    Election,
    Notice,
}

impl DistributedStats {
    /// Total messages across all phases.
    pub fn total_messages(&self) -> usize {
        self.discovery_messages + self.election_messages + self.repair_messages
    }

    /// Folds another run's counters into this one (campaign aggregation
    /// across a schedule and its fault reactions).
    pub fn merge(&mut self, other: &DistributedStats) {
        self.deletion_rounds += other.deletion_rounds;
        self.comm_rounds += other.comm_rounds;
        self.discovery_messages += other.discovery_messages;
        self.election_messages += other.election_messages;
        self.repair_messages += other.repair_messages;
        self.repair.merge(&other.repair);
        self.bytes += other.bytes;
        self.dropped += other.dropped;
        self.crashed += other.crashed;
        self.false_suspicions += other.false_suspicions;
    }

    fn absorb_transport(&mut self, stats: RunStats) {
        self.comm_rounds += stats.rounds;
        self.bytes += stats.bytes;
        self.dropped += stats.dropped;
        self.crashed += stats.crashed;
    }

    pub(crate) fn absorb_discovery(&mut self, stats: RunStats) {
        self.absorb_transport(stats);
        self.discovery_messages += stats.messages;
    }

    pub(crate) fn absorb_election(&mut self, stats: RunStats) {
        self.absorb_transport(stats);
        self.election_messages += stats.messages;
    }

    pub(crate) fn absorb_repair(&mut self, phase: RepairPhase, stats: RunStats) {
        self.absorb_transport(stats);
        self.repair_messages += stats.messages;
        let counter = match phase {
            RepairPhase::Heartbeat => &mut self.repair.heartbeat,
            RepairPhase::Wake => &mut self.repair.wake,
            RepairPhase::Discovery => &mut self.repair.discovery,
            RepairPhase::Election => &mut self.repair.election,
            RepairPhase::Notice => &mut self.repair.notice,
        };
        *counter += stats.messages;
    }
}

/// The distributed DCC scheduler.
///
/// # Example
///
/// ```
/// use confine_core::prelude::*;
/// use confine_graph::generators;
/// use rand::SeedableRng;
///
/// let g = generators::wheel_graph(8);
/// let mut boundary = vec![false; 9];
/// for i in 1..=8 { boundary[i] = true; }
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let (set, stats) = Dcc::builder(8).distributed()?.run(&g, &boundary, &mut rng)?;
/// assert_eq!(set.deleted, vec![confine_graph::NodeId(0)]);
/// assert!(stats.total_messages() > 0);
/// # Ok::<(), confine_netsim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DistributedDcc {
    tau: usize,
    max_comm_rounds: usize,
    link: LinkModel,
    faults: Option<FaultPlan>,
}

impl DistributedDcc {
    pub(crate) fn from_builder(
        tau: usize,
        max_comm_rounds: usize,
        link: LinkModel,
        faults: Option<FaultPlan>,
    ) -> Self {
        DistributedDcc {
            tau,
            max_comm_rounds,
            link,
            faults,
        }
    }

    /// Executes the protocol on `graph` with the given boundary flags,
    /// evaluating verdicts on the caller-owned `vpt` engine. Every round
    /// rediscovers every view, as the paper's protocol does, so every view
    /// is evaluated afresh each round.
    ///
    /// Nodes crashed by the fault plan are removed from the topology as the
    /// run progresses; they end up in neither `active` nor `deleted` of the
    /// returned set, and are counted in [`DistributedStats::crashed`].
    /// [`crate::dcc::DistributedRunner::run`] documents the errors.
    pub(crate) fn run<R: Rng>(
        &self,
        graph: &Graph,
        boundary: &[bool],
        vpt: &mut VptEngine,
        rng: &mut R,
    ) -> Result<(CoverageSet, DistributedStats), SimError> {
        if boundary.len() != graph.node_count() {
            return Err(SimError::BoundaryMismatch {
                flags: boundary.len(),
                nodes: graph.node_count(),
            });
        }
        if self
            .faults
            .as_ref()
            .is_some_and(|p| p.recoveries().next().is_some())
        {
            // The initial schedule removes crashed nodes permanently; a node
            // that comes back mid-schedule would need the rejoin protocol.
            return Err(SimError::UnsupportedFault {
                what: "crash recovery during the initial schedule — \
                       rejoin is handled by the repair/chaos layer",
            });
        }
        let k = neighborhood_radius(self.tau);
        let m = independence_radius(self.tau);
        let lossy = !matches!(self.link, LinkModel::Reliable);
        let mut masked = Masked::all_active(graph);
        let mut plan = self.faults.clone();
        let mut elapsed = 0usize;
        let mut stats = DistributedStats::default();
        let mut deleted = Vec::new();

        'rounds: loop {
            // Phase 1: k-hop discovery + local VPT evaluation. Under loss,
            // the repeated variant keeps the punctured graphs near-complete;
            // verdicts of nodes that crashed mid-flood are discarded.
            let (run, crashed_now, mut deletable, any) = if lossy {
                let mut engine = Engine::new(&masked, |_| {
                    RepeatedDiscovery::new(k, crate::config::DEFAULT_DISCOVERY_REPEATS)
                })
                .with_link_model(self.link);
                if let Some(p) = plan.as_ref() {
                    engine = engine.with_faults(p.advanced(elapsed));
                }
                let run = engine.run(self.max_comm_rounds)?;
                let crashed_now = engine.crashed_nodes().to_vec();
                let (deletable, any) = local_verdicts(&masked, boundary, &crashed_now, vpt, |v| {
                    engine.state(v).map(|s| s.punctured_graph(v).0)
                });
                (run, crashed_now, deletable, any)
            } else {
                let mut engine = Engine::new(&masked, |_| KHopDiscovery::new(k));
                if let Some(p) = plan.as_ref() {
                    engine = engine.with_faults(p.advanced(elapsed));
                }
                let run = engine.run(self.max_comm_rounds)?;
                let crashed_now = engine.crashed_nodes().to_vec();
                let (deletable, any) = local_verdicts(&masked, boundary, &crashed_now, vpt, |v| {
                    engine.state(v).map(|s| s.punctured_graph(v).0)
                });
                (run, crashed_now, deletable, any)
            };
            stats.absorb_discovery(run);
            elapsed += run.rounds;
            for v in crashed_now {
                masked.deactivate(v);
                if let Some(p) = plan.as_mut() {
                    p.remove_crash(v);
                }
            }
            if !any {
                break;
            }

            // Phase 2: m-hop local-minimum election among candidates. The
            // globally minimal candidate always wins, so an empty winner set
            // means it crashed mid-election — retry with fresh priorities,
            // up to the budget.
            let mut retries = 0usize;
            let winners: Vec<NodeId> = loop {
                let mut priorities = vec![0.0f64; graph.node_count()];
                for v in masked.active_nodes() {
                    if deletable[v.index()] {
                        priorities[v.index()] = rng.gen();
                    }
                }
                // Retries stagger each candidate's re-announcement by a
                // deterministic per-node jitter (attempt 0 → no delay), so a
                // partition heal or a crashed-winner retry can't re-collide
                // every stalled candidate in the same round — the classic
                // synchronized retry storm. Replay stays bitwise identical:
                // the offset is a pure function of (node, attempt).
                let mut election = Engine::new(&masked, |v| {
                    LocalMinElection::with_start_delay(
                        m,
                        deletable[v.index()],
                        priorities[v.index()],
                        retry_jitter(v, retries, crate::config::ELECTION_JITTER_WINDOW),
                    )
                })
                .with_link_model(self.link);
                if let Some(p) = plan.as_ref() {
                    election = election.with_faults(p.advanced(elapsed));
                }
                let run = election.run(self.max_comm_rounds)?;
                elapsed += run.rounds;
                stats.absorb_election(run);
                let crashed_now = election.crashed_nodes().to_vec();
                let winners: Vec<NodeId> = masked
                    .active_nodes()
                    .filter(|&v| deletable[v.index()] && !crashed_now.contains(&v))
                    .filter(|&v| election.state(v).is_some_and(|s| s.is_winner(v)))
                    .collect();
                for v in crashed_now {
                    masked.deactivate(v);
                    if let Some(p) = plan.as_mut() {
                        p.remove_crash(v);
                    }
                    deletable[v.index()] = false;
                }
                if !winners.is_empty() {
                    break winners;
                }
                if !masked.active_nodes().any(|v| deletable[v.index()]) {
                    // Every candidate crashed: verdicts are stale, rediscover.
                    break Vec::new();
                }
                retries += 1;
                if retries > crate::config::DEFAULT_RETRY_BUDGET {
                    return Err(SimError::ElectionStalled {
                        retries: crate::config::DEFAULT_RETRY_BUDGET,
                    });
                }
            };
            if winners.is_empty() {
                continue 'rounds;
            }
            for v in winners {
                masked.deactivate(v);
                deleted.push(v);
            }
            stats.deletion_rounds += 1;
        }

        let set = CoverageSet {
            active: masked.active_nodes().collect(),
            deleted,
            rounds: stats.deletion_rounds,
        };
        Ok((set, stats))
    }
}

/// Evaluates the VPT verdict of every active non-boundary node from its
/// discovered punctured graph, skipping nodes in `skip` (crashed mid-phase).
/// Evaluation goes through the engine's fanned-out job path.
pub(crate) fn local_verdicts<F>(
    masked: &Masked<'_>,
    boundary: &[bool],
    skip: &[NodeId],
    engine: &mut VptEngine,
    mut punctured: F,
) -> (Vec<bool>, bool)
where
    F: FnMut(NodeId) -> Option<Graph>,
{
    let mut jobs = Vec::new();
    for v in masked.active_nodes() {
        if boundary[v.index()] || skip.contains(&v) {
            continue;
        }
        // A node whose discovery state is missing simply isn't a deletion
        // candidate this round (conservative: it stays awake).
        let Some(graph) = punctured(v) else {
            continue;
        };
        jobs.push(EvalJob { node: v, graph });
    }
    let verdicts = engine.evaluate_jobs(&jobs);
    let mut deletable = vec![false; boundary.len()];
    let mut any = false;
    for (job, ok) in jobs.iter().zip(verdicts) {
        if ok {
            deletable[job.node.index()] = true;
            any = true;
        }
    }
    (deletable, any)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcc::Dcc;
    use crate::schedule::is_vpt_fixpoint;
    use confine_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn driver(tau: usize) -> crate::dcc::DistributedRunner {
        Dcc::builder(tau).distributed().unwrap()
    }

    fn king_boundary(w: usize, h: usize) -> Vec<bool> {
        (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                x == 0 || y == 0 || x == w - 1 || y == h - 1
            })
            .collect()
    }

    #[test]
    fn distributed_reaches_vpt_fixpoint() {
        let g = generators::king_grid_graph(6, 6);
        let boundary = king_boundary(6, 6);
        let mut rng = StdRng::seed_from_u64(9);
        let (set, stats) = driver(4).run(&g, &boundary, &mut rng).unwrap();
        assert!(is_vpt_fixpoint(&g, &set.active, &boundary, 4));
        assert!(!set.deleted.is_empty());
        assert!(stats.deletion_rounds >= 1);
        assert!(stats.discovery_messages > 0);
        assert!(stats.election_messages > 0);
        assert!(
            stats.bytes > stats.total_messages(),
            "payloads cost more than a byte"
        );
    }

    #[test]
    fn distributed_matches_centralized_size_envelope() {
        // Same fixpoint notion ⇒ sizes agree up to ordering effects; on the
        // symmetric king grid they agree exactly for most seeds. Assert a
        // tight envelope rather than equality.
        let g = generators::king_grid_graph(7, 7);
        let boundary = king_boundary(7, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let (dist_set, _) = driver(4).run(&g, &boundary, &mut rng).unwrap();
        let central = Dcc::builder(4)
            .centralized()
            .unwrap()
            .run(&g, &boundary, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let diff = dist_set.active_count().abs_diff(central.active_count());
        assert!(
            diff <= 3,
            "distributed {} vs centralized {}",
            dist_set.active_count(),
            central.active_count()
        );
    }

    #[test]
    fn boundary_protected_in_distributed_run() {
        let g = generators::king_grid_graph(5, 5);
        let boundary = king_boundary(5, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let (set, _) = driver(3).run(&g, &boundary, &mut rng).unwrap();
        for (i, &b) in boundary.iter().enumerate() {
            if b {
                assert!(set.active.contains(&NodeId::from(i)));
            }
        }
    }

    #[test]
    fn no_candidates_terminates_immediately() {
        // All nodes boundary: zero deletion rounds, only one discovery.
        let g = generators::cycle_graph(6);
        let boundary = vec![true; 6];
        let mut rng = StdRng::seed_from_u64(0);
        let (set, stats) = driver(3).run(&g, &boundary, &mut rng).unwrap();
        assert_eq!(set.active_count(), 6);
        assert_eq!(stats.deletion_rounds, 0);
        assert_eq!(stats.election_messages, 0);
        assert!(stats.discovery_messages > 0, "discovery still ran once");
    }

    #[test]
    fn mid_schedule_recovery_is_rejected_with_a_typed_error() {
        use confine_netsim::faults::FaultPlan;
        let g = generators::king_grid_graph(5, 5);
        let boundary = king_boundary(5, 5);
        let mut rng = StdRng::seed_from_u64(4);
        let plan = FaultPlan::new().crash(NodeId(12), 2).recover(NodeId(12), 6);
        let result = Dcc::builder(3)
            .fault_plan(plan)
            .distributed()
            .unwrap()
            .run(&g, &boundary, &mut rng);
        assert!(matches!(result, Err(SimError::UnsupportedFault { .. })));
    }

    #[test]
    fn round_limit_error_propagates() {
        let g = generators::king_grid_graph(5, 5);
        let boundary = king_boundary(5, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let result = Dcc::builder(3)
            .round_limit(1)
            .distributed()
            .unwrap()
            .run(&g, &boundary, &mut rng);
        assert!(matches!(
            result,
            Err(SimError::RoundLimitExceeded { limit: 1 })
        ));
    }
}
