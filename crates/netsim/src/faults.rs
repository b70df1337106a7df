//! Fault injection and failure detection.
//!
//! Real deployments lose nodes and links mid-run; the paper's guarantees are
//! stated for a static topology, so quantifying how the DCC machinery
//! degrades — and recovers — requires injecting faults *deterministically*,
//! or no experiment is reproducible. This module provides:
//!
//! * [`FaultPlan`] — a seedable script of crash faults (with optional
//!   recovery), network [`Partition`]s, link up/down flapping intervals and
//!   per-link loss overrides, applied by the [`Engine`](crate::Engine) via
//!   [`Engine::with_faults`](crate::Engine::with_faults). Plans are plain
//!   data: the same plan on the same topology yields the same execution.
//! * [`Heartbeat`] — a beaconing protocol by which every node detects
//!   crashed direct neighbours within a configurable silence timeout, the
//!   detection primitive of the coverage-repair layer in `confine-core`.
//!
//! Crash semantics are **crash-stop** unless a recovery is scheduled: a node
//! scheduled to crash at round `r` executes rounds `< r` normally, then
//! stops acting. Messages queued for delivery to it at round `r` or later
//! are lost (counted in [`RunStats::dropped`](crate::RunStats::dropped));
//! messages it sent at round `r − 1` were already on the air and are still
//! delivered. A node with a scheduled [`FaultPlan::recover`] round rejoins
//! with its **pre-crash protocol state snapshot** — nothing it missed while
//! down is replayed, which is exactly what forces the repair layer to
//! reconcile stale state on rejoin.
//!
//! Partition semantics: while a [`Partition`] is active, any message whose
//! endpoints lie on opposite sides of the split is dropped (counted in
//! `dropped` and [`RunStats::partitioned`](crate::RunStats::partitioned));
//! intra-side traffic is untouched. Healing is implicit: the window ends.

use std::collections::{BTreeMap, BTreeSet};

use confine_graph::NodeId;

use crate::engine::{Context, Envelope, Protocol};

/// Canonical (unordered) key for a link.
fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A periodic link up/down schedule: the link is *down* for the first
/// `down_for` rounds of every `period`-round window, shifted by `phase`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFlap {
    /// Window length in rounds. A period of 0 never flaps.
    pub period: usize,
    /// Rounds per window during which the link is down (`≤ period`).
    pub down_for: usize,
    /// Offset of the window start, in rounds.
    pub phase: usize,
}

impl LinkFlap {
    /// Is the link down at `round`?
    pub fn is_down(&self, round: usize) -> bool {
        self.period > 0 && self.down_for > 0 && (round + self.phase) % self.period < self.down_for
    }
}

/// A network split active for a window of rounds: messages crossing between
/// `side` and its complement are dropped while `from ≤ round < until`.
///
/// The split is described by one side only, so it composes with any node
/// universe: nodes not listed are all on the other side together.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Partition {
    /// Nodes on one side of the split.
    pub side: BTreeSet<NodeId>,
    /// First round at which the split is active.
    pub from: usize,
    /// First round at which the split has healed (exclusive end).
    pub until: usize,
}

impl Partition {
    /// Does this split block a message `a → b` at `round`?
    pub fn blocks(&self, a: NodeId, b: NodeId, round: usize) -> bool {
        round >= self.from && round < self.until && self.side.contains(&a) != self.side.contains(&b)
    }
}

/// A deterministic fault script, applied by the engine as rounds elapse.
///
/// # Example
///
/// ```
/// use confine_graph::NodeId;
/// use confine_netsim::faults::{FaultPlan, LinkFlap};
///
/// let plan = FaultPlan::new()
///     .crash(NodeId(3), 5)
///     .flap(NodeId(0), NodeId(1), LinkFlap { period: 4, down_for: 2, phase: 0 })
///     .link_loss(NodeId(1), NodeId(2), 0.5);
/// assert_eq!(plan.crash_round(NodeId(3)), Some(5));
/// assert!(plan.link_down(NodeId(1), NodeId(0), 1), "flaps are undirected");
/// assert!(!plan.link_down(NodeId(0), NodeId(1), 2));
/// assert_eq!(plan.loss_override(NodeId(2), NodeId(1)), Some(0.5));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// node → round at which it crash-stops.
    crashes: BTreeMap<NodeId, usize>,
    /// node → round at which it rejoins with its pre-crash state snapshot.
    recoveries: BTreeMap<NodeId, usize>,
    /// Network splits, each active over its own round window.
    partitions: Vec<Partition>,
    /// link → flapping schedule.
    flaps: BTreeMap<(NodeId, NodeId), LinkFlap>,
    /// link → loss probability override.
    loss: BTreeMap<(NodeId, NodeId), f64>,
    /// Seed of the engine-local RNG that draws per-link loss overrides.
    seed: u64,
}

impl FaultPlan {
    /// Creates an empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// A plan crashing `count` distinct nodes drawn from `nodes` at rounds
    /// uniform in `[1, within_rounds]` — deterministic in `seed`.
    pub fn random_crashes(nodes: &[NodeId], count: usize, within_rounds: usize, seed: u64) -> Self {
        use rand::seq::SliceRandom as _;
        use rand::Rng as _;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let mut pool = nodes.to_vec();
        pool.shuffle(&mut rng);
        let mut plan = FaultPlan::new().with_seed(seed);
        for &v in pool.iter().take(count) {
            let round = rng.gen_range(1..=within_rounds.max(1));
            plan = plan.crash(v, round);
        }
        plan
    }

    /// Schedules `node` to crash-stop at `round` (0 = never participates).
    pub fn crash(mut self, node: NodeId, round: usize) -> Self {
        self.crashes.insert(node, round);
        self
    }

    /// Schedules `node` to rejoin at `round` with the protocol state it had
    /// when it crashed (crash-recover semantics). A recovery without a
    /// matching crash, or scheduled at or before the crash round, is inert.
    pub fn recover(mut self, node: NodeId, round: usize) -> Self {
        self.recoveries.insert(node, round);
        self
    }

    /// Schedules a network split: messages between `side` and everything
    /// else are dropped while `from ≤ round < until`.
    pub fn partition(mut self, side: &[NodeId], from: usize, until: usize) -> Self {
        self.partitions.push(Partition {
            side: side.iter().copied().collect(),
            from,
            until,
        });
        self
    }

    /// Schedules the undirected link `a—b` to flap per `flap`.
    pub fn flap(mut self, a: NodeId, b: NodeId, flap: LinkFlap) -> Self {
        self.flaps.insert(link_key(a, b), flap);
        self
    }

    /// Overrides the loss probability of the undirected link `a—b`,
    /// regardless of the engine's global [`LinkModel`](crate::LinkModel).
    pub fn link_loss(mut self, a: NodeId, b: NodeId, p: f64) -> Self {
        self.loss.insert(link_key(a, b), p.clamp(0.0, 1.0));
        self
    }

    /// Sets the seed of the per-link loss RNG (default 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The round at which `node` crashes, if scheduled.
    pub fn crash_round(&self, node: NodeId) -> Option<usize> {
        self.crashes.get(&node).copied()
    }

    /// The scheduled crashes, in node order.
    pub fn crashes(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.crashes.iter().map(|(&v, &r)| (v, r))
    }

    /// Removes a scheduled crash (used by drivers once a crash has been
    /// applied, so the plan can be re-based across protocol phases).
    pub fn remove_crash(&mut self, node: NodeId) -> bool {
        self.crashes.remove(&node).is_some()
    }

    /// The round at which `node` recovers, if scheduled.
    pub fn recover_round(&self, node: NodeId) -> Option<usize> {
        self.recoveries.get(&node).copied()
    }

    /// The scheduled recoveries, in node order.
    pub fn recoveries(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.recoveries.iter().map(|(&v, &r)| (v, r))
    }

    /// Removes a scheduled recovery (mirror of [`Self::remove_crash`]).
    pub fn remove_recovery(&mut self, node: NodeId) -> bool {
        self.recoveries.remove(&node).is_some()
    }

    /// The scheduled network splits.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Does some scheduled split block a message `a → b` at `round`?
    pub fn partition_blocks(&self, a: NodeId, b: NodeId, round: usize) -> bool {
        self.partitions.iter().any(|p| p.blocks(a, b, round))
    }

    /// Is the link `a—b` flapped down at `round`?
    pub fn link_down(&self, a: NodeId, b: NodeId, round: usize) -> bool {
        self.flaps
            .get(&link_key(a, b))
            .is_some_and(|f| f.is_down(round))
    }

    /// The loss-probability override of link `a—b`, if any.
    pub fn loss_override(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.loss.get(&link_key(a, b)).copied()
    }

    /// The seed of the per-link loss RNG.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan schedules no fault at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.recoveries.is_empty()
            && self.partitions.is_empty()
            && self.flaps.is_empty()
            && self.loss.is_empty()
    }

    /// True when every scheduled fault holds unchanged through a whole run:
    /// crashes at round 0, partitions open from round 0 without end, and no
    /// recoveries, flaps or loss overrides. A driver that applies such a
    /// plan afresh to each of its phases runs every phase on the same
    /// static topology.
    pub fn is_steady(&self) -> bool {
        self.crashes.values().all(|&round| round == 0)
            && self.recoveries.is_empty()
            && self
                .partitions
                .iter()
                .all(|p| p.from == 0 && p.until == usize::MAX)
            && self.flaps.is_empty()
            && self.loss.is_empty()
    }

    /// True when the plan needs a loss RNG.
    pub(crate) fn has_loss_overrides(&self) -> bool {
        !self.loss.is_empty()
    }

    /// Re-bases the plan by `by` already-elapsed rounds: crash, recovery and
    /// partition rounds shift down (saturating at 0 — drivers should
    /// [`Self::remove_crash`] / [`Self::remove_recovery`] applied events
    /// first) and flap phases shift up so the up/down pattern continues
    /// seamlessly across engine phases.
    pub fn advanced(&self, by: usize) -> Self {
        let mut plan = self.clone();
        for round in plan.crashes.values_mut() {
            *round = round.saturating_sub(by);
        }
        for round in plan.recoveries.values_mut() {
            *round = round.saturating_sub(by);
        }
        for split in plan.partitions.iter_mut() {
            split.from = split.from.saturating_sub(by);
            split.until = split.until.saturating_sub(by);
        }
        for flap in plan.flaps.values_mut() {
            flap.phase += by;
        }
        plan
    }
}

/// Beacon-based crash detection: every node broadcasts an empty beacon each
/// round up to `horizon`; a direct neighbour silent for more than `timeout`
/// consecutive rounds is *suspected* crashed.
///
/// In the synchronous model with reliable links the detector is exact: a
/// node crashing at round `r` is suspected by all alive neighbours at round
/// `r + timeout + 1` and no alive node is ever suspected. Under message
/// loss, `timeout` trades detection latency against the false-suspicion
/// probability `p^(timeout+1)` per window.
///
/// # Example
///
/// ```
/// use confine_graph::{generators, NodeId};
/// use confine_netsim::faults::{FaultPlan, Heartbeat};
/// use confine_netsim::Engine;
///
/// let g = generators::cycle_graph(5);
/// let mut engine = Engine::new(&g, |_| Heartbeat::new(2, 8))
///     .with_faults(FaultPlan::new().crash(NodeId(0), 3));
/// let stats = engine.run(16)?;
/// assert_eq!(stats.crashed, 1);
/// assert_eq!(engine.state(NodeId(1)).unwrap().suspected(), vec![NodeId(0)]);
/// assert_eq!(engine.state(NodeId(2)).unwrap().suspected(), vec![]);
/// # Ok::<(), confine_netsim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Heartbeat {
    timeout: usize,
    horizon: usize,
    neighbors: Vec<NodeId>,
    /// neighbour → last round a beacon from it arrived.
    last_heard: BTreeMap<NodeId, usize>,
    round: usize,
    /// Suspected-then-seen events: a beacon arrived from a neighbour that
    /// had already been silent past the timeout, proving the suspicion
    /// false. Under pure crash-stop this stays 0; loss, flapping, partitions
    /// and recoveries all inflate it.
    false_suspicions: usize,
}

impl Heartbeat {
    /// Creates the per-node state: beacon until round `horizon`, suspect
    /// after `timeout` silent rounds.
    ///
    /// # Panics
    ///
    /// Panics unless `horizon > timeout + 1` — shorter horizons cannot
    /// observe a full silence window.
    pub fn new(timeout: usize, horizon: usize) -> Self {
        assert!(horizon > timeout + 1, "horizon must exceed timeout + 1");
        Heartbeat {
            timeout,
            horizon,
            neighbors: Vec::new(),
            last_heard: BTreeMap::new(),
            round: 0,
            false_suspicions: 0,
        }
    }

    /// The silence timeout in rounds.
    pub fn timeout(&self) -> usize {
        self.timeout
    }

    /// Direct neighbours suspected crashed, in id order.
    pub fn suspected(&self) -> Vec<NodeId> {
        self.neighbors
            .iter()
            .copied()
            .filter(|&w| self.is_suspect(w, self.round))
            .collect()
    }

    /// How many suspicions this node has had disproven by a later beacon
    /// (suspected-then-seen count).
    pub fn false_suspicions(&self) -> usize {
        self.false_suspicions
    }

    /// Is `w` silent past the timeout as of `round`?
    fn is_suspect(&self, w: NodeId, round: usize) -> bool {
        round.saturating_sub(self.last_heard.get(&w).copied().unwrap_or(0)) > self.timeout
    }
}

impl Protocol for Heartbeat {
    type Message = ();

    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        self.neighbors = ctx.neighbors().to_vec();
        ctx.broadcast(());
    }

    fn on_round(&mut self, ctx: &mut Context<'_, ()>, inbox: &[Envelope<()>]) {
        self.round = ctx.round();
        for env in inbox {
            if self.is_suspect(env.from, ctx.round()) {
                self.false_suspicions += 1;
            }
            self.last_heard.insert(env.from, ctx.round());
        }
        if ctx.round() < self.horizon {
            ctx.broadcast(());
        }
    }

    fn is_quiescent(&self) -> bool {
        self.round >= self.horizon
    }

    fn payload_size(_msg: &()) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, LinkModel, RunStats};
    use confine_graph::generators;

    #[test]
    fn flap_schedule_is_periodic() {
        let f = LinkFlap {
            period: 5,
            down_for: 2,
            phase: 0,
        };
        let pattern: Vec<bool> = (0..10).map(|r| f.is_down(r)).collect();
        assert_eq!(
            pattern,
            [true, true, false, false, false, true, true, false, false, false]
        );
        let shifted = LinkFlap { phase: 2, ..f };
        assert!(!shifted.is_down(0));
        assert!(shifted.is_down(3));
        assert!(!LinkFlap {
            period: 0,
            down_for: 0,
            phase: 0
        }
        .is_down(7));
    }

    #[test]
    fn steady_plans_hold_through_every_round() {
        let side = [NodeId(0), NodeId(1)];
        let flap = LinkFlap {
            period: 4,
            down_for: 1,
            phase: 0,
        };
        assert!(FaultPlan::new().is_steady());
        assert!(FaultPlan::new()
            .crash(NodeId(3), 0)
            .partition(&side, 0, usize::MAX)
            .is_steady());
        for plan in [
            FaultPlan::new().crash(NodeId(3), 2),
            FaultPlan::new().crash(NodeId(3), 0).recover(NodeId(3), 4),
            FaultPlan::new().partition(&side, 0, 9),
            FaultPlan::new().partition(&side, 1, usize::MAX),
            FaultPlan::new().flap(NodeId(0), NodeId(1), flap),
            FaultPlan::new().link_loss(NodeId(0), NodeId(1), 0.1),
        ] {
            assert!(!plan.is_steady(), "{plan:?}");
        }
    }

    #[test]
    fn advanced_rebases_crashes_and_flaps() {
        let plan = FaultPlan::new().crash(NodeId(1), 7).flap(
            NodeId(0),
            NodeId(1),
            LinkFlap {
                period: 4,
                down_for: 1,
                phase: 0,
            },
        );
        let later = plan.advanced(3);
        assert_eq!(later.crash_round(NodeId(1)), Some(4));
        // Global round 4 maps to local round 1 of the re-based plan.
        assert_eq!(
            plan.link_down(NodeId(0), NodeId(1), 4),
            later.link_down(NodeId(0), NodeId(1), 1)
        );
    }

    #[test]
    fn random_crashes_are_deterministic_and_distinct() {
        let nodes: Vec<NodeId> = (0..20).map(NodeId).collect();
        let a = FaultPlan::random_crashes(&nodes, 5, 10, 11);
        let b = FaultPlan::random_crashes(&nodes, 5, 10, 11);
        assert_eq!(a, b, "same seed, same plan");
        let victims: Vec<NodeId> = a.crashes().map(|(v, _)| v).collect();
        assert_eq!(victims.len(), 5);
        for (v, r) in a.crashes() {
            assert!(nodes.contains(&v));
            assert!((1..=10).contains(&r));
        }
    }

    #[test]
    fn heartbeat_quiet_network_suspects_nobody() {
        let g = generators::king_grid_graph(3, 3);
        let mut engine = Engine::new(&g, |_| Heartbeat::new(2, 6));
        engine.run(16).unwrap();
        for v in g.nodes() {
            assert!(
                engine.state(v).unwrap().suspected().is_empty(),
                "node {v:?}"
            );
        }
    }

    #[test]
    fn heartbeat_detects_only_direct_neighbors_of_the_crash() {
        let g = generators::path_graph(5); // 0-1-2-3-4
        let timeout = 2;
        let mut engine = Engine::new(&g, |_| Heartbeat::new(timeout, 9))
            .with_faults(FaultPlan::new().crash(NodeId(2), 2));
        let stats = engine.run(16).unwrap();
        assert_eq!(stats.crashed, 1);
        assert_eq!(
            engine.state(NodeId(1)).unwrap().suspected(),
            vec![NodeId(2)]
        );
        assert_eq!(
            engine.state(NodeId(3)).unwrap().suspected(),
            vec![NodeId(2)]
        );
        assert!(engine.state(NodeId(0)).unwrap().suspected().is_empty());
        assert!(engine.state(NodeId(4)).unwrap().suspected().is_empty());
    }

    #[test]
    fn heartbeat_tolerates_moderate_loss() {
        // With timeout 4 a false suspicion needs 5 consecutive losses on one
        // link (p^5 ≈ 0.03% at p = 0.2) — assert none happens for this seed.
        let g = generators::cycle_graph(8);
        let mut engine = Engine::new(&g, |_| Heartbeat::new(4, 12))
            .with_link_model(LinkModel::Lossy { p: 0.2, seed: 7 });
        engine.run(24).unwrap();
        let false_suspicions: usize = g
            .nodes()
            .map(|v| engine.state(v).unwrap().suspected().len())
            .sum();
        assert_eq!(false_suspicions, 0);
    }

    #[test]
    fn flapped_link_drops_are_counted_separately() {
        let g = generators::path_graph(2);
        // The only link is permanently down: every beacon is lost to
        // flapping, so each endpoint eventually suspects the other.
        let mut engine =
            Engine::new(&g, |_| Heartbeat::new(1, 5)).with_faults(FaultPlan::new().flap(
                NodeId(0),
                NodeId(1),
                LinkFlap {
                    period: 1,
                    down_for: 1,
                    phase: 0,
                },
            ));
        let stats = engine.run(16).unwrap();
        assert!(stats.flapped > 0);
        assert_eq!(stats.flapped, stats.dropped, "all drops came from flapping");
        assert_eq!(stats.crashed, 0);
        assert_eq!(
            engine.state(NodeId(0)).unwrap().suspected(),
            vec![NodeId(1)]
        );
    }

    #[test]
    fn per_link_loss_override_applies_without_global_loss() {
        let g = generators::path_graph(3);
        let mut engine = Engine::new(&g, |_| Heartbeat::new(2, 8)).with_faults(
            FaultPlan::new()
                .link_loss(NodeId(0), NodeId(1), 1.0)
                .with_seed(5),
        );
        let stats = engine.run(16).unwrap();
        assert!(stats.dropped > 0, "p = 1 override drops everything on 0—1");
        assert_eq!(engine.state(NodeId(2)).unwrap().suspected(), vec![]);
        assert_eq!(
            engine.state(NodeId(0)).unwrap().suspected(),
            vec![NodeId(1)]
        );
    }

    #[test]
    fn crash_at_round_zero_never_participates() {
        let g = generators::path_graph(3);
        let mut engine = Engine::new(&g, |_| Heartbeat::new(1, 4))
            .with_faults(FaultPlan::new().crash(NodeId(1), 0));
        let stats = engine.run(16).unwrap();
        assert_eq!(stats.crashed, 1);
        assert_eq!(engine.crashed_nodes(), [NodeId(1)]);
        // 0 and 2 only ever had neighbour 1, which was silent from the start.
        assert_eq!(
            engine.state(NodeId(0)).unwrap().suspected(),
            vec![NodeId(1)]
        );
        assert_eq!(
            engine.state(NodeId(2)).unwrap().suspected(),
            vec![NodeId(1)]
        );
    }

    #[test]
    fn partition_blocks_only_cross_side_traffic() {
        let g = generators::path_graph(4); // 0-1-2-3
        let split = [NodeId(0), NodeId(1)];
        let mut engine = Engine::new(&g, |_| Heartbeat::new(2, 8))
            .with_faults(FaultPlan::new().partition(&split, 0, 32));
        let stats = engine.run(16).unwrap();
        assert!(stats.partitioned > 0);
        assert_eq!(stats.partitioned, stats.dropped, "only the 1—2 link drops");
        // Intra-side links are untouched; the cut link's endpoints suspect
        // each other.
        assert_eq!(
            engine.state(NodeId(1)).unwrap().suspected(),
            vec![NodeId(2)]
        );
        assert_eq!(
            engine.state(NodeId(2)).unwrap().suspected(),
            vec![NodeId(1)]
        );
        assert!(engine.state(NodeId(0)).unwrap().suspected().is_empty());
        assert!(engine.state(NodeId(3)).unwrap().suspected().is_empty());
    }

    #[test]
    fn healed_partition_clears_suspicions_and_counts_false_ones() {
        let g = generators::path_graph(2);
        // Split for rounds [0, 5): each endpoint suspects the other by round
        // 4 (timeout 2), then beacons resume and disprove the suspicion.
        let mut engine = Engine::new(&g, |_| Heartbeat::new(2, 12))
            .with_faults(FaultPlan::new().partition(&[NodeId(0)], 0, 5));
        engine.run(24).unwrap();
        for v in [NodeId(0), NodeId(1)] {
            let s = engine.state(v).unwrap();
            assert!(s.suspected().is_empty(), "heal resolves {v:?}");
            assert!(s.false_suspicions() > 0, "suspected-then-seen at {v:?}");
        }
    }

    #[test]
    fn crash_recover_rejoins_with_pre_crash_state() {
        let g = generators::path_graph(3); // 0-1-2
        let mut engine = Engine::new(&g, |_| Heartbeat::new(2, 14))
            .with_faults(FaultPlan::new().crash(NodeId(1), 2).recover(NodeId(1), 8));
        let stats = engine.run(32).unwrap();
        assert_eq!(stats.crashed, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(engine.crashed_nodes(), [NodeId(1)]);
        assert_eq!(engine.recovered_nodes(), [NodeId(1)]);
        // Neighbours suspected 1 while it was down, then heard it again.
        for v in [NodeId(0), NodeId(2)] {
            let s = engine.state(v).unwrap();
            assert!(s.suspected().is_empty(), "recovery resolves {v:?}");
            assert!(s.false_suspicions() > 0, "suspected-then-seen at {v:?}");
        }
        // The rejoined node woke with its stale pre-crash snapshot: it had
        // last heard its neighbours before round 2, so on rejoin it falsely
        // suspected them until their next beacons arrived.
        let s = engine.state(NodeId(1)).unwrap();
        assert!(s.suspected().is_empty());
        assert!(s.false_suspicions() > 0, "stale snapshot disproven");
    }

    #[test]
    fn recovery_defers_quiescence() {
        // A silent network would quiesce immediately, but a scheduled
        // recovery keeps the run alive until it fires.
        let g = generators::path_graph(2);
        let mut engine = Engine::new(&g, |_| Heartbeat::new(1, 4))
            .with_faults(FaultPlan::new().crash(NodeId(0), 1).recover(NodeId(0), 9));
        let stats = engine.run(32).unwrap();
        assert_eq!(stats.recovered, 1);
        assert!(stats.rounds >= 9, "ran until the recovery fired");
    }

    #[test]
    fn recovery_without_crash_is_inert() {
        let g = generators::path_graph(2);
        let mut engine = Engine::new(&g, |_| Heartbeat::new(1, 4))
            .with_faults(FaultPlan::new().recover(NodeId(0), 2));
        let stats = engine.run(16).unwrap();
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.crashed, 0);
    }

    #[test]
    fn advanced_rebases_recoveries_and_partitions() {
        let plan = FaultPlan::new()
            .crash(NodeId(1), 7)
            .recover(NodeId(1), 9)
            .partition(&[NodeId(0)], 4, 8);
        let later = plan.advanced(3);
        assert_eq!(later.recover_round(NodeId(1)), Some(6));
        assert_eq!(later.partitions()[0].from, 1);
        assert_eq!(later.partitions()[0].until, 5);
        // Global round 5 maps to local round 2 of the re-based plan.
        assert_eq!(
            plan.partition_blocks(NodeId(0), NodeId(1), 5),
            later.partition_blocks(NodeId(0), NodeId(1), 2)
        );
        assert!(!plan.is_empty());
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        let g = generators::king_grid_graph(4, 4);
        let mut plain = Engine::new(&g, |_| Heartbeat::new(2, 6));
        let a = plain.run(16).unwrap();
        let mut faulty = Engine::new(&g, |_| Heartbeat::new(2, 6)).with_faults(FaultPlan::new());
        let b = faulty.run(16).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            b,
            RunStats {
                crashed: 0,
                flapped: 0,
                dropped: 0,
                ..b
            }
        );
    }
}
