//! The synchronous round engine.
//!
//! Nodes are state machines implementing [`Protocol`]; in every round each
//! node consumes the messages sent to it in the previous round and may send
//! new messages **to direct neighbours only** (the engine enforces the
//! communication graph). The engine runs until every node is quiescent and
//! no messages are in flight, or a round limit is hit.

use std::error::Error;
use std::fmt;

use confine_graph::{GraphView, NodeId};

/// A message with its sender, as delivered to a node's inbox.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// The sending node.
    pub from: NodeId,
    /// The payload.
    pub payload: M,
}

/// Per-node protocol logic.
///
/// Implementations hold the node's local state. All interaction with the
/// network goes through the [`Context`]: reading the local neighbourhood and
/// sending messages.
pub trait Protocol {
    /// The message type exchanged by this protocol.
    type Message: Clone;

    /// Invoked once before the first round.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>);

    /// Invoked every round with the messages delivered this round.
    fn on_round(&mut self, ctx: &mut Context<'_, Self::Message>, inbox: &[Envelope<Self::Message>]);

    /// A node is quiescent when it has nothing more to do; the run
    /// terminates when all nodes are quiescent and no message is in flight.
    fn is_quiescent(&self) -> bool;

    /// Approximate wire size of a message in bytes, for the cost accounting.
    /// The default charges a flat 16 bytes.
    fn payload_size(_msg: &Self::Message) -> usize {
        16
    }
}

/// The API a node sees during one of its activations.
#[derive(Debug)]
pub struct Context<'a, M> {
    node: NodeId,
    round: usize,
    neighbors: &'a [NodeId],
    outbox: Vec<(NodeId, M)>,
}

impl<M: Clone> Context<'_, M> {
    /// The node this context belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current round number (0 during [`Protocol::on_start`]).
    pub fn round(&self) -> usize {
        self.round
    }

    /// The node's active direct neighbours.
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// Sends `payload` to a direct neighbour next round.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not an active neighbour — protocols must respect
    /// the communication graph.
    pub fn send(&mut self, to: NodeId, payload: M) {
        assert!(
            self.neighbors.contains(&to),
            "node {:?} tried to message non-neighbour {:?}",
            self.node,
            to
        );
        self.outbox.push((to, payload));
    }

    /// Sends `payload` to every active neighbour.
    pub fn broadcast(&mut self, payload: M) {
        for i in 0..self.neighbors.len() {
            let to = self.neighbors[i];
            self.outbox.push((to, payload.clone()));
        }
    }
}

/// Aggregate cost statistics of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of executed rounds (excluding the start activation).
    pub rounds: usize,
    /// Total messages sent (sent = charged, whether or not delivered).
    pub messages: usize,
    /// Total payload bytes sent (per [`Protocol::payload_size`]).
    pub bytes: usize,
    /// Messages lost in transit: random loss, flapped-down links and sends
    /// to crashed receivers all count here.
    pub dropped: usize,
    /// Nodes that crash-stopped during the run (per the fault plan).
    pub crashed: usize,
    /// Messages lost specifically to flapped-down links (also in `dropped`).
    pub flapped: usize,
    /// Messages lost crossing an active network split (also in `dropped`).
    pub partitioned: usize,
    /// Crashed nodes that rejoined during the run (per the fault plan).
    pub recovered: usize,
}

/// Errors from [`Engine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The protocol did not converge within the round limit.
    RoundLimitExceeded {
        /// The limit that was hit.
        limit: usize,
    },
    /// An election phase produced no winner even after exhausting its retry
    /// budget — under crash faults the locally minimal candidate can die
    /// mid-election, and the driver re-runs the phase with fresh priorities
    /// only so many times.
    ElectionStalled {
        /// Retries that were attempted before giving up.
        retries: usize,
    },
    /// A scheduler was configured with a `τ` below the smallest value the
    /// coverage criterion is defined for (irreducible cycles have length
    /// ≥ 3).
    InvalidTau {
        /// The rejected value.
        tau: usize,
        /// The smallest accepted value.
        min: usize,
    },
    /// A boundary-flag slice did not line up with the node set it describes.
    BoundaryMismatch {
        /// Number of boundary flags supplied.
        flags: usize,
        /// Number of nodes the flags must cover.
        nodes: usize,
    },
    /// A driver was asked to operate on a node outside the set it schedules
    /// (e.g. repairing the crash of a node that was never active).
    NotActive {
        /// The offending node.
        node: NodeId,
    },
    /// An internal invariant of a driver or engine was violated — the
    /// simulation state is inconsistent and the run cannot continue. This
    /// replaces panics on "impossible" states in library code.
    Internal {
        /// Which invariant broke.
        what: &'static str,
    },
    /// The fault configuration asks for a behaviour the selected driver
    /// does not model (e.g. crash *recovery* during the initial schedule —
    /// rejoin is the business of the repair/chaos layer).
    UnsupportedFault {
        /// What was asked for and who should handle it instead.
        what: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SimError::RoundLimitExceeded { limit } => {
                write!(f, "protocol did not converge within {limit} rounds")
            }
            SimError::ElectionStalled { retries } => {
                write!(f, "election produced no winner after {retries} retries")
            }
            SimError::InvalidTau { tau, min } => {
                write!(f, "tau = {tau} is below the minimum supported value {min}")
            }
            SimError::BoundaryMismatch { flags, nodes } => {
                write!(
                    f,
                    "boundary flags cover {flags} nodes but the graph has {nodes}"
                )
            }
            SimError::NotActive { node } => {
                write!(f, "node {} is not in the scheduled active set", node.0)
            }
            SimError::Internal { what } => {
                write!(f, "internal simulation invariant violated: {what}")
            }
            SimError::UnsupportedFault { what } => {
                write!(f, "unsupported fault configuration: {what}")
            }
        }
    }
}

impl Error for SimError {}

/// Link reliability model of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkModel {
    /// Every sent message is delivered next round.
    Reliable,
    /// Each message is independently lost with probability `p`; the drop
    /// sequence is driven by a deterministic engine-local RNG seeded with
    /// `seed`, so lossy runs are reproducible.
    Lossy {
        /// Per-message loss probability in `[0, 1]`.
        p: f64,
        /// Seed of the engine-local drop RNG.
        seed: u64,
    },
}

/// A synchronous message-passing execution over a graph view.
///
/// # Example
///
/// A one-shot flood that counts how many nodes hear a token:
///
/// ```
/// use confine_graph::{generators, NodeId};
/// use confine_netsim::{Context, Engine, Envelope, Protocol};
///
/// struct Flood { seen: bool, is_source: bool }
/// impl Protocol for Flood {
///     type Message = ();
///     fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
///         if self.is_source {
///             self.seen = true;
///             ctx.broadcast(());
///         }
///     }
///     fn on_round(&mut self, ctx: &mut Context<'_, ()>, inbox: &[Envelope<()>]) {
///         if !inbox.is_empty() && !self.seen {
///             self.seen = true;
///             ctx.broadcast(());
///         }
///     }
///     fn is_quiescent(&self) -> bool { true }
/// }
///
/// let g = generators::path_graph(5);
/// let mut engine = Engine::new(&g, |v| Flood { seen: false, is_source: v == NodeId(0) });
/// let stats = engine.run(16)?;
/// assert!(engine.states().iter().all(|s| s.seen));
/// assert_eq!(stats.rounds, 5);
/// # Ok::<(), confine_netsim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Engine<'g, V: GraphView, P: Protocol> {
    view: &'g V,
    states: Vec<Option<P>>,
    node_ids: Vec<NodeId>,
    neighbor_cache: Vec<Vec<NodeId>>,
    stats: RunStats,
    link: LinkModel,
    drop_rng: Option<rand::rngs::StdRng>,
    faults: Option<crate::faults::FaultPlan>,
    fault_rng: Option<rand::rngs::StdRng>,
    crashed: Vec<bool>,
    /// Nodes that have crashed at least once — a recovered node never
    /// re-crashes from the same plan entry.
    crashed_once: Vec<bool>,
    crashed_ids: Vec<NodeId>,
    recovered_ids: Vec<NodeId>,
}

impl<'g, V: GraphView, P: Protocol> Engine<'g, V, P> {
    /// Creates an engine over the active nodes of `view`, instantiating one
    /// protocol state per node via `init`.
    pub fn new<F>(view: &'g V, mut init: F) -> Self
    where
        F: FnMut(NodeId) -> P,
    {
        let bound = view.node_bound();
        let mut states: Vec<Option<P>> = (0..bound).map(|_| None).collect();
        let mut node_ids = Vec::new();
        let mut neighbor_cache = vec![Vec::new(); bound];
        for v in view.active_nodes() {
            states[v.index()] = Some(init(v));
            // lint: alloc-ok(one-shot neighbor cache built at engine construction)
            neighbor_cache[v.index()] = view.view_neighbors(v).collect();
            node_ids.push(v);
        }
        Engine {
            view,
            states,
            node_ids,
            neighbor_cache,
            stats: RunStats::default(),
            link: LinkModel::Reliable,
            drop_rng: None,
            faults: None,
            fault_rng: None,
            crashed: vec![false; bound],
            crashed_once: vec![false; bound],
            crashed_ids: Vec::new(),
            recovered_ids: Vec::new(),
        }
    }

    /// Selects the link reliability model (default: [`LinkModel::Reliable`]).
    pub fn with_link_model(mut self, link: LinkModel) -> Self {
        self.link = link;
        self.drop_rng = match link {
            LinkModel::Reliable => None,
            LinkModel::Lossy { seed, .. } => Some(
                <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed),
            ),
        };
        self
    }

    /// Installs a fault plan (default: none). Plan rounds are engine rounds
    /// of this run; drivers chaining several engine phases should re-base
    /// the plan with [`crate::faults::FaultPlan::advanced`] between phases.
    pub fn with_faults(mut self, plan: crate::faults::FaultPlan) -> Self {
        self.fault_rng = plan
            .has_loss_overrides()
            .then(|| <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(plan.seed()));
        self.faults = Some(plan);
        self
    }

    /// Nodes that crash-stopped so far, in crash order. A node that later
    /// recovered stays listed here (and in [`Self::recovered_nodes`]).
    pub fn crashed_nodes(&self) -> &[NodeId] {
        &self.crashed_ids
    }

    /// Nodes that recovered from a crash so far, in recovery order.
    pub fn recovered_nodes(&self) -> &[NodeId] {
        &self.recovered_ids
    }

    /// Returns `true` when the current link model drops this message.
    fn drops(&mut self) -> bool {
        match self.link {
            LinkModel::Lossy { p, .. } => self.draw_loss(p, false),
            LinkModel::Reliable => false,
        }
    }

    fn draw_loss(&mut self, p: f64, from_override: bool) -> bool {
        use rand::Rng as _;
        let rng = if from_override {
            self.fault_rng.as_mut()
        } else {
            self.drop_rng.as_mut()
        };
        // The constructors always pair a lossy model with its RNG; a model
        // that somehow lost it cannot drop anything (deliver everything).
        match rng {
            Some(rng) => rng.gen_bool(p.clamp(0.0, 1.0)),
            None => false,
        }
    }

    /// Decides the fate of one `from → to` send at `round`, updating the
    /// loss counters; returns `true` when the message is delivered.
    fn delivered(&mut self, from: NodeId, to: NodeId, round: usize) -> bool {
        if self.crashed[to.index()] {
            self.stats.dropped += 1;
            return false;
        }
        let mut override_p = None;
        if let Some(plan) = &self.faults {
            if plan.partition_blocks(from, to, round) {
                self.stats.dropped += 1;
                self.stats.partitioned += 1;
                return false;
            }
            if plan.link_down(from, to, round) {
                self.stats.dropped += 1;
                self.stats.flapped += 1;
                return false;
            }
            override_p = plan.loss_override(from, to);
        }
        let dropped = match override_p {
            // A per-link override replaces the global model for this link.
            Some(p) => self.draw_loss(p, true),
            None => self.drops(),
        };
        if dropped {
            self.stats.dropped += 1;
        }
        !dropped
    }

    /// Applies every crash scheduled at or before `round`: the node stops
    /// acting and its undelivered inbox is discarded.
    fn apply_crashes<M>(
        &mut self,
        round: usize,
        inboxes: &mut [Vec<Envelope<M>>],
        in_flight: &mut usize,
    ) {
        let Some(plan) = &self.faults else { return };
        let due: Vec<NodeId> = self
            .node_ids
            .iter()
            .copied()
            .filter(|&v| !self.crashed_once[v.index()])
            .filter(|&v| plan.crash_round(v).is_some_and(|r| r <= round))
            .collect();
        for v in due {
            self.crashed[v.index()] = true;
            self.crashed_once[v.index()] = true;
            self.crashed_ids.push(v);
            self.stats.crashed += 1;
            let lost = inboxes[v.index()].len();
            inboxes[v.index()].clear();
            *in_flight -= lost;
            self.stats.dropped += lost;
        }
    }

    /// Applies every recovery scheduled at or before `round`: the node
    /// resumes acting from its pre-crash protocol state. Its inbox starts
    /// empty — everything sent to it while down was dropped at send time.
    /// Recoveries run after crashes each round, so a same-round crash +
    /// recovery is an instant reboot (state kept, inbox lost).
    fn apply_recoveries(&mut self, round: usize) {
        let Some(plan) = &self.faults else { return };
        let due: Vec<NodeId> = self
            .node_ids
            .iter()
            .copied()
            .filter(|&v| self.crashed[v.index()])
            .filter(|&v| plan.recover_round(v).is_some_and(|r| r <= round))
            .collect();
        for v in due {
            self.crashed[v.index()] = false;
            self.recovered_ids.push(v);
            self.stats.recovered += 1;
        }
    }

    /// Is some currently-crashed node scheduled to recover after `round`?
    /// The run must idle until then rather than declare quiescence.
    fn pending_recovery(&self, round: usize) -> bool {
        let Some(plan) = &self.faults else {
            return false;
        };
        plan.recoveries()
            .any(|(v, r)| r > round && self.crashed[v.index()])
    }

    /// Runs the protocol to quiescence.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimitExceeded`] if the protocol has not
    /// converged after `max_rounds` rounds.
    pub fn run(&mut self, max_rounds: usize) -> Result<RunStats, SimError> {
        let bound = self.view.node_bound();
        let mut inboxes: Vec<Vec<Envelope<P::Message>>> = (0..bound).map(|_| Vec::new()).collect();
        let mut in_flight = 0usize;

        // Round-0 crashes take effect before anyone acts.
        self.apply_crashes(0, &mut inboxes, &mut in_flight);
        self.apply_recoveries(0);

        // Start activations.
        for i in 0..self.node_ids.len() {
            let v = self.node_ids[i];
            if self.crashed[v.index()] {
                continue;
            }
            let mut ctx = Context {
                node: v,
                round: 0,
                neighbors: &self.neighbor_cache[v.index()],
                outbox: Vec::new(),
            };
            let Some(state) = self.states[v.index()].as_mut() else {
                continue;
            };
            state.on_start(&mut ctx);
            for (to, payload) in ctx.outbox {
                self.stats.messages += 1;
                self.stats.bytes += P::payload_size(&payload);
                if self.delivered(v, to, 0) {
                    inboxes[to.index()].push(Envelope { from: v, payload });
                    in_flight += 1;
                }
            }
        }

        for round in 1..=max_rounds {
            self.apply_crashes(round, &mut inboxes, &mut in_flight);
            self.apply_recoveries(round);
            let all_quiet = self
                .node_ids
                .iter()
                .filter(|v| !self.crashed[v.index()])
                .all(|v| {
                    self.states[v.index()]
                        .as_ref()
                        .is_none_or(Protocol::is_quiescent)
                });
            if in_flight == 0 && all_quiet && !self.pending_recovery(round) {
                return Ok(self.stats);
            }
            self.stats.rounds = round;
            let mut next: Vec<Vec<Envelope<P::Message>>> = (0..bound).map(|_| Vec::new()).collect();
            in_flight = 0;
            for i in 0..self.node_ids.len() {
                let v = self.node_ids[i];
                if self.crashed[v.index()] {
                    continue;
                }
                let inbox = std::mem::take(&mut inboxes[v.index()]);
                let mut ctx = Context {
                    node: v,
                    round,
                    neighbors: &self.neighbor_cache[v.index()],
                    outbox: Vec::new(),
                };
                let Some(state) = self.states[v.index()].as_mut() else {
                    continue;
                };
                state.on_round(&mut ctx, &inbox);
                for (to, payload) in ctx.outbox {
                    self.stats.messages += 1;
                    self.stats.bytes += P::payload_size(&payload);
                    if self.delivered(v, to, round) {
                        next[to.index()].push(Envelope { from: v, payload });
                        in_flight += 1;
                    }
                }
            }
            inboxes = next;
        }

        // One final check: the limit round may have reached quiescence.
        let all_quiet = self
            .node_ids
            .iter()
            .filter(|v| !self.crashed[v.index()])
            .all(|v| {
                self.states[v.index()]
                    .as_ref()
                    .is_none_or(Protocol::is_quiescent)
            });
        if in_flight == 0 && all_quiet && !self.pending_recovery(max_rounds) {
            Ok(self.stats)
        } else {
            Err(SimError::RoundLimitExceeded { limit: max_rounds })
        }
    }

    /// The protocol states of the active nodes, in node-id order.
    pub fn states(&self) -> Vec<&P> {
        self.node_ids
            .iter()
            .filter_map(|v| self.states[v.index()].as_ref())
            .collect()
    }

    /// The protocol state of node `v`, if it is active.
    pub fn state(&self, v: NodeId) -> Option<&P> {
        self.states.get(v.index()).and_then(Option::as_ref)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The active node ids, in increasing order.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.node_ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confine_graph::{generators, Masked};

    /// Every node floods its id; all nodes eventually know all ids in their
    /// component.
    struct Gossip {
        known: std::collections::BTreeSet<u32>,
    }

    impl Protocol for Gossip {
        type Message = Vec<u32>;

        fn on_start(&mut self, ctx: &mut Context<'_, Vec<u32>>) {
            self.known.insert(ctx.node().0);
            ctx.broadcast(self.known.iter().copied().collect());
        }

        fn on_round(&mut self, ctx: &mut Context<'_, Vec<u32>>, inbox: &[Envelope<Vec<u32>>]) {
            let before = self.known.len();
            for env in inbox {
                self.known.extend(env.payload.iter().copied());
            }
            if self.known.len() > before {
                ctx.broadcast(self.known.iter().copied().collect());
            }
        }

        fn is_quiescent(&self) -> bool {
            true
        }

        fn payload_size(msg: &Vec<u32>) -> usize {
            4 * msg.len()
        }
    }

    #[test]
    fn gossip_converges_on_cycle() {
        let g = generators::cycle_graph(8);
        let mut engine = Engine::new(&g, |_| Gossip {
            known: std::collections::BTreeSet::new(),
        });
        let stats = engine.run(32).unwrap();
        for s in engine.states() {
            assert_eq!(s.known.len(), 8);
        }
        // Information travels at one hop per round: diameter 4 ⇒ ≥ 4 rounds.
        assert!(stats.rounds >= 4);
        assert!(stats.messages > 0);
        assert!(stats.bytes >= stats.messages * 4);
    }

    #[test]
    fn gossip_respects_mask() {
        let g = generators::cycle_graph(8);
        let mut m = Masked::all_active(&g);
        m.deactivate(NodeId(0));
        m.deactivate(NodeId(4));
        let mut engine = Engine::new(&m, |_| Gossip {
            known: std::collections::BTreeSet::new(),
        });
        engine.run(32).unwrap();
        // Two arcs of 3 nodes each.
        for v in [1u32, 2, 3] {
            let s = engine.state(NodeId(v)).unwrap();
            assert_eq!(
                s.known.iter().copied().collect::<Vec<_>>(),
                vec![1, 2, 3],
                "node {v} sees only its arc"
            );
        }
        assert!(
            engine.state(NodeId(0)).is_none(),
            "inactive nodes have no state"
        );
    }

    #[test]
    fn round_limit_is_reported() {
        // A protocol that never stops chattering.
        struct Chatter;
        impl Protocol for Chatter {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.broadcast(());
            }
            fn on_round(&mut self, ctx: &mut Context<'_, ()>, _inbox: &[Envelope<()>]) {
                ctx.broadcast(());
            }
            fn is_quiescent(&self) -> bool {
                false
            }
        }
        let g = generators::path_graph(3);
        let mut engine = Engine::new(&g, |_| Chatter);
        assert_eq!(
            engine.run(5),
            Err(SimError::RoundLimitExceeded { limit: 5 })
        );
        assert_eq!(engine.stats().rounds, 5);
    }

    #[test]
    #[should_panic(expected = "non-neighbour")]
    fn sending_to_non_neighbor_panics() {
        struct Rogue;
        impl Protocol for Rogue {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.send(NodeId(2), ());
            }
            fn on_round(&mut self, _: &mut Context<'_, ()>, _: &[Envelope<()>]) {}
            fn is_quiescent(&self) -> bool {
                true
            }
        }
        let g = generators::path_graph(3); // 0-1-2: node 0 may not reach 2
        let mut engine = Engine::new(&g, |_| Rogue);
        let _ = engine.run(2);
    }

    #[test]
    fn silent_protocol_terminates_immediately() {
        struct Silent;
        impl Protocol for Silent {
            type Message = ();
            fn on_start(&mut self, _: &mut Context<'_, ()>) {}
            fn on_round(&mut self, _: &mut Context<'_, ()>, _: &[Envelope<()>]) {}
            fn is_quiescent(&self) -> bool {
                true
            }
        }
        let g = generators::path_graph(4);
        let mut engine = Engine::new(&g, |_| Silent);
        let stats = engine.run(10).unwrap();
        assert_eq!(stats, RunStats::default());
    }
}
