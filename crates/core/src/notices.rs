//! Deletion notices: per-node `k`-hop views kept fresh without
//! re-discovery.
//!
//! A protocol that deletes nodes round after round needs every candidate's
//! punctured `k`-ball `Γ^k(v)` in every round. Re-flooding every adjacency
//! list `k` hops per round provides it at the full discovery cost each
//! time. The drivers that share this module instead:
//!
//! 1. run **one** [`KHopDiscovery`] and keep each node's records as a
//!    [`LocalView`];
//! 2. after each election, have every winner flood a tiny deletion notice
//!    `k` hops over the *pre-deletion* topology as its last act
//!    ([`flood_deletions`]);
//! 3. have every receiver drop the deleted nodes from its view and re-run a
//!    bounded BFS over its cached adjacency lists.
//!
//! Step 3 is exact: deletions only lengthen distances, so every path of
//! length ≤ `k` from `v` after the deletion already lay inside `v`'s
//! `k`-ball before it, and the cached records hold all of them. A notice
//! reaches exactly the nodes whose `k`-ball contained the deleted node,
//! which are exactly the views that change. Under reliable links and a
//! fault plan that holds unchanged through every phase (round-0 crashes,
//! open-ended partitions), a maintained view therefore equals what a fresh
//! discovery of the current overlay would return.
//!
//! Each view also keeps its VPT verdict ([`LocalView::verdict`]). The
//! verdict reads only the punctured ball (Definition 5), so it stays valid
//! until a notice changes the view, and [`view_verdicts`] sends the engine
//! only the views that lost theirs.
//!
//! Used by the prune loop of [`crate::repair`], which the incremental DCC-D
//! driver ([`crate::incremental`]) runs over the whole network.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use confine_graph::{Graph, GraphView, Masked, NodeId};
use confine_netsim::faults::FaultPlan;
use confine_netsim::protocols::KHopDiscovery;
use confine_netsim::{Context, Engine, Envelope, Protocol, RunStats, SimError};

use crate::vpt_engine::{EvalJob, VptEngine};

/// A node's cached `k`-hop neighbourhood: member → adjacency list, as
/// learned by discovery, minus the deletions heard since. Ordered so every
/// iteration over the view is in node-id order — the punctured graphs it
/// materialises are bitwise identical to the ones a fresh discovery
/// yields, so replays and verdicts match the re-discovering protocol.
#[derive(Debug)]
pub(crate) struct LocalView {
    adj: BTreeMap<NodeId, Arc<[NodeId]>>,
    /// The VPT verdict of the view's punctured graph, once evaluated. It
    /// is kept until [`LocalView::apply_deletions`] changes the view.
    verdict: Option<bool>,
}

impl LocalView {
    /// The view a finished discovery run left at one node. The adjacency
    /// lists are shared with the discovery records, not copied.
    pub(crate) fn from_discovery(state: &KHopDiscovery) -> Self {
        LocalView {
            adj: state
                .neighborhood()
                .iter()
                .map(|(&u, (_, adj))| (u, Arc::clone(adj)))
                .collect(),
            verdict: None,
        }
    }

    /// Removes the `deleted` nodes and evicts members that fell out of the
    /// `k`-hop ball, by a bounded BFS over the cached lists starting at the
    /// centre's `own_neighbors` (the radio knows them without messages).
    ///
    /// A view that contains none of `deleted` is left untouched, verdict
    /// included: its ball cannot have changed. Any other view loses its
    /// verdict.
    pub(crate) fn apply_deletions<I>(
        &mut self,
        own_neighbors: I,
        deleted: &BTreeSet<NodeId>,
        k: u32,
    ) where
        I: IntoIterator<Item = NodeId>,
    {
        let before = self.adj.len();
        for x in deleted {
            self.adj.remove(x);
        }
        if self.adj.len() == before {
            return;
        }
        self.verdict = None;
        let mut reached = BTreeSet::new();
        let mut queue = VecDeque::new();
        for w in own_neighbors {
            if self.adj.contains_key(&w) && reached.insert(w) {
                queue.push_back((w, 1));
            }
        }
        while let Some((u, d)) = queue.pop_front() {
            if d >= k {
                continue;
            }
            let Some(list) = self.adj.get(&u) else {
                continue;
            };
            for &w in list.iter() {
                // The centre never stores its own record, so it is never
                // re-entered.
                if self.adj.contains_key(&w) && reached.insert(w) {
                    queue.push_back((w, d + 1));
                }
            }
        }
        self.adj.retain(|origin, _| reached.contains(origin));
    }

    /// Materialises the punctured neighbourhood graph (members only, the
    /// centre excluded, node ids in member order) — edge for edge the graph
    /// [`KHopDiscovery::punctured_graph`] builds from the same records.
    pub(crate) fn punctured_graph(&self) -> Graph {
        // BTreeMap keys iterate in ascending order: members come out sorted.
        let members: Vec<NodeId> = self.adj.keys().copied().collect();
        let mut g = Graph::with_node_capacity(members.len());
        g.add_nodes(members.len());
        for (i, list) in self.adj.values().enumerate() {
            for w in list.iter() {
                if let Ok(j) = members.binary_search(w) {
                    if i < j {
                        g.add_edge(NodeId::from(i), NodeId::from(j))
                            // lint: panic-ok(members are distinct and i < j visits each pair once, so the insert cannot collide)
                            .expect("pair once");
                    }
                }
            }
        }
        g
    }
}

/// Which of `nodes` are VPT-deletable, judged from their views (indexed by
/// node, as `views` is). A view that kept its verdict is not evaluated
/// again; the others are evaluated on `vpt` in one fan-out and keep the
/// result. Nodes without a view are never deletable: they stay awake.
pub(crate) fn view_verdicts<I>(
    nodes: I,
    views: &mut [Option<LocalView>],
    vpt: &mut VptEngine,
) -> Vec<bool>
where
    I: IntoIterator<Item = NodeId>,
{
    let mut deletable = vec![false; views.len()];
    let mut jobs = Vec::new();
    for v in nodes {
        let Some(view) = views[v.index()].as_ref() else {
            continue;
        };
        match view.verdict {
            Some(ok) => {
                #[cfg(feature = "strict-invariants")]
                assert_eq!(
                    ok,
                    crate::vpt::vpt_graph_ok(&view.punctured_graph(), vpt.tau()),
                    "strict-invariants: node {v:?}'s kept verdict diverges from a fresh evaluation of its view"
                );
                deletable[v.index()] = ok;
            }
            None => jobs.push(EvalJob {
                node: v,
                graph: view.punctured_graph(),
            }),
        }
    }
    let verdicts = vpt.evaluate_jobs(&jobs);
    for (job, ok) in jobs.iter().zip(verdicts) {
        deletable[job.node.index()] = ok;
        if let Some(view) = views[job.node.index()].as_mut() {
            view.verdict = Some(ok);
        }
    }
    deletable
}

/// `strict-invariants` audit of maintained views: the view of each of
/// `nodes` that keeps one must hold exactly the punctured `k`-ball of the
/// live overlay — `overlay` without the nodes `ambient` crashes and without
/// the links its partitions cut — with every overlay link among its
/// members. Runs only under a plan that holds through every phase, where
/// that ball is exactly what a fresh discovery learns.
#[cfg(feature = "strict-invariants")]
pub(crate) fn audit_views<I>(
    overlay: &Masked<'_>,
    ambient: &FaultPlan,
    k: u32,
    nodes: I,
    views: &[Option<LocalView>],
) where
    I: IntoIterator<Item = NodeId>,
{
    if !ambient.is_steady() {
        return;
    }
    let live = |v: NodeId| ambient.crash_round(v).is_none();
    for v in nodes {
        let Some(view) = views[v.index()].as_ref() else {
            continue;
        };
        let mut ball = BTreeSet::new();
        if live(v) {
            let mut frontier = vec![v];
            for _ in 0..k {
                let mut next = Vec::new();
                for &u in &frontier {
                    for w in overlay.view_neighbors(u) {
                        if w != v && live(w) && !ambient.partition_blocks(u, w, 0) && ball.insert(w)
                        {
                            next.push(w);
                        }
                    }
                }
                frontier = next;
            }
        }
        let members: Vec<NodeId> = ball.into_iter().collect();
        assert!(
            view.adj.keys().eq(members.iter()),
            "strict-invariants: node {v:?}'s maintained view is not its live punctured k-ball"
        );
        let edges = members
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                members[i + 1..]
                    .iter()
                    .filter(|b| overlay.neighbor_slice(a).binary_search(b).is_ok())
                    .count()
            })
            .sum::<usize>();
        assert_eq!(
            view.punctured_graph().edge_count(),
            edges,
            "strict-invariants: node {v:?}'s maintained view lost or kept a stale link"
        );
    }
}

/// Tiny deletion notice flooded `k` hops by a node switching off.
#[derive(Debug, Clone, Copy)]
struct Notice {
    origin: NodeId,
    ttl: u32,
}

/// Per-node state of the notice-flood phase.
struct NoticeFlood {
    is_deleted: bool,
    k: u32,
    /// Origins of the notices this node received, in id order.
    heard: BTreeSet<NodeId>,
}

impl Protocol for NoticeFlood {
    type Message = Notice;

    fn on_start(&mut self, ctx: &mut Context<'_, Notice>) {
        if self.is_deleted {
            ctx.broadcast(Notice {
                origin: ctx.node(),
                ttl: self.k - 1,
            });
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Notice>, inbox: &[Envelope<Notice>]) {
        for env in inbox {
            let n = env.payload;
            if n.origin == ctx.node() || !self.heard.insert(n.origin) {
                continue;
            }
            if n.ttl > 0 {
                ctx.broadcast(Notice {
                    origin: n.origin,
                    ttl: n.ttl - 1,
                });
            }
        }
    }

    fn is_quiescent(&self) -> bool {
        true
    }

    fn payload_size(_msg: &Notice) -> usize {
        8
    }
}

/// Floods one deletion notice per winner `k` hops over `overlay`, on which
/// the winners are still active (the notices are their last
/// transmissions), then folds every heard deletion into the receivers'
/// views and drops the winners' own views. The caller deactivates the
/// winners afterwards. Returns the flood's traffic.
///
/// `views` is indexed by node; `None` marks nodes that keep no view.
/// `faults` is applied to the flood as to any other phase.
///
/// # Errors
///
/// [`SimError::RoundLimitExceeded`] if the flood does not settle within
/// `max_rounds` rounds.
pub(crate) fn flood_deletions(
    overlay: &Masked<'_>,
    winners: &[NodeId],
    k: u32,
    faults: Option<FaultPlan>,
    max_rounds: usize,
    views: &mut [Option<LocalView>],
) -> Result<RunStats, SimError> {
    let mut is_winner = vec![false; overlay.node_bound()];
    for &w in winners {
        is_winner[w.index()] = true;
    }
    let mut flood = Engine::new(overlay, |v| NoticeFlood {
        is_deleted: is_winner[v.index()],
        k,
        heard: BTreeSet::new(),
    });
    if let Some(plan) = faults {
        flood = flood.with_faults(plan);
    }
    let stats = flood.run(max_rounds)?;
    for v in overlay.active_nodes() {
        let Some(view) = views[v.index()].as_mut() else {
            continue;
        };
        if is_winner[v.index()] {
            views[v.index()] = None;
            continue;
        }
        let Some(state) = flood.state(v) else {
            continue;
        };
        view.apply_deletions(overlay.view_neighbors(v), &state.heard, k);
    }
    Ok(stats)
}
