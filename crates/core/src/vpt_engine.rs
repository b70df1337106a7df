//! Parallel evaluation engine for the void preserving transformation.
//!
//! Every DCC round asks the same question for many nodes: *is the punctured
//! `⌈τ/2⌉`-hop neighbourhood graph of `v` connected with all irreducible
//! cycles ≤ τ?* (Definition 5). The test is **local** — its answer depends
//! only on the k-hop ball of `v` — which makes it both embarrassingly
//! parallel within a round and valid until that ball changes:
//!
//! * **fan-out** — candidate evaluations share no mutable state, so the
//!   engine spreads them over worker threads (`std::thread::scope`; no
//!   dependency footprint), each worker owning one [`VptScratch`] so the
//!   GF(2) eliminations run allocation-free;
//! * **round-valid verdict cache** — a deletion can only change the verdict
//!   of nodes within `k = ⌈τ/2⌉` hops of the deleted node (distances never
//!   shrink under deletion), so the engine keeps per-node verdicts and
//!   invalidates exactly the `k`-hop ball of each membership change (see
//!   [`VptEngine::note_deletion`] for why `k` is exact).
//!
//! The round cache is the engine's only cache. The protocol schedulers
//! that keep views (incremental DCC-D and the repair prune loop) keep each
//! view's verdict on the view itself until a deletion notice changes it,
//! and hand the engine only the views that lost theirs. Verdicts are pure
//! functions of the punctured subgraph, so the cache cannot change *what*
//! the schedulers decide — only how fast. The centralized, incremental and
//! repair paths all route their deletability loops through one engine
//! instead of three ad-hoc loops.

use confine_graph::{Graph, GraphView, NodeId};

use crate::vpt::{neighborhood_radius, vpt_graph_ok_with, VptScratch};

/// Configuration of a [`VptEngine`].
///
/// Every scheduler front-end — [`crate::dcc::Dcc::builder`], the chaos and
/// churn runners, and the CLI's `--threads` flag — consumes this one type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for candidate fan-out; `0` (the default) resolves to
    /// the machine's available parallelism.
    pub threads: usize,
}

/// Counters describing what a [`VptEngine`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Full VPT evaluations actually executed (ball extraction + kernel).
    pub evaluations: usize,
    /// Queries answered by the round-valid verdict cache.
    pub round_hits: usize,
    /// Always 0: the engine keeps no per-node memo behind the round cache.
    /// The field stays only so that existing readers of the counters build.
    pub memo_hits: usize,
    /// Round-verdict invalidations triggered by membership changes.
    pub invalidations: usize,
}

/// One deletability query whose punctured subgraph was materialised by the
/// caller (typically from a discovery protocol's records).
#[derive(Debug, Clone)]
pub struct EvalJob {
    /// The node whose deletability is being tested.
    pub node: NodeId,
    /// The punctured neighbourhood graph of `node`.
    pub graph: Graph,
}

/// The shared evaluation engine behind `schedule`, `incremental` and
/// `repair`.
///
/// Construct one per (τ, topology) run, or keep it alive across runs to
/// reuse its worker arenas.
///
/// # Example
///
/// ```
/// use confine_core::vpt_engine::{EngineConfig, VptEngine};
/// use confine_graph::{generators, Masked, NodeId};
///
/// let g = generators::king_grid_graph(5, 5);
/// let masked = Masked::all_active(&g);
/// let mut engine = VptEngine::new(4, EngineConfig::default());
/// engine.begin_run(g.node_count());
/// let eligible: Vec<NodeId> = g.nodes().collect();
/// let deletable = engine.deletable_candidates(&masked, &eligible);
/// assert!(deletable.contains(&NodeId(12)), "interior nodes are redundant");
/// ```
#[derive(Debug, Clone)]
pub struct VptEngine {
    tau: usize,
    k: u32,
    /// Round-valid verdicts, invalidated by k-hop balls of membership
    /// changes.
    verdicts: Vec<Option<bool>>,
    /// One arena per worker thread — ball BFS, induced-CSR and GF(2) buffers
    /// all survive across calls, runs and epochs.
    scratches: Vec<VptScratch>,
    stats: EngineStats,
}

impl VptEngine {
    /// Creates an engine for confine size `tau`.
    pub fn new(tau: usize, config: EngineConfig) -> Self {
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.threads
        };
        VptEngine {
            tau,
            k: neighborhood_radius(tau),
            verdicts: Vec::new(),
            scratches: (0..threads).map(|_| VptScratch::default()).collect(),
            stats: EngineStats::default(),
        }
    }

    /// The confine size `τ` the engine evaluates for.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// The resolved worker thread count.
    pub fn threads(&self) -> usize {
        self.scratches.len()
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Prepares the engine for a scheduling run over `node_bound` node slots
    /// by clearing the round-valid verdicts (the active set is about to
    /// change wholesale).
    pub fn begin_run(&mut self, node_bound: usize) {
        self.verdicts.clear();
        self.verdicts.resize(node_bound, None);
    }

    /// Filters `eligible` (active internal nodes, in the caller's order) down
    /// to the VPT-deletable candidates, preserving order.
    ///
    /// Cache misses are fanned out over the engine's worker threads; results
    /// are identical to calling [`crate::vpt::is_vertex_deletable`] fresh on
    /// every node.
    pub fn deletable_candidates<V: GraphView + Sync>(
        &mut self,
        view: &V,
        eligible: &[NodeId],
    ) -> Vec<NodeId> {
        let mut verdict_of: Vec<Option<bool>> =
            eligible.iter().map(|v| self.verdicts[v.index()]).collect();
        let misses: Vec<(usize, NodeId)> = eligible
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, _)| verdict_of[i].is_none())
            .collect();
        self.stats.round_hits += eligible.len() - misses.len();

        let (tau, k) = (self.tau, self.k);
        let outcomes = run_jobs(&misses, &mut self.scratches, |&(_, v), scratch| {
            // Ball extraction and the induced build run entirely inside the
            // worker's arena; no per-candidate allocation after warm-up.
            scratch.hood.punctured(view, v, k);
            crate::vpt::scratch_csr_ok(scratch, tau)
        });
        self.stats.evaluations += misses.len();
        for (&(i, v), &verdict) in misses.iter().zip(&outcomes) {
            self.verdicts[v.index()] = Some(verdict);
            verdict_of[i] = Some(verdict);
        }

        #[cfg(feature = "strict-invariants")]
        {
            // Cache-coherence audit: every eighth eligible node is
            // re-evaluated from scratch on the live view; a divergence means
            // a stale round verdict leaked a wrong answer through the cache.
            for (i, &v) in eligible.iter().enumerate().step_by(8) {
                let fresh = crate::vpt::is_vertex_deletable(view, v, self.tau);
                assert_eq!(
                    verdict_of[i],
                    Some(fresh),
                    "strict-invariants: cached verdict for node {v:?} diverges from fresh evaluation"
                );
            }
        }

        eligible
            .iter()
            .zip(&verdict_of)
            // lint: panic-ok(the hit/miss split above fills a verdict for every eligible index)
            .filter(|&(_, r)| r.expect("every eligible node was resolved"))
            .map(|(&v, _)| v)
            .collect()
    }

    /// Evaluates caller-materialised punctured subgraphs, fanning them out
    /// over the worker threads. Returns one verdict per job, in job order.
    ///
    /// This is the path the protocol-driven schedulers (incremental, repair,
    /// distributed) use: their discovery state already holds each node's
    /// punctured graph, and the ones that keep views also keep the verdicts,
    /// so every job here is evaluated afresh.
    pub fn evaluate_jobs(&mut self, jobs: &[EvalJob]) -> Vec<bool> {
        let tau = self.tau;
        let verdicts = run_jobs(jobs, &mut self.scratches, |job, scratch| {
            vpt_graph_ok_with(&job.graph, tau, scratch)
        });
        self.stats.evaluations += jobs.len();
        verdicts
    }

    /// Records that `v` is about to be deactivated on `view` (call **before**
    /// the deactivation): round verdicts of every node within `k` hops of
    /// `v` are invalidated.
    ///
    /// Radius `k` is exact, not conservative: `u`'s verdict reads only the
    /// induced subgraph on `N_k(u) \ {u}`, and every intermediate vertex of
    /// a `≤ k`-hop path from `u` lies strictly inside `u`'s `k`-ball — so a
    /// deletion at distance `k + 1` can change neither the ball membership
    /// nor its induced edges. The ball is computed on the pre-deletion view
    /// (distances only grow afterwards), hence it covers every affected
    /// node.
    pub fn note_deletion<V: GraphView>(&mut self, view: &V, v: NodeId) {
        // The ball BFS reuses worker 0's arena — invalidation runs between
        // fan-outs, when every scratch is idle.
        let ball = self.scratches[0].hood.ball_members(view, v, self.k);
        for &w in ball {
            if self.verdicts[w.index()].take().is_some() {
                self.stats.invalidations += 1;
            }
        }
        if v.index() < self.verdicts.len() && self.verdicts[v.index()].take().is_some() {
            self.stats.invalidations += 1;
        }
    }
}

/// Maps `jobs` through `f`, preserving order, spreading contiguous chunks
/// over scoped worker threads — one persistent [`VptScratch`] per worker, so
/// arenas warmed by earlier calls keep paying off. With one scratch (or few
/// jobs) everything runs inline on worker 0.
fn run_jobs<J, O, F>(jobs: &[J], scratches: &mut [VptScratch], f: F) -> Vec<O>
where
    J: Sync,
    O: Send,
    F: Fn(&J, &mut VptScratch) -> O + Sync,
{
    let threads = scratches.len().clamp(1, jobs.len().max(1));
    if threads == 1 {
        let scratch = &mut scratches[0];
        return jobs.iter().map(|j| f(j, scratch)).collect();
    }
    let chunk = jobs.len().div_ceil(threads);
    let mut out: Vec<Option<O>> = (0..jobs.len()).map(|_| None).collect();
    let f = &f;
    std::thread::scope(|s| {
        for ((js, os), scratch) in jobs
            .chunks(chunk)
            .zip(out.chunks_mut(chunk))
            .zip(scratches.iter_mut())
        {
            s.spawn(move || {
                for (j, o) in js.iter().zip(os.iter_mut()) {
                    *o = Some(f(j, scratch));
                }
            });
        }
    });
    out.into_iter()
        // lint: panic-ok(the scoped threads wrote every chunk slot before the scope joined)
        .map(|o| o.expect("every chunk was processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vpt::{induced_from_view, is_vertex_deletable};
    use confine_graph::{generators, traverse, Masked};

    fn fresh_candidates(masked: &Masked<'_>, eligible: &[NodeId], tau: usize) -> Vec<NodeId> {
        eligible
            .iter()
            .copied()
            .filter(|&v| is_vertex_deletable(masked, v, tau))
            .collect()
    }

    #[test]
    fn engine_matches_fresh_evaluation_across_deletions() {
        let g = generators::king_grid_graph(6, 6);
        let mut masked = Masked::all_active(&g);
        let mut engine = VptEngine::new(4, EngineConfig::default());
        engine.begin_run(g.node_count());
        // Delete a few nodes one at a time, checking the candidate set
        // against fresh evaluation at every step.
        for _ in 0..6 {
            let eligible: Vec<NodeId> = masked.active_nodes().collect();
            let got = engine.deletable_candidates(&masked, &eligible);
            let want = fresh_candidates(&masked, &eligible, 4);
            assert_eq!(got, want);
            let Some(&v) = got.first() else { break };
            engine.note_deletion(&masked, v);
            masked.deactivate(v);
        }
        let s = engine.stats();
        assert!(s.round_hits > 0, "later rounds must hit the verdict cache");
        assert!(s.invalidations > 0);
    }

    #[test]
    fn multithreaded_fanout_matches_inline() {
        let g = generators::king_grid_graph(7, 7);
        let masked = Masked::all_active(&g);
        let eligible: Vec<NodeId> = g.nodes().collect();
        let mut inline = VptEngine::new(4, EngineConfig { threads: 1 });
        let mut fanned = VptEngine::new(4, EngineConfig { threads: 4 });
        inline.begin_run(g.node_count());
        fanned.begin_run(g.node_count());
        assert_eq!(
            inline.deletable_candidates(&masked, &eligible),
            fanned.deletable_candidates(&masked, &eligible),
        );
    }

    #[test]
    fn evaluate_jobs_matches_fresh_evaluation() {
        let g = generators::wheel_graph(6);
        let jobs: Vec<EvalJob> = g
            .nodes()
            .map(|v| {
                let ball = traverse::k_hop_neighbors(&g, v, neighborhood_radius(6));
                let (graph, _) = induced_from_view(&g, &ball);
                EvalJob { node: v, graph }
            })
            .collect();
        let mut engine = VptEngine::new(6, EngineConfig::default());
        let verdicts = engine.evaluate_jobs(&jobs);
        assert_eq!(verdicts.len(), jobs.len());
        assert_eq!(engine.stats().evaluations, jobs.len());
        // Hub deletable at τ = 6; rim nodes' punctured balls lose the rim
        // cycle closure — verdicts must match fresh evaluation regardless.
        for (job, &verdict) in jobs.iter().zip(&verdicts) {
            assert_eq!(verdict, is_vertex_deletable(&g, job.node, 6));
        }
    }
}
