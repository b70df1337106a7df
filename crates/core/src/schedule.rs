//! The DCC coverage scheduler (Sec. V-B of the paper) — centralized
//! reference implementation.
//!
//! Starting from the full connectivity graph, the scheduler performs a
//! *maximal vertex deletion* by the void preserving transformation: in each
//! round, every active internal node tests local deletability
//! ([`crate::vpt::is_vertex_deletable`]); an `m`-hop maximal independent set
//! of the candidates (random priorities) is deleted simultaneously; rounds
//! repeat until no node can be deleted. Boundary nodes never participate.
//!
//! Two deletion disciplines are provided:
//!
//! * [`DeletionOrder::MisParallel`] — the paper's round structure (safe
//!   parallel deletions at independence radius `m = ⌈τ/2⌉ + 1`);
//! * [`DeletionOrder::Sequential`] — one random candidate at a time; slower
//!   but a useful ablation of the ordering effect on the final set size.
//!
//! The result is non-redundant with respect to the transformation: no
//! remaining internal node passes the deletability test (Theorem 6 gives
//! conditions under which this implies set-theoretic non-redundancy).

use confine_graph::{mis, Graph, GraphView, Masked, NodeId};
use confine_netsim::SimError;
use rand::Rng;

use crate::vpt::{independence_radius, is_vertex_deletable_with, VptScratch};
use crate::vpt_engine::VptEngine;

/// How deletions are ordered within the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeletionOrder {
    /// The paper's discipline: per round, delete an m-hop maximal
    /// independent set of candidates simultaneously.
    #[default]
    MisParallel,
    /// Delete one uniformly random candidate at a time.
    Sequential,
}

/// Outcome of a scheduling run.
#[derive(Debug, Clone)]
pub struct CoverageSet {
    /// Nodes kept awake (boundary nodes plus the surviving internal nodes),
    /// sorted by id.
    pub active: Vec<NodeId>,
    /// Nodes switched off, in deletion order.
    pub deleted: Vec<NodeId>,
    /// Number of deletion rounds executed (parallel discipline) or number of
    /// single deletions (sequential discipline).
    pub rounds: usize,
}

impl CoverageSet {
    /// Number of active nodes.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Whether `v` stayed awake (binary search over the sorted active list).
    pub fn is_active(&self, v: NodeId) -> bool {
        self.active.binary_search(&v).is_ok()
    }

    /// Active *internal* nodes given the boundary flags the schedule ran
    /// with.
    pub fn active_internal(&self, boundary: &[bool]) -> Vec<NodeId> {
        self.active
            .iter()
            .copied()
            .filter(|v| !boundary[v.index()])
            .collect()
    }
}

/// Engine-backed schedule driver shared by the [`crate::dcc`] runners and
/// the lifetime-rotation machinery.
///
/// Candidate verdicts come from `engine` (round cache + thread fan-out);
/// candidate *sets* — and therefore the RNG consumption and the resulting
/// coverage set — are bit-identical to fresh per-candidate evaluation,
/// because verdicts are pure functions of the view.
pub(crate) fn run_schedule<R: Rng, F>(
    graph: &Graph,
    boundary: &[bool],
    excluded: &[NodeId],
    bias: F,
    order: DeletionOrder,
    engine: &mut VptEngine,
    rng: &mut R,
) -> Result<CoverageSet, SimError>
where
    F: Fn(NodeId) -> f64,
{
    if engine.tau() < crate::config::MIN_TAU {
        return Err(SimError::InvalidTau {
            tau: engine.tau(),
            min: crate::config::MIN_TAU,
        });
    }
    if boundary.len() != graph.node_count() {
        return Err(SimError::BoundaryMismatch {
            flags: boundary.len(),
            nodes: graph.node_count(),
        });
    }
    let m = independence_radius(engine.tau());
    engine.begin_run(graph.node_count());
    let mut masked = Masked::all_active(graph);
    for &v in excluded {
        masked.deactivate(v);
    }
    let mut deleted = Vec::new();
    let mut rounds = 0;
    loop {
        let eligible: Vec<NodeId> = masked
            .active_nodes()
            .filter(|&v| !boundary[v.index()])
            .collect();
        let candidates = engine.deletable_candidates(&masked, &eligible);
        if candidates.is_empty() {
            break;
        }
        rounds += 1;
        match order {
            DeletionOrder::MisParallel => {
                let mut priorities = vec![0.0f64; graph.node_count()];
                for &v in &candidates {
                    priorities[v.index()] = bias(v) + rng.gen::<f64>() * 1e-6;
                }
                let winners = mis::m_hop_mis(&masked, &candidates, &priorities, m);
                if winners.is_empty() {
                    return Err(SimError::ElectionStalled { retries: 0 });
                }
                // Every winner is noted before any is deactivated: MIS
                // winners sit ≥ m hops apart, so each winner's k-ball is
                // the same before and after the round's other
                // deactivations, and this order equals the per-winner
                // interleaving bit for bit.
                for &v in &winners {
                    engine.note_deletion(&masked, v);
                }
                for v in winners {
                    masked.deactivate(v);
                    deleted.push(v);
                }
            }
            DeletionOrder::Sequential => {
                // None only on an empty set, and empty candidate sets
                // already broke out of the loop above.
                let Some(v) = least_priority(&candidates, |v| bias(v) + rng.gen::<f64>() * 1e-6)
                else {
                    break;
                };
                engine.note_deletion(&masked, v);
                masked.deactivate(v);
                deleted.push(v);
            }
        }
    }
    Ok(CoverageSet {
        active: masked.active_nodes().collect(),
        deleted,
        rounds,
    })
}

/// The seed scheduler's semantics with **no** caching and **no**
/// parallelism: every eligible node is re-evaluated by a fresh
/// [`crate::vpt::is_vertex_deletable`] call in every round.
///
/// This is the sequential-uncached baseline `bench_vpt` times the engine
/// against; because verdicts are pure, it returns exactly the coverage set
/// the engine-backed path produces for the same RNG.
pub fn reference_schedule<R: Rng>(
    graph: &Graph,
    boundary: &[bool],
    tau: usize,
    order: DeletionOrder,
    rng: &mut R,
) -> Result<CoverageSet, SimError> {
    if tau < crate::config::MIN_TAU {
        return Err(SimError::InvalidTau {
            tau,
            min: crate::config::MIN_TAU,
        });
    }
    if boundary.len() != graph.node_count() {
        return Err(SimError::BoundaryMismatch {
            flags: boundary.len(),
            nodes: graph.node_count(),
        });
    }
    let m = independence_radius(tau);
    let mut masked = Masked::all_active(graph);
    let mut deleted = Vec::new();
    let mut rounds = 0;
    // One scratch for the whole run: the baseline stays sequential and
    // uncached, but it need not re-allocate its arenas per candidate.
    let mut scratch = VptScratch::default();
    loop {
        let candidates: Vec<NodeId> = masked
            .active_nodes()
            .filter(|&v| !boundary[v.index()])
            .filter(|&v| is_vertex_deletable_with(&masked, v, tau, &mut scratch))
            .collect();
        if candidates.is_empty() {
            break;
        }
        rounds += 1;
        match order {
            DeletionOrder::MisParallel => {
                let mut priorities = vec![0.0f64; graph.node_count()];
                for &v in &candidates {
                    priorities[v.index()] = rng.gen::<f64>() * 1e-6;
                }
                let winners = mis::m_hop_mis(&masked, &candidates, &priorities, m);
                if winners.is_empty() {
                    return Err(SimError::ElectionStalled { retries: 0 });
                }
                for v in winners {
                    masked.deactivate(v);
                    deleted.push(v);
                }
            }
            DeletionOrder::Sequential => {
                // Same draws as the engine path with a zero bias — the
                // streams must stay aligned. None only on an empty set,
                // which already broke out above.
                let Some(v) = least_priority(&candidates, |_| rng.gen::<f64>() * 1e-6) else {
                    break;
                };
                masked.deactivate(v);
                deleted.push(v);
            }
        }
    }
    Ok(CoverageSet {
        active: masked.active_nodes().collect(),
        deleted,
        rounds,
    })
}

/// The candidate of least priority, drawing one `priority` per candidate in
/// order, as the MIS arm does: with random priorities a uniform pick.
fn least_priority(
    candidates: &[NodeId],
    mut priority: impl FnMut(NodeId) -> f64,
) -> Option<NodeId> {
    candidates
        .iter()
        .map(|&v| (priority(v), v))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, v)| v)
}

/// Checks the scheduler's fixpoint property: no active internal node passes
/// the deletability test any more.
pub fn is_vpt_fixpoint(graph: &Graph, active: &[NodeId], boundary: &[bool], tau: usize) -> bool {
    let masked = Masked::from_active(graph, active);
    let mut scratch = VptScratch::default();
    active
        .iter()
        .all(|&v| boundary[v.index()] || !is_vertex_deletable_with(&masked, v, tau, &mut scratch))
}

#[cfg(test)]
mod tests {
    // `reference_schedule` is the seed scheduler's semantics; these tests
    // pin its behaviour (and, by the purity argument in its docs, the
    // engine-backed path's too).
    use super::*;
    use confine_graph::{generators, traverse};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rim_boundary(n: usize, total: usize) -> Vec<bool> {
        // Nodes 1..=n are boundary (wheel layout).
        let mut b = vec![false; total];
        for slot in b.iter_mut().take(n + 1).skip(1) {
            *slot = true;
        }
        b
    }

    #[test]
    fn wheel_hub_deleted_only_when_tau_allows() {
        let g = generators::wheel_graph(8);
        let boundary = rim_boundary(8, 9);
        let mut rng = StdRng::seed_from_u64(3);
        for tau in 3..8 {
            let set = reference_schedule(&g, &boundary, tau, DeletionOrder::MisParallel, &mut rng)
                .unwrap();
            assert_eq!(set.active_count(), 9, "hub needed for tau {tau}");
            assert!(set.deleted.is_empty());
        }
        let set =
            reference_schedule(&g, &boundary, 8, DeletionOrder::MisParallel, &mut rng).unwrap();
        assert_eq!(set.deleted, vec![NodeId(0)]);
        assert_eq!(set.rounds, 1);
    }

    #[test]
    fn boundary_nodes_never_deleted() {
        let g = generators::king_grid_graph(6, 6);
        // Outer ring of the grid as boundary.
        let boundary: Vec<bool> = (0..36)
            .map(|i| {
                let (x, y) = (i % 6, i / 6);
                x == 0 || y == 0 || x == 5 || y == 5
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(7);
        let set =
            reference_schedule(&g, &boundary, 4, DeletionOrder::MisParallel, &mut rng).unwrap();
        for (i, &is_b) in boundary.iter().enumerate() {
            if is_b {
                assert!(
                    set.active.contains(&NodeId::from(i)),
                    "boundary node {i} must stay"
                );
            }
        }
        assert!(
            !set.deleted.is_empty(),
            "some interior nodes are redundant at tau 4"
        );
    }

    #[test]
    fn result_is_fixpoint_and_connected() {
        let g = generators::king_grid_graph(7, 7);
        let boundary: Vec<bool> = (0..49)
            .map(|i| {
                let (x, y) = (i % 7, i / 7);
                x == 0 || y == 0 || x == 6 || y == 6
            })
            .collect();
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let set =
                reference_schedule(&g, &boundary, 4, DeletionOrder::MisParallel, &mut rng).unwrap();
            assert!(
                is_vpt_fixpoint(&g, &set.active, &boundary, 4),
                "seed {seed}"
            );
            let masked = Masked::from_active(&g, &set.active);
            assert!(
                traverse::is_connected(&masked),
                "coverage set stays connected"
            );
        }
    }

    /// The `Sequential` order picks uniformly among the candidates: on a
    /// 5 × 5 king grid at τ = 4 all 9 internal nodes are first-round
    /// candidates, so over 2,000 seeds each is deleted first about 222
    /// times, through the runner and the reference alike.
    #[test]
    fn sequential_first_deletion_is_uniform() {
        let (w, tau) = (5, 4);
        let g = generators::king_grid_graph(w, w);
        let boundary: Vec<bool> = (0..w * w)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                x == 0 || y == 0 || x == w - 1 || y == w - 1
            })
            .collect();
        let mut runner = crate::dcc::Dcc::builder(tau)
            .order(DeletionOrder::Sequential)
            .centralized()
            .unwrap();
        let mut by_runner = vec![0usize; w * w];
        let mut by_reference = vec![0usize; w * w];
        for seed in 0..2000 {
            let set = runner
                .run(&g, &boundary, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            by_runner[set.deleted[0].index()] += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            let set = reference_schedule(&g, &boundary, tau, DeletionOrder::Sequential, &mut rng)
                .unwrap();
            by_reference[set.deleted[0].index()] += 1;
        }
        for v in (0..w * w).filter(|&v| !boundary[v]) {
            for (path, counts) in [("runner", &by_runner), ("reference", &by_reference)] {
                assert!(
                    (111..=333).contains(&counts[v]),
                    "{path}: node {v} deleted first {} times of 2000: {counts:?}",
                    counts[v]
                );
            }
        }
    }

    /// `bias` is added to every drawn priority and the least priority wins,
    /// which is how `RotationScheduler` keeps charged nodes awake. On a
    /// 5 × 5 king grid at τ = 4 over 200 seeds, an unbiased node 12 is
    /// deleted in 78 runs and before some other node in 66 of them; biased
    /// to 10.0 it is deleted in 49 runs and always last.
    #[test]
    fn bias_defers_the_favoured_node_to_the_last_deletion() {
        let (w, tau) = (5, 4);
        let g = generators::king_grid_graph(w, w);
        let boundary: Vec<bool> = (0..w * w)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                x == 0 || y == 0 || x == w - 1 || y == w - 1
            })
            .collect();
        let favoured = NodeId(12);
        let mut engine = VptEngine::new(tau, crate::vpt_engine::EngineConfig::default());
        let mut runs_deleting_it = 0;
        for seed in 0..200 {
            let set = run_schedule(
                &g,
                &boundary,
                &[],
                |v| if v == favoured { 10.0 } else { 0.0 },
                DeletionOrder::MisParallel,
                &mut engine,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
            if let Some(pos) = set.deleted.iter().position(|&v| v == favoured) {
                runs_deleting_it += 1;
                assert_eq!(
                    pos + 1,
                    set.deleted.len(),
                    "seed {seed}: the favoured node sleeps before {:?}",
                    &set.deleted[pos + 1..]
                );
            }
        }
        assert!(
            runs_deleting_it > 0,
            "the favoured node must still sleep once it is the last candidate"
        );
    }

    #[test]
    fn sequential_and_parallel_reach_fixpoints() {
        let g = generators::king_grid_graph(6, 6);
        let boundary: Vec<bool> = (0..36)
            .map(|i| {
                let (x, y) = (i % 6, i / 6);
                x == 0 || y == 0 || x == 5 || y == 5
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(11);
        let par =
            reference_schedule(&g, &boundary, 4, DeletionOrder::MisParallel, &mut rng).unwrap();
        let seq =
            reference_schedule(&g, &boundary, 4, DeletionOrder::Sequential, &mut rng).unwrap();
        for set in [&par, &seq] {
            assert!(is_vpt_fixpoint(&g, &set.active, &boundary, 4));
        }
        // Sequential performs exactly one deletion per round.
        assert_eq!(seq.rounds, seq.deleted.len());
        // Both disciplines agree on the node count here (all interior nodes
        // of a king grid are eventually redundant at τ = 4 except a spanning
        // pattern; at minimum the counts are close).
        assert_eq!(par.active_count() + par.deleted.len(), 36);
        assert_eq!(seq.active_count() + seq.deleted.len(), 36);
    }

    #[test]
    fn larger_tau_never_needs_more_nodes() {
        let g = generators::king_grid_graph(8, 8);
        let boundary: Vec<bool> = (0..64)
            .map(|i| {
                let (x, y) = (i % 8, i / 8);
                x == 0 || y == 0 || x == 7 || y == 7
            })
            .collect();
        let mut sizes = Vec::new();
        for tau in [3, 4, 6, 8] {
            let mut rng = StdRng::seed_from_u64(42);
            let set = reference_schedule(&g, &boundary, tau, DeletionOrder::MisParallel, &mut rng)
                .unwrap();
            sizes.push(set.active_count());
        }
        for w in sizes.windows(2) {
            assert!(
                w[1] <= w[0],
                "sizes must be non-increasing in tau: {sizes:?}"
            );
        }
    }

    #[test]
    fn rejects_tiny_tau() {
        let g = generators::path_graph(3);
        let mut rng = StdRng::seed_from_u64(0);
        let err = reference_schedule(
            &g,
            &[true, true, true],
            2,
            DeletionOrder::MisParallel,
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(err, SimError::InvalidTau { tau: 2, min: 3 });
    }

    #[test]
    fn rejects_mismatched_flags() {
        let g = generators::path_graph(3);
        let mut rng = StdRng::seed_from_u64(0);
        let err =
            reference_schedule(&g, &[true], 3, DeletionOrder::MisParallel, &mut rng).unwrap_err();
        assert_eq!(err, SimError::BoundaryMismatch { flags: 1, nodes: 3 });
    }

    #[test]
    fn path_interior_is_protected_by_connectivity() {
        // Interior path nodes are cut vertices: their punctured balls are
        // disconnected, so the conservative VPT keeps the whole relay chain
        // alive — deleting any of them would disconnect the network.
        let g = generators::path_graph(7);
        let mut boundary = vec![false; 7];
        boundary[0] = true;
        boundary[6] = true;
        let mut rng = StdRng::seed_from_u64(5);
        let set =
            reference_schedule(&g, &boundary, 3, DeletionOrder::MisParallel, &mut rng).unwrap();
        assert_eq!(set.active_count(), 7, "no interior relay may sleep");
        assert!(set.deleted.is_empty());
        assert!(is_vpt_fixpoint(&g, &set.active, &boundary, 3));
    }
}
