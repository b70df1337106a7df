//! The void preserving transformation (Definition 5 of the paper).
//!
//! A node (or edge) `x` of `H` may be deleted without breaking the
//! `τ`-partitionability of the boundary if its **punctured `k`-hop
//! neighbourhood graph** `Γ^k_H(x)` with `k = ⌈τ/2⌉`
//!
//! 1. is connected, and
//! 2. has all irreducible cycles bounded by `τ`.
//!
//! Intuition: every cycle through `x` short enough to matter can be re-routed
//! as a sum of ≤ `τ` cycles living entirely inside the punctured
//! neighbourhood, so removing `x` cannot make the boundary lose its
//! partition. Both tests are local — a node can evaluate them from `k`-hop
//! connectivity alone, which is what makes the scheduler distributed.

use confine_cycles::horton::{connected_and_max_irreducible_at_most_with, CycleScratch};
use confine_graph::{traverse, EdgeView, Graph, GraphView, NeighborhoodScratch, NodeId};

/// Reusable scratch state for repeated VPT evaluations.
///
/// Holds the GF(2) elimination buffers of the irreducible-cycle test plus the
/// epoch-stamped ball-extraction arena ([`NeighborhoodScratch`]); one scratch
/// per evaluating thread removes all per-candidate heap churn — ball BFS,
/// induced-subgraph build and Horton elimination alike — from the scheduler's
/// hot loop. A fresh (`Default`) scratch is always valid, and the
/// [`crate::vpt_engine::VptEngine`] keeps its per-worker scratches alive
/// across runs and epochs.
#[derive(Debug, Clone, Default)]
pub struct VptScratch {
    pub(crate) cycles: CycleScratch,
    pub(crate) hood: NeighborhoodScratch,
}

/// The discovery radius `k = ⌈τ/2⌉` used by the transformation. Saturates
/// at `u32::MAX` for (absurd) `tau` beyond `u32` range — a radius that
/// already exceeds any graph diameter the substrate can represent.
pub fn neighborhood_radius(tau: usize) -> u32 {
    u32::try_from(tau).map_or(u32::MAX, |t| t.div_ceil(2))
}

/// The independence radius `m = ⌈τ/2⌉ + 1` at which deletions are safely
/// parallel (two deleted nodes ≥ `m` hops apart have disjoint, mutually
/// invariant punctured neighbourhoods).
pub fn independence_radius(tau: usize) -> u32 {
    neighborhood_radius(tau) + 1
}

/// Materialises the subgraph induced by `nodes` from an arbitrary view.
///
/// Returns the graph and the child→parent node mapping (sorted by parent
/// id). Inactive nodes are skipped.
pub fn induced_from_view<V: GraphView>(view: &V, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
    let mut members: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&v| view.contains(v))
        .collect();
    members.sort_unstable();
    members.dedup();
    let mut index = vec![usize::MAX; view.node_bound()];
    for (i, &v) in members.iter().enumerate() {
        index[v.index()] = i;
    }
    let mut g = Graph::with_node_capacity(members.len());
    g.add_nodes(members.len());
    for (i, &v) in members.iter().enumerate() {
        for w in view.view_neighbors(v) {
            let j = index[w.index()];
            if j != usize::MAX && i < j {
                g.add_edge(NodeId::from(i), NodeId::from(j))
                    // lint: panic-ok(members are deduped and i < j visits each pair once, so the insert cannot collide)
                    .expect("pair visited once");
            }
        }
    }
    (g, members)
}

/// Evaluates the vertex-deletion condition of the `τ`-void preserving
/// transformation for `v` on the current view.
///
/// Returns `true` when `v` may be switched off: its punctured
/// `⌈τ/2⌉`-hop neighbourhood graph is connected and all its irreducible
/// cycles are ≤ `τ`.
///
/// # Example
///
/// ```
/// use confine_core::vpt::is_vertex_deletable;
/// use confine_graph::{generators, NodeId};
///
/// // The hub of a wheel is deletable for τ = rim length (the rim replaces
/// // its triangles), but not for smaller τ.
/// let g = generators::wheel_graph(6);
/// assert!(is_vertex_deletable(&g, NodeId(0), 6));
/// assert!(!is_vertex_deletable(&g, NodeId(0), 5));
/// ```
pub fn is_vertex_deletable<V: GraphView>(view: &V, v: NodeId, tau: usize) -> bool {
    is_vertex_deletable_with(view, v, tau, &mut VptScratch::default())
}

/// Scratch-reusing form of [`is_vertex_deletable`].
///
/// Identical result; the caller owns the [`VptScratch`] and amortises the
/// GF(2) elimination buffers across many candidates (the [`VptEngine`] keeps
/// one scratch per worker thread).
///
/// [`VptEngine`]: crate::vpt_engine::VptEngine
pub fn is_vertex_deletable_with<V: GraphView>(
    view: &V,
    v: NodeId,
    tau: usize,
    scratch: &mut VptScratch,
) -> bool {
    let k = neighborhood_radius(tau);
    scratch.hood.punctured(view, v, k);
    scratch_csr_ok(scratch, tau)
}

/// Definition 5 on the punctured CSR most recently extracted into
/// `scratch.hood` — the allocation-free path the engine's workers run.
///
/// The CSR build assigns node and edge ids exactly as
/// [`induced_from_view`] does on the same member list, so verdicts are
/// bit-identical across the two substrates.
pub(crate) fn scratch_csr_ok(scratch: &mut VptScratch, tau: usize) -> bool {
    let VptScratch { cycles, hood } = scratch;
    connected_and_max_irreducible_at_most_with(hood.csr(), tau, cycles)
}

/// Evaluates the edge-deletion condition of the transformation for the edge
/// `{a, b}`.
///
/// The punctured graph of an edge keeps both endpoints but removes the edge
/// itself: the induced subgraph on `N^k(a) ∪ N^k(b) ∪ {a, b}` minus
/// `{a, b}`-the-edge must be connected with irreducible cycles ≤ `τ`.
///
/// Returns `false` when `a` and `b` are not adjacent in the view.
pub fn is_edge_deletable<V: GraphView>(view: &V, a: NodeId, b: NodeId, tau: usize) -> bool {
    if !view.contains(a) || !view.contains(b) || !view.view_neighbors(a).any(|w| w == b) {
        return false;
    }
    let k = neighborhood_radius(tau);
    let mut region = traverse::k_hop_neighbors(view, a, k);
    region.extend(traverse::k_hop_neighbors(view, b, k));
    region.push(a);
    region.push(b);
    let (mut local, members) = induced_from_view(view, &region);
    // Both endpoints were pushed into the region, so the lookups cannot
    // miss; answer "not deletable" (never unsafe) if that ever breaks.
    let (Ok(ia), Ok(ib)) = (members.binary_search(&a), members.binary_search(&b)) else {
        return false;
    };
    let Some(e) = local.edge_between(NodeId::from(ia), NodeId::from(ib)) else {
        return false;
    };
    local = local.without_edge(e);
    vpt_graph_ok(&local, tau)
}

/// The two-part test of Definition 5 on an already-materialised punctured
/// neighbourhood graph.
///
/// Generic over [`EdgeView`], so it accepts both owned [`Graph`]s (the
/// protocol paths ship those) and packed `CsrGraph`s.
pub fn vpt_graph_ok<G: EdgeView>(punctured: &G, tau: usize) -> bool {
    vpt_graph_ok_with(punctured, tau, &mut VptScratch::default())
}

/// Scratch-reusing form of [`vpt_graph_ok`]: one fused kernel sweep answers
/// both parts, as on the engine's CSR path.
pub fn vpt_graph_ok_with<G: EdgeView>(punctured: &G, tau: usize, scratch: &mut VptScratch) -> bool {
    connected_and_max_irreducible_at_most_with(punctured, tau, &mut scratch.cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use confine_graph::{generators, Masked};

    #[test]
    fn radii() {
        assert_eq!(neighborhood_radius(3), 2);
        assert_eq!(neighborhood_radius(4), 2);
        assert_eq!(neighborhood_radius(5), 3);
        assert_eq!(neighborhood_radius(6), 3);
        assert_eq!(independence_radius(3), 3);
        assert_eq!(independence_radius(6), 4);
    }

    #[test]
    fn induced_from_view_respects_mask() {
        let g = generators::cycle_graph(6);
        let mut m = Masked::all_active(&g);
        m.deactivate(NodeId(2));
        let nodes: Vec<NodeId> = (0..6).map(NodeId::from).collect();
        let (sub, members) = induced_from_view(&m, &nodes);
        assert_eq!(members.len(), 5);
        assert_eq!(sub.edge_count(), 4, "path 3-4-5-0-1");
    }

    #[test]
    fn leaf_and_isolated_nodes_are_deletable() {
        let g = generators::path_graph(4);
        // Leaves have a connected (path-shaped) punctured ball: deletable.
        assert!(is_vertex_deletable(&g, NodeId(0), 3));
        assert!(is_vertex_deletable(&g, NodeId(3), 3));
        // Interior tree nodes are cut vertices: their punctured ball is
        // disconnected, so the conservative test refuses them.
        assert!(!is_vertex_deletable(&g, NodeId(1), 3));
        assert!(!is_vertex_deletable(&g, NodeId(2), 3));
        let mut lone = confine_graph::Graph::new();
        let v = lone.add_node();
        assert!(
            is_vertex_deletable(&lone, v, 3),
            "empty neighbourhood is fine"
        );
    }

    #[test]
    fn king_grid_interior_deletable_at_tau_4() {
        // Interior node of a king grid: its punctured neighbourhood is
        // connected and triangulated enough that all irreducible cycles stay
        // ≤ 4 (the square left behind by the deletion).
        let g = generators::king_grid_graph(5, 5);
        let center = NodeId(12);
        assert!(is_vertex_deletable(&g, center, 4));
        // At τ = 3 the deletion would leave the hollow N-E-S-W square where
        // the centre was — an irreducible 4-cycle in the punctured graph —
        // so the local test must refuse.
        assert!(!is_vertex_deletable(&g, center, 3));
    }

    #[test]
    fn bare_cycle_nodes_not_deletable_at_small_tau() {
        // On a bare 8-cycle the punctured 2-hop ball of any node is two
        // disjoint 2-paths: disconnected ⇒ not deletable for τ ≤ 4. At
        // τ = 8 the ball spans the remaining 7-path: connected, acyclic ⇒
        // deletable (the only cycle it destroys is longer than any τ < 8
        // partition could have used anyway — and for τ = 8 boundary nodes
        // are protected separately).
        let g = generators::cycle_graph(8);
        for v in g.nodes() {
            assert!(!is_vertex_deletable(&g, v, 4));
            assert!(is_vertex_deletable(&g, v, 8));
        }
    }

    #[test]
    fn wheel_hub_threshold() {
        for rim in 4..9 {
            let g = generators::wheel_graph(rim);
            let hub = NodeId(0);
            for tau in 3..=rim + 2 {
                let expected = tau >= rim;
                assert_eq!(
                    is_vertex_deletable(&g, hub, tau),
                    expected,
                    "rim {rim} tau {tau}"
                );
            }
        }
    }

    #[test]
    fn disconnected_punctured_graph_blocks_deletion() {
        // Two triangles sharing only the node v: removing v disconnects its
        // neighbourhood.
        let g =
            confine_graph::Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
                .unwrap();
        assert!(
            !is_vertex_deletable(&g, NodeId(0), 3),
            "cut vertex must stay"
        );
        assert!(is_vertex_deletable(&g, NodeId(1), 3));
    }

    #[test]
    fn edge_deletable_cases() {
        // In a king-grid square, a diagonal is deletable at τ = 4 (the
        // square and other diagonal remain) but the test at τ = 3 must
        // also pass thanks to the second diagonal. Use a single square:
        let g =
            confine_graph::Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
                .unwrap();
        assert!(is_edge_deletable(&g, NodeId(0), NodeId(2), 3));
        // After conceptually removing one diagonal, the other is NOT
        // deletable at τ = 3: the square would become a hollow 4-cycle.
        let e = g.edge_between(NodeId(0), NodeId(2)).unwrap();
        let h = g.without_edge(e);
        assert!(!is_edge_deletable(&h, NodeId(1), NodeId(3), 3));
        assert!(is_edge_deletable(&h, NodeId(1), NodeId(3), 4));
    }

    #[test]
    fn edge_deletable_rejects_non_edges() {
        let g = generators::path_graph(4);
        assert!(
            !is_edge_deletable(&g, NodeId(0), NodeId(2), 3),
            "non-edges never delete"
        );
        assert!(
            !is_edge_deletable(&g, NodeId(0), NodeId(1), 3),
            "a bridge would disconnect its punctured region"
        );
    }

    #[test]
    fn deletability_on_masked_views() {
        let g = generators::wheel_graph(6);
        let mut m = Masked::all_active(&g);
        // Remove one rim node: the hub's punctured neighbourhood becomes a
        // path of 5 rim nodes — connected, no cycles → deletable even at 3.
        m.deactivate(NodeId(3));
        assert!(is_vertex_deletable(&m, NodeId(0), 3));
    }
}
