//! Minimum cycle bases via Horton's algorithm — Algorithm 1 of the paper.
//!
//! The paper computes the **minimum and maximum sizes of irreducible cycles**
//! of a graph (Definition 4: a cycle is *irreducible* — also called
//! *relevant* [Vismara 1997] — if it is not a sum of strictly shorter
//! cycles). Algorithm 1 does this by finding a minimum cycle basis (MCB) with
//! a modified Horton procedure:
//!
//! 1. for every vertex `v`, build a shortest-path tree `T_v`;
//! 2. for every non-tree edge `(x, y)` whose endpoints' tree paths meet only
//!    at the root (`lca(x, y) = v`), emit the candidate cycle
//!    `C(v, x, y) = path(v→x) + (x, y) + path(y→v)`;
//! 3. sort candidates by non-decreasing length and greedily keep the
//!    linearly independent ones (GF(2) Gaussian elimination) until
//!    `ν = |E| − |V| + c` cycles are selected.
//!
//! By the matroid property of cycle spaces, every MCB has the same sorted
//! multiset of cycle lengths, and the shortest/longest cycles of an MCB are
//! exactly the shortest/longest irreducible cycles (Theorem 4 of the paper,
//! via [Chickering–Geiger–Heckerman 1995]).

use confine_graph::spt::SptTree;
use confine_graph::{EdgeId, EdgeView, Graph, NodeId};

use crate::cycle::Cycle;
use crate::gf2::BitVec;
use crate::linalg::Gf2Basis;

/// A minimum cycle basis of a graph.
///
/// Produced by [`minimum_cycle_basis`]. The basis cycles are stored in
/// non-decreasing length order.
#[derive(Debug, Clone)]
pub struct Mcb {
    cycles: Vec<Cycle>,
    edge_count: usize,
}

impl Mcb {
    /// The basis cycles in non-decreasing length order.
    pub fn cycles(&self) -> &[Cycle] {
        &self.cycles
    }

    /// Dimension of the cycle space (`ν = m − n + c`).
    pub fn dimension(&self) -> usize {
        self.cycles.len()
    }

    /// Number of edges of the graph the basis was computed for.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Total length `ℓ(B)` of the basis — the quantity Horton's algorithm
    /// minimises.
    pub fn total_length(&self) -> usize {
        self.cycles.iter().map(Cycle::len).sum()
    }

    /// Length of the shortest basis cycle (`|B|_min`), `None` for forests.
    pub fn min_cycle_len(&self) -> Option<usize> {
        self.cycles.first().map(Cycle::len)
    }

    /// Length of the longest basis cycle (`|B|_max`), `None` for forests.
    pub fn max_cycle_len(&self) -> Option<usize> {
        self.cycles.last().map(Cycle::len)
    }
}

/// Minimum and maximum sizes of irreducible cycles — the output of
/// Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IrreducibleBounds {
    /// Length of the shortest irreducible cycle (the girth).
    pub min: usize,
    /// Length of the longest irreducible cycle.
    pub max: usize,
}

/// Computes a minimum cycle basis of `graph` with the modified Horton
/// algorithm (Algorithm 1 of the paper).
///
/// Works on disconnected graphs (each component contributes its own cycles);
/// forests yield an empty basis. Runtime is `O(n·m·ν)` in the worst case,
/// dominated by the Gaussian eliminations.
///
/// # Example
///
/// ```
/// use confine_cycles::horton::minimum_cycle_basis;
/// use confine_graph::generators;
///
/// // Every MCB of a 3×3 grid consists of its four unit squares.
/// let mcb = minimum_cycle_basis(&generators::grid_graph(3, 3));
/// assert_eq!(mcb.dimension(), 4);
/// assert!(mcb.cycles().iter().all(|c| c.len() == 4));
/// ```
pub fn minimum_cycle_basis(graph: &Graph) -> Mcb {
    let nu = crate::space::circuit_rank(graph);
    if nu == 0 {
        return Mcb {
            cycles: Vec::new(),
            edge_count: graph.edge_count(),
        };
    }

    let mut candidates = horton_candidates(graph);
    // Non-decreasing length; ties broken by incidence vector for determinism.
    candidates.sort_unstable_by(|a, b| {
        a.len().cmp(&b.len()).then_with(|| {
            a.edge_ids()
                .map(EdgeId::index)
                .cmp(b.edge_ids().map(EdgeId::index))
        })
    });
    candidates.dedup();

    let mut oracle = Gf2Basis::new(graph.edge_count());
    let mut selected: Vec<Cycle> = Vec::with_capacity(nu);
    for cand in candidates {
        if selected.len() == nu {
            break;
        }
        if oracle.try_insert(cand.edge_vec()) {
            selected.push(cand);
        }
    }

    // The LCA-at-root filter can, in rare tie configurations, leave the
    // candidate set short of a full basis. Top up with fundamental cycles —
    // these keep the basis valid; minimality is preserved in all cases the
    // filter is known to handle (and is property-tested against brute force).
    if selected.len() < nu {
        let mut extras: Vec<Cycle> = crate::space::fundamental_cycles(graph);
        extras.sort_by_key(Cycle::len);
        for cand in extras {
            if selected.len() == nu {
                break;
            }
            if oracle.try_insert(cand.edge_vec()) {
                selected.push(cand);
            }
        }
        selected.sort_by_key(Cycle::len);
    }
    debug_assert_eq!(selected.len(), nu, "cycle space must be fully spanned");

    Mcb {
        cycles: selected,
        edge_count: graph.edge_count(),
    }
}

/// Enumerates the Horton candidate cycles of `graph` with the LCA-at-root
/// filter (steps 2–6 of Algorithm 1).
///
/// Each candidate is a *simple* cycle `C(v, x, y)` built from one shortest
/// path tree root `v` and one non-tree edge `(x, y)` whose endpoints' tree
/// paths are disjoint except at `v`. Duplicates (the same cycle discovered
/// from several roots) are **not** removed here.
pub fn horton_candidates(graph: &Graph) -> Vec<Cycle> {
    let mut out = Vec::new();
    for v in graph.nodes() {
        let tree = SptTree::build(&graph, v);
        for (e, x, y) in graph.edges() {
            // Skip tree edges: parent links identify them.
            if tree.parent(x) == Some(y) || tree.parent(y) == Some(x) {
                continue;
            }
            if !tree.reaches(x) || !tree.reaches(y) {
                continue;
            }
            if tree.lca(x, y) != Some(v) {
                continue;
            }
            let mut vec = BitVec::zeros(graph.edge_count());
            vec.set(e.index(), true);
            for endpoint in [x, y] {
                let mut cur = endpoint;
                while let Some(p) = tree.parent(cur) {
                    let pe = graph
                        .edge_between(cur, p)
                        // lint: panic-ok(every BFS-tree parent edge was taken from this graph)
                        .expect("tree edges exist in the graph");
                    vec.set(pe.index(), true);
                    cur = p;
                }
            }
            let cycle = Cycle::from_edge_vec(graph, vec)
                // lint: panic-ok(two root-disjoint tree paths plus their closing edge give every vertex even degree)
                .expect("root-disjoint tree paths plus the closing edge form a cycle");
            debug_assert!(cycle.is_simple(graph));
            out.push(cycle);
        }
    }
    out
}

/// Algorithm 1: minimum and maximum sizes of irreducible cycles of `graph`.
///
/// Returns `None` for forests (no cycles at all). The scheduler's void
/// preserving transformation uses `max` to bound voids; `min` reflects the
/// quality of coverage (Sec. V-A).
///
/// # Example
///
/// ```
/// use confine_cycles::horton::irreducible_cycle_bounds;
/// use confine_graph::generators;
///
/// let b = irreducible_cycle_bounds(&generators::grid_graph(4, 4)).unwrap();
/// assert_eq!((b.min, b.max), (4, 4));
/// assert!(irreducible_cycle_bounds(&generators::path_graph(5)).is_none());
/// ```
pub fn irreducible_cycle_bounds(graph: &Graph) -> Option<IrreducibleBounds> {
    let mcb = minimum_cycle_basis(graph);
    Some(IrreducibleBounds {
        min: mcb.min_cycle_len()?,
        max: mcb.max_cycle_len()?,
    })
}

/// Reusable scratch state for [`max_irreducible_at_most_with`].
///
/// The VPT inner test ranks one small cycle space per candidate node per
/// scheduling round; every working array of that kernel (BFS stamps, the
/// fundamental-coordinate map, adjacency bitsets, the annihilator columns)
/// lives here and is recycled between calls, so the hot loop performs no
/// steady-state allocation. A fresh (`Default`) scratch is always valid.
#[derive(Debug, Clone, Default)]
pub struct CycleScratch {
    /// Per-node visit stamp, shared by the forest build, the 4-cycle pair
    /// dedup and the per-root sweeps (each bumps `stamp`).
    visit: Vec<u32>,
    /// Per-node BFS depth, valid where `visit` matches the current stamp.
    depth: Vec<u32>,
    /// Per-node parent edge id in the current BFS tree (`u32::MAX` at roots).
    parent_edge: Vec<u32>,
    /// Per-node parent node id in the current BFS tree.
    parent: Vec<u32>,
    /// BFS queue, kept as the visit order of the current root.
    queue: Vec<u32>,
    /// Per-edge fundamental coordinate (`u32::MAX` marks forest edges).
    coord: Vec<u32>,
    /// Stamped dense pair → coordinate matrix (small graphs only).
    pair_val: Vec<u32>,
    /// Stamps validating `pair_val` entries.
    pair_stamp: Vec<u32>,
    /// Adjacency bitsets: `n` rows of `nw` words.
    adj: Vec<u64>,
    /// Column-major annihilator of the accepted span: `ν` columns of `w`
    /// words; column `p` is the vector of functional values at coordinate `p`.
    cols: Vec<u64>,
    /// Probe residual (`w` words).
    probe: Vec<u64>,
    /// Common-neighbour buffer for the 4-cycle enumeration.
    commons: Vec<u32>,
    /// Distance-2 candidate bitset for the 4-cycle tier (one row of words).
    dist2: Vec<u64>,
    /// Monotone stamp for `visit` / `pair_stamp`.
    stamp: u32,
}

/// Marker for spanning-forest edges in the coordinate map.
const TREE: u32 = u32::MAX;

/// Dense pair-matrix cutoff: below this many `n²` entries the kernel keeps a
/// stamped `n × n` coordinate lookup (one array read per edge query); above
/// it, pair queries fall back to binary search on the incident slices.
const DENSE_PAIR_ENTRIES: usize = 1 << 20;

/// Checked narrowing for node/edge indices on the BFS hot paths: the graph
/// substrate stores ids as `u32` (`NodeId`/`EdgeId` wrap `u32`), so every
/// index a view hands out is `< 2^32`. The debug assertion guards the
/// invariant without taxing release builds.
#[inline]
fn u32_of(i: usize) -> u32 {
    debug_assert!(u32::try_from(i).is_ok(), "index {i} exceeds u32 range");
    i as u32 // lint: cast-ok(graph ids are u32 by construction; debug-asserted)
}

/// The word mask keeping only bits strictly above position `i % 64` — the
/// "candidates after `i` in this word" filter of the bitset sweeps.
#[inline]
fn mask_above(i: usize) -> u64 {
    (!0u64).checked_shl(u32_of(i % 64) + 1).unwrap_or(0)
}

/// XORs annihilator column `c` into `probe` (skips forest and seeded edges,
/// whose functionals are identically zero). Columns are `probe.len()` words
/// wide.
#[inline(always)]
fn xor_coord(probe: &mut [u64], cols: &[u64], c: u32) {
    if c != TREE {
        let w = probe.len();
        let base = c as usize * w;
        for (pi, ci) in probe.iter_mut().zip(&cols[base..base + w]) {
            *pi ^= ci;
        }
    }
}

/// Restricts the annihilator to the hyperplane orthogonal to the accepted
/// vector whose probe residual is `t` (nonzero): picks the lowest live
/// functional `j` with `t_j = 1` and replaces every functional `g` that sees
/// the vector by `g + f_j`; `f_j` itself drops out (its row auto-zeroes,
/// since `t_j = 1`). Columns are `t.len()` words wide.
#[inline(always)]
fn eliminate(cols: &mut [u64], t: &[u64]) {
    let (jw, word) = t
        .iter()
        .enumerate()
        .find(|(_, &x)| x != 0)
        // lint: panic-ok(callers eliminate only nonzero residuals)
        .expect("residual is nonzero");
    let jb = word.trailing_zeros();
    // Branchless: testing `col[jw]` bit `jb` per column would mispredict
    // ~half the time across the whole annihilator; a masked XOR keeps the
    // scan a straight line of word ops.
    for col in cols.chunks_exact_mut(t.len()) {
        let mask = 0u64.wrapping_sub((col[jw] >> jb) & 1);
        for (ci, ti) in col.iter_mut().zip(t) {
            *ci ^= ti & mask;
        }
    }
}

/// Fast predicate: is the *maximum* irreducible cycle of `graph` at most
/// `tau`?
///
/// Equivalent to `irreducible_cycle_bounds(graph).map_or(true, |b| b.max <= tau)`
/// but far cheaper: cycles of length ≤ `tau` span the whole cycle space
/// **iff** the maximum irreducible cycle is ≤ `tau`, so it suffices to test
/// whether the short-cycle candidates span — no basis is materialised and
/// the scan exits as soon as the span is complete.
///
/// Forests (no cycles) trivially satisfy the bound. This is the inner test of
/// the void preserving transformation (Definition 5), executed once per node
/// per scheduling round, so its speed dominates the scheduler.
pub fn max_irreducible_at_most<V: EdgeView>(view: &V, tau: usize) -> bool {
    max_irreducible_at_most_with(view, tau, &mut CycleScratch::default())
}

/// Scratch-reusing form of [`max_irreducible_at_most`].
///
/// Identical result; the caller owns the [`CycleScratch`] and amortises its
/// arrays across many graphs (one punctured neighbourhood per candidate node
/// per round in the DCC schedulers). Generic over [`EdgeView`], so the
/// engine's packed `CsrGraph` neighbourhoods run through the same kernel as
/// owned [`Graph`]s.
///
/// # Algorithm
///
/// Candidates are tested in *fundamental coordinates*: fix a BFS spanning
/// forest and number the `ν` non-forest edges; a cycle's coordinate vector
/// over the fundamental-cycle basis is exactly its restriction to those
/// edges, so no edge-space bit-vector is ever built. Instead of reducing
/// each candidate against an echelon basis, the kernel maintains the
/// *annihilator* of the span accepted so far — a shrinking set of `d`
/// GF(2) functionals stored column-major (`ν` columns of `⌈ν/64⌉` words).
/// Testing a candidate XORs one column per non-forest edge it contains and
/// checks the residual for zero; accepting one is a rank-1 column update.
/// Dependent candidates — the overwhelming majority in the dense
/// neighbourhood graphs the scheduler probes — therefore cost a handful of
/// word operations rather than a full elimination walk, and the kernel
/// returns `true` the moment the deficiency `d` hits zero.
///
/// Three exact reductions shrink the scan further: non-forest edges whose
/// *fundamental* cycle (an LCA walk on the BFS forest, capped at `tau`
/// steps) is already short are pre-accepted and their coordinates stripped
/// — unit vectors eliminate to functionals that vanish there — so `d`
/// starts well below `ν`; 4-cycle diagonals probe only the `s` star cycles
/// through one fixed common neighbour, which span all `C(s+1, 2)`
/// quadrilaterals of that diagonal; and the one tier scan is monomorphised
/// over the functional word width, with register-resident probes at
/// `W ∈ {1, 2, 4}` words and the scratch probe slice above. Dense
/// neighbourhoods do reach the wide scan: on the `fixpoint` benchmark's
/// τ = 6 balls, one kernel call in six needs more than four words.
///
/// Candidate generation is tiered: triangles from adjacency-bitset
/// intersections, 4-cycles from common-neighbour pairs (both enumerated
/// once each), and for `tau ≥ 5` a depth-capped Horton sweep (per-root BFS
/// tree paths closed by a non-tree edge). The sweep drops Horton's
/// LCA-at-root filter: a non-simple closed walk of length ≤ `tau`
/// decomposes into cycles each of length ≤ `tau`, so probing it is sound,
/// and a rejected duplicate is cheaper than the filter that would have
/// skipped it.
pub fn max_irreducible_at_most_with<V: EdgeView>(
    view: &V,
    tau: usize,
    scratch: &mut CycleScratch,
) -> bool {
    span_kernel(view, tau, scratch, false)
}

/// [`max_irreducible_at_most_with`] fused with a connectivity test: `true`
/// iff `view` is connected (empty and single-node graphs count, matching
/// `is_connected`) *and* its maximum irreducible cycle is at most `tau`.
///
/// The inner test of the void preserving transformation needs both answers
/// for every punctured neighbourhood; sharing the kernel's spanning-forest
/// BFS saves the separate connectivity sweep per candidate.
pub fn connected_and_max_irreducible_at_most_with<V: EdgeView>(
    view: &V,
    tau: usize,
    scratch: &mut CycleScratch,
) -> bool {
    span_kernel(view, tau, scratch, true)
}

/// Is the cycle-space element `target` of `view` a GF(2) sum of cycles of
/// length ≤ `tau`? The exact `τ`-partitionability test, without a minimum
/// cycle basis; [`crate::partition::is_tau_partitionable`] rejects targets
/// outside the cycle space before calling it.
///
/// Runs the seeding and tiers of [`max_irreducible_at_most_with`], which
/// together span every cycle of length ≤ `tau` (DESIGN.md §5). When they
/// stop short of the whole cycle space, the annihilator left in `scratch`
/// holds the functionals vanishing on exactly that span, so `target` is in
/// it iff its surviving fundamental coordinates XOR to zero under every
/// column.
pub(crate) fn short_cycles_span<V: EdgeView>(
    view: &V,
    target: &BitVec,
    tau: usize,
    scratch: &mut CycleScratch,
) -> bool {
    if tau < 3 {
        // No cycle is shorter than a triangle.
        return target.is_zero();
    }
    if span_kernel(view, tau, scratch, false) {
        return true;
    }
    // The kernel returned from its tiers, so `coord` and `cols` hold the
    // final annihilator: one column of `w` words per surviving coordinate.
    let live = scratch.coord.iter().filter(|&&c| c != TREE).count();
    scratch.probe.clear();
    scratch.probe.resize(scratch.cols.len() / live, 0);
    for e in target.ones() {
        xor_coord(&mut scratch.probe, &scratch.cols, scratch.coord[e]);
    }
    scratch.probe.iter().all(|&x| x == 0)
}

fn span_kernel<V: EdgeView>(
    view: &V,
    tau: usize,
    scratch: &mut CycleScratch,
    require_connected: bool,
) -> bool {
    let n = view.node_bound();
    let m = view.edge_count();
    let CycleScratch {
        visit,
        depth,
        parent_edge,
        parent,
        queue,
        coord,
        pair_val,
        pair_stamp,
        adj,
        cols,
        stamp,
        ..
    } = scratch;

    // Stamp hygiene: restart the epoch before the counter can wrap within
    // one call (one global tick plus one per 4-cycle pivot and per root).
    if u64::from(*stamp) + 2 * n as u64 + 2 >= u64::from(u32::MAX) {
        visit.iter_mut().for_each(|s| *s = 0);
        pair_stamp.iter_mut().for_each(|s| *s = 0);
        *stamp = 0;
    }
    if visit.len() < n {
        visit.resize(n, 0);
        depth.resize(n, 0);
        parent_edge.resize(n, 0);
        parent.resize(n, 0);
    }

    // Global BFS spanning forest: components for ν, parent edges for the
    // fundamental-coordinate map.
    *stamp += 1;
    let s0 = *stamp;
    let mut tree_edges = 0usize;
    queue.clear();
    for root in 0..n {
        if visit[root] == s0 {
            continue;
        }
        // A non-empty queue here means a second component root: the first
        // component's BFS is complete yet did not reach this node.
        if require_connected && !queue.is_empty() {
            return false;
        }
        visit[root] = s0;
        parent_edge[root] = u32::MAX;
        queue.push(u32_of(root));
        let mut head = queue.len() - 1;
        depth[root] = 0;
        while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            let (nbrs, eids) = view.incident_slices(NodeId::from(v));
            for (&wn, &e) in nbrs.iter().zip(eids) {
                let wi = wn.index();
                if visit[wi] != s0 {
                    visit[wi] = s0;
                    parent_edge[wi] = u32_of(e.index());
                    parent[wi] = u32_of(v);
                    depth[wi] = depth[v] + 1;
                    tree_edges += 1;
                    queue.push(u32_of(wi));
                }
            }
        }
    }
    let nu = m - tree_edges;
    if nu == 0 {
        return true;
    }
    if tau < 3 {
        return false;
    }

    // Fundamental coordinates, with short fundamental cycles seeded into
    // the span up front. A non-forest edge whose fundamental cycle (forest
    // path + closing edge, measured by an LCA walk capped at tau steps) is
    // at most tau long contributes a *unit* coordinate vector, so accepting
    // it just deletes its coordinate from the space. Those edges get the
    // TREE marker too — every functional the annihilator will ever hold
    // vanishes on them, so skipping them in probes is exact — and only the
    // surviving coordinates are numbered. Geometric neighbourhoods route
    // most non-forest edges through nearby tree paths, so this typically
    // absorbs the bulk of the rank before any candidate is probed and
    // shrinks the annihilator to a word or two per column.
    coord.clear();
    coord.resize(m, 0);
    for v in 0..n {
        if visit[v] == s0 && parent_edge[v] != u32::MAX {
            coord[parent_edge[v] as usize] = TREE;
        }
    }
    let mut next = 0u32;
    for (e, ce) in coord.iter_mut().enumerate() {
        if *ce == TREE {
            continue;
        }
        let (a, b) = view.edge_endpoints(EdgeId::from(e));
        let (mut x, mut y) = (a.index(), b.index());
        let mut len = 1usize;
        while x != y && len < tau {
            if depth[x] >= depth[y] {
                x = parent[x] as usize;
            } else {
                y = parent[y] as usize;
            }
            len += 1;
        }
        if x == y {
            *ce = TREE;
        } else {
            *ce = next;
            next += 1;
        }
    }
    debug_assert!((next as usize) <= nu);

    // Annihilator of the seeded span, restricted to the d surviving
    // coordinates: the identity functionals. Deficiency d counts the
    // functionals still alive.
    let d = next as usize;
    if d == 0 {
        return true;
    }
    let w = d.div_ceil(64);
    let ws = match w {
        1 => 1,
        2 => 2,
        3 | 4 => 4,
        _ => w,
    };
    cols.clear();
    cols.resize(d * ws, 0);
    for p in 0..d {
        cols[p * ws + p / 64] = 1u64 << (p % 64);
    }

    // Adjacency bitsets and the pair → coordinate lookup.
    let nw = n.div_ceil(64);
    adj.clear();
    adj.resize(n * nw, 0);
    let dense = n * n <= DENSE_PAIR_ENTRIES;
    if dense && pair_val.len() < n * n {
        pair_val.resize(n * n, 0);
        pair_stamp.resize(n * n, 0);
    }
    for (e, &ce) in coord.iter().enumerate() {
        let (a, b) = view.edge_endpoints(EdgeId::from(e));
        let (ai, bi) = (a.index(), b.index());
        adj[ai * nw + bi / 64] |= 1u64 << (bi % 64);
        adj[bi * nw + ai / 64] |= 1u64 << (ai % 64);
        if dense {
            pair_val[ai * n + bi] = ce;
            pair_val[bi * n + ai] = ce;
            pair_stamp[ai * n + bi] = s0;
            pair_stamp[bi * n + ai] = s0;
        }
    }
    // Dispatch on annihilator width. A fixed width keeps each candidate's
    // probe in a local array, so it lives in registers and every per-word
    // loop unrolls; wider annihilators probe through the scratch slice.
    // After seeding, the τ = 6 balls of the `fixpoint` benchmark spread
    // their kernel calls 33/21/30/16% over 1, 2, 4 and more than 4 words.
    // Strides 3 are padded up to 4; the pad words are zero throughout, so
    // masked XORs against them are no-ops.
    match ws {
        1 => scan_tiers::<V, 1>(view, tau, scratch, s0, dense, d),
        2 => scan_tiers::<V, 2>(view, tau, scratch, s0, dense, d),
        4 => scan_tiers::<V, 4>(view, tau, scratch, s0, dense, d),
        _ => {
            scratch.probe.clear();
            scratch.probe.resize(ws, 0);
            scan_tiers::<V, WIDE>(view, tau, scratch, s0, dense, d)
        }
    }
}

/// Width sentinel of [`scan_tiers`]: the annihilator is wider than four
/// words, and each candidate probes through the scratch `probe` slice,
/// sized to the column stride by the dispatch.
const WIDE: usize = 0;

/// The zeroed probe of one candidate: the fresh local array at a fixed
/// width, the scratch slice at [`WIDE`].
#[inline(always)]
fn zeroed<'p, const W: usize>(local: &'p mut [u64; W], wide: &'p mut [u64]) -> &'p mut [u64] {
    if W == WIDE {
        wide.fill(0);
        wide
    } else {
        local
    }
}

/// The three candidate tiers (triangles, 4-cycles, depth-capped Horton
/// sweep) over the seeded annihilator in `scratch`, with `d` live
/// functionals of `W` words each ([`WIDE`]: the scratch probe's length).
/// Monomorphised per width so that a fixed-width probe is a register array
/// and every word loop unrolls; see [`max_irreducible_at_most_with`] for
/// the tier rationale.
fn scan_tiers<V: EdgeView, const W: usize>(
    view: &V,
    tau: usize,
    scratch: &mut CycleScratch,
    s0: u32,
    dense: bool,
    mut d: usize,
) -> bool {
    let n = view.node_bound();
    let nw = n.div_ceil(64);
    let CycleScratch {
        visit,
        depth,
        parent_edge,
        parent,
        queue,
        coord,
        pair_val,
        pair_stamp,
        adj,
        cols,
        probe: wide,
        commons,
        dist2,
        stamp,
    } = scratch;
    let pair_coord = |a: usize, b: usize| -> u32 {
        if dense {
            debug_assert_eq!(pair_stamp[a * n + b], s0, "pair lookups hit known edges");
            pair_val[a * n + b]
        } else {
            match view.find_edge(NodeId::from(a), NodeId::from(b)) {
                Some(e) => coord[e.index()],
                None => TREE,
            }
        }
    };

    // Tier 1: triangles, once each via their edge with the two smallest
    // endpoints (c ranges above max(a, b)).
    for (e, &ce) in coord.iter().enumerate() {
        let (a, b) = view.edge_endpoints(EdgeId::from(e));
        let (ai, bi) = (a.index(), b.index());
        for wi in bi / 64..nw {
            let mut word = adj[ai * nw + wi] & adj[bi * nw + wi];
            if wi == bi / 64 {
                word &= mask_above(bi);
            }
            while word != 0 {
                let c = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let mut local = [0u64; W];
                let probe = zeroed(&mut local, wide);
                xor_coord(probe, cols, ce);
                xor_coord(probe, cols, pair_coord(ai, c));
                xor_coord(probe, cols, pair_coord(bi, c));
                if probe.iter().any(|&x| x != 0) {
                    eliminate(cols, probe);
                    d -= 1;
                    if d == 0 {
                        return true;
                    }
                }
            }
        }
    }
    if tau == 3 {
        return d == 0;
    }

    // Tier 2: 4-cycles. For the diagonal pair (a, c) with a the cycle's
    // smallest vertex, every 4-cycle a–y–c–z closes two common neighbours
    // y, z > a of the pair; candidate partners c are the union of the
    // neighbourhoods of a's larger neighbours, accumulated as one bitset
    // row (word ops only, no per-wedge stamping). Star reduction: with
    // common neighbours y₀, y₁, …, yₛ the cycle on (yᵢ, yⱼ) is the edge-set
    // XOR of the cycles on (y₀, yᵢ) and (y₀, yⱼ) — the shared y₀ legs
    // cancel — so the s star candidates span all (s+1 choose 2) 4-cycles on
    // this diagonal.
    if dist2.len() < nw {
        dist2.resize(nw, 0);
    }
    for a in 0..n {
        let d2 = &mut dist2[..nw];
        d2.iter_mut().for_each(|x| *x = 0);
        for b in view.neighbor_slice(NodeId::from(a)) {
            let bi = b.index();
            if bi <= a {
                continue;
            }
            for (di, ri) in d2.iter_mut().zip(&adj[bi * nw..bi * nw + nw]) {
                *di |= ri;
            }
        }
        for (wi2, &d2w) in d2.iter().enumerate().skip(a / 64) {
            let mut cword = d2w;
            if wi2 == a / 64 {
                cword &= mask_above(a);
            }
            while cword != 0 {
                let c = wi2 * 64 + cword.trailing_zeros() as usize;
                cword &= cword - 1;
                commons.clear();
                for wi in a / 64..nw {
                    let mut word = adj[a * nw + wi] & adj[c * nw + wi];
                    if wi == a / 64 {
                        word &= mask_above(a);
                    }
                    while word != 0 {
                        commons.push(u32_of(wi * 64) + word.trailing_zeros());
                        word &= word - 1;
                    }
                }
                if commons.len() >= 2 {
                    let y = commons[0] as usize;
                    let leg_ay = pair_coord(a, y);
                    let leg_yc = pair_coord(y, c);
                    for &zc in &commons[1..] {
                        let z = zc as usize;
                        let mut local = [0u64; W];
                        let probe = zeroed(&mut local, wide);
                        xor_coord(probe, cols, leg_ay);
                        xor_coord(probe, cols, leg_yc);
                        xor_coord(probe, cols, pair_coord(c, z));
                        xor_coord(probe, cols, pair_coord(z, a));
                        if probe.iter().any(|&x| x != 0) {
                            eliminate(cols, probe);
                            d -= 1;
                            if d == 0 {
                                return true;
                            }
                        }
                    }
                }
            }
        }
    }
    if tau == 4 {
        return d == 0;
    }

    // Tier 3: Horton candidates of length 5..=tau — per-root BFS trees
    // (depth-capped: an endpoint deeper than ⌊tau/2⌋ cannot close a short
    // enough walk), closed by any co-visited non-parent edge.
    let cap = u32_of(tau / 2);
    for root in 0..n {
        *stamp += 1;
        let sr = *stamp;
        queue.clear();
        visit[root] = sr;
        depth[root] = 0;
        parent_edge[root] = u32::MAX;
        queue.push(u32_of(root));
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            if depth[v] == cap {
                continue;
            }
            let (nbrs, eids) = view.incident_slices(NodeId::from(v));
            for (&wn, &e) in nbrs.iter().zip(eids) {
                let wi = wn.index();
                if visit[wi] != sr {
                    visit[wi] = sr;
                    depth[wi] = depth[v] + 1;
                    parent_edge[wi] = u32_of(e.index());
                    parent[wi] = u32_of(v);
                    queue.push(u32_of(wi));
                }
            }
        }
        for &qv in queue.iter() {
            let v = qv as usize;
            let (nbrs, eids) = view.incident_slices(NodeId::from(v));
            for (&wn, &e) in nbrs.iter().zip(eids) {
                let wi = wn.index();
                if wi <= v || visit[wi] != sr {
                    continue;
                }
                let ei = u32_of(e.index());
                if parent_edge[v] == ei || parent_edge[wi] == ei {
                    continue;
                }
                let len = depth[v] + depth[wi] + 1;
                if len < 5 || len as usize > tau {
                    continue;
                }
                let mut local = [0u64; W];
                let probe = zeroed(&mut local, wide);
                xor_coord(probe, cols, coord[ei as usize]);
                for endpoint in [v, wi] {
                    let mut cur = endpoint;
                    while parent_edge[cur] != u32::MAX {
                        let pe = parent_edge[cur] as usize;
                        xor_coord(probe, cols, coord[pe]);
                        cur = parent[cur] as usize;
                    }
                }
                if probe.iter().any(|&x| x != 0) {
                    eliminate(cols, probe);
                    d -= 1;
                    if d == 0 {
                        return true;
                    }
                }
            }
        }
    }
    d == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use confine_graph::generators;

    #[test]
    fn mcb_of_cycle_graph() {
        let g = generators::cycle_graph(9);
        let mcb = minimum_cycle_basis(&g);
        assert_eq!(mcb.dimension(), 1);
        assert_eq!(mcb.total_length(), 9);
        assert_eq!(mcb.min_cycle_len(), Some(9));
        assert_eq!(mcb.max_cycle_len(), Some(9));
    }

    #[test]
    fn mcb_of_grid_is_unit_squares() {
        let g = generators::grid_graph(4, 5);
        let mcb = minimum_cycle_basis(&g);
        assert_eq!(mcb.dimension(), 12);
        assert!(mcb.cycles().iter().all(|c| c.len() == 4 && c.is_simple(&g)));
        assert_eq!(mcb.total_length(), 48);
    }

    #[test]
    fn mcb_of_complete_graph_is_triangles() {
        let g = generators::complete_graph(6);
        let mcb = minimum_cycle_basis(&g);
        assert_eq!(mcb.dimension(), 10);
        assert!(mcb.cycles().iter().all(|c| c.len() == 3));
    }

    #[test]
    fn mcb_of_theta_graph() {
        // Paths with 1, 2, 3 internal nodes: cycles of length 5, 6, 7;
        // the MCB takes the two shortest.
        let g = generators::theta_graph(1, 2, 3);
        let mcb = minimum_cycle_basis(&g);
        assert_eq!(mcb.dimension(), 2);
        let lens: Vec<usize> = mcb.cycles().iter().map(Cycle::len).collect();
        assert_eq!(lens, vec![5, 6]);
        assert_eq!(
            irreducible_cycle_bounds(&g),
            Some(IrreducibleBounds { min: 5, max: 6 })
        );
    }

    #[test]
    fn mcb_of_petersen() {
        // Petersen: ν = 6, all MCB cycles are 5-cycles (total length 30).
        let mcb = minimum_cycle_basis(&generators::petersen_graph());
        assert_eq!(mcb.dimension(), 6);
        assert_eq!(mcb.total_length(), 30);
    }

    #[test]
    fn mcb_of_wheel_is_triangles() {
        let g = generators::wheel_graph(7);
        let mcb = minimum_cycle_basis(&g);
        assert_eq!(mcb.dimension(), 7);
        assert!(mcb.cycles().iter().all(|c| c.len() == 3));
    }

    #[test]
    fn forest_has_no_basis() {
        let mcb = minimum_cycle_basis(&generators::path_graph(6));
        assert_eq!(mcb.dimension(), 0);
        assert_eq!(mcb.min_cycle_len(), None);
        assert!(irreducible_cycle_bounds(&generators::path_graph(6)).is_none());
    }

    #[test]
    fn disconnected_components_both_counted() {
        let g = Graph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 0), // triangle
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 3), // square
                        // node 7 isolated
            ],
        )
        .unwrap();
        let mcb = minimum_cycle_basis(&g);
        assert_eq!(mcb.dimension(), 2);
        let lens: Vec<usize> = mcb.cycles().iter().map(Cycle::len).collect();
        assert_eq!(lens, vec![3, 4]);
        assert_eq!(
            irreducible_cycle_bounds(&g),
            Some(IrreducibleBounds { min: 3, max: 4 })
        );
    }

    #[test]
    fn candidates_are_simple() {
        let g = generators::grid_graph(3, 3);
        for c in horton_candidates(&g) {
            assert!(c.is_simple(&g));
        }
    }

    #[test]
    fn king_grid_bounds_are_triangles() {
        let b = irreducible_cycle_bounds(&generators::king_grid_graph(4, 4)).unwrap();
        assert_eq!(b, IrreducibleBounds { min: 3, max: 3 });
    }

    /// The `n × n` square lattice with its centre node removed: the four unit
    /// squares around the centre merge into one 8-cycle hole.
    fn holed_lattice(n: usize) -> Graph {
        let g = generators::grid_graph(n, n);
        let centre = NodeId::from(n / 2 * n + n / 2);
        let keep: Vec<NodeId> = g.nodes().filter(|&v| v != centre).collect();
        g.induced_subgraph(&keep)
            .expect("lattice nodes exist")
            .graph
    }

    #[test]
    fn max_irreducible_predicate_matches_bounds() {
        let mut cases: Vec<(Graph, Option<usize>)> = [
            generators::grid_graph(4, 4),
            generators::king_grid_graph(3, 3),
            generators::petersen_graph(),
            generators::theta_graph(1, 2, 3),
            generators::wheel_graph(6),
            generators::path_graph(5),
        ]
        .into_iter()
        .map(|g| {
            let max = irreducible_cycle_bounds(&g).map(|b| b.max);
            (g, max)
        })
        .collect();
        // Square lattices reach every annihilator width: at τ = 3 and 4 the
        // 8×8, 10×10, 14×14 and 18×18 lattices seed 1-, 2-, 4- and 5-word
        // annihilators (at τ = 4: 42, 72, 156 and 272 live functionals).
        // With the centre removed, the 8-cycle hole keeps τ = 4…7 false
        // after the 4-cycle tier has eliminated every unit square. Their
        // longest irreducible cycle is known (the unit square, or the hole),
        // so they skip the basis build, which costs ten times their kernel
        // calls and would dominate this suite's Miri run.
        for n in [8, 10, 14, 18] {
            cases.push((generators::grid_graph(n, n), Some(4)));
            cases.push((holed_lattice(n), Some(8)));
        }
        for (g, max) in &cases {
            for tau in 2..=8 {
                let expected = max.is_none_or(|m| m <= tau);
                assert_eq!(
                    max_irreducible_at_most(g, tau),
                    expected,
                    "graph {g:?} tau={tau}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_evaluation() {
        // One scratch across many graphs of different edge counts must give
        // exactly the answers of per-call fresh state.
        let cases: Vec<Graph> = vec![
            generators::king_grid_graph(3, 4),
            generators::path_graph(4),
            generators::petersen_graph(),
            generators::grid_graph(4, 4),
            generators::complete_graph(5),
            generators::theta_graph(1, 2, 3),
        ];
        let mut scratch = CycleScratch::default();
        for tau in 2..=9 {
            for g in &cases {
                assert_eq!(
                    max_irreducible_at_most_with(g, tau, &mut scratch),
                    max_irreducible_at_most(g, tau),
                    "graph {g:?} tau={tau}"
                );
            }
        }
    }

    use confine_graph::Graph;
}
