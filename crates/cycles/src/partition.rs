//! Cycle partitions and the `τ`-partitionability test (Sec. IV of the paper).
//!
//! A **cycle partition** of a cycle `C` is a set of cycles whose GF(2) sum is
//! `C` (Definition 2); `C` is **`τ`-partitionable** if some partition uses
//! only cycles of length ≤ `τ` (Definition 3). For multiple boundary cycles
//! `C_B`, the target is their sum (the extension below Definition 3).
//!
//! # Exactness
//!
//! The test implemented here is *exact*, via minimum-cycle-basis theory:
//!
//! 1. In an MCB, every cycle `C` of the graph decomposes over basis cycles of
//!    length ≤ `|C|` (classical exchange argument).
//! 2. Hence the span of *all* cycles of length ≤ `τ` equals the span of the
//!    MCB cycles of length ≤ `τ`.
//! 3. A cycle-space element has a *unique* decomposition over any basis, so:
//!    a target is a sum of cycles of length ≤ `τ` **iff** its MCB
//!    decomposition uses only basis cycles of length ≤ `τ`.
//!
//! Both directions of step 3 are property-tested against brute-force
//! enumeration in [`crate::brute`].
//!
//! The yes/no question at one `τ` needs no basis: [`is_tau_partitionable`]
//! asks the span kernel of [`crate::horton`] directly whether the target
//! lies in the span of the cycles of length ≤ `τ` (DESIGN.md §5 shows the
//! kernel's candidates span exactly that set). [`PartitionTester`] stays
//! the reference for the smallest `τ` and for explicit partitions.

use confine_graph::Graph;

use crate::cycle::Cycle;
use crate::gf2::BitVec;
use crate::horton::{minimum_cycle_basis, short_cycles_span, CycleScratch, Mcb};
use crate::linalg::Decomposer;

/// A reusable `τ`-partitionability tester for one graph, backed by a minimum
/// cycle basis.
///
/// Building the basis dominates the cost (about 20 ms on the churn
/// harness's 120-node graphs), so build the tester once per graph and query
/// it for any number of targets and any `τ`. It answers what
/// [`is_tau_partitionable`] cannot: the smallest `τ` of a target and an
/// explicit partition.
///
/// # Example
///
/// ```
/// use confine_cycles::partition::PartitionTester;
/// use confine_cycles::Cycle;
/// use confine_graph::{generators, NodeId};
///
/// // In a 3×3 grid the outer 8-cycle is the sum of the four unit squares.
/// let g = generators::grid_graph(3, 3);
/// let outer = Cycle::from_vertex_cycle(
///     &g,
///     &[0, 1, 2, 5, 8, 7, 6, 3].map(NodeId).to_vec(),
/// )?;
/// let tester = PartitionTester::new(&g);
/// assert!(tester.is_partitionable(outer.edge_vec(), 4));
/// assert!(!tester.is_partitionable(outer.edge_vec(), 3));
/// # Ok::<(), confine_cycles::CycleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PartitionTester {
    mcb: Mcb,
    decomposer: Decomposer,
}

impl PartitionTester {
    /// Builds the tester by computing a minimum cycle basis of `graph`.
    pub fn new(graph: &Graph) -> Self {
        Self::from_mcb(minimum_cycle_basis(graph))
    }

    /// Builds the tester from a pre-computed minimum cycle basis.
    pub fn from_mcb(mcb: Mcb) -> Self {
        let vectors: Vec<BitVec> = mcb.cycles().iter().map(|c| c.edge_vec().clone()).collect();
        let decomposer = Decomposer::from_basis(mcb.edge_count(), &vectors);
        PartitionTester { mcb, decomposer }
    }

    /// The minimum cycle basis backing this tester.
    pub fn mcb(&self) -> &Mcb {
        &self.mcb
    }

    /// Smallest `τ` for which `target` is `τ`-partitionable, or `None` when
    /// `target` is outside the cycle space.
    ///
    /// The zero target partitions trivially (`Some(0)`).
    ///
    /// # Panics
    ///
    /// Panics if `target` has a different length than the graph's edge count.
    pub fn min_partition_tau(&self, target: &BitVec) -> Option<usize> {
        let used = self.decomposer.decompose(target)?;
        #[cfg(feature = "strict-invariants")]
        self.assert_partition_sums(&used, target);
        Some(
            used.iter()
                .map(|&i| self.mcb.cycles()[i].len())
                .max()
                .unwrap_or(0),
        )
    }

    /// Is `target` a GF(2) sum of cycles each of length ≤ `tau`?
    ///
    /// Returns `false` for targets outside the cycle space (e.g. vectors with
    /// odd vertices).
    pub fn is_partitionable(&self, target: &BitVec, tau: usize) -> bool {
        self.min_partition_tau(target).is_some_and(|t| t <= tau)
    }

    /// Produces an explicit cycle partition of `target` bounded by its
    /// minimal `τ`: the MCB cycles whose sum is `target`.
    ///
    /// Returns `None` when `target` is outside the cycle space.
    pub fn partition(&self, target: &BitVec) -> Option<Vec<Cycle>> {
        let used = self.decomposer.decompose(target)?;
        #[cfg(feature = "strict-invariants")]
        self.assert_partition_sums(&used, target);
        Some(
            used.into_iter()
                .map(|i| self.mcb.cycles()[i].clone())
                .collect(),
        )
    }

    /// Partition soundness: the basis cycles the decomposer reports must
    /// actually sum (GF(2)) to the target — otherwise the reported `τ` bound
    /// certifies a partition that does not exist.
    #[cfg(feature = "strict-invariants")]
    fn assert_partition_sums(&self, used: &[usize], target: &BitVec) {
        let mut sum = BitVec::zeros(target.len());
        for &i in used {
            sum.xor_assign(self.mcb.cycles()[i].edge_vec());
        }
        assert_eq!(
            &sum, target,
            "strict-invariants: decomposed cycle partition does not sum to the target"
        );
    }
}

/// Is `target` a GF(2) sum of cycles of `graph` each of length ≤ `tau`?
///
/// Same answer as [`PartitionTester::is_partitionable`], without building a
/// minimum cycle basis: a target with an odd-degree vertex is outside the
/// cycle space and fails; any other is tested against the span of the
/// short cycles by the word-level kernel behind
/// [`crate::horton::max_irreducible_at_most_with`]. On the churn harness's
/// 120-node graphs that takes about 0.4 ms at `τ = 4` and 1 ms at `τ = 6`,
/// against about 20 ms for the basis. Use the tester for the smallest `τ`
/// or an explicit partition.
///
/// # Panics
///
/// Panics if `target` has a different length than the graph's edge count.
pub fn is_tau_partitionable(graph: &Graph, target: &BitVec, tau: usize) -> bool {
    // `from_edge_vec` rejects a target with an odd-degree vertex.
    Cycle::from_edge_vec(graph, target.clone()).is_ok()
        && short_cycles_span(graph, target, tau, &mut CycleScratch::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use confine_graph::{generators, NodeId};

    /// The outer boundary walk of a `w × h` grid, in grid node ids.
    fn outer_grid_walk(w: usize, h: usize) -> Vec<NodeId> {
        let mut seq = Vec::new();
        for x in 0..w {
            seq.push(NodeId::from(x));
        }
        for y in 1..h {
            seq.push(NodeId::from(y * w + (w - 1)));
        }
        for x in (0..w - 1).rev() {
            seq.push(NodeId::from((h - 1) * w + x));
        }
        for y in (1..h - 1).rev() {
            seq.push(NodeId::from(y * w));
        }
        seq
    }

    fn outer_grid_cycle(g: &Graph, w: usize, h: usize) -> Cycle {
        Cycle::from_vertex_cycle(g, &outer_grid_walk(w, h)).expect("grid boundary is a cycle")
    }

    /// The `n × n` square lattice, whole or with its centre node removed
    /// (the four unit squares around the centre merge into one 8-cycle
    /// hole), and its outer boundary cycle.
    fn lattice_and_boundary(n: usize, holed: bool) -> (Graph, BitVec) {
        let g = generators::grid_graph(n, n);
        let centre = NodeId::from(n / 2 * n + n / 2);
        let keep: Vec<NodeId> = g.nodes().filter(|&v| !holed || v != centre).collect();
        let sub = g.induced_subgraph(&keep).expect("lattice nodes exist");
        let walk: Vec<NodeId> = outer_grid_walk(n, n)
            .into_iter()
            .map(|v| sub.from_parent(v).expect("the centre is off the boundary"))
            .collect();
        let outer = Cycle::from_vertex_cycle(&sub.graph, &walk).expect("grid boundary is a cycle");
        (sub.graph, outer.edge_vec().clone())
    }

    #[test]
    fn grid_boundary_partitions_into_squares() {
        let (w, h) = (5, 4);
        let g = generators::grid_graph(w, h);
        let outer = outer_grid_cycle(&g, w, h);
        let tester = PartitionTester::new(&g);
        assert_eq!(tester.min_partition_tau(outer.edge_vec()), Some(4));
        assert!(tester.is_partitionable(outer.edge_vec(), 4));
        assert!(tester.is_partitionable(outer.edge_vec(), 9));
        assert!(!tester.is_partitionable(outer.edge_vec(), 3));

        // The explicit partition must actually sum to the target.
        let parts = tester.partition(outer.edge_vec()).unwrap();
        assert_eq!(
            parts.len(),
            (w - 1) * (h - 1),
            "all unit squares participate"
        );
        let mut sum = BitVec::zeros(g.edge_count());
        for p in &parts {
            assert!(p.len() <= 4);
            sum.xor_assign(p.edge_vec());
        }
        assert_eq!(&sum, outer.edge_vec());
    }

    #[test]
    fn plain_cycle_graph_only_partitions_as_itself() {
        let g = generators::cycle_graph(8);
        let all: Vec<NodeId> = (0..8).map(NodeId::from).collect();
        let c = Cycle::from_vertex_cycle(&g, &all).unwrap();
        let tester = PartitionTester::new(&g);
        assert_eq!(tester.min_partition_tau(c.edge_vec()), Some(8));
        assert!(!tester.is_partitionable(c.edge_vec(), 7));
        assert!(tester.is_partitionable(c.edge_vec(), 8));
    }

    #[test]
    fn zero_target_is_always_partitionable() {
        let g = generators::grid_graph(3, 3);
        let tester = PartitionTester::new(&g);
        let zero = BitVec::zeros(g.edge_count());
        assert_eq!(tester.min_partition_tau(&zero), Some(0));
        assert!(tester.is_partitionable(&zero, 0));
        assert_eq!(tester.partition(&zero), Some(vec![]));
    }

    #[test]
    fn non_cycle_vector_is_rejected() {
        let g = generators::grid_graph(3, 3);
        let tester = PartitionTester::new(&g);
        let single = BitVec::from_indices(g.edge_count(), &[0]);
        assert_eq!(tester.min_partition_tau(&single), None);
        assert!(!tester.is_partitionable(&single, 100));
        assert_eq!(tester.partition(&single), None);
    }

    #[test]
    fn wheel_rim_partitions_into_triangles() {
        let g = generators::wheel_graph(9);
        let rim: Vec<NodeId> = (1..=9).map(NodeId::from).collect();
        let c = Cycle::from_vertex_cycle(&g, &rim).unwrap();
        assert!(is_tau_partitionable(&g, c.edge_vec(), 3));
        assert!(!is_tau_partitionable(&g, c.edge_vec(), 2));
    }

    #[test]
    fn span_kernel_test_matches_tester() {
        // The theta graph (cycles 5, 6, 7) and the 8-cycle reach the
        // kernel's depth-capped sweep; the rest settle in the triangle and
        // 4-cycle tiers or in the seeding.
        let graphs = [
            generators::grid_graph(4, 3),
            generators::king_grid_graph(3, 3),
            generators::cycle_graph(8),
            generators::wheel_graph(6),
            generators::theta_graph(1, 2, 3),
            generators::path_graph(5),
        ];
        for g in &graphs {
            let tester = PartitionTester::new(g);
            let mut targets = vec![BitVec::zeros(g.edge_count())];
            let mut sum = BitVec::zeros(g.edge_count());
            for c in tester.mcb().cycles() {
                sum.xor_assign(c.edge_vec());
                targets.push(c.edge_vec().clone());
                targets.push(sum.clone());
            }
            if g.edge_count() > 0 {
                targets.push(BitVec::from_indices(g.edge_count(), &[0]));
            }
            for t in &targets {
                for tau in 0..=10 {
                    assert_eq!(
                        is_tau_partitionable(g, t, tau),
                        tester.is_partitionable(t, tau),
                        "graph {g:?} target {t:?} tau {tau}"
                    );
                }
            }
        }
        // Square lattices reach every annihilator width: at τ = 3 and 4 the
        // 8×8, 10×10, 14×14 and 18×18 lattices seed 1-, 2-, 4- and 5-word
        // annihilators. The outer boundary is 4-partitionable; around the
        // centre's 8-cycle hole it needs τ = 8, so τ = 4…7 test it against
        // the one functional the tiers leave alive. The tester confirms that
        // smallest τ on the two smaller lattices; on the larger ones its
        // basis build would dominate this suite's Miri run.
        for n in [8, 10, 14, 18] {
            for holed in [false, true] {
                let (g, outer) = lattice_and_boundary(n, holed);
                let min_tau = if holed { 8 } else { 4 };
                if n <= 10 {
                    let tester = PartitionTester::new(&g);
                    assert_eq!(tester.min_partition_tau(&outer), Some(min_tau));
                }
                for tau in 0..=10 {
                    assert_eq!(
                        is_tau_partitionable(&g, &outer, tau),
                        tau >= min_tau,
                        "{n}×{n} lattice (holed: {holed}) tau {tau}"
                    );
                }
            }
        }
    }

    #[test]
    fn partitionability_is_monotone_in_tau() {
        let g = generators::king_grid_graph(4, 3);
        let outer = outer_grid_cycle(&g, 4, 3);
        let tester = PartitionTester::new(&g);
        let min_tau = tester.min_partition_tau(outer.edge_vec()).unwrap();
        assert_eq!(min_tau, 3, "king grids triangulate the boundary");
        for tau in 0..10 {
            assert_eq!(
                tester.is_partitionable(outer.edge_vec(), tau),
                tau >= min_tau
            );
        }
    }

    use confine_graph::Graph;
}
