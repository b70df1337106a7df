//! Cycles as GF(2) edge-incidence vectors.
//!
//! Following Sec. IV-A of the paper, a cycle `C` of a graph `H` is identified
//! by its incidence vector `b(C)` over `E(H)`; the *cycle space* is the set
//! of all edge subsets in which every vertex has even degree, and cycle
//! addition is the symmetric difference of edge sets.

use std::error::Error;
use std::fmt;

use confine_graph::{EdgeId, Graph, NodeId};

use crate::gf2::BitVec;

/// Errors produced while constructing [`Cycle`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CycleError {
    /// The requested walk uses a pair of consecutive vertices that are not
    /// adjacent in the graph.
    MissingEdge {
        /// First endpoint of the missing edge.
        a: NodeId,
        /// Second endpoint of the missing edge.
        b: NodeId,
    },
    /// The edge subset is not a member of the cycle space: some vertex has
    /// odd degree in it.
    OddVertex {
        /// A vertex with odd incidence.
        node: NodeId,
    },
    /// A vertex sequence shorter than 3 cannot describe a simple cycle.
    TooShort {
        /// Number of vertices supplied.
        len: usize,
    },
    /// The vertex sequence repeats a vertex, so it is not a *simple* cycle.
    RepeatedVertex {
        /// The repeated vertex.
        node: NodeId,
    },
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CycleError::MissingEdge { a, b } => write!(f, "no edge between {a:?} and {b:?}"),
            CycleError::OddVertex { node } => {
                write!(f, "vertex {node:?} has odd degree in the edge subset")
            }
            CycleError::TooShort { len } => {
                write!(f, "a simple cycle needs at least 3 vertices, got {len}")
            }
            CycleError::RepeatedVertex { node } => {
                write!(f, "vertex {node:?} repeats in the cycle sequence")
            }
        }
    }
}

impl Error for CycleError {}

/// An element of a graph's cycle space, stored as an edge-incidence vector.
///
/// Despite the name, a `Cycle` value may be a *sum* of simple cycles (any
/// even-degree edge subset); [`Cycle::is_simple`] distinguishes genuine
/// simple cycles. The vector length equals the edge count of the graph the
/// cycle was built against, and edge bits are [`EdgeId`] indices of that
/// graph.
///
/// # Example
///
/// ```
/// use confine_cycles::Cycle;
/// use confine_graph::{generators, NodeId};
///
/// let g = generators::cycle_graph(4);
/// let c = Cycle::from_vertex_cycle(&g, &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)])?;
/// assert_eq!(c.len(), 4);
/// assert!(c.is_simple(&g));
/// # Ok::<(), confine_cycles::CycleError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cycle {
    edges: BitVec,
}

impl Cycle {
    /// Builds a cycle-space element from raw edge ids.
    ///
    /// Edges listed an even number of times cancel out (GF(2) semantics).
    ///
    /// # Errors
    ///
    /// Returns [`CycleError::OddVertex`] if the resulting edge subset has a
    /// vertex of odd degree (i.e. it is not in the cycle space).
    pub fn from_edge_ids<I>(graph: &Graph, edges: I) -> Result<Self, CycleError>
    where
        I: IntoIterator<Item = EdgeId>,
    {
        let mut vec = BitVec::zeros(graph.edge_count());
        for e in edges {
            vec.flip(e.index());
        }
        Self::from_edge_vec(graph, vec)
    }

    /// Builds a cycle-space element from an incidence vector.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError::OddVertex`] if some vertex has odd degree in the
    /// edge subset.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from `graph.edge_count()`.
    pub fn from_edge_vec(graph: &Graph, vec: BitVec) -> Result<Self, CycleError> {
        assert_eq!(
            vec.len(),
            graph.edge_count(),
            "incidence vector length mismatch"
        );
        let mut parity = vec![false; graph.node_count()];
        for e in vec.ones() {
            let (a, b) = graph.endpoints(EdgeId::from(e));
            parity[a.index()] = !parity[a.index()];
            parity[b.index()] = !parity[b.index()];
        }
        if let Some(i) = parity.iter().position(|&p| p) {
            return Err(CycleError::OddVertex {
                node: NodeId::from(i),
            });
        }
        Ok(Cycle { edges: vec })
    }

    /// Builds a simple cycle from a vertex sequence `v0, v1, …, vk` standing
    /// for the closed walk `v0 — v1 — … — vk — v0`.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError::TooShort`] for fewer than 3 vertices,
    /// [`CycleError::RepeatedVertex`] if the sequence repeats a vertex, and
    /// [`CycleError::MissingEdge`] if consecutive vertices are not adjacent.
    pub fn from_vertex_cycle(graph: &Graph, vertices: &[NodeId]) -> Result<Self, CycleError> {
        if vertices.len() < 3 {
            return Err(CycleError::TooShort {
                len: vertices.len(),
            });
        }
        let mut seen = vec![false; graph.node_count()];
        for &v in vertices {
            if std::mem::replace(&mut seen[v.index()], true) {
                return Err(CycleError::RepeatedVertex { node: v });
            }
        }
        let mut vec = BitVec::zeros(graph.edge_count());
        for i in 0..vertices.len() {
            let a = vertices[i];
            let b = vertices[(i + 1) % vertices.len()];
            let e = graph
                .edge_between(a, b)
                .ok_or(CycleError::MissingEdge { a, b })?;
            vec.set(e.index(), true);
        }
        Ok(Cycle { edges: vec })
    }

    /// The zero element of the cycle space (no edges).
    pub fn zero(graph: &Graph) -> Self {
        Cycle {
            edges: BitVec::zeros(graph.edge_count()),
        }
    }

    /// Number of edges in the element (the cycle length for simple cycles).
    pub fn len(&self) -> usize {
        self.edges.count_ones()
    }

    /// Returns `true` if this is the zero element.
    pub fn is_empty(&self) -> bool {
        self.edges.is_zero()
    }

    /// The underlying incidence vector.
    pub fn edge_vec(&self) -> &BitVec {
        &self.edges
    }

    /// Iterates over the edge ids in the element.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.ones().map(EdgeId::from)
    }

    /// GF(2) sum with another element of the same graph's cycle space.
    ///
    /// # Panics
    ///
    /// Panics if the two elements come from graphs with different edge
    /// counts.
    pub fn sum(&self, other: &Cycle) -> Cycle {
        Cycle {
            edges: self.edges.xor(&other.edges),
        }
    }

    /// Returns `true` if the element is a single simple cycle of `graph`:
    /// non-empty, connected, and every touched vertex has degree exactly 2.
    pub fn is_simple(&self, graph: &Graph) -> bool {
        if self.is_empty() {
            return false;
        }
        let mut deg = vec![0u32; graph.node_count()];
        let mut touched = Vec::new();
        for e in self.edge_ids() {
            let (a, b) = graph.endpoints(e);
            for v in [a, b] {
                if deg[v.index()] == 0 {
                    touched.push(v);
                }
                deg[v.index()] += 1;
            }
        }
        if touched.iter().any(|&v| deg[v.index()] != 2) {
            return false;
        }
        // Walk the cycle from any touched vertex; a simple cycle visits every
        // touched vertex exactly once before returning.
        let start = touched[0];
        let mut visited = 1usize;
        let mut prev = start;
        let mut cur = start;
        loop {
            let next = graph
                .incident(cur)
                .find(|&(w, e)| self.edges.get(e.index()) && w != prev)
                .map(|(w, _)| w);
            let Some(next) = next else { return false };
            if next == start {
                break;
            }
            visited += 1;
            prev = cur;
            cur = next;
            if visited > touched.len() {
                return false;
            }
        }
        visited == touched.len()
    }

    /// Recovers the vertex sequence of a simple cycle, starting from its
    /// smallest vertex and walking towards its smaller neighbour.
    ///
    /// Returns `None` if the element is not a simple cycle.
    pub fn vertex_cycle(&self, graph: &Graph) -> Option<Vec<NodeId>> {
        if !self.is_simple(graph) {
            return None;
        }
        let start = self
            .edge_ids()
            .flat_map(|e| {
                let (a, b) = graph.endpoints(e);
                [a, b]
            })
            .min()?;
        let mut seq = vec![start];
        let mut prev = start;
        let mut cur = start;
        loop {
            // is_simple guaranteed degree 2 above; `?` keeps the walk total.
            let next = graph
                .incident(cur)
                .filter(|&(w, e)| self.edges.get(e.index()) && w != prev)
                .map(|(w, _)| w)
                .min()?;
            if next == start {
                break;
            }
            seq.push(next);
            prev = cur;
            cur = next;
        }
        Some(seq)
    }
}

impl fmt::Debug for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cycle(len={}, edges=", self.len())?;
        f.debug_list().entries(self.edge_ids()).finish()?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confine_graph::generators;

    #[test]
    fn from_vertex_cycle_roundtrip() {
        let g = generators::cycle_graph(5);
        let vs: Vec<NodeId> = (0..5).map(NodeId::from).collect();
        let c = Cycle::from_vertex_cycle(&g, &vs).unwrap();
        assert_eq!(c.len(), 5);
        assert!(c.is_simple(&g));
        assert_eq!(c.vertex_cycle(&g), Some(vs));
    }

    #[test]
    fn rejects_non_adjacent() {
        let g = generators::path_graph(4);
        let err = Cycle::from_vertex_cycle(&g, &[NodeId(0), NodeId(1), NodeId(3)]).unwrap_err();
        assert_eq!(
            err,
            CycleError::MissingEdge {
                a: NodeId(1),
                b: NodeId(3)
            }
        );
    }

    #[test]
    fn rejects_short_and_repeated() {
        let g = generators::cycle_graph(4);
        assert_eq!(
            Cycle::from_vertex_cycle(&g, &[NodeId(0), NodeId(1)]),
            Err(CycleError::TooShort { len: 2 })
        );
        assert_eq!(
            Cycle::from_vertex_cycle(&g, &[NodeId(0), NodeId(1), NodeId(0), NodeId(3)]),
            Err(CycleError::RepeatedVertex { node: NodeId(0) })
        );
    }

    #[test]
    fn from_edge_ids_checks_parity() {
        let g = generators::path_graph(3);
        let e0 = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let err = Cycle::from_edge_ids(&g, [e0]).unwrap_err();
        assert!(matches!(err, CycleError::OddVertex { .. }));
    }

    #[test]
    fn duplicate_edges_cancel() {
        let g = generators::cycle_graph(3);
        let e0 = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let c = Cycle::from_edge_ids(&g, [e0, e0]).unwrap();
        assert!(c.is_empty());
        assert!(!c.is_simple(&g), "the zero element is not a simple cycle");
    }

    #[test]
    fn sum_of_adjacent_triangles() {
        // Two triangles sharing an edge sum to the outer 4-cycle.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]).unwrap();
        let t1 = Cycle::from_vertex_cycle(&g, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let t2 = Cycle::from_vertex_cycle(&g, &[NodeId(0), NodeId(2), NodeId(3)]).unwrap();
        let outer = t1.sum(&t2);
        assert_eq!(outer.len(), 4);
        assert!(outer.is_simple(&g));
        assert_eq!(
            outer.vertex_cycle(&g),
            Some(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)])
        );
    }

    #[test]
    fn disjoint_union_is_not_simple() {
        let mut g = Graph::new();
        g.add_nodes(6);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            g.add_edge(NodeId::from(a), NodeId::from(b)).unwrap();
        }
        let t1 = Cycle::from_vertex_cycle(&g, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let t2 = Cycle::from_vertex_cycle(&g, &[NodeId(3), NodeId(4), NodeId(5)]).unwrap();
        let both = t1.sum(&t2);
        assert_eq!(both.len(), 6);
        assert!(!both.is_simple(&g));
        assert_eq!(both.vertex_cycle(&g), None);
        // But it is still a valid cycle-space member.
        assert!(Cycle::from_edge_vec(&g, both.edge_vec().clone()).is_ok());
    }

    #[test]
    fn zero_cycle() {
        let g = generators::cycle_graph(4);
        let z = Cycle::zero(&g);
        assert!(z.is_empty());
        assert_eq!(z.len(), 0);
        assert_eq!(format!("{z:?}"), "Cycle(len=0, edges=[])");
    }

    use confine_graph::Graph;
}
