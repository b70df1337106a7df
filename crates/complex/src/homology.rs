//! GF(2) simplicial homology of 2-complexes.
//!
//! For a 2-complex `K` with chain groups `C₂ → C₁ → C₀` over GF(2), the
//! Betti numbers are
//!
//! ```text
//! b0 = dim C0 − rank ∂1
//! b1 = dim C1 − rank ∂1 − rank ∂2
//! b2 = dim C2 − rank ∂2
//! ```
//!
//! The HGC coverage criterion also needs **relative** homology `H_k(K, A)`
//! for a fence subcomplex `A`: the relative chain groups drop the simplices
//! of `A`, and boundary maps project away faces that land in `A`. The same
//! rank formulas then apply to the restricted matrices.
//!
//! Ranks are computed by dense GF(2) column elimination on bit-packed
//! vectors, which is fast enough for complexes with tens of thousands of
//! triangles.

use confine_graph::NodeId;

use crate::complex::Complex2;

/// A dense GF(2) matrix stored column-wise as bit-packed vectors.
///
/// Only the operations needed for rank computation are provided.
#[derive(Debug, Clone)]
pub struct Gf2Matrix {
    rows: usize,
    columns: Vec<Vec<u64>>,
}

impl Gf2Matrix {
    /// Creates a matrix with `rows` rows and no columns.
    pub fn new(rows: usize) -> Self {
        Gf2Matrix {
            rows,
            columns: Vec::new(),
        }
    }

    /// Appends a column given the indices of its set rows.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn push_column(&mut self, set_rows: &[usize]) {
        let mut col = vec![0u64; self.rows.div_ceil(64)];
        for &r in set_rows {
            assert!(
                r < self.rows,
                "row index {r} out of range ({} rows)",
                self.rows
            );
            col[r / 64] |= 1 << (r % 64);
        }
        self.columns.push(col);
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// GF(2) rank by column elimination.
    ///
    /// Consumes the matrix (columns are reduced in place).
    pub fn rank(mut self) -> usize {
        // pivot_of[r] = index into `reduced` of the column whose lowest set
        // bit is row r.
        let mut pivot_of: Vec<Option<usize>> = vec![None; self.rows];
        let mut reduced: Vec<Vec<u64>> = Vec::new();
        let mut rank = 0;
        for mut col in std::mem::take(&mut self.columns) {
            while let Some(low) = lowest_set_bit(&col) {
                match pivot_of[low] {
                    Some(other) => xor_in(&mut col, &reduced[other]),
                    None => {
                        pivot_of[low] = Some(reduced.len());
                        reduced.push(col);
                        rank += 1;
                        break;
                    }
                }
            }
        }
        rank
    }
}

fn lowest_set_bit(col: &[u64]) -> Option<usize> {
    for (i, &w) in col.iter().enumerate() {
        if w != 0 {
            return Some(i * 64 + w.trailing_zeros() as usize);
        }
    }
    None
}

fn xor_in(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Builds the boundary matrix `∂1 : C1 → C0` of `k`.
pub fn boundary_1(k: &Complex2) -> Gf2Matrix {
    let mut m = Gf2Matrix::new(k.vertex_count());
    for &[a, b] in k.edges() {
        let ra = k
            .vertex_position(a)
            .expect("closure: endpoints are vertices");
        let rb = k
            .vertex_position(b)
            .expect("closure: endpoints are vertices");
        m.push_column(&[ra, rb]);
    }
    m
}

/// Builds the boundary matrix `∂2 : C2 → C1` of `k`.
pub fn boundary_2(k: &Complex2) -> Gf2Matrix {
    let mut m = Gf2Matrix::new(k.edge_count());
    for &[a, b, c] in k.triangles() {
        let e0 = k.edge_position(a, b).expect("closure: faces are edges");
        let e1 = k.edge_position(a, c).expect("closure: faces are edges");
        let e2 = k.edge_position(b, c).expect("closure: faces are edges");
        m.push_column(&[e0, e1, e2]);
    }
    m
}

/// Absolute GF(2) Betti numbers `[b0, b1, b2]` of a 2-complex.
///
/// # Example
///
/// ```
/// use confine_complex::{homology, rips};
/// use confine_graph::generators;
///
/// // Theta graph: two independent 1-cycles.
/// let k = rips::rips_complex(&generators::theta_graph(1, 2, 3));
/// assert_eq!(homology::betti_numbers(&k), [1, 2, 0]);
/// ```
pub fn betti_numbers(k: &Complex2) -> [usize; 3] {
    let r1 = boundary_1(k).rank();
    let r2 = boundary_2(k).rank();
    [
        k.vertex_count() - r1,
        k.edge_count() - r1 - r2,
        k.triangle_count() - r2,
    ]
}

/// Relative GF(2) Betti numbers `[b0, b1, b2]` of the pair `(K, A)` where
/// `A` is the subcomplex of `K` induced by `fence` vertices.
///
/// The relative chain complex keeps only simplices with at least one vertex
/// outside the fence; boundary faces that fall inside `A` are projected away.
///
/// `H1(K, A) = 0` (i.e. `b1 == 0`) is the homology-group coverage criterion
/// the paper compares against (HGC).
pub fn relative_betti_numbers<F>(k: &Complex2, fence: F) -> [usize; 3]
where
    F: Fn(NodeId) -> bool,
{
    // Dense indices of the *relative* simplices per dimension.
    let mut v_rel: Vec<Option<usize>> = vec![None; k.vertex_count()];
    let mut nv = 0;
    for (i, &v) in k.vertices().iter().enumerate() {
        if !fence(v) {
            v_rel[i] = Some(nv);
            nv += 1;
        }
    }
    let mut e_rel: Vec<Option<usize>> = vec![None; k.edge_count()];
    let mut ne = 0;
    for (i, &[a, b]) in k.edges().iter().enumerate() {
        if !(fence(a) && fence(b)) {
            e_rel[i] = Some(ne);
            ne += 1;
        }
    }
    let mut nt = 0;
    let mut d2 = Gf2Matrix::new(ne);
    let mut d1 = Gf2Matrix::new(nv);
    for (i, &[a, b]) in k.edges().iter().enumerate() {
        if e_rel[i].is_none() {
            continue;
        }
        let mut rows = Vec::with_capacity(2);
        for v in [a, b] {
            let vi = k.vertex_position(v).expect("closure");
            if let Some(r) = v_rel[vi] {
                rows.push(r);
            }
        }
        d1.push_column(&rows);
    }
    for &[a, b, c] in k.triangles() {
        if fence(a) && fence(b) && fence(c) {
            continue;
        }
        nt += 1;
        let mut rows = Vec::with_capacity(3);
        for (x, y) in [(a, b), (a, c), (b, c)] {
            let ei = k.edge_position(x, y).expect("closure");
            if let Some(r) = e_rel[ei] {
                rows.push(r);
            }
        }
        d2.push_column(&rows);
    }
    let r1 = d1.rank();
    let r2 = d2.rank();
    [nv - r1, ne - r1 - r2, nt - r2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rips::rips_complex;
    use confine_graph::{generators, Graph};

    #[test]
    fn rank_of_small_matrices() {
        let mut m = Gf2Matrix::new(3);
        m.push_column(&[0, 1]);
        m.push_column(&[1, 2]);
        m.push_column(&[0, 2]); // dependent
        assert_eq!(m.column_count(), 3);
        assert_eq!(m.rank(), 2);
        assert_eq!(Gf2Matrix::new(5).rank(), 0);
        let mut id = Gf2Matrix::new(4);
        for i in 0..4 {
            id.push_column(&[i]);
        }
        assert_eq!(id.rank(), 4);
    }

    #[test]
    fn betti_of_contractible_spaces() {
        assert_eq!(
            betti_numbers(&rips_complex(&generators::path_graph(5))),
            [1, 0, 0]
        );
        assert_eq!(
            betti_numbers(&rips_complex(&generators::complete_graph(3))),
            [1, 0, 0]
        );
        // A cone (wheel) is contractible.
        assert_eq!(
            betti_numbers(&rips_complex(&generators::wheel_graph(6))),
            [1, 0, 0]
        );
    }

    #[test]
    fn betti_of_circles() {
        assert_eq!(
            betti_numbers(&rips_complex(&generators::cycle_graph(7))),
            [1, 1, 0]
        );
        // Theta graph: figure-eight-ish, two independent loops.
        assert_eq!(
            betti_numbers(&rips_complex(&generators::theta_graph(1, 2, 3))),
            [1, 2, 0]
        );
    }

    #[test]
    fn betti_counts_components() {
        let g = Graph::from_edges(6, [(0, 1), (2, 3), (3, 4), (4, 2)]).unwrap();
        let k = rips_complex(&g);
        // Components: {0,1}, {2,3,4 triangle filled? no — the triangle is a
        // 3-cycle clique, so it IS filled}, {5}.
        assert_eq!(betti_numbers(&k), [3, 0, 0]);
    }

    #[test]
    fn betti_of_sphere_boundary() {
        // The boundary of a tetrahedron (all 4 triangles of K4) is a
        // 2-sphere: b = [1, 0, 1].
        let k = rips_complex(&generators::complete_graph(4));
        assert_eq!(betti_numbers(&k), [1, 0, 1]);
    }

    #[test]
    fn king_grid_squares_form_2_cycles() {
        // Each doubly-triangulated unit square contributes a GF(2) 2-cycle
        // (its four triangles share every edge pairwise), so b2 equals the
        // number of unit squares while b1 stays 0.
        let k = rips_complex(&generators::king_grid_graph(4, 3));
        assert_eq!(betti_numbers(&k), [1, 0, 6]);
    }

    #[test]
    fn relative_betti_with_empty_fence_is_absolute() {
        let k = rips_complex(&generators::king_grid_graph(3, 3));
        assert_eq!(relative_betti_numbers(&k, |_| false), betti_numbers(&k));
    }

    #[test]
    fn relative_betti_edge_cases() {
        // Fencing every vertex swallows the whole complex: all relative
        // chain groups are zero.
        let k = rips_complex(&generators::complete_graph(3));
        assert_eq!(relative_betti_numbers(&k, |_| true), [0, 0, 0]);
        // A filled triangle relative to one of its edges is contractible.
        let rel = relative_betti_numbers(&k, |v| v.index() <= 1);
        assert_eq!(rel, [0, 0, 0]);
    }

    #[test]
    fn relative_h1_still_sees_unfilled_hole() {
        // Hollow square, fence = one vertex: the 1-dimensional hole remains
        // visible in relative homology.
        let k = rips_complex(&generators::cycle_graph(4));
        let rel = relative_betti_numbers(&k, |v| v.index() == 0);
        assert_eq!(rel, [0, 1, 0]);
    }

    #[test]
    fn relative_h1_detects_uncovered_hole() {
        // A hollow square relative to its own boundary fence: the square's
        // four vertices form the fence, but the hole remains — H1 and H2
        // bookkeeping: all simplices are in the fence, so every relative
        // group is zero. Instead fence only two opposite vertices: the two
        // free vertices carry the hole.
        let g = generators::cycle_graph(4);
        let k = rips_complex(&g);
        let rel = relative_betti_numbers(&k, |v| v.index() % 2 == 0);
        // C0' = 2, C1' = 4, C2' = 0; d1 has rank 2 => b0=0, b1=2.
        assert_eq!(rel, [0, 2, 0]);
    }
}
