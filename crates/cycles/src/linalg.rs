//! Incremental GF(2) Gaussian elimination.
//!
//! Two closely related tools, one elimination:
//!
//! * [`Gf2Basis`] — an online independence oracle. Algorithm 1 feeds Horton
//!   candidate cycles in non-decreasing length order and keeps those that are
//!   linearly independent of the cycles accepted so far; the result is a
//!   minimum cycle basis.
//! * [`Decomposer`] — expresses a vector as the (unique) combination of a
//!   fixed basis, reporting *which* basis elements participate. It is a
//!   [`Gf2Basis`] over basis vectors tagged with their own index, and it is
//!   what turns the minimum cycle basis into an exact `τ`-partitionability
//!   test (see `confine-cycles::partition`).

use crate::gf2::BitVec;

/// An online GF(2) independence oracle over vectors of a fixed length.
///
/// Internally keeps the accepted vectors in row-echelon form, one pivot per
/// row.
///
/// # Example
///
/// ```
/// use confine_cycles::gf2::BitVec;
/// use confine_cycles::linalg::Gf2Basis;
///
/// let mut basis = Gf2Basis::new(4);
/// assert!(basis.try_insert(&BitVec::from_indices(4, &[0, 1])));
/// assert!(basis.try_insert(&BitVec::from_indices(4, &[1, 2])));
/// // 0+2 is the sum of the two vectors above: dependent.
/// assert!(!basis.try_insert(&BitVec::from_indices(4, &[0, 2])));
/// assert_eq!(basis.rank(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Gf2Basis {
    len: usize,
    rows: Vec<BitVec>,
    /// `pivot_row[p]` = index into `rows` of the row whose lowest set bit is
    /// `p`. Pivot-indexed reduction touches only rows that can actually
    /// clear the residual's lowest bit, which is what makes the hot
    /// cycle-space eliminations fast.
    pivot_row: Vec<Option<usize>>,
    /// Retired row vectors recycled by [`Gf2Basis::reset`]; `try_insert`
    /// draws its working copy from here so that re-used bases perform no
    /// per-candidate allocation in steady state.
    spare: Vec<BitVec>,
}

impl Gf2Basis {
    /// Creates an empty basis for vectors of length `len`.
    pub fn new(len: usize) -> Self {
        Gf2Basis {
            len,
            rows: Vec::new(),
            pivot_row: vec![None; len],
            spare: Vec::new(),
        }
    }

    /// Empties the basis and re-targets it at vectors of length `len`,
    /// recycling the row allocations of the previous use.
    ///
    /// Together with [`BitVec::reset`] this lets a caller that eliminates
    /// many small cycle spaces in sequence (the scheduler tests one punctured
    /// neighbourhood graph per node per round) keep one scratch basis alive
    /// instead of reallocating rows for every graph.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.spare.append(&mut self.rows);
        self.pivot_row.clear();
        self.pivot_row.resize(len, None);
    }

    /// Current rank (number of accepted vectors).
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Vector length this basis operates on.
    pub fn vector_len(&self) -> usize {
        self.len
    }

    /// Reduces `v` against the accepted rows, returning the residual.
    ///
    /// A zero residual means `v` lies in the span of the basis.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the basis length.
    pub fn reduce(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.len, "vector length mismatch");
        let mut r = v.clone();
        self.reduce_in_place(&mut r);
        r
    }

    /// Reduces `r` against the accepted rows in place (no allocation).
    ///
    /// Word-level: every stored row is a residual whose lowest set bit *is*
    /// its pivot, so XORing it into `r` clears `r`'s lowest bit and can only
    /// set bits above it. The pivot scan therefore resumes from the block it
    /// last stopped in, and each XOR touches only the suffix from that block.
    fn reduce_in_place(&self, r: &mut BitVec) {
        let mut block = 0;
        while let Some(p) = r.first_one_from(block) {
            block = p / crate::gf2::BLOCK_BITS;
            match self.pivot_row[p] {
                Some(i) => r.xor_suffix(&self.rows[i], block),
                None => break,
            }
        }
    }

    /// Returns `true` if `v` lies in the span of the accepted vectors.
    pub fn contains(&self, v: &BitVec) -> bool {
        self.reduce(v).is_zero()
    }

    /// Attempts to add `v`; returns `true` if `v` was independent and is now
    /// part of the basis.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the basis length.
    pub fn try_insert(&mut self, v: &BitVec) -> bool {
        assert_eq!(v.len(), self.len, "vector length mismatch");
        let mut r = self.spare.pop().unwrap_or_default();
        r.copy_from(v);
        self.reduce_in_place(&mut r);
        match r.first_one() {
            None => {
                self.spare.push(r);
                false
            }
            Some(p) => {
                self.pivot_row[p] = Some(self.rows.len());
                self.rows.push(r);
                true
            }
        }
    }
}

/// Expresses vectors over a *fixed* basis, reporting which basis members the
/// unique combination uses.
///
/// A [`Gf2Basis`] over `len + n` bits holds basis vector `v_j` as
/// `v_j ‖ e_j`, where `e_j` is the `j`-th unit vector of the last `n` bits.
/// Every reduced row is then a sum of tagged inputs, and its tag bits name
/// them. Reducing `t ‖ 0` clears the first `len` bits exactly when `t` is
/// in the span, and the last `n` bits of the residual are then the
/// combination. On the minimum cycle basis of a 400-node, degree-25 UDG
/// deployment (ν = 4,004) the build takes about 4 ms, next to about 4 s for
/// the basis itself.
#[derive(Debug, Clone)]
pub struct Decomposer {
    len: usize,
    rows: Gf2Basis,
}

impl Decomposer {
    /// Builds a decomposer from basis vectors of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have inconsistent lengths or are linearly
    /// dependent (a basis must be independent).
    pub fn from_basis(len: usize, basis: &[BitVec]) -> Self {
        let n = basis.len();
        let mut rows = Gf2Basis::new(len + n);
        let mut tagged = BitVec::default();
        for (j, v) in basis.iter().enumerate() {
            assert_eq!(v.len(), len, "vector length mismatch");
            tagged.reset(len + n);
            for i in v.ones() {
                tagged.set(i, true);
            }
            tagged.set(len + j, true);
            // The tag bit survives reduction against earlier rows, so every
            // tagged vector is accepted.
            rows.try_insert(&tagged);
        }
        // A dependent `v_j` reduces to zero in its first `len` bits, so its
        // row pivots on a tag bit.
        assert!(
            rows.pivot_row[len..].iter().all(Option::is_none),
            "basis vectors must be linearly independent"
        );
        Decomposer { len, rows }
    }

    /// Number of basis vectors.
    pub fn basis_size(&self) -> usize {
        self.rows.rank()
    }

    /// Expresses `target` over the basis.
    ///
    /// Returns the sorted indices of the basis vectors whose GF(2) sum equals
    /// `target`, or `None` when `target` is outside the span.
    ///
    /// # Panics
    ///
    /// Panics if `target.len()` differs from the basis vector length.
    pub fn decompose(&self, target: &BitVec) -> Option<Vec<usize>> {
        assert_eq!(target.len(), self.len, "vector length mismatch");
        let mut r = BitVec::zeros(self.rows.vector_len());
        for i in target.ones() {
            r.set(i, true);
        }
        self.rows.reduce_in_place(&mut r);
        match r.first_one() {
            Some(p) if p < self.len => None,
            _ => Some(r.ones().map(|i| i - self.len).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(len: usize, idx: &[usize]) -> BitVec {
        BitVec::from_indices(len, idx)
    }

    #[test]
    fn basis_rank_and_containment() {
        let mut b = Gf2Basis::new(6);
        assert!(b.try_insert(&v(6, &[0, 1])));
        assert!(b.try_insert(&v(6, &[2, 3])));
        assert!(b.try_insert(&v(6, &[1, 2])));
        assert_eq!(b.rank(), 3);
        assert!(b.contains(&v(6, &[0, 3])), "0+3 = sum of all three rows");
        assert!(!b.contains(&v(6, &[4])));
        assert!(!b.try_insert(&v(6, &[0, 3])));
        assert_eq!(b.vector_len(), 6);
    }

    #[test]
    fn zero_vector_never_inserts() {
        let mut b = Gf2Basis::new(4);
        assert!(!b.try_insert(&BitVec::zeros(4)));
        assert_eq!(b.rank(), 0);
        assert!(b.contains(&BitVec::zeros(4)), "zero is in every span");
    }

    #[test]
    fn decomposer_exact_combination() {
        let basis = vec![v(5, &[0, 1]), v(5, &[1, 2]), v(5, &[3, 4])];
        let d = Decomposer::from_basis(5, &basis);
        assert_eq!(d.basis_size(), 3);
        // target = basis[0] + basis[2]
        let target = v(5, &[0, 1, 3, 4]);
        assert_eq!(d.decompose(&target), Some(vec![0, 2]));
        // target = basis[0] + basis[1]
        assert_eq!(d.decompose(&v(5, &[0, 2])), Some(vec![0, 1]));
        // zero decomposes as the empty sum.
        assert_eq!(d.decompose(&BitVec::zeros(5)), Some(vec![]));
        // outside the span.
        assert_eq!(d.decompose(&v(5, &[0])), None);

        // The empty basis spans only zero.
        let empty = Decomposer::from_basis(5, &[]);
        assert_eq!(empty.basis_size(), 0);
        assert_eq!(empty.decompose(&BitVec::zeros(5)), Some(vec![]));
        assert_eq!(empty.decompose(&v(5, &[3])), None);
    }

    #[test]
    fn decomposition_verifies_by_summation() {
        let basis = vec![
            v(8, &[0, 1, 2]),
            v(8, &[2, 3]),
            v(8, &[3, 4, 5]),
            v(8, &[5, 6, 7]),
        ];
        let d = Decomposer::from_basis(8, &basis);
        let target = v(8, &[0, 1, 4, 5]); // basis[0]+basis[1]+basis[2]
        let idx = d.decompose(&target).unwrap();
        let mut sum = BitVec::zeros(8);
        for i in &idx {
            sum.xor_assign(&basis[*i]);
        }
        assert_eq!(sum, target);
    }

    #[test]
    #[should_panic(expected = "linearly independent")]
    fn decomposer_rejects_dependent_basis() {
        let basis = vec![v(4, &[0, 1]), v(4, &[1, 2]), v(4, &[0, 2])];
        let _ = Decomposer::from_basis(4, &basis);
    }
}
