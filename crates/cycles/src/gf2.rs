//! Fixed-length bit vectors over GF(2).
//!
//! Cycles are represented by their edge-incidence vectors (Sec. IV-A of the
//! paper); cycle addition is bitwise XOR. [`BitVec`] packs bits into `u64`
//! blocks so that the Gaussian eliminations at the core of Algorithm 1 run on
//! whole words.

use std::fmt;

/// Number of bits per storage block (`u64` words).
pub const BLOCK_BITS: usize = 64;

/// A fixed-length vector over GF(2).
///
/// # Example
///
/// ```
/// use confine_cycles::gf2::BitVec;
///
/// let mut a = BitVec::from_indices(8, &[0, 3, 5]);
/// let b = BitVec::from_indices(8, &[3, 5, 7]);
/// a.xor_assign(&b);
/// assert_eq!(a.ones().collect::<Vec<_>>(), vec![0, 7]);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    blocks: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates the zero vector of the given length.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            blocks: vec![0; len.div_ceil(BLOCK_BITS)],
            len,
        }
    }

    /// Creates a vector with exactly the listed positions set.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut v = BitVec::zeros(len);
        for &i in indices {
            v.set(i, true);
        }
        v
    }

    /// Length of the vector in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        (self.blocks[i / BLOCK_BITS] >> (i % BLOCK_BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        let mask = 1u64 << (i % BLOCK_BITS);
        if value {
            self.blocks[i / BLOCK_BITS] |= mask;
        } else {
            self.blocks[i / BLOCK_BITS] &= !mask;
        }
    }

    /// Flips bit `i`, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn flip(&mut self, i: usize) -> bool {
        let v = !self.get(i);
        self.set(i, v);
        v
    }

    /// Resets the vector to all zeros at a (possibly different) length,
    /// reusing the existing block allocation when it suffices.
    ///
    /// This is the allocation-free path the scheduler's hot GF(2)
    /// eliminations use to recycle candidate vectors between graphs of
    /// different edge counts.
    pub fn reset(&mut self, len: usize) {
        self.blocks.clear();
        self.blocks.resize(len.div_ceil(BLOCK_BITS), 0);
        self.len = len;
    }

    /// Makes `self` a copy of `other`, adopting its length and reusing the
    /// existing block allocation when it suffices.
    pub fn copy_from(&mut self, other: &BitVec) {
        self.blocks.clear();
        self.blocks.extend_from_slice(&other.blocks);
        self.len = other.len;
    }

    /// In-place XOR (GF(2) addition) with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "GF(2) addition requires equal lengths");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a ^= b;
        }
    }

    /// Returns `self ⊕ other` without mutating either operand.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_assign(other);
        out
    }

    /// Returns `true` if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Index of the lowest set bit, or `None` for the zero vector.
    pub fn first_one(&self) -> Option<usize> {
        self.first_one_from(0)
    }

    /// Index of the lowest set bit at or above block `from_block`, or `None`.
    ///
    /// The word-level eliminations resume pivot scans here: once every bit
    /// below a block is known to be zero, later scans skip those words
    /// instead of re-reading them.
    #[inline]
    pub fn first_one_from(&self, from_block: usize) -> Option<usize> {
        for (bi, &block) in self.blocks.iter().enumerate().skip(from_block) {
            if block != 0 {
                return Some(bi * BLOCK_BITS + block.trailing_zeros() as usize);
            }
        }
        None
    }

    /// In-place XOR with `other`, touching only blocks `from_block..`.
    ///
    /// Sound whenever both operands are known to be zero below `from_block`
    /// (e.g. both have their lowest set bit in that block); the elimination
    /// kernels use this to make each reduction step proportional to the
    /// remaining suffix rather than the full vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn xor_suffix(&mut self, other: &BitVec, from_block: usize) {
        assert_eq!(self.len, other.len, "GF(2) addition requires equal lengths");
        for (a, b) in self.blocks[from_block..]
            .iter_mut()
            .zip(&other.blocks[from_block..])
        {
            *a ^= b;
        }
    }

    /// Number of set bits (the Hamming weight; for a cycle vector, its
    /// length in edges).
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            vec: self,
            block_index: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ones=", self.len)?;
        f.debug_list().entries(self.ones()).finish()?;
        write!(f, "]")
    }
}

/// Iterator over set-bit indices of a [`BitVec`], produced by
/// [`BitVec::ones`].
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    vec: &'a BitVec,
    block_index: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.block_index * BLOCK_BITS + bit);
            }
            self.block_index += 1;
            if self.block_index >= self.vec.blocks.len() {
                return None;
            }
            self.current = self.vec.blocks[self.block_index];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert!(v.is_zero());
        assert!(!v.is_empty());
        assert!(BitVec::zeros(0).is_empty());
    }

    #[test]
    fn set_get_flip() {
        let mut v = BitVec::zeros(70);
        v.set(0, true);
        v.set(69, true);
        assert!(v.get(0));
        assert!(v.get(69));
        assert!(!v.get(64));
        assert!(!v.flip(0));
        assert!(v.flip(64));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range() {
        BitVec::zeros(3).get(3);
    }

    #[test]
    fn xor_is_symmetric_difference() {
        let a = BitVec::from_indices(100, &[1, 50, 99]);
        let b = BitVec::from_indices(100, &[50, 64]);
        let c = a.xor(&b);
        assert_eq!(c.ones().collect::<Vec<_>>(), vec![1, 64, 99]);
        // XOR twice restores the original.
        assert_eq!(c.xor(&b), a);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn xor_length_mismatch() {
        let mut a = BitVec::zeros(4);
        a.xor_assign(&BitVec::zeros(5));
    }

    #[test]
    fn first_one_across_blocks() {
        assert_eq!(BitVec::zeros(200).first_one(), None);
        assert_eq!(
            BitVec::from_indices(200, &[130, 190]).first_one(),
            Some(130)
        );
        assert_eq!(BitVec::from_indices(200, &[0]).first_one(), Some(0));
    }

    #[test]
    fn ones_iterator_ordered() {
        let v = BitVec::from_indices(300, &[299, 0, 64, 65, 128]);
        assert_eq!(v.ones().collect::<Vec<_>>(), vec![0, 64, 65, 128, 299]);
        assert_eq!(BitVec::zeros(10).ones().count(), 0);
    }

    #[test]
    fn debug_is_nonempty() {
        let v = BitVec::from_indices(5, &[2]);
        assert_eq!(format!("{v:?}"), "BitVec[5; ones=[2]]");
    }
}
