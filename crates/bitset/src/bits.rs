//! Fixed-width multi-word bitsets: the per-vertex state of `k` concurrent
//! BFS traversals (MS-BFS encoding, Section 2.2 of the paper).

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// A `W * 64`-bit wide bitset stored as `W` machine words.
///
/// Bit `i` tracks BFS number `i` of a batch of up to `W * 64` concurrent
/// traversals. The paper evaluates widths 64–512; wider sets share more work
/// per edge scan at the cost of more memory traffic per vertex.
///
/// ```
/// use pbfs_bitset::{Bits, B64};
///
/// let seen: B64 = Bits::single(0) | Bits::single(3);
/// assert!(seen.bit(0) && seen.bit(3) && !seen.bit(1));
/// assert_eq!(seen.count_ones(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bits<const W: usize> {
    words: [u64; W],
}

/// 64 concurrent BFSs — one machine word, the paper's default batch width.
pub type B64 = Bits<1>;
/// 128 concurrent BFSs (SSE width).
pub type B128 = Bits<2>;
/// 256 concurrent BFSs (AVX-2 width).
pub type B256 = Bits<4>;
/// 512 concurrent BFSs (AVX-512 width).
pub type B512 = Bits<8>;

impl<const W: usize> Default for Bits<W> {
    #[inline]
    fn default() -> Self {
        Self::EMPTY
    }
}

impl<const W: usize> Bits<W> {
    /// Total number of bits (= maximum batch size).
    pub const BITS: usize = W * 64;

    /// The empty bitset: no BFS has marked this vertex.
    pub const EMPTY: Self = Self { words: [0; W] };

    /// The bitset with every bit set.
    pub const ALL: Self = Self {
        words: [u64::MAX; W],
    };

    /// Builds a bitset from raw words (word 0 holds bits 0–63).
    #[inline]
    pub const fn from_words(words: [u64; W]) -> Self {
        Self { words }
    }

    /// Returns the raw words.
    #[inline]
    pub const fn words(&self) -> [u64; W] {
        self.words
    }

    /// A bitset with only bit `i` set.
    ///
    /// # Panics
    /// Panics if `i >= Self::BITS`.
    #[inline]
    pub const fn single(i: usize) -> Self {
        assert!(i < Self::BITS, "bit index out of range");
        let mut words = [0u64; W];
        words[i / 64] = 1u64 << (i % 64);
        Self { words }
    }

    /// A bitset with the first `k` bits set: the "full" mask for a batch of
    /// `k` concurrent BFSs (`|seen[u]| = |S|` test of Listing 2).
    ///
    /// # Panics
    /// Panics if `k > Self::BITS`.
    #[inline]
    pub const fn first_n(k: usize) -> Self {
        assert!(k <= Self::BITS, "mask width out of range");
        let mut words = [0u64; W];
        let mut w = 0;
        while w < W {
            let lo = w * 64;
            if k >= lo + 64 {
                words[w] = u64::MAX;
            } else if k > lo {
                words[w] = (1u64 << (k - lo)) - 1;
            }
            w += 1;
        }
        Self { words }
    }

    /// Tests bit `i`.
    #[inline]
    pub const fn bit(&self, i: usize) -> bool {
        assert!(i < Self::BITS, "bit index out of range");
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set_bit(&mut self, i: usize) {
        assert!(i < Self::BITS, "bit index out of range");
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Returns a copy with bit `i` set.
    #[inline]
    pub fn with_bit(mut self, i: usize) -> Self {
        self.set_bit(i);
        self
    }

    /// True iff no bit is set (`frontier[v] = ∅` test of Listing 1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// `self & !other` — the newly-discovered mask `next & ~seen`.
    #[inline]
    pub fn and_not(&self, other: &Self) -> Self {
        let mut words = [0u64; W];
        for (w, out) in words.iter_mut().enumerate() {
            *out = self.words[w] & !other.words[w];
        }
        Self { words }
    }

    /// True iff every bit of `self` is also set in `other`.
    #[inline]
    pub fn is_subset_of(&self, other: &Self) -> bool {
        (0..W).all(|w| self.words[w] & !other.words[w] == 0)
    }

    /// Fused settle — the per-vertex visit step of the paper's Listing 2:
    /// returns `(new, merged, flags)` where `new = self & !seen` (the
    /// traversals discovering this vertex now) and `merged = self | seen`,
    /// computed in one pass at the pre-resolved dispatch `level`.
    ///
    /// Replaces the separate `and_not` / `!= ` / `is_empty` / `|` passes the
    /// settle loops used to chain; hot loops hoist
    /// [`crate::simd::current`] once per phase.
    #[inline]
    pub fn settle_at(
        &self,
        level: crate::simd::SimdLevel,
        seen: &Self,
    ) -> (Self, Self, crate::simd::SettleFlags) {
        let mut new = [0u64; W];
        let mut merged = [0u64; W];
        let flags = crate::simd::settle_at(level, &self.words, &seen.words, &mut new, &mut merged);
        (Self { words: new }, Self { words: merged }, flags)
    }

    /// Iterates over the indices of set bits in ascending order.
    #[inline]
    pub fn ones(&self) -> Ones<W> {
        Ones {
            words: self.words,
            word_idx: 0,
        }
    }
}

/// Iterator over set-bit indices of a [`Bits`] value.
pub struct Ones<const W: usize> {
    words: [u64; W],
    word_idx: usize,
}

impl<const W: usize> Iterator for Ones<W> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word_idx < W {
            let w = self.words[self.word_idx];
            if w != 0 {
                let bit = w.trailing_zeros() as usize;
                self.words[self.word_idx] = w & (w - 1);
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
        }
        None
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n: u32 = self.words[self.word_idx.min(W - 1)..]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        (n as usize, Some(n as usize))
    }
}

impl<const W: usize> BitOr for Bits<W> {
    type Output = Self;
    #[inline]
    fn bitor(mut self, rhs: Self) -> Self {
        self |= rhs;
        self
    }
}

impl<const W: usize> BitOrAssign for Bits<W> {
    #[inline]
    fn bitor_assign(&mut self, rhs: Self) {
        for w in 0..W {
            self.words[w] |= rhs.words[w];
        }
    }
}

impl<const W: usize> BitAnd for Bits<W> {
    type Output = Self;
    #[inline]
    fn bitand(mut self, rhs: Self) -> Self {
        self &= rhs;
        self
    }
}

impl<const W: usize> BitAndAssign for Bits<W> {
    #[inline]
    fn bitand_assign(&mut self, rhs: Self) {
        for w in 0..W {
            self.words[w] &= rhs.words[w];
        }
    }
}

impl<const W: usize> BitXor for Bits<W> {
    type Output = Self;
    #[inline]
    fn bitxor(mut self, rhs: Self) -> Self {
        self ^= rhs;
        self
    }
}

impl<const W: usize> BitXorAssign for Bits<W> {
    #[inline]
    fn bitxor_assign(&mut self, rhs: Self) {
        for w in 0..W {
            self.words[w] ^= rhs.words[w];
        }
    }
}

impl<const W: usize> Not for Bits<W> {
    type Output = Self;
    #[inline]
    fn not(mut self) -> Self {
        for w in 0..W {
            self.words[w] = !self.words[w];
        }
        self
    }
}

impl<const W: usize> fmt::Debug for Bits<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bits<{W}>[")?;
        for (i, w) in self.words.iter().enumerate().rev() {
            if i != W - 1 {
                write!(f, "_")?;
            }
            write!(f, "{w:016x}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_all() {
        assert!(B64::EMPTY.is_empty());
        assert_eq!(B64::ALL.count_ones(), 64);
        assert_eq!(B256::ALL.count_ones(), 256);
        assert!(!B128::ALL.is_empty());
    }

    #[test]
    fn single_sets_one_bit() {
        for i in [0usize, 1, 63] {
            let b = B64::single(i);
            assert_eq!(b.count_ones(), 1);
            assert!(b.bit(i));
        }
        let b = B256::single(200);
        assert!(b.bit(200));
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "bit index out of range")]
    fn single_out_of_range_panics() {
        let _ = B64::single(64);
    }

    #[test]
    fn first_n_masks() {
        assert_eq!(B64::first_n(0), B64::EMPTY);
        assert_eq!(B64::first_n(64), B64::ALL);
        assert_eq!(B64::first_n(5).count_ones(), 5);
        assert_eq!(B128::first_n(70).count_ones(), 70);
        assert!(B128::first_n(70).bit(69));
        assert!(!B128::first_n(70).bit(70));
        assert_eq!(B512::first_n(512), B512::ALL);
    }

    #[test]
    fn boolean_algebra() {
        let a = B128::single(3) | B128::single(100);
        let b = B128::single(100) | B128::single(7);
        assert_eq!((a & b).count_ones(), 1);
        assert!((a & b).bit(100));
        assert_eq!((a | b).count_ones(), 3);
        assert_eq!((a ^ b).count_ones(), 2);
        assert_eq!(a.and_not(&b), B128::single(3));
        assert_eq!((!B128::EMPTY), B128::ALL);
    }

    #[test]
    fn subset() {
        let a = B64::single(1) | B64::single(2);
        let b = a | B64::single(9);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(B64::EMPTY.is_subset_of(&B64::EMPTY));
    }

    #[test]
    fn ones_iterates_ascending() {
        let b = B256::single(0) | B256::single(64) | B256::single(255) | B256::single(3);
        let idx: Vec<usize> = b.ones().collect();
        assert_eq!(idx, vec![0, 3, 64, 255]);
    }

    #[test]
    fn ones_empty() {
        assert_eq!(B64::EMPTY.ones().count(), 0);
        assert_eq!(B64::ALL.ones().count(), 64);
    }

    #[test]
    fn settle_matches_separate_ops() {
        let next = B256::single(3) | B256::single(100) | B256::single(255);
        let seen = B256::single(100) | B256::single(9);
        let lvl = crate::simd::current();
        let (new, merged, flags) = next.settle_at(lvl, &seen);
        assert_eq!(new, next.and_not(&seen));
        assert_eq!(merged, next | seen);
        assert!(flags.new_any && flags.trimmed);
        let (new2, merged2, f2) = seen.settle_at(lvl, &seen);
        assert!(new2.is_empty() && !f2.new_any && f2.trimmed);
        assert_eq!(merged2, seen);
        let (_, _, f3) = B64::EMPTY.settle_at(lvl, &B64::ALL);
        assert!(!f3.new_any && !f3.trimmed);
    }

    #[test]
    fn debug_format_is_stable() {
        let s = format!("{:?}", B64::single(4));
        assert_eq!(s, "Bits<1>[0000000000000010]");
    }
}
