//! Dense one-bit-per-vertex state, in plain and atomic flavours.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::aligned::CacheAligned;
use crate::summary::{FrontierSummary, ScanStats};
use crate::{words_for_bits, WORD_BITS};

/// A plain (single-threaded) dense bit vector.
///
/// Used by the sequential Beamer baselines for `seen` / dense frontiers and
/// anywhere no concurrent mutation happens.
#[derive(Clone)]
pub struct BitVec {
    words: Box<[u64]>,
    len: usize,
}

impl BitVec {
    /// Creates a vector of `len` zero bits.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0u64; words_for_bits(len)].into_boxed_slice(),
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff `len() == 0`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Sets bit `i`, returning whether it was previously clear.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let newly = *w & mask == 0;
        *w |= mask;
        newly
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over set-bit indices in `start..end`, skipping empty 64-bit
    /// chunks (the "check ranges of size 8 bytes" optimization).
    pub fn iter_set_in(&self, start: usize, end: usize) -> SetBitsIn<'_> {
        let end = end.min(self.len);
        SetBitsIn::new(&self.words, start, end)
    }

    /// Bytes of heap memory used.
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// A dense bit vector supporting concurrent mutation.
///
/// The SMS-PBFS(bit) variant stores `seen`, `frontier` and `next` in this
/// type: the first top-down phase sets bits with an atomic RMW, every other
/// phase uses relaxed loads/stores on whole words thanks to the bijective
/// task-range → worker mapping.
///
/// A [`FrontierSummary`] rides along (one bit per word, i.e. per
/// [`crate::SUMMARY_CHUNK`] vertices): every setter marks it on the word's
/// empty→non-empty transition, so [`Self::for_each_active_chunk`] can skip
/// inactive words without loading them. Word-granular clears also clear the
/// covered summary bits.
pub struct AtomicBitVec {
    words: CacheAligned<AtomicU64>,
    summary: FrontierSummary,
    len: usize,
}

impl AtomicBitVec {
    /// Creates a vector of `len` zero bits.
    ///
    /// The backing words are allocated 64-byte cache-line-aligned so bulk
    /// word scans never issue cache-line-splitting accesses.
    pub fn new(len: usize) -> Self {
        Self {
            words: CacheAligned::zeroed(words_for_bits(len)),
            summary: FrontierSummary::new(len),
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff `len() == 0`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tests bit `i` (relaxed).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS].load(Ordering::Relaxed) >> (i % WORD_BITS) & 1 == 1
    }

    /// Atomically sets bit `i`, returning whether this call flipped it
    /// (exactly one concurrent setter observes `true`).
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % WORD_BITS);
        let old = self.words[i / WORD_BITS].fetch_or(mask, Ordering::Relaxed);
        if old == 0 {
            // Empty→non-empty word transition: first activation of the
            // chunk (any later setter finds the bit already summarized).
            self.summary.mark(i);
        }
        old & mask == 0
    }

    /// Sets bit `i` without an atomic RMW (relaxed read-modify-write).
    ///
    /// Only correct when no other thread mutates the same *word*
    /// concurrently — i.e. inside the conflict-free phases where each worker
    /// owns a disjoint, word-aligned vertex range.
    #[inline]
    pub fn set_unsync(&self, i: usize) {
        debug_assert!(i < self.len);
        let w = &self.words[i / WORD_BITS];
        let cur = w.load(Ordering::Relaxed);
        if cur == 0 {
            self.summary.mark(i);
        }
        w.store(cur | 1u64 << (i % WORD_BITS), Ordering::Relaxed);
    }

    /// Clears bit `i` without an atomic RMW (same ownership caveat as
    /// [`Self::set_unsync`]).
    #[inline]
    pub fn clear_unsync(&self, i: usize) {
        debug_assert!(i < self.len);
        let w = &self.words[i / WORD_BITS];
        let cur = w.load(Ordering::Relaxed);
        w.store(cur & !(1u64 << (i % WORD_BITS)), Ordering::Relaxed);
    }

    /// Clears every bit (single-threaded).
    pub fn clear_all(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
        self.summary.clear_all();
    }

    /// Clears the words fully covered by the vertex range `start..end`
    /// (used by per-worker range initialization; range must be word-aligned
    /// or the caller must own the partial boundary words too), along with
    /// their summary bits.
    pub fn clear_range_words(&self, start: usize, end: usize) {
        let first = start / WORD_BITS;
        let last = end.div_ceil(WORD_BITS).min(self.words.len());
        for w in &self.words[first..last] {
            w.store(0, Ordering::Relaxed);
        }
        // One summary bit per word: the cleared words' bits can be cleared
        // exactly (chunk index == word index).
        self.summary.clear_chunk_range(first, last);
    }

    /// Number of set bits (relaxed snapshot).
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Calls `f` for every set bit in `start..end`. With `chunk_skip` a
    /// whole 64-bit word is tested at once and skipped when zero (the
    /// Section 3.2 optimization); without it every index is tested
    /// individually (the ablation baseline).
    pub fn for_each_set(
        &self,
        start: usize,
        end: usize,
        chunk_skip: bool,
        mut f: impl FnMut(usize),
    ) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        if !chunk_skip {
            for i in start..end {
                if self.get(i) {
                    f(i);
                }
            }
            return;
        }
        self.for_each_masked(start, end, false, &mut f);
    }

    /// Calls `f` for every **clear** bit in `start..end`; with `chunk_skip`
    /// all-ones words are skipped at once (the bottom-up "everything here
    /// is already seen" fast path).
    pub fn for_each_clear(
        &self,
        start: usize,
        end: usize,
        chunk_skip: bool,
        mut f: impl FnMut(usize),
    ) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        if !chunk_skip {
            for i in start..end {
                if !self.get(i) {
                    f(i);
                }
            }
            return;
        }
        self.for_each_masked(start, end, true, &mut f);
    }

    /// Calls `f(chunk_start, chunk_end)` for every summary-marked chunk
    /// overlapping `start..end` (bounds clipped to the range). Chunks whose
    /// summary bit is clear are skipped without loading their word — the
    /// O(active / 4096) scan of the frontier summary hierarchy. Marked
    /// chunks may still be empty (the summary is conservative); callers
    /// scan them with e.g. [`Self::for_each_set`].
    #[inline]
    pub fn for_each_active_chunk(
        &self,
        start: usize,
        end: usize,
        f: impl FnMut(usize, usize),
    ) -> ScanStats {
        self.summary
            .for_each_active_chunk(start, end.min(self.len), f)
    }

    /// Fused SMS settle over `start..end`: treats `self` as the `next`
    /// frontier and, one whole word at a time, trims the bits already set in
    /// `seen` out of `self`, merges the remainder into `seen`, and calls
    /// `found` for each newly-discovered index — the single-pass equivalent
    /// of a per-bit `if seen.get(i) { self.clear(i) } else { seen.set(i) }`
    /// loop, which re-loaded both words for every bit.
    ///
    /// Requires the same ownership as [`Self::set_unsync`]: no other thread
    /// may touch the words overlapping `start..end` of either vector during
    /// the call. All-zero `next` words are skipped with one load.
    pub fn settle_filter(
        &self,
        seen: &AtomicBitVec,
        start: usize,
        end: usize,
        mut found: impl FnMut(usize),
    ) {
        let end = end.min(self.len).min(seen.len);
        if start >= end {
            return;
        }
        let first_wi = start / WORD_BITS;
        let last_wi = (end - 1) / WORD_BITS;
        for wi in first_wi..=last_wi {
            let mut mask = u64::MAX;
            if wi == first_wi {
                mask &= u64::MAX << (start % WORD_BITS);
            }
            if (wi + 1) * WORD_BITS > end {
                mask &= (1u64 << (end - wi * WORD_BITS)) - 1;
            }
            let word = self.words[wi].load(Ordering::Relaxed);
            let nx = word & mask;
            if nx == 0 {
                continue;
            }
            let sn = seen.words[wi].load(Ordering::Relaxed);
            let new = nx & !sn;
            if new != nx {
                // Trim already-seen bits; bits outside the range keep.
                self.words[wi].store((word & !mask) | new, Ordering::Relaxed);
            }
            if new != 0 {
                if sn == 0 {
                    // Empty→non-empty word transition, as in `set_unsync`.
                    seen.summary.mark(wi * WORD_BITS);
                }
                seen.words[wi].store(sn | new, Ordering::Relaxed);
                let mut b = new;
                while b != 0 {
                    found(wi * WORD_BITS + b.trailing_zeros() as usize);
                    b &= b - 1;
                }
            }
        }
    }

    /// Shared word-at-a-time scan: iterates bits of value `!invert`.
    fn for_each_masked(&self, start: usize, end: usize, invert: bool, f: &mut impl FnMut(usize)) {
        let first_wi = start / WORD_BITS;
        let last_wi = (end - 1) / WORD_BITS;
        for wi in first_wi..=last_wi {
            let mut w = self.words[wi].load(Ordering::Relaxed);
            if invert {
                w = !w;
            }
            if wi == first_wi {
                w &= u64::MAX << (start % WORD_BITS);
            }
            let word_end = (wi + 1) * WORD_BITS;
            if word_end > end {
                let rem = end - wi * WORD_BITS;
                w &= (1u64 << rem) - 1;
            }
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                f(wi * WORD_BITS + b);
                w &= w - 1;
            }
        }
    }

    /// Bytes of heap memory used (including the summary bitmap).
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8 + self.summary.heap_bytes()
    }
}

/// Iterator over set bits of a `&[u64]` window; see [`BitVec::iter_set_in`].
pub struct SetBitsIn<'a> {
    words: &'a [u64],
    cur_word: u64,
    word_idx: usize,
    end: usize,
}

impl<'a> SetBitsIn<'a> {
    fn new(words: &'a [u64], start: usize, end: usize) -> Self {
        let mut it = Self {
            words,
            cur_word: 0,
            word_idx: start / WORD_BITS,
            end,
        };
        if start < end {
            // Mask off bits below `start` in the first word.
            let w = words[it.word_idx];
            it.cur_word = w & (u64::MAX << (start % WORD_BITS));
        } else {
            it.word_idx = words.len();
        }
        it
    }
}

impl Iterator for SetBitsIn<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.cur_word != 0 {
                let bit = self.cur_word.trailing_zeros() as usize;
                let idx = self.word_idx * WORD_BITS + bit;
                if idx >= self.end {
                    self.cur_word = 0;
                    self.word_idx = self.words.len();
                    return None;
                }
                self.cur_word &= self.cur_word - 1;
                return Some(idx);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() || self.word_idx * WORD_BITS >= self.end {
                return None;
            }
            self.cur_word = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitvec_set_get_clear() {
        let mut v = BitVec::new(130);
        assert_eq!(v.len(), 130);
        assert!(!v.get(0));
        assert!(v.set(0));
        assert!(!v.set(0), "second set reports not-newly");
        assert!(v.set(129));
        assert!(v.get(129));
        v.clear(129);
        assert!(!v.get(129));
        assert_eq!(v.count_ones(), 1);
        v.clear_all();
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn bitvec_iter_set_in_windows() {
        let mut v = BitVec::new(300);
        for i in [0usize, 5, 63, 64, 127, 200, 299] {
            v.set(i);
        }
        let all: Vec<usize> = v.iter_set_in(0, 300).collect();
        assert_eq!(all, vec![0, 5, 63, 64, 127, 200, 299]);
        let mid: Vec<usize> = v.iter_set_in(5, 200).collect();
        assert_eq!(mid, vec![5, 63, 64, 127]);
        let empty: Vec<usize> = v.iter_set_in(128, 200).collect();
        assert!(empty.is_empty());
        let one: Vec<usize> = v.iter_set_in(299, 300).collect();
        assert_eq!(one, vec![299]);
    }

    #[test]
    fn bitvec_iter_degenerate_ranges() {
        let mut v = BitVec::new(64);
        v.set(10);
        assert_eq!(v.iter_set_in(10, 10).count(), 0);
        assert_eq!(v.iter_set_in(11, 10).count(), 0);
        assert_eq!(v.iter_set_in(0, usize::MAX).collect::<Vec<_>>(), vec![10]);
    }

    #[test]
    fn atomic_set_reports_transition_once() {
        let v = AtomicBitVec::new(128);
        assert!(v.set(70));
        assert!(!v.set(70));
        assert!(v.get(70));
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    fn atomic_unsync_ops() {
        let v = AtomicBitVec::new(64);
        v.set_unsync(3);
        assert!(v.get(3));
        v.clear_unsync(3);
        assert!(!v.get(3));
    }

    #[test]
    fn atomic_clear_range_words() {
        let v = AtomicBitVec::new(256);
        for i in 0..256 {
            v.set(i);
        }
        v.clear_range_words(64, 192);
        assert_eq!(v.count_ones(), 128);
        assert!(v.get(0) && v.get(63) && v.get(192) && v.get(255));
        assert!(!v.get(64) && !v.get(191));
    }

    #[test]
    fn for_each_set_matches_gets_with_and_without_chunk_skip() {
        let v = AtomicBitVec::new(300);
        for i in [0usize, 5, 63, 64, 127, 200, 299] {
            v.set(i);
        }
        for (start, end) in [(0usize, 300usize), (5, 200), (64, 65), (299, 300), (10, 10)] {
            let expect: Vec<usize> = (start..end).filter(|&i| v.get(i)).collect();
            for chunk_skip in [false, true] {
                let mut got = Vec::new();
                v.for_each_set(start, end, chunk_skip, |i| got.push(i));
                assert_eq!(got, expect, "range {start}..{end} skip={chunk_skip}");
            }
        }
    }

    #[test]
    fn for_each_clear_is_complement() {
        let v = AtomicBitVec::new(130);
        for i in [0usize, 64, 100, 129] {
            v.set(i);
        }
        for chunk_skip in [false, true] {
            let mut clear = Vec::new();
            v.for_each_clear(0, 130, chunk_skip, |i| clear.push(i));
            assert_eq!(clear.len(), 126);
            assert!(!clear.contains(&0) && !clear.contains(&64) && !clear.contains(&129));
            assert!(clear.contains(&1) && clear.contains(&128));
        }
    }

    #[test]
    fn for_each_clear_skips_full_words() {
        let v = AtomicBitVec::new(192);
        for i in 64..128 {
            v.set(i);
        }
        let mut clear = Vec::new();
        v.for_each_clear(0, 192, true, |i| clear.push(i));
        assert_eq!(clear.len(), 128);
        assert!(clear.iter().all(|&i| !(64..128).contains(&i)));
    }

    #[test]
    fn for_each_handles_tail_word() {
        // len not a multiple of 64: clear iteration must not run past len.
        let v = AtomicBitVec::new(70);
        let mut clear = Vec::new();
        v.for_each_clear(0, 70, true, |i| clear.push(i));
        assert_eq!(clear.len(), 70);
        assert_eq!(*clear.last().unwrap(), 69);
    }

    #[test]
    fn settle_filter_matches_per_bit_reference() {
        for (start, end) in [(0usize, 300usize), (3, 297), (64, 128), (65, 66), (10, 10)] {
            let next = AtomicBitVec::new(300);
            let seen = AtomicBitVec::new(300);
            let rnext = AtomicBitVec::new(300);
            let rseen = AtomicBitVec::new(300);
            for i in (0..300).step_by(3) {
                next.set(i);
                rnext.set(i);
            }
            for i in (0..300).step_by(5) {
                seen.set(i);
                rseen.set(i);
            }
            let mut got = Vec::new();
            next.settle_filter(&seen, start, end, |i| got.push(i));
            // Per-bit reference of the same settle.
            let mut want = Vec::new();
            for i in start..end.min(300) {
                if rnext.get(i) {
                    if rseen.get(i) {
                        rnext.clear_unsync(i);
                    } else {
                        rseen.set_unsync(i);
                        want.push(i);
                    }
                }
            }
            assert_eq!(got, want, "range {start}..{end}");
            for i in 0..300 {
                assert_eq!(
                    next.get(i),
                    rnext.get(i),
                    "next bit {i} range {start}..{end}"
                );
                assert_eq!(
                    seen.get(i),
                    rseen.get(i),
                    "seen bit {i} range {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn concurrent_atomic_sets_lose_nothing() {
        use std::sync::Arc;
        let v = Arc::new(AtomicBitVec::new(4096));
        let mut handles = Vec::new();
        for t in 0..4 {
            let v = Arc::clone(&v);
            handles.push(std::thread::spawn(move || {
                // All threads hammer overlapping bits of the same words.
                for i in (t..4096).step_by(1) {
                    v.set(i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.count_ones(), 4096);
    }
}
