//! Dense per-vertex multi-BFS state arrays (`seen`, `frontier`, `next`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::aligned::CacheAligned;
use crate::summary::{FrontierSummary, ScanStats};
use crate::Bits;

/// A dense array of `Bits<W>` values, one per vertex, backed by atomic words.
///
/// This is the core data structure of (S)MS-PBFS: the fixed-size array
/// replaces the frontier queues of classical BFS. Storage is atomic so the
/// first top-down phase can merge frontiers concurrently ([`Self::fetch_or`])
/// while all conflict-free phases use relaxed accessors with no
/// synchronization cost on x86.
///
/// ```
/// use pbfs_bitset::{Bits, StateArray};
///
/// let next: StateArray<1> = StateArray::new(10);
/// next.fetch_or(3, Bits::single(5));
/// assert!(next.get(3).bit(5));
/// ```
pub struct StateArray<const W: usize> {
    words: CacheAligned<AtomicU64>,
    len: usize,
    summary: FrontierSummary,
}

impl<const W: usize> StateArray<W> {
    /// Creates an array of `len` empty bitsets.
    ///
    /// The backing words are allocated 64-byte cache-line-aligned, so every
    /// `Bits<W>` entry (W ≤ 8) occupies a single cache line and the
    /// [`crate::simd`] span kernels never issue line-splitting accesses.
    pub fn new(len: usize) -> Self {
        Self {
            words: CacheAligned::zeroed(len * W),
            len,
            summary: FrontierSummary::new(len),
        }
    }

    /// Number of entries (vertices).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff `len() == 0`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads entry `v` (relaxed snapshot; exact when no concurrent writer
    /// touches `v`, which the bijective range partitioning guarantees in the
    /// phases that read).
    #[inline]
    pub fn get(&self, v: usize) -> Bits<W> {
        debug_assert!(v < self.len);
        let base = v * W;
        let mut words = [0u64; W];
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.words[base + i].load(Ordering::Relaxed);
        }
        Bits::from_words(words)
    }

    /// Overwrites entry `v` (relaxed; caller must own `v`).
    #[inline]
    pub fn set(&self, v: usize, bits: Bits<W>) {
        debug_assert!(v < self.len);
        if !bits.is_empty() {
            self.summary.mark(v);
        }
        let base = v * W;
        for (i, w) in bits.words().iter().enumerate() {
            self.words[base + i].store(*w, Ordering::Relaxed);
        }
    }

    /// Atomically merges `bits` into entry `v`, returning the previous
    /// value. This is the synchronized update of the first top-down phase.
    ///
    /// Implemented as per-word `fetch_or` — semantically identical to the
    /// paper's CAS loop (bits are only ever added) but a single `lock or`
    /// per word on x86. Words that would not change are skipped after a
    /// relaxed pre-check to avoid needless cache line invalidations.
    #[inline]
    pub fn fetch_or(&self, v: usize, bits: Bits<W>) -> Bits<W> {
        debug_assert!(v < self.len);
        if !bits.is_empty() {
            // Conservative: mark before the OR lands so a concurrent
            // summary-guided scan can never miss this entry. The mark
            // pre-checks its own bit, so the steady-state cost is one
            // cached load.
            self.summary.mark(v);
        }
        let base = v * W;
        let mut old = [0u64; W];
        for (i, w) in bits.words().iter().enumerate() {
            let slot = &self.words[base + i];
            if *w == 0 {
                old[i] = slot.load(Ordering::Relaxed);
            } else {
                let cur = slot.load(Ordering::Relaxed);
                if cur | *w == cur {
                    old[i] = cur;
                } else {
                    old[i] = slot.fetch_or(*w, Ordering::Relaxed);
                }
            }
        }
        Bits::from_words(old)
    }

    /// Atomically merges `bits` into entry `v` using an explicit
    /// compare-and-swap loop per word — the formulation in Section 3.1.1 of
    /// the paper. Kept for the `ablation_atomic` benchmark.
    #[inline]
    pub fn fetch_or_cas(&self, v: usize, bits: Bits<W>) -> Bits<W> {
        debug_assert!(v < self.len);
        if !bits.is_empty() {
            self.summary.mark(v);
        }
        let base = v * W;
        let mut old = [0u64; W];
        for (i, w) in bits.words().iter().enumerate() {
            let slot = &self.words[base + i];
            let mut cur = slot.load(Ordering::Relaxed);
            if *w == 0 {
                old[i] = cur;
                continue;
            }
            loop {
                let new = cur | *w;
                if new == cur {
                    break;
                }
                match slot.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
            old[i] = cur;
        }
        Bits::from_words(old)
    }

    /// Clears every entry (single-threaded).
    pub fn clear_all(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
        self.summary.clear_all();
    }

    /// Clears entries `start..end` with one vectorized bulk store, as the
    /// kernels do after consuming a range. Summary bits are cleared
    /// conservatively: only chunks fully inside the range are unmarked.
    ///
    /// # Safety
    /// The caller must have exclusive access to entries `start..end`: no
    /// other thread may read or write them during the call (the kernels'
    /// bijective range partitioning between phase barriers guarantees this).
    pub unsafe fn clear_range_owned(&self, start: usize, end: usize) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        // SAFETY: exclusivity forwarded from the caller contract.
        crate::simd::clear_span_unsync(&self.words[start * W..end * W]);
        self.summary.clear_entry_range(start, end);
    }

    /// OR-merges entries `start..end` of `src` into the same entries of
    /// `self` in one vectorized span pass at `level` — the sharded kernel's
    /// gather-union primitive. Summary bits are propagated conservatively
    /// from `src`'s summary over the range.
    ///
    /// # Safety
    /// The caller must have exclusive access to entries `start..end` of
    /// *both* arrays for the duration of the call, and the two arrays must
    /// be distinct.
    pub unsafe fn or_from_at(
        &self,
        level: crate::simd::SimdLevel,
        src: &StateArray<W>,
        start: usize,
        end: usize,
    ) {
        let end = end.min(self.len).min(src.len);
        if start >= end {
            return;
        }
        // SAFETY: exclusivity and distinctness forwarded from the caller.
        crate::simd::or_span_unsync_at(
            level,
            &self.words[start * W..end * W],
            &src.words[start * W..end * W],
        );
        let _ = src
            .summary
            .for_each_active_chunk(start, end, |cs, _| self.summary.mark(cs));
    }

    /// Bitmask of non-empty entries in `start..end` (at most 64 entries)
    /// at dispatch level `level`: bit `i` of the result corresponds to
    /// entry `start + i`. This is the vectorized per-chunk activity scan of
    /// the summary-guided kernels.
    ///
    /// # Safety
    /// No other thread may *write* entries `start..end` during the call
    /// (concurrent readers are fine): the scan reads non-atomically. The
    /// kernels call this only on arrays that are read-only within a phase
    /// or ranges they own outright.
    pub unsafe fn nonempty_mask_at(
        &self,
        level: crate::simd::SimdLevel,
        start: usize,
        end: usize,
    ) -> u64 {
        let end = end.min(self.len);
        if start >= end {
            return 0;
        }
        debug_assert!(end - start <= 64, "mask covers at most 64 entries");
        // SAFETY: no concurrent writers per the caller contract.
        crate::simd::nonempty_mask_unsync_at(level, &self.words[start * W..end * W], W)
    }

    /// Calls `f(chunk_start, chunk_end)` for each summary chunk in
    /// `start..end` that may contain non-empty entries, skipping chunks
    /// whose summary bit is clear. Conservative: `f` may see an all-empty
    /// chunk, but never misses a non-empty entry.
    pub fn for_each_active_chunk(
        &self,
        start: usize,
        end: usize,
        f: impl FnMut(usize, usize),
    ) -> ScanStats {
        self.summary
            .for_each_active_chunk(start, end.min(self.len), f)
    }

    /// Best-effort prefetch of the cache line holding entry `v`'s first word.
    #[inline]
    pub fn prefetch_entry(&self, v: usize) {
        crate::prefetch::prefetch_index(&self.words, v * W);
    }

    /// Bytes of heap memory used.
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8 + self.summary.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{B128, B64};

    #[test]
    fn get_set_roundtrip() {
        let a: StateArray<2> = StateArray::new(5);
        assert_eq!(a.len(), 5);
        let b = B128::single(100) | B128::single(3);
        a.set(2, b);
        assert_eq!(a.get(2), b);
        assert_eq!(a.get(1), B128::EMPTY);
        a.set(2, B128::EMPTY);
        assert_eq!(a.get(2), B128::EMPTY);
    }

    #[test]
    fn fetch_or_returns_old() {
        let a: StateArray<1> = StateArray::new(3);
        let old = a.fetch_or(0, B64::single(1));
        assert_eq!(old, B64::EMPTY);
        let old = a.fetch_or(0, B64::single(1) | B64::single(2));
        assert_eq!(old, B64::single(1));
        assert_eq!(a.get(0), B64::single(1) | B64::single(2));
    }

    #[test]
    fn fetch_or_skips_noop_words() {
        let a: StateArray<2> = StateArray::new(1);
        a.set(0, B128::single(0));
        // Word 1 of the operand is zero and word 0 is a subset: no change.
        let old = a.fetch_or(0, B128::single(0));
        assert_eq!(old, B128::single(0));
        assert_eq!(a.get(0), B128::single(0));
    }

    #[test]
    fn cas_variant_matches_fetch_or() {
        let a: StateArray<4> = StateArray::new(2);
        let b: StateArray<4> = StateArray::new(2);
        let x = crate::B256::single(7) | crate::B256::single(200);
        let y = crate::B256::single(200) | crate::B256::single(9);
        assert_eq!(a.fetch_or(1, x), b.fetch_or_cas(1, x));
        assert_eq!(a.fetch_or(1, y), b.fetch_or_cas(1, y));
        assert_eq!(a.get(1), b.get(1));
    }

    #[test]
    fn clear_range_and_counts() {
        let a: StateArray<1> = StateArray::new(10);
        for v in 0..10 {
            a.set(v, B64::single(v));
        }
        assert!((0..10).all(|v| a.get(v) == B64::single(v)));
        // SAFETY: single-threaded; nothing else touches `a`.
        unsafe { a.clear_range_owned(2, 7) };
        for v in 0..10 {
            let want = if (2..7).contains(&v) {
                B64::EMPTY
            } else {
                B64::single(v)
            };
            assert_eq!(a.get(v), want, "v={v}");
        }
        a.clear_all();
        assert!((0..10).all(|v| a.get(v).is_empty()));
    }

    #[test]
    fn concurrent_fetch_or_loses_nothing() {
        use std::sync::Arc;
        let a: Arc<StateArray<1>> = Arc::new(StateArray::new(64));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for v in 0..64 {
                        for bit in (t..64).step_by(4) {
                            a.fetch_or(v, B64::single(bit));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for v in 0..64 {
            assert_eq!(a.get(v), B64::ALL);
        }
    }

    #[test]
    fn or_from_and_owned_clear_match_entrywise() {
        let a: StateArray<2> = StateArray::new(200);
        let b: StateArray<2> = StateArray::new(200);
        for v in (0..200).step_by(3) {
            a.set(v, B128::single(v % 128));
        }
        for v in (0..200).step_by(5) {
            b.set(v, B128::single((v + 1) % 128));
        }
        // SAFETY: both arrays are exclusively owned by this test.
        unsafe { a.or_from_at(crate::simd::current(), &b, 10, 150) };
        for v in 0..200 {
            let mut want = if v % 3 == 0 {
                B128::single(v % 128)
            } else {
                B128::EMPTY
            };
            if (10..150).contains(&v) && v % 5 == 0 {
                want |= B128::single((v + 1) % 128);
            }
            assert_eq!(a.get(v), want, "v={v}");
        }
        // Summary marks propagated: a summary-guided scan sees b's chunks.
        let mut saw135 = false;
        a.for_each_active_chunk(0, 200, |s, e| saw135 |= (s..e).contains(&135));
        assert!(saw135);
        // SAFETY: as above.
        unsafe { a.clear_range_owned(0, 200) };
        assert!((0..200).all(|v| a.get(v).is_empty()));
        let stats = a.for_each_active_chunk(0, 200, |_, _| panic!("all clear"));
        assert_eq!(stats.chunks_scanned, 0);
    }

    #[test]
    fn nonempty_mask_matches_gets() {
        let a: StateArray<4> = StateArray::new(130);
        a.set(64, crate::B256::single(200));
        a.set(70, crate::B256::single(0));
        a.set(127, crate::B256::single(63));
        let lvl = crate::simd::current();
        // SAFETY: exclusively owned by this test.
        let mask = unsafe { a.nonempty_mask_at(lvl, 64, 128) };
        assert_eq!(mask, 1 | (1 << 6) | (1 << 63));
        // Partial trailing range.
        assert_eq!(unsafe { a.nonempty_mask_at(lvl, 128, 130) }, 0);
        a.set(129, crate::B256::single(1));
        assert_eq!(unsafe { a.nonempty_mask_at(lvl, 128, 130) }, 1 << 1);
    }

    #[test]
    fn words_are_cache_line_aligned() {
        let a: StateArray<8> = StateArray::new(33);
        assert_eq!(a.words.as_ptr() as usize % crate::CACHE_LINE_BYTES, 0);
    }

    #[test]
    fn heap_bytes() {
        let a: StateArray<8> = StateArray::new(100);
        // 100 entries × 8 words × 8 bytes, plus one 8-byte summary word
        // covering the two 64-entry chunks.
        assert_eq!(a.heap_bytes(), 100 * 8 * 8 + 8);
    }

    #[test]
    fn summary_tracks_writes_and_clears() {
        let a: StateArray<1> = StateArray::new(300);
        a.fetch_or(70, B64::single(0)); // chunk 1
        a.set(256, B64::single(3)); // chunk 4
        a.set(256, B64::EMPTY); // conservative: summary bit stays
        let mut chunks = Vec::new();
        a.for_each_active_chunk(0, 300, |s, e| chunks.push((s, e)));
        assert_eq!(chunks, vec![(64, 128), (256, 300)]);
        // Empty writes never mark.
        a.set(10, B64::EMPTY);
        let stats = a.for_each_active_chunk(0, 64, |_, _| panic!("chunk 0 clear"));
        assert_eq!(stats.chunks_scanned, 0);
        a.clear_all();
        let stats = a.for_each_active_chunk(0, 300, |_, _| panic!("all clear"));
        assert_eq!(stats.chunks_scanned, 0);
    }
}
