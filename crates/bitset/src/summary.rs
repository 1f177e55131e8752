//! Two-level frontier summary hierarchy.
//!
//! The paper's 64-bit chunk skipping (Section 3.2) still has to *load* one
//! word per 64 vertices even when the frontier is almost empty: the scan
//! cost is O(V / 64). This module adds a second level on top: one summary
//! bit per [`SUMMARY_CHUNK`] vertices, set with a single `fetch_or` the
//! first time any state inside the chunk activates. Iterating a sparse
//! frontier then touches O(V / 4096) summary words plus one state word per
//! *active* chunk instead of every chunk word in the range.
//!
//! The summary is deliberately **conservative**: a set bit means "this
//! chunk *may* contain active state", never the reverse. Per-entry clears
//! (`clear_owned`, an empty `set`) and range clears that only partially
//! cover a chunk leave the bit set; the scan then loads the chunk, finds it
//! empty and moves on. A missed *set* would lose BFS discoveries, so every
//! mutating accessor of the owning structures marks the summary on the
//! empty→non-empty transition of its storage unit.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::WORD_BITS;

/// Vertices (entries) covered by one summary bit.
///
/// 64 matches both the chunk-skipping word of the bit representation and a
/// 64-byte cache line of the byte representation, so one summary bit always
/// guards exactly the storage a scan would touch next.
pub const SUMMARY_CHUNK: usize = 64;

/// Vertices covered by one 64-bit summary *word* (= 4096).
pub const SUMMARY_SPAN: usize = SUMMARY_CHUNK * WORD_BITS;

/// Chunk-skip accounting of one summary-guided scan.
///
/// `chunks_skipped` counts chunks dismissed by a clear summary bit (the
/// hierarchy's win); `chunks_scanned` counts chunks whose summary bit was
/// set and whose state words were therefore examined (including
/// conservative false positives).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Chunks skipped without touching their state words.
    pub chunks_skipped: u64,
    /// Chunks whose state words were examined.
    pub chunks_scanned: u64,
}

impl ScanStats {
    /// Accumulates another scan's counts into this one.
    #[inline]
    pub fn merge(&mut self, other: ScanStats) {
        self.chunks_skipped += other.chunks_skipped;
        self.chunks_scanned += other.chunks_scanned;
    }

    /// Fraction of chunks skipped (`0.0` when nothing was visited).
    pub fn skip_ratio(&self) -> f64 {
        let total = self.chunks_skipped + self.chunks_scanned;
        if total == 0 {
            0.0
        } else {
            self.chunks_skipped as f64 / total as f64
        }
    }
}

/// One summary bit per [`SUMMARY_CHUNK`] entries of a dense state array.
///
/// Shared concurrently like the state it guards: marking uses `fetch_or`
/// (skipped after a relaxed pre-check when the bit is already set, so the
/// steady-state cost of maintenance is one cached load), clearing uses
/// `fetch_and` so concurrent clears of disjoint chunk ranges compose.
pub struct FrontierSummary {
    words: Box<[AtomicU64]>,
    /// Number of chunks (= summary bits).
    chunks: usize,
    /// Number of entries covered.
    len: usize,
}

impl FrontierSummary {
    /// Creates a clear summary covering `len` entries.
    pub fn new(len: usize) -> Self {
        let chunks = len.div_ceil(SUMMARY_CHUNK);
        let mut v = Vec::with_capacity(chunks.div_ceil(WORD_BITS));
        v.resize_with(chunks.div_ceil(WORD_BITS), || AtomicU64::new(0));
        Self {
            words: v.into_boxed_slice(),
            chunks,
            len,
        }
    }

    /// Number of chunks tracked.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.chunks
    }

    /// Marks the chunk containing entry `i` as possibly-active.
    ///
    /// Pre-checks with a relaxed load so the hot already-marked case costs
    /// no atomic RMW (and no cache line invalidation).
    #[inline]
    pub fn mark(&self, i: usize) {
        crate::fail_point!("bitset.summary.mark");
        debug_assert!(i < self.len);
        let chunk = i / SUMMARY_CHUNK;
        let mask = 1u64 << (chunk % WORD_BITS);
        let word = &self.words[chunk / WORD_BITS];
        if word.load(Ordering::Relaxed) & mask == 0 {
            word.fetch_or(mask, Ordering::Relaxed);
        }
    }

    /// True iff chunk `chunk` is marked (relaxed).
    #[inline]
    pub fn is_marked(&self, chunk: usize) -> bool {
        debug_assert!(chunk < self.chunks);
        self.words[chunk / WORD_BITS].load(Ordering::Relaxed) >> (chunk % WORD_BITS) & 1 == 1
    }

    /// Clears every summary bit (single-threaded).
    pub fn clear_all(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Clears the summary bits of every chunk **fully contained** in the
    /// entry range `start..end` (the tail chunk counts as fully contained
    /// when `end` reaches the array length).
    ///
    /// Partially covered boundary chunks keep their bit — entries outside
    /// the range may still be active, and a stale bit is merely a false
    /// positive. Uses `fetch_and`, so concurrent clears of disjoint entry
    /// ranges may share a summary word safely.
    pub fn clear_entry_range(&self, start: usize, end: usize) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        let lo = start.div_ceil(SUMMARY_CHUNK);
        let hi = if end == self.len {
            self.chunks
        } else {
            end / SUMMARY_CHUNK
        };
        self.clear_chunk_range(lo, hi);
    }

    /// Clears summary bits for chunks `lo..hi` (used directly by the bit
    /// representation, whose word-granular clears cover whole chunks).
    pub fn clear_chunk_range(&self, lo: usize, hi: usize) {
        crate::fail_point!("bitset.summary.clear");
        let hi = hi.min(self.chunks);
        if lo >= hi {
            return;
        }
        let (first_wi, last_wi) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
        for wi in first_wi..=last_wi {
            let mut keep = 0u64; // bits to preserve
            if wi == first_wi {
                keep |= !(u64::MAX << (lo % WORD_BITS));
            }
            if wi == last_wi {
                let rem = hi - wi * WORD_BITS;
                if rem < WORD_BITS {
                    keep |= u64::MAX << rem;
                }
            }
            self.words[wi].fetch_and(keep, Ordering::Relaxed);
        }
    }

    /// Calls `f(chunk_start, chunk_end)` for every *marked* chunk
    /// overlapping the entry range `start..end`, with the chunk bounds
    /// clipped to the range (and to the array length). Unmarked chunks are
    /// skipped without loading any state word.
    pub fn for_each_active_chunk(
        &self,
        start: usize,
        end: usize,
        mut f: impl FnMut(usize, usize),
    ) -> ScanStats {
        let mut stats = ScanStats::default();
        let end = end.min(self.len);
        if start >= end || self.chunks == 0 {
            return stats;
        }
        let first_chunk = start / SUMMARY_CHUNK;
        let last_chunk = (end - 1) / SUMMARY_CHUNK;
        let (first_wi, last_wi) = (first_chunk / WORD_BITS, last_chunk / WORD_BITS);
        for wi in first_wi..=last_wi {
            let mut w = self.words[wi].load(Ordering::Relaxed);
            // Mask chunk bits outside [first_chunk, last_chunk].
            if wi == first_wi {
                w &= u64::MAX << (first_chunk % WORD_BITS);
            }
            let word_lo = (wi * WORD_BITS).max(first_chunk);
            let word_hi = ((wi + 1) * WORD_BITS - 1).min(last_chunk);
            if wi == last_wi {
                let rem = last_chunk - wi * WORD_BITS;
                if rem < WORD_BITS - 1 {
                    w &= (1u64 << (rem + 1)) - 1;
                }
            }
            let covered = (word_hi - word_lo + 1) as u64;
            stats.chunks_skipped += covered - w.count_ones() as u64;
            while w != 0 {
                let chunk = wi * WORD_BITS + w.trailing_zeros() as usize;
                stats.chunks_scanned += 1;
                f(
                    (chunk * SUMMARY_CHUNK).max(start),
                    ((chunk + 1) * SUMMARY_CHUNK).min(end),
                );
                w &= w - 1;
            }
        }
        stats
    }

    /// Bytes of heap memory used.
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_chunks(
        s: &FrontierSummary,
        start: usize,
        end: usize,
    ) -> (Vec<(usize, usize)>, ScanStats) {
        let mut out = Vec::new();
        let stats = s.for_each_active_chunk(start, end, |a, b| out.push((a, b)));
        (out, stats)
    }

    #[test]
    fn mark_and_scan() {
        let s = FrontierSummary::new(10_000);
        assert_eq!(s.num_chunks(), 157);
        s.mark(0);
        s.mark(4095); // chunk 63
        s.mark(4096); // chunk 64 → second summary word
        s.mark(9999); // tail chunk 156 (partial)
        let (chunks, stats) = active_chunks(&s, 0, 10_000);
        assert_eq!(
            chunks,
            vec![(0, 64), (4032, 4096), (4096, 4160), (9984, 10_000)]
        );
        assert_eq!(stats.chunks_scanned, 4);
        assert_eq!(stats.chunks_skipped, 157 - 4);
        assert!(stats.skip_ratio() > 0.97);
    }

    #[test]
    fn scan_clips_to_range() {
        let s = FrontierSummary::new(300);
        s.mark(0);
        s.mark(70);
        s.mark(299);
        let (chunks, _) = active_chunks(&s, 10, 200);
        assert_eq!(chunks, vec![(10, 64), (64, 128)]);
        let (chunks, _) = active_chunks(&s, 65, 66);
        assert_eq!(chunks, vec![(65, 66)]);
        let (chunks, stats) = active_chunks(&s, 128, 256);
        assert!(chunks.is_empty());
        assert_eq!(stats.chunks_skipped, 2);
        let (chunks, stats) = active_chunks(&s, 10, 10);
        assert!(chunks.is_empty());
        assert_eq!(stats, ScanStats::default());
    }

    #[test]
    fn clear_entry_range_is_conservative_on_partials() {
        let s = FrontierSummary::new(256);
        for i in [0usize, 64, 128, 192] {
            s.mark(i);
        }
        // 100..200 fully contains only chunk 2 (128..192).
        s.clear_entry_range(100, 200);
        assert!(s.is_marked(0) && s.is_marked(1) && !s.is_marked(2) && s.is_marked(3));
        // Tail rule: end == len counts the partial tail chunk as covered.
        let t = FrontierSummary::new(100);
        t.mark(0);
        t.mark(99);
        t.clear_entry_range(64, 100);
        assert!(t.is_marked(0) && !t.is_marked(1));
    }

    #[test]
    fn clear_chunk_range_spanning_words() {
        let s = FrontierSummary::new(SUMMARY_SPAN * 3);
        for c in 0..s.num_chunks() {
            s.mark(c * SUMMARY_CHUNK);
        }
        s.clear_chunk_range(10, 130);
        for c in 0..s.num_chunks() {
            assert_eq!(s.is_marked(c), !(10..130).contains(&c), "chunk {c}");
        }
    }

    #[test]
    fn empty_and_degenerate() {
        let s = FrontierSummary::new(0);
        assert_eq!(s.num_chunks(), 0);
        assert_eq!(
            s.for_each_active_chunk(0, 0, |_, _| panic!()),
            ScanStats::default()
        );
        let s = FrontierSummary::new(1);
        s.mark(0);
        let (chunks, _) = active_chunks(&s, 0, 1);
        assert_eq!(chunks, vec![(0, 1)]);
        s.clear_all();
        assert!(!s.is_marked(0));
    }

    #[test]
    fn active_chunk_counts_at_word_boundaries() {
        // 0 / 1 / 63 / 64 / 65 active chunks: 63 stays inside the first
        // summary word, 64 fills it exactly, 65 spills into the second.
        let total_chunks = 70;
        for active in [0usize, 1, 63, 64, 65] {
            let s = FrontierSummary::new(total_chunks * SUMMARY_CHUNK);
            for c in 0..active {
                s.mark(c * SUMMARY_CHUNK + c % SUMMARY_CHUNK);
            }
            let (chunks, stats) = active_chunks(&s, 0, total_chunks * SUMMARY_CHUNK);
            let expect: Vec<(usize, usize)> = (0..active)
                .map(|c| (c * SUMMARY_CHUNK, (c + 1) * SUMMARY_CHUNK))
                .collect();
            assert_eq!(chunks, expect, "{active} active chunks");
            assert_eq!(stats.chunks_scanned, active as u64);
            assert_eq!(stats.chunks_skipped, (total_chunks - active) as u64);
        }
    }

    #[test]
    fn last_partial_word_and_chunk() {
        // 65 chunks → two summary words, the second holding a single
        // valid bit; the 65th chunk itself is partial (50 entries).
        let len = SUMMARY_SPAN + 50;
        let s = FrontierSummary::new(len);
        assert_eq!(s.num_chunks(), 65);
        s.mark(len - 1);
        let (chunks, stats) = active_chunks(&s, 0, len);
        assert_eq!(chunks, vec![(SUMMARY_SPAN, len)]);
        assert_eq!(stats.chunks_scanned, 1);
        assert_eq!(stats.chunks_skipped, 64);
        // The tail rule treats end == len as covering the partial chunk.
        s.clear_entry_range(SUMMARY_SPAN, len);
        assert!(!s.is_marked(64));
        let (chunks, _) = active_chunks(&s, 0, len);
        assert!(chunks.is_empty());
    }

    #[test]
    fn skip_ratio_math() {
        let mut a = ScanStats::default();
        assert_eq!(a.skip_ratio(), 0.0);
        a.merge(ScanStats {
            chunks_skipped: 3,
            chunks_scanned: 1,
        });
        assert_eq!(a.skip_ratio(), 0.75);
    }

    #[test]
    fn concurrent_marks_lose_nothing() {
        use std::sync::Arc;
        let s = Arc::new(FrontierSummary::new(SUMMARY_SPAN * 4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for c in (t..s.num_chunks()).step_by(4) {
                        s.mark(c * SUMMARY_CHUNK);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for c in 0..s.num_chunks() {
            assert!(s.is_marked(c));
        }
    }
}
