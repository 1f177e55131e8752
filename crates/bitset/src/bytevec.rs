//! One-byte-per-vertex state for the SMS-PBFS(byte) variant.
//!
//! Section 3.2 of the paper: with a bit representation the state of 512
//! vertices shares one cache line, so concurrent top-down updates contend
//! heavily; a byte per vertex trades 8× the memory for an update that is a
//! single atomic *store* (no read-modify-write) and 8× fewer vertices per
//! cache line.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::aligned::CacheAligned;
use crate::summary::{FrontierSummary, ScanStats};

/// A dense vector of boolean bytes supporting concurrent mutation.
///
/// Carries a [`FrontierSummary`] (one bit per 64 bytes — exactly one cache
/// line): setters mark it on activation, so summary-guided scans
/// ([`Self::for_each_active_chunk`]) skip untouched cache lines entirely.
pub struct AtomicByteVec {
    bytes: CacheAligned<AtomicU8>,
    summary: FrontierSummary,
}

impl AtomicByteVec {
    /// Creates a vector of `len` zero bytes (64-byte aligned: one summary
    /// chunk is exactly one cache line, starting on a line boundary).
    pub fn new(len: usize) -> Self {
        Self {
            bytes: CacheAligned::zeroed(len),
            summary: FrontierSummary::new(len),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True iff `len() == 0`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Tests entry `i` (relaxed).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.bytes[i].load(Ordering::Relaxed) != 0
    }

    /// Sets entry `i` with a plain atomic store — the simplification over
    /// the multi-source CAS loop that SMS-PBFS enables (Section 3.2).
    /// Concurrent setters race benignly: all of them write `1`.
    #[inline]
    pub fn set(&self, i: usize) {
        // The summary mark pre-checks its own bit, so the steady-state
        // cost on an already-active chunk is one cached load.
        self.summary.mark(i);
        self.bytes[i].store(1, Ordering::Relaxed);
    }

    /// Sets entry `i`, returning whether this call flipped it. Exactly one
    /// concurrent setter observes `true` (used for parent/tree recording).
    #[inline]
    pub fn set_claim(&self, i: usize) -> bool {
        let flipped = self.bytes[i].swap(1, Ordering::Relaxed) == 0;
        if flipped {
            self.summary.mark(i);
        }
        flipped
    }

    /// Clears entry `i`.
    #[inline]
    pub fn clear(&self, i: usize) {
        self.bytes[i].store(0, Ordering::Relaxed);
    }

    /// Clears every entry (single-threaded).
    pub fn clear_all(&self) {
        for b in self.bytes.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.summary.clear_all();
    }

    /// Clears entries in `start..end`.
    ///
    /// Summary bits are cleared conservatively: only chunks fully contained
    /// in the range are unmarked, so boundary chunks shared with a
    /// neighboring task stay (possibly falsely) marked.
    pub fn clear_range(&self, start: usize, end: usize) {
        let end = end.min(self.bytes.len());
        for b in &self.bytes[start..end] {
            b.store(0, Ordering::Relaxed);
        }
        self.summary.clear_entry_range(start, end);
    }

    /// Number of set entries (relaxed snapshot).
    pub fn count_ones(&self) -> usize {
        self.bytes
            .iter()
            .filter(|b| b.load(Ordering::Relaxed) != 0)
            .count()
    }

    /// True iff any entry in the 8-entry chunk starting at `8 * chunk` is
    /// set — the byte-variant counterpart of the paper's 8-byte range check.
    #[inline]
    pub fn chunk_any(&self, chunk: usize) -> bool {
        let start = chunk * 8;
        let end = (start + 8).min(self.bytes.len());
        self.bytes[start..end]
            .iter()
            .any(|b| b.load(Ordering::Relaxed) != 0)
    }

    /// True iff every entry in the 8-entry chunk starting at `8 * chunk` is
    /// set (bottom-up skip: the whole chunk is already seen).
    #[inline]
    pub fn chunk_all(&self, chunk: usize) -> bool {
        let start = chunk * 8;
        let end = (start + 8).min(self.bytes.len());
        self.bytes[start..end]
            .iter()
            .all(|b| b.load(Ordering::Relaxed) != 0)
    }

    /// Calls `f` for every set entry in `start..end`. With `chunk_skip`,
    /// 8-entry chunks that are entirely clear are skipped.
    pub fn for_each_set(
        &self,
        start: usize,
        end: usize,
        chunk_skip: bool,
        mut f: impl FnMut(usize),
    ) {
        let end = end.min(self.bytes.len());
        let mut i = start;
        while i < end {
            if chunk_skip && i.is_multiple_of(8) && i + 8 <= end && !self.chunk_any(i / 8) {
                i += 8;
                continue;
            }
            if self.get(i) {
                f(i);
            }
            i += 1;
        }
    }

    /// Calls `f` for every **clear** entry in `start..end`. With
    /// `chunk_skip`, fully-set 8-entry chunks are skipped.
    pub fn for_each_clear(
        &self,
        start: usize,
        end: usize,
        chunk_skip: bool,
        mut f: impl FnMut(usize),
    ) {
        let end = end.min(self.bytes.len());
        let mut i = start;
        while i < end {
            if chunk_skip && i.is_multiple_of(8) && i + 8 <= end && self.chunk_all(i / 8) {
                i += 8;
                continue;
            }
            if !self.get(i) {
                f(i);
            }
            i += 1;
        }
    }

    /// Calls `f(chunk_start, chunk_end)` for each summary chunk in
    /// `start..end` that may contain set entries, skipping chunks whose
    /// summary bit is clear. Conservative: `f` may see an all-clear chunk,
    /// but never misses a set entry.
    pub fn for_each_active_chunk(
        &self,
        start: usize,
        end: usize,
        f: impl FnMut(usize, usize),
    ) -> ScanStats {
        self.summary
            .for_each_active_chunk(start, end.min(self.bytes.len()), f)
    }

    /// Bytes of heap memory used.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len() + self.summary.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let v = AtomicByteVec::new(100);
        assert_eq!(v.len(), 100);
        assert!(!v.get(42));
        v.set(42);
        assert!(v.get(42));
        v.clear(42);
        assert!(!v.get(42));
    }

    #[test]
    fn set_claim_flips_once() {
        let v = AtomicByteVec::new(10);
        assert!(v.set_claim(3));
        assert!(!v.set_claim(3));
        assert!(v.get(3));
    }

    #[test]
    fn clear_range_and_all() {
        let v = AtomicByteVec::new(50);
        for i in 0..50 {
            v.set(i);
        }
        v.clear_range(10, 20);
        assert_eq!(v.count_ones(), 40);
        v.clear_all();
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn chunk_any() {
        let v = AtomicByteVec::new(32);
        assert!(!v.chunk_any(0));
        v.set(9);
        assert!(v.chunk_any(1));
        assert!(!v.chunk_any(0));
        assert!(!v.chunk_any(2));
    }

    #[test]
    fn chunk_all() {
        let v = AtomicByteVec::new(16);
        assert!(!v.chunk_all(0));
        for i in 0..8 {
            v.set(i);
        }
        assert!(v.chunk_all(0));
        assert!(!v.chunk_all(1));
    }

    #[test]
    fn for_each_set_and_clear_are_complements() {
        let v = AtomicByteVec::new(30);
        for i in [0usize, 8, 9, 29] {
            v.set(i);
        }
        for chunk_skip in [false, true] {
            let mut set = Vec::new();
            v.for_each_set(0, 30, chunk_skip, |i| set.push(i));
            assert_eq!(set, vec![0, 8, 9, 29], "skip={chunk_skip}");
            let mut clear = Vec::new();
            v.for_each_clear(0, 30, chunk_skip, |i| clear.push(i));
            assert_eq!(clear.len(), 26);
            assert!(!clear.contains(&8));
        }
    }

    #[test]
    fn for_each_clear_skips_full_chunks() {
        let v = AtomicByteVec::new(24);
        for i in 8..16 {
            v.set(i);
        }
        let mut clear = Vec::new();
        v.for_each_clear(0, 24, true, |i| clear.push(i));
        assert_eq!(clear.len(), 16);
        assert!(clear.iter().all(|&i| !(8..16).contains(&i)));
    }

    #[test]
    fn summary_tracks_sets_and_clears() {
        let v = AtomicByteVec::new(200);
        v.set(70); // chunk 1
        v.set_claim(130); // chunk 2
        let mut chunks = Vec::new();
        let stats = v.for_each_active_chunk(0, 200, |s, e| chunks.push((s, e)));
        assert_eq!(chunks, vec![(64, 128), (128, 192)]);
        assert_eq!(stats.chunks_scanned, 2);
        assert_eq!(stats.chunks_skipped, 2);
        // Full-range clear unmarks everything, including the partial tail.
        v.clear_range(0, 200);
        let stats = v.for_each_active_chunk(0, 200, |_, _| panic!("no active chunks"));
        assert_eq!(stats.chunks_scanned, 0);
    }

    #[test]
    fn concurrent_stores_converge() {
        use std::sync::Arc;
        let v = Arc::new(AtomicByteVec::new(1024));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let v = Arc::clone(&v);
                std::thread::spawn(move || {
                    for i in 0..1024 {
                        v.set(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.count_ones(), 1024);
    }
}
