//! Property tests: summary-guided iteration must visit exactly the set
//! entries that a linear scan finds — on every container, at every
//! word/chunk boundary the generator happens to land on.

use proptest::prelude::*;

use pbfs_bitset::{AtomicBitVec, AtomicByteVec, Bits, StateArray};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn bitvec_summary_matches_linear_scan(
        len in 1usize..20_000,
        raw in proptest::collection::vec(0usize..20_000, 0..200),
    ) {
        let v = AtomicBitVec::new(len);
        for &b in &raw {
            v.set(b % len);
        }
        let expected: Vec<usize> = (0..len).filter(|&i| v.get(i)).collect();
        let mut got = Vec::new();
        let stats = v.for_each_active_chunk(0, len, |a, b| {
            for i in a..b {
                if v.get(i) {
                    got.push(i);
                }
            }
        });
        prop_assert_eq!(got, expected);
        prop_assert_eq!(
            (stats.chunks_skipped + stats.chunks_scanned) as usize,
            len.div_ceil(64)
        );
    }

    #[test]
    fn bytevec_summary_matches_linear_scan(
        len in 1usize..20_000,
        raw in proptest::collection::vec(0usize..20_000, 0..200),
    ) {
        let v = AtomicByteVec::new(len);
        for &b in &raw {
            v.set(b % len);
        }
        let expected: Vec<usize> = (0..len).filter(|&i| v.get(i)).collect();
        let mut got = Vec::new();
        v.for_each_active_chunk(0, len, |a, b| {
            for i in a..b {
                if v.get(i) {
                    got.push(i);
                }
            }
        });
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn state_array_summary_matches_linear_scan(
        len in 1usize..10_000,
        raw in proptest::collection::vec((0usize..10_000, 0usize..64), 0..150),
    ) {
        let s: StateArray<1> = StateArray::new(len);
        for &(v, bit) in &raw {
            s.fetch_or(v % len, Bits::single(bit));
        }
        let expected: Vec<usize> = (0..len).filter(|&i| !s.get(i).is_empty()).collect();
        let mut got = Vec::new();
        s.for_each_active_chunk(0, len, |a, b| {
            for i in a..b {
                if !s.get(i).is_empty() {
                    got.push(i);
                }
            }
        });
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn recycled_bitvec_summary_does_not_accumulate_stale_chunks(
        len in 256usize..8_192,
        gens in proptest::collection::vec(
            proptest::collection::vec(0usize..8_192, 1..40),
            2..10,
        ),
    ) {
        // Frontier recycling: every BFS iteration sets a sparse frontier,
        // scans it through the summary, then returns the storage with
        // chunk-aligned range clears. A clear that forgot to unmark the
        // summary would leave stale bits behind, so each generation's scan
        // would touch every chunk any *earlier* generation used and the
        // skip ratio would drift toward zero. Assert the scan stays exact:
        // generation g scans precisely g's own chunks, no matter how many
        // generations came before.
        let v = AtomicBitVec::new(len);
        let total_chunks = len.div_ceil(64) as u64;
        for entries in &gens {
            let mut chunks: Vec<usize> = entries.iter().map(|&e| e % len / 64).collect();
            chunks.sort_unstable();
            chunks.dedup();
            for &e in entries {
                v.set(e % len);
            }
            let stats = v.for_each_active_chunk(0, len, |_, _| {});
            prop_assert_eq!(
                stats.chunks_scanned,
                chunks.len() as u64,
                "scan touched stale chunks left by an earlier generation"
            );
            prop_assert_eq!(stats.chunks_skipped, total_chunks - chunks.len() as u64);
            prop_assert!(
                stats.skip_ratio() >= 1.0 - chunks.len() as f64 / total_chunks as f64 - 1e-9
            );
            // Recycle: chunk-aligned clears of exactly the touched chunks.
            for &c in &chunks {
                v.clear_range_words(c * 64, ((c + 1) * 64).min(len));
            }
        }
        // After the final recycle nothing is marked at all.
        let stats = v.for_each_active_chunk(0, len, |_, _| panic!("stale chunk"));
        prop_assert_eq!(stats.chunks_scanned, 0);
    }

    #[test]
    fn recycled_state_array_summary_does_not_accumulate_stale_chunks(
        len in 256usize..6_000,
        gens in proptest::collection::vec(
            proptest::collection::vec((0usize..6_000, 0usize..64), 1..30),
            2..10,
        ),
    ) {
        // Same recycling property on StateArray, the engine's frontier and
        // scatter/gather contribution type: repeated fetch_or → summary
        // scan → chunk-aligned clear_range_owned cycles (the sharded engine's
        // per-batch contribution reuse) must not accumulate stale summary
        // bits across batches.
        let s: StateArray<1> = StateArray::new(len);
        let total_chunks = len.div_ceil(64) as u64;
        for entries in &gens {
            let mut chunks: Vec<usize> = entries.iter().map(|&(e, _)| e % len / 64).collect();
            chunks.sort_unstable();
            chunks.dedup();
            for &(e, bit) in entries {
                s.fetch_or(e % len, Bits::single(bit));
            }
            let stats = s.for_each_active_chunk(0, len, |_, _| {});
            prop_assert_eq!(
                stats.chunks_scanned,
                chunks.len() as u64,
                "scan touched stale chunks left by an earlier generation"
            );
            prop_assert!(
                stats.skip_ratio() >= 1.0 - chunks.len() as f64 / total_chunks as f64 - 1e-9
            );
            for &c in &chunks {
                // SAFETY: single-threaded; nothing else touches `s`.
                unsafe { s.clear_range_owned(c * 64, ((c + 1) * 64).min(len)) };
            }
        }
        let stats = s.for_each_active_chunk(0, len, |_, _| panic!("stale chunk"));
        prop_assert_eq!(stats.chunks_scanned, 0);
    }

    #[test]
    fn range_clears_never_hide_entries_outside_the_range(
        len in 128usize..8_192,
        raw in proptest::collection::vec(0usize..8_192, 1..100),
        lo_chunk in 0usize..64,
        span in 1usize..64,
    ) {
        // Clearing an arbitrary chunk-aligned word range must leave every
        // set bit outside it reachable through the summary.
        let v = AtomicBitVec::new(len);
        for &b in &raw {
            v.set(b % len);
        }
        let words = len.div_ceil(64);
        let lo = lo_chunk.min(words.saturating_sub(1));
        let hi = (lo + span).min(words);
        // clear_range_words takes entry indices; lo/hi are word-aligned.
        v.clear_range_words(lo * 64, (hi * 64).min(len));
        let expected: Vec<usize> = (0..len).filter(|&i| v.get(i)).collect();
        let mut got = Vec::new();
        v.for_each_active_chunk(0, len, |a, b| {
            for i in a..b {
                if v.get(i) {
                    got.push(i);
                }
            }
        });
        prop_assert_eq!(&got, &expected);
        for i in expected {
            prop_assert!(!(lo * 64..hi * 64).contains(&i), "bit {i} survived its own clear");
        }
    }
}
