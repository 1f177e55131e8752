//! Property tests: every SIMD dispatch level must be bit-identical to the
//! portable scalar reference — on random word slices of every length
//! (exercising each kernel's vector body *and* its scalar tail), on the
//! fused `Bits::settle_at`, and on whole `StateArray` span kernels.
//!
//! `*_at(level, …)` clamps to hardware support internally, so iterating
//! `SimdLevel::ALL` is sound on any machine: unsupported levels degrade to
//! the widest supported one, which must still match scalar exactly.

use proptest::prelude::*;

use pbfs_bitset::simd::{nonempty_mask_at, or_assign_at, settle_at};
use pbfs_bitset::{Bits, SimdLevel, StateArray};

/// Scalar-reference results for one `(next, seen)` settle input.
fn scalar_settle(next: &[u64], seen: &[u64]) -> (Vec<u64>, Vec<u64>, bool, bool) {
    let new: Vec<u64> = next.iter().zip(seen).map(|(&n, &s)| n & !s).collect();
    let merged: Vec<u64> = next.iter().zip(seen).map(|(&n, &s)| n | s).collect();
    let any = new.iter().any(|&w| w != 0);
    let trimmed = next.iter().zip(seen).any(|(&n, &s)| n & s != 0);
    (new, merged, any, trimmed)
}

/// Sparse word values: all-zero and all-one words are common in frontier
/// state and exercise the emptiness/flag accumulators, so weight them in.
fn sparse_word(v: u64, shape: u32) -> u64 {
    match shape % 4 {
        0 => 0,
        1 => u64::MAX,
        2 => 1u64 << (v % 64),
        _ => v,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn or_assign_matches_scalar_at_every_level(
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u32>()), 0..70),
    ) {
        let dst0: Vec<u64> = pairs.iter().map(|&(a, _, s)| sparse_word(a, s)).collect();
        let src: Vec<u64> = pairs.iter().map(|&(_, b, s)| sparse_word(b, s >> 2)).collect();
        let expected: Vec<u64> = dst0.iter().zip(&src).map(|(&d, &s)| d | s).collect();
        for level in SimdLevel::ALL {
            let mut dst = dst0.clone();
            or_assign_at(level, &mut dst, &src);
            prop_assert_eq!(&dst, &expected, "or_assign diverged at {:?}", level);
        }
    }

    #[test]
    fn settle_matches_scalar_at_every_level(
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u32>()), 0..70),
    ) {
        let next: Vec<u64> = pairs.iter().map(|&(n, _, s)| sparse_word(n, s)).collect();
        let seen: Vec<u64> = pairs.iter().map(|&(_, m, s)| sparse_word(m, s >> 2)).collect();
        let (enew, emerged, eany, etrim) = scalar_settle(&next, &seen);
        for level in SimdLevel::ALL {
            let mut new = vec![0u64; next.len()];
            let mut merged = vec![0u64; next.len()];
            let flags = settle_at(level, &next, &seen, &mut new, &mut merged);
            prop_assert_eq!(&new, &enew, "settle new diverged at {:?}", level);
            prop_assert_eq!(&merged, &emerged, "settle merged diverged at {:?}", level);
            prop_assert_eq!(flags.new_any, eany, "settle new_any diverged at {:?}", level);
            prop_assert_eq!(flags.trimmed, etrim, "settle trimmed diverged at {:?}", level);
        }
    }

    #[test]
    fn nonempty_mask_matches_scalar_at_every_level(
        raw in proptest::collection::vec((any::<u64>(), any::<u32>()), 0..65),
        entry_words in 1usize..10,
        entries in 0usize..65,
    ) {
        // Build `entries.min(64)` entries of `entry_words` words each,
        // cycling the raw pool — covers the specialized widths 1/2/4/8 and
        // the generic fallback, full 64-entry chunks and ragged tails.
        let entries = entries.min(64);
        let n = entries * entry_words;
        let w: Vec<u64> = (0..n)
            .map(|i| {
                let (v, s) = raw.get(i % raw.len().max(1)).copied().unwrap_or((0, 0));
                sparse_word(v, s.wrapping_add(i as u32))
            })
            .collect();
        let mut expected = 0u64;
        for (e, entry) in w.chunks_exact(entry_words).enumerate() {
            if entry.iter().any(|&x| x != 0) {
                expected |= 1u64 << e;
            }
        }
        for level in SimdLevel::ALL {
            prop_assert_eq!(
                nonempty_mask_at(level, &w, entry_words),
                expected,
                "nonempty_mask diverged at {:?} (w={}, entries={})",
                level, entry_words, entries
            );
        }
    }

    #[test]
    fn bits_settle_matches_manual_ops_at_every_level(
        next in proptest::array::uniform2(any::<u64>()),
        seen in proptest::array::uniform2(any::<u64>()),
    ) {
        let nx: Bits<2> = Bits::from_words(next);
        let sn: Bits<2> = Bits::from_words(seen);
        let expected_new = nx.and_not(&sn);
        let expected_merged = nx | sn;
        for level in SimdLevel::ALL {
            let (new, merged, flags) = nx.settle_at(level, &sn);
            prop_assert_eq!(new, expected_new, "Bits::settle_at new diverged at {:?}", level);
            prop_assert_eq!(merged, expected_merged, "Bits::settle_at merged diverged at {:?}", level);
            prop_assert_eq!(flags.new_any, !expected_new.is_empty(), "{:?}", level);
            prop_assert_eq!(flags.trimmed, !(nx & sn).is_empty(), "{:?}", level);
        }
    }

    #[test]
    fn state_array_span_kernels_match_per_entry_ops_at_every_level(
        len in 1usize..300,
        writes in proptest::collection::vec((0usize..300, 0usize..256), 1..60),
    ) {
        // or_from_at and nonempty_mask_at over a StateArray must agree with
        // the per-entry safe API at every level, on lengths that straddle
        // summary-chunk boundaries.
        let src: StateArray<4> = StateArray::new(len);
        for &(v, bit) in &writes {
            src.fetch_or(v % len, Bits::single(bit % 256));
        }
        for level in SimdLevel::ALL {
            let dst: StateArray<4> = StateArray::new(len);
            for &(v, _) in &writes {
                dst.fetch_or(v % len, Bits::single(0));
            }
            // SAFETY: both arrays are exclusively owned by this test.
            unsafe { dst.or_from_at(level, &src, 0, len) };
            for v in 0..len {
                let mut expected = src.get(v);
                if writes.iter().any(|&(w, _)| w % len == v) {
                    expected |= Bits::single(0);
                }
                prop_assert_eq!(dst.get(v), expected, "or_from_at diverged at {:?}", level);
            }
            let mut cs = 0;
            while cs < len {
                let ce = (cs + 64).min(len);
                // SAFETY: as above — no concurrent writers.
                let mask = unsafe { dst.nonempty_mask_at(level, cs, ce) };
                for v in cs..ce {
                    let expect = !dst.get(v).is_empty();
                    prop_assert_eq!(
                        mask & (1u64 << (v - cs)) != 0,
                        expect,
                        "nonempty_mask diverged at {:?} for entry {}",
                        level, v
                    );
                }
                cs = ce;
            }
        }
    }
}
