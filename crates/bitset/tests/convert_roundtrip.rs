//! Property tests for `convert::gather_state`, the dense-to-sparse frontier
//! gather MS-PBFS runs on sparse iterations: on random state arrays
//! (including partial last chunks) it returns exactly the non-empty
//! entries, in ascending order with their bits, and its `cap` is exact.

use proptest::prelude::*;

use pbfs_bitset::{convert, Bits, StateArray};

/// Fills a fresh `StateArray<W>` of `len` entries: each `(vertex, word,
/// value)` triple ORs `value` into one word of one entry, and `tail`
/// additionally populates the last entry so the partial last chunk is hit.
fn populate<const W: usize>(len: usize, raw: &[(usize, usize, u64)], tail: bool) -> StateArray<W> {
    let state = StateArray::new(len);
    for &(v, word, value) in raw {
        let v = v % len;
        let mut words = [0u64; W];
        words[word % W] = value;
        state.set(v, state.get(v) | Bits::from_words(words));
    }
    if tail {
        state.set(len - 1, state.get(len - 1) | Bits::single(W * 64 - 1));
    }
    state
}

/// Checks `gather_state` against a naive per-entry scan of `src`.
fn check_gather<const W: usize>(src: &StateArray<W>) -> Result<(), TestCaseError> {
    let expected: Vec<(u32, Bits<W>)> = (0..src.len())
        .filter(|&v| !src.get(v).is_empty())
        .map(|v| (v as u32, src.get(v)))
        .collect();
    let count = expected.len();
    let gathered = convert::gather_state(src, count);
    prop_assert_eq!(gathered, Some(expected));
    if count > 0 {
        prop_assert!(convert::gather_state(src, count - 1).is_none());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn gather_state_w1_matches_naive_scan(
        len in 1usize..6_000,
        raw in proptest::collection::vec((0usize..6_000, 0usize..1, 1u64..u64::MAX), 0..120),
        tail in any::<bool>(),
    ) {
        check_gather(&populate::<1>(len, &raw, tail))?;
    }

    #[test]
    fn gather_state_w8_matches_naive_scan(
        len in 1usize..3_000,
        raw in proptest::collection::vec((0usize..3_000, 0usize..8, 1u64..u64::MAX), 0..120),
        tail in any::<bool>(),
    ) {
        check_gather(&populate::<8>(len, &raw, tail))?;
    }
}
