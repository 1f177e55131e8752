//! Dense-to-sparse frontier conversion.
//!
//! When the adaptive frontier controller (`pbfs-core::adapt`) picks the
//! sparse strategy for an MS-PBFS iteration, the kernel gathers the
//! frontier state array into a sorted queue of `(vertex, bits)` pairs once
//! and expands that instead of scanning the vertex range. The gather walks
//! the source through its frontier summary, so a sparse frontier converts
//! in O(active chunks), not O(V). No kernel ever converts back: the next
//! frontier is always written into the dense state array.
//!
//! [`gather_state`] takes a `cap` and returns `None` instead of a list
//! larger than it — the caller then stays on the dense representation for
//! that iteration, so an underestimated frontier count degrades
//! performance, never correctness.

use crate::{Bits, StateArray};

/// Collects the non-empty entries of a multi-source state array into a
/// sorted sparse queue of `(vertex, bits)` pairs, or `None` if more than
/// `cap` entries are active.
///
/// Each active chunk is scanned with one vectorized
/// [`StateArray::nonempty_mask`] pass instead of `W` word loads per entry,
/// so the per-entry `is_empty` test costs one bit probe. This must not
/// race with writers to `src` (all call sites run between the traversal's
/// phase barriers).
pub fn gather_state<const W: usize>(
    src: &StateArray<W>,
    cap: usize,
) -> Option<Vec<(u32, Bits<W>)>> {
    let mut out = Vec::new();
    let mut overflow = false;
    src.for_each_active_chunk(0, src.len(), |cs, ce| {
        // SAFETY: the gather runs between phase barriers with no concurrent
        // writers to the source array (see the doc contract above).
        let mut mask = unsafe { src.nonempty_mask(cs, ce) };
        while mask != 0 {
            let v = cs + mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if out.len() < cap {
                out.push((v as u32, src.get(v)));
            } else {
                overflow = true;
            }
        }
    });
    (!overflow).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_preserves_bit_patterns() {
        let src: StateArray<2> = StateArray::new(200);
        src.set(0, Bits::single(0));
        src.set(63, Bits::single(100));
        src.set(64, Bits::single(64) | Bits::single(1));
        src.set(199, Bits::first_n(128));
        let entries = gather_state(&src, 200).unwrap();
        let vertices: Vec<u32> = entries.iter().map(|e| e.0).collect();
        assert_eq!(vertices, vec![0, 63, 64, 199]);
        for (v, bits) in entries {
            assert_eq!(bits, src.get(v as usize), "entry {v}");
        }
    }

    #[test]
    fn gather_cap_overflow_returns_none() {
        let state: StateArray<1> = StateArray::new(300);
        for i in 0..10 {
            state.set(i * 7, Bits::single(3));
        }
        assert!(gather_state(&state, 9).is_none());
        assert_eq!(gather_state(&state, 10).unwrap().len(), 10);
    }
}
