//! Safe software-prefetch shim.
//!
//! The MS-PBFS kernel chases three dependent pointers per frontier vertex
//! — CSR offset pair → adjacency slice → destination state entry — and
//! each hop is a likely cache miss on large graphs. Issuing a prefetch a
//! few vertices (or neighbors) ahead overlaps those misses with useful
//! work. This module wraps the architecture intrinsic behind a safe,
//! bounds-checked API with a portable no-op fallback, so kernels can
//! prefetch unconditionally without `unsafe` or `cfg` noise.
//!
//! Prefetches are hints: they never fault, never change architectural
//! state, and the no-op fallback keeps every platform correct.

/// Issues a best-effort prefetch-for-read of `slice[index]` into all cache
/// levels. Out-of-range indices are ignored, so callers can prefetch
/// `i + distance` without clamping.
#[inline(always)]
pub fn prefetch_index<T>(slice: &[T], index: usize) {
    if index < slice.len() {
        // SAFETY: `index` is in bounds, so the pointer is valid; prefetch
        // does not dereference it architecturally.
        prefetch_ptr(unsafe { slice.as_ptr().add(index) });
    }
}

/// Issues a prefetch-for-read of the cache line holding `*p`.
#[inline(always)]
fn prefetch_ptr<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint with no memory or register effects;
    // it is defined for any address, valid or not.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // Portable fallback: no stable prefetch intrinsic — do nothing.
        let _ = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_and_out_of_bounds_are_both_fine() {
        let data = vec![0u64; 128];
        for i in [0usize, 1, 64, 127, 128, 100_000, usize::MAX] {
            prefetch_index(&data, i);
        }
        let empty: &[u32] = &[];
        prefetch_index(empty, 0);
    }
}
