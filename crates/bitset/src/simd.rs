//! Runtime-dispatched SIMD kernels for the wide-bitset hot operations.
//!
//! The MS-BFS encoding turns every hot loop of the traversal kernels into a
//! streaming pass over `W`-word bitsets. The kernels need four primitives:
//! OR-merging a frontier span into another ([`or_span_unsync_at`]), the
//! fused visit step `next & !seen` ([`settle_at`]), the "which entries of
//! this summary chunk are active" scan ([`nonempty_mask_at`]) and a bulk
//! span clear ([`clear_span_unsync`]). This module provides them over word
//! *spans* — whole [`crate::StateArray`] ranges, 64-entry summary chunks,
//! or a single `Bits<W>` — at the widest vector width the CPU offers.
//!
//! # Dispatch
//!
//! The ladder is AVX-512F → AVX2 → portable scalar. The best
//! supported level is detected once via `is_x86_feature_detected!` and
//! cached in a process-wide atomic; [`current`] reads it on every dispatch.
//! Three overrides exist, strongest first:
//!
//! 1. [`set_level`] — programmatic override (the CLI `--simd` flag);
//! 2. the `PBFS_SIMD` environment variable (`auto|scalar|avx2|avx512`),
//!    consulted when the cache is first populated — this is how CI forces a
//!    whole test-suite run onto the portable path;
//! 3. hardware detection.
//!
//! Requests beyond what the CPU supports are clamped, so forcing `avx512`
//! on an AVX2-only machine degrades gracefully instead of faulting. An
//! x86-64 CPU without AVX2, like a non-x86-64 build, runs the scalar
//! reference.
//!
//! # Bit-identity
//!
//! Every primitive is a pure bitwise function of its inputs: OR, AND-NOT and
//! zero-tests have no rounding, carries or lane interactions, so any vector
//! decomposition computes exactly the scalar result. The `scalar`
//! implementations are the semantic reference; proptests assert every level
//! bit-identical on random inputs including unaligned lengths and tail
//! words, and `tests/cross_algorithms.rs` re-proves it end-to-end through
//! the full engine.
//!
//! # Granularity
//!
//! `#[target_feature]` functions cannot inline into callers compiled without
//! the feature, so each dispatched call costs a real function call. That
//! amortizes over a span (or a fused multi-output pass like [`settle_at`])
//! but not over a lone 1–3-word operation — which is why `Bits<W>`'s simple
//! binary operators keep their inline scalar loops and only the fused
//! [`settle_at`] and the span kernels dispatch. Every primitive takes the
//! level explicitly: hot loops hoist [`current`] once per phase.
//!
//! # Chaos
//!
//! [`current`] carries the `bitset.simd.dispatch` failpoint: the chaos soak
//! can force any dispatch mid-run back to the scalar reference (or panic /
//! stall it), proving results stay oracle-exact when the vector path drops
//! out from under a traversal.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// One ISA tier of the dispatch ladder, ordered weakest to widest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SimdLevel {
    /// Portable word-at-a-time loops — the semantic reference.
    Scalar = 0,
    /// 256-bit kernels.
    Avx2 = 1,
    /// 512-bit kernels (AVX-512F).
    Avx512 = 2,
}

impl SimdLevel {
    /// Every level, weakest first.
    pub const ALL: [SimdLevel; 3] = [Self::Scalar, Self::Avx2, Self::Avx512];

    /// Stable lower-case name used by the CLI flag, the bench rows and the
    /// `pbfs_build_info{simd=…}` telemetry label.
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
            Self::Avx512 => "avx512",
        }
    }

    /// Parses a [`Self::name`] string. `"auto"` is not a level — callers
    /// that accept it should map it to [`set_level`]`(None)` themselves.
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s {
            "scalar" => Some(Self::Scalar),
            "avx2" => Some(Self::Avx2),
            "avx512" => Some(Self::Avx512),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> SimdLevel {
        match v {
            1 => Self::Avx2,
            2 => Self::Avx512,
            _ => Self::Scalar,
        }
    }
}

/// Best level this CPU supports, ignoring every override.
pub fn detected() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return SimdLevel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

const LEVEL_UNSET: u8 = u8::MAX;
static ACTIVE_LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// Detection + `PBFS_SIMD` environment override, clamped to hardware.
fn resolve_default() -> SimdLevel {
    let best = detected();
    match std::env::var("PBFS_SIMD") {
        Ok(v) if v != "auto" => match SimdLevel::parse(&v) {
            Some(req) => req.min(best),
            None => {
                eprintln!(
                    "pbfs-bitset: ignoring invalid PBFS_SIMD={v:?} \
                     (expected auto|scalar|avx2|avx512)"
                );
                best
            }
        },
        _ => best,
    }
}

/// The dispatch level the traversal kernels hoist once per phase.
///
/// First call resolves detection (plus the `PBFS_SIMD` environment
/// override) and caches it; later calls are one relaxed load.
#[inline]
pub fn current() -> SimdLevel {
    // Chaos site: force this dispatch back to the scalar reference (or
    // panic / stall it) mid-run; results must stay oracle-exact.
    crate::fail_point!("bitset.simd.dispatch", SimdLevel::Scalar);
    match ACTIVE_LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => {
            let l = resolve_default();
            ACTIVE_LEVEL.store(l as u8, Ordering::Relaxed);
            l
        }
        v => SimdLevel::from_u8(v),
    }
}

/// Overrides the process-wide dispatch level (the CLI `--simd` knob).
///
/// `Some(level)` forces that level, clamped to what the CPU supports;
/// `None` restores the automatic choice (detection plus `PBFS_SIMD`).
/// Returns the level that is now in effect. Safe to call at any time: every
/// level is bit-identical, so in-flight traversals only change speed.
pub fn set_level(level: Option<SimdLevel>) -> SimdLevel {
    let eff = match level {
        Some(req) => req.min(detected()),
        None => resolve_default(),
    };
    ACTIVE_LEVEL.store(eff as u8, Ordering::Relaxed);
    eff
}

/// Clamps an explicitly requested level to hardware support.
#[inline]
fn clamp(level: SimdLevel) -> SimdLevel {
    level.min(detected())
}

/// Clamps a level to both hardware support and the widest kernel whose
/// vector body actually runs for `len` words. A 512-bit kernel handed a
/// 4-word `Bits<4>` would execute only its word-at-a-time tail — paying
/// the dispatch for nothing — so short spans route to the tier whose
/// full-width loop they can feed (8 words per AVX-512 step, 4 per AVX2)
/// and spans under 4 words to the inlined scalar loop. Results are
/// bit-identical at every level, so this is purely a speed decision.
#[inline]
fn clamp_len(level: SimdLevel, len: usize) -> SimdLevel {
    let widest = match len {
        0..=3 => SimdLevel::Scalar,
        4..=7 => SimdLevel::Avx2,
        _ => SimdLevel::Avx512,
    };
    clamp(level).min(widest)
}

/// Outcome flags of the fused [`settle_at`] primitive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SettleFlags {
    /// `next & !seen` has at least one set bit: something was newly found.
    pub new_any: bool,
    /// `next & seen` has at least one set bit: the stored frontier entry
    /// must be rewritten with the trimmed mask (`new != next`).
    pub trimmed: bool,
}

/// `dst[i] |= src[i]` over two equal-length word slices, at an explicit
/// level (clamped to hardware support).
pub fn or_assign_at(level: SimdLevel, dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "or_assign length mismatch");
    match clamp_len(level, dst.len()) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp` proved the CPU supports the callee's feature.
        SimdLevel::Avx512 => unsafe { isa::avx512::or_assign(dst, src) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdLevel::Avx2 => unsafe { isa::avx2::or_assign(dst, src) },
        _ => scalar::or_assign(dst, src),
    }
}

/// Fused settle: `new[i] = next[i] & !seen[i]`, `merged[i] = next[i] |
/// seen[i]` in one pass, returning whether anything was newly discovered
/// and whether `next` was trimmed. This is the per-vertex visit step of the
/// paper's Listing 2 with its four separate word loops collapsed into one.
/// Runs at `level`, clamped to hardware support.
pub fn settle_at(
    level: SimdLevel,
    next: &[u64],
    seen: &[u64],
    new: &mut [u64],
    merged: &mut [u64],
) -> SettleFlags {
    assert!(
        next.len() == seen.len() && next.len() == new.len() && next.len() == merged.len(),
        "settle length mismatch"
    );
    match clamp_len(level, next.len()) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp` proved the CPU supports the callee's feature.
        SimdLevel::Avx512 => unsafe { isa::avx512::settle(next, seen, new, merged) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdLevel::Avx2 => unsafe { isa::avx2::settle(next, seen, new, merged) },
        _ => scalar::settle(next, seen, new, merged),
    }
}

/// Bitmask of non-empty entries: `words` holds up to 64 consecutive entries
/// of `entry_words` words each; bit `e` of the result is set iff entry `e`
/// has any set bit. This is the vectorized "which vertices of this summary
/// chunk are active" scan used by the gather kernels. Runs at `level`,
/// clamped to hardware support.
pub fn nonempty_mask_at(level: SimdLevel, words: &[u64], entry_words: usize) -> u64 {
    assert!(entry_words > 0, "entry_words must be positive");
    assert_eq!(words.len() % entry_words, 0, "partial trailing entry");
    assert!(words.len() / entry_words <= 64, "more than 64 entries");
    match clamp_len(level, words.len()) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp` proved the CPU supports the callee's feature.
        SimdLevel::Avx512 => unsafe { isa::avx512::nonempty_mask(words, entry_words) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdLevel::Avx2 => unsafe { isa::avx2::nonempty_mask(words, entry_words) },
        _ => scalar::nonempty_mask(words, entry_words),
    }
}

/// `dst[i] |= src[i]` over two equal-length spans of atomic words, using
/// plain (non-atomic) vector loads and stores, at `level`.
///
/// # Safety
/// The caller must have *exclusive* access to every word of both spans for
/// the duration of the call — no other thread may read or write them — and
/// the spans must not overlap. The traversal kernels guarantee this by
/// bijective range partitioning between phase barriers. `AtomicU64` has the
/// same size, alignment and bit validity as `u64`, so under exclusivity the
/// reborrow as plain words is sound.
pub unsafe fn or_span_unsync_at(level: SimdLevel, dst: &[AtomicU64], src: &[AtomicU64]) {
    assert_eq!(dst.len(), src.len(), "or_span length mismatch");
    // SAFETY: exclusivity and non-overlap per the caller contract; the
    // atomics' interior mutability permits writing through a shared ref.
    let d = std::slice::from_raw_parts_mut(dst.as_ptr() as *mut u64, dst.len());
    let s = std::slice::from_raw_parts(src.as_ptr() as *const u64, src.len());
    or_assign_at(level, d, s);
}

/// Zero-fills a span of atomic words with one bulk memset.
///
/// # Safety
/// Exclusive access to the span, exactly as [`or_span_unsync_at`].
pub unsafe fn clear_span_unsync(words: &[AtomicU64]) {
    // SAFETY: exclusivity per the caller contract; zero is a valid value.
    std::ptr::write_bytes(words.as_ptr() as *mut u64, 0, words.len());
}

/// Snapshot of non-empty entries in a span of atomic words, at `level`: the
/// atomic counterpart of [`nonempty_mask_at`].
///
/// # Safety
/// No other thread may *write* the span during the call (concurrent readers
/// are fine): the kernel reads non-atomically. The traversal kernels call
/// this only on frontier arrays that are read-only within the phase.
pub unsafe fn nonempty_mask_unsync_at(
    level: SimdLevel,
    words: &[AtomicU64],
    entry_words: usize,
) -> u64 {
    // SAFETY: no concurrent writers per the caller contract.
    let w = std::slice::from_raw_parts(words.as_ptr() as *const u64, words.len());
    nonempty_mask_at(level, w, entry_words)
}

/// Portable word-at-a-time reference implementations — the semantics every
/// vector level must reproduce bit-for-bit.
pub(crate) mod scalar {
    use super::SettleFlags;

    #[inline]
    pub fn or_assign(dst: &mut [u64], src: &[u64]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d |= *s;
        }
    }

    #[inline]
    pub fn is_empty(words: &[u64]) -> bool {
        words.iter().all(|&w| w == 0)
    }

    #[inline]
    pub fn settle(next: &[u64], seen: &[u64], new: &mut [u64], merged: &mut [u64]) -> SettleFlags {
        let mut any = 0u64;
        let mut tr = 0u64;
        for (((&n, &s), nw), mg) in next
            .iter()
            .zip(seen)
            .zip(new.iter_mut())
            .zip(merged.iter_mut())
        {
            let fresh = n & !s;
            *nw = fresh;
            *mg = n | s;
            any |= fresh;
            tr |= n & s;
        }
        SettleFlags {
            new_any: any != 0,
            trimmed: tr != 0,
        }
    }

    #[inline]
    pub fn nonempty_mask(words: &[u64], entry_words: usize) -> u64 {
        let mut mask = 0u64;
        for (e, entry) in words.chunks_exact(entry_words).enumerate() {
            if !is_empty(entry) {
                mask |= 1u64 << e;
            }
        }
        mask
    }
}

/// Explicit `std::arch` x86-64 kernels, one submodule per dispatch tier.
///
/// All memory accesses use the unaligned (`loadu`/`storeu`) forms so any
/// slice is legal — proptests feed unaligned lengths and offsets — while
/// the 64-byte-aligned state allocations keep the hot-path spans free of
/// cache-line-splitting accesses.
#[cfg(target_arch = "x86_64")]
mod isa {
    pub(super) mod avx2 {
        use super::super::SettleFlags;
        use core::arch::x86_64::*;

        /// True iff all 32 bytes of `v` are zero.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn is_zero256(v: __m256i) -> bool {
            _mm256_testz_si256(v, v) == 1
        }

        /// # Safety
        /// CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        pub unsafe fn or_assign(dst: &mut [u64], src: &[u64]) {
            let n = dst.len();
            let dp = dst.as_mut_ptr();
            let sp = src.as_ptr();
            let mut i = 0;
            // SAFETY: `i + 4 <= n` keeps every 32-byte access in bounds.
            while i + 4 <= n {
                let d = dp.add(i).cast::<__m256i>();
                let s = sp.add(i).cast::<__m256i>();
                _mm256_storeu_si256(
                    d,
                    _mm256_or_si256(_mm256_loadu_si256(d), _mm256_loadu_si256(s)),
                );
                i += 4;
            }
            for (d, s) in dst[i..].iter_mut().zip(&src[i..]) {
                *d |= *s;
            }
        }

        /// # Safety
        /// CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        pub unsafe fn settle(
            next: &[u64],
            seen: &[u64],
            new: &mut [u64],
            merged: &mut [u64],
        ) -> SettleFlags {
            let n = next.len();
            let np = next.as_ptr();
            let sp = seen.as_ptr();
            let wp = new.as_mut_ptr();
            let mp = merged.as_mut_ptr();
            let mut acc_new = _mm256_setzero_si256();
            let mut acc_tr = _mm256_setzero_si256();
            let mut i = 0;
            // SAFETY: `i + 4 <= n` keeps every 32-byte access in bounds.
            while i + 4 <= n {
                let nv = _mm256_loadu_si256(np.add(i).cast());
                let sv = _mm256_loadu_si256(sp.add(i).cast());
                let fresh = _mm256_andnot_si256(sv, nv);
                _mm256_storeu_si256(wp.add(i).cast(), fresh);
                _mm256_storeu_si256(mp.add(i).cast(), _mm256_or_si256(nv, sv));
                acc_new = _mm256_or_si256(acc_new, fresh);
                acc_tr = _mm256_or_si256(acc_tr, _mm256_and_si256(nv, sv));
                i += 4;
            }
            let mut any = !is_zero256(acc_new);
            let mut tr = !is_zero256(acc_tr);
            while i < n {
                let (nx, sn) = (next[i], seen[i]);
                new[i] = nx & !sn;
                merged[i] = nx | sn;
                any |= nx & !sn != 0;
                tr |= nx & sn != 0;
                i += 1;
            }
            SettleFlags {
                new_any: any,
                trimmed: tr,
            }
        }

        /// # Safety
        /// CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        pub unsafe fn nonempty_mask(words: &[u64], entry_words: usize) -> u64 {
            let mut mask = 0u64;
            match entry_words {
                1 => {
                    let n = words.len();
                    let p = words.as_ptr();
                    let zero = _mm256_setzero_si256();
                    let mut i = 0;
                    // SAFETY: `i + 4 <= n` keeps every 32-byte load in bounds.
                    while i + 4 <= n {
                        let v = _mm256_loadu_si256(p.add(i).cast());
                        // Lane j all-zero ⇔ bit j of `z` set.
                        let z = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, zero)))
                            as u64;
                        mask |= (!z & 0xf) << i;
                        i += 4;
                    }
                    for (e, &w) in words.iter().enumerate().skip(i) {
                        if w != 0 {
                            mask |= 1u64 << e;
                        }
                    }
                }
                2 => {
                    for (e, entry) in words.chunks_exact(2).enumerate() {
                        // SAFETY: each entry is exactly 16 readable bytes.
                        let v = _mm_loadu_si128(entry.as_ptr().cast());
                        // AVX2 implies SSE4.1's `ptest`.
                        if _mm_testz_si128(v, v) == 0 {
                            mask |= 1u64 << e;
                        }
                    }
                }
                4 => {
                    for (e, entry) in words.chunks_exact(4).enumerate() {
                        // SAFETY: each entry is exactly 32 readable bytes.
                        let v = _mm256_loadu_si256(entry.as_ptr().cast());
                        if !is_zero256(v) {
                            mask |= 1u64 << e;
                        }
                    }
                }
                8 => {
                    for (e, entry) in words.chunks_exact(8).enumerate() {
                        // SAFETY: each entry is exactly 64 readable bytes.
                        let lo = _mm256_loadu_si256(entry.as_ptr().cast());
                        let hi = _mm256_loadu_si256(entry.as_ptr().add(4).cast());
                        if !is_zero256(_mm256_or_si256(lo, hi)) {
                            mask |= 1u64 << e;
                        }
                    }
                }
                w => {
                    for (e, entry) in words.chunks_exact(w).enumerate() {
                        if entry.iter().any(|&x| x != 0) {
                            mask |= 1u64 << e;
                        }
                    }
                }
            }
            mask
        }
    }

    pub(super) mod avx512 {
        use super::super::SettleFlags;
        use core::arch::x86_64::*;

        /// True iff all 64 bytes of `v` are zero.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn is_zero512(v: __m512i) -> bool {
            _mm512_test_epi64_mask(v, v) == 0
        }

        /// # Safety
        /// CPU must support AVX-512F.
        #[target_feature(enable = "avx512f")]
        pub unsafe fn or_assign(dst: &mut [u64], src: &[u64]) {
            let n = dst.len();
            let dp = dst.as_mut_ptr();
            let sp = src.as_ptr();
            let mut i = 0;
            // SAFETY: `i + 8 <= n` keeps every 64-byte access in bounds.
            while i + 8 <= n {
                let d = dp.add(i).cast::<__m512i>();
                let s = sp.add(i).cast::<__m512i>();
                _mm512_storeu_si512(
                    d,
                    _mm512_or_si512(_mm512_loadu_si512(d), _mm512_loadu_si512(s)),
                );
                i += 8;
            }
            for (d, s) in dst[i..].iter_mut().zip(&src[i..]) {
                *d |= *s;
            }
        }

        /// # Safety
        /// CPU must support AVX-512F.
        #[target_feature(enable = "avx512f")]
        pub unsafe fn settle(
            next: &[u64],
            seen: &[u64],
            new: &mut [u64],
            merged: &mut [u64],
        ) -> SettleFlags {
            let n = next.len();
            let np = next.as_ptr();
            let sp = seen.as_ptr();
            let wp = new.as_mut_ptr();
            let mp = merged.as_mut_ptr();
            let mut acc_new = _mm512_setzero_si512();
            let mut acc_tr = _mm512_setzero_si512();
            let mut i = 0;
            // SAFETY: `i + 8 <= n` keeps every 64-byte access in bounds.
            while i + 8 <= n {
                let nv = _mm512_loadu_si512(np.add(i).cast());
                let sv = _mm512_loadu_si512(sp.add(i).cast());
                let fresh = _mm512_andnot_si512(sv, nv);
                _mm512_storeu_si512(wp.add(i).cast(), fresh);
                _mm512_storeu_si512(mp.add(i).cast(), _mm512_or_si512(nv, sv));
                acc_new = _mm512_or_si512(acc_new, fresh);
                acc_tr = _mm512_or_si512(acc_tr, _mm512_and_si512(nv, sv));
                i += 8;
            }
            let mut any = !is_zero512(acc_new);
            let mut tr = !is_zero512(acc_tr);
            while i < n {
                let (nx, sn) = (next[i], seen[i]);
                new[i] = nx & !sn;
                merged[i] = nx | sn;
                any |= nx & !sn != 0;
                tr |= nx & sn != 0;
                i += 1;
            }
            SettleFlags {
                new_any: any,
                trimmed: tr,
            }
        }

        /// # Safety
        /// CPU must support AVX-512F.
        #[target_feature(enable = "avx512f")]
        pub unsafe fn nonempty_mask(words: &[u64], entry_words: usize) -> u64 {
            let mut mask = 0u64;
            match entry_words {
                1 => {
                    let n = words.len();
                    let p = words.as_ptr();
                    let zero = _mm512_setzero_si512();
                    let mut i = 0;
                    // SAFETY: `i + 8 <= n` keeps every 64-byte load in bounds.
                    while i + 8 <= n {
                        let v = _mm512_loadu_si512(p.add(i).cast());
                        let m = _mm512_cmpneq_epi64_mask(v, zero);
                        mask |= (m as u64) << i;
                        i += 8;
                    }
                    for (e, &w) in words.iter().enumerate().skip(i) {
                        if w != 0 {
                            mask |= 1u64 << e;
                        }
                    }
                }
                8 => {
                    for (e, entry) in words.chunks_exact(8).enumerate() {
                        // SAFETY: each entry is exactly 64 readable bytes.
                        let v = _mm512_loadu_si512(entry.as_ptr().cast());
                        if !is_zero512(v) {
                            mask |= 1u64 << e;
                        }
                    }
                }
                // AVX-512F implies AVX2; reuse its 2/4-word entry tests.
                w => mask = super::avx2::nonempty_mask(words, w),
            }
            mask
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_parse_roundtrip() {
        for l in SimdLevel::ALL {
            assert_eq!(SimdLevel::parse(l.name()), Some(l));
        }
        assert_eq!(SimdLevel::parse("auto"), None);
        assert_eq!(SimdLevel::parse("neon"), None);
    }

    #[test]
    fn set_level_clamps_to_hardware() {
        let best = detected();
        let eff = set_level(Some(SimdLevel::Avx512));
        assert_eq!(eff, SimdLevel::Avx512.min(best));
        assert_eq!(current(), eff);
        assert_eq!(set_level(Some(SimdLevel::Scalar)), SimdLevel::Scalar);
        assert_eq!(current(), SimdLevel::Scalar);
        // Restore the automatic choice for the rest of the process.
        set_level(None);
    }

    #[test]
    fn settle_small_case_every_level() {
        let next = [0b1110u64, 0, u64::MAX];
        let seen = [0b0110u64, 0, 0];
        for level in SimdLevel::ALL {
            let mut new = [0u64; 3];
            let mut merged = [0u64; 3];
            let f = settle_at(level, &next, &seen, &mut new, &mut merged);
            assert_eq!(new, [0b1000, 0, u64::MAX], "{level:?}");
            assert_eq!(merged, [0b1110, 0, u64::MAX], "{level:?}");
            assert!(f.new_any && f.trimmed, "{level:?}");
        }
    }

    #[test]
    fn empty_slices_are_fine_everywhere() {
        for level in SimdLevel::ALL {
            let mut d: [u64; 0] = [];
            or_assign_at(level, &mut d, &[]);
            let mut m: [u64; 0] = [];
            let f = settle_at(level, &[], &[], &mut d, &mut m);
            assert!(!f.new_any && !f.trimmed);
            assert_eq!(nonempty_mask_at(level, &[], 4), 0);
        }
    }

    #[test]
    fn span_kernels_match_scalar() {
        let n = 67usize;
        let dst: Vec<AtomicU64> = (0..n).map(|i| AtomicU64::new(i as u64 * 3)).collect();
        let src: Vec<AtomicU64> = (0..n).map(|i| AtomicU64::new(1u64 << (i % 64))).collect();
        let lvl = current();
        // SAFETY: both vecs are exclusively owned by this test.
        unsafe { or_span_unsync_at(lvl, &dst, &src) };
        for (i, d) in dst.iter().enumerate() {
            assert_eq!(
                d.load(Ordering::Relaxed),
                (i as u64 * 3) | (1u64 << (i % 64))
            );
        }
        // SAFETY: as above.
        let mask = unsafe { nonempty_mask_unsync_at(lvl, &dst[..64], 1) };
        assert_eq!(mask, u64::MAX);
        // SAFETY: as above.
        unsafe { clear_span_unsync(&dst) };
        assert!(dst.iter().all(|w| w.load(Ordering::Relaxed) == 0));
    }
}
