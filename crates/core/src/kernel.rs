//! Vectorized `(min, argmin)` lane kernels and their runtime selection.
//!
//! The scalar slice scans in [`crate::eval`] are already branch-free and
//! lane-structured, but they still retire one compare/select chain per
//! element. On x86-64 hosts with AVX2 the kernels here reduce four
//! 64-bit values per instruction in two cheap passes: a pure vertical
//! min/max reduction (four independent accumulators, no index
//! bookkeeping), then a directional equality scan that locates the
//! leftmost (or rightmost) position attaining the extremum — the same
//! answer, to the index, that the scalar scan produces.
//!
//! ## Selection precedence
//!
//! Which implementation actually runs is decided per call by
//! [`argmin_lanes`]/[`argmax_lanes`] from three inputs:
//!
//! 1. **Compile time** — the `simd` cargo feature gates the vector
//!    bodies entirely; without it every query returns `None` and the
//!    scalar scans run unconditionally (`--no-default-features` builds
//!    are pure safe Rust).
//! 2. **Per-solve selection** — [`with_kernel`] pins a [`Kernel`] on
//!    the calling thread and the closure's forks; `monge_parallel`'s
//!    dispatcher pins each solve's `Tuning::kernel` this way, so
//!    concurrent solves do not race. [`Kernel::Auto`] is no request.
//!    Outside any pin, `MONGE_KERNEL` (`auto` | `scalar` | `simd`,
//!    read once) decides.
//! 3. **Run time** — [`simd_available`] caches one
//!    `is_x86_feature_detected!("avx2")` probe. Forcing
//!    [`Kernel::Simd`] on a host without AVX2 (or a non-x86-64 host;
//!    aarch64 has no vector bodies yet) silently degrades to scalar —
//!    selection is a performance hint, never a correctness switch.
//!
//! Only `i64` and `f64` slices have vector bodies (the types every
//! engine and application in this workspace searches); other `Value`
//! types always take the scalar path. Dispatch from the generic scans
//! is by `TypeId` — sound because [`Value`] requires `'static`, so
//! equal `TypeId`s prove equal types.
//!
//! `f64` lanes compare with ordered (`_OQ`) predicates, which agree
//! with [`Value::total_lt`] (`<`) on every NaN-free input — and the
//! [`Value`] contract forbids NaN by construction.

use crate::state;
use crate::tiebreak::Tie;
use crate::value::Value;
use std::sync::OnceLock;

/// Which `(min, argmin)` implementation the slice scans should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Use SIMD when compiled in and the host supports it (default).
    #[default]
    Auto,
    /// Always the scalar blocked scan, even when SIMD is available.
    Scalar,
    /// Request the vector kernels; degrades to scalar when they are
    /// not compiled in or the host lacks AVX2.
    Simd,
}

impl Kernel {
    /// Parses `auto` / `scalar` / `simd` (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<Kernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(Kernel::Auto),
            "scalar" => Some(Kernel::Scalar),
            "simd" => Some(Kernel::Simd),
            _ => None,
        }
    }

    /// The `MONGE_KERNEL` environment selection, if set and valid.
    pub fn from_env() -> Option<Kernel> {
        std::env::var("MONGE_KERNEL")
            .ok()
            .and_then(|s| Kernel::parse(&s))
    }
}

/// Runs `f` with the calling thread's scans, and those of `f`'s forks,
/// pinned to `k`; the previous pin is restored when `f` returns or
/// unwinds. [`Kernel::Auto`] pins nothing, so an enclosing pin applies.
pub fn with_kernel<R>(k: Kernel, f: impl FnOnce() -> R) -> R {
    if k == Kernel::Auto {
        return f();
    }
    state::install(state::Fork::capture().token, k, f)
}

/// The kernel the calling thread's scans use: the innermost
/// [`with_kernel`] pin, else `MONGE_KERNEL` (default [`Kernel::Auto`]).
pub fn selected() -> Kernel {
    static ENV: OnceLock<Kernel> = OnceLock::new();
    match state::kernel() {
        Kernel::Auto => *ENV.get_or_init(|| Kernel::from_env().unwrap_or(Kernel::Auto)),
        k => k,
    }
}

/// Were the vector bodies compiled in at all (`simd` feature on an
/// x86-64 target)?
pub const fn simd_compiled() -> bool {
    cfg!(all(feature = "simd", target_arch = "x86_64"))
}

/// Compiled in *and* supported by the running host (AVX2 probe,
/// cached after the first call).
pub fn simd_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Will the next eligible slice scan actually run the vector kernel?
pub fn simd_active() -> bool {
    simd_available() && selected() != Kernel::Scalar
}

/// Slices shorter than this always take the scalar path: below two
/// full vector blocks the horizontal reduction dominates.
pub const MIN_SIMD_LEN: usize = 16;

/// Index of the minimum of `vals` under `tie`, via the vector kernel —
/// `None` when the scalar scan should run instead (feature off, host
/// unsupported, selection pinned to scalar, slice too short, or an
/// element type without a vector body).
#[inline]
#[cfg_attr(all(feature = "simd", target_arch = "x86_64"), allow(unsafe_code))]
pub fn argmin_lanes<T: Value>(vals: &[T], tie: Tie) -> Option<usize> {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::any::TypeId;
        if vals.len() >= MIN_SIMD_LEN && simd_active() {
            if TypeId::of::<T>() == TypeId::of::<i64>() {
                // Sound: `TypeId` equality proves `T == i64` (`Value`
                // requires `'static`), so the slice layouts are equal.
                let s = unsafe { &*(vals as *const [T] as *const [i64]) };
                return Some(unsafe { avx2::argmin_i64(s, tie) });
            }
            if TypeId::of::<T>() == TypeId::of::<f64>() {
                let s = unsafe { &*(vals as *const [T] as *const [f64]) };
                return Some(unsafe { avx2::argmin_f64(s, tie) });
            }
        }
    }
    let _ = (vals, tie);
    None
}

/// Index of the **leftmost** maximum of `vals` via the vector kernel;
/// `None` under the same conditions as [`argmin_lanes`].
#[inline]
#[cfg_attr(all(feature = "simd", target_arch = "x86_64"), allow(unsafe_code))]
pub fn argmax_lanes<T: Value>(vals: &[T]) -> Option<usize> {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::any::TypeId;
        if vals.len() >= MIN_SIMD_LEN && simd_active() {
            if TypeId::of::<T>() == TypeId::of::<i64>() {
                let s = unsafe { &*(vals as *const [T] as *const [i64]) };
                return Some(unsafe { avx2::argmax_i64(s) });
            }
            if TypeId::of::<T>() == TypeId::of::<f64>() {
                let s = unsafe { &*(vals as *const [T] as *const [f64]) };
                return Some(unsafe { avx2::argmax_f64(s) });
            }
        }
    }
    let _ = vals;
    None
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx2 {
    //! The AVX2 bodies, organized as **two cheap passes** rather than
    //! one pass with `(value, index)` accumulator lanes:
    //!
    //! 1. *Reduce* — a pure vertical min/max over four 64-bit lanes
    //!    (one compare + one blend per vector for `i64`, a single
    //!    `vminpd`/`vmaxpd` for `f64`), horizontally folded to the
    //!    exact extremum `m`. No index bookkeeping at all, so the loop
    //!    retires ~2 µops per 4 elements.
    //! 2. *Locate* — an equality scan for `m`: compare-equal + movemask
    //!    per vector, taking the **first** matching position scanning
    //!    forward (leftmost tie) or the **last** scanning backward
    //!    (rightmost tie). Equality against the exact extremum is the
    //!    tie rule: every position the scalar scan could pick compares
    //!    equal to `m`, and the directional scan picks the same end of
    //!    the plateau.
    //!
    //! Index-lane tracking (blend an index vector alongside the value
    //! vector) measures *slower* than the scalar blocked scan in
    //! [`crate::eval`] — the scalar fallback already auto-vectorizes
    //! its block minima, so the extra blends per vector erase the win.
    //! Two passes keep each loop at the machine's load throughput and
    //! beat both.
    //!
    //! `f64` equality in the locate pass uses `_CMP_EQ_OQ`, under which
    //! `-0.0 == 0.0` — the same equivalence `total_lt` (`<`) induces,
    //! so mixed-sign zero plateaus tie-break by position exactly like
    //! the scalar scan. NaN-free input is a `Value` precondition.

    use super::Tie;
    use core::arch::x86_64::*;

    /// Lane-wise `min` for signed 64-bit lanes (AVX2 has no `vpminsq`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn min_epi64(a: __m256i, b: __m256i) -> __m256i {
        _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b))
    }

    /// Lane-wise `max` for signed 64-bit lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn max_epi64(a: __m256i, b: __m256i) -> __m256i {
        _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(b, a))
    }

    /// Exact minimum of `vals`. Four independent accumulators hide the
    /// compare+blend latency chain — a single accumulator is latency-
    /// bound and measures *slower* than the auto-vectorized scalar
    /// blocked scan.
    /// # Safety
    /// AVX2 must be available; `vals` must be non-empty.
    #[target_feature(enable = "avx2")]
    unsafe fn min_i64(vals: &[i64]) -> i64 {
        let n = vals.len();
        let p = vals.as_ptr();
        unsafe {
            if n >= 16 {
                let mut a0 = _mm256_loadu_si256(p as *const __m256i);
                let mut a1 = _mm256_loadu_si256(p.add(4) as *const __m256i);
                let mut a2 = _mm256_loadu_si256(p.add(8) as *const __m256i);
                let mut a3 = _mm256_loadu_si256(p.add(12) as *const __m256i);
                let mut i = 16;
                while i + 16 <= n {
                    a0 = min_epi64(a0, _mm256_loadu_si256(p.add(i) as *const __m256i));
                    a1 = min_epi64(a1, _mm256_loadu_si256(p.add(i + 4) as *const __m256i));
                    a2 = min_epi64(a2, _mm256_loadu_si256(p.add(i + 8) as *const __m256i));
                    a3 = min_epi64(a3, _mm256_loadu_si256(p.add(i + 12) as *const __m256i));
                    i += 16;
                }
                while i + 4 <= n {
                    a0 = min_epi64(a0, _mm256_loadu_si256(p.add(i) as *const __m256i));
                    i += 4;
                }
                let acc = min_epi64(min_epi64(a0, a1), min_epi64(a2, a3));
                let mut lanes = [0i64; 4];
                _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
                let mut m = lanes[0].min(lanes[1]).min(lanes[2].min(lanes[3]));
                while i < n {
                    m = m.min(*p.add(i));
                    i += 1;
                }
                m
            } else {
                let mut m = *p;
                for i in 1..n {
                    m = m.min(*p.add(i));
                }
                m
            }
        }
    }

    /// Position of the first (`Tie::Left`) or last (`Tie::Right`)
    /// element equal to `m`, which must occur in `vals`.
    /// # Safety
    /// AVX2 must be available; `m` must occur in `vals`.
    #[target_feature(enable = "avx2")]
    unsafe fn locate_eq_i64(vals: &[i64], m: i64, tie: Tie) -> usize {
        let n = vals.len();
        let p = vals.as_ptr();
        unsafe {
            let needle = _mm256_set1_epi64x(m);
            match tie {
                Tie::Left => {
                    let mut i = 0;
                    while i + 4 <= n {
                        let eq = _mm256_cmpeq_epi64(
                            _mm256_loadu_si256(p.add(i) as *const __m256i),
                            needle,
                        );
                        let mask = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32;
                        if mask != 0 {
                            return i + mask.trailing_zeros() as usize;
                        }
                        i += 4;
                    }
                    while i < n {
                        if *p.add(i) == m {
                            return i;
                        }
                        i += 1;
                    }
                }
                Tie::Right => {
                    let mut i = n;
                    while i > n - (n % 4) {
                        i -= 1;
                        if *p.add(i) == m {
                            return i;
                        }
                    }
                    while i >= 4 {
                        i -= 4;
                        let eq = _mm256_cmpeq_epi64(
                            _mm256_loadu_si256(p.add(i) as *const __m256i),
                            needle,
                        );
                        let mask = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32;
                        if mask != 0 {
                            return i + (31 - mask.leading_zeros()) as usize;
                        }
                    }
                }
            }
            // Unreachable when the precondition holds; keep the scan
            // total anyway.
            0
        }
    }

    /// # Safety
    /// AVX2 must be available; `vals` must be non-empty.
    #[target_feature(enable = "avx2")]
    pub unsafe fn argmin_i64(vals: &[i64], tie: Tie) -> usize {
        unsafe {
            let m = min_i64(vals);
            locate_eq_i64(vals, m, tie)
        }
    }

    /// # Safety
    /// AVX2 must be available; `vals` must be non-empty.
    #[target_feature(enable = "avx2")]
    pub unsafe fn argmax_i64(vals: &[i64]) -> usize {
        let n = vals.len();
        let p = vals.as_ptr();
        unsafe {
            let mut m;
            if n >= 16 {
                let mut a0 = _mm256_loadu_si256(p as *const __m256i);
                let mut a1 = _mm256_loadu_si256(p.add(4) as *const __m256i);
                let mut a2 = _mm256_loadu_si256(p.add(8) as *const __m256i);
                let mut a3 = _mm256_loadu_si256(p.add(12) as *const __m256i);
                let mut i = 16;
                while i + 16 <= n {
                    a0 = max_epi64(a0, _mm256_loadu_si256(p.add(i) as *const __m256i));
                    a1 = max_epi64(a1, _mm256_loadu_si256(p.add(i + 4) as *const __m256i));
                    a2 = max_epi64(a2, _mm256_loadu_si256(p.add(i + 8) as *const __m256i));
                    a3 = max_epi64(a3, _mm256_loadu_si256(p.add(i + 12) as *const __m256i));
                    i += 16;
                }
                while i + 4 <= n {
                    a0 = max_epi64(a0, _mm256_loadu_si256(p.add(i) as *const __m256i));
                    i += 4;
                }
                let acc = max_epi64(max_epi64(a0, a1), max_epi64(a2, a3));
                let mut lanes = [0i64; 4];
                _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
                m = lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]));
                while i < n {
                    m = m.max(*p.add(i));
                    i += 1;
                }
            } else {
                m = *p;
                for i in 1..n {
                    m = m.max(*p.add(i));
                }
            }
            locate_eq_i64(vals, m, Tie::Left)
        }
    }

    /// Exact minimum (`MAX = true` flips every fold for a maximum).
    /// # Safety
    /// AVX2 must be available; `vals` non-empty and NaN-free.
    #[target_feature(enable = "avx2")]
    unsafe fn extremum_f64<const MAX: bool>(vals: &[f64]) -> f64 {
        let n = vals.len();
        let p = vals.as_ptr();
        unsafe {
            let vfold = |a, b| {
                if MAX {
                    _mm256_max_pd(a, b)
                } else {
                    _mm256_min_pd(a, b)
                }
            };
            let fold = |a: f64, b: f64| if MAX { a.max(b) } else { a.min(b) };
            if n >= 16 {
                let mut a0 = _mm256_loadu_pd(p);
                let mut a1 = _mm256_loadu_pd(p.add(4));
                let mut a2 = _mm256_loadu_pd(p.add(8));
                let mut a3 = _mm256_loadu_pd(p.add(12));
                let mut i = 16;
                while i + 16 <= n {
                    a0 = vfold(a0, _mm256_loadu_pd(p.add(i)));
                    a1 = vfold(a1, _mm256_loadu_pd(p.add(i + 4)));
                    a2 = vfold(a2, _mm256_loadu_pd(p.add(i + 8)));
                    a3 = vfold(a3, _mm256_loadu_pd(p.add(i + 12)));
                    i += 16;
                }
                while i + 4 <= n {
                    a0 = vfold(a0, _mm256_loadu_pd(p.add(i)));
                    i += 4;
                }
                let acc = vfold(vfold(a0, a1), vfold(a2, a3));
                let mut lanes = [0f64; 4];
                _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
                let mut m = fold(fold(lanes[0], lanes[1]), fold(lanes[2], lanes[3]));
                while i < n {
                    m = fold(m, *p.add(i));
                    i += 1;
                }
                m
            } else {
                let mut m = *p;
                for i in 1..n {
                    m = fold(m, *p.add(i));
                }
                m
            }
        }
    }

    /// See [`locate_eq_i64`]; `_CMP_EQ_OQ` treats `-0.0 == 0.0`, like
    /// the scalar `total_lt` ordering.
    /// # Safety
    /// AVX2 must be available; `m` must occur (up to `==`) in `vals`.
    #[target_feature(enable = "avx2")]
    unsafe fn locate_eq_f64(vals: &[f64], m: f64, tie: Tie) -> usize {
        let n = vals.len();
        let p = vals.as_ptr();
        unsafe {
            let needle = _mm256_set1_pd(m);
            match tie {
                Tie::Left => {
                    let mut i = 0;
                    while i + 4 <= n {
                        let eq = _mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_loadu_pd(p.add(i)), needle);
                        let mask = _mm256_movemask_pd(eq) as u32;
                        if mask != 0 {
                            return i + mask.trailing_zeros() as usize;
                        }
                        i += 4;
                    }
                    while i < n {
                        if *p.add(i) == m {
                            return i;
                        }
                        i += 1;
                    }
                }
                Tie::Right => {
                    let mut i = n;
                    while i > n - (n % 4) {
                        i -= 1;
                        if *p.add(i) == m {
                            return i;
                        }
                    }
                    while i >= 4 {
                        i -= 4;
                        let eq = _mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_loadu_pd(p.add(i)), needle);
                        let mask = _mm256_movemask_pd(eq) as u32;
                        if mask != 0 {
                            return i + (31 - mask.leading_zeros()) as usize;
                        }
                    }
                }
            }
            0
        }
    }

    /// # Safety
    /// AVX2 must be available; `vals` non-empty and NaN-free.
    #[target_feature(enable = "avx2")]
    pub unsafe fn argmin_f64(vals: &[f64], tie: Tie) -> usize {
        unsafe {
            let m = extremum_f64::<false>(vals);
            locate_eq_f64(vals, m, tie)
        }
    }

    /// # Safety
    /// AVX2 must be available; `vals` non-empty and NaN-free.
    #[target_feature(enable = "avx2")]
    pub unsafe fn argmax_f64(vals: &[f64]) -> usize {
        unsafe {
            let m = extremum_f64::<true>(vals);
            locate_eq_f64(vals, m, Tie::Left)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_parse_round_trip() {
        assert_eq!(Kernel::parse("auto"), Some(Kernel::Auto));
        assert_eq!(Kernel::parse(" Scalar "), Some(Kernel::Scalar));
        assert_eq!(Kernel::parse("SIMD"), Some(Kernel::Simd));
        assert_eq!(Kernel::parse("avx512"), None);
        assert_eq!(Kernel::default(), Kernel::Auto);
    }

    #[test]
    fn pins_are_scoped_to_the_closure_and_the_thread() {
        let before = selected();
        with_kernel(Kernel::Scalar, || {
            assert_eq!(selected(), Kernel::Scalar);
            assert!(!simd_active());
            // `Auto` is no request: the enclosing pin still applies.
            with_kernel(Kernel::Auto, || assert_eq!(selected(), Kernel::Scalar));
            with_kernel(Kernel::Simd, || assert_eq!(selected(), Kernel::Simd));
            assert_eq!(selected(), Kernel::Scalar);
            // Another thread does not see this one's pin.
            std::thread::scope(|s| {
                assert_eq!(s.spawn(selected).join().unwrap(), before);
            });
        });
        assert_eq!(selected(), before);
        // A panic inside a pinned section must not leave the pin stale.
        let result = std::panic::catch_unwind(|| {
            with_kernel(Kernel::Scalar, || panic!("measurement blew up"))
        });
        assert!(result.is_err());
        assert_eq!(selected(), before);
    }

    #[test]
    fn availability_is_consistent() {
        // Can't assert the probe's value (host-dependent), only its
        // implications.
        if simd_available() {
            assert!(simd_compiled());
        }
        if !simd_compiled() {
            assert!(!simd_available());
        }
    }
}
