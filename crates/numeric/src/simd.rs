//! Runtime-dispatched SIMD kernels for the hot vector operations.
//!
//! The dense LU inner loops, the dense triangular substitutions, and the
//! Newton backtracking norm are all bandwidth-bound streaming loops over
//! contiguous `f64` slices.  This module provides AVX2+FMA implementations with a scalar
//! fallback, selected **once** at startup:
//!
//! 1. the `NVPG_SIMD` environment variable (`auto` | `scalar` | `avx2`) is
//!    consulted first — `scalar` forces the portable path (used by CI to cover
//!    both dispatch arms), `avx2` requests the vector path (silently degrading
//!    to scalar when the CPU lacks AVX2);
//! 2. under `auto` (or when the variable is unset) the level is chosen by
//!    `is_x86_feature_detected!`.
//!
//! The resolved level is cached in a [`OnceLock`], so every kernel call after
//! the first is a single relaxed load plus an indirect-free `match`.  Keeping
//! the decision process-global (rather than per-thread or per-call) is what
//! preserves byte-identical `figures` output at any `--jobs`: every worker
//! thread runs the identical instruction sequence.
//!
//! The kernels are deliberately few and deliberately simple:
//!
//! * [`axpy`] — `y[i] += a * x[i]`, the rank-1 row update inside dense LU
//!   factorisation (O(n³) of the work);
//! * [`dot`] — the row·solution reductions inside the dense forward/backward
//!   substitution;
//! * [`norm_inf`] — max-abs reduction that **propagates non-finite values**
//!   (a NaN or ±∞ anywhere in the slice yields a non-finite result), so
//!   Newton's NaN-safety is preserved on the vector path. It is also the
//!   only kernel the sparse module calls (in
//!   [`SparseLu::residual_norm`](crate::sparse::SparseLu::residual_norm), a
//!   test-side cross-check).
//!
//! Reductions use the same split-accumulator shape in both arms, and the
//! scalar arm is written so the compiler may not contract it differently from
//! run to run; results are deterministic for a fixed level. The two arms of
//! `axpy` and `dot` may differ in the last bits (FMA contraction); `norm_inf`
//! is an exact maximum, bit-identical under both. So a sparse-backend solve
//! gives the same bits under either arm, while dense-backend results move
//! with the level.

use std::sync::OnceLock;

/// Instruction-set level used by the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loops (always available).
    Scalar,
    /// AVX2 + FMA vector loops (x86-64 only, runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Human-readable name, used by benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

static LEVEL: OnceLock<SimdLevel> = OnceLock::new();

fn detect_level() -> SimdLevel {
    let requested = std::env::var("NVPG_SIMD").unwrap_or_default();
    match requested.trim().to_ascii_lowercase().as_str() {
        "scalar" => SimdLevel::Scalar,
        "avx2" => {
            if avx2_available() {
                SimdLevel::Avx2
            } else {
                SimdLevel::Scalar
            }
        }
        _ => {
            if avx2_available() {
                SimdLevel::Avx2
            } else {
                SimdLevel::Scalar
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// The level selected for this process (resolved once, then cached).
pub fn level() -> SimdLevel {
    *LEVEL.get_or_init(detect_level)
}

/// `y[i] += a * x[i]` for all `i`. Panics if the slices differ in length.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    match level() {
        SimdLevel::Scalar => axpy_scalar(a, x, y),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { axpy_avx2(a, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 => axpy_scalar(a, x, y),
    }
}

/// `Σ a[i] * b[i]`. Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    match level() {
        SimdLevel::Scalar => dot_scalar(a, b),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { dot_avx2(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 => dot_scalar(a, b),
    }
}

/// `max_i |v[i]|`, with non-finite propagation: if any element is NaN or
/// ±∞ the result is non-finite (so callers can keep a single
/// `!norm.is_finite()` safety check). Returns `0.0` for an empty slice.
#[inline]
pub fn norm_inf(v: &[f64]) -> f64 {
    match level() {
        SimdLevel::Scalar => norm_inf_scalar(v),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { norm_inf_avx2(v) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 => norm_inf_scalar(v),
    }
}

fn axpy_scalar(a: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    // Four split accumulators: same association order as the AVX2 arm's
    // per-lane accumulation, and measurably faster than a serial fold.
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    for k in 0..chunks {
        let i = 4 * k;
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
    }
    let mut tail = 0.0;
    for i in (4 * chunks)..a.len() {
        tail += a[i] * b[i];
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

fn norm_inf_scalar(v: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for &x in v {
        if !x.is_finite() {
            return x.abs(); // NaN stays NaN, ±inf becomes +inf
        }
        let a = x.abs();
        if a > worst {
            worst = a;
        }
    }
    worst
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn axpy_avx2(a: f64, x: &[f64], y: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = x.len();
    let va = _mm256_set1_pd(a);
    let mut i = 0;
    while i + 4 <= n {
        let vx = _mm256_loadu_pd(x.as_ptr().add(i));
        let vy = _mm256_loadu_pd(y.as_ptr().add(i));
        _mm256_storeu_pd(y.as_mut_ptr().add(i), _mm256_fmadd_pd(va, vx, vy));
        i += 4;
    }
    while i < n {
        *y.get_unchecked_mut(i) += a * x.get_unchecked(i);
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let va = _mm256_loadu_pd(a.as_ptr().add(i));
        let vb = _mm256_loadu_pd(b.as_ptr().add(i));
        acc = _mm256_fmadd_pd(va, vb, acc);
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut tail = 0.0;
    while i < n {
        tail += a.get_unchecked(i) * b.get_unchecked(i);
        i += 1;
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]) + tail
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn norm_inf_avx2(v: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = v.len();
    let sign_mask = _mm256_set1_pd(-0.0);
    let mut vmax = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let x = _mm256_loadu_pd(v.as_ptr().add(i));
        let ax = _mm256_andnot_pd(sign_mask, x); // |x|; NaN stays NaN
                                                 // Keep the larger value, or any NaN already seen / just loaded.
                                                 // `vmax` starts finite; once a lane goes NaN, `_CMP_ORD_Q` keeps
                                                 // failing and the blend keeps the NaN.
        let gt = _mm256_cmp_pd(ax, vmax, _CMP_GT_OQ);
        let unord = _mm256_cmp_pd(ax, ax, _CMP_UNORD_Q);
        let take = _mm256_or_pd(gt, unord);
        vmax = _mm256_blendv_pd(vmax, ax, take);
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), vmax);
    let mut worst = 0.0f64;
    for &l in &lanes {
        if l.is_nan() {
            return f64::NAN;
        }
        if l > worst {
            worst = l;
        }
    }
    while i < n {
        let x = *v.get_unchecked(i);
        if !x.is_finite() {
            return x.abs();
        }
        let a = x.abs();
        if a > worst {
            worst = a;
        }
        i += 1;
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos() - 0.2).collect();
        (a, b)
    }

    #[test]
    fn level_resolves_and_is_stable() {
        let l1 = level();
        let l2 = level();
        assert_eq!(l1, l2);
        assert!(!l1.name().is_empty());
    }

    #[test]
    fn axpy_matches_reference() {
        for n in [0, 1, 3, 4, 5, 17, 64, 129] {
            let (x, mut y) = vecs(n);
            let mut want = y.clone();
            for i in 0..n {
                want[i] += -1.75 * x[i];
            }
            axpy(-1.75, &x, &mut y);
            for i in 0..n {
                assert!((y[i] - want[i]).abs() < 1e-14, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn dot_matches_reference() {
        for n in [0, 1, 3, 4, 5, 17, 64, 129] {
            let (a, b) = vecs(n);
            let want: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let got = dot(&a, &b);
            assert!(
                (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                "n={n} got={got} want={want}"
            );
        }
    }

    #[test]
    fn norm_inf_matches_reference() {
        for n in [0, 1, 3, 4, 5, 17, 64, 129] {
            let (a, _) = vecs(n);
            let want = a.iter().fold(0.0f64, |m, x| m.max(x.abs()));
            assert_eq!(norm_inf(&a), want, "n={n}");
        }
    }

    #[test]
    fn norm_inf_propagates_nan_everywhere() {
        for n in [1, 4, 5, 17, 64] {
            for bad in 0..n {
                let mut v = vec![0.5; n];
                v[bad] = f64::NAN;
                assert!(!norm_inf(&v).is_finite(), "NaN at {bad} of {n}");
                v[bad] = f64::INFINITY;
                assert!(!norm_inf(&v).is_finite(), "inf at {bad} of {n}");
                v[bad] = f64::NEG_INFINITY;
                assert!(!norm_inf(&v).is_finite(), "-inf at {bad} of {n}");
            }
        }
    }

    #[test]
    fn norm_inf_nan_then_larger_value_stays_nonfinite() {
        // A finite maximum *after* the NaN must not mask it.
        let mut v = vec![0.0; 32];
        v[2] = f64::NAN;
        v[30] = 1e30;
        assert!(!norm_inf(&v).is_finite());
    }
}
