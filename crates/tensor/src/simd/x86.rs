//! AVX2 implementations of the [`super`] kernels.
//!
//! Every function is an `unsafe fn` gated on `target_feature(avx2)`;
//! the dispatcher in `super` verifies AVX2 with
//! `is_x86_feature_detected!` and asserts the slice bounds before
//! calling in (the tile kernel bounds-checks each tile row itself).
//! Per-lane semantics match [`super::scalar`] exactly: separate `mul` +
//! `add` (no FMA), and zero-skipping as a compare + blend so untouched
//! accumulator lanes keep their bits.

use super::{MR, NR};
use core::arch::x86_64::*;

/// `MR x NR` register tile over full-width (`nrb == NR`) C rows.
///
/// # Safety
///
/// Requires AVX2. `a_strip` must hold `kcb * MR` values, `b_strip`
/// `kcb * NR`, and `c` must hold `NR` values at each of the `mrb`
/// (`1..=MR`) row offsets `i * ldc`.
#[target_feature(enable = "avx2")]
pub unsafe fn gemm_micro_avx2(
    kcb: usize,
    a_strip: &[f32],
    b_strip: &[f32],
    c: &mut [f32],
    ldc: usize,
    mrb: usize,
) {
    // SAFETY: caller guarantees the bounds spelled out above; every
    // pointer below stays inside those ranges.
    unsafe {
        // NR = 16: two 8-lane strips per C row, so one A broadcast feeds
        // two multiplies (8 accumulator registers + 2 B + 1 broadcast).
        let mut lo = [_mm256_setzero_ps(); MR];
        let mut hi = [_mm256_setzero_ps(); MR];
        for i in 0..mrb {
            lo[i] = _mm256_loadu_ps(c.as_ptr().add(i * ldc));
            hi[i] = _mm256_loadu_ps(c.as_ptr().add(i * ldc + 8));
        }
        for j in 0..kcb {
            let b_lo = _mm256_loadu_ps(b_strip.as_ptr().add(j * NR));
            let b_hi = _mm256_loadu_ps(b_strip.as_ptr().add(j * NR + 8));
            for i in 0..mrb {
                let av = _mm256_set1_ps(*a_strip.get_unchecked(j * MR + i));
                // Separate mul + add: bit-identical to the scalar tile.
                lo[i] = _mm256_add_ps(lo[i], _mm256_mul_ps(av, b_lo));
                hi[i] = _mm256_add_ps(hi[i], _mm256_mul_ps(av, b_hi));
            }
        }
        for i in 0..mrb {
            _mm256_storeu_ps(c.as_mut_ptr().add(i * ldc), lo[i]);
            _mm256_storeu_ps(c.as_mut_ptr().add(i * ldc + 8), hi[i]);
        }
    }
}

/// Tap-list accumulate into a register tile: for every `(k, w)` pair,
/// `tile[k * L + i] += w * x[i]` where `x[i] != 0.0`, with `L = x.len()`.
/// The lanes are walked in groups of up to four 8-lane chunks: a group's
/// `x` vectors and masks are loaded once and stay in registers while the
/// whole list streams past, and an all-zero group is skipped outright
/// (every lane would keep its bits anyway).
///
/// Tile rows are bounds-checked (a panic, never an out-of-range access),
/// so a bad row index cannot corrupt memory. The dispatcher asserts that
/// `x.len()` is a multiple of 8.
///
/// # Safety
///
/// Requires AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn axpy_nonzero_rows_avx2(tile: &mut [f32], x: &[f32], rows: &[u32], weights: &[f32]) {
    // SAFETY: AVX2 is the caller's guarantee, and `j + 8 * chunks <=
    // lanes` keeps each group inside `x`.
    unsafe {
        let lanes = x.len();
        let mut j = 0;
        while j + 8 <= lanes {
            let chunks = ((lanes - j) / 8).min(4);
            match chunks {
                1 => rows_group::<1>(tile, x, j, rows, weights),
                2 => rows_group::<2>(tile, x, j, rows, weights),
                3 => rows_group::<3>(tile, x, j, rows, weights),
                _ => rows_group::<4>(tile, x, j, rows, weights),
            }
            j += 8 * chunks;
        }
    }
}

/// One group of `N` chunks starting at lane `j` of [`axpy_nonzero_rows_avx2`].
///
/// # Safety
///
/// Requires AVX2 and `j + 8 * N <= x.len()`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn rows_group<const N: usize>(
    tile: &mut [f32],
    x: &[f32],
    j: usize,
    rows: &[u32],
    weights: &[f32],
) {
    // SAFETY: `j + 8 * N <= x.len()` bounds every load of `x`, and every
    // tile access goes through the checked slice `dst` of `8 * N` floats.
    unsafe {
        let lanes = x.len();
        let zero = _mm256_setzero_ps();
        let mut xv = [zero; N];
        let mut mask = [zero; N];
        let mut any = 0;
        for i in 0..N {
            xv[i] = _mm256_loadu_ps(x.as_ptr().add(j + 8 * i));
            // NEQ_UQ is true for NaN lanes, matching scalar `x != 0.0`.
            mask[i] = _mm256_cmp_ps::<_CMP_NEQ_UQ>(xv[i], zero);
            any |= _mm256_movemask_ps(mask[i]);
        }
        if any == 0 {
            return;
        }
        for (&k, &w) in rows.iter().zip(weights) {
            let at = k as usize * lanes + j;
            let dst = &mut tile[at..at + 8 * N];
            let wv = _mm256_set1_ps(w);
            for i in 0..N {
                let p = dst.as_mut_ptr().add(8 * i);
                let tv = _mm256_loadu_ps(p);
                let sum = _mm256_add_ps(tv, _mm256_mul_ps(wv, xv[i]));
                _mm256_storeu_ps(p, _mm256_blendv_ps(tv, sum, mask[i]));
            }
        }
    }
}

/// Per-filter accumulate into a register tile: for every `(r, w)` pair,
/// `acc[i] += w * x[(r - row0) * L + i]` with `L = acc.len()`. The lanes
/// are walked in groups of up to four 8-lane chunks: a group's
/// accumulators are loaded once and stay in registers while the whole
/// weight list streams past, then are stored once. Lanes past the last
/// whole chunk take a scalar loop with the same wrapping arithmetic.
///
/// Rows of `x` are bounds-checked (a panic, never an out-of-range
/// access), so a bad row index cannot corrupt memory.
///
/// # Safety
///
/// Requires AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn qaxpy_rows_avx2(
    acc: &mut [i32],
    x: &[i32],
    rows: &[u16],
    row0: usize,
    weights: &[i8],
) {
    // SAFETY: AVX2 is the caller's guarantee, and `j + 8 * chunks <=
    // len` keeps each group inside `acc`.
    unsafe {
        let len = acc.len();
        let mut j = 0;
        while j + 8 <= len {
            let chunks = ((len - j) / 8).min(4);
            match chunks {
                1 => qrows_group::<1>(acc, x, j, rows, row0, weights),
                2 => qrows_group::<2>(acc, x, j, rows, row0, weights),
                3 => qrows_group::<3>(acc, x, j, rows, row0, weights),
                _ => qrows_group::<4>(acc, x, j, rows, row0, weights),
            }
            j += 8 * chunks;
        }
        if j < len {
            for (&r, &w) in rows.iter().zip(weights) {
                let at = (usize::from(r) - row0) * len;
                let w = i32::from(w);
                for (a, &xv) in acc[j..].iter_mut().zip(&x[at + j..at + len]) {
                    *a = a.wrapping_add(w.wrapping_mul(xv));
                }
            }
        }
    }
}

/// One group of `N` chunks starting at lane `j` of [`qaxpy_rows_avx2`].
///
/// # Safety
///
/// Requires AVX2 and `j + 8 * N <= acc.len()`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn qrows_group<const N: usize>(
    acc: &mut [i32],
    x: &[i32],
    j: usize,
    rows: &[u16],
    row0: usize,
    weights: &[i8],
) {
    // SAFETY: `j + 8 * N <= acc.len()` bounds every access to `acc`, and
    // every read of `x` goes through the checked slice `src` of `8 * N`
    // values.
    unsafe {
        let len = acc.len();
        let mut av = [_mm256_setzero_si256(); N];
        for (i, a) in av.iter_mut().enumerate() {
            *a = _mm256_loadu_si256(acc.as_ptr().add(j + 8 * i) as *const __m256i);
        }
        for (&r, &w) in rows.iter().zip(weights) {
            let at = (usize::from(r) - row0) * len + j;
            let src = &x[at..at + 8 * N];
            let wv = _mm256_set1_epi32(i32::from(w));
            for (i, a) in av.iter_mut().enumerate() {
                let xv = _mm256_loadu_si256(src.as_ptr().add(8 * i) as *const __m256i);
                *a = _mm256_add_epi32(*a, _mm256_mullo_epi32(wv, xv));
            }
        }
        for (i, a) in av.iter().enumerate() {
            _mm256_storeu_si256(acc.as_mut_ptr().add(j + 8 * i) as *mut __m256i, *a);
        }
    }
}
