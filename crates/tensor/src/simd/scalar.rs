//! Portable scalar fallback for the [`super`] kernels.
//!
//! Written over explicit-width lane types ([`f32x8`], [`i32x8`]) whose
//! operations are plain per-lane scalar expressions — the semantic
//! specification the `std::arch` kernels must match lane for lane. This
//! path is what `HD_SIMD=0` (and any host without AVX2/NEON) runs, so it
//! is kept allocation-free and auto-vectorizer-friendly but never relies
//! on vectorization for correctness.

use super::{MR, NR};

/// Eight f32 lanes with per-lane scalar semantics.
#[allow(non_camel_case_types)] // lane types follow the f32x8 convention
#[derive(Clone, Copy, Debug)]
pub struct f32x8(pub [f32; 8]);

impl f32x8 {
    /// Broadcasts `v` to all lanes.
    #[inline]
    pub fn splat(v: f32) -> Self {
        f32x8([v; 8])
    }

    /// Loads eight lanes from the front of `s`.
    #[inline]
    pub fn load(s: &[f32]) -> Self {
        let mut lanes = [0.0f32; 8];
        lanes.copy_from_slice(&s[..8]);
        f32x8(lanes)
    }

    /// Stores the lanes to the front of `d`.
    #[inline]
    pub fn store(self, d: &mut [f32]) {
        d[..8].copy_from_slice(&self.0);
    }

    /// Lanewise multiply.
    #[inline]
    #[allow(clippy::should_implement_trait)] // named method, not an operator: lane math stays grep-able
    pub fn mul(self, o: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(&o.0) {
            *a *= b;
        }
        f32x8(r)
    }

    /// Lanewise add (separate from [`Self::mul`]: no fused multiply-add).
    #[inline]
    #[allow(clippy::should_implement_trait)] // named method, not an operator: lane math stays grep-able
    pub fn add(self, o: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(&o.0) {
            *a += b;
        }
        f32x8(r)
    }

    /// Per lane: `self` where `mask_src != 0.0`, else `fallback` — the
    /// zero-skipping blend (`!=` is true for NaN, matching the scalar
    /// kernels' `if x != 0.0` test).
    #[inline]
    pub fn blend_nonzero(self, fallback: Self, mask_src: Self) -> Self {
        let mut r = fallback.0;
        for ((dst, &taken), &m) in r.iter_mut().zip(&self.0).zip(&mask_src.0) {
            if m != 0.0 {
                *dst = taken;
            }
        }
        f32x8(r)
    }
}

/// Eight i32 lanes with per-lane scalar semantics.
#[allow(non_camel_case_types)] // lane types follow the i32x8 convention
#[derive(Clone, Copy, Debug)]
pub struct i32x8(pub [i32; 8]);

impl i32x8 {
    /// Broadcasts `v` to all lanes.
    #[inline]
    pub fn splat(v: i32) -> Self {
        i32x8([v; 8])
    }

    /// Loads eight lanes from the front of `s`.
    #[inline]
    pub fn load(s: &[i32]) -> Self {
        let mut lanes = [0i32; 8];
        lanes.copy_from_slice(&s[..8]);
        i32x8(lanes)
    }

    /// Stores the lanes to the front of `d`.
    #[inline]
    pub fn store(self, d: &mut [i32]) {
        d[..8].copy_from_slice(&self.0);
    }

    /// Lanewise multiply (must not overflow).
    #[inline]
    #[allow(clippy::should_implement_trait)] // named method, not an operator: lane math stays grep-able
    pub fn mul(self, o: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(&o.0) {
            *a = a.wrapping_mul(*b);
        }
        i32x8(r)
    }

    /// Lanewise add (must not overflow).
    #[inline]
    #[allow(clippy::should_implement_trait)] // named method, not an operator: lane math stays grep-able
    pub fn add(self, o: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(&o.0) {
            *a = a.wrapping_add(*b);
        }
        i32x8(r)
    }
}

/// Scalar `MR x NR` register tile: load C, accumulate ascending `j`,
/// store back. The tile is processed in 8-lane column chunks so the live
/// accumulator set fits a 128-bit register file — per output element the
/// `j` accumulation order is identical either way, so chunking cannot
/// change a single bit.
pub fn gemm_micro(
    kcb: usize,
    a_strip: &[f32],
    b_strip: &[f32],
    c: &mut [f32],
    ldc: usize,
    mrb: usize,
    nrb: usize,
) {
    let mut j0 = 0;
    while j0 < nrb {
        let w = 8.min(nrb - j0);
        let mut acc = [[0.0f32; 8]; MR];
        for (i, row) in acc.iter_mut().enumerate().take(mrb) {
            row[..w].copy_from_slice(&c[i * ldc + j0..i * ldc + j0 + w]);
        }
        if w == 8 {
            // Fixed-width hot path: full 8-lane chunks of a tile.
            for j in 0..kcb {
                let av = &a_strip[j * MR..j * MR + MR];
                let bv = &b_strip[j * NR + j0..j * NR + j0 + 8];
                for (i, row) in acc.iter_mut().enumerate() {
                    let ai = av[i];
                    for (x, bj) in row.iter_mut().zip(bv) {
                        *x += ai * bj;
                    }
                }
            }
        } else {
            for j in 0..kcb {
                let av = &a_strip[j * MR..j * MR + MR];
                let bv = &b_strip[j * NR + j0..j * NR + j0 + w];
                for (i, row) in acc.iter_mut().enumerate() {
                    let ai = av[i];
                    for (x, bj) in row[..w].iter_mut().zip(bv) {
                        *x += ai * bj;
                    }
                }
            }
        }
        for (i, row) in acc.iter().enumerate().take(mrb) {
            c[i * ldc + j0..i * ldc + j0 + w].copy_from_slice(&row[..w]);
        }
        j0 += w;
    }
}

/// Scalar masked accumulate: `acc[i] += w * x[i]` where `x[i] != 0.0`.
/// The lane-typed body and the remainder loop evaluate the exact same
/// per-element expression. The per-row oracle of [`axpy_nonzero_rows`]'s
/// tests.
pub fn axpy_nonzero(acc: &mut [f32], x: &[f32], w: f32) {
    let wv = f32x8::splat(w);
    let mut chunks = acc.chunks_exact_mut(8);
    let mut xchunks = x.chunks_exact(8);
    for (a8, x8) in (&mut chunks).zip(&mut xchunks) {
        let av = f32x8::load(a8);
        let xv = f32x8::load(x8);
        av.add(wv.mul(xv)).blend_nonzero(av, xv).store(a8);
    }
    for (a, &xv) in chunks.into_remainder().iter_mut().zip(xchunks.remainder()) {
        if xv != 0.0 {
            *a += w * xv;
        }
    }
}

/// Scalar tap-list accumulate: for every `(k, w)` pair, each 8-lane chunk
/// of tile row `k` becomes `blend(row + w * x, row, x != 0)`. Chunk-outer
/// like the vector kernels, skipping all-zero chunks; `x.len()` is a
/// multiple of 8, so there is no remainder.
pub fn axpy_nonzero_rows(tile: &mut [f32], x: &[f32], rows: &[u32], weights: &[f32]) {
    let lanes = x.len();
    for (j, x8) in x.chunks_exact(8).enumerate() {
        if x8.iter().all(|&v| v == 0.0) {
            continue;
        }
        let xv = f32x8::load(x8);
        for (&k, &w) in rows.iter().zip(weights) {
            let at = k as usize * lanes + j * 8;
            let dst = &mut tile[at..at + 8];
            let tv = f32x8::load(dst);
            tv.add(f32x8::splat(w).mul(xv))
                .blend_nonzero(tv, xv)
                .store(dst);
        }
    }
}

/// Scalar unmasked i32 accumulate over one run, `acc[i] += w * x[i]`:
/// the per-row oracle of [`qaxpy_rows`]'s tests.
pub fn qaxpy(acc: &mut [i32], x: &[i32], w: i32) {
    let wv = i32x8::splat(w);
    let mut chunks = acc.chunks_exact_mut(8);
    let mut xchunks = x.chunks_exact(8);
    for (a8, x8) in (&mut chunks).zip(&mut xchunks) {
        let av = i32x8::load(a8);
        let xv = i32x8::load(x8);
        av.add(wv.mul(xv)).store(a8);
    }
    for (a, &xv) in chunks.into_remainder().iter_mut().zip(xchunks.remainder()) {
        *a = a.wrapping_add(w.wrapping_mul(xv));
    }
}

/// Scalar per-filter accumulate: for every `(r, w)` pair, each 8-lane
/// chunk of `acc` gains `w * x[(r - row0) * L + ...]`, with `L =
/// acc.len()`. Chunk-outer like the vector kernel, so a chunk's
/// accumulators stay in one lane value while the list streams past; the
/// lanes past the last whole chunk take the same wrapping arithmetic one
/// at a time.
pub fn qaxpy_rows(acc: &mut [i32], x: &[i32], rows: &[u16], row0: usize, weights: &[i8]) {
    let len = acc.len();
    let whole = len / 8 * 8;
    let (body, tail) = acc.split_at_mut(whole);
    for (j, a8) in body.chunks_exact_mut(8).enumerate() {
        let mut av = i32x8::load(a8);
        for (&r, &w) in rows.iter().zip(weights) {
            let at = (usize::from(r) - row0) * len + 8 * j;
            av = av.add(i32x8::splat(i32::from(w)).mul(i32x8::load(&x[at..at + 8])));
        }
        av.store(a8);
    }
    if tail.is_empty() {
        return;
    }
    for (&r, &w) in rows.iter().zip(weights) {
        let at = (usize::from(r) - row0) * len;
        let w = i32::from(w);
        for (a, &xv) in tail.iter_mut().zip(&x[at + whole..at + len]) {
            *a = a.wrapping_add(w.wrapping_mul(xv));
        }
    }
}
