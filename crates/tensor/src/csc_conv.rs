//! Sparse-activation × sparse-weight convolution over CSC-compacted weights.
//!
//! The paper's victim accelerators (Eyeriss v2, SCNN) keep both operands in
//! compressed-sparse form and multiply only nonzero pairs; this module is the
//! corresponding compute model and the performance backbone of the prober hot
//! loop. Weights are compacted once into [`CscWeights`] — for every filter
//! tap position `(c, r, s)` the list of `(k, value)` entries that survive
//! pruning.
//!
//! [`conv2d_csc`] recomputes only the output columns a probe can have
//! changed, with one register-tile kernel. The recomputed outputs are laid
//! out as lanes, `(p, q)` flattened, in a tile holding one lane row per
//! output channel `k`. For each tap `(c, r, s)` the kernel gathers the input
//! value every lane reads (0 for padding) and runs the tap's whole filter
//! list in one masked SIMD call ([`crate::simd::axpy_nonzero_rows`]):
//! `tile[k] = blend(tile[k] + w * x, tile[k], x != 0)`. Pruned weights never
//! enter the lists, and zero activations are skipped lane by lane.
//!
//! # Bit-identity contract
//!
//! [`conv2d_csc`] reproduces [`crate::conv::conv2d_reference`] bit for bit:
//! for every output element the surviving contributions are accumulated in
//! ascending `(c, r, s)` tap order starting from the bias. The tile starts
//! every lane at `bias[k]` and visits the taps in exactly that order, and
//! each lane is one output element, so it performs the same f32 additions
//! in the same order as the reference loop nest, with separate multiply and
//! add (never FMA). A lane whose activation is zero is masked, not added
//! to: it keeps its bits. That matters for a `-0.0` bias, which an
//! unconditional `-0.0 + w * 0.0 = +0.0` would flip, and for a `w * 0.0`
//! that is NaN because `w` is infinite. NaN activations compare `!= 0` and
//! are added, as in the reference.

use crate::colspan::ColSpan;
use crate::conv::{conv_out_dim, same_pad, Conv2dCfg, Padding};
use crate::{Tensor3, Tensor4};

/// Per-tap compressed-sparse-column encoding of a pruned weight tensor.
///
/// Entries are grouped by tap position `(c, r, s)` and sorted by output
/// channel `k` within each group; zero weights are elided with the same
/// exact `!= 0.0` test the dense kernels use for zero-skipping.
#[derive(Clone, Debug)]
pub struct CscWeights {
    k: usize,
    c: usize,
    r: usize,
    s: usize,
    /// Bucket boundaries per `(c, r, s)` tap, length `c*r*s + 1`.
    offsets: Vec<u32>,
    /// Output-channel index per surviving weight.
    filters: Vec<u32>,
    /// Weight value per surviving weight.
    values: Vec<f32>,
}

impl CscWeights {
    /// Compacts `weight` (layout `K x C x R x S`) into per-tap CSC lists.
    pub fn build(weight: &Tensor4) -> Self {
        let (k, c, r, s) = (weight.k(), weight.c(), weight.r(), weight.s());
        let taps = c * r * s;
        let mut counts = vec![0u32; taps + 1];
        let data = weight.data();
        for (idx, &v) in data.iter().enumerate() {
            if v != 0.0 {
                counts[idx % taps.max(1) + 1] += 1;
            }
        }
        for t in 1..counts.len() {
            counts[t] += counts[t - 1];
        }
        let offsets = counts;
        let nnz = *offsets.last().unwrap_or(&0) as usize;
        let mut filters = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        let mut cursor = offsets.clone();
        // Ascending flat index is ascending k within each tap bucket (k is
        // the outermost weight dimension), keeping the lists k-sorted.
        for (idx, &v) in data.iter().enumerate() {
            if v != 0.0 {
                let bucket = idx % taps.max(1);
                let slot = cursor[bucket] as usize;
                filters[slot] = (idx / taps.max(1)) as u32;
                values[slot] = v;
                cursor[bucket] += 1;
            }
        }
        CscWeights {
            k,
            c,
            r,
            s,
            offsets,
            filters,
            values,
        }
    }

    /// Output channels.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Input channels.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Kernel rows.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Kernel columns.
    pub fn s(&self) -> usize {
        self.s
    }

    /// Surviving (nonzero) weights.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of weights that survived pruning.
    pub fn density(&self) -> f64 {
        let total = self.k * self.c * self.r * self.s;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// The `(k, value)` entries at tap `(c, r, s)`, k-ascending.
    #[inline]
    fn taps(&self, bucket: usize) -> (&[u32], &[f32]) {
        let lo = self.offsets[bucket] as usize;
        let hi = self.offsets[bucket + 1] as usize;
        (&self.filters[lo..hi], &self.values[lo..hi])
    }
}

/// Input-stationary sparse × sparse convolution restricted to the output
/// columns reachable from `in_span`.
///
/// The caller guarantees one of two contracts:
///
/// * `baseline == None`: every input column outside `in_span` is zero. The
///   untouched output columns are then exactly `bias[k]`, which is what this
///   kernel writes there.
/// * `baseline == Some(base)`: `base` is this convolution's output for a
///   reference input that agrees with `input` on every column outside
///   `in_span` (the incremental-forward case, where `base` comes from the
///   zero-input baseline trace). Untouched output columns are copied from
///   `base`; columns reachable from `in_span` are recomputed from scratch.
///
/// Under either contract the result is bit-identical to running the reference
/// loop nest over the full map.
///
/// # Panics
///
/// Panics if the input channel count does not match `weights`, if a provided
/// `baseline` has the wrong shape, or if `cfg.stride == 0`.
pub fn conv2d_csc(
    input: &Tensor3,
    weights: &CscWeights,
    bias: Option<&[f32]>,
    cfg: &Conv2dCfg,
    in_span: ColSpan,
    baseline: Option<&Tensor3>,
) -> Tensor3 {
    assert!(cfg.stride > 0, "stride must be positive");
    assert_eq!(
        input.c(),
        weights.c(),
        "input channels {} do not match weight channels {}",
        input.c(),
        weights.c()
    );
    if let Some(b) = bias {
        assert_eq!(
            b.len(),
            weights.k(),
            "bias length must equal output channels"
        );
    }

    let (kr, ks) = (weights.r(), weights.s());
    let out_h = conv_out_dim(input.h(), kr, cfg.stride, cfg.padding);
    let out_w = conv_out_dim(input.w(), ks, cfg.stride, cfg.padding);
    let (pad_y, pad_x) = match cfg.padding {
        Padding::Same => (
            same_pad(input.h(), kr, cfg.stride),
            same_pad(input.w(), ks, cfg.stride),
        ),
        Padding::Valid => (0, 0),
    };

    let mut out = match baseline {
        Some(base) => {
            assert_eq!(
                (base.c(), base.h(), base.w()),
                (weights.k(), out_h, out_w),
                "baseline shape must match the convolution output"
            );
            base.clone()
        }
        None => {
            let mut t = Tensor3::zeros(weights.k(), out_h, out_w);
            if let Some(b) = bias {
                let plane = out_h * out_w;
                for (k, chunk) in t.data_mut().chunks_exact_mut(plane.max(1)).enumerate() {
                    chunk.fill(b[k]);
                }
            }
            t
        }
    };
    let out_span = in_span.clamp(input.w()).conv(ks, cfg.stride, pad_x, out_w);
    if out_h == 0 || out_w == 0 || out_span.is_empty() {
        return out;
    }

    // The tile holds one lane row per output channel `k`; lane
    // `p * span + j` is output `(p, out_span.lo() + j)`, and lanes past
    // `out_h * span` only pad the row to whole 8-lane chunks. It is never
    // larger than the output it fills. Every lane starts at the bias, as
    // the reference loop's `acc = bias[k]` does.
    let kn = weights.k();
    let span = out_span.width();
    let lanes = (out_h * span).div_ceil(8) * 8;
    let mut tile = vec![0.0f32; kn * lanes];
    if let Some(b) = bias {
        for (row, &bk) in tile.chunks_exact_mut(lanes).zip(b) {
            row.fill(bk);
        }
    }

    // Tap column `s` reads padded column `(out_span.lo() + j) * stride + s`
    // for lane column `j`; `cols[s]` is the `j` range landing inside the
    // input row (the rest reads zero padding).
    let (in_h, in_w, stride) = (input.h(), input.w(), cfg.stride);
    let cols: Vec<(usize, usize)> = (0..ks)
        .map(|s| {
            let x0 = out_span.lo() * stride + s;
            let j_lo = pad_x.saturating_sub(x0).div_ceil(stride);
            let j_hi = (in_w + pad_x).saturating_sub(x0).div_ceil(stride);
            (j_lo.min(span), j_hi.min(span))
        })
        .collect();

    // Taps arrive in ascending `(c, r, s)`, the order of the reference loop;
    // each runs its whole filter list in one masked call.
    let mut x = vec![0.0f32; lanes];
    for c in 0..weights.c() {
        let plane_c = &input.data()[c * in_h * in_w..(c + 1) * in_h * in_w];
        for r in 0..kr {
            for (s, &(j_lo, j_hi)) in cols.iter().enumerate() {
                let (ks_list, wv_list) = weights.taps((c * kr + r) * ks + s);
                if ks_list.is_empty() {
                    continue;
                }
                // Gather the value every lane reads through this tap.
                for (p, xp) in x.chunks_exact_mut(span).take(out_h).enumerate() {
                    xp.fill(0.0);
                    let y = (p * stride + r).checked_sub(pad_y);
                    let Some(y) = y.filter(|&y| y < in_h && j_lo < j_hi) else {
                        continue;
                    };
                    let first = y * in_w + (out_span.lo() + j_lo) * stride + s - pad_x;
                    let (dst, src) = (&mut xp[j_lo..j_hi], &plane_c[first..]);
                    if stride == 1 {
                        dst.copy_from_slice(&src[..dst.len()]);
                    } else {
                        for (v, &xv) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                            *v = xv;
                        }
                    }
                }
                crate::simd::axpy_nonzero_rows(&mut tile, &x, ks_list, wv_list);
            }
        }
    }

    // Copy the span back; the other columns keep the baseline (or bias).
    let plane = out_h * out_w;
    let out_data = out.data_mut();
    for (k, trow) in tile.chunks_exact(lanes).enumerate() {
        for (p, tp) in trow.chunks_exact(span).take(out_h).enumerate() {
            let at = k * plane + p * out_w + out_span.lo();
            out_data[at..at + span].copy_from_slice(tp);
        }
    }
    out
}

/// [`conv2d_csc`] with the weight compaction and span scan done on the fly —
/// the dispatch target for one-shot sparse-input convolutions (callers with
/// a reusable [`CscWeights`] should invoke the kernel directly).
pub fn conv2d_sparse_csc(
    input: &Tensor3,
    weight: &Tensor4,
    bias: Option<&[f32]>,
    cfg: &Conv2dCfg,
) -> Tensor3 {
    let csc = CscWeights::build(weight);
    conv2d_csc(input, &csc, bias, cfg, ColSpan::of_tensor(input), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pruned_weights(k: usize, c: usize, r: usize, s: usize, keep: f64, seed: u64) -> Tensor4 {
        let mut w = Tensor4::zeros(k, c, r, s);
        w.init_he(&mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFF);
        for v in w.data_mut().iter_mut() {
            if rng.gen_range(0.0..1.0) >= keep as f32 {
                *v = 0.0;
            }
        }
        w
    }

    #[test]
    fn csc_roundtrips_every_tap() {
        let w = pruned_weights(5, 3, 3, 3, 0.4, 9);
        let csc = CscWeights::build(&w);
        assert_eq!(csc.nnz(), w.nnz());
        let mut rebuilt = Tensor4::zeros(5, 3, 3, 3);
        for c in 0..3 {
            for r in 0..3 {
                for s in 0..3 {
                    let (ks_list, vs) = csc.taps((c * 3 + r) * 3 + s);
                    let mut prev = None;
                    for (&k, &v) in ks_list.iter().zip(vs) {
                        assert!(prev.is_none_or(|p| p < k), "k order not ascending");
                        prev = Some(k);
                        rebuilt.set(k as usize, c, r, s, v);
                    }
                }
            }
        }
        assert_eq!(rebuilt.data(), w.data());
    }

    #[test]
    fn matches_reference_bitwise_on_random_shapes() {
        let mut rng = StdRng::seed_from_u64(0xC5C);
        for case in 0..40u64 {
            let (c, h, w) = (
                rng.gen_range(1..4usize),
                rng.gen_range(1..9usize),
                rng.gen_range(1..9usize),
            );
            let k = rng.gen_range(1..5usize);
            let kr = rng.gen_range(1..4usize);
            let stride = rng.gen_range(1..3usize);
            let padding = if rng.gen_bool(0.5) {
                Padding::Same
            } else {
                Padding::Valid
            };
            let mut x = Tensor3::zeros(c, h, w);
            // Mix of sparse and dense inputs.
            let density = if case % 2 == 0 { 0.1 } else { 1.0 };
            for v in x.data_mut().iter_mut() {
                if rng.gen_range(0.0..1.0) < density {
                    *v = rng.gen_range(-2.0..2.0);
                }
            }
            let weight = pruned_weights(k, c, kr, kr, 0.5, 0xBEEF + case);
            let bias: Vec<f32> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let cfg = Conv2dCfg::new(stride, padding);
            let want = crate::conv::conv2d_reference(&x, &weight, Some(&bias), &cfg);
            let got = conv2d_sparse_csc(&x, &weight, Some(&bias), &cfg);
            assert_eq!(want.shape(), got.shape(), "case {case}");
            assert_eq!(want.data(), got.data(), "bitwise divergence in case {case}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The incremental contract on random sub-spans: a baseline from
        /// one input, patched inside `[lo, hi)`, must equal the reference
        /// loop on the patched input bit for bit, under both dispatch
        /// modes. Maps up to 40 wide give tiles of 1–5 vectors per row;
        /// the bias holds a `-0.0` (a lane with no nonzero input must keep
        /// it) and the patch may carry one NaN. The `baseline == None`
        /// contract is checked on the patch alone.
        #[test]
        fn incremental_recompute_matches_full_run(
            seed in 0u64..10_000,
            c in 1usize..4,
            k in 1usize..6,
            h in 1usize..10,
            w in 1usize..41,
            kernel in prop_oneof![Just(1usize), Just(3usize), Just(5usize), Just(7usize)],
            stride in 1usize..4,
            valid in any::<bool>(),
            lo in 0usize..40,
            width in 1usize..41,
            density_pct in prop_oneof![Just(10u32), Just(50u32), Just(100u32)],
            nan in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fill = |t: &mut Tensor3, cols: std::ops::Range<usize>| {
                for (i, v) in t.data_mut().iter_mut().enumerate() {
                    if cols.contains(&(i % w)) {
                        let keep = rng.gen_range(0u32..100) < density_pct;
                        *v = if keep { rng.gen_range(-2.0..2.0) } else { 0.0 };
                    }
                }
            };
            let mut base_in = Tensor3::zeros(c, h, w);
            fill(&mut base_in, 0..w);
            let (lo, hi) = (lo % w, (lo % w + width).min(w));
            let mut patched = base_in.clone();
            fill(&mut patched, lo..hi);
            if nan {
                patched.set(c - 1, h / 2, lo, f32::NAN);
            }
            let weight = pruned_weights(k, c, kernel, kernel, 0.5, seed ^ 0x1D1);
            let mut bias: Vec<f32> = (0..k).map(|i| i as f32 * 0.25 - 0.5).collect();
            bias[0] = -0.0;
            let padding = if valid { Padding::Valid } else { Padding::Same };
            let cfg = Conv2dCfg::new(stride, padding);
            let reference = |x: &Tensor3| {
                crate::conv::conv2d_reference(x, &weight, Some(&bias), &cfg)
            };
            let base_out = reference(&base_in);
            let mut patch_only = Tensor3::zeros(c, h, w);
            for (i, (dst, &src)) in patch_only.data_mut().iter_mut().zip(patched.data()).enumerate() {
                if (lo..hi).contains(&(i % w)) {
                    *dst = src;
                }
            }
            let bits = |t: &Tensor3| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (want, want_patch) = (bits(&reference(&patched)), bits(&reference(&patch_only)));
            let csc = CscWeights::build(&weight);
            let span = ColSpan::new(lo, hi);
            let _guard = crate::simd::TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let detected = crate::simd::enabled();
            for vector in [true, false] {
                crate::simd::set_enabled(vector);
                let got = conv2d_csc(&patched, &csc, Some(&bias), &cfg, span, Some(&base_out));
                prop_assert_eq!(&bits(&got), &want, "baseline contract, vector = {}", vector);
                let got = conv2d_csc(&patch_only, &csc, Some(&bias), &cfg, span, None);
                prop_assert_eq!(&bits(&got), &want_patch, "zero contract, vector = {}", vector);
            }
            crate::simd::set_enabled(detected);
        }
    }

    #[test]
    fn empty_span_returns_bias_planes() {
        let weight = pruned_weights(3, 1, 3, 3, 0.5, 4);
        let x = Tensor3::zeros(1, 5, 5);
        let csc = CscWeights::build(&weight);
        let out = conv2d_csc(
            &x,
            &csc,
            Some(&[1.0, -2.0, 0.5]),
            &Conv2dCfg::default(),
            ColSpan::empty(),
            None,
        );
        for k in 0..3 {
            let b = [1.0, -2.0, 0.5][k];
            assert!(out.data()[k * 25..(k + 1) * 25].iter().all(|&v| v == b));
        }
    }
}
