//! INT8 quantized 2-D convolution with i32 accumulators and a
//! deterministic requantize step.
//!
//! The arithmetic follows the standard affine-quantization contract with
//! symmetric (`zero_point == 0`) per-output-channel weights:
//!
//! ```text
//! acc[k,p,q] = bias_q[k] + sum_{c,r,s} w_q[k,c,r,s] * (x_q[c,y,x] - zp_in)
//! out_q[k,p,q] = clamp(zp_out + round(acc * m[k]), -128, 127)
//! ```
//!
//! where `m[k] = s_in * s_w[k] / s_out` folds the three scales into one
//! per-channel requantization multiplier.
//!
//! # One kernel: im2col lowering times per-filter tap lists
//!
//! * **Compaction, once per layer.** [`QConvParams::new`] (called by PTQ)
//!   keeps only the weight taps `(c, r, s)` that some filter uses, and
//!   stores each filter as a CSR row of `(tap slot, i8 weight)` pairs. The
//!   dense weight tensor is not retained: pruned weights, and taps pruned
//!   in every filter, cost nothing from then on.
//! * **Lowering, per call.** [`qconv2d_cols`] recomputes only the output
//!   columns an input column span can reach (a stripe probe's receptive
//!   field; [`qconv2d`] passes the full width). The zero-point-centred
//!   input is lowered into a `used_taps x (out_h * span)` i32 matrix whose
//!   row `t` holds the value each recomputed output position reads
//!   through tap `t`. Stride and padding are resolved here, with padding
//!   cells left at 0, so the multiply serves every stride without bounds
//!   logic. Wide layers lower their taps in blocks of at most 64 KiB,
//!   which bounds the scratch per call.
//! * **Multiply.** Filter `k` starts a row of accumulators at
//!   `bias_q[k]` and runs its whole weight list in one
//!   [`crate::simd::qaxpy_rows`] call, which keeps a group of positions in
//!   registers while the list streams past. The row is then requantized,
//!   the optional ReLU is fused into that write-out, and only the span
//!   columns are written: the rest come from the caller's baseline.
//!
//! Every accumulation is exact integer arithmetic, so the sum does not
//! depend on the order of its terms: [`qconv2d`] is byte-identical to the
//! scalar loop nest [`qconv2d_reference`], the test oracle, on every
//! stride, padding and dispatch mode, and a column-restricted call is
//! byte-identical to the full one on the columns it writes. Only the final
//! rounding touches floating point, and it is evaluated once per output
//! element from the same i32 accumulator. Accumulators cannot overflow:
//! `|w| <= 127`, `|x - zp| <= 255`, a padding cell contributes 0, and the
//! largest victim layer has `512 * 3 * 3` taps, bounding the weighted sum
//! by `4608 * 127 * 255 < 1.5e8`, well under `2^31`.

use crate::colspan::ColSpan;
use crate::conv::{conv_out_dim, same_pad, Conv2dCfg, Padding};
use crate::qtensor::{QTensor3, QTensor4, QuantParams};
use std::ops::Range;

/// One quantized conv layer: its weights compacted to per-filter tap
/// lists, plus the requantization bundle.
#[derive(Clone, Debug)]
pub struct QConvParams {
    /// Weight dims `(K, C, R, S)`.
    dims: [usize; 4],
    /// Taps `(c * R + r) * S + s` that at least one filter uses,
    /// ascending; a tap's position here is its slot.
    taps: Vec<u32>,
    /// Filter `k` owns CSR entries `offsets[k]..offsets[k + 1]`.
    offsets: Vec<u32>,
    /// Tap slot of each surviving weight.
    slots: Vec<u16>,
    /// Value of each surviving weight (never 0).
    values: Vec<i8>,
    /// Bias in accumulator units: `round(bias[k] / (s_in * s_w[k]))`.
    pub bias_q: Vec<i32>,
    /// Per-channel requantization multiplier `s_in * s_w[k] / s_out`.
    pub multipliers: Vec<f32>,
    /// Output activation quantization.
    pub out_qp: QuantParams,
}

impl QConvParams {
    /// Compacts `weight` into per-filter tap lists and bundles it with
    /// the requantization parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bias_q` or `multipliers` does not have one entry per
    /// filter, or if more than 65536 taps are in use.
    pub fn new(
        weight: &QTensor4,
        bias_q: Vec<i32>,
        multipliers: Vec<f32>,
        out_qp: QuantParams,
    ) -> QConvParams {
        let dims = [weight.k(), weight.c(), weight.r(), weight.s()];
        assert_eq!(bias_q.len(), dims[0], "bias length must equal K");
        assert_eq!(multipliers.len(), dims[0], "multiplier length must equal K");
        let per = dims[1] * dims[2] * dims[3];
        let filters = || (0..dims[0]).map(|k| &weight.data()[k * per..(k + 1) * per]);
        let mut used = vec![false; per];
        for filter in filters() {
            for (u, &w) in used.iter_mut().zip(filter) {
                *u |= w != 0;
            }
        }
        let taps: Vec<u32> = (0..per as u32).filter(|&t| used[t as usize]).collect();
        assert!(
            taps.len() <= usize::from(u16::MAX) + 1,
            "{} used taps exceed the u16 slot range",
            taps.len()
        );
        let mut slot_of = vec![0u16; per];
        for (slot, &t) in taps.iter().enumerate() {
            slot_of[t as usize] = slot as u16;
        }
        let nnz = weight.nnz();
        let mut offsets = Vec::with_capacity(dims[0] + 1);
        let (mut slots, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        offsets.push(0u32);
        for filter in filters() {
            for (t, &w) in filter.iter().enumerate().filter(|(_, &w)| w != 0) {
                slots.push(slot_of[t]);
                values.push(w);
            }
            offsets.push(slots.len() as u32);
        }
        QConvParams {
            dims,
            taps,
            offsets,
            slots,
            values,
            bias_q,
            multipliers,
            out_qp,
        }
    }

    /// Output channels.
    fn k(&self) -> usize {
        self.dims[0]
    }

    /// Input channels.
    fn c(&self) -> usize {
        self.dims[1]
    }

    /// Kernel rows.
    fn r(&self) -> usize {
        self.dims[2]
    }

    /// Kernel columns.
    fn s(&self) -> usize {
        self.dims[3]
    }

    /// Surviving (nonzero) quantized weights.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Taps `(c, r, s)` used by at least one filter.
    pub fn used_taps(&self) -> usize {
        self.taps.len()
    }
}

/// Clamped round-to-nearest requantization of one i32 accumulator.
#[inline]
pub fn requantize(acc: i32, multiplier: f32, zp_out: i32) -> i8 {
    let q = zp_out as f32 + (acc as f32 * multiplier).round();
    q.clamp(-128.0, 127.0) as i8
}

/// Bytes of lowered input held at once. A call whose full lowering is
/// larger (the high-resolution layers) lowers its taps in blocks of this
/// size, which bounds the kernel's scratch without shortening the
/// [`crate::simd::qaxpy_rows`] runs, which always span every recomputed
/// output position.
const LOWERED_BLOCK_BYTES: usize = 64 * 1024;

/// Quantized convolution over the whole map: [`qconv2d_cols`] with the
/// full column span, no baseline and no ReLU.
///
/// # Panics
///
/// Panics if the input channels or per-channel vector lengths disagree
/// with `p`, or if `cfg.stride == 0`.
pub fn qconv2d(input: &QTensor3, p: &QConvParams, cfg: &Conv2dCfg) -> QTensor3 {
    qconv2d_cols(input, p, cfg, ColSpan::full(input.w()), None, false)
}

/// Quantized convolution restricted to the output columns reachable from
/// `in_span`: lowers the input over the layer's used taps and those
/// columns, then runs each filter's weight list in one
/// [`crate::simd::qaxpy_rows`] call (see the module docs). With `relu`,
/// every written value is clamped below at the output zero point. One
/// kernel serves every stride and padding.
///
/// The caller guarantees one of two contracts, as for
/// [`crate::csc_conv::conv2d_csc`]:
///
/// * `baseline == None`: every input column outside `in_span` holds the
///   input zero point. Each untouched output column is then the
///   requantized bias, which is what this kernel writes there.
/// * `baseline == Some(base)`: `base` is this convolution's output (with
///   the same `relu`) for a reference input that agrees with `input` on
///   every column outside `in_span`. Untouched columns are copied from
///   `base`.
///
/// Under either contract the result is byte-identical to the full
/// convolution of `input`.
///
/// # Panics
///
/// Panics as [`qconv2d`] does, or if a provided `baseline` does not have
/// the output shape.
pub fn qconv2d_cols(
    input: &QTensor3,
    p: &QConvParams,
    cfg: &Conv2dCfg,
    in_span: ColSpan,
    baseline: Option<&QTensor3>,
    relu: bool,
) -> QTensor3 {
    qconv2d_blocked(input, p, cfg, in_span, baseline, relu, LOWERED_BLOCK_BYTES)
}

/// [`qconv2d_cols`] with the lowering scratch bounded by `block_bytes`
/// (at least one tap per block); the unit tests shrink it to force many
/// blocks.
fn qconv2d_blocked(
    input: &QTensor3,
    p: &QConvParams,
    cfg: &Conv2dCfg,
    in_span: ColSpan,
    baseline: Option<&QTensor3>,
    relu: bool,
    block_bytes: usize,
) -> QTensor3 {
    check_args(input, p, cfg);
    let g = Geometry::new(input, p.r(), p.s(), cfg);
    let zp_out = p.out_qp.zero_point;
    let floor = if relu {
        zp_out.clamp(-128, 127) as i8
    } else {
        i8::MIN
    };
    let write = |acc: i32, m: f32| requantize(acc, m, zp_out).max(floor);
    let plane = g.out_h * g.out_w;
    let mut out: Vec<i8> = match baseline {
        Some(base) => {
            assert_eq!(
                (base.c(), base.h(), base.w()),
                (p.k(), g.out_h, g.out_w),
                "baseline shape must match the convolution output"
            );
            base.data().to_vec()
        }
        None => p
            .bias_q
            .iter()
            .zip(&p.multipliers)
            .flat_map(|(&b, &m)| std::iter::repeat_n(write(b, m), plane))
            .collect(),
    };
    let span = in_span
        .clamp(input.w())
        .conv(p.s(), g.stride, g.pad_x, g.out_w);
    if g.out_h == 0 || span.is_empty() {
        return QTensor3::from_raw(p.k(), g.out_h, g.out_w, out, p.out_qp);
    }
    // Lane `p * width + j` is output `(p, span.lo() + j)`; lanes past
    // `out_h * width` only pad the row to whole 8-lane chunks (they read
    // 0 and are never written out). One accumulator row per filter,
    // seeded with its bias.
    let width = span.width();
    let lanes = (g.out_h * width).div_ceil(8) * 8;
    let mut acc: Vec<i32> = p
        .bias_q
        .iter()
        .flat_map(|&b| std::iter::repeat_n(b, lanes))
        .collect();
    // Each filter's next CSR entry. Entries ascend by slot, so every tap
    // block consumes a prefix of what is left.
    let mut next: Vec<usize> = p.offsets[..p.k()].iter().map(|&o| o as usize).collect();
    let block = (block_bytes / (4 * lanes)).max(1);
    let mut lowered = Vec::new();
    for t0 in (0..p.used_taps()).step_by(block) {
        let t1 = (t0 + block).min(p.used_taps());
        lower(input, p, &g, span, t0..t1, lanes, &mut lowered);
        for (k, start) in next.iter_mut().enumerate() {
            let left = &p.slots[*start..p.offsets[k + 1] as usize];
            let entries = *start..*start + left.partition_point(|&s| usize::from(s) < t1);
            *start = entries.end;
            crate::simd::qaxpy_rows(
                &mut acc[k * lanes..][..lanes],
                &lowered,
                &p.slots[entries.clone()],
                t0,
                &p.values[entries],
            );
        }
    }
    for (k, (row, &m)) in acc.chunks_exact(lanes).zip(&p.multipliers).enumerate() {
        for (pq, src) in row.chunks_exact(width).take(g.out_h).enumerate() {
            let at = k * plane + pq * g.out_w + span.lo();
            for (dst, &a) in out[at..at + width].iter_mut().zip(src) {
                *dst = write(a, m);
            }
        }
    }
    QTensor3::from_raw(p.k(), g.out_h, g.out_w, out, p.out_qp)
}

/// Lowers the zero-point-centred input for the used taps in slots
/// `slots` and the output columns `cols` to one row of `lanes` values per
/// tap (lane `p * cols.width() + j` is output `(p, cols.lo() + j)`);
/// cells that read padding, and the padding lanes, stay 0.
fn lower(
    input: &QTensor3,
    p: &QConvParams,
    g: &Geometry,
    cols: ColSpan,
    slots: Range<usize>,
    lanes: usize,
    lowered: &mut Vec<i32>,
) {
    let (in_h, in_w) = (input.h(), input.w());
    let width = cols.width();
    let zp_in = input.qp.zero_point;
    lowered.clear();
    lowered.resize(slots.len() * lanes, 0);
    let (kr, ks) = (p.r(), p.s());
    for (&tap, row) in p.taps[slots].iter().zip(lowered.chunks_exact_mut(lanes)) {
        let tap = tap as usize;
        let (c, r, s) = (tap / (kr * ks), tap / ks % kr, tap % ks);
        let qs = g.valid_outputs(s, g.pad_x, in_w, g.out_w);
        let (q0, q1) = (qs.start.max(cols.lo()), qs.end.min(cols.hi()));
        if q0 >= q1 {
            continue; // every read of this tap in the span lands in padding
        }
        let (j0, j1) = (q0 - cols.lo(), q1 - cols.lo());
        for pq in g.valid_outputs(r, g.pad_y, in_h, g.out_h) {
            let iy = pq * g.stride + r - g.pad_y;
            let in_row = &input.data()[(c * in_h + iy) * in_w..][..in_w];
            let src = in_row[q0 * g.stride + s - g.pad_x..]
                .iter()
                .step_by(g.stride);
            for (dst, &x) in row[pq * width..][j0..j1].iter_mut().zip(src) {
                *dst = i32::from(x) - zp_in;
            }
        }
    }
}

/// Output size, stride and leading padding of one conv call.
struct Geometry {
    out_h: usize,
    out_w: usize,
    pad_y: usize,
    pad_x: usize,
    stride: usize,
}

impl Geometry {
    fn new(input: &QTensor3, kr: usize, ks: usize, cfg: &Conv2dCfg) -> Geometry {
        let (pad_y, pad_x) = match cfg.padding {
            Padding::Same => (
                same_pad(input.h(), kr, cfg.stride),
                same_pad(input.w(), ks, cfg.stride),
            ),
            Padding::Valid => (0, 0),
        };
        Geometry {
            out_h: conv_out_dim(input.h(), kr, cfg.stride, cfg.padding),
            out_w: conv_out_dim(input.w(), ks, cfg.stride, cfg.padding),
            pad_y,
            pad_x,
            stride: cfg.stride,
        }
    }

    /// Output indices `o` along one axis whose input coordinate
    /// `o * stride + tap - pad` lies inside `0..in_len`.
    fn valid_outputs(&self, tap: usize, pad: usize, in_len: usize, out_len: usize) -> Range<usize> {
        let lo = pad.saturating_sub(tap).div_ceil(self.stride);
        let hi = (in_len + pad).saturating_sub(tap).div_ceil(self.stride);
        lo..hi.min(out_len).max(lo)
    }
}

fn check_args(input: &QTensor3, p: &QConvParams, cfg: &Conv2dCfg) {
    assert!(cfg.stride > 0, "stride must be positive");
    assert_eq!(
        input.c(),
        p.c(),
        "input channels {} do not match weight channels {}",
        input.c(),
        p.c()
    );
    assert_eq!(p.bias_q.len(), p.k(), "bias length must equal K");
    assert_eq!(p.multipliers.len(), p.k(), "multiplier length must equal K");
}

/// Scalar i32 loop nest over the dense `weight` — the specification
/// [`qconv2d`] and [`qconv2d_cols`] and the differential tests compare
/// against. It reads only
/// the bias, multipliers and output quantization from `p`, never the
/// compacted tap lists, so it stays independent of the compaction.
///
/// # Panics
///
/// Panics as [`qconv2d`] does, or if `weight`'s dims differ from `p`'s.
pub fn qconv2d_reference(
    input: &QTensor3,
    weight: &QTensor4,
    p: &QConvParams,
    cfg: &Conv2dCfg,
) -> QTensor3 {
    check_args(input, p, cfg);
    let w = weight;
    assert_eq!(
        [w.k(), w.c(), w.r(), w.s()],
        p.dims,
        "dense weight dims differ from the params"
    );
    let g = Geometry::new(input, w.r(), w.s(), cfg);
    let zp_in = input.qp.zero_point;
    let zp_out = p.out_qp.zero_point;
    let mut out = vec![0i8; w.k() * g.out_h * g.out_w];
    for k in 0..w.k() {
        for pq in 0..g.out_h {
            for q in 0..g.out_w {
                let mut acc = p.bias_q[k];
                for c in 0..input.c() {
                    for r in 0..w.r() {
                        let iy = (pq * cfg.stride + r) as isize - g.pad_y as isize;
                        if iy < 0 || iy >= input.h() as isize {
                            continue;
                        }
                        for s in 0..w.s() {
                            let ix = (q * cfg.stride + s) as isize - g.pad_x as isize;
                            if ix < 0 || ix >= input.w() as isize {
                                continue;
                            }
                            let wv = w.at(k, c, r, s) as i32;
                            if wv == 0 {
                                continue; // pruned weight
                            }
                            let idx = (c * input.h() + iy as usize) * input.w() + ix as usize;
                            let xv = input.data()[idx] as i32 - zp_in;
                            acc += wv * xv;
                        }
                    }
                }
                out[(k * g.out_h + pq) * g.out_w + q] = requantize(acc, p.multipliers[k], zp_out);
            }
        }
    }
    QTensor3::from_raw(w.k(), g.out_h, g.out_w, out, p.out_qp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tensor3, Tensor4};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random pruned layer: its dense weights (for the reference), the
    /// compacted params, and the input quantization.
    fn random_qconv(
        seed: u64,
        k: usize,
        c: usize,
        kr: usize,
    ) -> (QTensor4, QConvParams, QuantParams) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = Tensor4::zeros(k, c, kr, kr);
        w.init_he(&mut rng);
        for v in w.data_mut().iter_mut() {
            if rng.gen_bool(0.5) {
                *v = 0.0;
            }
        }
        let weight = QTensor4::quantize(&w);
        let in_qp = QuantParams::from_range(-1.0, 1.0);
        let out_qp = QuantParams::from_range(-4.0, 4.0);
        let bias_q: Vec<i32> = (0..k).map(|_| rng.gen_range(-500..500)).collect();
        let multipliers: Vec<f32> = weight
            .scales()
            .iter()
            .map(|&sw| in_qp.scale * sw / out_qp.scale)
            .collect();
        let p = QConvParams::new(&weight, bias_q, multipliers, out_qp);
        (weight, p, in_qp)
    }

    #[test]
    fn kernel_matches_reference_exactly() {
        let mut rng = StdRng::seed_from_u64(0xC017);
        for case in 0..40u64 {
            let (c, h, w) = (
                rng.gen_range(1..4usize),
                rng.gen_range(1..9usize),
                rng.gen_range(1..9usize),
            );
            let k = rng.gen_range(1..5usize);
            let kr = rng.gen_range(1..4usize);
            let stride = rng.gen_range(1..4usize);
            let padding = if rng.gen_bool(0.5) {
                Padding::Same
            } else {
                Padding::Valid
            };
            let (weight, p, in_qp) = random_qconv(case, k, c, kr);
            let mut x = Tensor3::zeros(c, h, w);
            x.fill_uniform(&mut rng, -1.0, 1.0);
            let qx = QTensor3::quantize(&x, in_qp);
            let cfg = Conv2dCfg::new(stride, padding);
            let want = qconv2d_reference(&qx, &weight, &p, &cfg);
            // One tap per block, a few taps per block, one block.
            for block_bytes in [0, 64, LOWERED_BLOCK_BYTES] {
                let full = ColSpan::full(w);
                let got = qconv2d_blocked(&qx, &p, &cfg, full, None, false, block_bytes);
                assert_eq!(want.shape(), got.shape(), "case {case}");
                assert_eq!(
                    want.data(),
                    got.data(),
                    "case {case}, {block_bytes} B blocks"
                );
            }
        }
    }

    /// `relu` applied to a reference output: clamp below the zero point.
    fn relu(t: &QTensor3) -> QTensor3 {
        let zp = t.zero_point_i8();
        let data = t.data().iter().map(|&q| q.max(zp)).collect();
        QTensor3::from_raw(t.c(), t.h(), t.w(), data, t.qp)
    }

    #[test]
    fn column_restricted_kernel_matches_reference_under_both_contracts() {
        let mut rng = StdRng::seed_from_u64(0xC015);
        for case in 0..60u64 {
            let (c, h, w) = (
                rng.gen_range(1..4usize),
                rng.gen_range(1..9usize),
                rng.gen_range(1..12usize),
            );
            let (k, kr) = (rng.gen_range(1..5usize), rng.gen_range(1..4usize));
            let padding = if rng.gen_bool(0.5) {
                Padding::Same
            } else {
                Padding::Valid
            };
            let cfg = Conv2dCfg::new(rng.gen_range(1..4usize), padding);
            let (weight, p, in_qp) = random_qconv(case, k, c, kr);
            let lo = rng.gen_range(0..w);
            let span = ColSpan::new(lo, rng.gen_range(lo + 1..=w));
            // `base_x` and `x` differ only inside the span; `stripe` is
            // `x` with every column outside the span at the zero point.
            let mut base_x = Tensor3::zeros(c, h, w);
            base_x.fill_uniform(&mut rng, -1.0, 1.0);
            let (mut x, mut stripe) = (base_x.clone(), Tensor3::zeros(c, h, w));
            for ch in 0..c {
                for y in 0..h {
                    for col in span.lo()..span.hi() {
                        let v = rng.gen_range(-1.0..1.0);
                        x.set(ch, y, col, v);
                        stripe.set(ch, y, col, v);
                    }
                }
            }
            let (qbase_x, qx, qstripe) = (
                QTensor3::quantize(&base_x, in_qp),
                QTensor3::quantize(&x, in_qp),
                QTensor3::quantize(&stripe, in_qp),
            );
            for with_relu in [false, true] {
                let post = |t: QTensor3| if with_relu { relu(&t) } else { t };
                let base = post(qconv2d_reference(&qbase_x, &weight, &p, &cfg));
                let want = post(qconv2d_reference(&qx, &weight, &p, &cfg));
                let want_stripe = post(qconv2d_reference(&qstripe, &weight, &p, &cfg));
                for block_bytes in [0, LOWERED_BLOCK_BYTES] {
                    let got =
                        qconv2d_blocked(&qx, &p, &cfg, span, Some(&base), with_relu, block_bytes);
                    assert_eq!(want.data(), got.data(), "case {case}, baseline contract");
                    let got =
                        qconv2d_blocked(&qstripe, &p, &cfg, span, None, with_relu, block_bytes);
                    assert_eq!(
                        want_stripe.data(),
                        got.data(),
                        "case {case}, zero-point contract"
                    );
                }
            }
        }
    }

    #[test]
    fn compaction_keeps_only_used_taps_and_nonzero_weights() {
        let (weight, p, _) = random_qconv(3, 3, 2, 3);
        assert_eq!(p.nnz(), weight.nnz());
        let per = weight.c() * weight.r() * weight.s();
        let used = (0..per)
            .filter(|&t| (0..weight.k()).any(|k| weight.data()[k * per + t] != 0))
            .count();
        assert_eq!(p.used_taps(), used);
        assert!(p.values.iter().all(|&v| v != 0));
    }

    #[test]
    fn stride_two_output_shape() {
        let (_, p, in_qp) = random_qconv(3, 3, 2, 3);
        let mut x = Tensor3::zeros(2, 6, 6);
        x.fill_uniform(&mut StdRng::seed_from_u64(4), -1.0, 1.0);
        let qx = QTensor3::quantize(&x, in_qp);
        let cfg = Conv2dCfg::new(2, Padding::Same);
        let out = qconv2d(&qx, &p, &cfg);
        assert_eq!((out.c(), out.h(), out.w()), (3, 3, 3));
    }

    #[test]
    fn quantized_conv_approximates_f32_conv() {
        // End-to-end sanity: dequantized INT8 output tracks the f32 conv
        // within a few quantization steps.
        let mut rng = StdRng::seed_from_u64(21);
        let mut w = Tensor4::zeros(4, 3, 3, 3);
        w.init_he(&mut rng);
        let mut x = Tensor3::zeros(3, 8, 8);
        x.fill_uniform(&mut rng, -1.0, 1.0);
        let cfg = Conv2dCfg::new(1, Padding::Same);
        let f32_out = crate::conv::conv2d_reference(&x, &w, None, &cfg);
        let lo = f32_out.data().iter().cloned().fold(f32::MAX, f32::min);
        let hi = f32_out.data().iter().cloned().fold(f32::MIN, f32::max);

        let weight = QTensor4::quantize(&w);
        let in_qp = QuantParams::from_range(-1.0, 1.0);
        let out_qp = QuantParams::from_range(lo, hi);
        let multipliers: Vec<f32> = weight
            .scales()
            .iter()
            .map(|&sw| in_qp.scale * sw / out_qp.scale)
            .collect();
        let p = QConvParams::new(&weight, vec![0; 4], multipliers, out_qp);
        let qx = QTensor3::quantize(&x, in_qp);
        let qout = qconv2d(&qx, &p, &cfg).dequantize();
        let mut worst = 0.0f32;
        for (a, b) in qout.data().iter().zip(f32_out.data()) {
            worst = worst.max((a - b).abs());
        }
        assert!(
            worst < out_qp.scale * 4.0 + 0.05,
            "worst INT8-vs-f32 error {worst} (step {})",
            out_qp.scale
        );
    }
}
