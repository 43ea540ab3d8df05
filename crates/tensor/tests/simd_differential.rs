//! Differential tests between the vector (`AVX2`/`NEON`) and scalar SIMD
//! paths, and between the INT8 convolution and its reference loop.
//!
//! The SIMD contract is *bit-identity*: per output element, both dispatch
//! modes perform the same f32 additions in the same order (no FMA, lane
//! width only changes how many independent elements advance together).
//! These tests force each mode with [`simd::set_enabled`] and compare
//! outputs bit-for-bit — on hosts without AVX2/NEON both runs take the
//! scalar path and the tests degrade to self-consistency checks.

use hd_tensor::conv::{conv2d, conv2d_reference, Conv2dCfg, Padding};
use hd_tensor::csc_conv::conv2d_sparse_csc;
use hd_tensor::gemm::{gemm, GemmBlocking};
use hd_tensor::im2col::conv2d_im2col_gemm;
use hd_tensor::qconv::{qconv2d, qconv2d_reference, requantize, QConvParams};
use hd_tensor::simd::{self, scalar};
use hd_tensor::{QTensor3, QTensor4, QuantParams, Tensor3, Tensor4};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// [`simd::set_enabled`] flips a process-wide mode; tests in this binary
/// run concurrently, so every mode-flipping section serializes here.
static SIMD_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once on the vector path and once on the scalar path,
/// restoring vector dispatch afterwards.
fn both_paths<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd::set_enabled(true);
    let vector = f();
    simd::set_enabled(false);
    let scalar = f();
    simd::set_enabled(true);
    (vector, scalar)
}

fn random_tensor3(seed: u64, c: usize, h: usize, w: usize) -> Tensor3 {
    let mut t = Tensor3::zeros(c, h, w);
    t.fill_uniform(&mut StdRng::seed_from_u64(seed), -1.0, 1.0);
    t
}

fn pruned_weights(seed: u64, k: usize, c: usize, kernel: usize, keep_percent: u32) -> Tensor4 {
    let mut w = Tensor4::zeros(k, c, kernel, kernel);
    let mut rng = StdRng::seed_from_u64(seed);
    w.init_he(&mut rng);
    for v in w.data_mut().iter_mut() {
        if rng.gen_range(0u32..100) >= keep_percent {
            *v = 0.0;
        }
    }
    w
}

/// INT8 workload: affine input quantization (exact zero point), symmetric
/// per-output-channel weights, a seed-pinned bias, and the output range
/// calibrated from the f32 conv. Returns the dense quantized weights too,
/// for the reference loop.
fn quantized_workload(
    x: &Tensor3,
    w: &Tensor4,
    cfg: &Conv2dCfg,
    seed: u64,
) -> (QTensor3, QTensor4, QConvParams) {
    let (lo, hi) = x
        .data()
        .iter()
        .fold((0.0f32, 0.0f32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let in_qp = QuantParams::from_range(lo, hi);
    let qx = QTensor3::quantize(x, in_qp);
    let qw = QTensor4::quantize(w);
    let f32_out = conv2d(x, w, None, cfg);
    let (olo, ohi) = f32_out
        .data()
        .iter()
        .fold((0.0f32, 0.0f32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let out_qp = QuantParams::from_range(olo, ohi);
    let multipliers = qw
        .scales()
        .iter()
        .map(|sw| in_qp.scale * sw / out_qp.scale)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB1A5);
    let bias_q = (0..w.k()).map(|_| rng.gen_range(-300..300)).collect();
    let params = QConvParams::new(&qw, bias_q, multipliers, out_qp);
    (qx, qw, params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The GEMM kernel produces the same bytes on both dispatch modes for
    /// random dimensions, including edge tiles (`m % MR`, `n % NR`) and
    /// non-default cache blockings.
    #[test]
    fn gemm_simd_matches_scalar_bitwise(
        seed in 0u64..10_000,
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..30,
        custom_blocking in 0u32..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // A tiny blocking forces many partial panels; the default mostly
        // runs one block. Both must agree with each other bit-for-bit.
        let blk = if custom_blocking == 1 {
            GemmBlocking::new(simd::MR, 8, simd::NR).expect("valid blocking")
        } else {
            GemmBlocking::default()
        };
        let (vector, scalar) = both_paths(|| {
            let mut c = vec![0.0f32; m * n];
            gemm(m, n, k, &a, k, &b, n, &mut c, n, &blk);
            c
        });
        for (x, y) in vector.iter().zip(&scalar) {
            prop_assert!(x.to_bits() == y.to_bits(), "{x} vs {y} diverge");
        }
    }

    /// Leading dimensions larger than the row length (strided views) pack
    /// through `pack_a`'s edge paths; both modes must still agree exactly.
    #[test]
    fn gemm_strided_views_match_bitwise(
        seed in 0u64..10_000,
        m in 1usize..20,
        n in 1usize..20,
        k in 1usize..16,
        lda_pad in 0usize..5,
        ldb_pad in 0usize..5,
        ldc_pad in 0usize..5,
    ) {
        let (lda, ldb, ldc) = (k + lda_pad, n + ldb_pad, n + ldc_pad);
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * lda).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..k * ldb).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let (vector, scalar) = both_paths(|| {
            let mut c = vec![0.0f32; m * ldc];
            gemm(m, n, k, &a, lda, &b, ldb, &mut c, ldc, &GemmBlocking::default());
            c
        });
        for (x, y) in vector.iter().zip(&scalar) {
            prop_assert!(x.to_bits() == y.to_bits(), "{x} vs {y} diverge");
        }
    }

    /// Every f32 conv kernel is bit-identical across dispatch modes on
    /// random shapes, strides, and pruned weights: the GEMM micro-kernel
    /// and the CSC tile (`axpy_nonzero_rows`), each called directly, and
    /// `conv2d`'s density dispatch, in one sweep.
    #[test]
    fn conv_backends_bit_identical_across_simd_modes(
        seed in 0u64..10_000,
        in_c in 1usize..4,
        out_c in 1usize..6,
        hw in 4usize..10,
        kernel in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
        stride in 1usize..3,
        keep_percent in 10u32..80,
        kernel_fn in 0usize..3,
    ) {
        let x = random_tensor3(seed, in_c, hw, hw);
        let w = pruned_weights(seed ^ 0x51D, out_c, in_c, kernel, keep_percent);
        let cfg = Conv2dCfg::new(stride, Padding::Same);
        let run = [conv2d, conv2d_im2col_gemm, conv2d_sparse_csc][kernel_fn];
        let (vector, scalar) = both_paths(|| run(&x, &w, None, &cfg));
        prop_assert_eq!(vector.shape(), scalar.shape());
        for (a, b) in vector.data().iter().zip(scalar.data()) {
            prop_assert!(a.to_bits() == b.to_bits(), "{a} vs {b} diverge (kernel {kernel_fn})");
        }
    }

    /// Stripe inputs (the prober's probe shape) route onto the sparse CSC
    /// tile kernel; its masked lane blend must not flip a single bit, on
    /// either mode or against the reference loop. Maps up to 40 wide
    /// (tiles of one to five 8-lane vectors per output row) at strides 1–2
    /// cover whole-vector, partial and multi-group tiles. The `-0.0` bias
    /// entries survive only if zero activations are masked, not added.
    #[test]
    fn sparse_scatter_bit_identical_across_simd_modes(
        seed in 0u64..10_000,
        w in 1usize..41,
        col in 0usize..40,
        kernel in prop_oneof![Just(3usize), Just(5usize)],
        stride in 1usize..3,
        keep_percent in 5u32..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let col = col % w;
        let mut x = Tensor3::zeros(3, 9, w);
        for c in 0..3 {
            for y in 0..9 {
                x.set(c, y, col, rng.gen_range(-1.0f32..1.0));
            }
        }
        let w = pruned_weights(seed ^ 0xCA7, 6, 3, kernel, keep_percent);
        let bias = [-0.0, 0.5, -0.0, -1.0, 0.25, -0.0];
        // Called directly: on narrow maps the stripe is too dense for the
        // dispatch to pick the CSC tile.
        let cfg = Conv2dCfg::new(stride, Padding::Same);
        let (vector, scalar) = both_paths(|| conv2d_sparse_csc(&x, &w, Some(&bias), &cfg));
        let reference = conv2d_reference(&x, &w, Some(&bias), &cfg);
        for ((a, b), r) in vector.data().iter().zip(scalar.data()).zip(reference.data()) {
            prop_assert!(a.to_bits() == b.to_bits(), "{a} vs {b} diverge on stripe");
            prop_assert!(a.to_bits() == r.to_bits(), "{a} vs reference {r} on stripe");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The INT8 kernel (`qconv2d`) agrees with the reference loop exactly
    /// — integer accumulation leaves no tolerance to hide behind — and
    /// both dispatch modes produce the same bytes. The inputs cover every
    /// stride the lowering resolves (1–3), both paddings, the 1/3/5/7
    /// kernels of the victims, non-square maps, the prober's stripe
    /// probes (zero point everywhere but one column), a fully pruned
    /// filter (its output is the requantized bias) and a tap pruned in
    /// every filter (it gets no lowered row).
    #[test]
    fn qconv_matches_reference_exactly(
        seed in 0u64..10_000,
        in_c in 1usize..4,
        out_c in 1usize..5,
        h in 1usize..12,
        w in 1usize..12,
        kernel in prop_oneof![Just(1usize), Just(3usize), Just(5usize), Just(7usize)],
        stride in 1usize..4,
        valid in any::<bool>(),
        stripe in any::<bool>(),
        prune_filter in any::<bool>(),
        prune_tap in any::<bool>(),
        keep_percent in 10u32..90,
    ) {
        let mut x = random_tensor3(seed, in_c, h, w);
        if stripe {
            let col = seed as usize % w;
            for (i, v) in x.data_mut().iter_mut().enumerate() {
                if i % w != col {
                    *v = 0.0;
                }
            }
        }
        let mut wt = pruned_weights(seed ^ 0x1A7E, out_c, in_c, kernel, keep_percent);
        let per = in_c * kernel * kernel;
        let pruned_tap = seed as usize % per;
        for (i, v) in wt.data_mut().iter_mut().enumerate() {
            if (prune_filter && i < per) || (prune_tap && i % per == pruned_tap) {
                *v = 0.0;
            }
        }
        let padding = if valid { Padding::Valid } else { Padding::Same };
        let cfg = Conv2dCfg::new(stride, padding);
        let (qx, qw, params) = quantized_workload(&x, &wt, &cfg, seed);
        let reference = qconv2d_reference(&qx, &qw, &params, &cfg);
        let (vector, scalar) = both_paths(|| qconv2d(&qx, &params, &cfg));
        prop_assert_eq!(vector.data(), scalar.data(), "INT8 SIMD modes diverge");
        prop_assert_eq!(vector.shape(), reference.shape());
        prop_assert_eq!(vector.data(), reference.data(), "qconv2d diverges from reference");
        prop_assert_eq!(params.nnz(), qw.nnz());
        if prune_tap {
            prop_assert!(params.used_taps() < per, "a tap pruned in every filter kept a row");
        }
        if prune_filter {
            let npos = vector.h() * vector.w();
            let zp_out = params.out_qp.zero_point;
            let bias = requantize(params.bias_q[0], params.multipliers[0], zp_out);
            prop_assert!(
                vector.data()[..npos].iter().all(|&q| q == bias),
                "a fully pruned filter must output its requantized bias"
            );
        }
    }
}

/// The per-filter INT8 kernel (`qaxpy_rows`) on both dispatch modes
/// against one scalar `qaxpy` per weight, at the accumulator extremes
/// (`w = ±127`, `|x - zp| = 255`) and on random values, for every length
/// 1..=40 — whole 8-lane chunks, the 32-lane register groups and every
/// tail — and for weight lists from empty to longer than a group.
#[test]
fn qaxpy_rows_matches_per_weight_qaxpy() {
    let mut rng = StdRng::seed_from_u64(0x51AB);
    for len in 1usize..=40 {
        for n in [0usize, 1, 2, 7, 33] {
            for extreme in [true, false] {
                let row0 = rng.gen_range(0usize..3);
                let n_rows = 5;
                let x: Vec<i32> = (0..n_rows * len)
                    .map(|_| match extreme {
                        true if rng.gen_bool(0.5) => 255,
                        true => -255,
                        false => rng.gen_range(-255..=255),
                    })
                    .collect();
                let rows: Vec<u16> = (0..n)
                    .map(|_| (row0 + rng.gen_range(0..n_rows)) as u16)
                    .collect();
                let weights: Vec<i8> = (0..n)
                    .map(|_| match extreme {
                        true if rng.gen_bool(0.5) => 127,
                        true => -127,
                        false => rng.gen_range(-127..=127),
                    })
                    .collect();
                let acc0: Vec<i32> = (0..len).map(|_| rng.gen_range(-50_000..50_000)).collect();
                let (vector, scalar_path) = both_paths(|| {
                    let mut acc = acc0.clone();
                    simd::qaxpy_rows(&mut acc, &x, &rows, row0, &weights);
                    acc
                });
                let mut want = acc0.clone();
                for (&r, &w) in rows.iter().zip(&weights) {
                    let at = (usize::from(r) - row0) * len;
                    scalar::qaxpy(&mut want, &x[at..at + len], i32::from(w));
                }
                assert_eq!(vector, scalar_path, "len {len}, {n} weights: modes diverge");
                assert_eq!(vector, want, "len {len}, {n} weights: differs from qaxpy");
            }
        }
    }
}
