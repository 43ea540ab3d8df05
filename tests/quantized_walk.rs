//! The INT8 dirty-column walk against the all-dirty walk.
//!
//! [`Network::forward_quantized_cached`] recomputes only the columns a
//! probe can reach and copies the rest from the zero-input
//! [`QuantBaseline`]; [`Network::forward_quantized`] computes every column.
//! Integer sums have no order to preserve, so the two must agree byte for
//! byte: on random small graphs (1/3/5/7 kernels, strides 1 and 2, `Same`
//! and `Valid` padding, max and average pooling, residual adds with and
//! without ReLU, depthwise convs, and GAP or flatten+linear heads), for
//! stripe probes at the left edge, the interior and the right edge, a dense
//! image, the zero image and a stripe whose values quantize to the zero
//! point, under both SIMD dispatch modes. The dequantized traces are
//! compared with `to_bits`.

use hd_dnn::graph::{ConvSpec, ForwardTrace, Network, NetworkBuilder, Params, Value};
use hd_dnn::prune::{apply_sparsity_profile, SparsityProfile};
use hd_dnn::quantize::{calibration_images, ptq, QuantBaseline};
use hd_tensor::conv::{conv_out_dim, Padding};
use hd_tensor::{simd, Shape3, Tensor3};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Mutex;

/// [`simd::set_enabled`] flips a process-wide mode; cases serialize here so
/// each really runs both paths.
static SIMD_LOCK: Mutex<()> = Mutex::new(());

/// A random pruned graph: one to four blocks drawn from conv, pool,
/// residual block and dwconv, then a GAP or flatten+linear head.
fn random_victim(rng: &mut StdRng) -> (Network, Params) {
    let (c, h, w) = (
        rng.gen_range(1..=3usize),
        rng.gen_range(5..=10usize),
        rng.gen_range(6..=13usize),
    );
    let mut b = NetworkBuilder::new(c, h, w);
    let mut x = b.input();
    let mut shape = Shape3::new(c, h, w);
    for _ in 0..rng.gen_range(1..=4) {
        match rng.gen_range(0..4) {
            0 => {
                let kernel = [1, 3, 5, 7][rng.gen_range(0..4usize)];
                let stride = rng.gen_range(1..=2usize);
                let padding = if kernel <= shape.h.min(shape.w) && rng.gen_bool(0.5) {
                    Padding::Valid
                } else {
                    Padding::Same
                };
                let spec = ConvSpec {
                    out_channels: rng.gen_range(2..=5),
                    kernel,
                    stride,
                    padding,
                    bias: rng.gen_bool(0.5),
                    batch_norm: rng.gen_bool(0.5),
                    relu: rng.gen_bool(0.7),
                };
                x = b.conv_spec(x, spec);
                shape = Shape3::new(
                    spec.out_channels,
                    conv_out_dim(shape.h, kernel, stride, padding),
                    conv_out_dim(shape.w, kernel, stride, padding),
                );
            }
            1 if shape.h >= 2 && shape.w >= 2 => {
                x = if rng.gen_bool(0.5) {
                    b.max_pool(x, 2)
                } else {
                    b.avg_pool(x, 2)
                };
                shape = Shape3::new(shape.c, shape.h / 2, shape.w / 2);
            }
            2 => {
                let kernel = [1, 3, 5][rng.gen_range(0..3usize)];
                let branch = b.conv(x, shape.c, kernel, 1);
                x = b.add_opts(x, branch, rng.gen_bool(0.5));
            }
            _ => {
                let stride = rng.gen_range(1..=2usize);
                x = b.dwconv(x, 3, stride, rng.gen_bool(0.5));
                shape = Shape3::new(
                    shape.c,
                    conv_out_dim(shape.h, 3, stride, Padding::Same),
                    conv_out_dim(shape.w, 3, stride, Padding::Same),
                );
            }
        }
    }
    if rng.gen_bool(0.5) {
        let g = b.global_avg_pool(x);
        b.linear(g, 4);
    } else {
        let f = b.flatten(x);
        let hidden = b.linear_opts(f, 6, true);
        b.linear(hidden, 3);
    }
    let net = b.build();
    let mut params = Params::init(&net, rng.next_u64());
    let profile = SparsityProfile {
        targets: net
            .weighted_nodes()
            .iter()
            .map(|&id| (id, rng.gen_range(0.2..0.8)))
            .collect(),
    };
    apply_sparsity_profile(&net, &mut params, &profile, rng.next_u64());
    (net, params)
}

/// Probe images: stripes at the left edge, the interior and the right
/// edge, a dense image, the zero image, and a stripe whose values are far
/// below half an input quantization step.
fn probe_images(shape: Shape3, rng: &mut StdRng) -> Vec<(&'static str, Tensor3)> {
    let (c, h, w) = (shape.c, shape.h, shape.w);
    let stripe = |col: usize, rng: &mut StdRng, scale: f32| {
        let mut img = Tensor3::zeros(c, h, w);
        for ch in 0..c {
            for y in 0..h {
                img.set(ch, y, col, scale * rng.gen_range(-1.0..1.0f32));
            }
        }
        img
    };
    let mut dense = Tensor3::zeros(c, h, w);
    dense.fill_uniform(rng, -1.0, 1.0);
    vec![
        ("left stripe", stripe(0, rng, 1.0)),
        ("interior stripe", stripe(rng.gen_range(1..w - 1), rng, 1.0)),
        ("right stripe", stripe(w - 1, rng, 1.0)),
        ("dense", dense),
        ("zero", Tensor3::zeros(c, h, w)),
        ("zero-point stripe", stripe(w / 2, rng, 1e-4)),
    ]
}

/// Per node: the value's kind and shape, and its elements' bits.
fn trace_bits(t: &ForwardTrace) -> Vec<(bool, usize, usize, Vec<u32>)> {
    t.traces
        .iter()
        .map(|n| {
            let (is_map, h, w) = match &n.out {
                Value::Map(m) => (true, m.h(), m.w()),
                Value::Vector(v) => (false, 1, v.len()),
            };
            let bits = n.out.flat().iter().map(|v| v.to_bits()).collect();
            (is_map, h, w, bits)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dirty_column_walk_matches_the_all_dirty_walk(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (net, params) = random_victim(&mut rng);
        let qnet = ptq(&net, &params, &calibration_images(net.input_shape(), 4, seed ^ 0xCA1));
        let images = probe_images(net.input_shape(), &mut rng);
        let _guard = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let detected = simd::enabled();
        let mut per_mode = Vec::new();
        for vector in [true, false] {
            simd::set_enabled(vector);
            let baseline = QuantBaseline::build(&net, &qnet);
            let mut traces = Vec::new();
            for (name, img) in &images {
                let all_dirty = trace_bits(&net.forward_quantized(&qnet, img));
                let walked = trace_bits(&net.forward_quantized_cached(&qnet, img, &baseline));
                prop_assert!(walked == all_dirty, "{} diverges from the all-dirty walk\n{}", name, net);
                traces.push(walked);
            }
            per_mode.push(traces);
        }
        simd::set_enabled(detected);
        prop_assert!(per_mode[0] == per_mode[1], "SIMD modes diverge\n{}", net);
        // A stripe that quantizes to the zero point (the last image) runs
        // exactly as the zero image (the one before it).
        prop_assert!(per_mode[0][4] == per_mode[0][5], "zero-point stripe differs\n{}", net);
    }
}
