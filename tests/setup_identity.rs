//! Victim set-up is bit-identical to straightforward serial code, kept
//! below as oracles:
//!
//! * (i) [`Params::init`] against the serial Box–Muller loop (with a
//!   retry loop for non-finite samples), and the pooled `fill_gaussian`
//!   against the serial fill, rng end state included, on networks whose
//!   tensors span many pool chunks, once with the pool's stress yields
//!   armed;
//! * (ii) the kept-slots-only Fisher–Yates against shuffle-then-take on
//!   every small `(len, prune_n)` and on whole sparsity profiles;
//! * (iii) the selection-based N:M and magnitude masks against the
//!   stable-sort masks, on He weights and on weights full of ties.

use hd_bench::victims::mini_profile;
use hd_dnn::graph::{LayerParams, Network, NetworkBuilder, Op, Params};
use hd_dnn::prune::{
    apply_sparsity_profile, magnitude_prune_global, magnitude_prune_layer, nm_mask, paper_profile,
    random_keep_mask, Mask, SparsityProfile,
};
use hd_dnn::zoo::{resnet18_scaled, vgg_s_scaled};
use hd_tensor::norm::Affine;
use hd_tensor::tensor::fill_gaussian;
use hd_tensor::Tensor4;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

// --- oracles ---------------------------------------------------------------

/// Box–Muller with a retry loop for non-finite samples.
fn oracle_gaussian(rng: &mut StdRng) -> f32 {
    loop {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        if g.is_finite() {
            return g;
        }
    }
}

fn oracle_fill(rng: &mut StdRng, len: usize, std: f32) -> Vec<f32> {
    (0..len).map(|_| oracle_gaussian(rng) * std).collect()
}

fn oracle_affine(rng: &mut StdRng, n: usize) -> Affine {
    let scale = (0..n).map(|_| 1.0 + oracle_gaussian(rng) * 0.1).collect();
    let shift = (0..n).map(|_| oracle_gaussian(rng) * 0.1).collect();
    Affine::new(scale, shift)
}

/// The serial `Params::init`: one stream, every draw in node order.
fn oracle_init(net: &Network, seed: u64) -> Params {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = net
        .nodes()
        .iter()
        .map(|node| match &node.op {
            Op::Conv(spec) => {
                let in_c = net.value_shape(node.inputs[0]).as_map().expect("map").c;
                let (k, r) = (spec.out_channels, spec.kernel);
                let std = (2.0 / (in_c * r * r).max(1) as f32).sqrt();
                let w =
                    Tensor4::from_vec(k, in_c, r, r, oracle_fill(&mut rng, k * in_c * r * r, std));
                let b = spec
                    .bias
                    .then(|| (0..k).map(|_| oracle_gaussian(&mut rng) * 0.1).collect());
                let bn = spec.batch_norm.then(|| oracle_affine(&mut rng, k));
                Some(LayerParams::Conv { w, b, bn })
            }
            Op::DwConv {
                kernel, batch_norm, ..
            } => {
                let in_c = net.value_shape(node.inputs[0]).as_map().expect("map").c;
                let std = (2.0 / (kernel * kernel).max(1) as f32).sqrt();
                let w = Tensor4::from_vec(
                    in_c,
                    1,
                    *kernel,
                    *kernel,
                    oracle_fill(&mut rng, in_c * kernel * kernel, std),
                );
                let bn = batch_norm.then(|| oracle_affine(&mut rng, in_c));
                Some(LayerParams::DwConv { w, bn })
            }
            Op::Linear { out_features, .. } => {
                let in_features = net.value_shape(node.inputs[0]).len();
                let std = (2.0 / in_features as f32).sqrt();
                Some(LayerParams::Linear {
                    w: oracle_fill(&mut rng, out_features * in_features, std),
                    b: vec![0.0; *out_features],
                    in_features,
                    out_features: *out_features,
                })
            }
            _ => None,
        })
        .collect();
    Params { layers }
}

/// Shuffle every slot, prune the first `prune_n`.
fn oracle_keep_mask(len: usize, prune_n: usize, rng: &mut StdRng) -> Vec<bool> {
    let mut keep = vec![true; len];
    let mut idx: Vec<usize> = (0..len).collect();
    idx.shuffle(rng);
    for &i in idx.iter().take(prune_n.min(len)) {
        keep[i] = false;
    }
    keep
}

fn oracle_profile_mask(
    net: &Network,
    params: &Params,
    profile: &SparsityProfile,
    seed: u64,
) -> Mask {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut masks = vec![None; net.len()];
    for &(id, sparsity) in &profile.targets {
        let Some(w) = weights(params, id) else {
            continue;
        };
        let prune_n = ((w.len() as f64) * sparsity).round() as usize;
        masks[id] = Some(oracle_keep_mask(w.len(), prune_n, &mut rng));
    }
    Mask { masks }
}

/// Stable sort of `0..w.len()` by `|w|`, descending or ascending.
fn stable_rank(w: &[f32], largest: bool) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..w.len()).collect();
    if largest {
        idx.sort_by(|&a, &b| w[b].abs().total_cmp(&w[a].abs()));
    } else {
        idx.sort_by(|&a, &b| w[a].abs().total_cmp(&w[b].abs()));
    }
    idx
}

fn oracle_layer_mask(w: &[f32], sparsity: f64) -> Vec<bool> {
    let prune_n = ((w.len() as f64) * sparsity).round() as usize;
    let mut keep = vec![true; w.len()];
    for &i in stable_rank(w, false).iter().take(prune_n.min(w.len())) {
        keep[i] = false;
    }
    keep
}

fn oracle_global_mask(
    net: &Network,
    params: &Params,
    sparsity: f64,
    min_layer_keep: usize,
) -> Mask {
    let mut all: Vec<f32> = Vec::new();
    for id in net.weighted_nodes() {
        if let Some(w) = weights(params, id) {
            all.extend(w.iter().map(|v| v.abs()));
        }
    }
    all.sort_by(|a, b| a.total_cmp(b));
    let cut_idx = ((all.len() as f64) * sparsity) as usize;
    let threshold = all[cut_idx.min(all.len() - 1)];
    let masks = (0..net.len())
        .map(|id| {
            let w = weights(params, id)?;
            let mut keep: Vec<bool> = w.iter().map(|v| v.abs() > threshold).collect();
            if keep.iter().filter(|&&k| k).count() < min_layer_keep.min(w.len()) {
                keep = vec![false; w.len()];
                for &i in stable_rank(w, true)
                    .iter()
                    .take(min_layer_keep.min(w.len()))
                {
                    keep[i] = true;
                }
            }
            Some(keep)
        })
        .collect();
    Mask { masks }
}

fn oracle_nm_group(w: &[f32], group: &[usize], n: usize, keep: &mut [bool]) {
    let mut order: Vec<usize> = group.to_vec();
    order.sort_by(|&a, &b| w[b].abs().total_cmp(&w[a].abs()).then(a.cmp(&b)));
    for &i in order.iter().take(n.min(group.len())) {
        keep[i] = true;
    }
}

fn oracle_nm_mask(net: &Network, params: &Params, n: usize, m: usize) -> Mask {
    let masks = (0..net.len())
        .map(|id| match &params.layers[id] {
            Some(LayerParams::Conv { w, .. }) => {
                let mut keep = vec![false; w.len()];
                for k in 0..w.k() {
                    for r in 0..w.r() {
                        for s in 0..w.s() {
                            for c0 in (0..w.c()).step_by(m) {
                                let group: Vec<usize> = (c0..(c0 + m).min(w.c()))
                                    .map(|c| w.index(k, c, r, s))
                                    .collect();
                                oracle_nm_group(w.data(), &group, n, &mut keep);
                            }
                        }
                    }
                }
                Some(keep)
            }
            Some(LayerParams::DwConv { w, .. }) => Some(vec![true; w.len()]),
            Some(LayerParams::Linear { w, in_features, .. }) => {
                let in_f = (*in_features).max(1);
                let mut keep = vec![false; w.len()];
                for row in 0..w.len() / in_f {
                    for i0 in (0..in_f).step_by(m) {
                        let group: Vec<usize> =
                            (i0..(i0 + m).min(in_f)).map(|i| row * in_f + i).collect();
                        oracle_nm_group(w, &group, n, &mut keep);
                    }
                }
                Some(keep)
            }
            None => None,
        })
        .collect();
    Mask { masks }
}

// --- helpers ---------------------------------------------------------------

fn weights(params: &Params, id: usize) -> Option<&[f32]> {
    match params.layers[id].as_ref()? {
        LayerParams::Conv { w, .. } | LayerParams::DwConv { w, .. } => Some(w.data()),
        LayerParams::Linear { w, .. } => Some(w),
    }
}

fn weights_mut(params: &mut Params, id: usize) -> Option<&mut [f32]> {
    match params.layers[id].as_mut()? {
        LayerParams::Conv { w, .. } | LayerParams::DwConv { w, .. } => Some(w.data_mut()),
        LayerParams::Linear { w, .. } => Some(w),
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every parameter of `p`, in node order, as raw bits.
fn param_bits(p: &Params) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for lp in p.layers.iter().flatten() {
        match lp {
            LayerParams::Conv { w, b, bn } => {
                out.push(bits(w.data()));
                out.push(b.as_deref().map_or_else(Vec::new, bits));
                if let Some(bn) = bn {
                    out.push(bits(bn.scale()));
                    out.push(bits(bn.shift()));
                }
            }
            LayerParams::DwConv { w, bn } => {
                out.push(bits(w.data()));
                if let Some(bn) = bn {
                    out.push(bits(bn.scale()));
                    out.push(bits(bn.shift()));
                }
            }
            LayerParams::Linear { w, b, .. } => {
                out.push(bits(w));
                out.push(bits(b));
            }
        }
    }
    out
}

/// Two generators are in the same state iff their next draws agree.
fn assert_same_state(a: &StdRng, b: &StdRng, what: &str) {
    let (mut a, mut b) = (a.clone(), b.clone());
    for _ in 0..4 {
        assert_eq!(a.next_u64(), b.next_u64(), "rng state diverged: {what}");
    }
}

/// The mid-size victims: VGG-S and ResNet-18 at width 0.5, whose large
/// convolutions span several pool chunks.
fn networks() -> Vec<(&'static str, Network)> {
    vec![
        ("vgg_s x0.5", vgg_s_scaled(10, 0.5)),
        ("resnet18 x0.5", resnet18_scaled(10, 0.5)),
    ]
}

// --- (i) initialization ----------------------------------------------------

fn check_init(net: &Network, name: &str, seed: u64) {
    let got = Params::init(net, seed);
    let want = oracle_init(net, seed);
    assert_eq!(param_bits(&got), param_bits(&want), "{name}: Params::init");

    // Every weight tensor through one shared stream, pooled against serial.
    let mut pooled = StdRng::seed_from_u64(seed);
    let mut serial = pooled.clone();
    let mut multi_chunk = 0;
    for id in net.weighted_nodes() {
        let w = weights(&want, id).expect("weighted");
        multi_chunk += usize::from(w.len() > 1 << 16);
        let mut out = vec![0.0; w.len()];
        fill_gaussian(&mut pooled, &mut out, 0.25);
        assert_eq!(
            bits(&out),
            bits(&oracle_fill(&mut serial, w.len(), 0.25)),
            "{name}: node {id}"
        );
        assert_same_state(&pooled, &serial, name);
    }
    assert!(
        multi_chunk >= 2,
        "{name}: only {multi_chunk} tensors span several chunks"
    );
}

#[test]
fn params_init_matches_the_serial_stream() {
    for (name, net) in networks() {
        check_init(&net, name, 11);
    }
}

#[test]
fn params_init_matches_under_pool_stress() {
    let net = vgg_s_scaled(10, 0.5);
    hd_pool::set_stress_seed(0x5EED);
    check_init(&net, "vgg_s x0.5 (stress)", 23);
    hd_pool::set_stress_seed(0);
}

// --- (ii) random masks -----------------------------------------------------

#[test]
fn kept_only_fisher_yates_matches_shuffle_then_take() {
    let mut fast = StdRng::seed_from_u64(3);
    let mut slow = fast.clone();
    for len in 0..=40 {
        for prune_n in 0..=len + 1 {
            let got = random_keep_mask(len, prune_n, &mut fast);
            let want = oracle_keep_mask(len, prune_n, &mut slow);
            assert_eq!(got, want, "len {len} prune_n {prune_n}");
            assert_same_state(&fast, &slow, &format!("len {len} prune_n {prune_n}"));
        }
    }
}

#[test]
fn sparsity_profiles_match_shuffle_then_take() {
    let vgg = vgg_s_scaled(10, 0.5);
    let resnet = resnet18_scaled(10, 0.25);
    let cases = [
        ("vgg_s x0.5 paper", &vgg, paper_profile(&vgg)),
        ("resnet18 x0.25 paper", &resnet, paper_profile(&resnet)),
        ("resnet18 x0.25 mini", &resnet, mini_profile(&resnet)),
    ];
    for (name, net, profile) in cases {
        let dense = Params::init(net, 5);
        let mut pruned = dense.clone();
        let got = apply_sparsity_profile(net, &mut pruned, &profile, 5 ^ 0xBEEF);
        let want = oracle_profile_mask(net, &dense, &profile, 5 ^ 0xBEEF);
        assert_eq!(got, want, "{name}: mask");
        let mut expect = dense.clone();
        want.apply(&mut expect);
        assert_eq!(
            param_bits(&pruned),
            param_bits(&expect),
            "{name}: pruned weights"
        );
    }
}

// --- (iii) magnitude and N:M masks -----------------------------------------

/// A small net, once with its He-initialized weights (no ties) and once
/// with weights drawn from a handful of magnitudes, both signs and both
/// zeros (nearly every comparison a tie).
fn small_victims() -> [(Network, Params); 2] {
    let mut b = NetworkBuilder::new(3, 8, 8);
    let x = b.input();
    let x = b.conv(x, 6, 3, 1);
    let x = b.conv(x, 7, 3, 1);
    let x = b.global_avg_pool(x);
    b.linear(x, 5);
    let net = b.build();
    let params = Params::init(&net, 1);
    let mut tied = params.clone();
    const LEVELS: [f32; 8] = [0.0, -0.0, 0.5, -0.5, 0.25, -0.25, 1.0, -1.0];
    let mut rng = StdRng::seed_from_u64(17);
    for id in net.weighted_nodes() {
        for v in weights_mut(&mut tied, id).expect("weighted") {
            *v = LEVELS[rng.gen_range(0..LEVELS.len())];
        }
    }
    [(net.clone(), params), (net, tied)]
}

#[test]
fn nm_masks_match_the_sorted_groups() {
    for (net, params) in small_victims() {
        for (n, m) in [(1, 1), (1, 2), (2, 4), (3, 4), (4, 4), (2, 3), (2, 5)] {
            assert_eq!(
                nm_mask(&net, &params, n, m),
                oracle_nm_mask(&net, &params, n, m),
                "{n}:{m}"
            );
        }
    }
}

#[test]
fn magnitude_masks_match_the_stable_sorts() {
    for (net, params) in small_victims() {
        for id in net.weighted_nodes() {
            let w = weights(&params, id).expect("weighted");
            for sparsity in [0.0, 0.1, 0.37, 0.5, 0.75, 0.99, 1.0, 1.5] {
                assert_eq!(
                    magnitude_prune_layer(&params, id, sparsity),
                    Some(oracle_layer_mask(w, sparsity)),
                    "node {id} sparsity {sparsity}"
                );
            }
        }
        for sparsity in [0.0, 0.3, 0.6, 0.9, 0.99] {
            for min_layer_keep in [0, 8, 100, 10_000] {
                assert_eq!(
                    magnitude_prune_global(&net, &params, sparsity, min_layer_keep),
                    oracle_global_mask(&net, &params, sparsity, min_layer_keep),
                    "sparsity {sparsity} min_layer_keep {min_layer_keep}"
                );
            }
        }
    }
}
