//! The dirty-column graph walk for probe campaigns, in both precisions.
//!
//! The prober runs `shifts x families` inferences against one fixed victim,
//! and every probe image is a vertical stripe — one nonzero column. Two
//! things are therefore constant across the whole campaign and worth
//! computing once per device instead of once per inference:
//!
//! 1. **The weight compaction.** [`ForwardCache::build`] encodes every conv
//!    layer's pruned weights into [`CscWeights`] and every linear layer's
//!    rows into nonzero `(index, value)` lists (INT8 networks are compacted
//!    once at PTQ instead, see [`crate::quantize`]).
//! 2. **The zero-input baseline.** A stripe differs from the all-zero image
//!    in one column, and every op in the graph is column-local, so each
//!    layer's activation differs from its zero-input baseline only inside
//!    the stripe's receptive field.
//!
//! One graph walk exploits the second for both precisions. It tracks the
//! dirty interval with [`ColSpan`] (convs widen it by their kernel
//! geometry, pools divide it, adds union it) and asks a `Datapath` to
//! recompute *only* the dirty columns of each map, copying everything else
//! from the baseline. Each precision supplies the per-op compute: the f32
//! path ([`Network::forward_cached`]) runs the CSC register tile and the
//! column-restricted BN and ReLU, keeping `pre_bn` and `pre_relu`; the INT8
//! path ([`Network::forward_quantized`]) runs the column-restricted
//! [`hd_tensor::qconv::qconv2d_cols`] with requantize and ReLU fused, and
//! integer pool and add. Depthwise convs, global pooling, flatten and
//! linear layers recompute in full. Without a baseline the walk is
//! all-dirty: every span is the full width and every op computes the whole
//! map, which is how the INT8 path runs dense images and builds its own
//! baseline from the zero image.
//!
//! # Bit-identity
//!
//! The recomputed columns run the exact accumulation order of
//! [`Network::forward`]; the copied columns are bit-equal to a full
//! recomputation because their inputs are bit-equal to the baseline's and
//! every op is column-local (batch-norm shifts and biases are absorbed by
//! the baseline rather than widening the interval). The resulting
//! [`ForwardTrace`] is therefore bit-identical to the ordinary forward pass
//! — property-tested in this module and pinned end-to-end by the golden
//! trace fixture. In integers there is no summation order to preserve, so
//! the INT8 walk is byte-identical to its all-dirty form by construction
//! (`tests/quantized_walk.rs`).

use hd_tensor::colspan::ColSpan;
use hd_tensor::conv::{same_pad, Conv2dCfg, Padding};
use hd_tensor::csc_conv::{conv2d_csc, CscWeights};
use hd_tensor::dwconv::dwconv2d;
use hd_tensor::pool::{global_avg_pool, pool2d_cols, PoolKind};
use hd_tensor::Tensor3;

use crate::graph::{ConvSpec, ForwardTrace, Network, NodeId, NodeTrace, Op, Params, Value};

/// Nonzero `(input index, weight)` list of one linear-layer row.
type SparseRow = Vec<(u32, f32)>;

/// Per-victim precomputed state reused across probe inferences.
#[derive(Clone, Debug)]
pub struct ForwardCache {
    /// CSC weight compaction per conv node.
    csc: Vec<Option<CscWeights>>,
    /// Compacted rows per linear node.
    linear_rows: Vec<Option<Vec<SparseRow>>>,
    /// Full forward trace on the all-zero input.
    baseline: ForwardTrace,
}

impl ForwardCache {
    /// Compacts weights and records the zero-input baseline trace for
    /// `net`/`params`.
    pub fn build(net: &Network, params: &Params) -> Self {
        let mut csc: Vec<Option<CscWeights>> = vec![None; net.len()];
        let mut linear_rows: Vec<Option<Vec<SparseRow>>> = vec![None; net.len()];
        for (id, node) in net.nodes().iter().enumerate() {
            match &node.op {
                Op::Conv(_) => {
                    csc[id] = Some(CscWeights::build(params.conv(id).w));
                }
                Op::Linear { out_features, .. } => {
                    let lp = params.linear(id);
                    let rows = (0..*out_features)
                        .map(|o| {
                            lp.w[o * lp.in_features..(o + 1) * lp.in_features]
                                .iter()
                                .enumerate()
                                .filter(|(_, &w)| w != 0.0)
                                .map(|(i, &w)| (i as u32, w))
                                .collect()
                        })
                        .collect();
                    linear_rows[id] = Some(rows);
                }
                _ => {}
            }
        }
        let shape = net.input_shape();
        let zeros = Tensor3::zeros(shape.c, shape.h, shape.w);
        let baseline = net.forward(params, &zeros);
        ForwardCache {
            csc,
            linear_rows,
            baseline,
        }
    }
}

/// One precision's per-op compute for [`walk`].
///
/// Each map-valued op receives the dirty span of its output (a conv also
/// receives its input's) and the op's zero-input baseline node, if the
/// walk has one. It must recompute the span columns and take every other
/// column from the baseline; without a baseline the span is the full
/// width. Vector-valued ops always recompute in full.
pub(crate) trait Datapath {
    /// What the walk keeps per node: its value, plus whatever the
    /// precision's callers read besides.
    type Node;

    /// The network input.
    fn input(&self, id: NodeId, image: &Tensor3) -> Self::Node;

    /// A standard convolution with its epilogue (bias, BN, ReLU).
    fn conv(
        &self,
        id: NodeId,
        spec: &ConvSpec,
        x: &Self::Node,
        in_span: ColSpan,
        out_span: ColSpan,
        base: Option<&Self::Node>,
    ) -> Self::Node;

    /// A depthwise convolution with its epilogue, in full.
    fn dwconv(&self, id: NodeId, stride: usize, relu: bool, x: &Self::Node) -> Self::Node;

    /// Non-overlapping pooling.
    fn pool(
        &self,
        factor: usize,
        kind: PoolKind,
        x: &Self::Node,
        span: ColSpan,
        base: Option<&Self::Node>,
    ) -> Self::Node;

    /// Residual join, optionally followed by ReLU.
    fn add(
        &self,
        id: NodeId,
        relu: bool,
        a: &Self::Node,
        b: &Self::Node,
        span: ColSpan,
        base: Option<&Self::Node>,
    ) -> Self::Node;

    /// Global average pooling to a vector.
    fn global_avg_pool(&self, x: &Self::Node) -> Self::Node;

    /// Map-to-vector reshape.
    fn flatten(&self, x: &Self::Node) -> Self::Node;

    /// Fully connected layer, optionally followed by ReLU.
    fn linear(&self, id: NodeId, relu: bool, x: &Self::Node) -> Self::Node;
}

/// Runs `net` on `image` through `dp`, recomputing only the columns that
/// can differ from `baseline` (one node per graph node, from the zero
/// image), or everything when there is no baseline. Emits the
/// `sparse_fwd.*` telemetry when it has a baseline.
pub(crate) fn walk<D: Datapath>(
    net: &Network,
    dp: &D,
    image: &Tensor3,
    baseline: Option<&[D::Node]>,
) -> Vec<D::Node> {
    let width = |id: NodeId| net.value_shape(id).as_map().map_or(0, |s| s.w);
    let mut nodes: Vec<D::Node> = Vec::with_capacity(net.len());
    // Dirty-column interval per node (empty for vectors).
    let mut spans: Vec<ColSpan> = Vec::with_capacity(net.len());
    for (id, node) in net.nodes().iter().enumerate() {
        let base = baseline.map(|b| &b[id]);
        let arg = |i: usize| (&nodes[node.inputs[i]], spans[node.inputs[i]]);
        let (value, span) = match &node.op {
            Op::Input => {
                let span = match baseline {
                    Some(_) => ColSpan::of_tensor(image),
                    None => ColSpan::full(image.w()),
                };
                (dp.input(id, image), span)
            }
            Op::Conv(spec) => {
                let ((x, in_span), in_w) = (arg(0), width(node.inputs[0]));
                let pad_x = match spec.padding {
                    Padding::Same => same_pad(in_w, spec.kernel, spec.stride),
                    Padding::Valid => 0,
                };
                let out_span = in_span
                    .clamp(in_w)
                    .conv(spec.kernel, spec.stride, pad_x, width(id));
                (dp.conv(id, spec, x, in_span, out_span, base), out_span)
            }
            Op::DwConv {
                kernel,
                stride,
                relu,
                ..
            } => {
                let ((x, in_span), in_w) = (arg(0), width(node.inputs[0]));
                let pad_x = same_pad(in_w, *kernel, *stride);
                let out_span = in_span.clamp(in_w).conv(*kernel, *stride, pad_x, width(id));
                (dp.dwconv(id, *stride, *relu, x), out_span)
            }
            Op::Pool { factor, kind } => {
                let (x, in_span) = arg(0);
                let out_span = in_span.pool(*factor, width(id));
                (dp.pool(*factor, *kind, x, out_span, base), out_span)
            }
            Op::Add { relu } => {
                let ((a, a_span), (b, b_span)) = (arg(0), arg(1));
                let span = a_span.union(b_span);
                (dp.add(id, *relu, a, b, span, base), span)
            }
            Op::GlobalAvgPool => (dp.global_avg_pool(arg(0).0), ColSpan::empty()),
            Op::Flatten => (dp.flatten(arg(0).0), ColSpan::empty()),
            Op::Linear { relu, .. } => (dp.linear(id, *relu, arg(0).0), ColSpan::empty()),
        };
        // Telemetry: how much work the dirty-interval machinery saved on
        // this node. Input nodes are excluded (nothing is recomputed
        // there) and the span is clamped to the node's own width first.
        if baseline.is_some() && hd_obs::enabled() && !matches!(node.op, Op::Input) {
            if let Some(shape) = net.value_shape(id).as_map() {
                let recomputed = span.clamp(shape.w).width() as u64;
                hd_obs::counter_add("sparse_fwd.cols_recomputed", "", recomputed);
                hd_obs::counter_add("sparse_fwd.cols_skipped", "", shape.w as u64 - recomputed);
                hd_obs::observe("sparse_fwd.colspan_width", "", recomputed as f64);
            }
        }
        nodes.push(value);
        spans.push(span);
    }
    nodes
}

/// The baseline tensor equal to a conv node's raw (pre-BN, pre-ReLU)
/// output: the trace stores it in whichever slot the node's epilogue left
/// it in.
fn conv_baseline(trace: &NodeTrace, has_bn: bool, has_relu: bool) -> &Tensor3 {
    if has_bn {
        trace.pre_bn.as_ref().expect("BN node keeps pre_bn") // hd-lint: allow(no-panic) -- forward() populates pre_bn for every BN-bearing node
    } else if has_relu {
        trace
            .pre_relu
            .as_ref()
            .expect("ReLU node keeps pre_relu") // hd-lint: allow(no-panic) -- forward() populates pre_relu for every ReLU-bearing node
            .map()
    } else {
        trace.out.map()
    }
}

/// The baseline tensor equal to a node's post-BN (pre-ReLU) value.
fn bn_baseline(trace: &NodeTrace, has_relu: bool) -> &Tensor3 {
    if has_relu {
        trace
            .pre_relu
            .as_ref()
            .expect("ReLU node keeps pre_relu") // hd-lint: allow(no-panic) -- forward() populates pre_relu for every ReLU-bearing node
            .map()
    } else {
        trace.out.map()
    }
}

/// The map an op writes its span columns into: a copy of its baseline, or
/// zeros when the walk is all-dirty (the span then covers every column).
fn start(baseline: Option<&Tensor3>, like: &Tensor3) -> Tensor3 {
    baseline
        .cloned()
        .unwrap_or_else(|| Tensor3::zeros(like.c(), like.h(), like.w()))
}

/// Applies `scale/shift` to the `span` columns of `x`, copying the rest from
/// `baseline` — the column-restricted form of `Affine::apply`.
fn affine_cols(
    x: &Tensor3,
    scale: &[f32],
    shift: &[f32],
    span: ColSpan,
    baseline: Option<&Tensor3>,
) -> Tensor3 {
    let mut out = start(baseline, x);
    let (h, w) = (x.h(), x.w());
    let plane = h * w;
    let src = x.data();
    let dst = out.data_mut();
    for (c, (&s, &b)) in scale.iter().zip(shift).enumerate() {
        for y in 0..h {
            let row = c * plane + y * w;
            for i in row + span.lo()..row + span.hi() {
                dst[i] = s * src[i] + b;
            }
        }
    }
    out
}

/// ReLU over the `span` columns of `x`, copying the rest from `baseline`.
fn relu_cols(x: &Tensor3, span: ColSpan, baseline: Option<&Tensor3>) -> Tensor3 {
    let mut out = start(baseline, x);
    let (h, w) = (x.h(), x.w());
    let plane = h * w;
    let src = x.data();
    let dst = out.data_mut();
    for c in 0..x.c() {
        for y in 0..h {
            let row = c * plane + y * w;
            for i in row + span.lo()..row + span.hi() {
                let v = src[i];
                dst[i] = if v < 0.0 { 0.0 } else { v };
            }
        }
    }
    out
}

/// Elementwise sum of the `span` columns of `a` and `b`, copying the rest
/// from `baseline`.
fn add_cols(a: &Tensor3, b: &Tensor3, span: ColSpan, baseline: Option<&Tensor3>) -> Tensor3 {
    assert_eq!(a.shape(), b.shape(), "shape mismatch in add");
    let mut out = start(baseline, a);
    let (h, w) = (a.h(), a.w());
    let plane = h * w;
    let (sa, sb) = (a.data(), b.data());
    let dst = out.data_mut();
    for c in 0..a.c() {
        for y in 0..h {
            let row = c * plane + y * w;
            for i in row + span.lo()..row + span.hi() {
                dst[i] = sa[i] + sb[i];
            }
        }
    }
    out
}

/// A trace entry holding only an output value.
fn plain(out: Value) -> NodeTrace {
    NodeTrace {
        out,
        pre_bn: None,
        pre_relu: None,
    }
}

/// The f32 datapath: CSC register tile plus column-restricted BN and ReLU,
/// keeping `pre_bn` and `pre_relu` exactly as [`Network::forward`] does.
struct F32Path<'a> {
    params: &'a Params,
    cache: &'a ForwardCache,
}

impl Datapath for F32Path<'_> {
    type Node = NodeTrace;

    fn input(&self, _id: NodeId, image: &Tensor3) -> NodeTrace {
        plain(Value::Map(image.clone()))
    }

    fn conv(
        &self,
        id: NodeId,
        spec: &ConvSpec,
        x: &NodeTrace,
        in_span: ColSpan,
        out_span: ColSpan,
        base: Option<&NodeTrace>,
    ) -> NodeTrace {
        let lp = self.params.conv(id);
        let csc = self.cache.csc[id].as_ref().expect("conv weights cached"); // hd-lint: allow(no-panic) -- cache is built for every conv node up front
        let cfg = Conv2dCfg::new(spec.stride, spec.padding);
        let conv_out = conv2d_csc(
            x.out.map(),
            csc,
            lp.b.as_deref(),
            &cfg,
            in_span,
            base.map(|b| conv_baseline(b, lp.bn.is_some(), spec.relu)),
        );
        let (pre_bn, bn_out) = if let Some(bn) = &lp.bn {
            let o = affine_cols(
                &conv_out,
                bn.scale(),
                bn.shift(),
                out_span,
                base.map(|b| bn_baseline(b, spec.relu)),
            );
            (Some(conv_out), o)
        } else {
            (None, conv_out)
        };
        let (pre_relu, out) = if spec.relu {
            let o = relu_cols(&bn_out, out_span, base.map(|b| b.out.map()));
            (Some(bn_out), o)
        } else {
            (None, bn_out)
        };
        NodeTrace {
            out: Value::Map(out),
            pre_bn,
            pre_relu: pre_relu.map(Value::Map),
        }
    }

    fn dwconv(&self, id: NodeId, stride: usize, relu: bool, x: &NodeTrace) -> NodeTrace {
        let lp = self.params.dwconv(id);
        let cfg = Conv2dCfg::new(stride, Padding::Same);
        let conv_out = dwconv2d(x.out.map(), lp.w, &cfg);
        let (pre_bn, bn_out) = if let Some(bn) = &lp.bn {
            (Some(conv_out.clone()), bn.apply(&conv_out))
        } else {
            (None, conv_out)
        };
        let (pre_relu, out) = if relu {
            let mut o = bn_out.clone();
            o.relu_inplace();
            (Some(bn_out), o)
        } else {
            (None, bn_out)
        };
        NodeTrace {
            out: Value::Map(out),
            pre_bn,
            pre_relu: pre_relu.map(Value::Map),
        }
    }

    fn pool(
        &self,
        factor: usize,
        kind: PoolKind,
        x: &NodeTrace,
        span: ColSpan,
        base: Option<&NodeTrace>,
    ) -> NodeTrace {
        let x = x.out.map();
        let out = match base {
            Some(b) => pool2d_cols(x, factor, kind, span, b.out.map()),
            None => hd_tensor::pool::pool2d(x, factor, kind),
        };
        plain(Value::Map(out))
    }

    fn add(
        &self,
        _id: NodeId,
        relu: bool,
        a: &NodeTrace,
        b: &NodeTrace,
        span: ColSpan,
        base: Option<&NodeTrace>,
    ) -> NodeTrace {
        let sum = add_cols(
            a.out.map(),
            b.out.map(),
            span,
            base.map(|t| bn_baseline(t, relu)),
        );
        if !relu {
            return plain(Value::Map(sum));
        }
        let out = relu_cols(&sum, span, base.map(|t| t.out.map()));
        NodeTrace {
            out: Value::Map(out),
            pre_bn: None,
            pre_relu: Some(Value::Map(sum)),
        }
    }

    fn global_avg_pool(&self, x: &NodeTrace) -> NodeTrace {
        plain(Value::Vector(global_avg_pool(x.out.map())))
    }

    fn flatten(&self, x: &NodeTrace) -> NodeTrace {
        plain(Value::Vector(x.out.map().data().to_vec()))
    }

    fn linear(&self, id: NodeId, relu: bool, x: &NodeTrace) -> NodeTrace {
        let x = x.out.vector();
        let lp = self.params.linear(id);
        assert_eq!(lp.in_features, x.len(), "linear input size mismatch");
        let rows = self.cache.linear_rows[id]
            .as_ref()
            .expect("linear weights cached"); // hd-lint: allow(no-panic) -- cache is built for every linear node up front
        let mut y: Vec<f32> = rows
            .iter()
            .zip(lp.b)
            .map(|(row, &b)| {
                // Ascending-index nonzero list: the same surviving
                // multiplies, in the same order, as the dense loop.
                let mut acc = b;
                for &(i, w) in row {
                    let xi = x[i as usize];
                    if xi != 0.0 {
                        acc += w * xi;
                    }
                }
                acc
            })
            .collect();
        if !relu {
            return plain(Value::Vector(y));
        }
        let pre = y.clone();
        for v in &mut y {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        NodeTrace {
            out: Value::Vector(y),
            pre_bn: None,
            pre_relu: Some(Value::Vector(pre)),
        }
    }
}

impl Network {
    /// Runs the network through `cache`, recomputing only the columns that
    /// can differ from the cached zero-input baseline.
    ///
    /// Bit-identical to [`Network::forward`]; the narrower the input's
    /// nonzero-column interval, the larger the saving.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Network::forward`], plus a mismatch between
    /// `cache` and this network/params (caches are per-victim).
    pub fn forward_cached(
        &self,
        params: &Params,
        input: &Tensor3,
        cache: &ForwardCache,
    ) -> ForwardTrace {
        assert_eq!(
            input.shape(),
            self.input_shape(),
            "input shape {} does not match network input {}",
            input.shape(),
            self.input_shape()
        );
        assert_eq!(
            cache.baseline.traces.len(),
            self.len(),
            "forward cache was built for a different network"
        );
        let dp = F32Path { params, cache };
        ForwardTrace {
            traces: walk(self, &dp, input, Some(&cache.baseline.traces)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_traces_bit_identical(a: &ForwardTrace, b: &ForwardTrace) {
        assert_eq!(a.traces.len(), b.traces.len());
        for (id, (ta, tb)) in a.traces.iter().zip(&b.traces).enumerate() {
            assert_eq!(ta.out, tb.out, "out differs at node {id}");
            assert_eq!(ta.pre_bn, tb.pre_bn, "pre_bn differs at node {id}");
            assert_eq!(ta.pre_relu, tb.pre_relu, "pre_relu differs at node {id}");
        }
    }

    fn pruned_params(net: &Network, seed: u64) -> Params {
        let mut params = Params::init(net, seed);
        let profile = crate::prune::SparsityProfile {
            targets: net
                .weighted_nodes()
                .iter()
                .enumerate()
                .map(|(pos, &id)| (id, if pos == 0 { 0.45 } else { 0.8 }))
                .collect(),
        };
        crate::prune::apply_sparsity_profile(net, &mut params, &profile, seed ^ 0xABCD);
        params
    }

    fn probe_images(c: usize, h: usize, w: usize, seed: u64) -> Vec<Tensor3> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut images = Vec::new();
        // Stripe probes at the left edge, interior, and right edge.
        for col in [0, w / 2, w - 1] {
            let mut img = Tensor3::zeros(c, h, w);
            for ch in 0..c {
                for y in 0..h {
                    img.set(ch, y, col, rng.gen_range(-1.0..1.0));
                }
            }
            images.push(img);
        }
        // A dense image (full-width span) and the all-zero image.
        let mut dense = Tensor3::zeros(c, h, w);
        dense.fill_uniform(&mut rng, -1.0, 1.0);
        images.push(dense);
        images.push(Tensor3::zeros(c, h, w));
        images
    }

    #[test]
    fn cached_forward_is_bit_identical_on_conv_pool_chain() {
        let mut b = NetworkBuilder::new(3, 12, 12);
        let x = b.input();
        let x = b.conv(x, 6, 5, 1);
        let x = b.max_pool(x, 2);
        let x = b.conv(x, 8, 3, 2);
        let x = b.global_avg_pool(x);
        b.linear(x, 4);
        let net = b.build();
        let params = pruned_params(&net, 11);
        let cache = ForwardCache::build(&net, &params);
        for (i, img) in probe_images(3, 12, 12, 5).iter().enumerate() {
            let want = net.forward(&params, img);
            let got = net.forward_cached(&params, img, &cache);
            assert_traces_bit_identical(&want, &got);
            let _ = i;
        }
    }

    /// Residual join, dwconv, a biased conv without BN, avg pool and a
    /// flatten+linear head.
    fn residual_dwconv_net() -> Network {
        let mut b = NetworkBuilder::new(3, 16, 16);
        let x = b.input();
        let stem = b.conv(x, 8, 3, 1);
        let branch = b.conv(stem, 8, 3, 1);
        let joined = b.add(stem, branch);
        let dw = b.dwconv(joined, 3, 2, true);
        // A biased conv without BN exercises the bias-first accumulation.
        let mut spec = ConvSpec::standard(5, 3, 1);
        spec.bias = true;
        spec.batch_norm = false;
        let x = b.conv_spec(dw, spec);
        let x = b.avg_pool(x, 2);
        let x = b.flatten(x);
        b.linear(x, 6);
        b.build()
    }

    #[test]
    fn cached_forward_is_bit_identical_on_residual_dwconv_net() {
        let net = residual_dwconv_net();
        let params = pruned_params(&net, 23);
        let cache = ForwardCache::build(&net, &params);
        for img in probe_images(3, 16, 16, 17) {
            let want = net.forward(&params, &img);
            let got = net.forward_cached(&params, &img, &cache);
            assert_traces_bit_identical(&want, &got);
        }
    }

    #[test]
    fn all_dirty_walk_is_bit_identical_to_forward() {
        let net = residual_dwconv_net();
        let params = pruned_params(&net, 29);
        let cache = ForwardCache::build(&net, &params);
        let dp = F32Path {
            params: &params,
            cache: &cache,
        };
        for img in probe_images(3, 16, 16, 31) {
            let want = net.forward(&params, &img);
            let got = ForwardTrace {
                traces: walk(&net, &dp, &img, None),
            };
            assert_traces_bit_identical(&want, &got);
        }
    }

    #[test]
    fn cached_forward_matches_on_paper_zoo_victims() {
        // End-to-end spot check on a real zoo graph with paper sparsities.
        let net = crate::zoo::vgg_s(10);
        let mut params = Params::init(&net, 3);
        let profile = crate::prune::paper_profile(&net);
        crate::prune::apply_sparsity_profile(&net, &mut params, &profile, 3);
        let cache = ForwardCache::build(&net, &params);
        let shape = net.input_shape();
        let mut img = Tensor3::zeros(shape.c, shape.h, shape.w);
        for ch in 0..shape.c {
            for y in 0..shape.h {
                img.set(ch, y, 7, if (ch + y) % 2 == 0 { 0.75 } else { -0.5 });
            }
        }
        let want = net.forward(&params, &img);
        let got = net.forward_cached(&params, &img, &cache);
        assert_traces_bit_identical(&want, &got);
    }
}
