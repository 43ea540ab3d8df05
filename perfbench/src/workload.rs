//! Workload definitions and the staged victim set-up.
//!
//! Set-up repeats the repository's victim recipes (`hd_bench::victims`)
//! step by step so build, prune and seal can be timed apart; the self-test
//! checks that every recipe seals the same device the repository builds.

use hd_accel::{AccelConfig, Device, Precision};
use hd_bench::victims::{mini_profile, Model, PruneMode};
use hd_dnn::graph::{LayerParams, Network, NetworkBuilder, Params};
use hd_dnn::prune::{
    apply_sparsity_profile, magnitude_prune_profile, nm_prune, paper_profile, structured_prune,
    StructuredCfg,
};
use hd_tensor::ConvBackend;
use huffduff_core::{AttackConfig, ChannelKind, ProberConfig};
use std::time::{Duration, Instant};

/// Worker participants every workload asks the prober for (`-j2`).
pub const JOBS: usize = 2;

/// Workloads `--workload` accepts; `tiny` is the self-test's smoke size.
pub const WORKLOADS: [&str; 4] = ["vgg_paper", "mini_campaign", "int8_mini", "tiny"];

/// Victim architecture.
#[derive(Clone, Copy, Debug)]
pub enum Arch {
    /// A zoo model at full size (`None`) or scaled to a width.
    Zoo(Model, Option<f64>),
    /// A two-conv 3x16x16 network, small enough for the self-test.
    Tiny,
}

/// How the victim is pruned.
#[derive(Clone, Copy, Debug)]
pub enum Prune {
    /// The paper's sparsity profile (`hd_bench::victims::paper_victim`).
    Paper,
    /// A matrix preset (`hd_bench::victims::pruned_victim`).
    Mode(PruneMode),
}

/// One victim and the channels it is stolen through.
#[derive(Clone, Debug)]
pub struct Victim {
    pub arch: Arch,
    pub prune: Prune,
    pub cfg: AccelConfig,
    pub seed: u64,
    pub channels: Vec<ChannelKind>,
}

impl Victim {
    /// Short label for reports.
    pub fn label(&self) -> String {
        let arch = match self.arch {
            Arch::Zoo(m, None) => m.name().to_string(),
            Arch::Zoo(m, Some(w)) => format!("{}x{w}", m.name()),
            Arch::Tiny => "tiny".to_string(),
        };
        let prune = match self.prune {
            Prune::Paper => "paper".to_string(),
            Prune::Mode(m) => m.name(),
        };
        let precision = match self.cfg.compute {
            Precision::Int8 => "/int8",
            _ => "",
        };
        format!("{arch}/{prune}{precision}/seed{}", self.seed)
    }
}

/// A workload: its victims and the attacker's configuration.
pub struct Workload {
    pub victims: Vec<Victim>,
    pub attack: AttackConfig,
}

impl Workload {
    /// Steals per pass (one per victim and channel).
    pub fn steals(&self) -> usize {
        self.victims.iter().map(|v| v.channels.len()).sum()
    }
}

/// SplitMix64: victim seeds are a pure function of the workload seed.
fn victim_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The prober settings of the repository's matrix experiments.
fn matrix_attack() -> AttackConfig {
    AttackConfig {
        prober: ProberConfig {
            shifts: 12,
            max_probes: 8,
            stable_probes: 2,
            seed: 41,
            parallelism: Some(JOBS),
            ..Default::default()
        },
        classes: 10,
        max_k: 256,
        ..Default::default()
    }
}

/// Disables the prober's early stop (it needs `stable_probes` unchanged
/// families after the first, so it can never fire), fixing the probe budget
/// at `families`: every seed then costs the same number of inferences.
fn fixed_budget(mut cfg: AttackConfig, families: usize) -> AttackConfig {
    cfg.prober.max_probes = families;
    cfg.prober.stable_probes = families;
    cfg
}

/// Probe families of the fixed-budget workloads.
const FIXED_FAMILIES: usize = 8;

/// Width of the mini victims.
const MINI_WIDTH: f64 = 0.25;
/// Victims per model and prune mode in `mini_campaign`.
const MINI_REPS: u64 = 3;

/// Builds the named workload from `seed`, or `None` for an unknown name.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let grid = |cfg: &AccelConfig, reps: u64, channels: &[ChannelKind]| {
        let mut victims = Vec::new();
        for model in Model::BOTH {
            for mode in PruneMode::DEFAULTS {
                for _ in 0..reps {
                    victims.push(Victim {
                        arch: Arch::Zoo(model, Some(MINI_WIDTH)),
                        prune: Prune::Mode(mode),
                        cfg: cfg.clone(),
                        seed: victim_seed(seed, victims.len() as u64),
                        channels: channels.to_vec(),
                    });
                }
            }
        }
        victims
    };
    match name {
        "vgg_paper" => Some(Workload {
            victims: (0..3)
                .map(|i| Victim {
                    arch: Arch::Zoo(Model::VggS, None),
                    prune: Prune::Paper,
                    cfg: AccelConfig::eyeriss_v2(),
                    seed: victim_seed(seed, i),
                    channels: vec![ChannelKind::Full],
                })
                .collect(),
            attack: fixed_budget(
                AttackConfig {
                    prober: ProberConfig::default().with_parallelism(Some(JOBS)),
                    ..Default::default()
                },
                FIXED_FAMILIES,
            ),
        }),
        // The GEMM channel needs the im2col+GEMM backend to have calls to
        // observe, as in the repository's channel matrix.
        "mini_campaign" => Some(Workload {
            victims: grid(
                &AccelConfig::eyeriss_v2().with_conv_backend(ConvBackend::Im2colGemm),
                MINI_REPS,
                &[ChannelKind::Full, ChannelKind::Gemm],
            ),
            attack: matrix_attack(),
        }),
        "int8_mini" => Some(Workload {
            victims: grid(
                &AccelConfig::eyeriss_v2().with_precision(Precision::Int8),
                1,
                &[ChannelKind::Full],
            ),
            attack: fixed_budget(matrix_attack(), FIXED_FAMILIES),
        }),
        "tiny" => Some(Workload {
            victims: (0..2)
                .map(|i| Victim {
                    arch: Arch::Tiny,
                    prune: Prune::Mode(PruneMode::Unstructured),
                    cfg: AccelConfig::eyeriss_v2().with_conv_backend(ConvBackend::Im2colGemm),
                    seed: victim_seed(seed, i),
                    channels: vec![ChannelKind::Full, ChannelKind::Gemm],
                })
                .collect(),
            attack: AttackConfig {
                classes: 4,
                max_k: 256,
                ..matrix_attack()
            },
        }),
        _ => None,
    }
}

/// The tiny self-test network.
fn tiny_network() -> Network {
    let mut b = NetworkBuilder::new(3, 16, 16);
    let x = b.input();
    let x = b.conv(x, 8, 3, 1);
    let x = b.max_pool(x, 2);
    let x = b.conv(x, 16, 3, 1);
    let x = b.global_avg_pool(x);
    b.linear(x, 4);
    b.build()
}

/// Set-up times of one victim.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Network construction and parameter initialization (`hd-dnn`).
    pub build: Duration,
    /// Pruning (`hd-dnn`).
    pub prune: Duration,
    /// `Device::new`: verification and sealing (`hd-accel`).
    pub seal: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.build + self.prune + self.seal
    }
}

/// Builds, prunes and seals `victim`, timing each step.
pub fn set_up(victim: &Victim) -> (Device, SetupTimes) {
    let t0 = Instant::now();
    let net = match victim.arch {
        Arch::Zoo(model, None) => model.network(10),
        Arch::Zoo(model, Some(width)) => model.network_scaled(10, width),
        Arch::Tiny => tiny_network(),
    };
    let mut params = Params::init(&net, victim.seed);
    let t1 = Instant::now();
    let (net, params) = match victim.prune {
        Prune::Paper => {
            apply_sparsity_profile(
                &net,
                &mut params,
                &paper_profile(&net),
                victim.seed ^ 0xBEEF,
            );
            (net, params)
        }
        Prune::Mode(PruneMode::Unstructured) => {
            apply_sparsity_profile(&net, &mut params, &mini_profile(&net), victim.seed ^ 0xBEEF);
            (net, params)
        }
        Prune::Mode(PruneMode::Nm { n, m }) => {
            nm_prune(&net, &mut params, n, m);
            (net, params)
        }
        Prune::Mode(PruneMode::Structured { keep_frac }) => {
            let cfg = StructuredCfg {
                keep_frac,
                min_keep: 2,
            };
            let r = structured_prune(&net, &params, &cfg);
            // Free the unpruned victim inside the prune window; left to the
            // end of the function it would fall outside every set-up row.
            drop((net, params));
            let (net, mut params) = (r.net, r.params);
            magnitude_prune_profile(&net, &mut params, &mini_profile(&net));
            (net, params)
        }
    };
    let t2 = Instant::now();
    let device = Device::new(net, params, victim.cfg.clone());
    let t3 = Instant::now();
    (
        device,
        SetupTimes {
            build: t1 - t0,
            prune: t2 - t1,
            seal: t3 - t2,
        },
    )
}

/// Non-zero weights the sealed victim kept.
pub fn weights_kept(device: &Device) -> u64 {
    device
        .oracle()
        .params
        .layers
        .iter()
        .flatten()
        .map(|lp| match lp {
            LayerParams::Conv { w, .. } | LayerParams::DwConv { w, .. } => hd_tensor::nnz(w.data()),
            LayerParams::Linear { w, .. } => hd_tensor::nnz(w),
        })
        .sum::<usize>() as u64
}

/// Live (at least one non-zero weight) filters of the first conv: the
/// width the k1 candidates must contain, as in the channel matrix.
pub fn live_k1(device: &Device) -> usize {
    let oracle = device.oracle();
    let Some(&first) = oracle.net.conv_nodes().first() else {
        return 0;
    };
    let w = oracle.params.conv(first).w;
    (0..w.k())
        .filter(|&k| {
            (0..w.c()).any(|c| {
                (0..w.r()).any(|r| (0..w.s()).any(|s| w.data()[w.index(k, c, r, s)] != 0.0))
            })
        })
        .count()
}
