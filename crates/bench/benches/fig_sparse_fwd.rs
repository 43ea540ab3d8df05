//! Bench for the sparse forward path: runs the full end-to-end prober
//! (stripe probes through the victim device, single-threaded) against
//! VGG-S and ResNet-18 on the default device, whose stripe probes take the
//! cached-CSC forward path, and writes the measured wall-clock numbers to
//! `BENCH_sparse_fwd.json` at the repository root.
//!
//! ```text
//! cargo bench -p hd-bench --bench fig_sparse_fwd
//! HD_BENCH_SMOKE=1 cargo bench -p hd-bench --bench fig_sparse_fwd   # CI
//! HD_BENCH_GUARD=1 cargo bench -p hd-bench --bench fig_sparse_fwd   # guard
//! ```
//!
//! `HD_BENCH_GUARD=1` additionally runs the full (non-smoke) VGG-S sparse
//! prober once with telemetry explicitly disabled and fails if its
//! wall-clock regresses more than 2% over the `mean_s` recorded in
//! `BENCH_sparse_fwd.json` — the contract that the `hd-obs` disabled path
//! (one relaxed atomic load per hook) stays free.
//!
//! Every row runs with `parallelism = Some(1)`: the sparse path accelerates
//! each inference, so its speedup is orthogonal to (and composes with) the
//! `-j` probe-level parallelism measured by `fig_prober_parallel`. Smoke
//! mode shrinks the probe budget and skips the JSON write so CI cannot
//! clobber the checked-in full-run artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use hd_bench::victims::{paper_victim_with, Model};
use huffduff_core::prober::{probe, ProberConfig};
use std::sync::Mutex;
use std::time::Instant;

/// Times `probe(device, cfg)` under criterion, returning every sample
/// but the warmup.
fn timed_bench(
    c: &mut Criterion,
    id: &str,
    device: &hd_accel::Device,
    cfg: &ProberConfig,
) -> Vec<f64> {
    let times = Mutex::new(Vec::new());
    c.bench_function(id, |b| {
        b.iter(|| {
            let t0 = Instant::now();
            probe(device, cfg).expect("probe succeeds");
            times.lock().unwrap().push(t0.elapsed().as_secs_f64());
        })
    });
    let mut times = times.into_inner().unwrap();
    if times.len() > 1 {
        times.remove(0); // warmup sample
    }
    times
}

const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sparse_fwd.json");

/// `HD_BENCH_GUARD=1` regression guard: with telemetry disabled, the full
/// single-threaded VGG-S sparse prober must stay within 2% of the `mean_s`
/// recorded in `BENCH_sparse_fwd.json`. Uses the best of two measured runs
/// (after a warmup) so one scheduler hiccup cannot fail the guard, and the
/// vendored `hd_obs::json` parser so the artifact schema stays honest.
fn telemetry_overhead_guard() {
    use hd_obs::json::Json;
    let text = std::fs::read_to_string(BENCH_JSON).expect("BENCH_sparse_fwd.json missing");
    let json = Json::parse(&text).expect("BENCH_sparse_fwd.json is valid JSON");
    let baseline = json
        .get("victims")
        .and_then(|v| v.as_array())
        .and_then(|victims| {
            victims
                .iter()
                .find(|v| v.get("victim").and_then(|n| n.as_str()) == Some("VGG-S"))
        })
        .and_then(|v| v.get("sparse"))
        .and_then(|s| s.get("mean_s"))
        .and_then(|m| m.as_f64())
        .expect("VGG-S sparse mean_s present in BENCH_sparse_fwd.json");

    hd_obs::set_enabled(false);
    let (device, _) = paper_victim_with(Model::VggS, 3, hd_accel::AccelConfig::eyeriss_v2());
    let cfg = ProberConfig::default().with_parallelism(Some(1));
    probe(&device, &cfg).expect("probe succeeds"); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t0 = Instant::now();
        probe(&device, &cfg).expect("probe succeeds");
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let limit = baseline * 1.02;
    println!(
        "guard: telemetry-disabled VGG-S sparse probe {best:.3}s \
         (recorded {baseline:.3}s, limit {limit:.3}s)"
    );
    assert!(
        best <= limit,
        "telemetry-disabled prober regressed more than 2%: {best:.3}s vs \
         recorded mean {baseline:.3}s"
    );
}

fn bench(c: &mut Criterion) {
    if std::env::var("HD_BENCH_GUARD").is_ok() {
        telemetry_overhead_guard();
        return;
    }
    let smoke = std::env::var("HD_BENCH_SMOKE").is_ok();
    let probe_cfg = if smoke {
        ProberConfig {
            shifts: 8,
            max_probes: 2,
            stable_probes: 1,
            ..Default::default()
        }
    } else {
        ProberConfig::default()
    }
    .with_parallelism(Some(1)); // isolate per-inference speed from -j fan-out

    let models = if smoke {
        vec![Model::VggS]
    } else {
        Model::BOTH.to_vec()
    };

    let mean = |ts: &[f64]| ts.iter().sum::<f64>() / ts.len() as f64;
    let fmt_samples = |ts: &[f64]| {
        ts.iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut rows = Vec::new();
    for model in models {
        let (device, _) = paper_victim_with(model, 3, hd_accel::AccelConfig::eyeriss_v2());
        let tag = model.name().to_lowercase().replace('-', "_");
        let sparse_s = timed_bench(c, &format!("{tag}_probe_sparse"), &device, &probe_cfg);
        let s_mean = mean(&sparse_s);
        println!("{}: sparse {s_mean:.2}s (single-threaded)", model.name());
        rows.push(format!(
            "    {{ \"victim\": \"{}\", \"sparse\": {{ \"mean_s\": {s_mean:.3}, \
             \"samples_s\": [{}] }} }}",
            model.name(),
            fmt_samples(&sparse_s),
        ));
    }

    if smoke {
        // Don't clobber the checked-in full-run artifact with smoke numbers.
        println!("smoke mode: skipping BENCH_sparse_fwd.json");
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"fig_sparse_fwd\",\n  \"parallelism\": 1,\n  \
         \"note\": \"single-threaded end-to-end prober wall-clock on the default device \
         config (stripe probes take the cached CSC forward); orthogonal to -j probe \
         fan-out\",\n  \"victims\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(BENCH_JSON, json).expect("write BENCH_sparse_fwd.json");
    println!("wrote {BENCH_JSON}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(2);
    targets = bench
}
criterion_main!(benches);
