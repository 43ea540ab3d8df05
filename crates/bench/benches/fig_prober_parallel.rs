//! Bench for the pooled probe executor: runs the full VGG-S probe at
//! `-j1` (serial), `-j2`, `-j4`, and `-jN` (all cores), asserts every
//! `ProberResult` is bit-identical to serial, and writes the measured
//! wall-clock numbers to `BENCH_prober_parallel.json` at the repository
//! root — together with a buffered-vs-streaming memory comparison for one
//! probe trace.
//!
//! ```text
//! cargo bench -p hd-bench --bench fig_prober_parallel
//! HD_BENCH_SMOKE=1 cargo bench -p hd-bench --bench fig_prober_parallel   # CI
//! HD_BENCH_GUARD=1 cargo bench -p hd-bench --bench fig_prober_parallel   # guard
//! ```
//!
//! A row's `workers` is the number of threads that can actually run its
//! probe at once: the requested parallelism, clamped to the job count and
//! to the pool's participants (its background workers plus the caller).
//!
//! `HD_BENCH_GUARD=1` validates the checked-in artifact instead of timing:
//! the schema must be `v2`, and the honesty invariants must hold — no row
//! claims more workers than the recording host had cores, a row whose
//! worker count is 1 carries `"speedup_vs_serial": null`, and
//! `measured_parallel_speedup` is `true` only when the recording host had
//! more than one core. A 1-core recording therefore *cannot* report a
//! measured parallel speedup; it self-describes as unmeasured instead of
//! presenting serial noise as a result.

use criterion::{criterion_group, criterion_main, Criterion};
use hd_bench::victims::{paper_victim, Model};
use hd_pool::WorkerPool;
use hd_trace::StreamingAnalyzer;
use huffduff_core::prober::{probe, ProberConfig};
use std::sync::Mutex;
use std::time::Instant;

const BENCH_JSON: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_prober_parallel.json"
);

/// Times `probe(device, cfg)` under criterion, recording every sample
/// (including the warmup, which the caller discards).
fn timed_bench(
    c: &mut Criterion,
    id: &str,
    device: &hd_accel::Device,
    cfg: &ProberConfig,
) -> (huffduff_core::prober::ProberResult, Vec<f64>) {
    let times = Mutex::new(Vec::new());
    let last = Mutex::new(None);
    c.bench_function(id, |b| {
        b.iter(|| {
            let t0 = Instant::now();
            let r = probe(device, cfg).expect("probe succeeds");
            times.lock().unwrap().push(t0.elapsed().as_secs_f64());
            *last.lock().unwrap() = Some(r);
        })
    });
    let mut times = times.into_inner().unwrap();
    if times.len() > 1 {
        times.remove(0); // warmup sample
    }
    (last.into_inner().unwrap().expect("probe ran"), times)
}

/// `HD_BENCH_GUARD=1`: schema/honesty validation of the recorded artifact.
fn schema_guard() {
    use hd_obs::json::Json;
    let text = std::fs::read_to_string(BENCH_JSON).expect("BENCH_prober_parallel.json missing");
    let json = Json::parse(&text).expect("BENCH_prober_parallel.json is valid JSON");

    assert_eq!(
        json.get("schema").and_then(|s| s.as_str()),
        Some("hd-bench/prober-parallel/v2"),
        "artifact must carry the v2 schema tag"
    );
    let host_cores = json
        .get("host_cores")
        .and_then(|v| v.as_f64())
        .expect("host_cores present") as usize;
    assert!(host_cores >= 1);
    assert_eq!(
        json.get("results_bit_identical").and_then(|v| v.as_bool()),
        Some(true),
        "every recorded row must have matched serial bit-for-bit"
    );
    let measured = json
        .get("measured_parallel_speedup")
        .and_then(|v| v.as_bool())
        .expect("measured_parallel_speedup present");
    assert_eq!(
        measured,
        host_cores > 1,
        "a {host_cores}-core recording must declare measured_parallel_speedup = {}",
        host_cores > 1
    );

    let rows = json
        .get("rows")
        .and_then(|r| r.as_array())
        .expect("rows array");
    let ids: Vec<&str> = rows
        .iter()
        .map(|r| r.get("id").and_then(|i| i.as_str()).expect("row id"))
        .collect();
    assert_eq!(
        ids,
        ["serial", "j2", "j4", "jN"],
        "v2 artifact must record the serial, -j2, -j4, and -jN rows"
    );
    for row in rows {
        let id = row.get("id").and_then(|i| i.as_str()).unwrap_or("?");
        let workers = row
            .get("workers")
            .and_then(|w| w.as_f64())
            .expect("row workers") as usize;
        assert!(
            workers <= host_cores,
            "row {id:?} claims {workers} workers on a {host_cores}-core host"
        );
        let speedup = row.get("speedup_vs_serial").expect("speedup field present");
        let has_speedup = speedup.as_f64().is_some();
        if id == "serial" || workers <= 1 || !measured {
            // The honesty invariant: one effective worker (or a 1-core
            // host) measures the serial path, so no speedup may be
            // reported — the field must be null, never a number.
            assert!(
                !has_speedup,
                "row {id:?} ran on {workers} worker(s) (host_cores = {host_cores}) \
                 but reports a measured speedup"
            );
        } else {
            assert!(
                has_speedup,
                "row {id:?} ran on {workers} workers but reports no speedup"
            );
        }
    }
    assert!(
        json.get("memory")
            .and_then(|m| m.get("streaming_peak_pending_reads"))
            .and_then(|v| v.as_f64())
            .is_some(),
        "memory comparison missing"
    );
    println!(
        "guard: BENCH_prober_parallel.json schema v2 OK \
         (host_cores = {host_cores}, measured = {measured})"
    );
}

/// Buffered-vs-streaming memory for one representative probe trace: the
/// buffered path retains every bus event; the streaming analyzer's
/// transient state peaks at one encode window of pending reads.
fn memory_comparison(device: &hd_accel::Device) -> (usize, usize) {
    let shape = device.input_shape();
    let mut img = hd_tensor::Tensor3::zeros(shape.c, shape.h, shape.w);
    for c in 0..shape.c {
        for y in 0..shape.h {
            img.set(c, y, 0, 1.0);
        }
    }
    let trace = device.run(&img);
    let mut sink = StreamingAnalyzer::new();
    device
        .try_run_with(&img, &mut sink)
        .expect("streaming run succeeds");
    (trace.len(), sink.peak_pending_reads())
}

fn bench(c: &mut Criterion) {
    if std::env::var("HD_BENCH_GUARD").is_ok() {
        schema_guard();
        return;
    }
    let smoke = std::env::var("HD_BENCH_SMOKE").is_ok();
    let base = if smoke {
        ProberConfig {
            shifts: 8,
            max_probes: 2,
            stable_probes: 1,
            ..Default::default()
        }
    } else {
        ProberConfig::default()
    };
    let (device, _) = paper_victim(Model::VggS, 3);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // (row id, requested parallelism); None = all cores.
    let rows_cfg: [(&str, Option<usize>); 4] = [
        ("serial", Some(1)),
        ("j2", Some(2)),
        ("j4", Some(4)),
        ("jN", None),
    ];
    let mean = |ts: &[f64]| ts.iter().sum::<f64>() / ts.len() as f64;
    let fmt_samples = |ts: &[f64]| {
        ts.iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };

    let mut serial_result = None;
    let mut serial_mean = 0.0;
    let mut rows = Vec::new();
    for (id, requested) in rows_cfg {
        let cfg = base.clone().with_parallelism(requested);
        // The pool runs at most its background workers plus the caller.
        let workers = cfg
            .effective_parallelism(cfg.shifts)
            .min(WorkerPool::global().threads() + 1);
        let (result, samples) = timed_bench(c, &format!("vgg_probe_{id}"), &device, &cfg);
        let m = mean(&samples);
        match &serial_result {
            None => {
                serial_result = Some(result);
                serial_mean = m;
            }
            Some(serial) => assert_eq!(
                serial, &result,
                "{id} probe must be bit-identical to serial"
            ),
        }
        // Speedup is only a measurement when the row actually ran more
        // than one worker on more than one core; otherwise it is serial
        // noise and the artifact must say so with a null.
        let measured_row = workers > 1 && host_cores > 1;
        let speedup = if id != "serial" && measured_row {
            format!("{:.3}", serial_mean / m)
        } else {
            "null".to_string()
        };
        println!("{id}: {m:.2}s on {workers} worker(s), speedup_vs_serial = {speedup}");
        rows.push(format!(
            "    {{ \"id\": \"{id}\", \"requested\": {}, \"workers\": {workers}, \
             \"mean_s\": {m:.3}, \"samples_s\": [{}], \"speedup_vs_serial\": {speedup} }}",
            requested.map_or("null".to_string(), |r| r.to_string()),
            fmt_samples(&samples),
        ));
    }

    let (buffered_events, peak_pending) = memory_comparison(&device);
    println!(
        "memory: buffered trace retains {buffered_events} events; \
         streaming analyzer peaks at {peak_pending} pending reads"
    );

    if smoke {
        // Don't clobber the checked-in full-run artifact with smoke numbers.
        println!("smoke mode: skipping BENCH_prober_parallel.json");
        return;
    }
    let measured = host_cores > 1;
    let note = if measured {
        "speedup_vs_serial is mean serial / mean row wall-clock on this host; \
         rows whose effective worker count is 1 report null"
    } else {
        "recorded on a 1-core host: every row measures the serial path, so no \
         parallel speedup exists to report; re-record on a multicore host for \
         measured numbers"
    };
    let json = format!(
        "{{\n  \"bench\": \"fig_prober_parallel\",\n  \
         \"schema\": \"hd-bench/prober-parallel/v2\",\n  \"victim\": \"VGG-S\",\n  \
         \"host_cores\": {host_cores},\n  \"measured_parallel_speedup\": {measured},\n  \
         \"results_bit_identical\": true,\n  \"rows\": [\n{}\n  ],\n  \
         \"memory\": {{ \"buffered_trace_events\": {buffered_events}, \
         \"streaming_peak_pending_reads\": {peak_pending} }},\n  \"note\": \"{note}\"\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(BENCH_JSON, json).expect("write BENCH_prober_parallel.json");
    println!("wrote {BENCH_JSON}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(2);
    targets = bench
}
criterion_main!(benches);
