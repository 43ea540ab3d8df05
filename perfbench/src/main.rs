//! The steal benchmark.
//!
//! ```text
//! hd-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hd-perfbench selftest
//! ```
//!
//! One process runs one workload, so peak memory, the global worker pool
//! and every lazy cache are charged to the workload that pays for them.
//! The workload's steals are repeated in passes until `--seconds` have
//! elapsed, at least three passes at `--trace 0` and one at `--trace 1`.
//! End-to-end timings are per-item medians over the passes; the per-layer
//! metrics are those of the median pass.
//!
//! * `--trace 0` steals through `huffduff_core::run` over
//!   `ChannelKind::model` and prints the end-to-end metrics.
//! * `--trace 1` steals each victim twice: once stage by stage
//!   (`run_prober`, `channel_ratios`, `finalize`) through the traced
//!   channel of [`channel`], which yields the per-crate ledger, and once
//!   untraced on a twin device, which the traced outcome must equal.
//!
//! The last line of standard output is the result object; the line before
//! it (`META {...}`) carries host and run metadata and sample counts.

mod channel;
mod ledger;
mod workload;

use channel::TracedChannel;
use hd_accel::Device;
use hd_tensor::Shape3;
use huffduff_core::eval::score_geometry;
use huffduff_core::solution::finalize;
use huffduff_core::timing::channel_ratios;
use huffduff_core::{
    run_prober, AttackConfig, AttackOutcome, ChannelKind, ChannelRatios, ObservationModel,
    ProberResult,
};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{live_k1, set_up, weights_kept, Workload, JOBS, WORKLOADS};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 8] = [
    ("steals_per_min", "steals/min"),
    ("attack_s", "s"),
    ("setup_s", "s"),
    ("probe_inferences", "count"),
    ("geometry_exact_pct", "%"),
    ("k1_covered_pct", "%"),
    ("candidates", "count"),
    ("peak_rss_mb", "MB"),
];

/// Ledger rows: per-crate self times (wall seconds) that, with
/// `unattributed_s`, add up to `ledger.wall_s`.
const LEDGER_ROWS: [&str; 12] = [
    "hd-dnn.build_s",
    "hd-dnn.prune_s",
    "hd-accel.seal_s",
    "hd-dnn.forward_s",
    "hd-accel.emit_s",
    "hd-trace.stream_s",
    "hd-trace.finish_s",
    "huffduff-core.channel_s",
    "huffduff-core.match_self_s",
    "huffduff-core.timing_s",
    "huffduff-core.finalize_s",
    "unattributed_s",
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 32] = [
    ("hd-dnn.build_s", "s"),
    ("hd-dnn.prune_s", "s"),
    ("hd-accel.seal_s", "s"),
    ("hd-dnn.weights_kept", "count"),
    ("hd-accel.runs", "count"),
    ("hd-accel.run_p50_ms", "ms"),
    ("hd-accel.run_p95_ms", "ms"),
    ("hd-accel.first_run_ms", "ms"),
    ("hd-accel.emit_s", "s"),
    ("hd-accel.events", "count"),
    ("hd-accel.dram_bytes", "bytes"),
    ("hd-accel.sim_ms", "ms"),
    ("hd-accel.host_ns_per_event", "ns/event"),
    ("hd-dnn.forward_s", "s"),
    ("hd-trace.stream_s", "s"),
    ("hd-trace.finish_s", "s"),
    ("hd-trace.peak_pending_reads", "count"),
    ("huffduff-core.probe_s", "s"),
    ("huffduff-core.match_self_s", "s"),
    ("huffduff-core.channel_s", "s"),
    ("huffduff-core.timing_s", "s"),
    ("huffduff-core.finalize_s", "s"),
    ("huffduff-core.families", "count"),
    ("hd-pool.workers_used", "count"),
    ("hd-pool.busy_s", "s"),
    ("hd-pool.idle_s", "s"),
    ("hd-pool.utilization", "ratio"),
    ("hd-pool.caller_share", "ratio"),
    ("unattributed_s", "s"),
    ("tracing_overhead_s", "s"),
    ("ledger.wall_s", "s"),
    ("ledger.closure_residual_s", "s"),
];

/// Counts that must repeat exactly from pass to pass (same inputs).
const DETERMINISTIC: [&str; 7] = [
    "hd-dnn.weights_kept",
    "hd-accel.runs",
    "hd-accel.events",
    "hd-accel.dram_bytes",
    "hd-accel.sim_ms",
    "hd-trace.peak_pending_reads",
    "huffduff-core.families",
];

/// Fewest passes behind an end-to-end median.
const MIN_PASSES: usize = 3;

/// Largest tolerated gap between the outer wall clock and the ledger sum.
const CLOSURE_TOLERANCE_S: f64 = 1e-3;

type Metrics = BTreeMap<&'static str, f64>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a finite non-negative number, got {s}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("selftest") {
        selftest().map(|()| println!("selftest ok"))
    } else {
        parse_args(&args).and_then(|a| run(&a))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hd-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Accuracy of one steal against the oracle.
#[derive(Clone, Copy, Debug, Default)]
struct Score {
    exact: usize,
    scored: usize,
    k1_covered: bool,
    candidates: usize,
    inferences: usize,
}

fn score(device: &Device, outcome: &AttackOutcome) -> Score {
    let geometry = score_geometry(device.oracle().net, &outcome.prober);
    let k1 = live_k1(device);
    Score {
        exact: geometry.correct,
        scored: geometry.total,
        k1_covered: outcome
            .space
            .as_ref()
            .is_some_and(|s| s.k1_candidates.contains(&k1)),
        candidates: outcome.space.as_ref().map_or(0, |s| s.count()),
        inferences: outcome.prober.runs_used,
    }
}

/// The stages after probing, as `huffduff_core::run` chains them; returns
/// the outcome and the wall time of the timing and finalize stages.
fn finish_stages(
    prober: ProberResult,
    input_shape: Shape3,
    cfg: &AttackConfig,
) -> (AttackOutcome, Duration, Duration) {
    let t0 = Instant::now();
    let ratios = channel_ratios(&prober).ok();
    let t1 = Instant::now();
    let no_ratios = ChannelRatios {
        baseline: 0,
        ratios: Vec::new(),
    };
    let space = finalize(
        &prober,
        ratios.as_ref().unwrap_or(&no_ratios),
        input_shape,
        cfg.classes,
        &cfg.codec,
        cfg.first_layer_max_sparsity,
        cfg.max_k,
    )
    .ok();
    let t2 = Instant::now();
    let outcome = AttackOutcome {
        prober,
        ratios,
        space,
    };
    (outcome, t1 - t0, t2 - t1)
}

/// One steal's result: the outcome (or why it failed), its score and, at
/// `--trace 0`, the wall time of its `huffduff_core::run` call.
struct Steal {
    label: String,
    outcome: Result<AttackOutcome, String>,
    score: Score,
    attack_s: f64,
}

/// What one pass over the workload produced. At `--trace 0` the timings
/// are kept per victim and per steal, so that each can take its median over
/// the passes on its own: a burst of host noise then spoils one sample of
/// one item, not the sum of a whole pass.
struct Pass {
    metrics: Metrics,
    steals: Vec<Steal>,
    setup_s: Vec<f64>,
    victim_wall_s: Vec<f64>,
}

fn run(args: &Args) -> Result<(), String> {
    let wl = workload::workload(&args.workload, args.seed).ok_or(format!(
        "unknown workload {:?} (known: {})",
        args.workload,
        WORKLOADS.join(", ")
    ))?;
    // End-to-end medians need a few passes even when one pass outlasts
    // `--seconds`; the per-layer ledger is read from any single pass.
    let min_passes = if args.trace { 1 } else { MIN_PASSES };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < args.seconds {
        let pass = if args.trace {
            traced_pass(&wl)
        } else {
            untraced_pass(&wl)
        };
        passes.push(pass);
    }

    // Gate: every steal succeeded in every pass and repeated the first
    // pass's outcome exactly.
    let first = &passes[0];
    let mut failed = 0usize;
    let mut report = String::new();
    for (p, pass) in passes.iter().enumerate() {
        for (steal, reference) in pass.steals.iter().zip(&first.steals) {
            let ok = matches!((&steal.outcome, &reference.outcome), (Ok(a), Ok(b)) if a == b);
            if !ok {
                let why = match &steal.outcome {
                    Err(e) => e.as_str(),
                    Ok(_) => "outcome differs from pass 0",
                };
                let _ = writeln!(report, "# FAILED pass {p} {}: {why}", steal.label);
            }
            failed += usize::from(!ok);
        }
    }
    let attempted = passes.iter().map(|p| p.steals.len()).sum::<usize>();
    let mut correct = failed == 0;

    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let metrics: Metrics = if args.trace {
        for name in DETERMINISTIC {
            let values: Vec<f64> = passes.iter().map(|p| p.metrics[name]).collect();
            if values.iter().any(|&v| v != values[0]) {
                let _ = writeln!(report, "# FAILED {name} varies across passes: {values:?}");
                correct = false;
            }
        }
        let worst = passes
            .iter()
            .map(|p| p.metrics["ledger.closure_residual_s"].abs())
            .fold(0.0, f64::max);
        if worst > CLOSURE_TOLERANCE_S {
            let _ = writeln!(report, "# FAILED ledger does not close: residual {worst} s");
            correct = false;
        }
        // The median pass by traced wall, reported whole so that its rows
        // still add up to its `ledger.wall_s`.
        let mut by_wall: Vec<&Pass> = passes.iter().collect();
        by_wall.sort_by(|a, b| a.metrics["ledger.wall_s"].total_cmp(&b.metrics["ledger.wall_s"]));
        by_wall[(by_wall.len() - 1) / 2].metrics.clone()
    } else {
        // The accuracy counts repeat in every pass (the gate above checks
        // the outcomes they come from); the timings are medians per item.
        let mut m = first.metrics.clone();
        let wall = sum_of_medians(&passes, |p| p.victim_wall_s.clone());
        m.insert("steals_per_min", wl.steals() as f64 * 60.0 / wall);
        m.insert(
            "attack_s",
            sum_of_medians(&passes, |p| p.steals.iter().map(|s| s.attack_s).collect()),
        );
        m.insert("setup_s", sum_of_medians(&passes, |p| p.setup_s.clone()));
        m.insert("peak_rss_mb", peak_rss_mb()?);
        m
    };

    // Per-steal lines from the first pass, then the ledger when traced.
    for s in &first.steals {
        let _ = writeln!(
            report,
            "# steal {:<44} exact {}/{} k1 {} candidates {} inferences {}",
            s.label,
            s.score.exact,
            s.score.scored,
            if s.score.k1_covered {
                "covered"
            } else {
                "MISSED"
            },
            s.score.candidates,
            s.score.inferences
        );
    }
    if args.trace {
        let wall = metrics["ledger.wall_s"];
        let _ = writeln!(report, "# ledger of the median pass, wall seconds");
        for row in LEDGER_ROWS {
            let v = metrics[row];
            let _ = writeln!(
                report,
                "#   {row:<28} {v:>10.4}  {:>5.1}%",
                100.0 * v / wall
            );
        }
        let _ = writeln!(report, "#   {:<28} {wall:>10.4}", "ledger.wall_s");
    }
    print!("{report}");

    let workers_seen = passes
        .iter()
        .filter_map(|p| p.metrics.get("hd-pool.workers_used").copied())
        .fold(0.0, f64::max);
    let mut meta = format!(
        "{{\"workload\": {:?}, \"seed\": {}, \"trace\": {}, \"passes\": {}, \"steals_per_pass\": {}, \
         \"cores\": {}, \"simd\": {:?}, \"jobs_requested\": {JOBS}, \"pool_threads\": {}, ",
        args.workload,
        args.seed,
        u8::from(args.trace),
        passes.len(),
        wl.steals(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        hd_tensor::simd::active_isa(),
        hd_pool::WorkerPool::global().threads(),
    );
    if args.trace {
        let runs = metrics["hd-accel.runs"] as usize;
        let _ = write!(
            meta,
            "\"workers_used\": {workers_seen}, \"trace_method\": \"buffered replay into StreamingAnalyzer\", \
             \"samples\": {{\"passes\": {}, \"device_runs_per_pass\": {runs}}}, ",
            passes.len()
        );
    } else {
        let _ = write!(
            meta,
            "\"samples\": {{\"passes\": {}, \"steals_per_pass\": {}}}, ",
            passes.len(),
            wl.steals()
        );
    }
    let _ = write!(meta, "\"units\": {{");
    for (i, (name, unit)) in names.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(meta, "{sep}{name:?}: {unit:?}");
    }
    meta.push_str("}}");
    println!("META {meta}");

    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = *metrics
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        let _ = write!(
            line,
            "{sep}{name:?}: {{\"value\": {v}, \"unit\": {unit:?}}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(())
}

/// One pass at `--trace 0`.
fn untraced_pass(wl: &Workload) -> Pass {
    let mut steals = Vec::new();
    let mut setup_s = Vec::new();
    let mut victim_wall_s = Vec::new();
    for victim in &wl.victims {
        let victim_start = Instant::now();
        let mut gate = Duration::ZERO;
        let (device, times) = set_up(victim);
        setup_s.push(times.total().as_secs_f64());
        for &kind in &victim.channels {
            let label = format!("{}/{}", victim.label(), kind.label());
            let t = Instant::now();
            let outcome = huffduff_core::run(kind.model(&device).as_ref(), &wl.attack);
            let attack_s = t.elapsed().as_secs_f64();
            let outcome = outcome.map_err(|e| e.to_string());
            let score = outcome
                .as_ref()
                .map_or(Score::default(), |o| score(&device, o));

            // The stages after probing must reproduce `run`'s outcome.
            let g = Instant::now();
            let outcome = outcome.and_then(|o| {
                let (again, _, _) =
                    finish_stages(o.prober.clone(), device.input_shape(), &wl.attack);
                if again == o {
                    Ok(o)
                } else {
                    Err("timing/finalize stages disagree with huffduff_core::run".to_string())
                }
            });
            gate += g.elapsed();
            steals.push(Steal {
                label,
                outcome,
                score,
                attack_s,
            });
        }
        drop(device);
        victim_wall_s.push((victim_start.elapsed() - gate).as_secs_f64());
    }

    let mut m = Metrics::new();
    let n = steals.len() as f64;
    let sum = |f: fn(&Score) -> usize| steals.iter().map(|s| f(&s.score)).sum::<usize>() as f64;
    m.insert("probe_inferences", sum(|s| s.inferences));
    m.insert(
        "geometry_exact_pct",
        100.0 * sum(|s| s.exact) / sum(|s| s.scored).max(1.0),
    );
    m.insert(
        "k1_covered_pct",
        100.0 * sum(|s| usize::from(s.k1_covered)) / n,
    );
    m.insert("candidates", sum(|s| s.candidates));
    Pass {
        metrics: m,
        steals,
        setup_s,
        victim_wall_s,
    }
}

/// Charges wall time to ledger rows: each `charge` bills the time since the
/// previous one, so every instant of a pass lands in exactly one row.
struct Timeline {
    last: Instant,
    rows: BTreeMap<&'static str, f64>,
}

impl Timeline {
    fn new() -> Self {
        Timeline {
            last: Instant::now(),
            rows: BTreeMap::new(),
        }
    }

    fn charge(&mut self, row: &'static str) -> Instant {
        let now = Instant::now();
        *self.rows.entry(row).or_default() += (now - self.last).as_secs_f64();
        self.last = now;
        now
    }

    fn add(&mut self, row: &'static str, seconds: f64) {
        *self.rows.entry(row).or_default() += seconds;
    }
}

/// Row for work the ledger leaves out: the untraced twin steal and the
/// correctness checks.
const EXCLUDED: &str = "excluded";

/// One pass at `--trace 1`.
fn traced_pass(wl: &Workload) -> Pass {
    let pass_start = Instant::now();
    let mut tl = Timeline::new();
    let caller = std::thread::current().id();
    let mut threads = HashSet::new();
    let mut steals = Vec::new();
    let (mut probe_wall, mut busy, mut caller_busy, mut emit_busy) = (0.0, 0.0, 0.0, 0.0);
    let (mut traced_attack, mut untraced_attack) = (0.0, 0.0);
    let mut runs_ms: Vec<f64> = Vec::new();
    let mut first_runs_ms: Vec<f64> = Vec::new();
    let (mut events, mut dram_bytes, mut sim_ps, mut peak_pending) = (0u64, 0u64, 0u64, 0usize);
    let (mut weights, mut families) = (0u64, 0usize);

    for victim in &wl.victims {
        tl.charge("unattributed_s");
        let (device, times) = set_up(victim);
        tl.charge("set-up");
        tl.rows
            .entry("set-up")
            .and_modify(|v| *v -= times.total().as_secs_f64());
        tl.add("hd-dnn.build_s", times.build.as_secs_f64());
        tl.add("hd-dnn.prune_s", times.prune.as_secs_f64());
        tl.add("hd-accel.seal_s", times.seal.as_secs_f64());
        // The twin is cloned before first use, so it builds its own lazy
        // caches just as the traced device does.
        let twin = device.clone();
        weights += weights_kept(&device);
        tl.charge(EXCLUDED);

        for &kind in &victim.channels {
            let label = format!("{}/{}", victim.label(), kind.label());
            let traced = TracedChannel::new(&device, kind);
            let p0 = tl.charge("unattributed_s");
            let prober = run_prober(&traced, &wl.attack.prober);
            let p1 = tl.charge("probe");
            let records = traced.into_records();
            let split = ledger::split_probe(&records, p0, p1, caller, &mut threads);
            let wall = (p1 - p0).as_secs_f64();
            tl.rows.entry("probe").and_modify(|v| *v -= split.total());
            for (row, v) in [
                ("huffduff-core.match_self_s", split.match_self),
                ("hd-dnn.forward_s", split.forward),
                ("hd-accel.emit_s", split.emit),
                ("hd-trace.stream_s", split.stream),
                ("hd-trace.finish_s", split.finish),
                ("huffduff-core.channel_s", split.glue),
            ] {
                tl.add(row, v);
            }
            probe_wall += wall;
            busy += split.busy;
            caller_busy += split.caller_busy;
            let mut first: Option<(Instant, f64)> = None;
            for r in &records {
                emit_busy += r.emit.as_secs_f64();
                if let Some(d) = r.device {
                    let ms = d.wall.as_secs_f64() * 1e3;
                    runs_ms.push(ms);
                    if first.is_none_or(|(t, _)| r.start < t) {
                        first = Some((r.start, ms));
                    }
                    events += d.events;
                    dram_bytes += d.dram_bytes;
                    sim_ps += d.sim_ps;
                    peak_pending = peak_pending.max(d.peak_pending_reads);
                }
            }
            first_runs_ms.extend(first.map(|(_, ms)| ms));
            tl.charge(EXCLUDED);

            let outcome = match prober {
                Ok(p) => {
                    let (o, timing, fin) = finish_stages(p, device.input_shape(), &wl.attack);
                    tl.charge("stages");
                    tl.rows.entry("stages").and_modify(|v| {
                        *v -= (timing + fin).as_secs_f64();
                    });
                    tl.add("huffduff-core.timing_s", timing.as_secs_f64());
                    tl.add("huffduff-core.finalize_s", fin.as_secs_f64());
                    traced_attack += wall + (timing + fin).as_secs_f64();
                    Ok(o)
                }
                Err(e) => Err(format!("probing failed: {e}")),
            };
            let score = outcome
                .as_ref()
                .map_or(Score::default(), |o| score(&device, o));
            if let Ok(o) = &outcome {
                families += o.prober.probes_used;
            }
            tl.charge("unattributed_s");

            // Gate, outside the ledger: the untraced steal on the twin must
            // match, and the traced channel must observe exactly what
            // `ChannelKind::model` does.
            let t = Instant::now();
            let untraced = huffduff_core::run(kind.model(&twin).as_ref(), &wl.attack);
            untraced_attack += t.elapsed().as_secs_f64();
            let outcome = match (outcome, untraced) {
                (Ok(a), Ok(b)) if a == b => Ok(a),
                (Ok(_), Ok(_)) => Err("traced outcome differs from huffduff_core::run".into()),
                (Ok(_), Err(e)) => Err(format!("untraced attack failed: {e}")),
                (Err(e), _) => Err(e),
            };
            let outcome = outcome
                .and_then(|o| observations_match(&device, kind, wl.attack.prober.seed).map(|()| o));
            steals.push(Steal {
                label,
                outcome,
                score,
                attack_s: 0.0,
            });
            tl.charge(EXCLUDED);
        }
        drop(twin);
        tl.charge(EXCLUDED);
        drop(device);
        tl.charge("unattributed_s");
    }
    let outer = pass_start.elapsed().as_secs_f64();

    // Whatever the set-up, probe and stages rows kept back from their
    // children stays out of the ledger rows and shows in the residual.
    let mut m = Metrics::new();
    let excluded = tl.rows.remove(EXCLUDED).unwrap_or(0.0);
    for row in LEDGER_ROWS {
        m.insert(row, tl.rows.get(row).copied().unwrap_or(0.0));
    }
    // The untraced steals and checks are left out of the ledger, so the
    // traced wall is the outer clock minus the excluded time.
    let traced_wall = outer - excluded;
    let sum: f64 = LEDGER_ROWS.iter().map(|r| m[r]).sum();
    m.insert("ledger.wall_s", traced_wall);
    m.insert("ledger.closure_residual_s", traced_wall - sum);
    m.insert("huffduff-core.probe_s", probe_wall);
    m.insert("huffduff-core.families", families as f64);
    m.insert("hd-dnn.weights_kept", weights as f64);
    m.insert("hd-accel.runs", runs_ms.len() as f64);
    m.insert("hd-accel.run_p50_ms", percentile(&mut runs_ms, 0.50));
    m.insert("hd-accel.run_p95_ms", percentile(&mut runs_ms, 0.95));
    m.insert("hd-accel.first_run_ms", median(&mut first_runs_ms));
    m.insert("hd-accel.events", events as f64);
    m.insert("hd-accel.dram_bytes", dram_bytes as f64);
    m.insert("hd-accel.sim_ms", sim_ps as f64 / 1e9);
    m.insert(
        "hd-accel.host_ns_per_event",
        emit_busy * 1e9 / (events.max(1) as f64),
    );
    m.insert("hd-trace.peak_pending_reads", peak_pending as f64);
    let workers = threads.len().max(1) as f64;
    m.insert("hd-pool.workers_used", threads.len() as f64);
    m.insert("hd-pool.busy_s", busy);
    m.insert("hd-pool.idle_s", workers * probe_wall - busy);
    m.insert(
        "hd-pool.utilization",
        busy / (workers * probe_wall).max(1e-12),
    );
    m.insert("hd-pool.caller_share", caller_busy / busy.max(1e-12));
    m.insert("tracing_overhead_s", traced_attack - untraced_attack);
    Pass {
        metrics: m,
        steals,
        setup_s: Vec::new(),
        victim_wall_s: Vec::new(),
    }
}

/// The traced channel and `ChannelKind::model` must observe identically,
/// on a sparse stripe probe and on a dense image.
fn observations_match(device: &Device, kind: ChannelKind, seed: u64) -> Result<(), String> {
    let shape = device.input_shape();
    let stripe = huffduff_core::probe::stripe_probes(shape, 1, 1, seed)
        .swap_remove(0)
        .images
        .swap_remove(0);
    let dense = hd_tensor::Tensor3::full(shape.c, shape.h, shape.w, 0.5);
    for image in [&stripe, &dense] {
        let traced = TracedChannel::new(device, kind).observe(image);
        let reference = kind.model(device).observe(image);
        if traced != reference {
            return Err(format!("traced {kind} channel observes differently"));
        }
    }
    Ok(())
}

/// Sum over items of each item's median across passes.
fn sum_of_medians(passes: &[Pass], items: impl Fn(&Pass) -> Vec<f64>) -> f64 {
    let per_pass: Vec<Vec<f64>> = passes.iter().map(items).collect();
    (0..per_pass[0].len())
        .map(|i| median(&mut per_pass.iter().map(|v| v[i]).collect::<Vec<_>>()))
        .sum()
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile.
fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Peak resident set of this process (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak memory needs /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Smoke-size checks of the benchmark's own glue.
fn selftest() -> Result<(), String> {
    use hd_bench::victims::{paper_victim, pruned_victim, Model, PruneMode};
    use workload::{Arch, Prune, Victim};

    // 1. Staged set-up seals the repository's victims.
    let mini_cfg = hd_accel::AccelConfig::eyeriss_v2();
    let mut cases: Vec<(Victim, Device)> = Vec::new();
    for mode in PruneMode::DEFAULTS {
        let victim = Victim {
            arch: Arch::Zoo(Model::ResNet18, Some(0.25)),
            prune: Prune::Mode(mode),
            cfg: mini_cfg.clone(),
            seed: 7,
            channels: vec![],
        };
        cases.push((
            victim,
            pruned_victim(Model::ResNet18, mode, 0.25, 7, mini_cfg.clone()).0,
        ));
    }
    let paper = Victim {
        arch: Arch::Zoo(Model::VggS, None),
        prune: Prune::Paper,
        cfg: mini_cfg.clone(),
        seed: 3,
        channels: vec![],
    };
    cases.push((paper, paper_victim(Model::VggS, 3).0));
    for (victim, reference) in &cases {
        let (device, _) = set_up(victim);
        let (a, b) = (device.oracle(), reference.oracle());
        if a.net != b.net || a.params != b.params || device.config() != reference.config() {
            return Err(format!("staged set-up of {} differs", victim.label()));
        }
    }

    // 2. The traced channel observes exactly what `ChannelKind::model`
    //    does, on every probe image of two families, for every channel.
    let wl = workload::workload("tiny", 1).ok_or("no tiny workload")?;
    let (device, _) = set_up(&wl.victims[0]);
    let images: Vec<_> = huffduff_core::probe::stripe_probes(device.input_shape(), 12, 2, 5)
        .into_iter()
        .flat_map(|f| f.images)
        .collect();
    for kind in ChannelKind::ALL {
        let traced = TracedChannel::new(&device, kind);
        for image in &images {
            if traced.observe(image) != kind.model(&device).observe(image) {
                return Err(format!("traced {kind} channel observes differently"));
            }
        }
        let records = traced.into_records();
        if records.len() != images.len() {
            return Err(format!(
                "{kind}: {} records for {} observations",
                records.len(),
                images.len()
            ));
        }
        for r in &records {
            let parts = r.forward + r.emit + r.stream + r.finish + r.glue;
            if parts != r.end - r.start {
                return Err(format!("{kind}: observation parts do not add up"));
            }
        }
    }

    // 3. A traced pass gates clean and its ledger closes, and the staged
    //    attack equals `huffduff_core::run` (checked inside the pass).
    let pass = traced_pass(&wl);
    for s in &pass.steals {
        if let Err(e) = &s.outcome {
            return Err(format!("{}: {e}", s.label));
        }
    }
    let residual = pass.metrics["ledger.closure_residual_s"];
    if residual.abs() > CLOSURE_TOLERANCE_S {
        return Err(format!("ledger does not close: residual {residual} s"));
    }
    let untraced = untraced_pass(&wl);
    for (a, b) in untraced.steals.iter().zip(&pass.steals) {
        if a.outcome != b.outcome {
            return Err(format!("{}: traced and untraced passes differ", a.label));
        }
    }
    Ok(())
}
