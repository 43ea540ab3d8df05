//! Wall-clock attribution of one probe campaign.
//!
//! With `-j2`, two observations can be in flight at once, so their summed
//! durations exceed the wall time they cover. A sweep over the recorded
//! intervals charges each instant of the probe wall either to the prober's
//! own code (no observation in flight) or, in equal shares, to the
//! observations in flight; each observation's share is then split among its
//! parts in proportion to their durations. The parts therefore add up to
//! the covered wall, and covered plus uncovered to the probe wall.

use crate::channel::ObserveRecord;
use std::collections::HashSet;
use std::thread::ThreadId;
use std::time::Instant;

/// The probe wall, attributed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeSplit {
    /// Probe wall with no observation in flight (`huffduff-core` matching
    /// and `hd-pool` scheduling).
    pub match_self: f64,
    pub forward: f64,
    pub emit: f64,
    pub stream: f64,
    pub finish: f64,
    pub glue: f64,
    /// Thread-seconds spent inside `observe`.
    pub busy: f64,
    /// Of `busy`, the part run on the calling thread.
    pub caller_busy: f64,
}

impl ProbeSplit {
    /// Sum of the attributed parts: equals the probe wall.
    pub fn total(&self) -> f64 {
        self.match_self + self.forward + self.emit + self.stream + self.finish + self.glue
    }
}

/// Attributes the wall `[t0, t1]` of one probe, whose calling thread is
/// `caller`, among `records`. Adds the threads seen to `threads`.
pub fn split_probe(
    records: &[ObserveRecord],
    t0: Instant,
    t1: Instant,
    caller: ThreadId,
    threads: &mut HashSet<ThreadId>,
) -> ProbeSplit {
    let at = |t: Instant| t.clamp(t0, t1).duration_since(t0).as_secs_f64();
    // (time, is_start, record); ends sort before starts at equal times.
    let mut marks: Vec<(f64, bool, usize)> = Vec::with_capacity(2 * records.len());
    for (i, r) in records.iter().enumerate() {
        marks.push((at(r.start), true, i));
        marks.push((at(r.end), false, i));
    }
    marks.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut share = vec![0.0f64; records.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut covered = 0.0;
    let mut last = 0.0;
    for &(t, is_start, i) in &marks {
        if !active.is_empty() {
            let dt = t - last;
            covered += dt;
            for &a in &active {
                share[a] += dt / active.len() as f64;
            }
        }
        last = t;
        if is_start {
            active.push(i);
        } else {
            active.retain(|&a| a != i);
        }
    }

    let wall = t1.duration_since(t0).as_secs_f64();
    let mut split = ProbeSplit {
        match_self: wall - covered,
        ..ProbeSplit::default()
    };
    for (r, &s) in records.iter().zip(&share) {
        threads.insert(r.thread);
        let dur = r.end.duration_since(r.start).as_secs_f64();
        split.busy += dur;
        if r.thread == caller {
            split.caller_busy += dur;
        }
        if dur <= 0.0 {
            split.glue += s;
            continue;
        }
        let scale = s / dur;
        split.forward += r.forward.as_secs_f64() * scale;
        split.emit += r.emit.as_secs_f64() * scale;
        split.stream += r.stream.as_secs_f64() * scale;
        split.finish += r.finish.as_secs_f64() * scale;
        split.glue += r.glue.as_secs_f64() * scale;
    }
    split
}
