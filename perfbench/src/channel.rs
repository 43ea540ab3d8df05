//! The traced observation channel: an [`ObservationModel`] that drives
//! `Device::try_run_with` itself and times every crate it passes through.
//!
//! The device streams into a buffering [`TraceSink`] that only notes when
//! the first bus event arrives; the buffered events are then replayed into
//! `hd_trace::StreamingAnalyzer`. Replay costs one `Vec` push per event,
//! where timing each event in place would cost two clock reads per event
//! (tens of thousands per VGG-S inference). Splitting one observation:
//!
//! * `forward` — `try_run_with` entry to the first bus event: the noise
//!   seed, the lazy forward/PTQ caches and the whole `hd-dnn` forward pass
//!   (its `hd-tensor` kernels included), since the device computes every
//!   layer before it emits anything;
//! * `emit` — first bus event to `try_run_with` return: `hd-accel`'s timing,
//!   encode and event model, plus the buffer pushes;
//! * `stream` — replaying the buffer into the streaming analyzer;
//! * `finish` — `StreamingAnalyzer::finish`;
//! * `glue` — the rest of `observe`: `Observation::from_trace`, channel
//!   projection, and the whole observation for the GEMM channel, which
//!   reads cached call shapes and never runs the device.

use hd_accel::{Device, TraceEvent, TraceSink};
use hd_tensor::{Shape3, Tensor3};
use hd_trace::StreamingAnalyzer;
use huffduff_core::{ChannelKind, Observation, ObservationModel, ObserveError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// What one device inference did, as seen from its sink.
#[derive(Clone, Copy, Debug)]
pub struct DeviceRun {
    /// `try_run_with` entry to return.
    pub wall: Duration,
    /// Bus events emitted.
    pub events: u64,
    /// Bytes those events moved.
    pub dram_bytes: u64,
    /// Simulated time of the last event, in picoseconds.
    pub sim_ps: u64,
    /// The analyzer's high-water mark of unmatched reads.
    pub peak_pending_reads: usize,
}

/// One `observe` call, on one thread.
#[derive(Clone, Copy, Debug)]
pub struct ObserveRecord {
    /// Thread that ran the call.
    pub thread: ThreadId,
    /// Call entry.
    pub start: Instant,
    /// Call return.
    pub end: Instant,
    /// See the module docs for the five parts; they sum to `end - start`.
    pub forward: Duration,
    /// Device event model after the first event.
    pub emit: Duration,
    /// Streaming analysis (replay).
    pub stream: Duration,
    /// Analyzer finish.
    pub finish: Duration,
    /// Observation assembly and channel projection.
    pub glue: Duration,
    /// The device inference, when the channel ran one.
    pub device: Option<DeviceRun>,
}

/// Buffers events and stamps the arrival of the first one.
struct BufferSink {
    events: Vec<TraceEvent>,
    first_event: Option<Instant>,
}

impl TraceSink for BufferSink {
    fn event(&mut self, e: TraceEvent) {
        if self.first_event.is_none() {
            self.first_event = Some(Instant::now());
        }
        self.events.push(e);
    }
}

/// The traced stand-in for `kind.model(device)`.
pub struct TracedChannel<'d> {
    device: &'d Device,
    kind: ChannelKind,
    records: Mutex<Vec<ObserveRecord>>,
    // Capacity hint for the event buffer: the previous run's event count.
    // A statistic only, so relaxed ordering suffices.
    last_events: AtomicUsize,
}

impl<'d> TracedChannel<'d> {
    /// Wraps `device` as the channel `kind`.
    pub fn new(device: &'d Device, kind: ChannelKind) -> Self {
        TracedChannel {
            device,
            kind,
            records: Mutex::new(Vec::new()),
            last_events: AtomicUsize::new(0),
        }
    }

    /// Every observation recorded so far, in completion order.
    pub fn into_records(self) -> Vec<ObserveRecord> {
        self.records
            .into_inner()
            .expect("no observe call panicked while holding the record lock")
    }

    fn record(&self, r: ObserveRecord) {
        self.records
            .lock()
            .expect("no observe call panicked while holding the record lock")
            .push(r);
    }
}

impl ObservationModel for TracedChannel<'_> {
    fn input_shape(&self) -> Shape3 {
        self.device.input_shape()
    }

    fn observe(&self, image: &Tensor3) -> Result<Observation, ObserveError> {
        let thread = std::thread::current().id();
        let start = Instant::now();
        if self.kind == ChannelKind::Gemm {
            let obs = self.kind.model(self.device).observe(image);
            let end = Instant::now();
            self.record(ObserveRecord {
                thread,
                start,
                end,
                forward: Duration::ZERO,
                emit: Duration::ZERO,
                stream: Duration::ZERO,
                finish: Duration::ZERO,
                glue: end - start,
                device: None,
            });
            return obs;
        }

        let mut sink = BufferSink {
            events: Vec::with_capacity(self.last_events.load(Ordering::Relaxed)),
            first_event: None,
        };
        let run_start = Instant::now();
        let run = self.device.try_run_with(image, &mut sink);
        let run_end = Instant::now();
        run.map_err(ObserveError::Device)?;
        self.last_events.store(sink.events.len(), Ordering::Relaxed);

        let mut analyzer = StreamingAnalyzer::new();
        for &e in &sink.events {
            analyzer.event(e);
        }
        let streamed = Instant::now();
        let peak_pending_reads = analyzer.peak_pending_reads();
        let analysis = analyzer.finish()?;
        let finished = Instant::now();
        let obs = Observation::from_trace(analysis);
        let obs = match self.kind {
            ChannelKind::Full => obs,
            kind => obs.project(kind),
        };
        let end = Instant::now();

        let first_event = sink.first_event.unwrap_or(run_end);
        self.record(ObserveRecord {
            thread,
            start,
            end,
            forward: first_event - run_start,
            emit: run_end - first_event,
            stream: streamed - run_end,
            finish: finished - streamed,
            glue: (run_start - start) + (end - finished),
            device: Some(DeviceRun {
                wall: run_end - run_start,
                events: sink.events.len() as u64,
                dram_bytes: sink.events.iter().map(|e| e.bytes).sum(),
                sim_ps: sink.events.last().map_or(0, |e| e.time_ps),
                peak_pending_reads,
            }),
        });
        Ok(obs)
    }
}
