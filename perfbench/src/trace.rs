//! In-memory span recorder for the traced run.
//!
//! Every thread that opens a span gets its own buffer (no locking on the
//! hot path). A span records its layer, start and end on one process-wide
//! clock, its parent span on the same thread, an item id (tile index or
//! request sequence number) and the number of shots it covered. Buffers
//! move into a process-wide sink when their thread finishes and are
//! written out once, when the run ends.
//!
//! Decoder calls are timed one by one but recorded as one span per run of
//! consecutive same-band calls under the same parent (the pipeline
//! dispatches a tile's hard shots in ascending Hamming weight, so that is
//! a few spans per tile): the span carries the summed time and count of
//! its calls, which keeps millions of sub-microsecond calls out of the
//! buffers without losing any of their time.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A layer boundary the benchmark times from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Lifetime of a sampling thread.
    Producer,
    /// Lifetime of a decoding thread.
    Consumer,
    /// Building one decoder through the public factory.
    Factory,
    /// `PackedSyndromeSource::sample_tile`.
    Sample,
    /// Blocking send of a sampled tile into the bounded channel.
    SendWait,
    /// Blocking `TileQueue::next_tile`.
    QueueWait,
    /// `decode_tile`, minus the decoder calls inside it.
    DecodeTile,
    /// `decode_same_weight_batch` and k ≤ 4 decoder calls.
    ClosedForm,
    /// Decoder calls in the subset-DP band.
    Dp,
    /// Decoder calls beyond the DP band.
    Deep,
    /// Replay of a deep shot's detector list through `stage_ondemand`.
    Discover,
    /// Writing one request frame to the socket.
    WireSend,
}

impl Layer {
    /// Stable name used in the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Producer => "producer",
            Layer::Consumer => "consumer",
            Layer::Factory => "factory",
            Layer::Sample => "sample_tile",
            Layer::SendWait => "send_wait",
            Layer::QueueWait => "next_tile_wait",
            Layer::DecodeTile => "decode_tile",
            Layer::ClosedForm => "closed_form",
            Layer::Dp => "dp",
            Layer::Deep => "deep",
            Layer::Discover => "discover_replay",
            Layer::WireSend => "wire_send",
        }
    }

    /// Thread-lifetime roots: their self time is what no layer accounts for.
    pub fn is_root(self) -> bool {
        matches!(self, Layer::Producer | Layer::Consumer)
    }
}

/// Sentinel parent of a span opened with nothing open on its thread.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: u32,
    /// Tile index, request sequence number or thread index.
    pub id: u64,
    /// Shots the span covered.
    pub shots: u64,
    /// Summed Hamming weight of its decoder calls, 0 elsewhere.
    pub k_sum: u64,
    /// Calls the span aggregates (1 for an ordinary span).
    pub calls: u64,
    /// Time inside the span's calls; `end_ns - start_ns` for an ordinary
    /// span.
    pub busy_ns: u64,
    aggregate: bool,
}

/// Everything one thread recorded.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    pub thread: u32,
    pub spans: Vec<Span>,
    /// Concatenated detector lists of the deep decoder calls, for the
    /// discovery replay.
    pub deep_dets: Vec<u32>,
    pub deep_ends: Vec<usize>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SINK: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());

struct Recorder {
    trace: ThreadTrace,
    stack: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn with_rec<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    REC.with(|cell| {
        let mut slot = cell.borrow_mut();
        let rec = slot.get_or_insert_with(|| Recorder {
            trace: ThreadTrace {
                thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                ..ThreadTrace::default()
            },
            stack: Vec::new(),
        });
        f(rec)
    })
}

/// An open span; closes when dropped.
#[must_use = "a span closes when this guard drops"]
pub struct Guard {
    active: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.active {
            let end = now_ns();
            with_rec(|rec| {
                let idx = rec.stack.pop().expect("span stack underflow");
                let span = &mut rec.trace.spans[idx as usize];
                span.end_ns = end;
                span.busy_ns = end - span.start_ns;
            });
        }
    }
}

/// Opens a span on the calling thread (a no-op while recording is off).
pub fn span(layer: Layer, id: u64, shots: u64) -> Guard {
    if !enabled() {
        return Guard { active: false };
    }
    with_rec(|rec| {
        let idx = rec.trace.spans.len() as u32;
        let parent = rec.stack.last().copied().unwrap_or(NO_PARENT);
        let start = now_ns();
        rec.trace.spans.push(Span {
            layer,
            start_ns: start,
            end_ns: start,
            parent,
            id,
            shots,
            k_sum: 0,
            calls: 1,
            busy_ns: 0,
            aggregate: false,
        });
        rec.stack.push(idx);
    });
    Guard { active: true }
}

/// A timed decoder call; folds into an aggregate span when dropped.
#[must_use = "a call is recorded when this guard drops"]
pub struct CallGuard {
    layer: Layer,
    shots: u64,
    k: u64,
    start_ns: u64,
}

impl Drop for CallGuard {
    fn drop(&mut self) {
        if self.start_ns == u64::MAX {
            return;
        }
        let end = now_ns();
        with_rec(|rec| {
            let parent = rec.stack.last().copied().unwrap_or(NO_PARENT);
            let dur = end - self.start_ns;
            match rec.trace.spans.last_mut() {
                Some(s) if s.aggregate && s.layer == self.layer && s.parent == parent => {
                    s.end_ns = end;
                    s.shots += self.shots;
                    s.k_sum += self.k;
                    s.calls += 1;
                    s.busy_ns += dur;
                }
                _ => rec.trace.spans.push(Span {
                    layer: self.layer,
                    start_ns: self.start_ns,
                    end_ns: end,
                    parent,
                    id: 0,
                    shots: self.shots,
                    k_sum: self.k,
                    calls: 1,
                    busy_ns: dur,
                    aggregate: true,
                }),
            }
        });
    }
}

/// Times one decoder call of Hamming weight `k` covering `shots` shots
/// (a no-op while recording is off).
pub fn call(layer: Layer, shots: u64, k: u64) -> CallGuard {
    let start_ns = if enabled() { now_ns() } else { u64::MAX };
    CallGuard {
        layer,
        shots,
        k,
        start_ns,
    }
}

/// Keeps a deep shot's detector list for the discovery replay.
pub fn record_deep_list(dets: &[u32]) {
    if enabled() {
        with_rec(|rec| {
            rec.trace.deep_dets.extend_from_slice(dets);
            rec.trace.deep_ends.push(rec.trace.deep_dets.len());
        });
    }
}

/// Moves the calling thread's buffer into the sink. Call it last thing
/// on every thread that recorded spans; while a span is still open on
/// the thread it does nothing.
pub fn finish_thread() {
    let rec = REC.with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_ref() {
            Some(rec) if rec.stack.is_empty() => slot.take(),
            _ => None,
        }
    });
    if let Some(rec) = rec {
        SINK.lock().expect("trace sink poisoned").push(rec.trace);
    }
}

/// Takes every finished thread's buffer out of the sink.
pub fn take_all() -> Vec<ThreadTrace> {
    std::mem::take(&mut *SINK.lock().expect("trace sink poisoned"))
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Calls (an aggregate span counts each call it holds).
    pub count: u64,
    pub shots: u64,
    pub k_sum: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// Sums busy time and self time (busy time minus the children's busy
/// time) per layer, over spans whose start lies in `[from_ns, to_ns)`.
pub fn totals(threads: &[ThreadTrace], from_ns: u64, to_ns: u64) -> Vec<(Layer, LayerTotals)> {
    let mut out: Vec<(Layer, LayerTotals)> = Vec::new();
    for t in threads {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.busy_ns;
            }
        }
        for (s, child) in t.spans.iter().zip(&child_ns) {
            if s.start_ns < from_ns || s.start_ns >= to_ns {
                continue;
            }
            let pos = match out.iter().position(|(l, _)| *l == s.layer) {
                Some(p) => p,
                None => {
                    out.push((s.layer, LayerTotals::default()));
                    out.len() - 1
                }
            };
            let tot = &mut out[pos].1;
            tot.count += s.calls;
            tot.shots += s.shots;
            tot.k_sum += s.k_sum;
            tot.dur_ns += s.busy_ns;
            tot.self_ns += s.busy_ns.saturating_sub(*child);
        }
    }
    out.sort_by_key(|(l, _)| *l);
    out
}

/// Looks one layer up in [`totals`] output.
pub fn get(totals: &[(Layer, LayerTotals)], layer: Layer) -> LayerTotals {
    totals
        .iter()
        .find(|(l, _)| *l == layer)
        .map(|(_, t)| *t)
        .unwrap_or_default()
}

/// Writes every span as one tab-separated line.
pub fn write_spans(path: &std::path::Path, threads: &[ThreadTrace]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "thread\tspan\tparent\tlayer\tstart_ns\tend_ns\tbusy_ns\tcalls\tid\tshots\tk_sum"
    )?;
    for t in threads {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                t.thread,
                i,
                parent,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.calls,
                s.id,
                s.shots,
                s.k_sum
            )?;
        }
    }
    w.flush()
}
