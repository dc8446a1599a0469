//! Outside-in probes: process CPU time and peak RSS from `/proc`, the
//! sending thread's timer slack, and a timing [`Decoder`] wrapper handed
//! to the pipeline through the public factory.

use decoding_graph::{DecodeScratch, Decoder, LocalWeightStats, Prediction};

use crate::trace::{self, Layer};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 in the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("malformed /proc/self/stat") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3; utime and stime are fields 14 and 15.
    let ticks = |i: usize| -> f64 { fields[i - 3].parse::<f64>().expect("numeric stat field") };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Sets the calling thread's timer slack, so its sleeps end within
/// `ns` of the deadline rather than the default 50 µs. Returns whether
/// the kernel accepted it.
pub fn set_thread_timer_slack_ns(ns: u64) -> bool {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
    // touches no caller memory; it changes only the calling thread.
    unsafe { prctl(PR_SET_TIMERSLACK, ns as std::ffi::c_ulong) == 0 }
}

/// Wraps a decoder and records one span per call, by Hamming-weight
/// band: same-weight batches and k ≤ 4 calls as the closed forms, k up
/// to `DP_NODE_LIMIT` as the subset DP, and the rest as the deep tail.
/// Every call is forwarded unchanged, so predictions and pipeline
/// counters match the bare decoder's.
pub struct TimingDecoder<'a> {
    inner: Box<dyn Decoder + 'a>,
    keep_deep_lists: bool,
}

impl<'a> TimingDecoder<'a> {
    /// Wraps `inner`; with `keep_deep_lists` the deep calls' detector
    /// lists are kept for the discovery replay.
    pub fn new(inner: Box<dyn Decoder + 'a>, keep_deep_lists: bool) -> TimingDecoder<'a> {
        TimingDecoder {
            inner,
            keep_deep_lists,
        }
    }

    /// Starts timing one single-shot call in its Hamming-weight band.
    fn begin(&self, detectors: &[u32]) -> trace::CallGuard {
        let k = detectors.len();
        let layer = if k <= 4 {
            Layer::ClosedForm
        } else if k <= blossom_mwpm::DP_NODE_LIMIT {
            Layer::Dp
        } else {
            Layer::Deep
        };
        if layer == Layer::Deep && self.keep_deep_lists {
            trace::record_deep_list(detectors);
        }
        trace::call(layer, 1, k as u64)
    }
}

impl Decoder for TimingDecoder<'_> {
    fn decode(&mut self, detectors: &[u32]) -> Prediction {
        let _c = self.begin(detectors);
        self.inner.decode(detectors)
    }

    fn decode_with_scratch(
        &mut self,
        detectors: &[u32],
        scratch: &mut DecodeScratch,
    ) -> Prediction {
        let _c = self.begin(detectors);
        self.inner.decode_with_scratch(detectors, scratch)
    }

    fn decode_same_weight_batch(
        &mut self,
        k: usize,
        detectors: &[u32],
        out: &mut [Prediction],
        scratch: &mut DecodeScratch,
    ) {
        let _c = trace::call(Layer::ClosedForm, out.len() as u64, (k * out.len()) as u64);
        self.inner
            .decode_same_weight_batch(k, detectors, out, scratch);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn local_weight_stats(&self) -> Option<LocalWeightStats> {
        self.inner.local_weight_stats()
    }
}

impl Drop for TimingDecoder<'_> {
    /// Service workers drop their decoder last thing before exiting, so
    /// this hands their spans to the sink.
    fn drop(&mut self) {
        trace::finish_thread();
    }
}
