//! Wall-clock spans recorded from the benchmark's own code, around the
//! calls it makes into each layer. Spans stay in memory and are written out
//! once the run is over.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use edvit::edge::SubModelFn;

/// Lane of spans that belong to no device (fusion, whole calls, solo calls).
pub const HOST_LANE: usize = usize::MAX;

/// Call id of spans timed outside any scheduler call.
pub const SOLO_CALL: u64 = u64::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer and entry point, e.g. `vit.forward`.
    pub layer: &'static str,
    /// Sub-model index for device spans, [`HOST_LANE`] otherwise.
    pub lane: usize,
    /// Scheduler call the span belongs to (its parent `call` span).
    pub call: u64,
    /// Position among the spans of this layer and lane within the call.
    pub seq: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Shared in-memory span store; clones record into the same store.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span.
    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(span);
    }

    /// Times `f` as a solo span of `layer` on `lane`; solo spans belong to no
    /// scheduler call and carry the call id [`SOLO_CALL`].
    pub fn time<T>(&self, layer: &'static str, lane: usize, seq: u64, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        self.push(Span {
            layer,
            lane,
            call: SOLO_CALL,
            seq,
            start_ns,
            end_ns: self.now(),
        });
        out
    }

    /// Wraps an executor (a `SubModelFn`, or a `FusionFn`, which has the same
    /// type) so every invocation records a span.
    pub fn wrap(
        &self,
        layer: &'static str,
        lane: usize,
        call: u64,
        mut f: SubModelFn,
    ) -> SubModelFn {
        let tracer = self.clone();
        let mut seq = 0u64;
        Box::new(move |input| {
            let start_ns = tracer.now();
            let out = f(input);
            tracer.push(Span {
                layer,
                lane,
                call,
                seq,
                start_ns,
                end_ns: tracer.now(),
            });
            seq += 1;
            out
        })
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .clone()
    }
}

/// Durations in milliseconds of every span of `layer`.
pub fn durations(spans: &[Span], layer: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(Span::ms)
        .collect()
}

/// Durations in milliseconds of the spans of `layer` on `lane`.
pub fn lane_durations(spans: &[Span], layer: &str, lane: usize) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.lane == lane)
        .map(Span::ms)
        .collect()
}

/// Length in nanoseconds of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Per-layer totals: `(count, total ms, self ms)`. A `call` span's self time
/// is its duration minus the part its child spans (same call id) cover; the
/// other layers have no children, so their self time is their duration.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for span in spans {
        let self_ns = if span.layer == "call" {
            let children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.layer != "call" && c.call == span.call)
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            let total = span.end_ns.saturating_sub(span.start_ns);
            total - covered(children, span.start_ns, span.end_ns).min(total)
        } else {
            span.end_ns.saturating_sub(span.start_ns)
        };
        let row = table.entry(span.layer).or_default();
        row.0 += 1;
        row.1 += span.ms();
        row.2 += self_ns as f64 / 1e6;
    }
    table
}

/// Per sample, the fusion call's start minus the end of the last device
/// forward for that sample, in milliseconds. Devices and the fusion worker
/// both see samples in stream order, so the k-th span of each lane in a call
/// belongs to the call's k-th sample.
pub fn handoffs(spans: &[Span], forward: &str, fusion: &str) -> Vec<f64> {
    let mut last_end: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.layer == forward) {
        let end = last_end.entry((s.call, s.seq)).or_default();
        *end = (*end).max(s.end_ns);
    }
    spans
        .iter()
        .filter(|s| s.layer == fusion)
        .filter_map(|f| {
            let end = last_end.get(&(f.call, f.seq))?;
            Some((f.start_ns as f64 - *end as f64) / 1e6)
        })
        .collect()
}

/// The spans as tab-separated text, one span per line.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut text = String::from("layer\tlane\tcall\tseq\tstart_ns\tend_ns\n");
    for s in spans {
        let lane = if s.lane == HOST_LANE {
            "host".to_string()
        } else {
            s.lane.to_string()
        };
        let _ = writeln!(
            text,
            "{}\t{lane}\t{}\t{}\t{}\t{}",
            s.layer, s.call, s.seq, s.start_ns, s.end_ns
        );
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, lane: usize, call: u64, seq: u64, start: u64, end: u64) -> Span {
        Span {
            layer,
            lane,
            call,
            seq,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn call_self_time_excludes_overlapping_children() {
        let spans = vec![
            span("call", HOST_LANE, 0, 0, 0, 100),
            span("fwd", 0, 0, 0, 10, 50),
            span("fwd", 1, 0, 0, 20, 60),
            span("fuse", HOST_LANE, 0, 0, 70, 80),
        ];
        let table = self_times(&spans);
        let (count, _, self_ns) = table["call"];
        assert_eq!(count, 1);
        // Children cover [10, 60] and [70, 80]: 60 of the 100 ns.
        assert!((self_ns - 40.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn handoff_waits_for_the_slowest_device() {
        let spans = vec![
            span("fwd", 0, 0, 0, 0, 10),
            span("fwd", 1, 0, 0, 0, 30),
            span("fuse", HOST_LANE, 0, 0, 35, 40),
        ];
        let h = handoffs(&spans, "fwd", "fuse");
        assert_eq!(h.len(), 1);
        assert!((h[0] - 5.0 / 1e6).abs() < 1e-12);
    }
}
