//! Wall-clock benchmark of real ED-ViT inference requests.
//!
//! Each workload builds a seeded random-weight deployment at paper-scale or
//! trainable-scale shapes and drives real requests through the public facade
//! entry points (`run_streaming`, `run_distributed`, `run_server`). Untraced
//! runs give the end-to-end metrics; a separate traced run wraps the
//! executors handed to the schedulers and times solo calls into each layer,
//! which gives the per-layer metrics. Every fused output is checked bitwise
//! against an in-process reference.

#![forbid(unsafe_code)]

pub mod deploy;
pub mod measure;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;

pub use workload::Workload;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_sps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("vit.forward_calls", "count"),
    ("vit.forward_ms", "ms"),
    ("vit.forward_solo_ms", "ms"),
    ("vit.contention", "ratio"),
    ("vit.gflops", "GFLOP/s"),
    ("vit.device_busy_share", "ratio"),
    ("nn.patch_embed_ms", "ms"),
    ("nn.layernorm_ms", "ms"),
    ("nn.mhsa_ms", "ms"),
    ("nn.mlp_ms", "ms"),
    ("nn.gelu_ms", "ms"),
    ("vit.unattributed_ms", "ms"),
    ("fusion.calls", "count"),
    ("fusion.ms", "ms"),
    ("wire.data_frames", "count"),
    ("wire.bytes", "bytes"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("sched.rounds", "count"),
    ("sched.mean_round_size", "samples"),
    ("sched.max_rounds_in_flight", "count"),
    ("sched.handoff_ms", "ms"),
    ("net.call_overhead_ms", "ms"),
    ("serve.drill_ms", "ms"),
    ("serve.rounds", "count"),
    ("serve.mean_batch", "requests"),
    ("serve.shed", "count"),
    ("serve.depth_changes", "count"),
    ("serve.virtual_p99_s", "s"),
    ("metrics.events", "count"),
    ("metrics.journal_bytes", "bytes"),
    ("metrics.replay_ms", "ms"),
    ("metrics.sink_overhead", "ratio"),
    ("partition.plan_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// One run as the command line asks for it.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Which workload.
    pub workload: Workload,
    /// Seed of weights, images and arrivals.
    pub seed: u64,
    /// How long the run measures, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Minimal model and call counts, for the self-test.
    pub tiny: bool,
    /// Deliberately perturb the reference so the output check must fail.
    pub corrupt_reference: bool,
    /// Where the traced run writes its spans; `None` keeps them in memory.
    pub spans_dir: Option<std::path::PathBuf>,
}

/// A measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// How it was measured, for the human-readable table.
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Output checks.
    pub checks: workload::Checks,
    /// The metrics, in `END_TO_END` or `PER_LAYER` order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (tails, context, span tables).
    pub lines: Vec<String>,
}

/// Adds context to an error on its way out.
pub(crate) trait Ctx<T> {
    fn ctx(self, what: &str) -> Result<T, String>;
}

impl<T, E: std::fmt::Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Returns a message when the deployment cannot be built; failures of the
/// measured calls are counted in the outcome's checks instead.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    if spec.trace {
        measure::traced(spec)
    } else {
        measure::end_to_end(spec)
    }
}
