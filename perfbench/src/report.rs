//! Printing: runner context, the human-readable table, and the one-line
//! JSON result the benchmark ends with.

use std::fmt::Write as _;
use std::path::Path;

use edvit_parallel::ParallelPool;

use crate::{Outcome, RunSpec};

/// The commit of the checkout in the working directory, read from `.git`
/// without leaving it; `unknown` when it is not a git checkout.
fn commit() -> String {
    let git = Path::new(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Runner-context lines: core count, pool size, thread override, seed,
/// compiler and commit.
pub fn context(spec: &RunSpec) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let threads_env = std::env::var("EDVIT_THREADS").unwrap_or_else(|_| "unset".to_string());
    vec![
        format!(
            "workload: {}  seed: {}  seconds: {}  trace: {}",
            spec.workload.name(),
            spec.seed,
            spec.seconds,
            u8::from(spec.trace)
        ),
        format!(
            "runner: nproc={nproc} pool_threads={} EDVIT_THREADS={threads_env}",
            ParallelPool::global().threads()
        ),
        format!(
            "build: {} commit={}",
            env!("PERFBENCH_RUSTC_VERSION"),
            commit()
        ),
    ]
}

/// The human-readable table of an outcome.
pub fn table(outcome: &Outcome) -> Vec<String> {
    let mut lines: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("{:<28} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note))
        .collect();
    lines.extend(outcome.lines.iter().cloned());
    lines.push(format!(
        "checks: {} attempted, {} failed",
        outcome.checks.attempted, outcome.checks.failed
    ));
    for problem in &outcome.checks.problems {
        lines.push(format!("CHECK FAILED: {problem}"));
    }
    lines
}

/// A JSON number: finite values as Rust prints them (shortest round-trip
/// form, every digit kept), anything else as 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its unit.
pub fn json(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.checks.correct(),
        outcome.checks.attempted.max(1),
        outcome.checks.failed
    )
}
