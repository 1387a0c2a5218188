//! Minimal-size self-test: every named metric is printed with its unit,
//! `BENCHMARK.json` names the same metrics, and a deliberately wrong
//! reference makes the output check fail.

use edvit_perfbench::workload::ALL;
use edvit_perfbench::{report, run, RunSpec, Workload, END_TO_END, PER_LAYER};

fn spec(workload: Workload, trace: bool, corrupt_reference: bool) -> RunSpec {
    RunSpec {
        workload,
        seed: 7,
        seconds: 0.05,
        trace,
        tiny: true,
        corrupt_reference,
        spans_dir: None,
    }
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for workload in ALL {
        for trace in [false, true] {
            let outcome = run(&spec(workload, trace, false)).expect("tiny run");
            assert!(
                outcome.checks.correct(),
                "{} trace={trace}: {:?}",
                workload.name(),
                outcome.checks.problems
            );
            let json = report::json(&outcome);
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            let table = report::table(&outcome).join("\n");
            let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_eq!(outcome.metrics.len(), names.len());
            for &(name, unit) in names {
                let needle = format!("\"{name}\": {{\"value\": ");
                let at = json
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{name} missing from {json}"));
                let (value, after) = json[at + needle.len()..]
                    .split_once(", ")
                    .expect("value, then unit");
                let value: f64 = value.parse().expect("numeric value");
                assert!(value.is_finite(), "{name} = {value}");
                assert!(
                    after.starts_with(&format!("\"unit\": \"{unit}\"}}")),
                    "{name} printed without unit {unit}"
                );
                assert!(table.contains(name), "{name} missing from the table");
            }
        }
    }
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = text.split_whitespace().collect();
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in ALL {
        let entry = format!("\"name\":\"{}\"", workload.name());
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

#[test]
fn a_wrong_reference_fails_the_check() {
    for workload in ALL {
        let outcome = run(&spec(workload, false, true)).expect("tiny run");
        assert!(!outcome.checks.correct(), "{}", workload.name());
        assert!(outcome.checks.failed > 0);
        assert!(report::json(&outcome).starts_with("{\"correct\": false"));
    }
}
