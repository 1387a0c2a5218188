//! `edvit-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the runner context and a human-readable table, then as its last
//! line one JSON object with `correct`, `attempted`, `failed` and the
//! metrics. Exits non-zero when any output check fails.

use std::process::ExitCode;

use edvit_perfbench::{report, run, RunSpec, Workload};

fn usage() -> String {
    let names: Vec<&str> = edvit_perfbench::workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    format!(
        "usage: edvit-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunSpec {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tiny: false,
        corrupt_reference: false,
        spans_dir: Some(".bench_out".into()),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for line in report::context(&spec) {
        println!("{line}");
    }
    let outcome = match run(&spec) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in report::table(&outcome) {
        println!("{line}");
    }
    println!("{}", report::json(&outcome));
    if outcome.checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
