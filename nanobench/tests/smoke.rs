//! Smoke-length runs of the benchmark: one pass per mode, the metric
//! names against `BENCHMARK.json`, and a deliberately broken check.

use std::path::Path;

use nanomap_benchmark::bench::{run, Config, Outcome};
use nanomap_benchmark::workload::Verdict;
use nanomap_observe::json::{parse, JsonValue};

fn smoke(workload: &str, trace: bool, pins: Vec<(String, Verdict)>) -> (Outcome, String) {
    let cfg = Config {
        workload: workload.into(),
        seed: 1,
        seconds: 0.0,
        trace,
        pins,
    };
    let mut out = Vec::new();
    let outcome = run(&cfg, &mut out).expect("set-up succeeds");
    (outcome, String::from_utf8(out).expect("utf-8 progress"))
}

/// Metric names of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let doc = parse(&text).expect("valid JSON");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

fn names(outcome: &Outcome) -> Vec<String> {
    outcome.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn one_pass_reports_every_end_to_end_metric() {
    let (outcome, progress) = smoke("dsp-pack", false, Vec::new());
    assert!(outcome.correct, "{progress}");
    // Three verification mappings plus one timed pass of three jobs.
    assert_eq!(outcome.tally.attempted, 6);
    assert_eq!(outcome.tally.failed, 0);
    assert_eq!(names(&outcome), declared("end_to_end"));
    let ok = outcome
        .metrics
        .iter()
        .find(|m| m.name == "ok_frac")
        .unwrap();
    assert_eq!(ok.value, 1.0);
    assert!(outcome.metrics.iter().all(|m| m.value > 0.0));
    assert!(progress.starts_with("# host nproc="), "{progress}");
    let line = outcome.to_json().to_compact_string();
    let back = parse(&line).unwrap();
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(back.get(key).is_some(), "{key} missing from {line}");
    }
}

#[test]
fn traced_pass_reports_every_per_layer_metric_and_checks_premises() {
    let (outcome, progress) = smoke("dsp-pack", true, Vec::new());
    assert!(outcome.correct, "{progress}");
    assert_eq!(names(&outcome), declared("per_layer"));
    assert!(
        progress.contains("# layer shares on dsp-pack"),
        "{progress}"
    );
    assert!(progress.contains("# premise dsp-pack:"), "{progress}");
    let value = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap()
    };
    assert!(value("pack.ms") > 0.0);
    assert!(value("pack.alloc_mb") > 0.0);
    assert_eq!(value("recovery.useful_ratio"), 1.0);
    assert_eq!(value("sat.solves"), 0.0);
}

#[test]
fn a_wrong_pinned_verdict_fails_the_run() {
    let pins = vec![("Paulin".to_string(), Verdict::ExactAssign)];
    let (outcome, progress) = smoke("dsp-pack", false, pins);
    assert!(!outcome.correct);
    // Paulin's verification and timed mappings both miss.
    assert_eq!(outcome.tally.failed, 2, "{progress}");
    let ok = outcome
        .metrics
        .iter()
        .find(|m| m.name == "ok_frac")
        .unwrap();
    assert!((ok.value - 4.0 / 6.0).abs() < 1e-12);
    assert!(progress.contains("# FAIL Paulin"), "{progress}");
}

#[test]
fn unknown_workloads_and_jobs_are_refused() {
    let mut out = Vec::new();
    let cfg = Config {
        workload: "no-such-workload".into(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        pins: Vec::new(),
    };
    assert!(run(&cfg, &mut out).is_err());
    let cfg = Config {
        workload: "dsp-pack".into(),
        pins: vec![("no-such-job".into(), Verdict::Baseline)],
        ..cfg
    };
    assert!(run(&cfg, &mut out).is_err());
}
