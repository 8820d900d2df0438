//! End-to-end checks of the observability sinks and the metrics gate
//! through the `nanomap` binary: Chrome-trace export, metrics-on-stdout,
//! QoR document emission, and `qor-diff`/`perf-diff` exit codes.

use std::path::PathBuf;
use std::process::Command;

use nanomap::{MetricsDocument, Schema};
use nanomap_observe::json::{parse, JsonValue};

fn repo_file(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
}

fn design() -> PathBuf {
    repo_file("designs/accumulator.vhd")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nanomap-qor-gate-{}-{name}", std::process::id()))
}

fn nanomap(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_nanomap"))
        .args(args)
        .output()
        .expect("spawns")
}

/// The acceptance scenario: one CLI run produces a Perfetto-loadable trace
/// with X events for all seven phases and counter tracks for the
/// convergence series, plus metrics and a QoR document.
#[test]
fn cli_emits_trace_metrics_and_qor() {
    let trace_path = tmp("trace.json");
    let metrics_path = tmp("metrics.json");
    let qor_path = tmp("qor.json");
    let design = design();
    let out = nanomap(&[
        design.to_str().unwrap(),
        "--chrome-trace",
        trace_path.to_str().unwrap(),
        "--metrics",
        metrics_path.to_str().unwrap(),
        "--qor",
        qor_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --- Chrome trace: structure, phase spans, counter tracks. ---
    let trace = parse(&std::fs::read_to_string(&trace_path).unwrap()).expect("trace is JSON");
    let events = trace
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents");
    let of_phase = |ph: &str| -> Vec<&JsonValue> {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some(ph))
            .collect()
    };
    let span_names: Vec<&str> = of_phase("X")
        .iter()
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    for phase in [
        "folding-select",
        "fds",
        "pack",
        "place",
        "route",
        "bitmap",
        "verify",
    ] {
        assert!(span_names.contains(&phase), "missing X event for {phase}");
    }
    let counter_names: Vec<&str> = of_phase("C")
        .iter()
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    for series in ["place.cost", "route.overuse"] {
        assert!(
            counter_names.contains(&series),
            "missing counter track {series} (got {counter_names:?})"
        );
    }
    // Every X event has the fields Perfetto requires.
    for e in of_phase("X") {
        for field in ["pid", "tid", "ts", "dur"] {
            assert!(e.get(field).is_some(), "X event missing {field}");
        }
    }

    // --- Metrics JSON carries the series next to spans/counters. ---
    let metrics = parse(&std::fs::read_to_string(&metrics_path).unwrap()).expect("metrics JSON");
    assert!(metrics
        .get("metrics")
        .and_then(|m| m.get("series"))
        .and_then(|s| s.get("place.cost"))
        .is_some());

    // --- QoR document parses under the schema and covers the basics. ---
    let qor_text = std::fs::read_to_string(&qor_path).unwrap();
    let doc = MetricsDocument::parse(&qor_text, Schema::Qor).expect("QoR schema");
    let report = doc.circuit("accumulator").expect("accumulator report");
    for metric in [
        "num_luts",
        "num_les",
        "num_smbs",
        "delay_ns",
        "channel_width",
    ] {
        assert!(report.metrics.contains_key(metric), "missing {metric}");
    }
    assert!(report.metrics.keys().any(|k| k.starts_with("peak.")));

    for p in [trace_path, metrics_path, qor_path] {
        let _ = std::fs::remove_file(p);
    }
}

/// `--metrics -` writes machine-readable JSON to stdout and moves the
/// human report to stderr; two sinks claiming stdout is an error naming
/// both flags.
#[test]
fn metrics_on_stdout_and_conflicting_sinks() {
    let design = design();
    let out = nanomap(&[design.to_str().unwrap(), "--metrics", "-"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let doc = parse(&stdout).expect("stdout is exactly one JSON document");
    assert!(doc.get("report").is_some() && doc.get("metrics").is_some());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("accumulator"),
        "human report should move to stderr"
    );

    // --trace combines with --metrics -: echo goes to stderr, stdout stays
    // a single JSON document.
    let out = nanomap(&[design.to_str().unwrap(), "--metrics", "-", "--trace"]);
    assert!(out.status.success());
    parse(&String::from_utf8(out.stdout).unwrap()).expect("stdout still pure JSON");

    let out = nanomap(&[
        design.to_str().unwrap(),
        "--metrics",
        "-",
        "--chrome-trace",
        "-",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--metrics") && stderr.contains("--chrome-trace"),
        "conflict error must name both flags: {stderr}"
    );
}

/// `qor-diff` exits zero on identical documents and non-zero once a gated
/// metric moves outside tolerance.
#[test]
fn qor_diff_gates_on_regression() {
    let qor_path = tmp("diff-base.json");
    let design = design();
    let out = nanomap(&[
        design.to_str().unwrap(),
        "--qor",
        qor_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let base = qor_path.to_str().unwrap();
    let out = nanomap(&["qor-diff", base, base]);
    assert!(out.status.success(), "identical documents must pass");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("QoR gate: PASS"));

    // Mutate one exactly-gated metric and expect failure.
    let text = std::fs::read_to_string(&qor_path).unwrap();
    let mut doc = MetricsDocument::parse(&text, Schema::Qor).unwrap();
    *doc.circuits[0].metrics.get_mut("num_les").unwrap() += 1.0;
    let bad_path = tmp("diff-bad.json");
    std::fs::write(&bad_path, doc.to_json().to_pretty_string()).unwrap();

    let out = nanomap(&["qor-diff", base, bad_path.to_str().unwrap()]);
    assert!(
        !out.status.success(),
        "a moved exact metric must fail the gate"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION") && stdout.contains("num_les"));

    // A missing circuit also fails.
    std::fs::write(
        &bad_path,
        MetricsDocument::new(Schema::Qor, vec![])
            .to_json()
            .to_pretty_string(),
    )
    .unwrap();
    let out = nanomap(&["qor-diff", base, bad_path.to_str().unwrap()]);
    assert!(
        !out.status.success(),
        "a vanished circuit must fail the gate"
    );

    for p in [qor_path, bad_path] {
        let _ = std::fs::remove_file(p);
    }
}

/// `perf-diff` exits zero on identical documents, non-zero once a phase
/// median slows down past both bands, and rejects a QoR document.
#[test]
fn perf_diff_gates_on_regression_and_schema() {
    let base_path = repo_file("results/perf/bench.json");
    let base = base_path.to_str().unwrap();
    let out = nanomap(&["perf-diff", base, base]);
    assert!(out.status.success(), "identical documents must pass");
    assert!(String::from_utf8_lossy(&out.stdout).contains("perf gate: PASS"));

    // Triple the slowest phase median of the first circuit.
    let text = std::fs::read_to_string(&base_path).unwrap();
    let mut doc = MetricsDocument::parse(&text, Schema::Perf).unwrap();
    let (metric, median) = doc.circuits[0]
        .metrics
        .iter()
        .filter(|(name, _)| name.ends_with(".median_ms"))
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(name, &ms)| (name.clone(), ms))
        .expect("a phase median");
    assert!(2.0 * median > 25.0, "{metric} too fast to clear the guard");
    doc.circuits[0].set(&metric, 3.0 * median);
    let slow_path = tmp("perf-slow.json");
    std::fs::write(&slow_path, doc.to_json().to_pretty_string()).unwrap();
    let out = nanomap(&["perf-diff", base, slow_path.to_str().unwrap()]);
    assert!(!out.status.success(), "a tripled median must fail the gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("REGRESSION") && stdout.contains(&metric),
        "{stdout}"
    );
    assert!(stdout.contains("perf gate: FAIL"), "{stdout}");

    // A QoR document is not a perf document.
    let qor = repo_file("results/qor/accumulator.json");
    let out = nanomap(&["perf-diff", base, qor.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("schema"), "{stderr}");

    let _ = std::fs::remove_file(slow_path);
}

/// The committed baselines stay parseable under the current schema and
/// re-emit to exactly their file bytes — a guard against silently
/// rotting `results/qor/` and `results/perf/`.
#[test]
fn committed_baselines_parse() {
    let mut seen = 0;
    for (dir, schema) in [("results/qor", Schema::Qor), ("results/perf", Schema::Perf)] {
        for entry in std::fs::read_dir(repo_file(dir)).expect("baseline dir exists") {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = MetricsDocument::parse(&text, schema)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(!doc.circuits.is_empty(), "{} is empty", path.display());
            // `atomic_write_text` appends the trailing newline.
            let reemitted = format!("{}\n", doc.to_json().to_pretty_string());
            assert!(
                reemitted == text,
                "{} does not re-emit byte for byte",
                path.display()
            );
            seen += 1;
        }
    }
    assert!(
        seen >= 3,
        "expected QoR bench + accumulator and perf bench baselines, saw {seen}"
    );
}
