//! QoR snapshot generator: runs the full physical flow (AT-product
//! optimization, k = 16) over every paper benchmark and emits one
//! `nanomap-qor-v1` document for the regression gate.
//!
//! Run: `cargo run -p nanomap-bench --release --bin qor -- [--out PATH]
//! [--explain-dir DIR] [--ledger PATH]`
//!
//! With `--explain-dir`, one `nanomap-explain-v1` attribution artifact
//! per benchmark lands in DIR as `<circuit>.explain.json`, next to the
//! QoR numbers it explains. With `--ledger`, every benchmark mapping
//! appends a flight-recorder line to the cross-run ledger at PATH
//! (query with `nanomap runs`).
//!
//! Compare against the committed baseline with
//! `nanomap qor-diff results/qor/bench.json <PATH>` (see `scripts/qor.sh`).

use nanomap::{CircuitMetrics, MetricsDocument, NanoMap, Objective, Schema};
use nanomap_arch::ArchParams;
use nanomap_bench::circuits::paper_benchmarks;

fn main() {
    let mut out = None;
    let mut explain_dir: Option<String> = None;
    let mut ledger: Option<String> = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => out = iter.next(),
            "--explain-dir" => explain_dir = iter.next(),
            "--ledger" => ledger = iter.next(),
            other => {
                eprintln!(
                    "usage: qor [--out PATH] [--explain-dir DIR] [--ledger PATH]  (unexpected `{other}`)"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(dir) = &explain_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {dir}: {e}"));
    }

    let mut flow = NanoMap::new(ArchParams::paper());
    if explain_dir.is_some() {
        flow = flow.with_explain();
    }
    let mut reports = Vec::new();
    for bench in paper_benchmarks() {
        // Each circuit gets its own collector epoch so series and spans
        // don't bleed across benchmarks.
        nanomap_observe::reset();
        nanomap_observe::set_enabled(true);
        let report = flow
            .map(&bench.network, Objective::MinAreaDelayProduct)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        if let (Some(dir), Some(explain)) = (&explain_dir, &report.explain) {
            explain
                .validate()
                .unwrap_or_else(|e| panic!("{}: explain invariant violated: {e}", bench.name));
            let path = format!("{dir}/{}.explain.json", bench.name);
            nanomap::atomic_write_text(
                std::path::Path::new(&path),
                &explain.to_json().to_pretty_string(),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        }
        let snapshot = nanomap_observe::snapshot();
        let mut qor = CircuitMetrics::from_mapping(&report, &flow.channels, &snapshot);
        // Key by the paper's circuit name, not the generator's netlist name.
        qor.circuit = bench.name.to_string();
        if let Some(path) = &ledger {
            let run_id = flow.run_id(&bench.network, Objective::MinAreaDelayProduct);
            let mut record = nanomap::RunRecord::from_report(&report, run_id, 0);
            record.circuit = bench.name.to_string();
            record.objective = Objective::MinAreaDelayProduct.key();
            record.place_seed = flow.place_options.seed;
            record.route_seed = flow.route_options.seed;
            nanomap::append_run(std::path::Path::new(path), &record)
                .unwrap_or_else(|e| panic!("{}: ledger: {e}", bench.name));
        }
        eprintln!(
            "{}: {} LEs, {} SMBs, {:.2} ns routed",
            bench.name,
            report.num_les,
            report.physical.as_ref().map_or(0, |p| p.num_smbs),
            report
                .physical
                .as_ref()
                .map_or(f64::NAN, |p| p.routed_delay_ns),
        );
        reports.push(qor);
    }
    let text = MetricsDocument::new(Schema::Qor, reports)
        .to_json()
        .to_pretty_string();
    match out {
        Some(path) => {
            nanomap::atomic_write_text(std::path::Path::new(&path), &text)
                .unwrap_or_else(|e| panic!("{e}"));
            eprintln!("qor document -> {path}");
        }
        None => println!("{text}"),
    }
}
