//! `nanomap` — command-line driver for the NanoMap flow.
//!
//! ```text
//! nanomap <design.vhd | design.blif> [options]
//!   --objective delay|area|at   optimization target (default: at)
//!   --max-les N                 area budget in logic elements
//!   --max-delay NS              delay budget in nanoseconds
//!   --k N                       NRAM configuration sets (default 16; 0 = unbounded)
//!   --ffs-per-le N              flip-flops per LE (default 2)
//!   --optimize                  run the LUT-network cleanup passes first
//!   --no-physical               skip clustering/placement/routing
//!   --verify                    check folded execution against simulation
//!   --bitmap PATH               write the packed binary bitstream to PATH
//!   --metrics PATH              write spans/counters/report as JSON to PATH
//!   --chrome-trace PATH         write a Perfetto-loadable trace to PATH
//!   --qor PATH                  write a QoR document to PATH
//!   --explain PATH              write the QoR attribution artifact to PATH
//!   --defect-rate F             inject uniform fabric defects at rate F (0..1)
//!   --defect-seed N             seed for the defect injection (default 1)
//!   --defect-map PATH           load an explicit defect map instead
//!   --time-budget-ms N          wall-clock budget for the whole mapping
//!   --anytime                   accept a budget-degraded best-so-far mapping
//!   --exact-recovery            after the heuristic recovery ladder fails, run
//!                               the complete SAT-based slot-assignment rung
//!   --sat-conflict-budget N     cap the SAT solver at N conflicts (default
//!                               unbounded; the time budget still applies)
//!   --checkpoint-dir PATH       write a crash-safe checkpoint after each phase
//!   --resume PATH               resume from a checkpoint file
//!   --profile DIR               sample span stacks + memory; write
//!                               DIR/<circuit>.profile.json (nanomap-profile-v1)
//!                               and DIR/<circuit>.collapsed (flamegraph input)
//!   --sample-hz N               profiler sampling rate (default 997)
//!   --live-status PATH          stream nanomap-events-v1 NDJSON (run/phase
//!                               lifecycle + progress) to PATH as the flow runs
//!   --ledger PATH               append a one-line flight-recorder summary of
//!                               this run to the ledger at PATH
//!   --progress                  echo top-level phase timings to stderr
//!   --trace                     echo every span to stderr as it closes
//!
//! PATH may be `-` for stdout (at most one of
//! --metrics/--chrome-trace/--qor/--explain/--live-status; the
//! human-readable report then moves to stderr).
//!
//! Exit codes:
//!   0  mapping succeeded
//!   1  usage, I/O or parse error, or any other hard failure
//!   2  the recovery ladder was exhausted (attempt history on stderr)
//!   3  the time budget expired without --anytime (partial history on stderr)
//!   4  mapping succeeded but is budget-degraded (--anytime accepted it)
//!   5  --exact-recovery proved no defect-legal assignment exists (the
//!      fabric, not the heuristics, is the limit; summary on stderr)
//!
//! nanomap explain <design.vhd | design.blif> [flow options]
//!                 [--out PATH] [--top-k N]
//!   Runs the flow and prints the QoR attribution report: congestion and
//!   placement heatmaps, per-stage NRAM occupancy, and the top-K routed
//!   critical paths hop by hop. --out additionally writes the JSON
//!   artifact (deterministic: same seed, same bytes).
//!
//! nanomap explain --check <artifact.json>
//!   Re-validates an emitted artifact's internal invariants: the per-hop
//!   delay sums, the delay identity, and the congestion/usage
//!   reconciliation.
//!
//! nanomap qor-diff [--exact] <baseline.json> <new.json>
//!   Compares two QoR documents metric-by-metric with per-metric
//!   tolerances; exits non-zero when any gated metric regresses.
//!   With --exact every gated metric must match bit for bit (the
//!   determinism gate for defect-free reruns). Exits 1 on a document
//!   that is not nanomap-qor-v1.
//!
//! nanomap profile <design.vhd | design.blif> [flow options]
//!                 [--sample-hz N] [--top-k N] [--out DIR]
//!   Runs the flow under the sampling profiler and prints the top-K hot
//!   span paths with each path's share of its phase. --out DIR
//!   additionally writes the profile JSON + collapsed stacks.
//!
//! nanomap perf-diff [--rel F] [--abs-ms F] <baseline.json> <new.json>
//!   Compares two nanomap-perf-v1 documents (from the bench `perf` leg).
//!   One-sided gate: a phase median must slow down by more than BOTH the
//!   relative tolerance (--rel, default 1.0 = 100%) and the absolute
//!   guard band (--abs-ms, default 25 ms) to fail. p95, memory metrics
//!   and circuits missing from the new document are informational.
//!   Exits 1 on a document that is not nanomap-perf-v1.
//!
//! nanomap runs <list | show ID | trend | regress | check-stream FILE>
//!              [--ledger PATH]
//!   Flight-recorder queries over the cross-run ledger (default
//!   results/runs/ledger.jsonl). `list` tabulates run history, `show`
//!   prints one record by run-id prefix, `trend [--benchmark B]
//!   [--field F]` renders per-circuit sparkline trends, `regress
//!   [--field F] [--window N] [--k F]` flags rolling-median+MAD
//!   outliers (exit 1 when any), and `check-stream` validates a
//!   --live-status NDJSON capture.
//!
//! nanomap runs show --trace ID [--events PATH] [--ledger PATH]
//!   Reconstructs one service request end to end: the `service` events
//!   in a `nanomapd --events` NDJSON capture become a millisecond
//!   timeline (queued/started/preempted/coalesced/completed), and the
//!   ledger record stamped with the same trace id is printed after it.
//!
//! nanomap submit <design.vhd | design.blif> --addr HOST:PORT|SOCKET
//!                [--objective delay|area|at] [--max-les N] [--max-delay NS]
//!                [--time-budget-ms N] [--id STR] [--retries N]
//!                [--backoff-ms MS] [--retry-seed N] [--report PATH|-]
//!                [--trace-id STR]
//!   Submits one mapping request to a running `nanomapd` with jittered
//!   exponential backoff across connect failures and retryable
//!   (`shed`/`shutdown`) rejections. Idempotent: the daemon's cache key
//!   is the netlist fingerprint + objective + seeds, so re-submission
//!   re-serves the same result byte for byte. The MappingReport JSON
//!   goes to stdout (or --report PATH); lifecycle lines go to stderr.
//!   Every attempt's server-assigned trace id is echoed on stderr (and
//!   written into the --report error document on permanent rejection);
//!   --trace-id propagates a caller-chosen id instead.
//!   Exit codes: 0 served, 1 transport failure or retries exhausted,
//!   2 permanent rejection (invalid/panic/failed), 3 budget rejection.
//!
//! nanomap top --addr HOST:PORT|SOCKET [--interval-ms N] [--once]
//!   Live operator console for a running `nanomapd`: polls the `stats`
//!   op and redraws counters, gauges, shed/cache-hit rates, per-class
//!   latency percentiles, request-segment means and utilization
//!   sparklines. With --once (or stdout not a terminal) it prints one
//!   compact `nanomapd-stats-v1` JSON line and exits.
//! ```

// The CLI turns every failure into a diagnostic plus exit code; a panic
// anywhere on this path is a bug.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use nanomap::gate::diff;
use nanomap::runs::{self, Ledger, RunRecord, DEFAULT_LEDGER_PATH};
use nanomap::{
    atomic_write, atomic_write_text, check_artifact, has_regression, render_diff_table, Checkpoint,
    CircuitMetrics, DiffEntry, DiffStatus, ExplainReport, FlowError, Gate, MappingReport,
    MetricsDocument, NanoMap, Objective, Schema, DEFAULT_TOP_K,
};
use nanomap_arch::{ArchParams, DefectMap};
use nanomap_netlist::{blif, vhdl, LutNetwork};
use nanomap_observe::{json, Echo, EventStream, JsonValue, ProfileData};
use nanomap_techmap::{expand, optimize, ExpandOptions};

/// Count every heap round-trip the flow makes. Tracking is off (one
/// relaxed load of overhead) until `--profile` turns it on.
#[global_allocator]
static ALLOC: nanomap_observe::CountingAllocator = nanomap_observe::CountingAllocator::system();

/// Default number of hot paths the profile subcommand prints.
const DEFAULT_PROFILE_TOP_K: usize = 15;

/// Exit code: the recovery ladder was exhausted.
const EXIT_RECOVERY_EXHAUSTED: u8 = 2;
/// Exit code: the time budget expired without `--anytime`.
const EXIT_BUDGET_EXHAUSTED: u8 = 3;
/// Exit code: success, but the mapping is budget-degraded.
const EXIT_DEGRADED: u8 = 4;
/// Exit code: the exact rung proved the fabric unmappable.
const EXIT_INFEASIBLE: u8 = 5;

/// Writes formatted text to stdout, tolerating a closed pipe: when the
/// reader goes away (`nanomap --qor - | head`), the write is silently
/// dropped and the process keeps going toward a clean exit instead of
/// panicking the way `println!` would. Other write errors surface on
/// stderr.
fn stdout_write(text: std::fmt::Arguments<'_>, newline: bool) {
    let mut out = std::io::stdout().lock();
    let result = out.write_fmt(text).and_then(|()| {
        if newline {
            out.write_all(b"\n")
        } else {
            Ok(())
        }
    });
    if let Err(e) = result {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing stdout: {e}");
        }
    }
}

/// `println!`, minus the broken-pipe panic.
macro_rules! outln {
    ($($t:tt)*) => { stdout_write(format_args!($($t)*), true) };
}

/// `print!`, minus the broken-pipe panic.
macro_rules! out {
    ($($t:tt)*) => { stdout_write(format_args!($($t)*), false) };
}

struct Args {
    input: String,
    objective: String,
    max_les: Option<u32>,
    max_delay: Option<f64>,
    k: u32,
    ffs_per_le: u32,
    run_optimize: bool,
    physical: bool,
    verify: bool,
    bitmap_path: Option<String>,
    metrics_path: Option<String>,
    chrome_trace_path: Option<String>,
    qor_path: Option<String>,
    explain_path: Option<String>,
    explain_out: Option<String>,
    explain_top_k: Option<usize>,
    defect_rate: Option<f64>,
    defect_seed: u64,
    defect_map_path: Option<String>,
    time_budget_ms: Option<u64>,
    anytime: bool,
    exact_recovery: bool,
    sat_conflict_budget: Option<u64>,
    checkpoint_dir: Option<String>,
    resume: Option<String>,
    profile_dir: Option<String>,
    sample_hz: u32,
    live_status: Option<String>,
    ledger_path: Option<String>,
    progress: bool,
    trace: bool,
}

impl Args {
    /// The JSON sinks that may claim stdout via `-`, as (flag, path) pairs.
    fn stdout_sinks(&self) -> Vec<&'static str> {
        [
            ("--metrics", &self.metrics_path),
            ("--chrome-trace", &self.chrome_trace_path),
            ("--qor", &self.qor_path),
            ("--explain", &self.explain_path),
            ("--live-status", &self.live_status),
        ]
        .into_iter()
        .filter(|(_, path)| path.as_deref() == Some("-"))
        .map(|(flag, _)| flag)
        .collect()
    }
}

/// Pulls the value following a `--flag VALUE` option off the iterator.
fn value(iter: &mut impl Iterator<Item = String>, name: &str) -> Result<String, String> {
    iter.next().ok_or_else(|| format!("{name} needs a value"))
}

fn parse_args(cli: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        input: String::new(),
        objective: "at".into(),
        max_les: None,
        max_delay: None,
        k: 16,
        ffs_per_le: 2,
        run_optimize: false,
        physical: true,
        verify: false,
        bitmap_path: None,
        metrics_path: None,
        chrome_trace_path: None,
        qor_path: None,
        explain_path: None,
        explain_out: None,
        explain_top_k: None,
        defect_rate: None,
        defect_seed: 1,
        defect_map_path: None,
        time_budget_ms: None,
        anytime: false,
        exact_recovery: false,
        sat_conflict_budget: None,
        checkpoint_dir: None,
        resume: None,
        profile_dir: None,
        sample_hz: 0,
        live_status: None,
        ledger_path: None,
        progress: false,
        trace: false,
    };
    let mut iter = cli;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--objective" => args.objective = value(&mut iter, "--objective")?,
            "--max-les" => {
                args.max_les = Some(
                    value(&mut iter, "--max-les")?
                        .parse()
                        .map_err(|e| format!("--max-les: {e}"))?,
                )
            }
            "--max-delay" => {
                args.max_delay = Some(
                    value(&mut iter, "--max-delay")?
                        .parse()
                        .map_err(|e| format!("--max-delay: {e}"))?,
                )
            }
            "--k" => {
                args.k = value(&mut iter, "--k")?
                    .parse()
                    .map_err(|e| format!("--k: {e}"))?
            }
            "--ffs-per-le" => {
                args.ffs_per_le = value(&mut iter, "--ffs-per-le")?
                    .parse()
                    .map_err(|e| format!("--ffs-per-le: {e}"))?
            }
            "--bitmap" => args.bitmap_path = Some(value(&mut iter, "--bitmap")?),
            "--metrics" => args.metrics_path = Some(value(&mut iter, "--metrics")?),
            "--chrome-trace" => args.chrome_trace_path = Some(value(&mut iter, "--chrome-trace")?),
            "--qor" => args.qor_path = Some(value(&mut iter, "--qor")?),
            "--explain" => args.explain_path = Some(value(&mut iter, "--explain")?),
            "--out" => args.explain_out = Some(value(&mut iter, "--out")?),
            "--top-k" => {
                args.explain_top_k = Some(
                    value(&mut iter, "--top-k")?
                        .parse()
                        .map_err(|e| format!("--top-k: {e}"))?,
                )
            }
            "--defect-rate" => {
                let rate: f64 = value(&mut iter, "--defect-rate")?
                    .parse()
                    .map_err(|e| format!("--defect-rate: {e}"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("--defect-rate: {rate} is outside 0..1"));
                }
                args.defect_rate = Some(rate);
            }
            "--defect-seed" => {
                args.defect_seed = value(&mut iter, "--defect-seed")?
                    .parse()
                    .map_err(|e| format!("--defect-seed: {e}"))?
            }
            "--defect-map" => args.defect_map_path = Some(value(&mut iter, "--defect-map")?),
            "--time-budget-ms" => {
                args.time_budget_ms = Some(
                    value(&mut iter, "--time-budget-ms")?
                        .parse()
                        .map_err(|e| format!("--time-budget-ms: {e}"))?,
                )
            }
            "--anytime" => args.anytime = true,
            "--exact-recovery" => args.exact_recovery = true,
            "--sat-conflict-budget" => {
                args.sat_conflict_budget = Some(
                    value(&mut iter, "--sat-conflict-budget")?
                        .parse()
                        .map_err(|e| format!("--sat-conflict-budget: {e}"))?,
                )
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(value(&mut iter, "--checkpoint-dir")?),
            "--resume" => args.resume = Some(value(&mut iter, "--resume")?),
            "--profile" => args.profile_dir = Some(value(&mut iter, "--profile")?),
            "--live-status" => args.live_status = Some(value(&mut iter, "--live-status")?),
            "--ledger" => args.ledger_path = Some(value(&mut iter, "--ledger")?),
            "--sample-hz" => {
                args.sample_hz = value(&mut iter, "--sample-hz")?
                    .parse()
                    .map_err(|e| format!("--sample-hz: {e}"))?
            }
            "--optimize" => args.run_optimize = true,
            "--no-physical" => args.physical = false,
            "--verify" => args.verify = true,
            "--progress" => args.progress = true,
            "--trace" => args.trace = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}` (see --help)"))
            }
            other => {
                if !args.input.is_empty() {
                    return Err("multiple input files".into());
                }
                args.input = other.to_string();
            }
        }
    }
    if args.input.is_empty() {
        return Err("missing input file".into());
    }
    if args.defect_rate.is_some() && args.defect_map_path.is_some() {
        return Err("--defect-rate and --defect-map are mutually exclusive".into());
    }
    if args.explain_path.is_some() && !args.physical {
        return Err("--explain needs the physical flow (drop --no-physical)".into());
    }
    let claimed = args.stdout_sinks();
    if claimed.len() > 1 {
        return Err(format!(
            "only one output may write to stdout: {} all say `-`",
            claimed.join(" and ")
        ));
    }
    Ok(args)
}

fn load(path: &str, lut_inputs: u32) -> Result<LutNetwork, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".blif") {
        blif::parse(&text).map_err(|e| format!("{path}: {e}"))
    } else if path.ends_with(".vhd") || path.ends_with(".vhdl") {
        let circuit = vhdl::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        expand(
            &circuit,
            ExpandOptions {
                lut_inputs,
                ..ExpandOptions::default()
            },
        )
        .map_err(|e| format!("{path}: {e}"))
    } else {
        Err(format!("{path}: unknown extension (use .vhd/.vhdl/.blif)"))
    }
}

/// Writes `text` to `path`, or to stdout when `path` is `-`. File writes
/// are atomic (temp file + rename): a killed run leaves the previous
/// artifact intact, never a truncated one.
fn write_sink(path: &str, text: &str) -> Result<(), String> {
    if path == "-" {
        outln!("{text}");
        Ok(())
    } else {
        atomic_write_text(Path::new(path), text).map_err(|e| e.to_string())
    }
}

/// Opens the `--live-status` sink: stdout for `-`, otherwise a fresh
/// file at PATH (the stream is line-oriented NDJSON, written live —
/// a crash leaves a valid prefix, so no atomic-rename dance applies).
fn open_live_sink(path: &str) -> Result<Box<dyn std::io::Write + Send>, String> {
    if path == "-" {
        Ok(Box::new(std::io::stdout()))
    } else {
        if let Some(parent) = Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("--live-status {path}: {e}"))?;
            }
        }
        let file = std::fs::File::create(path).map_err(|e| format!("--live-status {path}: {e}"))?;
        Ok(Box::new(file))
    }
}

/// Resolves the `--objective` string into a flow [`Objective`].
fn parse_objective(args: &Args) -> Result<Objective, String> {
    match args.objective.as_str() {
        "delay" => Ok(Objective::MinDelay {
            max_les: args.max_les,
        }),
        "area" => Ok(Objective::MinArea {
            max_delay_ns: args.max_delay,
        }),
        "at" => Ok(Objective::MinAreaDelayProduct),
        other => Err(format!("unknown objective `{other}` (delay|area|at)")),
    }
}

/// Applies the `--defect-rate`/`--defect-map` options to a flow.
fn apply_defects(mut flow: NanoMap, args: &Args) -> Result<NanoMap, String> {
    if let Some(path) = &args.defect_map_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let map = DefectMap::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        flow = flow.with_defects(map);
    } else if let Some(rate) = args.defect_rate {
        if rate > 0.0 {
            flow = flow.with_defects(DefectMap::uniform(rate, args.defect_seed));
        }
    }
    Ok(flow)
}

/// `nanomap explain ...`: run the flow with QoR attribution enabled and
/// print the heatmaps plus top-K critical paths; `--check FILE` instead
/// re-validates an already-emitted artifact.
fn explain_main(cli: Vec<String>) -> ExitCode {
    if cli.first().map(String::as_str) == Some("--check") {
        let [_, path] = &cli[..] else {
            eprintln!("usage: nanomap explain --check <artifact.json>");
            return ExitCode::FAILURE;
        };
        let checked = std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
            .and_then(|doc| check_artifact(&doc).map_err(|e| format!("{path}: {e}")));
        return match checked {
            Ok(()) => {
                outln!("{path}: OK");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(cli.into_iter()) {
        Ok(a) => a,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprintln!("usage: nanomap explain <design.vhd | design.blif> [flow options]");
            eprintln!("       [--out PATH] [--top-k N]");
            eprintln!("       nanomap explain --check <artifact.json>");
            return ExitCode::FAILURE;
        }
    };
    if args.explain_path.is_some() {
        eprintln!("error: the explain subcommand always builds the artifact; use --out PATH");
        return ExitCode::FAILURE;
    }
    if !args.physical {
        eprintln!("error: explain needs the physical flow (drop --no-physical)");
        return ExitCode::FAILURE;
    }
    let arch = ArchParams {
        num_reconf: if args.k == 0 { u32::MAX } else { args.k },
        ffs_per_le: args.ffs_per_le,
        ..ArchParams::paper()
    };
    let top_k = args.explain_top_k.unwrap_or(DEFAULT_TOP_K);
    let run = || -> Result<ExplainReport, String> {
        let mut net = load(&args.input, arch.lut_inputs)?;
        if args.run_optimize {
            net = optimize(&net).0;
        }
        let objective = parse_objective(&args)?;
        let mut flow = apply_defects(NanoMap::new(arch).with_explain(), &args)?;
        flow.explain_top_k = top_k;
        let report = flow.map(&net, objective).map_err(|e| e.to_string())?;
        report
            .explain
            .ok_or_else(|| "flow finished without attribution data".to_string())
    };
    let explain = match run() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = explain.validate() {
        eprintln!("error: artifact invariant violated: {e}");
        return ExitCode::FAILURE;
    }
    // When `--out -` claims stdout for the JSON, the text report moves to
    // stderr (mirroring the main flow's sink convention).
    let text = explain.render_text(top_k);
    if args.explain_out.as_deref() == Some("-") {
        eprint!("{text}");
    } else {
        out!("{text}");
    }
    if let Some(path) = &args.explain_out {
        if let Err(e) = write_sink(path, &explain.to_json().to_pretty_string()) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        if path != "-" {
            outln!("\nartifact: -> {path}");
        }
    }
    ExitCode::SUCCESS
}

/// `nanomap qor-diff [--exact] <baseline.json> <new.json>` (the QoR
/// regression gate; with `--exact`, the determinism gate) and
/// `nanomap perf-diff [--rel F] [--abs-ms F] <baseline.json> <new.json>`
/// (the performance gate): one metrics gate, two schemas.
fn gate_diff_main(schema: Schema, cli: Vec<String>) -> ExitCode {
    let (mut gate, flags) = match schema {
        Schema::Qor => (Gate::Qor { exact: false }, "qor-diff [--exact]"),
        Schema::Perf => (Gate::PERF_DEFAULT, "perf-diff [--rel F] [--abs-ms F]"),
    };
    let usage = || {
        eprintln!("usage: nanomap {flags} <baseline.json> <new.json>");
        ExitCode::FAILURE
    };
    let mut paths: Vec<String> = Vec::new();
    let mut iter = cli.into_iter();
    while let Some(arg) = iter.next() {
        let band = match (&mut gate, arg.as_str()) {
            (Gate::Qor { exact }, "--exact") => {
                *exact = true;
                continue;
            }
            (Gate::Perf { rel, .. }, "--rel") => rel,
            (Gate::Perf { abs_ms, .. }, "--abs-ms") => abs_ms,
            (Gate::Perf { .. }, other) if other.starts_with('-') => return usage(),
            _ => {
                paths.push(arg);
                continue;
            }
        };
        match value(&mut iter, &arg).map(|v| v.parse::<f64>()) {
            Ok(Ok(v)) if v >= 0.0 => *band = v,
            _ => return usage(),
        }
    }
    let [baseline_path, new_path] = &paths[..] else {
        return usage();
    };
    let read_doc = |path: &String| -> Result<MetricsDocument, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        MetricsDocument::parse(&text, schema).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, new) = match (read_doc(baseline_path), read_doc(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let entries = diff(&baseline, &new, gate);
    // Keep the table focused: gated metrics, failures and new metrics;
    // silent on in-band info metrics (phase times, p95s, memory).
    let show = |e: &DiffEntry| {
        e.status.fails()
            || matches!(e.status, DiffStatus::MissingInBaseline)
            || e.tolerance.is_some()
    };
    let (lines, failures) = render_diff_table(&entries, show);
    for line in lines {
        outln!("{line}");
    }
    let (name, params) = match gate {
        Gate::Qor { exact: true } => ("QoR gate (exact)", String::new()),
        Gate::Qor { .. } => ("QoR gate", String::new()),
        Gate::Perf { rel, abs_ms } => ("perf gate", format!(", rel {rel}, abs {abs_ms} ms")),
    };
    if has_regression(&entries) {
        outln!("{name}: FAIL ({failures} regressed metrics{params})");
        ExitCode::FAILURE
    } else {
        outln!("{name}: PASS ({} metrics compared{params})", entries.len());
        ExitCode::SUCCESS
    }
}

/// Writes `<dir>/<circuit>.profile.json` + `<dir>/<circuit>.collapsed`
/// and reports where they went. Failures are warnings: the mapping
/// already succeeded and its artifacts must survive a broken profile
/// sink.
fn write_profile_artifacts(dir: &str, circuit: &str, profile: &ProfileData) -> Option<String> {
    let dir_path = Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir_path) {
        eprintln!("warning: --profile {dir}: {e}");
        return None;
    }
    let json_path = dir_path.join(format!("{circuit}.profile.json"));
    let collapsed_path = dir_path.join(format!("{circuit}.collapsed"));
    let written = atomic_write_text(&json_path, &profile.to_json().to_pretty_string())
        .and_then(|()| atomic_write_text(&collapsed_path, &profile.collapsed()));
    match written {
        Ok(()) => Some(json_path.display().to_string()),
        Err(e) => {
            eprintln!("warning: --profile {dir}: {e}");
            None
        }
    }
}

/// `nanomap profile ...`: run the flow under the sampling profiler and
/// print the top-K hot span paths.
fn profile_main(cli: Vec<String>) -> ExitCode {
    let args = match parse_args(cli.into_iter()) {
        Ok(a) => a,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprintln!("usage: nanomap profile <design.vhd | design.blif> [flow options]");
            eprintln!("       [--sample-hz N] [--top-k N] [--out DIR]");
            return ExitCode::FAILURE;
        }
    };
    let top_k = args.explain_top_k.unwrap_or(DEFAULT_PROFILE_TOP_K);
    let arch = ArchParams {
        num_reconf: if args.k == 0 { u32::MAX } else { args.k },
        ffs_per_le: args.ffs_per_le,
        ..ArchParams::paper()
    };
    nanomap_observe::set_enabled(true);
    nanomap_observe::reset_memory();
    nanomap_observe::set_memory_tracking(true);
    if !nanomap_observe::start_sampler(args.sample_hz) {
        eprintln!("warning: continuing without the sampling profiler");
    }
    let run = || -> Result<nanomap::MappingReport, String> {
        let mut net = load(&args.input, arch.lut_inputs)?;
        if args.run_optimize {
            net = optimize(&net).0;
        }
        let objective = parse_objective(&args)?;
        let flow = apply_defects(NanoMap::new(arch), &args)?;
        flow.map(&net, objective).map_err(|e| e.to_string())
    };
    let result = run();
    let profile = nanomap_observe::stop_sampler();
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    outln!("{}", report.summary());
    match &profile {
        Some(profile) => {
            out!("{}", profile.render_top(top_k));
            if let Some(dir) = &args.explain_out {
                if let Some(path) = write_profile_artifacts(dir, &report.circuit, profile) {
                    outln!("profile: -> {path}");
                }
            }
        }
        None => eprintln!("warning: no profile collected"),
    }
    if let Some(memory) = &report.memory {
        outln!(
            "memory: {} allocations, {:.1} MiB allocated, peak live {:.1} MiB{}",
            memory.alloc_count,
            memory.alloc_bytes as f64 / (1024.0 * 1024.0),
            memory.peak_live_bytes as f64 / (1024.0 * 1024.0),
            memory.peak_rss_kb.map_or(String::new(), |kb| format!(
                ", peak RSS {:.1} MiB",
                kb as f64 / 1024.0
            ))
        );
    }
    ExitCode::SUCCESS
}

/// `nanomap runs ...`: flight-recorder queries over the cross-run
/// ledger — `list`, `show <id>`, `trend`, `regress`, `check-stream`.
fn runs_main(cli: Vec<String>) -> ExitCode {
    let usage = || {
        eprintln!("usage: nanomap runs <list | show ID | trend | regress | check-stream FILE>");
        eprintln!("       [--ledger PATH] [--benchmark B] [--field F] [--window N] [--k F]");
        eprintln!("       runs show --trace ID [--events PATH] reconstructs one service");
        eprintln!("       request's timeline from an event capture plus its ledger record");
        ExitCode::FAILURE
    };
    let mut iter = cli.into_iter();
    let mut ledger_path = DEFAULT_LEDGER_PATH.to_string();
    let mut benchmark: Option<String> = None;
    let mut fields: Vec<String> = Vec::new();
    let mut window = runs::REGRESS_WINDOW;
    let mut k = runs::REGRESS_K;
    let mut trace: Option<String> = None;
    let mut events_path: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--ledger" => match value(&mut iter, "--ledger") {
                Ok(v) => ledger_path = v,
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            },
            "--trace" => match value(&mut iter, "--trace") {
                Ok(v) => trace = Some(v),
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            },
            "--events" => match value(&mut iter, "--events") {
                Ok(v) => events_path = Some(v),
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            },
            "--benchmark" => match value(&mut iter, "--benchmark") {
                Ok(v) => benchmark = Some(v),
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            },
            "--field" => match value(&mut iter, "--field") {
                Ok(v) => fields.push(v),
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            },
            "--window" => match value(&mut iter, "--window")
                .and_then(|v| v.parse::<usize>().map_err(|e| format!("--window: {e}")))
            {
                Ok(v) => window = v,
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            },
            "--k" => match value(&mut iter, "--k")
                .and_then(|v| v.parse::<f64>().map_err(|e| format!("--k: {e}")))
            {
                Ok(v) => k = v,
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            },
            other if other.starts_with('-') && other != "-" => {
                eprintln!("error: unknown option `{other}`");
                return usage();
            }
            other => positional.push(other.to_string()),
        }
    }
    // The verb is the first non-flag argument, so flags may come first.
    if positional.is_empty() {
        return usage();
    }
    let verb = positional.remove(0);
    // check-stream reads an event capture, not the ledger.
    if verb == "check-stream" {
        let [path] = &positional[..] else {
            return usage();
        };
        let text = if path == "-" {
            let mut buf = String::new();
            if let Err(e) = std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf) {
                eprintln!("error: stdin: {e}");
                return ExitCode::FAILURE;
            }
            buf
        } else {
            match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        return match runs::check_stream(&text) {
            Ok(check) => {
                outln!(
                    "{path}: OK ({} events, run {}, exit {}, total {:.1} ms)",
                    check.events,
                    check.run_id,
                    check.exit_code,
                    check.total_ms
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let ledger = match Ledger::load(Path::new(&ledger_path)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !ledger.skipped_lines.is_empty() {
        eprintln!(
            "warning: {ledger_path}: skipped {} malformed line(s): {:?}",
            ledger.skipped_lines.len(),
            ledger.skipped_lines
        );
    }
    match verb.as_str() {
        "list" => {
            outln!(
                "{:<18} {:<14} {:<10} {:>8} {:>10} {:>10} {:>9}",
                "run",
                "circuit",
                "status",
                "les",
                "delay_ns",
                "total_ms",
                "Δtotal"
            );
            // Remember each circuit's previous total to show the delta
            // against the run one line up in its own history.
            let mut last_total: std::collections::BTreeMap<&str, f64> =
                std::collections::BTreeMap::new();
            for r in &ledger.records {
                if benchmark.as_deref().is_some_and(|b| b != r.circuit) {
                    continue;
                }
                let total = r.phase_ms.get("total_ms").copied().unwrap_or(f64::NAN);
                let delta = last_total
                    .insert(r.circuit.as_str(), total)
                    .map_or("-".to_string(), |prev| format!("{:+.1}", total - prev));
                let les = r
                    .metrics
                    .get("num_les")
                    .map_or("-".to_string(), |v| format!("{v:.0}"));
                let delay = r
                    .metrics
                    .get("delay_ns")
                    .map_or("-".to_string(), |v| format!("{v:.2}"));
                outln!(
                    "{:<18} {:<14} {:<10} {:>8} {:>10} {:>10.1} {:>9}",
                    &r.run_id[..r.run_id.len().min(16)],
                    r.circuit,
                    r.status(),
                    les,
                    delay,
                    total,
                    delta
                );
            }
            outln!("{} runs in {ledger_path}", ledger.records.len());
            ExitCode::SUCCESS
        }
        "show" => {
            // --trace flips show from run-id lookup to service-request
            // reconstruction: the event capture gives the timeline
            // (queue/slice/coalesce stages), the ledger the run record.
            if let Some(trace) = &trace {
                let mut found = false;
                if let Some(path) = &events_path {
                    let text = match std::fs::read_to_string(path) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!("error: {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let timeline = runs::trace_timeline(&text, trace);
                    if timeline.is_empty() {
                        eprintln!("warning: no service events for trace {trace} in {path}");
                    } else {
                        found = true;
                        outln!("trace {trace} ({} events):", timeline.len());
                        for line in runs::render_trace_timeline(&timeline) {
                            outln!("{line}");
                        }
                    }
                }
                match ledger.find_by_trace(trace) {
                    Some(record) => {
                        outln!("{}", record.to_json().to_pretty_string());
                        ExitCode::SUCCESS
                    }
                    None if found => {
                        eprintln!(
                            "note: no ledger record stamped with trace {trace} in {ledger_path}"
                        );
                        ExitCode::SUCCESS
                    }
                    None => {
                        eprintln!("error: trace {trace} not found in {ledger_path}");
                        ExitCode::FAILURE
                    }
                }
            } else {
                let [prefix] = &positional[..] else {
                    return usage();
                };
                match ledger.find(prefix) {
                    Some(record) => {
                        outln!("{}", record.to_json().to_pretty_string());
                        ExitCode::SUCCESS
                    }
                    None => {
                        eprintln!("error: no run matching `{prefix}` in {ledger_path}");
                        ExitCode::FAILURE
                    }
                }
            }
        }
        "trend" => {
            let defaults = ["num_les", "delay_ns", "total_ms"];
            let names: Vec<&str> = if fields.is_empty() {
                defaults.to_vec()
            } else {
                fields.iter().map(String::as_str).collect()
            };
            let rows = runs::trend(&ledger, benchmark.as_deref(), &names);
            if rows.is_empty() {
                outln!("no matching runs in {ledger_path}");
                return ExitCode::SUCCESS;
            }
            outln!(
                "{:<14} {:<20} {:>4} {:>12} {:>12} {:>12}  trend",
                "circuit",
                "field",
                "runs",
                "min",
                "max",
                "last"
            );
            for row in rows {
                outln!("{}", row.render());
            }
            ExitCode::SUCCESS
        }
        "regress" => {
            let field = fields.first().map_or("total_ms", String::as_str);
            let outliers = runs::regress(&ledger, benchmark.as_deref(), field, window, k);
            if outliers.is_empty() {
                outln!("regress: OK (field {field}, window {window}, k {k})");
                ExitCode::SUCCESS
            } else {
                for o in &outliers {
                    outln!("{}", o.render());
                }
                outln!(
                    "regress: {} outlier(s) flagged (field {field}, window {window}, k {k})",
                    outliers.len()
                );
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}

/// `nanomap submit <design> --addr ADDR [...]`: the retry/backoff
/// client for a running `nanomapd`. Transport failures and retryable
/// rejections back off with jitter; permanent rejections map to the
/// same exit-code vocabulary the local flow uses.
fn submit_main(args: Vec<String>) -> ExitCode {
    fn usage() -> ExitCode {
        eprintln!("usage: nanomap submit <design.vhd|design.blif> --addr HOST:PORT|SOCKET");
        eprintln!("       [--objective delay|area|at] [--max-les N] [--max-delay NS]");
        eprintln!("       [--time-budget-ms N] [--id STR] [--retries N] [--backoff-ms MS]");
        eprintln!("       [--retry-seed N] [--report PATH|-] [--trace-id STR]");
        ExitCode::FAILURE
    }
    let mut design: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut objective = "at".to_string();
    let mut max_les: Option<u32> = None;
    let mut max_delay_ns: Option<f64> = None;
    let mut time_budget_ms: Option<u64> = None;
    let mut id: Option<String> = None;
    let mut trace_id: Option<String> = None;
    let mut policy = nanomap::RetryPolicy::default();
    let mut report_sink: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        macro_rules! val {
            () => {
                match it.next() {
                    Some(v) => v,
                    None => {
                        eprintln!("error: {flag} needs a value");
                        return usage();
                    }
                }
            };
        }
        macro_rules! num {
            () => {
                match val!().parse() {
                    Ok(v) => v,
                    Err(_) => {
                        eprintln!("error: {flag} needs a number");
                        return usage();
                    }
                }
            };
        }
        match flag.as_str() {
            "--addr" => addr = Some(val!()),
            "--objective" => objective = val!(),
            "--max-les" => max_les = Some(num!()),
            "--max-delay" => max_delay_ns = Some(num!()),
            "--time-budget-ms" => time_budget_ms = Some(num!()),
            "--id" => id = Some(val!()),
            "--trace-id" => trace_id = Some(val!()),
            "--retries" => policy.max_attempts = num!(),
            "--backoff-ms" => policy.base_backoff_ms = num!(),
            "--retry-seed" => policy.seed = num!(),
            "--report" => report_sink = Some(val!()),
            other if !other.starts_with('-') && design.is_none() => {
                design = Some(other.to_string());
            }
            other => {
                eprintln!("error: unknown flag {other}");
                return usage();
            }
        }
    }
    let (Some(design), Some(addr)) = (design, addr) else {
        return usage();
    };
    let request = nanomap::MapRequest {
        id: id.unwrap_or_else(|| format!("cli-{}", std::process::id())),
        source: nanomap::DesignSource::Path(design),
        objective,
        max_les,
        max_delay_ns,
        time_budget_ms,
        trace_id,
    };
    let submission = match nanomap::submit_with_retry(&addr, &request, &policy) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Retryable rejections absorbed along the way each carry the
    // server-assigned trace, so shed attempts stay attributable.
    for rejection in &submission.rejections {
        eprintln!(
            "submit: retried after {} rejection (trace {})",
            rejection.code.as_deref().unwrap_or("?"),
            rejection.trace_id.as_deref().unwrap_or("-")
        );
    }
    for event in &submission.lifecycle {
        match event {
            nanomap::Response::Queued { depth } => eprintln!("submit: queued (depth {depth})"),
            nanomap::Response::Started => eprintln!("submit: started"),
            nanomap::Response::Preempted => eprintln!("submit: preempted (checkpoint held)"),
            nanomap::Response::Resumed => eprintln!("submit: resumed from checkpoint"),
            _ => {}
        }
    }
    let result = &submission.result;
    if result.ok {
        eprintln!(
            "submit: ok run {} (cache {}, attempt {}, trace {})",
            result.run_id.as_deref().unwrap_or("-"),
            result.cache.as_deref().unwrap_or("-"),
            submission.attempts,
            result.trace_id.as_deref().unwrap_or("-")
        );
        let report = result.report_text.as_deref().unwrap_or("{}");
        match report_sink.as_deref() {
            None | Some("-") => outln!("{report}"),
            Some(path) => {
                if let Err(e) = atomic_write_text(Path::new(path), report) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("submit: report -> {path}");
            }
        }
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "error: request rejected ({}): {} (trace {})",
        result.code.as_deref().unwrap_or("?"),
        result.detail.as_deref().unwrap_or("no detail"),
        result.trace_id.as_deref().unwrap_or("-")
    );
    // A rejection with --report still writes a small typed document so
    // scripted callers get the trace id without scraping stderr.
    if let Some(path) = report_sink.as_deref().filter(|p| *p != "-") {
        let mut doc = JsonValue::object()
            .with("schema", nanomap::SERVICE_SCHEMA)
            .with("status", "error")
            .with("request", result.request.as_str())
            .with("code", result.code.as_deref().unwrap_or("?"));
        if let Some(trace) = &result.trace_id {
            doc.set("trace_id", trace.as_str());
        }
        if let Some(detail) = &result.detail {
            doc.set("detail", detail.as_str());
        }
        if let Err(e) = atomic_write_text(Path::new(path), &doc.to_compact_string()) {
            eprintln!("error: {e}");
        }
    }
    match result.code.as_deref() {
        Some(nanomap::service::code::BUDGET) => ExitCode::from(EXIT_BUDGET_EXHAUSTED),
        Some(_) => ExitCode::from(EXIT_RECOVERY_EXHAUSTED),
        None => ExitCode::FAILURE,
    }
}

/// Latency classes `top` tabulates, in the daemon's fixed schema order.
const TOP_CLASSES: [&str; 7] = [
    "ok", "shed", "shutdown", "invalid", "panic", "budget", "failed",
];

/// How many poll samples each `top` sparkline keeps.
const TOP_HISTORY: usize = 60;

/// Reads an integer counter/gauge out of a nested stats object.
fn stat_int(doc: &JsonValue, group: &str, name: &str) -> i64 {
    doc.get(group)
        .and_then(|g| g.get(name))
        .and_then(JsonValue::as_int)
        .unwrap_or(0)
}

/// Renders one polled stats document as the live console frame.
fn render_top_frame(addr: &str, doc: &JsonValue, histories: &[(&str, &[f64])]) -> String {
    use std::fmt::Write as _;
    let mut frame = String::new();
    let uptime_s = doc
        .get("uptime_ms")
        .and_then(JsonValue::as_int)
        .unwrap_or(0) as f64
        / 1000.0;
    let version = doc
        .get("version")
        .and_then(JsonValue::as_str)
        .unwrap_or("?");
    let draining = doc
        .get("draining")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let _ = writeln!(
        frame,
        "{version} @ {addr} — up {uptime_s:.1} s{}",
        if draining { "  [DRAINING]" } else { "" }
    );
    let served = stat_int(doc, "counters", "served");
    let shed = stat_int(doc, "counters", "shed");
    let cache_hits = stat_int(doc, "counters", "cache_hits");
    let _ = writeln!(
        frame,
        "counters  served {served}  shed {shed}  panics {}  failures {}  cache_hits {cache_hits}  preemptions {}",
        stat_int(doc, "counters", "panics"),
        stat_int(doc, "counters", "failures"),
        stat_int(doc, "counters", "preemptions"),
    );
    let _ = writeln!(
        frame,
        "gauges    queue {}  inflight {}/{} workers  cache {} entries / {} bytes",
        stat_int(doc, "gauges", "queue_depth"),
        stat_int(doc, "gauges", "inflight"),
        stat_int(doc, "gauges", "workers"),
        stat_int(doc, "gauges", "cache_entries"),
        stat_int(doc, "gauges", "cache_bytes"),
    );
    let admitted = served + shed;
    let shed_pct = if admitted > 0 {
        100.0 * shed as f64 / admitted as f64
    } else {
        0.0
    };
    let hit_pct = if served > 0 {
        100.0 * cache_hits as f64 / served as f64
    } else {
        0.0
    };
    let _ = writeln!(
        frame,
        "rates     shed {shed_pct:.1}%  cache hit {hit_pct:.1}%"
    );
    let _ = writeln!(
        frame,
        "\n{:<10} {:>8} {:>10} {:>10} {:>10}  (latency, ms)",
        "class", "count", "p50", "p95", "p99"
    );
    for class in TOP_CLASSES {
        let Some(hist) = doc.get("latency_us").and_then(|l| l.get(class)) else {
            continue;
        };
        let count = hist.get("count").and_then(JsonValue::as_int).unwrap_or(0);
        if count == 0 {
            continue;
        }
        let ms = |name: &str| hist.get(name).and_then(JsonValue::as_f64).unwrap_or(0.0) / 1000.0;
        let _ = writeln!(
            frame,
            "{class:<10} {count:>8} {:>10.3} {:>10.3} {:>10.3}",
            ms("p50"),
            ms("p95"),
            ms("p99")
        );
    }
    let seg_mean = |name: &str| {
        doc.get("segments_us")
            .and_then(|s| s.get(name))
            .and_then(|h| h.get("mean"))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
            / 1000.0
    };
    let _ = writeln!(
        frame,
        "\nsegments  queue {:.3} ms  compute {:.3} ms  cache {:.3} ms  serialize {:.3} ms  (mean)",
        seg_mean("queue"),
        seg_mean("compute"),
        seg_mean("cache"),
        seg_mean("serialize"),
    );
    for (label, history) in histories {
        if history.iter().any(|v| *v > 0.0) {
            let _ = writeln!(frame, "{:<10} {}", label, runs::sparkline(history));
        }
    }
    frame
}

/// `nanomap top --addr ADDR [...]`: the live operator console. Polls
/// the daemon's `stats` op and redraws; `--once` (or a non-terminal
/// stdout, so `nanomap top | head` just works) prints a single compact
/// `nanomapd-stats-v1` line instead.
fn top_main(args: Vec<String>) -> ExitCode {
    fn usage() -> ExitCode {
        eprintln!("usage: nanomap top --addr HOST:PORT|SOCKET [--interval-ms N] [--once]");
        ExitCode::FAILURE
    }
    let mut addr: Option<String> = None;
    let mut interval_ms: u64 = 1_000;
    let mut once = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v),
                None => {
                    eprintln!("error: --addr needs a value");
                    return usage();
                }
            },
            "--interval-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => interval_ms = v,
                None => {
                    eprintln!("error: --interval-ms needs a number");
                    return usage();
                }
            },
            "--once" => once = true,
            other => {
                eprintln!("error: unknown flag {other}");
                return usage();
            }
        }
    }
    let Some(addr) = addr else {
        return usage();
    };
    // A pipe or file on stdout degrades to single-snapshot NDJSON: the
    // ANSI dashboard is for humans at a terminal only.
    let live = !once && std::io::IsTerminal::is_terminal(&std::io::stdout());
    if !live {
        return match nanomap::query_stats(&addr, 5_000) {
            Ok(doc) => {
                outln!("{}", doc.to_compact_string());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut util_history: Vec<f64> = Vec::new();
    let mut queue_history: Vec<f64> = Vec::new();
    let mut served_history: Vec<f64> = Vec::new();
    let mut last_served: Option<i64> = None;
    let mut failures = 0u32;
    loop {
        match nanomap::query_stats(&addr, 5_000) {
            Ok(doc) => {
                failures = 0;
                let workers = stat_int(&doc, "gauges", "workers").max(1);
                let push = |history: &mut Vec<f64>, v: f64| {
                    history.push(v);
                    if history.len() > TOP_HISTORY {
                        history.remove(0);
                    }
                };
                push(
                    &mut util_history,
                    stat_int(&doc, "gauges", "inflight") as f64 / workers as f64,
                );
                push(
                    &mut queue_history,
                    stat_int(&doc, "gauges", "queue_depth") as f64,
                );
                let served = stat_int(&doc, "counters", "served");
                push(
                    &mut served_history,
                    (served - last_served.unwrap_or(served)) as f64,
                );
                last_served = Some(served);
                let frame = render_top_frame(
                    &addr,
                    &doc,
                    &[
                        ("util", &util_history),
                        ("queue", &queue_history),
                        ("served/s", &served_history),
                    ],
                );
                // Clear + home, then the frame in one write to keep
                // redraws flicker-free.
                out!("\u{1b}[2J\u{1b}[H{frame}");
            }
            Err(e) => {
                // One missed poll is a blip (daemon restarting, socket
                // backlog); three in a row means it is gone.
                failures += 1;
                eprintln!("top: {e} ({failures}/3)");
                if failures >= 3 {
                    return ExitCode::FAILURE;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
    }
}

fn main() -> ExitCode {
    let mut cli: Vec<String> = std::env::args().skip(1).collect();
    if cli.first().map(String::as_str) == Some("qor-diff") {
        return gate_diff_main(Schema::Qor, cli.split_off(1));
    }
    if cli.first().map(String::as_str) == Some("perf-diff") {
        return gate_diff_main(Schema::Perf, cli.split_off(1));
    }
    if cli.first().map(String::as_str) == Some("explain") {
        return explain_main(cli.split_off(1));
    }
    if cli.first().map(String::as_str) == Some("profile") {
        return profile_main(cli.split_off(1));
    }
    if cli.first().map(String::as_str) == Some("runs") {
        return runs_main(cli.split_off(1));
    }
    if cli.first().map(String::as_str) == Some("submit") {
        return submit_main(cli.split_off(1));
    }
    if cli.first().map(String::as_str) == Some("top") {
        return top_main(cli.split_off(1));
    }
    let args = match parse_args(cli.into_iter()) {
        Ok(a) => a,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprintln!("usage: nanomap <design.vhd | design.blif> [--objective delay|area|at]");
            eprintln!("       [--max-les N] [--max-delay NS] [--k N] [--ffs-per-le N]");
            eprintln!("       [--optimize] [--no-physical] [--verify] [--bitmap PATH]");
            eprintln!("       [--metrics PATH] [--chrome-trace PATH] [--qor PATH]");
            eprintln!("       [--explain PATH] [--defect-rate F] [--defect-seed N]");
            eprintln!("       [--defect-map PATH] [--time-budget-ms N] [--anytime]");
            eprintln!("       [--exact-recovery] [--sat-conflict-budget N]");
            eprintln!("       [--checkpoint-dir PATH] [--resume PATH] [--profile DIR]");
            eprintln!("       [--sample-hz N] [--live-status PATH] [--ledger PATH]");
            eprintln!("       [--progress] [--trace]");
            eprintln!("       nanomap explain <design> [--out PATH] [--top-k N]");
            eprintln!("       nanomap explain --check <artifact.json>");
            eprintln!("       nanomap profile <design> [--sample-hz N] [--top-k N] [--out DIR]");
            eprintln!("       nanomap qor-diff [--exact] <baseline.json> <new.json>");
            eprintln!("       nanomap perf-diff [--rel F] [--abs-ms F] <baseline.json> <new.json>");
            eprintln!("       nanomap runs <list | show ID | trend | regress | check-stream FILE>");
            eprintln!("       nanomap runs show --trace ID [--events PATH]");
            eprintln!("       nanomap submit <design> --addr HOST:PORT|SOCKET [options]");
            eprintln!("       nanomap top --addr HOST:PORT|SOCKET [--interval-ms N] [--once]");
            return ExitCode::FAILURE;
        }
    };
    if args.explain_out.is_some() || args.explain_top_k.is_some() {
        eprintln!("error: --out/--top-k belong to the explain subcommand");
        return ExitCode::FAILURE;
    }
    // The human-readable report moves to stderr when a JSON sink owns stdout.
    let stdout_claimed = !args.stdout_sinks().is_empty();
    macro_rules! report {
        ($($t:tt)*) => {
            if stdout_claimed {
                eprintln!($($t)*);
            } else {
                outln!($($t)*);
            }
        };
    }
    // Observability: the JSON sinks need the collector recording; --progress
    // and --trace additionally echo spans to stderr as they close.
    if args.metrics_path.is_some()
        || args.chrome_trace_path.is_some()
        || args.qor_path.is_some()
        || args.profile_dir.is_some()
        || args.live_status.is_some()
        || args.progress
        || args.trace
    {
        nanomap_observe::set_enabled(true);
    }
    // --profile: turn on memory tracking and the background sampler.
    // Runs without the flag never touch either, keeping their artifacts
    // byte-identical.
    if args.profile_dir.is_some() {
        nanomap_observe::reset_memory();
        nanomap_observe::set_memory_tracking(true);
        if !nanomap_observe::start_sampler(args.sample_hz) {
            eprintln!("warning: continuing without the sampling profiler");
        }
    }
    if args.trace {
        nanomap_observe::set_echo(Echo::Trace);
    } else if args.progress {
        nanomap_observe::set_echo(Echo::Progress);
    }
    let arch = ArchParams {
        num_reconf: if args.k == 0 { u32::MAX } else { args.k },
        ffs_per_le: args.ffs_per_le,
        ..ArchParams::paper()
    };
    let mut net = match load(&args.input, arch.lut_inputs) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.run_optimize {
        let (cleaned, stats) = optimize(&net);
        report!(
            "optimize: {} -> {} LUTs ({:.1}% removed, {} iterations)",
            stats.luts_before,
            stats.luts_after,
            100.0 * stats.reduction(),
            stats.iterations
        );
        net = cleaned;
    }
    let objective = match parse_objective(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut flow = match apply_defects(NanoMap::new(arch), &args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.explain_path.is_some() {
        flow = flow.with_explain();
    }
    if !args.physical {
        flow = flow.without_physical();
    }
    if args.bitmap_path.is_some() {
        flow = flow.with_bitstream();
    }
    if args.verify {
        flow = flow.with_verification();
    }
    if let Some(budget) = args.time_budget_ms {
        flow = flow.with_budget_ms(budget);
    }
    if args.anytime {
        flow = flow.with_anytime();
    }
    if args.exact_recovery {
        flow = flow.with_exact_recovery();
    }
    if let Some(budget) = args.sat_conflict_budget {
        flow = flow.with_sat_conflict_budget(budget);
    }
    if let Some(dir) = &args.checkpoint_dir {
        flow = flow.with_checkpoint_dir(dir);
    }
    let channels = flow.channels;
    // --live-status: start the event-bus streaming thread before the
    // flow so run-start is the first line out. The stream never blocks
    // or fails the mapping — a broken sink degrades to a warning.
    let mut live: Option<EventStream> = None;
    if let Some(path) = &args.live_status {
        match open_live_sink(path) {
            Ok(sink) => live = Some(EventStream::spawn(sink)),
            Err(e) => eprintln!("warning: {e}"),
        }
    }
    let run_id = (args.live_status.is_some() || args.ledger_path.is_some())
        .then(|| flow.run_id(&net, objective));
    let result = match &args.resume {
        Some(path) => match Checkpoint::load(Path::new(path)) {
            Ok(checkpoint) => {
                report!(
                    "resume: {} from after {} (candidate {}, remedy {})",
                    path,
                    checkpoint.phase.as_str(),
                    checkpoint.candidate_rank,
                    checkpoint.remedy.as_str()
                );
                flow.map_resume(&net, objective, &checkpoint)
            }
            // A torn or corrupt checkpoint is a typed error, and under
            // --anytime it degrades to a fresh run: losing a snapshot
            // costs time, never the result.
            Err(err) if args.anytime => {
                eprintln!("warning: checkpoint {path} unusable ({err}); --anytime restarts fresh");
                flow.map(&net, objective)
            }
            Err(err) => Err(FlowError::from(err)),
        },
        None => flow.map(&net, objective),
    };
    // The sampler stops whether the flow succeeded or not; its profile
    // only gets written on success (failures leave no partial sinks).
    let profile = if args.profile_dir.is_some() {
        nanomap_observe::stop_sampler()
    } else {
        None
    };
    match result {
        Ok(report) => {
            report!("{}", report.summary());
            report!(
                "  sharing: {:?}, NRAM sets used: {}, AT product: {:.0}",
                report.sharing,
                report.nram_sets_used,
                report.area_delay_product()
            );
            report!(
                "  power: logic {:.2} mW + reconfiguration {:.2} mW + leakage {:.2} mW = {:.2} mW",
                report.power.logic_mw,
                report.power.reconfiguration_mw,
                report.power.leakage_mw,
                report.power.total_mw()
            );
            if let Some(p) = &report.physical {
                report!(
                    "  physical: {} SMBs on {}x{}, routed delay {:.2} ns, {} config bits",
                    p.num_smbs,
                    p.grid.0,
                    p.grid.1,
                    p.routed_delay_ns,
                    p.bitmap_bits
                );
                report!(
                    "  interconnect: {} direct, {} len-1, {} len-4, {} global",
                    p.usage.direct,
                    p.usage.length1,
                    p.usage.length4,
                    p.usage.global
                );
            }
            if !report.recovery.attempts.is_empty() {
                report!("  recovery: {}", report.recovery.summary());
            }
            if report.degraded {
                report!("  DEGRADED: time budget expired; best-so-far mapping accepted");
                for d in &report.degradations {
                    report!("    {}", d.summary());
                }
            }
            if args.verify {
                report!("  folded-execution verification: PASSED");
            }
            let t = report.phase_times;
            let phases: Vec<String> = t
                .phases()
                .iter()
                .map(|(name, ms)| format!("{} {ms:.1}", name.trim_end_matches("_ms")))
                .collect();
            report!("  time: total {:.1} ms ({})", t.total_ms, phases.join(", "));
            if let Some(memory) = &report.memory {
                report!(
                    "  memory: {} allocs, {:.1} MiB allocated, peak live {:.1} MiB{}",
                    memory.alloc_count,
                    memory.alloc_bytes as f64 / (1024.0 * 1024.0),
                    memory.peak_live_bytes as f64 / (1024.0 * 1024.0),
                    memory.peak_rss_kb.map_or(String::new(), |kb| format!(
                        ", peak RSS {:.1} MiB",
                        kb as f64 / 1024.0
                    ))
                );
            }
            if let (Some(dir), Some(profile)) = (&args.profile_dir, &profile) {
                if let Some(path) = write_profile_artifacts(dir, &report.circuit, profile) {
                    report!(
                        "  profile: {} samples at {:.0} Hz effective ({:.2}% overhead) -> {path}",
                        profile.total_samples,
                        profile.effective_hz,
                        profile.overhead_fraction() * 100.0
                    );
                }
            }
            if let (Some(path), Some(physical)) = (&args.bitmap_path, &report.physical) {
                if let Some(bytes) = &physical.bitstream {
                    if let Err(e) = atomic_write(Path::new(path), bytes) {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                    report!("  bitstream: {} bytes -> {path}", bytes.len());
                }
            }
            if args.progress || args.trace {
                let snap = nanomap_observe::snapshot();
                eprint!("{}", snap.render_tree());
            }
            // All JSON sinks render from one snapshot of the finished flow.
            let snap = nanomap_observe::snapshot();
            if let Some(path) = &args.metrics_path {
                let doc = JsonValue::object()
                    .with("report", report.to_json())
                    .with("metrics", snap.to_json());
                if let Err(e) = write_sink(path, &doc.to_pretty_string()) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                report!("  metrics: -> {path}");
            }
            if let Some(path) = &args.chrome_trace_path {
                // With --explain active the worst routed path rides along
                // as flow ("s"/"t"/"f") arrows on the trace; with
                // --profile the sampler's hits fold in as instant events.
                let mut extra = report
                    .explain
                    .as_ref()
                    .map(ExplainReport::chrome_flow_events)
                    .unwrap_or_default();
                if let Some(profile) = &profile {
                    extra.extend(profile.chrome_events());
                }
                let doc = snap.to_chrome_trace_with_events(extra);
                if let Err(e) = write_sink(path, &doc.to_pretty_string()) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                report!("  chrome trace: -> {path} (load at ui.perfetto.dev)");
            }
            if let Some(path) = &args.qor_path {
                let qor = CircuitMetrics::from_mapping(&report, &channels, &snap);
                let doc = MetricsDocument::new(Schema::Qor, vec![qor]).to_json();
                if let Err(e) = write_sink(path, &doc.to_pretty_string()) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                report!("  qor: -> {path}");
            }
            if let Some(path) = &args.explain_path {
                let Some(explain) = &report.explain else {
                    eprintln!("error: flow finished without attribution data");
                    return ExitCode::FAILURE;
                };
                if let Err(e) = explain.validate() {
                    eprintln!("error: artifact invariant violated: {e}");
                    return ExitCode::FAILURE;
                }
                if let Err(e) = write_sink(path, &explain.to_json().to_pretty_string()) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                report!("  explain: -> {path}");
            }
            let code = if report.degraded { EXIT_DEGRADED } else { 0 };
            finish_run(
                &args,
                &flow,
                objective,
                run_id.as_deref(),
                code,
                Some(&report),
                live,
            );
            ExitCode::from(code)
        }
        Err(e) => {
            eprintln!("error: {e}");
            // A recovery-ladder failure carries its full attempt history;
            // spell it out so the user can see what was tried.
            if let Some(log) = e.recovery_log() {
                for a in &log.attempts {
                    eprintln!(
                        "  attempt {} [candidate {}, {}] {} failed after {:.1} ms: {}",
                        a.attempt,
                        a.candidate,
                        a.remedy.as_str(),
                        a.phase,
                        a.wall_us as f64 / 1e3,
                        a.error
                    );
                }
            }
            let code = match &e {
                FlowError::RecoveryExhausted { .. } => EXIT_RECOVERY_EXHAUSTED,
                FlowError::ExactAssignUnsat { summary, .. } => {
                    eprintln!(
                        "  infeasibility proof: {} open slot(s) for {} SMBs; dominant defect class: {}",
                        summary.open_slots, summary.smbs, summary.dominant_class
                    );
                    EXIT_INFEASIBLE
                }
                FlowError::BudgetExhausted { degradations, .. } => {
                    for d in degradations {
                        eprintln!("  degraded: {}", d.summary());
                    }
                    EXIT_BUDGET_EXHAUSTED
                }
                _ => 1,
            };
            finish_run(&args, &flow, objective, run_id.as_deref(), code, None, live);
            ExitCode::from(code)
        }
    }
}

/// Terminal flight-recorder bookkeeping shared by every flow outcome:
/// publish the run-end event, shut the live stream down (reporting any
/// backpressure drops), and append the ledger line. None of it can fail
/// the run — a broken ledger or sink is a warning.
fn finish_run(
    args: &Args,
    flow: &NanoMap,
    objective: Objective,
    run_id: Option<&str>,
    exit_code: u8,
    report: Option<&MappingReport>,
    live: Option<EventStream>,
) {
    let exit_code = i32::from(exit_code);
    if let Some(run_id) = run_id {
        runs::publish_run_end(run_id, exit_code, report);
    }
    if let Some(stream) = live {
        let stats = stream.finish();
        if stats.dropped > 0 {
            eprintln!(
                "warning: --live-status: {} events dropped under backpressure",
                stats.dropped
            );
        }
    }
    if let (Some(path), Some(run_id), Some(report)) = (&args.ledger_path, run_id, report) {
        let mut record = RunRecord::from_report(report, run_id.to_string(), exit_code);
        record.objective = objective.key();
        record.place_seed = flow.place_options.seed;
        record.route_seed = flow.route_options.seed;
        if let Err(e) = runs::append_run(Path::new(path), &record) {
            eprintln!("warning: --ledger {path}: {e}");
        }
    }
}
