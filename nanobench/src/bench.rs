//! One benchmark run: set up a workload, map its jobs for a fixed time
//! through `NanoMap::map`, check every result, and report metrics.

use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use nanomap::{FlowError, MappingReport, NanoMap, Objective, PhaseTimes, RecoveryLog, Remedy};
use nanomap_netlist::LutNetwork;
use nanomap_observe::rng::XorShift64Star;
use nanomap_observe::JsonValue;

use crate::host::Host;
use crate::replay::{replay, Replayed, Trace};
use crate::stats::{geomean, median, tail, Tally};
use crate::workload::{setup, Job, Verdict, Workload};

/// The Table 1 objective every job maps under.
pub const OBJECTIVE: Objective = Objective::MinAreaDelayProduct;

/// Set-ups per run: at least [`SETUP_MIN_REPS`], and more until they
/// add up to [`SETUP_MIN_S`] seconds or [`SETUP_MAX_REPS`] were made, so
/// a set-up of a few milliseconds is still timed steadily. `setup_s` is
/// their median.
pub const SETUP_MIN_REPS: usize = 5;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MIN_S: f64 = 1.0;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MAX_REPS: usize = 500;

/// Tolerances of the `PhaseTimes::reconcile` check: the per-phase sum
/// may not overshoot the total by more than 10 % plus 5 ms.
const RECONCILE_TOL_FRAC: f64 = 0.10;
const RECONCILE_SLACK_MS: f64 = 5.0;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Workload seed: orders the jobs of every pass.
    pub seed: u64,
    /// Seconds of timed mapping (at least one pass always runs).
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Verdict overrides by job name, replacing the pinned ones.
    pub pins: Vec<(String, Verdict)>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Job attempts and misses.
    pub tally: Tally,
    /// End-to-end or per-layer metrics, depending on the mode.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The single-line result object.
    pub fn to_json(&self) -> JsonValue {
        let mut metrics = JsonValue::object();
        for m in &self.metrics {
            metrics.set(
                m.name,
                JsonValue::object()
                    .with("value", m.value)
                    .with("unit", m.unit),
            );
        }
        JsonValue::object()
            .with("correct", self.correct)
            .with("attempted", self.tally.attempted)
            .with("failed", self.tally.failed)
            .with("metrics", metrics)
    }
}

/// One mapping and its wall time.
struct Mapped {
    ms: f64,
    result: Result<MappingReport, FlowError>,
}

/// Per-job state across a run.
#[derive(Default)]
struct JobState {
    /// Canonical report of the first mapping, which every later one
    /// must reproduce byte for byte.
    reference: Option<String>,
    /// The first successful report, which the allocation replay follows.
    report: Option<MappingReport>,
    /// Allocation-tracked replay spans (times unused).
    alloc: Trace,
    /// Untraced map wall times, ms.
    samples: Vec<f64>,
    /// Traced passes: map ms, replay and remedy attribution.
    traced: Vec<TracedMap>,
    /// Verdict of the latest mapping.
    verdict: Option<Verdict>,
    les: f64,
    delay_ns: f64,
}

/// What one traced mapping of one job recorded.
struct TracedMap {
    map_ms: f64,
    trace: Trace,
    replayed: Replayed,
    remedies: Remedies,
    counters: BTreeMap<&'static str, u64>,
}

/// Time attributed per remedy class from a `RecoveryLog`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Remedies {
    /// Folding-select time (the report's own phase time).
    pub select_ms: f64,
    /// Failed heuristic attempts, plus the winning attempt when a
    /// heuristic rung rescued the job.
    pub heuristic_ms: f64,
    /// Failed exact-rung attempts, plus the winning attempt when the
    /// exact rung rescued the job.
    pub exact_ms: f64,
    /// Physical-design attempts, the winning one included.
    pub attempts: u64,
    /// Exact-rung solves that proved a grid size infeasible.
    pub unsat: u64,
}

impl Remedies {
    /// Attributes a mapping's time per remedy. The winning attempt is not
    /// in the log; it is what remains of the total after folding-select
    /// and the failed attempts, and it counts as recovery only when the
    /// ladder was climbed.
    pub fn attribute(total_ms: f64, times: &PhaseTimes, log: &RecoveryLog) -> Self {
        let mut out = Self {
            select_ms: times.folding_select_ms,
            attempts: log.attempts.len() as u64 + u64::from(log.succeeded_with.is_some()),
            ..Self::default()
        };
        for a in &log.attempts {
            let ms = a.wall_us as f64 / 1e3;
            if a.remedy == Remedy::ExactAssign {
                out.exact_ms += ms;
                if a.phase == "exact-assign" && a.error.starts_with("infeasible") {
                    out.unsat += 1;
                }
            } else {
                out.heuristic_ms += ms;
            }
        }
        if !log.attempts.is_empty() {
            let winner_ms = (total_ms - times.folding_select_ms - log.wall_ms()).max(0.0);
            match log.succeeded_with {
                Some(Remedy::ExactAssign) => out.exact_ms += winner_ms,
                Some(_) => out.heuristic_ms += winner_ms,
                None => {}
            }
        }
        out
    }
}

/// The report with every timing and memory field cleared: two mappings
/// of the same job must serialize to the same bytes.
pub fn canonical(report: &MappingReport) -> String {
    let mut r = report.clone();
    r.phase_times = PhaseTimes::default();
    r.memory = None;
    for a in &mut r.recovery.attempts {
        a.wall_us = 0;
    }
    r.to_json().to_compact_string()
}

fn map_job(flow: &NanoMap, net: &LutNetwork) -> Mapped {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| flow.map(net, OBJECTIVE))).unwrap_or_else(|_| {
        Err(FlowError::Internal {
            detail: "the flow panicked".into(),
        })
    });
    Mapped {
        ms: start.elapsed().as_secs_f64() * 1e3,
        result,
    }
}

/// Checks one mapping; returns the failures it found.
fn check(job: &Job, state: &mut JobState, mapped: &Mapped) -> Vec<String> {
    let mut failures = Vec::new();
    state.verdict = Verdict::of(&mapped.result);
    match state.verdict {
        None => failures.push(format!(
            "untyped failure: {}",
            mapped
                .result
                .as_ref()
                .err()
                .map_or(String::new(), ToString::to_string)
        )),
        Some(v) if v != job.pinned => {
            failures.push(format!("verdict {v}, pinned {}", job.pinned));
        }
        Some(_) => {}
    }
    if let Ok(report) = &mapped.result {
        if let Err(e) = report
            .phase_times
            .reconcile(RECONCILE_TOL_FRAC, RECONCILE_SLACK_MS)
        {
            failures.push(e);
        }
        let bytes = canonical(report);
        match &state.reference {
            None => {
                state.reference = Some(bytes);
                state.report = Some(report.clone());
            }
            Some(reference) if *reference != bytes => {
                failures.push("report differs from the job's first mapping".into());
            }
            Some(_) => {}
        }
        state.les = f64::from(report.num_les);
        state.delay_ns = report
            .physical
            .as_ref()
            .map_or(f64::NAN, |p| p.routed_delay_ns);
    }
    failures
}

/// Records a check outcome and prints its failures.
fn record(out: &mut impl Write, tally: &mut Tally, job: &Job, what: &str, failures: &[String]) {
    tally.record(failures.is_empty());
    for f in failures {
        let _ = writeln!(out, "# FAIL {} ({what}): {f}", job.name);
    }
}

/// The untimed verification pass: the flow with `with_verification()`
/// runs `check_folded_execution` on the mapped design.
fn verify_pass(out: &mut impl Write, wl: &Workload, states: &mut [JobState], tally: &mut Tally) {
    for (job, state) in wl.jobs.iter().zip(states.iter_mut()) {
        let mapped = map_job(&job.flow.clone().with_verification(), &job.net);
        let mut failures = check(job, state, &mapped);
        if let Err(FlowError::VerificationFailed { detail }) = &mapped.result {
            failures.push(format!("folded execution: {detail}"));
        }
        record(out, tally, job, "verification", &failures);
    }
}

/// Runs one benchmark configuration, printing progress lines to `out`.
///
/// # Errors
///
/// Set-up failures (an unknown workload, a circuit that fails to map).
pub fn run(cfg: &Config, out: &mut impl Write) -> Result<Outcome, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let _ = writeln!(out, "# {}", Host::probe(&root).describe());
    let _ = writeln!(
        out,
        "# workload {} seed {} seconds {} trace {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );

    // --- Set-up, several times; the last one is kept. ---
    let mut setup_s = Vec::new();
    let mut expand_ms = Vec::new();
    let mut flowmap_ms = Vec::new();
    let mut workload = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPS)
    {
        let start = Instant::now();
        let wl = setup(&cfg.workload)?;
        setup_s.push(start.elapsed().as_secs_f64());
        expand_ms.push(wl.expand_ms);
        flowmap_ms.push(wl.flowmap_ms);
        workload = Some(wl);
    }
    let mut wl = workload.ok_or("no set-up ran")?;
    for (name, verdict) in &cfg.pins {
        let job = wl
            .jobs
            .iter_mut()
            .find(|j| &j.name == name)
            .ok_or_else(|| format!("--pin: no job `{name}` in {}", wl.name))?;
        job.pinned = *verdict;
    }

    let mut tally = Tally::default();
    let mut states: Vec<JobState> = wl.jobs.iter().map(|_| JobState::default()).collect();
    let verify_start = Instant::now();
    verify_pass(out, &wl, &mut states, &mut tally);
    let _ = writeln!(
        out,
        "# set-up {} reps, median {:.6} s; verification pass {:.2} s",
        setup_s.len(),
        median(&setup_s),
        verify_start.elapsed().as_secs_f64()
    );

    // --- Timed passes; a traced run splits its time between untraced
    // and traced passes so the tracing overhead can be measured. ---
    let mut rng = XorShift64Star::new(cfg.seed);
    let mut order: Vec<usize> = (0..wl.jobs.len()).collect();
    let untraced_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut pass_ms = Vec::new();
    let start = Instant::now();
    while pass_ms.is_empty() || start.elapsed().as_secs_f64() < untraced_s {
        rng.shuffle(&mut order);
        let mut wall = 0.0;
        for &j in &order {
            let job = &wl.jobs[j];
            let mapped = map_job(&job.flow, &job.net);
            let failures = check(job, &mut states[j], &mapped);
            record(out, &mut tally, job, "timed", &failures);
            states[j].samples.push(mapped.ms);
            wall += mapped.ms;
        }
        pass_ms.push(wall);
    }
    let mut traced_pass_ms = Vec::new();
    if cfg.trace {
        let start = Instant::now();
        while traced_pass_ms.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds / 2.0 {
            rng.shuffle(&mut order);
            let mut wall = 0.0;
            for &j in &order {
                let job = &wl.jobs[j];
                let (mapped, traced, failures) = traced_map(job, &mut states[j]);
                record(out, &mut tally, job, "traced", &failures);
                wall += mapped.ms;
                if let Some(t) = traced {
                    states[j].traced.push(t);
                }
            }
            traced_pass_ms.push(wall);
        }
        alloc_replay(&wl, &mut states);
    }

    for (job, state) in wl.jobs.iter().zip(&states) {
        let t = tail(&state.samples).ok_or("no samples")?;
        let _ =
            writeln!(
            out,
            "# job {} verdict {} (pinned {}) les {} delay {:.4} ns p50 {:.3} ms tail {:.3} ms ({})",
            job.name,
            state.verdict.map_or("untyped".to_string(), |v| v.to_string()),
            job.pinned,
            state.les,
            state.delay_ns,
            median(&state.samples),
            t.value,
            t.describe()
        );
    }
    let metrics = if cfg.trace {
        let overhead = median(&traced_pass_ms) / median(&pass_ms) - 1.0;
        per_layer(
            out,
            &wl,
            &states,
            median(&expand_ms),
            median(&flowmap_ms),
            overhead,
        )
    } else {
        end_to_end(&states, &pass_ms, median(&setup_s), &tally)
    };
    let correct = tally.all_ok()
        && metrics.iter().all(|m| m.value.is_finite())
        && (cfg.trace || metrics.iter().all(|m| m.value > 0.0));
    if !correct && tally.all_ok() {
        let _ = writeln!(out, "# FAIL a metric is not a finite positive number");
    }
    Ok(Outcome {
        correct,
        tally,
        metrics,
    })
}

/// One traced mapping: the map call timed with the observe collector
/// on, its counters reset before and read after the call, then the
/// layer replay. A defect-free job must replay to the report's LEs,
/// routed delay and bitmap bits.
fn traced_map(job: &Job, state: &mut JobState) -> (Mapped, Option<TracedMap>, Vec<String>) {
    nanomap_observe::reset();
    nanomap_observe::set_enabled(true);
    let mapped = map_job(&job.flow, &job.net);
    nanomap_observe::set_enabled(false);
    let counters = nanomap_observe::snapshot().counters;
    let mut failures = check(job, state, &mapped);
    let log = match &mapped.result {
        Ok(report) => Some((&report.recovery, report.phase_times)),
        Err(e) => e.recovery_log().map(|log| (log, PhaseTimes::default())),
    };
    let remedies = log.map_or_else(Remedies::default, |(log, times)| {
        Remedies::attribute(mapped.ms, &times, log)
    });
    let mut traced = None;
    if let Ok(report) = &mapped.result {
        let mut trace = Trace::default();
        match replay(job, report, &mut trace) {
            Ok(replayed) => {
                if report.recovery.attempts.is_empty() {
                    failures.extend(qor_mismatch(report, &replayed));
                }
                traced = Some(TracedMap {
                    map_ms: mapped.ms,
                    trace,
                    replayed,
                    remedies,
                    counters,
                });
            }
            Err(e) => failures.push(format!("replay: {e}")),
        }
    }
    (mapped, traced, failures)
}

/// One more replay per job with allocation tracking on, untimed: the
/// counting allocator slows allocation-heavy layers, so its bytes come
/// from a replay whose times are not used.
fn alloc_replay(wl: &Workload, states: &mut [JobState]) {
    nanomap_observe::set_memory_tracking(true);
    for (job, state) in wl.jobs.iter().zip(states.iter_mut()) {
        if let Some(report) = &state.report {
            nanomap_observe::reset_memory();
            let mut trace = Trace::default();
            if replay(job, report, &mut trace).is_ok() {
                state.alloc = trace;
            }
        }
    }
    nanomap_observe::set_memory_tracking(false);
}

/// Differences between a defect-free report and its replay.
fn qor_mismatch(report: &MappingReport, replayed: &Replayed) -> Vec<String> {
    let mut out = Vec::new();
    if replayed.les != report.num_les {
        out.push(format!(
            "replay LEs {} vs report {}",
            replayed.les, report.num_les
        ));
    }
    let physical = report.physical.as_ref();
    let delay = physical.map(|p| p.routed_delay_ns);
    if replayed.routed_delay_ns != delay {
        out.push(format!(
            "replay routed delay {:?} vs report {delay:?}",
            replayed.routed_delay_ns
        ));
    }
    let bits = physical.map(|p| p.bitmap_bits);
    if replayed.bitmap_bits != bits {
        out.push(format!(
            "replay bitmap bits {:?} vs report {bits:?}",
            replayed.bitmap_bits
        ));
    }
    out
}

/// Metrics from `(name, value, unit)` rows.
fn metrics<const N: usize>(rows: [(&'static str, f64, &'static str); N]) -> Vec<Metric> {
    rows.into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect()
}

fn end_to_end(states: &[JobState], pass_ms: &[f64], setup_s: f64, tally: &Tally) -> Vec<Metric> {
    let per_job = |f: &dyn Fn(&JobState) -> f64| states.iter().map(f).collect::<Vec<_>>();
    let medians = per_job(&|s| median(&s.samples));
    let tails = per_job(&|s| tail(&s.samples).map_or(f64::NAN, |t| t.value));
    metrics([
        ("setup_s", setup_s, "s"),
        ("map_ms.p50", geomean(&medians), "ms"),
        ("map_ms.tail", geomean(&tails), "ms"),
        ("pass_s", median(pass_ms) / 1e3, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("les.geomean", geomean(&per_job(&|s| s.les)), "LE"),
        (
            "delay_ns.geomean",
            geomean(&per_job(&|s| s.delay_ns)),
            "ns_routed",
        ),
        ("ok_frac", tally.ok_frac(), "fraction"),
    ])
}

/// Peak resident set of the process (`VmHWM`), in MB; `NaN` where the
/// kernel does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Per-job medians over the traced maps, summed over the jobs: one
/// figure per workload pass.
fn per_pass(states: &[JobState], f: impl Fn(&TracedMap) -> f64) -> f64 {
    states
        .iter()
        .filter(|s| !s.traced.is_empty())
        .map(|s| median(&s.traced.iter().map(&f).collect::<Vec<_>>()))
        .fold(0.0, |acc, x| acc + x)
}

/// Replayed layers (span names), in flow order.
const LAYERS: [&str; 9] = [
    "netlist.planes",
    "core.candidates",
    "sched.graph_build",
    "sched.fds",
    "pack.design",
    "pack",
    "pack.nets",
    "place",
    "route",
];

fn per_layer(
    out: &mut impl Write,
    wl: &Workload,
    states: &[JobState],
    expand_ms: f64,
    flowmap_ms: f64,
    overhead_frac: f64,
) -> Vec<Metric> {
    let pass = |f: &dyn Fn(&TracedMap) -> f64| per_pass(states, f);
    let ms = |span: &'static str| pass(&|t| t.trace.ms(span));
    let mb = |span: &'static str| {
        states
            .iter()
            .map(|s| s.alloc.alloc_bytes(span) as f64 / 1e6)
            .fold(0.0, |acc, x| acc + x)
    };
    let counter = |name: &'static str| pass(&|t| t.counters.get(name).map_or(0.0, |&c| c as f64));
    let map_ms = pass(&|t| t.map_ms);
    let unattributed = pass(&|t| t.map_ms - t.trace.total_ms());
    let heuristic = pass(&|t| t.remedies.heuristic_ms);
    let exact = pass(&|t| t.remedies.exact_ms);
    let attempts = pass(&|t| t.remedies.attempts as f64);
    let mapped_jobs = states.iter().filter(|s| !s.traced.is_empty()).count() as f64;

    let share = |x: f64| 100.0 * x / map_ms;
    let row = |out: &mut dyn Write, name: &str, x: f64| {
        let _ = writeln!(out, "#   {name:<20} {x:>10.2} ms {:>6.1}%", share(x));
    };
    let _ = writeln!(
        out,
        "# layer shares on {} (ms per pass, % of {map_ms:.1} ms traced map time)",
        wl.name
    );
    for span in LAYERS {
        row(out, span, ms(span));
    }
    row(out, "core.unattributed", unattributed);
    let _ = writeln!(out, "# remedy shares on {}", wl.name);
    row(out, "core.select", pass(&|t| t.remedies.select_ms));
    row(out, "recovery.heuristic", heuristic);
    row(out, "sat.exact", exact);
    let (premise, part) = match wl.name {
        "fold-c5315" => (
            "sched.* + core.unattributed_ms",
            ms("sched.fds") + ms("sched.graph_build") + unattributed,
        ),
        "dsp-pack" => (
            "pack.ms + place.ms + route.ms",
            ms("pack") + ms("place") + ms("route"),
        ),
        _ => ("recovery.heuristic_ms + sat.exact_ms", heuristic + exact),
    };
    let verdict = if share(part) > 50.0 {
        "holds"
    } else {
        "DOES NOT HOLD"
    };
    let _ = writeln!(
        out,
        "# premise {}: {premise} = {:.1}% of map time: {verdict}",
        wl.name,
        share(part)
    );

    metrics([
        ("sched.fds_ms", ms("sched.fds"), "ms"),
        (
            "sched.fds_calls",
            pass(&|t| t.trace.count("sched.fds") as f64),
            "count",
        ),
        ("sched.items", pass(&|t| t.replayed.items as f64), "count"),
        ("sched.graph_build_ms", ms("sched.graph_build"), "ms"),
        (
            "core.candidates",
            pass(&|t| t.replayed.candidates as f64),
            "count",
        ),
        ("core.unattributed_ms", unattributed, "ms"),
        ("pack.ms", ms("pack"), "ms"),
        ("pack.nets_ms", ms("pack.nets"), "ms"),
        ("pack.luts", pass(&|t| t.replayed.luts as f64), "count"),
        ("pack.smbs", pass(&|t| t.replayed.smbs as f64), "count"),
        ("pack.alloc_mb", mb("pack"), "MB"),
        ("place.ms", ms("place"), "ms"),
        ("place.smbs", pass(&|t| t.replayed.sites as f64), "count"),
        ("place.alloc_mb", mb("place"), "MB"),
        ("route.ms", ms("route"), "ms"),
        ("route.bitmap_ms", pass(&|t| t.replayed.bitmap_ms), "ms"),
        ("recovery.attempts", attempts, "count"),
        ("recovery.heuristic_ms", heuristic, "ms"),
        ("recovery.useful_ratio", mapped_jobs / attempts, "ratio"),
        ("sat.exact_ms", exact, "ms"),
        ("sat.solves", counter("flow.exact_assign.solves"), "count"),
        ("sat.unsat", pass(&|t| t.remedies.unsat as f64), "count"),
        ("sat.conflicts", counter("sat.conflicts"), "count"),
        ("sat.decisions", counter("sat.decisions"), "count"),
        ("techmap.expand_ms", expand_ms, "ms"),
        ("techmap.flowmap_ms", flowmap_ms, "ms"),
        ("trace.overhead_frac", overhead_frac, "fraction"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanomap::RecoveryAttempt;

    fn attempt(remedy: Remedy, phase: &'static str, error: &str, wall_us: u64) -> RecoveryAttempt {
        RecoveryAttempt {
            attempt: 0,
            candidate: 0,
            folding_level: Some(1),
            stages: 2,
            remedy,
            phase,
            error: error.into(),
            wall_us,
        }
    }

    #[test]
    fn remedies_split_failed_attempts_and_the_winner() {
        let times = PhaseTimes {
            folding_select_ms: 10.0,
            ..PhaseTimes::default()
        };
        let mut log = RecoveryLog::new();
        log.attempts = vec![
            attempt(Remedy::Baseline, "place", "no legal slot", 20_000),
            attempt(Remedy::Reseed, "route", "congested", 30_000),
            attempt(
                Remedy::ExactAssign,
                "exact-assign",
                "infeasible on 3x3 grid",
                5_000,
            ),
        ];
        log.succeeded_with = Some(Remedy::ExactAssign);
        // 100 ms total: 10 select, 55 failed, so the winner took 35.
        let r = Remedies::attribute(100.0, &times, &log);
        assert_eq!(r.select_ms, 10.0);
        assert!((r.heuristic_ms - 50.0).abs() < 1e-9);
        assert!((r.exact_ms - 40.0).abs() < 1e-9);
        assert_eq!((r.attempts, r.unsat), (4, 1));

        log.succeeded_with = Some(Remedy::WidenGrid);
        let r = Remedies::attribute(100.0, &times, &log);
        assert!((r.heuristic_ms - 85.0).abs() < 1e-9);
        assert!((r.exact_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn a_first_attempt_success_is_not_recovery() {
        let mut log = RecoveryLog::new();
        log.succeeded_with = Some(Remedy::Baseline);
        let r = Remedies::attribute(50.0, &PhaseTimes::default(), &log);
        assert_eq!((r.heuristic_ms, r.exact_ms, r.attempts), (0.0, 0.0, 1));
    }
}
