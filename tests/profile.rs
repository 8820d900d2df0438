//! Integration tests for the performance-observability layer: the
//! span-stack sampling profiler, allocation/RSS telemetry, and their
//! contract with the flow's own `phase_times`.
//!
//! The sampler and the memory counters are process-global, so every
//! test that touches them serializes on [`obs_lock`].

use std::sync::Mutex;
use std::time::Duration;

use nanomap::{NanoMap, Objective, PhaseTimes};
use nanomap_arch::ArchParams;
use nanomap_bench::circuits::{ex1, paper_benchmarks};
use nanomap_observe as observe;
use nanomap_techmap::{expand, ExpandOptions};

/// The allocation counters only see heap traffic when the counting
/// wrapper is this binary's global allocator — same install as the
/// `nanomap` CLI and the bench `perf` bin.
#[global_allocator]
static ALLOC: observe::CountingAllocator = observe::CountingAllocator::system();

fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Puts the global observability state back the way tier-1 tests expect
/// it (collector counters are intentionally left alone — other tests own
/// their own epochs via `reset`).
fn teardown() {
    observe::set_memory_tracking(false);
    while observe::stop_sampler().is_some() {}
}

/// The acceptance-criteria test: a profiled flow emits a valid
/// `nanomap-profile-v1` artifact whose per-phase inclusive times
/// reconcile with the flow's independently measured `phase_times`.
#[test]
fn profiled_flow_reconciles_with_phase_times() {
    let _guard = obs_lock();
    observe::reset();
    observe::set_enabled(true);
    // Sample well above the default: the optimized test profile runs the
    // paper's FIR filter in a couple hundred milliseconds, and the
    // reconciliation below wants >= ~100 samples per checked phase.
    assert!(observe::start_sampler(10_000), "sampler starts");

    let net = paper_benchmarks()
        .into_iter()
        .find(|b| b.name == "FIR")
        .expect("FIR is a paper benchmark")
        .network;
    let flow = NanoMap::new(ArchParams::paper());
    let report = flow
        .map(&net, Objective::MinAreaDelayProduct)
        .expect("FIR maps");
    let profile = observe::stop_sampler().expect("profile comes back");
    teardown();

    // The artifact is schema-tagged, parseable, and deterministic in
    // shape (re-emitting the parsed JSON reproduces the text).
    let text = profile.to_json().to_pretty_string();
    let parsed = observe::json::parse(&text).expect("profile JSON parses");
    assert_eq!(
        parsed.get("schema").and_then(observe::JsonValue::as_str),
        Some(observe::PROFILE_SCHEMA)
    );
    assert_eq!(text, parsed.to_pretty_string());

    // Sampler health: the overhead bar is < 5% of wall-clock; torn
    // reads are possible but must be rare against a single-threaded flow.
    assert!(
        profile.overhead_fraction() < 0.05,
        "overhead {:.4}",
        profile.overhead_fraction()
    );
    assert!(profile.torn_samples <= profile.ticks / 10);

    let t = report.phase_times;
    t.reconcile(0.10, 5.0).expect("phase_times self-consistent");

    // Sampling is statistical: only phases long enough to accumulate a
    // meaningful sample count are held to the reconciliation bar, and
    // the tolerance accounts for +-1-sample quantization on top of the
    // 10% artifact bar.
    let us_per_sample = profile.us_per_sample();
    assert!(us_per_sample > 0.0, "no samples at all");
    let min_ms = (us_per_sample / 1e3) * 100.0; // >= ~100 samples
    let phases = [
        ("folding-select", t.folding_select_ms),
        ("fds", t.fds_ms),
        ("pack", t.pack_ms),
        ("place", t.place_ms),
        ("route", t.route_ms),
        ("verify", t.verify_ms),
    ];
    let mut checked = 0;
    for (phase, wall_ms) in phases {
        if wall_ms < min_ms {
            continue;
        }
        let sampled_ms = profile.inclusive_ms(&format!("flow;{phase}"));
        let err = (sampled_ms - wall_ms).abs() / wall_ms;
        assert!(
            err < 0.25,
            "{phase}: sampled {sampled_ms:.1} ms vs wall {wall_ms:.1} ms ({:.0}% off)",
            err * 100.0
        );
        checked += 1;
    }
    // The flow root must always reconcile — in debug builds ex1 runs
    // long enough for thousands of samples.
    let flow_sampled = profile.inclusive_ms("flow");
    if t.total_ms >= min_ms {
        let err = (flow_sampled - t.total_ms).abs() / t.total_ms;
        assert!(
            err < 0.15,
            "flow: sampled {flow_sampled:.1} ms vs wall {:.1} ms",
            t.total_ms
        );
        checked += 1;
    }
    assert!(checked > 0, "flow too fast to validate any phase");

    // Collapsed stacks render every exclusive path.
    let collapsed = profile.collapsed();
    assert!(collapsed.lines().count() > 0);
    for line in collapsed.lines() {
        let (path, count) = line.rsplit_once(' ').expect("`path count` shape");
        assert!(!path.is_empty());
        assert!(count.parse::<u64>().expect("count parses") > 0);
    }
}

/// Deterministic ground-truth check: synthetic spans with known sleeps
/// must come back with proportionate inclusive times.
#[test]
fn sampler_tracks_synthetic_span_durations() {
    let _guard = obs_lock();
    observe::set_enabled(true);
    assert!(observe::start_sampler(4000));
    {
        let _outer = observe::span!("it-outer");
        {
            let _a = observe::span!("it-long");
            std::thread::sleep(Duration::from_millis(120));
        }
        {
            let _b = observe::span!("it-short");
            std::thread::sleep(Duration::from_millis(40));
        }
    }
    let profile = observe::stop_sampler().expect("profile comes back");
    teardown();
    let long_ms = profile.inclusive_ms("it-outer;it-long");
    let short_ms = profile.inclusive_ms("it-outer;it-short");
    let outer_ms = profile.inclusive_ms("it-outer");
    assert!(
        (long_ms - 120.0).abs() < 60.0,
        "long {long_ms:.1} ms (expected ~120)"
    );
    assert!(
        (short_ms - 40.0).abs() < 30.0,
        "short {short_ms:.1} ms (expected ~40)"
    );
    assert!(outer_ms >= long_ms + short_ms - 1.0);
    // The longer span dominates the top-K ranking.
    let top = profile.top_paths(2);
    assert_eq!(
        top.first().map(|h| h.key.as_str()),
        Some("it-outer;it-long")
    );
}

/// Memory telemetry: with the counting allocator installed and tracking
/// on, the report carries allocation counts attributed to phases; with
/// tracking off it carries nothing at all.
#[test]
fn memory_telemetry_rides_the_report_only_when_tracked() {
    let _guard = obs_lock();
    let net = expand(&ex1(4), ExpandOptions::default()).expect("expands");
    let flow = NanoMap::new(ArchParams::paper());

    // Phase attribution rides on spans, which record only while the
    // collector is enabled (exactly how the CLI's --profile sets up).
    observe::reset();
    observe::set_enabled(true);

    // Untracked: the field is absent from struct and JSON alike.
    observe::set_memory_tracking(false);
    let plain = flow
        .map(&net, Objective::MinAreaDelayProduct)
        .expect("ex1 maps");
    assert!(plain.memory.is_none());
    assert!(!plain.to_json().to_compact_string().contains("\"memory\""));

    // Tracked: counters are live and phase-attributed.
    observe::reset_memory();
    observe::set_memory_tracking(true);
    let tracked = flow
        .map(&net, Objective::MinAreaDelayProduct)
        .expect("ex1 maps");
    teardown();
    let memory = tracked.memory.clone().expect("memory report present");
    assert!(memory.alloc_count > 0, "flow allocates");
    assert!(memory.peak_live_bytes > 0);
    assert!(memory.alloc_bytes >= memory.peak_live_bytes);
    let phases: Vec<&str> = memory.by_phase.iter().map(|&(p, _, _)| p).collect();
    assert!(
        phases.iter().any(|p| *p != "other"),
        "no phase attribution: {phases:?}"
    );
    if cfg!(target_os = "linux") {
        // The flow samples RSS at least once at finalize time.
        assert!(memory.peak_rss_kb.expect("rss on linux") > 100);
    }
    // QoR artifacts remain identical either way: the tracked run's QoR
    // metrics contain no memory entries (info lives in the report only).
    let snap = observe::snapshot();
    let qor = nanomap::CircuitMetrics::from_mapping(&tracked, &flow.channels, &snap);
    assert!(
        qor.metrics.keys().all(|k| !k.contains("mem")),
        "memory must not leak into gated QoR metrics"
    );
}

/// The reconciliation helper itself, on a freshly measured flow (unit
/// tests cover synthetic numbers; this pins the real flow's contract).
#[test]
fn real_flow_phase_times_never_overshoot_total() {
    let net = expand(&ex1(4), ExpandOptions::default()).expect("expands");
    let report = NanoMap::new(ArchParams::paper())
        .map(&net, Objective::MinAreaDelayProduct)
        .expect("ex1 maps");
    let t = report.phase_times;
    assert!(t.total_ms > 0.0);
    assert!(t.phase_sum_ms() > 0.0);
    t.reconcile(0.10, 5.0).expect("self-consistent");
    // The serialized phase map carries exactly the documented keys.
    let json = t.to_json().to_compact_string();
    for key in [
        "folding_select_ms",
        "fds_ms",
        "pack_ms",
        "place_ms",
        "route_ms",
        "bitmap_ms",
        "verify_ms",
        "explain_ms",
        "total_ms",
    ] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
    let _ = PhaseTimes::default();
}
