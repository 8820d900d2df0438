//! End-to-end contracts of the structured event bus and the artifact
//! version registry.
//!
//! Under test: a full mapping run streamed through [`EventStream`]
//! produces a valid `nanomap-events-v1` NDJSON stream — run-start
//! first, run-end last, with phase totals that reconcile against the
//! report's own `phase_times` — and every persisted artifact embeds
//! the schema constant registered in `nanomap::artifact::versions`.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

use nanomap::artifact::versions;
use nanomap::runs;
use nanomap::{CircuitMetrics, MetricsDocument, NanoMap, Objective, RunRecord, Schema};
use nanomap_arch::ArchParams;
use nanomap_netlist::rtl::{CombOp, RtlBuilder, RtlCircuit};
use nanomap_netlist::LutNetwork;
use nanomap_observe::EventStream;
use nanomap_techmap::{expand, ExpandOptions};

/// A small multiplier-accumulator: big enough to fold, pack, place and
/// route, small enough to map in well under a second.
fn mac_circuit() -> RtlCircuit {
    let mut b = RtlBuilder::new("mac");
    let a = b.input("a", 4);
    let x = b.input("x", 4);
    let acc = b.register("acc", 8);
    let gnd = b.constant("gnd", 1, 0);
    let mul = b.comb("mul", CombOp::Mul { width: 4 });
    b.connect(a, 0, mul, 0).unwrap();
    b.connect(x, 0, mul, 1).unwrap();
    let add = b.comb("add", CombOp::Add { width: 8 });
    b.connect(mul, 0, add, 0).unwrap();
    b.connect(acc, 0, add, 1).unwrap();
    b.connect(gnd, 0, add, 2).unwrap();
    b.connect(add, 0, acc, 0).unwrap();
    let y = b.output("y", 8);
    b.connect(acc, 0, y, 0).unwrap();
    b.finish().unwrap()
}

fn mac_net() -> LutNetwork {
    expand(&mac_circuit(), ExpandOptions::default()).unwrap()
}

/// The event bus is process-global: tests that run a flow (which
/// publishes when the bus is up) must not overlap.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An in-memory NDJSON sink the stream thread and the test can share.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn live_stream_validates_and_reconciles_with_the_report() {
    let _guard = serial();
    let net = mac_net();
    let flow = NanoMap::new(ArchParams::paper_unbounded());
    let run_id = flow.run_id(&net, Objective::MinAreaDelayProduct);

    nanomap_observe::reset_events();
    let sink = SharedSink::default();
    let stream = EventStream::spawn(Box::new(sink.clone()));
    let report = flow.map(&net, Objective::MinAreaDelayProduct).unwrap();
    runs::publish_run_end(&run_id, 0, Some(&report));
    let stats = stream.finish();

    assert!(!stats.sink_broken);
    assert_eq!(
        stats.dropped, 0,
        "a mac-sized run must not overflow the queue"
    );
    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let check = runs::check_stream(&text).unwrap();
    assert_eq!(check.run_id, run_id);
    assert_eq!(check.exit_code, 0);
    assert!(check.events >= 10, "only {} events streamed", check.events);

    // run-end's totals are the report's own phase times, verbatim.
    let t = report.phase_times;
    assert_eq!(check.total_ms, t.total_ms);
    for (name, expect) in [
        ("folding_select_ms", t.folding_select_ms),
        ("fds_ms", t.fds_ms),
        ("pack_ms", t.pack_ms),
        ("place_ms", t.place_ms),
        ("route_ms", t.route_ms),
        ("bitmap_ms", t.bitmap_ms),
        ("verify_ms", t.verify_ms),
        ("explain_ms", t.explain_ms),
    ] {
        assert_eq!(check.phase_ms.get(name), Some(&expect), "{name}");
    }
}

#[test]
fn run_ids_are_stable_and_seed_sensitive() {
    let net = mac_net();
    let flow = NanoMap::new(ArchParams::paper_unbounded());
    let id = flow.run_id(&net, Objective::MinAreaDelayProduct);
    assert_eq!(id, flow.run_id(&net, Objective::MinAreaDelayProduct));
    assert_ne!(id, flow.run_id(&net, Objective::MinDelay { max_les: None }));
    let mut reseeded = NanoMap::new(ArchParams::paper_unbounded());
    reseeded.place_options.seed ^= 1;
    assert_ne!(id, reseeded.run_id(&net, Objective::MinAreaDelayProduct));
}

#[test]
fn every_artifact_embeds_its_registered_version() {
    let _guard = serial();
    let net = mac_net();
    let dir = std::env::temp_dir().join(format!("nanomap-versions-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    nanomap_observe::reset();
    nanomap_observe::set_enabled(true);
    let flow = NanoMap::new(ArchParams::paper_unbounded())
        .with_checkpoint_dir(&dir)
        .with_explain();
    let report = flow.map(&net, Objective::MinAreaDelayProduct).unwrap();
    let snapshot = nanomap_observe::snapshot();
    nanomap_observe::set_enabled(false);

    // QoR document.
    let qor = MetricsDocument::new(
        Schema::Qor,
        vec![CircuitMetrics::from_mapping(
            &report,
            &flow.channels,
            &snapshot,
        )],
    )
    .to_json()
    .to_compact_string();
    assert!(qor.contains(versions::QOR), "qor document lost its schema");

    // Perf document.
    let samples = [("total_ms".to_string(), vec![1.0, 2.0, 3.0])]
        .into_iter()
        .collect();
    let perf = MetricsDocument::new(
        Schema::Perf,
        vec![CircuitMetrics::from_samples("mac", 3, &samples)],
    )
    .to_json()
    .to_compact_string();
    assert!(
        perf.contains(versions::PERF),
        "perf document lost its schema"
    );

    // Checkpoint artifact, as written to disk by the flow.
    let ckpt = std::fs::read_to_string(dir.join("mac.ckpt.json")).unwrap();
    assert!(
        ckpt.contains(versions::CHECKPOINT),
        "checkpoint lost its schema"
    );

    // Explain attribution artifact.
    let explain = report.explain.as_ref().expect("with_explain report");
    let explain_json = explain.to_json().to_compact_string();
    assert!(
        explain_json.contains(versions::EXPLAIN),
        "explain lost its schema"
    );

    // Flight-recorder ledger line.
    let run_id = flow.run_id(&net, Objective::MinAreaDelayProduct);
    let line = RunRecord::from_report(&report, run_id, 0)
        .to_json()
        .to_compact_string();
    assert!(
        line.contains(versions::EVENTS),
        "ledger line lost its schema"
    );

    // Profiler artifact (schema constant shared with the observe crate).
    if nanomap_observe::start_sampler(997) {
        std::thread::sleep(std::time::Duration::from_millis(5));
        let profile = nanomap_observe::stop_sampler().expect("sampler was running");
        let profile_json = profile.to_json().to_compact_string();
        assert!(
            profile_json.contains(versions::PROFILE),
            "profile lost its schema"
        );
    }
    assert_eq!(versions::PROFILE, nanomap_observe::PROFILE_SCHEMA);
    assert_eq!(versions::EVENTS, nanomap_observe::EVENTS_SCHEMA);

    std::fs::remove_dir_all(&dir).ok();
}
