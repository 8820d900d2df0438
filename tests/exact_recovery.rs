//! Flow-level tests for the exact SAT-based recovery rung.
//!
//! The exact rung is the *complete* final rung of the recovery ladder:
//! when every heuristic attempt has failed, a CDCL solver either finds
//! a defect-legal slot assignment (which then rides the normal
//! place/route/timing path) or proves none exists, in which case the
//! flow fails with the typed [`FlowError::ExactAssignUnsat`] naming the
//! dominant defect class — never with a vague `RecoveryExhausted`.

use std::panic::catch_unwind;

use nanomap::{FlowError, MappingReport, NanoMap, Objective, Remedy};
use nanomap_arch::{ArchParams, DefectMap};
use nanomap_bench::circuits::{self, paper_benchmarks};
use nanomap_netlist::LutNetwork;
use nanomap_techmap::{expand, ExpandOptions};

/// Maps `net` on a uniformly defective fabric, trapping panics.
fn map_exact(net: &LutNetwork, rate: f64, seed: u64) -> Result<MappingReport, FlowError> {
    let net = net.clone();
    catch_unwind(move || {
        NanoMap::new(ArchParams::paper_unbounded())
            .with_defects(DefectMap::uniform(rate, seed))
            .with_exact_recovery()
            .map(&net, Objective::MinAreaDelayProduct)
    })
    .expect("the flow must never panic with exact recovery enabled")
}

fn bench_net(name: &str) -> LutNetwork {
    paper_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("no benchmark named {name}"))
        .network
}

/// A fully dead fabric must fail with the *typed* infeasibility proof,
/// not `RecoveryExhausted`: the exact rung's structural precheck sees
/// every cluster's domain empty and says so, naming the defect class.
#[test]
fn dead_fabric_yields_typed_unsat_with_defect_class() {
    let net = bench_net("ex1");
    let err = map_exact(&net, 1.0, 3).expect_err("nothing maps on a dead fabric");
    let FlowError::ExactAssignUnsat {
        ref log,
        ref summary,
    } = err
    else {
        panic!("expected ExactAssignUnsat, got: {err}");
    };
    // The census accounts for the whole grid and blames a class.
    assert_eq!(summary.open_slots, 0, "a dead fabric has no open slots");
    assert!(summary.dead_slots + summary.nram_blocked_slots > 0);
    assert!(!summary.dominant_class.is_empty());
    // The heuristic history is preserved alongside the proof, and the
    // exact rung's own attempts are in it.
    assert!(!log.attempts.is_empty());
    assert!(log.attempts.iter().any(|a| a.remedy == Remedy::ExactAssign));
    let display = err.to_string();
    assert!(display.contains("infeasible"), "{display}");
    assert!(
        display.contains("dead slots") || display.contains("NRAM"),
        "the proof must name the dominant defect class: {display}"
    );
}

/// Every failed attempt carries its wall-clock cost, and the log can
/// aggregate it.
#[test]
fn failed_attempts_record_wall_clock() {
    let net = bench_net("ex1");
    let err = map_exact(&net, 1.0, 5).expect_err("dead fabric");
    let log = err.recovery_log().expect("typed errors carry the log");
    assert!(
        log.attempts.iter().any(|a| a.wall_us > 0),
        "at least one attempt must have measurable cost"
    );
    assert!(log.wall_ms() > 0.0);
    assert!(log.summary().contains("ms"), "{}", log.summary());
}

/// A tiny time budget bounds the exact rung: the flow returns a typed
/// outcome promptly instead of solving to completion.
#[test]
fn exact_rung_honors_the_time_budget() {
    let net = bench_net("ex1");
    let result = catch_unwind(|| {
        let net = net.clone();
        NanoMap::new(ArchParams::paper_unbounded())
            .with_defects(DefectMap::uniform(0.6, 9))
            .with_exact_recovery()
            .with_budget_ms(1)
            .map(&net, Objective::MinAreaDelayProduct)
    })
    .expect("budgeted exact recovery must not panic");
    if let Err(e) = result {
        assert!(
            matches!(
                e,
                FlowError::BudgetExhausted { .. }
                    | FlowError::ExactAssignUnsat { .. }
                    | FlowError::RecoveryExhausted { .. }
            ),
            "unexpected error under a 1 ms budget: {e}"
        );
    }
}

/// Every millisecond of an exact rescue is counted once: the packing
/// the rescue reuses from the heuristic attempts reports its time once,
/// and the winner's scheduling is part of folding selection, so the
/// per-phase sum never overshoots the total.
#[test]
fn exact_rescue_phase_times_reconcile() {
    let arch = ArchParams::paper();
    let options = ExpandOptions {
        lut_inputs: arch.lut_inputs,
        ..ExpandOptions::default()
    };
    let net = expand(&circuits::ex2(), options).expect("ex2 expands");
    let report = NanoMap::new(arch)
        .with_defects(DefectMap::uniform(0.20, 1))
        .with_exact_recovery()
        .with_sat_conflict_budget(200_000)
        .map(&net, Objective::MinAreaDelayProduct)
        .expect("ex2 at 20% defects is rescued");
    assert_eq!(report.recovery.succeeded_with, Some(Remedy::ExactAssign));
    let t = report.phase_times;
    assert!(t.folding_select_ms > 0.0 && t.pack_ms > 0.0);
    t.reconcile(0.10, 5.0)
        .expect("phase times count each ms once");
}

/// Scans (circuit, rate, seed) triples for fabrics where the heuristic
/// ladder gives up but the exact rung finds an assignment. Configure
/// with `PROBE_CIRCUITS` (comma list), `PROBE_RATES` (comma list) and
/// `PROBE_SEED_LO`/`PROBE_SEED_HI`, then run
/// `cargo test -p nanomap-bench --test exact_recovery probe -- --ignored --nocapture`
/// to (re)discover fixtures for the rescue tests.
#[test]
#[ignore = "fixture discovery helper, not a regression test"]
fn probe_rescue_triples() {
    let env = |key: &str, default: &str| std::env::var(key).unwrap_or_else(|_| default.into());
    let circuits = env("PROBE_CIRCUITS", "ex1,ex2,Biquad");
    let rates: Vec<f64> = env("PROBE_RATES", "0.20")
        .split(',')
        .map(|r| r.trim().parse().expect("PROBE_RATES"))
        .collect();
    let lo: u64 = env("PROBE_SEED_LO", "1").parse().expect("PROBE_SEED_LO");
    let hi: u64 = env("PROBE_SEED_HI", "40").parse().expect("PROBE_SEED_HI");
    // A run that ends with succeeded_with == ExactAssign implies the
    // heuristic rungs all failed first, so one exact-enabled run per
    // triple suffices for discovery.
    for bench in paper_benchmarks()
        .into_iter()
        .filter(|b| circuits.split(',').any(|c| c.trim() == b.name))
    {
        for &rate in &rates {
            for seed in lo..=hi {
                let tag = match map_exact(&bench.network, rate, seed) {
                    Ok(r) if r.recovery.succeeded_with == Some(Remedy::ExactAssign) => "RESCUE",
                    Ok(_) => "heur-ok",
                    Err(FlowError::ExactAssignUnsat { .. }) => "unsat",
                    Err(_) => "residual",
                };
                println!("{tag} {} rate={rate} seed={seed}", bench.name);
            }
        }
    }
    println!("probe complete");
}
