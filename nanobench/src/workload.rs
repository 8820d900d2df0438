//! The three workloads: their jobs, how their inputs are built, and the
//! verdict each job is pinned to.

use std::fmt;
use std::time::Instant;

use nanomap::{FlowError, MappingReport, NanoMap, Remedy};
use nanomap_arch::{ArchParams, DefectMap};
use nanomap_bench::circuits;
use nanomap_netlist::rtl::RtlCircuit;
use nanomap_netlist::LutNetwork;
use nanomap_techmap::{expand, map_network, ExpandOptions, FlowMapOptions};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fold-c5315", "dsp-pack", "defect-ladder"];

/// Conflict budget per SAT solve on `defect-ladder`.
pub const SAT_CONFLICT_BUDGET: u64 = 200_000;

/// Seed of every `defect-ladder` defect map. It is part of the job, like
/// the circuit: another pattern at the same rate changes the ladder's
/// work by up to two orders of magnitude (see the README).
pub const DEFECT_SEED: u64 = 1;

/// The typed outcome of one mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Mapped on the first physical attempt.
    Baseline,
    /// Mapped by a heuristic rung after failed attempts.
    Heuristic,
    /// Rescued by the exact SAT assignment rung.
    ExactAssign,
    /// Proven infeasible by the exact rung.
    Unsat,
}

impl Verdict {
    /// The verdict of a mapping result; `None` for any other failure
    /// (an exhausted ladder, an internal error, a stage error). No job
    /// sets a time budget, so budget expiry cannot occur.
    pub fn of(result: &Result<MappingReport, FlowError>) -> Option<Self> {
        match result {
            Ok(report) => Some(match report.recovery.succeeded_with {
                Some(Remedy::ExactAssign) => Self::ExactAssign,
                _ if report.recovery.attempts.is_empty() => Self::Baseline,
                _ => Self::Heuristic,
            }),
            Err(FlowError::ExactAssignUnsat { .. }) => Some(Self::Unsat),
            Err(_) => None,
        }
    }

    /// Parses the names [`fmt::Display`] prints.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "baseline" => Self::Baseline,
            "heuristic" => Self::Heuristic,
            "exact-assign" => Self::ExactAssign,
            "unsat" => Self::Unsat,
            _ => return None,
        })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Baseline => "baseline",
            Self::Heuristic => "heuristic",
            Self::ExactAssign => "exact-assign",
            Self::Unsat => "unsat",
        })
    }
}

/// One mapping job: a LUT network, the flow that maps it, and the
/// verdict it must return.
#[derive(Debug)]
pub struct Job {
    /// Job name (the circuit, plus the defect rate on `defect-ladder`).
    pub name: String,
    /// The mapped input.
    pub net: LutNetwork,
    /// The flow, with every option the job sets.
    pub flow: NanoMap,
    /// The verdict the job returns at seed 1.
    pub pinned: Verdict,
}

/// A workload's jobs plus what building them cost.
#[derive(Debug)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Jobs in list order.
    pub jobs: Vec<Job>,
    /// Wall time of RTL expansion (`techmap::expand`), in ms.
    pub expand_ms: f64,
    /// Wall time of FlowMap (`techmap::map_network`), in ms.
    pub flowmap_ms: f64,
}

/// A circuit source, before technology mapping.
enum Source {
    /// The gate-level c5315-class ALU, mapped through FlowMap.
    Gates,
    /// An RTL circuit, expanded to 4-LUTs.
    Rtl(fn() -> RtlCircuit),
}

struct Spec {
    name: &'static str,
    source: Source,
    defect_rate: Option<f64>,
    pinned: Verdict,
}

fn ex1() -> RtlCircuit {
    circuits::ex1(16)
}

fn specs(workload: &str) -> Option<Vec<Spec>> {
    let free = |name, source| Spec {
        name,
        source,
        defect_rate: None,
        pinned: Verdict::Baseline,
    };
    let defective = |name, source, rate, pinned| Spec {
        name,
        source,
        defect_rate: Some(rate),
        pinned,
    };
    Some(match workload {
        "fold-c5315" => vec![free("c5315", Source::Gates)],
        "dsp-pack" => vec![
            free("ASPP4", Source::Rtl(circuits::aspp4)),
            free("Biquad", Source::Rtl(circuits::biquad)),
            free("Paulin", Source::Rtl(circuits::paulin)),
        ],
        "defect-ladder" => vec![
            defective("ex1@25%", Source::Rtl(ex1), 0.25, Verdict::ExactAssign),
            defective(
                "ex2@20%",
                Source::Rtl(circuits::ex2),
                0.20,
                Verdict::ExactAssign,
            ),
            defective(
                "FIR@30%",
                Source::Rtl(circuits::fir),
                0.30,
                Verdict::Heuristic,
            ),
        ],
        _ => return None,
    })
}

/// Builds a workload's inputs: generates each circuit, technology-maps
/// it and constructs its flow. Every job uses `ArchParams::paper()`.
///
/// # Errors
///
/// An unknown workload name, or a circuit that fails to map.
pub fn setup(workload: &str) -> Result<Workload, String> {
    let name = WORKLOADS
        .iter()
        .copied()
        .find(|&w| w == workload)
        .ok_or_else(|| format!("unknown workload `{workload}` (known: {WORKLOADS:?})"))?;
    let specs = specs(name).ok_or_else(|| format!("no jobs for `{name}`"))?;
    let arch = ArchParams::paper();
    let mut expand_ms = 0.0;
    let mut flowmap_ms = 0.0;
    let mut jobs = Vec::with_capacity(specs.len());
    for spec in specs {
        let net = match spec.source {
            Source::Gates => {
                let gates = circuits::c5315_gates();
                let start = Instant::now();
                let mapped = map_network(&gates, FlowMapOptions::default())
                    .map_err(|e| format!("{}: FlowMap: {e}", spec.name))?;
                flowmap_ms += start.elapsed().as_secs_f64() * 1e3;
                mapped.network
            }
            Source::Rtl(generate) => {
                let circuit = generate();
                let start = Instant::now();
                let options = ExpandOptions {
                    lut_inputs: arch.lut_inputs,
                    ..ExpandOptions::default()
                };
                let net =
                    expand(&circuit, options).map_err(|e| format!("{}: expand: {e}", spec.name))?;
                expand_ms += start.elapsed().as_secs_f64() * 1e3;
                net
            }
        };
        let mut flow = NanoMap::new(arch);
        if let Some(rate) = spec.defect_rate {
            flow = flow
                .with_defects(DefectMap::uniform(rate, DEFECT_SEED))
                .with_exact_recovery()
                .with_sat_conflict_budget(SAT_CONFLICT_BUDGET);
        }
        jobs.push(Job {
            name: spec.name.to_string(),
            net,
            flow,
            pinned: spec.pinned,
        });
    }
    Ok(Workload {
        name,
        jobs,
        expand_ms,
        flowmap_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_names_round_trip() {
        for v in [
            Verdict::Baseline,
            Verdict::Heuristic,
            Verdict::ExactAssign,
            Verdict::Unsat,
        ] {
            assert_eq!(Verdict::parse(&v.to_string()), Some(v));
        }
        assert_eq!(Verdict::parse("exhausted"), None);
    }

    #[test]
    fn every_workload_has_jobs_and_unknown_names_are_refused() {
        for w in WORKLOADS {
            assert!(!specs(w).unwrap().is_empty(), "{w}");
        }
        assert!(setup("no-such-workload").is_err());
    }

    #[test]
    fn untyped_failures_have_no_verdict() {
        let err: Result<MappingReport, FlowError> = Err(FlowError::Internal { detail: "x".into() });
        assert_eq!(Verdict::of(&err), None);
        let exhausted: Result<MappingReport, FlowError> = Err(FlowError::RecoveryExhausted {
            log: nanomap::RecoveryLog::new(),
        });
        assert_eq!(Verdict::of(&exhausted), None);
    }
}
