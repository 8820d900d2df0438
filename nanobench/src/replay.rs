//! The traced run's layer replay: each layer's public call made once on
//! a job's inputs, each inside a span recorded by this benchmark.
//!
//! The replay follows the flow's own order — folding candidates, then
//! per candidate and plane `ItemGraph::build` and `schedule_fds`, then
//! for the winning candidate `TemporalDesign::new`, `pack`,
//! `extract_nets`, `place_with_defects` and `route_design_with_defects`
//! — with the options the job's `NanoMap` holds in its public fields.

use std::time::Instant;

use nanomap::{candidate_configs, FoldingConfig, MappingReport, PlaneSharing, SharingMode};
use nanomap_netlist::{LutNetwork, PlaneSet};
use nanomap_pack::{extract_nets, pack, TemporalDesign};
use nanomap_place::place_with_defects;
use nanomap_route::route_design_with_defects;
use nanomap_sched::{schedule_fds, ItemGraph, Schedule};

use crate::workload::Job;

/// One finished span: a layer call, timed from the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, as in the per-layer metric names (`sched.fds`).
    pub name: &'static str,
    /// Wall time in ms.
    pub ms: f64,
    /// Bytes allocated inside the span; 0 unless allocation tracking
    /// was on.
    pub alloc_bytes: u64,
}

/// Spans in the order they closed, kept in memory for the run.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Finished spans.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let before = allocated_bytes();
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.spans.push(Span {
            name,
            ms,
            alloc_bytes: allocated_bytes().saturating_sub(before),
        });
        out
    }

    /// Total ms of the spans named `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.named(name).fold(0.0, |acc, s| acc + s.ms)
    }

    /// Spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    /// Total bytes allocated in the spans named `name`.
    pub fn alloc_bytes(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.alloc_bytes).sum()
    }

    /// Total ms of every span.
    pub fn total_ms(&self) -> f64 {
        self.spans.iter().fold(0.0, |acc, s| acc + s.ms)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

fn allocated_bytes() -> u64 {
    nanomap_observe::memory_report().map_or(0, |m| m.alloc_bytes)
}

/// Counts and QoR the replay produced (its times live in the trace).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Replayed {
    /// Folding candidates `candidate_configs` offered.
    pub candidates: u64,
    /// FDS items over every `schedule_fds` call.
    pub items: u64,
    /// LUTs in the packed design.
    pub luts: u64,
    /// Clusters `pack` formed.
    pub smbs: u64,
    /// SMB sites on the placement grid (0 when placement failed).
    pub sites: u64,
    /// The winning candidate's LE count, by the flow's accounting.
    pub les: u32,
    /// Routed critical-path delay, when routing succeeded.
    pub routed_delay_ns: Option<f64>,
    /// Configuration bitmap bits, when routing succeeded.
    pub bitmap_bits: Option<u64>,
    /// The part of the routing call that generated the bitmap, in ms.
    pub bitmap_ms: f64,
}

/// Replays one mapping of `job` whose result was `report`, recording a
/// span per layer call into `trace`. Placement and routing failures are
/// timed and tolerated: on a defective fabric the base options often
/// fail, which is why the flow climbs its recovery ladder.
///
/// # Errors
///
/// A layer that fails where the flow itself cannot (planes, packing),
/// or a report whose folding configuration no candidate matches.
pub fn replay(job: &Job, report: &MappingReport, trace: &mut Trace) -> Result<Replayed, String> {
    let flow = &job.flow;
    let net = &job.net;
    let mut out = Replayed::default();
    let planes = trace
        .span("netlist.planes", || PlaneSet::extract(net))
        .map_err(|e| format!("planes: {e}"))?;
    let candidates = trace.span("core.candidates", || {
        candidate_configs(&planes, flow.arch.num_reconf)
    });
    out.candidates = candidates.len() as u64;
    let mut winner = None;
    for config in candidates {
        let is_winner = config.level == report.folding_level
            && config.stages == report.stages
            && SharingMode::from(config.sharing) == report.sharing;
        let mut graphs = Vec::new();
        let mut schedules = Vec::new();
        let mut feasible = true;
        for plane in planes.planes() {
            let level = config.level.unwrap_or(planes.depth_max().max(1));
            let graph = trace
                .span("sched.graph_build", || ItemGraph::build(net, plane, level))
                .map_err(|e| format!("item graph: {e}"))?;
            let schedule = match config.level {
                None => Schedule::new(vec![0; graph.len()], 1),
                Some(_) => {
                    out.items += graph.len() as u64;
                    match trace.span("sched.fds", || {
                        schedule_fds(net, &graph, config.stages, flow.fds)
                    }) {
                        Ok(s) => s,
                        Err(_) => {
                            // An infeasible stage count: the flow drops
                            // the candidate the same way.
                            feasible = false;
                            break;
                        }
                    }
                }
            };
            graphs.push(graph);
            schedules.push(schedule);
        }
        if is_winner && feasible {
            winner = Some((config, graphs, schedules));
        }
    }
    let (config, graphs, schedules) = winner.ok_or_else(|| {
        format!(
            "no candidate matches the report's level {:?}, {} stages, {} sharing",
            report.folding_level,
            report.stages,
            report.sharing.as_str()
        )
    })?;
    out.les = le_count(flow, net, &planes, config, &graphs, &schedules);
    let design = trace
        .span("pack.design", || {
            TemporalDesign::new(net, &planes, graphs, schedules)
        })
        .map_err(|e| format!("temporal design: {e}"))?;
    out.luts = net.num_luts() as u64;
    let packing = trace
        .span("pack", || pack(&design, &flow.arch, flow.pack_options))
        .map_err(|e| format!("pack: {e}"))?;
    out.smbs = u64::from(packing.num_smbs);
    let nets = trace.span("pack.nets", || extract_nets(&design, &packing));
    let placed = trace.span("place", || {
        place_with_defects(
            &design,
            &packing,
            &nets,
            &flow.channels,
            &flow.timing,
            flow.place_options,
            &flow.defects,
        )
    });
    let Ok(placement) = placed else {
        return Ok(out);
    };
    out.sites = u64::from(placement.grid.width) * u64::from(placement.grid.height);
    let routed = trace.span("route", || {
        route_design_with_defects(
            &design,
            &packing,
            &nets,
            &placement,
            &flow.channels,
            &flow.timing,
            &flow.arch,
            flow.route_options,
            &flow.defects,
        )
    });
    if let Ok(routed) = routed {
        // The bitmap is generated inside the routing call; the router
        // reports its share.
        out.bitmap_ms = routed.bitmap_ms;
        out.routed_delay_ns = Some(routed.timing.circuit_delay);
        out.bitmap_bits = Some(routed.bitmap.total_bits(&flow.arch));
    }
    Ok(out)
}

/// The flow's LE accounting for a scheduled candidate: every LUT owns an
/// LE without folding; with folding, the peak per-cycle usage over
/// planes when planes share LEs, or the sum of per-plane peaks, each
/// plane holding the registers it owns, when they do not.
fn le_count(
    flow: &nanomap::NanoMap,
    net: &LutNetwork,
    planes: &PlaneSet,
    config: FoldingConfig,
    graphs: &[ItemGraph],
    schedules: &[Schedule],
) -> u32 {
    let shape = flow.fds.shape;
    let ff_bits = net.num_ffs() as u32;
    if config.level.is_none() {
        return (net.num_luts() as u32).max(ff_bits.div_ceil(shape.ffs));
    }
    let usage = |plane: usize, reg_bits: u32| {
        schedules[plane]
            .le_usage_exact(net, &graphs[plane], reg_bits, shape)
            .peak
    };
    match config.sharing {
        PlaneSharing::Shared => (0..planes.num_planes())
            .map(|p| usage(p, ff_bits))
            .max()
            .unwrap_or(0),
        PlaneSharing::PerPlane => {
            let owner = ff_owners(planes, net.num_ffs());
            (0..planes.num_planes())
                .map(|p| usage(p, owner.iter().filter(|&&o| o == p).count() as u32))
                .sum()
        }
    }
}

/// Each flip-flop belongs to the first plane that reads it, else to the
/// first plane that writes it.
fn ff_owners(planes: &PlaneSet, num_ffs: usize) -> Vec<usize> {
    let mut owner: Vec<Option<usize>> = vec![None; num_ffs];
    for (idx, plane) in planes.planes().iter().enumerate() {
        for f in &plane.input_ffs {
            owner[f.index()].get_or_insert(idx);
        }
    }
    for (idx, plane) in planes.planes().iter().enumerate() {
        for f in &plane.output_ffs {
            owner[f.index()].get_or_insert(idx);
        }
    }
    owner.into_iter().map(|o| o.unwrap_or(0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_sums_by_name() {
        let mut trace = Trace::default();
        let v = trace.span("a", || 7);
        trace.span("b", || ());
        trace.span("a", || ());
        assert_eq!(v, 7);
        assert_eq!(trace.count("a"), 2);
        assert_eq!(trace.count("c"), 0);
        assert!(trace.ms("a") >= 0.0);
        assert!((trace.total_ms() - trace.ms("a") - trace.ms("b")).abs() < 1e-9);
    }
}
