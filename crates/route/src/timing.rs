//! Post-route timing analysis.
//!
//! Replaces the placement-time distance estimates with the actual routed
//! wire delays: each sink's net delay is the sum of the wire-tier delays
//! along its routed path. The slice critical path then follows the same
//! longest-path recurrence as the pre-route estimator.
//!
//! The forward arrival pass lives in [`compute_arrivals`] and is shared
//! with the attribution layer (`explain`), so the K-worst-path tracer and
//! the headline `circuit_delay` can never disagree about an arrival time.

use std::collections::HashMap;

use nanomap_arch::{ArchParams, RrGraph, TimingModel};
use nanomap_netlist::{LutId, SignalRef};
use nanomap_pack::{Packing, Slice, TemporalDesign};

use crate::pathfinder::RoutedNet;

/// Routed delay of every (slice, driver SMB, sink SMB) connection.
pub type NetDelays = HashMap<(Slice, u32, u32), f64>;

/// Computes routed net delays from the per-slice routing.
pub fn net_delays(
    graph: &RrGraph,
    timing: &TimingModel,
    routes: &HashMap<Slice, Vec<RoutedNet>>,
) -> NetDelays {
    let mut out = NetDelays::new();
    for (&slice, nets) in routes {
        for net in nets {
            for (sink_idx, &sink) in net.sinks.iter().enumerate() {
                let delay: f64 = net.sink_paths[sink_idx]
                    .iter()
                    .filter_map(|&n| graph.node(n).wire)
                    .map(|w| timing.wire_delay(w))
                    .sum();
                let key = (slice, net.driver, sink);
                let slot = out.entry(key).or_insert(0.0);
                *slot = slot.max(delay);
            }
        }
    }
    out
}

/// Post-route timing report.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedTiming {
    /// Critical combinational path per slice.
    pub slice_paths: HashMap<Slice, f64>,
    /// Worst slice path.
    pub max_slice_path: f64,
    /// Folding-cycle period (worst slice + reconfiguration + clocking).
    pub cycle_period: f64,
    /// Circuit delay over all slices.
    pub circuit_delay: f64,
    /// The worst path, LUT by LUT (first element starts the path), with
    /// per-LUT arrival times. Empty for LUT-less designs.
    pub critical_path: Vec<CriticalPathNode>,
}

/// One hop of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathNode {
    /// The LUT on the path.
    pub lut: LutId,
    /// Diagnostic name, when the LUT has one.
    pub name: Option<String>,
    /// The temporal slice the LUT executes in.
    pub slice: Slice,
    /// Arrival time at the LUT's output (ns into its folding cycle).
    pub arrival_ns: f64,
}

/// Where a LUT input edge comes from, for attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeSource {
    /// Same-slice combinational fanin (carries an upstream arrival).
    Lut(LutId),
    /// Read of a value stored across folding cycles (producer LUT).
    Stored(LutId),
    /// Read of an architectural flip-flop.
    Ff(nanomap_netlist::FfId),
    /// Primary input or constant: no interconnect, no upstream arrival.
    Primary,
}

/// One timed input edge of a LUT: its source, the SMB the signal leaves,
/// the upstream arrival it carries and the interconnect hop delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputEdge {
    /// Signal source.
    pub source: EdgeSource,
    /// SMB the signal departs from (`None` for primaries/constants).
    pub src_smb: Option<u32>,
    /// Arrival time already accumulated at the source output.
    pub upstream_ns: f64,
    /// Interconnect delay of the hop into the consuming LUT.
    pub hop_ns: f64,
}

impl InputEdge {
    /// Contribution of this edge to the consumer's input arrival.
    pub fn contribution(&self) -> f64 {
        self.upstream_ns + self.hop_ns
    }
}

/// The routed hop delay between two SMBs in a slice. Same-SMB hops and
/// missing routed connections fall back to the local-crossbar delay.
fn smb_hop(timing: &TimingModel, delays: &NetDelays, slice: Slice, from: u32, to: u32) -> f64 {
    if from == to {
        timing.local_interconnect
    } else {
        delays
            .get(&(slice, from, to))
            .copied()
            .unwrap_or(timing.local_interconnect)
    }
}

/// The timed input edges of one LUT, given the arrivals computed so far.
/// This is the single source of truth for the longest-path recurrence:
/// both the forward pass and the path tracer consume it.
pub fn input_edges(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    delays: &NetDelays,
    timing: &TimingModel,
    arch: &ArchParams,
    arrival: &HashMap<LutId, f64>,
    id: LutId,
) -> Vec<InputEdge> {
    let net = design.net;
    let lut = net.lut(id);
    let slice = design.slice_of(id);
    let my_smb = packing.lut_smb(id);
    let mut out = Vec::with_capacity(lut.inputs.len());
    for input in &lut.inputs {
        let edge = match *input {
            SignalRef::Lut(u) => {
                if design.slice_of(u) == slice {
                    let src_smb = packing.lut_smb(u);
                    let hop_ns = if src_smb == my_smb {
                        // MB-aware local refinement for same-SMB chains.
                        let mb = |l| packing.lut_le(l) / arch.les_per_mb;
                        if mb(u) == mb(id) {
                            timing.local_intra_mb
                        } else {
                            timing.local_interconnect
                        }
                    } else {
                        smb_hop(timing, delays, slice, src_smb, my_smb)
                    };
                    InputEdge {
                        source: EdgeSource::Lut(u),
                        src_smb: Some(src_smb),
                        upstream_ns: arrival[&u],
                        hop_ns,
                    }
                } else {
                    let store = packing.read_smb(u);
                    InputEdge {
                        source: EdgeSource::Stored(u),
                        src_smb: Some(store),
                        upstream_ns: 0.0,
                        hop_ns: smb_hop(timing, delays, slice, store, my_smb),
                    }
                }
            }
            SignalRef::Ff(f) => {
                let src = packing.ff_smb(f);
                InputEdge {
                    source: EdgeSource::Ff(f),
                    src_smb: Some(src),
                    upstream_ns: 0.0,
                    hop_ns: smb_hop(timing, delays, slice, src, my_smb),
                }
            }
            SignalRef::Input(_) | SignalRef::Const(_) => InputEdge {
                source: EdgeSource::Primary,
                src_smb: None,
                upstream_ns: 0.0,
                hop_ns: 0.0,
            },
        };
        out.push(edge);
    }
    out
}

/// Runs the forward longest-path pass with routed delays and returns the
/// per-LUT arrival times plus the per-slice critical path lengths.
pub fn compute_arrivals(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    delays: &NetDelays,
    timing: &TimingModel,
    arch: &ArchParams,
) -> (HashMap<LutId, f64>, HashMap<Slice, f64>) {
    let net = design.net;
    let order = net.topo_order().expect("validated network");
    let mut arrival: HashMap<LutId, f64> = HashMap::new();
    let mut slice_paths: HashMap<Slice, f64> = HashMap::new();
    for id in order {
        let input_arrival = input_edges(design, packing, delays, timing, arch, &arrival, id)
            .iter()
            .map(InputEdge::contribution)
            .fold(0.0f64, f64::max);
        let t = input_arrival + timing.lut_delay;
        arrival.insert(id, t);
        let slot = slice_paths.entry(design.slice_of(id)).or_insert(0.0);
        *slot = slot.max(t);
    }
    (arrival, slice_paths)
}

/// Runs the longest-path analysis with routed delays. Same-SMB hops use
/// the intra-MB delay when producer and consumer LEs share a macroblock.
pub fn analyze(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    delays: &NetDelays,
    timing: &TimingModel,
    arch: &ArchParams,
) -> RoutedTiming {
    let net = design.net;
    let (arrival, slice_paths) = compute_arrivals(design, packing, delays, timing, arch);
    let max_slice_path = slice_paths.values().copied().fold(0.0, f64::max);
    let cycle_period = max_slice_path + timing.reconfiguration + timing.clocking;

    // Trace the worst path backwards from the LUT with the worst arrival.
    let mut critical_path = Vec::new();
    let mut cursor = arrival
        .iter()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite arrivals"))
        .map(|(&l, _)| l);
    while let Some(id) = cursor {
        let slice = design.slice_of(id);
        critical_path.push(CriticalPathNode {
            lut: id,
            name: net.lut(id).name.clone(),
            slice,
            arrival_ns: arrival[&id],
        });
        // The predecessor on the path: the same-slice fanin whose
        // (arrival + hop) is maximal and consistent with this arrival.
        cursor = input_edges(design, packing, delays, timing, arch, &arrival, id)
            .into_iter()
            .filter_map(|e| match e.source {
                EdgeSource::Lut(u) => Some((u, e.contribution())),
                _ => None,
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(u, _)| u);
    }
    critical_path.reverse();

    RoutedTiming {
        slice_paths,
        max_slice_path,
        cycle_period,
        circuit_delay: cycle_period * f64::from(design.num_slices()),
        critical_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanomap_arch::{ChannelConfig, Grid, SmbPos};
    use nanomap_pack::SliceNet;

    #[test]
    fn routed_delay_sums_wire_tiers() {
        let grid = Grid::new(3, 1);
        let graph = RrGraph::build(grid, &ChannelConfig::nature());
        let pos = vec![SmbPos::new(0, 0), SmbPos::new(2, 0)];
        let nets = vec![SliceNet {
            driver: 0,
            sinks: vec![1],
            critical: false,
        }];
        let routed = crate::pathfinder::route_slice(
            &graph,
            &nets,
            &pos,
            crate::pathfinder::RouteOptions::default(),
        )
        .unwrap();
        let slice = Slice { plane: 0, stage: 0 };
        let mut routes = HashMap::new();
        routes.insert(slice, routed);
        let timing = TimingModel::nature_100nm();
        let delays = net_delays(&graph, &timing, &routes);
        let d = delays[&(slice, 0, 1)];
        // Distance-2 connection: at least one wire hop, bounded by global.
        assert!(d >= timing.wire_direct);
        assert!(d <= timing.wire_global + timing.wire_direct * 2.0 + 1e-9);
    }
}
