//! Property-style tests over the core invariants, driven by a seeded PRNG
//! (the same deterministic case set runs every time):
//!
//! * FlowMap preserves Boolean function for arbitrary gate networks;
//! * RTL expansion preserves cycle-accurate behaviour for arbitrary
//!   datapaths;
//! * FDS always emits precedence-valid, capacity-accounted schedules;
//! * temporal folding preserves circuit behaviour at every folding level
//!   (the folded executor equals the reference simulator).

use nanomap::check_folded_execution;
use nanomap_netlist::gate::{GateKind, GateNetwork, GateSignal};
use nanomap_netlist::rtl::{CombOp, RtlBuilder};
use nanomap_netlist::{LutSimulator, PlaneSet};
use nanomap_observe::rng::XorShift64Star;
use nanomap_pack::TemporalDesign;
use nanomap_sched::{schedule_fds, schedule_list, FdsOptions, ItemGraph};
use nanomap_techmap::{expand, map_network, verify_equivalence, ExpandOptions, FlowMapOptions};

// ---------- random gate networks ----------

#[derive(Debug, Clone)]
struct GateSpec {
    kind: GateKind,
    inputs: Vec<usize>, // indices into previously available signals
}

const GATE_KINDS: &[GateKind] = &[
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Not,
    GateKind::Buf,
];

fn random_gate_specs(
    rng: &mut XorShift64Star,
    num_inputs: usize,
    max_gates: usize,
) -> Vec<GateSpec> {
    let n = 1 + rng.index(max_gates);
    (0..n)
        .map(|position| {
            let kind = GATE_KINDS[rng.index(GATE_KINDS.len())];
            let available = num_inputs + position;
            let arity = if kind.is_unary() { 1 } else { 1 + rng.index(4) };
            let inputs: Vec<usize> = (0..arity).map(|_| rng.index(available)).collect();
            GateSpec { kind, inputs }
        })
        .collect()
}

fn build_gate_network(num_inputs: usize, specs: &[GateSpec]) -> GateNetwork {
    let mut net = GateNetwork::new("prop");
    let mut signals: Vec<GateSignal> = (0..num_inputs)
        .map(|i| net.add_input(format!("i{i}")))
        .collect();
    for spec in specs {
        let inputs: Vec<GateSignal> = spec.inputs.iter().map(|&i| signals[i]).collect();
        let out = net.add_gate(spec.kind, inputs);
        signals.push(out);
    }
    // Expose the last few signals as outputs.
    for (n, &sig) in signals.iter().rev().take(3).enumerate() {
        net.add_output(format!("y{n}"), sig);
    }
    net
}

/// FlowMap output is functionally identical to the gate network.
#[test]
fn flowmap_preserves_function() {
    let mut rng = XorShift64Star::new(0x9A7E_0001);
    for case in 0..48 {
        let specs = random_gate_specs(&mut rng, 6, 24);
        let gates = build_gate_network(6, &specs);
        if gates.validate().is_err() {
            continue;
        }
        let mapped = map_network(&gates, FlowMapOptions::default()).expect("maps");
        let mut sim = LutSimulator::new(&mapped.network).expect("simulates");
        for row in 0u64..64 {
            let inputs: Vec<bool> = (0..6).map(|b| (row >> b) & 1 == 1).collect();
            sim.set_inputs(&inputs);
            sim.eval_comb();
            assert_eq!(sim.outputs(), gates.eval(&inputs), "case {case} row {row}");
        }
        // Depth optimality vs the trivial one-LUT-per-gate bound.
        assert!(mapped.depth <= gates.depth(), "case {case}");
    }
}

// ---------- random RTL datapaths ----------

#[derive(Debug, Clone, Copy)]
enum OpSpec {
    Add,
    Sub,
    Mul,
    Xor,
    Mux,
    Lt,
}

const OPS: &[OpSpec] = &[
    OpSpec::Add,
    OpSpec::Sub,
    OpSpec::Mul,
    OpSpec::Xor,
    OpSpec::Mux,
    OpSpec::Lt,
];

fn random_rtl(rng: &mut XorShift64Star) -> (u32, Vec<OpSpec>) {
    let width = 2 + rng.below(5) as u32; // 2..=6
    let n = 1 + rng.index(5); // 1..=5 ops
    let ops = (0..n).map(|_| OPS[rng.index(OPS.len())]).collect();
    (width, ops)
}

fn build_rtl(width: u32, ops: &[OpSpec]) -> nanomap_netlist::rtl::RtlCircuit {
    let mut b = RtlBuilder::new("prop");
    let a = b.input("a", width);
    let c = b.input("b", width);
    let state = b.register("state", width);
    let mut sources = vec![a, c, state];
    let mut source_port = vec![0u32, 0, 0];
    for (i, op) in ops.iter().enumerate() {
        let pick = |k: usize| (sources[k % sources.len()], source_port[k % sources.len()]);
        let (x, xp) = pick(i);
        let (y, yp) = pick(i + 1);
        let node = match op {
            OpSpec::Add => {
                let gnd = b.constant(&format!("g{i}"), 1, 0);
                let n = b.comb(&format!("op{i}"), CombOp::Add { width });
                b.connect(x, xp, n, 0).unwrap();
                b.connect(y, yp, n, 1).unwrap();
                b.connect(gnd, 0, n, 2).unwrap();
                n
            }
            OpSpec::Sub => {
                let n = b.comb(&format!("op{i}"), CombOp::Sub { width });
                b.connect(x, xp, n, 0).unwrap();
                b.connect(y, yp, n, 1).unwrap();
                n
            }
            OpSpec::Mul => {
                let m = b.comb(&format!("mul{i}"), CombOp::Mul { width });
                b.connect(x, xp, m, 0).unwrap();
                b.connect(y, yp, m, 1).unwrap();
                let n = b.comb(
                    &format!("op{i}"),
                    CombOp::Slice {
                        width: 2 * width,
                        lo: 0,
                        out_width: width,
                    },
                );
                b.connect(m, 0, n, 0).unwrap();
                n
            }
            OpSpec::Xor => {
                let n = b.comb(&format!("op{i}"), CombOp::Xor { width });
                b.connect(x, xp, n, 0).unwrap();
                b.connect(y, yp, n, 1).unwrap();
                n
            }
            OpSpec::Mux => {
                let sel = b.comb(
                    &format!("sel{i}"),
                    CombOp::Slice {
                        width,
                        lo: 0,
                        out_width: 1,
                    },
                );
                b.connect(x, xp, sel, 0).unwrap();
                let n = b.comb(&format!("op{i}"), CombOp::Mux2 { width });
                b.connect(x, xp, n, 0).unwrap();
                b.connect(y, yp, n, 1).unwrap();
                b.connect(sel, 0, n, 2).unwrap();
                n
            }
            OpSpec::Lt => {
                let lt = b.comb(&format!("lt{i}"), CombOp::Lt { width });
                b.connect(x, xp, lt, 0).unwrap();
                b.connect(y, yp, lt, 1).unwrap();
                let n = b.comb(&format!("op{i}"), CombOp::Mux2 { width });
                b.connect(x, xp, n, 0).unwrap();
                b.connect(y, yp, n, 1).unwrap();
                b.connect(lt, 0, n, 2).unwrap();
                n
            }
        };
        sources.push(node);
        source_port.push(0);
    }
    let last = *sources.last().expect("non-empty");
    b.connect(last, 0, state, 0).unwrap();
    let y = b.output("y", width);
    b.connect(state, 0, y, 0).unwrap();
    b.finish().expect("generated circuits are well-formed")
}

/// RTL expansion is cycle-accurate for arbitrary datapaths.
#[test]
fn expansion_preserves_behaviour() {
    let mut rng = XorShift64Star::new(0x97_0001);
    for case in 0..32 {
        let (width, ops) = random_rtl(&mut rng);
        let circuit = build_rtl(width, &ops);
        let net = expand(&circuit, ExpandOptions::default()).expect("expands");
        let report = verify_equivalence(&circuit, &net, 64, 0xABCD).expect("runs");
        assert!(report.is_equivalent(), "case {case}: {:?}", report.mismatch);
    }
}

/// Temporal folding preserves behaviour at every feasible folding level:
/// the folded executor equals the reference simulation.
#[test]
fn folding_preserves_behaviour() {
    let mut rng = XorShift64Star::new(0x97_0002);
    for case in 0..32 {
        let (width, ops) = random_rtl(&mut rng);
        let level = 1 + rng.below(6) as u32;
        let circuit = build_rtl(width, &ops);
        let net = expand(&circuit, ExpandOptions::default()).expect("expands");
        if net.num_luts() == 0 {
            continue;
        }
        let planes = PlaneSet::extract(&net).expect("extracts");
        let stages = planes.depth_max().max(1).div_ceil(level);
        let mut graphs = Vec::new();
        let mut schedules = Vec::new();
        for plane in planes.planes() {
            let graph = ItemGraph::build(&net, plane, level).expect("builds");
            let schedule = schedule_fds(&net, &graph, stages, FdsOptions::default())
                .expect("level<=depth is feasible");
            graphs.push(graph);
            schedules.push(schedule);
        }
        let design = TemporalDesign::new(&net, &planes, graphs, schedules).expect("valid");
        let check = check_folded_execution(&design, 24, 0x5EED);
        assert!(check.passed(), "case {case}: {:?}", check.failure);
    }
}

/// FDS and list schedules are always precedence-valid, schedule every
/// item exactly once, and FDS's peak never exceeds the trivial bound.
#[test]
fn schedulers_emit_valid_schedules() {
    let mut rng = XorShift64Star::new(0x97_0003);
    for case in 0..32 {
        let (width, ops) = random_rtl(&mut rng);
        let level = 1 + rng.below(4) as u32;
        let circuit = build_rtl(width, &ops);
        let net = expand(&circuit, ExpandOptions::default()).expect("expands");
        if net.num_luts() == 0 {
            continue;
        }
        let planes = PlaneSet::extract(&net).expect("extracts");
        for plane in planes.planes() {
            let stages = planes.depth_max().max(1).div_ceil(level);
            let graph = ItemGraph::build(&net, plane, level).expect("builds");
            let fds = schedule_fds(&net, &graph, stages, FdsOptions::default()).expect("feasible");
            assert!(fds.validate(&graph), "case {case}");
            assert_eq!(fds.stage_of.len(), graph.len(), "case {case}");
            let list = schedule_list(&graph, stages).expect("feasible");
            assert!(list.validate(&graph), "case {case}");
            let peak = fds.lut_counts(&graph).into_iter().max().unwrap_or(0);
            assert!(peak <= graph.total_weight(), "case {case}");
        }
    }
}

// ---------- plane, packing, routing and optimizer invariants ----------

/// Plane extraction is a partition: every LUT in exactly one plane,
/// per-plane depths positive and bounded by the plane's depth, and
/// depth_max equals the deepest plane.
#[test]
fn plane_extraction_is_a_partition() {
    let mut rng = XorShift64Star::new(0x97_0004);
    for case in 0..24 {
        let (width, ops) = random_rtl(&mut rng);
        let circuit = build_rtl(width, &ops);
        let net = expand(&circuit, ExpandOptions::default()).expect("expands");
        if net.num_luts() == 0 {
            continue;
        }
        let planes = PlaneSet::extract(&net).expect("extracts");
        let mut seen = vec![false; net.num_luts()];
        for plane in planes.planes() {
            assert_eq!(plane.luts.len(), plane.lut_depths.len(), "case {case}");
            for (&lut, &depth) in plane.luts.iter().zip(&plane.lut_depths) {
                assert!(!seen[lut.index()], "case {case}: lut in two planes");
                seen[lut.index()] = true;
                assert!(depth >= 1 && depth <= plane.depth, "case {case}");
                assert_eq!(planes.plane_of(lut), plane.id, "case {case}");
            }
        }
        assert!(seen.into_iter().all(|s| s), "case {case}: unassigned lut");
        assert_eq!(
            planes.depth_max(),
            planes.planes().iter().map(|p| p.depth).max().unwrap_or(0),
            "case {case}"
        );
    }
}

/// ALAP plane depths strictly increase along combinational edges inside a
/// plane (the property the cluster windows rely on).
#[test]
fn plane_depths_increase_along_edges() {
    use nanomap_netlist::SignalRef;
    let mut rng = XorShift64Star::new(0x97_0005);
    for case in 0..24 {
        let (width, ops) = random_rtl(&mut rng);
        let circuit = build_rtl(width, &ops);
        let net = expand(&circuit, ExpandOptions::default()).expect("expands");
        if net.num_luts() == 0 {
            continue;
        }
        let planes = PlaneSet::extract(&net).expect("extracts");
        for plane in planes.planes() {
            for (pos, &lut) in plane.luts.iter().enumerate() {
                for input in &net.lut(lut).inputs {
                    if let SignalRef::Lut(src) = input {
                        if planes.plane_of(*src) == plane.id {
                            let src_depth = plane.depth_of(*src);
                            assert!(
                                src_depth < plane.lut_depths[pos],
                                "case {case}: depth must increase along edges"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The optimizer preserves sequential behaviour on arbitrary circuits.
#[test]
fn optimizer_preserves_behaviour() {
    let mut rng = XorShift64Star::new(0x97_0006);
    for case in 0..24 {
        let (width, ops) = random_rtl(&mut rng);
        let circuit = build_rtl(width, &ops);
        let net = expand(&circuit, ExpandOptions::default()).expect("expands");
        let (opt, stats) = nanomap_techmap::optimize(&net);
        assert!(opt.num_luts() <= net.num_luts(), "case {case}");
        assert_eq!(stats.luts_after, opt.num_luts(), "case {case}");
        let mut sa = LutSimulator::new(&net).expect("simulates");
        let mut sb = LutSimulator::new(&opt).expect("simulates");
        let mut input_rng = XorShift64Star::new(0xC0FFEE);
        for cycle in 0..32 {
            let inputs: Vec<bool> = (0..net.num_inputs())
                .map(|_| input_rng.next_bool())
                .collect();
            sa.set_inputs(&inputs);
            sb.set_inputs(&inputs);
            sa.eval_comb();
            sb.eval_comb();
            assert_eq!(sa.outputs(), sb.outputs(), "case {case} cycle {cycle}");
            sa.step();
            sb.step();
        }
    }
}

/// Temporal clustering never overfills an SMB and assigns every LUT.
#[test]
fn packing_respects_capacity() {
    use nanomap_arch::ArchParams;
    use nanomap_pack::{pack, PackOptions};
    let mut rng = XorShift64Star::new(0x97_0007);
    for case in 0..24 {
        let (width, ops) = random_rtl(&mut rng);
        let level = 1 + rng.below(4) as u32;
        let circuit = build_rtl(width, &ops);
        let net = expand(&circuit, ExpandOptions::default()).expect("expands");
        if net.num_luts() == 0 {
            continue;
        }
        let planes = PlaneSet::extract(&net).expect("extracts");
        let stages = planes.depth_max().max(1).div_ceil(level);
        let mut graphs = Vec::new();
        let mut schedules = Vec::new();
        for plane in planes.planes() {
            let graph = ItemGraph::build(&net, plane, level).expect("builds");
            let schedule =
                schedule_fds(&net, &graph, stages, FdsOptions::default()).expect("feasible");
            graphs.push(graph);
            schedules.push(schedule);
        }
        let design = TemporalDesign::new(&net, &planes, graphs, schedules).expect("valid");
        let arch = ArchParams::paper_unbounded();
        let packing = pack(&design, &arch, PackOptions::default()).expect("packs");
        assert_eq!(packing.luts().count(), net.num_luts(), "case {case}");
        for (_, smb, _) in packing.luts() {
            assert!(smb < packing.num_smbs, "case {case}");
        }
        for (smb, _, luts, ffs) in packing.occupancy() {
            assert!(smb < packing.num_smbs, "case {case}");
            assert!(luts <= arch.luts_per_smb(), "case {case}");
            assert!(ffs <= arch.ffs_per_smb(), "case {case}");
        }
    }
}

/// PathFinder routes random net sets within node capacities, and every
/// sink path starts at the net's source and ends at its sink.
#[test]
fn router_respects_capacities() {
    use nanomap_arch::{ChannelConfig, Grid, RrGraph, RrNodeKind};
    use nanomap_pack::SliceNet;
    use nanomap_route::{route_slice, RouteOptions};
    let grid = Grid::new(4, 4);
    let graph = RrGraph::build(grid, &ChannelConfig::nature());
    let pos: Vec<_> = grid.iter().collect();
    let mut rng = XorShift64Star::new(0x97_0008);
    for case in 0..12 {
        let num_nets = 1 + rng.index(23);
        let nets: Vec<SliceNet> = (0..num_nets)
            .map(|_| {
                let driver = rng.below(16) as u32;
                let mut sinks: Vec<u32> = (0..(1 + rng.below(3)))
                    .map(|_| rng.below(16) as u32)
                    .filter(|&s| s != driver)
                    .collect();
                sinks.dedup();
                SliceNet {
                    driver,
                    sinks,
                    critical: false,
                }
            })
            .filter(|n| !n.sinks.is_empty())
            .collect();
        if nets.is_empty() {
            continue;
        }
        let routed = route_slice(&graph, &nets, &pos, RouteOptions::default())
            .expect("4x4 nature fabric routes two dozen nets");
        // Capacity check over wire nodes.
        let mut used = std::collections::HashMap::new();
        for r in &routed {
            for &n in &r.nodes {
                if graph.node(n).wire.is_some() {
                    *used.entry(n).or_insert(0u32) += 1;
                }
            }
            for (path, &sink) in r.sink_paths.iter().zip(&r.sinks) {
                let first = *path.first().expect("non-empty path");
                let last = *path.last().expect("non-empty path");
                // Paths start somewhere on the net's tree (source or an
                // earlier branch) and end at the sink's SMB.
                assert!(r.nodes.contains(&first), "case {case}");
                match graph.node(last).kind {
                    RrNodeKind::Sink(p) => assert_eq!(p, pos[sink as usize], "case {case}"),
                    ref other => panic!("case {case}: path ends at {other:?}"),
                }
            }
        }
        for (&node, &count) in &used {
            assert!(count <= graph.node(node).capacity, "case {case}");
        }
    }
}
