//! Force-directed scheduling (Algorithm 1 of the paper).
//!
//! Iteratively assigns LUT/LUT-cluster items to folding cycles. Each
//! iteration rebuilds time frames and distribution graphs, evaluates the
//! total force of every feasible (item, cycle) assignment, and commits the
//! lowest-force choice. The result balances LUT computation and register
//! storage across the folding cycles, minimizing the peak LE usage.

use std::borrow::Cow;

use nanomap_observe::{Anytime, CancelToken, Degradation};

use crate::asap::{topo_order, TimeFrames};
use crate::dg::{storage_ops, DistributionGraphs, StorageOp, StorageWeightMode};
use crate::error::SchedError;
use crate::force::{ops_by_item, ForceModel, LeShape};
use crate::item::ItemGraph;
use crate::schedule::Schedule;

/// Options for the FDS run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FdsOptions {
    /// LE resource shape (`h` LUTs, `l` FFs).
    pub shape: LeShape,
    /// Storage weight estimation mode.
    pub storage_mode: StorageWeightMode,
}

/// Runs force-directed scheduling of `graph` onto `stages` folding cycles.
///
/// # Errors
///
/// Returns [`SchedError::Infeasible`] if the critical chain does not fit.
///
/// # Examples
///
/// ```
/// use nanomap_netlist::{PlaneSet};
/// use nanomap_netlist::rtl::{CombOp, RtlBuilder};
/// use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph};
/// use nanomap_techmap::{expand, ExpandOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = RtlBuilder::new("t");
/// let a = b.input("a", 4);
/// let c = b.input("b", 4);
/// let gnd = b.constant("gnd", 1, 0);
/// let add = b.comb("add", CombOp::Add { width: 4 });
/// b.connect(a, 0, add, 0)?;
/// b.connect(c, 0, add, 1)?;
/// b.connect(gnd, 0, add, 2)?;
/// let y = b.output("y", 4);
/// b.connect(add, 0, y, 0)?;
/// let net = expand(&b.finish()?, ExpandOptions::default())?;
/// let planes = PlaneSet::extract(&net)?;
/// // Level-2 folding of the depth-4 adder: 2 stages.
/// let graph = ItemGraph::build(&net, &planes.planes()[0], 2)?;
/// let schedule = schedule_fds(&net, &graph, 2, FdsOptions::default())?;
/// assert!(schedule.validate(&graph));
/// # Ok(())
/// # }
/// ```
pub fn schedule_fds(
    net: &nanomap_netlist::LutNetwork,
    graph: &ItemGraph,
    stages: u32,
    options: FdsOptions,
) -> Result<Schedule, SchedError> {
    schedule_fds_budgeted(net, graph, stages, options, &CancelToken::unlimited())
        .map(Anytime::into_value)
}

/// Budget-aware [`schedule_fds`]: polls `token` at the top of every FDS
/// round. On expiry, every still-unpinned item is committed to its ASAP
/// cycle under the current (partially pinned) time frames — always
/// precedence-feasible — and the schedule is returned as
/// [`Anytime::Degraded`] with the peak LUT count as the QoR estimate.
/// With an unlimited token this is byte-identical to [`schedule_fds`].
///
/// # Errors
///
/// Returns [`SchedError::Infeasible`] if the critical chain does not fit
/// (budgets never turn infeasibility into a degraded success).
pub fn schedule_fds_budgeted(
    net: &nanomap_netlist::LutNetwork,
    graph: &ItemGraph,
    stages: u32,
    options: FdsOptions,
    token: &CancelToken,
) -> Result<Anytime<Schedule>, SchedError> {
    let mut fds_span = nanomap_observe::span!("fds", items = graph.len(), stages = stages);
    let rounds_ctr = nanomap_observe::counter("fds.rounds");
    let force_ctr = nanomap_observe::counter("fds.force_evals");
    let dg_ctr = nanomap_observe::counter("fds.dg_rebuilds");
    let force_series = nanomap_observe::series("fds.best_force");

    let n = graph.len();
    let ops: Vec<StorageOp> = storage_ops(net, graph, options.storage_mode);
    let mut pins: Vec<Option<u32>> = vec![None; n];
    // Round invariants: the topological order and the op index.
    let order = topo_order(graph)?;
    let ops_of_item = ops_by_item(graph, &ops);

    // Feasibility check up front (also computes initial frames).
    let mut frames = TimeFrames::compute_in_order(graph, stages, &pins, &order)?;

    let mut force_evals = 0u64;
    let mut interrupted_at: Option<u64> = None;
    for round in 0..n {
        // Poll at the round boundary only: an unlimited token reads no
        // clock, so unbudgeted runs stay byte-identical.
        if token.expired() {
            interrupted_at = Some(round as u64);
            break;
        }
        rounds_ctr.incr();
        let dgs = DistributionGraphs::build(graph, &frames, &ops);
        dg_ctr.incr();
        let model = ForceModel::with_index(
            graph,
            &frames,
            &dgs,
            &ops,
            Cow::Borrowed(&ops_of_item),
            options.shape,
        );

        // Lowest-force (item, cycle) over all unscheduled items.
        let mut best: Option<(f64, usize, u32)> = None;
        for (i, pin) in pins.iter().enumerate() {
            if pin.is_some() {
                continue;
            }
            let (a, b) = frames.frame(i);
            for j in a..=b {
                force_evals += 1;
                let force = model.total_force(i, j);
                let candidate = (force, i, j);
                best = Some(match best {
                    None => candidate,
                    Some(current) => {
                        // Deterministic tie-break: force, then item, cycle.
                        if candidate.0 < current.0 - 1e-12
                            || ((candidate.0 - current.0).abs() <= 1e-12
                                && (candidate.1, candidate.2) < (current.1, current.2))
                        {
                            candidate
                        } else {
                            current
                        }
                    }
                });
            }
        }
        let Some((force, item, cycle)) = best else {
            break;
        };
        // Convergence trajectory: the committed (lowest) force per round.
        force_series.record(round as u64, force);
        nanomap_observe::events::progress("fds", round as u64 + 1, Some(n as u64), None, force);
        pins[item] = Some(cycle);
        // Pinning inside a valid frame keeps the schedule feasible, so
        // this recompute cannot fail; propagate rather than panic anyway.
        frames = TimeFrames::compute_in_order(graph, stages, &pins, &order)?;
    }
    force_ctr.add(force_evals);
    fds_span.attr("force_evals", force_evals);

    // Final balance readout: the total expected LUT+storage load of every
    // folding cycle under the committed schedule (x = cycle index).
    if nanomap_observe::enabled() {
        let cycle_series = nanomap_observe::series("fds.cycle_load");
        let dgs = DistributionGraphs::build(graph, &frames, &ops);
        for (j, (lut, storage)) in dgs.lut.iter().zip(&dgs.storage).enumerate() {
            cycle_series.record(j as u64, lut + storage);
        }
    }

    // A completed run has every item pinned; a budget-interrupted run
    // commits the rest to their ASAP cycle under the current frames,
    // which is always precedence-feasible.
    let stage_of: Vec<u32> = pins
        .iter()
        .enumerate()
        .map(|(i, pin)| pin.unwrap_or_else(|| frames.frame(i).0))
        .collect();
    let schedule = Schedule::new(stage_of, stages);
    match interrupted_at {
        None => Ok(Anytime::Complete(schedule)),
        Some(round) => {
            fds_span.attr("degraded", 1u64);
            let peak = schedule.lut_counts(graph).into_iter().max().unwrap_or(0);
            Ok(Anytime::Degraded(
                schedule,
                Degradation {
                    phase: "fds".into(),
                    reason: format!("time budget expired after {round} of {n} FDS rounds"),
                    completed_iterations: round,
                    qor_estimate: f64::from(peak),
                },
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{Item, ItemEdge, ItemKind};
    use nanomap_netlist::rtl::{CombOp, RtlBuilder};
    use nanomap_netlist::{LutId, LutNetwork, PlaneSet};
    use nanomap_techmap::{expand, ExpandOptions};

    fn chain_free_graph(weights: &[u32]) -> ItemGraph {
        let items: Vec<Item> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| Item {
                kind: ItemKind::Lut(LutId::new(i)),
                luts: vec![LutId::new(i)],
                weight: w,
                window: 1,
                name: format!("i{i}"),
            })
            .collect();
        let n = items.len();
        ItemGraph {
            items,
            edges: vec![],
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            item_of_lut: Default::default(),
            folding_level: 1,
        }
    }

    #[test]
    fn balances_independent_items() {
        // Six weight-1 items over 2 cycles: 3 + 3 is optimal.
        let g = chain_free_graph(&[1, 1, 1, 1, 1, 1]);
        let net = LutNetwork::new("t");
        let s = schedule_fds(&net, &g, 2, FdsOptions::default()).unwrap();
        let counts = s.lut_counts(&g);
        assert_eq!(counts.iter().sum::<u32>(), 6);
        assert_eq!(counts.iter().max(), Some(&3));
    }

    #[test]
    fn balances_mixed_weights() {
        // Weights 4,3,2,1 over 2 cycles: best peak is 5 (4+1 / 3+2).
        let g = chain_free_graph(&[4, 3, 2, 1]);
        let net = LutNetwork::new("t");
        let s = schedule_fds(&net, &g, 2, FdsOptions::default()).unwrap();
        let counts = s.lut_counts(&g);
        assert_eq!(counts.iter().sum::<u32>(), 10);
        assert!(*counts.iter().max().unwrap() <= 6, "counts {counts:?}");
    }

    #[test]
    fn respects_precedence() {
        let mut g = chain_free_graph(&[1, 1, 1]);
        g.edges = vec![
            ItemEdge {
                from: 0,
                to: 1,
                latency: 1,
            },
            ItemEdge {
                from: 1,
                to: 2,
                latency: 1,
            },
        ];
        g.succs = vec![vec![(1, 1)], vec![(2, 1)], vec![]];
        g.preds = vec![vec![], vec![(0, 1)], vec![(1, 1)]];
        let net = LutNetwork::new("t");
        let s = schedule_fds(&net, &g, 3, FdsOptions::default()).unwrap();
        assert!(s.validate(&g));
        assert_eq!(s.stage_of, vec![0, 1, 2]);
    }

    #[test]
    fn infeasible_stage_count_errors() {
        let mut g = chain_free_graph(&[1, 1, 1]);
        g.edges = vec![
            ItemEdge {
                from: 0,
                to: 1,
                latency: 1,
            },
            ItemEdge {
                from: 1,
                to: 2,
                latency: 1,
            },
        ];
        g.succs = vec![vec![(1, 1)], vec![(2, 1)], vec![]];
        g.preds = vec![vec![], vec![(0, 1)], vec![(1, 1)]];
        let net = LutNetwork::new("t");
        assert!(matches!(
            schedule_fds(&net, &g, 2, FdsOptions::default()),
            Err(SchedError::Infeasible { .. })
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let g = chain_free_graph(&[2, 5, 1, 3, 3, 2, 4]);
        let net = LutNetwork::new("t");
        let a = schedule_fds(&net, &g, 3, FdsOptions::default()).unwrap();
        let b = schedule_fds(&net, &g, 3, FdsOptions::default()).unwrap();
        assert_eq!(a.stage_of, b.stage_of);
    }

    #[test]
    fn zero_budget_degrades_to_feasible_asap() {
        let mut g = chain_free_graph(&[1, 1, 1]);
        g.edges = vec![
            ItemEdge {
                from: 0,
                to: 1,
                latency: 1,
            },
            ItemEdge {
                from: 1,
                to: 2,
                latency: 1,
            },
        ];
        g.succs = vec![vec![(1, 1)], vec![(2, 1)], vec![]];
        g.preds = vec![vec![], vec![(0, 1)], vec![(1, 1)]];
        let net = LutNetwork::new("t");
        let token = CancelToken::with_budget_ms(Some(0));
        let result = schedule_fds_budgeted(&net, &g, 3, FdsOptions::default(), &token).unwrap();
        let Anytime::Degraded(schedule, degradation) = result else {
            panic!("zero budget must degrade");
        };
        assert!(schedule.validate(&g), "best-so-far must stay feasible");
        assert_eq!(degradation.phase, "fds");
        assert_eq!(degradation.completed_iterations, 0);
    }

    #[test]
    fn cancelled_token_degrades_mid_run() {
        let g = chain_free_graph(&[2, 5, 1, 3, 3, 2, 4]);
        let net = LutNetwork::new("t");
        let token = CancelToken::cancellable();
        token.cancel();
        let result = schedule_fds_budgeted(&net, &g, 3, FdsOptions::default(), &token).unwrap();
        assert!(result.is_degraded());
        assert!(result.value().validate(&g));
    }

    #[test]
    fn unlimited_token_identical_to_plain_fds() {
        let g = chain_free_graph(&[2, 5, 1, 3, 3, 2, 4]);
        let net = LutNetwork::new("t");
        let plain = schedule_fds(&net, &g, 3, FdsOptions::default()).unwrap();
        let budgeted = schedule_fds_budgeted(
            &net,
            &g,
            3,
            FdsOptions::default(),
            &CancelToken::unlimited(),
        )
        .unwrap();
        let Anytime::Complete(schedule) = budgeted else {
            panic!("unlimited token must complete");
        };
        assert_eq!(plain.stage_of, schedule.stage_of);
    }

    #[test]
    fn zero_budget_infeasible_still_errors() {
        let mut g = chain_free_graph(&[1, 1, 1]);
        g.edges = vec![
            ItemEdge {
                from: 0,
                to: 1,
                latency: 1,
            },
            ItemEdge {
                from: 1,
                to: 2,
                latency: 1,
            },
        ];
        g.succs = vec![vec![(1, 1)], vec![(2, 1)], vec![]];
        g.preds = vec![vec![], vec![(0, 1)], vec![(1, 1)]];
        let net = LutNetwork::new("t");
        let token = CancelToken::with_budget_ms(Some(0));
        assert!(matches!(
            schedule_fds_budgeted(&net, &g, 2, FdsOptions::default(), &token),
            Err(SchedError::Infeasible { .. })
        ));
    }

    /// End-to-end: schedule a real mapped adder+multiplier plane and check
    /// that the peak LUT usage beats naive ASAP.
    #[test]
    fn beats_asap_on_real_plane() {
        let mut b = RtlBuilder::new("dp");
        let a = b.input("a", 4);
        let c = b.input("b", 4);
        let gnd = b.constant("gnd", 1, 0);
        let add = b.comb("add", CombOp::Add { width: 4 });
        b.connect(a, 0, add, 0).unwrap();
        b.connect(c, 0, add, 1).unwrap();
        b.connect(gnd, 0, add, 2).unwrap();
        let mul = b.comb("mul", CombOp::Mul { width: 4 });
        b.connect(a, 0, mul, 0).unwrap();
        b.connect(c, 0, mul, 1).unwrap();
        let y1 = b.output("y1", 4);
        b.connect(add, 0, y1, 0).unwrap();
        let y2 = b.output("y2", 8);
        b.connect(mul, 0, y2, 0).unwrap();
        let net = expand(&b.finish().unwrap(), ExpandOptions::default()).unwrap();
        let planes = PlaneSet::extract(&net).unwrap();
        let plane = &planes.planes()[0];
        let stages = plane.depth.div_ceil(2);
        let graph = ItemGraph::build(&net, plane, 2).unwrap();
        let fds = schedule_fds(&net, &graph, stages, FdsOptions::default()).unwrap();
        assert!(fds.validate(&graph));
        let asap = crate::list::schedule_asap(&graph, stages).unwrap();
        let fds_peak = fds.lut_counts(&graph).into_iter().max().unwrap();
        let asap_peak = asap.lut_counts(&graph).into_iter().max().unwrap();
        assert!(
            fds_peak <= asap_peak,
            "FDS peak {fds_peak} must not exceed ASAP peak {asap_peak}"
        );
    }
}
