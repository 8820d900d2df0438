//! Lazy folding selection must choose exactly what evaluating every
//! candidate would: the same winner and the same fallback order, for
//! every paper circuit under every objective kind.
//!
//! The eager reference here is written out independently of the flow:
//! schedule every candidate, then sort by the documented order —
//! admitted first, then [`Objective::rank`], fewer stages, enumeration
//! index.

use std::cmp::Ordering;

use nanomap::{CancelToken, NanoMap, Objective, Selection};
use nanomap_arch::ArchParams;
use nanomap_bench::circuits::paper_benchmarks;
use nanomap_netlist::{LutNetwork, PlaneSet};

/// Every candidate's `(index, stages, les, delay)`, scheduled eagerly.
fn eager_costs(flow: &NanoMap, net: &LutNetwork, planes: &PlaneSet) -> Vec<(usize, u32, u32, f64)> {
    // An unconstrained objective schedules every candidate.
    let mut all = Selection::new(flow, net, planes, Objective::MinAreaDelayProduct);
    all.rank_all(&CancelToken::unlimited()).expect("schedules");
    assert_eq!(all.pruned(), 0);
    (0..all.configs().len())
        .filter_map(|i| {
            let (les, delay) = all.assessed(i)?;
            // The bound never exceeds the scheduled cost, and its delay
            // is exact.
            let bound = all.bounds()[i];
            assert!(
                bound.les <= les,
                "candidate {i}: bound {bound:?}, {les} LEs"
            );
            assert_eq!(bound.delay_ns, delay, "candidate {i}");
            Some((i, all.configs()[i].stages, les, delay))
        })
        .collect()
}

fn eager_order(objective: Objective, costs: &[(usize, u32, u32, f64)]) -> Vec<usize> {
    let mut order = costs.to_vec();
    order.sort_by(|&(ia, sa, la, da), &(ib, sb, lb, db)| {
        match (objective.admits(la, da), objective.admits(lb, db)) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            _ => objective
                .rank(la, da, lb, db)
                .then(sa.cmp(&sb))
                .then(ia.cmp(&ib)),
        }
    });
    order
        .into_iter()
        .take_while(|&(_, _, les, delay)| objective.admits(les, delay))
        .map(|(i, ..)| i)
        .collect()
}

/// Checks every paper circuit under every objective kind on `arch`.
fn lazy_matches_eager(arch: ArchParams) {
    let token = CancelToken::unlimited();
    let flow = NanoMap::new(arch);
    let mut pruned = 0;
    for bench in paper_benchmarks() {
        let net = &bench.network;
        let planes = PlaneSet::extract(net).expect("planes");
        let costs = eager_costs(&flow, net, &planes);
        let nofold = costs[0];
        let objectives = [
            Objective::MinAreaDelayProduct,
            Objective::MinDelay { max_les: None },
            Objective::MinArea { max_delay_ns: None },
            Objective::MinDelay {
                max_les: Some(nofold.2 / 3),
            },
            // Table 2's dual budget (the Paulin row, scaled).
            Objective::Feasible {
                max_les: 357,
                max_delay_ns: 35.0,
            },
        ];
        for objective in objectives {
            let what = format!("{} under {}", bench.name, objective.key());
            let eager = eager_order(objective, &costs);
            let mut lazy = Selection::new(&flow, net, &planes, objective);
            lazy.select(&token).expect("selects");
            assert_eq!(lazy.evaluated() + lazy.pruned(), lazy.configs().len());
            pruned += lazy.pruned();
            assert_eq!(lazy.winner(), eager.first().copied(), "winner of {what}");
            let full = lazy.rank_all(&token).expect("ranks").to_vec();
            let admitted: Vec<usize> = full
                .into_iter()
                .filter(|&i| {
                    let (les, delay) = lazy.assessed(i).expect("ranked means scheduled");
                    objective.admits(les, delay)
                })
                .collect();
            assert_eq!(admitted, eager, "fallback order of {what}");
        }
    }
    assert!(pruned > 0, "lazy selection never skipped a candidate");
}

#[test]
fn lazy_selection_matches_eager_selection_with_16_nram_sets() {
    lazy_matches_eager(ArchParams::paper());
}

#[test]
fn lazy_selection_matches_eager_selection_with_unbounded_nram() {
    lazy_matches_eager(ArchParams::paper_unbounded());
}
