//! Distribution graphs (Eqs. 5–11) and storage operations.
//!
//! Two DGs drive force-directed scheduling: the **LUT computation DG**
//! (Eq. 5) aggregating the probability that LUT work lands in each folding
//! cycle, and the **register storage DG** (Eqs. 6–11) aggregating the
//! probability that a stored bit is live in each cycle.

use std::collections::BTreeSet;

use crate::asap::TimeFrames;
use crate::item::ItemGraph;

/// How the bit width of a storage operation is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageWeightMode {
    /// `weight_i` of the producing item, as written in the paper
    /// (Eqs. 9–10 reuse the LUT weight).
    #[default]
    ItemWeight,
    /// The number of member LUT outputs actually consumed outside the
    /// item — a refinement; exposed for the ablation study.
    BoundaryOutputs,
}

/// A storage operation: the output of `src` is transferred to the
/// `dests` (Section 4.2.1, Fig. 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageOp {
    /// Producing item.
    pub src: usize,
    /// Consuming items (deduplicated).
    pub dests: Vec<usize>,
    /// Bits stored.
    pub weight: u32,
}

/// Builds the storage operations of a plane's item graph.
pub fn storage_ops(
    net: &nanomap_netlist::LutNetwork,
    graph: &ItemGraph,
    mode: StorageWeightMode,
) -> Vec<StorageOp> {
    let mut ops = Vec::new();
    for (src, item) in graph.items.iter().enumerate() {
        let dests: BTreeSet<usize> = graph.succs[src].iter().map(|&(d, _)| d).collect();
        if dests.is_empty() {
            continue;
        }
        let weight = match mode {
            StorageWeightMode::ItemWeight => item.weight,
            StorageWeightMode::BoundaryOutputs => {
                // Count member LUTs with at least one consumer outside the
                // item (another plane item).
                let member: BTreeSet<_> = item.luts.iter().copied().collect();
                let fanouts = net.fanouts();
                item.luts
                    .iter()
                    .filter(|&&l| {
                        fanouts.lut_to_luts[l.index()]
                            .iter()
                            .any(|c| !member.contains(c) && graph.item_of_lut.contains_key(c))
                    })
                    .count() as u32
            }
        };
        ops.push(StorageOp {
            src,
            dests: dests.into_iter().collect(),
            weight: weight.max(1),
        });
    }
    ops
}

/// The two distribution graphs over the folding cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionGraphs {
    /// `LUT_DG(j)` of Eq. (5).
    pub lut: Vec<f64>,
    /// `storage_DG(j)` of Eq. (11).
    pub storage: Vec<f64>,
}

impl DistributionGraphs {
    /// Builds both DGs from the current time frames.
    pub fn build(graph: &ItemGraph, frames: &TimeFrames, ops: &[StorageOp]) -> Self {
        let stages = frames.stages as usize;
        let mut lut = vec![0.0; stages];
        for (i, item) in graph.items.iter().enumerate() {
            let (a, b) = frames.frame(i);
            let p = f64::from(item.weight) / f64::from(frames.frame_len(i));
            for slot in lut.iter_mut().take(b as usize + 1).skip(a as usize) {
                *slot += p;
            }
        }
        let mut storage = vec![0.0; stages];
        for op in ops {
            add_storage_distribution(&mut storage, graph, frames, op, None);
        }
        Self { lut, storage }
    }

    /// The storage distribution contributed by a single op, optionally with
    /// one item tentatively pinned to a cycle (used by force evaluation).
    pub fn storage_distribution_of(
        graph: &ItemGraph,
        frames: &TimeFrames,
        op: &StorageOp,
        tentative: Option<(usize, u32)>,
    ) -> Vec<f64> {
        let mut dist = vec![0.0; frames.stages as usize];
        add_storage_distribution(&mut dist, graph, frames, op, tentative);
        dist
    }
}

/// Implements Eqs. (6)–(10) for one storage operation, adding its
/// distribution into `acc`.
pub(crate) fn add_storage_distribution(
    acc: &mut [f64],
    _graph: &ItemGraph,
    frames: &TimeFrames,
    op: &StorageOp,
    tentative: Option<(usize, u32)>,
) {
    let frame = |i: usize| -> (u32, u32) {
        match tentative {
            Some((t, c)) if t == i => (c, c),
            _ => frames.frame(i),
        }
    };
    let (src_asap, src_alap) = frame(op.src);
    let dest_end_asap = op
        .dests
        .iter()
        .map(|&d| frame(d).0)
        .max()
        .expect("non-empty");
    let dest_end_alap = op
        .dests
        .iter()
        .map(|&d| frame(d).1)
        .max()
        .expect("non-empty");

    // Lifetimes (Fig. 4): begin at the source cycle, end at the last
    // destination cycle.
    let asap_len = f64::from(dest_end_asap.saturating_sub(src_asap) + 1);
    let alap_len = f64::from(dest_end_alap.saturating_sub(src_alap) + 1);
    // Eq. (6).
    let max_begin = src_asap;
    let max_end = dest_end_alap.max(src_asap);
    let max_len = f64::from(max_end - max_begin + 1);
    // Eq. (7): overlap of ASAP_life and ALAP_life.
    let overlap_begin = src_alap;
    let overlap_end_incl = dest_end_asap;
    let overlap_len = if overlap_end_incl >= overlap_begin {
        f64::from(overlap_end_incl - overlap_begin + 1)
    } else {
        0.0
    };
    // Eq. (8).
    let avg_life = (asap_len + alap_len + max_len) / 3.0;

    let weight = f64::from(op.weight);
    for j in max_begin..=max_end {
        let in_overlap = overlap_len > 0.0 && j >= overlap_begin && j <= overlap_end_incl;
        let value = if in_overlap {
            // Eq. (10): a bit is certainly live here.
            weight
        } else if max_len > overlap_len {
            // Eq. (9).
            weight * (avg_life - overlap_len) / (max_len - overlap_len)
        } else {
            0.0
        };
        acc[j as usize] += value.max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{Item, ItemEdge, ItemKind};
    use nanomap_netlist::LutId;

    /// Builds the paper's Fig. 3 example: LUT1, LUT2, LUT3, LUT4 and
    /// clusters clus1..clus3 with dependencies chosen so LUT2's time frame
    /// is [1,3] (1-based), matching the text.
    ///
    /// Structure (1-based cycles, 3 stages):
    /// chain clus1 -> clus2 -> clus3 pins the critical path;
    /// LUT1 -> LUT3 (LUT3 feeds nothing); LUT2 free-ish feeding LUT4.
    fn fig3_graph() -> ItemGraph {
        let mk = |i: usize, w: u32, name: &str| Item {
            kind: ItemKind::Lut(LutId::new(i)),
            luts: vec![LutId::new(i)],
            weight: w,
            window: 1,
            name: name.into(),
        };
        // 0: LUT1, 1: LUT2, 2: LUT3, 3: LUT4, 4: clus1, 5: clus2, 6: clus3.
        let items = vec![
            mk(0, 1, "LUT1"),
            mk(1, 1, "LUT2"),
            mk(2, 1, "LUT3"),
            mk(3, 1, "LUT4"),
            mk(4, 10, "clus1"),
            mk(5, 10, "clus2"),
            mk(6, 10, "clus3"),
        ];
        let edges = vec![
            ItemEdge {
                from: 4,
                to: 5,
                latency: 1,
            },
            ItemEdge {
                from: 5,
                to: 6,
                latency: 1,
            },
            ItemEdge {
                from: 0,
                to: 2,
                latency: 1,
            },
            // LUT2 feeds LUT3 and LUT4 (storage example of Fig. 4).
            ItemEdge {
                from: 1,
                to: 2,
                latency: 1,
            },
            ItemEdge {
                from: 1,
                to: 3,
                latency: 1,
            },
        ];
        let mut succs = vec![Vec::new(); items.len()];
        let mut preds = vec![Vec::new(); items.len()];
        for e in &edges {
            succs[e.from].push((e.to, e.latency));
            preds[e.to].push((e.from, e.latency));
        }
        ItemGraph {
            items,
            edges,
            succs,
            preds,
            item_of_lut: Default::default(),
            folding_level: 1,
        }
    }

    #[test]
    fn lut_dg_sums_to_total_weight() {
        let g = fig3_graph();
        let tf = TimeFrames::compute(&g, 3, &vec![None; g.len()]).unwrap();
        let dgs = DistributionGraphs::build(&g, &tf, &[]);
        let total: f64 = dgs.lut.iter().sum();
        assert!((total - f64::from(g.total_weight())).abs() < 1e-9);
    }

    #[test]
    fn critical_chain_concentrates_dg() {
        let g = fig3_graph();
        let tf = TimeFrames::compute(&g, 3, &vec![None; g.len()]).unwrap();
        let dgs = DistributionGraphs::build(&g, &tf, &[]);
        // clus1..3 are pinned to cycles 0,1,2 with weight 10 each.
        for j in 0..3 {
            assert!(dgs.lut[j] >= 10.0);
        }
    }

    /// The Fig. 4 example: storage S from LUT2 to LUT3/LUT4.
    /// With 3 stages: LUT2 frame [0,1] (0-based; it must precede LUT3
    /// [1,2]... here LUT3 has no successors so frames are wide).
    #[test]
    fn storage_lifetime_math_matches_eq6_to_eq8() {
        let g = fig3_graph();
        let tf = TimeFrames::compute(&g, 3, &vec![None; g.len()]).unwrap();
        // LUT2 = item 1: frame [0, 1]; LUT3 = item 2: frame [1, 2];
        // LUT4 = item 3: frame [1, 2].
        assert_eq!(tf.frame(1), (0, 1));
        assert_eq!(tf.frame(2), (1, 2));
        assert_eq!(tf.frame(3), (1, 2));
        let ops = [StorageOp {
            src: 1,
            dests: vec![2, 3],
            weight: 1,
        }];
        // ASAP life = [0, 1] len 2; ALAP life = [1, 2] len 2;
        // max life = [0, 2] len 3; overlap = [1, 1] len 1;
        // avg = (2 + 2 + 3) / 3 = 7/3.
        let dist = DistributionGraphs::storage_distribution_of(&g, &tf, &ops[0], None);
        // Overlap cycle 1 gets full weight.
        assert!((dist[1] - 1.0).abs() < 1e-9);
        // Cycles 0 and 2: (avg - ov)/(max - ov) = (7/3 - 1)/2 = 2/3.
        assert!((dist[0] - 2.0 / 3.0).abs() < 1e-9);
        assert!((dist[2] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn fully_scheduled_storage_is_exact() {
        let g = fig3_graph();
        let mut pins = vec![None; g.len()];
        pins[1] = Some(0);
        pins[2] = Some(2);
        pins[3] = Some(1);
        let tf = TimeFrames::compute(&g, 3, &pins).unwrap();
        let op = StorageOp {
            src: 1,
            dests: vec![2, 3],
            weight: 4,
        };
        let dist = DistributionGraphs::storage_distribution_of(&g, &tf, &op, None);
        // Live cycles 0..=2 (src 0, last dest 2), weight 4 each.
        assert_eq!(dist, vec![4.0, 4.0, 4.0]);
    }

    #[test]
    fn tentative_pin_changes_distribution() {
        let g = fig3_graph();
        let tf = TimeFrames::compute(&g, 3, &vec![None; g.len()]).unwrap();
        let op = StorageOp {
            src: 1,
            dests: vec![2, 3],
            weight: 1,
        };
        let free = DistributionGraphs::storage_distribution_of(&g, &tf, &op, None);
        let pinned = DistributionGraphs::storage_distribution_of(&g, &tf, &op, Some((1, 1)));
        assert_ne!(free, pinned);
        // Pinning the source to cycle 1 removes any cycle-0 storage.
        assert!(pinned[0].abs() < 1e-9);
    }

    #[test]
    fn storage_ops_dedupe_destinations() {
        let g = fig3_graph();
        // Build a trivial net (storage_ops only uses fanouts for the
        // refined mode; ItemWeight mode ignores it).
        let net = nanomap_netlist::LutNetwork::new("t");
        let ops = storage_ops(&net, &g, StorageWeightMode::ItemWeight);
        let lut2_op = ops.iter().find(|o| o.src == 1).unwrap();
        assert_eq!(lut2_op.dests, vec![2, 3]);
        assert_eq!(lut2_op.weight, 1);
        // Sinks produce no ops.
        assert!(!ops.iter().any(|o| o.src == 6));
    }
}
