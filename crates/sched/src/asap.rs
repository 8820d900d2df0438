//! ASAP/ALAP scheduling and time frames (Section 4.2.1, Fig. 3).

use crate::error::SchedError;
use crate::item::ItemGraph;

/// The feasible folding-cycle interval of every item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeFrames {
    /// Earliest feasible cycle per item (0-based).
    pub asap: Vec<u32>,
    /// Latest feasible cycle per item (0-based).
    pub alap: Vec<u32>,
    /// Number of folding cycles.
    pub stages: u32,
}

impl TimeFrames {
    /// Computes ASAP and ALAP schedules over `stages` folding cycles,
    /// honouring pinned items (already-scheduled FDS decisions).
    ///
    /// `pinned[i] = Some(c)` forces item `i` to cycle `c`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Infeasible`] if a chain cannot fit (or a pin
    /// contradicts the precedence constraints).
    pub fn compute(
        graph: &ItemGraph,
        stages: u32,
        pinned: &[Option<u32>],
    ) -> Result<Self, SchedError> {
        Self::compute_in_order(graph, stages, pinned, &topo_order(graph)?)
    }

    /// [`Self::compute`] over a topological `order` of `graph` the caller
    /// computed once, so repeated recomputes skip the sort.
    pub(crate) fn compute_in_order(
        graph: &ItemGraph,
        stages: u32,
        pinned: &[Option<u32>],
        order: &[usize],
    ) -> Result<Self, SchedError> {
        let n = graph.len();
        assert_eq!(pinned.len(), n, "one pin slot per item");

        // ASAP: longest path from sources.
        let mut asap = vec![0u32; n];
        for &i in order {
            let mut earliest = 0;
            for &(p, lat) in &graph.preds[i] {
                earliest = earliest.max(asap[p] + lat);
            }
            if let Some(pin) = pinned[i] {
                if pin < earliest {
                    return Err(SchedError::Infeasible {
                        stages,
                        required: earliest + 1,
                    });
                }
                earliest = pin;
            }
            asap[i] = earliest;
        }
        // ALAP: longest path to sinks, anchored at stages - 1.
        let mut alap = vec![stages.saturating_sub(1); n];
        for &i in order.iter().rev() {
            let mut latest = stages.saturating_sub(1);
            for &(s, lat) in &graph.succs[i] {
                latest = latest.min(alap[s].saturating_sub(lat));
                if alap[s] < lat {
                    return Err(SchedError::Infeasible {
                        stages,
                        required: asap[i] + lat + 1,
                    });
                }
            }
            if let Some(pin) = pinned[i] {
                if pin > latest {
                    return Err(SchedError::Infeasible {
                        stages,
                        required: asap[i].max(pin) + 1,
                    });
                }
                latest = pin;
            }
            alap[i] = latest;
        }
        for i in 0..n {
            if asap[i] > alap[i] {
                return Err(SchedError::Infeasible {
                    stages,
                    required: asap[i] + 1,
                });
            }
        }
        Ok(Self { asap, alap, stages })
    }

    /// The time frame `[asap, alap]` of an item.
    pub fn frame(&self, item: usize) -> (u32, u32) {
        (self.asap[item], self.alap[item])
    }

    /// `|time_frame_i|` of Eq. (5).
    pub fn frame_len(&self, item: usize) -> u32 {
        self.alap[item] - self.asap[item] + 1
    }

    /// Mobility (frame length − 1) of an item.
    pub fn mobility(&self, item: usize) -> u32 {
        self.alap[item] - self.asap[item]
    }
}

/// Topological order of the item graph.
///
/// # Errors
///
/// Returns an error if the item graph is cyclic (which would indicate a
/// malformed plane).
pub(crate) fn topo_order(graph: &ItemGraph) -> Result<Vec<usize>, SchedError> {
    let n = graph.len();
    let mut indeg = vec![0usize; n];
    for e in &graph.edges {
        indeg[e.to] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(i);
        for &(s, _) in &graph.succs[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    if order.len() != n {
        return Err(SchedError::Netlist("cyclic item graph".into()));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{Item, ItemEdge, ItemKind};
    use nanomap_netlist::LutId;

    /// Hand-built graph mirroring Fig. 3 of the paper: a chain plus a
    /// mobile LUT.
    fn fig3_like() -> ItemGraph {
        // items: 0 = LUT1 (chain head), 1 = LUT2 (mobile), 2 = clus1,
        // 3 = clus2, 4 = clus3 (sink), edges 0->4? Simplified:
        // 0 -> 2 -> 3 -> 4 (chain, latency 1 each), 1 -> 4 (mobile).
        let items: Vec<Item> = (0..5)
            .map(|i| Item {
                kind: ItemKind::Lut(LutId::new(i)),
                luts: vec![LutId::new(i)],
                weight: 1,
                window: 1,
                name: format!("i{i}"),
            })
            .collect();
        let edges = vec![
            ItemEdge {
                from: 0,
                to: 2,
                latency: 1,
            },
            ItemEdge {
                from: 2,
                to: 3,
                latency: 1,
            },
            ItemEdge {
                from: 3,
                to: 4,
                latency: 1,
            },
            ItemEdge {
                from: 1,
                to: 4,
                latency: 1,
            },
        ];
        let mut succs = vec![Vec::new(); 5];
        let mut preds = vec![Vec::new(); 5];
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
    fn frames_match_hand_computation() {
        let g = fig3_like();
        let tf = TimeFrames::compute(&g, 4, &[None; 5]).unwrap();
        // Chain 0->2->3->4 is critical: frames are singletons.
        assert_eq!(tf.frame(0), (0, 0));
        assert_eq!(tf.frame(2), (1, 1));
        assert_eq!(tf.frame(3), (2, 2));
        assert_eq!(tf.frame(4), (3, 3));
        // Item 1 only needs to precede item 4: frame [0, 2].
        assert_eq!(tf.frame(1), (0, 2));
        assert_eq!(tf.frame_len(1), 3);
        assert_eq!(tf.mobility(1), 2);
    }

    #[test]
    fn infeasible_when_chain_longer_than_stages() {
        let g = fig3_like();
        let err = TimeFrames::compute(&g, 3, &[None; 5]).unwrap_err();
        assert!(matches!(err, SchedError::Infeasible { .. }));
    }

    #[test]
    fn pinning_restricts_frames() {
        let g = fig3_like();
        let mut pins = vec![None; 5];
        pins[1] = Some(2);
        let tf = TimeFrames::compute(&g, 4, &pins).unwrap();
        assert_eq!(tf.frame(1), (2, 2));
        // Other frames unchanged.
        assert_eq!(tf.frame(0), (0, 0));
    }

    #[test]
    fn contradictory_pin_is_infeasible() {
        let g = fig3_like();
        let mut pins = vec![None; 5];
        pins[4] = Some(1); // chain needs cycle 3
        assert!(TimeFrames::compute(&g, 4, &pins).is_err());
    }

    #[test]
    fn zero_latency_edges_allow_same_cycle() {
        let mut g = fig3_like();
        for e in &mut g.edges {
            e.latency = 0;
        }
        g.succs = vec![Vec::new(); 5];
        g.preds = vec![Vec::new(); 5];
        let edges = g.edges.clone();
        for e in &edges {
            g.succs[e.from].push((e.to, e.latency));
            g.preds[e.to].push((e.from, e.latency));
        }
        let tf = TimeFrames::compute(&g, 1, &[None; 5]).unwrap();
        for i in 0..5 {
            assert_eq!(tf.frame(i), (0, 0));
        }
    }
}
