//! Placement cost model.
//!
//! The base cost is the half-perimeter wirelength (HPWL) of every
//! inter-SMB net, summed over **all** folding cycles — this is the joint
//! form of the paper's inter-folding-stage term: the Manhattan distance
//! between SMBs communicating in other cycles is added to the cost of the
//! current cycle (Section 4.4, Fig. 6(b)). Critical nets get a weight
//! bonus (timing-driven placement).

use nanomap_arch::SmbPos;
use nanomap_pack::{Slice, SliceNets};

/// Weights of the placement cost terms.
#[derive(Debug, Clone, Copy)]
pub struct CostWeights {
    /// Multiplier on nets outside the first folding cycle (1.0 = the
    /// paper's joint optimization; 0.0 = place for cycle 0 only, the
    /// ablation baseline).
    pub inter_stage: f64,
    /// Extra weight on timing-critical nets.
    pub critical_bonus: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        Self {
            inter_stage: 1.0,
            critical_bonus: 0.5,
        }
    }
}

/// A flattened net for fast cost evaluation.
#[derive(Debug, Clone)]
pub struct FlatNet {
    /// Driver + sink SMB indices.
    pub pins: Vec<u32>,
    /// Effective weight (slice weighting × criticality bonus).
    pub weight: f64,
}

/// Flattens per-slice nets into weighted nets.
pub fn flatten_nets(nets: &SliceNets, weights: CostWeights) -> Vec<FlatNet> {
    let mut out = Vec::new();
    for (&slice, slice_nets) in &nets.nets {
        let slice_w = if is_first_slice(slice) {
            1.0
        } else {
            weights.inter_stage
        };
        if slice_w == 0.0 {
            continue;
        }
        for n in slice_nets {
            let mut pins = Vec::with_capacity(1 + n.sinks.len());
            pins.push(n.driver);
            pins.extend(n.sinks.iter().copied());
            let w = slice_w
                * if n.critical {
                    1.0 + weights.critical_bonus
                } else {
                    1.0
                };
            out.push(FlatNet { pins, weight: w });
        }
    }
    out
}

fn is_first_slice(slice: Slice) -> bool {
    slice.plane == 0 && slice.stage == 0
}

/// Half-perimeter wirelength of one net under a placement.
pub fn net_hpwl(net: &FlatNet, pos_of: &[SmbPos]) -> f64 {
    let mut min_x = u16::MAX;
    let mut max_x = 0;
    let mut min_y = u16::MAX;
    let mut max_y = 0;
    for &p in &net.pins {
        let pos = pos_of[p as usize];
        min_x = min_x.min(pos.x);
        max_x = max_x.max(pos.x);
        min_y = min_y.min(pos.y);
        max_y = max_y.max(pos.y);
    }
    f64::from(max_x - min_x) + f64::from(max_y - min_y)
}

/// Total weighted wirelength of all nets.
pub fn total_cost(nets: &[FlatNet], pos_of: &[SmbPos]) -> f64 {
    nets.iter().map(|n| n.weight * net_hpwl(n, pos_of)).sum()
}

/// Index from SMB to the nets touching it (for incremental updates),
/// each list ascending and without repeats.
pub fn nets_of_smb(nets: &[FlatNet], num_smbs: u32) -> Vec<Vec<usize>> {
    let mut idx = vec![Vec::new(); num_smbs as usize];
    for (i, n) in nets.iter().enumerate() {
        for &p in &n.pins {
            // A net's pins are visited together, so a repeat is last.
            if idx[p as usize].last() != Some(&i) {
                idx[p as usize].push(i);
            }
        }
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpwl_is_bounding_box() {
        let net = FlatNet {
            pins: vec![0, 1, 2],
            weight: 1.0,
        };
        let pos = vec![SmbPos::new(0, 0), SmbPos::new(3, 1), SmbPos::new(1, 4)];
        assert_eq!(net_hpwl(&net, &pos), 3.0 + 4.0);
    }

    #[test]
    fn weights_scale_cost() {
        let a = FlatNet {
            pins: vec![0, 1],
            weight: 1.0,
        };
        let b = FlatNet {
            pins: vec![0, 1],
            weight: 2.0,
        };
        let pos = vec![SmbPos::new(0, 0), SmbPos::new(2, 0)];
        assert_eq!(total_cost(&[a], &pos), 2.0);
        assert_eq!(total_cost(&[b], &pos), 4.0);
    }

    #[test]
    fn smb_net_index_covers_all_pins() {
        let nets = vec![
            FlatNet {
                pins: vec![0, 1],
                weight: 1.0,
            },
            FlatNet {
                pins: vec![1, 2],
                weight: 1.0,
            },
        ];
        let idx = nets_of_smb(&nets, 3);
        assert_eq!(idx[0], vec![0]);
        assert_eq!(idx[1], vec![0, 1]);
        assert_eq!(idx[2], vec![1]);
    }
}
