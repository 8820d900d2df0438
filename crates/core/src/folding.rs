//! Folding-level selection (Section 4.1, Eqs. 1–4).

use nanomap_arch::TimingModel;
use nanomap_netlist::{LutNetwork, PlaneSet};
use nanomap_sched::LeShape;

/// Whether planes time-share the same physical logic elements.
///
/// Sharing across planes never hurts delay but multiplies the number of
/// NRAM configuration sets consumed (`num_plane × stages`). When the
/// NRAM limit `k` rules sharing out — or the circuit is pipelined and all
/// planes must be resident simultaneously — folding falls back to within-
/// plane sharing only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneSharing {
    /// All planes execute on the same LEs (stacked, Section 4.1 scenario 1).
    Shared,
    /// Each plane owns its LEs; folding happens within a plane
    /// (Section 4.1 scenario 2 — pipelined circuits).
    PerPlane,
}

/// One candidate folding configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldingConfig {
    /// Folding level `p`, or `None` for the traditional no-folding mapping.
    pub level: Option<u32>,
    /// Folding stages per plane (1 when not folding).
    pub stages: u32,
    /// Plane resource sharing mode.
    pub sharing: PlaneSharing,
}

impl FoldingConfig {
    /// The no-folding baseline configuration.
    pub fn no_folding() -> Self {
        Self {
            level: None,
            stages: 1,
            sharing: PlaneSharing::PerPlane,
        }
    }

    /// NRAM configuration sets consumed per logic element.
    pub fn nram_sets(&self, num_planes: u32) -> u32 {
        match (self.level, self.sharing) {
            (None, _) => 1,
            (Some(_), PlaneSharing::Shared) => num_planes * self.stages,
            (Some(_), PlaneSharing::PerPlane) => self.stages,
        }
    }
}

/// Eq. (1): the minimum number of folding stages needed to fit
/// `lut_max` LUTs into `available_le` logic elements.
pub fn min_folding_stages(lut_max: usize, available_le: u32) -> u32 {
    (lut_max as u32).div_ceil(available_le.max(1)).max(1)
}

/// Eq. (2): the folding level realizing a stage count.
pub fn folding_level_for_stages(depth_max: u32, stages: u32) -> u32 {
    depth_max.div_ceil(stages.max(1)).max(1)
}

/// Eq. (3): the minimum folding level permitted by the NRAM set count
/// when planes share resources.
pub fn min_level_shared(depth_max: u32, num_planes: u32, num_reconf: u32) -> u32 {
    if num_reconf == u32::MAX {
        1
    } else {
        (depth_max * num_planes).div_ceil(num_reconf).max(1)
    }
}

/// Eq. (4): the folding level for pipelined circuits whose planes cannot
/// share resources, sized so the whole circuit fits `available_le`.
pub fn folding_level_per_plane(depth_max: u32, available_le: u32, total_luts: usize) -> u32 {
    ((u64::from(depth_max) * u64::from(available_le)) / (total_luts as u64).max(1)).max(1) as u32
}

/// Enumerates the distinct candidate folding configurations of a circuit,
/// best-delay first: no-folding, then level-`p` configurations for every
/// distinct stage count, preferring plane sharing and falling back to
/// per-plane folding when the NRAM limit demands it.
pub fn candidate_configs(planes: &PlaneSet, num_reconf: u32) -> Vec<FoldingConfig> {
    let depth_max = planes.depth_max().max(1);
    let num_planes = planes.num_planes() as u32;
    let mut out = vec![FoldingConfig::no_folding()];
    let mut seen_levels = std::collections::HashSet::new();
    for stages in 1..=depth_max {
        let level = folding_level_for_stages(depth_max, stages);
        if !seen_levels.insert(level) {
            continue;
        }
        let stages = depth_max.div_ceil(level); // canonical stage count
        let shared_ok = num_reconf == u32::MAX || num_planes * stages <= num_reconf;
        let per_plane_ok = num_reconf == u32::MAX || stages <= num_reconf;
        if shared_ok {
            out.push(FoldingConfig {
                level: Some(level),
                stages,
                sharing: PlaneSharing::Shared,
            });
        } else if per_plane_ok && num_planes > 1 {
            out.push(FoldingConfig {
                level: Some(level),
                stages,
                sharing: PlaneSharing::PerPlane,
            });
        }
    }
    out
}

/// Analytic cost of a folding candidate, known before it is scheduled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateBound {
    /// Lower bound on the LE count (exact without folding).
    pub les: u32,
    /// Circuit delay; exact, since it depends only on the configuration.
    pub delay_ns: f64,
}

/// The [`CandidateBound`] of `config`. With folding, Eq. (1) read
/// backwards bounds a plane's LEs: some cycle of the `stages` executes
/// at least `ceil(L_plane / stages)` LUTs, and every register bit the
/// plane keeps resident needs a flip-flop in every cycle, so a plane
/// needs `max(ceil(ceil(L_plane / stages) / h), ceil(reg_bits / l))`
/// LEs. Shared folding takes the maximum over planes with every circuit
/// register resident; per-plane folding sums the planes, each with the
/// registers [`ff_owners`] assigns it.
pub fn candidate_bound(
    net: &LutNetwork,
    planes: &PlaneSet,
    config: FoldingConfig,
    shape: LeShape,
    timing: &TimingModel,
) -> CandidateBound {
    let num_planes = planes.num_planes() as u32;
    let total_ff_bits = net.num_ffs() as u32;
    let Some(p) = config.level else {
        // No folding: every LUT owns an LE; registers live in the LE
        // flip-flops.
        return CandidateBound {
            les: (net.num_luts() as u32).max(total_ff_bits.div_ceil(shape.ffs)),
            delay_ns: timing.circuit_delay_no_folding(num_planes, planes.depth_max()),
        };
    };
    let plane_les = |luts: usize, reg_bits: u32| {
        (luts as u32)
            .div_ceil(config.stages)
            .div_ceil(shape.luts)
            .max(reg_bits.div_ceil(shape.ffs))
    };
    let les = match config.sharing {
        PlaneSharing::Shared => planes
            .planes()
            .iter()
            .map(|plane| plane_les(plane.num_luts(), total_ff_bits))
            .max()
            .unwrap_or(0),
        PlaneSharing::PerPlane => {
            let mut reg_bits = vec![0u32; planes.num_planes()];
            for owner in ff_owners(planes, net.num_ffs()) {
                reg_bits[owner] += 1;
            }
            planes
                .planes()
                .iter()
                .zip(reg_bits)
                .map(|(plane, bits)| plane_les(plane.num_luts(), bits))
                .sum()
        }
    };
    CandidateBound {
        les,
        delay_ns: timing.circuit_delay(num_planes, config.stages, p),
    }
}

/// Assigns every flip-flop to one plane (the plane it feeds, else the
/// plane that writes it) for per-plane register accounting.
pub(crate) fn ff_owners(planes: &PlaneSet, num_ffs: usize) -> Vec<usize> {
    let mut owner = vec![0usize; num_ffs];
    let mut assigned = vec![false; num_ffs];
    for (idx, plane) in planes.planes().iter().enumerate() {
        for &f in &plane.input_ffs {
            if !assigned[f.index()] {
                owner[f.index()] = idx;
                assigned[f.index()] = true;
            }
        }
    }
    for (idx, plane) in planes.planes().iter().enumerate() {
        for &f in &plane.output_ffs {
            if !assigned[f.index()] {
                owner[f.index()] = idx;
                assigned[f.index()] = true;
            }
        }
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The motivational example (Section 3): 50 LUTs, 32 available LEs,
    /// depth 9 → 2 stages, level 5.
    #[test]
    fn motivational_example_initial_level() {
        let stages = min_folding_stages(50, 32);
        assert_eq!(stages, 2);
        assert_eq!(folding_level_for_stages(9, stages), 5);
    }

    /// After the level-5 attempt fails (cluster of 34 > 32), level 4 gives
    /// 3 stages.
    #[test]
    fn motivational_example_refined_level() {
        assert_eq!(9u32.div_ceil(4), 3);
    }

    #[test]
    fn eq3_min_level() {
        // ex1 with k = 16: depth 24, 1 plane -> min level 2.
        assert_eq!(min_level_shared(24, 1, 16), 2);
        // Unbounded k -> level 1 allowed.
        assert_eq!(min_level_shared(24, 1, u32::MAX), 1);
        // ex2 shared: depth 22, 3 planes, k = 16 -> level 5.
        assert_eq!(min_level_shared(22, 3, 16), 5);
    }

    #[test]
    fn eq4_per_plane_level() {
        // depth 24, 600 LEs available, 2240 total LUTs.
        assert_eq!(folding_level_per_plane(24, 600, 2240), 6);
    }

    #[test]
    fn nram_sets_accounting() {
        let shared = FoldingConfig {
            level: Some(2),
            stages: 11,
            sharing: PlaneSharing::Shared,
        };
        assert_eq!(shared.nram_sets(3), 33);
        let per_plane = FoldingConfig {
            level: Some(2),
            stages: 11,
            sharing: PlaneSharing::PerPlane,
        };
        assert_eq!(per_plane.nram_sets(3), 11);
        assert_eq!(FoldingConfig::no_folding().nram_sets(3), 1);
    }

    #[test]
    fn candidates_respect_nram_limit() {
        // Build a 3-plane, depth-22 PlaneSet surrogate via a real network.
        use nanomap_netlist::{LutNetwork, SignalRef, TruthTable};
        let mut net = LutNetwork::new("pipe");
        let mut sig = net.add_input("a");
        for _ in 0..3 {
            for _ in 0..22 {
                sig = net.add_lut(TruthTable::buffer(), vec![sig]);
            }
            let ff = net.add_ff(sig, None);
            sig = SignalRef::Ff(ff);
        }
        let l = net.add_lut(TruthTable::buffer(), vec![sig]);
        net.add_output("y", l);
        // This network has 3 register levels and trailing PO logic; depth
        // max is 22 per plane.
        let planes = nanomap_netlist::PlaneSet::extract(&net).unwrap();
        assert!(planes.num_planes() >= 3);
        let candidates = candidate_configs(&planes, 16);
        for c in &candidates {
            assert!(c.nram_sets(planes.num_planes() as u32) <= 16 || c.level.is_none());
        }
        // Level-1 shared would need 3*22 = 66 sets: must not be offered as
        // Shared under k = 16.
        assert!(!candidates
            .iter()
            .any(|c| c.level == Some(1) && c.sharing == PlaneSharing::Shared));
        // But per-plane level-2 (11 stages) fits 16 sets.
        assert!(candidates
            .iter()
            .any(|c| c.level == Some(2) && c.sharing == PlaneSharing::PerPlane));
    }

    #[test]
    fn candidates_unbounded_include_level1_shared() {
        use nanomap_netlist::{LutNetwork, TruthTable};
        let mut net = LutNetwork::new("c");
        let mut sig = net.add_input("a");
        for _ in 0..8 {
            sig = net.add_lut(TruthTable::buffer(), vec![sig]);
        }
        net.add_output("y", sig);
        let planes = nanomap_netlist::PlaneSet::extract(&net).unwrap();
        let candidates = candidate_configs(&planes, u32::MAX);
        assert_eq!(candidates[0], FoldingConfig::no_folding());
        assert!(candidates
            .iter()
            .any(|c| c.level == Some(1) && c.sharing == PlaneSharing::Shared));
        // Distinct levels only.
        let mut levels: Vec<_> = candidates.iter().filter_map(|c| c.level).collect();
        let n = levels.len();
        levels.dedup();
        assert_eq!(levels.len(), n);
    }
}
