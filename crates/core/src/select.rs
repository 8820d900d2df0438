//! Folding-candidate selection (Section 4.1) and the per-candidate
//! logic-mapping cache.
//!
//! The paper picks the folding level analytically from Eqs. 1–4 and
//! schedules only what it needs. [`Selection`] does the same: every
//! candidate gets a [`CandidateBound`] — its exact delay and an Eq. 1
//! lower bound on its LEs — and FDS runs in bound order only until the
//! best candidate found so far is strictly preferred over the next
//! bound. The full preference order, which needs every admitted
//! candidate scheduled, is built only when the recovery ladder falls
//! back past the winner or the exact rung walks the candidates.
//!
//! Each candidate is scheduled at most once. Its [`CandidateEval`] owns
//! the temporal design and packs it on first use, and every
//! physical-design attempt, exact-rung grid sizing and resumed rung
//! borrows it.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::time::Instant;

use nanomap_arch::ArchParams;
use nanomap_netlist::{LutNetwork, PlaneSet};
use nanomap_observe::span;
use nanomap_pack::{extract_nets, pack, PackOptions, Packing, SliceNets, TemporalDesign};
use nanomap_sched::{schedule_fds_budgeted, ItemGraph, Schedule};

use crate::budget::{CancelToken, Degradation};
use crate::error::FlowError;
use crate::flow::NanoMap;
use crate::folding::{
    candidate_bound, candidate_configs, ff_owners, CandidateBound, FoldingConfig, PlaneSharing,
};
use crate::objective::Objective;

/// A candidate's temporal clustering with its slice nets.
pub(crate) struct Packed {
    pub(crate) packing: Packing,
    pub(crate) nets: SliceNets,
    /// Wall time of clustering plus net extraction, in milliseconds.
    pub(crate) ms: f64,
}

/// One folding candidate's logic mapping, computed once.
pub(crate) struct CandidateEval<'a> {
    pub(crate) config: FoldingConfig,
    pub(crate) les: u32,
    pub(crate) delay_ns: f64,
    pub(crate) design: TemporalDesign<'a>,
    /// Budget truncation of the candidate's FDS; every attempt that maps
    /// the candidate reports it.
    pub(crate) degradation: Option<Degradation>,
    packed: OnceCell<Packed>,
}

impl<'a> CandidateEval<'a> {
    /// Assesses scheduled graphs and assembles their temporal design.
    pub(crate) fn new(
        flow: &NanoMap,
        net: &'a LutNetwork,
        planes: &'a PlaneSet,
        config: FoldingConfig,
        graphs: Vec<ItemGraph>,
        schedules: Vec<Schedule>,
        degradation: Option<Degradation>,
    ) -> Result<Self, FlowError> {
        let (les, delay_ns) = flow.assess(net, planes, config, &graphs, &schedules);
        Ok(Self {
            config,
            les,
            delay_ns,
            design: TemporalDesign::new(net, planes, graphs, schedules)?,
            degradation,
            packed: OnceCell::new(),
        })
    }

    /// Seeds the cache with a packing restored from a checkpoint.
    pub(crate) fn with_packing(self, packing: Packing) -> Self {
        let start = Instant::now();
        let nets = extract_nets(&self.design, &packing);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let _ = self.packed.set(Packed { packing, nets, ms });
        self
    }

    /// The candidate's packing and nets, clustered on first use.
    pub(crate) fn packed(
        &self,
        arch: &ArchParams,
        options: PackOptions,
    ) -> Result<&Packed, FlowError> {
        if let Some(packed) = self.packed.get() {
            nanomap_observe::incr("flow.pack_reused", 1);
            return Ok(packed);
        }
        let start = Instant::now();
        let packing = {
            let _span = span!("pack", slices = self.design.num_slices());
            pack(&self.design, arch, options)?
        };
        let nets = extract_nets(&self.design, &packing);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        Ok(self.packed.get_or_init(|| Packed { packing, nets, ms }))
    }
}

/// Where one candidate's evaluation stands.
enum Slot<'a> {
    /// Not scheduled yet.
    Pending,
    /// FDS cannot fit the candidate's stage count.
    Unschedulable,
    /// Scheduled and assessed. The logic mapping is dropped once no
    /// rung will map the candidate again.
    Done {
        les: u32,
        delay_ns: f64,
        eval: Option<Box<CandidateEval<'a>>>,
    },
}

/// Folding-candidate selection for one netlist under one objective.
///
/// [`Self::select`] finds the preferred admitted candidate, scheduling
/// as few candidates as the bounds allow; [`Self::rank_all`] schedules
/// the rest that could be admitted and orders them all. Both orders come
/// from one total comparator — admitted first, then [`Objective::rank`],
/// fewer stages, and finally the enumeration index — so the winner never
/// depends on the order in which candidates were scheduled.
pub struct Selection<'a> {
    flow: &'a NanoMap,
    net: &'a LutNetwork,
    planes: &'a PlaneSet,
    objective: Objective,
    configs: Vec<FoldingConfig>,
    bounds: Vec<CandidateBound>,
    slots: Vec<Slot<'a>>,
    /// Evaluated candidates in preference order: the winner alone after
    /// [`Self::select`], every evaluated candidate after
    /// [`Self::rank_all`].
    ranked: Vec<usize>,
    complete: bool,
    evaluated: usize,
}

impl<'a> Selection<'a> {
    /// Enumerates the folding candidates of `planes` and bounds each.
    pub fn new(
        flow: &'a NanoMap,
        net: &'a LutNetwork,
        planes: &'a PlaneSet,
        objective: Objective,
    ) -> Self {
        let configs = candidate_configs(planes, flow.arch.num_reconf);
        let bounds = configs
            .iter()
            .map(|&c| candidate_bound(net, planes, c, flow.fds.shape, &flow.timing))
            .collect();
        Self {
            flow,
            net,
            planes,
            objective,
            slots: configs.iter().map(|_| Slot::Pending).collect(),
            configs,
            bounds,
            ranked: Vec::new(),
            complete: false,
            evaluated: 0,
        }
    }

    /// The objective candidates are ranked under.
    pub(crate) fn objective(&self) -> Objective {
        self.objective
    }

    /// The candidates, in enumeration order.
    pub fn configs(&self) -> &[FoldingConfig] {
        &self.configs
    }

    /// The analytic bound of every candidate, in enumeration order.
    pub fn bounds(&self) -> &[CandidateBound] {
        &self.bounds
    }

    /// LE count and delay of candidate `i`, once it has been scheduled.
    pub fn assessed(&self, i: usize) -> Option<(u32, f64)> {
        match self.slots[i] {
            Slot::Done { les, delay_ns, .. } => Some((les, delay_ns)),
            _ => None,
        }
    }

    /// Candidates scheduled so far (FDS evaluations, infeasible stage
    /// counts included).
    pub fn evaluated(&self) -> usize {
        self.evaluated
    }

    /// Candidates never scheduled.
    pub fn pruned(&self) -> usize {
        self.configs.len() - self.evaluated
    }

    /// Whether [`Self::rank_all`] has ordered every candidate.
    pub(crate) fn is_complete(&self) -> bool {
        self.complete
    }

    /// The preferred candidate, when it satisfies the objective's budgets.
    pub fn winner(&self) -> Option<usize> {
        self.ranked
            .first()
            .copied()
            .filter(|&i| self.admitted_cost(i).is_some())
    }

    /// The total preference order over `(candidate, les, delay)`.
    fn cmp(
        &self,
        (a, les_a, delay_a): (usize, u32, f64),
        (b, les_b, delay_b): (usize, u32, f64),
    ) -> Ordering {
        let o = &self.objective;
        o.admits(les_b, delay_b)
            .cmp(&o.admits(les_a, delay_a))
            .then_with(|| o.rank(les_a, delay_a, les_b, delay_b))
            .then(self.configs[a].stages.cmp(&self.configs[b].stages))
            .then(a.cmp(&b))
    }

    fn bound_key(&self, i: usize) -> (usize, u32, f64) {
        (i, self.bounds[i].les, self.bounds[i].delay_ns)
    }

    fn admitted_cost(&self, i: usize) -> Option<(usize, u32, f64)> {
        self.assessed(i)
            .filter(|&(les, delay)| self.objective.admits(les, delay))
            .map(|(les, delay)| (i, les, delay))
    }

    /// Lazy selection: schedules candidates in bound order until the best
    /// admitted one is strictly preferred over the next bound, or that
    /// bound violates the budgets. A cost never ranks before its bound,
    /// so no skipped candidate could have won. When the token expires
    /// after an admitted candidate exists, selection stops early and
    /// returns the [`Degradation`].
    ///
    /// # Errors
    ///
    /// A hard failure while scheduling a candidate.
    pub fn select(&mut self, token: &CancelToken) -> Result<Option<Degradation>, FlowError> {
        let mut by_bound: Vec<usize> = (0..self.configs.len()).collect();
        by_bound.sort_by(|&a, &b| self.cmp(self.bound_key(a), self.bound_key(b)));
        let mut best: Option<(usize, u32, f64)> = None;
        for i in by_bound {
            let bound = self.bounds[i];
            if !self.objective.admits(bound.les, bound.delay_ns) {
                break;
            }
            if best.is_some_and(|b| self.cmp(b, self.bound_key(i)) == Ordering::Less) {
                break;
            }
            if best.is_some() && token.expired() {
                // A truncated search beats no mapping at all.
                return Ok(Some(Degradation {
                    phase: "folding-select".into(),
                    reason: format!(
                        "time budget expired after {} of {} folding candidates",
                        self.evaluated,
                        self.configs.len()
                    ),
                    completed_iterations: self.evaluated as u64,
                    qor_estimate: self.pruned() as f64,
                }));
            }
            self.evaluate(i, token)?;
            if let Some(cost) = self.admitted_cost(i) {
                if best.is_none_or(|b| self.cmp(cost, b) == Ordering::Less) {
                    best = Some(cost);
                    self.ranked = vec![i];
                }
            }
        }
        if best.is_none() {
            // Nothing admitted: order everything so the error names the
            // best candidate.
            self.rank_all(token)?;
        }
        Ok(None)
    }

    /// Schedules every remaining candidate whose bound satisfies the
    /// budgets — all of them when none does — and orders the scheduled
    /// candidates by preference. The result equals scheduling every
    /// candidate up front, except that candidates provably outside the
    /// budgets are left out behind an admitted one.
    ///
    /// # Errors
    ///
    /// A hard failure while scheduling a candidate.
    pub fn rank_all(&mut self, token: &CancelToken) -> Result<&[usize], FlowError> {
        if !self.complete {
            let admits = |s: &Self, i: usize| {
                let b = s.bounds[i];
                s.objective.admits(b.les, b.delay_ns)
            };
            for i in 0..self.configs.len() {
                if matches!(self.slots[i], Slot::Pending) && admits(self, i) {
                    self.evaluate(i, token)?;
                }
            }
            if (0..self.configs.len()).all(|i| self.admitted_cost(i).is_none()) {
                for i in 0..self.configs.len() {
                    if matches!(self.slots[i], Slot::Pending) {
                        self.evaluate(i, token)?;
                    }
                }
            }
            let mut ranked: Vec<(usize, u32, f64)> = (0..self.configs.len())
                .filter_map(|i| self.assessed(i).map(|(les, delay)| (i, les, delay)))
                .collect();
            ranked.sort_by(|&a, &b| self.cmp(a, b));
            self.ranked = ranked.into_iter().map(|(i, _, _)| i).collect();
            self.complete = true;
        }
        Ok(&self.ranked)
    }

    /// The admitted candidate at preference `rank`, if the order known so
    /// far has one.
    pub(crate) fn admitted(&self, rank: usize) -> Option<&CandidateEval<'a>> {
        let i = *self.ranked.get(rank)?;
        self.admitted_cost(i)?;
        match &self.slots[i] {
            Slot::Done { eval, .. } => eval.as_deref(),
            _ => None,
        }
    }

    /// Drops the logic mapping and packing of the candidate at
    /// preference `rank` once nothing will map it again; its cost stays
    /// ranked.
    pub(crate) fn release(&mut self, rank: usize) {
        if let Some(Slot::Done { eval, .. }) = self.ranked.get(rank).map(|&i| &mut self.slots[i]) {
            *eval = None;
        }
    }

    /// The error for a selection without an admitted candidate.
    pub(crate) fn infeasibility(&self) -> FlowError {
        let reason = match self.ranked.first().and_then(|&i| self.assessed(i)) {
            Some((les, delay_ns)) => format!(
                "best candidate needs {les} LEs / {delay_ns:.2} ns, outside the constraints"
            ),
            _ => "no folding configuration schedules feasibly".into(),
        };
        FlowError::NoFeasibleFolding { reason }
    }

    fn evaluate(&mut self, i: usize, token: &CancelToken) -> Result<(), FlowError> {
        let config = self.configs[i];
        let mut span = span!("candidate", stages = config.stages);
        span.attr("level", config.level);
        nanomap_observe::incr("flow.candidates_evaluated", 1);
        self.evaluated += 1;
        self.slots[i] = match self.flow.evaluate(self.net, self.planes, config, token) {
            Ok(eval) => Slot::Done {
                les: eval.les,
                delay_ns: eval.delay_ns,
                eval: Some(Box::new(eval)),
            },
            Err(FlowError::Sched(_)) => {
                nanomap_observe::incr("flow.candidates_rejected_sched", 1);
                Slot::Unschedulable
            }
            Err(e) => return Err(e),
        };
        Ok(())
    }
}

impl NanoMap {
    /// Logic-mapping evaluation of one folding configuration: schedules
    /// every plane (polling the cancel token at FDS round boundaries),
    /// assesses LE usage and analytical delay, and keeps the merged
    /// per-plane degradation when the budget truncated any FDS run.
    pub(crate) fn evaluate<'a>(
        &self,
        net: &'a LutNetwork,
        planes: &'a PlaneSet,
        config: FoldingConfig,
        token: &CancelToken,
    ) -> Result<CandidateEval<'a>, FlowError> {
        let mut graphs = Vec::new();
        let mut schedules = Vec::new();
        let mut degradation: Option<Degradation> = None;
        match config.level {
            None => {
                // No folding: trivial single-stage schedules, nothing for
                // the budget to truncate.
                for plane in planes.planes() {
                    let graph = ItemGraph::build(net, plane, planes.depth_max().max(1))?;
                    let n = graph.len();
                    graphs.push(graph);
                    schedules.push(Schedule::new(vec![0; n], 1));
                }
            }
            Some(p) => {
                let stages = config.stages;
                for plane in planes.planes() {
                    let graph = ItemGraph::build(net, plane, p)?;
                    let scheduled = schedule_fds_budgeted(net, &graph, stages, self.fds, token)?;
                    let (schedule, plane_degradation) = scheduled.into_parts();
                    if let Some(d) = plane_degradation {
                        // Merge per-plane degradations: first reason wins,
                        // iteration counts accumulate, worst estimate kept.
                        match degradation.as_mut() {
                            Some(merged) => {
                                merged.completed_iterations += d.completed_iterations;
                                merged.qor_estimate = merged.qor_estimate.max(d.qor_estimate);
                            }
                            None => degradation = Some(d),
                        }
                    }
                    graphs.push(graph);
                    schedules.push(schedule);
                }
            }
        }
        CandidateEval::new(self, net, planes, config, graphs, schedules, degradation)
    }

    /// LE usage and analytical delay of a scheduled candidate — shared
    /// by fresh evaluation and checkpoint resume, so a restored schedule
    /// reproduces the original estimates bit for bit.
    pub(crate) fn assess(
        &self,
        net: &LutNetwork,
        planes: &PlaneSet,
        config: FoldingConfig,
        graphs: &[ItemGraph],
        schedules: &[Schedule],
    ) -> (u32, f64) {
        let bound = candidate_bound(net, planes, config, self.fds.shape, &self.timing);
        if config.level.is_none() {
            // Without folding the bound is exact.
            return (bound.les, bound.delay_ns);
        }
        let shape = self.fds.shape;
        let usage = |plane_idx: usize, register_bits: u32| {
            // The DGs inside FDS follow the paper's weight_i storage
            // estimate; the final LE accounting counts, bit by bit, the
            // values that truly cross folding cycles.
            schedules[plane_idx]
                .le_usage_exact(net, &graphs[plane_idx], register_bits, shape)
                .peak
        };
        let les = match config.sharing {
            // All planes reuse the same LEs: peak over planes, with every
            // circuit register alive throughout.
            PlaneSharing::Shared => (0..planes.num_planes())
                .map(|p| usage(p, net.num_ffs() as u32))
                .max()
                .unwrap_or(0),
            // Each plane owns LEs sized by its own peak, with its adjacent
            // registers resident.
            PlaneSharing::PerPlane => {
                let owner = ff_owners(planes, net.num_ffs());
                (0..planes.num_planes())
                    .map(|p| usage(p, owner.iter().filter(|&&o| o == p).count() as u32))
                    .sum()
            }
        };
        (les, bound.delay_ns)
    }
}
