//! The NanoMap optimization flow (Fig. 2 of the paper).
//!
//! Given a mapped LUT network (or RTL that this crate expands first), the
//! flow: identifies planes, enumerates folding configurations, bounds
//! each analytically and runs force-directed scheduling in bound order
//! until the best candidate under the user's [`Objective`] is known
//! ([`Selection`]), then runs temporal clustering, two-step placement,
//! PathFinder routing and configuration-bitmap generation. If
//! placement/routing fail, the flow returns to logic mapping with the
//! next folding configuration — the iterative loop of steps 2–15.

// The flow sits directly behind the CLI: every failure on user input
// must surface as a `FlowError`, never a panic.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use nanomap_arch::{
    estimate_power, ArchParams, AreaModel, ChannelConfig, DefectMap, Grid, PowerModel, SmbPos,
    TimingModel,
};
use nanomap_netlist::rtl::RtlCircuit;
use nanomap_netlist::{LutNetwork, PlaneSet};
use nanomap_pack::PackOptions;
use nanomap_place::{place_with_defects_budgeted, PlaceOptions, Placement};
use nanomap_route::{route_design_budgeted, RouteOptions};
use nanomap_sched::{FdsOptions, ItemGraph, LeShape};
use nanomap_techmap::{expand, ExpandOptions};

use std::path::PathBuf;
use std::time::Instant;

use nanomap_observe::{span, SpanGuard};

use crate::budget::{CancelToken, Degradation};
use crate::checkpoint::{
    netlist_fingerprint, Checkpoint, CheckpointError, CheckpointPhase, CheckpointWriter,
    ScheduleSnapshot,
};
use crate::error::FlowError;
use crate::exact::ExactRungResult;
use crate::folding::FoldingConfig;
use crate::objective::Objective;
use crate::recovery::{
    PhysicalOverrides, RecoveryAttempt, RecoveryLog, Remedy, LADDER, MAX_TOTAL_ATTEMPTS,
};
use crate::report::{MappingReport, PhaseTimes, PhysicalReport};
use crate::select::{CandidateEval, Packed, Selection};
use crate::verify::check_folded_execution;

/// The NanoMap flow, configured for one NATURE instance.
///
/// # Examples
///
/// ```
/// use nanomap::{NanoMap, Objective};
/// use nanomap_arch::ArchParams;
/// use nanomap_netlist::rtl::{CombOp, RtlBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = RtlBuilder::new("demo");
/// let a = b.input("a", 4);
/// let c = b.input("b", 4);
/// let gnd = b.constant("gnd", 1, 0);
/// let add = b.comb("add", CombOp::Add { width: 4 });
/// b.connect(a, 0, add, 0)?;
/// b.connect(c, 0, add, 1)?;
/// b.connect(gnd, 0, add, 2)?;
/// let y = b.output("y", 4);
/// b.connect(add, 0, y, 0)?;
/// let circuit = b.finish()?;
///
/// let flow = NanoMap::new(ArchParams::paper_unbounded());
/// let report = flow.map_rtl(&circuit, Objective::MinAreaDelayProduct)?;
/// // Deep folding shrinks the 8-LUT adder to a couple of LEs.
/// assert!(report.num_les < 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NanoMap {
    /// Architecture instance.
    pub arch: ArchParams,
    /// Timing model.
    pub timing: TimingModel,
    /// Area model.
    pub area: AreaModel,
    /// Interconnect channel configuration.
    pub channels: ChannelConfig,
    /// FDS options.
    pub fds: FdsOptions,
    /// Temporal clustering options.
    pub pack_options: PackOptions,
    /// Placement options.
    pub place_options: PlaceOptions,
    /// Routing options.
    pub route_options: RouteOptions,
    /// Fabric defect map: dead slots, broken wires/switches, dead NRAM
    /// sets. Placement and routing work around these; the recovery
    /// ladder escalates when they cannot.
    pub defects: DefectMap,
    /// Run clustering + place + route for the chosen candidate.
    pub run_physical: bool,
    /// Emit the packed binary bitstream into the report.
    pub emit_bitstream: bool,
    /// Verify folded execution against the reference simulator.
    pub verify: bool,
    /// Macro cycles for the verification run.
    pub verify_cycles: usize,
    /// Build the QoR attribution artifact (critical paths, congestion,
    /// occupancy) into the report.
    pub explain: bool,
    /// Paths traced per folding cycle when `explain` is on.
    pub explain_top_k: usize,
    /// Wall-clock budget for the whole mapping, in milliseconds.
    /// `None` runs unbudgeted (no clock reads; artifacts stay
    /// byte-identical to a pre-budget flow).
    pub budget_ms: Option<u64>,
    /// Accept a budget-degraded best-so-far mapping instead of failing
    /// with [`FlowError::BudgetExhausted`] (anytime mode).
    pub anytime: bool,
    /// Directory for per-phase crash-safe checkpoints (`None` disables
    /// checkpointing).
    pub checkpoint_dir: Option<PathBuf>,
    /// Run the exact SAT-based assignment rung when the heuristic
    /// ladder exhausts (`--exact-recovery`).
    pub exact_recovery: bool,
    /// Conflict budget per SAT solve of the exact rung
    /// (`--sat-conflict-budget`); `None` bounds it only by the
    /// wall-clock token.
    pub sat_conflict_budget: Option<u64>,
}

impl NanoMap {
    /// Creates a flow for an architecture instance with default options.
    pub fn new(arch: ArchParams) -> Self {
        let shape = LeShape {
            luts: arch.luts_per_le,
            ffs: arch.ffs_per_le,
        };
        Self {
            arch,
            timing: TimingModel::nature_100nm(),
            area: AreaModel::nature_100nm(),
            channels: ChannelConfig::nature(),
            fds: FdsOptions {
                shape,
                ..FdsOptions::default()
            },
            pack_options: PackOptions::default(),
            place_options: PlaceOptions::default(),
            route_options: RouteOptions::default(),
            defects: DefectMap::none(),
            run_physical: true,
            emit_bitstream: false,
            verify: false,
            verify_cycles: 64,
            explain: false,
            explain_top_k: crate::explain::DEFAULT_TOP_K,
            budget_ms: None,
            anytime: false,
            checkpoint_dir: None,
            exact_recovery: false,
            sat_conflict_budget: None,
        }
    }

    /// Bounds the whole mapping to a wall-clock budget in milliseconds.
    pub fn with_budget_ms(mut self, budget_ms: u64) -> Self {
        self.budget_ms = Some(budget_ms);
        self
    }

    /// Accepts budget-degraded best-so-far mappings (anytime mode).
    pub fn with_anytime(mut self) -> Self {
        self.anytime = true;
        self
    }

    /// Writes a crash-safe checkpoint into `dir` after each completed
    /// phase.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Disables place-and-route (fast logic-mapping-only evaluation).
    pub fn without_physical(mut self) -> Self {
        self.run_physical = false;
        self
    }

    /// Enables folded-execution verification.
    pub fn with_verification(mut self) -> Self {
        self.verify = true;
        self
    }

    /// Emits the packed binary bitstream into the report.
    pub fn with_bitstream(mut self) -> Self {
        self.emit_bitstream = true;
        self
    }

    /// Maps onto a defective fabric described by `defects`.
    pub fn with_defects(mut self, defects: DefectMap) -> Self {
        self.defects = defects;
        self
    }

    /// Builds the QoR attribution artifact into the report.
    pub fn with_explain(mut self) -> Self {
        self.explain = true;
        self
    }

    /// Enables the exact SAT-based assignment rung as the complete
    /// final fallback of the recovery ladder.
    pub fn with_exact_recovery(mut self) -> Self {
        self.exact_recovery = true;
        self
    }

    /// Bounds each SAT solve of the exact rung to a conflict budget.
    pub fn with_sat_conflict_budget(mut self, conflicts: u64) -> Self {
        self.sat_conflict_budget = Some(conflicts);
        self
    }

    /// Maps an RTL circuit: expand to LUTs, then [`Self::map`].
    ///
    /// # Errors
    ///
    /// Propagates expansion and mapping failures.
    pub fn map_rtl(
        &self,
        circuit: &RtlCircuit,
        objective: Objective,
    ) -> Result<MappingReport, FlowError> {
        let net = expand(
            circuit,
            ExpandOptions {
                lut_inputs: self.arch.lut_inputs,
                ..ExpandOptions::default()
            },
        )?;
        self.map(&net, objective)
    }

    /// Maps a LUT network onto NATURE under the given objective.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NoFeasibleFolding`] when no folding level
    /// satisfies the constraints, or the first hard failure from a flow
    /// stage.
    pub fn map(&self, net: &LutNetwork, objective: Objective) -> Result<MappingReport, FlowError> {
        let token = CancelToken::with_budget_ms(self.budget_ms);
        self.map_with_token(net, objective, &token)
    }

    /// [`Self::map`] under an externally owned [`CancelToken`], letting
    /// a caller share one deadline across several mappings or cancel
    /// cooperatively from another thread.
    ///
    /// # Errors
    ///
    /// Same as [`Self::map`], plus [`FlowError::BudgetExhausted`] when
    /// the token expires mid-flow and anytime mode is off.
    pub fn map_with_token(
        &self,
        net: &LutNetwork,
        objective: Objective,
        token: &CancelToken,
    ) -> Result<MappingReport, FlowError> {
        let total_start = Instant::now();
        self.publish_run_start(net, objective);
        let mut flow_span = span!("flow", circuit = net.name());
        let planes = PlaneSet::extract(net)?;
        let mut selection = Selection::new(self, net, &planes, objective);
        let result = self.map_selection(&mut selection, &mut flow_span, token, total_start);
        nanomap_observe::incr("flow.candidates_pruned", selection.pruned() as u64);
        result
    }

    /// Selection, the recovery ladder and the exact rung of one fresh
    /// mapping.
    fn map_selection(
        &self,
        selection: &mut Selection<'_>,
        flow_span: &mut SpanGuard,
        token: &CancelToken,
        total_start: Instant,
    ) -> Result<MappingReport, FlowError> {
        // --- Logic mapping: pick the folding candidate (steps 2-6). ---
        let mut times = PhaseTimes::default();
        let select_degradation = selecting(selection, &mut times, |s| s.select(token))?;
        if selection.winner().is_none() {
            return Err(selection.infeasibility());
        }

        // --- Physical design (steps 7-15) under the recovery ladder:
        // per candidate escalate baseline → reseed → widen grid → widen
        // channels, then fall back to the next folding configuration.
        // Every failed attempt lands in the RecoveryLog. ---
        let mut recovery = RecoveryLog::new();
        let base_degradations: Vec<Degradation> = select_degradation.into_iter().collect();
        'candidates: for cand_rank in 0.. {
            if cand_rank > 0 && !selection.is_complete() {
                // The ladder falls back: only now is the full order needed.
                selecting(selection, &mut times, |s| s.rank_all(token).map(drop))?;
            }
            // Remaining candidates, if any, violate the constraints.
            let Some(eval) = selection.admitted(cand_rank) else {
                break;
            };
            let config = eval.config;
            if cand_rank > 0 {
                recovery.record_candidate_fallback();
            }
            for &remedy in &LADDER {
                if recovery.total_attempts() >= MAX_TOTAL_ATTEMPTS {
                    break 'candidates;
                }
                // Budget gone: stop climbing once one physical attempt
                // exists; anytime callers keep the degraded best-so-far,
                // strict callers get BudgetExhausted below.
                if token.expired() && !recovery.attempts.is_empty() {
                    break 'candidates;
                }
                let attempt_start = Instant::now();
                let overrides = remedy.apply(self.place_options, self.route_options, self.channels);
                let mut writer = self.checkpoint_writer(
                    eval,
                    &selection.objective(),
                    cand_rank,
                    remedy,
                    &overrides,
                    &recovery,
                )?;
                if let Some(w) = writer.as_mut() {
                    w.write_fds()?;
                }
                let mut attempt_degradations = base_degradations.clone();
                attempt_degradations.extend(eval.degradation.clone());
                match self.finish_candidate(
                    eval,
                    times,
                    &overrides,
                    token,
                    writer.as_mut(),
                    None,
                    &mut attempt_degradations,
                ) {
                    Ok(report) => {
                        flow_span.attr("folding_level", config.level);
                        flow_span.attr("num_les", report.num_les);
                        if !attempt_degradations.is_empty() {
                            flow_span.attr("degraded", 1u64);
                        }
                        return self.finalize(
                            report,
                            recovery,
                            remedy,
                            attempt_degradations,
                            token,
                            total_start,
                        );
                    }
                    Err(e @ (FlowError::Place(_) | FlowError::Route(_))) => {
                        record_failed(
                            &mut recovery,
                            cand_rank,
                            config,
                            remedy,
                            failed_phase(&e),
                            e.to_string(),
                            attempt_start,
                        );
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            // The whole ladder failed for this candidate; only the exact
            // rung could map it again.
            nanomap_observe::incr("flow.candidates_rejected_physical", 1);
            if !self.exact_recovery {
                selection.release(cand_rank);
            }
        }
        // --- The complete final rung: exact SAT-based slot assignment,
        // opt-in, run only once every heuristic rung of every candidate
        // has failed and time remains. The rung walks the *whole*
        // admitted candidate ladder in preference order — a shallow
        // folding with fewer NRAM sets may be solvable where the best
        // candidate is not — and claims infeasibility only when every
        // candidate is proven unsatisfiable. ---
        if self.exact_recovery && !token.expired() && !recovery.attempts.is_empty() {
            if !selection.is_complete() {
                selecting(selection, &mut times, |s| s.rank_all(token).map(drop))?;
            }
            let mut best_unsat = None;
            let mut all_proven = true;
            for cand_rank in 0.. {
                // Remaining candidates, if any, violate the constraints.
                let Some(eval) = selection.admitted(cand_rank) else {
                    break;
                };
                if token.expired() {
                    all_proven = false;
                    break;
                }
                let level = eval.config.level;
                match self.exact_assign_rung(
                    eval,
                    cand_rank,
                    times,
                    &base_degradations,
                    &mut recovery,
                    token,
                ) {
                    ExactRungResult::Success(report, degradations) => {
                        flow_span.attr("folding_level", level);
                        flow_span.attr("num_les", report.num_les);
                        flow_span.attr("exact_recovery", 1u64);
                        return self.finalize(
                            *report,
                            recovery,
                            Remedy::ExactAssign,
                            degradations,
                            token,
                            total_start,
                        );
                    }
                    ExactRungResult::Infeasible(summary) => {
                        // Keep the preferred candidate's proof for the
                        // error; later candidates still must be tried.
                        if best_unsat.is_none() {
                            best_unsat = Some(summary);
                        }
                    }
                    ExactRungResult::Exhausted => all_proven = false,
                    ExactRungResult::Fatal(e) => return Err(e),
                }
                // Done with this candidate: free its logic mapping and
                // clustering before the next one solves.
                selection.release(cand_rank);
            }
            // An interrupted or routing-starved candidate means the
            // infeasibility claim would be unsound; fall through to the
            // generic exhaustion errors instead.
            if all_proven {
                if let Some(summary) = best_unsat {
                    return Err(FlowError::ExactAssignUnsat {
                        log: recovery,
                        summary,
                    });
                }
            }
        }
        Err(if token.expired() {
            nanomap_observe::incr("flow.budget_expired", 1);
            FlowError::BudgetExhausted {
                log: recovery,
                degradations: base_degradations,
            }
        } else {
            FlowError::RecoveryExhausted { log: recovery }
        })
    }

    /// Resumes a mapping from a checkpoint written by a previous run with
    /// the same netlist, objective and architecture.
    ///
    /// The checkpoint pins the folding candidate and recovery-ladder
    /// rung. The checkpointed schedules stand in for FDS and a restored
    /// packing for clustering; a restored placement skips placement on
    /// the first resumed rung. The remaining phases re-run
    /// deterministically, reproducing the uninterrupted run's report.
    /// Should the pinned rung still fail, the ladder climbs from there.
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] when the checkpoint does not match this
    /// netlist/objective/architecture; otherwise the same errors as
    /// [`Self::map`].
    pub fn map_resume(
        &self,
        net: &LutNetwork,
        objective: Objective,
        checkpoint: &Checkpoint,
    ) -> Result<MappingReport, FlowError> {
        checkpoint.validate(net, &objective.key(), &self.arch)?;
        let token = CancelToken::with_budget_ms(self.budget_ms);
        let total_start = Instant::now();
        self.publish_run_start(net, objective);
        let mut flow_span = span!("flow", circuit = net.name());
        flow_span.attr("resumed", 1u64);
        let mut times = PhaseTimes::default();
        let planes = PlaneSet::extract(net)?;
        let config = checkpoint.folding_config();
        // Rebuild the item graphs (cheap and deterministic) and restore
        // the checkpointed schedules onto them.
        let restore_start = Instant::now();
        let level = config.level.unwrap_or_else(|| planes.depth_max().max(1));
        let mut graphs = Vec::new();
        for plane in planes.planes() {
            graphs.push(ItemGraph::build(net, plane, level)?);
        }
        if checkpoint.schedules.len() != graphs.len() {
            return Err(CheckpointError::Malformed {
                detail: format!(
                    "checkpoint has {} schedules for a {}-plane netlist",
                    checkpoint.schedules.len(),
                    graphs.len()
                ),
            }
            .into());
        }
        let mut schedules = Vec::new();
        for (plane_idx, (snapshot, graph)) in checkpoint.schedules.iter().zip(&graphs).enumerate() {
            if snapshot.stage_of.len() != graph.len() {
                return Err(CheckpointError::Malformed {
                    detail: format!(
                        "plane {plane_idx}: schedule covers {} items, plane has {}",
                        snapshot.stage_of.len(),
                        graph.len()
                    ),
                }
                .into());
            }
            schedules.push(snapshot.restore());
        }
        let mut eval = CandidateEval::new(self, net, &planes, config, graphs, schedules, None)?;
        if let Some(packing) = &checkpoint.packing {
            eval = eval.with_packing(packing.restore());
        }
        times.fds_ms = restore_start.elapsed().as_secs_f64() * 1e3;
        let mut placement = match checkpoint.placement.as_ref() {
            Some(p) => Some(p.restore().map_err(FlowError::Checkpoint)?),
            None => None,
        };
        let mut recovery = checkpoint.recovery.clone();
        recovery.succeeded_with = None;
        let start_rung = LADDER
            .iter()
            .position(|&r| r == checkpoint.remedy)
            .unwrap_or(0);
        for &remedy in &LADDER[start_rung..] {
            if recovery.total_attempts() >= MAX_TOTAL_ATTEMPTS {
                break;
            }
            if token.expired() && !recovery.attempts.is_empty() {
                break;
            }
            let attempt_start = Instant::now();
            let overrides = remedy.apply(self.place_options, self.route_options, self.channels);
            let mut writer = self.checkpoint_writer(
                &eval,
                &objective,
                checkpoint.candidate_rank,
                remedy,
                &overrides,
                &recovery,
            )?;
            if let Some(w) = writer.as_mut() {
                w.write_fds()?;
            }
            let mut attempt_degradations = Vec::new();
            match self.finish_candidate(
                &eval,
                times,
                &overrides,
                &token,
                writer.as_mut(),
                placement.take(),
                &mut attempt_degradations,
            ) {
                Ok(report) => {
                    flow_span.attr("folding_level", config.level);
                    flow_span.attr("num_les", report.num_les);
                    if !attempt_degradations.is_empty() {
                        flow_span.attr("degraded", 1u64);
                    }
                    return self.finalize(
                        report,
                        recovery,
                        remedy,
                        attempt_degradations,
                        &token,
                        total_start,
                    );
                }
                Err(e @ (FlowError::Place(_) | FlowError::Route(_))) => {
                    record_failed(
                        &mut recovery,
                        checkpoint.candidate_rank,
                        config,
                        remedy,
                        failed_phase(&e),
                        e.to_string(),
                        attempt_start,
                    );
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        // A resumed run earns the same final rung as a fresh one.
        if self.exact_recovery && !token.expired() && !recovery.attempts.is_empty() {
            match self.exact_assign_rung(
                &eval,
                checkpoint.candidate_rank,
                times,
                &[],
                &mut recovery,
                &token,
            ) {
                ExactRungResult::Success(report, degradations) => {
                    flow_span.attr("folding_level", config.level);
                    flow_span.attr("num_les", report.num_les);
                    flow_span.attr("exact_recovery", 1u64);
                    return self.finalize(
                        *report,
                        recovery,
                        Remedy::ExactAssign,
                        degradations,
                        &token,
                        total_start,
                    );
                }
                ExactRungResult::Infeasible(summary) => {
                    return Err(FlowError::ExactAssignUnsat {
                        log: recovery,
                        summary,
                    });
                }
                ExactRungResult::Exhausted => {}
                ExactRungResult::Fatal(e) => return Err(e),
            }
        }
        Err(if token.expired() {
            nanomap_observe::incr("flow.budget_expired", 1);
            FlowError::BudgetExhausted {
                log: recovery,
                degradations: Vec::new(),
            }
        } else {
            FlowError::RecoveryExhausted { log: recovery }
        })
    }

    /// Success bookkeeping shared by fresh and resumed runs: fold the
    /// degradation history into the report, route strict-mode expiry to
    /// [`FlowError::BudgetExhausted`], stamp totals.
    fn finalize(
        &self,
        mut report: MappingReport,
        mut recovery: RecoveryLog,
        remedy: Remedy,
        degradations: Vec<Degradation>,
        token: &CancelToken,
        total_start: Instant,
    ) -> Result<MappingReport, FlowError> {
        let degraded = !degradations.is_empty();
        if degraded {
            nanomap_observe::incr("flow.budget_expired", 1);
            if !self.anytime {
                return Err(FlowError::BudgetExhausted {
                    log: recovery,
                    degradations,
                });
            }
            recovery.succeeded_with = Some(Remedy::AcceptDegraded);
        } else {
            recovery.succeeded_with = Some(remedy);
        }
        report.degraded = degraded;
        report.degradations = degradations;
        report.recovery = recovery;
        report.phase_times.total_ms = total_start.elapsed().as_secs_f64() * 1e3;
        report.phase_times.budget_ms_remaining = token.remaining_ms();
        if nanomap_observe::events_enabled() {
            for d in &report.degradations {
                nanomap_observe::publish(nanomap_observe::EventKind::Degraded {
                    phase: d.phase.clone(),
                    reason: d.reason.clone(),
                    completed_iterations: d.completed_iterations,
                });
            }
        }
        Ok(report)
    }

    /// Stable flight-recorder id for mapping `net` under `objective`
    /// with this flow's seeds: the same inputs always produce the same
    /// id, so ledger history lines up across reruns.
    pub fn run_id(&self, net: &LutNetwork, objective: Objective) -> String {
        crate::runs::run_id(
            netlist_fingerprint(net),
            &objective.key(),
            self.place_options.seed,
            self.route_options.seed,
        )
    }

    /// Announces the run on the event bus (first event of the stream).
    fn publish_run_start(&self, net: &LutNetwork, objective: Objective) {
        if !nanomap_observe::events_enabled() {
            return;
        }
        nanomap_observe::publish(nanomap_observe::EventKind::RunStart {
            run_id: self.run_id(net, objective),
            circuit: net.name().to_string(),
            objective: objective.key(),
            place_seed: self.place_options.seed,
            route_seed: self.route_options.seed,
        });
    }

    /// Builds the checkpoint writer for one physical-design attempt,
    /// when a checkpoint directory is configured.
    fn checkpoint_writer(
        &self,
        eval: &CandidateEval<'_>,
        objective: &Objective,
        candidate_rank: usize,
        remedy: Remedy,
        overrides: &PhysicalOverrides,
        recovery: &RecoveryLog,
    ) -> Result<Option<CheckpointWriter>, FlowError> {
        let Some(dir) = &self.checkpoint_dir else {
            return Ok(None);
        };
        let design = &eval.design;
        let config = eval.config;
        let checkpoint = Checkpoint {
            circuit: design.net.name().to_string(),
            netlist_hash: netlist_fingerprint(design.net),
            objective: objective.key(),
            lut_inputs: self.arch.lut_inputs,
            luts_per_le: self.arch.luts_per_le,
            ffs_per_le: self.arch.ffs_per_le,
            num_reconf: self.arch.num_reconf,
            phase: CheckpointPhase::Fds,
            candidate_rank,
            level: config.level,
            stages: config.stages,
            sharing: config.sharing,
            remedy,
            place_seed: overrides.place.seed,
            route_seed: overrides.route.seed,
            schedules: design
                .schedules
                .iter()
                .map(ScheduleSnapshot::capture)
                .collect(),
            recovery: recovery.clone(),
            packing: None,
            placement: None,
        };
        Ok(Some(CheckpointWriter::new(dir, checkpoint)?))
    }

    /// Clustering, placement, routing, bitmap and verification for the
    /// chosen candidate, with the physical-design options of one
    /// recovery-ladder rung.
    ///
    /// Phases poll `token` at iteration boundaries and append their
    /// [`Degradation`] to `degradations` when it expires; `resume`
    /// products restored from a checkpoint skip their phase entirely,
    /// and each completed phase lands in `ckpt` when checkpointing is
    /// on.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_candidate(
        &self,
        eval: &CandidateEval<'_>,
        mut times: PhaseTimes,
        overrides: &PhysicalOverrides,
        token: &CancelToken,
        mut ckpt: Option<&mut CheckpointWriter>,
        placement: Option<(Grid, Vec<SmbPos>)>,
        degradations: &mut Vec<Degradation>,
    ) -> Result<MappingReport, FlowError> {
        let design = &eval.design;
        let (net, planes, config) = (design.net, design.planes, eval.config);
        {
            // The verify span is always emitted so the phase set is
            // complete; the attribute records whether it actually ran.
            let mut verify_span = span!("verify", skipped = !self.verify);
            if self.verify {
                let verify_start = Instant::now();
                let check = check_folded_execution(design, self.verify_cycles, 0xFEED);
                times.verify_ms = verify_start.elapsed().as_secs_f64() * 1e3;
                verify_span.attr("cycles", self.verify_cycles as u64);
                if let Some(detail) = check.failure {
                    return Err(FlowError::VerificationFailed { detail });
                }
            }
        }
        let mut explain = None;
        let physical = if self.run_physical {
            // Clustered once per candidate; every attempt that maps the
            // candidate reports that one clustering's time.
            let Packed { packing, nets, ms } = eval.packed(&self.arch, self.pack_options)?;
            times.pack_ms = *ms;
            if let Some(w) = ckpt.as_deref_mut() {
                w.write_pack(packing)?;
            }
            let place_start = Instant::now();
            let placement = match placement {
                Some((grid, pos_of)) => Placement::reconstruct(
                    design,
                    packing,
                    nets,
                    &overrides.channels,
                    &self.timing,
                    overrides.place.weights,
                    grid,
                    pos_of,
                ),
                None => {
                    let mut place_span = span!("place", smbs = packing.num_smbs);
                    place_span.attr("seed", overrides.place.seed);
                    let placed = place_with_defects_budgeted(
                        design,
                        packing,
                        nets,
                        &overrides.channels,
                        &self.timing,
                        overrides.place,
                        &self.defects,
                        token,
                    )?;
                    let (placement, degradation) = placed.into_parts();
                    if let Some(d) = degradation {
                        place_span.attr("degraded", 1u64);
                        degradations.push(d);
                    }
                    placement
                }
            };
            times.place_ms = place_start.elapsed().as_secs_f64() * 1e3;
            if let Some(w) = ckpt {
                w.write_place(placement.grid, &placement.pos_of)?;
            }
            let route_start = Instant::now();
            let routed = {
                let mut route_span = span!("route", slices = design.num_slices());
                route_span.attr("seed", overrides.route.seed);
                let routed = route_design_budgeted(
                    design,
                    packing,
                    nets,
                    &placement,
                    &overrides.channels,
                    &self.timing,
                    &self.arch,
                    overrides.route,
                    &self.defects,
                    token,
                )?;
                let (routed, degradation) = routed.into_parts();
                if let Some(d) = degradation {
                    route_span.attr("degraded", 1u64);
                    degradations.push(d);
                }
                routed
            };
            times.bitmap_ms = routed.bitmap_ms;
            times.route_ms =
                (route_start.elapsed().as_secs_f64() * 1e3 - routed.bitmap_ms).max(0.0);
            if self.explain {
                let explain_start = Instant::now();
                let report = {
                    let _span = span!("explain", top_k = self.explain_top_k as u64);
                    crate::explain::ExplainReport::build(
                        net.name(),
                        design,
                        packing,
                        nets,
                        &placement,
                        &routed,
                        &overrides.channels,
                        &self.timing,
                        &self.arch,
                        self.explain_top_k,
                    )
                };
                times.explain_ms = explain_start.elapsed().as_secs_f64() * 1e3;
                explain = Some(report);
            }
            let bitstream = self
                .emit_bitstream
                .then(|| nanomap_arch::pack_bitstream(&routed.bitmap, self.arch.lut_inputs));
            Some(PhysicalReport {
                num_smbs: packing.num_smbs,
                grid: (placement.grid.width, placement.grid.height),
                placement_cost: placement.cost,
                peak_utilization: placement.routability.peak_utilization,
                routed_delay_ns: routed.timing.circuit_delay,
                usage: routed.usage.into(),
                bitmap_bits: routed.bitmap.total_bits(&self.arch),
                bitstream,
            })
        } else {
            None
        };
        // Power estimate: average LUT work per cycle, configuration bits
        // re-read per cycle (zero without folding), leakage from the LE
        // footprint.
        let num_slices = planes.num_planes() as f64 * f64::from(config.stages);
        let (luts_per_cycle, bits_per_cycle, cycle_ns) = match config.level {
            None => (
                net.num_luts() as f64 / planes.num_planes() as f64,
                0.0,
                self.timing.plane_cycle_no_folding(planes.depth_max()),
            ),
            Some(p) => (
                net.num_luts() as f64 / num_slices,
                f64::from(eval.les) * nanomap_arch::bits_per_le(&self.arch) as f64,
                self.timing.folding_cycle(p),
            ),
        };
        let power = estimate_power(
            &PowerModel::nature_100nm(),
            luts_per_cycle,
            bits_per_cycle,
            eval.les,
            cycle_ns,
        );
        let area_um2 = self.area.design_area(&self.arch, eval.les);
        Ok(MappingReport {
            circuit: net.name().to_string(),
            num_planes: planes.num_planes() as u32,
            depth_max: planes.depth_max(),
            num_luts: net.num_luts() as u32,
            num_ffs: net.num_ffs() as u32,
            folding_level: config.level,
            stages: config.stages,
            sharing: config.sharing.into(),
            nram_sets_used: config.nram_sets(planes.num_planes() as u32),
            num_les: eval.les,
            delay_ns: eval.delay_ns,
            area_um2,
            power,
            physical,
            explain,
            recovery: RecoveryLog::default(),
            degraded: false,
            degradations: Vec::new(),
            phase_times: times,
            // One RSS sample at flow end tightens the peak even when no
            // background sampler ran; `memory_report()` stays `None`
            // (and the artifact byte-identical) unless the driver
            // enabled tracking.
            memory: {
                if nanomap_observe::memory_tracking() {
                    nanomap_observe::sample_rss_kb();
                }
                nanomap_observe::memory_report()
            },
        })
    }
}

/// Runs one selection step inside a `folding-select` span and adds its
/// wall time to `times.folding_select_ms`: the lazy selection, and the
/// full ranking built when the ladder falls back.
fn selecting<T>(
    selection: &mut Selection<'_>,
    times: &mut PhaseTimes,
    step: impl FnOnce(&mut Selection<'_>) -> Result<T, FlowError>,
) -> Result<T, FlowError> {
    let start = Instant::now();
    let mut span = span!("folding-select", candidates = selection.configs().len());
    let out = step(selection);
    span.attr("evaluated", selection.evaluated() as u64);
    span.attr("pruned", selection.pruned() as u64);
    drop(span);
    times.folding_select_ms += start.elapsed().as_secs_f64() * 1e3;
    out
}

/// Records a failed physical-design attempt: the phase it failed in and
/// the error text.
pub(crate) fn record_failed(
    recovery: &mut RecoveryLog,
    candidate: usize,
    config: FoldingConfig,
    remedy: Remedy,
    phase: &'static str,
    error: String,
    start: Instant,
) {
    recovery.record(RecoveryAttempt {
        attempt: recovery.total_attempts(),
        candidate,
        folding_level: config.level,
        stages: config.stages,
        remedy,
        phase,
        error,
        wall_us: start.elapsed().as_micros() as u64,
    });
}

/// The phase a place-or-route failure belongs to.
pub(crate) fn failed_phase(e: &FlowError) -> &'static str {
    match e {
        FlowError::Place(_) => "place",
        _ => "route",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanomap_netlist::rtl::{CombOp, RtlBuilder};

    /// The paper's Fig. 1 circuit: controller (LUTs + 2 state bits) +
    /// datapath (3 registers, adder, multiplier) with status feedback.
    fn fig1_circuit() -> RtlCircuit {
        fig1_circuit_w(4)
    }

    fn fig1_circuit_w(w: u32) -> RtlCircuit {
        let mut b = RtlBuilder::new("fig1");
        let x = b.input("x", w);
        // Datapath registers with feedback through muxes.
        let reg1 = b.register("reg1", w);
        let reg2 = b.register("reg2", w);
        let reg3 = b.register("reg3", w);
        let gnd = b.constant("gnd", 1, 0);
        let add = b.comb("add", CombOp::Add { width: w });
        b.connect(reg1, 0, add, 0).unwrap();
        b.connect(reg2, 0, add, 1).unwrap();
        b.connect(gnd, 0, add, 2).unwrap();
        let mul = b.comb("mul", CombOp::Mul { width: w });
        b.connect(add, 0, mul, 0).unwrap();
        b.connect(reg3, 0, mul, 1).unwrap();
        let mul_lo = b.comb(
            "mul_lo",
            CombOp::Slice {
                width: 2 * w,
                lo: 0,
                out_width: w,
            },
        );
        b.connect(mul, 0, mul_lo, 0).unwrap();
        // Controller: two state bits + 4 LUTs.
        let s0 = b.register("s0", 1);
        let s1 = b.register("s1", 1);
        // Status feedback from the datapath into the controller (the
        // carry-out flag), making controller + datapath one plane.
        let flag = b.comb(
            "flag",
            CombOp::Slice {
                width: w,
                lo: w - 1,
                out_width: 1,
            },
        );
        b.connect(reg3, 0, flag, 0).unwrap();
        let lut1 = b.lut("lut1", nanomap_netlist::TruthTable::xor(2));
        b.connect(s0, 0, lut1, 0).unwrap();
        b.connect(s1, 0, lut1, 1).unwrap();
        let lut2 = b.lut("lut2", nanomap_netlist::TruthTable::and(2));
        b.connect(s0, 0, lut2, 0).unwrap();
        b.connect(flag, 0, lut2, 1).unwrap();
        b.connect(lut1, 0, s0, 0).unwrap();
        b.connect(lut2, 0, s1, 0).unwrap();
        // Muxed register updates.
        let mux1 = b.comb("mux1", CombOp::Mux2 { width: w });
        b.connect(x, 0, mux1, 0).unwrap();
        b.connect(mul_lo, 0, mux1, 1).unwrap();
        b.connect(lut1, 0, mux1, 2).unwrap();
        b.connect(mux1, 0, reg1, 0).unwrap();
        let mux2 = b.comb("mux2", CombOp::Mux2 { width: w });
        b.connect(x, 0, mux2, 0).unwrap();
        b.connect(add, 0, mux2, 1).unwrap();
        b.connect(lut2, 0, mux2, 2).unwrap();
        b.connect(mux2, 0, reg2, 0).unwrap();
        let mux3 = b.comb("mux3", CombOp::Mux2 { width: w });
        b.connect(x, 0, mux3, 0).unwrap();
        b.connect(add, 0, mux3, 1).unwrap();
        b.connect(lut1, 0, mux3, 2).unwrap();
        b.connect(mux3, 0, reg3, 0).unwrap();
        let y = b.output("y", w);
        b.connect(reg3, 0, y, 0).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn fig1_is_a_single_plane() {
        let circuit = fig1_circuit();
        let net = expand(&circuit, ExpandOptions::default()).unwrap();
        let planes = PlaneSet::extract(&net).unwrap();
        assert_eq!(planes.num_planes(), 1);
    }

    #[test]
    fn at_product_prefers_folding() {
        // Table 1 scale matters: at realistic circuit sizes AT
        // optimization lands on deep folding (level 1 with unbounded k).
        let flow = NanoMap::new(ArchParams::paper_unbounded()).without_physical();
        let report = flow
            .map_rtl(&fig1_circuit_w(8), Objective::MinAreaDelayProduct)
            .unwrap();
        assert!(
            report.folding_level.unwrap_or(u32::MAX) <= 2,
            "chose level {:?}",
            report.folding_level
        );
        // Folding must use far fewer LEs than the LUT count.
        assert!(report.num_les < report.num_luts / 3);
    }

    #[test]
    fn delay_min_unconstrained_picks_no_folding() {
        let flow = NanoMap::new(ArchParams::paper_unbounded()).without_physical();
        let report = flow
            .map_rtl(&fig1_circuit(), Objective::MinDelay { max_les: None })
            .unwrap();
        assert_eq!(report.folding_level, None);
        assert_eq!(
            report.num_les,
            report.num_luts.max(report.num_ffs.div_ceil(2))
        );
    }

    #[test]
    fn delay_min_with_area_constraint_folds_just_enough() {
        let flow = NanoMap::new(ArchParams::paper_unbounded()).without_physical();
        let unconstrained = flow
            .map_rtl(&fig1_circuit(), Objective::MinDelay { max_les: None })
            .unwrap();
        let budget = unconstrained.num_les / 2;
        let constrained = flow
            .map_rtl(
                &fig1_circuit(),
                Objective::MinDelay {
                    max_les: Some(budget),
                },
            )
            .unwrap();
        assert!(constrained.num_les <= budget);
        assert!(constrained.folding_level.is_some());
        assert!(constrained.delay_ns >= unconstrained.delay_ns);
    }

    #[test]
    fn impossible_constraint_errors() {
        let flow = NanoMap::new(ArchParams::paper_unbounded()).without_physical();
        let err = flow
            .map_rtl(&fig1_circuit(), Objective::MinDelay { max_les: Some(1) })
            .unwrap_err();
        assert!(matches!(err, FlowError::NoFeasibleFolding { .. }));
    }

    #[test]
    fn nram_limit_restricts_folding_level() {
        // k = 4 on a depth-~11 plane: level 1 needs ~11+ sets, so the
        // chosen level must satisfy stages <= 4.
        let arch = ArchParams {
            num_reconf: 4,
            ..ArchParams::paper()
        };
        let flow = NanoMap::new(arch).without_physical();
        let report = flow
            .map_rtl(&fig1_circuit(), Objective::MinAreaDelayProduct)
            .unwrap();
        assert!(report.nram_sets_used <= 4 || report.folding_level.is_none());
    }

    #[test]
    fn full_physical_flow_completes() {
        let flow = NanoMap::new(ArchParams::paper_unbounded()).with_verification();
        let report = flow
            .map_rtl(&fig1_circuit(), Objective::MinAreaDelayProduct)
            .unwrap();
        let physical = report.physical.expect("physical design ran");
        assert!(physical.num_smbs >= 1);
        assert!(physical.routed_delay_ns > 0.0);
        assert!(physical.bitmap_bits > 0);
    }

    #[test]
    fn clean_fabric_mapping_needs_no_recovery() {
        let flow = NanoMap::new(ArchParams::paper_unbounded());
        let report = flow
            .map_rtl(&fig1_circuit(), Objective::MinAreaDelayProduct)
            .unwrap();
        assert!(report.recovery.attempts.is_empty());
        assert_eq!(report.recovery.escalations, 0);
        assert!(!report.recovery.recovered());
        assert_eq!(
            report.recovery.succeeded_with,
            Some(crate::Remedy::Baseline)
        );
    }

    #[test]
    fn moderate_defects_map_via_the_ladder() {
        let flow = NanoMap::new(ArchParams::paper_unbounded())
            .with_defects(nanomap_arch::DefectMap::uniform(0.05, 42));
        let report = flow
            .map_rtl(&fig1_circuit(), Objective::MinAreaDelayProduct)
            .unwrap();
        // Succeeded — possibly after climbing rungs; whatever happened,
        // the log must be internally consistent.
        assert!(report.recovery.succeeded_with.is_some());
        assert!(report.recovery.total_attempts() <= MAX_TOTAL_ATTEMPTS);
        let physical = report.physical.expect("physical design ran");
        assert!(physical.num_smbs >= 1);
        assert!(physical.routed_delay_ns > 0.0);
    }

    #[test]
    fn dead_fabric_fails_cleanly_with_attempt_history() {
        let flow = NanoMap::new(ArchParams::paper_unbounded())
            .with_defects(nanomap_arch::DefectMap::uniform(1.0, 7));
        let err = flow
            .map_rtl(&fig1_circuit(), Objective::MinAreaDelayProduct)
            .unwrap_err();
        let log = err.recovery_log().expect("structured recovery history");
        assert!(!log.attempts.is_empty());
        assert!(log.escalations > 0, "ladder never escalated");
        assert!(log.total_attempts() <= MAX_TOTAL_ATTEMPTS);
        // Every attempt names its phase, remedy and error.
        for a in &log.attempts {
            assert!(a.phase == "place" || a.phase == "route");
            assert!(!a.error.is_empty());
        }
        // Display includes the history summary and the last failure.
        let msg = err.to_string();
        assert!(msg.contains("failed attempt"), "{msg}");
        assert!(msg.contains("last failure"), "{msg}");
    }

    #[test]
    fn verification_runs_clean_on_folded_mapping() {
        let flow = NanoMap::new(ArchParams::paper_unbounded())
            .without_physical()
            .with_verification();
        // Errors out if the folded execution diverges.
        flow.map_rtl(&fig1_circuit(), Objective::MinAreaDelayProduct)
            .unwrap();
    }
}
