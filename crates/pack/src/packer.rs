//! Constructive temporal clustering (Section 4.3).
//!
//! Packs each temporal slice's LUTs into SMBs. Seeds are chosen as in
//! T-VPack (the LUT using the most inputs, ties by lowest id); candidates
//! join the growing SMB by *attraction*, a mix of timing criticality and
//! pin sharing. Because folding makes several slices share one physical
//! SMB, attraction also counts connectivity to members in *other* slices
//! — the attraction of a LUT pair is the maximum over all cycles
//! (Fig. 6(a)).
//!
//! Attraction is kept in a T-VPack gain table (`Gains`): when a LUT
//! joins a cluster, only the unassigned LUTs that can see it — its
//! neighbours and the other readers of its inputs — gain counts, and only
//! those are scored when the next member is chosen.
//!
//! After LUT packing, stored LUT outputs (values crossing folding cycles)
//! and architectural flip-flops are placed into SMB flip-flop capacity,
//! preferring the producer's SMB so cross-cycle reads stay local.

use std::cmp::Reverse;

use nanomap_arch::ArchParams;
use nanomap_netlist::lut::Fanouts;
use nanomap_netlist::{FfId, LutId, LutNetwork, SignalRef};
use nanomap_observe::Counter;

use crate::design::{Slice, TemporalDesign};
use crate::error::PackError;

/// Tuning knobs for the packer.
#[derive(Debug, Clone, Copy)]
pub struct PackOptions {
    /// Weight of same-cycle direct connections.
    pub w_direct: f64,
    /// Weight of shared input signals.
    pub w_shared: f64,
    /// Weight of cross-cycle (temporal) connectivity.
    pub w_temporal: f64,
    /// Weight of timing criticality (inverse mobility).
    pub w_crit: f64,
    /// Disable the temporal term (for the ablation study).
    pub temporal_attraction: bool,
}

impl Default for PackOptions {
    fn default() -> Self {
        Self {
            w_direct: 2.0,
            w_shared: 1.0,
            w_temporal: 1.5,
            w_crit: 0.5,
            temporal_attraction: true,
        }
    }
}

/// The SMB entry of a LUT or flip-flop no SMB holds yet.
const UNASSIGNED: u32 = u32::MAX;

/// The result of temporal clustering, over dense indices: one entry per
/// LUT and per flip-flop, and occupancy as one flat vector of
/// `(luts, ffs)` cells indexed by `smb * num_slices + set_index`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packing {
    /// Number of physical SMBs used.
    pub num_smbs: u32,
    /// Folding stages per plane: maps a [`Slice`] to its set index.
    stages: u32,
    /// Occupancy cells per SMB.
    num_slices: u32,
    /// `(smb, le)` of every LUT.
    lut_slot: Vec<(u32, u32)>,
    stored_smb: Vec<Option<u32>>,
    ff_smb: Vec<u32>,
    occupancy: Vec<(u32, u32)>,
}

impl Packing {
    /// An empty packing shaped for `design`: no SMB, nothing assigned.
    /// [`pack`] and a checkpoint restore fill it through the same calls.
    pub fn new(design: &TemporalDesign<'_>) -> Self {
        Self {
            num_smbs: 0,
            stages: design.stages,
            num_slices: design.num_slices(),
            lut_slot: vec![(UNASSIGNED, 0); design.net.num_luts()],
            stored_smb: vec![None; design.net.num_luts()],
            ff_smb: vec![UNASSIGNED; design.net.num_ffs()],
            occupancy: Vec::new(),
        }
    }

    /// Opens a fresh, empty SMB and returns its index.
    pub fn open_smb(&mut self) -> u32 {
        self.num_smbs += 1;
        let cells = self.num_smbs as usize * self.num_slices as usize;
        self.occupancy.resize(cells, (0, 0));
        self.num_smbs - 1
    }

    /// Puts `lut` in LE slot `le` of `smb` (occupancy is counted by
    /// [`Self::add_occupancy`]).
    pub fn assign_lut(&mut self, lut: LutId, smb: u32, le: u32) {
        self.lut_slot[lut.index()] = (smb, le);
    }

    /// Stores `lut`'s output in `smb` while later cycles read it.
    pub fn assign_stored(&mut self, lut: LutId, smb: u32) {
        self.stored_smb[lut.index()] = Some(smb);
    }

    /// Puts flip-flop `ff` in `smb`.
    pub fn assign_ff(&mut self, ff: FfId, smb: u32) {
        self.ff_smb[ff.index()] = smb;
    }

    /// Adds `luts` LUTs and `ffs` flip-flop bits to what `smb` holds in
    /// `slice`.
    pub fn add_occupancy(&mut self, smb: u32, slice: Slice, luts: u32, ffs: u32) {
        let cell = self.cell(smb, slice);
        self.occupancy[cell].0 += luts;
        self.occupancy[cell].1 += ffs;
    }

    /// The SMB holding `lut`.
    pub fn lut_smb(&self, lut: LutId) -> u32 {
        self.lut_slot[lut.index()].0
    }

    /// The LE slot of `lut` within its SMB.
    pub fn lut_le(&self, lut: LutId) -> u32 {
        self.lut_slot[lut.index()].1
    }

    /// The SMB storing `lut`'s output, when the value crosses folding
    /// cycles.
    pub fn stored_smb(&self, lut: LutId) -> Option<u32> {
        self.stored_smb[lut.index()]
    }

    /// The SMB a later cycle reads `lut`'s value from: its storage SMB,
    /// else the producer's own.
    pub fn read_smb(&self, lut: LutId) -> u32 {
        self.stored_smb(lut).unwrap_or_else(|| self.lut_smb(lut))
    }

    /// The SMB holding flip-flop `ff`.
    pub fn ff_smb(&self, ff: FfId) -> u32 {
        self.ff_smb[ff.index()]
    }

    /// Every LUT with its SMB and LE slot, in id order.
    pub fn luts(&self) -> impl Iterator<Item = (LutId, u32, u32)> + '_ {
        let slots = self.lut_slot.iter().enumerate();
        slots.map(|(i, &(smb, le))| (LutId::new(i), smb, le))
    }

    /// Every flip-flop with its SMB, in id order.
    pub fn ffs(&self) -> impl Iterator<Item = (FfId, u32)> + '_ {
        let smbs = self.ff_smb.iter().enumerate();
        smbs.map(|(i, &smb)| (FfId::new(i), smb))
    }

    /// LUTs `smb` holds in `slice`.
    pub fn lut_occupancy(&self, smb: u32, slice: Slice) -> u32 {
        self.occupancy[self.cell(smb, slice)].0
    }

    /// Flip-flop bits (stored values and flip-flops) `smb` holds in
    /// `slice`.
    pub fn ff_occupancy(&self, smb: u32, slice: Slice) -> u32 {
        self.occupancy[self.cell(smb, slice)].1
    }

    /// Every occupancy cell as `(smb, slice, luts, ffs)`, in
    /// `(smb, slice)` order, empty cells included.
    pub fn occupancy(&self) -> impl Iterator<Item = (u32, Slice, u32, u32)> + '_ {
        let per_smb = self.num_slices as usize;
        let cells = self.occupancy.iter().enumerate();
        cells.map(move |(cell, &(luts, ffs))| {
            let set = (cell % per_smb) as u32;
            let (plane, stage) = ((set / self.stages) as usize, set % self.stages);
            ((cell / per_smb) as u32, Slice { plane, stage }, luts, ffs)
        })
    }

    fn cell(&self, smb: u32, slice: Slice) -> usize {
        let set = slice.plane as u32 * self.stages + slice.stage;
        let inside = slice.stage < self.stages && set < self.num_slices;
        debug_assert!(inside, "{slice:?} outside the design");
        smb as usize * self.num_slices as usize + set as usize
    }

    /// Peak LE usage over slices: for each slice, every SMB needs
    /// `max(luts, ceil(ffs / ffs_per_le))` LEs.
    pub fn les_used(&self, arch: &ArchParams) -> u32 {
        let per_smb = self.num_slices as usize;
        let mut per_set = vec![0; per_smb];
        for (cell, &(luts, ffs)) in self.occupancy.iter().enumerate() {
            per_set[cell % per_smb] += luts.max(ffs.div_ceil(arch.ffs_per_le));
        }
        per_set.into_iter().max().unwrap_or(0)
    }

    /// Per-SMB NRAM configuration sets the cluster actually exercises:
    /// the sorted [`TemporalDesign::set_index`] of every slice where the
    /// SMB holds a LUT, a stored value or a flip-flop bit. Stored values
    /// and architectural flip-flops are already expanded into the
    /// flip-flop occupancy over their full hold intervals, so occupancy
    /// is a complete activity record.
    ///
    /// This is the *precise* legality view: the heuristic placer asks
    /// the defect map for the conservative prefix `0..num_slices`, while
    /// exact recovery asks only for these sets — a slot with a dead set
    /// outside an SMB's active list is still a legal home for it.
    pub fn required_sets(&self) -> Vec<Vec<u32>> {
        let per_smb = self.num_slices as usize;
        let mut sets = vec![Vec::new(); self.num_smbs as usize];
        for (cell, &occ) in self.occupancy.iter().enumerate() {
            if occ != (0, 0) {
                sets[cell / per_smb].push((cell % per_smb) as u32);
            }
        }
        sets
    }
}

/// Runs temporal clustering.
///
/// # Errors
///
/// Currently infallible for validated designs, but returns `Result` so
/// capacity policies can become strict later.
pub fn pack(
    design: &TemporalDesign<'_>,
    arch: &ArchParams,
    options: PackOptions,
) -> Result<Packing, PackError> {
    let smb_fill_hist = nanomap_observe::histogram("pack.smb_lut_fill");

    let cap_luts = arch.luts_per_smb();
    let cap_ffs = arch.ffs_per_smb();
    let net = design.net;
    let fanouts = net.fanouts();
    let mut packing = Packing::new(design);
    let mut gains = Gains::new(design, &fanouts, options);
    // Every SMB's LUTs over all slices: a new cluster's initial gains.
    let mut members: Vec<Vec<LutId>> = Vec::new();

    // ---- Phase 1: LUT packing, slice by slice. ----
    let slices = design.slices();
    let total_slices = slices.len() as u64;
    for (slice_idx, slice) in slices.into_iter().enumerate() {
        gains.fill(design.luts_in(slice));
        // Seeds in T-VPack order: the most inputs first, ties by id. The
        // keys are unique, so the first seed still unassigned is the one
        // a scan of the pool for the maximum would pick.
        let mut seeds = gains.pool.clone();
        seeds.sort_unstable_by_key(|&l| (Reverse(net.lut(l).inputs.len()), l));
        for seed in seeds {
            if packing.lut_smb(seed) != UNASSIGNED {
                continue;
            }
            gains.start(slice);
            let smb = gains
                .target_smb(&packing, seed, cap_luts)
                .unwrap_or_else(|| {
                    members.push(Vec::new());
                    packing.open_smb()
                });
            for &member in &members[smb as usize] {
                gains.add_member(member, &packing);
            }
            // Grow the SMB greedily by attraction.
            let mut next = Some(seed);
            while let Some(lut) = next {
                gains.remove(lut);
                packing.assign_lut(lut, smb, packing.lut_occupancy(smb, slice));
                packing.add_occupancy(smb, slice, 1, 0);
                members[smb as usize].push(lut);
                gains.add_member(lut, &packing);
                next = if packing.lut_occupancy(smb, slice) < cap_luts {
                    gains.best(&packing)
                } else {
                    None
                };
            }
        }
        nanomap_observe::events::progress(
            "pack",
            slice_idx as u64 + 1,
            Some(total_slices),
            None,
            f64::from(packing.num_smbs),
        );
    }

    // Per-(SMB, slice) LUT fill levels feed the packing-density histogram.
    if nanomap_observe::enabled() {
        for (.., luts, _) in packing.occupancy().filter(|cell| cell.2 > 0) {
            smb_fill_hist.record(u64::from(luts));
        }
        nanomap_observe::incr("pack.smbs_opened", u64::from(packing.num_smbs));
    }

    // ---- Phase 2: stored LUT outputs. ----
    for (id, _) in net.luts() {
        let producer_slice = design.slice_of(id);
        let live_end = fanouts.lut_to_luts[id.index()]
            .iter()
            .filter_map(|&c| {
                let s = design.slice_of(c);
                (s.plane == producer_slice.plane && s.stage > producer_slice.stage)
                    .then_some(s.stage)
            })
            .max();
        let Some(end) = live_end else { continue };
        let plane = producer_slice.plane;
        let live: Vec<Slice> = (producer_slice.stage..=end)
            .map(|stage| Slice { plane, stage })
            .collect();
        let home = packing.lut_smb(id);
        let smb = place_bit(&mut packing, home, &live, cap_ffs);
        packing.assign_stored(id, smb);
    }

    // ---- Phase 3: architectural flip-flops (live in every slice). ----
    let all_slices = design.slices();
    for (fid, ff) in net.ffs() {
        let home = match ff.d {
            SignalRef::Lut(l) => packing.lut_smb(l),
            _ => 0,
        };
        let smb = place_bit(&mut packing, home, &all_slices, cap_ffs);
        packing.assign_ff(fid, smb);
    }

    Ok(packing)
}

/// Places a flip-flop bit live in `live` slices: in `home` when its
/// flip-flop capacity admits the bit, else in the lowest-index SMB that
/// does, else in a fresh SMB. Returns the SMB.
fn place_bit(packing: &mut Packing, home: u32, live: &[Slice], cap_ffs: u32) -> u32 {
    let fits = |smb: u32| {
        smb < packing.num_smbs && live.iter().all(|&s| packing.ff_occupancy(smb, s) < cap_ffs)
    };
    let smb = Some(home)
        .filter(|&smb| fits(smb))
        .or_else(|| (0..packing.num_smbs).find(|&smb| fits(smb)))
        .unwrap_or_else(|| packing.open_smb());
    for &s in live {
        packing.add_occupancy(smb, s, 0, 1);
    }
    smb
}

/// Dense index of a signal: LUT outputs, then flip-flops, primary inputs
/// and the two constants.
fn signal_key(net: &LutNetwork, signal: SignalRef) -> usize {
    let (luts, ffs) = (net.num_luts(), net.num_ffs());
    match signal {
        SignalRef::Lut(l) => l.index(),
        SignalRef::Ff(f) => luts + f.index(),
        SignalRef::Input(i) => luts + ffs + i.index(),
        SignalRef::Const(b) => luts + ffs + net.num_inputs() + usize::from(b),
    }
}

/// The [`signal_key`]s `lut` reads, each once.
fn distinct_inputs(net: &LutNetwork, lut: LutId) -> impl Iterator<Item = usize> + '_ {
    let inputs = &net.lut(lut).inputs;
    let firsts = inputs
        .iter()
        .enumerate()
        .filter(|&(i, s)| !inputs[..i].contains(s));
    firsts.map(move |(_, &s)| signal_key(net, s))
}

/// Gain-table columns: same-slice neighbour pins, other-slice neighbour
/// pins, and input signals shared with same-slice members.
const DIRECT: usize = 0;
const TEMPORAL: usize = 1;
const SHARED: usize = 2;

/// The T-VPack gain table of the cluster growing in one (SMB, slice):
/// for every unassigned LUT of the slice that sees a member, its direct,
/// temporal and shared-input counts — exactly what rescoring it against
/// every member would count. Counts only grow while a cluster grows, so
/// a LUT is in `touched` exactly when its counts are not all zero.
///
/// The slice's unassigned LUTs are kept in `pool` in the order a
/// swap-removing vector leaves them: attraction ties go to the lowest
/// position.
struct Gains<'a> {
    design: &'a TemporalDesign<'a>,
    fanouts: &'a Fanouts,
    options: PackOptions,
    /// Criticality `1 / (1 + mobility)` of every LUT.
    crit: Vec<f64>,
    /// Signal → reader index in CSR form: the `(set index, LUT)` readers
    /// of signal `k`, each once and sorted, are
    /// `readers[reader_start[k]..reader_start[k + 1]]`.
    reader_start: Vec<usize>,
    readers: Vec<(u32, LutId)>,
    slice: Slice,
    pool: Vec<LutId>,
    /// Position of every pooled LUT in `pool`.
    pos: Vec<u32>,
    counts: Vec<[u32; 3]>,
    touched: Vec<LutId>,
    /// `pack.attraction_evals`: the candidates scored, that is the
    /// touched LUTs with a positive base attraction, summed over every
    /// grow step.
    evals: Counter,
}

impl<'a> Gains<'a> {
    fn new(design: &'a TemporalDesign<'a>, fanouts: &'a Fanouts, options: PackOptions) -> Self {
        let net = design.net;
        // Item frames in the final schedule are singletons, so mobility
        // comes from the unpinned frames.
        let mut crit = vec![1.0; net.num_luts()];
        for (g, schedule) in design.graphs.iter().zip(&design.schedules) {
            let unpinned = vec![None; g.len()];
            if let Ok(tf) = nanomap_sched::TimeFrames::compute(g, schedule.stages, &unpinned) {
                for (i, item) in g.items.iter().enumerate() {
                    for &l in &item.luts {
                        crit[l.index()] = 1.0 / (1.0 + f64::from(tf.mobility(i)));
                    }
                }
            }
        }
        let mut pairs: Vec<(usize, u32, LutId)> = Vec::new();
        for (l, _) in net.luts() {
            let set = design.set_index(design.slice_of(l));
            pairs.extend(distinct_inputs(net, l).map(|k| (k, set, l)));
        }
        pairs.sort_unstable();
        let keys = signal_key(net, SignalRef::Const(true)) + 1;
        let reader_start = (0..=keys).map(|k| pairs.partition_point(|p| p.0 < k));
        Self {
            design,
            fanouts,
            options,
            crit,
            reader_start: reader_start.collect(),
            readers: pairs.into_iter().map(|(_, set, l)| (set, l)).collect(),
            slice: Slice { plane: 0, stage: 0 },
            pool: Vec::new(),
            pos: vec![0; net.num_luts()],
            counts: vec![[0; 3]; net.num_luts()],
            touched: Vec::new(),
            evals: nanomap_observe::counter("pack.attraction_evals"),
        }
    }

    /// The LUTs feeding `lut` and fed by it, once per pin in each
    /// direction.
    fn neighbours(&self, lut: LutId) -> impl Iterator<Item = LutId> + 'a {
        let feeding = self
            .design
            .net
            .lut(lut)
            .inputs
            .iter()
            .filter_map(|s| match *s {
                SignalRef::Lut(u) => Some(u),
                _ => None,
            });
        self.fanouts.lut_to_luts[lut.index()]
            .iter()
            .copied()
            .chain(feeding)
    }

    /// The SMB a cluster seeded by `seed` grows in. With temporal
    /// attraction it is the SMB with room in the slice that holds the most
    /// neighbours of the seed, in any slice (the "max over all the
    /// cycles" rule of Section 4.3), ties to the highest index. Otherwise,
    /// or when no SMB with room holds a neighbour, it is the lowest-index
    /// SMB with room — temporal sharing is the point — and `None` when
    /// every SMB is full.
    fn target_smb(&self, packing: &Packing, seed: LutId, cap_luts: u32) -> Option<u32> {
        let free = |smb: u32| packing.lut_occupancy(smb, self.slice) < cap_luts;
        if self.options.temporal_attraction {
            let mut homes: Vec<u32> = self
                .neighbours(seed)
                .map(|n| packing.lut_smb(n))
                .filter(|&smb| smb != UNASSIGNED && free(smb))
                .collect();
            homes.sort_unstable();
            // `max` keeps the last of equal runs: the highest index.
            let runs = homes.chunk_by(|a, b| a == b);
            if let Some((_, smb)) = runs.map(|run| (run.len(), run[0])).max() {
                return Some(smb);
            }
        }
        (0..packing.num_smbs).find(|&smb| free(smb))
    }

    /// Empties the table for a new cluster in `slice`; the target SMB is
    /// chosen for this slice too.
    fn start(&mut self, slice: Slice) {
        for c in self.touched.drain(..) {
            self.counts[c.index()] = [0; 3];
        }
        self.slice = slice;
    }

    /// Adds the attraction that `member`, a LUT of the cluster's SMB in
    /// any slice, exerts on the unassigned LUTs of the cluster's slice.
    fn add_member(&mut self, member: LutId, packing: &Packing) {
        let design = self.design;
        let same_slice = design.slice_of(member) == self.slice;
        if same_slice || self.options.temporal_attraction {
            let column = if same_slice { DIRECT } else { TEMPORAL };
            for c in self.neighbours(member) {
                if packing.lut_smb(c) == UNASSIGNED && design.slice_of(c) == self.slice {
                    self.bump(c, column);
                }
            }
        }
        if !same_slice {
            return;
        }
        let set = design.set_index(self.slice);
        for k in distinct_inputs(design.net, member) {
            let row = self.reader_start[k]..self.reader_start[k + 1];
            let readers = &self.readers[row.clone()];
            let first = row.start + readers.partition_point(|&(s, _)| s < set);
            let end = row.start + readers.partition_point(|&(s, _)| s <= set);
            for i in first..end {
                let c = self.readers[i].1;
                if packing.lut_smb(c) == UNASSIGNED {
                    self.bump(c, SHARED);
                }
            }
        }
    }

    fn bump(&mut self, lut: LutId, column: usize) {
        let counts = &mut self.counts[lut.index()];
        if *counts == [0; 3] {
            self.touched.push(lut);
        }
        counts[column] += 1;
    }

    /// Makes `luts` the pool, in id order.
    fn fill(&mut self, mut luts: Vec<LutId>) {
        luts.sort_unstable();
        for (i, &l) in luts.iter().enumerate() {
            self.pos[l.index()] = i as u32;
        }
        self.pool = luts;
    }

    /// Takes `lut` out of the pool.
    fn remove(&mut self, lut: LutId) {
        let i = self.pos[lut.index()] as usize;
        self.pool.swap_remove(i);
        if let Some(&moved) = self.pool.get(i) {
            self.pos[moved.index()] = i as u32;
        }
    }

    /// The most attracted unassigned LUT, ties to the lowest position in
    /// the pool; `None` when no LUT is attracted at all.
    fn best(&self, packing: &Packing) -> Option<LutId> {
        let o = &self.options;
        let mut best: Option<(f64, u32, LutId)> = None;
        let mut scored = 0;
        for &c in &self.touched {
            let [direct, temporal, shared] = self.counts[c.index()].map(f64::from);
            let temporal_term = if o.temporal_attraction {
                o.w_temporal * temporal
            } else {
                0.0
            };
            let base = o.w_direct * direct + o.w_shared * shared + temporal_term;
            // Every LUT left unscored attracts 0.
            if packing.lut_smb(c) == UNASSIGNED && base > 0.0 {
                scored += 1;
                let score = base + o.w_crit * self.crit[c.index()];
                let pos = self.pos[c.index()];
                if best.is_none_or(|(s, p, _)| score > s || (score == s && pos < p)) {
                    best = Some((score, pos, c));
                }
            }
        }
        self.evals.add(scored);
        best.filter(|&(score, ..)| score > 0.0).map(|(.., c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use nanomap_netlist::rtl::{CombOp, RtlBuilder};
    use nanomap_netlist::PlaneSet;
    use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph};
    use nanomap_techmap::{expand, ExpandOptions};

    fn adder_net() -> nanomap_netlist::LutNetwork {
        let mut b = RtlBuilder::new("t");
        let a = b.input("a", 8);
        let c = b.input("b", 8);
        let gnd = b.constant("gnd", 1, 0);
        let add = b.comb("add", CombOp::Add { width: 8 });
        b.connect(a, 0, add, 0).unwrap();
        b.connect(c, 0, add, 1).unwrap();
        b.connect(gnd, 0, add, 2).unwrap();
        let r = b.register("r", 8);
        b.connect(add, 0, r, 0).unwrap();
        let y = b.output("y", 8);
        b.connect(r, 0, y, 0).unwrap();
        expand(&b.finish().unwrap(), ExpandOptions::default()).unwrap()
    }

    /// The adder at folding level `p`.
    fn adder_design<'a>(
        net: &'a nanomap_netlist::LutNetwork,
        planes: &'a PlaneSet,
        p: u32,
    ) -> TemporalDesign<'a> {
        let plane0 = &planes.planes()[0];
        let stages = plane0.depth.div_ceil(p);
        let graph = ItemGraph::build(net, plane0, p).unwrap();
        let schedule = schedule_fds(net, &graph, stages, FdsOptions::default()).unwrap();
        TemporalDesign::new(net, planes, vec![graph], vec![schedule]).unwrap()
    }

    fn packed_adder(p: u32) -> (nanomap_netlist::LutNetwork, u32, Packing, u32) {
        let net = adder_net();
        let planes = PlaneSet::extract(&net).unwrap();
        let design = adder_design(&net, &planes, p);
        let arch = ArchParams::paper();
        let packing = pack(&design, &arch, PackOptions::default()).unwrap();
        let slices = design.num_slices();
        let les = packing.les_used(&arch);
        (net, slices, packing, les)
    }

    #[test]
    fn every_lut_assigned_within_capacity() {
        let (net, _, packing, _) = packed_adder(2);
        let arch = ArchParams::paper();
        for (id, _) in net.luts() {
            assert!(packing.lut_smb(id) < packing.num_smbs);
        }
        for (_, _, luts, ffs) in packing.occupancy() {
            assert!(luts <= arch.luts_per_smb());
            assert!(ffs <= arch.ffs_per_smb());
        }
    }

    #[test]
    fn le_slots_unique_within_slice() {
        // The LE slots of every (SMB, slice) are exactly 0..occupancy.
        let net = adder_net();
        let planes = PlaneSet::extract(&net).unwrap();
        for p in [1, 2, 8] {
            let design = adder_design(&net, &planes, p);
            let packing = pack(&design, &ArchParams::paper(), PackOptions::default()).unwrap();
            let mut slots: BTreeMap<(u32, Slice), Vec<u32>> = BTreeMap::new();
            for (id, _) in net.luts() {
                slots
                    .entry((packing.lut_smb(id), design.slice_of(id)))
                    .or_default()
                    .push(packing.lut_le(id));
            }
            for (smb, slice, luts, _) in packing.occupancy() {
                let mut les = slots.remove(&(smb, slice)).unwrap_or_default();
                les.sort_unstable();
                assert_eq!(les, (0..luts).collect::<Vec<_>>(), "SMB {smb} in {slice:?}");
            }
            assert!(slots.is_empty(), "LUTs outside the occupancy: {slots:?}");
        }
    }

    #[test]
    fn deep_folding_uses_fewer_smbs() {
        let (_, _, p1, _) = packed_adder(1);
        let (_, _, p8, _) = packed_adder(8);
        assert!(
            p1.num_smbs <= p8.num_smbs + 1,
            "level-1 used {} SMBs, level-8 used {}",
            p1.num_smbs,
            p8.num_smbs
        );
    }

    #[test]
    fn registers_all_placed() {
        let (net, _, packing, _) = packed_adder(2);
        for (f, _) in net.ffs() {
            assert!(packing.ff_smb(f) < packing.num_smbs);
        }
    }

    #[test]
    fn cross_cycle_values_get_storage() {
        // Level-1 folding of a depth-8 adder: every carry crosses a cycle.
        let (net, slices, packing, _) = packed_adder(1);
        assert!(slices >= 8);
        assert!(net.luts().any(|(id, _)| packing.stored_smb(id).is_some()));
    }

    #[test]
    fn les_used_reasonable() {
        let (net, _, _, les) = packed_adder(2);
        // Never more LEs than LUTs + FFs, never zero.
        assert!(les > 0);
        assert!(les <= (net.num_luts() + net.num_ffs()) as u32);
    }

    #[test]
    fn packing_is_deterministic() {
        let (_, _, a, _) = packed_adder(2);
        let (_, _, b, _) = packed_adder(2);
        assert_eq!(a, b);
    }

    #[test]
    fn required_sets_are_precise_and_sorted() {
        // Two planes of very different widths: the wide comparator in
        // plane 0 opens several SMBs, the single-LUT plane 1 touches
        // one — the others are idle across plane 1's slices, which is
        // the precision this helper captures over the placer's
        // conservative `0..num_slices` prefix.
        let mut b = RtlBuilder::new("t");
        let a = b.input("a", 64);
        let c = b.input("b", 64);
        let en = b.input("en", 1);
        let eq = b.comb("eq", CombOp::Eq { width: 64 });
        b.connect(a, 0, eq, 0).unwrap();
        b.connect(c, 0, eq, 1).unwrap();
        let r = b.register("r", 1);
        b.connect(eq, 0, r, 0).unwrap();
        let gate = b.comb("gate", CombOp::And { width: 1 });
        b.connect(r, 0, gate, 0).unwrap();
        b.connect(en, 0, gate, 1).unwrap();
        let y = b.output("y", 1);
        b.connect(gate, 0, y, 0).unwrap();
        let net = expand(&b.finish().unwrap(), ExpandOptions::default()).unwrap();
        let planes = PlaneSet::extract(&net).unwrap();
        let depth = planes.planes().iter().map(|p| p.depth).max().unwrap();
        let (graphs, schedules): (Vec<_>, Vec<_>) = planes
            .planes()
            .iter()
            .map(|plane| {
                let graph = ItemGraph::build(&net, plane, 1).unwrap();
                let schedule = schedule_fds(&net, &graph, depth, FdsOptions::default()).unwrap();
                (graph, schedule)
            })
            .unzip();
        let design = TemporalDesign::new(&net, &planes, graphs, schedules).unwrap();
        let packing = pack(&design, &ArchParams::paper(), PackOptions::default()).unwrap();

        let sets = packing.required_sets();
        assert_eq!(sets.len(), packing.num_smbs as usize);
        let total = design.num_slices();
        for (smb, list) in sets.iter().enumerate() {
            assert!(!list.is_empty(), "SMB {smb} has no active sets");
            assert!(list.windows(2).all(|w| w[0] < w[1]), "SMB {smb} unsorted");
            assert!(*list.last().unwrap() < total);
        }
        // The precise view must agree with the occupancy exactly.
        for (smb, slice, luts, ffs) in packing.occupancy() {
            let active = sets[smb as usize].contains(&design.set_index(slice));
            assert_eq!(active, luts > 0 || ffs > 0, "SMB {smb} in {slice:?}");
        }
        // Under deep folding at least one SMB is idle in some slice —
        // that gap is what exact recovery exploits over the placer's
        // conservative `num_slices` prefix.
        assert!(
            sets.iter().any(|l| (l.len() as u32) < total),
            "every SMB active in all {total} slices: no precision gap"
        );
    }
}
