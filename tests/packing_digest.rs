//! Pinned packings: temporal clustering must produce the same clusters,
//! byte for byte, for every folding candidate of every paper circuit.
//!
//! Each circuit's digest is an FNV-1a hash over the packing of every
//! schedulable candidate, with the temporal attraction term on and off.
//! A packing is hashed through its checkpoint snapshot: the SMB count
//! and the sorted LUT → (SMB, LE), stored-value, flip-flop and occupancy
//! tuples. The paper suite's c5315 is the FlowMapped gate-level ALU,
//! the same network the `fold-c5315` benchmark workload maps.
//!
//! A changed digest means the packer changed its choices. That is a
//! behaviour change: refresh the constants only together with the QoR
//! baselines, and say why.

use nanomap::checkpoint::PackSnapshot;
use nanomap::{candidate_configs, NanoMap};
use nanomap_arch::ArchParams;
use nanomap_bench::circuits::paper_benchmarks;
use nanomap_netlist::PlaneSet;
use nanomap_pack::{pack, PackOptions, TemporalDesign};
use nanomap_sched::{schedule_fds, ItemGraph, Schedule};

/// Expected `(circuit, candidates packed, digest)`.
const PINNED: [(&str, usize, u64); 7] = [
    ("ex1", 22, 0xe1db_a0e0_4316_11b7),
    ("FIR", 16, 0xa285_be79_d103_a39f),
    ("ex2", 18, 0x1c27_b034_8840_1155),
    ("c5315", 14, 0x3e50_1efe_3a3d_d986),
    ("Biquad", 18, 0x2759_7dbf_a1d5_ec70),
    ("Paulin", 20, 0xe90b_4272_53f7_8462),
    ("ASPP4", 20, 0x0ccd_afbe_8ee2_cef5),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn snapshot(&mut self, s: &PackSnapshot) {
        self.word(s.num_smbs);
        for list in [&s.lut_smb, &s.lut_le, &s.stored_smb, &s.ff_smb] {
            self.word(list.len() as u32);
            for &(id, v) in list.iter() {
                self.word(id);
                self.word(v);
            }
        }
        for list in [&s.lut_occupancy, &s.ff_occupancy] {
            self.word(list.len() as u32);
            for &(smb, plane, stage, n) in list.iter() {
                for w in [smb, plane, stage, n] {
                    self.word(w);
                }
            }
        }
    }
}

#[test]
fn packings_match_pinned_digests() {
    let arch = ArchParams::paper();
    let flow = NanoMap::new(arch);
    let mut found = Vec::new();
    for bench in paper_benchmarks() {
        let net = &bench.network;
        let planes = PlaneSet::extract(net).expect("planes");
        let mut hash = Fnv::new();
        let mut packed = 0;
        for config in candidate_configs(&planes, arch.num_reconf) {
            let level = config.level.unwrap_or(planes.depth_max().max(1));
            let mut graphs = Vec::new();
            let mut schedules = Vec::new();
            for plane in planes.planes() {
                let graph = ItemGraph::build(net, plane, level).expect("item graph");
                let schedule = match config.level {
                    None => Some(Schedule::new(vec![0; graph.len()], 1)),
                    Some(_) => schedule_fds(net, &graph, config.stages, flow.fds).ok(),
                };
                graphs.push(graph);
                schedules.extend(schedule);
            }
            if schedules.len() != graphs.len() {
                continue; // FDS cannot fit this stage count
            }
            let design = TemporalDesign::new(net, &planes, graphs, schedules).expect("design");
            for temporal_attraction in [true, false] {
                let options = PackOptions {
                    temporal_attraction,
                    ..flow.pack_options
                };
                let packing = pack(&design, &arch, options).expect("packs");
                hash.snapshot(&PackSnapshot::capture(&packing));
                packed += 1;
            }
        }
        found.push((bench.name, packed, hash.0));
    }
    let rendered: Vec<String> = found
        .iter()
        .map(|(name, n, h)| format!("(\"{name}\", {n}, 0x{h:016x}),"))
        .collect();
    assert_eq!(
        found,
        PINNED.to_vec(),
        "packing digests changed:\n{}",
        rendered.join("\n")
    );
}
