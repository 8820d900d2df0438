//! Configuration-bitmap generation (Section 4, step 15).
//!
//! After routing, the layout of every folding stage is known; this module
//! emits the per-cycle [`ConfigBitmap`] the NRAM counter walks at run
//! time: LUT truth tables and flip-flop control per LE, and the set of
//! switched-on routing resources per net.

use std::collections::HashMap;

use nanomap_arch::{ConfigBitmap, CycleConfig, LeConfig, RoutingConfig, SmbConfig, SmbPos};
use nanomap_netlist::SignalRef;
use nanomap_pack::{Packing, Slice, TemporalDesign};

use crate::pathfinder::RoutedNet;

/// Builds the configuration bitmap of a routed design.
///
/// Cycles are emitted in slice execution order (`plane`-major). LE input
/// selects encode the driving LE slot for intra-SMB sources and a
/// sentinel (`0x8000 | pin`) for signals entering through the switch
/// matrix.
pub fn generate_bitmap(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    pos_of: &[SmbPos],
    routes: &HashMap<Slice, Vec<RoutedNet>>,
    les_per_smb: u32,
) -> ConfigBitmap {
    let net = design.net;
    let mut cycles = Vec::new();
    for slice in design.slices() {
        // Group this slice's LUTs by SMB.
        let mut smb_luts: HashMap<u32, Vec<nanomap_netlist::LutId>> = HashMap::new();
        for lut in design.luts_in(slice) {
            smb_luts.entry(packing.lut_smb(lut)).or_default().push(lut);
        }
        let mut smbs: Vec<SmbConfig> = Vec::new();
        let mut smb_ids: Vec<u32> = smb_luts.keys().copied().collect();
        smb_ids.sort_unstable();
        for smb in smb_ids {
            let mut les: Vec<Option<LeConfig>> = vec![None; les_per_smb as usize];
            for &lut_id in &smb_luts[&smb] {
                let lut = net.lut(lut_id);
                let slot = packing.lut_le(lut_id) as usize;
                let input_select: Vec<u16> = lut
                    .inputs
                    .iter()
                    .enumerate()
                    .map(|(pin, &sig)| match sig {
                        SignalRef::Lut(u)
                            if packing.lut_smb(u) == smb && design.slice_of(u) == slice =>
                        {
                            packing.lut_le(u) as u16
                        }
                        _ => 0x8000 | pin as u16,
                    })
                    .collect();
                // The LUT output is captured into a flip-flop when its
                // value crosses folding cycles or feeds an architectural
                // register.
                let stores = packing.stored_smb(lut_id).is_some();
                let feeds_ff = net.ffs().any(|(_, ff)| ff.d == SignalRef::Lut(lut_id));
                if slot < les.len() {
                    les[slot] = Some(LeConfig {
                        truth_bits: lut.truth.bits(),
                        input_select,
                        ff_capture: u8::from(stores) | (u8::from(feeds_ff) << 1),
                        registered: stores || feeds_ff,
                    });
                }
            }
            smbs.push(SmbConfig {
                pos: pos_of[smb as usize],
                les,
            });
        }
        let routing = RoutingConfig {
            nets: routes
                .get(&slice)
                .map(|nets| {
                    nets.iter()
                        .map(|n| n.nodes.iter().map(|id| id.0).collect())
                        .collect()
                })
                .unwrap_or_default(),
        };
        cycles.push(CycleConfig { smbs, routing });
    }
    ConfigBitmap { cycles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanomap_arch::ArchParams;
    use nanomap_netlist::rtl::{CombOp, RtlBuilder};
    use nanomap_netlist::PlaneSet;
    use nanomap_pack::{pack, PackOptions, TemporalDesign};
    use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph};
    use nanomap_techmap::{expand, ExpandOptions};

    #[test]
    fn bitmap_has_one_cycle_per_slice() {
        let mut b = RtlBuilder::new("t");
        let a = b.input("a", 4);
        let c = b.input("b", 4);
        let gnd = b.constant("gnd", 1, 0);
        let add = b.comb("add", CombOp::Add { width: 4 });
        b.connect(a, 0, add, 0).unwrap();
        b.connect(c, 0, add, 1).unwrap();
        b.connect(gnd, 0, add, 2).unwrap();
        let y = b.output("y", 4);
        b.connect(add, 0, y, 0).unwrap();
        let net = expand(&b.finish().unwrap(), ExpandOptions::default()).unwrap();
        let planes = PlaneSet::extract(&net).unwrap();
        let plane0 = planes.planes()[0].clone();
        let graph = ItemGraph::build(&net, &plane0, 2).unwrap();
        let schedule = schedule_fds(&net, &graph, 2, FdsOptions::default()).unwrap();
        let design = TemporalDesign::new(&net, &planes, vec![graph], vec![schedule]).unwrap();
        let arch = ArchParams::paper();
        let packing = pack(&design, &arch, PackOptions::default()).unwrap();
        let pos: Vec<SmbPos> = (0..packing.num_smbs)
            .map(|i| SmbPos::new(i as u16, 0))
            .collect();
        let bitmap = generate_bitmap(&design, &packing, &pos, &HashMap::new(), 16);
        assert_eq!(bitmap.num_cycles(), 2);
        // Every cycle configures at least one LE and total LEs = LUTs.
        let total_les: usize = bitmap
            .cycles
            .iter()
            .flat_map(|c| &c.smbs)
            .map(|s| s.les.iter().flatten().count())
            .sum();
        assert_eq!(total_les, net.num_luts());
        assert!(bitmap.total_bits(&arch) > 0);
    }
}
