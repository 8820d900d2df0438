//! Pre-route delay estimation.
//!
//! Estimates each folding cycle's critical path from the placement: LUT
//! delays plus distance-based interconnect estimates, where a hop of
//! Manhattan distance `d` picks the cheapest feasible mix of direct,
//! length-1, length-4 and global wiring.

use std::collections::HashMap;

use nanomap_arch::{SmbPos, TimingModel};
use nanomap_netlist::{LutId, SignalRef};
use nanomap_pack::{Packing, Slice, TemporalDesign};

/// Estimated interconnect delay for a hop of Manhattan distance `d`.
pub fn wire_delay_estimate(timing: &TimingModel, d: u32) -> f64 {
    match d {
        0 => timing.local_interconnect,
        1 => timing.wire_direct,
        _ => {
            // Cover the distance with length-4 segments plus length-1
            // remainder, or a single global line — whichever is faster.
            let segments =
                f64::from(d / 4) * timing.wire_length4 + f64::from(d % 4) * timing.wire_length1;
            segments.min(timing.wire_global)
        }
    }
}

/// Per-slice and overall delay estimate of a placed design.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayEstimate {
    /// Critical-path estimate of each slice (combinational portion).
    pub slice_paths: HashMap<Slice, f64>,
    /// The longest slice path.
    pub max_slice_path: f64,
    /// Estimated folding-cycle period (worst slice + reconfiguration +
    /// clocking).
    pub cycle_period: f64,
    /// Estimated circuit delay (`num_slices × cycle_period`).
    pub circuit_delay: f64,
}

/// Estimates the post-placement delay of a packed design.
pub fn estimate_delay(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    pos_of: &[SmbPos],
    timing: &TimingModel,
) -> DelayEstimate {
    let net = design.net;
    let pos_of_smb = |smb: u32| pos_of[smb as usize];
    let mut slice_paths: HashMap<Slice, f64> = HashMap::new();
    // Longest arrival per LUT within its slice.
    let order = net.topo_order().expect("validated network");
    let mut arrival: HashMap<LutId, f64> = HashMap::new();
    for id in order {
        let lut = net.lut(id);
        let slice = design.slice_of(id);
        let my_pos = pos_of_smb(packing.lut_smb(id));
        let mut input_arrival = 0.0f64;
        for input in &lut.inputs {
            let (src_pos, upstream) = match *input {
                SignalRef::Lut(u) => {
                    if design.slice_of(u) == slice {
                        // Same-cycle combinational input.
                        (pos_of_smb(packing.lut_smb(u)), arrival[&u])
                    } else {
                        // Read from the storage location; arrival restarts.
                        (pos_of_smb(packing.read_smb(u)), 0.0)
                    }
                }
                SignalRef::Ff(f) => (pos_of_smb(packing.ff_smb(f)), 0.0),
                SignalRef::Input(_) | SignalRef::Const(_) => {
                    arrival.insert(id, timing.lut_delay);
                    continue;
                }
            };
            let d = my_pos.manhattan(src_pos);
            input_arrival = input_arrival.max(upstream + wire_delay_estimate(timing, d));
        }
        let t = input_arrival + timing.lut_delay;
        arrival.insert(id, t);
        let slot = slice_paths.entry(slice).or_insert(0.0);
        *slot = slot.max(t);
    }
    let max_slice_path = slice_paths.values().copied().fold(0.0, f64::max);
    let cycle_period = max_slice_path + timing.reconfiguration + timing.clocking;
    let circuit_delay = cycle_period * f64::from(design.num_slices());
    DelayEstimate {
        slice_paths,
        max_slice_path,
        cycle_period,
        circuit_delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_estimate_monotone_and_capped_by_global() {
        let t = TimingModel::nature_100nm();
        let mut last = 0.0;
        for d in 0..12 {
            let w = wire_delay_estimate(&t, d);
            assert!(w >= 0.0);
            if d > 1 {
                assert!(w <= t.wire_global + 1e-9, "d={d}");
            }
            if d >= 2 {
                assert!(w >= last - t.wire_global, "loose monotonicity");
            }
            last = w;
        }
        assert_eq!(wire_delay_estimate(&t, 1), t.wire_direct);
        assert_eq!(wire_delay_estimate(&t, 0), t.local_interconnect);
    }

    #[test]
    fn long_hops_use_global() {
        let t = TimingModel::nature_100nm();
        // 12 hops of length-4 would cost 3 * 0.55 = 1.65 > global 1.1.
        assert_eq!(wire_delay_estimate(&t, 12), t.wire_global);
    }
}
