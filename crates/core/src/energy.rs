//! Energy model (paper Section V-C / Fig. 13).
//!
//! Constants follow the paper: GRS links at 1.17 pJ/b, DDR activate at
//! 2.1 nJ, DDR read/write at 14 pJ/b, off-chip memory-bus IO at 22 pJ/b
//! (also used for AIM's dedicated bus, per the paper's assumption), 1.8 W
//! per four-core NMP processor, and GEM5/McPAT-profiled host polling and
//! forwarding costs (folded into per-operation constants here).

use crate::config::IdcKind;
use dl_engine::stats::StatSet;
use dl_engine::Ps;
use serde::{Deserialize, Serialize};

/// DIMM-Link SerDes energy (GRS), pJ per bit.
pub const LINK_PJ_PER_BIT: f64 = 1.17;
/// One DRAM row activation, nJ.
const ACT_NJ: f64 = 2.1;
/// DRAM read/write data movement, pJ per bit.
const DRAM_PJ_PER_BIT: f64 = 14.0;
/// Off-chip memory-bus IO, pJ per bit (also the AIM bus).
const BUS_PJ_PER_BIT: f64 = 22.0;
/// Power of one DIMM's four-core NMP processor, watts.
const NMP_WATTS_PER_DIMM: f64 = 1.8;
/// Host CPU energy per forwarded packet (cache hierarchy round trip), nJ.
const FWD_NJ_PER_PACKET: f64 = 60.0;
/// Host CPU energy per polling operation, nJ.
const POLL_NJ: f64 = 6.0;

/// Energy consumed by one run, in joules, split by component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// DRAM activations + data movement.
    pub dram_j: f64,
    /// Memory-channel IO (host forwarding and polling traffic).
    pub bus_j: f64,
    /// DIMM-Link SerDes links or the AIM dedicated bus.
    pub idc_j: f64,
    /// NMP processor energy (power × time).
    pub nmp_cores_j: f64,
    /// Host CPU forwarding + polling.
    pub host_j: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.dram_j + self.bus_j + self.idc_j + self.nmp_cores_j + self.host_j
    }
}

/// Computes the energy of a run from its statistics.
///
/// `stats` must contain the counters exported by
/// [`crate::system::NmpSystem`].
pub fn energy_of(stats: &StatSet, elapsed: Ps, dimms: usize, idc: IdcKind) -> EnergyBreakdown {
    let g = |k: &str| stats.get(k).unwrap_or(0.0);
    let dram_bytes = (g("dram.reads") + g("dram.writes")) * 64.0;
    let dram_j = g("dram.activates") * ACT_NJ * 1e-9 + dram_bytes * 8.0 * DRAM_PJ_PER_BIT * 1e-12;
    let bus_j = g("host.channel_bytes") * 8.0 * BUS_PJ_PER_BIT * 1e-12;
    // DIMM-Link+CXL moves its private bytes over the same SerDes links (its
    // CXL fabric bytes are charged at their rate too).
    let idc_pj = match idc {
        IdcKind::DimmLink | IdcKind::DimmLinkCxl => LINK_PJ_PER_BIT,
        _ => BUS_PJ_PER_BIT,
    };
    let idc_j = g("idc.private_bytes") * 8.0 * idc_pj * 1e-12;
    let nmp_cores_j = NMP_WATTS_PER_DIMM * dimms as f64 * elapsed.as_secs_f64();
    let host_j =
        g("host.fwd_packets") * FWD_NJ_PER_PACKET * 1e-9 + g("host.polls") * POLL_NJ * 1e-9;
    EnergyBreakdown {
        dram_j,
        bus_j,
        idc_j,
        nmp_cores_j,
        host_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums() {
        let b = EnergyBreakdown {
            dram_j: 1.0,
            bus_j: 2.0,
            idc_j: 3.0,
            nmp_cores_j: 4.0,
            host_j: 5.0,
        };
        assert_eq!(b.total(), 15.0);
    }

    #[test]
    fn link_bits_cost_less_than_bus_bits() {
        let mut s = StatSet::new();
        s.set("idc.private_bytes", 1e9);
        let dl = energy_of(&s, Ps::ZERO, 0, IdcKind::DimmLink);
        let aim = energy_of(&s, Ps::ZERO, 0, IdcKind::DedicatedBus);
        assert!(dl.idc_j < aim.idc_j / 10.0);
    }

    #[test]
    fn cxl_link_bits_and_polls_cost_as_dimm_link_ones() {
        let mut s = StatSet::new();
        s.set("idc.private_bytes", 1e9);
        s.set("host.polls", 1e3);
        let dl = energy_of(&s, Ps::ZERO, 0, IdcKind::DimmLink);
        let cxl = energy_of(&s, Ps::ZERO, 0, IdcKind::DimmLinkCxl);
        assert_eq!(cxl.idc_j, dl.idc_j);
        // Polls cost host energy; a CXL run just registers none.
        assert!(dl.host_j > 0.0);
        assert_eq!(cxl.host_j, dl.host_j);
    }

    #[test]
    fn static_power_scales_with_time_and_dimms() {
        let s = StatSet::new();
        let e = energy_of(&s, Ps::from_ms(100), 16, IdcKind::DimmLink);
        // 1.8 W x 16 DIMMs x 0.1 s = 2.88 J.
        assert!((e.nmp_cores_j - 2.88).abs() < 1e-9);
    }
}
