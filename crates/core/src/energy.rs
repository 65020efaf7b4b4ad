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

/// Energy-model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// DIMM-Link SerDes energy (GRS), pJ per bit.
    pub link_pj_per_bit: f64,
    /// One DRAM row activation, nJ.
    pub act_nj: f64,
    /// DRAM read/write data movement, pJ per bit.
    pub dram_pj_per_bit: f64,
    /// Off-chip memory-bus IO, pJ per bit (also the AIM bus).
    pub bus_pj_per_bit: f64,
    /// Power of one DIMM's four-core NMP processor, watts.
    pub nmp_watts_per_dimm: f64,
    /// Host CPU energy per forwarded packet (cache hierarchy round trip),
    /// nJ.
    pub fwd_nj_per_packet: f64,
    /// Host CPU energy per polling operation, nJ.
    pub poll_nj: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            link_pj_per_bit: 1.17,
            act_nj: 2.1,
            dram_pj_per_bit: 14.0,
            bus_pj_per_bit: 22.0,
            nmp_watts_per_dimm: 1.8,
            fwd_nj_per_packet: 60.0,
            poll_nj: 6.0,
        }
    }
}

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
pub fn energy_of(
    stats: &StatSet,
    elapsed: Ps,
    dimms: usize,
    idc: IdcKind,
    p: &EnergyParams,
) -> EnergyBreakdown {
    let g = |k: &str| stats.get(k).unwrap_or(0.0);
    let dram_bytes = (g("dram.reads") + g("dram.writes")) * 64.0;
    let dram_j =
        g("dram.activates") * p.act_nj * 1e-9 + dram_bytes * 8.0 * p.dram_pj_per_bit * 1e-12;
    let bus_j = g("host.channel_bytes") * 8.0 * p.bus_pj_per_bit * 1e-12;
    let idc_pj = match idc {
        IdcKind::DimmLink => p.link_pj_per_bit,
        _ => p.bus_pj_per_bit,
    };
    let idc_j = g("idc.private_bytes") * 8.0 * idc_pj * 1e-12;
    let nmp_cores_j = p.nmp_watts_per_dimm * dimms as f64 * elapsed.as_secs_f64();
    let host_j =
        g("host.fwd_packets") * p.fwd_nj_per_packet * 1e-9 + g("host.polls") * p.poll_nj * 1e-9;
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
    fn defaults_match_paper_constants() {
        let p = EnergyParams::default();
        assert_eq!(p.link_pj_per_bit, 1.17);
        assert_eq!(p.act_nj, 2.1);
        assert_eq!(p.dram_pj_per_bit, 14.0);
        assert_eq!(p.bus_pj_per_bit, 22.0);
        assert_eq!(p.nmp_watts_per_dimm, 1.8);
    }

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
        let p = EnergyParams::default();
        let dl = energy_of(&s, Ps::ZERO, 0, IdcKind::DimmLink, &p);
        let aim = energy_of(&s, Ps::ZERO, 0, IdcKind::DedicatedBus, &p);
        assert!(dl.idc_j < aim.idc_j / 10.0);
    }

    #[test]
    fn static_power_scales_with_time_and_dimms() {
        let s = StatSet::new();
        let p = EnergyParams::default();
        let e = energy_of(&s, Ps::from_ms(100), 16, IdcKind::DimmLink, &p);
        // 1.8 W x 16 DIMMs x 0.1 s = 2.88 J.
        assert!((e.nmp_cores_j - 2.88).abs() < 1e-9);
    }
}
