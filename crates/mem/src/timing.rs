//! DDR4 timing parameters and DIMM geometry.

use dl_engine::{Freq, Ps};
use serde::Serialize;

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RowPolicy {
    /// Keep rows open after access (FR-FCFS exploits row hits; the paper's
    /// configuration).
    Open,
    /// Auto-precharge after every access (no row hits, but conflicts pay no
    /// explicit PRE).
    Closed,
}

/// Physical-to-DRAM address mapping scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MappingScheme {
    /// `row | rank | bank | column | line`: sequential lines walk a row,
    /// row-sized strides walk banks (the default).
    RowRankBankCol,
    /// Same layout with the bank index XOR-folded with low row bits —
    /// breaks pathological same-bank strides (permutation-based
    /// interleaving).
    BankXor,
}

/// DDR4 device timing constraints, expressed in memory-clock cycles (tCK).
///
/// The defaults follow the DDR4-2400 (CL17) speed grade of the Micron
/// 32 GB LR-DIMM datasheet the paper cites for its simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DramTiming {
    /// Memory clock period in picoseconds (DDR4-2400: 833 ps).
    pub tck_ps: u64,
    /// CAS latency (READ command to first data).
    pub cl: u32,
    /// RAS-to-CAS delay (ACT to READ/WRITE).
    pub rcd: u32,
    /// Row precharge time (PRE to ACT).
    pub rp: u32,
    /// Minimum row-open time (ACT to PRE).
    pub ras: u32,
    /// ACT-to-ACT delay, different banks, same rank.
    pub rrd: u32,
    /// Four-activate window.
    pub faw: u32,
    /// CAS-to-CAS delay (same bank group).
    pub ccd: u32,
    /// READ-to-PRE delay.
    pub rtp: u32,
    /// Write recovery time (end of write data to PRE).
    pub wr: u32,
    /// CAS write latency.
    pub cwl: u32,
    /// Write-to-read turnaround.
    pub wtr: u32,
    /// Data burst duration (BL8 = 4 tCK on the DDR bus).
    pub bl: u32,
    /// Average refresh interval.
    pub refi: u32,
    /// Refresh cycle time.
    pub rfc: u32,
}

impl DramTiming {
    /// DDR4-2400 CL17 timing (tCK = 833 ps).
    pub const fn ddr4_2400() -> Self {
        DramTiming {
            tck_ps: 833,
            cl: 17,
            rcd: 17,
            rp: 17,
            ras: 39,
            rrd: 6,
            faw: 26,
            ccd: 6,
            rtp: 9,
            wr: 18,
            cwl: 12,
            wtr: 9,
            bl: 4,
            refi: 9363, // 7.8 us
            rfc: 420,   // 350 ns
        }
    }

    /// Converts a cycle count to simulated time.
    #[inline]
    pub fn t(&self, cycles: u32) -> Ps {
        Ps::from_ps(self.tck_ps * cycles as u64)
    }

    /// The memory (command) clock frequency.
    pub fn clock(&self) -> Freq {
        Freq::from_hz((1e12 / self.tck_ps as f64).round() as u64)
    }

    /// Peak data bandwidth of one rank's data path, in bytes/second
    /// (one 64-byte line per burst of `bl` cycles).
    pub fn peak_bandwidth(&self, line_bytes: u64) -> u64 {
        (line_bytes as f64 / (self.t(self.bl).as_secs_f64())).round() as u64
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

/// Full configuration of one DIMM's memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DramConfig {
    /// Device timing.
    pub timing: DramTiming,
    /// Ranks per DIMM.
    pub ranks: u32,
    /// Bank groups per rank.
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Rows per bank.
    pub rows: u32,
    /// Row-buffer (page) size in bytes.
    pub row_bytes: u32,
    /// Cache-line / access granularity in bytes.
    pub line_bytes: u32,
    /// Maximum consecutive row hits served before an older request is
    /// prioritized (FR-FCFS starvation cap).
    pub hit_streak_cap: u32,
    /// Whether each rank has an independent data path.
    ///
    /// True for DIMM-NMP (the paper: "the NMP cores can access local ranks
    /// in parallel; the aggregated memory bandwidth is proportional to the
    /// total number of ranks").
    pub bus_per_rank: bool,
    /// Row-buffer policy.
    pub row_policy: RowPolicy,
    /// Address mapping scheme.
    pub mapping: MappingScheme,
}

impl DramConfig {
    /// The paper's simulated LR-DIMM: DDR4-2400, 2 ranks, 4 bank groups ×
    /// 4 banks, 8 KB rows.
    pub const fn ddr4_2400_lrdimm() -> Self {
        DramConfig {
            timing: DramTiming::ddr4_2400(),
            ranks: 2,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 65_536,
            row_bytes: 8_192,
            line_bytes: 64,
            hit_streak_cap: 4,
            bus_per_rank: true,
            row_policy: RowPolicy::Open,
            mapping: MappingScheme::RowRankBankCol,
        }
    }

    /// Total banks per rank.
    pub fn banks_per_rank(&self) -> u32 {
        self.bank_groups * self.banks_per_group
    }

    /// Total banks in the DIMM.
    pub fn total_banks(&self) -> u32 {
        self.ranks * self.banks_per_rank()
    }

    /// Lines per row.
    pub fn lines_per_row(&self) -> u32 {
        self.row_bytes / self.line_bytes
    }

    /// Addressable capacity of the DIMM in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.ranks as u64 * self.banks_per_rank() as u64 * self.rows as u64 * self.row_bytes as u64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() || self.line_bytes == 0 {
            return Err(format!(
                "line_bytes must be a power of two, got {}",
                self.line_bytes
            ));
        }
        if !self.row_bytes.is_multiple_of(self.line_bytes) {
            return Err("row_bytes must be a multiple of line_bytes".into());
        }
        for (name, v) in [
            ("ranks", self.ranks),
            ("bank_groups", self.bank_groups),
            ("banks_per_group", self.banks_per_group),
            ("rows", self.rows),
        ] {
            if v == 0 || !v.is_power_of_two() {
                return Err(format!("{name} must be a non-zero power of two, got {v}"));
            }
        }
        if self.hit_streak_cap == 0 {
            return Err("hit_streak_cap must be >= 1".into());
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr4_2400_lrdimm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_2400_peak_bandwidth_is_19_2_gbps() {
        let t = DramTiming::ddr4_2400();
        let bw = t.peak_bandwidth(64);
        // 64 B / (4 * 833 ps) = 19.2 GB/s.
        assert!((bw as f64 - 19.2e9).abs() / 19.2e9 < 0.01, "bw = {bw}");
    }

    #[test]
    fn clock_matches_tck() {
        let t = DramTiming::ddr4_2400();
        assert_eq!(t.clock().period(), Ps::from_ps(833));
    }

    #[test]
    fn t_converts_cycles() {
        let t = DramTiming::ddr4_2400();
        assert_eq!(t.t(2), Ps::from_ps(1666));
    }

    #[test]
    fn lrdimm_capacity_and_geometry() {
        let c = DramConfig::ddr4_2400_lrdimm();
        assert_eq!(c.total_banks(), 32);
        assert_eq!(c.lines_per_row(), 128);
        // 2 ranks * 16 banks * 64Ki rows * 8 KiB = 16 GiB
        assert_eq!(c.capacity_bytes(), 16 * (1u64 << 30));
        c.validate().expect("default config must be valid");
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let mut c = DramConfig::ddr4_2400_lrdimm();
        c.ranks = 3;
        assert!(c.validate().is_err());
        let mut c2 = DramConfig::ddr4_2400_lrdimm();
        c2.line_bytes = 48;
        assert!(c2.validate().is_err());
        let mut c3 = DramConfig::ddr4_2400_lrdimm();
        c3.hit_streak_cap = 0;
        assert!(c3.validate().is_err());
    }
}
