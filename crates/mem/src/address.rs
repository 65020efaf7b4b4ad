//! Intra-DIMM physical address mapping.
//!
//! The DIMM-Link system partitions the global physical address space across
//! DIMMs (the destination-DIMM bits live *above* the per-DIMM offset, exactly
//! as the paper's ADDR field encoding assumes: "the destination ID bits have
//! already been used in the address mapping"). This module maps the per-DIMM
//! *offset* onto rank/bank-group/bank/row/column coordinates.
//!
//! The mapping order (LSB → MSB) is `line offset | column | bank | rank |
//! row`, i.e. a row-interleaved open-page-friendly layout: consecutive lines
//! walk a row buffer, while bank bits below the row bits spread independent
//! streams across banks.

use crate::timing::{DramConfig, MappingScheme};

/// Decoded coordinates of one access within a DIMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimmAddr {
    /// Rank index.
    pub rank: u32,
    /// Flat bank index within the rank (bank group folded in).
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// Line-sized column index within the row.
    pub col: u32,
}

impl DimmAddr {
    /// Flat bank identifier across ranks, used to index controller state.
    pub fn flat_bank(&self, cfg: &DramConfig) -> usize {
        (self.rank * cfg.banks_per_rank() + self.bank) as usize
    }
}

/// Maps per-DIMM byte offsets to [`DimmAddr`] coordinates.
///
/// # Examples
///
/// ```
/// use dl_mem::{DimmAddressMap, DramConfig};
///
/// let cfg = DramConfig::ddr4_2400_lrdimm();
/// let map = DimmAddressMap::new(&cfg);
/// let a = map.decode(0);
/// let b = map.decode(64);
/// // Adjacent lines stay in the same row buffer.
/// assert_eq!((a.rank, a.bank, a.row), (b.rank, b.bank, b.row));
/// assert_eq!(b.col, a.col + 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimmAddressMap {
    line_shift: u32,
    col_bits: u32,
    bank_bits: u32,
    rank_bits: u32,
    row_bits: u32,
    scheme: MappingScheme,
}

impl DimmAddressMap {
    /// Builds the map for a DIMM geometry.
    ///
    /// # Panics
    /// Panics if the geometry is invalid (see [`DramConfig::validate`]).
    pub fn new(cfg: &DramConfig) -> Self {
        cfg.validate().expect("invalid DRAM configuration");
        DimmAddressMap {
            line_shift: cfg.line_bytes.trailing_zeros(),
            col_bits: cfg.lines_per_row().trailing_zeros(),
            bank_bits: cfg.banks_per_rank().trailing_zeros(),
            rank_bits: cfg.ranks.trailing_zeros(),
            row_bits: cfg.rows.trailing_zeros(),
            scheme: cfg.mapping,
        }
    }

    /// The bank permutation applied under [`MappingScheme::BankXor`]:
    /// XOR-fold the low row bits into the bank index (involutive, so
    /// encode = decode).
    fn permute_bank(&self, bank: u64, row: u64) -> u64 {
        match self.scheme {
            MappingScheme::RowRankBankCol => bank,
            MappingScheme::BankXor => bank ^ (row & ((1 << self.bank_bits) - 1)),
        }
    }

    /// Number of addressable bytes covered by this map.
    pub fn capacity_bytes(&self) -> u64 {
        1u64 << (self.line_shift + self.col_bits + self.bank_bits + self.rank_bits + self.row_bits)
    }

    /// Decodes a byte offset (wrapped into capacity) into DRAM coordinates.
    pub fn decode(&self, offset: u64) -> DimmAddr {
        let lines = (offset % self.capacity_bytes()) >> self.line_shift;
        let col = lines & ((1 << self.col_bits) - 1);
        let rest = lines >> self.col_bits;
        let bank = rest & ((1 << self.bank_bits) - 1);
        let rest = rest >> self.bank_bits;
        let rank = rest & ((1 << self.rank_bits) - 1);
        let row = rest >> self.rank_bits;
        let bank = self.permute_bank(bank, row);
        DimmAddr {
            rank: rank as u32,
            bank: bank as u32,
            row: row as u32,
            col: col as u32,
        }
    }

    /// Re-encodes coordinates into the byte offset of the line start
    /// (inverse of [`DimmAddressMap::decode`] up to line granularity).
    pub fn encode(&self, addr: DimmAddr) -> u64 {
        let bank = self.permute_bank(addr.bank as u64, addr.row as u64);
        let mut lines = addr.row as u64;
        lines = (lines << self.rank_bits) | addr.rank as u64;
        lines = (lines << self.bank_bits) | bank;
        lines = (lines << self.col_bits) | addr.col as u64;
        lines << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> DimmAddressMap {
        DimmAddressMap::new(&DramConfig::ddr4_2400_lrdimm())
    }

    #[test]
    fn capacity_matches_config() {
        let cfg = DramConfig::ddr4_2400_lrdimm();
        assert_eq!(map().capacity_bytes(), cfg.capacity_bytes());
    }

    #[test]
    fn decode_encode_roundtrip() {
        let m = map();
        for offset in [0u64, 64, 4096, 1 << 20, (1 << 30) + 64 * 7] {
            let a = m.decode(offset);
            assert_eq!(m.encode(a), offset & !63, "offset {offset:#x}");
        }
    }

    #[test]
    fn sequential_lines_share_row() {
        let m = map();
        let cfg = DramConfig::ddr4_2400_lrdimm();
        let base = m.decode(0);
        for i in 1..cfg.lines_per_row() as u64 {
            let a = m.decode(i * 64);
            assert_eq!((a.rank, a.bank, a.row), (base.rank, base.bank, base.row));
        }
        // The next line spills into another bank (row-interleaved layout).
        let next = m.decode(cfg.row_bytes as u64);
        assert_ne!(
            (next.rank, next.bank, next.row),
            (base.rank, base.bank, base.row)
        );
    }

    #[test]
    fn rows_spread_across_banks_before_rows() {
        let m = map();
        let cfg = DramConfig::ddr4_2400_lrdimm();
        // Walking row-sized strides visits every bank before reusing one.
        let mut banks = std::collections::BTreeSet::new();
        for i in 0..cfg.total_banks() as u64 {
            let a = m.decode(i * cfg.row_bytes as u64);
            banks.insert((a.rank, a.bank));
            assert_eq!(a.row, 0);
        }
        assert_eq!(banks.len(), cfg.total_banks() as usize);
    }

    #[test]
    fn offsets_wrap_at_capacity() {
        let m = map();
        assert_eq!(m.decode(m.capacity_bytes() + 64), m.decode(64));
    }

    #[test]
    fn flat_bank_is_injective() {
        let cfg = DramConfig::ddr4_2400_lrdimm();
        let mut seen = std::collections::BTreeSet::new();
        for rank in 0..cfg.ranks {
            for bank in 0..cfg.banks_per_rank() {
                let a = DimmAddr {
                    rank,
                    bank,
                    row: 0,
                    col: 0,
                };
                assert!(seen.insert(a.flat_bank(&cfg)));
            }
        }
        assert_eq!(seen.len(), cfg.total_banks() as usize);
    }
}
