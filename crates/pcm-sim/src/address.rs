//! Memory geometry and physical-address decoding.
//!
//! The paper's main-memory organization (§5, after Lee et al. \[37\]): a
//! single channel of 16 ranks with 32 banks/rank; each bank has 32768 rows
//! of 1 KiB (2048 columns × 4 bits per device), giving exactly 16 GiB.

use crate::error::SimError;

/// Geometry of the simulated memory: ranks, banks, rows, and row size.
///
/// ```
/// use pcm_sim::MemoryGeometry;
///
/// let g = MemoryGeometry::paper_16gib();
/// assert_eq!(g.capacity_bytes(), 16 << 30);
/// assert_eq!(g.total_banks(), 16 * 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryGeometry {
    /// Ranks on the channel. Paper: 16.
    pub ranks: u32,
    /// Banks per rank. Paper: 32 (swept over {4, 8, 16, 32} in Figs. 6–7).
    pub banks_per_rank: u32,
    /// Rows per bank. Paper: 32768.
    pub rows_per_bank: u32,
    /// Bytes per row (the row-buffer size). Paper: 2048 columns × 4 bits =
    /// 1 KiB per device row.
    pub row_bytes: u32,
    /// Access granularity in bytes (one cache line / column burst). 64 B.
    pub access_bytes: u32,
}

impl MemoryGeometry {
    /// The paper's 16 GiB single-channel organization.
    #[must_use]
    pub fn paper_16gib() -> Self {
        Self {
            ranks: 16,
            banks_per_rank: 32,
            rows_per_bank: 32768,
            row_bytes: 1024,
            access_bytes: 64,
        }
    }

    /// A small geometry for fast tests: 2 ranks × 4 banks × 64 rows of
    /// 256 B (128 KiB total).
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            ranks: 2,
            banks_per_rank: 4,
            rows_per_bank: 64,
            row_bytes: 256,
            access_bytes: 64,
        }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any dimension is zero or
    /// not a power of two (required for bit-sliced address decoding), when
    /// `access_bytes` exceeds `row_bytes`, or when the capacity does not
    /// fit in a 64-bit byte address.
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, v) in [
            ("ranks", self.ranks),
            ("banks_per_rank", self.banks_per_rank),
            ("rows_per_bank", self.rows_per_bank),
            ("row_bytes", self.row_bytes),
            ("access_bytes", self.access_bytes),
        ] {
            if v == 0 {
                return Err(SimError::InvalidConfig(format!("{name} must be positive")));
            }
            if !v.is_power_of_two() {
                return Err(SimError::InvalidConfig(format!(
                    "{name} must be a power of two"
                )));
            }
        }
        if self.access_bytes > self.row_bytes {
            return Err(SimError::InvalidConfig(
                "access_bytes must not exceed row_bytes".into(),
            ));
        }
        let address_bits = self.ranks.trailing_zeros()
            + self.banks_per_rank.trailing_zeros()
            + self.rows_per_bank.trailing_zeros()
            + self.row_bytes.trailing_zeros();
        if address_bits >= u64::BITS {
            return Err(SimError::InvalidConfig(
                "capacity must fit in 64-bit byte addresses".into(),
            ));
        }
        Ok(())
    }

    /// Total banks across all ranks.
    #[must_use]
    pub fn total_banks(&self) -> u32 {
        self.ranks * self.banks_per_rank
    }

    /// Columns (access-granularity units) per row.
    #[must_use]
    pub fn columns_per_row(&self) -> u32 {
        self.row_bytes / self.access_bytes
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.ranks)
            * u64::from(self.banks_per_rank)
            * u64::from(self.rows_per_bank)
            * u64::from(self.row_bytes)
    }
}

impl Default for MemoryGeometry {
    fn default() -> Self {
        Self::paper_16gib()
    }
}

/// How physical address bits map onto (rank, bank, row, column).
///
/// Listed low-order field first (after the intra-line offset bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressMapping {
    /// offset : column : bank : rank : row — consecutive lines fill a row
    /// (row-buffer locality), pages stripe across banks then ranks. This is
    /// the scheme used for all paper experiments.
    #[default]
    RowRankBankCol,
    /// offset : bank : rank : column : row — consecutive lines stripe
    /// across banks first (maximum bank parallelism, minimum row locality).
    RowColRankBank,
    /// offset : column : rank : bank : row — like the default but ranks
    /// rotate before banks.
    RowBankRankCol,
    /// offset : column : row : bank : rank — bank-major: a contiguous
    /// region fills one bank's rows before spilling into the next bank.
    /// This is the layout under which the paper's Figs. 6–7 banks/rank
    /// trends arise: with few banks per rank a contiguous working set
    /// lives in very few (large) banks, so adding banks per rank directly
    /// adds parallelism.
    RankBankRowCol,
}

/// A physical byte address's decomposition into the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    /// Rank index on the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// Column (access-granularity unit) within the row.
    pub column: u32,
}

impl DecodedAddr {
    /// Flat bank index across the whole channel (`rank * banks + bank`).
    #[must_use]
    pub fn flat_bank(&self, geometry: &MemoryGeometry) -> u32 {
        self.rank * geometry.banks_per_rank + self.bank
    }

    /// Flat row index across the whole channel, unique per (rank, bank,
    /// row) triple.
    #[must_use]
    pub fn flat_row(&self, geometry: &MemoryGeometry) -> u64 {
        (u64::from(self.flat_bank(geometry)) << 32) | u64::from(self.row)
    }
}

/// One address field's position: `(addr >> shift) & mask`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BitField {
    shift: u32,
    mask: u32,
}

/// Decodes byte addresses into [`DecodedAddr`]s for a geometry + mapping.
///
/// Every dimension is a power of two, so each field is a fixed bit slice
/// of the byte address; `new` precomputes a shift and mask per field and
/// `decode` is four mask-and-shift steps with no division.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressDecoder {
    geometry: MemoryGeometry,
    mapping: AddressMapping,
    rank: BitField,
    bank: BitField,
    row: BitField,
    column: BitField,
}

impl AddressDecoder {
    /// Creates a decoder.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the geometry is invalid.
    pub fn new(geometry: MemoryGeometry, mapping: AddressMapping) -> Result<Self, SimError> {
        geometry.validate()?;
        let g = &geometry;
        // Lay the fields out low-order first, above the intra-line offset.
        let mut shift = g.access_bytes.trailing_zeros();
        let mut place = |n: u32| {
            let field = BitField { shift, mask: n - 1 };
            shift += n.trailing_zeros();
            field
        };
        let (column, rank, bank, row);
        match mapping {
            AddressMapping::RowRankBankCol => {
                column = place(g.columns_per_row());
                bank = place(g.banks_per_rank);
                rank = place(g.ranks);
                row = place(g.rows_per_bank);
            }
            AddressMapping::RowColRankBank => {
                bank = place(g.banks_per_rank);
                rank = place(g.ranks);
                column = place(g.columns_per_row());
                row = place(g.rows_per_bank);
            }
            AddressMapping::RowBankRankCol => {
                column = place(g.columns_per_row());
                rank = place(g.ranks);
                bank = place(g.banks_per_rank);
                row = place(g.rows_per_bank);
            }
            AddressMapping::RankBankRowCol => {
                column = place(g.columns_per_row());
                row = place(g.rows_per_bank);
                bank = place(g.banks_per_rank);
                rank = place(g.ranks);
            }
        }
        Ok(Self {
            geometry,
            mapping,
            rank,
            bank,
            row,
            column,
        })
    }

    /// The decoder's geometry.
    #[must_use]
    pub fn geometry(&self) -> &MemoryGeometry {
        &self.geometry
    }

    /// Decodes a physical byte address. Addresses beyond the configured
    /// capacity wrap (traces captured on real machines span more DRAM than
    /// the simulated device; DRAMSim2 masks the same way): the bits above
    /// the top field are simply never read.
    #[must_use]
    #[inline]
    pub fn decode(&self, addr: u64) -> DecodedAddr {
        let field = |f: BitField| (addr >> f.shift) as u32 & f.mask;
        DecodedAddr {
            rank: field(self.rank),
            bank: field(self.bank),
            row: field(self.row),
            column: field(self.column),
        }
    }

    /// Re-encodes a decoded address back to the canonical byte address.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IndexOutOfRange`] if any field exceeds the
    /// geometry.
    pub fn encode(&self, d: DecodedAddr) -> Result<u64, SimError> {
        let mut a: u64 = 0;
        for (what, index, f) in [
            ("rank", d.rank, self.rank),
            ("bank", d.bank, self.bank),
            ("row", d.row, self.row),
            ("column", d.column, self.column),
        ] {
            if index > f.mask {
                return Err(SimError::IndexOutOfRange {
                    what,
                    index: u64::from(index),
                    limit: u64::from(f.mask) + 1,
                });
            }
            a |= u64::from(index) << f.shift;
        }
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAPPINGS: [AddressMapping; 4] = [
        AddressMapping::RowRankBankCol,
        AddressMapping::RowColRankBank,
        AddressMapping::RowBankRankCol,
        AddressMapping::RankBankRowCol,
    ];

    /// The original division-based decode, kept as the reference the
    /// shift-and-mask decoder must agree with bit for bit.
    fn decode_reference(g: &MemoryGeometry, mapping: AddressMapping, addr: u64) -> DecodedAddr {
        let mut a = (addr % g.capacity_bytes()) / u64::from(g.access_bytes);
        let mut take = |n: u32| -> u32 {
            let v = (a & (u64::from(n) - 1)) as u32;
            a /= u64::from(n);
            v
        };
        let (column, rank, bank, row);
        match mapping {
            AddressMapping::RowRankBankCol => {
                column = take(g.columns_per_row());
                bank = take(g.banks_per_rank);
                rank = take(g.ranks);
                row = take(g.rows_per_bank);
            }
            AddressMapping::RowColRankBank => {
                bank = take(g.banks_per_rank);
                rank = take(g.ranks);
                column = take(g.columns_per_row());
                row = take(g.rows_per_bank);
            }
            AddressMapping::RowBankRankCol => {
                column = take(g.columns_per_row());
                rank = take(g.ranks);
                bank = take(g.banks_per_rank);
                row = take(g.rows_per_bank);
            }
            AddressMapping::RankBankRowCol => {
                column = take(g.columns_per_row());
                row = take(g.rows_per_bank);
                bank = take(g.banks_per_rank);
                rank = take(g.ranks);
            }
        }
        DecodedAddr {
            rank,
            bank,
            row,
            column,
        }
    }

    /// The paper and tiny geometries, the Figs. 6-7 banks-per-rank sweep
    /// (fixed capacity: 4096 rows per bank at 32 banks, scaled up as
    /// banks shrink) and the one-bank-per-rank WOM-cache arrays.
    fn equivalence_geometries() -> Vec<MemoryGeometry> {
        let mut out = vec![MemoryGeometry::paper_16gib(), MemoryGeometry::tiny()];
        for banks in [4u32, 8, 16, 32] {
            let mut g = MemoryGeometry::paper_16gib();
            g.banks_per_rank = banks;
            g.rows_per_bank = 4096 * 32 / banks;
            out.push(g);
        }
        for mut g in out.clone() {
            g.banks_per_rank = 1;
            out.push(g);
        }
        out
    }

    #[test]
    fn shift_decoder_matches_division_reference() {
        let mut rng = pcm_rng::Rng::seed_from_u64(0x5EED_DEC0);
        for g in equivalence_geometries() {
            let cap = g.capacity_bytes();
            for mapping in MAPPINGS {
                let dec = AddressDecoder::new(g, mapping).unwrap();
                let check = |addr: u64| {
                    assert_eq!(
                        dec.decode(addr),
                        decode_reference(&g, mapping, addr),
                        "{g:?} {mapping:?} addr {addr:#x}"
                    );
                };
                for k in 0..4 {
                    for addr in [k * cap, k * cap + cap - 1, u64::MAX - k] {
                        check(addr);
                    }
                }
                for _ in 0..20_000 {
                    // In range, just above capacity (the wrap case) and
                    // anywhere in the 64-bit space.
                    check(rng.gen_below(cap));
                    check(cap + rng.gen_below(cap));
                    check(rng.next_u64());
                }
            }
        }
    }

    #[test]
    fn paper_geometry_is_16gib() {
        let g = MemoryGeometry::paper_16gib();
        g.validate().unwrap();
        assert_eq!(g.capacity_bytes(), 16 * 1024 * 1024 * 1024);
        assert_eq!(g.columns_per_row(), 16);
        assert_eq!(g.total_banks(), 512);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut g = MemoryGeometry::tiny();
        g.banks_per_rank = 3;
        assert!(g.validate().is_err());
        let mut g = MemoryGeometry::tiny();
        g.ranks = 0;
        assert!(g.validate().is_err());
        let mut g = MemoryGeometry::tiny();
        g.access_bytes = 512; // > row_bytes
        assert!(g.validate().is_err());
        let mut g = MemoryGeometry::paper_16gib();
        g.rows_per_bank = 1 << 31;
        g.row_bytes = 1 << 31; // 2^71 bytes: beyond a u64 address
        assert!(g.validate().is_err());
    }

    #[test]
    fn decode_encode_round_trip_all_mappings() {
        let g = MemoryGeometry::tiny();
        for mapping in MAPPINGS {
            let dec = AddressDecoder::new(g, mapping).unwrap();
            for addr in (0..g.capacity_bytes()).step_by(g.access_bytes as usize) {
                let d = dec.decode(addr);
                assert_eq!(
                    dec.encode(d).unwrap(),
                    addr,
                    "mapping {mapping:?} addr {addr:#x}"
                );
            }
        }
    }

    #[test]
    fn default_mapping_keeps_row_locality() {
        let dec = AddressDecoder::new(MemoryGeometry::tiny(), AddressMapping::default()).unwrap();
        // Consecutive cache lines land in the same row until the row wraps.
        let a = dec.decode(0);
        let b = dec.decode(64);
        assert_eq!(a.rank, b.rank);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn bank_interleaved_mapping_spreads_lines() {
        let dec =
            AddressDecoder::new(MemoryGeometry::tiny(), AddressMapping::RowColRankBank).unwrap();
        let a = dec.decode(0);
        let b = dec.decode(64);
        assert_ne!(a.bank, b.bank, "consecutive lines must hit different banks");
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        let g = MemoryGeometry::tiny();
        let dec = AddressDecoder::new(g, AddressMapping::default()).unwrap();
        assert_eq!(dec.decode(0), dec.decode(g.capacity_bytes()));
    }

    #[test]
    fn encode_rejects_out_of_range_fields() {
        let g = MemoryGeometry::tiny();
        let dec = AddressDecoder::new(g, AddressMapping::default()).unwrap();
        let bad = DecodedAddr {
            rank: 99,
            bank: 0,
            row: 0,
            column: 0,
        };
        assert!(matches!(
            dec.encode(bad),
            Err(SimError::IndexOutOfRange { what: "rank", .. })
        ));
    }

    #[test]
    fn flat_indices_are_unique() {
        let g = MemoryGeometry::tiny();
        let dec = AddressDecoder::new(g, AddressMapping::default()).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for addr in (0..g.capacity_bytes()).step_by(g.row_bytes as usize) {
            let d = dec.decode(addr);
            seen.insert(d.flat_row(&g));
        }
        // One distinct (rank, bank, row) triple per row-sized stride.
        assert_eq!(seen.len(), (g.total_banks() * g.rows_per_bank) as usize);
    }
}
