//! Flash package geometry.
//!
//! A package carries one or more LUNs; each LUN has planes; each plane has
//! blocks; each block has pages. The paper's packages use 16 KiB pages
//! (Table I). Geometry determines address-cycle layout, capacity, and the
//! legality of multi-plane operations.

use babol_onfi::addr::{AddrLayout, RowAddr};

/// Physical geometry of one flash package.
///
/// # Examples
///
/// ```
/// use babol_flash::Geometry;
///
/// let g = Geometry::paper_16k();
/// assert_eq!(g.page_size, 16384);
/// assert!(g.contains(babol_onfi::addr::RowAddr { lun: 0, block: 0, page: 0 }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Data bytes per page.
    pub page_size: usize,
    /// Out-of-band (spare) bytes per page, available for ECC parity.
    pub spare_size: usize,
    /// Pages per block.
    pub pages_per_block: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Planes per LUN.
    pub planes: u32,
    /// LUNs per package.
    pub luns: u32,
}

impl Geometry {
    /// The 16 KiB-page geometry matching the paper's packages (Table I).
    pub const fn paper_16k() -> Self {
        Geometry {
            page_size: 16384,
            spare_size: 1872,
            pages_per_block: 256,
            blocks_per_plane: 512,
            planes: 2,
            luns: 1,
        }
    }

    /// A small geometry for fast tests.
    pub const fn tiny() -> Self {
        Geometry {
            page_size: 512,
            spare_size: 64,
            pages_per_block: 8,
            blocks_per_plane: 4,
            planes: 2,
            luns: 1,
        }
    }

    /// Blocks per LUN across all planes.
    pub const fn blocks_per_lun(&self) -> u32 {
        self.blocks_per_plane * self.planes
    }

    /// Pages per LUN.
    pub const fn pages_per_lun(&self) -> u64 {
        self.blocks_per_lun() as u64 * self.pages_per_block as u64
    }

    /// Full page size including spare area.
    pub const fn raw_page_size(&self) -> usize {
        self.page_size + self.spare_size
    }

    /// The plane a block belongs to (planes interleave by low block bits,
    /// the common ONFI convention).
    pub const fn plane_of(&self, block: u32) -> u32 {
        block % self.planes
    }

    /// Whether a row address is inside this geometry (LUN field checked
    /// against the per-package LUN count).
    pub fn contains(&self, row: RowAddr) -> bool {
        row.lun < self.luns && row.block < self.blocks_per_lun() && row.page < self.pages_per_block
    }

    /// Derives the ONFI address-cycle layout for this geometry. The `luns`
    /// argument is the channel-level LUN count (addressing must cover every
    /// LUN wired to the channel, which may span several packages).
    pub fn addr_layout(&self, channel_luns: u32) -> AddrLayout {
        AddrLayout::new(
            self.page_size,
            self.pages_per_block,
            self.blocks_per_lun(),
            channel_luns.max(self.luns),
        )
    }

    /// Linear page index of a row within its LUN (for storage keys).
    pub fn page_index(&self, row: RowAddr) -> u64 {
        row.block as u64 * self.pages_per_block as u64 + row.page as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_math() {
        let g = Geometry::paper_16k();
        assert_eq!(g.blocks_per_lun(), 1024);
        assert_eq!(g.pages_per_lun(), 1024 * 256);
        assert_eq!(g.raw_page_size(), 16384 + 1872);
    }

    #[test]
    fn bounds_checking() {
        let g = Geometry::tiny();
        assert!(g.contains(RowAddr {
            lun: 0,
            block: 7,
            page: 7
        }));
        assert!(!g.contains(RowAddr {
            lun: 0,
            block: 8,
            page: 0
        }));
        assert!(!g.contains(RowAddr {
            lun: 0,
            block: 0,
            page: 8
        }));
        assert!(!g.contains(RowAddr {
            lun: 1,
            block: 0,
            page: 0
        }));
    }

    #[test]
    fn plane_interleaving() {
        let g = Geometry::tiny();
        assert_eq!(g.plane_of(0), 0);
        assert_eq!(g.plane_of(1), 1);
        assert_eq!(g.plane_of(2), 0);
    }

    #[test]
    fn addr_layout_covers_channel_luns() {
        let g = Geometry::paper_16k();
        let l = g.addr_layout(8);
        // 8 channel LUNs need 3 LUN bits even though the package has 1 LUN.
        assert_eq!(l.lun_bits, 3);
        assert_eq!(l.col_cycles, 2);
    }

    #[test]
    fn page_index_is_dense() {
        let g = Geometry::tiny();
        let mut seen = std::collections::BTreeSet::new();
        for block in 0..g.blocks_per_lun() {
            for page in 0..g.pages_per_block {
                assert!(seen.insert(g.page_index(RowAddr {
                    lun: 0,
                    block,
                    page
                })));
            }
        }
        assert_eq!(seen.len() as u64, g.pages_per_lun());
    }
}
