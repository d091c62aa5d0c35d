//! The flash array: stored bits, block state, wear.
//!
//! A flash array only supports three bulk operations — read a page, program
//! a page, erase a block — with hard physical constraints: a page must be
//! erased before it can be programmed, pages within a block must be
//! programmed in order, and every erase wears the block out a little. The
//! FTL exists to live within these constraints; the LUN model enforces them
//! so that controller bugs surface as `FAIL` status bits, exactly as they
//! would on real silicon.
//!
//! Storage is sparse: experiment workloads address hundreds of megabytes,
//! so only explicitly written pages hold real bytes. A [`ContentMode`]
//! selects what unwritten pages contain: `Pristine` (erased, all `0xFF`) or
//! `Preloaded` (deterministic pseudo-random content, standing in for the
//! paper's "initialized the SSDs with data" step of §VI-C).
//!
//! # Page contents
//!
//! Pages are [`PageData`]: an unwritten preloaded page is the described
//! SplitMix64 stream of its index ([`PageData::preloaded`]), an erased page
//! is an `0xFF` fill, and a programmed page keeps the payload its program
//! delivered, usually the register's description of the host pattern, so
//! neither a read nor a program copies page bytes. [`ArrayStore::page_data`]
//! and [`ArrayStore::program_data`] are the described interface the LUN
//! uses; [`ArrayStore::read_page`] and [`ArrayStore::program_page`] are
//! the byte interface for workload setup and assertions.

// Determinism allowlist: the page store is the hottest map in the
// simulator and is only ever used for keyed lookups — iteration order
// never reaches behavior or output (`scripts/lint.sh` documents the gate).
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;

use babol_onfi::addr::RowAddr;
use babol_sim::PageData;

use crate::error::FlashError;
use crate::geometry::Geometry;

/// What unwritten pages contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentMode {
    /// Factory-fresh: every page erased, reading returns `0xFF`.
    Pristine,
    /// Every page starts "programmed" with deterministic pseudo-random
    /// content derived from `seed` (cheap stand-in for a data fill).
    Preloaded {
        /// Seed of the deterministic content generator.
        seed: u64,
    },
}

/// Per-page lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Erased; programming is allowed.
    Erased,
    /// Programmed; must be erased before programming again.
    Programmed {
        /// Whether the page was programmed in pSLC mode.
        pslc: bool,
    },
}

/// Per-block bookkeeping.
#[derive(Debug, Clone)]
struct Block {
    erase_count: u64,
    /// Next page expected by the sequential-program rule, or `None` once the
    /// block has unknown (preloaded) state.
    next_page: u32,
    pages: Vec<PageState>,
}

/// The stored contents and state of one LUN's array.
#[derive(Debug, Clone)]
pub struct ArrayStore {
    geometry: Geometry,
    mode: ContentMode,
    blocks: Vec<Block>,
    /// Explicitly written raw pages (data + spare), keyed by linear page
    /// index.
    data: HashMap<u64, PageData>,
}

impl ArrayStore {
    /// Creates the array for `geometry` in the given content mode.
    pub fn new(geometry: Geometry, mode: ContentMode) -> Self {
        let initial = match mode {
            ContentMode::Pristine => PageState::Erased,
            ContentMode::Preloaded { .. } => PageState::Programmed { pslc: false },
        };
        let blocks = (0..geometry.blocks_per_lun())
            .map(|_| Block {
                erase_count: 0,
                next_page: 0,
                pages: vec![initial; geometry.pages_per_block as usize],
            })
            .collect();
        ArrayStore {
            geometry,
            mode,
            blocks,
            data: HashMap::new(),
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The raw page (data + spare) at `row`, described.
    pub fn page_data(&self, row: RowAddr) -> Result<PageData, FlashError> {
        self.check(row)?;
        let idx = self.geometry.page_index(row);
        if let Some(page) = self.data.get(&idx) {
            return Ok(page.clone());
        }
        let raw = self.geometry.raw_page_size();
        let state = self.blocks[row.block as usize].pages[row.page as usize];
        Ok(match (state, self.mode) {
            (PageState::Programmed { .. }, ContentMode::Preloaded { seed }) => {
                PageData::preloaded(seed, idx, raw)
            }
            // Programmed but never written in pristine mode cannot happen,
            // but answer erased content defensively.
            (PageState::Erased, _) | (PageState::Programmed { .. }, ContentMode::Pristine) => {
                PageData::fill(0xFF, raw)
            }
        })
    }

    /// Reads the raw page (data + spare) at `row`.
    pub fn read_page(&self, row: RowAddr) -> Result<Vec<u8>, FlashError> {
        Ok(self.page_data(row)?.materialize())
    }

    /// State of the page at `row`.
    pub fn page_state(&self, row: RowAddr) -> Result<PageState, FlashError> {
        self.check(row)?;
        Ok(self.blocks[row.block as usize].pages[row.page as usize])
    }

    /// Programs `data` (raw page: data + spare, shorter slices are padded
    /// with `0xFF`) into the page at `row`.
    ///
    /// Enforces the two physical rules: the page must be erased, and pages
    /// in a block must be programmed in ascending order.
    pub fn program_page(
        &mut self,
        row: RowAddr,
        data: &[u8],
        pslc: bool,
    ) -> Result<(), FlashError> {
        self.program_data(row, PageData::from(data), pslc)
    }

    /// [`ArrayStore::program_page`] for a described payload, stored as it
    /// is (padded with an `0xFF` fill when short).
    pub fn program_data(
        &mut self,
        row: RowAddr,
        mut data: PageData,
        pslc: bool,
    ) -> Result<(), FlashError> {
        self.check(row)?;
        let raw_size = self.geometry.raw_page_size();
        if data.len() > raw_size {
            return Err(FlashError::DataTooLong {
                len: data.len(),
                max: raw_size,
            });
        }
        let block = &mut self.blocks[row.block as usize];
        match block.pages[row.page as usize] {
            PageState::Programmed { .. } => return Err(FlashError::ProgramOnProgrammed { row }),
            PageState::Erased => {}
        }
        if row.page != block.next_page {
            return Err(FlashError::OutOfOrderProgram {
                row,
                expected: block.next_page,
            });
        }
        let pad = raw_size - data.len();
        data.append(PageData::fill(0xFF, pad));
        self.data.insert(self.geometry.page_index(row), data);
        block.pages[row.page as usize] = PageState::Programmed { pslc };
        block.next_page = row.page + 1;
        Ok(())
    }

    /// Erases the block containing `row` (the page field is ignored).
    pub fn erase_block(&mut self, row: RowAddr) -> Result<(), FlashError> {
        self.check(RowAddr { page: 0, ..row })?;
        let geometry = self.geometry;
        let block = &mut self.blocks[row.block as usize];
        block.erase_count += 1;
        block.next_page = 0;
        for p in block.pages.iter_mut() {
            *p = PageState::Erased;
        }
        let base = geometry.page_index(RowAddr { page: 0, ..row });
        for page in 0..geometry.pages_per_block as u64 {
            self.data.remove(&(base + page));
        }
        Ok(())
    }

    /// Program/erase cycles endured by `block`.
    pub fn erase_count(&self, block: u32) -> u64 {
        self.blocks[block as usize].erase_count
    }

    /// Number of pages holding explicit (host-resident) data.
    pub fn resident_pages(&self) -> usize {
        self.data.len()
    }

    fn check(&self, row: RowAddr) -> Result<(), FlashError> {
        // The LUN field is channel-level addressing; the store itself is
        // per-LUN, so only block/page bounds apply here.
        if row.block < self.geometry.blocks_per_lun() && row.page < self.geometry.pages_per_block {
            Ok(())
        } else {
            Err(FlashError::AddressOutOfRange { row })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(block: u32, page: u32) -> RowAddr {
        RowAddr {
            lun: 0,
            block,
            page,
        }
    }

    fn pristine() -> ArrayStore {
        ArrayStore::new(Geometry::tiny(), ContentMode::Pristine)
    }

    #[test]
    fn erased_pages_read_ff() {
        let a = pristine();
        let page = a.read_page(row(0, 0)).unwrap();
        assert!(page.iter().all(|&b| b == 0xFF));
        assert_eq!(page.len(), Geometry::tiny().raw_page_size());
    }

    #[test]
    fn program_then_read_roundtrip() {
        let mut a = pristine();
        a.program_page(row(1, 0), b"hello flash", false).unwrap();
        let page = a.read_page(row(1, 0)).unwrap();
        assert_eq!(&page[..11], b"hello flash");
        assert!(page[11..].iter().all(|&b| b == 0xFF)); // padded
    }

    #[test]
    fn reprogram_without_erase_fails() {
        let mut a = pristine();
        a.program_page(row(0, 0), &[1], false).unwrap();
        assert!(matches!(
            a.program_page(row(0, 0), &[2], false),
            Err(FlashError::ProgramOnProgrammed { .. })
        ));
    }

    #[test]
    fn out_of_order_program_fails() {
        let mut a = pristine();
        assert!(matches!(
            a.program_page(row(0, 3), &[1], false),
            Err(FlashError::OutOfOrderProgram { expected: 0, .. })
        ));
        a.program_page(row(0, 0), &[1], false).unwrap();
        a.program_page(row(0, 1), &[1], false).unwrap();
        assert!(a.program_page(row(0, 3), &[1], false).is_err());
    }

    #[test]
    fn erase_resets_block_and_bumps_wear() {
        let mut a = pristine();
        a.program_page(row(0, 0), &[42], false).unwrap();
        a.erase_block(row(0, 0)).unwrap();
        assert_eq!(a.erase_count(0), 1);
        assert_eq!(a.page_state(row(0, 0)).unwrap(), PageState::Erased);
        assert!(a.read_page(row(0, 0)).unwrap().iter().all(|&b| b == 0xFF));
        // Programming page 0 again is now legal.
        a.program_page(row(0, 0), &[7], false).unwrap();
    }

    #[test]
    fn preloaded_pages_have_stable_content() {
        let a = ArrayStore::new(Geometry::tiny(), ContentMode::Preloaded { seed: 9 });
        let p1 = a.read_page(row(2, 3)).unwrap();
        let p2 = a.read_page(row(2, 3)).unwrap();
        assert_eq!(p1, p2);
        assert_ne!(p1, a.read_page(row(2, 4)).unwrap());
        // Preloaded pages are "programmed" and reject programming.
        assert_eq!(
            a.page_state(row(2, 3)).unwrap(),
            PageState::Programmed { pslc: false }
        );
    }

    #[test]
    fn preloaded_block_erase_then_program_works() {
        let mut a = ArrayStore::new(Geometry::tiny(), ContentMode::Preloaded { seed: 9 });
        a.erase_block(row(0, 0)).unwrap();
        a.program_page(row(0, 0), b"fresh", false).unwrap();
        assert_eq!(&a.read_page(row(0, 0)).unwrap()[..5], b"fresh");
    }

    #[test]
    fn bounds_are_enforced() {
        let a = pristine();
        assert!(matches!(
            a.read_page(row(99, 0)),
            Err(FlashError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn oversized_program_rejected() {
        let mut a = pristine();
        let too_big = vec![0u8; Geometry::tiny().raw_page_size() + 1];
        assert!(matches!(
            a.program_page(row(0, 0), &too_big, false),
            Err(FlashError::DataTooLong { .. })
        ));
    }

    #[test]
    fn storage_stays_sparse() {
        let mut a = pristine();
        a.program_page(row(0, 0), &[1], false).unwrap();
        assert_eq!(a.resident_pages(), 1);
        let b = ArrayStore::new(Geometry::paper_16k(), ContentMode::Preloaded { seed: 1 });
        assert_eq!(b.resident_pages(), 0); // preload is synthesized, not stored
    }

    #[test]
    fn pslc_flag_recorded() {
        let mut a = pristine();
        a.program_page(row(0, 0), &[1], true).unwrap();
        assert_eq!(
            a.page_state(row(0, 0)).unwrap(),
            PageState::Programmed { pslc: true }
        );
    }

    #[test]
    fn preloaded_pages_are_the_described_stream() {
        let a = ArrayStore::new(Geometry::tiny(), ContentMode::Preloaded { seed: 9 });
        let raw = Geometry::tiny().raw_page_size();
        let idx = Geometry::tiny().page_index(row(2, 3));
        assert_eq!(
            a.read_page(row(2, 3)).unwrap(),
            PageData::preloaded(9, idx, raw).materialize()
        );
        assert_eq!(a.page_data(row(2, 3)).unwrap().segments(), 1);
    }

    #[test]
    fn described_programs_are_stored_padded() {
        let mut a = pristine();
        a.program_data(row(0, 0), PageData::pattern(3, 4), false)
            .unwrap();
        let page = a.page_data(row(0, 0)).unwrap();
        assert_eq!(page.len(), Geometry::tiny().raw_page_size());
        assert_eq!(page.segments(), 2);
        let bytes = a.read_page(row(0, 0)).unwrap();
        assert_eq!(&bytes[..4], &[3, 4, 5, 6]);
        assert!(bytes[4..].iter().all(|&b| b == 0xFF));
    }
}
