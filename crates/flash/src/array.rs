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
//! # The read data path
//!
//! A preloaded page is synthesized on every read, so the generator is on
//! the hottest path of read workloads. [`ArrayStore::read_page_into`]
//! writes straight into the caller's buffer (the LUN's page register), and
//! [`fill_deterministic_page`] produces the content one 64-bit word per
//! step. Word `i` is the `i+1`-th output of a [`SplitMix64`] seeded for
//! the page, [`SplitMix64::mix`] of the state `seed + (i+1)·γ`, so no word
//! waits on the previous one's mixing and the loop vectorizes. On x86-64
//! the one kernel body is compiled three times: for AVX-512 (`avx512f` +
//! `avx512dq`, whose 64-bit multiply LLVM uses), for AVX2, and portable.
//! The fastest copy the CPU supports is picked at run time. Every copy
//! writes the same bytes; the unit tests pin each copy the CPU can run to
//! a reference loop over [`SplitMix64::next_u64`]. The AVX-512 copy needs
//! a compiler that accepts AVX-512 target features (Rust 1.89+);
//! `build.rs` sets `cfg(babol_avx512)` when it does.

// Determinism allowlist: the page store is the hottest map in the
// simulator and is only ever used for keyed lookups — iteration order
// never reaches behavior or output (`scripts/lint.sh` documents the gate).
#![allow(clippy::disallowed_types)]
// Every unsafe block here (the kernel's target-feature calls) carries a
// `SAFETY:` note; `scripts/lint.sh` keeps `unsafe` out of other files.
#![deny(clippy::undocumented_unsafe_blocks)]

use std::collections::HashMap;

use babol_onfi::addr::RowAddr;
use babol_sim::rng::SplitMix64;

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
    /// Explicitly written raw pages, keyed by linear page index.
    data: HashMap<u64, Box<[u8]>>,
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

    /// Reads the raw page (data + spare) at `row`.
    pub fn read_page(&self, row: RowAddr) -> Result<Vec<u8>, FlashError> {
        let mut page = vec![0; self.geometry.raw_page_size()];
        self.read_page_into(row, &mut page)?;
        Ok(page)
    }

    /// Reads the raw page (data + spare) at `row` into `out`, which must be
    /// exactly one raw page long. On error `out` is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not the raw page size.
    pub fn read_page_into(&self, row: RowAddr, out: &mut [u8]) -> Result<(), FlashError> {
        assert_eq!(
            out.len(),
            self.geometry.raw_page_size(),
            "read_page_into needs a raw-page buffer"
        );
        self.check(row)?;
        let idx = self.geometry.page_index(row);
        if let Some(bytes) = self.data.get(&idx) {
            out.copy_from_slice(bytes);
            return Ok(());
        }
        let state = self.blocks[row.block as usize].pages[row.page as usize];
        match (state, self.mode) {
            (PageState::Programmed { .. }, ContentMode::Preloaded { seed }) => {
                fill_deterministic_page(seed, idx, out)
            }
            // Programmed but never written in pristine mode cannot happen,
            // but answer erased content defensively.
            (PageState::Erased, _) | (PageState::Programmed { .. }, ContentMode::Pristine) => {
                out.fill(0xFF)
            }
        }
        Ok(())
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
        let mut page = Vec::with_capacity(raw_size);
        page.extend_from_slice(data);
        page.resize(raw_size, 0xFF);
        self.data
            .insert(self.geometry.page_index(row), page.into_boxed_slice());
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

/// Deterministic pseudo-random page content for preloaded arrays.
pub fn deterministic_page(seed: u64, page_index: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0; len];
    fill_deterministic_page(seed, page_index, &mut out);
    out
}

/// Fills `out` with the content of preloaded page `page_index`: the
/// little-endian output words of a [`SplitMix64`] seeded with
/// `seed ^ page_index·γ`, the last word truncated to its low bytes.
pub fn fill_deterministic_page(seed: u64, page_index: u64, out: &mut [u8]) {
    let state = seed ^ page_index.wrapping_mul(SplitMix64::GAMMA);
    #[cfg(target_arch = "x86_64")]
    {
        #[cfg(babol_avx512)]
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
            // SAFETY: the CPU supports every feature `fill_avx512` enables.
            return unsafe { fill_avx512(state, out) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports every feature `fill_avx2` enables.
            return unsafe { fill_avx2(state, out) };
        }
    }
    fill_portable(state, out)
}

/// [`fill_portable`] compiled for AVX-512.
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(all(target_arch = "x86_64", babol_avx512))]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn fill_avx512(state: u64, out: &mut [u8]) {
    fill_portable(state, out)
}

/// [`fill_portable`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_avx2(state: u64, out: &mut [u8]) {
    fill_portable(state, out)
}

/// The kernel body, inlined into each feature-specific copy. The state
/// advances by γ per word, so lane `k` of a vector is `state + k·γ` and the
/// only loop-carried value is that induction variable.
#[inline(always)]
fn fill_portable(mut state: u64, out: &mut [u8]) {
    let mut chunks = out.chunks_exact_mut(8);
    for chunk in &mut chunks {
        state = state.wrapping_add(SplitMix64::GAMMA);
        chunk.copy_from_slice(&SplitMix64::mix(state).to_le_bytes());
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let n = tail.len();
        let last = SplitMix64::mix(state.wrapping_add(SplitMix64::GAMMA));
        tail.copy_from_slice(&last.to_le_bytes()[..n]);
    }
}

#[cfg(test)]
mod tests {
    use babol_testkit::prop::{any, select, Property};
    use babol_testkit::prop_assert_eq;

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

    /// The generator as first written: whole SplitMix64 words, truncated.
    /// Every kernel copy must reproduce it byte for byte.
    fn reference_page(seed: u64, page_index: u64, len: usize) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed ^ page_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// Every kernel copy this CPU can run — the dispatched one, the
    /// portable body and, where supported, the AVX2 copy (which dispatch
    /// skips on AVX-512 hosts) — each into a buffer pre-filled with a
    /// marker, so a skipped byte shows up as well as a wrong one.
    fn kernels(seed: u64, page_index: u64, len: usize) -> Vec<Vec<u8>> {
        let state = seed ^ page_index.wrapping_mul(SplitMix64::GAMMA);
        let run = |fill: &dyn Fn(&mut [u8])| {
            let mut buf = vec![0xA5; len];
            fill(&mut buf);
            buf
        };
        #[allow(unused_mut)]
        let mut out = vec![
            run(&|b| fill_deterministic_page(seed, page_index, b)),
            run(&|b| fill_portable(state, b)),
        ];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2.
            out.push(run(&|b| unsafe { fill_avx2(state, b) }));
        }
        out
    }

    const LENGTHS: [usize; 10] = [0, 1, 7, 8, 9, 31, 32, 33, 576, 18256];

    #[test]
    fn kernels_match_the_reference_on_a_fixed_table() {
        let seeds = [0, 1, 0xBAB01, 0x9E37_79B9_7F4A_7C15, u64::MAX];
        let pages = [0, 1, 2, 4095, 1 << 40, u64::MAX];
        for seed in seeds {
            for page in pages {
                for len in LENGTHS {
                    let want = reference_page(seed, page, len);
                    for got in kernels(seed, page, len) {
                        assert_eq!(got, want, "seed {seed:#x} page {page} len {len}");
                    }
                }
            }
        }
        // Pin the bytes themselves, not just agreement with the reference:
        // SplitMix64 from state 0 yields 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4.
        assert_eq!(
            reference_page(0, 0, 9),
            [0xAF, 0xCD, 0x1D, 0x7B, 0x39, 0xA8, 0x20, 0xE2, 0xF4]
        );
    }

    #[test]
    fn kernels_match_the_reference_on_random_inputs() {
        let gen = (any::<u64>(), any::<u64>(), select(&LENGTHS));
        Property::new("preloaded page kernels").run(gen, |&(seed, page, len)| {
            let want = reference_page(seed, page, len);
            for got in kernels(seed, page, len) {
                prop_assert_eq!(got, want);
            }
            Ok(())
        });
    }

    #[test]
    fn read_page_into_matches_read_page() {
        let mut a = ArrayStore::new(Geometry::tiny(), ContentMode::Preloaded { seed: 5 });
        a.erase_block(row(1, 0)).unwrap();
        a.program_page(row(1, 0), b"resident", false).unwrap();
        let mut buf = vec![0; Geometry::tiny().raw_page_size()];
        // Resident, erased and synthesized pages, each over stale bytes.
        for r in [row(1, 0), row(1, 1), row(2, 3), row(1, 0)] {
            a.read_page_into(r, &mut buf).unwrap();
            assert_eq!(buf, a.read_page(r).unwrap());
        }
        assert!(a.read_page_into(row(99, 0), &mut buf).is_err());
    }

    #[test]
    fn deterministic_page_depends_on_inputs() {
        assert_eq!(deterministic_page(1, 2, 64), deterministic_page(1, 2, 64));
        assert_ne!(deterministic_page(1, 2, 64), deterministic_page(1, 3, 64));
        assert_ne!(deterministic_page(1, 2, 64), deterministic_page(2, 2, 64));
        assert_eq!(deterministic_page(1, 2, 10).len(), 10);
    }
}
