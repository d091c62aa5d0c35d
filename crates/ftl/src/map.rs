//! Page-level address translation, garbage collection, wear leveling, and
//! bad-block bookkeeping.
//!
//! The classic page-mapping FTL (Chung et al.'s survey, paper \[8\]): every
//! logical page maps to any physical page; writes go to the active block of
//! the target LUN; overwritten pages become invalid; when a LUN runs short
//! of free blocks, the block with the most invalid pages is collected —
//! its valid pages relocated and the block erased.
//!
//! On top of that, the production machinery a shipping FTL needs:
//!
//! * **Wear accounting** — every block carries an erase counter; opening a
//!   new active block always picks the least-worn free block, and
//!   [`PageMap::wear_victim`] nominates cold full blocks for migration when
//!   a LUN's wear spread exceeds a limit.
//! * **Bad blocks** — [`PageMap::retire_block`] pulls a block out of
//!   circulation permanently ([`PageMap::usable_pages`] shrinks, GC and
//!   allocation never touch it again). The driver decides *when* (factory
//!   map at build, program/erase failures at runtime).

use std::collections::VecDeque;
use std::num::NonZeroU32;

use babol_flash::Geometry;

/// A physical page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ppn {
    /// LUN on the channel.
    pub lun: u32,
    /// Block within the LUN.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
}

/// Relocation work needed before a block can be erased.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcPlan {
    /// The victim block (page field is zero).
    pub victim: Ppn,
    /// Valid pages to relocate: (logical page, old physical page).
    pub moves: Vec<(u64, Ppn)>,
}

#[derive(Debug, Clone)]
struct BlockInfo {
    valid: u32,
    next_page: u32,
    state: BlockState,
    /// Erases survived. Persists across the block's free/active/full
    /// lifecycle — the wear leveler's ground truth.
    erase_count: u32,
}

/// Lifecycle of a physical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Erased, ready to become the active block.
    Free,
    /// Currently absorbing writes.
    Active,
    /// Fully programmed; GC may collect it.
    Full,
    /// Permanently out of circulation (factory-bad or failed in service).
    Retired,
}

#[derive(Debug, Clone)]
struct LunAlloc {
    free: VecDeque<u32>,
    active: Option<u32>,
    blocks: Vec<BlockInfo>,
}

/// The logical-to-physical map plus allocation state.
///
/// Both directions take four bytes an entry. A mapped logical page holds
/// its physical page packed into bit fields (page, then block, then LUN,
/// each as wide as the geometry needs), plus one; a physical page holds
/// its logical page plus one. Zero means unmapped in both, so the vectors
/// start as zeroed memory, which takes no resident memory until a page is
/// written.
#[derive(Debug, Clone)]
pub struct PageMap {
    geometry: Geometry,
    luns: u32,
    l2p: Vec<Option<NonZeroU32>>,
    /// Bits of the packed page field.
    page_bits: u32,
    /// Bits of the packed page and block fields together.
    lun_shift: u32,
    /// The logical page plus one that each physical page holds, indexed
    /// by [`PageMap::slot`]; 0 where it holds no valid data.
    p2l: Vec<u32>,
    alloc: Vec<LunAlloc>,
    next_lun: u32,
    /// GC kicks in when a LUN's free-block count drops below this.
    pub gc_threshold: u32,
}

impl PageMap {
    /// Creates a map over `luns` LUNs of `geometry`, exporting
    /// `logical_pages` logical pages (must leave over-provisioning room).
    ///
    /// # Panics
    ///
    /// Panics if over-provisioning is under ~10%, or if a physical page
    /// address does not pack into 31 bits.
    pub fn new(geometry: Geometry, luns: u32, logical_pages: u64) -> Self {
        let physical = geometry.pages_per_lun() * luns as u64;
        assert!(
            logical_pages <= physical * 9 / 10,
            "need at least ~10% over-provisioning ({logical_pages} of {physical})"
        );
        let bits = |n: u32| u32::BITS - n.saturating_sub(1).leading_zeros();
        let page_bits = bits(geometry.pages_per_block);
        let lun_shift = page_bits + bits(geometry.blocks_per_lun());
        assert!(
            lun_shift + bits(luns) < u32::BITS,
            "{luns} LUNs of {} blocks of {} pages do not pack into 31 bits",
            geometry.blocks_per_lun(),
            geometry.pages_per_block
        );
        let alloc = (0..luns)
            .map(|_| LunAlloc {
                free: (0..geometry.blocks_per_lun()).collect(),
                active: None,
                blocks: vec![
                    BlockInfo {
                        valid: 0,
                        next_page: 0,
                        state: BlockState::Free,
                        erase_count: 0,
                    };
                    geometry.blocks_per_lun() as usize
                ],
            })
            .collect();
        PageMap {
            geometry,
            luns,
            l2p: vec![None; logical_pages as usize],
            page_bits,
            lun_shift,
            p2l: vec![0; physical as usize],
            alloc,
            next_lun: 0,
            gc_threshold: 2,
        }
    }

    /// Number of exported logical pages.
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// The linear index of a physical page: LUN, then block, then page.
    fn slot(&self, ppn: Ppn) -> usize {
        let per_block = self.geometry.pages_per_block as u64;
        let block = ppn.lun as u64 * self.geometry.blocks_per_lun() as u64 + ppn.block as u64;
        (block * per_block + ppn.page as u64) as usize
    }

    /// `ppn` in its packed form.
    fn pack(&self, ppn: Ppn) -> NonZeroU32 {
        let bits = ppn.lun << self.lun_shift | ppn.block << self.page_bits | ppn.page;
        NonZeroU32::new(bits + 1).expect("a packed address fits 31 bits")
    }

    /// The physical page a packed entry names.
    fn unpack(&self, packed: NonZeroU32) -> Ppn {
        let bits = packed.get() - 1;
        Ppn {
            lun: bits >> self.lun_shift,
            block: (bits & ((1 << self.lun_shift) - 1)) >> self.page_bits,
            page: bits & ((1 << self.page_bits) - 1),
        }
    }

    /// Looks up the physical location of a logical page.
    pub fn translate(&self, lpn: u64) -> Option<Ppn> {
        let packed = (*self.l2p.get(lpn as usize)?)?;
        Some(self.unpack(packed))
    }

    /// Erased blocks ready to open on `lun`. The active block is **not**
    /// counted: it is already absorbing writes and cannot hold a relocated
    /// full block's worth of pages. This is the exact quantity
    /// [`PageMap::needs_gc`] compares against [`PageMap::gc_threshold`] —
    /// one definition, shared by both (the map property tests assert the
    /// agreement).
    pub fn free_blocks(&self, lun: u32) -> u32 {
        self.alloc[lun as usize].free.len() as u32
    }

    /// True if `lun` needs garbage collection before further writes:
    /// [`PageMap::free_blocks`] has dropped below [`PageMap::gc_threshold`].
    pub fn needs_gc(&self, lun: u32) -> bool {
        self.free_blocks(lun) < self.gc_threshold
    }

    /// Allocates the next physical page for writing `lpn`, striping LUNs
    /// round-robin. Invalidates any previous mapping. Returns the target.
    ///
    /// # Panics
    ///
    /// Panics if the chosen LUN has no free page (callers must run GC when
    /// [`PageMap::needs_gc`] says so).
    pub fn allocate_for_write(&mut self, lpn: u64) -> Ppn {
        let lun = self.next_lun;
        self.next_lun = (self.next_lun + 1) % self.luns;
        self.allocate_on_lun(lpn, lun)
    }

    /// Allocates on a specific LUN (used by GC relocation, which must stay
    /// on-LUN to preserve parallelism). Opening a new active block always
    /// picks the **least-worn** free block (erase count, then block id),
    /// the static half of the wear-leveling policy.
    pub fn allocate_on_lun(&mut self, lpn: u64, lun: u32) -> Ppn {
        self.invalidate(lpn);
        let a = &mut self.alloc[lun as usize];
        let block = match a.active {
            Some(b) if a.blocks[b as usize].next_page < self.geometry.pages_per_block => b,
            _ => {
                let pick = (0..a.free.len())
                    .min_by_key(|&i| {
                        let b = a.free[i];
                        (a.blocks[b as usize].erase_count, b)
                    })
                    .unwrap_or_else(|| panic!("LUN {lun} out of free blocks (run GC)"));
                let b = a.free.remove(pick).expect("picked index in range");
                if let Some(prev) = a.active {
                    a.blocks[prev as usize].state = BlockState::Full;
                }
                let info = &mut a.blocks[b as usize];
                debug_assert_eq!(info.state, BlockState::Free);
                info.valid = 0;
                info.next_page = 0;
                info.state = BlockState::Active;
                a.active = Some(b);
                b
            }
        };
        let info = &mut a.blocks[block as usize];
        let page = info.next_page;
        info.next_page += 1;
        info.valid += 1;
        if info.next_page == self.geometry.pages_per_block {
            info.state = BlockState::Full;
            a.active = None;
        }
        let ppn = Ppn { lun, block, page };
        self.l2p[lpn as usize] = Some(self.pack(ppn));
        let slot = self.slot(ppn);
        self.p2l[slot] = lpn as u32 + 1;
        ppn
    }

    /// The LUN with the most free blocks — the safest relocation target
    /// during garbage collection. Relocating cross-LUN prevents the
    /// livelock where a LUN whose blocks are all valid must consume one
    /// block to free one. Ties go to a LUN other than `avoid` (the LUN
    /// being collected): preferring the victim's own LUN on a tie
    /// recreates exactly that self-consuming shuffle. Remaining ties pick
    /// the lowest index, keeping the choice deterministic.
    pub fn best_relocation_lun(&self, avoid: u32) -> u32 {
        (0..self.luns)
            .max_by_key(|&l| {
                (
                    self.alloc[l as usize].free.len(),
                    l != avoid,
                    core::cmp::Reverse(l),
                )
            })
            .expect("at least one LUN")
    }

    /// Removes the mapping of `lpn`, marking its physical page invalid.
    pub fn invalidate(&mut self, lpn: u64) {
        if let Some(packed) = self.l2p[lpn as usize].take() {
            let old = self.unpack(packed);
            let slot = self.slot(old);
            self.p2l[slot] = 0;
            self.alloc[old.lun as usize].blocks[old.block as usize].valid -= 1;
        }
    }

    /// Picks the GC victim on `lun` (greedy: most invalid pages among full
    /// blocks) and lists the relocations required.
    pub fn plan_gc(&self, lun: u32) -> Option<GcPlan> {
        let a = &self.alloc[lun as usize];
        let victim = (0..self.geometry.blocks_per_lun())
            .filter(|&b| a.blocks[b as usize].state == BlockState::Full)
            .min_by_key(|&b| a.blocks[b as usize].valid)?;
        Some(GcPlan {
            victim: Ppn {
                lun,
                block: victim,
                page: 0,
            },
            moves: self.block_moves(lun, victim),
        })
    }

    /// Returns the victim block to the free pool after its relocations and
    /// erase completed, crediting one erase to its wear counter.
    pub fn finish_gc(&mut self, victim: Ppn) {
        let a = &mut self.alloc[victim.lun as usize];
        let info = &mut a.blocks[victim.block as usize];
        debug_assert_eq!(info.valid, 0, "GC finished with valid pages left");
        debug_assert_ne!(info.state, BlockState::Retired, "erased a retired block");
        info.valid = 0;
        info.next_page = 0;
        info.state = BlockState::Free;
        info.erase_count += 1;
        a.free.push_back(victim.block);
    }

    /// Permanently removes a block from circulation: out of the free pool,
    /// out of the active slot, never a GC victim or allocation target
    /// again. Still-valid pages stay mapped — the driver relocates them
    /// (see [`PageMap::block_moves`]) and each relocation invalidates its
    /// old page, draining the block.
    pub fn retire_block(&mut self, lun: u32, block: u32) {
        let a = &mut self.alloc[lun as usize];
        if a.active == Some(block) {
            a.active = None;
        }
        if let Some(i) = a.free.iter().position(|&b| b == block) {
            a.free.remove(i);
        }
        a.blocks[block as usize].state = BlockState::Retired;
    }

    /// The state of a physical block.
    pub fn block_state(&self, lun: u32, block: u32) -> BlockState {
        self.alloc[lun as usize].blocks[block as usize].state
    }

    /// Erases survived by a physical block.
    pub fn erase_count(&self, lun: u32, block: u32) -> u32 {
        self.alloc[lun as usize].blocks[block as usize].erase_count
    }

    /// Physical pages still in circulation (retired blocks excluded),
    /// across the whole map — the over-provisioning denominator once
    /// blocks start dying.
    pub fn usable_pages(&self) -> u64 {
        let per_block = self.geometry.pages_per_block as u64;
        self.alloc
            .iter()
            .flat_map(|a| a.blocks.iter())
            .filter(|b| b.state != BlockState::Retired)
            .count() as u64
            * per_block
    }

    /// Number of LUNs the map spans.
    pub fn luns(&self) -> u32 {
        self.luns
    }

    /// Wear spread on `lun`: max − min erase count over blocks still in
    /// circulation.
    pub fn wear_spread(&self, lun: u32) -> u32 {
        let counts = self.alloc[lun as usize]
            .blocks
            .iter()
            .filter(|b| b.state != BlockState::Retired)
            .map(|b| b.erase_count);
        let max = counts.clone().max().unwrap_or(0);
        let min = counts.min().unwrap_or(0);
        max - min
    }

    /// Nominates a cold block for wear-leveling migration on `lun`: the
    /// least-worn **full** block whose erase count trails the LUN's
    /// in-circulation maximum by more than `limit`. Full blocks are the
    /// cold-data signal — a block that keeps all its pages valid while
    /// others churn is exactly the one pinning the wear spread open.
    /// Returns `None` when the LUN is within the limit.
    pub fn wear_victim(&self, lun: u32, limit: u32) -> Option<u32> {
        let a = &self.alloc[lun as usize];
        let max = a
            .blocks
            .iter()
            .filter(|b| b.state != BlockState::Retired)
            .map(|b| b.erase_count)
            .max()?;
        (0..self.geometry.blocks_per_lun())
            .filter(|&b| {
                let info = &a.blocks[b as usize];
                info.state == BlockState::Full && max - info.erase_count > limit
            })
            .min_by_key(|&b| (a.blocks[b as usize].erase_count, b))
    }

    /// Opens the **most-worn** free block as `lun`'s active block (sealing
    /// the previous active block, if any, as Full). Wear migration
    /// relocates cold data through this — cold pages belong on worn blocks,
    /// the exact opposite of the normal least-worn policy. Without it the
    /// min-wear allocator would put cold data right back on young blocks
    /// and re-nominate the same victims forever.
    ///
    /// # Panics
    ///
    /// Panics if the LUN has no free block (callers reclaim space first).
    pub fn open_worn_block(&mut self, lun: u32) {
        let a = &mut self.alloc[lun as usize];
        let pick = (0..a.free.len())
            .min_by_key(|&i| {
                let b = a.free[i];
                (u32::MAX - a.blocks[b as usize].erase_count, b)
            })
            .unwrap_or_else(|| panic!("LUN {lun} out of free blocks (run GC)"));
        let b = a.free.remove(pick).expect("picked index in range");
        if let Some(prev) = a.active {
            a.blocks[prev as usize].state = BlockState::Full;
        }
        let info = &mut a.blocks[b as usize];
        debug_assert_eq!(info.state, BlockState::Free);
        info.valid = 0;
        info.next_page = 0;
        info.state = BlockState::Active;
        a.active = Some(b);
    }

    /// Lists the valid pages of one block as relocation work
    /// `(logical page, current physical page)` — [`GcPlan::moves`] for an
    /// arbitrary block (wear migration, post-failure evacuation).
    pub fn block_moves(&self, lun: u32, block: u32) -> Vec<(u64, Ppn)> {
        let first = self.slot(Ppn {
            lun,
            block,
            page: 0,
        });
        let pages = &self.p2l[first..first + self.geometry.pages_per_block as usize];
        (0..)
            .zip(pages)
            .filter(|&(_, &held)| held != 0)
            .map(|(page, &held)| (u64::from(held - 1), Ppn { lun, block, page }))
            .collect()
    }

    /// Pre-maps the whole logical space linearly (striped across LUNs),
    /// modelling the paper's "initialized the SSDs with data" step without
    /// issuing billions of programs.
    pub fn preload_linear(&mut self) {
        for lpn in 0..self.l2p.len() as u64 {
            self.allocate_for_write(lpn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> PageMap {
        // tiny: 8 pages/block, 8 blocks/lun, 2 luns = 128 physical pages.
        PageMap::new(Geometry::tiny(), 2, 96)
    }

    #[test]
    fn writes_stripe_across_luns() {
        let mut m = map();
        let a = m.allocate_for_write(0);
        let b = m.allocate_for_write(1);
        assert_ne!(a.lun, b.lun);
        assert_eq!(m.translate(0), Some(a));
        assert_eq!(m.translate(1), Some(b));
    }

    #[test]
    fn overwrite_invalidates_old_page() {
        let mut m = map();
        let first = m.allocate_for_write(5);
        let second = m.allocate_for_write(5);
        assert_ne!(first, second);
        assert_eq!(m.translate(5), Some(second));
    }

    #[test]
    fn pages_fill_blocks_sequentially() {
        let mut m = map();
        let ppns: Vec<Ppn> = (0..16).map(|i| m.allocate_on_lun(i, 0)).collect();
        // First 8 pages fill one block in order, then a new block opens.
        for (i, p) in ppns.iter().take(8).enumerate() {
            assert_eq!(p.page, i as u32);
            assert_eq!(p.block, ppns[0].block);
        }
        assert_ne!(ppns[8].block, ppns[0].block);
        assert_eq!(ppns[8].page, 0);
    }

    #[test]
    fn gc_picks_most_invalid_full_block() {
        let mut m = map();
        // Fill two blocks on LUN 0.
        for i in 0..16 {
            m.allocate_on_lun(i, 0);
        }
        // Invalidate most of the first block (rewrite those LPNs elsewhere).
        for i in 0..6 {
            m.allocate_on_lun(i, 1);
        }
        let plan = m.plan_gc(0).expect("a full block exists");
        assert_eq!(plan.moves.len(), 2); // pages 6,7 still valid
        for (lpn, ppn) in &plan.moves {
            assert_eq!(m.translate(*lpn), Some(*ppn));
        }
    }

    #[test]
    fn gc_cycle_returns_block_to_free_pool() {
        let mut m = map();
        for i in 0..8 {
            m.allocate_on_lun(i, 0);
        }
        for i in 0..8 {
            m.allocate_on_lun(i, 1); // invalidate all of LUN0's block
        }
        let before = m.free_blocks(0);
        let plan = m.plan_gc(0).unwrap();
        assert!(plan.moves.is_empty());
        m.finish_gc(plan.victim);
        assert_eq!(m.free_blocks(0), before + 1);
    }

    #[test]
    fn preload_maps_everything() {
        let mut m = map();
        m.preload_linear();
        for lpn in 0..96 {
            assert!(m.translate(lpn).is_some(), "lpn {lpn}");
        }
    }

    #[test]
    fn needs_gc_tracks_free_pool() {
        let mut m = map();
        assert!(!m.needs_gc(0));
        // Consume all blocks on LUN 0.
        for i in 0..64 {
            m.allocate_on_lun(1000 % 96 + i % 30, 0); // overwrites allowed
        }
        // 8 blocks of 8 pages: 64 allocations exhaust the pool.
        assert!(m.needs_gc(0));
    }

    #[test]
    #[should_panic(expected = "over-provisioning")]
    fn rejects_full_logical_mapping() {
        PageMap::new(Geometry::tiny(), 2, 128);
    }

    /// Bugfix regression: `needs_gc` and `free_blocks` share one
    /// definition. The old `free_blocks` also counted the active block, so
    /// a LUN could report 2 free blocks while `needs_gc` (correctly) fired
    /// — confusing every caller that compared the two.
    #[test]
    fn needs_gc_agrees_with_free_blocks() {
        let mut m = map();
        for i in 0..62 {
            m.allocate_on_lun(i % 90, 0);
            for lun in 0..2 {
                assert_eq!(
                    m.needs_gc(lun),
                    m.free_blocks(lun) < m.gc_threshold,
                    "definitions diverged after {i} allocations"
                );
            }
        }
        // With an active block open and one free block left, the two must
        // agree that GC is needed (threshold 2).
        assert!(m.needs_gc(0));
        assert!(m.free_blocks(0) < m.gc_threshold);
    }

    #[test]
    fn gc_erase_increments_wear_counter() {
        let mut m = map();
        for i in 0..8 {
            m.allocate_on_lun(i, 0);
        }
        for i in 0..8 {
            m.allocate_on_lun(i, 1);
        }
        let plan = m.plan_gc(0).unwrap();
        assert_eq!(m.erase_count(0, plan.victim.block), 0);
        m.finish_gc(plan.victim);
        assert_eq!(m.erase_count(0, plan.victim.block), 1);
        assert_eq!(m.wear_spread(0), 1);
    }

    #[test]
    fn allocation_prefers_least_worn_free_block() {
        let mut m = map();
        // Cycle block usage so one block accumulates wear: fill block A,
        // invalidate it, GC it, repeat.
        for round in 0..3 {
            for i in 0..8 {
                m.allocate_on_lun(i, 0);
            }
            for i in 0..8 {
                m.allocate_on_lun(i, 1); // invalidate LUN 0's block
            }
            let plan = m.plan_gc(0).unwrap();
            assert!(plan.moves.is_empty());
            m.finish_gc(plan.victim);
            let _ = round;
        }
        // The next block opened on LUN 0 must be a pristine one, not the
        // just-erased (now most-worn) block at the back of the queue.
        let p = m.allocate_on_lun(50, 0);
        assert_eq!(m.erase_count(0, p.block), 0, "picked a worn block");
    }

    #[test]
    fn retired_blocks_leave_circulation() {
        let mut m = map();
        let usable = m.usable_pages();
        m.retire_block(0, 3);
        assert_eq!(m.block_state(0, 3), BlockState::Retired);
        assert_eq!(m.usable_pages(), usable - 8);
        assert_eq!(m.free_blocks(0), 7);
        // Drain LUN 0 completely: block 3 must never be handed out.
        for i in 0..56 {
            let p = m.allocate_on_lun(i, 0);
            assert_ne!(p.block, 3, "allocated a retired block");
        }
        // And GC never nominates it.
        assert!(m.plan_gc(0).map(|p| p.victim.block != 3).unwrap_or(true));
    }

    #[test]
    fn wear_victim_targets_cold_full_blocks() {
        let mut m = map();
        // Block with cold data: fill it and leave it valid.
        for i in 0..8 {
            m.allocate_on_lun(i, 0);
        }
        let cold = m.translate(0).unwrap().block;
        // Hot data: lpns 8..16 rewritten every round; the min-wear
        // allocator spreads the churn over the 7 circulating blocks, so 35
        // erases wear each of them 5× while the cold block stays at 0.
        for i in 8..16 {
            m.allocate_on_lun(i, 0);
        }
        for _ in 0..35 {
            for i in 8..16 {
                m.allocate_on_lun(i, 0);
            }
            let plan = m.plan_gc(0).unwrap();
            assert!(plan.moves.is_empty());
            assert_ne!(plan.victim.block, cold, "greedy GC must skip cold data");
            m.finish_gc(plan.victim);
        }
        assert!(m.wear_spread(0) >= 5, "spread {}", m.wear_spread(0));
        assert_eq!(m.wear_victim(0, 2), Some(cold));
        assert_eq!(m.wear_victim(0, 100), None, "within a generous limit");
        // Migrating the cold block closes the gap.
        for (lpn, _) in m.block_moves(0, cold) {
            m.allocate_on_lun(lpn, 1);
        }
        m.finish_gc(Ppn {
            lun: 0,
            block: cold,
            page: 0,
        });
        assert_eq!(m.wear_victim(0, 4), None);
    }

    #[test]
    fn open_worn_block_picks_the_most_worn_free_block() {
        let mut m = map();
        // Wear block A (the first opened) by one erase cycle.
        for i in 0..8 {
            m.allocate_on_lun(i, 0);
        }
        let worn = m.translate(0).unwrap().block;
        for i in 0..8 {
            m.allocate_on_lun(i, 1);
        }
        let plan = m.plan_gc(0).unwrap();
        assert_eq!(plan.victim.block, worn);
        m.finish_gc(plan.victim);
        assert_eq!(m.erase_count(0, worn), 1);
        // Normal allocation would avoid it; open_worn_block targets it.
        m.open_worn_block(0);
        let p = m.allocate_on_lun(40, 0);
        assert_eq!(p.block, worn, "cold data must land on the worn block");
        assert_eq!(p.page, 0);
    }
}
