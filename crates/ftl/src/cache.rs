//! Write-back DRAM cache in front of the FTL write path.
//!
//! A real controller batches host writes in controller DRAM and programs
//! flash lazily; the paper's Cosmos+ platform dedicates most of its 1 GB
//! DRAM to exactly this. The cache here is the bookkeeping half: which
//! logical pages are resident, which slots hold them, and which are dirty.
//! The driver ([`crate::ssd`]) owns the data movement — it stages host
//! data into the slot's DRAM region and programs flash when this module
//! reports an eviction or a coherence flush.
//!
//! Coherence rules (asserted by the cache property tests):
//!
//! * Every host write is absorbed: the page becomes resident and dirty,
//!   and flash is programmed only when the dirty page is evicted (or
//!   flushed for a read).
//! * Reads are served from flash, so a read of a **dirty** resident page
//!   first flushes it (program + mark clean) — flash stays authoritative
//!   for all reads.
//! * Eviction picks the least-recently-used entry, dirty or not; a read
//!   of a resident page counts as a use.
//!
//! Determinism: recency is a monotonically increasing sequence number and
//! the resident set is a `BTreeMap`, so eviction choice is a pure function
//! of the access history (the workspace determinism lint bans unordered
//! hash collections here for exactly this reason). A second map indexes
//! the resident set by that unique sequence number, so the victim is its
//! first entry: O(log n) per eviction instead of a scan.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    slot: u32,
    dirty: bool,
    seq: u64,
}

/// An entry pushed out to make room, which the driver must act on before
/// reusing the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The logical page evicted.
    pub lpn: u64,
    /// The DRAM slot it occupied (reused by the incoming page).
    pub slot: u32,
    /// Whether the slot holds data newer than flash — if so, the driver
    /// must program flash from the slot before overwriting it.
    pub dirty: bool,
}

/// Write-back cache bookkeeping: resident set, slot assignment, recency,
/// dirtiness, and hit/miss/eviction counters.
#[derive(Debug, Clone)]
pub struct WriteCache {
    capacity: usize,
    entries: BTreeMap<u64, CacheEntry>,
    /// Resident LPNs keyed by their entry's `seq`, oldest first.
    recency: BTreeMap<u64, u64>,
    free_slots: Vec<u32>,
    next_seq: u64,
    hits: u64,
    misses: u64,
    dirty_evicts: u64,
    flushes: u64,
}

impl WriteCache {
    /// Builds a cache of `capacity` page slots (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        WriteCache {
            capacity,
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            // Hand slots out in ascending order.
            free_slots: (0..capacity as u32).rev().collect(),
            next_seq: 0,
            hits: 0,
            misses: 0,
            dirty_evicts: 0,
            flushes: 0,
        }
    }

    /// Whether the cache absorbs writes at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Resident pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resident pages whose data is newer than flash.
    pub fn dirty_len(&self) -> usize {
        self.entries.values().filter(|e| e.dirty).count()
    }

    /// Host writes absorbed while the page was already resident.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Host writes that claimed a fresh slot.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions that had to program flash first.
    pub fn dirty_evicts(&self) -> u64 {
        self.dirty_evicts
    }

    /// Coherence flushes (dirty page programmed for a read).
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Absorbs a host write of `lpn`: the page becomes resident and dirty.
    /// Returns the slot the driver must stage the data into, plus the
    /// eviction (if the cache was full) the driver must handle **before**
    /// staging — a dirty eviction's slot still holds the old page's data.
    ///
    /// # Panics
    ///
    /// Panics if the cache is disabled (capacity 0).
    pub fn touch_write(&mut self, lpn: u64) -> (u32, Option<Eviction>) {
        assert!(self.is_enabled(), "touch_write on a disabled cache");
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(e) = self.entries.get_mut(&lpn) {
            e.dirty = true;
            self.recency.remove(&e.seq);
            self.recency.insert(seq, lpn);
            e.seq = seq;
            self.hits += 1;
            return (e.slot, None);
        }
        self.misses += 1;
        let (slot, evicted) = match self.free_slots.pop() {
            Some(slot) => (slot, None),
            None => {
                let ev = self.evict();
                (ev.slot, Some(ev))
            }
        };
        self.recency.insert(seq, lpn);
        self.entries.insert(
            lpn,
            CacheEntry {
                slot,
                dirty: true,
                seq,
            },
        );
        (slot, evicted)
    }

    /// Coherence check for a host read of `lpn`: if a dirty copy is
    /// resident, marks it clean and returns its slot — the driver must
    /// program flash from that slot before reading, keeping flash
    /// authoritative. Clean hits and misses return `None` (flash already
    /// has the data). A hit refreshes recency.
    pub fn flush_for_read(&mut self, lpn: u64) -> Option<u32> {
        let e = self.entries.get_mut(&lpn)?;
        self.recency.remove(&e.seq);
        self.recency.insert(self.next_seq, lpn);
        e.seq = self.next_seq;
        self.next_seq += 1;
        if !e.dirty {
            return None;
        }
        e.dirty = false;
        self.hits += 1;
        self.flushes += 1;
        Some(e.slot)
    }

    /// Removes every dirty entry's data obligation, returning `(lpn,
    /// slot)` pairs in ascending LPN order, each marked clean. The driver
    /// programs flash from each slot (end-of-job flush, shutdown).
    pub fn drain_dirty(&mut self) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        for (&lpn, e) in self.entries.iter_mut() {
            if e.dirty {
                e.dirty = false;
                out.push((lpn, e.slot));
            }
        }
        self.flushes += out.len() as u64;
        out
    }

    /// Picks and removes the least-recently-used entry. Caller guarantees
    /// the cache is non-empty.
    fn evict(&mut self) -> Eviction {
        let (_, lpn) = self
            .recency
            .pop_first()
            .expect("evict called on an empty cache");
        let e = self.entries.remove(&lpn).expect("victim vanished");
        if e.dirty {
            self.dirty_evicts += 1;
        }
        Eviction {
            lpn,
            slot: e.slot,
            dirty: e.dirty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_hit_and_miss() {
        let mut c = WriteCache::new(2);
        assert!(c.is_enabled());
        let (s0, ev) = c.touch_write(10);
        assert_eq!(ev, None);
        let (s1, ev) = c.touch_write(20);
        assert_eq!(ev, None);
        assert_ne!(s0, s1);
        let (s, ev) = c.touch_write(10); // hit: same slot, no eviction
        assert_eq!((s, ev), (s0, None));
        assert_eq!((c.hits(), c.misses()), (1, 2));
        assert_eq!(c.dirty_len(), 2);
    }

    #[test]
    fn lru_evicts_oldest_and_reports_dirty() {
        let mut c = WriteCache::new(2);
        let (s0, _) = c.touch_write(10);
        c.touch_write(20);
        c.touch_write(10); // refresh 10: 20 is now LRU
        let (_, ev) = c.touch_write(30);
        let ev = ev.expect("full cache must evict");
        assert_eq!(ev.lpn, 20);
        assert!(ev.dirty);
        assert_ne!(ev.slot, s0);
        assert_eq!(c.dirty_evicts(), 1);
    }

    #[test]
    fn read_flush_marks_clean_once() {
        let mut c = WriteCache::new(4);
        let (slot, _) = c.touch_write(5);
        assert_eq!(c.flush_for_read(5), Some(slot));
        assert_eq!(c.flush_for_read(5), None, "second read needs no flush");
        assert_eq!(c.flush_for_read(99), None, "miss needs no flush");
        assert_eq!(c.flushes(), 1);
        assert_eq!(c.dirty_len(), 0);
    }

    #[test]
    fn drain_dirty_lists_ascending_and_cleans() {
        let mut c = WriteCache::new(4);
        c.touch_write(30);
        c.touch_write(10);
        c.touch_write(20);
        assert!(c.flush_for_read(20).is_some());
        let drained = c.drain_dirty();
        let lpns: Vec<u64> = drained.iter().map(|&(l, _)| l).collect();
        assert_eq!(lpns, vec![10, 30]);
        assert_eq!(c.dirty_len(), 0);
        assert!(c.drain_dirty().is_empty());
    }

    #[test]
    fn disabled_cache_reports_disabled() {
        let c = WriteCache::new(0);
        assert!(!c.is_enabled());
        assert!(c.is_empty());
    }
}
