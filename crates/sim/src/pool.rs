//! The count of raw page buffers made.
//!
//! Page payloads travel the data path as [`crate::PageData`] descriptions;
//! the bytes no formula describes (bit-flipped or scrambled readouts,
//! feature and ID values, staged parameter bytes) are made at a few edges
//! into a raw [`crate::PageBuf`], a reference-counted byte slice. Those
//! edges make their payloads through a shared [`BufPool`] handle, which
//! counts every buffer made, so a run can show that it made none: a
//! steady-state fio job moves only described pages (asserted by the fio
//! allocation test in `babol-ftl`).
//!
//! The counter is single-threaded (`Rc<Cell<..>>`), like the simulator.
//!
//! # Examples
//!
//! ```
//! use babol_sim::BufPool;
//!
//! let pool = BufPool::default();
//! let page = pool.raw(b"feature bytes".to_vec());
//! let copy = page.clone(); // shares the bytes
//! assert_eq!(copy, b"feature bytes"[..]);
//! assert_eq!(pool.stats().heap_allocs(), 1);
//! ```

use std::cell::Cell;
use std::rc::Rc;

use crate::data::PageData;

/// A snapshot of a [`BufPool`]'s count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    made: u64,
}

impl PoolStats {
    /// Raw page buffers made so far, one heap allocation each. Flat in a
    /// steady-state run, whose pages are all described.
    pub fn heap_allocs(&self) -> u64 {
        self.made
    }
}

/// A shared counter of raw page buffers made.
///
/// Cloning a `BufPool` yields another handle to the same count.
#[derive(Debug, Clone, Default)]
pub struct BufPool {
    made: Rc<Cell<u64>>,
}

impl BufPool {
    /// `bytes` as one raw segment, counting one buffer made.
    pub fn raw(&self, bytes: Vec<u8>) -> PageData {
        self.made.set(self.made.get() + 1);
        PageData::from(bytes)
    }

    /// The current count.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            made: self.made.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_count() {
        let pool = BufPool::default();
        let other = pool.clone();
        assert_eq!(pool.raw(vec![1, 2, 3]).materialize(), [1, 2, 3]);
        other.raw(vec![4]);
        assert_eq!(pool.stats().heap_allocs(), 2);
        assert_eq!(BufPool::default().stats(), PoolStats::default());
    }
}
