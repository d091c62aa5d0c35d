//! A slab buffer pool for raw page bytes.
//!
//! Page payloads travel the data path as [`crate::PageData`] descriptions;
//! the bytes no formula describes (bit-flipped or scrambled readouts,
//! feature and ID values, staged parameter bytes) live in pooled buffers.
//! [`BufPool`] is a free-list of page-sized buffers: a producer acquires a
//! [`PageBufMut`], fills it once, and freezes it into a cheaply-cloneable,
//! reference-counted [`PageBuf`] that every consumer reads in place.
//! Dropping the last handle returns the storage to the pool, so a
//! steady-state run performs **zero page-buffer heap allocations after
//! warm-up** — observable through [`PoolStats`] and asserted by the fio
//! allocation test in `babol-ftl`.
//!
//! The free list recycles the whole `Rc` allocation, not just the byte
//! storage: `acquire` → `freeze` → drop is pointer shuffling end to end.
//! (A naive `Rc::new` per freeze would put one hidden malloc/free pair back
//! on every data phase — exactly what the pool exists to remove.)
//!
//! Ownership rules (see DESIGN.md "Performance"):
//!
//! * [`PageBufMut`] is unique and writable; it never aliases.
//! * [`PageBuf`] is shared and immutable; clones are `Rc` bumps.
//! * Buffers keep their capacity across reuse; the free list is LIFO so the
//!   hottest buffer (best cache locality) is handed out next.
//! * A `PageBuf` can also wrap a plain `Vec<u8>` (`From<Vec<u8>>`) with no
//!   pool attached — used by tests and cold paths; it simply frees on drop.
//!
//! The pool is single-threaded (`Rc<RefCell<..>>`), like the simulator.
//!
//! # Examples
//!
//! ```
//! use babol_sim::BufPool;
//!
//! let pool = BufPool::new(4096);
//! let mut w = pool.acquire();
//! w.extend_from_slice(b"page payload");
//! let page = w.freeze();
//! let copy = page.clone(); // Rc bump, no allocation
//! assert_eq!(&*copy, b"page payload");
//! drop((page, copy)); // storage returns to the pool
//! assert_eq!(pool.stats().allocs, 1);
//! let again = pool.acquire(); // reuses the same buffer
//! assert_eq!(pool.stats().allocs, 1);
//! drop(again);
//! ```

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// Allocation-activity counters for a [`BufPool`].
///
/// `allocs` and `grows` together count every heap allocation the pool has
/// performed; in a warmed-up steady state both must stay flat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out (`acquire` calls).
    pub acquires: u64,
    /// Fresh buffers allocated because the free list was empty.
    pub allocs: u64,
    /// Capacity growths of recycled buffers (a request exceeded the page
    /// size the pool was built with).
    pub grows: u64,
    /// Buffers returned to the free list.
    pub releases: u64,
    /// Buffers currently out of the pool.
    pub in_use: u64,
    /// Maximum simultaneous `in_use` observed.
    pub high_water: u64,
}

impl PoolStats {
    /// Total heap allocations attributable to the pool so far.
    pub fn heap_allocs(&self) -> u64 {
        self.allocs + self.grows
    }
}

#[derive(Debug)]
struct PoolInner {
    /// Default capacity of freshly allocated buffers.
    page_size: usize,
    /// LIFO free list of whole `Rc` husks; buffers keep their capacity
    /// across recycling and the `Rc` box itself is reused.
    free: Vec<Rc<Vec<u8>>>,
    stats: PoolStats,
}

/// A shared, single-threaded free-list of page buffers.
///
/// Cloning a `BufPool` yields another handle to the same pool.
#[derive(Debug, Clone)]
pub struct BufPool {
    inner: Rc<RefCell<PoolInner>>,
}

impl BufPool {
    /// Creates a pool whose fresh buffers are pre-sized to `page_size`.
    pub fn new(page_size: usize) -> Self {
        BufPool {
            inner: Rc::new(RefCell::new(PoolInner {
                page_size,
                free: Vec::new(),
                stats: PoolStats::default(),
            })),
        }
    }

    /// Whether two handles refer to the same underlying pool.
    pub fn same_pool(&self, other: &BufPool) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Takes an empty, writable buffer from the free list (allocating one
    /// only if the list is empty).
    #[inline]
    pub fn acquire(&self) -> PageBufMut {
        let mut inner = self.inner.borrow_mut();
        let page_size = inner.page_size;
        let shared = match inner.free.pop() {
            Some(mut rc) => {
                Rc::get_mut(&mut rc)
                    .expect("free-list husks are unique")
                    .clear();
                rc
            }
            None => {
                inner.stats.allocs += 1;
                Rc::new(Vec::with_capacity(page_size))
            }
        };
        inner.stats.acquires += 1;
        inner.stats.in_use += 1;
        inner.stats.high_water = inner.stats.high_water.max(inner.stats.in_use);
        drop(inner);
        PageBufMut {
            pool: self.clone(),
            shared: Some(shared),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.borrow().stats
    }

    /// Pre-populates the free list with `count` buffers.
    pub fn warm_up(&self, count: usize) {
        let handles: Vec<PageBufMut> = (0..count).map(|_| self.acquire()).collect();
        drop(handles);
    }

    /// Returns a husk to the free list once `shared` is the last handle;
    /// earlier clone drops are no-ops so each buffer releases exactly once.
    #[inline]
    fn release(&self, shared: Rc<Vec<u8>>) {
        if Rc::strong_count(&shared) > 1 {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        inner.stats.releases += 1;
        inner.stats.in_use -= 1;
        inner.free.push(shared);
    }

    #[inline]
    fn note_grow(&self) {
        self.inner.borrow_mut().stats.grows += 1;
    }
}

impl Default for BufPool {
    /// A pool sized for the paper's 16 KiB pages.
    fn default() -> Self {
        BufPool::new(16384)
    }
}

/// A unique, writable page buffer checked out of a [`BufPool`].
///
/// Fill it (e.g. with [`PageBufMut::extend_from_slice`]) and either
/// [`freeze`](PageBufMut::freeze) it into a shared [`PageBuf`] or drop it to
/// return the storage. Also usable as a reusable scratch buffer: `clear()`
/// and refill without reallocating.
#[derive(Debug)]
pub struct PageBufMut {
    pool: BufPool,
    /// Always `Some` while live; `None` only transiently during
    /// `freeze`/drop. Unique (strong count 1), so `Rc::get_mut` never fails.
    shared: Option<Rc<Vec<u8>>>,
}

impl PageBufMut {
    /// Splits the borrow: the pool handle and the (unique) byte storage are
    /// disjoint fields, so mutators can update stats without cloning.
    #[inline]
    fn parts(&mut self) -> (&BufPool, &mut Vec<u8>) {
        let buf =
            Rc::get_mut(self.shared.as_mut().expect("live buffer")).expect("unique while mutable");
        (&self.pool, buf)
    }

    #[inline]
    fn buf(&mut self) -> &mut Vec<u8> {
        self.parts().1
    }

    #[inline]
    fn buf_ref(&self) -> &Vec<u8> {
        self.shared.as_ref().expect("live buffer")
    }

    /// Appends `bytes`, tracking any capacity growth in the pool stats.
    #[inline]
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        let (pool, buf) = self.parts();
        if buf.len() + bytes.len() > buf.capacity() {
            pool.note_grow();
        }
        buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    #[inline]
    pub fn push(&mut self, byte: u8) {
        let (pool, buf) = self.parts();
        if buf.len() == buf.capacity() {
            pool.note_grow();
        }
        buf.push(byte);
    }

    /// Sets the length to `len`, filling new bytes with `fill`.
    #[inline]
    pub fn resize(&mut self, len: usize, fill: u8) {
        let (pool, buf) = self.parts();
        if len > buf.capacity() {
            pool.note_grow();
        }
        buf.resize(len, fill);
    }

    /// Empties the buffer, keeping its capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.buf().clear();
    }

    /// Current contents length.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf_ref().len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf_ref().is_empty()
    }

    /// Writable view of the contents.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.buf().as_mut_slice()
    }

    /// Read-only view of the contents.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        self.buf_ref()
    }

    /// Converts into a shared, immutable [`PageBuf`] — no copy and no
    /// allocation: the `Rc` moves across.
    #[inline]
    pub fn freeze(mut self) -> PageBuf {
        let shared = self.shared.take().expect("live buffer");
        PageBuf {
            pool: Some(self.pool.clone()),
            shared: Some(shared),
        }
        // `self` drops here with `shared` empty — no release.
    }
}

impl Deref for PageBufMut {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.buf_ref()
    }
}

impl Drop for PageBufMut {
    #[inline]
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            self.pool.release(shared);
        }
    }
}

/// A shared, immutable page payload.
///
/// Clones are reference-count bumps; the storage returns to its [`BufPool`]
/// when the last handle drops. Dereferences to `&[u8]`; equality compares
/// contents.
pub struct PageBuf {
    /// `None` for unpooled buffers wrapped via `From<Vec<u8>>`. Held here
    /// rather than next to the bytes so the free list's husks do not keep
    /// the pool alive in a reference cycle.
    pool: Option<BufPool>,
    /// `None` for the (storage-free) empty payload and transiently during
    /// drop; otherwise the shared bytes.
    shared: Option<Rc<Vec<u8>>>,
}

/// Shared backing for empty payloads (`Vec::new` is const, so this never
/// allocates).
static EMPTY_BYTES: Vec<u8> = Vec::new();

impl PageBuf {
    /// An empty, unpooled payload: both fields `None`, so constructing,
    /// cloning, and dropping one touches no reference count at all.
    #[inline]
    pub const fn empty() -> PageBuf {
        PageBuf {
            pool: None,
            shared: None,
        }
    }

    #[inline]
    fn buf_ref(&self) -> &Vec<u8> {
        self.shared.as_deref().unwrap_or(&EMPTY_BYTES)
    }

    /// Contents length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf_ref().len()
    }

    /// Whether the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf_ref().is_empty()
    }

    /// Read-only view of the contents.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        self.buf_ref()
    }

    /// Copies the contents into a standalone `Vec<u8>` (for callers that
    /// genuinely need ownership, e.g. long-lived result buffers).
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf_ref().clone()
    }

    /// Whether the handle holds storage (the empty payload holds none).
    pub(crate) fn has_storage(&self) -> bool {
        self.shared.is_some()
    }

    /// Whether both handles share one storage buffer.
    pub(crate) fn shares_storage(&self, other: &PageBuf) -> bool {
        match (&self.shared, &other.shared) {
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Clone for PageBuf {
    #[inline]
    fn clone(&self) -> PageBuf {
        PageBuf {
            pool: self.pool.clone(),
            shared: self.shared.clone(),
        }
    }
}

impl Drop for PageBuf {
    #[inline]
    fn drop(&mut self) {
        if let (Some(pool), Some(shared)) = (self.pool.take(), self.shared.take()) {
            pool.release(shared);
        }
        // Unpooled: the plain Rc drop frees the storage.
    }
}

impl Deref for PageBuf {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.buf_ref()
    }
}

impl From<Vec<u8>> for PageBuf {
    /// Wraps a plain vector with no pool attached (frees on drop). Keeps
    /// tests and cold paths ergonomic; hot paths should acquire from a pool.
    fn from(buf: Vec<u8>) -> PageBuf {
        PageBuf {
            pool: None,
            shared: Some(Rc::new(buf)),
        }
    }
}

impl fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render like a byte slice so derived Debug output of enclosing
        // types (phases, responses) stays readable and stable.
        fmt::Debug::fmt(self.buf_ref(), f)
    }
}

impl PartialEq for PageBuf {
    fn eq(&self, other: &Self) -> bool {
        self.buf_ref() == other.buf_ref()
    }
}

impl Eq for PageBuf {}

impl PartialEq<[u8]> for PageBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.buf_ref().as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for PageBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.buf_ref() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_instead_of_allocating() {
        let pool = BufPool::new(64);
        for _ in 0..100 {
            let mut b = pool.acquire();
            b.extend_from_slice(&[0xAB; 64]);
            drop(b.freeze());
        }
        let s = pool.stats();
        assert_eq!(s.acquires, 100);
        assert_eq!(s.allocs, 1, "only the first acquire may allocate");
        assert_eq!(s.grows, 0);
        assert_eq!(s.releases, 100);
        assert_eq!(s.in_use, 0);
        assert_eq!(s.high_water, 1);
    }

    #[test]
    fn clones_share_and_release_once() {
        let pool = BufPool::new(16);
        let mut w = pool.acquire();
        w.extend_from_slice(b"hello");
        let a = w.freeze();
        let b = a.clone();
        let c = a.clone();
        assert_eq!(pool.stats().in_use, 1);
        drop(a);
        drop(b);
        assert_eq!(pool.stats().releases, 0, "still one live handle");
        drop(c);
        assert_eq!(pool.stats().releases, 1);
        assert_eq!(pool.stats().in_use, 0);
    }

    #[test]
    fn growth_is_counted() {
        let pool = BufPool::new(4);
        let mut w = pool.acquire();
        w.extend_from_slice(&[0; 16]); // exceeds the 4-byte page size
        drop(w);
        assert_eq!(pool.stats().grows, 1);
        // The grown buffer keeps its capacity on reuse.
        let mut w = pool.acquire();
        w.extend_from_slice(&[0; 16]);
        assert_eq!(pool.stats().grows, 1);
        assert_eq!(pool.stats().allocs, 1);
    }

    #[test]
    fn warm_up_prefills() {
        let pool = BufPool::new(8);
        pool.warm_up(4);
        assert_eq!(pool.stats().allocs, 4);
        let bufs: Vec<PageBufMut> = (0..4).map(|_| pool.acquire()).collect();
        assert_eq!(pool.stats().allocs, 4, "warmed buffers are reused");
        drop(bufs);
    }

    #[test]
    fn unpooled_pagebuf_works() {
        let p = PageBuf::from(vec![1, 2, 3]);
        assert_eq!(&*p, &[1, 2, 3][..]);
        assert_eq!(p.len(), 3);
        assert_eq!(p, vec![1, 2, 3]);
        let q = p.clone();
        drop(p);
        assert_eq!(q.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn equality_is_by_contents() {
        let pool = BufPool::new(8);
        let mut a = pool.acquire();
        a.extend_from_slice(b"same");
        let a = a.freeze();
        let b = PageBuf::from(b"same".to_vec());
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn scratch_reuse_via_clear() {
        let pool = BufPool::new(8);
        let mut scratch = pool.acquire();
        for i in 0..10u8 {
            scratch.clear();
            scratch.extend_from_slice(&[i; 8]);
            assert_eq!(scratch.as_slice(), &[i; 8]);
        }
        drop(scratch);
        assert_eq!(pool.stats().allocs, 1);
        assert_eq!(pool.stats().grows, 0);
    }

    #[test]
    fn mut_buf_resize_and_slice() {
        let pool = BufPool::new(8);
        let mut w = pool.acquire();
        w.resize(4, 0xFF);
        w.as_mut_slice()[0] = 1;
        w.push(9);
        assert_eq!(&*w, &[1, 0xFF, 0xFF, 0xFF, 9][..]);
        assert_eq!(w.len(), 5);
        assert!(!w.is_empty());
    }

    #[test]
    fn pool_drops_cleanly_with_full_free_list() {
        // The free list must not keep the pool alive (no Rc cycle): fill
        // it, drop every handle, and let the pool itself drop.
        let pool = BufPool::new(8);
        let bufs: Vec<PageBuf> = (0..4).map(|_| pool.acquire().freeze()).collect();
        drop(bufs);
        assert_eq!(pool.stats().in_use, 0);
        drop(pool);
    }
}
