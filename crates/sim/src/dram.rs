//! The SSD's DRAM staging buffer.
//!
//! In a real SSD (paper Fig. 1, left) the host-interface controller stages
//! data in DRAM; the storage controller's Packetizer DMA unit moves page data
//! between that DRAM and the flash channel. This module models the DRAM as a
//! sparse byte-addressable space of written *extents*, each a [`PageData`]:
//! a page the DMA lands here stays described (a preloaded-page slice, a host
//! pattern) instead of being copied, and unwritten bytes read back as zero.
//! The experiments move hundreds of megabytes of simulated data, so both
//! sparseness and not copying matter. Bytes are produced only by the byte
//! reads ([`Dram::read`], [`Dram::read_vec`]).

use std::collections::BTreeMap;

use crate::data::PageData;

/// A sparse, byte-addressable simulated DRAM.
///
/// # Examples
///
/// ```
/// use babol_sim::{Dram, PageData};
///
/// let mut dram = Dram::new();
/// dram.write(0x1000, b"hello");
/// let mut buf = [0u8; 5];
/// dram.read(0x1000, &mut buf);
/// assert_eq!(&buf, b"hello");
///
/// // Unwritten space reads back as zeros without allocating.
/// let mut far = [0xAAu8; 4];
/// dram.read(1 << 40, &mut far);
/// assert_eq!(far, [0, 0, 0, 0]);
///
/// // Described payloads are stored as they are, not copied.
/// dram.write_data(0x2000, PageData::pattern(7, 4096));
/// assert_eq!(dram.read_vec(0x2002, 2), [9, 10]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dram {
    /// Written extents keyed by start address; they never overlap.
    extents: BTreeMap<u64, PageData>,
    bytes_read: u64,
    bytes_written: u64,
}

impl Dram {
    /// Creates an empty DRAM.
    pub fn new() -> Self {
        Dram::default()
    }

    /// Writes `data` starting at byte address `addr` (a copy of the bytes).
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.write_data(addr, PageData::from(data));
    }

    /// Stores `data` as the contents of `addr..addr + data.len()`, cutting
    /// back any extent it overlaps.
    pub fn write_data(&mut self, addr: u64, data: PageData) {
        let len = data.len() as u64;
        self.bytes_written += len;
        if len == 0 {
            return;
        }
        // The common rewrite of one DMA buffer: same address, same length.
        if let Some(old) = self.extents.get_mut(&addr) {
            if old.len() as u64 == len {
                *old = data;
                return;
            }
        }
        let end = addr + len;
        if let Some((&start, old)) = self.extents.range(..addr).next_back() {
            let old_end = start + old.len() as u64;
            if old_end > addr {
                let old = self.extents.remove(&start).expect("just found");
                self.extents
                    .insert(start, old.slice(0, (addr - start) as usize));
                if old_end > end {
                    let tail = old.slice((end - start) as usize, (old_end - end) as usize);
                    self.extents.insert(end, tail);
                }
            }
        }
        while let Some((&start, _)) = self.extents.range(addr..end).next() {
            let old = self.extents.remove(&start).expect("just found");
            let old_end = start + old.len() as u64;
            if old_end > end {
                let tail = old.slice((end - start) as usize, (old_end - end) as usize);
                self.extents.insert(end, tail);
            }
        }
        self.extents.insert(addr, data);
    }

    /// The contents of `addr..addr + len`, described: slices of the stored
    /// extents with zeros between them.
    pub fn read_data(&mut self, addr: u64, len: usize) -> PageData {
        self.bytes_read += len as u64;
        let mut out = PageData::empty();
        if len == 0 {
            return out;
        }
        let end = addr + len as u64;
        let mut pos = addr;
        let before = self.extents.range(..=addr).next_back();
        for (&start, extent) in before.into_iter().chain(self.extents.range(addr + 1..end)) {
            let extent_end = start + extent.len() as u64;
            if extent_end <= pos {
                continue;
            }
            if start > pos {
                out.append(PageData::fill(0, (start - pos) as usize));
                pos = start;
            }
            let take = extent_end.min(end) - pos;
            out.append(extent.slice((pos - start) as usize, take as usize));
            pos += take;
        }
        if pos < end {
            out.append(PageData::fill(0, (end - pos) as usize));
        }
        out
    }

    /// Reads into `buf` starting at byte address `addr`.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) {
        self.read_data(addr, buf.len()).materialize_into(buf);
    }

    /// Convenience: reads `len` bytes starting at `addr` into a new vector.
    pub fn read_vec(&mut self, addr: u64, len: usize) -> Vec<u8> {
        self.read_data(addr, len).materialize()
    }

    /// Total bytes written through this DRAM (DMA accounting).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total bytes read through this DRAM (DMA accounting).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Number of written extents held.
    pub fn extents(&self) -> usize {
        self.extents.len()
    }

    /// Drops all contents and resets accounting.
    pub fn clear(&mut self) {
        self.extents.clear();
        self.bytes_read = 0;
        self.bytes_written = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNK: u64 = 4096;

    #[test]
    fn roundtrip_within_one_chunk() {
        let mut d = Dram::new();
        d.write(10, &[1, 2, 3]);
        assert_eq!(d.read_vec(10, 3), vec![1, 2, 3]);
    }

    #[test]
    fn partial_overwrites_split_extents() {
        let mut d = Dram::new();
        let data: Vec<u8> = (0..=255).collect();
        d.write(CHUNK - 100, &data);
        d.write(CHUNK, &[7; 8]);
        let mut want = data.clone();
        want[100..108].fill(7);
        assert_eq!(d.read_vec(CHUNK - 100, 256), want);
        assert_eq!(d.extents(), 3);
        // An odd-address read straddling a gap: zeros between extents.
        d.write(CHUNK + 300, &[1, 2]);
        let got = d.read_vec(CHUNK + 155, 150);
        assert_eq!(got[0], 255);
        assert!(got[1..145].iter().all(|&b| b == 0));
        assert_eq!(&got[145..147], &[1, 2]);
        assert!(got[147..].iter().all(|&b| b == 0));
    }

    #[test]
    fn described_pages_are_stored_whole() {
        let mut d = Dram::new();
        let page = PageData::preloaded(3, 4, 16384);
        d.write_data(3, page.clone());
        assert_eq!(d.read_vec(3, 16384), page.materialize());
        assert_eq!(d.read_data(3, 16384).segments(), 1);
        assert_eq!(d.extents(), 1);
        // Rewriting the same buffer replaces it in place.
        d.write_data(3, PageData::pattern(1, 16384));
        assert_eq!(d.extents(), 1);
        assert_eq!(d.read_vec(5, 2), [3, 4]);
    }

    #[test]
    fn unwritten_reads_zero_and_stays_sparse() {
        let mut d = Dram::new();
        let v = d.read_vec(1 << 50, 64);
        assert!(v.iter().all(|&b| b == 0));
        assert_eq!(d.extents(), 0);
    }

    #[test]
    fn overwrite_replaces_bytes() {
        let mut d = Dram::new();
        d.write(0, &[1; 8]);
        d.write(4, &[2; 8]);
        assert_eq!(d.read_vec(0, 12), vec![1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn accounting_counts_bytes() {
        let mut d = Dram::new();
        d.write(0, &[0; 100]);
        d.read_vec(0, 40);
        assert_eq!(d.bytes_written(), 100);
        assert_eq!(d.bytes_read(), 40);
        d.clear();
        assert_eq!(d.bytes_written(), 0);
        assert_eq!(d.extents(), 0);
    }
}
