//! Described page payloads.
//!
//! A 16 KiB page crosses five layers on its way from the flash array to
//! controller DRAM (array → page register → data-out burst → channel →
//! DRAM) and back on a program. Almost every page the simulator moves has
//! content a formula can give: a preloaded page is a SplitMix64 stream, a
//! host write is the FTL's LPN pattern, an erased page is all `0xFF` and
//! unwritten DRAM is zeros. [`PageData`] carries such content as a short
//! list of *segments*, each a byte range of one source, so every layer
//! passes, slices and concatenates a few words instead of copying the
//! bytes. Bytes are produced only where something reads them
//! ([`PageData::materialize`], [`PageData::materialize_into`],
//! [`PageData::first_byte`]), and every byte they produce equals the byte
//! the copying data path held.
//!
//! The sources:
//!
//! * the preloaded-page stream ([`PageData::preloaded`]): byte `k` is byte
//!   `k mod 8` (little-endian) of the `k/8 + 1`-th output of a
//!   [`SplitMix64`] seeded `seed ^ page·γ`, addressable by byte;
//! * the host pattern ([`PageData::pattern`]): byte `k` is `base + k`
//!   (mod 256);
//! * a fill byte ([`PageData::fill`]);
//! * shared raw bytes, a [`PageBuf`], for content no formula describes.
//!
//! Contiguous pieces of one source coalesce into one segment. A payload
//! holds at most [`MAX_SEGMENTS`]; one that would need more is
//! materialized into a single raw segment, so the cost of any operation
//! stays bounded.
//!
//! # Examples
//!
//! ```
//! use babol_sim::PageData;
//!
//! // An erased 8-byte register with a 3-byte pattern written at column 2.
//! let mut reg = PageData::fill(0xFF, 8);
//! reg.overlay(2, &PageData::pattern(7, 3));
//! assert_eq!(reg.materialize(), [0xFF, 0xFF, 7, 8, 9, 0xFF, 0xFF, 0xFF]);
//! assert_eq!(reg.segments(), 3);
//!
//! // Slices of one source concatenate back into one segment.
//! let page = PageData::preloaded(1, 2, 64);
//! let mut joined = page.slice(0, 20);
//! joined.append(page.slice(20, 44));
//! assert_eq!(joined, page);
//! assert_eq!(joined.segments(), 1);
//! ```

use std::fmt;
use std::rc::Rc;

use crate::rng::SplitMix64;

/// The raw bytes of a payload: one shared, immutable byte slice. Clones
/// are reference-count bumps.
pub type PageBuf = Rc<[u8]>;

/// Most segments one [`PageData`] holds before it is materialized into a
/// single raw segment. Three covers every shape the data path builds: a
/// program register is an erased fill around at most one written range,
/// and a read window is one source, whose `0xFF` padding past the page
/// end joins the register's erased tail. Three segments and the raw
/// handle make a payload 64 bytes, the size of every bus phase's
/// `PhaseKind`; a four-segment layout measured slower on small-page GC
/// writes (EXPERIMENTS.md §Described page data).
pub const MAX_SEGMENTS: usize = 3;

/// Longest payload, in bytes (segment lengths share a word with the
/// segment kind).
const MAX_LEN: usize = (1 << KIND_SHIFT) - 1;

const KIND_SHIFT: u32 = 30;

/// Where a segment's bytes come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The preloaded-page SplitMix64 stream whose state is the key.
    Synth,
    /// The host pattern: byte `k` of the stream is `key + k`.
    Pattern,
    /// Every byte is the key.
    Fill,
    /// The payload's raw buffer; the stream is the buffer.
    Raw,
}

/// Bytes `start..start + len` of one source's stream. Plain data: the
/// raw buffer a `Raw` segment reads lives in its [`PageData`], so copying
/// or dropping a segment is free.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// The stream state (`Synth`), base byte (`Pattern`) or fill byte.
    key: u64,
    /// Offset of the first byte in the stream.
    start: u32,
    /// The kind in the top two bits, the length below.
    tagged_len: u32,
}

impl Segment {
    const EMPTY: Segment = Segment {
        key: 0,
        start: 0,
        tagged_len: 0,
    };

    fn new(kind: Kind, key: u64, start: usize, len: usize) -> Segment {
        assert!(
            start <= u32::MAX as usize && len <= MAX_LEN,
            "payload too long"
        );
        Segment {
            key,
            start: start as u32,
            tagged_len: (kind as u32) << KIND_SHIFT | len as u32,
        }
    }

    fn kind(self) -> Kind {
        match self.tagged_len >> KIND_SHIFT {
            0 => Kind::Synth,
            1 => Kind::Pattern,
            2 => Kind::Fill,
            _ => Kind::Raw,
        }
    }

    fn len(self) -> usize {
        (self.tagged_len & MAX_LEN as u32) as usize
    }

    /// Bytes `from..from + len` of this segment.
    fn sub(self, from: usize, len: usize) -> Segment {
        Segment::new(self.kind(), self.key, self.start as usize + from, len)
    }

    /// Whether `next` continues this segment's stream where it ends.
    fn continued_by(self, next: Segment) -> bool {
        self.kind() == next.kind()
            && self.key == next.key
            && (self.kind() == Kind::Fill
                || self.start as usize + self.len() == next.start as usize)
    }

    /// Bytes `off..off + out.len()` of this segment into `out`; `raw` is
    /// the payload's raw buffer.
    fn write(self, raw: &[u8], off: usize, out: &mut [u8]) {
        let at = self.start as usize + off;
        match self.kind() {
            Kind::Synth => fill_preloaded(self.key, at, out),
            Kind::Pattern => {
                for (i, b) in out.iter_mut().enumerate() {
                    *b = (self.key as u8).wrapping_add((at + i) as u8);
                }
            }
            Kind::Fill => out.fill(self.key as u8),
            Kind::Raw => out.copy_from_slice(&raw[at..at + out.len()]),
        }
    }
}

/// An immutable page payload described as at most [`MAX_SEGMENTS`]
/// segments. Clones copy the descriptors (and bump the reference count of
/// the raw buffer, if any), never the bytes; equality compares the bytes.
#[derive(Clone)]
pub struct PageData {
    /// The segments in order; unused ones (at the end) are empty.
    segs: [Segment; MAX_SEGMENTS],
    /// The one buffer every `Raw` segment reads; `None` when there are
    /// none.
    raw: Option<PageBuf>,
}

impl PageData {
    /// The empty payload.
    pub const fn empty() -> PageData {
        PageData {
            segs: [Segment::EMPTY; MAX_SEGMENTS],
            raw: None,
        }
    }

    /// The raw buffer's bytes (empty when there is none).
    fn raw(&self) -> &[u8] {
        self.raw.as_deref().unwrap_or_default()
    }

    fn single(kind: Kind, key: u64, len: usize) -> PageData {
        let mut d = PageData::empty();
        d.push(Segment::new(kind, key, 0, len));
        d
    }

    /// `len` copies of `byte`.
    pub fn fill(byte: u8, len: usize) -> PageData {
        PageData::single(Kind::Fill, byte.into(), len)
    }

    /// The first `len` bytes of preloaded page `page_index` of an array
    /// seeded `seed`: the little-endian output words of a [`SplitMix64`]
    /// seeded with `seed ^ page_index·γ`, the last word truncated.
    pub fn preloaded(seed: u64, page_index: u64, len: usize) -> PageData {
        let state = seed ^ page_index.wrapping_mul(SplitMix64::GAMMA);
        PageData::single(Kind::Synth, state, len)
    }

    /// The host pattern: `len` bytes counting up from `base`, wrapping at
    /// 256 (byte `i` is `base + i`).
    pub fn pattern(base: u8, len: usize) -> PageData {
        PageData::single(Kind::Pattern, base.into(), len)
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.segs.iter().map(|s| s.len()).sum()
    }

    /// Whether the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.segs[0].len() == 0
    }

    /// Number of segments describing the payload (at most
    /// [`MAX_SEGMENTS`]).
    #[inline]
    pub fn segments(&self) -> usize {
        self.segs.iter().take_while(|s| s.len() > 0).count()
    }

    fn segs(&self) -> &[Segment] {
        &self.segs[..self.segments()]
    }

    fn has_raw(&self) -> bool {
        self.segs().iter().any(|s| s.kind() == Kind::Raw)
    }

    /// Appends a segment, coalescing it with the last one when it
    /// continues that stream. The caller guarantees room or a
    /// continuation, and sets `raw` for a raw segment.
    fn push(&mut self, seg: Segment) {
        let len = seg.len();
        if len == 0 {
            return;
        }
        assert!(self.len() + len <= MAX_LEN, "payload too long");
        let n = self.segments();
        if let Some(last) = self.segs[..n].last_mut() {
            if last.continued_by(seg) {
                *last = Segment::new(last.kind(), last.key, last.start as usize, last.len() + len);
                return;
            }
        }
        self.segs[n] = seg;
    }

    /// Bytes `start..start + len` as a new payload.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end.
    pub fn slice(&self, start: usize, len: usize) -> PageData {
        assert!(
            start + len <= self.len(),
            "slice {start}+{len} past a {}-byte payload",
            self.len()
        );
        let mut out = PageData::empty();
        let mut pos = 0;
        for &seg in self.segs() {
            if out.len() == len {
                break;
            }
            let end = pos + seg.len();
            if end > start {
                let from = start.max(pos) - pos;
                let to = (start + len).min(end) - pos;
                out.push(seg.sub(from, to - from));
            }
            pos = end;
        }
        if out.has_raw() {
            out.raw = self.raw.clone();
        }
        out
    }

    /// Appends `other`, coalescing contiguous pieces of one source. If the
    /// result would need more than [`MAX_SEGMENTS`] segments, or raw
    /// segments of two different buffers, it is materialized into one raw
    /// segment.
    pub fn append(&mut self, other: PageData) {
        let Some(&first) = other.segs().first() else {
            return;
        };
        let joined = self.segs().last().is_some_and(|&l| l.continued_by(first));
        let fits = self.segments() + other.segments() - usize::from(joined) <= MAX_SEGMENTS;
        let one_buffer = match (&self.raw, &other.raw) {
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            _ => true,
        };
        if !fits || !one_buffer {
            let mut bytes = vec![0; self.len() + other.len()];
            let (head, tail) = bytes.split_at_mut(self.len());
            self.materialize_into(head);
            other.materialize_into(tail);
            *self = PageData::from(bytes);
            return;
        }
        for &seg in other.segs() {
            self.push(seg);
        }
        if self.raw.is_none() {
            self.raw = other.raw;
        }
    }

    /// Replaces bytes `at..at + data.len()` with `data`.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end.
    pub fn overlay(&mut self, at: usize, data: &PageData) {
        let end = at + data.len();
        assert!(
            end <= self.len(),
            "overlay {at}+{} past a {}-byte payload",
            data.len(),
            self.len()
        );
        // A program register is written from column 0: no head to slice.
        let mut out = if at == 0 {
            data.clone()
        } else {
            let mut head = self.slice(0, at);
            head.append(data.clone());
            head
        };
        out.append(self.slice(end, self.len() - end));
        *self = out;
    }

    /// Writes the bytes into `out`, which must be exactly [`len`] long.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the payload length.
    ///
    /// [`len`]: PageData::len
    pub fn materialize_into(&self, out: &mut [u8]) {
        assert_eq!(
            out.len(),
            self.len(),
            "materialize_into needs {} bytes",
            self.len()
        );
        self.write_range(0, out);
    }

    /// The bytes as a new vector.
    pub fn materialize(&self) -> Vec<u8> {
        let mut out = vec![0; self.len()];
        self.materialize_into(&mut out);
        out
    }

    /// The first byte, if any (a status or feature value).
    pub fn first_byte(&self) -> Option<u8> {
        let seg = *self.segs().first()?;
        let mut b = [0];
        seg.write(self.raw(), 0, &mut b);
        Some(b[0])
    }

    /// Whether bytes `at..at + want.len()` (at most [`EQ_CHUNK`]) equal
    /// `want`.
    fn eq_at(&self, at: usize, want: &[u8]) -> bool {
        let mut a = [0u8; EQ_CHUNK];
        let got = &mut a[..want.len()];
        self.write_range(at, got);
        got == want
    }

    /// Bytes `start..start + out.len()` into `out`.
    fn write_range(&self, start: usize, out: &mut [u8]) {
        let mut pos = 0;
        let mut done = 0;
        for &seg in self.segs() {
            let end = pos + seg.len();
            let want = start + done;
            if want < end && done < out.len() {
                let take = (end - want).min(out.len() - done);
                seg.write(self.raw(), want - pos, &mut out[done..done + take]);
                done += take;
            }
            pos = end;
        }
    }
}

impl From<PageBuf> for PageData {
    /// One raw segment over the buffer (shared, not copied).
    fn from(buf: PageBuf) -> PageData {
        let mut d = PageData::single(Kind::Raw, 0, buf.len());
        if !d.is_empty() {
            d.raw = Some(buf);
        }
        d
    }
}

impl From<Vec<u8>> for PageData {
    /// One raw segment holding the vector's bytes.
    fn from(bytes: Vec<u8>) -> PageData {
        PageData::from(PageBuf::from(bytes))
    }
}

impl From<&[u8]> for PageData {
    /// One raw segment holding a copy of `bytes`.
    fn from(bytes: &[u8]) -> PageData {
        PageData::from(bytes.to_vec())
    }
}

/// Bytes compared per step of the equality checks, materialized on the
/// stack.
const EQ_CHUNK: usize = 512;

impl PartialEq for PageData {
    /// Byte equality, compared in stack-sized chunks.
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut b = [0u8; EQ_CHUNK];
        (0..self.len()).step_by(EQ_CHUNK).all(|at| {
            let want = &mut b[..EQ_CHUNK.min(self.len() - at)];
            other.write_range(at, want);
            self.eq_at(at, want)
        })
    }
}

impl Eq for PageData {}

impl PartialEq<[u8]> for PageData {
    fn eq(&self, other: &[u8]) -> bool {
        self.len() == other.len()
            && other
                .chunks(EQ_CHUNK)
                .enumerate()
                .all(|(i, want)| self.eq_at(i * EQ_CHUNK, want))
    }
}

impl fmt::Debug for PageData {
    /// Renders like a byte slice, so derived `Debug` output of enclosing
    /// types (phases, responses) shows contents, not descriptors.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut bytes = vec![0; self.len()];
        self.write_range(0, &mut bytes);
        fmt::Debug::fmt(&bytes[..], f)
    }
}

/// Fills `out` with bytes `start..start + out.len()` of the SplitMix64
/// stream whose first word is `mix(state + γ)`: byte `k` is byte `k mod 8`
/// of word `k / 8`, `mix(state + (k/8 + 1)·γ)`.
fn fill_preloaded(state: u64, start: usize, out: &mut [u8]) {
    let word =
        |i: u64| SplitMix64::mix(state.wrapping_add((i + 1).wrapping_mul(SplitMix64::GAMMA)));
    let mut index = (start / 8) as u64;
    let skip = start % 8;
    let mut out = out;
    if skip != 0 {
        let n = (8 - skip).min(out.len());
        out[..n].copy_from_slice(&word(index).to_le_bytes()[skip..skip + n]);
        out = &mut out[n..];
        index += 1;
    }
    fill_words(
        state.wrapping_add(index.wrapping_mul(SplitMix64::GAMMA)),
        out,
    );
}

/// The word-aligned kernel. The state advances by γ per word, so lane `k`
/// of a vector is `state + k·γ` and the only loop-carried value is that
/// induction variable, so the loop vectorizes.
#[inline(always)]
fn fill_words(mut state: u64, out: &mut [u8]) {
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
    use super::*;

    /// The generator as first written: whole SplitMix64 words, truncated.
    fn reference_page(seed: u64, page_index: u64, len: usize) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed ^ page_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    const LENGTHS: [usize; 10] = [0, 1, 7, 8, 9, 31, 32, 33, 576, 18256];

    #[test]
    fn preloaded_stream_matches_the_reference() {
        let seeds = [0, 1, 0xBAB01, 0x9E37_79B9_7F4A_7C15, u64::MAX];
        let pages = [0, 1, 2, 4095, 1 << 40, u64::MAX];
        for seed in seeds {
            for page in pages {
                for len in LENGTHS {
                    let want = reference_page(seed, page, len);
                    assert_eq!(
                        PageData::preloaded(seed, page, len).materialize(),
                        want,
                        "seed {seed:#x} page {page} len {len}"
                    );
                    // Every unaligned window of the stream, too.
                    for start in [0, 1, 3, 7, 8, 13].into_iter().filter(|&s| s <= len) {
                        let mut got = vec![0xA5; len - start];
                        let state = seed ^ page.wrapping_mul(SplitMix64::GAMMA);
                        fill_preloaded(state, start, &mut got);
                        assert_eq!(got, want[start..], "start {start} len {len}");
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
    fn overflowing_segments_materialize_into_one() {
        let mut d = PageData::empty();
        let mut want = Vec::new();
        for i in 0..MAX_SEGMENTS as u8 {
            d.append(PageData::fill(i, 3));
            want.extend_from_slice(&[i; 3]);
        }
        assert_eq!(d.segments(), MAX_SEGMENTS);
        d.append(PageData::pattern(9, 2));
        want.extend_from_slice(&[9, 10]);
        assert_eq!(d.segments(), 1);
        assert!(d.raw.is_some());
        assert_eq!(d.materialize(), want);
        // A continuation of the last segment still fits.
        let mut e = PageData::empty();
        for i in 0..MAX_SEGMENTS as u8 {
            e.append(PageData::fill(i, 1));
        }
        e.append(PageData::fill(MAX_SEGMENTS as u8 - 1, 1));
        assert_eq!(e.segments(), MAX_SEGMENTS);
        if cfg!(target_pointer_width = "64") {
            assert_eq!(std::mem::size_of::<PageData>(), 64);
        }
    }

    #[test]
    fn two_raw_buffers_materialize_into_one() {
        let mut d = PageData::from(vec![1, 2]);
        d.append(PageData::fill(0, 1));
        d.append(PageData::from(vec![3]));
        assert_eq!(d.segments(), 1);
        assert_eq!(d.materialize(), [1, 2, 0, 3]);
        // Slices of one buffer rejoin without a copy.
        let whole = PageData::from(vec![5, 6, 7, 8]);
        let mut e = whole.slice(0, 1);
        e.append(whole.slice(1, 3));
        assert_eq!(e.segments(), 1);
        assert_eq!(e, whole);
        // A slice holding no raw segment holds no buffer.
        let mut f = PageData::fill(9, 2);
        f.append(whole.clone());
        assert!(f.slice(0, 2).raw.is_none());
    }

    #[test]
    fn first_byte_and_equality() {
        assert_eq!(PageData::empty().first_byte(), None);
        assert_eq!(PageData::fill(0xE0, 3).first_byte(), Some(0xE0));
        assert_eq!(PageData::pattern(5, 2), [5u8, 6][..]);
        assert_ne!(PageData::pattern(5, 2), PageData::pattern(5, 3));
        assert_eq!(format!("{:?}", PageData::fill(1, 2)), "[1, 1]");
    }
}
