//! The bytes a transaction returns inline to the software.
//!
//! Data Readers with [`DmaDest::Inline`](crate::DmaDest::Inline) hand their
//! bytes to the operation instead of DRAM: a status byte, four feature
//! bytes, an ID, and at boot a parameter page. All but the last fit in
//! [`InlineBytes::CAPACITY`] bytes, which [`InlineBytes`] keeps in place,
//! so a status poll returns its result without touching the heap; longer
//! results spill to a `Vec`.

use std::fmt;
use std::ops::Deref;

/// Inline result bytes: up to [`InlineBytes::CAPACITY`] of them stored in
/// place, more on the heap. Reads as a `[u8]`; compares by its bytes and
/// prints like the `Vec<u8>` of the same bytes.
///
/// # Examples
///
/// ```
/// use babol_ufsm::InlineBytes;
///
/// let status = InlineBytes::from(&[0xE0][..]);
/// assert_eq!(status[0], 0xE0);
/// assert_eq!(*status, [0xE0]);
/// assert_eq!(format!("{status:?}"), "[224]");
/// ```
#[derive(Clone)]
pub struct InlineBytes(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        bytes: [u8; InlineBytes::CAPACITY],
    },
    Heap(Vec<u8>),
}

impl InlineBytes {
    /// Bytes kept in place: a READ ID's eight, a GET FEATURES' four, a
    /// READ STATUS' one.
    pub const CAPACITY: usize = 8;

    /// No bytes.
    pub const fn new() -> Self {
        InlineBytes(Repr::Inline {
            len: 0,
            bytes: [0; InlineBytes::CAPACITY],
        })
    }

    /// Appends `n` zero bytes and returns them to be filled, moving the
    /// bytes to the heap once they no longer fit in place.
    pub(crate) fn extend_zeroed(&mut self, n: usize) -> &mut [u8] {
        let at = self.len();
        let end = at + n;
        if end > InlineBytes::CAPACITY {
            if let Repr::Inline { bytes, .. } = &self.0 {
                let mut v = Vec::with_capacity(end);
                v.extend_from_slice(&bytes[..at]);
                self.0 = Repr::Heap(v);
            }
        }
        match &mut self.0 {
            Repr::Inline { len, bytes } => {
                *len = end as u8;
                &mut bytes[at..end]
            }
            Repr::Heap(v) => {
                v.resize(end, 0);
                &mut v[at..]
            }
        }
    }

    /// The bytes as a `Vec`, without a copy when they are on the heap.
    pub fn into_vec(self) -> Vec<u8> {
        match self.0 {
            Repr::Inline { len, bytes } => bytes[..len as usize].to_vec(),
            Repr::Heap(v) => v,
        }
    }
}

impl Default for InlineBytes {
    fn default() -> Self {
        InlineBytes::new()
    }
}

impl Deref for InlineBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl From<&[u8]> for InlineBytes {
    fn from(bytes: &[u8]) -> Self {
        let mut out = InlineBytes::new();
        out.extend_zeroed(bytes.len()).copy_from_slice(bytes);
        out
    }
}

impl fmt::Debug for InlineBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for InlineBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for InlineBytes {}

#[cfg(test)]
mod tests {
    use super::*;

    fn spilled(b: &InlineBytes) -> bool {
        matches!(b.0, Repr::Heap(_))
    }

    #[test]
    fn spills_to_the_heap_exactly_past_capacity() {
        let full: Vec<u8> = (1..=InlineBytes::CAPACITY as u8).collect();
        let at_capacity = InlineBytes::from(&full[..]);
        assert!(!spilled(&at_capacity));
        assert_eq!(*at_capacity, full[..]);

        // Grown one chunk at a time, as `execute` fills it reader by reader.
        let mut b = InlineBytes::new();
        b.extend_zeroed(1)[0] = 0xE0;
        b.extend_zeroed(InlineBytes::CAPACITY - 1).fill(7);
        assert!(!spilled(&b));
        b.extend_zeroed(1)[0] = 9;
        assert!(spilled(&b));
        let mut want = vec![0xE0];
        want.extend([7; InlineBytes::CAPACITY - 1]);
        want.push(9);
        assert_eq!(*b, want[..]);
        assert_eq!(b.clone().into_vec(), want);

        let long = vec![0x5A; 256];
        let page = InlineBytes::from(&long[..]);
        assert!(spilled(&page));
        assert_eq!(page.into_vec(), long);
    }

    #[test]
    fn renders_and_compares_like_a_vec() {
        for bytes in [vec![], vec![0x40], vec![1, 2, 3, 4], vec![0xA5; 300]] {
            let b = InlineBytes::from(&bytes[..]);
            assert_eq!(format!("{b:?}"), format!("{bytes:?}"));
            assert_eq!(format!("{b:#?}"), format!("{bytes:#?}"));
            assert_eq!(*b, bytes[..]);
            assert_eq!(b, InlineBytes::from(&bytes[..]));
            assert_eq!(b.len(), bytes.len());
        }
        // Equal bytes compare equal whether they sit in place or spilled.
        let mut spilled_short = InlineBytes::from(&[0u8; InlineBytes::CAPACITY + 1][..]);
        if let Repr::Heap(v) = &mut spilled_short.0 {
            v.truncate(2);
        }
        assert_eq!(spilled_short, InlineBytes::from(&[0u8, 0][..]));
        assert_ne!(InlineBytes::from(&[1u8][..]), InlineBytes::from(&[2u8][..]));
        assert_eq!(InlineBytes::default(), InlineBytes::new());
        assert!(InlineBytes::default().is_empty());
    }
}
