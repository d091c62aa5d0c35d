//! The ONFI status register.
//!
//! A READ STATUS operation (`0x70`) returns one byte whose bits report the
//! state of the addressed LUN. The paper's Algorithm 2 polls this byte until
//! the "ready" bit (`0x40`) is set before transferring data out — exactly the
//! loop this module's [`Status`] type supports.

use std::fmt;
use std::ops::{BitAnd, BitOr};

/// A decoded ONFI status byte.
///
/// Bit assignments follow ONFI 5.x Table "Status field definitions":
///
/// | bit | name | meaning |
/// |-----|------|---------|
/// | 0 | FAIL   | last operation failed |
/// | 1 | FAILC  | previous (cached) operation failed |
/// | 5 | ARDY   | array ready (no array operation in progress) |
/// | 6 | RDY    | LUN ready for another command |
/// | 7 | WP_N   | write-protect disengaged |
///
/// # Examples
///
/// ```
/// use babol_onfi::Status;
///
/// let st = Status::ready();
/// assert!(st.is_ready());
/// assert!(!st.failed());
/// assert_eq!(st.bits() & 0x40, 0x40); // the paper's "done" mask
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Status(u8);

impl Status {
    /// FAIL: the last completed operation failed.
    pub const FAIL: u8 = 1 << 0;
    /// FAILC: the operation before last (cache pipeline) failed.
    pub const FAILC: u8 = 1 << 1;
    /// ARDY: the flash array is idle.
    pub const ARDY: u8 = 1 << 5;
    /// RDY: the LUN can accept a new command.
    pub const RDY: u8 = 1 << 6;
    /// WP_N: write protect is *not* engaged.
    pub const WP_N: u8 = 1 << 7;

    /// Creates a status from a raw byte.
    pub const fn from_bits(bits: u8) -> Self {
        Status(bits)
    }

    /// Raw status byte.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// A LUN that is idle, ready, and writable: `RDY | ARDY | WP_N`.
    pub const fn ready() -> Self {
        Status(Self::RDY | Self::ARDY | Self::WP_N)
    }

    /// A LUN busy with an array operation: only `WP_N` set.
    pub const fn busy() -> Self {
        Status(Self::WP_N)
    }

    /// A LUN that is ready for commands while its array still works
    /// (cache operations: RDY set, ARDY clear).
    pub const fn cache_busy() -> Self {
        Status(Self::RDY | Self::WP_N)
    }

    /// True if the RDY bit is set — the paper's `status & 0x40` test.
    pub const fn is_ready(self) -> bool {
        self.0 & Self::RDY != 0
    }

    /// True if the array is idle (ARDY).
    pub const fn array_ready(self) -> bool {
        self.0 & Self::ARDY != 0
    }

    /// True if the last operation failed.
    pub const fn failed(self) -> bool {
        self.0 & Self::FAIL != 0
    }

    /// True if the previous (cached) operation failed.
    pub const fn cache_failed(self) -> bool {
        self.0 & Self::FAILC != 0
    }

    /// True if writes are permitted.
    pub const fn writable(self) -> bool {
        self.0 & Self::WP_N != 0
    }

    /// Returns this status with the FAIL bit set.
    pub const fn with_fail(self) -> Self {
        Status(self.0 | Self::FAIL)
    }
}

impl BitOr for Status {
    type Output = Status;
    fn bitor(self, rhs: Status) -> Status {
        Status(self.0 | rhs.0)
    }
}

impl BitAnd for Status {
    type Output = Status;
    fn bitand(self, rhs: Status) -> Status {
        Status(self.0 & rhs.0)
    }
}

impl From<u8> for Status {
    fn from(bits: u8) -> Self {
        Status(bits)
    }
}

impl From<Status> for u8 {
    fn from(s: Status) -> u8 {
        s.0
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        if self.is_ready() {
            names.push("RDY");
        }
        if self.array_ready() {
            names.push("ARDY");
        }
        if self.failed() {
            names.push("FAIL");
        }
        if self.cache_failed() {
            names.push("FAILC");
        }
        if self.writable() {
            names.push("WP#");
        }
        if names.is_empty() {
            names.push("BUSY");
        }
        write!(f, "{:#04x}[{}]", self.0, names.join("|"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_has_rdy_and_ardy() {
        let s = Status::ready();
        assert!(s.is_ready() && s.array_ready() && s.writable());
        assert!(!s.failed());
    }

    #[test]
    fn busy_clears_ready_bits() {
        let s = Status::busy();
        assert!(!s.is_ready());
        assert!(!s.array_ready());
        assert!(s.writable());
    }

    #[test]
    fn cache_busy_is_ready_but_array_busy() {
        let s = Status::cache_busy();
        assert!(s.is_ready());
        assert!(!s.array_ready());
    }

    #[test]
    fn fail_bits() {
        assert!(Status::ready().with_fail().failed());
        assert!(Status::ready().with_fail().is_ready());
        assert!(Status::from_bits(Status::FAILC).cache_failed());
        assert!(Status::busy().with_fail().failed());
    }

    #[test]
    fn paper_done_mask_is_0x40() {
        // Algorithm 2 line 9 tests `status != 0x40`; the RDY bit must be bit 6.
        assert_eq!(Status::RDY, 0x40);
        assert_eq!(Status::ready().bits() & 0x40, 0x40);
        assert_eq!(Status::busy().bits() & 0x40, 0x00);
    }

    #[test]
    fn roundtrip_and_ops() {
        let s: Status = 0x61u8.into();
        assert_eq!(u8::from(s), 0x61);
        assert_eq!((s & Status::from_bits(0x40)).bits(), 0x40);
        assert!((Status::busy() | Status::from_bits(Status::RDY)).is_ready());
    }

    #[test]
    fn display_is_informative() {
        assert!(Status::ready().to_string().contains("RDY"));
        assert!(Status::from_bits(0).to_string().contains("BUSY"));
    }
}
