//! The phase-level waveform vocabulary exchanged on a flash channel.
//!
//! The ONFI standard composes operations from *Basic Timing Cycles* — small
//! waveform fragments that each establish one piece of information (a
//! command byte, address bytes, a data burst). Simulating every pin edge of
//! a 16 KiB data burst would generate tens of thousands of events per page,
//! so the channel model transmits *phases*: one timed unit per BTC-like
//! fragment.

use std::fmt;

use babol_sim::{PageData, SimDuration};

use crate::opcode;

/// One waveform phase as seen on the channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseKind {
    /// A command latch carrying one opcode byte (CLE high, WE# strobed).
    CmdLatch(u8),
    /// Address latches carrying the given bytes (ALE high, WE# strobed).
    AddrLatch(Vec<u8>),
    /// A data-in burst: `data` flows from controller to the selected LUN's
    /// page register at the current column offset. The payload is a
    /// described [`PageData`], so building a phase never copies page
    /// contents.
    DataIn(PageData),
    /// A data-out burst: the selected LUN streams `bytes` bytes from its
    /// page register at the current column offset.
    DataOut {
        /// Number of bytes requested.
        bytes: usize,
    },
    /// A deliberate pause: the bus is held owned but idle (Timer μFSM).
    Pause,
}

impl PhaseKind {
    /// Short classification used by traces.
    pub fn label(&self) -> String {
        match self {
            PhaseKind::CmdLatch(op) => format!("CMD {}", opcode::mnemonic(*op)),
            PhaseKind::AddrLatch(bytes) => format!("ADDR[{}]", bytes.len()),
            PhaseKind::DataIn(data) => format!("DIN[{}]", data.len()),
            PhaseKind::DataOut { bytes } => format!("DOUT[{bytes}]"),
            PhaseKind::Pause => "PAUSE".to_string(),
        }
    }
}

/// A timed waveform phase: what happens and for how long the bus is held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusPhase {
    /// The information content of the phase.
    pub kind: PhaseKind,
    /// Bus occupancy of the phase, including its internal setup/hold times.
    pub duration: SimDuration,
}

impl BusPhase {
    /// Creates a phase.
    pub fn new(kind: PhaseKind, duration: SimDuration) -> Self {
        BusPhase { kind, duration }
    }
}

impl fmt::Display for BusPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.kind.label(), self.duration)
    }
}

/// A chip-enable bitmap selecting which LUNs of a channel observe a segment.
///
/// The Chip Control μFSM (paper Fig. 6d) takes exactly this: "a bitmap with
/// one bit per package in the channel", enabling gang-scheduled operations
/// such as RAIL-style replicated reads.
///
/// # Examples
///
/// ```
/// use babol_onfi::bus::ChipMask;
///
/// let one = ChipMask::single(3);
/// assert!(one.contains(3) && !one.contains(2));
///
/// let gang = ChipMask::single(0) | ChipMask::single(5);
/// assert_eq!(gang.iter().collect::<Vec<_>>(), vec![0, 5]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ChipMask(pub u16);

impl ChipMask {
    /// No LUN selected.
    pub const NONE: ChipMask = ChipMask(0);

    /// Selects a single LUN.
    pub fn single(lun: u32) -> Self {
        assert!(lun < 16, "channel supports at most 16 LUNs");
        ChipMask(1 << lun)
    }

    /// Selects LUNs `0..n`.
    pub fn first_n(n: u32) -> Self {
        assert!(n <= 16);
        if n == 16 {
            ChipMask(u16::MAX)
        } else {
            ChipMask((1u16 << n) - 1)
        }
    }

    /// True if `lun` is selected.
    pub fn contains(self, lun: u32) -> bool {
        lun < 16 && self.0 & (1 << lun) != 0
    }

    /// True if no LUN is selected.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of selected LUNs.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterates over selected LUN indexes in ascending order, visiting only
    /// the set bits.
    pub fn iter(self) -> impl Iterator<Item = u32> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let lun = bits.trailing_zeros();
                bits &= bits - 1;
                lun
            })
        })
    }
}

impl std::ops::BitOr for ChipMask {
    type Output = ChipMask;
    fn bitor(self, rhs: ChipMask) -> ChipMask {
        ChipMask(self.0 | rhs.0)
    }
}

impl std::ops::BitAnd for ChipMask {
    type Output = ChipMask;
    fn bitand(self, rhs: ChipMask) -> ChipMask {
        ChipMask(self.0 & rhs.0)
    }
}

impl fmt::Display for ChipMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CE[")?;
        let mut first = true;
        for lun in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{lun}")?;
            first = false;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_single_and_union() {
        let m = ChipMask::single(2) | ChipMask::single(7);
        assert!(m.contains(2) && m.contains(7) && !m.contains(3));
        assert_eq!(m.count(), 2);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![2, 7]);
    }

    #[test]
    fn mask_iter_matches_contains_for_every_mask() {
        for bits in 0..=u16::MAX {
            let m = ChipMask(bits);
            let want: Vec<u32> = (0..16).filter(|&i| m.contains(i)).collect();
            assert_eq!(m.iter().collect::<Vec<_>>(), want, "mask {bits:#06x}");
        }
    }

    #[test]
    fn mask_first_n() {
        assert_eq!(ChipMask::first_n(4).count(), 4);
        assert_eq!(ChipMask::first_n(16).count(), 16);
        assert!(ChipMask::first_n(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "at most 16")]
    fn mask_rejects_large_lun() {
        ChipMask::single(16);
    }

    #[test]
    fn mask_intersection() {
        let a = ChipMask::first_n(4);
        let b = ChipMask::single(3) | ChipMask::single(9);
        assert_eq!((a & b).iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn phase_labels() {
        assert_eq!(
            PhaseKind::CmdLatch(crate::opcode::op::READ_STATUS).label(),
            "CMD READ-STATUS"
        );
        assert_eq!(PhaseKind::AddrLatch(vec![1, 2, 3]).label(), "ADDR[3]");
        assert_eq!(PhaseKind::DataOut { bytes: 16384 }.label(), "DOUT[16384]");
        assert_eq!(PhaseKind::DataIn(vec![0; 4].into()).label(), "DIN[4]");
        assert_eq!(PhaseKind::Pause.label(), "PAUSE");
    }

    #[test]
    fn phase_display_includes_duration() {
        let p = BusPhase::new(PhaseKind::Pause, SimDuration::from_nanos(100));
        assert_eq!(p.to_string(), "PAUSE (100ns)");
    }

    #[test]
    fn mask_display() {
        assert_eq!(
            (ChipMask::single(0) | ChipMask::single(5)).to_string(),
            "CE[0,5]"
        );
        assert_eq!(ChipMask::NONE.to_string(), "CE[]");
    }
}
