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

/// How a data burst crosses the bus in packets (the packetizer's DMA
/// units, paper §IV-A): `count` packets of `size` bytes, the last one
/// holding what is left, each preceded by a descriptor gap when the
/// burst has one. The last packet takes whatever of the phase's
/// duration the others leave.
///
/// A packetized burst is one phase to the controller, the channel and the
/// LUN, but the bus still sees its packets one by one: each gap and each
/// packet counts as a bus phase and an analyzer row, and a LUN takes each
/// packet at its trailing edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packets {
    /// Number of packets (at least one).
    pub count: u32,
    /// Bytes of every packet but the last.
    pub size: usize,
    /// The bus gap before each packet, if the burst has gaps.
    pub gap: Option<SimDuration>,
    /// Bus time of every packet but the last.
    pub full: SimDuration,
}

impl Packets {
    /// Bus time from the start of the burst to the end of the packet
    /// before the last: what the last packet and its gap follow.
    fn before_last(&self) -> SimDuration {
        (self.gap.unwrap_or(SimDuration::ZERO) + self.full) * (self.count as u64 - 1)
    }
}

/// A timed waveform phase: what happens and for how long the bus is held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusPhase {
    /// The information content of the phase.
    pub kind: PhaseKind,
    /// Bus occupancy of the phase, including its internal setup/hold times
    /// and, for a packetized burst, every packet and gap.
    pub duration: SimDuration,
    /// How a data burst is split into packets; `None` for a phase that
    /// crosses the bus in one piece.
    pub packets: Option<Packets>,
}

impl BusPhase {
    /// Creates a phase that crosses the bus in one piece.
    pub fn new(kind: PhaseKind, duration: SimDuration) -> Self {
        BusPhase {
            kind,
            duration,
            packets: None,
        }
    }

    /// Creates a packetized data burst lasting `duration`: `kind` is a
    /// data phase moving the burst's whole payload, split as `packets`
    /// says.
    pub fn burst(kind: PhaseKind, packets: Packets, duration: SimDuration) -> Self {
        debug_assert!(packets.count > 0, "a burst has at least one packet");
        debug_assert!(duration >= packets.before_last() + packets.gap.unwrap_or(SimDuration::ZERO));
        debug_assert!(matches!(
            kind,
            PhaseKind::DataIn(_) | PhaseKind::DataOut { .. }
        ));
        BusPhase {
            kind,
            duration,
            packets: Some(packets),
        }
    }

    /// Number of packets the phase crosses the bus in: one if it is not
    /// split.
    pub fn packet_count(&self) -> u32 {
        self.packets.map_or(1, |p| p.count)
    }

    /// The bus gap before each packet, if the phase has gaps.
    pub fn packet_gap(&self) -> Option<SimDuration> {
        self.packets.and_then(|p| p.gap)
    }

    /// When packet `i` ends, from the start of the phase: the edge a LUN
    /// takes it at.
    pub fn packet_end(&self, i: u32) -> SimDuration {
        match self.packets {
            Some(p) if i + 1 < p.count => {
                (p.gap.unwrap_or(SimDuration::ZERO) + p.full) * (i as u64 + 1)
            }
            _ => self.duration,
        }
    }

    /// Bus time of the last packet.
    pub fn last_packet(&self) -> SimDuration {
        self.packets.map_or(self.duration, |p| {
            self.duration - p.before_last() - p.gap.unwrap_or(SimDuration::ZERO)
        })
    }

    /// Offset of packet `i`'s first byte in a `bytes`-byte phase; `bytes`
    /// for `i == packet_count()`, so packet `i` is bytes
    /// `packet_offset(i)..packet_offset(i + 1)`.
    pub fn packet_offset(&self, i: u32, bytes: usize) -> usize {
        match self.packets {
            Some(p) => p.size.saturating_mul(i as usize).min(bytes),
            None if i == 0 => 0,
            None => bytes,
        }
    }

    /// Length of packet `i` of a `bytes`-byte phase.
    pub fn packet_len(&self, i: u32, bytes: usize) -> usize {
        self.packet_offset(i + 1, bytes) - self.packet_offset(i, bytes)
    }

    /// Bus phases the phase counts as: one per packet and one per gap.
    pub fn bus_phases(&self) -> u64 {
        let per_packet = if self.packet_gap().is_some() { 2 } else { 1 };
        self.packet_count() as u64 * per_packet
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
    fn packets_tile_the_burst() {
        let ns = SimDuration::from_nanos;
        let p = Packets {
            count: 3,
            size: 4,
            gap: Some(ns(1)),
            full: ns(2),
        };
        let burst = BusPhase::burst(PhaseKind::DataOut { bytes: 9 }, p, ns(8));
        let offsets: Vec<usize> = (0..=3).map(|i| burst.packet_offset(i, 9)).collect();
        assert_eq!(offsets, [0, 4, 8, 9]);
        assert_eq!((burst.packet_len(0, 9), burst.packet_len(2, 9)), (4, 1));
        let ends: Vec<SimDuration> = (0..3).map(|i| burst.packet_end(i)).collect();
        assert_eq!(ends, [ns(3), ns(6), ns(8)]);
        assert_eq!((burst.last_packet(), burst.bus_phases()), (ns(1), 6));
        let one = BusPhase::new(PhaseKind::DataOut { bytes: 7 }, ns(5));
        assert_eq!(
            (one.packet_len(0, 7), one.packet_end(0), one.last_packet()),
            (7, ns(5), ns(5))
        );
        assert_eq!((one.packet_count(), one.bus_phases()), (1, 1));
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
