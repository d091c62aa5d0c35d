//! The shared flash channel.
//!
//! A channel bundles several LUNs behind one shared bus (paper Fig. 1,
//! center). Because the bus is shared, at most one waveform segment can be
//! in flight at a time; the storage controller must schedule bus usage and
//! can interleave the segments of operations targeting different LUNs
//! (paper Fig. 3). This crate models exactly that contract:
//!
//! * [`Channel::transmit`] moves one *segment* — a chip-enable mask plus a
//!   sequence of timed [`BusPhase`]s — onto the bus, delivering each phase
//!   to the selected LUNs at its trailing edge and collecting any data that
//!   flows back. Transmissions must not overlap; attempting to overlap is a
//!   controller bug and fails loudly. Bus ownership and array busy spans
//!   are reported to the caller's [`Tracer`], the one place every view of
//!   channel activity (utilization, gaps, phase attribution) derives from.
//! * [`analyzer::Analyzer`] timestamps every phase like the Keysight logic
//!   analyzer the paper uses for Figure 11.
//!
//! The channel does not decide *what* to send — that is the μFSM layer
//! (`babol-ufsm`) driven by the controller software (`babol` crate).

pub mod analyzer;

use std::fmt;

use babol_flash::{Lun, LunError, LunResponse};
use babol_onfi::bus::{BusPhase, ChipMask, PhaseKind};
use babol_sim::{BufPool, PageBuf, PageBufMut, SimDuration, SimTime};
use babol_trace::{Component, Counter, Metric, TraceKind, Tracer};

pub use analyzer::{Analyzer, TraceEvent};

/// Errors surfaced by the channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// A transmission was started while the bus was still owned.
    BusBusy {
        /// When the in-flight transmission ends.
        until: SimTime,
        /// When the offending transmission wanted to start.
        attempted: SimTime,
    },
    /// The chip-enable mask selects no LUN.
    NoLunSelected,
    /// The chip-enable mask selects a LUN index this channel does not have.
    LunOutOfRange {
        /// The offending LUN index.
        lun: u32,
        /// Number of LUNs wired to this channel.
        wired: u32,
    },
    /// A selected LUN rejected a phase.
    Lun {
        /// Which LUN rejected it.
        lun: u32,
        /// The protocol error it raised.
        error: LunError,
    },
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::BusBusy { until, attempted } => write!(
                f,
                "bus busy until {until}, transmission attempted at {attempted}"
            ),
            ChannelError::NoLunSelected => write!(f, "chip-enable mask selects no LUN"),
            ChannelError::LunOutOfRange { lun, wired } => {
                write!(f, "LUN {lun} out of range (channel has {wired})")
            }
            ChannelError::Lun { lun, error } => write!(f, "LUN {lun}: {error}"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// The outcome of one transmitted segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transmission {
    /// When the segment finished on the bus (bus free again).
    pub end: SimTime,
    /// Bytes that flowed controller-ward during the segment (data-out
    /// phases), concatenated in phase order. A segment with a single
    /// data-out phase hands the LUN's pooled buffer through unchanged
    /// (zero-copy); multi-packet segments concatenate into one pooled
    /// buffer (the packetizer's gather DMA).
    pub data: PageBuf,
}

/// Cumulative channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Total time the bus carried a segment.
    pub busy: SimDuration,
    /// Segments transmitted.
    pub segments: u64,
    /// Phases transmitted.
    pub phases: u64,
    /// Controller-bound data bytes moved.
    pub bytes_out: u64,
    /// Flash-bound data bytes moved.
    pub bytes_in: u64,
}

/// A shared bus with its attached LUNs.
pub struct Channel {
    luns: Vec<Lun>,
    busy_until: SimTime,
    analyzer: Analyzer,
    stats: ChannelStats,
    pool: BufPool,
}

impl fmt::Debug for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Channel")
            .field("luns", &self.luns.len())
            .field("busy_until", &self.busy_until)
            .finish()
    }
}

impl Channel {
    /// Creates a channel over the given LUNs.
    ///
    /// # Panics
    ///
    /// Panics if `luns` is empty or holds more than 16 LUNs (the ONFI CE#
    /// fan-out this model supports).
    pub fn new(luns: Vec<Lun>) -> Self {
        assert!(
            !luns.is_empty() && luns.len() <= 16,
            "channel needs 1..=16 LUNs"
        );
        Channel {
            luns,
            busy_until: SimTime::ZERO,
            analyzer: Analyzer::new(false),
            stats: ChannelStats::default(),
            pool: BufPool::default(),
        }
    }

    /// Shares a buffer pool across the whole data path: the channel's
    /// gather buffers and every attached LUN's data-out responses recycle
    /// from the same free list.
    pub fn set_pool(&mut self, pool: &BufPool) {
        self.pool = pool.clone();
        for lun in &mut self.luns {
            lun.set_pool(pool);
        }
    }

    /// Enables or disables trace capture.
    pub fn set_tracing(&mut self, on: bool) {
        self.analyzer.set_enabled(on);
    }

    /// The captured trace.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Number of LUNs wired to this channel.
    pub fn lun_count(&self) -> u32 {
        self.luns.len() as u32
    }

    /// Read access to a LUN (assertions, R/B# monitoring).
    pub fn lun(&self, lun: u32) -> &Lun {
        &self.luns[lun as usize]
    }

    /// Mutable access to a LUN (workload setup, calibration registers).
    pub fn lun_mut(&mut self, lun: u32) -> &mut Lun {
        &mut self.luns[lun as usize]
    }

    /// When the bus becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Transmits one segment: asserts CE# per `mask`, plays each phase in
    /// order, delivers phase contents to the selected LUNs at the phase's
    /// trailing edge, and frees the bus at the end.
    ///
    /// Data-out phases collect bytes from the lowest-numbered selected LUN
    /// (driving DQ from several LUNs at once would short the bus; gang
    /// scheduling via Chip Control is for commands, not data-out).
    ///
    /// Bus occupancy goes to `trace`: a `BusAcquire`/`BusRelease` event
    /// pair tagged with `op_id`, an `ArrayBegin`/`ArrayEnd` pair for every
    /// array busy period a phase starts, segment/phase/byte counters, and a
    /// `BusHold` latency observation.
    pub fn transmit(
        &mut self,
        start: SimTime,
        mask: ChipMask,
        phases: &[BusPhase],
        op_id: u64,
        trace: &mut Tracer,
    ) -> Result<Transmission, ChannelError> {
        if start < self.busy_until {
            return Err(ChannelError::BusBusy {
                until: self.busy_until,
                attempted: start,
            });
        }
        if mask.is_empty() {
            return Err(ChannelError::NoLunSelected);
        }
        for lun in mask.iter() {
            if lun >= self.lun_count() {
                return Err(ChannelError::LunOutOfRange {
                    lun,
                    wired: self.lun_count(),
                });
            }
        }
        let stats_before = self.stats;
        let traced = trace.is_enabled();
        let mut t = start;
        // Single data-out segments pass the LUN's buffer through unchanged;
        // multi-packet segments gather into one pooled buffer.
        let mut single: Option<PageBuf> = None;
        let mut gather: Option<PageBufMut> = None;
        for phase in phases {
            let phase_end = t + phase.duration;
            let mut reader = None;
            for lun in mask.iter() {
                // Data-out only drives from the lowest selected LUN.
                if matches!(phase.kind, PhaseKind::DataOut { .. }) && reader.is_some() {
                    break;
                }
                let deadline_before = traced
                    .then(|| self.luns[lun as usize].busy_until())
                    .flatten();
                let resp = self.luns[lun as usize]
                    .phase(phase_end, &phase.kind)
                    .map_err(|error| ChannelError::Lun { lun, error })?;
                // An array busy period starting (or being replaced) at this
                // phase edge: its deadline is already known, so both span
                // events are recorded now, the end eagerly future-stamped.
                if traced {
                    if let Some(deadline) = self.luns[lun as usize].busy_until() {
                        if Some(deadline) != deadline_before && deadline > phase_end {
                            trace.record(babol_trace::TraceEvent {
                                t: phase_end,
                                component: Component::Channel,
                                kind: TraceKind::ArrayBegin,
                                lun,
                                op_id,
                            });
                            trace.record(babol_trace::TraceEvent {
                                t: deadline,
                                component: Component::Channel,
                                kind: TraceKind::ArrayEnd,
                                lun,
                                op_id,
                            });
                        }
                    }
                }
                if let LunResponse::Data(bytes) = resp {
                    reader = Some(bytes);
                }
            }
            if let Some(bytes) = reader {
                self.stats.bytes_out += bytes.len() as u64;
                match (&mut gather, &mut single) {
                    (Some(g), _) => g.extend_from_slice(&bytes),
                    (None, None) => single = Some(bytes),
                    (None, Some(_)) => {
                        let mut g = self.pool.acquire();
                        g.extend_from_slice(&single.take().expect("just matched"));
                        g.extend_from_slice(&bytes);
                        gather = Some(g);
                    }
                }
            }
            if let PhaseKind::DataIn(ref d) = phase.kind {
                self.stats.bytes_in += d.len() as u64;
            }
            self.analyzer.record(t, phase_end, mask, &phase.kind);
            self.stats.phases += 1;
            t = phase_end;
        }
        let data = match (gather, single) {
            (Some(g), _) => g.freeze(),
            (None, Some(s)) => s,
            (None, None) => PageBuf::empty(),
        };
        self.stats.segments += 1;
        self.stats.busy += t - start;
        self.busy_until = t;
        trace.count(Component::Channel, Counter::SegmentsTransmitted, 1);
        trace.count(
            Component::Channel,
            Counter::PhasesTransmitted,
            self.stats.phases - stats_before.phases,
        );
        trace.count(
            Component::Channel,
            Counter::BytesFromFlash,
            self.stats.bytes_out - stats_before.bytes_out,
        );
        trace.count(
            Component::Channel,
            Counter::BytesToFlash,
            self.stats.bytes_in - stats_before.bytes_in,
        );
        trace.observe(Metric::BusHold, t - start);
        if traced {
            let lun = mask.iter().next().unwrap_or(0);
            trace.record(babol_trace::TraceEvent {
                t: start,
                component: Component::Channel,
                kind: TraceKind::BusAcquire,
                lun,
                op_id,
            });
            trace.record(babol_trace::TraceEvent {
                t,
                component: Component::Channel,
                kind: TraceKind::BusRelease,
                lun,
                op_id,
            });
        }
        Ok(Transmission { end: t, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use babol_flash::lun::LunConfig;
    use babol_onfi::opcode::op;
    use babol_onfi::timing::{DataInterface, TimingParams};

    fn channel(n: usize) -> Channel {
        let luns = (0..n)
            .map(|i| {
                let mut cfg = LunConfig::test_default();
                cfg.seed = i as u64 + 1;
                Lun::new(cfg)
            })
            .collect();
        Channel::new(luns)
    }

    fn ca(op: u8) -> BusPhase {
        let t = TimingParams::nv_ddr2();
        BusPhase::new(
            PhaseKind::CmdLatch(op),
            t.ca_segment(DataInterface::NvDdr2 { mts: 200 }, 1),
        )
    }

    /// Transmits with tracing off.
    fn send(
        ch: &mut Channel,
        start: SimTime,
        mask: ChipMask,
        phases: &[BusPhase],
    ) -> Result<Transmission, ChannelError> {
        ch.transmit(start, mask, phases, 0, &mut Tracer::disabled())
    }

    #[test]
    fn transmit_occupies_bus_for_phase_sum() {
        let mut ch = channel(2);
        let phases = vec![ca(op::READ_STATUS)];
        let total: SimDuration = phases.iter().map(|p| p.duration).sum();
        let tx = send(&mut ch, SimTime::ZERO, ChipMask::single(0), &phases).unwrap();
        assert_eq!(tx.end, SimTime::ZERO + total);
        assert_eq!(ch.busy_until(), tx.end);
        assert!(ch.busy_until() > SimTime::ZERO);
    }

    #[test]
    fn overlapping_transmission_is_rejected() {
        let mut ch = channel(2);
        let phases = vec![ca(op::READ_STATUS)];
        let tx = send(&mut ch, SimTime::ZERO, ChipMask::single(0), &phases).unwrap();
        let err = send(&mut ch, SimTime::ZERO, ChipMask::single(1), &phases).unwrap_err();
        assert!(matches!(err, ChannelError::BusBusy { .. }));
        // But transmitting right at the end is fine.
        send(&mut ch, tx.end, ChipMask::single(1), &phases).unwrap();
    }

    #[test]
    fn status_roundtrip_through_bus() {
        let mut ch = channel(1);
        let t = TimingParams::nv_ddr2();
        let iface = DataInterface::NvDdr2 { mts: 200 };
        let phases = vec![
            ca(op::READ_STATUS),
            BusPhase::new(PhaseKind::DataOut { bytes: 1 }, t.data_out_burst(iface, 1)),
        ];
        let tx = send(&mut ch, SimTime::ZERO, ChipMask::single(0), &phases).unwrap();
        assert_eq!(tx.data.len(), 1);
        assert_eq!(tx.data[0] & 0x40, 0x40); // idle LUN is ready
    }

    #[test]
    fn gang_command_reaches_all_selected_luns() {
        let mut ch = channel(4);
        // Gang a RESET to LUNs 1 and 3 via the chip mask.
        let mask = ChipMask::single(1) | ChipMask::single(3);
        send(&mut ch, SimTime::ZERO, mask, &[ca(op::RESET)]).unwrap();
        assert!(ch.lun(1).busy_until().is_some());
        assert!(ch.lun(3).busy_until().is_some());
        assert!(ch.lun(0).busy_until().is_none());
        assert!(ch.lun(2).busy_until().is_none());
    }

    #[test]
    fn empty_mask_and_bad_lun_rejected() {
        let mut ch = channel(2);
        assert_eq!(
            send(&mut ch, SimTime::ZERO, ChipMask::NONE, &[ca(op::RESET)]),
            Err(ChannelError::NoLunSelected)
        );
        assert!(matches!(
            send(
                &mut ch,
                SimTime::ZERO,
                ChipMask::single(5),
                &[ca(op::RESET)]
            ),
            Err(ChannelError::LunOutOfRange { lun: 5, wired: 2 })
        ));
    }

    #[test]
    fn lun_protocol_error_is_attributed() {
        let mut ch = channel(2);
        // A bare READ confirm with no preceding address is a protocol error.
        let err = send(
            &mut ch,
            SimTime::ZERO,
            ChipMask::single(1),
            &[ca(op::READ_2)],
        )
        .unwrap_err();
        assert!(matches!(err, ChannelError::Lun { lun: 1, .. }));
    }

    #[test]
    fn stats_accumulate() {
        let mut ch = channel(1);
        let phases = vec![ca(op::READ_STATUS)];
        let tx = send(&mut ch, SimTime::ZERO, ChipMask::single(0), &phases).unwrap();
        send(&mut ch, tx.end, ChipMask::single(0), &phases).unwrap();
        let s = ch.stats();
        assert_eq!(s.segments, 2);
        assert_eq!(s.phases, 2);
        assert!(s.busy > SimDuration::ZERO);
        // Back to back: the bus was busy from the epoch to the last end.
        assert_eq!(s.busy, ch.busy_until() - SimTime::ZERO);
    }

    #[test]
    fn traced_transmit_reports_bus_occupancy() {
        let mut ch = channel(2);
        let mut tracer = Tracer::enabled();
        let phases = vec![ca(op::READ_STATUS)];
        let tx = ch
            .transmit(SimTime::ZERO, ChipMask::single(1), &phases, 42, &mut tracer)
            .unwrap();
        assert_eq!(
            tracer.counter(Component::Channel, Counter::SegmentsTransmitted),
            1
        );
        assert_eq!(
            tracer.counter(Component::Channel, Counter::PhasesTransmitted),
            1
        );
        assert_eq!(tracer.metric(Metric::BusHold).count(), 1);
        assert_eq!(tracer.metric(Metric::BusHold).max(), tx.end - SimTime::ZERO);
        let evs: Vec<_> = tracer.events().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(
            (evs[0].kind, evs[0].t),
            (TraceKind::BusAcquire, SimTime::ZERO)
        );
        assert_eq!(
            (evs[1].kind, evs[1].t, evs[1].lun, evs[1].op_id),
            (TraceKind::BusRelease, tx.end, 1, 42)
        );
    }

    #[test]
    fn tracing_does_not_change_the_transmission() {
        let mut a = channel(1);
        let mut b = channel(1);
        let phases = vec![ca(op::READ_STATUS)];
        let ta = send(&mut a, SimTime::ZERO, ChipMask::single(0), &phases).unwrap();
        let tb = b
            .transmit(
                SimTime::ZERO,
                ChipMask::single(0),
                &phases,
                0,
                &mut Tracer::enabled(),
            )
            .unwrap();
        assert_eq!(ta, tb);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn traced_transmit_emits_array_span_for_busy_start() {
        let mut ch = channel(2);
        let mut tracer = Tracer::enabled();
        // RESET starts an array busy period on the selected LUN.
        let tx = ch
            .transmit(
                SimTime::ZERO,
                ChipMask::single(1),
                &[ca(op::RESET)],
                9,
                &mut tracer,
            )
            .unwrap();
        let deadline = ch.lun(1).busy_until().expect("LUN busy after RESET");
        let kinds: Vec<_> = tracer
            .events()
            .map(|e| (e.kind, e.t, e.lun, e.op_id))
            .collect();
        assert!(kinds.contains(&(TraceKind::ArrayBegin, tx.end, 1, 9)));
        assert!(kinds.contains(&(TraceKind::ArrayEnd, deadline, 1, 9)));
        // A status poll that starts no busy period adds no array events.
        let before = tracer.events().count();
        ch.transmit(
            deadline,
            ChipMask::single(1),
            &[ca(op::READ_STATUS)],
            9,
            &mut tracer,
        )
        .unwrap();
        let new: Vec<_> = tracer.events().skip(before).map(|e| e.kind).collect();
        assert_eq!(new, vec![TraceKind::BusAcquire, TraceKind::BusRelease]);
    }

    #[test]
    #[should_panic(expected = "1..=16")]
    fn empty_channel_panics() {
        Channel::new(Vec::new());
    }
}
