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
use babol_sim::{BufPool, PageData, SimDuration, SimTime};
use babol_trace::{Component, Metric, TraceKind, Tracer};

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
    /// phases), concatenated in phase order: the packets of one page are
    /// contiguous slices of its register, so they join back into the
    /// register's description without a gather copy.
    pub data: PageData,
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

impl ChannelStats {
    /// The traffic since `earlier`, a snapshot of the same channel.
    pub fn since(&self, earlier: &ChannelStats) -> ChannelStats {
        ChannelStats {
            busy: self.busy - earlier.busy,
            segments: self.segments - earlier.segments,
            phases: self.phases - earlier.phases,
            bytes_out: self.bytes_out - earlier.bytes_out,
            bytes_in: self.bytes_in - earlier.bytes_in,
        }
    }

    /// This traffic repeated `n` times.
    pub fn times(&self, n: u64) -> ChannelStats {
        ChannelStats {
            busy: self.busy * n,
            segments: self.segments * n,
            phases: self.phases * n,
            bytes_out: self.bytes_out * n,
            bytes_in: self.bytes_in * n,
        }
    }
}

/// A shared bus with its attached LUNs.
pub struct Channel {
    luns: Vec<Lun>,
    busy_until: SimTime,
    analyzer: Analyzer,
    stats: ChannelStats,
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
        }
    }

    /// Shares the system's raw-buffer count with every attached LUN, so
    /// their raw readouts are counted in one place.
    pub fn set_pool(&mut self, pool: &BufPool) {
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

    /// Accounts `traffic` that ended by `until` without being played phase
    /// by phase: the status polls of a summarized status wait
    /// (`babol::runtime`), each of which left the LUN as it found it. The
    /// bus is free from `until` on.
    pub fn credit(&mut self, traffic: ChannelStats, until: SimTime) {
        self.stats.busy += traffic.busy;
        self.stats.segments += traffic.segments;
        self.stats.phases += traffic.phases;
        self.stats.bytes_out += traffic.bytes_out;
        self.stats.bytes_in += traffic.bytes_in;
        self.busy_until = self.busy_until.max(until);
    }

    /// Transmits one segment: asserts CE# per `mask`, plays each phase in
    /// order, delivers phase contents to the selected LUNs at the phase's
    /// trailing edge, and frees the bus at the end.
    ///
    /// A packetized data burst ([`BusPhase::burst`]) is one phase here: one
    /// call into each LUN, which takes its packets at their own trailing
    /// edges, and one append of the bytes it returns. It still counts one
    /// bus phase per packet and per gap, and the analyzer shows each.
    ///
    /// Data-out phases collect bytes from the lowest-numbered selected LUN
    /// (driving DQ from several LUNs at once would short the bus; gang
    /// scheduling via Chip Control is for commands, not data-out); the
    /// other selected LUNs see only its packet gaps.
    ///
    /// Bus occupancy goes to `trace`: a `BusAcquire`/`BusRelease` event
    /// pair tagged with `op_id`, an `ArrayBegin`/`ArrayEnd` pair for every
    /// array busy period a phase starts, and a `BusHold` latency
    /// observation. Segments, phases and bytes are counted once, in
    /// [`Channel::stats`], which the system publishes to the tracer.
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
        let traced = trace.is_enabled();
        let mut t = start;
        let mut data = PageData::empty();
        for phase in phases {
            let phase_end = t + phase.duration;
            let data_out = matches!(phase.kind, PhaseKind::DataOut { .. });
            let mut reader = None;
            for lun in mask.iter() {
                let target = &mut self.luns[lun as usize];
                // Data-out only drives from the lowest selected LUN; the
                // others see nothing but its packet gaps.
                if data_out && reader.is_some() {
                    if phase.packet_gap().is_some() {
                        target.settle(phase_end - phase.last_packet());
                    }
                    continue;
                }
                let deadline_before = traced.then(|| target.busy_until()).flatten();
                let resp = target
                    .phase(t, phase)
                    .map_err(|error| ChannelError::Lun { lun, error })?;
                // An array busy period starting (or being replaced) at this
                // phase edge: its deadline is already known, so both span
                // events are recorded now, the end eagerly future-stamped.
                if traced {
                    if let Some(deadline) = target.busy_until() {
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
                data.append(bytes);
            }
            if let PhaseKind::DataIn(ref d) = phase.kind {
                self.stats.bytes_in += d.len() as u64;
            }
            self.analyzer.record(t, mask, phase);
            self.stats.phases += phase.bus_phases();
            t = phase_end;
        }
        self.stats.segments += 1;
        self.stats.busy += t - start;
        self.busy_until = t;
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
        assert_eq!(tx.data.first_byte().unwrap() & 0x40, 0x40); // idle LUN is ready
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
        assert_eq!(ch.stats().segments, 1);
        assert_eq!(ch.stats().phases, 1);
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
