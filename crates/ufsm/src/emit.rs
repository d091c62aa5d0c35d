//! The execution engine: playing instructions as timed waveforms.
//!
//! This is the Operation Execution module of the paper's Fig. 5: it takes a
//! queued [`Transaction`], expands each μFSM instruction into timed bus
//! phases (respecting the intra-segment timing the μFSMs own), moves data
//! between the DRAM and the channel through the packetizer, and returns when
//! the bus went free plus any inline bytes (status, IDs) for the software.
//! A Data Writer or Data Reader is one phase: a burst that carries its
//! packetizer geometry ([`Packets`]), which the channel and the LUN play
//! packet by packet in time without splitting its payload.

use babol_channel::{Channel, ChannelError};
use babol_onfi::bus::{BusPhase, Packets, PhaseKind};
use babol_onfi::timing::{DataInterface, TimingParams};
use babol_sim::{Dram, SimDuration, SimTime};
use babol_trace::{Component, Counter, TraceKind, Tracer};

use crate::inline::InlineBytes;
use crate::instr::{DmaDest, Instr, Latch, PostWait, Transaction};
use crate::packetizer::PacketizerConfig;

/// Static configuration of the execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmitConfig {
    /// Data interface the channel currently runs at.
    pub iface: DataInterface,
    /// ONFI timing parameter set in force.
    pub timing: TimingParams,
    /// Packetizer (DMA) configuration.
    pub packetizer: PacketizerConfig,
}

impl EmitConfig {
    /// NV-DDR2 configuration at the given transfer rate, with paper-
    /// calibrated packetizer.
    pub fn nv_ddr2(mts: u32) -> Self {
        EmitConfig {
            iface: DataInterface::NvDdr2 { mts },
            timing: TimingParams::nv_ddr2(),
            packetizer: PacketizerConfig::paper(),
        }
    }

    /// Boot-time SDR configuration.
    pub fn sdr() -> Self {
        EmitConfig {
            iface: DataInterface::Sdr { mode: 0 },
            timing: TimingParams::sdr(),
            packetizer: PacketizerConfig::paper(),
        }
    }

    fn post_wait(&self, post: PostWait) -> SimDuration {
        match post {
            PostWait::None => SimDuration::ZERO,
            PostWait::Wb => self.timing.t_wb,
            PostWait::Whr => self.timing.t_whr,
            PostWait::Adl => self.timing.t_adl,
            PostWait::Ccs => self.timing.t_ccs,
        }
    }

    /// The packets of a Data Writer's `bytes`-byte burst, every one
    /// preceded by the DMA descriptor gap, and the burst's bus time.
    /// `None` for an empty burst.
    pub fn data_in_packets(&self, bytes: usize) -> Option<(Packets, SimDuration)> {
        self.packetize(bytes, Some(self.packetizer.packet_gap), |n| {
            self.timing.data_in_burst(self.iface, n)
        })
    }

    /// The packets of a Data Reader's `bytes`-byte burst into `dest` and
    /// the burst's bus time: inline reads (status bytes, IDs) land in a
    /// controller register, not DRAM, so they have no descriptor gap.
    /// `None` for an empty burst.
    pub fn data_out_packets(&self, bytes: usize, dest: DmaDest) -> Option<(Packets, SimDuration)> {
        let gap = matches!(dest, DmaDest::Dram(_)).then_some(self.packetizer.packet_gap);
        self.packetize(bytes, gap, |n| self.timing.data_out_burst(self.iface, n))
    }

    fn packetize(
        &self,
        bytes: usize,
        gap: Option<SimDuration>,
        burst: impl Fn(usize) -> SimDuration,
    ) -> Option<(Packets, SimDuration)> {
        let size = self.packetizer.packet_bytes;
        let count = bytes.div_ceil(size);
        (count > 0).then(|| {
            let last = burst(bytes - size * (count - 1));
            // A one-packet burst has no full packet to time.
            let full = if count == 1 { last } else { burst(size) };
            let gap_time = gap.unwrap_or(SimDuration::ZERO);
            let packets = Packets {
                count: count as u32,
                size,
                gap,
                full,
            };
            let duration = (gap_time + full) * (count as u64 - 1) + gap_time + last;
            (packets, duration)
        })
    }

    /// Bus time of one instruction's waveform.
    fn instr_duration(&self, instr: &Instr) -> SimDuration {
        match instr {
            Instr::CaWriter { latches, post } => {
                latches
                    .iter()
                    .map(|l| self.latch_duration(l))
                    .sum::<SimDuration>()
                    + self.post_wait(*post)
            }
            Instr::DataWriter { bytes, .. } => self
                .data_in_packets(*bytes)
                .map_or(SimDuration::ZERO, |(_, duration)| duration),
            Instr::DataReader { bytes, dest } => self
                .data_out_packets(*bytes, *dest)
                .map_or(SimDuration::ZERO, |(_, duration)| duration),
            Instr::Timer { duration } => *duration,
        }
    }

    fn latch_duration(&self, latch: &Latch) -> SimDuration {
        match latch {
            Latch::Cmd(_) => self.timing.ca_segment(self.iface, 1),
            Latch::Addr(bytes) => self.timing.ca_segment(self.iface, bytes.len()),
        }
    }

    /// Pure duration of a transaction on the bus (used by schedulers that
    /// plan ahead and by tests).
    pub fn duration_of(&self, txn: &Transaction) -> SimDuration {
        txn.instrs().iter().map(|i| self.instr_duration(i)).sum()
    }

    /// Per-instruction timing metadata: where on the bus each instruction's
    /// waveform starts and ends, and the end offset of every C/A latch
    /// phase (the channel delivers each phase at its *end*, so a confirm
    /// command's latch-end offset is the instant a LUN starts its array
    /// busy). Mirrors the exact phase expansion of [`execute`]: a zero
    /// post-wait emits no pause, and data movers take their bursts' time
    /// ([`EmitConfig::data_in_packets`], [`EmitConfig::data_out_packets`]).
    ///
    /// The last instruction's `end` equals [`EmitConfig::duration_of`].
    pub fn phase_timings(&self, txn: &Transaction) -> Vec<InstrTiming> {
        let mut out = Vec::with_capacity(txn.instrs().len());
        let mut at = SimDuration::ZERO;
        for instr in txn.instrs() {
            let start = at;
            let mut latch_ends = Vec::new();
            if let Instr::CaWriter { latches, .. } = instr {
                for latch in latches {
                    at += self.latch_duration(latch);
                    latch_ends.push(at);
                }
            }
            at = start + self.instr_duration(instr);
            out.push(InstrTiming {
                start,
                end: at,
                latch_ends,
            });
        }
        out
    }
}

/// Bus timing of one μFSM instruction within its transaction, as offsets
/// from the transaction's first phase. See [`EmitConfig::phase_timings`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrTiming {
    /// Offset where the instruction's first phase begins.
    pub start: SimDuration,
    /// Offset where its waveform (including post-wait and DMA gaps) ends.
    pub end: SimDuration,
    /// For a C/A Writer: the end offset of each latch phase, in latch
    /// order. Empty for data movers and timers.
    pub latch_ends: Vec<SimDuration>,
}

/// Result of executing one transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// When the bus went free.
    pub end: SimTime,
    /// Bytes delivered inline (from `DmaDest::Inline` readers), in
    /// instruction order: in place up to [`InlineBytes::CAPACITY`].
    pub inline: InlineBytes,
}

/// Working buffers of [`execute`], owned by its caller so a
/// steady-state transaction stream reuses them instead of allocating.
/// Nothing carries over from one transaction to the next.
#[derive(Debug, Default)]
pub struct EmitScratch {
    /// The transaction's bus phases: one per latch, pause and timer, and
    /// one packetized burst per data mover.
    phases: Vec<BusPhase>,
    /// One entry per Data Reader: how many bytes it drains and where they
    /// land. Its burst's bytes are contiguous in the returned stream, so a
    /// DRAM reader lands as one extent.
    reads: Vec<(usize, DmaDest)>,
    /// Phase index where each instruction's waveform starts (traced runs
    /// only).
    instr_marks: Vec<usize>,
}

/// Expands `txn` into bus phases, transmits them at `start`, and moves DMA
/// data. Fails if the bus is owned, the mask is invalid, or a LUN rejects a
/// phase (protocol bug in the operation logic).
///
/// Reports to `trace`: one `InstrDispatch` event per μFSM instruction
/// (timestamped at the instruction's first bus phase), an instruction
/// counter, and — via [`Channel::transmit`] — the bus acquire/release pair
/// for the whole segment, all tagged with `op_id`. `scratch` supplies the
/// working buffers.
#[allow(clippy::too_many_arguments)]
pub fn execute(
    channel: &mut Channel,
    dram: &mut Dram,
    cfg: &EmitConfig,
    start: SimTime,
    txn: &Transaction,
    op_id: u64,
    trace: &mut Tracer,
    scratch: &mut EmitScratch,
) -> Result<Outcome, ChannelError> {
    // Debug builds verify the transaction before playing it (see
    // `hook`); release builds compile this line out entirely.
    #[cfg(debug_assertions)]
    crate::hook::run(channel, txn);
    let trace_on = trace.is_enabled();
    // A failed call may have left buffers behind.
    scratch.phases.clear();
    scratch.reads.clear();
    scratch.instr_marks.clear();
    let EmitScratch {
        phases,
        reads,
        instr_marks,
    } = scratch;
    for instr in txn.instrs() {
        if trace_on {
            instr_marks.push(phases.len());
        }
        match instr {
            Instr::CaWriter { latches, post } => {
                for latch in latches {
                    let kind = match latch {
                        Latch::Cmd(op) => PhaseKind::CmdLatch(*op),
                        Latch::Addr(bytes) => PhaseKind::AddrLatch(bytes.clone()),
                    };
                    phases.push(BusPhase::new(kind, cfg.latch_duration(latch)));
                }
                let wait = cfg.post_wait(*post);
                if !wait.is_zero() {
                    phases.push(BusPhase::new(PhaseKind::Pause, wait));
                }
            }
            Instr::DataWriter { bytes, src } => {
                // The source range is read once, described, and crosses
                // the bus as one packetized burst.
                if let Some((packets, duration)) = cfg.data_in_packets(*bytes) {
                    let data = dram.read_data(*src, *bytes);
                    phases.push(BusPhase::burst(PhaseKind::DataIn(data), packets, duration));
                }
            }
            Instr::DataReader { bytes, dest } => {
                if let Some((packets, duration)) = cfg.data_out_packets(*bytes, *dest) {
                    phases.push(BusPhase::burst(
                        PhaseKind::DataOut { bytes: *bytes },
                        packets,
                        duration,
                    ));
                }
                reads.push((*bytes, *dest));
            }
            Instr::Timer { duration } => {
                phases.push(BusPhase::new(PhaseKind::Pause, *duration));
            }
        }
    }
    let tx = channel.transmit(start, txn.chip_mask(), phases, op_id, trace)?;
    trace.count(Counter::InstrsDispatched, txn.instrs().len() as u64);
    if trace_on {
        let lun = txn.chip_mask().iter().next().unwrap_or(0);
        let mut t = start;
        let mut next_phase = 0usize;
        for &mark in instr_marks.iter() {
            while next_phase < mark {
                t += phases[next_phase].duration;
                next_phase += 1;
            }
            trace.record(babol_trace::TraceEvent {
                t,
                component: Component::Ufsm,
                kind: TraceKind::InstrDispatch,
                lun,
                op_id,
            });
        }
    }
    // Split the returned stream across the data readers: DRAM readers
    // land described, inline bytes (status, IDs) are materialized for the
    // software.
    let mut inline = InlineBytes::new();
    let mut cursor = 0usize;
    for (len, dest) in reads.drain(..) {
        let chunk = tx.data.slice(cursor, len);
        cursor += len;
        match dest {
            DmaDest::Inline => chunk.materialize_into(inline.extend_zeroed(len)),
            DmaDest::Dram(addr) => dram.write_data(addr, chunk),
        }
    }
    phases.clear();
    instr_marks.clear();
    Ok(Outcome {
        end: tx.end,
        inline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Latch;
    use babol_flash::lun::LunConfig;
    use babol_flash::Lun;
    use babol_onfi::bus::ChipMask;
    use babol_onfi::opcode::op;

    fn setup(n: usize) -> (Channel, Dram, EmitConfig) {
        let luns = (0..n)
            .map(|i| {
                let mut cfg = LunConfig::test_default();
                cfg.seed = i as u64 + 1;
                Lun::new(cfg)
            })
            .collect();
        (Channel::new(luns), Dram::new(), EmitConfig::nv_ddr2(200))
    }

    /// Executes with tracing off and fresh scratch buffers.
    fn run(
        ch: &mut Channel,
        dram: &mut Dram,
        cfg: &EmitConfig,
        start: SimTime,
        txn: &Transaction,
    ) -> Result<Outcome, ChannelError> {
        let mut off = Tracer::disabled();
        execute(
            ch,
            dram,
            cfg,
            start,
            txn,
            0,
            &mut off,
            &mut EmitScratch::default(),
        )
    }

    fn addr_for(ch: &Channel, block: u32, page: u32, col: u32) -> Vec<u8> {
        let layout = ch.lun(0).profile().geometry.addr_layout(16);
        layout.pack_full(
            babol_onfi::addr::ColumnAddr(col),
            babol_onfi::addr::RowAddr {
                lun: 0,
                block,
                page,
            },
        )
    }

    /// End-to-end: program a page from DRAM, read it back into DRAM.
    #[test]
    fn dma_program_read_roundtrip() {
        let (mut ch, mut dram, cfg) = setup(1);
        let payload: Vec<u8> = (0..=255u8).cycle().take(512).collect();
        dram.write(0x10_000, &payload);

        // PROGRAM: 0x80 + addr + data-in + 0x10.
        let addr = addr_for(&ch, 0, 0, 0);
        let prog = Transaction::new(ChipMask::single(0))
            .ca(
                vec![Latch::Cmd(op::PROGRAM_1), Latch::Addr(addr.clone())],
                PostWait::Adl,
            )
            .write(512, 0x10_000)
            .ca(vec![Latch::Cmd(op::PROGRAM_2)], PostWait::Wb);
        let out = run(&mut ch, &mut dram, &cfg, SimTime::ZERO, &prog).unwrap();
        // Wait for tPROG by starting the next transaction after R/B# rises.
        let ready = ch.lun(0).busy_until().unwrap();
        assert!(ready > out.end);

        // READ: 0x00 + addr + 0x30, wait tR, then stream into DRAM.
        let read_cmd = Transaction::new(ChipMask::single(0)).ca(
            vec![
                Latch::Cmd(op::READ_1),
                Latch::Addr(addr),
                Latch::Cmd(op::READ_2),
            ],
            PostWait::Wb,
        );
        let out = run(&mut ch, &mut dram, &cfg, ready, &read_cmd).unwrap();
        let ready = ch.lun(0).busy_until().unwrap().max(out.end);
        let fetch = Transaction::new(ChipMask::single(0)).read(512, DmaDest::Dram(0x20_000));
        run(&mut ch, &mut dram, &cfg, ready, &fetch).unwrap();
        assert_eq!(dram.read_vec(0x20_000, 512), payload);
    }

    #[test]
    fn status_comes_back_inline() {
        let (mut ch, mut dram, cfg) = setup(1);
        let txn = Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(1, DmaDest::Inline);
        let out = run(&mut ch, &mut dram, &cfg, SimTime::ZERO, &txn).unwrap();
        assert_eq!(out.inline.len(), 1);
        assert_eq!(out.inline[0] & 0x40, 0x40);
    }

    #[test]
    fn duration_matches_execution() {
        let (mut ch, mut dram, cfg) = setup(1);
        let txn = Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(1, DmaDest::Inline);
        let planned = cfg.duration_of(&txn);
        let out = run(&mut ch, &mut dram, &cfg, SimTime::ZERO, &txn).unwrap();
        assert_eq!(out.end - SimTime::ZERO, planned);
    }

    #[test]
    fn phase_timings_tile_the_transaction() {
        let cfg = EmitConfig::nv_ddr2(200);
        let txn = Transaction::new(ChipMask::single(0))
            .ca(
                vec![Latch::Cmd(op::PROGRAM_1), Latch::Addr(vec![0, 0, 0, 0, 0])],
                PostWait::Adl,
            )
            .write(4096, 0x1000)
            .ca(vec![Latch::Cmd(op::PROGRAM_2)], PostWait::Wb);
        let marks = cfg.phase_timings(&txn);
        assert_eq!(marks.len(), txn.instrs().len());
        // Instructions tile the bus: each starts where the previous ended.
        assert_eq!(marks[0].start, SimDuration::ZERO);
        for w in marks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(marks.last().unwrap().end, cfg.duration_of(&txn));
        // The confirm latch ends before the tWB pause does.
        let confirm = &marks[2];
        assert_eq!(confirm.latch_ends.len(), 1);
        assert_eq!(
            confirm.latch_ends[0],
            confirm.start + cfg.timing.ca_segment(cfg.iface, 1)
        );
        assert_eq!(confirm.end, confirm.latch_ends[0] + cfg.timing.t_wb);
        // Zero post-wait emits no pause: end == last latch end.
        let bare = Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::None);
        let m = cfg.phase_timings(&bare);
        assert_eq!(m[0].end, m[0].latch_ends[0]);
    }

    #[test]
    fn page_transfer_time_reproduces_table1() {
        let (mut ch, mut dram, _) = setup(1);
        // Load a page into the register first (tiny geometry: 512+64 raw).
        let addr = addr_for(&ch, 0, 0, 0);
        let cfg200 = EmitConfig::nv_ddr2(200);
        let read_cmd = Transaction::new(ChipMask::single(0)).ca(
            vec![
                Latch::Cmd(op::READ_1),
                Latch::Addr(addr),
                Latch::Cmd(op::READ_2),
            ],
            PostWait::Wb,
        );
        let out = run(&mut ch, &mut dram, &cfg200, SimTime::ZERO, &read_cmd).unwrap();
        let ready = ch.lun(0).busy_until().unwrap().max(out.end);

        // A full 16 KiB data-out would take ~100 us at 200 MT/s per Table I.
        let fetch = Transaction::new(ChipMask::single(0)).read(16384, DmaDest::Dram(0));
        let d200 = cfg200.duration_of(&fetch).as_micros_f64();
        assert!((97.0..103.0).contains(&d200), "200 MT/s transfer {d200} us");
        let d100 = EmitConfig::nv_ddr2(100).duration_of(&fetch).as_micros_f64();
        assert!(
            (178.0..189.0).contains(&d100),
            "100 MT/s transfer {d100} us"
        );
        // And the engine agrees with the planner.
        let out = run(&mut ch, &mut dram, &cfg200, ready, &fetch).unwrap();
        assert_eq!((out.end - ready).as_micros_f64(), d200,);
    }

    /// A 16 KiB DRAM read is one burst phase that still counts, and shows
    /// the analyzer, its eight gaps and eight 2 KiB packets.
    #[test]
    fn a_data_mover_counts_each_packet_and_gap() {
        let (mut ch, mut dram, cfg) = setup(1);
        ch.set_tracing(true);
        let (packets, duration) = cfg.data_out_packets(16384, DmaDest::Dram(0)).unwrap();
        assert_eq!((packets.count, packets.size), (8, 2048));
        assert_eq!(packets.gap, Some(cfg.packetizer.packet_gap));
        assert_eq!(
            cfg.data_out_packets(1, DmaDest::Inline).unwrap().0.gap,
            None
        );
        assert_eq!(cfg.data_in_packets(0), None);
        let read_cmd = Transaction::new(ChipMask::single(0)).ca(
            vec![
                Latch::Cmd(op::READ_1),
                Latch::Addr(addr_for(&ch, 0, 0, 0)),
                Latch::Cmd(op::READ_2),
            ],
            PostWait::Wb,
        );
        run(&mut ch, &mut dram, &cfg, SimTime::ZERO, &read_cmd).unwrap();
        let ready = ch.lun(0).busy_until().unwrap();
        let (before, rows) = (ch.stats(), ch.analyzer().events().len());
        let fetch = Transaction::new(ChipMask::single(0)).read(16384, DmaDest::Dram(0));
        let out = run(&mut ch, &mut dram, &cfg, ready, &fetch).unwrap();
        assert_eq!(out.end - ready, duration);
        let traffic = ch.stats().since(&before);
        assert_eq!((traffic.phases, traffic.bytes_out), (16, 16384));
        let labels: Vec<&str> = ch.analyzer().events()[rows..]
            .iter()
            .map(|e| e.label.as_str())
            .collect();
        assert_eq!(labels, ["PAUSE", "DOUT[2048]"].repeat(8));
    }

    #[test]
    fn timer_holds_the_bus() {
        let (mut ch, mut dram, cfg) = setup(1);
        let txn = Transaction::new(ChipMask::single(0)).timer(SimDuration::from_micros(5));
        let out = run(&mut ch, &mut dram, &cfg, SimTime::ZERO, &txn).unwrap();
        assert_eq!(out.end - SimTime::ZERO, SimDuration::from_micros(5));
        assert_eq!(ch.busy_until(), out.end);
    }

    #[test]
    fn gang_reset_via_chip_control() {
        let (mut ch, mut dram, cfg) = setup(4);
        let gang = ChipMask::first_n(4);
        let txn = Transaction::new(gang).ca(vec![Latch::Cmd(op::RESET)], PostWait::Wb);
        run(&mut ch, &mut dram, &cfg, SimTime::ZERO, &txn).unwrap();
        for i in 0..4 {
            assert!(ch.lun(i).busy_until().is_some(), "LUN {i}");
        }
    }

    #[test]
    fn traced_execute_matches_plain_and_marks_instrs() {
        let (mut ch, mut dram, cfg) = setup(1);
        let txn = Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(1, DmaDest::Inline);
        let mut tracer = Tracer::enabled();
        let traced = execute(
            &mut ch,
            &mut dram,
            &cfg,
            SimTime::ZERO,
            &txn,
            7,
            &mut tracer,
            &mut EmitScratch::default(),
        )
        .unwrap();
        let (mut ch2, mut dram2, _) = setup(1);
        let plain = run(&mut ch2, &mut dram2, &cfg, SimTime::ZERO, &txn).unwrap();
        assert_eq!(traced, plain, "tracing changed the outcome");
        assert_eq!(tracer.counter_total(Counter::InstrsDispatched), 2);
        let dispatches: Vec<_> = tracer
            .events()
            .filter(|e| e.kind == TraceKind::InstrDispatch)
            .collect();
        assert_eq!(dispatches.len(), 2);
        // First instruction starts with the bus; the reader starts after
        // the CA segment + tWHR.
        assert_eq!(dispatches[0].t, SimTime::ZERO);
        assert!(dispatches[1].t > SimTime::ZERO);
        assert!(dispatches[1].t < traced.end);
        assert!(dispatches.iter().all(|e| e.op_id == 7));
    }

    #[test]
    fn set_features_with_adl_timer() {
        let (mut ch, mut dram, cfg) = setup(1);
        dram.write(0x100, &[8, 2, 0, 0]); // NV-DDR2 mode 8
        let txn = Transaction::new(ChipMask::single(0))
            .ca(
                vec![
                    Latch::Cmd(op::SET_FEATURES),
                    Latch::Addr(vec![babol_onfi::feature::addr::TIMING_MODE]),
                ],
                PostWait::Adl,
            )
            .write(4, 0x100);
        run(&mut ch, &mut dram, &cfg, SimTime::ZERO, &txn).unwrap();
        assert_eq!(
            ch.lun(0).interface(),
            babol_onfi::timing::DataInterface::NvDdr2 { mts: 200 }
        );
    }
}
