//! The execution engine: playing instructions as timed waveforms.
//!
//! This is the Operation Execution module of the paper's Fig. 5: it takes a
//! queued [`Transaction`], expands each μFSM instruction into timed bus
//! phases (respecting the intra-segment timing the μFSMs own), moves data
//! between the DRAM and the channel through the packetizer, and returns when
//! the bus went free plus any inline bytes (status, IDs) for the software.

use babol_channel::{Channel, ChannelError};
use babol_onfi::bus::{BusPhase, PhaseKind};
use babol_onfi::timing::{DataInterface, TimingParams};
use babol_sim::{Dram, SimDuration, SimTime};
use babol_trace::{Component, Counter, TraceKind, Tracer};

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

    /// Pure duration of a transaction on the bus (used by schedulers that
    /// plan ahead and by tests).
    pub fn duration_of(&self, txn: &Transaction) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for instr in txn.instrs() {
            match instr {
                Instr::CaWriter { latches, post } => {
                    for latch in latches {
                        total += match latch {
                            Latch::Cmd(_) => self.timing.ca_segment(self.iface, 1),
                            Latch::Addr(bytes) => self.timing.ca_segment(self.iface, bytes.len()),
                        };
                    }
                    total += self.post_wait(*post);
                }
                Instr::DataWriter { bytes, .. } => {
                    for pkt in self.packetizer.packets(*bytes) {
                        total += self.packetizer.packet_gap;
                        total += self.timing.data_in_burst(self.iface, pkt);
                    }
                }
                Instr::DataReader { bytes, dest } => {
                    for pkt in self.packetizer.packets(*bytes) {
                        if matches!(dest, crate::instr::DmaDest::Dram(_)) {
                            total += self.packetizer.packet_gap;
                        }
                        total += self.timing.data_out_burst(self.iface, pkt);
                    }
                }
                Instr::Timer { duration } => total += *duration,
            }
        }
        total
    }

    /// Per-instruction timing metadata: where on the bus each instruction's
    /// waveform starts and ends, and the end offset of every C/A latch
    /// phase (the channel delivers each phase at its *end*, so a confirm
    /// command's latch-end offset is the instant a LUN starts its array
    /// busy). Mirrors the exact phase expansion of [`execute`]: a zero
    /// post-wait emits no pause, every data-in packet is preceded by the
    /// DMA descriptor gap, data-out packets only when headed to DRAM.
    ///
    /// The last instruction's `end` equals [`EmitConfig::duration_of`].
    pub fn phase_timings(&self, txn: &Transaction) -> Vec<InstrTiming> {
        let mut out = Vec::with_capacity(txn.instrs().len());
        let mut at = SimDuration::ZERO;
        for instr in txn.instrs() {
            let start = at;
            let mut latch_ends = Vec::new();
            match instr {
                Instr::CaWriter { latches, post } => {
                    for latch in latches {
                        at += match latch {
                            Latch::Cmd(_) => self.timing.ca_segment(self.iface, 1),
                            Latch::Addr(bytes) => self.timing.ca_segment(self.iface, bytes.len()),
                        };
                        latch_ends.push(at);
                    }
                    at += self.post_wait(*post);
                }
                Instr::DataWriter { bytes, .. } => {
                    for pkt in self.packetizer.packets(*bytes) {
                        at += self.packetizer.packet_gap;
                        at += self.timing.data_in_burst(self.iface, pkt);
                    }
                }
                Instr::DataReader { bytes, dest } => {
                    for pkt in self.packetizer.packets(*bytes) {
                        if matches!(dest, DmaDest::Dram(_)) {
                            at += self.packetizer.packet_gap;
                        }
                        at += self.timing.data_out_burst(self.iface, pkt);
                    }
                }
                Instr::Timer { duration } => at += *duration,
            }
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
    /// instruction order.
    pub inline: Vec<u8>,
}

/// Working buffers of [`execute`], owned by its caller so a
/// steady-state transaction stream reuses them instead of allocating.
/// Nothing carries over from one transaction to the next.
#[derive(Debug, Default)]
pub struct EmitScratch {
    /// The transaction's bus phases.
    phases: Vec<BusPhase>,
    /// One entry per data-out packet: its length and where it lands. A
    /// DRAM packet carries its own address (the reader's base plus the
    /// reader's running offset).
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
                    match latch {
                        Latch::Cmd(op) => phases.push(BusPhase::new(
                            PhaseKind::CmdLatch(*op),
                            cfg.timing.ca_segment(cfg.iface, 1),
                        )),
                        Latch::Addr(bytes) => phases.push(BusPhase::new(
                            PhaseKind::AddrLatch(bytes.clone()),
                            cfg.timing.ca_segment(cfg.iface, bytes.len()),
                        )),
                    }
                }
                let wait = cfg.post_wait(*post);
                if !wait.is_zero() {
                    phases.push(BusPhase::new(PhaseKind::Pause, wait));
                }
            }
            Instr::DataWriter { bytes, src } => {
                let mut offset = 0u64;
                for pkt in cfg.packetizer.packets(*bytes) {
                    phases.push(BusPhase::new(PhaseKind::Pause, cfg.packetizer.packet_gap));
                    // Zero-copy: the packet is read once into a pooled
                    // buffer; the phase and the LUN share it read-only.
                    let data = dram.read_buf(*src + offset, pkt);
                    phases.push(BusPhase::new(
                        PhaseKind::DataIn(data),
                        cfg.timing.data_in_burst(cfg.iface, pkt),
                    ));
                    offset += pkt as u64;
                }
            }
            Instr::DataReader { bytes, dest } => {
                let mut offset = 0u64;
                for pkt in cfg.packetizer.packets(*bytes) {
                    // Inline reads (status bytes, IDs) land in a controller
                    // register, not DRAM: no DMA descriptor gap.
                    let dest = match *dest {
                        DmaDest::Inline => DmaDest::Inline,
                        DmaDest::Dram(base) => {
                            phases.push(BusPhase::new(PhaseKind::Pause, cfg.packetizer.packet_gap));
                            DmaDest::Dram(base + offset)
                        }
                    };
                    phases.push(BusPhase::new(
                        PhaseKind::DataOut { bytes: pkt },
                        cfg.timing.data_out_burst(cfg.iface, pkt),
                    ));
                    reads.push((pkt, dest));
                    offset += pkt as u64;
                }
            }
            Instr::Timer { duration } => {
                phases.push(BusPhase::new(PhaseKind::Pause, *duration));
            }
        }
    }
    let tx = channel.transmit(start, txn.chip_mask(), phases, op_id, trace)?;
    trace.count(
        Component::Ufsm,
        Counter::InstrsDispatched,
        txn.instrs().len() as u64,
    );
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
    // Split the returned stream across the data readers.
    let mut inline = Vec::new();
    let mut cursor = 0usize;
    for (len, dest) in reads.drain(..) {
        let chunk = &tx.data[cursor..cursor + len];
        cursor += len;
        match dest {
            DmaDest::Inline => inline.extend_from_slice(chunk),
            DmaDest::Dram(addr) => dram.write(addr, chunk),
        }
    }
    let end = tx.end;
    // Hand the segment's pooled buffers back before returning (the
    // returned data, then the data-in packets) so the next transaction
    // finds them in the pool.
    drop(tx);
    phases.clear();
    instr_marks.clear();
    Ok(Outcome { end, inline })
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
        assert_eq!(
            tracer.counter(Component::Ufsm, Counter::InstrsDispatched),
            2
        );
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
