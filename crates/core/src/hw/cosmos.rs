//! The asynchronous hardware baseline (Cosmos+-style).
//!
//! A fixed-function NAND controller: per-LUN request engines advance through
//! a hard-coded operation pipeline (latch → R/B# wait → status check → data
//! move), an arbiter grants the shared bus round-robin, and every waveform
//! is constructed by dedicated logic — no software anywhere, which is
//! precisely why adding a new operation variant means respinning hardware
//! (paper §II, Discussion).
//!
//! The `@loc:` markers bracket the hard-coded implementation of each
//! operation (waveform construction plus pipeline control), counted by
//! Table II's reproduction alongside BABOL's software operations.

use std::collections::VecDeque;

use babol_onfi::addr::{AddrLayout, ColumnAddr, RowAddr};
use babol_onfi::bus::{BusPhase, ChipMask, PhaseKind};
use babol_onfi::opcode::op;
use babol_onfi::status::Status;
use babol_sim::{SimDuration, SimTime};
use babol_ufsm::EmitConfig;

use crate::system::{Controller, Event, IoKind, IoRequest, System};

/// Per-LUN engine state: one operation in flight per LUN, as on the
/// original platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineState {
    Idle,
    WantLatch,
    LatchOnBus,
    WaitRb,
    WantStatus,
    StatusOnBus,
    WantData,
    DataOnBus,
}

#[derive(Debug)]
struct Engine {
    state: EngineState,
    current: Option<IoRequest>,
    last_status: u8,
}

impl Engine {
    fn wants_bus(&self) -> bool {
        matches!(
            self.state,
            EngineState::WantLatch | EngineState::WantStatus | EngineState::WantData
        )
    }
}

/// The asynchronous hardware controller.
pub struct CosmosController {
    layout: AddrLayout,
    engines: Vec<Engine>,
    queues: Vec<VecDeque<IoRequest>>,
    queue_cap: usize,
    rr: u32,
    arb_gap: SimDuration,
    in_flight: Option<u32>,
    done: Vec<(IoRequest, SimTime)>,
    /// Requests that completed with FAIL status.
    pub failures: Vec<IoRequest>,
}

impl CosmosController {
    /// Builds the controller for a channel with `luns` LUNs.
    pub fn new(layout: AddrLayout, luns: u32) -> Self {
        CosmosController {
            layout,
            engines: (0..luns)
                .map(|_| Engine {
                    state: EngineState::Idle,
                    current: None,
                    last_status: 0,
                })
                .collect(),
            queues: vec![VecDeque::new(); luns as usize],
            queue_cap: 8,
            rr: 0,
            // One arbitration grant: request sampling, grant propagation and
            // engine reconfiguration at the platform's controller clock.
            arb_gap: SimDuration::from_nanos(500),
            in_flight: None,
            done: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn load_next(&mut self, lun: u32) {
        let e = &mut self.engines[lun as usize];
        if e.state == EngineState::Idle {
            if let Some(req) = self.queues[lun as usize].pop_front() {
                e.current = Some(req);
                e.state = EngineState::WantLatch;
            }
        }
    }

    /// The bus arbiter: grants the channel to the next engine that wants it,
    /// round-robin from the last grant.
    fn arbitrate(&mut self, sys: &mut System) {
        if self.in_flight.is_some() {
            return;
        }
        let n = self.engines.len() as u32;
        let Some(lun) = (0..n)
            .map(|i| (self.rr + 1 + i) % n)
            .find(|&l| self.engines[l as usize].wants_bus())
        else {
            return;
        };
        self.rr = lun;
        let start = sys.now.max(sys.channel.busy_until()) + self.arb_gap;
        let req = self.engines[lun as usize]
            .current
            .expect("engine wanting bus has a request");
        let (phases, next) = match self.engines[lun as usize].state {
            EngineState::WantLatch => {
                let row = RowAddr { lun: req.lun, block: req.block, page: req.page };
                let phases = match req.kind {
                    // @loc:hw_async_read:begin
                    IoKind::Read => build_read_latch_phases(&self.layout, &sys.emit, row),
                    // @loc:hw_async_read:end
                    // @loc:hw_async_erase:begin
                    IoKind::Erase => build_erase_phases(&self.layout, &sys.emit, row),
                    // @loc:hw_async_erase:end
                    // @loc:hw_async_program:begin
                    IoKind::Program => {
                        // The DMA engine prefetches the payload from DRAM as
                        // the waveform is constructed.
                        let data = sys.dram.read_vec(req.dram_addr, req.len);
                        build_program_phases(&self.layout, &sys.emit, &req, &data)
                    }
                    // @loc:hw_async_program:end
                };
                (phases, EngineState::LatchOnBus)
            }
            EngineState::WantStatus => {
                (build_status_phases(&sys.emit), EngineState::StatusOnBus)
            }
            // @loc:hw_async_read:begin
            EngineState::WantData => (
                build_read_data_phases(&sys.emit, req.len),
                EngineState::DataOnBus,
            ),
            // @loc:hw_async_read:end
            other => unreachable!("state {other:?} does not want the bus"),
        };
        let tx = sys
            .channel
            .transmit(start, ChipMask::single(lun), &phases, req.id, &mut sys.trace)
            .unwrap_or_else(|e| panic!("hardware waveform rejected: {e}"));
        // The DMA engine lands read data in DRAM as it streams.
        if next == EngineState::DataOnBus {
            sys.dram.write_data(req.dram_addr, tx.data.clone());
        }
        if next == EngineState::StatusOnBus {
            // Remember the sampled status byte for the completion handler.
            self.engines[lun as usize].last_status = tx.data.first_byte().unwrap_or(0);
        }
        self.engines[lun as usize].state = next;
        self.in_flight = Some(lun);
        sys.schedule(tx.end, Event::TxnDone { ticket: lun as u64 });
    }

    fn on_txn_done(&mut self, sys: &mut System, lun: u32) {
        debug_assert_eq!(self.in_flight, Some(lun));
        self.in_flight = None;
        let req = self.engines[lun as usize]
            .current
            .expect("txn for engine without request");
        let state = self.engines[lun as usize].state;
        match state {
            EngineState::LatchOnBus => {
                // The confirm cycle started an array operation: watch R/B#.
                self.engines[lun as usize].state = EngineState::WaitRb;
                match sys.channel.lun(lun).busy_until() {
                    Some(at) if at > sys.now => sys.schedule(at, Event::RbEdge { lun }),
                    _ => sys.schedule(sys.now, Event::RbEdge { lun }),
                }
            }
            // @loc:hw_async_read:begin
            EngineState::StatusOnBus => {
                let status = self.engines[lun as usize].last_status;
                if status & Status::RDY == 0 {
                    // Spurious edge; sample again.
                    self.engines[lun as usize].state = EngineState::WantStatus;
                } else if status & Status::FAIL != 0 {
                    self.failures.push(req);
                    self.complete(sys, lun, req);
                } else if req.kind == IoKind::Read {
                    self.engines[lun as usize].state = EngineState::WantData;
                } else {
                    self.complete(sys, lun, req);
                }
            }
            EngineState::DataOnBus => self.complete(sys, lun, req),
            // @loc:hw_async_read:end
            other => unreachable!("completion in state {other:?}"),
        }
        self.arbitrate(sys);
    }

    fn complete(&mut self, _sys: &mut System, lun: u32, req: IoRequest) {
        self.done.push((req, _sys.now));
        let e = &mut self.engines[lun as usize];
        e.current = None;
        e.state = EngineState::Idle;
        self.load_next(lun);
    }
}

impl Controller for CosmosController {
    fn name(&self) -> &'static str {
        "Cosmos-HW"
    }

    fn submit(&mut self, sys: &mut System, req: IoRequest) -> bool {
        let lun = req.lun as usize;
        if self.queues[lun].len() >= self.queue_cap {
            return false;
        }
        self.queues[lun].push_back(req);
        self.load_next(req.lun);
        sys.schedule(sys.now, Event::IssueCheck);
        true
    }

    fn on_event(&mut self, sys: &mut System, ev: Event) {
        match ev {
            Event::TxnDone { ticket } => self.on_txn_done(sys, ticket as u32),
            Event::RbEdge { lun } => {
                if self.engines[lun as usize].state == EngineState::WaitRb {
                    self.engines[lun as usize].state = EngineState::WantStatus;
                }
                self.arbitrate(sys);
            }
            Event::IssueCheck | Event::CpuDone | Event::Timer { .. } => self.arbitrate(sys),
        }
    }

    fn take_completions(&mut self, out: &mut Vec<(IoRequest, SimTime)>) {
        out.append(&mut self.done);
    }

    fn in_flight(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum::<usize>()
            + self.engines.iter().filter(|e| e.current.is_some()).count()
    }
}

// -------------------------------------------------- hard-coded waveforms

// @loc:hw_async_read:begin
/// Hard-coded READ command/address waveform: every phase and every timing
/// component spelled out, as the fixed-function engine's RTL would.
fn build_read_latch_phases(
    layout: &AddrLayout,
    emit: &EmitConfig,
    row: RowAddr,
) -> Vec<BusPhase> {
    let mut phases = Vec::with_capacity(4);
    // Command cycle 0x00: CE setup + CLE window + one WE strobe + holds.
    let cmd_len = emit.timing.t_cs
        + emit.timing.t_cals
        + emit.iface.ca_cycle()
        + emit.timing.t_calh
        + emit.timing.t_ch;
    phases.push(BusPhase::new(PhaseKind::CmdLatch(op::READ_1), cmd_len));
    // Five address cycles: CE setup + ALE window + five WE strobes + holds.
    let addr_bytes = layout.pack_full(ColumnAddr(0), row);
    let addr_len = emit.timing.t_cs
        + emit.timing.t_cals
        + emit.iface.ca_cycle() * addr_bytes.len() as u64
        + emit.timing.t_calh
        + emit.timing.t_ch;
    phases.push(BusPhase::new(PhaseKind::AddrLatch(addr_bytes), addr_len));
    // Confirm cycle 0x30 starts the array fetch.
    phases.push(BusPhase::new(PhaseKind::CmdLatch(op::READ_2), cmd_len));
    // The engine holds the bus for tWB before releasing (R/B# reaction).
    phases.push(BusPhase::new(PhaseKind::Pause, emit.timing.t_wb));
    phases
}

/// Hard-coded READ data movement: the DMA engine drains the page register
/// in fixed packets, re-arming its descriptor between packets.
fn build_read_data_phases(emit: &EmitConfig, len: usize) -> Vec<BusPhase> {
    let mut phases = Vec::with_capacity(2 + 2 * len / emit.packetizer.packet_bytes);
    // Column select to offset 0: 0x05 + two column cycles + 0xE0 + tCCS.
    let cmd_len = emit.timing.t_cs
        + emit.timing.t_cals
        + emit.iface.ca_cycle()
        + emit.timing.t_calh
        + emit.timing.t_ch;
    let col_len = emit.timing.t_cs
        + emit.timing.t_cals
        + emit.iface.ca_cycle() * 2
        + emit.timing.t_calh
        + emit.timing.t_ch;
    phases.push(BusPhase::new(
        PhaseKind::CmdLatch(op::CHANGE_READ_COL_1),
        cmd_len,
    ));
    phases.push(BusPhase::new(PhaseKind::AddrLatch(vec![0, 0]), col_len));
    phases.push(BusPhase::new(
        PhaseKind::CmdLatch(op::CHANGE_READ_COL_2),
        cmd_len,
    ));
    phases.push(BusPhase::new(PhaseKind::Pause, emit.timing.t_ccs));
    // Packetized burst: descriptor fetch gap, then DQS-paced data.
    let mut remaining = len;
    while remaining > 0 {
        let pkt = remaining.min(emit.packetizer.packet_bytes);
        phases.push(BusPhase::new(PhaseKind::Pause, emit.packetizer.packet_gap));
        let burst = emit.timing.t_rpre
            + emit.iface.data_cycle() * pkt as u64
            + emit.timing.t_rpst;
        phases.push(BusPhase::new(PhaseKind::DataOut { bytes: pkt }, burst));
        remaining -= pkt;
    }
    phases
}
// @loc:hw_async_read:end

// @loc:hw_async_program:begin
/// Hard-coded PROGRAM waveform: address latch, packetized data-in bursts,
/// confirm cycle. The data is fetched from DRAM by the DMA engine while the
/// waveform runs.
fn build_program_phases(
    layout: &AddrLayout,
    emit: &EmitConfig,
    req: &IoRequest,
    sys_data: &[u8],
) -> Vec<BusPhase> {
    let mut phases = Vec::with_capacity(4 + 2 * req.len / emit.packetizer.packet_bytes);
    let cmd_len = emit.timing.t_cs
        + emit.timing.t_cals
        + emit.iface.ca_cycle()
        + emit.timing.t_calh
        + emit.timing.t_ch;
    phases.push(BusPhase::new(PhaseKind::CmdLatch(op::PROGRAM_1), cmd_len));
    let row = RowAddr { lun: req.lun, block: req.block, page: req.page };
    let addr_bytes = layout.pack_full(ColumnAddr(0), row);
    let addr_len = emit.timing.t_cs
        + emit.timing.t_cals
        + emit.iface.ca_cycle() * addr_bytes.len() as u64
        + emit.timing.t_calh
        + emit.timing.t_ch;
    phases.push(BusPhase::new(PhaseKind::AddrLatch(addr_bytes), addr_len));
    phases.push(BusPhase::new(PhaseKind::Pause, emit.timing.t_adl));
    let mut offset = 0usize;
    while offset < req.len {
        let pkt = (req.len - offset).min(emit.packetizer.packet_bytes);
        phases.push(BusPhase::new(PhaseKind::Pause, emit.packetizer.packet_gap));
        let burst = emit.timing.t_wpre
            + emit.iface.data_cycle() * pkt as u64
            + emit.timing.t_wpst;
        phases.push(BusPhase::new(
            PhaseKind::DataIn(sys_data[offset..offset + pkt].to_vec().into()),
            burst,
        ));
        offset += pkt;
    }
    phases.push(BusPhase::new(PhaseKind::CmdLatch(op::PROGRAM_2), cmd_len));
    phases.push(BusPhase::new(PhaseKind::Pause, emit.timing.t_wb));
    phases
}
// @loc:hw_async_program:end

// @loc:hw_async_erase:begin
/// Hard-coded ERASE waveform: command, three row-address cycles, confirm.
fn build_erase_phases(layout: &AddrLayout, emit: &EmitConfig, row: RowAddr) -> Vec<BusPhase> {
    let mut phases = Vec::with_capacity(3);
    let cmd_len = emit.timing.t_cs
        + emit.timing.t_cals
        + emit.iface.ca_cycle()
        + emit.timing.t_calh
        + emit.timing.t_ch;
    phases.push(BusPhase::new(PhaseKind::CmdLatch(op::ERASE_1), cmd_len));
    let addr_bytes = layout.pack_row(row);
    let addr_len = emit.timing.t_cs
        + emit.timing.t_cals
        + emit.iface.ca_cycle() * addr_bytes.len() as u64
        + emit.timing.t_calh
        + emit.timing.t_ch;
    phases.push(BusPhase::new(PhaseKind::AddrLatch(addr_bytes), addr_len));
    phases.push(BusPhase::new(PhaseKind::CmdLatch(op::ERASE_2), cmd_len));
    phases.push(BusPhase::new(PhaseKind::Pause, emit.timing.t_wb));
    phases
}
// @loc:hw_async_erase:end

/// Status sampling waveform. Shared by every operation's pipeline, so it
/// counts toward each operation's hard-coded implementation.
// @loc:hw_async_read:begin @loc:hw_async_program:begin @loc:hw_async_erase:begin
fn build_status_phases(emit: &EmitConfig) -> Vec<BusPhase> {
    let cmd_len = emit.timing.t_cs
        + emit.timing.t_cals
        + emit.iface.ca_cycle()
        + emit.timing.t_calh
        + emit.timing.t_ch;
    vec![
        BusPhase::new(PhaseKind::CmdLatch(op::READ_STATUS), cmd_len),
        BusPhase::new(PhaseKind::Pause, emit.timing.t_whr),
        BusPhase::new(
            PhaseKind::DataOut { bytes: 1 },
            emit.timing.t_rpre + emit.iface.data_cycle() + emit.timing.t_rpst,
        ),
    ]
}
// @loc:hw_async_read:end @loc:hw_async_program:end @loc:hw_async_erase:end

// ------------------------------------------------------- lint surface

/// The complete hard-coded waveform program this controller would put on
/// the bus for `req`, one `Vec<BusPhase>` per bus tenure, in pipeline
/// order (latch, status sample, data movement). `prog_data` is the DMA
/// prefetch payload for program requests (ignored otherwise).
///
/// This exists for the static verifier: `ufsm_lint` feeds these phase
/// lists to `babol_verify::Verifier::check_phases`, so the baseline's
/// frozen waveforms are linted against the same ONFI rules as BABOL's
/// software operations. Not used on the simulation path.
pub fn lint_phase_program(
    layout: &AddrLayout,
    emit: &EmitConfig,
    req: &IoRequest,
    prog_data: &[u8],
) -> Vec<Vec<BusPhase>> {
    let row = RowAddr { lun: req.lun, block: req.block, page: req.page };
    match req.kind {
        IoKind::Read => vec![
            build_read_latch_phases(layout, emit, row),
            build_status_phases(emit),
            build_read_data_phases(emit, req.len),
        ],
        IoKind::Program => vec![
            build_program_phases(layout, emit, req, prog_data),
            build_status_phases(emit),
        ],
        IoKind::Erase => vec![
            build_erase_phases(layout, emit, row),
            build_status_phases(emit),
        ],
    }
}
