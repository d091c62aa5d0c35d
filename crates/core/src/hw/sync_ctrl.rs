//! The synchronous hardware baseline (Qiu et al.-style, paper Fig. 4).
//!
//! One full operation FSM per LUN, a hardware arbiter granting the channel,
//! and waveforms produced cycle group by cycle group from explicit states.
//! The FSMs below are transliterated from how such RTL is actually written:
//! every latch, every mandatory wait and every data packet is its own state,
//! with the timing arithmetic spelled out at each step. The verbosity is the
//! point — this is the development style whose effort the paper's Table II
//! quantifies, and which BABOL's two-page software operations replace.
//!
//! Scheduling-wise the design is *synchronous*: the arbiter reacts to the
//! channel becoming available and the granted FSM then "produces however
//! many transactions it can" before hitting a mandatory wait (§II). Grants
//! are costlier than on the asynchronous design because the winning FSM is
//! reconfigured from the request registers on every grant.

use std::collections::VecDeque;

use babol_onfi::addr::{AddrLayout, ColumnAddr, RowAddr};
use babol_onfi::bus::{BusPhase, ChipMask, PhaseKind};
use babol_onfi::opcode::op;
use babol_onfi::status::Status;
use babol_sim::{SimDuration, SimTime};
use babol_ufsm::EmitConfig;

use crate::system::{Controller, Event, IoKind, IoRequest, System};

/// Micro-states of the per-LUN operation FSM. Grouped by operation; each
/// bus-touching state emits exactly one waveform fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)]
enum OpState {
    Idle,
    // READ operation FSM ---------------------------------------------------
    // @loc:hw_sync_read:begin
    RdIssueCmd1,
    RdIssueAddr,
    RdIssueCmd2,
    RdHoldWb,
    RdWaitRb,
    RdIssueStatusCmd,
    RdHoldWhr,
    RdSampleStatus,
    RdCheckStatus,
    RdIssueCcCmd1,
    RdIssueCcAddr,
    RdIssueCcCmd2,
    RdHoldCcs,
    RdPacketGap,
    RdPacketBurst,
    RdDone,
    // @loc:hw_sync_read:end
    // PROGRAM operation FSM ------------------------------------------------
    // @loc:hw_sync_program:begin
    PgIssueCmd1,
    PgIssueAddr,
    PgHoldAdl,
    PgPacketGap,
    PgPacketBurst,
    PgIssueCmd2,
    PgHoldWb,
    PgWaitRb,
    PgIssueStatusCmd,
    PgHoldWhr,
    PgSampleStatus,
    PgCheckStatus,
    PgDone,
    // @loc:hw_sync_program:end
    // ERASE operation FSM --------------------------------------------------
    // @loc:hw_sync_erase:begin
    ErIssueCmd1,
    ErIssueAddr,
    ErIssueCmd2,
    ErHoldWb,
    ErWaitRb,
    ErIssueStatusCmd,
    ErHoldWhr,
    ErSampleStatus,
    ErCheckStatus,
    ErDone,
    // @loc:hw_sync_erase:end
}

/// What the FSM does in one step while granted the channel.
enum StepAction {
    /// Drive this fragment onto the bus, then go to `next`.
    Emit(BusPhase, OpState),
    /// Combinational transition (no bus activity).
    Decide(OpState),
    /// Release the channel and wait for this LUN's R/B# edge.
    ReleaseForRb,
    /// The operation is complete.
    Complete,
}

/// One per-LUN operation module (paper Fig. 4's `Operation_i`).
#[derive(Debug)]
struct OpFsm {
    state: OpState,
    req: Option<IoRequest>,
    status: u8,
    pkt_offset: usize,
}

impl OpFsm {
    fn new() -> Self {
        OpFsm { state: OpState::Idle, req: None, status: 0, pkt_offset: 0 }
    }

    fn wants_bus(&self) -> bool {
        !matches!(self.state, OpState::Idle | OpState::RdWaitRb | OpState::PgWaitRb | OpState::ErWaitRb)
            && self.req.is_some()
    }

    fn load(&mut self, req: IoRequest) {
        self.status = 0;
        self.pkt_offset = 0;
        self.state = match req.kind {
            IoKind::Read => OpState::RdIssueCmd1,
            IoKind::Program => OpState::PgIssueCmd1,
            IoKind::Erase => OpState::ErIssueCmd1,
        };
        self.req = Some(req);
    }

    /// One state transition. `prog_data` is the DMA prefetch buffer for
    /// program operations (valid while a program is loaded).
    fn step(&mut self, layout: &AddrLayout, emit: &EmitConfig, prog_data: &[u8]) -> StepAction {
        let req = self.req.expect("step without a loaded request");
        let row = RowAddr { lun: req.lun, block: req.block, page: req.page };
        // Per-fragment timing, computed the way the RTL's counters would.
        let one_ca = emit.timing.t_cs
            + emit.timing.t_cals
            + emit.iface.ca_cycle()
            + emit.timing.t_calh
            + emit.timing.t_ch;
        let ca_n = |n: u64| {
            emit.timing.t_cs
                + emit.timing.t_cals
                + emit.iface.ca_cycle() * n
                + emit.timing.t_calh
                + emit.timing.t_ch
        };
        match self.state {
            OpState::Idle => StepAction::Complete,

            // ---------------- READ ------------------------------------ //
            // @loc:hw_sync_read:begin
            OpState::RdIssueCmd1 => StepAction::Emit(
                BusPhase::new(PhaseKind::CmdLatch(op::READ_1), one_ca),
                OpState::RdIssueAddr,
            ),
            OpState::RdIssueAddr => {
                let bytes = layout.pack_full(ColumnAddr(0), row);
                let len = ca_n(bytes.len() as u64);
                StepAction::Emit(
                    BusPhase::new(PhaseKind::AddrLatch(bytes), len),
                    OpState::RdIssueCmd2,
                )
            }
            OpState::RdIssueCmd2 => StepAction::Emit(
                BusPhase::new(PhaseKind::CmdLatch(op::READ_2), one_ca),
                OpState::RdHoldWb,
            ),
            OpState::RdHoldWb => StepAction::Emit(
                BusPhase::new(PhaseKind::Pause, emit.timing.t_wb),
                OpState::RdWaitRb,
            ),
            OpState::RdWaitRb => StepAction::ReleaseForRb,
            OpState::RdIssueStatusCmd => StepAction::Emit(
                BusPhase::new(PhaseKind::CmdLatch(op::READ_STATUS), one_ca),
                OpState::RdHoldWhr,
            ),
            OpState::RdHoldWhr => StepAction::Emit(
                BusPhase::new(PhaseKind::Pause, emit.timing.t_whr),
                OpState::RdSampleStatus,
            ),
            OpState::RdSampleStatus => StepAction::Emit(
                BusPhase::new(
                    PhaseKind::DataOut { bytes: 1 },
                    emit.timing.t_rpre + emit.iface.data_cycle() + emit.timing.t_rpst,
                ),
                OpState::RdCheckStatus,
            ),
            OpState::RdCheckStatus => {
                if self.status & Status::RDY == 0 {
                    // Spurious wake: sample again.
                    StepAction::Decide(OpState::RdIssueStatusCmd)
                } else {
                    StepAction::Decide(OpState::RdIssueCcCmd1)
                }
            }
            OpState::RdIssueCcCmd1 => StepAction::Emit(
                BusPhase::new(PhaseKind::CmdLatch(op::CHANGE_READ_COL_1), one_ca),
                OpState::RdIssueCcAddr,
            ),
            OpState::RdIssueCcAddr => {
                let bytes = layout.pack_col(ColumnAddr(req.col));
                let len = ca_n(bytes.len() as u64);
                StepAction::Emit(
                    BusPhase::new(PhaseKind::AddrLatch(bytes), len),
                    OpState::RdIssueCcCmd2,
                )
            }
            OpState::RdIssueCcCmd2 => StepAction::Emit(
                BusPhase::new(PhaseKind::CmdLatch(op::CHANGE_READ_COL_2), one_ca),
                OpState::RdHoldCcs,
            ),
            OpState::RdHoldCcs => StepAction::Emit(
                BusPhase::new(PhaseKind::Pause, emit.timing.t_ccs),
                OpState::RdPacketGap,
            ),
            OpState::RdPacketGap => StepAction::Emit(
                BusPhase::new(PhaseKind::Pause, emit.packetizer.packet_gap),
                OpState::RdPacketBurst,
            ),
            OpState::RdPacketBurst => {
                let pkt = (req.len - self.pkt_offset).min(emit.packetizer.packet_bytes);
                let burst = emit.timing.t_rpre
                    + emit.iface.data_cycle() * pkt as u64
                    + emit.timing.t_rpst;
                let next = if self.pkt_offset + pkt >= req.len {
                    OpState::RdDone
                } else {
                    OpState::RdPacketGap
                };
                self.pkt_offset += pkt;
                StepAction::Emit(BusPhase::new(PhaseKind::DataOut { bytes: pkt }, burst), next)
            }
            OpState::RdDone => StepAction::Complete,
            // @loc:hw_sync_read:end

            // ---------------- PROGRAM --------------------------------- //
            // @loc:hw_sync_program:begin
            OpState::PgIssueCmd1 => StepAction::Emit(
                BusPhase::new(PhaseKind::CmdLatch(op::PROGRAM_1), one_ca),
                OpState::PgIssueAddr,
            ),
            OpState::PgIssueAddr => {
                let bytes = layout.pack_full(ColumnAddr(0), row);
                let len = ca_n(bytes.len() as u64);
                StepAction::Emit(
                    BusPhase::new(PhaseKind::AddrLatch(bytes), len),
                    OpState::PgHoldAdl,
                )
            }
            OpState::PgHoldAdl => StepAction::Emit(
                BusPhase::new(PhaseKind::Pause, emit.timing.t_adl),
                OpState::PgPacketGap,
            ),
            OpState::PgPacketGap => StepAction::Emit(
                BusPhase::new(PhaseKind::Pause, emit.packetizer.packet_gap),
                OpState::PgPacketBurst,
            ),
            OpState::PgPacketBurst => {
                let pkt = (req.len - self.pkt_offset).min(emit.packetizer.packet_bytes);
                let burst = emit.timing.t_wpre
                    + emit.iface.data_cycle() * pkt as u64
                    + emit.timing.t_wpst;
                let data = prog_data[self.pkt_offset..self.pkt_offset + pkt].to_vec();
                let next = if self.pkt_offset + pkt >= req.len {
                    OpState::PgIssueCmd2
                } else {
                    OpState::PgPacketGap
                };
                self.pkt_offset += pkt;
                StepAction::Emit(BusPhase::new(PhaseKind::DataIn(data.into()), burst), next)
            }
            OpState::PgIssueCmd2 => StepAction::Emit(
                BusPhase::new(PhaseKind::CmdLatch(op::PROGRAM_2), one_ca),
                OpState::PgHoldWb,
            ),
            OpState::PgHoldWb => StepAction::Emit(
                BusPhase::new(PhaseKind::Pause, emit.timing.t_wb),
                OpState::PgWaitRb,
            ),
            OpState::PgWaitRb => StepAction::ReleaseForRb,
            OpState::PgIssueStatusCmd => StepAction::Emit(
                BusPhase::new(PhaseKind::CmdLatch(op::READ_STATUS), one_ca),
                OpState::PgHoldWhr,
            ),
            OpState::PgHoldWhr => StepAction::Emit(
                BusPhase::new(PhaseKind::Pause, emit.timing.t_whr),
                OpState::PgSampleStatus,
            ),
            OpState::PgSampleStatus => StepAction::Emit(
                BusPhase::new(
                    PhaseKind::DataOut { bytes: 1 },
                    emit.timing.t_rpre + emit.iface.data_cycle() + emit.timing.t_rpst,
                ),
                OpState::PgCheckStatus,
            ),
            OpState::PgCheckStatus => {
                if self.status & Status::RDY == 0 {
                    StepAction::Decide(OpState::PgIssueStatusCmd)
                } else {
                    StepAction::Decide(OpState::PgDone)
                }
            }
            OpState::PgDone => StepAction::Complete,
            // @loc:hw_sync_program:end

            // ---------------- ERASE ----------------------------------- //
            // @loc:hw_sync_erase:begin
            OpState::ErIssueCmd1 => StepAction::Emit(
                BusPhase::new(PhaseKind::CmdLatch(op::ERASE_1), one_ca),
                OpState::ErIssueAddr,
            ),
            OpState::ErIssueAddr => {
                let bytes = layout.pack_row(row);
                let len = ca_n(bytes.len() as u64);
                StepAction::Emit(
                    BusPhase::new(PhaseKind::AddrLatch(bytes), len),
                    OpState::ErIssueCmd2,
                )
            }
            OpState::ErIssueCmd2 => StepAction::Emit(
                BusPhase::new(PhaseKind::CmdLatch(op::ERASE_2), one_ca),
                OpState::ErHoldWb,
            ),
            OpState::ErHoldWb => StepAction::Emit(
                BusPhase::new(PhaseKind::Pause, emit.timing.t_wb),
                OpState::ErWaitRb,
            ),
            OpState::ErWaitRb => StepAction::ReleaseForRb,
            OpState::ErIssueStatusCmd => StepAction::Emit(
                BusPhase::new(PhaseKind::CmdLatch(op::READ_STATUS), one_ca),
                OpState::ErHoldWhr,
            ),
            OpState::ErHoldWhr => StepAction::Emit(
                BusPhase::new(PhaseKind::Pause, emit.timing.t_whr),
                OpState::ErSampleStatus,
            ),
            OpState::ErSampleStatus => StepAction::Emit(
                BusPhase::new(
                    PhaseKind::DataOut { bytes: 1 },
                    emit.timing.t_rpre + emit.iface.data_cycle() + emit.timing.t_rpst,
                ),
                OpState::ErCheckStatus,
            ),
            OpState::ErCheckStatus => {
                if self.status & Status::RDY == 0 {
                    StepAction::Decide(OpState::ErIssueStatusCmd)
                } else {
                    StepAction::Decide(OpState::ErDone)
                }
            }
            OpState::ErDone => StepAction::Complete,
            // @loc:hw_sync_erase:end
        }
    }
}

/// The synchronous hardware controller.
pub struct SyncController {
    layout: AddrLayout,
    fsms: Vec<OpFsm>,
    queues: Vec<VecDeque<IoRequest>>,
    queue_cap: usize,
    rr: u32,
    grant_gap: SimDuration,
    bus_held_by: Option<u32>,
    done: Vec<(IoRequest, SimTime)>,
    /// Requests that completed with FAIL status.
    pub failures: Vec<IoRequest>,
}

impl SyncController {
    /// Builds the controller for a channel with `luns` LUNs.
    pub fn new(layout: AddrLayout, luns: u32) -> Self {
        SyncController {
            layout,
            fsms: (0..luns).map(|_| OpFsm::new()).collect(),
            queues: vec![VecDeque::new(); luns as usize],
            queue_cap: 8,
            rr: 0,
            // A grant reconfigures the winning operation module from the
            // request registers: costlier than the asynchronous design.
            grant_gap: SimDuration::from_nanos(900),
            bus_held_by: None,
            done: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn load_next(&mut self, lun: u32) {
        if self.fsms[lun as usize].req.is_none() {
            if let Some(req) = self.queues[lun as usize].pop_front() {
                self.fsms[lun as usize].load(req);
            }
        }
    }

    /// Grants the channel to the next FSM that wants it and lets it run
    /// until it must wait for the array — "however many transactions it
    /// can" (§II).
    fn arbitrate(&mut self, sys: &mut System) {
        if self.bus_held_by.is_some() {
            return;
        }
        let n = self.fsms.len() as u32;
        let Some(lun) = (0..n)
            .map(|i| (self.rr + 1 + i) % n)
            .find(|&l| self.fsms[l as usize].wants_bus())
        else {
            return;
        };
        self.rr = lun;
        let req = self.fsms[lun as usize].req.expect("fsm with request");
        // DMA prefetch for programs (the data path of Fig. 4).
        let prog_data = if req.kind == IoKind::Program {
            sys.dram.read_vec(req.dram_addr, req.len)
        } else {
            Vec::new()
        };
        let mut cursor = sys.now.max(sys.channel.busy_until()) + self.grant_gap;
        let mut dram_off = 0u64;
        loop {
            let action = self.fsms[lun as usize].step(&self.layout, &sys.emit, &prog_data);
            match action {
                StepAction::Emit(phase, next) => {
                    let is_data_out = matches!(phase.kind, PhaseKind::DataOut { .. });
                    let is_status = next == OpState::RdCheckStatus
                        || next == OpState::PgCheckStatus
                        || next == OpState::ErCheckStatus;
                    let tx = sys
                        .channel
                        .transmit(cursor, ChipMask::single(lun), &[phase], req.id, &mut sys.trace)
                        .unwrap_or_else(|e| panic!("hardware waveform rejected: {e}"));
                    cursor = tx.end;
                    if is_status {
                        self.fsms[lun as usize].status =
                            tx.data.first_byte().unwrap_or(0);
                    } else if is_data_out {
                        sys.dram.write_data(req.dram_addr + dram_off, tx.data.clone());
                        dram_off += tx.data.len() as u64;
                    }
                    self.fsms[lun as usize].state = next;
                }
                StepAction::Decide(next) => {
                    self.fsms[lun as usize].state = next;
                }
                StepAction::ReleaseForRb => {
                    self.bus_held_by = Some(lun);
                    sys.schedule(cursor, Event::TxnDone { ticket: lun as u64 });
                    return;
                }
                StepAction::Complete => {
                    self.bus_held_by = Some(lun);
                    sys.schedule(cursor, Event::TxnDone { ticket: lun as u64 });
                    return;
                }
            }
        }
    }

    fn on_txn_done(&mut self, sys: &mut System, lun: u32) {
        debug_assert_eq!(self.bus_held_by, Some(lun));
        self.bus_held_by = None;
        let state = self.fsms[lun as usize].state;
        match state {
            OpState::RdWaitRb | OpState::PgWaitRb | OpState::ErWaitRb => {
                match sys.channel.lun(lun).busy_until() {
                    Some(at) if at > sys.now => sys.schedule(at, Event::RbEdge { lun }),
                    _ => sys.schedule(sys.now, Event::RbEdge { lun }),
                }
            }
            OpState::RdDone | OpState::PgDone | OpState::ErDone => {
                let req = self.fsms[lun as usize].req.take().expect("done without req");
                if self.fsms[lun as usize].status & Status::FAIL != 0 {
                    self.failures.push(req);
                }
                self.fsms[lun as usize].state = OpState::Idle;
                self.done.push((req, sys.now));
                self.load_next(lun);
            }
            _ => {}
        }
        self.arbitrate(sys);
    }
}

impl Controller for SyncController {
    fn name(&self) -> &'static str {
        "Sync-HW"
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
                let next = match self.fsms[lun as usize].state {
                    // @loc:hw_sync_read:begin
                    OpState::RdWaitRb => Some(OpState::RdIssueStatusCmd),
                    // @loc:hw_sync_read:end
                    // @loc:hw_sync_program:begin
                    OpState::PgWaitRb => Some(OpState::PgIssueStatusCmd),
                    // @loc:hw_sync_program:end
                    // @loc:hw_sync_erase:begin
                    OpState::ErWaitRb => Some(OpState::ErIssueStatusCmd),
                    // @loc:hw_sync_erase:end
                    _ => None,
                };
                if let Some(next) = next {
                    self.fsms[lun as usize].state = next;
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
            + self.fsms.iter().filter(|f| f.req.is_some()).count()
    }
}

// ------------------------------------------------------- lint surface

/// The complete waveform program the per-LUN FSM produces for `req`, one
/// `Vec<BusPhase>` per bus tenure (grant to release). `prog_data` is the
/// DMA prefetch payload for program requests (ignored otherwise).
///
/// Drives the real `OpFsm` state machine off-bus: R/B# waits release the
/// tenure, and the status sample is fed RDY|ARDY (what real hardware reads
/// once R/B# rose) so the check loop advances. The static verifier lints
/// the result via `babol_verify::Verifier::check_phases`; this is not used
/// on the simulation path.
pub fn lint_phase_program(
    layout: &AddrLayout,
    emit: &EmitConfig,
    req: &IoRequest,
    prog_data: &[u8],
) -> Vec<Vec<BusPhase>> {
    let mut fsm = OpFsm::new();
    fsm.load(*req);
    let mut tenures = Vec::new();
    let mut current: Vec<BusPhase> = Vec::new();
    loop {
        match fsm.step(layout, emit, prog_data) {
            StepAction::Emit(phase, next) => {
                let sampled_status = next == OpState::RdCheckStatus
                    || next == OpState::PgCheckStatus
                    || next == OpState::ErCheckStatus;
                current.push(phase);
                fsm.state = next;
                if sampled_status {
                    fsm.status = Status::RDY | Status::ARDY;
                }
            }
            StepAction::Decide(next) => fsm.state = next,
            StepAction::ReleaseForRb => {
                if !current.is_empty() {
                    tenures.push(std::mem::take(&mut current));
                }
                fsm.state = match fsm.state {
                    OpState::RdWaitRb => OpState::RdIssueStatusCmd,
                    OpState::PgWaitRb => OpState::PgIssueStatusCmd,
                    OpState::ErWaitRb => OpState::ErIssueStatusCmd,
                    other => other,
                };
            }
            StepAction::Complete => {
                if !current.is_empty() {
                    tenures.push(current);
                }
                return tenures;
            }
        }
    }
}
