//! The RTOS software environment.
//!
//! The paper's second software environment runs on FreeRTOS: context
//! switches are an order of magnitude cheaper than the C++ coroutine
//! runtime's, but "it demands more expertise from the programmer" (§V,
//! Discussion). The reproduction makes that trade-off tangible: where the
//! coroutine library writes `await`, the RTOS library threads every
//! operation through an explicit state machine — compare [`ReadOp`] here
//! with [`crate::ops::read_page`].
//!
//! Both environments share the [`SoftRuntime`](crate::runtime::SoftRuntime);
//! only the task representation and the [`CostModel`](babol_sim::CostModel)
//! differ, mirroring the paper's claim that the abstractions are
//! runtime-agnostic.

use babol_onfi::addr::{ColumnAddr, RowAddr};
use babol_onfi::opcode::op;
use babol_onfi::status::Status;
use babol_sim::{BufPool, PageData, SimDuration, SimTime};
use babol_ufsm::{DmaDest, Latch, PostWait, Transaction};

use crate::ops::Target;
use crate::runtime::{Mailbox, OpError, SoftTask, StatusWait, TaskStatus, TxnResult};
use crate::sched::TaskMeta;

/// Progress of one machine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineStatus {
    /// The machine can take another step immediately.
    Continue,
    /// Blocked on the outstanding transaction (or sleep).
    Blocked,
    /// The operation is complete.
    Finished,
}

/// An RTOS-style operation: an explicit state machine stepped by the task
/// wrapper. The machine reads results from, and submits transactions to,
/// the shared [`Mailbox`].
pub trait RtosMachine {
    /// Executes one state transition.
    fn step(&mut self, mb: &mut Mailbox) -> MachineStatus;
}

/// Task wrapper adapting an [`RtosMachine`] to the runtime's
/// [`SoftTask`] interface.
pub struct RtosTask<M: RtosMachine> {
    mb: Mailbox,
    machine: M,
    finished: bool,
}

impl<M: RtosMachine> RtosTask<M> {
    /// Wraps `machine` as a task targeting `lun` at `priority`.
    pub fn new(lun: u32, priority: u8, machine: M) -> Self {
        RtosTask {
            mb: Mailbox {
                lun,
                priority,
                ..Mailbox::default()
            },
            machine,
            finished: false,
        }
    }

    /// Sets the poll-pacing interval (from the runtime configuration).
    pub fn with_poll_backoff(mut self, d: SimDuration) -> Self {
        self.mb.poll_backoff = d;
        self
    }

    /// Tags the task with the host request id it serves, so trace events
    /// across every layer attribute to the same operation.
    pub fn with_op_id(mut self, id: u64) -> Self {
        self.mb.op_id = id;
        self
    }
}

impl<M: RtosMachine> SoftTask for RtosTask<M> {
    fn advance(&mut self, now: SimTime) -> TaskStatus {
        if self.finished {
            return TaskStatus::Finished;
        }
        self.mb.now = now;
        loop {
            match self.machine.step(&mut self.mb) {
                MachineStatus::Continue => continue,
                MachineStatus::Blocked => return TaskStatus::Blocked,
                MachineStatus::Finished => {
                    self.finished = true;
                    return TaskStatus::Finished;
                }
            }
        }
    }

    fn drain_outbox(&mut self, out: &mut Vec<(u64, Transaction)>) {
        out.append(&mut self.mb.outbox);
    }

    fn deliver(&mut self, local_ticket: u64, result: TxnResult) {
        self.mb.deliver(local_ticket, result);
    }

    fn take_sleep(&mut self) -> Option<SimDuration> {
        self.mb.sleep.take()
    }

    fn status_wait(&self) -> Option<u32> {
        self.mb.status_wait
    }

    fn drain_staged(&mut self, out: &mut Vec<(u64, PageData)>) {
        out.append(&mut self.mb.staged);
    }

    fn attach_pool(&mut self, pool: &BufPool) {
        self.mb.pool = pool.clone();
    }

    fn take_steps(&mut self) -> u32 {
        std::mem::take(&mut self.mb.steps)
    }

    fn take_outcome(&mut self) -> Option<Result<(), OpError>> {
        self.mb.outcome.take()
    }

    fn meta(&self) -> TaskMeta {
        TaskMeta {
            lun: self.mb.lun,
            priority: self.mb.priority,
        }
    }

    fn op_id(&self) -> u64 {
        self.mb.op_id
    }
}

// --------------------------------------------------------------- operations

/// READ with Column Address Change, RTOS flavour: the same waveform logic
/// as [`crate::ops::read_page`], hand-threaded through a state machine.
pub struct ReadOp {
    t: Target,
    row: RowAddr,
    col: u32,
    len: usize,
    dest: u64,
    pslc: bool,
    state: ReadState,
    pending: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadState {
    IssueLatch,
    AwaitLatch,
    AwaitReady(StatusWait),
    IssueFetch,
    AwaitFetch,
}

impl ReadOp {
    /// Builds a page read (set `pslc` for the Algorithm-3 variant).
    pub fn new(t: Target, row: RowAddr, col: u32, len: usize, dest: u64, pslc: bool) -> Self {
        ReadOp {
            t,
            row,
            col,
            len,
            dest,
            pslc,
            state: ReadState::IssueLatch,
            pending: None,
        }
    }

    fn submit(&mut self, mb: &mut Mailbox, txn: Transaction) {
        self.pending = Some(mb.submit(txn));
    }

    fn result(&mut self, mb: &mut Mailbox) -> Option<TxnResult> {
        let t = self.pending.take().expect("await without submit");
        match mb.take_result(t) {
            Some(r) => Some(r),
            None => {
                self.pending = Some(t);
                None
            }
        }
    }
}

impl RtosMachine for ReadOp {
    fn step(&mut self, mb: &mut Mailbox) -> MachineStatus {
        match self.state {
            ReadState::IssueLatch => {
                let addr = self.t.layout.pack_full(ColumnAddr(0), self.row);
                let mut latches = Vec::with_capacity(4);
                if self.pslc {
                    latches.push(Latch::Cmd(op::PSLC_PREFIX));
                }
                latches.push(Latch::Cmd(op::READ_1));
                latches.push(Latch::Addr(addr));
                latches.push(Latch::Cmd(op::READ_2));
                let txn = Transaction::new(babol_onfi::bus::ChipMask::single(self.t.chip))
                    .ca(latches, PostWait::Wb);
                self.submit(mb, txn);
                self.state = ReadState::AwaitLatch;
                MachineStatus::Blocked
            }
            ReadState::AwaitLatch => {
                if self.result(mb).is_none() {
                    return MachineStatus::Blocked;
                }
                self.state = ReadState::AwaitReady(StatusWait::new(self.t.chip));
                MachineStatus::Continue
            }
            ReadState::AwaitReady(ref mut wait) => {
                let Some(status) = wait.poll(mb) else {
                    return MachineStatus::Blocked;
                };
                if status & Status::FAIL != 0 {
                    mb.outcome = Some(Err(OpError::Failed { status }));
                    return MachineStatus::Finished;
                }
                self.state = ReadState::IssueFetch;
                MachineStatus::Continue
            }
            ReadState::IssueFetch => {
                let col_addr = self.t.layout.pack_col(ColumnAddr(self.col));
                let txn = Transaction::new(babol_onfi::bus::ChipMask::single(self.t.chip))
                    .ca(
                        vec![
                            Latch::Cmd(op::CHANGE_READ_COL_1),
                            Latch::Addr(col_addr),
                            Latch::Cmd(op::CHANGE_READ_COL_2),
                        ],
                        PostWait::Ccs,
                    )
                    .read(self.len, DmaDest::Dram(self.dest));
                self.submit(mb, txn);
                self.state = ReadState::AwaitFetch;
                MachineStatus::Blocked
            }
            ReadState::AwaitFetch => {
                if self.result(mb).is_none() {
                    return MachineStatus::Blocked;
                }
                mb.steps += 1;
                mb.outcome = Some(Ok(()));
                MachineStatus::Finished
            }
        }
    }
}

/// PAGE PROGRAM, RTOS flavour.
pub struct ProgramOp {
    t: Target,
    row: RowAddr,
    src: u64,
    len: usize,
    pslc: bool,
    state: ProgState,
    pending: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProgState {
    IssueWrite,
    AwaitWrite,
    AwaitReady(StatusWait),
}

impl ProgramOp {
    /// Builds a page program (set `pslc` for the pSLC variant).
    pub fn new(t: Target, row: RowAddr, src: u64, len: usize, pslc: bool) -> Self {
        ProgramOp {
            t,
            row,
            src,
            len,
            pslc,
            state: ProgState::IssueWrite,
            pending: None,
        }
    }
}

impl RtosMachine for ProgramOp {
    fn step(&mut self, mb: &mut Mailbox) -> MachineStatus {
        match self.state {
            ProgState::IssueWrite => {
                let addr = self.t.layout.pack_full(ColumnAddr(0), self.row);
                let mut latches = Vec::with_capacity(3);
                if self.pslc {
                    latches.push(Latch::Cmd(op::PSLC_PREFIX));
                }
                latches.push(Latch::Cmd(op::PROGRAM_1));
                latches.push(Latch::Addr(addr));
                let txn = Transaction::new(babol_onfi::bus::ChipMask::single(self.t.chip))
                    .ca(latches, PostWait::Adl)
                    .write(self.len, self.src)
                    .ca(vec![Latch::Cmd(op::PROGRAM_2)], PostWait::Wb);
                self.pending = Some(mb.submit(txn));
                self.state = ProgState::AwaitWrite;
                MachineStatus::Blocked
            }
            ProgState::AwaitWrite => {
                let t = self.pending.take().expect("await without submit");
                if mb.take_result(t).is_none() {
                    self.pending = Some(t);
                    return MachineStatus::Blocked;
                }
                self.state = ProgState::AwaitReady(StatusWait::new(self.t.chip));
                MachineStatus::Continue
            }
            ProgState::AwaitReady(ref mut wait) => {
                let Some(status) = wait.poll(mb) else {
                    return MachineStatus::Blocked;
                };
                mb.outcome = Some(if status & Status::FAIL != 0 {
                    Err(OpError::Failed { status })
                } else {
                    Ok(())
                });
                MachineStatus::Finished
            }
        }
    }
}

/// BLOCK ERASE, RTOS flavour.
pub struct EraseOp {
    t: Target,
    row: RowAddr,
    state: EraseState,
    pending: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EraseState {
    IssueErase,
    AwaitErase,
    AwaitReady(StatusWait),
}

impl EraseOp {
    /// Builds a block erase.
    pub fn new(t: Target, row: RowAddr) -> Self {
        EraseOp {
            t,
            row,
            state: EraseState::IssueErase,
            pending: None,
        }
    }
}

impl RtosMachine for EraseOp {
    fn step(&mut self, mb: &mut Mailbox) -> MachineStatus {
        match self.state {
            EraseState::IssueErase => {
                let addr = self.t.layout.pack_row(self.row);
                let txn = Transaction::new(babol_onfi::bus::ChipMask::single(self.t.chip)).ca(
                    vec![
                        Latch::Cmd(op::ERASE_1),
                        Latch::Addr(addr),
                        Latch::Cmd(op::ERASE_2),
                    ],
                    PostWait::Wb,
                );
                self.pending = Some(mb.submit(txn));
                self.state = EraseState::AwaitErase;
                MachineStatus::Blocked
            }
            EraseState::AwaitErase => {
                let t = self.pending.take().expect("await without submit");
                if mb.take_result(t).is_none() {
                    self.pending = Some(t);
                    return MachineStatus::Blocked;
                }
                self.state = EraseState::AwaitReady(StatusWait::new(self.t.chip));
                MachineStatus::Continue
            }
            EraseState::AwaitReady(ref mut wait) => {
                let Some(status) = wait.poll(mb) else {
                    return MachineStatus::Blocked;
                };
                mb.outcome = Some(if status & Status::FAIL != 0 {
                    Err(OpError::Failed { status })
                } else {
                    Ok(())
                });
                MachineStatus::Finished
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::drained;
    use babol_onfi::addr::AddrLayout;

    fn target() -> Target {
        Target {
            chip: 0,
            layout: AddrLayout::new(512, 8, 8, 4),
        }
    }

    fn row() -> RowAddr {
        RowAddr {
            lun: 0,
            block: 1,
            page: 0,
        }
    }

    #[test]
    fn read_op_walks_its_states() {
        let machine = ReadOp::new(target(), row(), 0, 64, 0x1000, false);
        let mut task = RtosTask::new(0, 0, machine);
        // Latch.
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Blocked);
        let out = drained(&mut task);
        assert_eq!(out.len(), 1);
        task.deliver(
            out[0].0,
            TxnResult {
                inline: vec![],
                end: SimTime::ZERO,
            },
        );
        // Poll: busy once, then ready.
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Blocked);
        let out = drained(&mut task);
        task.deliver(
            out[0].0,
            TxnResult {
                inline: vec![0x80],
                end: SimTime::ZERO,
            },
        );
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Blocked);
        let out = drained(&mut task);
        task.deliver(
            out[0].0,
            TxnResult {
                inline: vec![0xE0],
                end: SimTime::ZERO,
            },
        );
        // Fetch.
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Blocked);
        let out = drained(&mut task);
        assert_eq!(out[0].1.data_bytes(), 64);
        task.deliver(
            out[0].0,
            TxnResult {
                inline: vec![],
                end: SimTime::ZERO,
            },
        );
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Finished);
        assert_eq!(task.take_outcome(), Some(Ok(())));
    }

    #[test]
    fn read_op_reports_fail_status() {
        let machine = ReadOp::new(target(), row(), 0, 64, 0, false);
        let mut task = RtosTask::new(0, 0, machine);
        task.advance(SimTime::ZERO);
        let out = drained(&mut task);
        task.deliver(
            out[0].0,
            TxnResult {
                inline: vec![],
                end: SimTime::ZERO,
            },
        );
        task.advance(SimTime::ZERO);
        let out = drained(&mut task);
        // Ready with FAIL set.
        task.deliver(
            out[0].0,
            TxnResult {
                inline: vec![0xE1],
                end: SimTime::ZERO,
            },
        );
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Finished);
        assert!(matches!(
            task.take_outcome(),
            Some(Err(OpError::Failed { .. }))
        ));
    }

    #[test]
    fn pslc_read_adds_prefix_latch() {
        let machine = ReadOp::new(target(), row(), 0, 64, 0, true);
        let mut task = RtosTask::new(0, 0, machine);
        task.advance(SimTime::ZERO);
        let out = drained(&mut task);
        let instrs = out[0].1.instrs();
        match &instrs[0] {
            babol_ufsm::Instr::CaWriter { latches, .. } => {
                assert_eq!(latches[0], Latch::Cmd(op::PSLC_PREFIX));
            }
            other => panic!("unexpected instr {other:?}"),
        }
    }

    #[test]
    fn program_then_poll_finishes() {
        let machine = ProgramOp::new(target(), row(), 0x2000, 64, false);
        let mut task = RtosTask::new(0, 0, machine);
        task.advance(SimTime::ZERO);
        let out = drained(&mut task);
        assert_eq!(out[0].1.data_bytes(), 64);
        task.deliver(
            out[0].0,
            TxnResult {
                inline: vec![],
                end: SimTime::ZERO,
            },
        );
        task.advance(SimTime::ZERO);
        let out = drained(&mut task);
        task.deliver(
            out[0].0,
            TxnResult {
                inline: vec![0xE0],
                end: SimTime::ZERO,
            },
        );
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Finished);
        assert_eq!(task.take_outcome(), Some(Ok(())));
    }

    #[test]
    fn erase_fail_propagates() {
        let machine = EraseOp::new(target(), row());
        let mut task = RtosTask::new(0, 0, machine);
        task.advance(SimTime::ZERO);
        let out = drained(&mut task);
        task.deliver(
            out[0].0,
            TxnResult {
                inline: vec![],
                end: SimTime::ZERO,
            },
        );
        task.advance(SimTime::ZERO);
        let out = drained(&mut task);
        task.deliver(
            out[0].0,
            TxnResult {
                inline: vec![0xE1],
                end: SimTime::ZERO,
            },
        );
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Finished);
        assert!(matches!(
            task.take_outcome(),
            Some(Err(OpError::Failed { .. }))
        ));
    }
}
