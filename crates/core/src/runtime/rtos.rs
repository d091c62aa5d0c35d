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
//! only how a body advances and the [`CostModel`](babol_sim::CostModel)
//! differ, mirroring the paper's claim that the abstractions are
//! runtime-agnostic. An [`RtosTask`] owns its [`Mailbox`] inline: the
//! machine steps on it directly, and the runtime borrows it between
//! advances.

use babol_onfi::addr::{ColumnAddr, RowAddr};
use babol_onfi::opcode::op;
use babol_onfi::status::Status;
use std::cell::RefCell;

use babol_sim::SimTime;
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

/// Task wrapper running an [`RtosMachine`] under the runtime: it steps the
/// machine until it blocks or finishes.
pub struct RtosTask<M: RtosMachine> {
    mb: RefCell<Mailbox>,
    machine: M,
}

impl<M: RtosMachine> RtosTask<M> {
    /// Wraps `machine` as a task targeting `lun` at `priority`.
    pub fn new(lun: u32, priority: u8, machine: M) -> Self {
        RtosTask {
            mb: RefCell::new(Mailbox {
                meta: TaskMeta { lun, priority },
                ..Mailbox::default()
            }),
            machine,
        }
    }
}

impl<M: RtosMachine> SoftTask for RtosTask<M> {
    fn advance(&mut self, now: SimTime) -> TaskStatus {
        let mb = self.mb.get_mut();
        mb.now = now;
        loop {
            match self.machine.step(mb) {
                MachineStatus::Continue => continue,
                MachineStatus::Blocked => return TaskStatus::Blocked,
                MachineStatus::Finished => return TaskStatus::Finished,
            }
        }
    }

    fn mailbox(&self) -> &RefCell<Mailbox> {
        &self.mb
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
    use crate::ops;
    use crate::runtime::coro::{CoroTask, OpCtx};
    use crate::runtime::tests::drained;
    use babol_onfi::addr::AddrLayout;
    use babol_sim::SimDuration;
    use babol_ufsm::{InlineBytes, Instr};
    use std::future::Future;

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
        let out = drained(&task);
        assert_eq!(out.len(), 1);
        task.mb.get_mut().deliver(
            out[0].0,
            TxnResult {
                inline: InlineBytes::new(),
                end: SimTime::ZERO,
            },
        );
        // Poll: busy once, then ready.
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Blocked);
        let out = drained(&task);
        task.mb.get_mut().deliver(
            out[0].0,
            TxnResult {
                inline: InlineBytes::from(&[0x80][..]),
                end: SimTime::ZERO,
            },
        );
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Blocked);
        let out = drained(&task);
        task.mb.get_mut().deliver(
            out[0].0,
            TxnResult {
                inline: InlineBytes::from(&[0xE0][..]),
                end: SimTime::ZERO,
            },
        );
        // Fetch.
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Blocked);
        let out = drained(&task);
        assert_eq!(out[0].1.data_bytes(), 64);
        task.mb.get_mut().deliver(
            out[0].0,
            TxnResult {
                inline: InlineBytes::new(),
                end: SimTime::ZERO,
            },
        );
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Finished);
        assert_eq!(task.mb.get_mut().outcome, Some(Ok(())));
    }

    #[test]
    fn read_op_reports_fail_status() {
        let machine = ReadOp::new(target(), row(), 0, 64, 0, false);
        let mut task = RtosTask::new(0, 0, machine);
        task.advance(SimTime::ZERO);
        let out = drained(&task);
        task.mb.get_mut().deliver(
            out[0].0,
            TxnResult {
                inline: InlineBytes::new(),
                end: SimTime::ZERO,
            },
        );
        task.advance(SimTime::ZERO);
        let out = drained(&task);
        // Ready with FAIL set.
        task.mb.get_mut().deliver(
            out[0].0,
            TxnResult {
                inline: InlineBytes::from(&[0xE1][..]),
                end: SimTime::ZERO,
            },
        );
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Finished);
        assert!(matches!(
            task.mb.get_mut().outcome,
            Some(Err(OpError::Failed { .. }))
        ));
    }

    #[test]
    fn pslc_read_adds_prefix_latch() {
        let machine = ReadOp::new(target(), row(), 0, 64, 0, true);
        let mut task = RtosTask::new(0, 0, machine);
        task.advance(SimTime::ZERO);
        let out = drained(&task);
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
        let out = drained(&task);
        assert_eq!(out[0].1.data_bytes(), 64);
        task.mb.get_mut().deliver(
            out[0].0,
            TxnResult {
                inline: InlineBytes::new(),
                end: SimTime::ZERO,
            },
        );
        task.advance(SimTime::ZERO);
        let out = drained(&task);
        task.mb.get_mut().deliver(
            out[0].0,
            TxnResult {
                inline: InlineBytes::from(&[0xE0][..]),
                end: SimTime::ZERO,
            },
        );
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Finished);
        assert_eq!(task.mb.get_mut().outcome, Some(Ok(())));
    }

    #[test]
    fn erase_fail_propagates() {
        let machine = EraseOp::new(target(), row());
        let mut task = RtosTask::new(0, 0, machine);
        task.advance(SimTime::ZERO);
        let out = drained(&task);
        task.mb.get_mut().deliver(
            out[0].0,
            TxnResult {
                inline: InlineBytes::new(),
                end: SimTime::ZERO,
            },
        );
        task.advance(SimTime::ZERO);
        let out = drained(&task);
        task.mb.get_mut().deliver(
            out[0].0,
            TxnResult {
                inline: InlineBytes::from(&[0xE1][..]),
                end: SimTime::ZERO,
            },
        );
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Finished);
        assert!(matches!(
            task.mb.get_mut().outcome,
            Some(Err(OpError::Failed { .. }))
        ));
    }

    /// What an operation did when played against a scripted LUN.
    #[derive(Debug)]
    struct Played {
        /// Chip mask and instructions of each transaction, in order.
        txns: Vec<(babol_onfi::bus::ChipMask, Vec<Instr>)>,
        sleeps: Vec<SimDuration>,
        steps: u32,
        outcome: Option<Result<(), OpError>>,
    }

    /// Runs `task` to completion through its mailbox, answering each READ
    /// STATUS with the next byte of `statuses` and every other transaction
    /// with no data.
    fn play(task: &mut dyn SoftTask, statuses: &[u8]) -> Played {
        task.mailbox().borrow_mut().poll_backoff = SimDuration::from_micros(1);
        let mut statuses = statuses.iter();
        let mut played = Played {
            txns: Vec::new(),
            sleeps: Vec::new(),
            steps: 0,
            outcome: None,
        };
        loop {
            let status = task.advance(SimTime::ZERO);
            let mut mb = task.mailbox().borrow_mut();
            played.steps += std::mem::take(&mut mb.steps);
            played.sleeps.extend(mb.sleep.take());
            for (ticket, sub) in std::mem::take(&mut mb.outbox) {
                let txn = sub.into_transaction();
                let poll = [Latch::Cmd(op::READ_STATUS)];
                let inline = match &txn.instrs()[0] {
                    Instr::CaWriter { latches, .. } if latches[..] == poll => {
                        vec![*statuses.next().expect("a scripted status")]
                    }
                    _ => Vec::new(),
                };
                mb.deliver(
                    ticket,
                    TxnResult {
                        inline: InlineBytes::from(&inline[..]),
                        end: SimTime::ZERO,
                    },
                );
                played.txns.push((txn.chip_mask(), txn.instrs().to_vec()));
            }
            if status == TaskStatus::Finished {
                played.outcome = mb.outcome;
                assert!(statuses.next().is_none(), "unread scripted statuses");
                return played;
            }
        }
    }

    /// A coroutine task running `op` the way the coroutine controller
    /// does: the operation reports its own failure, the wrapper success.
    fn coro<F>(op: impl FnOnce(OpCtx) -> F) -> CoroTask
    where
        F: Future<Output = Result<(), OpError>> + 'static,
    {
        let ctx = OpCtx::new(0, 0);
        let (c, body) = (ctx.clone(), op(ctx.clone()));
        CoroTask::new(&ctx, async move {
            if body.await.is_ok() {
                c.set_outcome(Ok(()));
            }
        })
    }

    /// The RTOS machines emit the programs of their coroutine counterparts,
    /// sleep the same backoffs and end with the same outcome, polling
    /// through a busy status to RDY or to FAIL — apart from the one pinned
    /// difference below.
    #[test]
    fn rtos_ops_play_the_coroutine_programs() {
        let (t, r) = (target(), row());
        for statuses in [&[0x80, 0xE0][..], &[0x80, 0xE1]] {
            let pairs: [(&str, Box<dyn SoftTask>, CoroTask); 5] = [
                (
                    "read_page",
                    Box::new(RtosTask::new(0, 0, ReadOp::new(t, r, 8, 64, 0x1000, false))),
                    coro(move |c| async move { ops::read_page(&c, &t, r, 8, 64, 0x1000).await }),
                ),
                (
                    "read_page_pslc",
                    Box::new(RtosTask::new(0, 0, ReadOp::new(t, r, 8, 64, 0x1000, true))),
                    coro(
                        move |c| async move { ops::read_page_pslc(&c, &t, r, 8, 64, 0x1000).await },
                    ),
                ),
                (
                    "program_page",
                    Box::new(RtosTask::new(0, 0, ProgramOp::new(t, r, 0x2000, 64, false))),
                    coro(move |c| async move { ops::program_page(&c, &t, r, 0x2000, 64).await }),
                ),
                (
                    "program_page_pslc",
                    Box::new(RtosTask::new(0, 0, ProgramOp::new(t, r, 0x2000, 64, true))),
                    coro(
                        move |c| async move { ops::program_page_pslc(&c, &t, r, 0x2000, 64).await },
                    ),
                ),
                (
                    "erase_block",
                    Box::new(RtosTask::new(0, 0, EraseOp::new(t, r))),
                    coro(move |c| async move { ops::erase_block(&c, &t, r).await }),
                ),
            ];
            for (name, mut rtos, mut coro) in pairs {
                let rtos = play(&mut *rtos, statuses);
                let coro = play(&mut coro, statuses);
                let case = format!("{name} with statuses {statuses:02x?}");
                assert_eq!(rtos.txns, coro.txns, "{case}");
                assert_eq!(rtos.sleeps, coro.sleeps, "{case}");
                // Pinned difference. The coroutine program and erase count
                // one more body step (the `ctx.step()` after their status
                // wait), so the RTOS machines are charged one `op_body_step`
                // less each.
                let extra_step = u32::from(!name.starts_with("read"));
                assert_eq!(coro.steps, rtos.steps + extra_step, "{case}");
                assert_eq!(coro.outcome, rtos.outcome, "{case}");
            }
        }
    }
}
