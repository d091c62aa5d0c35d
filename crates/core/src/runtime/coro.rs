//! The coroutine software environment.
//!
//! The paper's first (and friendliest) environment writes operations in
//! C++20 coroutines: the operation body enqueues a transaction and
//! `co_await`s its completion (Fig. 8). Rust's `async fn` is the direct
//! analogue — the operation library in [`crate::ops`] reads almost line for
//! line like the paper's Algorithms 1–3.
//!
//! The executor here is deliberately tiny and deterministic: tasks are
//! polled only when the runtime knows they can progress (a result arrived
//! or a timer fired), wakers are no-ops, and all context-switch costs are
//! charged by the shared [`SoftRuntime`](crate::runtime::SoftRuntime)
//! through the coroutine [`CostModel`](babol_sim::CostModel).

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use babol_sim::{BufPool, PageBuf, SimDuration, SimTime};
use babol_ufsm::Transaction;

use crate::runtime::{Mailbox, OpError, SoftTask, TaskStatus, TxnResult};
use crate::sched::TaskMeta;

/// Handle the operation body uses to talk to its runtime: submit
/// transactions, await their completion, sleep, account body work.
///
/// Cloning is cheap; the handle is shared between the task wrapper and the
/// future.
#[derive(Clone)]
pub struct OpCtx {
    mb: Rc<RefCell<Mailbox>>,
}

impl OpCtx {
    /// Creates a context for a task targeting `lun` at `priority`.
    pub fn new(lun: u32, priority: u8) -> Self {
        let mb = Mailbox {
            lun,
            priority,
            ..Mailbox::default()
        };
        OpCtx {
            mb: Rc::new(RefCell::new(mb)),
        }
    }

    /// Enqueues `txn` for execution and returns a future resolving to its
    /// result — the paper's `co_await add_transaction(...)`.
    pub fn submit(&self, txn: Transaction) -> TxnWait {
        let ticket = self.mb.borrow_mut().submit(txn);
        TxnWait {
            mb: Rc::clone(&self.mb),
            ticket,
        }
    }

    /// Accounts one unit of straight-line operation-body work.
    pub fn step(&self) {
        self.mb.borrow_mut().steps += 1;
    }

    /// Stages bytes into DRAM (the CPU preparing a buffer the Packetizer
    /// will DMA from, e.g. SET FEATURES parameter bytes).
    pub fn stage_bytes(&self, addr: u64, bytes: &[u8]) {
        self.mb.borrow_mut().stage(addr, bytes);
    }

    /// Suspends the operation for at least `dur` of simulated time.
    pub fn sleep(&self, dur: SimDuration) -> SleepWait {
        SleepWait {
            mb: Rc::clone(&self.mb),
            dur,
            armed: false,
        }
    }

    /// Simulated time of the current scheduling slot.
    pub fn now(&self) -> SimTime {
        self.mb.borrow().now
    }

    /// The runtime's poll-pacing interval (zero = hot polling).
    pub fn poll_backoff(&self) -> SimDuration {
        self.mb.borrow().poll_backoff
    }

    /// Sets the poll-pacing interval (done by the controller factory from
    /// the runtime configuration).
    pub fn set_poll_backoff(&self, d: SimDuration) {
        self.mb.borrow_mut().poll_backoff = d;
    }

    /// Tags the task with the host request id it serves, so trace events
    /// across every layer attribute to the same operation.
    pub fn set_op_id(&self, id: u64) {
        self.mb.borrow_mut().op_id = id;
    }

    /// Records the operation's final outcome (read by the controller).
    pub fn set_outcome(&self, outcome: Result<(), OpError>) {
        self.mb.borrow_mut().outcome = Some(outcome);
    }
}

/// Future resolving when a submitted transaction completes.
pub struct TxnWait {
    mb: Rc<RefCell<Mailbox>>,
    ticket: u64,
}

impl Future for TxnWait {
    type Output = TxnResult;
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<TxnResult> {
        match self.mb.borrow_mut().take_result(self.ticket) {
            Some(r) => Poll::Ready(r),
            None => Poll::Pending,
        }
    }
}

/// Future resolving after a requested sleep.
pub struct SleepWait {
    mb: Rc<RefCell<Mailbox>>,
    dur: SimDuration,
    armed: bool,
}

impl Future for SleepWait {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.armed {
            Poll::Ready(())
        } else {
            self.armed = true;
            self.mb.borrow_mut().sleep = Some(self.dur);
            Poll::Pending
        }
    }
}

/// A coroutine operation packaged as a schedulable task.
pub struct CoroTask {
    mb: Rc<RefCell<Mailbox>>,
    future: Pin<Box<dyn Future<Output = ()>>>,
    finished: bool,
}

impl CoroTask {
    /// Wraps the future produced by an `async fn` operation. The future must
    /// have been built over `ctx` (so the task wrapper and the body share
    /// the same mailbox).
    pub fn new(ctx: &OpCtx, future: impl Future<Output = ()> + 'static) -> Self {
        CoroTask {
            mb: Rc::clone(&ctx.mb),
            future: Box::pin(future),
            finished: false,
        }
    }
}

impl SoftTask for CoroTask {
    fn advance(&mut self, now: SimTime) -> TaskStatus {
        if self.finished {
            return TaskStatus::Finished;
        }
        self.mb.borrow_mut().now = now;
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        match self.future.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                self.finished = true;
                TaskStatus::Finished
            }
            Poll::Pending => TaskStatus::Blocked,
        }
    }

    fn drain_outbox(&mut self, out: &mut Vec<(u64, Transaction)>) {
        out.append(&mut self.mb.borrow_mut().outbox);
    }

    fn deliver(&mut self, local_ticket: u64, result: TxnResult) {
        self.mb.borrow_mut().deliver(local_ticket, result);
    }

    fn take_sleep(&mut self) -> Option<SimDuration> {
        self.mb.borrow_mut().sleep.take()
    }

    fn drain_staged(&mut self, out: &mut Vec<(u64, PageBuf)>) {
        out.append(&mut self.mb.borrow_mut().staged);
    }

    fn attach_pool(&mut self, pool: &BufPool) {
        self.mb.borrow_mut().pool = pool.clone();
    }

    fn take_steps(&mut self) -> u32 {
        std::mem::take(&mut self.mb.borrow_mut().steps)
    }

    fn take_outcome(&mut self) -> Option<Result<(), OpError>> {
        self.mb.borrow_mut().outcome.take()
    }

    fn meta(&self) -> TaskMeta {
        let mb = self.mb.borrow();
        TaskMeta {
            lun: mb.lun,
            priority: mb.priority,
        }
    }

    fn op_id(&self) -> u64 {
        self.mb.borrow().op_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::drained;
    use babol_onfi::bus::ChipMask;
    use babol_onfi::opcode::op;
    use babol_ufsm::{DmaDest, Latch, PostWait};

    fn status_txn() -> Transaction {
        Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(1, DmaDest::Inline)
    }

    #[test]
    fn task_blocks_on_txn_and_resumes_with_result() {
        let ctx = OpCtx::new(0, 0);
        let body = {
            let ctx = ctx.clone();
            async move {
                let r = ctx.submit(status_txn()).await;
                ctx.set_outcome(if r.inline[0] & 0x40 != 0 {
                    Ok(())
                } else {
                    Err(OpError::Timeout)
                });
            }
        };
        let mut task = CoroTask::new(&ctx, body);
        // First advance: submits and blocks.
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Blocked);
        let out = drained(&mut task);
        assert_eq!(out.len(), 1);
        assert!(task.take_outcome().is_none());
        // Deliver the result; next advance finishes.
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
    fn polling_loop_submits_one_txn_per_advance() {
        let ctx = OpCtx::new(2, 0);
        let body = {
            let ctx = ctx.clone();
            async move {
                // The paper's Algorithm 1 loop: poll until ready.
                loop {
                    let r = ctx.submit(status_txn()).await;
                    ctx.step();
                    if r.inline[0] & 0x40 != 0 {
                        break;
                    }
                }
                ctx.set_outcome(Ok(()));
            }
        };
        let mut task = CoroTask::new(&ctx, body);
        // Three busy polls, then ready.
        for i in 0..3 {
            assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Blocked, "poll {i}");
            let out = drained(&mut task);
            assert_eq!(out.len(), 1);
            task.deliver(
                out[0].0,
                TxnResult {
                    inline: vec![0x00],
                    end: SimTime::ZERO,
                },
            );
        }
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Blocked);
        let out = drained(&mut task);
        task.deliver(
            out[0].0,
            TxnResult {
                inline: vec![0x60],
                end: SimTime::ZERO,
            },
        );
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Finished);
        assert_eq!(task.take_steps(), 4); // one body step per poll iteration
    }

    #[test]
    fn sleep_parks_then_resumes() {
        let ctx = OpCtx::new(0, 0);
        let body = {
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_micros(5)).await;
                ctx.set_outcome(Ok(()));
            }
        };
        let mut task = CoroTask::new(&ctx, body);
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Blocked);
        assert_eq!(task.take_sleep(), Some(SimDuration::from_micros(5)));
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Finished);
    }

    #[test]
    fn meta_reflects_ctx() {
        let ctx = OpCtx::new(5, 9);
        let task = CoroTask::new(&ctx, async {});
        assert_eq!(
            task.meta(),
            TaskMeta {
                lun: 5,
                priority: 9
            }
        );
    }
}
