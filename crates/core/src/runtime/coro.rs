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
//!
//! A [`CoroTask`] and the [`OpCtx`] its body awaits on share one
//! `Rc<RefCell<Mailbox>>`: the body's futures borrow it while polled, and
//! the runtime borrows it, through [`SoftTask::mailbox`], between polls.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use babol_sim::{SimDuration, SimTime};
use babol_ufsm::Transaction;

use crate::runtime::{Mailbox, OpError, SoftTask, StatusWait, TaskStatus, TxnResult};
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
            meta: TaskMeta { lun, priority },
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

    /// Polls READ STATUS on `chip` until RDY, pacing busy polls by the
    /// runtime's backoff; resolves to the final status byte. This is the
    /// runtime's [`StatusWait`].
    pub fn wait_ready(&self, chip: u32) -> ReadyWait {
        ReadyWait {
            mb: Rc::clone(&self.mb),
            wait: StatusWait::new(chip),
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

/// Future resolving when a [`StatusWait`] reads RDY.
pub struct ReadyWait {
    mb: Rc<RefCell<Mailbox>>,
    wait: StatusWait,
}

impl Future for ReadyWait {
    type Output = u8;
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<u8> {
        let this = self.get_mut();
        match this.wait.poll(&mut this.mb.borrow_mut()) {
            Some(status) => Poll::Ready(status),
            None => Poll::Pending,
        }
    }
}

/// A coroutine operation packaged as a schedulable task.
pub struct CoroTask {
    mb: Rc<RefCell<Mailbox>>,
    future: Pin<Box<dyn Future<Output = ()>>>,
}

impl CoroTask {
    /// Wraps the future produced by an `async fn` operation. The future must
    /// have been built over `ctx` (so the task wrapper and the body share
    /// the same mailbox).
    pub fn new(ctx: &OpCtx, future: impl Future<Output = ()> + 'static) -> Self {
        CoroTask {
            mb: Rc::clone(&ctx.mb),
            future: Box::pin(future),
        }
    }
}

impl SoftTask for CoroTask {
    fn advance(&mut self, now: SimTime) -> TaskStatus {
        self.mb.borrow_mut().now = now;
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        match self.future.as_mut().poll(&mut cx) {
            Poll::Ready(()) => TaskStatus::Finished,
            Poll::Pending => TaskStatus::Blocked,
        }
    }

    fn mailbox(&self) -> &RefCell<Mailbox> {
        &self.mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests::drained;
    use babol_onfi::bus::ChipMask;
    use babol_onfi::opcode::op;
    use babol_ufsm::{DmaDest, InlineBytes, Latch, PostWait};

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
        let out = drained(&task);
        assert_eq!(out.len(), 1);
        assert!(task.mb.borrow().outcome.is_none());
        // Deliver the result; next advance finishes.
        task.mb.borrow_mut().deliver(
            out[0].0,
            TxnResult {
                inline: InlineBytes::from(&[0xE0][..]),
                end: SimTime::ZERO,
            },
        );
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Finished);
        assert_eq!(task.mb.borrow().outcome, Some(Ok(())));
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
            let out = drained(&task);
            assert_eq!(out.len(), 1);
            task.mb.borrow_mut().deliver(
                out[0].0,
                TxnResult {
                    inline: InlineBytes::from(&[0x00][..]),
                    end: SimTime::ZERO,
                },
            );
        }
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Blocked);
        let out = drained(&task);
        task.mb.borrow_mut().deliver(
            out[0].0,
            TxnResult {
                inline: InlineBytes::from(&[0x60][..]),
                end: SimTime::ZERO,
            },
        );
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Finished);
        assert_eq!(task.mb.borrow().steps, 4); // one body step per poll iteration
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
        assert_eq!(
            task.mb.borrow_mut().sleep.take(),
            Some(SimDuration::from_micros(5))
        );
        assert_eq!(task.advance(SimTime::ZERO), TaskStatus::Finished);
    }

    #[test]
    fn meta_reflects_ctx() {
        let ctx = OpCtx::new(5, 9);
        let task = CoroTask::new(&ctx, async {});
        assert_eq!(
            task.mailbox().borrow().meta,
            TaskMeta {
                lun: 5,
                priority: 9
            }
        );
    }
}
