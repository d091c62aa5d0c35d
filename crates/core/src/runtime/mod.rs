//! The software environments: shared runtime machinery.
//!
//! The paper ships two software environments — C++20 coroutines and
//! FreeRTOS — that differ in programming model and context-switch cost but
//! share the same structure: operations build transactions, a task scheduler
//! decides which operation runs, a transaction scheduler feeds the hardware
//! instruction queue, and completions wake the blocked operation (§V).
//!
//! This module implements that shared structure once, as [`SoftRuntime`].
//! The two flavours differ only in how an operation body advances, so a
//! [`SoftTask`] is just that plus the task's [`Mailbox`], which the runtime
//! reads and writes directly:
//!
//! * [`coro`] — operations are `async fn`s polled by a tiny deterministic
//!   executor (the C++20-coroutines analogue);
//! * [`rtos`] — operations are explicit state machines (the FreeRTOS
//!   analogue: more expertise demanded, lighter runtime).
//!
//! Every software action charges the CPU model, so the same controller
//! logic slows down on a 150 MHz soft-core exactly the way Figure 10 shows.
//!
//! The transaction control path allocates nothing and hashes nothing at
//! steady state: a transaction's owner and trace attribution ride in its
//! queue entry, per-task and per-LUN state lives in vectors indexed by task
//! id or LUN, and the scheduler passes reuse scratch vectors. A status
//! wait's poll is a [`Submission::Status`], which the runtime plays from the
//! one READ STATUS transaction it builds per chip, and its status byte comes
//! back in place ([`InlineBytes`]), so a played busy poll allocates nothing
//! either.
//!
//! # Status-wait summarization
//!
//! Every operation waits for its LUN through one primitive, [`StatusWait`]:
//! READ STATUS, and after a busy status a sleep of the poll backoff. A
//! busy poll costs three events (timer, issue check, completion) and the
//! same work every time. The runtime skips the busy polls whose outcome is
//! already known, at quiet points: right after a poller goes to sleep,
//! when every admitted task is a status poller asleep in its backoff or
//! parked until its LUN frees up, nothing is runnable, queued or in
//! flight, the channel is idle, and every queued event is a sleeper's
//! timer. There it takes a mark of the system relative to the current
//! time. Two marks one joint period apart, the first taken at the same
//! poller's previous sleep, give a joint poll cycle when each poller
//! polled once and read busy and the timer leads, the processor lead and
//! the schedulers' last LUNs are equal; a lone poller's cycle is also
//! remembered with the timer and processor leads it starts from, so a
//! later lone wait with the same leads needs no second busy poll to
//! measure it. From a mark with a known cycle, every period repeats the
//! last shifted by its length until a poll reads RDY, so the runtime
//! withdraws the pollers' timers and parks only the first timer after the
//! last period in which every poll still reads busy, computed from each
//! LUN's busy deadline. When that timer fires, the skipped periods' CPU
//! cycles, bus traffic, status reads and transaction, ticket and timer
//! counts are credited in one step and the other timers queued again.
//! Anything that reaches the runtime earlier (a submission, another event)
//! first rebuilds the periods due before its time, so the rest of the run
//! is the one the unsummarized runtime plays. Only driver steps that allow
//! it summarize (`System::summary_limit`), and never with the tracer or
//! the channel analyzer on. DESIGN.md §Status-wait summarization has the
//! argument.

pub mod coro;
pub mod rtos;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;

use babol_channel::ChannelStats;
use babol_onfi::bus::ChipMask;
use babol_onfi::opcode::op;
use babol_onfi::status::Status;
use babol_sim::{BufPool, PageData, SimDuration, SimTime};
use babol_trace::{Component, Counter, TraceKind};
use babol_ufsm::{execute, DmaDest, EmitScratch, InlineBytes, Latch, PostWait, Transaction};

use crate::sched::{TaskMeta, TaskPolicy, TxnMeta, TxnPolicy};
use crate::system::{Controller, Event, IoRequest, System};

/// Task identifier inside a runtime.
pub type TaskId = usize;

/// A finished task: id, completion time, and outcome (`None` when the task
/// ended without reporting one).
pub type FinishedTask = (TaskId, SimTime, Option<Result<(), OpError>>);

/// Builds the software task serving one I/O request.
pub type TaskFactory = Box<dyn FnMut(&IoRequest) -> Box<dyn SoftTask>>;

/// Result of one completed transaction, delivered to the owning task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnResult {
    /// Bytes returned inline (status bytes, feature values, IDs), in place
    /// up to [`InlineBytes::CAPACITY`].
    pub inline: InlineBytes,
    /// When the transaction finished on the bus.
    pub end: SimTime,
}

/// Why an operation finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// The LUN reported FAIL status.
    Failed {
        /// The raw status byte.
        status: u8,
    },
    /// Data failed ECC even after retries.
    Uncorrectable,
    /// The operation gave up waiting.
    Timeout,
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Failed { status } => write!(f, "operation failed, status {status:#04x}"),
            OpError::Uncorrectable => write!(f, "uncorrectable data"),
            OpError::Timeout => write!(f, "operation timed out"),
        }
    }
}

impl std::error::Error for OpError {}

/// A transaction a task hands the runtime: one the operation built, or a
/// [`StatusWait`]'s READ STATUS, which the runtime plays from one copy it
/// builds per chip, so a busy poll builds nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submission {
    /// A transaction the operation built.
    Built(Transaction),
    /// READ STATUS on this chip ([`StatusWait::transaction`]).
    Status(u32),
}

impl Submission {
    /// The transaction itself: a [`Submission::Status`] is built here.
    pub fn into_transaction(self) -> Transaction {
        match self {
            Submission::Built(txn) => txn,
            Submission::Status(chip) => StatusWait::transaction(chip),
        }
    }
}

/// Per-task communication area between the runtime and the operation body:
/// everything the runtime knows of a task. The body fills `outbox`,
/// `staged`, `sleep`, `steps` and `outcome` during an advance and the
/// runtime empties them after it; the runtime sets `now` and delivers
/// results; whoever builds the task sets `meta`, `poll_backoff` and `op_id`;
/// the runtime attaches `pool` at spawn time.
#[derive(Debug, Default)]
pub struct Mailbox {
    /// Simulated time at the start of the current advance.
    pub now: SimTime,
    next_local: u64,
    /// Transactions submitted during the current advance (local ticket,
    /// submission).
    pub outbox: Vec<(u64, Submission)>,
    /// Results delivered by the runtime and not yet taken, with their local
    /// tickets. A task awaits few transactions at once, so a scan beats a
    /// map.
    results: Vec<(u64, TxnResult)>,
    /// Sleep request set during the current advance.
    pub sleep: Option<SimDuration>,
    /// DRAM staging writes requested during the current advance (the CPU
    /// preparing buffers the Packetizer will read), each a raw buffer
    /// counted in the system's [`BufPool`]; see [`Mailbox::stage`].
    pub staged: Vec<(u64, PageData)>,
    /// The system's raw-buffer count, attached by the runtime at spawn
    /// time.
    pub pool: BufPool,
    /// Straight-line work steps performed during the current advance.
    pub steps: u32,
    /// Final outcome, set by the operation before finishing.
    pub outcome: Option<Result<(), OpError>>,
    /// Poll-pacing interval, set by whoever builds the task (the controller
    /// factories copy the runtime configuration's).
    pub poll_backoff: SimDuration,
    /// The LUN the operation targets and its priority, as the task
    /// scheduler sees them.
    pub meta: TaskMeta,
    /// Host request id the operation serves (trace attribution; 0 for
    /// anonymous tasks — tests). The synchronous op player that boot and
    /// lint capture run on, [`crate::lintcap::play`], traces under id 0.
    pub op_id: u64,
    /// The chip a [`StatusWait`] is pacing its polls on, while the sleep it
    /// requested after a busy status is pending.
    status_wait: Option<u32>,
}

impl Mailbox {
    /// Allocates a local ticket and queues `txn` for submission.
    pub fn submit(&mut self, txn: Transaction) -> u64 {
        self.push(Submission::Built(txn))
    }

    fn push(&mut self, sub: Submission) -> u64 {
        let t = self.next_local;
        self.next_local += 1;
        self.outbox.push((t, sub));
        t
    }

    /// Takes the result for `ticket` if it has been delivered.
    pub fn take_result(&mut self, ticket: u64) -> Option<TxnResult> {
        let i = self.results.iter().position(|(t, _)| *t == ticket)?;
        Some(self.results.swap_remove(i).1)
    }

    /// Stores the result for `ticket` (each local ticket completes once).
    pub fn deliver(&mut self, ticket: u64, result: TxnResult) {
        self.results.push((ticket, result));
    }

    /// Queues a DRAM staging write of a copy of `bytes` at `addr`.
    pub fn stage(&mut self, addr: u64, bytes: &[u8]) {
        self.staged.push((addr, self.pool.raw(bytes.to_vec())));
    }
}

/// The one status wait of both software environments: polls READ STATUS on
/// a chip until RDY (paper Algorithm 2, lines 7..9). After a busy status it
/// sleeps the runtime's poll backoff instead of hot-spinning the channel
/// (the interval seen in Fig. 11); with a zero backoff it polls again at
/// once. Because every paced status poll goes through here, the runtime
/// knows one when it sees one and can summarize its pollers' busy polls
/// (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusWait {
    chip: u32,
    /// The local ticket of the poll in flight.
    pending: Option<u64>,
}

impl StatusWait {
    /// A wait for the LUN on chip-enable `chip`.
    pub fn new(chip: u32) -> Self {
        StatusWait {
            chip,
            pending: None,
        }
    }

    /// The READ STATUS transaction every poll of a wait on `chip` plays:
    /// a command latch, tWHR and one status byte read inline.
    pub fn transaction(chip: u32) -> Transaction {
        Transaction::new(ChipMask::single(chip))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(1, DmaDest::Inline)
    }

    /// Advances the wait: `Some(status)` once a poll reads RDY, `None`
    /// while a poll or its backoff sleep is outstanding. Each poll result
    /// counts one body step.
    pub fn poll(&mut self, mb: &mut Mailbox) -> Option<u8> {
        loop {
            let Some(ticket) = self.pending.take() else {
                mb.status_wait = None;
                self.pending = Some(mb.push(Submission::Status(self.chip)));
                return None;
            };
            let Some(result) = mb.take_result(ticket) else {
                self.pending = Some(ticket);
                return None;
            };
            mb.steps += 1;
            let status = result.inline[0];
            if status & Status::RDY != 0 {
                return Some(status);
            }
            if !mb.poll_backoff.is_zero() {
                mb.sleep = Some(mb.poll_backoff);
                mb.status_wait = Some(self.chip);
                return None;
            }
        }
    }
}

/// Progress of a task after one advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Blocked on a transaction result or a timer.
    Blocked,
    /// Ran to completion.
    Finished,
}

/// A schedulable operation: what differs between coroutine tasks ([`coro`])
/// and RTOS state-machine tasks ([`rtos`]). Everything else the runtime
/// reads or writes is a field of the task's [`Mailbox`].
pub trait SoftTask {
    /// Runs the task until it blocks or finishes. `now` is the simulated
    /// time of this scheduling slot. The caller holds no borrow of the
    /// mailbox, and never advances a task that has finished.
    fn advance(&mut self, now: SimTime) -> TaskStatus;
    /// The task's mailbox.
    fn mailbox(&self) -> &RefCell<Mailbox>;
}

/// Hardware issue latency between queued transactions.
const ISSUE_GAP: SimDuration = SimDuration::from_nanos(150);

/// Configuration of a software runtime instance.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Task scheduling policy.
    pub task_policy: TaskPolicy,
    /// Transaction scheduling policy.
    pub txn_policy: TxnPolicy,
    /// Hardware instruction queue depth (transaction look-ahead).
    pub lookahead: usize,
    /// Maximum concurrently admitted operations.
    pub admission: usize,
    /// Pacing interval of status-poll loops: after a busy status, the
    /// operation is rescheduled after this long rather than hot-spinning.
    /// This quantum plus the per-action cycle costs produce the polling
    /// periods of the paper's Fig. 11 (~30 µs coroutine, ~2.5 µs RTOS at
    /// 1 GHz).
    pub poll_backoff: SimDuration,
}

impl RuntimeConfig {
    /// The coroutine software environment, as configured in the paper's
    /// experiments.
    pub fn coroutine() -> Self {
        RuntimeConfig {
            task_policy: TaskPolicy::RoundRobinLun,
            txn_policy: TxnPolicy::RoundRobinLun,
            lookahead: 4,
            admission: 64,
            poll_backoff: SimDuration::from_nanos(24_000),
        }
    }

    /// The RTOS software environment.
    pub fn rtos() -> Self {
        RuntimeConfig {
            task_policy: TaskPolicy::RoundRobinLun,
            txn_policy: TxnPolicy::RoundRobinLun,
            lookahead: 4,
            admission: 64,
            poll_backoff: SimDuration::from_nanos(1_400),
        }
    }
}

/// What travels with a transaction from enqueue to completion: its ticket,
/// the task waiting on it, and its trace attribution.
#[derive(Debug, Clone, Copy)]
struct TxnTag {
    ticket: u64,
    /// The owning task and the local ticket its result is delivered under.
    waiter: (TaskId, u64),
    lun: u32,
    op_id: u64,
}

#[derive(Debug)]
struct ReadyTxn {
    tag: TxnTag,
    txn: Submission,
    meta: TxnMeta,
    avail: SimTime,
}

#[derive(Debug)]
struct HwEntry {
    tag: TxnTag,
    txn: Submission,
    avail: SimTime,
}

/// The transaction on the bus, with its outcome held until `TxnDone`.
#[derive(Debug)]
struct InFlight {
    tag: TxnTag,
    end: SimTime,
    inline: InlineBytes,
}

/// Admission state of one LUN: the task scheduler admits "an operation
/// when a given package is available" (paper §V).
#[derive(Debug, Default)]
struct LunSlot {
    /// An operation is admitted on this LUN.
    busy: bool,
    /// Tasks parked until the LUN frees up, in arrival order.
    parked: VecDeque<TaskId>,
}

/// A task asleep on a timer.
#[derive(Debug, Clone, Copy)]
struct Sleeper {
    tag: u64,
    tid: TaskId,
    /// When its timer fires.
    wake: SimTime,
    /// When it went to sleep: for a status wait, when its last poll
    /// sampled the status.
    since: SimTime,
    /// The chip a status wait polls, if the sleep is its backoff.
    chip: Option<u32>,
}

/// The system at a quiet sleep point (see [`SoftRuntime::quiet`]): what
/// it will do next, relative to `now`, and the counters the work until
/// the next mark adds to.
#[derive(Debug, Default)]
struct SystemMark {
    /// Marks of different epochs never pair: a task was admitted to run
    /// between them.
    epoch: u64,
    now: SimTime,
    /// How far past `now` the processor is busy.
    cpu_lead: SimDuration,
    cpu_cycles: u64,
    channel: ChannelStats,
    tickets: u64,
    timers: u64,
    /// The task and transaction schedulers' last LUNs.
    last_luns: (u32, u32),
    /// Every poller, asleep, in timer order.
    pollers: Vec<Sleeper>,
}

impl SystemMark {
    /// The joint poll cycle from this mark to `next`, if the system
    /// repeated itself in between: the same pollers on the same chips
    /// with the same timer leads, the same processor lead and schedulers'
    /// last LUNs, and each poller polled once, read busy and slept again.
    /// Everything else the runtime holds is empty at a quiet point, so
    /// from `next` on every period repeats this one shifted by its length,
    /// until a poll reads RDY or something else arrives.
    fn cycle_to(&self, next: &SystemMark) -> Option<PollCycle> {
        let pollers = next.pollers.len() as u64;
        // One poller is the only candidate of every pick it meets.
        let same_state = next.epoch == self.epoch
            && next.now > self.now
            && next.cpu_lead == self.cpu_lead
            && (pollers == 1 || next.last_luns == self.last_luns)
            && self.pollers.len() == next.pollers.len()
            && self.pollers.iter().zip(&next.pollers).all(|(a, b)| {
                (a.tid, a.chip) == (b.tid, b.chip) && a.wake - self.now == b.wake - next.now
            });
        if !same_state || pollers == 0 {
            return None;
        }
        // Each poller slept again (its tag moved on), and there were as
        // many transactions and timers as pollers: one READ STATUS each,
        // nothing else.
        let channel = next.channel.since(&self.channel);
        let each_polled_once = next.tickets == self.tickets + pollers
            && next.timers == self.timers + pollers
            && channel.segments == pollers
            && channel.bytes_in == 0
            && channel.bytes_out % pollers == 0
            && self
                .pollers
                .iter()
                .zip(&next.pollers)
                .all(|(a, b)| a.tag != b.tag);
        each_polled_once.then(|| PollCycle {
            period: next.now - self.now,
            cpu_cycles: next.cpu_cycles - self.cpu_cycles,
            channel,
            status_bytes: channel.bytes_out / pollers,
            pollers,
        })
    }
}

/// The work and length of one poll cycle, quiet point to quiet point: one
/// busy poll by each poller.
#[derive(Debug, Clone, Copy)]
struct PollCycle {
    period: SimDuration,
    cpu_cycles: u64,
    channel: ChannelStats,
    /// Bytes each status read returns.
    status_bytes: u64,
    /// Pollers, each of which takes one ticket and one timer per period.
    pollers: u64,
}

/// An open summary: the system repeats its poll cycle from the quiet point
/// at `anchor` for `periods` whole periods, with every queued timer
/// withdrawn and only the first timer after them parked in the system.
/// The sleepers stay in `SoftRuntime::sleeping` in timer order, as they
/// were at `anchor`.
#[derive(Debug, Clone, Copy)]
struct PollWindow {
    cycle: PollCycle,
    anchor: SimTime,
    periods: u64,
    /// The parked timer's tag.
    tag: u64,
    /// Whether the driver's bound, not a poll reading RDY, ends the
    /// summary.
    bounded: bool,
    /// Processor and bus state at `anchor`.
    cpu_until: SimTime,
    cpu_cycles: u64,
    channel_until: SimTime,
}

/// The shared software runtime: task scheduling, transaction scheduling,
/// hardware instruction queue, completion routing.
pub struct SoftRuntime {
    cfg: RuntimeConfig,
    tasks: Vec<Option<Box<dyn SoftTask>>>,
    free_ids: Vec<TaskId>,
    active: usize,
    runnable: VecDeque<TaskId>,
    /// Sleeping tasks (few at a time; scanned by tag).
    sleeping: Vec<Sleeper>,
    ready: Vec<ReadyTxn>,
    hw_queue: VecDeque<HwEntry>,
    in_flight: Option<InFlight>,
    next_ticket: u64,
    next_timer: u64,
    last_task_lun: u32,
    last_txn_lun: u32,
    /// Admission state per LUN, indexed by LUN.
    luns: Vec<LunSlot>,
    finished: Vec<FinishedTask>,
    /// Counts the tasks admitted to run: marks pair only within one
    /// epoch, so a task id reused by a new task never pairs with its old
    /// task's marks.
    epoch: u64,
    /// The last quiet-point mark taken at each task's sleep, by task id,
    /// and a scratch mark.
    marks: Vec<SystemMark>,
    mark: SystemMark,
    /// The remembered cycle of a lone poller: the timer and processor
    /// leads it starts from, and the cycle.
    memo: Option<((SimDuration, SimDuration), PollCycle)>,
    /// The open summary, if one is open.
    window: Option<PollWindow>,
    /// Rebuilding summarized polls: nothing is summarized meanwhile.
    replaying: bool,
    /// Reused receptacles: the policies' candidate lists and the μFSM
    /// engine's phase buffers.
    task_metas: Vec<TaskMeta>,
    txn_metas: Vec<TxnMeta>,
    emit_scratch: EmitScratch,
    /// The READ STATUS transaction of each chip polled so far, indexed by
    /// chip: what a [`Submission::Status`] plays.
    status_txns: Vec<Transaction>,
}

impl fmt::Debug for SoftRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SoftRuntime")
            .field("active", &self.active)
            .field("runnable", &self.runnable.len())
            .field("hw_queue", &self.hw_queue.len())
            .finish()
    }
}

impl SoftRuntime {
    /// Creates an empty runtime.
    pub fn new(cfg: RuntimeConfig) -> Self {
        SoftRuntime {
            cfg,
            tasks: Vec::new(),
            free_ids: Vec::new(),
            active: 0,
            runnable: VecDeque::new(),
            sleeping: Vec::new(),
            ready: Vec::new(),
            hw_queue: VecDeque::new(),
            in_flight: None,
            next_ticket: 0,
            next_timer: 0,
            last_task_lun: 0,
            last_txn_lun: 0,
            luns: Vec::new(),
            finished: Vec::new(),
            epoch: 0,
            marks: Vec::new(),
            mark: SystemMark::default(),
            memo: None,
            window: None,
            replaying: false,
            task_metas: Vec::new(),
            txn_metas: Vec::new(),
            emit_scratch: EmitScratch::default(),
            status_txns: Vec::new(),
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Number of admitted, unfinished tasks.
    pub fn active_tasks(&self) -> usize {
        self.active
    }

    /// Admits a task; returns its id. The caller should schedule a
    /// zero-delay [`Event::CpuDone`] so the pump runs.
    pub fn spawn(&mut self, sys: &mut System, task: Box<dyn SoftTask>) -> TaskId {
        self.interrupt(sys);
        let (lun, op_id) = {
            let mut mb = task.mailbox().borrow_mut();
            mb.pool = sys.pool().clone();
            (mb.meta.lun, mb.op_id)
        };
        let tid = if let Some(tid) = self.free_ids.pop() {
            self.tasks[tid] = Some(task);
            tid
        } else {
            self.tasks.push(Some(task));
            self.tasks.len() - 1
        };
        self.active += 1;
        sys.trace.count(Counter::TasksSpawned, 1);
        sys.trace
            .event(sys.now, Component::Sched, TraceKind::TaskSpawn, lun, op_id);
        // One operation per LUN at a time: a LUN has one page register, so
        // overlapping operations would corrupt each other. Later arrivals
        // park until the LUN frees up.
        let idx = lun as usize;
        if idx >= self.luns.len() {
            self.luns.resize_with(idx + 1, LunSlot::default);
        }
        let slot = &mut self.luns[idx];
        if slot.busy {
            slot.parked.push_back(tid);
        } else {
            slot.busy = true;
            self.admit(sys, tid);
        }
        tid
    }

    /// Admits a task to run on its LUN. A new epoch starts: marks taken
    /// before no longer pair with later ones (see [`SystemMark`]).
    fn admit(&mut self, sys: &mut System, tid: TaskId) {
        self.epoch += 1;
        self.mark_runnable(sys, tid);
    }

    /// Pushes a task onto the runnable queue. Traced runs also emit a
    /// `TaskReady` event — the anchor phase attribution pairs with the
    /// matching `SchedPick` to measure scheduler wait.
    fn mark_runnable(&mut self, sys: &mut System, tid: TaskId) {
        self.runnable.push_back(tid);
        if sys.trace.is_enabled() {
            if let Some(task) = self.tasks[tid].as_ref() {
                let mb = task.mailbox().borrow();
                sys.trace.event(
                    sys.now,
                    Component::Sched,
                    TraceKind::TaskReady,
                    mb.meta.lun,
                    mb.op_id,
                );
            }
        }
    }

    /// Drains tasks that finished since the last call.
    pub fn drain_finished(&mut self, out: &mut Vec<FinishedTask>) {
        out.append(&mut self.finished);
    }

    /// Routes one system event into the runtime.
    pub fn on_event(&mut self, sys: &mut System, ev: Event) {
        if let Some(w) = self.window.take() {
            match ev {
                Event::Timer { tag } if tag == w.tag => {
                    self.advance(sys, &w, w.periods);
                    debug_assert!(
                        self.plays_first_ready(sys, &w),
                        "a summarized status wait skipped the wrong number of polls"
                    );
                    // The parked timer is the first sleeper's; the rest
                    // go back in the queue behind it, in timer order.
                    for s in &self.sleeping[1..] {
                        sys.schedule(s.wake, Event::Timer { tag: s.tag });
                    }
                }
                _ => {
                    self.window = Some(w);
                    self.interrupt(sys);
                }
            }
        }
        match ev {
            Event::TxnDone { ticket } => self.on_txn_done(sys, ticket),
            Event::CpuDone => self.pump(sys),
            Event::IssueCheck => {
                self.try_issue(sys);
            }
            Event::Timer { tag } => self.on_timer(sys, tag),
            Event::RbEdge { .. } => {
                // Software environments poll via READ STATUS; R/B# edges are
                // for the hardware baselines.
            }
        }
    }

    fn on_timer(&mut self, sys: &mut System, tag: u64) {
        if let Some(i) = self.sleeping.iter().position(|s| s.tag == tag) {
            let tid = self.sleeping.swap_remove(i).tid;
            self.mark_runnable(sys, tid);
            self.pump(sys);
        }
    }

    fn on_txn_done(&mut self, sys: &mut System, ticket: u64) {
        let done = self
            .in_flight
            .take()
            .expect("completion for unknown transaction");
        debug_assert_eq!(done.tag.ticket, ticket);
        let tag = done.tag;
        sys.cpu.charge(sys.now, sys.cpu.cost().completion_irq);
        sys.trace.event(
            sys.now,
            Component::Sched,
            TraceKind::TxnComplete,
            tag.lun,
            tag.op_id,
        );
        let (tid, local) = tag.waiter;
        if let Some(task) = self.tasks[tid].as_ref() {
            task.mailbox().borrow_mut().deliver(
                local,
                TxnResult {
                    inline: done.inline,
                    end: done.end,
                },
            );
            self.mark_runnable(sys, tid);
        }
        // The hardware proceeds to the next queued transaction regardless of
        // what the software does with the completion.
        self.try_issue(sys);
        self.pump(sys);
    }

    /// Runs every runnable task, moving built transactions toward the
    /// hardware queue, charging the CPU for each step.
    fn pump(&mut self, sys: &mut System) {
        let cost = *sys.cpu.cost();
        if sys.trace.is_enabled() {
            // Queue-depth-over-time sample: one event per pump entry, all
            // four depths packed into the op_id word (layout unchanged).
            let depths = babol_trace::QueueDepths::from_lens(
                self.runnable.len(),
                self.ready.len(),
                self.hw_queue.len(),
                usize::from(self.in_flight.is_some()),
            );
            sys.trace.event(
                sys.now,
                Component::Sched,
                TraceKind::QueueDepth,
                0,
                depths.pack(),
            );
        }
        while let Some(tid) = self.pick_runnable(sys) {
            sys.cpu.charge(sys.now, cost.resume);
            let task = self.tasks[tid].as_mut().expect("runnable task exists");
            let status = task.advance(sys.now);
            // The one mailbox borrow of this step.
            let mut mb = task.mailbox().borrow_mut();
            let steps = std::mem::take(&mut mb.steps);
            if steps > 0 {
                sys.cpu.charge(sys.now, steps as u64 * cost.op_body_step);
            }
            for (addr, bytes) in mb.staged.drain(..) {
                sys.cpu.charge(sys.now, cost.op_body_step);
                sys.dram.write_data(addr, bytes);
            }
            let (task_meta, op_id) = (mb.meta, mb.op_id);
            for (local, txn) in mb.outbox.drain(..) {
                sys.cpu.charge(sys.now, cost.enqueue_txn);
                let ticket = self.next_ticket;
                self.next_ticket += 1;
                if let Submission::Status(chip) = txn {
                    let built = &mut self.status_txns;
                    while built.len() <= chip as usize {
                        built.push(StatusWait::transaction(built.len() as u32));
                    }
                }
                let meta = TxnMeta {
                    lun: task_meta.lun,
                    data_bytes: resolve(&self.status_txns, &txn).data_bytes(),
                    priority: task_meta.priority,
                };
                sys.trace.event(
                    sys.now,
                    Component::Sched,
                    TraceKind::TxnEnqueue,
                    meta.lun,
                    op_id,
                );
                self.ready.push(ReadyTxn {
                    tag: TxnTag {
                        ticket,
                        waiter: (tid, local),
                        lun: meta.lun,
                        op_id,
                    },
                    txn,
                    meta,
                    avail: sys.cpu.busy_until(),
                });
            }
            let wake = mb
                .sleep
                .take()
                .map(|dur| (sys.cpu.busy_until() + dur, mb.status_wait));
            let outcome = mb.outcome;
            drop(mb);
            sys.cpu.charge(sys.now, cost.suspend);
            if let Some((at, status_wait)) = wake {
                self.sleep(sys, tid, at, status_wait);
            }
            if status == TaskStatus::Finished {
                let lun = task_meta.lun;
                sys.trace.event(
                    sys.cpu.busy_until(),
                    Component::Sched,
                    TraceKind::TaskFinish,
                    lun,
                    op_id,
                );
                self.finished.push((tid, sys.cpu.busy_until(), outcome));
                self.tasks[tid] = None;
                self.free_ids.push(tid);
                self.active -= 1;
                // Release the LUN and admit the next parked operation —
                // highest priority first, FIFO among equals (the task
                // scheduler's admission decision, paper §V).
                let slot = &mut self.luns[lun as usize];
                let next = if self.cfg.task_policy == TaskPolicy::Priority {
                    let tasks = &self.tasks;
                    let best = slot
                        .parked
                        .iter()
                        .enumerate()
                        .max_by_key(|(i, &tid)| {
                            let prio = tasks[tid]
                                .as_ref()
                                .map_or(0, |t| t.mailbox().borrow().meta.priority);
                            (prio, usize::MAX - i) // FIFO tie-break
                        })
                        .map(|(i, _)| i);
                    best.and_then(|i| slot.parked.remove(i))
                } else {
                    slot.parked.pop_front()
                };
                slot.busy = next.is_some();
                if let Some(next) = next {
                    self.admit(sys, next);
                }
            }
        }
        // Transaction scheduler: refill the hardware instruction queue.
        let mut pushed = false;
        while self.hw_queue.len() < self.cfg.lookahead && !self.ready.is_empty() {
            sys.cpu.charge(sys.now, cost.txn_sched_pass);
            self.txn_metas.clear();
            self.txn_metas.extend(self.ready.iter().map(|r| r.meta));
            let Some(idx) = self.cfg.txn_policy.pick(&self.txn_metas, self.last_txn_lun) else {
                break;
            };
            let r = self.ready.remove(idx);
            self.last_txn_lun = r.meta.lun;
            self.hw_queue.push_back(HwEntry {
                tag: r.tag,
                txn: r.txn,
                avail: r.avail.max(sys.cpu.busy_until()),
            });
            pushed = true;
        }
        if pushed && self.in_flight.is_none() {
            sys.schedule(sys.cpu.busy_until().max(sys.now), Event::IssueCheck);
        }
    }

    fn pick_runnable(&mut self, sys: &mut System) -> Option<TaskId> {
        let tasks = &self.tasks;
        self.task_metas.clear();
        self.task_metas.extend(self.runnable.iter().map(|&tid| {
            tasks[tid]
                .as_ref()
                .expect("runnable")
                .mailbox()
                .borrow()
                .meta
        }));
        let idx = self
            .cfg
            .task_policy
            .pick(&self.task_metas, self.last_task_lun)?;
        let lun = self.task_metas[idx].lun;
        self.last_task_lun = lun;
        let tid = self.runnable.remove(idx);
        sys.trace.count(Counter::SchedPicks, 1);
        if sys.trace.is_enabled() {
            if let Some(&tid) = tid.as_ref() {
                let op_id = self.tasks[tid]
                    .as_ref()
                    .map_or(0, |t| t.mailbox().borrow().op_id);
                sys.trace
                    .event(sys.now, Component::Sched, TraceKind::SchedPick, lun, op_id);
            }
        }
        tid
    }

    /// Puts `tid` to sleep until `at`. At a quiet status-wait sleep point
    /// the system's busy polls may be summarized here: instead of the
    /// queued timers, the first timer after the skipped periods is parked
    /// (see the module docs).
    fn sleep(&mut self, sys: &mut System, tid: TaskId, at: SimTime, status_wait: Option<u32>) {
        let tag = self.next_timer;
        self.next_timer += 1;
        self.sleeping.push(Sleeper {
            tag,
            tid,
            wake: at,
            since: sys.now,
            chip: status_wait,
        });
        if status_wait.is_none() || !self.summarize(sys, tid) {
            sys.schedule(at, Event::Timer { tag });
        }
    }

    /// Whether the system is at a quiet point, right after a status poller
    /// went to sleep with its timer not yet queued: every admitted task is
    /// a status poller asleep in its backoff or parked until its LUN frees
    /// up, nothing is runnable, queued or in flight, the channel is idle,
    /// every queued event is a sleeper's timer, and the step may summarize.
    fn quiet(&self, sys: &System) -> bool {
        sys.summary_limit().is_some()
            && !self.replaying
            && self.runnable.is_empty()
            && self.ready.is_empty()
            && self.hw_queue.is_empty()
            && self.in_flight.is_none()
            && sys.channel.busy_until() <= sys.now
            && self.sleeping.len() + self.luns.iter().map(|s| s.parked.len()).sum::<usize>()
                == self.active
            && sys.pending_events() + 1 == self.sleeping.len()
            && self.sleeping.iter().all(|s| s.chip.is_some())
    }

    /// At a status poller's sleep point `tid`, takes a mark if the system
    /// is quiet and decides whether to skip whole poll periods: the cycle
    /// since this task's previous mark (or, for a lone poller, the
    /// remembered cycle from the same leads) must repeat, every poller's
    /// LUN must stay busy through at least one more period, and the first
    /// timer after the skipped periods must fire before the driver's bound.
    /// Returns whether a summary opened; it then holds every timer.
    fn summarize(&mut self, sys: &mut System, tid: TaskId) -> bool {
        if !self.quiet(sys) {
            return false;
        }
        let now = sys.now;
        // Queue order: timers pop by time, then by tag, which increases
        // with every timer queued.
        self.sleeping.sort_unstable_by_key(|s| (s.wake, s.tag));
        let mut mark = std::mem::take(&mut self.mark);
        mark.epoch = self.epoch;
        mark.now = now;
        mark.cpu_lead = sys.cpu.busy_until().saturating_since(now);
        mark.cpu_cycles = sys.cpu.busy_cycles();
        mark.channel = sys.channel.stats();
        mark.tickets = self.next_ticket;
        mark.timers = self.next_timer;
        mark.last_luns = (self.last_task_lun, self.last_txn_lun);
        mark.pollers.clear();
        mark.pollers.extend_from_slice(&self.sleeping);
        if tid >= self.marks.len() {
            self.marks.resize_with(tid + 1, SystemMark::default);
        }
        let lone = (mark.pollers.len() == 1).then(|| (mark.pollers[0].wake - now, mark.cpu_lead));
        let cycle = match self.memo {
            Some((leads, cycle)) if lone == Some(leads) => Some(cycle),
            _ => self.marks[tid].cycle_to(&mark),
        };
        std::mem::swap(&mut self.marks[tid], &mut mark);
        self.mark = mark;
        let Some(cycle) = cycle else {
            return false;
        };
        if let Some(leads) = lone {
            self.memo = Some((leads, cycle));
        }
        // A poller's poll j periods on samples the status at `since + j·P`
        // and reads busy while that is before its LUN's deadline.
        let p = cycle.period.as_picos();
        let mut periods = u64::MAX;
        for s in &self.sleeping {
            let chip = s.chip.expect("a quiet sleeper polls");
            let Some(deadline) = sys.channel.lun(chip).busy_until() else {
                return false;
            };
            let busy = deadline.saturating_since(s.since).as_picos();
            periods = periods.min(busy.saturating_sub(1) / p);
        }
        // The first timer after the summary must fire before the bound.
        let first = self.sleeping[0];
        let limit = sys.summary_limit().expect("a quiet step may summarize");
        let bound = match limit.saturating_since(first.wake).as_picos() {
            0 => 0,
            room => (room - 1) / p,
        };
        let bounded = bound < periods;
        let periods = periods.min(bound);
        if periods == 0 {
            return false;
        }
        let w = PollWindow {
            cycle,
            anchor: now,
            periods,
            tag: first.tag + cycle.pollers * periods,
            bounded,
            cpu_until: sys.cpu.busy_until(),
            cpu_cycles: sys.cpu.busy_cycles(),
            channel_until: sys.channel.busy_until(),
        };
        sys.park(
            first.wake + cycle.period * periods,
            Event::Timer { tag: w.tag },
            self.sleeping.len() - 1,
        );
        self.window = Some(w);
        true
    }

    /// Whether the periods `w` skipped were the last in which every poll
    /// reads busy, checked once the sleepers stand after them: each
    /// sleeper's last skipped poll sampled before its LUN's deadline, and,
    /// unless the driver's bound ended the summary, some poller's next
    /// poll samples at or after it.
    fn plays_first_ready(&self, sys: &System, w: &PollWindow) -> bool {
        let deadline = |s: &Sleeper| {
            let chip = s.chip.expect("a summarized sleeper polls");
            sys.channel.lun(chip).busy_until()
        };
        self.sleeping
            .iter()
            .all(|s| deadline(s).is_some_and(|b| s.since < b))
            && (w.bounded
                || self
                    .sleeping
                    .iter()
                    .any(|s| deadline(s).is_some_and(|b| b <= s.since + w.cycle.period)))
    }

    /// Moves an open summary `m` periods on: credits their work and
    /// advances every sleeper's timer, tag and last sample by `m` periods,
    /// the state the played run has at `anchor + m·P`.
    fn advance(&mut self, sys: &mut System, w: &PollWindow, m: u64) {
        self.credit(sys, w, m);
        let (span, tags) = (w.cycle.period * m, w.cycle.pollers * m);
        for s in &mut self.sleeping {
            s.tag += tags;
            s.wake += span;
            s.since += span;
        }
    }

    /// Credits `m` skipped periods of `w`: their processor cycles, bus
    /// traffic, status reads, transactions, tickets and timers, and the
    /// processor and bus horizons the last of them left.
    fn credit(&mut self, sys: &mut System, w: &PollWindow, m: u64) {
        if m == 0 {
            return;
        }
        assert_eq!(
            sys.cpu.busy_cycles(),
            w.cpu_cycles,
            "the processor was charged during a summarized status wait"
        );
        let span = w.cycle.period * m;
        sys.cpu.credit(w.cycle.cpu_cycles * m, w.cpu_until + span);
        sys.channel
            .credit(w.cycle.channel.times(m), w.channel_until + span);
        for s in &self.sleeping {
            let chip = s.chip.expect("a summarized sleeper polls");
            sys.channel
                .lun_mut(chip)
                .credit_status_reads(m, w.cycle.status_bytes);
        }
        self.next_ticket += w.cycle.pollers * m;
        self.next_timer += w.cycle.pollers * m;
    }

    /// Rebuilds an open summary up to `sys.now` before anything else
    /// reaches the runtime: credits the whole periods already past, queues
    /// every sleeper's timer, and replays the events due before `sys.now`.
    /// Afterwards the runtime is in the state the unsummarized run has at
    /// `sys.now`, events at `sys.now` itself not yet processed. Returns
    /// whether a summary was open.
    fn interrupt(&mut self, sys: &mut System) -> bool {
        let Some(w) = self.window.take() else {
            return false;
        };
        sys.unpark();
        let now = sys.now;
        // Period m ends at the quiet point `anchor + m·P`; the ones ending
        // before `now` are past.
        let done = match now.saturating_since(w.anchor).as_picos() {
            0 => 0,
            since => (since - 1) / w.cycle.period.as_picos(),
        };
        let m = done.min(w.periods);
        self.advance(sys, &w, m);
        sys.now = w.anchor + w.cycle.period * m;
        for s in &self.sleeping {
            sys.schedule(s.wake, Event::Timer { tag: s.tag });
        }
        self.replaying = true;
        while sys.next_event_time().is_some_and(|at| at < now) {
            let (at, ev) = sys.pop_event().expect("an event is due");
            sys.now = at;
            self.on_event(sys, ev);
        }
        self.replaying = false;
        sys.now = now;
        true
    }

    /// Hardware side: starts the next queued transaction if the bus is free.
    /// Costs no CPU.
    fn try_issue(&mut self, sys: &mut System) {
        if self.in_flight.is_some() {
            return;
        }
        let Some(front) = self.hw_queue.front() else {
            return;
        };
        if front.avail > sys.now {
            let at = front.avail;
            sys.schedule(at, Event::IssueCheck);
            return;
        }
        let entry = self.hw_queue.pop_front().expect("front exists");
        let tag = entry.tag;
        let start = sys.now.max(sys.channel.busy_until()) + ISSUE_GAP;
        sys.trace.event(
            start,
            Component::Sched,
            TraceKind::TxnIssue,
            tag.lun,
            tag.op_id,
        );
        let outcome = execute(
            &mut sys.channel,
            &mut sys.dram,
            &sys.emit,
            start,
            resolve(&self.status_txns, &entry.txn),
            tag.op_id,
            &mut sys.trace,
            &mut self.emit_scratch,
        )
        .unwrap_or_else(|e| panic!("operation logic drove an illegal waveform: {e}"));
        self.in_flight = Some(InFlight {
            tag,
            end: outcome.end,
            inline: outcome.inline,
        });
        sys.schedule(outcome.end, Event::TxnDone { ticket: tag.ticket });
    }
}

/// The transaction `sub` plays: its own, or its chip's in `status_txns`.
fn resolve<'a>(status_txns: &'a [Transaction], sub: &'a Submission) -> &'a Transaction {
    match sub {
        Submission::Built(txn) => txn,
        Submission::Status(chip) => &status_txns[*chip as usize],
    }
}

/// A [`Controller`] wrapping a [`SoftRuntime`] plus a task factory: this is
/// a complete BABOL software-defined controller.
pub struct SoftController {
    name: &'static str,
    rt: SoftRuntime,
    factory: TaskFactory,
    /// The request each task serves, indexed by task id.
    req_of: Vec<Option<IoRequest>>,
    done: Vec<(IoRequest, SimTime)>,
    scratch: Vec<FinishedTask>,
    /// Operations that finished with an error (visible to experiments).
    pub errors: Vec<(IoRequest, OpError)>,
}

impl SoftController {
    /// Builds a controller: `factory` turns each admitted request into a
    /// task for the runtime.
    pub fn new(
        name: &'static str,
        cfg: RuntimeConfig,
        factory: impl FnMut(&IoRequest) -> Box<dyn SoftTask> + 'static,
    ) -> Self {
        SoftController {
            name,
            rt: SoftRuntime::new(cfg),
            factory: Box::new(factory),
            req_of: Vec::new(),
            done: Vec::new(),
            scratch: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// The wrapped runtime (stats, configuration).
    pub fn runtime(&self) -> &SoftRuntime {
        &self.rt
    }

    fn harvest(&mut self, sys: &mut System) {
        let mut fin = std::mem::take(&mut self.scratch);
        self.rt.drain_finished(&mut fin);
        for (tid, at, outcome) in fin.drain(..) {
            if let Some(req) = self.req_of.get_mut(tid).and_then(Option::take) {
                if let Some(Err(e)) = outcome {
                    self.errors.push((req, e));
                }
                sys.trace
                    .event(at, Component::Ctrl, TraceKind::OpComplete, req.lun, req.id);
                self.done.push((req, at));
            }
        }
        self.scratch = fin;
    }
}

impl Controller for SoftController {
    fn name(&self) -> &'static str {
        self.name
    }

    fn submit(&mut self, sys: &mut System, req: IoRequest) -> bool {
        // A summarized status wait is rebuilt to `sys.now` first; the
        // polls it replays may finish a task.
        if self.rt.interrupt(sys) {
            self.harvest(sys);
        }
        if self.rt.active_tasks() >= self.rt.config().admission {
            return false;
        }
        let task = (self.factory)(&req);
        let tid = self.rt.spawn(sys, task);
        if tid >= self.req_of.len() {
            self.req_of.resize(tid + 1, None);
        }
        self.req_of[tid] = Some(req);
        sys.trace.event(
            sys.now,
            Component::Ctrl,
            TraceKind::OpIssue,
            req.lun,
            req.id,
        );
        sys.schedule(sys.now, Event::CpuDone);
        true
    }

    fn on_event(&mut self, sys: &mut System, ev: Event) {
        self.rt.on_event(sys, ev);
        self.harvest(sys);
    }

    fn take_completions(&mut self, out: &mut Vec<(IoRequest, SimTime)>) {
        out.append(&mut self.done);
    }

    fn in_flight(&self) -> usize {
        // Every admitted task serves one request, and `harvest` retires a
        // request in the same `on_event` that finishes its task.
        self.rt.active_tasks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Target;
    use crate::runtime::coro::{CoroTask, OpCtx};
    use crate::system::StepLimit;
    use babol_channel::Channel;
    use babol_flash::lun::LunConfig;
    use babol_flash::{Lun, PackageProfile};
    use babol_onfi::bus::ChipMask;
    use babol_onfi::opcode::op;
    use babol_sim::{Cpu, Freq};
    use babol_ufsm::{DmaDest, EmitConfig, Latch, PostWait};

    fn sys(luns: u32) -> System {
        let l = (0..luns)
            .map(|i| {
                let mut cfg = LunConfig::test_default();
                cfg.seed = i as u64 + 1;
                Lun::new(cfg)
            })
            .collect();
        System::new(
            Channel::new(l),
            EmitConfig::nv_ddr2(200),
            Cpu::new(Freq::from_ghz(1), babol_sim::CostModel::rtos()),
        )
    }

    fn status_task(lun: u32) -> Box<dyn SoftTask> {
        status_task_at(lun, 0)
    }

    fn status_task_at(lun: u32, priority: u8) -> Box<dyn SoftTask> {
        let ctx = OpCtx::new(lun, priority);
        let c = ctx.clone();
        let t = Target {
            chip: lun,
            layout: PackageProfile::test_tiny().layout(),
        };
        let fut = async move {
            let st = crate::ops::read_status(&c, &t).await;
            c.set_outcome(if st & 0x40 != 0 {
                Ok(())
            } else {
                Err(OpError::Timeout)
            });
        };
        Box::new(CoroTask::new(&ctx, fut))
    }

    fn status_txn(bytes: usize) -> Transaction {
        Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(bytes, DmaDest::Inline)
    }

    /// Takes the transactions a task built (for the environments' tests).
    pub(super) fn drained(task: &dyn SoftTask) -> Vec<(u64, Transaction)> {
        let outbox = std::mem::take(&mut task.mailbox().borrow_mut().outbox);
        outbox
            .into_iter()
            .map(|(ticket, sub)| (ticket, sub.into_transaction()))
            .collect()
    }

    /// Drains the event queue, routing everything into the runtime.
    fn drain(rt: &mut SoftRuntime, sys: &mut System) {
        while let Some((at, ev)) = sys.pop_event() {
            sys.now = at;
            rt.on_event(sys, ev);
        }
    }

    #[test]
    fn spawn_run_finish_cycle() {
        let mut s = sys(1);
        let mut rt = SoftRuntime::new(RuntimeConfig::rtos());
        rt.spawn(&mut s, status_task(0));
        assert_eq!(rt.active_tasks(), 1);
        s.schedule(s.now, Event::CpuDone);
        drain(&mut rt, &mut s);
        let mut fin = Vec::new();
        rt.drain_finished(&mut fin);
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0].2, Some(Ok(())));
        assert_eq!(rt.active_tasks(), 0);
        assert_eq!(s.channel.stats().segments, 1);
    }

    #[test]
    fn same_lun_tasks_serialize_different_luns_overlap() {
        let mut s = sys(2);
        let mut rt = SoftRuntime::new(RuntimeConfig::rtos());
        // Two tasks on LUN 0 (must serialize) and one on LUN 1.
        rt.spawn(&mut s, status_task(0));
        rt.spawn(&mut s, status_task(0));
        rt.spawn(&mut s, status_task(1));
        assert_eq!(rt.active_tasks(), 3);
        s.schedule(s.now, Event::CpuDone);
        drain(&mut rt, &mut s);
        let mut fin = Vec::new();
        rt.drain_finished(&mut fin);
        assert_eq!(fin.len(), 3);
        assert!(fin.iter().all(|(_, _, o)| *o == Some(Ok(()))));
    }

    #[test]
    fn lookahead_queue_respects_configured_depth() {
        let mut cfg = RuntimeConfig::rtos();
        cfg.lookahead = 1;
        let mut s = sys(4);
        let mut rt = SoftRuntime::new(cfg);
        for lun in 0..4 {
            rt.spawn(&mut s, status_task(lun));
        }
        // Run one pump only: all four tasks submit, but the hardware queue
        // holds at most one transaction; the rest wait in `ready`.
        rt.pump(&mut s);
        assert!(rt.hw_queue.len() <= 1);
        assert_eq!(rt.hw_queue.len() + rt.ready.len(), 4);
        drain(&mut rt, &mut s);
        let mut fin = Vec::new();
        rt.drain_finished(&mut fin);
        assert_eq!(fin.len(), 4);
    }

    #[test]
    fn cpu_is_charged_for_software_actions() {
        let mut s = sys(1);
        let mut rt = SoftRuntime::new(RuntimeConfig::rtos());
        rt.spawn(&mut s, status_task(0));
        s.schedule(s.now, Event::CpuDone);
        drain(&mut rt, &mut s);
        // At minimum: task sched + resume + enqueue + suspend + txn sched +
        // completion + final resume/suspend.
        assert!(s.cpu.busy_cycles() > 1_000, "{}", s.cpu.busy_cycles());
    }

    #[test]
    fn runtime_level_transaction_roundtrip() {
        // A raw task that submits a hand-built transaction and checks the
        // inline result, exercising deliver() plumbing end to end.
        let ctx = OpCtx::new(0, 0);
        let c = ctx.clone();
        let fut = async move {
            let txn = babol_ufsm::Transaction::new(ChipMask::single(0))
                .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
                .read(1, DmaDest::Inline);
            let r = c.submit(txn).await;
            c.set_outcome(if *r.inline == [0xE0] {
                Ok(())
            } else {
                Err(OpError::Timeout)
            });
        };
        let mut s = sys(1);
        let mut rt = SoftRuntime::new(RuntimeConfig::rtos());
        rt.spawn(&mut s, Box::new(CoroTask::new(&ctx, fut)));
        s.schedule(s.now, Event::CpuDone);
        drain(&mut rt, &mut s);
        let mut fin = Vec::new();
        rt.drain_finished(&mut fin);
        assert_eq!(fin[0].2, Some(Ok(())));
    }

    /// Two transactions submitted in one advance: each result comes back
    /// under its own local ticket, whichever is awaited first.
    #[test]
    fn two_submissions_in_one_advance_get_their_own_results() {
        let ctx = OpCtx::new(0, 0);
        let c = ctx.clone();
        let fut = async move {
            let first = c.submit(status_txn(1));
            let second = c.submit(status_txn(3));
            let b = second.await;
            let a = first.await;
            let ok = a.inline.len() == 1 && b.inline.len() == 3 && a.end < b.end;
            c.set_outcome(if ok { Ok(()) } else { Err(OpError::Timeout) });
        };
        let mut s = sys(1);
        let mut rt = SoftRuntime::new(RuntimeConfig::rtos());
        rt.spawn(&mut s, Box::new(CoroTask::new(&ctx, fut)));
        rt.pump(&mut s);
        assert_eq!(
            rt.ready.len() + rt.hw_queue.len(),
            2,
            "both built in one advance"
        );
        drain(&mut rt, &mut s);
        let mut fin = Vec::new();
        rt.drain_finished(&mut fin);
        assert_eq!(fin[0].2, Some(Ok(())));
        assert_eq!(s.channel.stats().segments, 2);
    }

    /// Under `TaskPolicy::Priority`, tasks parked on a busy LUN are admitted
    /// highest priority first, in arrival order among equals.
    #[test]
    fn priority_admission_from_a_parked_lun() {
        let mut cfg = RuntimeConfig::rtos();
        cfg.task_policy = TaskPolicy::Priority;
        let mut s = sys(1);
        let mut rt = SoftRuntime::new(cfg);
        // The first task takes the LUN; the rest park behind it.
        let prios = [0, 1, 5, 5, 1, 3];
        let tids: Vec<TaskId> = prios
            .iter()
            .map(|&p| rt.spawn(&mut s, status_task_at(0, p)))
            .collect();
        s.schedule(s.now, Event::CpuDone);
        drain(&mut rt, &mut s);
        let mut fin = Vec::new();
        rt.drain_finished(&mut fin);
        let order: Vec<TaskId> = fin.iter().map(|f| f.0).collect();
        let want = [0, 2, 3, 5, 1, 4].map(|i| tids[i]);
        assert_eq!(order, want);
        assert!(fin.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    /// The remembered cycle of a lone poller is keyed on the processor
    /// lead as well as the timer lead. Two erases wait on one LUN in turn.
    /// The second enters its first backoff with the processor held busy
    /// past its poll's completion, and with a backoff shortened by as much,
    /// so its timer lead is the first wait's while its processor lead is
    /// not. Its backoff is shorter than the suspend cost, so it wakes with
    /// the processor still busy and its cycle is longer. Summarized, the
    /// run must equal the played (traced) one.
    #[test]
    fn remembered_cycle_is_keyed_on_the_processor_lead() {
        let backoff = SimDuration::from_nanos(1_500);
        let run = |traced: bool| {
            let mut s = System::new(
                Channel::new(vec![Lun::new(LunConfig::test_default())]),
                EmitConfig::nv_ddr2(200),
                Cpu::new(Freq::from_ghz(1), babol_sim::CostModel::coroutine()),
            );
            if traced {
                s.trace = babol_trace::Tracer::with_capacity(1 << 16);
            }
            let mut ctrl =
                SoftController::new("test", RuntimeConfig::coroutine(), move |r: &IoRequest| {
                    let ctx = OpCtx::new(r.lun, 0);
                    let c = ctx.clone();
                    let t = Target {
                        chip: r.lun,
                        layout: PackageProfile::test_tiny().layout(),
                    };
                    let row = babol_onfi::addr::RowAddr {
                        lun: r.lun,
                        block: r.block,
                        page: 0,
                    };
                    let task = CoroTask::new(&ctx, async move {
                        let outcome = crate::ops::erase_block(&c, &t, row).await;
                        c.set_outcome(outcome);
                    });
                    task.mailbox().borrow_mut().poll_backoff = backoff;
                    Box::new(task)
                });
            let watchdog = babol_sim::Watchdog::disarmed();
            let headline = String::new;
            let limit = StepLimit::Watched(&watchdog, &headline, SimTime::FAR_FUTURE);
            let mut done = Vec::new();
            for block in [1, 2] {
                let req = IoRequest {
                    id: block as u64,
                    kind: crate::system::IoKind::Erase,
                    lun: 0,
                    block,
                    page: 0,
                    col: 0,
                    len: 0,
                    dram_addr: 0,
                };
                assert!(ctrl.submit(&mut s, req));
                let mut held = block == 1;
                while ctrl.in_flight() > 0 {
                    // The second erase's first status poll is on the bus.
                    if let Some(poll) = ctrl.rt.in_flight.as_ref().filter(|f| f.inline.len() == 1) {
                        if !held {
                            held = true;
                            let start = s.now.max(s.cpu.busy_until());
                            s.cpu
                                .charge(s.now, (poll.end - start).as_picos() / 1_000 + 1_000);
                            let lead = s.cpu.busy_until() - poll.end;
                            let task = ctrl.rt.tasks[poll.tag.waiter.0].as_ref().expect("a poller");
                            task.mailbox().borrow_mut().poll_backoff = backoff - lead;
                        }
                    }
                    s.step(&mut ctrl, limit);
                }
                ctrl.take_completions(&mut done);
            }
            let model = (
                s.cpu.busy_cycles(),
                s.channel.stats(),
                s.channel.lun(0).stats(),
            );
            (done, model, s.now, s.events_popped())
        };
        let (summarized, played) = (run(false), run(true));
        assert_eq!(summarized.0, played.0);
        assert_eq!((summarized.1, summarized.2), (played.1, played.2));
        assert!(summarized.3 < played.3, "nothing was summarized");
    }

    /// `in_flight` counts outstanding requests, not task slots ever used:
    /// it stays right when a finished task's id is handed to a new one.
    #[test]
    fn controller_in_flight_survives_tid_reuse() {
        let mut ctrl = SoftController::new("test", RuntimeConfig::rtos(), |r: &IoRequest| {
            status_task(r.lun)
        });
        let mut s = sys(2);
        let req = |id, lun| IoRequest {
            id,
            kind: crate::system::IoKind::Read,
            lun,
            block: 0,
            page: 0,
            col: 0,
            len: 0,
            dram_addr: 0,
        };
        let run = |ctrl: &mut SoftController, s: &mut System| {
            while let Some((at, ev)) = s.pop_event() {
                s.now = at;
                ctrl.on_event(s, ev);
            }
        };
        assert!(ctrl.submit(&mut s, req(1, 0)));
        assert_eq!(ctrl.in_flight(), 1);
        run(&mut ctrl, &mut s);
        assert_eq!(ctrl.in_flight(), 0);
        // Task id 0 is free again; the next request reuses it.
        assert!(ctrl.submit(&mut s, req(2, 0)));
        assert!(ctrl.submit(&mut s, req(3, 1)));
        assert_eq!(ctrl.in_flight(), 2);
        run(&mut ctrl, &mut s);
        assert_eq!(ctrl.in_flight(), 0);
        let mut done = Vec::new();
        ctrl.take_completions(&mut done);
        let ids: Vec<u64> = done.iter().map(|(r, _)| r.id).collect();
        assert_eq!(ids.len(), 3);
        assert!([1, 2, 3].iter().all(|id| ids.contains(id)));
    }
}
