//! The software environments: shared runtime machinery.
//!
//! The paper ships two software environments — C++20 coroutines and
//! FreeRTOS — that differ in programming model and context-switch cost but
//! share the same structure: operations build transactions, a task scheduler
//! decides which operation runs, a transaction scheduler feeds the hardware
//! instruction queue, and completions wake the blocked operation (§V).
//!
//! This module implements that shared structure once, as [`SoftRuntime`].
//! The two flavours plug in as [`SoftTask`] implementations:
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
//! id or LUN, and the scheduler passes reuse scratch vectors.

pub mod coro;
pub mod rtos;

use std::collections::VecDeque;
use std::fmt;

use babol_sim::{BufPool, PageBuf, SimDuration, SimTime};
use babol_trace::{Component, Counter, Metric, TraceKind};
use babol_ufsm::{execute, EmitScratch, Transaction};

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
    /// Bytes returned inline (status bytes, feature values, IDs).
    pub inline: Vec<u8>,
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

/// Per-task communication area between the runtime and the operation body.
#[derive(Debug, Default)]
pub struct Mailbox {
    /// Simulated time at the start of the current advance.
    pub now: SimTime,
    next_local: u64,
    /// Transactions built during the current advance (local ticket, txn).
    pub outbox: Vec<(u64, Transaction)>,
    /// Results delivered by the runtime and not yet taken, with their local
    /// tickets. A task awaits few transactions at once, so a scan beats a
    /// map.
    results: Vec<(u64, TxnResult)>,
    /// Sleep request set during the current advance.
    pub sleep: Option<SimDuration>,
    /// DRAM staging writes requested during the current advance (the CPU
    /// preparing buffers the Packetizer will read). Payloads come from the
    /// system's buffer pool; see [`Mailbox::stage`].
    pub staged: Vec<(u64, PageBuf)>,
    /// Page-buffer pool shared with the rest of the system, attached by the
    /// runtime at spawn time.
    pub pool: BufPool,
    /// Straight-line work steps performed during the current advance.
    pub steps: u32,
    /// Final outcome, set by the operation before finishing.
    pub outcome: Option<Result<(), OpError>>,
    /// Poll-pacing interval inherited from the runtime configuration.
    pub poll_backoff: SimDuration,
    /// The LUN the operation targets (scheduling metadata).
    pub lun: u32,
    /// Task priority (scheduling metadata).
    pub priority: u8,
    /// Host request id the operation serves (trace attribution; 0 for
    /// anonymous tasks).
    pub op_id: u64,
}

impl Mailbox {
    /// Allocates a local ticket and queues `txn` for submission.
    pub fn submit(&mut self, txn: Transaction) -> u64 {
        let t = self.next_local;
        self.next_local += 1;
        self.outbox.push((t, txn));
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

    /// Queues a DRAM staging write of `bytes` at `addr`, copying once into
    /// a pooled buffer.
    pub fn stage(&mut self, addr: u64, bytes: &[u8]) {
        let mut buf = self.pool.acquire();
        buf.extend_from_slice(bytes);
        self.staged.push((addr, buf.freeze()));
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

/// A schedulable operation. Implemented by coroutine tasks ([`coro`]) and
/// RTOS state-machine tasks ([`rtos`]).
pub trait SoftTask {
    /// Runs the task until it blocks or finishes. `now` is the simulated
    /// time of this scheduling slot.
    fn advance(&mut self, now: SimTime) -> TaskStatus;
    /// Drains transactions built during the last advance into `out` (an
    /// out-parameter so the runtime reuses one scratch vector).
    fn drain_outbox(&mut self, out: &mut Vec<(u64, Transaction)>);
    /// Delivers a transaction result.
    fn deliver(&mut self, local_ticket: u64, result: TxnResult);
    /// Takes a pending sleep request.
    fn take_sleep(&mut self) -> Option<SimDuration>;
    /// Drains DRAM staging writes requested during the last advance into
    /// `out` (an out-parameter so the runtime reuses one scratch vector).
    fn drain_staged(&mut self, out: &mut Vec<(u64, PageBuf)>);
    /// Connects the task's mailbox to the system's buffer pool. Called by
    /// the runtime at spawn time; tasks without staging may ignore it.
    fn attach_pool(&mut self, _pool: &BufPool) {}
    /// Takes the count of body steps executed during the last advance.
    fn take_steps(&mut self) -> u32;
    /// Takes the final outcome (valid once finished).
    fn take_outcome(&mut self) -> Option<Result<(), OpError>>;
    /// Scheduling metadata.
    fn meta(&self) -> TaskMeta;
    /// The host request id this task serves, for trace attribution
    /// (0 when the task is anonymous — boot, calibration, tests).
    fn op_id(&self) -> u64 {
        0
    }
}

/// Drains a task's outbox into a fresh vector (test convenience).
#[cfg(test)]
fn drained(task: &mut dyn SoftTask) -> Vec<(u64, Transaction)> {
    let mut out = Vec::new();
    task.drain_outbox(&mut out);
    out
}

/// Configuration of a software runtime instance.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Cycle costs of software actions (coroutine vs RTOS).
    pub cost: babol_sim::CostModel,
    /// Task scheduling policy.
    pub task_policy: TaskPolicy,
    /// Transaction scheduling policy.
    pub txn_policy: TxnPolicy,
    /// Hardware instruction queue depth (transaction look-ahead).
    pub lookahead: usize,
    /// Hardware issue latency between queued transactions.
    pub issue_gap: SimDuration,
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
            cost: babol_sim::CostModel::coroutine(),
            task_policy: TaskPolicy::RoundRobinLun,
            txn_policy: TxnPolicy::RoundRobinLun,
            lookahead: 4,
            issue_gap: SimDuration::from_nanos(150),
            admission: 64,
            poll_backoff: SimDuration::from_nanos(24_000),
        }
    }

    /// The RTOS software environment.
    pub fn rtos() -> Self {
        RuntimeConfig {
            cost: babol_sim::CostModel::rtos(),
            task_policy: TaskPolicy::RoundRobinLun,
            txn_policy: TxnPolicy::RoundRobinLun,
            lookahead: 4,
            issue_gap: SimDuration::from_nanos(150),
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
    /// Enqueue time, for the transaction-latency metric.
    enqueued: SimTime,
    lun: u32,
    op_id: u64,
}

#[derive(Debug)]
struct ReadyTxn {
    tag: TxnTag,
    txn: Transaction,
    meta: TxnMeta,
    avail: SimTime,
}

#[derive(Debug)]
struct HwEntry {
    tag: TxnTag,
    txn: Transaction,
    avail: SimTime,
}

/// The transaction on the bus, with its outcome held until `TxnDone`.
#[derive(Debug)]
struct InFlight {
    tag: TxnTag,
    end: SimTime,
    inline: Vec<u8>,
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

/// The shared software runtime: task scheduling, transaction scheduling,
/// hardware instruction queue, completion routing.
pub struct SoftRuntime {
    cfg: RuntimeConfig,
    tasks: Vec<Option<Box<dyn SoftTask>>>,
    free_ids: Vec<TaskId>,
    active: usize,
    runnable: VecDeque<TaskId>,
    /// Sleeping tasks by timer tag (few at a time; scanned).
    sleeping: Vec<(u64, TaskId)>,
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
    /// Cumulative count of issued transactions (stats).
    pub txns_issued: u64,
    /// When each task entered the runnable queue, indexed by task id
    /// (traced runs only; feeds the scheduler pick-wait histogram).
    runnable_since: Vec<Option<SimTime>>,
    /// Reused receptacles: staged DRAM writes and built transactions
    /// drained each pump pass, the policies' candidate lists, and the
    /// μFSM engine's phase buffers.
    staged_scratch: Vec<(u64, PageBuf)>,
    outbox_scratch: Vec<(u64, Transaction)>,
    task_metas: Vec<TaskMeta>,
    txn_metas: Vec<TxnMeta>,
    emit_scratch: EmitScratch,
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
            txns_issued: 0,
            runnable_since: Vec::new(),
            staged_scratch: Vec::new(),
            outbox_scratch: Vec::new(),
            task_metas: Vec::new(),
            txn_metas: Vec::new(),
            emit_scratch: EmitScratch::default(),
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
    pub fn spawn(&mut self, sys: &mut System, mut task: Box<dyn SoftTask>) -> TaskId {
        task.attach_pool(sys.pool());
        let lun = task.meta().lun;
        let op_id = task.op_id();
        let tid = if let Some(tid) = self.free_ids.pop() {
            self.tasks[tid] = Some(task);
            tid
        } else {
            self.tasks.push(Some(task));
            self.runnable_since.push(None);
            self.tasks.len() - 1
        };
        self.active += 1;
        sys.trace.count(Component::Sched, Counter::TasksSpawned, 1);
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
            self.mark_runnable(sys, tid);
        }
        tid
    }

    /// Pushes a task onto the runnable queue. Traced runs also stamp when
    /// the wait began (for the scheduler-latency metric) and emit a
    /// `TaskReady` event — the anchor phase attribution pairs with the
    /// matching `SchedPick` to measure scheduler wait.
    fn mark_runnable(&mut self, sys: &mut System, tid: TaskId) {
        self.runnable.push_back(tid);
        if sys.trace.is_enabled() {
            self.runnable_since[tid] = Some(sys.now);
            if let Some(task) = self.tasks[tid].as_ref() {
                sys.trace.event(
                    sys.now,
                    Component::Sched,
                    TraceKind::TaskReady,
                    task.meta().lun,
                    task.op_id(),
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
        if let Some(i) = self.sleeping.iter().position(|&(t, _)| t == tag) {
            let (_, tid) = self.sleeping.swap_remove(i);
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
        sys.cpu.charge(sys.now, self.cfg.cost.completion_irq);
        sys.trace.count(Component::Sched, Counter::TxnsCompleted, 1);
        if sys.trace.is_enabled() {
            sys.trace.event(
                sys.now,
                Component::Sched,
                TraceKind::TxnComplete,
                tag.lun,
                tag.op_id,
            );
            sys.trace
                .observe(Metric::TxnLatency, sys.now.saturating_since(tag.enqueued));
        }
        let (tid, local) = tag.waiter;
        if let Some(task) = self.tasks[tid].as_mut() {
            task.deliver(
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
        let cost = self.cfg.cost;
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
            let steps = task.take_steps();
            if steps > 0 {
                sys.cpu.charge(sys.now, steps as u64 * cost.op_body_step);
            }
            task.drain_staged(&mut self.staged_scratch);
            for (addr, bytes) in self.staged_scratch.drain(..) {
                sys.cpu.charge(sys.now, cost.op_body_step);
                sys.dram.write(addr, &bytes);
            }
            task.drain_outbox(&mut self.outbox_scratch);
            let task_meta = task.meta();
            let op_id = task.op_id();
            for (local, txn) in self.outbox_scratch.drain(..) {
                sys.cpu.charge(sys.now, cost.enqueue_txn);
                let ticket = self.next_ticket;
                self.next_ticket += 1;
                let meta = TxnMeta {
                    lun: task_meta.lun,
                    data_bytes: txn.data_bytes(),
                    priority: task_meta.priority,
                };
                sys.trace.count(Component::Sched, Counter::TxnsEnqueued, 1);
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
                        enqueued: sys.now,
                        lun: meta.lun,
                        op_id,
                    },
                    txn,
                    meta,
                    avail: sys.cpu.busy_until(),
                });
            }
            if let Some(dur) = task.take_sleep() {
                let tag = self.next_timer;
                self.next_timer += 1;
                self.sleeping.push((tag, tid));
                sys.schedule(sys.cpu.busy_until() + dur, Event::Timer { tag });
            }
            sys.cpu.charge(sys.now, cost.suspend);
            if status == TaskStatus::Finished {
                let outcome = task.take_outcome();
                let lun = task.meta().lun;
                let op_id = task.op_id();
                sys.trace.count(Component::Sched, Counter::TasksFinished, 1);
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
                            let prio = tasks[tid].as_ref().map(|t| t.meta().priority).unwrap_or(0);
                            (prio, usize::MAX - i) // FIFO tie-break
                        })
                        .map(|(i, _)| i);
                    best.and_then(|i| slot.parked.remove(i))
                } else {
                    slot.parked.pop_front()
                };
                slot.busy = next.is_some();
                if let Some(next) = next {
                    self.mark_runnable(sys, next);
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
        self.task_metas.extend(
            self.runnable
                .iter()
                .map(|&tid| tasks[tid].as_ref().expect("runnable").meta()),
        );
        let idx = self
            .cfg
            .task_policy
            .pick(&self.task_metas, self.last_task_lun)?;
        let lun = self.task_metas[idx].lun;
        self.last_task_lun = lun;
        let tid = self.runnable.remove(idx);
        sys.trace.count(Component::Sched, Counter::SchedPicks, 1);
        if sys.trace.is_enabled() {
            if let Some(&tid) = tid.as_ref() {
                let since = self.runnable_since[tid].take().unwrap_or(sys.now);
                sys.trace
                    .observe(Metric::SchedWait, sys.now.saturating_since(since));
                let op_id = self.tasks[tid].as_ref().map(|t| t.op_id()).unwrap_or(0);
                sys.trace
                    .event(sys.now, Component::Sched, TraceKind::SchedPick, lun, op_id);
            }
        }
        tid
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
        let start = sys.now.max(sys.channel.busy_until()) + self.cfg.issue_gap;
        sys.trace.count(Component::Sched, Counter::TxnsIssued, 1);
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
            &entry.txn,
            tag.op_id,
            &mut sys.trace,
            &mut self.emit_scratch,
        )
        .unwrap_or_else(|e| panic!("operation logic drove an illegal waveform: {e}"));
        self.txns_issued += 1;
        self.in_flight = Some(InFlight {
            tag,
            end: outcome.end,
            inline: outcome.inline,
        });
        sys.schedule(outcome.end, Event::TxnDone { ticket: tag.ticket });
    }
}

/// A [`Controller`] wrapping a [`SoftRuntime`] plus a task factory: this is
/// a complete BABOL software-defined controller.
pub struct SoftController {
    name: &'static str,
    rt: SoftRuntime,
    factory: TaskFactory,
    /// The request each task serves and, in traced runs, its submission
    /// time (for op-latency observations); indexed by task id.
    req_of: Vec<Option<(IoRequest, Option<SimTime>)>>,
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
            if let Some((req, t0)) = self.req_of.get_mut(tid).and_then(Option::take) {
                if let Some(Err(e)) = outcome {
                    self.errors.push((req, e));
                }
                sys.trace.count(Component::Ctrl, Counter::OpsCompleted, 1);
                if sys.trace.is_enabled() {
                    sys.trace
                        .event(at, Component::Ctrl, TraceKind::OpComplete, req.lun, req.id);
                    sys.trace
                        .observe(Metric::OpLatency, at.saturating_since(t0.unwrap_or(at)));
                }
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
        if self.rt.active_tasks() >= self.rt.config().admission {
            return false;
        }
        let task = (self.factory)(&req);
        let tid = self.rt.spawn(sys, task);
        if tid >= self.req_of.len() {
            self.req_of.resize(tid + 1, None);
        }
        self.req_of[tid] = Some((req, sys.trace.is_enabled().then_some(sys.now)));
        sys.trace.count(Component::Ctrl, Counter::OpsSubmitted, 1);
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
        assert_eq!(rt.txns_issued, 1);
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
            c.set_outcome(if r.inline == vec![0xE0] {
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
        assert_eq!(rt.txns_issued, 2);
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
