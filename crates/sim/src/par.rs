//! Conservative parallel discrete-event simulation over per-channel shards.
//!
//! The BABOL reproduction models one flash channel per [`crate::EventQueue`];
//! a whole-device simulation (8–16 channels, Amber/SimpleSSD scale) runs one
//! queue per channel and advances them concurrently. This module provides the
//! generic kernel: a [`Shard`] is an isolated simulation domain with its own
//! clock and event queue, and a [`ShardPool`] steps every shard in windows
//! bounded by a conservative time barrier.
//!
//! # Barrier protocol
//!
//! Shards only interact through the coordinator: messages delivered at a
//! barrier time, and outputs harvested at the end of each window. Each round:
//!
//! 1. The coordinator computes `earliest` — the minimum of every shard's
//!    next-event time and, if any delivery is queued, the barrier itself.
//! 2. The horizon is `earliest + window`. The window is a fixed model
//!    parameter: it never depends on thread count, so the set of events each
//!    shard processes per round is identical whether the round runs on one
//!    worker or eight.
//! 3. Every shard receives its queued messages stamped at the barrier time
//!    (all events before the barrier are already processed, so the stamp
//!    never rewrites history), then runs until its next event is at or past
//!    the horizon.
//! 4. Outputs are merged in shard-id order. Within a shard outputs are
//!    already in simulated-time order, so a stable merge keyed by
//!    `(time, shard, emission index)` gives one global deterministic order.
//! 5. The barrier advances to the horizon.
//!
//! A shard may *overshoot* the horizon if its `run_until` chooses to. The
//! multi-channel SSD's shard has exactly one such choice: while an FTL job
//! (GC, cache flushes, wear migration) is queued it steps past the horizon
//! until the job has run. That is safe: the shard's own clock is private,
//! deliveries clamp forward (`now = max(now, barrier)`), and the merge key
//! still orders its outputs globally. Overshoot changes nothing across
//! thread counts because it is a property of the shard's event stream, not
//! of scheduling.
//!
//! # Threads
//!
//! With `threads = N >= 2` the pool spawns N-1 workers; the calling thread
//! is worker 0. Each round the caller sends the spawned workers their
//! inboxes, runs its own shards while they run theirs, then collects their
//! replies, so a round costs the shards' own work rather than a thread
//! hand-off. A waiting thread (a worker between rounds, the caller for
//! replies) polls its channel for a fixed budget, spinning and now and then
//! yielding its CPU, before it parks in a blocking receive: back-to-back
//! rounds never pay a kernel wake-up, and an idle pool burns no CPU.
//!
//! # Determinism
//!
//! With `threads <= 1` the pool keeps every shard on the caller's thread and
//! steps them in shard-id order — this *defines* the reference order. With
//! more threads, shards are pinned to workers (`shard % threads`, worker 0
//! being the caller), constructed on the thread that owns them (shards need
//! not be `Send`; only messages, outputs and ctors are), and every round's
//! results are re-assembled by shard id before the coordinator looks at
//! them. Arrival order never reaches the model, so any thread count
//! reproduces the single-thread stream bit for bit.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;

use crate::time::SimTime;

/// One isolated simulation domain driven by a [`ShardPool`].
///
/// Implementations own their full state (event queue, clock, model). They
/// do not need to be `Send`: each shard is constructed on the thread that
/// will drive it (a spawned worker or the pool's caller) and never moves
/// again.
pub trait Shard: 'static {
    /// Message type delivered into the shard at a barrier (host commands,
    /// cross-shard notifications).
    type In: Send + 'static;
    /// Output record harvested from the shard (completions). Outputs must
    /// carry their simulated emission time for the deterministic merge.
    type Out: Send + 'static;
    /// Final state summary returned by [`Shard::finish`].
    type Digest: Send + 'static;

    /// Accepts one cross-shard message stamped at barrier time `at`.
    /// The shard must clamp its clock forward (`now = max(now, at)`) and
    /// must not run events here; work happens in [`Shard::run_until`].
    fn deliver(&mut self, at: SimTime, msg: Self::In);

    /// Runs the shard until its next pending event is at or past `horizon`
    /// (or the queue is empty), appending outputs in emission order.
    fn run_until(&mut self, horizon: SimTime, out: &mut Vec<Self::Out>);

    /// Earliest pending event, if any. Drives the coordinator's horizon.
    fn next_event_time(&self) -> Option<SimTime>;

    /// The shard's local clock.
    fn now(&self) -> SimTime;

    /// Events processed since construction (monotonic; feeds the event-rate
    /// benchmarks).
    fn events_processed(&self) -> u64;

    /// Consumes the shard, returning its final digest.
    fn finish(self) -> Self::Digest;
}

/// Constructor for one shard, run on the thread that will own it.
pub type ShardCtor<S> = Box<dyn FnOnce() -> S + Send>;

/// Per-shard result of one barrier window.
#[derive(Debug)]
pub struct StepOutcome<O> {
    /// Outputs emitted during the window, in emission order.
    pub out: Vec<O>,
    /// The shard's next pending event after the window.
    pub next_event: Option<SimTime>,
    /// The shard's clock after the window (may exceed the horizon when the
    /// shard ran blocking internal work).
    pub now: SimTime,
    /// Total events the shard has processed since construction.
    pub events_processed: u64,
}

enum Cmd<I> {
    /// Run one window: deliver `inboxes[i]` to the worker's i-th shard at
    /// `deliver_at`, then run each shard to `horizon`.
    Step {
        deliver_at: SimTime,
        horizon: SimTime,
        inboxes: Vec<Vec<I>>,
    },
    Finish,
}

enum Reply<O, D> {
    /// `(global shard id, outcome)` for each shard the worker owns.
    Stepped(Vec<(usize, StepOutcome<O>)>),
    Finished(Vec<(usize, D)>),
    /// A shard panicked; the payload is the rendered panic message.
    Panicked(String),
}

struct Worker<S: Shard> {
    cmd: mpsc::Sender<Cmd<S::In>>,
    handle: Option<JoinHandle<()>>,
}

enum Backend<S: Shard> {
    /// `threads <= 1`: shards live on the caller's thread, stepped in
    /// shard-id order. This is the reference order every other mode must
    /// reproduce.
    Inline(Vec<S>),
    /// `threads = N >= 2`: the caller is worker 0 and owns `local`
    /// (`(global shard id, shard)`); `workers` are the N-1 spawned threads.
    Threaded {
        local: Vec<(usize, S)>,
        workers: Vec<Worker<S>>,
        replies: mpsc::Receiver<Reply<S::Out, S::Digest>>,
        shards: usize,
    },
}

/// A fixed-size pool driving [`Shard`]s under the conservative barrier
/// protocol. Built on std threads only; see the module docs for the
/// determinism argument.
pub struct ShardPool<S: Shard> {
    backend: Backend<S>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "shard worker panicked".to_string()
    }
}

/// `try_recv` polls before a waiting thread parks in a blocking `recv`.
/// A barrier round lasts tens of microseconds, so a waiter usually sees its
/// message while still polling and never pays a kernel wake-up.
const SPIN_POLLS: u32 = 1 << 14;
/// Every this many polls the waiter yields its CPU instead of spinning, so
/// the thread it waits for can run even when both share one CPU.
const YIELD_EVERY: u32 = 32;

/// Receives from `rx`: spin, then park. Fails only once every sender is gone.
fn spin_recv<T>(rx: &mpsc::Receiver<T>) -> Result<T, mpsc::RecvError> {
    for poll in 1..=SPIN_POLLS {
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(mpsc::TryRecvError::Disconnected) => return Err(mpsc::RecvError),
            Err(mpsc::TryRecvError::Empty) if poll % YIELD_EVERY == 0 => {
                std::thread::yield_now();
            }
            Err(mpsc::TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
    rx.recv()
}

impl<S: Shard> ShardPool<S> {
    /// Builds the pool. Each constructor runs exactly once, on the thread
    /// that will own the shard; shard `i` is pinned to worker `i % threads`,
    /// and worker 0 is the calling thread, so `threads` counts the caller
    /// and `threads - 1` threads are spawned. The spawned workers start
    /// building before the caller builds its own shards, so all
    /// construction overlaps. `threads <= 1` (or a single shard) selects the
    /// inline backend.
    pub fn new(ctors: Vec<ShardCtor<S>>, threads: usize) -> Self {
        assert!(!ctors.is_empty(), "a shard pool needs at least one shard");
        let shards = ctors.len();
        let threads = threads.min(shards);
        if threads <= 1 {
            let built = ctors.into_iter().map(|c| c()).collect();
            return ShardPool {
                backend: Backend::Inline(built),
            };
        }

        let (reply_tx, replies) = mpsc::channel();
        let mut slots: Vec<Vec<(usize, ShardCtor<S>)>> = (0..threads).map(|_| Vec::new()).collect();
        for (id, ctor) in ctors.into_iter().enumerate() {
            slots[id % threads].push((id, ctor));
        }
        let own = std::mem::take(&mut slots[0]);
        let workers = slots
            .into_iter()
            .enumerate()
            .skip(1)
            .map(|(w, ctors)| {
                let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd<S::In>>();
                let reply_tx = reply_tx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("babol-shard-{w}"))
                    .spawn(move || worker_main::<S>(ctors, cmd_rx, reply_tx))
                    .expect("spawning shard worker");
                Worker {
                    cmd: cmd_tx,
                    handle: Some(handle),
                }
            })
            .collect();
        let mut pool = ShardPool {
            backend: Backend::Threaded {
                local: Vec::new(),
                workers,
                replies,
                shards,
            },
        };
        // Built after every worker is spawned, so construction overlaps; if
        // a constructor panics, dropping `pool` joins the workers.
        let built = own.into_iter().map(|(id, ctor)| (id, ctor())).collect();
        if let Backend::Threaded { local, .. } = &mut pool.backend {
            *local = built;
        }
        pool
    }

    /// Number of shards in the pool.
    pub fn shards(&self) -> usize {
        match &self.backend {
            Backend::Inline(s) => s.len(),
            Backend::Threaded { shards, .. } => *shards,
        }
    }

    /// Runs one barrier window on every shard: deliver `inboxes[i]` to shard
    /// `i` at `deliver_at`, run each shard to `horizon`, and return outcomes
    /// indexed by shard id. `inboxes` must have one entry per shard.
    pub fn step(
        &mut self,
        deliver_at: SimTime,
        horizon: SimTime,
        mut inboxes: Vec<Vec<S::In>>,
    ) -> Vec<StepOutcome<S::Out>> {
        assert_eq!(inboxes.len(), self.shards(), "one inbox per shard");
        match &mut self.backend {
            Backend::Inline(shards) => shards
                .iter_mut()
                .zip(inboxes.drain(..))
                .map(|(shard, inbox)| run_window(shard, deliver_at, horizon, inbox))
                .collect(),
            Backend::Threaded {
                local,
                workers,
                replies,
                shards,
            } => {
                let threads = workers.len() + 1;
                let mut per_worker: Vec<Vec<Vec<S::In>>> =
                    (0..threads).map(|_| Vec::new()).collect();
                for (id, inbox) in inboxes.drain(..).enumerate() {
                    per_worker[id % threads].push(inbox);
                }
                let mut per_worker = per_worker.into_iter();
                let own = per_worker.next().expect("worker 0 is the caller");
                for (worker, inboxes) in workers.iter().zip(per_worker) {
                    // A worker that hung up has already sent its panic as a
                    // reply; the collection below surfaces it.
                    let _ = worker.cmd.send(Cmd::Step {
                        deliver_at,
                        horizon,
                        inboxes,
                    });
                }
                let mut outcomes: Vec<Option<StepOutcome<S::Out>>> =
                    (0..*shards).map(|_| None).collect();
                for ((id, shard), inbox) in local.iter_mut().zip(own) {
                    outcomes[*id] = Some(run_window(shard, deliver_at, horizon, inbox));
                }
                for _ in 0..workers.len() {
                    match spin_recv(replies).expect("shard worker hung up") {
                        Reply::Stepped(list) => {
                            for (id, outcome) in list {
                                outcomes[id] = Some(outcome);
                            }
                        }
                        Reply::Panicked(msg) => panic!("{msg}"),
                        Reply::Finished(_) => unreachable!("finish reply during step"),
                    }
                }
                outcomes
                    .into_iter()
                    .map(|o| o.expect("worker skipped a shard"))
                    .collect()
            }
        }
    }

    /// Shuts the pool down, returning every shard's digest in shard-id order.
    pub fn finish(mut self) -> Vec<S::Digest> {
        match std::mem::replace(&mut self.backend, Backend::Inline(Vec::new())) {
            Backend::Inline(shards) => shards.into_iter().map(Shard::finish).collect(),
            Backend::Threaded {
                local,
                mut workers,
                replies,
                shards,
            } => {
                for worker in &workers {
                    let _ = worker.cmd.send(Cmd::Finish);
                }
                let mut digests: Vec<Option<S::Digest>> = (0..shards).map(|_| None).collect();
                for (id, shard) in local {
                    digests[id] = Some(shard.finish());
                }
                for _ in 0..workers.len() {
                    match spin_recv(&replies).expect("shard worker hung up") {
                        Reply::Finished(list) => {
                            for (id, digest) in list {
                                digests[id] = Some(digest);
                            }
                        }
                        Reply::Panicked(msg) => panic!("{msg}"),
                        Reply::Stepped(_) => unreachable!("step reply during finish"),
                    }
                }
                for worker in &mut workers {
                    if let Some(handle) = worker.handle.take() {
                        if let Err(payload) = handle.join() {
                            resume_unwind(payload);
                        }
                    }
                }
                digests
                    .into_iter()
                    .map(|d| d.expect("worker dropped a digest"))
                    .collect()
            }
        }
    }
}

impl<S: Shard> Drop for ShardPool<S> {
    fn drop(&mut self) {
        if let Backend::Threaded { local, workers, .. } = &mut self.backend {
            // Closing the command channels makes workers drop their shards
            // and exit while the caller drops its own; join so no thread
            // outlives the pool. Panics were either already surfaced through
            // a reply or are repeated here.
            for worker in workers.iter_mut() {
                worker.cmd = mpsc::channel().0;
            }
            local.clear();
            for worker in workers.iter_mut() {
                if let Some(handle) = worker.handle.take() {
                    let _ = handle.join();
                }
            }
        }
    }
}

/// Delivers one inbox and runs one window on one shard.
fn run_window<S: Shard>(
    shard: &mut S,
    deliver_at: SimTime,
    horizon: SimTime,
    inbox: Vec<S::In>,
) -> StepOutcome<S::Out> {
    let mut out = Vec::new();
    for msg in inbox {
        shard.deliver(deliver_at, msg);
    }
    shard.run_until(horizon, &mut out);
    StepOutcome {
        out,
        next_event: shard.next_event_time(),
        now: shard.now(),
        events_processed: shard.events_processed(),
    }
}

fn worker_main<S: Shard>(
    ctors: Vec<(usize, ShardCtor<S>)>,
    cmd_rx: mpsc::Receiver<Cmd<S::In>>,
    reply_tx: mpsc::Sender<Reply<S::Out, S::Digest>>,
) {
    // Construct in-thread: shards never cross a thread boundary.
    let built = catch_unwind(AssertUnwindSafe(|| {
        ctors
            .into_iter()
            .map(|(id, ctor)| (id, ctor()))
            .collect::<Vec<(usize, S)>>()
    }));
    let mut shards = match built {
        Ok(shards) => shards,
        Err(payload) => {
            let _ = reply_tx.send(Reply::Panicked(panic_message(payload)));
            return;
        }
    };
    while let Ok(cmd) = spin_recv(&cmd_rx) {
        match cmd {
            Cmd::Step {
                deliver_at,
                horizon,
                inboxes,
            } => {
                let reply = catch_unwind(AssertUnwindSafe(|| {
                    shards
                        .iter_mut()
                        .zip(inboxes)
                        .map(|((id, shard), inbox)| {
                            (*id, run_window(shard, deliver_at, horizon, inbox))
                        })
                        .collect::<Vec<_>>()
                }));
                let reply = match reply {
                    Ok(list) => Reply::Stepped(list),
                    Err(payload) => {
                        let _ = reply_tx.send(Reply::Panicked(panic_message(payload)));
                        return;
                    }
                };
                if reply_tx.send(reply).is_err() {
                    return;
                }
            }
            Cmd::Finish => {
                let digests = shards
                    .drain(..)
                    .map(|(id, shard)| (id, shard.finish()))
                    .collect();
                let _ = reply_tx.send(Reply::Finished(digests));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::time::SimDuration;

    /// A minimal shard: delivered numbers become events `delay` later; each
    /// popped event emits `(time, value)` and schedules a decremented echo
    /// until the value reaches zero.
    struct Echo {
        id: u64,
        now: SimTime,
        events: EventQueue<u64>,
        processed: u64,
        delay: SimDuration,
    }

    impl Echo {
        fn new(id: u64, delay_ps: u64) -> Self {
            Echo {
                id,
                now: SimTime::ZERO,
                events: EventQueue::new(),
                processed: 0,
                delay: SimDuration::from_picos(delay_ps),
            }
        }
    }

    impl Shard for Echo {
        type In = u64;
        type Out = (SimTime, u64, u64);
        type Digest = (u64, u64);

        fn deliver(&mut self, at: SimTime, msg: u64) {
            self.now = self.now.max(at);
            self.events.push(self.now + self.delay, msg);
        }
        fn run_until(&mut self, horizon: SimTime, out: &mut Vec<Self::Out>) {
            while let Some(t) = self.events.peek_time() {
                if t >= horizon {
                    break;
                }
                let (at, v) = self.events.pop().unwrap();
                self.now = at;
                self.processed += 1;
                out.push((at, self.id, v));
                if v > 0 {
                    self.events.push(at + self.delay, v - 1);
                }
            }
        }
        fn next_event_time(&self) -> Option<SimTime> {
            self.events.peek_time()
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn events_processed(&self) -> u64 {
            self.processed
        }
        fn finish(self) -> (u64, u64) {
            (self.id, self.processed)
        }
    }

    type EchoRun = (Vec<(SimTime, u64, u64)>, Vec<(u64, u64)>);

    fn drive(threads: usize) -> EchoRun {
        let ctors: Vec<ShardCtor<Echo>> = (0..4u64)
            .map(|id| Box::new(move || Echo::new(id, 100 + id * 37)) as ShardCtor<Echo>)
            .collect();
        let mut pool = ShardPool::new(ctors, threads);
        let mut barrier = SimTime::ZERO;
        let window = SimDuration::from_picos(250);
        let mut merged = Vec::new();
        // Seed every shard with a chain, then drain in windows.
        let mut inboxes: Vec<Vec<u64>> = (0..4).map(|i| vec![i + 3]).collect();
        loop {
            let queued = inboxes.iter().any(|i| !i.is_empty());
            let outcomes = pool.step(
                barrier,
                barrier + window,
                std::mem::replace(&mut inboxes, (0..4).map(|_| Vec::new()).collect()),
            );
            let mut round: Vec<(SimTime, u64, u64)> = Vec::new();
            for o in &outcomes {
                round.extend(o.out.iter().copied());
            }
            round.sort_by_key(|&(t, shard, _)| (t, shard));
            merged.extend(round);
            barrier += window;
            if !queued && outcomes.iter().all(|o| o.next_event.is_none()) {
                break;
            }
        }
        (merged, pool.finish())
    }

    #[test]
    fn threaded_pools_reproduce_the_inline_order() {
        let (reference, digests1) = drive(1);
        assert!(!reference.is_empty());
        for threads in [2, 3, 8] {
            let (merged, digests) = drive(threads);
            assert_eq!(merged, reference, "{threads} threads diverged");
            assert_eq!(digests, digests1, "{threads} threads: digests diverged");
        }
    }

    #[test]
    fn digests_count_processed_events() {
        let (merged, digests) = drive(2);
        let total: u64 = digests.iter().map(|&(_, n)| n).sum();
        assert_eq!(total as usize, merged.len());
        assert_eq!(digests.len(), 4);
        assert_eq!(digests[2].0, 2, "digests arrive in shard-id order");
    }

    #[test]
    fn worker_zero_is_the_calling_thread() {
        let (tx, rx) = mpsc::channel();
        let ctors: Vec<ShardCtor<Echo>> = (0..2u64)
            .map(|id| {
                let tx = tx.clone();
                Box::new(move || {
                    tx.send((id, std::thread::current().id())).unwrap();
                    Echo::new(id, 100)
                }) as ShardCtor<Echo>
            })
            .collect();
        let pool = ShardPool::new(ctors, 2);
        let mut built: Vec<_> = rx.iter().take(2).collect();
        built.sort_by_key(|&(id, _)| id);
        let caller = std::thread::current().id();
        assert_eq!(built[0].1, caller, "shard 0 is built on the caller");
        assert_ne!(built[1].1, caller, "shard 1 is built on a spawned worker");
        drop(pool);
    }

    #[test]
    fn constructors_overlap() {
        // Shard 0 (the caller's) can only finish once shard 1 (a worker's)
        // has started: this holds only if the workers are spawned first.
        let (tx, rx) = mpsc::channel::<()>();
        let ctors: Vec<ShardCtor<Echo>> = vec![
            Box::new(move || {
                rx.recv_timeout(std::time::Duration::from_secs(5))
                    .expect("constructors did not overlap");
                Echo::new(0, 100)
            }),
            Box::new(move || {
                let _ = tx.send(());
                Echo::new(1, 100)
            }),
        ];
        drop(ShardPool::new(ctors, 2));
    }

    /// A shard that panics in its first window if it is the bomb.
    struct Bomb(bool);

    impl Shard for Bomb {
        type In = ();
        type Out = ();
        type Digest = ();
        fn deliver(&mut self, _at: SimTime, _msg: ()) {}
        fn run_until(&mut self, _h: SimTime, _o: &mut Vec<()>) {
            if self.0 {
                panic!("echo shard exploded");
            }
        }
        fn next_event_time(&self) -> Option<SimTime> {
            None
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn events_processed(&self) -> u64 {
            0
        }
        fn finish(self) {}
    }

    /// Steps a two-thread pool whose shard `bomb` panics: the panic reaches
    /// the caller, and dropping the pool afterwards still joins every worker.
    fn explode(bomb: usize) {
        let ctors: Vec<ShardCtor<Bomb>> = (0..2)
            .map(|id| Box::new(move || Bomb(id == bomb)) as ShardCtor<Bomb>)
            .collect();
        let mut pool = ShardPool::new(ctors, 2);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.step(
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_picos(1),
                vec![vec![], vec![]],
            )
        }))
        .expect_err("the bomb went off");
        assert_eq!(panic_message(payload), "echo shard exploded");
        drop(pool);
    }

    #[test]
    fn caller_shard_panics_propagate() {
        explode(0);
    }

    #[test]
    fn worker_shard_panics_propagate_to_the_caller() {
        explode(1);
    }
}
