//! Conservative parallel discrete-event simulation over per-channel shards.
//!
//! The BABOL reproduction models one flash channel per [`crate::EventQueue`];
//! a whole-device simulation (8–16 channels, Amber/SimpleSSD scale) runs one
//! queue per channel and advances them concurrently. This module provides the
//! generic kernel: a [`Shard`] is an isolated simulation domain with its own
//! clock and event queue, and a [`ShardPool`] runs the whole conservative
//! barrier protocol over them, one [`ShardPool::round`] call per round.
//!
//! # Barrier protocol
//!
//! Shards only interact through the coordinator: messages delivered at a
//! barrier time, and records harvested at the end of each round. The
//! coordinator hands each round its inboxes, one per shard, and
//! [`ShardPool::round`] does the rest:
//!
//! 1. `earliest` is the minimum of every shard's next-event time and, if any
//!    delivery is queued, the barrier itself. With neither, the round does
//!    not run and the call returns `None`.
//! 2. The horizon is `earliest + window`. The window is a fixed model
//!    parameter: it never depends on thread count, so the set of events each
//!    shard processes per round is identical whether the round runs on one
//!    worker or eight.
//! 3. Every shard receives its queued messages stamped at the barrier time
//!    (all events before the barrier are already processed, so the stamp
//!    never rewrites history), then runs until its next event is at or past
//!    the horizon, in one [`Shard::step`] call.
//! 4. Records are merged by `(time, shard, emission index)`: a stable sort
//!    on `(time, shard)` keeps each shard's emission order as the tiebreak,
//!    which gives one global deterministic order.
//! 5. The barrier advances to the horizon, and the call returns the merged
//!    records.
//!
//! A shard may *overshoot* the horizon if its `step` chooses to. The
//! multi-channel SSD's shard runs the one-channel FTL drive loop, whose
//! step limit is the one such choice: while an FTL job (GC, cache flushes,
//! wear migration) is queued it steps past the horizon until the job has
//! run. That is safe: the shard's own clock is private,
//! deliveries clamp forward (`now = max(now, barrier)`), and the merge key
//! still orders its records globally. Overshoot changes nothing across
//! thread counts because it is a property of the shard's event stream, not
//! of scheduling.
//!
//! The pool keeps every shard's next-event time from one round to the next,
//! also across a coordinator's separate jobs. After a round every shard's
//! next event is at or past the new barrier (it ran to the horizon or
//! beyond), so a job whose first round has a delivery queued starts that
//! round at the barrier, exactly as if no next-event time were known.
//!
//! # Threads
//!
//! With `threads = N` the pool spawns N-1 workers; the calling thread is
//! worker 0. One thread is the caller alone with no worker spawned. Each
//! round the caller sends the spawned workers their inboxes, steps its own
//! shards while they step theirs, then collects their replies, so a round
//! costs the shards' own work rather than a thread hand-off. The vectors
//! the inboxes, records and states travel in go back with the next round,
//! so no round allocates them anew. A waiting
//! thread (a worker between rounds, the caller for replies) polls its
//! channel for a fixed budget, spinning and now and then yielding its CPU,
//! before it parks in a blocking receive: back-to-back rounds never pay a
//! kernel wake-up, and an idle pool burns no CPU.
//!
//! # Determinism
//!
//! With one thread the caller steps every shard in shard-id order — this
//! *defines* the reference order. With more threads, shards are pinned to
//! workers (`shard % threads`, worker 0 being the caller), constructed on
//! the thread that owns them (shards need not be `Send`; only messages,
//! records and ctors are), and every record carries its shard id into the
//! merge. Arrival order never reaches the model, so any thread count
//! reproduces the single-thread stream bit for bit.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::vec::Drain;

use crate::time::{SimDuration, SimTime};

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
    /// Record harvested from the shard (completions); it travels with its
    /// simulated emission time, the merge key.
    type Out: Send + 'static;
    /// Final state summary returned by [`Shard::finish`].
    type Digest: Send + 'static;

    /// Runs one barrier round. Each message of `inbox` arrives at barrier
    /// time `at`: the shard clamps its clock forward (`now = max(now, at)`)
    /// when the inbox holds one, and leaves it alone otherwise. Then it runs
    /// until its next pending event is at or past `horizon` (or the queue is
    /// empty), appending `(time, record)` pairs in emission order, and
    /// returns its next pending event, if any.
    fn step(
        &mut self,
        at: SimTime,
        inbox: Drain<'_, Self::In>,
        horizon: SimTime,
        out: &mut Vec<(SimTime, Self::Out)>,
    ) -> Option<SimTime>;

    /// Events processed since construction (monotonic; feeds
    /// [`ShardPool::events`]).
    fn events_processed(&self) -> u64;

    /// Consumes the shard, returning its final digest.
    fn finish(self) -> Self::Digest;
}

/// Constructor for one shard, run on the thread that will own it.
pub type ShardCtor<S> = Box<dyn FnOnce() -> S + Send>;

/// One merged record: `(time, shard id, record)`.
pub type Record<O> = (SimTime, usize, O);

/// After a round: `(shard id, next pending event, events processed)`.
type ShardState = (usize, Option<SimTime>, u64);

/// The vectors a round's messages travel in, handed back and forth between
/// the caller and a worker so that neither allocates them per round: the
/// worker's inboxes, one per shard it owns, and its records and states.
struct Carry<I, O> {
    inboxes: Vec<Vec<I>>,
    records: Vec<Record<O>>,
    states: Vec<ShardState>,
}

enum Cmd<I, O> {
    /// Run one round: deliver `inboxes[i]` to the worker's i-th shard at
    /// `at`, then run each shard to `horizon`, filling the emptied records
    /// and states.
    Step {
        at: SimTime,
        horizon: SimTime,
        carry: Carry<I, O>,
    },
    Finish,
}

enum Reply<I, O, D> {
    /// Worker `.0`'s records of every shard it owns and each one's state,
    /// with its inboxes emptied.
    Stepped(usize, Carry<I, O>),
    /// `(global shard id, digest)` for each shard the worker owns.
    Finished(Vec<(usize, D)>),
    /// A shard panicked; the payload is the rendered panic message.
    Panicked(String),
}

struct Worker<I, O> {
    cmd: mpsc::Sender<Cmd<I, O>>,
    handle: Option<JoinHandle<()>>,
    /// The vectors the worker handed back with its last reply.
    carry: Option<Carry<I, O>>,
}

/// A fixed-size pool running [`Shard`]s under the conservative barrier
/// protocol. Built on std threads only; see the module docs for the
/// protocol and the determinism argument.
pub struct ShardPool<S: Shard> {
    /// Worker 0's shards, `(global shard id, shard)`: the caller's.
    local: Vec<(usize, S)>,
    /// The spawned workers, 1 to N-1.
    workers: Vec<Worker<S::In, S::Out>>,
    replies: mpsc::Receiver<Reply<S::In, S::Out, S::Digest>>,
    window: SimDuration,
    barrier: SimTime,
    /// Each shard's next pending event after the last round.
    next: Vec<Option<SimTime>>,
    /// Each shard's processed-event count after the last round.
    events: Vec<u64>,
    /// One local shard's records while it steps.
    scratch: Vec<(SimTime, S::Out)>,
    /// The round's records, merged in place.
    merged: Vec<Record<S::Out>>,
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
    /// Builds the pool with its barrier at zero. Each constructor runs
    /// exactly once, on the thread that will own the shard; shard `i` is
    /// pinned to worker `i % threads`, and worker 0 is the calling thread,
    /// so `threads` counts the caller and `threads - 1` threads are spawned
    /// (none for one thread or one shard). The spawned workers start
    /// building before the caller builds its own shards, so all
    /// construction overlaps. `window` is how far past the earliest pending
    /// event every shard runs per round.
    pub fn new(ctors: Vec<ShardCtor<S>>, threads: usize, window: SimDuration) -> Self {
        assert!(!ctors.is_empty(), "a shard pool needs at least one shard");
        assert!(!window.is_zero(), "the barrier window must be positive");
        let shards = ctors.len();
        let threads = threads.clamp(1, shards);
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
                let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd<S::In, S::Out>>();
                let reply_tx = reply_tx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("babol-shard-{w}"))
                    .spawn(move || worker_main::<S>(w, ctors, cmd_rx, reply_tx))
                    .expect("spawning shard worker");
                Worker {
                    cmd: cmd_tx,
                    handle: Some(handle),
                    carry: None,
                }
            })
            .collect();
        let mut pool = ShardPool {
            local: Vec::new(),
            workers,
            replies,
            window,
            barrier: SimTime::ZERO,
            next: vec![None; shards],
            events: vec![0; shards],
            scratch: Vec::new(),
            merged: Vec::new(),
        };
        // Built after every worker is spawned, so construction overlaps; if
        // a constructor panics, dropping `pool` joins the workers.
        pool.local = own.into_iter().map(|(id, ctor)| (id, ctor())).collect();
        pool
    }

    /// The barrier: every shard has processed every event before it, and
    /// the next round delivers its inboxes at it.
    pub fn barrier(&self) -> SimTime {
        self.barrier
    }

    /// Events processed across all shards as of the last round.
    pub fn events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Runs one barrier round (see the module docs): delivers `inboxes[i]`
    /// to shard `i` at the barrier, leaving every inbox empty, runs every
    /// shard to the horizon, advances the barrier to it and returns the
    /// round's records in merge order. Returns `None`, running nothing, when
    /// no shard has a pending event and every inbox is empty. `inboxes`
    /// must have one entry per shard.
    pub fn round(&mut self, inboxes: &mut [Vec<S::In>]) -> Option<Drain<'_, Record<S::Out>>> {
        assert_eq!(inboxes.len(), self.next.len(), "one inbox per shard");
        let mut earliest = self.next.iter().flatten().copied().min();
        if inboxes.iter().any(|b| !b.is_empty()) {
            earliest = Some(earliest.map_or(self.barrier, |e| e.min(self.barrier)));
        }
        let earliest = earliest?;
        debug_assert!(earliest >= self.barrier, "horizon moved backwards");
        let (at, horizon) = (self.barrier, earliest + self.window);

        let threads = self.workers.len() + 1;
        for (w, worker) in self.workers.iter_mut().enumerate() {
            // The worker's inboxes swap with the ones it emptied last
            // round, so both sides keep their capacity.
            let mut carry = worker.carry.take().unwrap_or_else(|| Carry {
                inboxes: Vec::new(),
                records: Vec::new(),
                states: Vec::new(),
            });
            let ids = (w + 1..inboxes.len()).step_by(threads);
            carry.inboxes.resize_with(ids.len(), Vec::new);
            for (id, inbox) in ids.zip(&mut carry.inboxes) {
                std::mem::swap(&mut inboxes[id], inbox);
            }
            // A worker that hung up has already sent its panic as a reply;
            // the collection below surfaces it.
            let _ = worker.cmd.send(Cmd::Step { at, horizon, carry });
        }
        let (scratch, merged) = (&mut self.scratch, &mut self.merged);
        for local in &mut self.local {
            let inbox = &mut inboxes[local.0];
            let (id, next, events) = step_shard(local, (at, horizon), inbox, scratch, merged);
            (self.next[id], self.events[id]) = (next, events);
        }
        for _ in 0..self.workers.len() {
            match spin_recv(&self.replies).expect("shard worker hung up") {
                Reply::Stepped(w, mut carry) => {
                    self.merged.append(&mut carry.records);
                    for (id, next, events) in carry.states.drain(..) {
                        (self.next[id], self.events[id]) = (next, events);
                    }
                    self.workers[w - 1].carry = Some(carry);
                }
                Reply::Panicked(msg) => panic!("{msg}"),
                Reply::Finished(_) => unreachable!("finish reply during a round"),
            }
        }
        self.merged.sort_by_key(|&(t, id, _)| (t, id));
        self.barrier = horizon;
        Some(self.merged.drain(..))
    }

    /// Shuts the pool down, returning every shard's digest in shard-id order.
    pub fn finish(mut self) -> Vec<S::Digest> {
        for worker in &self.workers {
            let _ = worker.cmd.send(Cmd::Finish);
        }
        let mut digests: Vec<Option<S::Digest>> = self.next.iter().map(|_| None).collect();
        for (id, shard) in std::mem::take(&mut self.local) {
            digests[id] = Some(shard.finish());
        }
        for _ in &self.workers {
            match spin_recv(&self.replies).expect("shard worker hung up") {
                Reply::Finished(list) => {
                    for (id, digest) in list {
                        digests[id] = Some(digest);
                    }
                }
                Reply::Panicked(msg) => panic!("{msg}"),
                Reply::Stepped(..) => unreachable!("round reply during finish"),
            }
        }
        for worker in &mut self.workers {
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

impl<S: Shard> Drop for ShardPool<S> {
    fn drop(&mut self) {
        // Closing the command channels makes workers drop their shards and
        // exit while the caller drops its own; join so no thread outlives
        // the pool. Panics were either already surfaced through a reply or
        // are repeated here.
        for worker in &mut self.workers {
            worker.cmd = mpsc::channel().0;
        }
        self.local.clear();
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Steps one `(global shard id, shard)` through the round `(at, horizon)`,
/// moving its records, tagged with its id, from `scratch` to `merged`.
fn step_shard<S: Shard>(
    (id, shard): &mut (usize, S),
    (at, horizon): (SimTime, SimTime),
    inbox: &mut Vec<S::In>,
    scratch: &mut Vec<(SimTime, S::Out)>,
    merged: &mut Vec<Record<S::Out>>,
) -> ShardState {
    let next = shard.step(at, inbox.drain(..), horizon, scratch);
    merged.extend(scratch.drain(..).map(|(t, out)| (t, *id, out)));
    (*id, next, shard.events_processed())
}

fn worker_main<S: Shard>(
    w: usize,
    ctors: Vec<(usize, ShardCtor<S>)>,
    cmd_rx: mpsc::Receiver<Cmd<S::In, S::Out>>,
    reply_tx: mpsc::Sender<Reply<S::In, S::Out, S::Digest>>,
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
    let mut scratch = Vec::new();
    while let Ok(cmd) = spin_recv(&cmd_rx) {
        match cmd {
            Cmd::Step {
                at,
                horizon,
                mut carry,
            } => {
                let reply = catch_unwind(AssertUnwindSafe(|| {
                    for (shard, inbox) in shards.iter_mut().zip(&mut carry.inboxes) {
                        let state = step_shard(
                            shard,
                            (at, horizon),
                            inbox,
                            &mut scratch,
                            &mut carry.records,
                        );
                        carry.states.push(state);
                    }
                    Reply::Stepped(w, carry)
                }));
                let reply = match reply {
                    Ok(reply) => reply,
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
    /// popped event emits `(shard, value)` at its time and schedules a
    /// decremented echo until the value reaches zero.
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
        type Out = (u64, u64);
        type Digest = (u64, u64);

        fn step(
            &mut self,
            at: SimTime,
            inbox: Drain<'_, u64>,
            horizon: SimTime,
            out: &mut Vec<(SimTime, Self::Out)>,
        ) -> Option<SimTime> {
            for msg in inbox {
                self.now = self.now.max(at);
                self.events.push(self.now + self.delay, msg);
            }
            while let Some(t) = self.events.peek_time() {
                if t >= horizon {
                    break;
                }
                let (at, v) = self.events.pop().unwrap();
                self.now = at;
                self.processed += 1;
                out.push((at, (self.id, v)));
                if v > 0 {
                    self.events.push(at + self.delay, v - 1);
                }
            }
            self.events.peek_time()
        }
        fn events_processed(&self) -> u64 {
            self.processed
        }
        fn finish(self) -> (u64, u64) {
            (self.id, self.processed)
        }
    }

    type EchoRun = (Vec<Record<(u64, u64)>>, Vec<(u64, u64)>);

    fn drive(threads: usize) -> EchoRun {
        let ctors: Vec<ShardCtor<Echo>> = (0..4u64)
            .map(|id| Box::new(move || Echo::new(id, 100 + id * 37)) as ShardCtor<Echo>)
            .collect();
        let mut pool = ShardPool::new(ctors, threads, SimDuration::from_picos(250));
        let mut merged = Vec::new();
        // Seed every shard with a chain, then drain in rounds.
        let mut inboxes: Vec<Vec<u64>> = (0..4).map(|i| vec![i + 3]).collect();
        while let Some(round) = pool.round(&mut inboxes) {
            merged.extend(round);
        }
        (merged, pool.finish())
    }

    #[test]
    fn threaded_pools_reproduce_the_one_thread_order() {
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
        let pool = ShardPool::new(ctors, 2, SimDuration::from_picos(100));
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
        drop(ShardPool::new(ctors, 2, SimDuration::from_picos(100)));
    }

    /// A shard that panics in its first round if it is the bomb.
    struct Bomb(bool);

    impl Shard for Bomb {
        type In = ();
        type Out = ();
        type Digest = ();
        fn step(
            &mut self,
            _at: SimTime,
            _inbox: Drain<'_, ()>,
            _horizon: SimTime,
            _out: &mut Vec<(SimTime, ())>,
        ) -> Option<SimTime> {
            if self.0 {
                panic!("echo shard exploded");
            }
            None
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
        let mut pool = ShardPool::new(ctors, 2, SimDuration::from_picos(1));
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.round(&mut [vec![()], vec![()]]).map(|r| r.count())
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
