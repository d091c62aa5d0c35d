//! Model-checking the conservative shard barrier.
//!
//! The parallel kernel (`babol_sim::par`) claims that for shards which only
//! interact through coordinator-mediated deliveries, the merged output
//! stream — keyed `(time, shard, emission index)` — is identical to a
//! single global event queue processing every shard's events in time order,
//! at any thread count and any barrier window. This property drives random
//! cross-shard schedules through [`ShardPool::round`], the round call the
//! multi-channel device runs, and checks the merged stream against an
//! independently implemented single-queue reference.
//!
//! The reference is not the pool at one thread: it is a separate
//! interpreter that repeatedly picks the globally earliest pending event
//! (ties broken by shard id) and processes it, with no windows and no
//! barriers at all. Agreement therefore checks the barrier protocol itself
//! — that windows never split, lose, or reorder events — not merely that
//! two thread counts of the same loop agree.

use std::vec::Drain;

use babol_sim::{EventQueue, Shard, ShardCtor, ShardPool, SimDuration, SimTime};
use babol_testkit::prop::{range, select, vec_of, Property};
use babol_testkit::prop_assert_eq;

/// An op injected into the device: `(start offset in ps, echo count)`.
/// The op's first event fires `offset` after delivery; each event emits one
/// output record and schedules a decremented echo until the count hits 0.
type Op = (u64, u64);

/// One output record: `(time, shard, remaining echo count)`.
type Rec = (SimTime, u32, u64);

/// A shard's output: `(time, (shard, remaining echo count))`.
type Emitted = (SimTime, (u32, u64));

/// A deterministic toy shard: its own clock, its own event queue, and a
/// per-shard service time so schedules interleave unevenly across shards.
struct ScriptShard {
    id: u32,
    now: SimTime,
    queue: EventQueue<u64>,
    processed: u64,
}

impl ScriptShard {
    fn new(id: u32) -> Self {
        ScriptShard {
            id,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            processed: 0,
        }
    }

    /// Echo latency: distinct per shard so equal-time collisions across
    /// shards still happen (offsets collide) but chains drift apart.
    fn service(&self) -> SimDuration {
        SimDuration::from_picos(31 + u64::from(self.id) * 7)
    }

    fn schedule(&mut self, at: SimTime, offset: u64, payload: u64) {
        self.queue
            .push(at + SimDuration::from_picos(offset), payload);
    }

    /// Processes one popped event: emit, then echo if the count remains.
    fn process(&mut self, at: SimTime, payload: u64, out: &mut Vec<Emitted>) {
        self.now = at;
        self.processed += 1;
        out.push((at, (self.id, payload)));
        if payload > 0 {
            let service = self.service();
            self.queue.push(at + service, payload - 1);
        }
    }
}

impl Shard for ScriptShard {
    type In = Op;
    type Out = (u32, u64);
    type Digest = u64;

    fn step(
        &mut self,
        at: SimTime,
        inbox: Drain<'_, Op>,
        horizon: SimTime,
        out: &mut Vec<Emitted>,
    ) -> Option<SimTime> {
        for (offset, payload) in inbox {
            self.now = self.now.max(at);
            self.schedule(at, offset, payload);
        }
        while let Some(t) = self.queue.peek_time() {
            if t >= horizon {
                break;
            }
            let (at, payload) = self.queue.pop().expect("peeked event vanished");
            self.process(at, payload, out);
        }
        self.queue.peek_time()
    }

    fn events_processed(&self) -> u64 {
        self.processed
    }

    fn finish(self) -> u64 {
        self.processed
    }
}

fn route(ops: &[Op], shards: u32) -> Vec<Vec<Op>> {
    let mut inboxes: Vec<Vec<Op>> = vec![Vec::new(); shards as usize];
    for (i, &op) in ops.iter().enumerate() {
        inboxes[i % shards as usize].push(op);
    }
    inboxes
}

/// Drives the schedule through the parallel kernel: deliver everything at
/// t=0, then let the pool run barrier rounds until every shard drains. The
/// pool picks each horizon and merges each round.
fn run_parallel(ops: &[Op], shards: u32, threads: usize, window: SimDuration) -> Vec<Rec> {
    let ctors: Vec<ShardCtor<ScriptShard>> = (0..shards)
        .map(|id| Box::new(move || ScriptShard::new(id)) as ShardCtor<ScriptShard>)
        .collect();
    let mut pool = ShardPool::new(ctors, threads, window);
    let mut inboxes = route(ops, shards);
    let mut merged: Vec<Rec> = Vec::new();
    while let Some(round) = pool.round(&mut inboxes) {
        for (at, sid, (id, payload)) in round {
            assert_eq!(sid, id as usize, "a record carries its own shard's id");
            merged.push((at, id, payload));
        }
    }
    let digests = pool.finish();
    assert_eq!(
        digests.iter().sum::<u64>() as usize,
        merged.len(),
        "shard digests disagree with the merged stream"
    );
    merged
}

/// The single-queue reference: no windows, no barriers — just "process the
/// globally earliest event, shard id breaks ties" until nothing is left.
fn run_reference(ops: &[Op], shards: u32) -> Vec<Rec> {
    let mut pool: Vec<ScriptShard> = (0..shards).map(ScriptShard::new).collect();
    for (inbox, shard) in route(ops, shards).into_iter().zip(pool.iter_mut()) {
        for (offset, payload) in inbox {
            shard.schedule(SimTime::ZERO, offset, payload);
        }
    }
    let mut out: Vec<Emitted> = Vec::new();
    loop {
        let next = pool
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.queue.peek_time().map(|t| (t, i)))
            .min();
        let Some((_, i)) = next else {
            break;
        };
        let shard = &mut pool[i];
        let (at, payload) = shard.queue.pop().expect("peeked event vanished");
        shard.process(at, payload, &mut out);
    }
    out.into_iter().map(|(at, (id, p))| (at, id, p)).collect()
}

/// Random schedules, shard counts, thread counts, and windows: the merged
/// parallel stream always equals the single-queue order, event for event.
#[test]
fn barrier_rounds_reproduce_the_single_queue_order() {
    Property::new("shard_barrier_matches_single_queue")
        .cases(128)
        .run(
            (
                range(1u32..6),                                      // shards
                range(1usize..9),                                    // worker threads
                select(&[40u64, 250, 1_000, 10_000]),                // window (ps)
                vec_of((range(0u64..2_000), range(0u64..6)), 1..40), // ops
            ),
            |&(shards, threads, window_ps, ref ops)| {
                let expected = run_reference(ops, shards);
                let window = SimDuration::from_picos(window_ps);
                let got = run_parallel(ops, shards, threads, window);
                prop_assert_eq!(
                    &got,
                    &expected,
                    "shards={} threads={} window={}ps",
                    shards,
                    threads,
                    window_ps
                );
                // Every op emits payload+1 records; none may be lost to a window.
                let total: usize = ops.iter().map(|&(_, p)| p as usize + 1).sum();
                prop_assert_eq!(got.len(), total);
                Ok(())
            },
        );
}

/// A degenerate but important corner: one shard, many threads. The pool
/// must clamp to the shard count and spawn no worker.
#[test]
fn single_shard_is_unaffected_by_thread_count() {
    let ops: Vec<Op> = (0..12).map(|i| (i * 113 % 700, i % 4)).collect();
    let expected = run_reference(&ops, 1);
    for threads in [1, 2, 8] {
        assert_eq!(
            run_parallel(&ops, 1, threads, SimDuration::from_picos(500)),
            expected
        );
    }
}
