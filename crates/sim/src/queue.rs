//! A deterministic, time-ordered event queue.
//!
//! Everything in the reproduction advances by popping the earliest pending
//! event: a waveform segment finishing on the channel, a flash array raising
//! R/B#, a CPU completing a scheduler pass. Determinism matters — the paper's
//! figures must regenerate identically run after run — so ties in time are
//! broken by insertion order rather than container internals.
//!
//! # Implementation: one binary min-heap
//!
//! Pop order is defined purely by the `(time, seq)` key, where `seq` is a
//! per-queue push counter, so a plain `BinaryHeap` keyed on it is exact.
//! Every queue the simulator builds is small — the peak pending population
//! is 32 events on the single-channel random-read benchmark and under ten
//! elsewhere (DESIGN.md §Event queue) — and at that size the heap's
//! O(log n) push and pop beat any calendar or timing-wheel bookkeeping.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled to fire at a specific simulated time.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A time-ordered queue of simulation events.
///
/// # Examples
///
/// ```
/// use babol_sim::{EventQueue, SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::ZERO + SimDuration::from_nanos(20), "late");
/// q.push(SimTime::ZERO + SimDuration::from_nanos(10), "early");
/// q.push(SimTime::ZERO + SimDuration::from_nanos(10), "early-tie");
///
/// let (t1, e1) = q.pop().unwrap();
/// assert_eq!((t1.as_picos(), e1), (10_000, "early"));
/// let (_, e2) = q.pop().unwrap();
/// assert_eq!(e2, "early-tie"); // FIFO among ties
/// let (_, e3) = q.pop().unwrap();
/// assert_eq!(e3, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        // A wrapped seq would silently reorder ties and break determinism;
        // at one push per picosecond that is ~584 years of simulated time,
        // so the increment's debug-build overflow check is the only guard.
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Returns the time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(at(30), 'c');
        q.push(at(10), 'a');
        q.push(at(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(at(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(at(7), ());
        assert_eq!(q.peek_time(), Some(at(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(at(10), 1);
        q.push(at(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(at(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn spans_picoseconds_to_far_future() {
        // Pushed latest-first, from FAR_FUTURE down to picoseconds.
        let mut q = EventQueue::new();
        q.push(SimTime::FAR_FUTURE, 'f');
        q.push(SimTime::from_picos(2_000_000_000_000), 'e'); // 2 s
        q.push(SimTime::from_picos(5_000_000_000), 'd'); // 5 ms
        q.push(SimTime::from_picos(1_000_000), 'c'); // 1 µs
        q.push(SimTime::from_picos(100_000), 'b'); // 100 ns
        q.push(SimTime::from_picos(10), 'a');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd', 'e', 'f']);
    }

    #[test]
    fn push_between_pops_stays_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_picos(100), 0);
        q.push(SimTime::from_picos(200), 2);
        assert_eq!(q.pop().unwrap().1, 0);
        // A push before the pending front must merge in time order...
        q.push(SimTime::from_picos(150), 1);
        // ...and a same-time push must pop after the earlier-pushed event.
        q.push(SimTime::from_picos(200), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn far_future_then_near_push_pops_near_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_picos(u64::MAX - 1), 'z');
        // Popping nothing yet; push a near event after the far one.
        q.push(at(1), 'a');
        assert_eq!(q.pop().unwrap().1, 'a');
        assert_eq!(q.pop().unwrap().1, 'z');
        assert!(q.pop().is_none());
    }

    #[test]
    fn distant_pop_then_later_pushes_stay_ordered() {
        let mut q = EventQueue::new();
        // Drain a distant event first...
        q.push(SimTime::from_picos(1 << 40), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        // ...then schedule after it and pop in order.
        q.push(SimTime::from_picos((1 << 40) + (1 << 20)), 'c');
        q.push(SimTime::from_picos((1 << 40) + (1 << 30)), 'd');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.pop().unwrap().1, 'd');
        assert!(q.pop().is_none());
    }

    #[test]
    fn dense_bursts_match_model() {
        // Deterministic mixed workload vs. an ordered-model replay.
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u32)> = Vec::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for id in 0u32..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = x % 5_000_000; // 5000 events packed into 5 µs
            q.push(SimTime::from_picos(t), id);
            model.push((t, id));
        }
        model.sort(); // (time, id): id order == push order == seq order
        let got: Vec<(u64, u32)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_picos(), e))).collect();
        assert_eq!(got, model);
    }
}
