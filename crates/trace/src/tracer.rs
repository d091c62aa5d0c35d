//! The trace sink: counters + the bus-hold histogram + bounded event ring.

use std::collections::VecDeque;

use babol_sim::{SimDuration, SimTime};

use crate::hist::Histogram;
use crate::{Component, Counter, Metric, TraceEvent, TraceKind};

/// Default ring capacity: enough for every event of a Fig. 10 microbench
/// point or a tiny fio job, small enough (~2 MiB) to leave resident in
/// every `System` without thought.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Counters, the bus-hold histogram and a bounded event ring.
///
/// Starts **disabled**: every record method is an `#[inline]` early return
/// on one `bool`, so a non-traced run pays a predictable branch per site
/// and nothing else. When the ring fills, the oldest events are dropped
/// (and counted in [`Tracer::dropped`]) — a timeline wants the most recent
/// window, and bounding memory keeps long fio runs safe.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    ring: VecDeque<TraceEvent>,
    dropped: u64,
    dropped_by_kind: [u64; TraceKind::COUNT],
    counters: [u64; Counter::COUNT],
    bus_hold: Histogram,
    last_activity: [Option<SimTime>; Component::COUNT],
    /// Which simulation shard (channel) this tracer observes. Single-system
    /// runs stay at 0; the multi-channel device tags each shard's tracer so
    /// exported timelines can be laid side by side.
    shard: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A disabled tracer: records nothing until [`Tracer::set_enabled`].
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            capacity: DEFAULT_CAPACITY,
            ring: VecDeque::new(),
            dropped: 0,
            dropped_by_kind: [0; TraceKind::COUNT],
            counters: [0; Counter::COUNT],
            bus_hold: Histogram::new(),
            last_activity: [None; Component::COUNT],
            shard: 0,
        }
    }

    /// An enabled tracer with the default ring capacity.
    pub fn enabled() -> Self {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled tracer holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut t = Tracer::disabled();
        t.capacity = capacity.max(1);
        t.enabled = true;
        t
    }

    /// Turns recording on or off. Already-collected data is kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags this tracer with the shard (channel) id it observes. Exports
    /// carry the tag (`pid` in the chrome trace, `shard` in the jsonl
    /// footer) so multi-channel timelines stay distinguishable.
    pub fn set_shard(&mut self, shard: u32) {
        self.shard = shard;
    }

    /// The shard (channel) id this tracer observes; 0 for single-system
    /// runs.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events of one kind dropped because the ring was full. The
    /// aggregate [`Tracer::dropped`] says the timeline is truncated; the
    /// per-kind breakdown says *what* fell off the edge — all
    /// `queue_depth` samples is cosmetic, half the `op_issue` starts
    /// means latency spans are broken.
    pub fn dropped_of(&self, kind: TraceKind) -> u64 {
        self.dropped_by_kind[kind.index()]
    }

    /// Per-kind drop counts for every kind that lost events, in
    /// [`TraceKind::ALL`] order.
    pub fn dropped_by_kind(&self) -> impl Iterator<Item = (TraceKind, u64)> + '_ {
        TraceKind::ALL
            .into_iter()
            .map(|k| (k, self.dropped_by_kind[k.index()]))
            .filter(|&(_, n)| n != 0)
    }

    /// Timestamp of the most recent event a component recorded, or `None`
    /// if it has recorded none. Feeds the stall watchdog's diagnostic:
    /// when the sim stops making progress, the staleness pattern across
    /// components points at the layer that went quiet first. Tracks events
    /// only, not counter/metric updates.
    pub fn last_activity(&self, component: Component) -> Option<SimTime> {
        self.last_activity[component.index()]
    }

    /// Events currently held in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Overwrites one counter with a value its layer keeps itself (the
    /// FTL's production counters, the kernel's and the channel's counts),
    /// snapshotted in at the points where a job ends.
    pub fn set_counter(&mut self, counter: Counter, value: u64) {
        if !self.enabled {
            return;
        }
        self.counters[counter.index()] = value;
    }

    /// Current value of one counter.
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// The histogram behind one metric.
    pub fn metric(&self, metric: Metric) -> &Histogram {
        match metric {
            Metric::BusHold => &self.bus_hold,
        }
    }

    /// Convenience: record an event from its parts.
    #[inline]
    pub fn event(
        &mut self,
        t: SimTime,
        component: Component,
        kind: crate::TraceKind,
        lun: u32,
        op_id: u64,
    ) {
        self.record(TraceEvent {
            t,
            component,
            kind,
            lun,
            op_id,
        });
    }

    /// Whether records are kept at all. Call sites that do extra work to
    /// *build* a record (e.g. compute per-instruction timestamps) guard on
    /// this first; plain `record`/`count`/`observe` calls are cheap enough
    /// to make unconditionally.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an event to the ring, evicting the oldest when full.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.ring.len() == self.capacity {
            if let Some(evicted) = self.ring.pop_front() {
                self.dropped += 1;
                self.dropped_by_kind[evicted.kind.index()] += 1;
            }
        }
        let slot = &mut self.last_activity[event.component.index()];
        *slot = Some(slot.map_or(event.t, |prev| prev.max(event.t)));
        self.ring.push_back(event);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn count(&mut self, counter: Counter, n: u64) {
        if !self.enabled {
            return;
        }
        self.counters[counter.index()] += n;
    }

    /// Records one duration observation.
    #[inline]
    pub fn observe(&mut self, metric: Metric, duration: SimDuration) {
        if !self.enabled {
            return;
        }
        match metric {
            Metric::BusHold => self.bus_hold.record(duration),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceKind;

    fn ev(ps: u64, op: u64) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_picos(ps),
            component: Component::Channel,
            kind: TraceKind::BusAcquire,
            lun: 1,
            op_id: op,
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        t.record(ev(1, 1));
        t.count(Counter::SchedPicks, 9);
        t.set_counter(Counter::EventsPopped, 4);
        t.observe(Metric::BusHold, SimDuration::from_nanos(3));
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.counter_total(Counter::SchedPicks), 0);
        assert_eq!(t.counter_total(Counter::EventsPopped), 0);
        assert!(t.metric(Metric::BusHold).is_empty());
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut t = Tracer::with_capacity(3);
        for i in 0..5 {
            t.record(ev(i, i));
        }
        assert_eq!(t.dropped(), 2);
        let ops: Vec<u64> = t.events().map(|e| e.op_id).collect();
        assert_eq!(ops, vec![2, 3, 4]);
        assert_eq!(t.dropped_of(TraceKind::BusAcquire), 2);
    }

    #[test]
    fn drops_are_attributed_to_the_evicted_kind() {
        let mut t = Tracer::with_capacity(2);
        let mut push = |kind, op| {
            t.record(TraceEvent {
                t: SimTime::from_picos(op),
                component: Component::Sim,
                kind,
                lun: 0,
                op_id: op,
            });
        };
        push(TraceKind::SchedPick, 0);
        push(TraceKind::QueueDepth, 1);
        push(TraceKind::OpIssue, 2); // evicts the sched_pick
        push(TraceKind::OpIssue, 3); // evicts the queue_depth
        push(TraceKind::OpIssue, 4); // evicts an op_issue
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.dropped_of(TraceKind::SchedPick), 1);
        assert_eq!(t.dropped_of(TraceKind::QueueDepth), 1);
        assert_eq!(t.dropped_of(TraceKind::OpIssue), 1);
        assert_eq!(t.dropped_of(TraceKind::GcStart), 0);
        let breakdown: Vec<_> = t.dropped_by_kind().collect();
        assert_eq!(breakdown.len(), 3, "only kinds that lost events appear");
        assert_eq!(breakdown.iter().map(|&(_, n)| n).sum::<u64>(), t.dropped());
    }

    #[test]
    fn last_activity_tracks_latest_event_time() {
        let mut t = Tracer::enabled();
        assert_eq!(t.last_activity(Component::Channel), None);
        t.record(ev(500, 1));
        t.record(ev(200, 2)); // out-of-order timestamp must not regress it
        assert_eq!(
            t.last_activity(Component::Channel),
            Some(SimTime::from_picos(500))
        );
        assert_eq!(t.last_activity(Component::Ftl), None);
    }

    #[test]
    fn counters_and_metrics_accumulate() {
        let mut t = Tracer::enabled();
        t.count(Counter::SchedPicks, 2);
        t.count(Counter::SchedPicks, 1);
        assert_eq!(t.counter_total(Counter::SchedPicks), 3);
        // A published value replaces the count, it does not add to it.
        t.set_counter(Counter::SchedPicks, 7);
        t.set_counter(Counter::TxnsIssued, 4);
        assert_eq!(t.counter_total(Counter::SchedPicks), 7);
        assert_eq!(t.counter_total(Counter::TxnsIssued), 4);
        t.observe(Metric::BusHold, SimDuration::from_nanos(10));
        assert_eq!(t.metric(Metric::BusHold).count(), 1);
    }
}
