//! Multi-channel SSD: one [`Ssd`] slice per channel, advanced in parallel.
//!
//! Real devices spread the logical space over 8–16 channels that operate
//! concurrently; full-resource simulators (Amber, SimpleSSD) model all of
//! them because whole-device numbers are meaningless otherwise. This module
//! assembles that device out of the pieces the reproduction already has:
//!
//! * [`ChannelShard`] — one channel's complete stack (a [`System`] with its
//!   own event queue and clock, a storage controller, and an [`Ssd`] slice
//!   owning `1/channels` of the logical space). It implements
//!   [`babol_sim::Shard`], so the conservative-barrier kernel in
//!   [`babol_sim::par`] can drive any number of them on any number of
//!   worker threads with bit-identical results.
//! * [`MultiSsd`] — the coordinator: stripes host LPNs over the channels
//!   (`shard = lpn % channels`), keeps a global queue depth outstanding,
//!   steps the shard pool in barrier windows, and merges completions
//!   deterministically by `(time, shard, emission index)`.
//!
//! The logical-to-channel stripe means a shard's FTL and GC never touch
//! another shard's state: host submissions in, completions out, nothing
//! else crosses the boundary. Each round, a shard runs the one-channel
//! FTL's drive loop, `Ssd::drive`, to the barrier horizon, so both
//! devices share one drive loop and one admission policy, and the
//! coordinator drives the same fio client [`Ssd::run`] does. A shard's
//! clock overshoots the horizon for one reason only: the drive loop steps
//! past it while an FTL job (GC, cache flushes, wear migration) is queued,
//! so the job finishes within the round. The merge key keeps its
//! completions correctly ordered relative to every other shard, and the
//! overshoot is identical at every thread count (see the determinism notes
//! on [`babol_sim::par`]).

use std::collections::VecDeque;

use babol::factory::coro_controller;
use babol::runtime::RuntimeConfig;
use babol::system::{Controller, System};
use babol_channel::Channel;
use babol_flash::array::ContentMode;
use babol_flash::lun::LunConfig;
use babol_flash::{Lun, PackageProfile};
use babol_sim::{
    CostModel, Cpu, Freq, PoolStats, Shard, ShardCtor, ShardPool, SimDuration, SimTime, Watchdog,
};
use babol_trace::{FtlCounter, FtlCounters, MetricsHub, Tracer};
use babol_ufsm::EmitConfig;

use crate::fio::{FioClient, FioReport, FioWorkload, HostCmd};
use crate::ssd::{Host, Ssd, SsdConfig};

/// Static configuration of a multi-channel SSD.
#[derive(Debug, Clone)]
pub struct MultiSsdConfig {
    /// Number of channels; each gets its own event-queue shard.
    pub channels: u32,
    /// Threads doing shard work, counting the calling thread. `1` keeps
    /// every shard on the caller's thread (the reference order); `2` spawns
    /// one worker and the caller steps the other half of the shards. Any
    /// count reproduces the reference order exactly.
    pub threads: usize,
    /// Barrier window: how far past the earliest pending event every shard
    /// may run per round. A model parameter — never derived from the thread
    /// count — so the event schedule is thread-count-invariant.
    pub window: SimDuration,
    /// Per-channel SSD slice configuration.
    pub shard: SsdConfig,
    /// Flash package on every LUN.
    pub profile: PackageProfile,
    /// Pre-map the logical space and preload flash content (read jobs).
    pub preload: bool,
    /// Per-shard tracer ring capacity; `None` runs untraced.
    pub trace_capacity: Option<usize>,
    /// Coordinator stall budget in simulated time; `None` disarms it.
    pub watchdog: Option<SimDuration>,
    /// Streaming-telemetry window; `None` runs without metrics. Window
    /// boundaries are sim-time multiples shared by every shard and the
    /// coordinator, so frames line up across the whole device.
    pub metrics_window: Option<SimDuration>,
}

impl MultiSsdConfig {
    /// A miniature multi-channel device for tests: tiny geometry, two LUNs
    /// per channel, preloaded.
    pub fn tiny(channels: u32, threads: usize) -> Self {
        MultiSsdConfig {
            channels,
            threads,
            window: SimDuration::from_micros(20),
            shard: SsdConfig::tiny(2),
            profile: PackageProfile::test_tiny(),
            preload: true,
            trace_capacity: None,
            watchdog: Some(Ssd::envelope_watchdog_budget(&PackageProfile::test_tiny())),
            metrics_window: None,
        }
    }
}

/// One record harvested from a shard during a barrier window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardEvent {
    /// A host I/O completed.
    Done {
        /// Global host I/O id.
        id: u64,
        /// Completion time on the shard's clock.
        at: SimTime,
    },
    /// Growth of the shard's production-FTL counters since its previous
    /// report, emitted at the end of a barrier round in which something
    /// changed. The coordinator folds these into the aggregate
    /// [`FioReport`].
    Counters {
        /// The shard clock when the round ended.
        at: SimTime,
        /// The counter deltas.
        delta: FtlCounters,
    },
}

impl ShardEvent {
    /// The record's simulated timestamp (the merge key).
    pub fn at(&self) -> SimTime {
        match *self {
            ShardEvent::Done { at, .. } | ShardEvent::Counters { at, .. } => at,
        }
    }
}

/// Final per-shard state returned by [`MultiSsd::finish`].
#[derive(Debug)]
pub struct ShardDigest {
    /// Channel id.
    pub shard: u32,
    /// The shard's clock at shutdown.
    pub now: SimTime,
    /// Events the shard processed, FTL job steps included.
    pub events: u64,
    /// Page-buffer pool counters (zero-copy accounting).
    pub pool: PoolStats,
    /// The shard's tracer (empty when tracing was off), with pool and FTL
    /// counters exported. Tagged with the shard id for per-channel
    /// timelines.
    pub tracer: Tracer,
    /// The shard's telemetry hub (disabled when the device ran without
    /// metrics): per-window counter deltas and op counts for this channel.
    pub metrics: MetricsHub,
    /// Prepared host requests never admitted (0 after a completed run).
    pub pending: usize,
}

/// One channel's complete simulation stack. See the module docs. Every
/// channel runs a coroutine BABOL controller on its own 1 GHz processor,
/// as on a multi-channel Cosmos+ where channel controllers replicate, over
/// a 200 MT/s NV-DDR2 bus.
pub struct ChannelShard {
    id: u32,
    sys: System,
    ctrl: Box<dyn Controller>,
    ssd: Ssd,
    inbox: VecDeque<HostCmd>,
    /// Counter totals already reported through [`ShardEvent::Counters`].
    reported: FtlCounters,
}

impl ChannelShard {
    /// Builds channel `id` of the device described by `cfg`. Runs on the
    /// thread that will own the shard.
    pub fn build(cfg: &MultiSsdConfig, id: u32) -> Self {
        let luns = (0..cfg.shard.luns)
            .map(|i| {
                Lun::new(LunConfig {
                    profile: cfg.profile.clone(),
                    content: if cfg.preload {
                        ContentMode::Preloaded { seed: 0xBAB01 }
                    } else {
                        ContentMode::Pristine
                    },
                    // Distinct timing seed per (channel, LUN).
                    seed: (id as u64) * cfg.shard.luns as u64 + i as u64 + 1,
                    inject_errors: false,
                    require_init: false,
                })
            })
            .collect();
        let mut sys = System::new(
            Channel::new(luns),
            EmitConfig::nv_ddr2(200),
            Cpu::new(Freq::from_ghz(1), CostModel::coroutine()),
        );
        if let Some(cap) = cfg.trace_capacity {
            let mut tracer = Tracer::with_capacity(cap);
            tracer.set_shard(id);
            sys.trace = tracer;
        }
        let layout = cfg.profile.layout();
        let ctrl = Box::new(coro_controller(layout, RuntimeConfig::coroutine()));
        let mut ssd = Ssd::new(cfg.shard);
        ssd.set_watchdog(cfg.watchdog);
        if cfg.preload {
            ssd.preload();
        }
        if let Some(window) = cfg.metrics_window {
            ssd.enable_metrics(window);
            ssd.metrics_mut().set_shard(id);
            // Baseline after preload, so factory state stays out of window 0.
            ssd.metrics_prime();
        }
        ChannelShard {
            id,
            sys,
            ctrl,
            ssd,
            inbox: VecDeque::new(),
            reported: FtlCounters::default(),
        }
    }
}

/// A shard's host side for one barrier round: the commands delivered to
/// it, and the round's records.
struct Round<'a> {
    inbox: &'a mut VecDeque<HostCmd>,
    out: &'a mut Vec<ShardEvent>,
}

impl Host for Round<'_> {
    fn next(&mut self) -> Option<HostCmd> {
        self.inbox.pop_front()
    }

    /// One op in the shard's telemetry; the latency is only known at the
    /// coordinator.
    fn complete(&mut self, id: u64, at: SimTime, metrics: &mut MetricsHub) -> Option<SimDuration> {
        metrics.note_op(at);
        self.out.push(ShardEvent::Done { id, at });
        None
    }

    /// A shard runs to its barrier horizon.
    fn finished(&self) -> bool {
        false
    }
}

impl Shard for ChannelShard {
    type In = HostCmd;
    type Out = ShardEvent;
    type Digest = ShardDigest;

    fn deliver(&mut self, at: SimTime, msg: HostCmd) {
        // All events before the barrier are already processed (the pool ran
        // this shard to the previous horizon), so clamping forward cannot
        // reorder anything.
        self.sys.now = self.sys.now.max(at);
        self.inbox.push_back(msg);
    }

    fn run_until(&mut self, horizon: SimTime, out: &mut Vec<ShardEvent>) {
        let mut round = Round {
            inbox: &mut self.inbox,
            out,
        };
        let (sys, ctrl) = (&mut self.sys, self.ctrl.as_mut());
        self.ssd.drive(sys, ctrl, &mut round, Some(horizon));
        let counters = self.ssd.counters();
        if counters != self.reported {
            let delta = counters.since(&self.reported);
            out.push(ShardEvent::Counters {
                at: self.sys.now,
                delta,
            });
            self.reported = counters;
        }
        // One telemetry sample per barrier round. The round schedule is a
        // model parameter (thread-count-invariant), so the sampled frames
        // are bit-identical at every thread count. Sampling at the hub's
        // latest-seen time (completions can run ahead of the shard clock)
        // keeps the tail frame's gauges stamped after the final round.
        let depth = self.ctrl.in_flight() + usize::from(self.ssd.staged.is_some());
        let at = SimTime::from_picos(self.ssd.metrics().end_ps()).max(self.sys.now);
        self.ssd.metrics_flush(at, depth);
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.sys.next_event_time()
    }

    fn now(&self) -> SimTime {
        self.sys.now
    }

    fn events_processed(&self) -> u64 {
        self.sys.events_popped()
    }

    fn finish(mut self) -> ShardDigest {
        self.sys.export_pool_stats();
        self.ssd.export_counters(&mut self.sys.trace);
        ShardDigest {
            shard: self.id,
            now: self.sys.now,
            events: self.sys.events_popped(),
            pool: self.sys.pool().stats(),
            tracer: std::mem::take(&mut self.sys.trace),
            metrics: self.ssd.take_metrics(),
            pending: usize::from(self.ssd.staged.is_some()),
        }
    }
}

/// Result of one fio job on a [`MultiSsd`].
#[derive(Debug, Clone)]
pub struct MultiFioReport {
    /// Aggregate job report (latencies over all channels).
    pub fio: FioReport,
    /// Every completion in deterministic merge order:
    /// `(completion time, shard, host id)`.
    pub completion_log: Vec<(SimTime, u32, u64)>,
    /// Completions per shard (stripe balance).
    pub per_shard_ios: Vec<u64>,
    /// Barrier rounds the coordinator ran.
    pub rounds: u64,
    /// Simulation events processed across all shards during the job.
    pub events: u64,
}

/// A whole multi-channel device: shard pool plus host driver. See the
/// module docs for the stripe and barrier design.
pub struct MultiSsd {
    channels: u32,
    window: SimDuration,
    logical_pages: u64,
    page_size: usize,
    pool: ShardPool<ChannelShard>,
    barrier: SimTime,
    watchdog: Watchdog,
    events_seen: Vec<u64>,
    /// Device-level telemetry: host latencies observed at the coordinator
    /// (a shard only knows completion times, not issue→complete latency).
    metrics: MetricsHub,
}

impl MultiSsd {
    /// Builds the device. Each shard is constructed on the thread that owns
    /// it: the caller builds its own share after spawning the workers, so
    /// construction overlaps, and this returns once the caller's share is
    /// built (the workers may still be building theirs).
    pub fn new(cfg: MultiSsdConfig) -> Self {
        assert!(cfg.channels >= 1, "a device needs at least one channel");
        assert!(!cfg.window.is_zero(), "the barrier window must be positive");
        let watchdog = match cfg.watchdog {
            Some(budget) => Watchdog::new(budget),
            None => Watchdog::disarmed(),
        };
        let logical_pages = cfg.shard.logical_pages * cfg.channels as u64;
        let page_size = cfg.shard.geometry.page_size;
        let channels = cfg.channels;
        let window = cfg.window;
        let threads = cfg.threads;
        let metrics = cfg
            .metrics_window
            .map_or_else(MetricsHub::disabled, MetricsHub::new);
        let ctors: Vec<ShardCtor<ChannelShard>> = (0..channels)
            .map(|id| {
                let cfg = cfg.clone();
                Box::new(move || ChannelShard::build(&cfg, id)) as ShardCtor<ChannelShard>
            })
            .collect();
        MultiSsd {
            channels,
            window,
            logical_pages,
            page_size,
            pool: ShardPool::new(ctors, threads),
            barrier: SimTime::ZERO,
            watchdog,
            events_seen: vec![0; channels as usize],
            metrics,
        }
    }

    /// The device-level telemetry hub (latency frames; disabled when the
    /// device was built without `metrics_window`).
    pub fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }

    /// Takes the device-level telemetry hub, leaving metrics disabled.
    pub fn take_metrics(&mut self) -> MetricsHub {
        std::mem::take(&mut self.metrics)
    }

    /// Exported logical pages across the whole device.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Runs one fio job to completion and reports it.
    ///
    /// # Panics
    ///
    /// Panics on deadlock (no shard has events while I/Os are outstanding)
    /// or when the sim-time stall watchdog fires.
    pub fn run(&mut self, wl: &FioWorkload) -> MultiFioReport {
        let start = self.barrier;
        self.watchdog.arm_at(start);
        let events_base: u64 = self.events_seen.iter().sum();
        let mut client = FioClient::new(*wl, self.logical_pages);
        let mut completion_log = Vec::with_capacity(wl.total_ios as usize);
        let mut per_shard_ios = vec![0u64; self.channels as usize];
        let mut next_events: Vec<Option<SimTime>> = vec![None; self.channels as usize];
        let mut inboxes: Vec<Vec<HostCmd>> = vec![Vec::new(); self.channels as usize];
        let mut counters = FtlCounters::default();
        let mut rounds = 0u64;
        let mut end = start;

        let channels = self.channels as u64;
        while !client.finished() {
            // Refill the global queue depth; the stripe routes each LPN.
            while let Some(cmd) = client.next() {
                let lpn = cmd.lpn / channels;
                inboxes[(cmd.lpn % channels) as usize].push(HostCmd { lpn, ..cmd });
                client.issued(cmd.id, self.barrier);
            }
            // Conservative horizon: nothing can happen before the earliest
            // pending event or queued delivery; the fixed window bounds how
            // far past it any shard may run this round.
            let queued = inboxes.iter().any(|b| !b.is_empty());
            let mut earliest = next_events.iter().flatten().copied().min();
            if queued {
                earliest = Some(earliest.map_or(self.barrier, |e| e.min(self.barrier)));
            }
            let Some(earliest) = earliest else {
                panic!(
                    "multi-SSD deadlock: {} of {} I/Os complete, \
                     no events pending on any of {} shards",
                    client.latencies.len(),
                    wl.total_ios,
                    self.channels
                );
            };
            debug_assert!(earliest >= self.barrier, "horizon moved backwards");
            let horizon = earliest + self.window;
            let outcomes = self.pool.step(
                self.barrier,
                horizon,
                std::mem::replace(&mut inboxes, vec![Vec::new(); self.channels as usize]),
            );
            rounds += 1;
            // Deterministic merge: a stable sort on (time, shard) keeps
            // each shard's emission order as the tiebreak, and the outcomes
            // vector is already indexed by shard id, so the merged stream
            // is independent of worker scheduling.
            let mut round: Vec<(SimTime, u32, ShardEvent)> = Vec::new();
            for (sid, o) in outcomes.iter().enumerate() {
                round.extend(o.out.iter().map(|ev| (ev.at(), sid as u32, *ev)));
                next_events[sid] = o.next_event;
                self.events_seen[sid] = o.events_processed;
            }
            round.sort_by_key(|&(at, sid, _)| (at, sid));
            for (at, sid, ev) in round {
                self.watchdog.note_progress(at);
                match ev {
                    ShardEvent::Done { id, .. } => {
                        client.complete(id, at, &mut self.metrics);
                        completion_log.push((at, sid, id));
                        per_shard_ios[sid as usize] += 1;
                        end = end.max(at);
                    }
                    ShardEvent::Counters { delta, .. } => counters += delta,
                }
            }
            self.barrier = horizon;
            if self.watchdog.is_stalled(self.barrier) {
                panic!(
                    "multi-SSD stall watchdog (V074 EnvelopeExceeded): no completion for {:?} \
                     ({} of {} I/Os complete, {} in flight, {rounds} rounds, {} GC cycles)",
                    self.watchdog.stalled_for(self.barrier),
                    client.latencies.len(),
                    wl.total_ios,
                    client.inflight.len(),
                    counters[FtlCounter::GcCycles],
                );
            }
        }

        // Close the device lane at the last completion; shard lanes may run
        // slightly longer (a shard job's overshoot past the final barrier)
        // and the series combiner pads every lane to the common length.
        self.metrics.touch(end);
        MultiFioReport {
            fio: FioReport::summarize(client.latencies, self.page_size, end - start, &counters),
            completion_log,
            per_shard_ios,
            rounds,
            events: self.events_seen.iter().sum::<u64>() - events_base,
        }
    }

    /// Shuts the device down, returning per-shard digests (tracers, pool
    /// counters, telemetry) in channel order.
    pub fn finish(self) -> Vec<ShardDigest> {
        self.pool.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fio::IoPattern;

    fn job(pattern: IoPattern, total: u64, qd: usize, seed: u64) -> FioWorkload {
        FioWorkload {
            pattern,
            total_ios: total,
            queue_depth: qd,
            seed,
        }
    }

    #[test]
    fn multi_channel_read_job_completes_on_every_channel() {
        let mut ssd = MultiSsd::new(MultiSsdConfig::tiny(4, 1));
        let r = ssd.run(&job(IoPattern::RandomRead, 200, 16, 9));
        assert_eq!(r.fio.ios, 200);
        assert_eq!(r.completion_log.len(), 200);
        assert_eq!(r.per_shard_ios.iter().sum::<u64>(), 200);
        assert!(
            r.per_shard_ios.iter().all(|&n| n > 0),
            "stripe left a channel idle: {:?}",
            r.per_shard_ios
        );
        assert!(r.fio.bandwidth_mbps() > 0.0);
        let digests = ssd.finish();
        assert_eq!(digests.len(), 4);
        assert!(digests.iter().all(|d| d.pending == 0));
        assert_eq!(
            digests.iter().map(|d| d.events).sum::<u64>(),
            r.events,
            "digest event counts disagree with the report"
        );
    }

    /// Bugfix regression: events the FTL stepped inline (cache flushes,
    /// GC) once bypassed the shard's count, so a cached-write job reported
    /// next to no events. Every pop counts, FTL job steps included.
    #[test]
    fn events_include_inline_ftl_steps() {
        use babol_trace::{Component, Counter};
        let mut cfg = MultiSsdConfig::tiny(2, 1);
        cfg.preload = false;
        cfg.shard.cache_pages = 8;
        cfg.trace_capacity = Some(1 << 12);
        let mut ssd = MultiSsd::new(cfg);
        let r = ssd.run(&job(IoPattern::RandomWrite, 200, 8, 5));
        assert!(r.fio.cache_dirty_evicts > 0, "the job must flush inline");
        let popped: u64 = ssd
            .finish()
            .iter()
            .map(|d| d.tracer.counter(Component::Sim, Counter::EventsPopped))
            .sum();
        assert!(popped > 0);
        assert_eq!(r.events, popped);
    }

    /// An unloaded device has nothing to read; the shard's panic names the
    /// cause.
    #[test]
    #[should_panic(expected = "unmapped")]
    fn reading_an_unloaded_device_panics() {
        let mut cfg = MultiSsdConfig::tiny(2, 1);
        cfg.preload = false;
        MultiSsd::new(cfg).run(&job(IoPattern::RandomRead, 8, 2, 1));
    }

    #[test]
    fn completion_log_is_sorted_by_time_then_shard() {
        let mut ssd = MultiSsd::new(MultiSsdConfig::tiny(4, 1));
        let r = ssd.run(&job(IoPattern::RandomRead, 120, 8, 3));
        for w in r.completion_log.windows(2) {
            let ((t0, s0, _), (t1, s1, _)) = (w[0], w[1]);
            assert!(
                t0 < t1 || (t0 == t1 && s0 <= s1),
                "merge order violated: {w:?}"
            );
        }
    }

    #[test]
    fn thread_counts_do_not_change_the_run() {
        let run = |threads: usize| {
            let mut ssd = MultiSsd::new(MultiSsdConfig::tiny(4, threads));
            let r = ssd.run(&job(IoPattern::RandomRead, 150, 12, 0xAB));
            (format!("{r:?}"), ssd.finish().len())
        };
        let (one, _) = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads).0, one, "{threads} threads diverged");
        }
    }

    /// Shard jobs (GC, and with a cache also flushes and absorbed-write
    /// completions) leave the report and the completion log unchanged at
    /// every thread count. The 4-channel input has host completions land
    /// during GC at round boundaries: a shard holds them until a
    /// host-level step, and a horizon stop must count as one, or they stay
    /// held, pin the coordinator's queue slots, and the stall watchdog
    /// fires.
    #[test]
    fn write_job_with_gc_is_thread_count_invariant() {
        // (channels, cache pages, queue depth, I/Os): about 3x the 96
        // logical pages per channel, so GC runs.
        for (channels, cache_pages, qd, ios) in [(2, 0, 4, 560), (2, 8, 4, 560), (4, 0, 16, 1152)] {
            let run = |threads: usize| {
                let mut cfg = MultiSsdConfig::tiny(channels, threads);
                cfg.preload = false;
                cfg.shard.cache_pages = cache_pages;
                let mut ssd = MultiSsd::new(cfg);
                let r = ssd.run(&job(IoPattern::RandomWrite, ios, qd, 7));
                assert!(r.fio.gc_cycles > 0, "workload must reach GC");
                if cache_pages > 0 {
                    assert!(r.fio.cache_dirty_evicts > 0, "the cache must flush");
                }
                format!("{r:?}")
            };
            let one = run(1);
            for threads in [2, 3] {
                assert_eq!(
                    run(threads),
                    one,
                    "{channels} channels, {cache_pages} cache pages, {threads} threads"
                );
            }
        }
    }

    /// Regression: a shard admits each host request right after the job
    /// its preparation queued, the one-channel policy. It used to prepare
    /// its whole inbox, running every command's job, before admitting any
    /// request. LUN 0 is shaped so that each of two writes delivered in
    /// one round needs its own GC cycle: seven of its eight blocks are
    /// full, the first two hold only stale pages, and the first write's
    /// page opens the block its GC freed.
    #[test]
    fn shard_admits_each_write_right_after_its_job() {
        use babol_trace::TraceKind;
        let mut cfg = MultiSsdConfig::tiny(1, 1);
        cfg.preload = false;
        cfg.trace_capacity = Some(1 << 16);
        let mut shard = ChannelShard::build(&cfg, 0);
        let map = &mut shard.ssd.map;
        for lpn in 0..56 {
            map.allocate_on_lun(lpn, 0);
        }
        for lpn in 0..16 {
            map.invalidate(lpn);
        }
        assert!(map.needs_gc(0));
        for id in 0..2 {
            let cmd = HostCmd {
                id,
                lpn: 60 + id,
                slot: id,
                write: true,
            };
            shard.deliver(SimTime::ZERO, cmd);
        }
        let mut out = Vec::new();
        shard.run_until(SimTime::ZERO + cfg.window, &mut out);
        assert_eq!(shard.ssd.gc_cycles, 2, "each write must need a GC cycle");
        let events: Vec<_> = shard.sys.trace.events().collect();
        let at = |kind: TraceKind, op_id: u64| {
            events
                .iter()
                .position(|e| e.kind == kind && e.op_id == op_id)
                .unwrap_or_else(|| panic!("no {kind:?} for op {op_id}"))
        };
        assert!(
            at(TraceKind::OpIssue, 0) < at(TraceKind::GcStart, 1),
            "the first write waited for the second write's GC"
        );
    }

    #[test]
    fn metrics_series_is_thread_count_invariant_and_conserves_ops() {
        let run = |threads: usize| {
            let mut cfg = MultiSsdConfig::tiny(4, threads);
            cfg.metrics_window = Some(SimDuration::from_micros(50));
            let mut ssd = MultiSsd::new(cfg);
            let r = ssd.run(&job(IoPattern::RandomRead, 150, 12, 0xAB));
            let device = ssd.take_metrics();
            let digests = ssd.finish();
            let shards: Vec<&babol_trace::MetricsHub> =
                digests.iter().map(|d| &d.metrics).collect();
            let series = babol_trace::MetricsSeries::from_shards(&device, &shards);
            (r.fio.ios, series.to_json_lines(&[]))
        };
        let (ios, one) = run(1);
        assert_eq!(ios, 150);
        // Device frames carry every completion exactly once.
        let parsed = babol_trace::parse_metrics_lines(&one).unwrap();
        assert_eq!(parsed.series.merged_latency().count(), 150);
        for threads in [2, 4] {
            assert_eq!(run(threads).1, one, "{threads} threads diverged");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed: u64| {
            let mut ssd = MultiSsd::new(MultiSsdConfig::tiny(2, 1));
            format!("{:?}", ssd.run(&job(IoPattern::RandomRead, 60, 4, seed)))
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn window_choice_changes_pacing_not_results() {
        let run = |window: SimDuration| {
            let mut cfg = MultiSsdConfig::tiny(4, 2);
            cfg.window = window;
            let mut ssd = MultiSsd::new(cfg);
            let r = ssd.run(&job(IoPattern::RandomRead, 100, 1, 5));
            // Queue depth 1 serializes host I/O: each command is delivered
            // only after the previous completion reaches the coordinator,
            // so per-I/O latency is window-independent even though rounds
            // and wall pacing are not.
            (r.fio.ios, r.per_shard_ios.clone())
        };
        assert_eq!(
            run(SimDuration::from_micros(5)),
            run(SimDuration::from_micros(50))
        );
    }
}
