//! The SSD assembly: FTL + storage controller + host driver.
//!
//! [`Ssd::run`] plays one fio job against a storage controller, doing what
//! the Cosmos+ firmware stack does around the paper's Fig. 12 experiment:
//! look up (or allocate) the physical page for each host I/O, charge the
//! FTL's CPU cost on the shared processor, keep the host queue depth
//! outstanding, and run garbage collection when a LUN runs out of free
//! blocks.
//!
//! Beyond the Fig. 12 essentials, the driver carries the production FTL
//! subsystems: a write-back DRAM cache ([`crate::cache`]) that absorbs
//! host writes and programs flash on dirty eviction, wear-leveling
//! migration of cold blocks when the erase spread opens up, bad-block
//! retirement on (deterministic) program/erase failures
//! ([`crate::bad`]), and per-op energy accounting ([`crate::energy`]).
//!
//! # The FTL job queue
//!
//! Internal work — GC cycles, wear migrations, failure evacuations and
//! cache flushes — is planned, not run. Preparing a host I/O decides every
//! step of the work it needs up front (victims, relocation targets,
//! allocations, bad-block draws and the wear gate read only FTL state,
//! never simulated time) and queues those steps on one reused FIFO per
//! `Ssd`: internal flash ops, cache-slot stages that must follow their
//! eviction flush, GC trace marks, and the completion of a write the cache
//! absorbed. The drive loop runs the queue one flash op at a time through
//! the same harvest that collects host completions, and prepares no host
//! command while a job is queued, so the map changes in the order the work
//! runs.
//!
//! # One drive loop
//!
//! `Ssd::drive` is the only FTL loop that calls [`System::step`]:
//! [`Ssd::run`] and [`Ssd::flush_cache`] run it to the end of their work,
//! and each multi-channel shard runs it to its barrier horizon. Every
//! caller gets the one admission policy: a host command is prepared only
//! while no job is queued, its request is submitted as soon as the job its
//! preparation queued has run, and host completions that land during a
//! job are handed to the host only after the next host-level step (one
//! taken with no job queued). The caller's side of the loop is a `Host`.

use std::collections::VecDeque;

use babol::system::{Controller, IoKind, IoRequest, StepLimit, System};
use babol_flash::Geometry;
use babol_sim::{PageData, SimDuration, SimTime, Watchdog};
use babol_trace::{
    Component, Counter, FtlCounter, FtlCounters, MetricsHub, MetricsSnapshot, TraceKind, Tracer,
};
use babol_verify::EnergyCosts;

use crate::bad::{BadBlockConfig, BadBlockModel};
use crate::cache::WriteCache;
use crate::energy::EnergyTally;
use crate::fio::{FioClient, FioReport, FioWorkload, HostCmd, IoPattern};
use crate::map::{PageMap, Ppn};

/// Static configuration of the SSD.
#[derive(Debug, Clone, Copy)]
pub struct SsdConfig {
    /// LUNs on the channel ("ways" in Fig. 12).
    pub luns: u32,
    /// Package geometry.
    pub geometry: Geometry,
    /// Exported logical pages.
    pub logical_pages: u64,
    /// FTL cycles charged per host I/O (lookup, allocation, bookkeeping) on
    /// the shared CPU.
    pub ftl_lookup_cycles: u64,
    /// Write-back DRAM cache capacity in pages (0 disables the cache and
    /// every write programs flash inline).
    pub cache_pages: usize,
    /// Bad-block model: factory map + grown program/erase failures. The
    /// default disables every failure mode.
    pub bad: BadBlockConfig,
    /// Wear-leveling migration trigger: cold full blocks migrate when a
    /// LUN's erase spread exceeds this limit (0 disables migration; the
    /// static min-wear free-block allocation is always on).
    pub wear_spread_limit: u32,
    /// Energy cost table (always accounted; pure observation).
    pub energy: EnergyCosts,
}

impl SsdConfig {
    /// A Fig. 12-like configuration: `luns` ways of the paper geometry with
    /// ~11% over-provisioning.
    pub fn fig12(luns: u32) -> Self {
        let geometry = Geometry::paper_16k();
        let physical = geometry.pages_per_lun() * luns as u64;
        SsdConfig {
            luns,
            geometry,
            logical_pages: physical * 8 / 9,
            ftl_lookup_cycles: 1_500,
            cache_pages: 0,
            bad: BadBlockConfig::default(),
            wear_spread_limit: 0,
            energy: EnergyCosts::nand(),
        }
    }

    /// A miniature configuration for tests.
    pub fn tiny(luns: u32) -> Self {
        let geometry = Geometry::tiny();
        let physical = geometry.pages_per_lun() * luns as u64;
        SsdConfig {
            luns,
            geometry,
            logical_pages: physical * 3 / 4,
            ftl_lookup_cycles: 300,
            cache_pages: 0,
            bad: BadBlockConfig::default(),
            wear_spread_limit: 0,
            energy: EnergyCosts::nand(),
        }
    }
}

/// Host-buffer base address; requests stage data here, one page per queue
/// slot, recycled.
const HOST_BUF: u64 = 0x1000_0000;
/// Scratch area used by GC relocations.
const GC_BUF: u64 = 0x7000_0000;
/// Write-back cache slots live here, one page per slot.
const CACHE_BUF: u64 = 0x9000_0000;
/// Id space for internal (GC) requests.
const INTERNAL_ID: u64 = 1 << 62;

/// Wear-leveling cadence: after a migration pass runs, the next one is
/// deferred until this many further GC cycles have completed. See
/// [`Ssd::reclaim_space`] for why the sweep must be periodic and budgeted
/// rather than run to a no-victim fixpoint.
const WEAR_CHECK_INTERVAL_GC: u64 = 8;

/// The job of a host that issues nothing: a drive that only runs queued
/// jobs.
const NO_HOST_IO: FioWorkload = FioWorkload {
    pattern: IoPattern::SequentialWrite,
    total_ios: 0,
    queue_depth: 0,
    seed: 0,
};

/// One step of an FTL job. Planning queues them; the driver loop runs
/// them in order, each after the flash op before it has completed.
#[derive(Debug, Clone, Copy)]
enum JobStep {
    /// An internal flash op: a relocation read or program, an erase, a
    /// flush.
    Io(IoRequest),
    /// Stages `lpn`'s host data into the cache slot at `buf`, after the
    /// slot's eviction flush has programmed the old data.
    Stage { lpn: u64, buf: u64 },
    /// A GC start or end trace mark on a LUN for a GC cycle, stamped when
    /// reached.
    Gc(TraceKind, u32, u64),
    /// A write the cache absorbed completes when reached.
    HostDone { id: u64 },
}

/// The host side of [`Ssd::drive`]: where host commands come from and
/// where their completions go.
pub(crate) trait Host {
    /// The next command to prepare, or `None` while the host has none to
    /// issue.
    fn next(&mut self) -> Option<HostCmd>;

    /// Host I/O `id` was admitted, or absorbed by the cache, at `at`.
    fn issued(&mut self, _id: u64, _at: SimTime) {}

    /// Host I/O `id` completed at `at`.
    fn complete(&mut self, id: u64, at: SimTime, metrics: &mut MetricsHub);

    /// Whether the host is done; the drive then returns as soon as no job
    /// is queued.
    fn finished(&self) -> bool;

    /// Runs after every host-level step.
    fn host_step(&mut self, _ssd: &mut Ssd, _now: SimTime) {}
}

/// An SSD: page map plus workload driver.
#[derive(Debug)]
pub struct Ssd {
    cfg: SsdConfig,
    pub(crate) map: PageMap,
    next_internal: u64,
    /// The FTL job queue (see the module docs), reused across jobs.
    jobs: VecDeque<JobStep>,
    /// Whether the job's flash op is in flight: submitted, not harvested.
    awaiting: bool,
    /// A fully prepared host request not yet admitted: refused by the
    /// controller, or waiting on its job. Resubmitted verbatim before
    /// anything new is prepared. Preparing is not idempotent — it draws
    /// the RNG, charges FTL cycles, and (for writes) allocates the target
    /// page — so a refused request must be retained, never rebuilt. It,
    /// `done` and `host_step` live here so that a shard keeps them across
    /// barrier rounds.
    pub(crate) staged: Option<IoRequest>,
    /// Harvested host completions. Those that land during a job keep their
    /// queue slots until a host-level step has run: the admission pass a
    /// job interrupts resumes with them still counted.
    done: Vec<(IoRequest, SimTime)>,
    /// Whether the last step was host-level: taken with no job queued, or
    /// a barrier horizon reached.
    host_step: bool,
    /// GC cycles performed since construction.
    pub gc_cycles: u64,
    /// Write-back cache bookkeeping (disabled when capacity is 0).
    cache: WriteCache,
    /// Deterministic factory/grown failure model.
    bad: BadBlockModel,
    /// Energy spent since construction, by operation class.
    energy: EnergyTally,
    /// Wear-leveling migrations performed since construction.
    wear_migrations: u64,
    /// GC-cycle count at which the next wear-migration pass is allowed
    /// ([`WEAR_CHECK_INTERVAL_GC`] cadence; 0 = a pass is due immediately).
    next_wear_check: u64,
    /// Blocks retired since construction (factory map included).
    blocks_retired: u64,
    /// Streaming telemetry: windowed metrics frames (disabled by default;
    /// [`Ssd::enable_metrics`] turns it on).
    metrics: MetricsHub,
    /// Window index the expensive gauges were last refreshed in
    /// (`u64::MAX` = never); wear spread walks every block, so it is
    /// recomputed once per window, not once per driver-loop iteration.
    metrics_gauge_window: u64,
    /// Cached worst per-LUN wear spread for the current window.
    metrics_wear_spread: u32,
    /// Latest in-window `(now, queue_depth)` the driver loop reported but
    /// has not snapshotted yet. Per-step sampling only records this pair;
    /// the full counter snapshot is deferred to the step that crosses a
    /// window boundary (and to the end-of-run flush), which keeps the
    /// metrics-on hot path to an integer divide and two stores.
    metrics_pending: (SimTime, u32),
    /// Stall watchdog. Progress is *any* completion, host or internal:
    /// a foreground GC storm on the paper geometry can legitimately hold
    /// off host completions for a long stretch while relocations complete
    /// steadily, and those relocations are forward progress.
    watchdog: Watchdog,
    /// True until [`Ssd::set_watchdog`] pins or disarms the budget: the
    /// watchdog is (re)armed from the static envelope of the target
    /// package at `run` start.
    watchdog_auto: bool,
}

impl Ssd {
    /// Headroom on the envelope-derived stall budget, in blocks' worth of
    /// worst-case operations. Far more generous than the engine's: a full
    /// GC cycle relocates up to a block's worth of pages one op at a time
    /// while host I/O waits, and a wear-leveling migration can chain
    /// another on top.
    pub const WATCHDOG_HEADROOM_BLOCKS: u64 = 4;

    /// The stall budget derived from the static timing envelope (rule
    /// V074): the envelope maximum of the worst well-formed single
    /// operation on `profile`, times pages-per-block, times
    /// [`WATCHDOG_HEADROOM_BLOCKS`](Self::WATCHDOG_HEADROOM_BLOCKS).
    pub fn envelope_watchdog_budget(profile: &babol_flash::PackageProfile) -> SimDuration {
        babol_verify::envelope::worst_op_envelope(profile)
            * (profile.geometry.pages_per_block as u64 * Self::WATCHDOG_HEADROOM_BLOCKS)
    }

    /// Builds the SSD, retiring the factory bad-block map up front.
    ///
    /// # Panics
    ///
    /// Panics if the factory map eats into the ~10% over-provisioning the
    /// logical space needs.
    pub fn new(cfg: SsdConfig) -> Self {
        let mut map = PageMap::new(cfg.geometry, cfg.luns, cfg.logical_pages);
        let bad = BadBlockModel::new(cfg.bad);
        let mut blocks_retired = 0;
        for lun in 0..cfg.luns {
            for block in 0..cfg.geometry.blocks_per_lun() {
                if bad.factory_bad(lun, block) {
                    map.retire_block(lun, block);
                    blocks_retired += 1;
                }
            }
        }
        assert!(
            cfg.logical_pages <= map.usable_pages() * 9 / 10,
            "factory bad-block map ate the over-provisioning: \
             {} logical pages of {} usable",
            cfg.logical_pages,
            map.usable_pages()
        );
        Ssd {
            map,
            next_internal: INTERNAL_ID,
            jobs: VecDeque::new(),
            awaiting: false,
            staged: None,
            done: Vec::new(),
            host_step: true,
            gc_cycles: 0,
            cache: WriteCache::new(cfg.cache_pages),
            bad,
            energy: EnergyTally::default(),
            wear_migrations: 0,
            next_wear_check: 0,
            blocks_retired,
            metrics: MetricsHub::disabled(),
            metrics_gauge_window: u64::MAX,
            metrics_wear_spread: 0,
            metrics_pending: (SimTime::ZERO, 0),
            // Armed with the envelope-derived budget at `run` start, when
            // the target package profile is in hand.
            watchdog: Watchdog::disarmed(),
            watchdog_auto: true,
            cfg,
        }
    }

    /// Overrides the envelope-derived stall watchdog budget; `None`
    /// disarms it.
    pub fn set_watchdog(&mut self, budget: Option<SimDuration>) {
        self.watchdog_auto = false;
        self.watchdog = match budget {
            Some(b) => Watchdog::new(b),
            None => Watchdog::disarmed(),
        };
    }

    /// The translation map (inspection and tests).
    pub fn map(&self) -> &PageMap {
        &self.map
    }

    /// The write-back cache's bookkeeping (inspection and tests).
    pub fn cache(&self) -> &WriteCache {
        &self.cache
    }

    /// Energy spent since construction, by operation class.
    pub fn energy(&self) -> &EnergyTally {
        &self.energy
    }

    /// Wear-leveling migrations performed since construction.
    pub fn wear_migrations(&self) -> u64 {
        self.wear_migrations
    }

    /// Blocks retired since construction (factory map included).
    pub fn blocks_retired(&self) -> u64 {
        self.blocks_retired
    }

    /// Enables streaming telemetry with the given sim-time window. The
    /// driver loop then samples counter deltas into one
    /// [`babol_trace::MetricsFrame`] per window; see
    /// [`babol_trace::MetricsHub`].
    pub fn enable_metrics(&mut self, window: SimDuration) {
        self.metrics = MetricsHub::new(window);
        self.metrics_gauge_window = u64::MAX;
        self.metrics_pending = (SimTime::ZERO, 0);
    }

    /// The telemetry hub (frames collected so far).
    pub fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }

    /// Mutable hub access (shard tagging in multi-channel devices).
    pub fn metrics_mut(&mut self) -> &mut MetricsHub {
        &mut self.metrics
    }

    /// Takes the telemetry hub, leaving metrics disabled.
    pub fn take_metrics(&mut self) -> MetricsHub {
        std::mem::take(&mut self.metrics)
    }

    /// Per-step telemetry sampling point. Steps inside the current window
    /// only record the pending `(now, queue_depth)` pair; the step that
    /// crosses a window boundary first snapshots at the pending point —
    /// flushing every delta accrued in the old window into the old
    /// window's frame, exactly as if each step had sampled — and then
    /// snapshots at `now`. Deltas land in the same frames eager per-step
    /// sampling would put them in, at a fraction of the cost.
    pub(crate) fn metrics_sample(&mut self, now: SimTime, queue_depth: usize) {
        if !self.metrics.is_enabled() {
            return;
        }
        if now.window_index(self.metrics.window()) == self.metrics_gauge_window {
            self.metrics_pending = (now, queue_depth as u32);
            return;
        }
        self.metrics_flush(now, queue_depth);
    }

    /// Takes a telemetry snapshot at `now`. If `now` falls in a later
    /// window than the pending per-step pair, the pending point is
    /// snapshotted first so the old window keeps the deltas accrued in
    /// it. The driver loop calls this once at end of run (and the sharded
    /// kernel once per round) so no deltas are left unflushed when the
    /// hub is read or taken.
    pub(crate) fn metrics_flush(&mut self, now: SimTime, queue_depth: usize) {
        if !self.metrics.is_enabled() {
            return;
        }
        let window = now.window_index(self.metrics.window());
        if window != self.metrics_gauge_window {
            if self.metrics_gauge_window != u64::MAX {
                let (at, qd) = self.metrics_pending;
                let snap = self.metrics_snapshot(qd);
                self.metrics.sample(at, &snap);
            }
            self.metrics_gauge_window = window;
            self.metrics_wear_spread = (0..self.cfg.luns)
                .map(|l| self.map.wear_spread(l))
                .max()
                .unwrap_or(0);
        }
        let snap = self.metrics_snapshot(queue_depth as u32);
        self.metrics.sample(now, &snap);
        self.metrics_pending = (now, queue_depth as u32);
    }

    /// Establishes the telemetry delta baseline at run start, so totals
    /// accumulated before the run (preload, an earlier job) stay out of
    /// window 0.
    pub(crate) fn metrics_prime(&mut self) {
        if !self.metrics.is_enabled() {
            return;
        }
        let snap = self.metrics_snapshot(0);
        self.metrics.prime(&snap);
    }

    /// The production counters since construction, gathered from the
    /// layer that counts each one. Every report reads this set.
    pub(crate) fn counters(&self) -> FtlCounters {
        FtlCounters::from_fn(|c| match c {
            FtlCounter::CacheHits => self.cache.hits(),
            FtlCounter::CacheMisses => self.cache.misses(),
            FtlCounter::CacheDirtyEvicts => self.cache.dirty_evicts(),
            FtlCounter::GcCycles => self.gc_cycles,
            FtlCounter::EnergyPj => self.energy.total_pj(),
            FtlCounter::WearMigrations => self.wear_migrations,
            FtlCounter::BlocksRetired => self.blocks_retired,
        })
    }

    /// Snapshots the production counters into `trace`'s FTL counters, with
    /// the energy split by operation class: the one place the FTL writes
    /// them, called wherever a job ends. A no-op while tracing is off.
    pub(crate) fn export_counters(&self, trace: &mut Tracer) {
        let c = self.counters();
        let e = &self.energy;
        for (counter, n) in [
            (Counter::CacheHits, c[FtlCounter::CacheHits]),
            (Counter::CacheMisses, c[FtlCounter::CacheMisses]),
            (Counter::CacheDirtyEvicts, c[FtlCounter::CacheDirtyEvicts]),
            (Counter::GcCycles, c[FtlCounter::GcCycles]),
            (Counter::WearMigrations, c[FtlCounter::WearMigrations]),
            (Counter::BlocksRetired, c[FtlCounter::BlocksRetired]),
            (Counter::EnergyReadPj, e.read_pj),
            (Counter::EnergyProgramPj, e.program_pj),
            (Counter::EnergyErasePj, e.erase_pj),
            (Counter::EnergyTransferPj, e.transfer_pj),
        ] {
            trace.set_counter(counter, n);
        }
    }

    fn metrics_snapshot(&self, queue_depth: u32) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters(),
            queue_depth,
            cache_dirty: self.cache.dirty_len() as u32,
            cache_len: self.cache.len() as u32,
            free_blocks: (0..self.cfg.luns).map(|l| self.map.free_blocks(l)).sum(),
            wear_spread: self.metrics_wear_spread,
        }
    }

    /// Pre-maps the logical space with data (the paper's initialization
    /// step). Pair with flash arrays in `Preloaded` content mode.
    pub fn preload(&mut self) {
        self.map.preload_linear();
    }

    /// Runs one fio job to completion.
    pub fn run(
        &mut self,
        sys: &mut System,
        controller: &mut dyn Controller,
        wl: FioWorkload,
    ) -> FioReport {
        let start = sys.now;
        if self.watchdog_auto {
            // The budget and its basis, the worst single operation's
            // envelope, travel in the trace footer.
            let profile = sys.channel.lun(0).profile();
            let worst = babol_verify::envelope::worst_op_envelope(profile);
            let budget = Self::envelope_watchdog_budget(profile);
            sys.trace
                .set_counter(Counter::EnvelopeWorstOpPs, worst.as_picos());
            sys.trace
                .set_counter(Counter::WatchdogBudgetPs, budget.as_picos());
            self.watchdog = Watchdog::new(budget);
        }
        self.watchdog.arm_at(start);
        self.metrics_prime();
        let mut client = FioClient::new(wl, self.map.logical_pages());
        self.drive(sys, controller, &mut client, None);
        // Closing flush: completions can carry timestamps past the driver
        // clock (their frame already exists), so close at whichever is
        // later — otherwise the tail frame's gauges would stay unstamped.
        let close = SimTime::from_picos(self.metrics.end_ps().max(sys.now.as_picos()));
        self.metrics_flush(close, 0);
        self.export_counters(&mut sys.trace);
        sys.publish_counters();
        let (page, elapsed) = (self.cfg.geometry.page_size, sys.now - start);
        FioReport::summarize(client.latencies, page, elapsed, &self.counters())
    }

    /// The FTL's one drive loop (see the module docs): keeps `host` fed
    /// with admitted requests and runs the job queue one flash op at a
    /// time. With no `horizon` it steps under the FTL's stall watchdog
    /// until the host is finished and no job is queued; with one it
    /// returns at the first step the horizon stops.
    // Inlined into its callers, so `run` and the shard's `step` each
    // keep `System::step` inline: one shared out-of-line copy measured ~3%
    // more simbench host time per I/O on a 2-vCPU x86-64 host.
    #[inline]
    pub(crate) fn drive(
        &mut self,
        sys: &mut System,
        controller: &mut dyn Controller,
        host: &mut impl Host,
        horizon: Option<SimTime>,
    ) {
        loop {
            self.harvest(controller);
            while let Some(id) = self.pump(sys, controller) {
                host.complete(id, sys.now, &mut self.metrics);
            }
            let busy = self.job_queued();
            if !busy {
                if std::mem::take(&mut self.host_step) {
                    for (req, at) in self.done.drain(..) {
                        host.complete(req.id, at, &mut self.metrics);
                    }
                }
                // A staged request needs no room check: `next` found it
                // room, and the host has only freed slots since.
                loop {
                    if self.staged.is_none() {
                        let Some(cmd) = host.next() else { break };
                        self.staged = self.prepare_host(sys, cmd);
                        if self.staged.is_none() {
                            host.issued(cmd.id, sys.now);
                        }
                        // Run the job first; an absorbed write completes in it.
                        if self.job_queued() {
                            break;
                        }
                    }
                    let req = self.staged.take().expect("a prepared host request");
                    if !controller.submit(sys, req) {
                        self.staged = Some(req);
                        break;
                    }
                    self.account_io(&req);
                    host.issued(req.id, sys.now);
                }
                if self.job_queued() {
                    continue;
                }
                if host.finished() {
                    return;
                }
            }
            // The one overshoot choice: a job runs to its end, past any
            // horizon, under the FTL's stall watchdog. Stopping at the
            // horizon instead changes simulated latencies, so it waits for
            // new benchmark baselines.
            let headline = || self.stall_headline();
            // After a host-level step the loop releases the completions a
            // job held back, so the next step must not be skipped; and it
            // samples metrics, whose frames only see which windows hold a
            // step, so a summary may reach into the next window but no
            // further.
            let limit = match horizon {
                Some(h) if !busy => StepLimit::Horizon(h),
                _ if !busy && !self.done.is_empty() => {
                    StepLimit::Watched(&self.watchdog, &headline, sys.now)
                }
                _ if !busy && self.metrics.is_enabled() => {
                    let window = self.metrics.window();
                    let until = sys.now.window_start(window) + window * 2;
                    StepLimit::Watched(&self.watchdog, &headline, until)
                }
                _ => StepLimit::Watched(&self.watchdog, &headline, SimTime::FAR_FUTURE),
            };
            let stepped = sys.step(controller, limit);
            // A horizon stop is host-level too, or completions held in a
            // job would wait out every later round.
            self.host_step = !busy;
            if !stepped {
                return;
            }
            if self.host_step {
                host.host_step(self, sys.now);
            }
        }
    }

    /// The FTL's headline in a stall diagnostic.
    fn stall_headline(&self) -> String {
        format!("SSD, host or internal; {} GC cycles", self.gc_cycles)
    }

    /// The FTL's one harvest of controller completions: appends them to
    /// `done`, notes each as watchdog progress (host or internal), and
    /// takes out the job's flash op, so only host completions are left.
    fn harvest(&mut self, controller: &mut dyn Controller) {
        let done = &mut self.done;
        let seen = done.len();
        controller.take_completions(done);
        for &(_, at) in &done[seen..] {
            self.watchdog.note_progress(at);
        }
        if let Some(i) = done[seen..].iter().position(|(r, _)| r.id >= INTERNAL_ID) {
            done.remove(seen + i);
            self.awaiting = false;
        }
    }

    /// Runs the job queue as far as it goes without advancing time: marks
    /// and stages run now, and the next flash op is submitted once the one
    /// before it has completed (a refused op is retried on the next call).
    /// Stops at a write the cache absorbed, returning its id: it completes
    /// now.
    fn pump(&mut self, sys: &mut System, ctrl: &mut dyn Controller) -> Option<u64> {
        while !self.awaiting {
            let step = self.jobs.pop_front()?;
            match step {
                JobStep::Io(req) if ctrl.submit(sys, req) => {
                    self.account_io(&req);
                    self.awaiting = true;
                }
                JobStep::Io(_) => {
                    self.jobs.push_front(step);
                    break;
                }
                JobStep::Stage { lpn, buf } => self.stage_pattern(sys, lpn, buf),
                JobStep::Gc(kind, lun, cycle) => {
                    let t = sys.now;
                    sys.trace.event(t, Component::Ftl, kind, lun, cycle);
                }
                JobStep::HostDone { id } => {
                    self.watchdog.note_progress(sys.now);
                    return Some(id);
                }
            }
        }
        None
    }

    /// Whether an FTL job is queued or its flash op is in flight: the
    /// driver must step, and prepare no host command, until it has run.
    fn job_queued(&self) -> bool {
        self.awaiting || !self.jobs.is_empty()
    }

    /// Prepares host command `cmd`, staged in its queue slot's DRAM page:
    /// charges the FTL's lookup on the shared CPU, queues the job the I/O
    /// needs first (GC, wear migration, cache flushes), and builds the
    /// flash request, which the drive loop submits once that job has run.
    /// A write the write-back cache absorbs returns `None`: its completion
    /// is the job's last step.
    fn prepare_host(&mut self, sys: &mut System, cmd: HostCmd) -> Option<IoRequest> {
        let buf = HOST_BUF + cmd.slot * self.cfg.geometry.page_size as u64;
        sys.cpu.charge(sys.now, self.cfg.ftl_lookup_cycles);
        if cmd.write && self.cache.is_enabled() {
            self.cache_write(cmd.lpn);
            self.jobs.push_back(JobStep::HostDone { id: cmd.id });
            return None;
        }
        if cmd.write {
            return Some(self.prepare_write(sys, cmd.lpn, buf, cmd.id));
        }
        self.flush_for_read(cmd.lpn);
        let ppn = self
            .map
            .translate(cmd.lpn)
            .expect("read of unmapped page: preload the device first (Ssd::preload / MultiSsdConfig::preload)");
        Some(self.page_io(cmd.id, IoKind::Read, ppn, buf))
    }

    /// A whole-page read or program of `ppn` through DRAM address `buf`, or
    /// an erase of its block.
    fn page_io(&self, id: u64, kind: IoKind, ppn: Ppn, buf: u64) -> IoRequest {
        IoRequest {
            id,
            kind,
            lun: ppn.lun,
            block: ppn.block,
            page: ppn.page,
            col: 0,
            // An erase moves no data.
            len: self.cfg.geometry.page_size * usize::from(kind != IoKind::Erase),
            dram_addr: buf,
        }
    }

    /// Queues an internal op on `ppn` through DRAM address `buf`.
    fn queue_io(&mut self, kind: IoKind, ppn: Ppn, buf: u64) {
        let req = self.page_io(self.next_internal, kind, ppn, buf);
        self.next_internal += 1;
        self.jobs.push_back(JobStep::Io(req));
    }

    /// Stages data and allocates the target for a host write, queueing
    /// space reclamation (GC, wear migration) first if any LUN is short.
    fn prepare_write(&mut self, sys: &mut System, lpn: u64, buf: u64, id: u64) -> IoRequest {
        self.stage_pattern(sys, lpn, buf);
        self.reclaim_space();
        let ppn = self.allocate_programmable(lpn, buf);
        self.page_io(id, IoKind::Program, ppn, buf)
    }

    /// Stages the recognizable LPN-keyed host pattern (byte `i` is
    /// `lpn + i`, mod 256) into DRAM at `buf`, described rather than built.
    fn stage_pattern(&self, sys: &mut System, lpn: u64, buf: u64) {
        let page = PageData::pattern(lpn as u8, self.cfg.geometry.page_size);
        sys.dram.write_data(buf, page);
    }

    /// Plans garbage collection and wear-leveling migration until every LUN
    /// is back above the GC threshold — iterated to a **fixpoint**, not a
    /// single sweep. Collecting LUN i relocates its valid pages onto
    /// [`PageMap::best_relocation_lun`], which can push an already-swept
    /// LUN back under the threshold; a one-pass index-order sweep (the old
    /// code) would leave that LUN short for the next allocation.
    ///
    /// One guarded exception keeps the fixpoint well-defined: when the
    /// device is so full and fragmented that every remaining victim is
    /// fully valid, a GC cycle frees one block (the erase) and consumes one
    /// (the relocations) — zero net gain, and further passes would
    /// ping-pong the same valid pages between LUNs forever. Each pass
    /// therefore collects at most one block per needy LUN (so progress is
    /// always measured between collections), and a no-gain pass can still
    /// *unlock* a productive victim on another LUN (by making that LUN
    /// needy), so the sweep tolerates up to `luns` consecutive no-gain
    /// passes — one shuffle per LUN — before concluding every LUN that
    /// *can* be raised above the threshold has been.
    fn reclaim_space(&mut self) {
        let total_free = |map: &PageMap| (0..map.luns()).map(|l| map.free_blocks(l)).sum::<u32>();
        let mut wear_done = false;
        loop {
            // GC until no LUN is needy or the passes stop gaining.
            let mut gc_passes = 0u32;
            let mut stale = 0u32;
            loop {
                let before = total_free(&self.map);
                let mut collected = false;
                for lun in 0..self.cfg.luns {
                    if self.map.needs_gc(lun) {
                        self.collect_block(lun);
                        collected = true;
                    }
                }
                if !collected {
                    break;
                }
                if total_free(&self.map) <= before {
                    stale += 1;
                    if stale > self.cfg.luns {
                        break;
                    }
                } else {
                    stale = 0;
                }
                gc_passes += 1;
                assert!(gc_passes < 4096, "GC sweep failed to reach a fixpoint");
            }
            // Wear migration is periodic and budgeted, not fixpointed.
            // Each migration relocates a full block of cold data, which
            // consumes free blocks on the target LUN; the refill GC erases
            // hot blocks there, which can re-open *that* LUN's spread and
            // nominate fresh victims — on a hot enough device "migrate
            // until no victim remains" never terminates (the spread chases
            // its own erases in a cycle around the LUNs), and even a fixed
            // per-reclaim budget thrashes when reclamation triggers on
            // every host write. Real controllers level wear as rate-limited
            // background work; here the rate limit is one migration pass
            // (at most one cold block per LUN) per WEAR_CHECK_INTERVAL_GC
            // completed GC cycles, and at most one per reclaim call — the
            // refill GC a pass provokes can itself burn more cycles than
            // the interval, which would re-arm the gate inside this very
            // loop and never exit. The loop re-enters GC after the pass,
            // so no LUN is left needy.
            if self.cfg.wear_spread_limit == 0 || wear_done || self.gc_cycles < self.next_wear_check
            {
                break;
            }
            wear_done = true;
            let mut migrated = false;
            for lun in 0..self.cfg.luns {
                if let Some(block) = self.map.wear_victim(lun, self.cfg.wear_spread_limit) {
                    self.migrate_block(lun, block);
                    migrated = true;
                }
            }
            self.next_wear_check = self.gc_cycles + WEAR_CHECK_INTERVAL_GC;
            if !migrated {
                break;
            }
        }
    }

    /// Allocates the physical page for `lpn`, running the program-failure
    /// gauntlet: when the failure model dooms the chosen page, the program
    /// is still queued (the die only reports the failure after tPROG), the
    /// block is retired and evacuated, and the allocation retried
    /// elsewhere.
    fn allocate_programmable(&mut self, lpn: u64, buf: u64) -> Ppn {
        for _ in 0..4 {
            let ppn = self.map.allocate_for_write(lpn);
            if !self.bad.program_fails(ppn) {
                return ppn;
            }
            self.queue_io(IoKind::Program, ppn, buf);
            // The data never landed: unmap before retiring the block so the
            // evacuation does not relocate a garbage page.
            self.map.invalidate(lpn);
            self.retire_after_failure(ppn.lun, ppn.block);
            self.reclaim_space();
        }
        panic!("four consecutive program failures for lpn {lpn}");
    }

    /// Retires a block after a grown program failure and evacuates its
    /// still-valid pages. Relocation programs are not failure-checked:
    /// failure detection is modeled on host-visible programs only, and a
    /// first failure retires the whole block anyway.
    fn retire_after_failure(&mut self, lun: u32, block: u32) {
        self.retire(lun, block);
        let moves = self.map.block_moves(lun, block);
        self.relocate(&moves, None);
    }

    /// Wear-leveling migration: relocates the cold data of `(lun, block)`
    /// onto the **most-worn** open block of the best relocation LUN, then
    /// erases (or retires) the victim. Cold data must land on worn blocks —
    /// the normal least-worn allocation would put it straight back on young
    /// blocks and re-nominate the same victim forever.
    fn migrate_block(&mut self, lun: u32, block: u32) {
        let moves = self.map.block_moves(lun, block);
        let target = self.map.best_relocation_lun(lun);
        self.map.open_worn_block(target);
        self.relocate(&moves, Some(target));
        self.erase_or_retire(lun, block);
        self.wear_migrations += 1;
    }

    /// Relocates a list of valid pages: queues a read of each and a program
    /// at a fresh location — on `target` when pinned (wear migration), else
    /// on whichever LUN has the most room (cross-LUN relocation avoids GC
    /// livelock).
    fn relocate(&mut self, moves: &[(u64, Ppn)], target: Option<u32>) {
        let page = self.cfg.geometry.page_size;
        for (i, &(lpn, old)) in moves.iter().enumerate() {
            let buf = GC_BUF + (i % 4) as u64 * page as u64;
            self.queue_io(IoKind::Read, old, buf);
            let lun = target.unwrap_or_else(|| self.map.best_relocation_lun(old.lun));
            let new = self.map.allocate_on_lun(lpn, lun);
            self.queue_io(IoKind::Program, new, buf);
        }
    }

    /// Erases `block` and returns it to the free pool — unless its
    /// endurance is exhausted, in which case it is retired instead. The
    /// erase operation itself always runs: the controller only learns of
    /// the failure from the die's status after tBERS.
    fn erase_or_retire(&mut self, lun: u32, block: u32) {
        let victim = Ppn {
            lun,
            block,
            page: 0,
        };
        self.queue_io(IoKind::Erase, victim, 0);
        if self
            .bad
            .erase_fails(lun, block, self.map.erase_count(lun, block))
        {
            self.retire(lun, block);
        } else {
            self.map.finish_gc(victim);
        }
    }

    /// Retires a block (grown failure), counting it.
    fn retire(&mut self, lun: u32, block: u32) {
        self.map.retire_block(lun, block);
        self.blocks_retired += 1;
    }

    /// Absorbs a host write of `lpn` into the write-back cache: flushes the
    /// evicted dirty page first (its slot's DRAM is about to be reused),
    /// then stages the new data into the slot once that flush has
    /// programmed it. Flash is untouched unless the eviction forces a
    /// program.
    fn cache_write(&mut self, lpn: u64) {
        let (slot, evicted) = self.cache.touch_write(lpn);
        if let Some(ev) = evicted.filter(|ev| ev.dirty) {
            self.flush_slot(ev.lpn, ev.slot);
        }
        let buf = CACHE_BUF + slot as u64 * self.cfg.geometry.page_size as u64;
        self.jobs.push_back(JobStep::Stage { lpn, buf });
    }

    /// Programs flash from cache slot `slot`, which holds `lpn`'s data
    /// (dirty eviction or read-coherence flush).
    fn flush_slot(&mut self, lpn: u64, slot: u32) {
        self.reclaim_space();
        let buf = CACHE_BUF + slot as u64 * self.cfg.geometry.page_size as u64;
        let ppn = self.allocate_programmable(lpn, buf);
        self.queue_io(IoKind::Program, ppn, buf);
    }

    /// Read coherence: if `lpn` is dirty in the write-back cache, programs
    /// flash from the cached copy first, so the flash read that follows
    /// returns current data.
    fn flush_for_read(&mut self, lpn: u64) {
        if let Some(slot) = self.cache.flush_for_read(lpn) {
            self.flush_slot(lpn, slot);
        }
    }

    /// Flushes every dirty cached page to flash (end-of-job / shutdown
    /// flush), leaving the cache clean. Tests that inspect the flash array
    /// after a cached write job call this first.
    pub fn flush_cache(&mut self, sys: &mut System, controller: &mut dyn Controller) {
        for (lpn, slot) in self.cache.drain_dirty() {
            self.flush_slot(lpn, slot);
        }
        self.drive(sys, controller, &mut FioClient::new(NO_HOST_IO, 0), None);
        self.export_counters(&mut sys.trace);
        sys.publish_counters();
    }

    /// Charges one admitted operation's energy.
    fn account_io(&mut self, req: &IoRequest) {
        self.energy.charge(&self.cfg.energy, req);
    }

    /// One full GC cycle on `lun`: relocate valid pages, erase the victim,
    /// between start and end trace marks (foreground GC: host I/O waits).
    fn collect_block(&mut self, lun: u32) {
        let cycle = self.gc_cycles;
        self.jobs
            .push_back(JobStep::Gc(TraceKind::GcStart, lun, cycle));
        let plan = self
            .map
            .plan_gc(lun)
            .expect("GC needed but no full block to collect");
        self.relocate(&plan.moves, None);
        self.erase_or_retire(lun, plan.victim.block);
        self.jobs
            .push_back(JobStep::Gc(TraceKind::GcEnd, lun, cycle));
        self.gc_cycles += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fio::IoPattern;
    use crate::map::BlockState;
    use babol::factory::coro_controller;
    use babol::runtime::RuntimeConfig;
    use babol::system::Event;
    use babol_channel::Channel;
    use babol_flash::array::ContentMode;
    use babol_flash::lun::LunConfig;
    use babol_flash::{Lun, PackageProfile};
    use babol_sim::{CostModel, Cpu, Freq};
    use babol_ufsm::EmitConfig;

    fn tiny_stack_with(
        luns: u32,
        preloaded: bool,
        tweak: impl FnOnce(&mut SsdConfig),
    ) -> (System, babol::runtime::SoftController, Ssd) {
        let l = (0..luns)
            .map(|i| {
                Lun::new(LunConfig {
                    profile: PackageProfile::test_tiny(),
                    content: if preloaded {
                        ContentMode::Preloaded { seed: 7 }
                    } else {
                        ContentMode::Pristine
                    },
                    seed: i as u64 + 1,
                    inject_errors: false,
                    require_init: false,
                })
            })
            .collect();
        let sys = System::new(
            Channel::new(l),
            EmitConfig::nv_ddr2(200),
            Cpu::new(Freq::from_ghz(1), CostModel::coroutine()),
        );
        let layout = PackageProfile::test_tiny().layout();
        let ctrl = coro_controller(layout, RuntimeConfig::coroutine());
        let mut cfg = SsdConfig::tiny(luns);
        tweak(&mut cfg);
        let mut ssd = Ssd::new(cfg);
        if preloaded {
            ssd.preload();
        }
        (sys, ctrl, ssd)
    }

    /// Runs the queued FTL jobs with no host I/O.
    fn run_jobs(ssd: &mut Ssd, sys: &mut System, ctrl: &mut dyn Controller) {
        ssd.drive(sys, ctrl, &mut FioClient::new(NO_HOST_IO, 0), None);
    }

    fn tiny_stack(luns: u32, preloaded: bool) -> (System, babol::runtime::SoftController, Ssd) {
        tiny_stack_with(luns, preloaded, |_| {})
    }

    /// Reads the physical page backing `lpn` straight out of the flash
    /// array and asserts it holds the LPN-keyed host pattern.
    fn assert_lpn_pattern(sys: &System, ssd: &Ssd, lpn: u64) {
        let ppn = ssd
            .map()
            .translate(lpn)
            .unwrap_or_else(|| panic!("lpn {lpn} unmapped"));
        let page = sys
            .channel
            .lun(ppn.lun)
            .array()
            .read_page(babol_onfi::addr::RowAddr {
                lun: ppn.lun,
                block: ppn.block,
                page: ppn.page,
            })
            .unwrap();
        let expect: Vec<u8> = (0..512)
            .map(|i| (lpn as u8).wrapping_add(i as u8))
            .collect();
        assert_eq!(&page[..512], &expect[..], "lpn {lpn} data corrupt");
    }

    /// Wraps a controller and refuses every other submission (whenever a
    /// refusal is safe, i.e. the wrapped controller still has work that
    /// will produce events), exercising the driver's staged-retry path and
    /// the job queue's retry of a refused internal op.
    struct RefusingController<C> {
        inner: C,
        flip: bool,
        refused: u64,
        /// Refusals of internal (GC, flush, erase) requests.
        refused_internal: u64,
    }

    impl<C> RefusingController<C> {
        fn new(inner: C) -> Self {
            RefusingController {
                inner,
                flip: false,
                refused: 0,
                refused_internal: 0,
            }
        }
    }

    impl<C: Controller> Controller for RefusingController<C> {
        fn name(&self) -> &'static str {
            "refusing"
        }

        fn submit(&mut self, sys: &mut System, req: IoRequest) -> bool {
            if self.inner.in_flight() > 0 {
                self.flip = !self.flip;
                if self.flip {
                    self.refused += 1;
                    self.refused_internal += u64::from(req.id >= INTERNAL_ID);
                    return false;
                }
            }
            self.inner.submit(sys, req)
        }

        fn on_event(&mut self, sys: &mut System, ev: Event) {
            self.inner.on_event(sys, ev);
        }

        fn take_completions(&mut self, out: &mut Vec<(IoRequest, SimTime)>) {
            self.inner.take_completions(out);
        }

        fn in_flight(&self) -> usize {
            self.inner.in_flight()
        }
    }

    #[test]
    fn sequential_read_job_completes() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack(2, true);
        let wl = FioWorkload {
            pattern: IoPattern::SequentialRead,
            total_ios: 32,
            queue_depth: 4,
            seed: 1,
        };
        let r = ssd.run(&mut sys, &mut ctrl, wl);
        assert_eq!(r.ios, 32);
        assert_eq!(r.bytes, 32 * 512);
        assert!(r.bandwidth_mbps() > 0.0);
        assert!(r.mean_latency <= r.p99_latency);
        assert!(r.p50_latency <= r.p95_latency);
        assert!(r.p95_latency <= r.p99_latency);
        assert_eq!(r.gc_cycles, 0);
    }

    #[test]
    fn random_read_is_deterministic() {
        let run = |seed| {
            let (mut sys, mut ctrl, mut ssd) = tiny_stack(2, true);
            let wl = FioWorkload {
                pattern: IoPattern::RandomRead,
                total_ios: 40,
                queue_depth: 4,
                seed,
            };
            ssd.run(&mut sys, &mut ctrl, wl).elapsed
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn write_job_programs_flash_and_reads_back() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack(2, false);
        let wl = FioWorkload {
            pattern: IoPattern::SequentialWrite,
            total_ios: 8,
            queue_depth: 1,
            seed: 1,
        };
        let r = ssd.run(&mut sys, &mut ctrl, wl);
        assert_eq!(r.ios, 8);
        // The data really landed: check lpn 3's pattern in the array.
        let ppn = ssd.map().translate(3).unwrap();
        let page = sys
            .channel
            .lun(ppn.lun)
            .array()
            .read_page(babol_onfi::addr::RowAddr {
                lun: ppn.lun,
                block: ppn.block,
                page: ppn.page,
            })
            .unwrap();
        let expect: Vec<u8> = (0..512).map(|i| 3u8.wrapping_add(i as u8)).collect();
        assert_eq!(&page[..512], &expect[..]);
    }

    #[test]
    fn sustained_random_writes_trigger_gc_and_survive() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack(2, false);
        // 96 logical pages, 128 physical: write 3x the logical space.
        let wl = FioWorkload {
            pattern: IoPattern::RandomWrite,
            total_ios: 280,
            queue_depth: 1,
            seed: 3,
        };
        let r = ssd.run(&mut sys, &mut ctrl, wl);
        assert_eq!(r.ios, 280);
        assert!(r.gc_cycles > 0, "expected GC under write pressure");
        // Every LUN still has spare blocks (GC kept up).
        for lun in 0..2 {
            assert!(ssd.map().free_blocks(lun) >= 1, "lun {lun}");
        }
    }

    /// With metrics enabled, the driver loop produces a gapless frame
    /// series whose per-window sums conserve every run total.
    #[test]
    fn metrics_frames_conserve_run_totals() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack(2, false);
        let window = SimDuration::from_micros(50);
        ssd.enable_metrics(window);
        let wl = FioWorkload {
            pattern: IoPattern::RandomWrite,
            total_ios: 280,
            queue_depth: 4,
            seed: 3,
        };
        let r = ssd.run(&mut sys, &mut ctrl, wl);
        assert!(r.gc_cycles > 0, "workload must reach GC");
        let hub = ssd.metrics();
        let frames = hub.frames();
        assert_eq!(
            frames.len() as u64,
            hub.end_ps() / window.as_picos() + 1,
            "frame series must tile [0, end] exactly"
        );
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.index, i as u64, "frames must be index-contiguous");
        }
        assert_eq!(frames.iter().map(|f| f.ops).sum::<u64>(), r.ios);
        assert_eq!(hub.merged_latency().count(), r.ios);
        // The device started empty, so the per-window counter deltas sum
        // to its totals.
        let mut sum = FtlCounters::default();
        for f in frames {
            sum += f.snap.counters;
        }
        assert_eq!(sum, ssd.counters());
        // Gauges: the last frame closed with the final device state.
        let last = frames.last().unwrap();
        assert_eq!(
            last.snap.free_blocks,
            (0..2).map(|l| ssd.map().free_blocks(l)).sum::<u32>()
        );
    }

    /// Metrics collection is deterministic: same seed, same frames, byte
    /// for byte through the exporter.
    #[test]
    fn metrics_export_is_deterministic() {
        let run = || {
            let (mut sys, mut ctrl, mut ssd) = tiny_stack(2, false);
            ssd.enable_metrics(SimDuration::from_micros(50));
            let wl = FioWorkload {
                pattern: IoPattern::RandomWrite,
                total_ios: 120,
                queue_depth: 4,
                seed: 9,
            };
            ssd.run(&mut sys, &mut ctrl, wl);
            babol_trace::MetricsSeries::from_hub(ssd.metrics()).to_json_lines(&[])
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.starts_with("{\"schema\":\"babol-metrics-v1\""));
    }

    /// With tracing enabled, the FTL layer publishes its GC count and
    /// brackets each GC cycle with start/end events.
    #[test]
    fn tracing_accounts_gc_cycles() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack(2, false);
        // Large ring so this GC-heavy job's full event stream is retained
        // (the default capacity drops the oldest events under this load).
        sys.trace = babol_trace::Tracer::with_capacity(1 << 21);
        let wl = FioWorkload {
            pattern: IoPattern::RandomWrite,
            total_ios: 280,
            queue_depth: 1,
            seed: 3,
        };
        let r = ssd.run(&mut sys, &mut ctrl, wl);
        assert_eq!(sys.trace.counter_total(Counter::GcCycles), r.gc_cycles);
        let gc_starts = sys
            .trace
            .events()
            .filter(|e| e.kind == TraceKind::GcStart)
            .count() as u64;
        let gc_ends = sys
            .trace
            .events()
            .filter(|e| e.kind == TraceKind::GcEnd)
            .count() as u64;
        assert_eq!(gc_starts, r.gc_cycles);
        assert_eq!(gc_ends, r.gc_cycles);
    }

    /// The described data path's core claim: a steady-state fio job makes
    /// **no** raw page buffer. Every page it moves (FTL pattern, register,
    /// data-out, DRAM extent, stored page) is a `PageData` description,
    /// so the GC-heavy write job leaves the system's raw-buffer count
    /// flat.
    #[test]
    fn steady_state_fio_does_no_page_buffer_allocations() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack(2, false);
        // Warm-up: overwrite the logical space until GC has run.
        let warm = FioWorkload {
            pattern: IoPattern::RandomWrite,
            total_ios: 160,
            queue_depth: 1,
            seed: 3,
        };
        let w = ssd.run(&mut sys, &mut ctrl, warm);
        assert!(w.gc_cycles > 0, "warm-up must reach GC");
        let warmed = sys.pool().stats();
        // Steady state: a GC-heavy follow-up job on the warmed system.
        let steady = FioWorkload {
            pattern: IoPattern::RandomWrite,
            total_ios: 120,
            queue_depth: 1,
            seed: 4,
        };
        let r = ssd.run(&mut sys, &mut ctrl, steady);
        assert!(r.gc_cycles > 0, "steady state must include GC");
        assert_eq!(
            sys.pool().stats(),
            warmed,
            "a described write path makes no raw buffer"
        );
    }

    /// Every FTL production counter in a trace footer equals the SSD's own
    /// count. Regression for two drifts between the tracer and the report:
    /// read-coherence flushes counted as cache hits in the report only, and
    /// factory-bad blocks retired before any tracer existed.
    #[test]
    fn trace_footer_counters_match_the_ssd() {
        for bad in [BadBlockConfig::default(), one_factory_bad_block()] {
            let (mut sys, mut ctrl, mut ssd) = tiny_stack_with(2, false, |c| {
                c.cache_pages = 8;
                c.bad = bad;
            });
            sys.trace = babol_trace::Tracer::with_capacity(1 << 16);
            // Write every logical page once; the last eight stay dirty in
            // the cache, and the random reads flush the ones they hit.
            let mut job = FioWorkload {
                pattern: IoPattern::SequentialWrite,
                total_ios: ssd.map().logical_pages(),
                queue_depth: 2,
                seed: 1,
            };
            ssd.run(&mut sys, &mut ctrl, job);
            job.pattern = IoPattern::RandomRead;
            job.total_ios = 64;
            let r = ssd.run(&mut sys, &mut ctrl, job);
            assert!(ssd.cache().flushes() > 0, "the reads must flush the cache");
            let footer = babol_trace::parse_json_lines(&sys.trace.to_json_lines()).unwrap();
            let e = ssd.energy();
            for (c, want) in [
                (Counter::CacheHits, r.cache_hits),
                (Counter::CacheMisses, r.cache_misses),
                (Counter::CacheDirtyEvicts, r.cache_dirty_evicts),
                (Counter::WearMigrations, r.wear_migrations),
                (Counter::BlocksRetired, r.blocks_retired),
                (Counter::EnergyReadPj, e.read_pj),
                (Counter::EnergyProgramPj, e.program_pj),
                (Counter::EnergyErasePj, e.erase_pj),
                (Counter::EnergyTransferPj, e.transfer_pj),
            ] {
                assert_eq!(footer.ftl_counter(c), want, "{} ({bad:?})", c.name());
            }
            assert_eq!(sys.trace.counter_total(Counter::GcCycles), r.gc_cycles);
        }
    }

    /// A controller that accepts every request and then spins: its timer
    /// reschedules itself forever and nothing ever completes.
    struct Spinner;

    impl Controller for Spinner {
        fn name(&self) -> &'static str {
            "spinner"
        }
        fn submit(&mut self, sys: &mut System, _r: IoRequest) -> bool {
            sys.schedule_in(SimDuration::from_micros(10), Event::Timer { tag: 0 });
            true
        }
        fn on_event(&mut self, sys: &mut System, _e: Event) {
            sys.schedule_in(SimDuration::from_micros(10), Event::Timer { tag: 0 });
        }
        fn take_completions(&mut self, _o: &mut Vec<(IoRequest, SimTime)>) {}
        fn in_flight(&self) -> usize {
            1
        }
    }

    /// The FTL driver steps through the shared core, so a live-lock trips
    /// the envelope watchdog with the shared diagnostic and the FTL's
    /// headline.
    #[test]
    fn spinning_controller_trips_the_shared_stall_report() {
        let (mut sys, _, mut ssd) = tiny_stack(2, true);
        let wl = FioWorkload {
            pattern: IoPattern::RandomRead,
            total_ios: 4,
            queue_depth: 1,
            seed: 1,
        };
        let run = std::panic::AssertUnwindSafe(|| ssd.run(&mut sys, &mut Spinner, wl));
        let err = std::panic::catch_unwind(run).expect_err("the watchdog must fire");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        for want in [
            "stall watchdog (V074 EnvelopeExceeded)",
            "0 GC cycles",
            "controller spinner: 1 in flight",
            "events pending",
            "cpu busy until",
        ] {
            assert!(msg.contains(want), "{want:?} missing from:\n{msg}");
        }
    }

    /// Reading a page no one wrote is host misuse; it panics loudly, and
    /// the message names the cause.
    #[test]
    #[should_panic(expected = "unmapped")]
    fn reading_a_never_written_page_panics() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack(2, false);
        let wl = FioWorkload {
            pattern: IoPattern::RandomRead,
            total_ios: 4,
            queue_depth: 1,
            seed: 1,
        };
        ssd.run(&mut sys, &mut ctrl, wl);
    }

    #[test]
    fn queue_depth_improves_bandwidth() {
        let bw = |qd| {
            let (mut sys, mut ctrl, mut ssd) = tiny_stack(4, true);
            let wl = FioWorkload {
                pattern: IoPattern::RandomRead,
                total_ios: 64,
                queue_depth: qd,
                seed: 2,
            };
            ssd.run(&mut sys, &mut ctrl, wl).bandwidth_mbps()
        };
        assert!(bw(8) > bw(1) * 1.5, "qd8 {} vs qd1 {}", bw(8), bw(1));
    }

    /// Bugfix regression: a write the controller refuses must be retained
    /// and resubmitted verbatim, never re-prepared. The old retry loop
    /// re-prepared on the next pass — redrawing the RNG, re-charging FTL
    /// cycles, and leaving the first draw's L2P entry pointing at a page
    /// that was never programmed. A read of that page returns erased 0xFF
    /// garbage, which this test catches by checking every mapped LPN's data
    /// against the host pattern. The GC-heavy and cached inputs also have
    /// internal ops (relocations, erases, flushes) refused, which the job
    /// queue must retry without losing or reordering a step. The cached
    /// input reads after writing: a cached write job submits only internal
    /// ops, one at a time, so only reads that flush a dirty page overlap
    /// an internal op with host I/O the wrapper can refuse it behind.
    #[test]
    fn refused_submissions_do_not_corrupt_the_map() {
        use IoPattern::{RandomRead, RandomWrite, SequentialWrite};
        // (jobs, cache pages, whether internal ops must be refused)
        let cases = [
            (&[(RandomWrite, 48)][..], 0, false),
            (&[(RandomWrite, 192)], 0, true),
            (&[(SequentialWrite, 192), (RandomRead, 64)], 8, true),
        ];
        for (jobs, cache_pages, internal) in cases {
            let (mut sys, ctrl, mut ssd) =
                tiny_stack_with(2, false, |c| c.cache_pages = cache_pages);
            let mut ctrl = RefusingController::new(ctrl);
            let case = format!("{jobs:?}, {cache_pages} cache pages");
            let mut last = None;
            for &(pattern, total_ios) in jobs {
                let wl = FioWorkload {
                    pattern,
                    total_ios,
                    queue_depth: 4,
                    seed: 11,
                };
                let r = ssd.run(&mut sys, &mut ctrl, wl);
                assert_eq!(r.ios, total_ios, "{case}");
                last = Some(r);
            }
            ssd.flush_cache(&mut sys, &mut ctrl);
            assert!(
                ctrl.refused > 0,
                "the wrapper never refused — test is inert ({case})"
            );
            if internal {
                let r = last.unwrap();
                assert!(ctrl.refused_internal > 0, "no internal op refused ({case})");
                assert!(
                    r.gc_cycles + r.cache_dirty_evicts > 0,
                    "no GC or dirty eviction ({case})"
                );
            }
            for lpn in 0..ssd.map().logical_pages() {
                if ssd.map().translate(lpn).is_some() {
                    assert_lpn_pattern(&sys, &ssd, lpn);
                }
            }
        }
    }

    /// Bugfix regression: two in-flight writes must never share a DRAM
    /// staging page. Eight LUNs complete writes out of issue order, and
    /// slots numbered `id % queue_depth` then handed a new write the page
    /// of an older one whose program had not read it yet, so some mapped
    /// pages held another LPN's data.
    #[test]
    fn out_of_order_completions_never_share_a_staging_page() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack(8, false);
        let wl = FioWorkload {
            pattern: IoPattern::RandomWrite,
            total_ios: 2 * ssd.map().logical_pages(),
            queue_depth: 32,
            seed: 3,
        };
        ssd.run(&mut sys, &mut ctrl, wl);
        for lpn in 0..ssd.map().logical_pages() {
            if ssd.map().translate(lpn).is_some() {
                assert_lpn_pattern(&sys, &ssd, lpn);
            }
        }
    }

    /// Bugfix regression, RNG half: admission refusals must not consume
    /// workload randomness. The same seed must touch the same logical pages
    /// whether or not the controller pushes back.
    #[test]
    fn refused_submissions_do_not_redraw_the_rng() {
        let mapped = |refusing: bool| {
            let (mut sys, ctrl, mut ssd) = tiny_stack(2, false);
            let wl = FioWorkload {
                pattern: IoPattern::RandomWrite,
                total_ios: 48,
                queue_depth: 4,
                seed: 11,
            };
            let refused = if refusing {
                let mut ctrl = RefusingController::new(ctrl);
                ssd.run(&mut sys, &mut ctrl, wl);
                ctrl.refused
            } else {
                let mut ctrl = ctrl;
                ssd.run(&mut sys, &mut ctrl, wl);
                0
            };
            let set: Vec<u64> = (0..ssd.map().logical_pages())
                .filter(|&l| ssd.map().translate(l).is_some())
                .collect();
            (set, refused)
        };
        let (plain, _) = mapped(false);
        let (refused_set, refused) = mapped(true);
        assert!(refused > 0, "the wrapper never refused — test is inert");
        assert_eq!(plain, refused_set, "refusals changed the LPN stream");
    }

    /// Bugfix regression: the GC sweep must iterate to a fixpoint. Shape
    /// the map so that LUN 1 needs GC and its victim's relocations (onto
    /// LUN 0, the best target) push LUN 0 — already checked, in index
    /// order — back under the threshold. The old single-pass sweep
    /// returned with LUN 0 short; the fixpoint sweep collects LUN 0's
    /// fully-invalid block on the second pass.
    #[test]
    fn gc_sweep_reaches_a_fixpoint_across_luns() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack(2, false);
        // LUN 1: seven blocks consumed, one free → needy. Keep two valid
        // pages in each Full block so collecting it forces relocations.
        for i in 0..56 {
            ssd.map.allocate_on_lun(i, 1);
        }
        for b in 0..6u64 {
            for i in (b * 8 + 2)..(b * 8 + 8) {
                ssd.map.invalidate(i);
            }
        }
        // LUN 0: six blocks consumed (active sealed full), two free →
        // healthy, but the first relocated page landing here opens a block
        // and drops it to one. Its first block is fully invalid (lpns
        // 56..64 rewritten), so the second sweep pass has a zero-move
        // victim to erase.
        for i in 56..96 {
            ssd.map.allocate_on_lun(i, 0);
        }
        for i in 56..64 {
            ssd.map.allocate_on_lun(i, 0);
        }
        assert!(ssd.map.needs_gc(1));
        assert!(!ssd.map.needs_gc(0));
        // Planning the write queues the GC job without stepping the
        // simulation; the drive loop then runs it.
        let popped = sys.events_popped();
        let _ = ssd.prepare_write(&mut sys, 90, HOST_BUF, 0);
        assert_eq!(sys.events_popped(), popped, "planning stepped the queue");
        assert!(!ssd.jobs.is_empty(), "the GC job is not queued");
        run_jobs(&mut ssd, &mut sys, &mut ctrl);
        assert!(ssd.jobs.is_empty());
        assert!(ssd.gc_cycles >= 2, "expected both LUNs collected");
        for lun in 0..2 {
            assert!(
                !ssd.map.needs_gc(lun),
                "single-pass sweep left LUN {lun} under the GC threshold"
            );
        }
    }

    #[test]
    fn cached_writes_absorb_rewrites_without_touching_flash() {
        // Cache covers the whole logical space: the second pass over the
        // device is pure hits and flash never sees a single program.
        let (mut sys, mut ctrl, mut ssd) = tiny_stack_with(2, false, |c| c.cache_pages = 96);
        let wl = FioWorkload {
            pattern: IoPattern::SequentialWrite,
            total_ios: 192,
            queue_depth: 4,
            seed: 1,
        };
        let r = ssd.run(&mut sys, &mut ctrl, wl);
        assert_eq!(r.ios, 192);
        assert_eq!(r.cache_misses, 96, "first pass populates");
        assert_eq!(r.cache_hits, 96, "second pass must hit");
        assert_eq!(r.cache_dirty_evicts, 0);
        assert_eq!(r.gc_cycles, 0);
        assert_eq!(r.energy_pj, 0, "no flash op may run while absorbed");
        assert_eq!(ssd.cache().dirty_len(), 96);
        // The end-of-job flush programs everything; data must be readable.
        ssd.flush_cache(&mut sys, &mut ctrl);
        assert_eq!(ssd.cache().dirty_len(), 0);
        assert!(ssd.energy().program_pj > 0);
        for lpn in 0..96 {
            assert_lpn_pattern(&sys, &ssd, lpn);
        }
    }

    #[test]
    fn small_cache_evicts_dirty_pages_to_flash() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack_with(2, false, |c| c.cache_pages = 4);
        let wl = FioWorkload {
            pattern: IoPattern::SequentialWrite,
            total_ios: 12,
            queue_depth: 2,
            seed: 1,
        };
        let r = ssd.run(&mut sys, &mut ctrl, wl);
        assert_eq!(r.cache_misses, 12);
        assert_eq!(r.cache_dirty_evicts, 8, "12 distinct pages through 4 slots");
        // The eight evicted pages were programmed; data intact after a
        // final flush of the remaining four.
        ssd.flush_cache(&mut sys, &mut ctrl);
        for lpn in 0..12 {
            assert_lpn_pattern(&sys, &ssd, lpn);
        }
    }

    /// The trace jsonl footer of a cached, GC-free write job, byte for
    /// byte: the FTL production counters the export carries, in footer
    /// order, after the end-of-job flush.
    #[test]
    fn cached_write_footer_is_pinned() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack_with(2, false, |c| c.cache_pages = 4);
        sys.trace = babol_trace::Tracer::enabled();
        let wl = FioWorkload {
            pattern: IoPattern::SequentialWrite,
            total_ios: 12,
            queue_depth: 2,
            seed: 1,
        };
        ssd.run(&mut sys, &mut ctrl, wl);
        ssd.flush_cache(&mut sys, &mut ctrl);
        assert_eq!(
            sys.trace.to_json_lines().lines().last().unwrap(),
            r#"{"footer":true,"events":672,"dropped":0,"shard":0,"cache_misses":12,"cache_dirty_evicts":8,"energy_program_pj":198000000,"energy_transfer_pj":1800000,"envelope_worst_op_ps":252480000,"watchdog_budget_ps":8079360000}"#
        );
    }

    #[test]
    fn cached_write_jobs_are_deterministic() {
        let run = |seed| {
            let (mut sys, mut ctrl, mut ssd) = tiny_stack_with(2, false, |c| {
                c.cache_pages = 8;
            });
            let wl = FioWorkload {
                pattern: IoPattern::RandomWrite,
                total_ios: 120,
                queue_depth: 2,
                seed,
            };
            let r = ssd.run(&mut sys, &mut ctrl, wl);
            (r.elapsed, r.cache_hits, r.cache_dirty_evicts, r.energy_pj)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    /// Wear leveling, dynamic half: a cold full block pinning the wear
    /// spread open is migrated as part of space reclamation, and the
    /// migrated data stays mapped.
    #[test]
    fn wear_migration_relocates_cold_blocks() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack_with(2, false, |c| c.wear_spread_limit = 2);
        // Cold block on LUN 0 (map-shaped; the block is physically blank,
        // which is fine — the migration's reads and programs are real ops
        // and pristine pages read as erased bytes).
        for i in 0..8 {
            ssd.map.allocate_on_lun(i, 0);
        }
        let cold = ssd.map.translate(0).unwrap();
        // Hot churn: rewrite lpns 8..16 for 21 rounds; the min-wear
        // allocator spreads the erases over the 7 circulating blocks, so
        // each reaches ~3 erases while the cold block stays at 0.
        for i in 8..16 {
            ssd.map.allocate_on_lun(i, 0);
        }
        for _ in 0..21 {
            for i in 8..16 {
                ssd.map.allocate_on_lun(i, 0);
            }
            let plan = ssd.map.plan_gc(0).unwrap();
            assert!(plan.moves.is_empty());
            assert_ne!(plan.victim.block, cold.block);
            ssd.map.finish_gc(plan.victim);
        }
        assert!(
            ssd.map.wear_spread(0) > 2,
            "churn failed to open the spread"
        );
        // Any write now reclaims space; the cold block must migrate.
        let _ = ssd.prepare_write(&mut sys, 40, HOST_BUF, 0);
        run_jobs(&mut ssd, &mut sys, &mut ctrl);
        assert!(ssd.wear_migrations() >= 1, "no migration ran");
        assert_eq!(ssd.map.wear_victim(0, 2), None, "spread still open");
        let moved = ssd.map.translate(0).unwrap();
        assert_ne!(moved, cold, "cold data did not move");
    }

    /// A factory map marking exactly one of the 16 blocks of a 2-LUN tiny
    /// device bad, so the over-provisioning check stays satisfied.
    fn one_factory_bad_block() -> BadBlockConfig {
        (0..512u64)
            .map(|seed| BadBlockConfig {
                seed,
                factory_bad_per_mille: 30,
                ..Default::default()
            })
            .find(|&cfg| {
                let m = BadBlockModel::new(cfg);
                (0..2u32)
                    .flat_map(|l| (0..8u32).map(move |b| (l, b)))
                    .filter(|&(l, b)| m.factory_bad(l, b))
                    .count()
                    == 1
            })
            .expect("some seed marks exactly one block")
    }

    #[test]
    fn factory_bad_blocks_are_retired_at_build() {
        let (mut sys, mut ctrl, mut ssd) =
            tiny_stack_with(2, false, |c| c.bad = one_factory_bad_block());
        assert_eq!(ssd.blocks_retired(), 1);
        assert_eq!(ssd.map().usable_pages(), 120);
        // The device still runs a full write job around the dead block.
        let wl = FioWorkload {
            pattern: IoPattern::SequentialWrite,
            total_ios: 64,
            queue_depth: 2,
            seed: 3,
        };
        let r = ssd.run(&mut sys, &mut ctrl, wl);
        assert_eq!(r.ios, 64);
        assert_eq!(r.blocks_retired, 1, "no grown failures configured");
        for lpn in 0..64 {
            assert_lpn_pattern(&sys, &ssd, lpn);
        }
    }

    /// Erase wear-out: a block at the end of its endurance is retired when
    /// its erase fails, instead of returning to the free pool.
    #[test]
    fn exhausted_blocks_retire_on_erase_failure() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack_with(2, false, |c| {
            c.bad = BadBlockConfig {
                seed: 1,
                endurance_base: 1,
                ..Default::default()
            };
        });
        // First GC cycle on a fully-invalid block: erase 0 → survives.
        for i in 0..8 {
            ssd.map.allocate_on_lun(i, 0);
        }
        for i in 0..8 {
            ssd.map.allocate_on_lun(i, 1);
        }
        let victim = ssd.map.plan_gc(0).unwrap().victim;
        ssd.erase_or_retire(0, victim.block);
        run_jobs(&mut ssd, &mut sys, &mut ctrl);
        assert_eq!(ssd.blocks_retired(), 0);
        assert_eq!(ssd.map.erase_count(0, victim.block), 1);
        // Second erase of the same block: endurance 1 exhausted → retired.
        ssd.erase_or_retire(0, victim.block);
        run_jobs(&mut ssd, &mut sys, &mut ctrl);
        assert_eq!(ssd.blocks_retired(), 1);
        assert_eq!(ssd.map.block_state(0, victim.block), BlockState::Retired);
    }

    /// Program failure: the doomed program still costs tPROG, the block is
    /// retired with its live data evacuated, and the write lands elsewhere.
    #[test]
    fn program_failure_retires_block_and_write_survives() {
        // Find a seed dooming the very first allocation target — LUN 0,
        // block 0, page 0 — and nothing else, so exactly one block
        // retires. The rate is 1/128 (one expected failure per device),
        // which maximizes the chance of the exactly-one outcome.
        let rate = 7_812;
        let seed = (0..16_384u64)
            .find(|&s| {
                let m = BadBlockModel::new(BadBlockConfig {
                    seed: s,
                    program_fail_per_million: rate,
                    ..Default::default()
                });
                m.program_fails(Ppn {
                    lun: 0,
                    block: 0,
                    page: 0,
                }) && (0..2u32)
                    .flat_map(|l| (0..8u32).flat_map(move |b| (0..8u32).map(move |p| (l, b, p))))
                    .filter(|&(l, b, p)| {
                        m.program_fails(Ppn {
                            lun: l,
                            block: b,
                            page: p,
                        })
                    })
                    .count()
                    == 1
            })
            .expect("some seed dooms exactly page (0,0,0)");
        let (mut sys, mut ctrl, mut ssd) = tiny_stack_with(2, false, |c| {
            c.bad = BadBlockConfig {
                seed,
                program_fail_per_million: rate,
                ..Default::default()
            };
        });
        let wl = FioWorkload {
            pattern: IoPattern::SequentialWrite,
            total_ios: 16,
            queue_depth: 1,
            seed: 2,
        };
        let r = ssd.run(&mut sys, &mut ctrl, wl);
        assert_eq!(r.ios, 16);
        assert_eq!(r.blocks_retired, 1, "the doomed block must retire");
        assert_eq!(ssd.map().block_state(0, 0), BlockState::Retired);
        for lpn in 0..16 {
            let ppn = ssd.map().translate(lpn).unwrap();
            assert!(
                !(ppn.lun == 0 && ppn.block == 0),
                "lpn {lpn} still mapped to the retired block"
            );
            assert_lpn_pattern(&sys, &ssd, lpn);
        }
    }

    /// Energy accounting: a pure read job charges exactly one array read
    /// plus one bus transfer per I/O, visible in the report, the tally,
    /// and (when tracing) the trace counters.
    #[test]
    fn energy_accounts_every_flash_op() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack(2, true);
        sys.trace = babol_trace::Tracer::with_capacity(1 << 16);
        let wl = FioWorkload {
            pattern: IoPattern::RandomRead,
            total_ios: 40,
            queue_depth: 4,
            seed: 5,
        };
        let r = ssd.run(&mut sys, &mut ctrl, wl);
        let m = EnergyCosts::nand();
        assert_eq!(ssd.energy().read_pj, 40 * m.read_pj);
        assert_eq!(ssd.energy().program_pj, 0);
        assert_eq!(ssd.energy().erase_pj, 0);
        assert_eq!(ssd.energy().transfer_pj, 40 * m.transfer_pj(512));
        assert_eq!(r.energy_pj, ssd.energy().total_pj());
        assert!(r.joules() > 0.0);
        assert_eq!(
            sys.trace.counter_total(Counter::EnergyReadPj),
            ssd.energy().read_pj
        );
        assert_eq!(
            sys.trace.counter_total(Counter::EnergyTransferPj),
            ssd.energy().transfer_pj
        );
    }

    /// A GC-heavy write job charges all four energy classes, and the trace
    /// counters mirror the tally exactly.
    #[test]
    fn gc_write_job_charges_all_energy_classes() {
        let (mut sys, mut ctrl, mut ssd) = tiny_stack(2, false);
        sys.trace = babol_trace::Tracer::with_capacity(1 << 21);
        let wl = FioWorkload {
            pattern: IoPattern::RandomWrite,
            total_ios: 280,
            queue_depth: 1,
            seed: 3,
        };
        let r = ssd.run(&mut sys, &mut ctrl, wl);
        assert!(r.gc_cycles > 0);
        let e = ssd.energy();
        assert!(e.read_pj > 0, "GC relocations read");
        assert!(e.program_pj > 0);
        assert!(e.erase_pj > 0);
        assert!(e.transfer_pj > 0);
        for (c, want) in [
            (Counter::EnergyReadPj, e.read_pj),
            (Counter::EnergyProgramPj, e.program_pj),
            (Counter::EnergyErasePj, e.erase_pj),
            (Counter::EnergyTransferPj, e.transfer_pj),
        ] {
            assert_eq!(sys.trace.counter_total(c), want, "{}", c.name());
        }
    }
}
