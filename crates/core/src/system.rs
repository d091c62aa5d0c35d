//! The simulated system: channel + DRAM + CPU + event loop.
//!
//! Everything a storage controller touches lives in [`System`]; the
//! [`Engine`] drives a [`Controller`] implementation with a request stream
//! and collects a [`RunReport`]. Controllers schedule their own wake-ups as
//! [`Event`]s; the engine only moves time forward deterministically.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};

use babol_channel::Channel;
use babol_sim::{BufPool, Cpu, Dram, EventQueue, SimDuration, SimTime, Watchdog};
use babol_trace::{Component, Counter, Tracer};
use babol_ufsm::EmitConfig;

/// What an FTL-level request asks of the storage controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Read `len` bytes from (row, col) into DRAM at `dram_addr`.
    Read,
    /// Program `len` bytes from DRAM at `dram_addr` into (row, col).
    Program,
    /// Erase the block addressed by `row`.
    Erase,
}

/// One request injected "as if coming from the FTL" (paper §VI, Workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Monotonic request id.
    pub id: u64,
    /// Operation kind.
    pub kind: IoKind,
    /// Target LUN on the channel.
    pub lun: u32,
    /// Target block within the LUN.
    pub block: u32,
    /// Target page within the block.
    pub page: u32,
    /// Starting column (byte offset in the page).
    pub col: u32,
    /// Bytes to move.
    pub len: usize,
    /// DRAM buffer address.
    pub dram_addr: u64,
}

/// Events a controller can schedule for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A transaction previously issued on the channel finished.
    TxnDone {
        /// The ticket the controller attached to the transaction.
        ticket: u64,
    },
    /// A LUN's R/B# line rose (hardware controllers watch the pin).
    RbEdge {
        /// Which LUN.
        lun: u32,
    },
    /// The CPU reached a completion point (software effects now visible).
    CpuDone,
    /// Re-evaluate hardware issue (channel may be free / queue refilled).
    IssueCheck,
    /// Generic timer wake-up with a controller-defined tag.
    Timer {
        /// Controller-defined tag.
        tag: u64,
    },
}

/// The hardware a controller drives, plus the simulated clock and the event
/// queue it schedules itself on.
pub struct System {
    /// Current simulated time.
    pub now: SimTime,
    /// The flash channel with its LUNs.
    pub channel: Channel,
    /// The SSD DRAM staging buffer.
    pub dram: Dram,
    /// μFSM emission configuration (interface speed, timing, packetizer).
    pub emit: EmitConfig,
    /// The processor running controller software (hardware baselines carry
    /// a zero-cost model).
    pub cpu: Cpu,
    /// Observability sink shared by every layer. Disabled by default: a
    /// non-traced run pays one branch per record site and nothing else.
    pub trace: Tracer,
    events: EventQueue<Event>,
    /// Events popped since construction, counted with tracing on or off.
    popped: u64,
    /// Page-buffer pool shared by the whole data path (DRAM, channel, LUNs,
    /// runtime mailboxes). One pool per system keeps recycling global.
    pool: BufPool,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("now", &self.now)
            .field("pending_events", &self.events.len())
            .finish()
    }
}

impl System {
    /// Assembles a system. Every data-path layer shares one page-buffer
    /// pool, so buffers released by one layer are reused by the next.
    pub fn new(mut channel: Channel, emit: EmitConfig, cpu: Cpu) -> Self {
        // Debug builds gate every transaction behind the static verifier
        // (release builds compile both the hook and this call out).
        babol_verify::install_debug_hook();
        let pool = BufPool::default();
        let mut dram = Dram::new();
        dram.set_pool(&pool);
        channel.set_pool(&pool);
        System {
            now: SimTime::ZERO,
            channel,
            dram,
            emit,
            cpu,
            trace: Tracer::disabled(),
            events: EventQueue::new(),
            popped: 0,
            pool,
        }
    }

    /// The system-wide page-buffer pool.
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }

    /// Copies the pool's allocation counters into the tracer's counter set,
    /// making zero-alloc claims observable in exported trace reports.
    pub fn export_pool_stats(&mut self) {
        let s = self.pool.stats();
        self.trace
            .set_counter(Component::Sim, Counter::PoolAcquires, s.acquires);
        self.trace
            .set_counter(Component::Sim, Counter::PoolHeapAllocs, s.heap_allocs());
        self.trace
            .set_counter(Component::Sim, Counter::PoolHighWater, s.high_water);
    }

    /// Schedules `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.trace
            .count(Component::Sim, Counter::EventsScheduled, 1);
        self.events.push(at, event);
    }

    /// Schedules `event` after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: Event) {
        self.trace
            .count(Component::Sim, Counter::EventsScheduled, 1);
        self.events.push(self.now + delay, event);
    }

    /// Number of events pending in the queue — used by stall diagnostics
    /// to distinguish a live-lock (events flowing) from a drained queue.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Time of the earliest pending event without removing it. Drivers that
    /// advance a shard only up to a barrier horizon (the parallel DES
    /// coordinator) peek before popping.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Removes the earliest pending event without dispatching it. Driver
    /// loops step through [`System::step`] instead.
    pub fn pop_event(&mut self) -> Option<(SimTime, Event)> {
        let popped = self.events.pop();
        if popped.is_some() {
            self.popped += 1;
            self.trace.count(Component::Sim, Counter::EventsPopped, 1);
        }
        popped
    }

    /// Events popped since construction, whether or not tracing is on.
    pub fn events_popped(&self) -> u64 {
        self.popped
    }

    /// The event-stepping primitive every driver loop shares: pops the
    /// next event, advances `now` to it and dispatches it to `ctrl`.
    /// Returns `false`, touching nothing, when a [`StepLimit::Horizon`]
    /// has no event due before it.
    ///
    /// # Panics
    ///
    /// Under [`StepLimit::Watched`], when no event is pending (a deadlock)
    /// or when the watchdog's budget is spent at the popped event (a stall,
    /// rule V074). Both messages carry the same diagnostic.
    #[inline]
    pub fn step(&mut self, ctrl: &mut dyn Controller, limit: StepLimit<'_>) -> bool {
        if let StepLimit::Horizon(horizon) = limit {
            if self.events.peek_time().is_none_or(|t| t >= horizon) {
                return false;
            }
        }
        let Some((at, ev)) = self.pop_event() else {
            let what = "simulation deadlock: no events pending".to_string();
            panic!("{}", self.stall_report(ctrl, limit, what));
        };
        debug_assert!(at >= self.now, "simulated time ran backwards");
        self.now = at;
        if let StepLimit::Watched(watchdog, _) = limit {
            if watchdog.is_stalled(at) {
                let what = format!(
                    "stall watchdog (V074 EnvelopeExceeded): no completion for {:?}",
                    watchdog.stalled_for(at)
                );
                panic!("{}", self.stall_report(ctrl, limit, what));
            }
        }
        ctrl.on_event(self, ev);
        true
    }

    /// The one deadlock/stall diagnostic: `what` happened and the driver's
    /// headline, then in-flight and pending-event counts, the CPU and
    /// channel busy horizons and each component's last activity — the
    /// staleness pattern points at the layer that went quiet first.
    #[cold]
    fn stall_report(&self, ctrl: &dyn Controller, limit: StepLimit<'_>, what: String) -> String {
        let mut s = what;
        if let StepLimit::Watched(_, headline) = limit {
            let _ = write!(s, " ({})", headline());
        }
        let _ = writeln!(
            s,
            "\n  controller {}: {} in flight, {} events pending",
            ctrl.name(),
            ctrl.in_flight(),
            self.pending_events()
        );
        let _ = writeln!(
            s,
            "  cpu busy until {:?}, channel busy until {:?}",
            self.cpu.busy_until(),
            self.channel.busy_until()
        );
        for c in Component::ALL {
            if let Some(t) = self.trace.last_activity(c) {
                let _ = writeln!(s, "  last {} event at {t:?}", c.name());
            }
        }
        s
    }

    /// A stall watchdog with the budget `budget_of` derives from the static
    /// timing envelope (rule V074) of the channel's package. The budget and
    /// the worst single operation's envelope are recorded as `component`'s
    /// [`Counter::WatchdogBudgetPs`] and [`Counter::EnvelopeWorstOpPs`].
    pub fn envelope_watchdog(
        &mut self,
        component: Component,
        budget_of: fn(&babol_flash::PackageProfile) -> SimDuration,
    ) -> Watchdog {
        let profile = self.channel.lun(0).profile();
        let worst = babol_verify::envelope::worst_op_envelope(profile);
        let budget = budget_of(profile);
        self.trace
            .set_counter(component, Counter::EnvelopeWorstOpPs, worst.as_picos());
        self.trace
            .set_counter(component, Counter::WatchdogBudgetPs, budget.as_picos());
        Watchdog::new(budget)
    }
}

/// What bounds one [`System::step`].
#[derive(Clone, Copy)]
pub enum StepLimit<'a> {
    /// A parallel shard's barrier: stop before the first event at or past
    /// this time. An empty queue is idle, not deadlocked, and the
    /// coordinator owns the stall watchdog.
    Horizon(SimTime),
    /// A driver with work outstanding: an empty queue is a deadlock and a
    /// spent watchdog a stall. The closure renders the driver's one-line
    /// headline for the diagnostic.
    Watched(&'a Watchdog, &'a dyn Fn() -> String),
}

/// A storage controller: accepts FTL requests, drives the channel, reports
/// completions through [`Controller::take_completions`].
pub trait Controller {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;

    /// Offers a request. Returns `false` if the controller's admission
    /// queue is full (the engine will retry after the next event).
    fn submit(&mut self, sys: &mut System, req: IoRequest) -> bool;

    /// Handles one event previously scheduled on the system.
    fn on_event(&mut self, sys: &mut System, ev: Event);

    /// Drains requests that completed since the last call, with their
    /// completion times.
    fn take_completions(&mut self, out: &mut Vec<(IoRequest, SimTime)>);

    /// Requests admitted but not yet completed.
    fn in_flight(&self) -> usize;
}

/// Completion record with latency, produced by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request.
    pub req: IoRequest,
    /// When it was submitted to the controller.
    pub submitted: SimTime,
    /// When the controller reported it done.
    pub completed: SimTime,
}

/// Outcome of an engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Completions in completion order.
    pub completions: Vec<Completion>,
    /// Total simulated time from first submission to last completion.
    pub elapsed: SimDuration,
    /// Data bytes moved by completed requests.
    pub bytes: u64,
    /// CPU busy cycles charged during the run.
    pub cpu_cycles: u64,
    /// Channel bus busy time.
    pub bus_busy: SimDuration,
}

impl RunReport {
    /// Mean throughput in MB/s (10^6 bytes per second).
    pub fn throughput_mbps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.bytes as f64 / 1e6 / self.elapsed.as_secs_f64()
    }

    /// Mean request latency.
    pub fn mean_latency(&self) -> SimDuration {
        if self.completions.is_empty() {
            return SimDuration::ZERO;
        }
        let total: SimDuration = self
            .completions
            .iter()
            .map(|c| c.completed - c.submitted)
            .sum();
        total / self.completions.len() as u64
    }

    /// Latency at percentile `p` (0.0..=1.0).
    pub fn latency_percentile(&self, p: f64) -> SimDuration {
        if self.completions.is_empty() {
            return SimDuration::ZERO;
        }
        let mut lats: Vec<SimDuration> = self
            .completions
            .iter()
            .map(|c| c.completed - c.submitted)
            .collect();
        lats.sort();
        let idx = ((lats.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        lats[idx]
    }
}

/// Drives a controller with a request stream at a fixed per-LUN queue depth
/// until `total` requests complete.
pub struct Engine {
    queue_depth_per_lun: usize,
    /// A caller-pinned stall watchdog; `None` derives one from the static
    /// envelope of the target package at run start
    /// ([`Engine::envelope_watchdog_budget`]).
    pinned_watchdog: Option<Watchdog>,
}

impl Engine {
    /// Headroom multiplier on the worst single-operation envelope. A
    /// microbenchmark engine keeps at most one queue's worth of requests
    /// per LUN in flight, so even with every LUN serialized behind one
    /// channel, 64 worst-case operations of silence means live-lock, not a
    /// slow run.
    pub const WATCHDOG_HEADROOM_OPS: u64 = 64;

    /// The stall budget derived from the static timing envelope (rule
    /// V074): the envelope maximum of the worst well-formed single
    /// operation on `profile` — full raw-page program + read-back at SDR
    /// boot speed plus the worst-case array window — times
    /// [`WATCHDOG_HEADROOM_OPS`](Self::WATCHDOG_HEADROOM_OPS).
    pub fn envelope_watchdog_budget(profile: &babol_flash::PackageProfile) -> SimDuration {
        babol_verify::envelope::worst_op_envelope(profile) * Self::WATCHDOG_HEADROOM_OPS
    }

    /// An engine keeping up to `queue_depth_per_lun` requests outstanding on
    /// each LUN (the paper's microbenchmarks submit "a sequence of read
    /// operations through each channel controller": depth 1 per LUN keeps
    /// every LUN loaded without unbounded queueing).
    pub fn new(queue_depth_per_lun: usize) -> Self {
        assert!(queue_depth_per_lun >= 1);
        Engine {
            queue_depth_per_lun,
            pinned_watchdog: None,
        }
    }

    /// Overrides the envelope-derived stall watchdog budget; `None`
    /// disarms it.
    pub fn watchdog_budget(mut self, budget: Option<SimDuration>) -> Self {
        self.pinned_watchdog = Some(match budget {
            Some(b) => Watchdog::new(b),
            None => Watchdog::disarmed(),
        });
        self
    }

    /// Runs `requests` to completion against `controller` on `sys`.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks (no events pending while requests
    /// remain) or stalls past the watchdog budget — that is a controller
    /// bug, not a workload condition.
    pub fn run(
        &self,
        sys: &mut System,
        controller: &mut dyn Controller,
        requests: Vec<IoRequest>,
    ) -> RunReport {
        let start = sys.now;
        let mut per_lun_inflight: Vec<usize> = vec![0; sys.channel.lun_count() as usize];
        let mut pending: Vec<VecDeque<IoRequest>> =
            vec![VecDeque::new(); sys.channel.lun_count() as usize];
        let mut submit_times: std::collections::BTreeMap<u64, SimTime> =
            std::collections::BTreeMap::new();
        let total = requests.len();
        for r in requests {
            pending[r.lun as usize].push_back(r);
        }
        let mut completions = Vec::with_capacity(total);
        let mut scratch = Vec::new();
        let mut bytes = 0u64;
        let mut watchdog = self.pinned_watchdog.clone().unwrap_or_else(|| {
            sys.envelope_watchdog(Component::Sim, Self::envelope_watchdog_budget)
        });
        watchdog.arm_at(start);

        loop {
            // Collect completions first so freed slots can be refilled in
            // the same iteration.
            controller.take_completions(&mut scratch);
            for (req, at) in scratch.drain(..) {
                per_lun_inflight[req.lun as usize] -= 1;
                bytes += req.len as u64;
                watchdog.note_progress(at);
                completions.push(Completion {
                    req,
                    submitted: submit_times.remove(&req.id).unwrap_or(start),
                    completed: at,
                });
            }
            // Keep every LUN loaded up to the queue depth.
            for lun in 0..pending.len() {
                while per_lun_inflight[lun] < self.queue_depth_per_lun {
                    let Some(&req) = pending[lun].front() else {
                        break;
                    };
                    if !controller.submit(sys, req) {
                        break;
                    }
                    pending[lun].pop_front();
                    per_lun_inflight[lun] += 1;
                    submit_times.insert(req.id, sys.now);
                }
            }
            if completions.len() == total {
                break;
            }
            let headline = || {
                let mut s = format!("{} of {total} requests complete", completions.len());
                if let Some((id, at)) = submit_times.iter().min_by_key(|(_, &at)| at) {
                    let _ = write!(s, "; oldest pending op: id {id}, submitted at {at:?}");
                }
                s
            };
            sys.step(controller, StepLimit::Watched(&watchdog, &headline));
        }
        RunReport {
            elapsed: sys.now - start,
            bytes,
            cpu_cycles: sys.cpu.busy_cycles(),
            bus_busy: sys.channel.stats().busy,
            completions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use babol_flash::lun::LunConfig;
    use babol_flash::Lun;
    use babol_sim::{CostModel, Freq};

    fn tiny_system(n_luns: usize) -> System {
        let luns = (0..n_luns)
            .map(|i| {
                let mut cfg = LunConfig::test_default();
                cfg.seed = i as u64 + 1;
                Lun::new(cfg)
            })
            .collect();
        System::new(
            Channel::new(luns),
            EmitConfig::nv_ddr2(200),
            Cpu::new(Freq::from_ghz(1), CostModel::free()),
        )
    }

    /// A trivial controller that "completes" a request one microsecond after
    /// submission, via a Timer event.
    struct NullController {
        inflight: Vec<(IoRequest, SimTime)>,
        done: Vec<(IoRequest, SimTime)>,
    }

    impl Controller for NullController {
        fn name(&self) -> &'static str {
            "null"
        }
        fn submit(&mut self, sys: &mut System, req: IoRequest) -> bool {
            if self.inflight.len() >= 4 {
                return false;
            }
            let at = sys.now + SimDuration::from_micros(1);
            sys.schedule(at, Event::Timer { tag: req.id });
            self.inflight.push((req, at));
            true
        }
        fn on_event(&mut self, _sys: &mut System, ev: Event) {
            if let Event::Timer { tag } = ev {
                if let Some(pos) = self.inflight.iter().position(|(r, _)| r.id == tag) {
                    let (req, at) = self.inflight.remove(pos);
                    self.done.push((req, at));
                }
            }
        }
        fn take_completions(&mut self, out: &mut Vec<(IoRequest, SimTime)>) {
            out.append(&mut self.done);
        }
        fn in_flight(&self) -> usize {
            self.inflight.len()
        }
    }

    fn reqs(n: u64, lun: u32) -> Vec<IoRequest> {
        (0..n)
            .map(|i| IoRequest {
                id: i,
                kind: IoKind::Read,
                lun,
                block: 0,
                page: i as u32,
                col: 0,
                len: 512,
                dram_addr: i * 512,
            })
            .collect()
    }

    #[test]
    fn engine_runs_to_completion() {
        let mut sys = tiny_system(1);
        let mut ctrl = NullController {
            inflight: Vec::new(),
            done: Vec::new(),
        };
        let report = Engine::new(1).run(&mut sys, &mut ctrl, reqs(8, 0));
        assert_eq!(report.completions.len(), 8);
        assert_eq!(report.bytes, 8 * 512);
        // Depth 1: requests serialize, 1 us each.
        assert_eq!(report.elapsed, SimDuration::from_micros(8));
        assert_eq!(report.mean_latency(), SimDuration::from_micros(1));
    }

    #[test]
    fn queue_depth_overlaps_requests() {
        let mut sys = tiny_system(1);
        let mut ctrl = NullController {
            inflight: Vec::new(),
            done: Vec::new(),
        };
        let report = Engine::new(4).run(&mut sys, &mut ctrl, reqs(8, 0));
        // Four at a time, 1 us per wave: 2 us total.
        assert_eq!(report.elapsed, SimDuration::from_micros(2));
    }

    #[test]
    fn report_percentiles_are_ordered() {
        let mut sys = tiny_system(1);
        let mut ctrl = NullController {
            inflight: Vec::new(),
            done: Vec::new(),
        };
        let report = Engine::new(2).run(&mut sys, &mut ctrl, reqs(16, 0));
        assert!(report.latency_percentile(0.5) <= report.latency_percentile(0.99));
        assert!(report.throughput_mbps() > 0.0);
    }

    /// Events flow forever (a timer endlessly rescheduling itself) but no
    /// request ever completes: the deadlock panic can't see it, the stall
    /// watchdog must.
    #[test]
    #[should_panic(expected = "stall watchdog")]
    fn live_lock_trips_the_watchdog() {
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
        let mut sys = tiny_system(1);
        Engine::new(1)
            .watchdog_budget(Some(SimDuration::from_millis(1)))
            .run(&mut sys, &mut Spinner, reqs(1, 0));
    }

    /// Same live-lock, but with the *default* (envelope-derived) budget:
    /// an execution that exceeds the static envelope by the headroom
    /// factor trips the watchdog, and the panic names the rule.
    #[test]
    #[should_panic(expected = "V074")]
    fn envelope_budget_trips_and_names_v074() {
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
        let mut sys = tiny_system(1);
        // The derived budget is finite and far below a second on the tiny
        // profile — the spinner crosses it in bounded simulated time.
        let budget = Engine::envelope_watchdog_budget(&babol_flash::PackageProfile::test_tiny());
        assert!(budget < SimDuration::from_secs(1));
        Engine::new(1).run(&mut sys, &mut Spinner, reqs(1, 0));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_loud() {
        struct Sink;
        impl Controller for Sink {
            fn name(&self) -> &'static str {
                "sink"
            }
            fn submit(&mut self, _s: &mut System, _r: IoRequest) -> bool {
                true // swallow without ever completing
            }
            fn on_event(&mut self, _s: &mut System, _e: Event) {}
            fn take_completions(&mut self, _o: &mut Vec<(IoRequest, SimTime)>) {}
            fn in_flight(&self) -> usize {
                1
            }
        }
        let mut sys = tiny_system(1);
        Engine::new(1).run(&mut sys, &mut Sink, reqs(1, 0));
    }
}
