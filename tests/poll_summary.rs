//! Differential tests of status-wait summarization (`babol::runtime`).
//!
//! With tracing off, the runtime skips a lone poller's busy READ STATUS
//! polls and credits their work in one step; with the tracer on, every
//! poll plays. The traced run is the oracle: every simulated result of the
//! untraced run must equal it — reports, the completion log, the channel's
//! and every LUN's counters, processor cycles and transactions issued —
//! while the untraced run pops fewer events.

#[path = "common/devices.rs"]
mod devices;

use babol::factory::{coro_controller, rtos_controller};
use babol::runtime::{RuntimeConfig, SoftController};
use babol::system::{Controller, Event, IoKind, IoRequest, StepLimit};
use babol::System;
use babol_channel::Channel;
use babol_flash::lun::{BusyKind, LunConfig};
use babol_flash::{Lun, PackageProfile};
use babol_sim::{CostModel, Cpu, Freq, SimDuration, SimTime, Watchdog};
use babol_testkit::prop::{range, select, Property};
use babol_testkit::prop_assert_eq;
use babol_trace::{TraceKind, Tracer};
use babol_ufsm::EmitConfig;
use devices::{ModelStats, WRITE_CACHED_16CH, WRITE_GC_1CH};

/// Forwards to a controller and logs every completion it hands out.
struct Recorder<C> {
    inner: C,
    log: Vec<(u64, SimTime)>,
}

impl<C: Controller> Controller for Recorder<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn submit(&mut self, sys: &mut System, req: IoRequest) -> bool {
        self.inner.submit(sys, req)
    }
    fn on_event(&mut self, sys: &mut System, ev: Event) {
        self.inner.on_event(sys, ev);
    }
    fn take_completions(&mut self, out: &mut Vec<(IoRequest, SimTime)>) {
        let seen = out.len();
        self.inner.take_completions(out);
        self.log
            .extend(out[seen..].iter().map(|&(req, at)| (req.id, at)));
    }
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
}

/// Everything a run simulated, and the events it popped to do so.
#[derive(Debug, PartialEq)]
struct Simulated {
    reports: Vec<String>,
    log: Vec<(u64, SimTime)>,
    model: Vec<ModelStats>,
    now: SimTime,
}

fn same(summarized: &(Simulated, u64), played: &(Simulated, u64), what: &str) {
    assert_eq!(
        summarized.0, played.0,
        "{what}: summarizing changed a result"
    );
    assert!(
        summarized.1 < played.1,
        "{what}: nothing was summarized ({} events vs {})",
        summarized.1,
        played.1
    );
}

/// The GC-heavy write workload through `Ssd::run`, with the metrics hub
/// on at `metrics` windows if given (its frames join the reports).
fn gc_writes(rtos: bool, traced: bool, metrics: Option<SimDuration>) -> (Simulated, u64) {
    let (mut sys, ctrl, mut ssd) = WRITE_GC_1CH.one_channel(traced, rtos);
    if let Some(window) = metrics {
        ssd.enable_metrics(window);
    }
    let mut rec = Recorder {
        inner: ctrl,
        log: Vec::new(),
    };
    let mut reports = Vec::new();
    for job in WRITE_GC_1CH.jobs() {
        reports.push(format!("{:?}", ssd.run(&mut sys, &mut rec, job)));
    }
    if metrics.is_some() {
        reports.push(format!("{:?}", ssd.metrics()));
    }
    assert!(ssd.gc_cycles > 0, "the workload must run GC");
    let sim = Simulated {
        reports,
        log: rec.log,
        model: vec![ModelStats::of(&sys)],
        now: sys.now,
    };
    (sim, sys.events_popped())
}

#[test]
fn coroutine_gc_writes_match_the_played_polls() {
    same(
        &gc_writes(false, false, None),
        &gc_writes(false, true, None),
        "coroutine",
    );
}

#[test]
fn rtos_gc_writes_match_the_played_polls() {
    same(
        &gc_writes(true, false, None),
        &gc_writes(true, true, None),
        "RTOS",
    );
}

/// With the metrics hub on, host-level summaries stay within the next
/// metrics window, and every frame equals the played run's; windows
/// shorter and longer than a summary both hold.
#[test]
fn metrics_frames_match_the_played_polls() {
    for us in [50, 1_000] {
        let window = Some(SimDuration::from_micros(us));
        same(
            &gc_writes(false, false, window),
            &gc_writes(false, true, window),
            &format!("{us} us metrics windows"),
        );
    }
}

/// The cached write workload on a multi-channel device.
fn cached_multi(threads: usize, traced: bool) -> (Simulated, u64) {
    let mut ssd = WRITE_CACHED_16CH.multi(threads, traced);
    let mut reports = Vec::new();
    let mut log = Vec::new();
    for job in WRITE_CACHED_16CH.jobs() {
        let r = ssd.run(&job);
        reports.push(format!("{:?} in {} rounds", r.fio, r.rounds));
        log.extend(r.completion_log.iter().map(|&(at, _, id)| (id, at)));
    }
    let digests = ssd.finish();
    let events = digests.iter().map(|d| d.events).sum();
    let sim = Simulated {
        reports,
        log,
        now: digests.iter().map(|d| d.now).max().expect("a shard"),
        model: digests
            .into_iter()
            .map(|d| ModelStats {
                channel: d.channel,
                luns: d.luns,
                cpu_cycles: d.cpu_cycles,
            })
            .collect(),
    };
    (sim, events)
}

/// Shard GC jobs summarize; the result is the played one at every thread
/// count.
#[test]
fn cached_multi_channel_writes_match_the_played_polls_at_every_thread_count() {
    let played = cached_multi(1, true);
    for threads in [1, 2, 3, 8] {
        same(
            &cached_multi(threads, false),
            &played,
            &format!("{threads} threads"),
        );
    }
}

/// One boundary case: a one-LUN system runs an erase, two programs and a
/// read one at a time, with a further read submitted at `inject_us`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Case {
    rtos: bool,
    t_r_us: u64,
    t_prog_us: u64,
    t_bers_us: u64,
    backoff_ns: u64,
    /// When the first operation is submitted.
    start_ps: u64,
    /// Moves the deadline of the first array window of kind `kind` (an
    /// erase, a program or a read) onto one of its last busy status
    /// samples, plus `nudge` picoseconds (-1, 0 or 1): RDY lands just
    /// after, exactly on, or just before a sample edge.
    edge: Option<(usize, usize, i64)>,
    inject_us: u64,
}

impl Case {
    fn profile(&self) -> PackageProfile {
        PackageProfile {
            t_r: SimDuration::from_micros(self.t_r_us),
            t_prog: SimDuration::from_micros(self.t_prog_us),
            t_bers: SimDuration::from_micros(self.t_bers_us),
            ..PackageProfile::test_tiny()
        }
    }

    fn ops(&self) -> Vec<IoRequest> {
        let page = PackageProfile::test_tiny().geometry.page_size;
        let req = |id, kind, page_no| IoRequest {
            id,
            kind,
            lun: 0,
            block: 1,
            page: page_no,
            col: 0,
            len: if kind == IoKind::Erase { 0 } else { page },
            dram_addr: 0x1000 * id,
        };
        vec![
            req(1, IoKind::Erase, 0),
            req(2, IoKind::Program, 0),
            req(3, IoKind::Program, 1),
            req(4, IoKind::Read, 0),
            req(5, IoKind::Read, 1),
        ]
    }
}

/// What a boundary run simulated, each array window's kind and deadline
/// in order, and (traced runs) every transaction's completion time, which
/// for a status poll is when it sampled the status.
struct Boundary {
    sim: Simulated,
    events: u64,
    windows: Vec<(BusyKind, SimTime)>,
    samples: Vec<SimTime>,
}

fn boundary_run(case: &Case, profile: &PackageProfile, traced: bool) -> Boundary {
    let lun = Lun::new(LunConfig {
        profile: profile.clone(),
        ..LunConfig::test_default()
    });
    let (cost, mut cfg) = if case.rtos {
        (CostModel::rtos(), RuntimeConfig::rtos())
    } else {
        (CostModel::coroutine(), RuntimeConfig::coroutine())
    };
    cfg.poll_backoff = SimDuration::from_nanos(case.backoff_ns);
    let mut sys = System::new(
        Channel::new(vec![lun]),
        EmitConfig::nv_ddr2(200),
        Cpu::new(Freq::from_ghz(1), cost),
    );
    if traced {
        sys.trace = Tracer::with_capacity(1 << 16);
    }
    let ctrl: SoftController = if case.rtos {
        rtos_controller(profile.layout(), cfg)
    } else {
        coro_controller(profile.layout(), cfg)
    };
    let mut ctrl = Recorder {
        inner: ctrl,
        log: Vec::new(),
    };
    let mut ops = case.ops();
    let inject = ops.pop().expect("an injected read");
    let mut inject_at =
        Some(SimTime::from_picos(case.start_ps) + SimDuration::from_micros(case.inject_us));
    let total = ops.len() + 1;
    let mut next = ops.into_iter();
    sys.now = SimTime::from_picos(case.start_ps);
    let watchdog = Watchdog::disarmed();
    let headline = String::new;
    let mut windows: Vec<(BusyKind, SimTime)> = Vec::new();
    let mut done = Vec::new();
    let mut idle = true;
    loop {
        let seen = done.len();
        ctrl.take_completions(&mut done);
        idle |= done.len() > seen;
        if idle {
            if let Some(req) = next.next() {
                assert!(ctrl.submit(&mut sys, req));
                idle = false;
            }
        }
        if done.len() == total {
            break;
        }
        if let Some(at) = inject_at {
            if sys.next_event_time().is_none_or(|t| t >= at) {
                sys.now = sys.now.max(at);
                assert!(ctrl.submit(&mut sys, inject));
                inject_at = None;
                continue;
            }
        }
        sys.step(
            &mut ctrl,
            StepLimit::Watched(&watchdog, &headline, SimTime::FAR_FUTURE),
        );
        let lun = sys.channel.lun(0);
        if let (Some(kind), Some(until)) = (lun.busy_kind(), lun.busy_until()) {
            if windows.last().map(|w| w.1) != Some(until) {
                windows.push((kind, until));
            }
        }
    }
    let samples = sys
        .trace
        .events()
        .filter(|e| e.kind == TraceKind::TxnComplete)
        .map(|e| e.t)
        .collect();
    let sim = Simulated {
        reports: vec![format!("{:?}", ctrl.inner.errors)],
        log: ctrl.log,
        model: vec![ModelStats::of(&sys)],
        now: sys.now,
    };
    Boundary {
        sim,
        events: sys.events_popped(),
        windows,
        samples,
    }
}

/// The summarized run equals the played one across array times, poll
/// backoffs, start phases and both runtimes; with RDY just before, exactly
/// on and just after a status sample edge; and with a submission landing
/// anywhere, mid-summary included.
#[test]
fn status_wait_boundaries() {
    let gen = (
        (
            select(&[false, true]),
            range(5u64..120),
            range(40u64..500),
            range(100u64..1_200),
            range(600u64..30_000),
        ),
        (
            range(0u64..40_000_000),
            range(0usize..3),
            range(0usize..64),
            select(&[None, Some(-1i64), Some(0), Some(1)]),
            range(0u64..2_500),
        ),
    );
    Property::new("status_wait_boundaries").cases(256).run(
        gen,
        |&(
            (rtos, t_r_us, t_prog_us, t_bers_us, backoff_ns),
            (start_ps, op, sample, nudge, inject_us),
        )| {
            let case = Case {
                rtos,
                t_r_us,
                t_prog_us,
                t_bers_us,
                backoff_ns,
                start_ps,
                edge: nudge.map(|n| (op, sample, n)),
                inject_us,
            };
            let mut profile = case.profile();
            if let Some((kind, sample, nudge)) = case.edge {
                // Find where the window's busy samples fall when every poll
                // plays, then move its deadline onto one of the last few.
                // Earlier windows are of other kinds, so they do not move.
                let kind = match kind {
                    0 => BusyKind::Erase,
                    1 => BusyKind::Program,
                    _ => BusyKind::Read,
                };
                let probe = boundary_run(&case, &profile, true);
                let Some(i) = probe.windows.iter().position(|w| w.0 == kind) else {
                    return Ok(());
                };
                let deadline = probe.windows[i].1;
                let t = match kind {
                    BusyKind::Erase => &mut profile.t_bers,
                    BusyKind::Program => &mut profile.t_prog,
                    _ => &mut profile.t_r,
                };
                // Without jitter the window opened exactly `t` before its
                // deadline; the first sample after that is the latch's.
                let opened = deadline - *t;
                let busy: Vec<SimTime> = probe
                    .samples
                    .iter()
                    .copied()
                    .filter(|&s| s > opened && s < deadline)
                    .collect();
                if busy.len() < 3 {
                    return Ok(());
                }
                let target = busy[busy.len() - 1 - sample % (busy.len() - 1).min(6)];
                let moved = (target - opened).as_picos() as i64 + nudge;
                *t = SimDuration::from_picos(moved as u64);
            }
            let summarized = boundary_run(&case, &profile, false);
            let played = boundary_run(&case, &profile, true);
            prop_assert_eq!(&summarized.sim, &played.sim);
            if summarized.events > played.events {
                return Err(format!(
                    "summarizing popped more events: {} vs {}",
                    summarized.events, played.events
                ));
            }
            Ok(())
        },
    );
}
