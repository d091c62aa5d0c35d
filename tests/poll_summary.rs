//! Differential tests of status-wait summarization (`babol::runtime`).
//!
//! With tracing off, the runtime skips whole periods of its pollers' busy
//! READ STATUS polls, alone or several on one channel, and credits their
//! work in one step; with the tracer on, every poll plays. The traced run
//! is the oracle: every simulated result of the untraced run must equal
//! it — reports, the completion log, the channel's and every LUN's
//! counters, processor cycles and transactions issued — while the
//! untraced run pops fewer events.

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

/// One joint boundary case: `luns` LUNs on one channel, each running an
/// erase, a program and a read one at a time, so two or three status waits
/// poll at once. LUN `i` starts `i · stagger_ns` after the first (0: their
/// polls collide on the processor and the bus) and its array times are
/// longer by `i · skew_us`, so the waits end apart or together. A read on
/// LUN 0 is submitted at `inject_us`, parked behind LUN 0's operation if
/// that is still running.
#[derive(Debug, Clone, Copy, PartialEq)]
struct JointCase {
    rtos: bool,
    luns: u32,
    t_bers_us: u64,
    t_prog_us: u64,
    skew_us: u64,
    backoff_ns: u64,
    stagger_ns: u64,
    /// Moves the first erase deadline of LUN `.0` onto one of its last busy
    /// status samples, plus `.2` picoseconds (-1, 0 or 1).
    edge: Option<(u32, usize, i64)>,
    inject_us: u64,
}

impl JointCase {
    fn profiles(&self) -> Vec<PackageProfile> {
        (0..self.luns as u64)
            .map(|i| PackageProfile {
                t_bers: SimDuration::from_micros(self.t_bers_us + i * self.skew_us),
                t_prog: SimDuration::from_micros(self.t_prog_us + i * self.skew_us),
                ..PackageProfile::test_tiny()
            })
            .collect()
    }

    /// Each LUN's operations in order, ids `10·lun + 1..=3`.
    fn ops(&self, lun: u32) -> Vec<IoRequest> {
        let page = PackageProfile::test_tiny().geometry.page_size;
        [IoKind::Erase, IoKind::Program, IoKind::Read]
            .into_iter()
            .enumerate()
            .map(|(i, kind)| IoRequest {
                id: 10 * u64::from(lun) + i as u64 + 1,
                kind,
                lun,
                block: 1,
                page: 0,
                col: 0,
                len: if kind == IoKind::Erase { 0 } else { page },
                dram_addr: 0x10_000 * u64::from(lun) + 0x1000 * i as u64,
            })
            .collect()
    }
}

/// What a joint run simulated, and (traced runs) each LUN's first erase
/// deadline and the times its transactions completed.
struct JointRun {
    sim: Simulated,
    events: u64,
    erase_deadlines: Vec<Option<SimTime>>,
    samples: Vec<Vec<SimTime>>,
}

fn joint_run(case: &JointCase, profiles: &[PackageProfile], traced: bool) -> JointRun {
    let luns = profiles
        .iter()
        .enumerate()
        .map(|(i, profile)| {
            Lun::new(LunConfig {
                profile: profile.clone(),
                seed: i as u64 + 1,
                ..LunConfig::test_default()
            })
        })
        .collect();
    let (cost, mut cfg) = if case.rtos {
        (CostModel::rtos(), RuntimeConfig::rtos())
    } else {
        (CostModel::coroutine(), RuntimeConfig::coroutine())
    };
    cfg.poll_backoff = SimDuration::from_nanos(case.backoff_ns);
    let mut sys = System::new(
        Channel::new(luns),
        EmitConfig::nv_ddr2(200),
        Cpu::new(Freq::from_ghz(1), cost),
    );
    if traced {
        sys.trace = Tracer::with_capacity(1 << 18);
    }
    let layout = profiles[0].layout();
    let mut ctrl = Recorder {
        inner: if case.rtos {
            rtos_controller(layout, cfg)
        } else {
            coro_controller(layout, cfg)
        },
        log: Vec::new(),
    };
    let start = SimTime::ZERO + SimDuration::from_micros(3);
    let mut chains: Vec<std::vec::IntoIter<IoRequest>> =
        (0..case.luns).map(|l| case.ops(l).into_iter()).collect();
    // Timed submissions, earliest first: each LUN's first operation and
    // the injected read.
    let mut timed: Vec<(SimTime, IoRequest)> = (0..case.luns)
        .map(|l| {
            let at = start + SimDuration::from_nanos(case.stagger_ns * u64::from(l));
            (at, chains[l as usize].next().expect("an operation"))
        })
        .collect();
    let mut inject = case.ops(0)[2];
    inject.id = 100;
    timed.push((start + SimDuration::from_micros(case.inject_us), inject));
    timed.sort_by_key(|&(at, req)| (at, req.id));
    timed.reverse();
    let total = 3 * case.luns as usize + 1;
    let watchdog = Watchdog::disarmed();
    let headline = String::new;
    let mut erase_deadlines = vec![None; case.luns as usize];
    let mut done = Vec::new();
    loop {
        let seen = done.len();
        ctrl.take_completions(&mut done);
        for &(req, _) in &done[seen..] {
            if let Some(next) = chains.get_mut(req.lun as usize).filter(|_| req.id != 100) {
                if let Some(next) = next.next() {
                    assert!(ctrl.submit(&mut sys, next));
                }
            }
        }
        if done.len() == total {
            break;
        }
        if let Some(&(at, req)) = timed.last() {
            if sys.next_event_time().is_none_or(|t| t >= at) {
                sys.now = sys.now.max(at);
                assert!(ctrl.submit(&mut sys, req));
                timed.pop();
                continue;
            }
        }
        sys.step(
            &mut ctrl,
            StepLimit::Watched(&watchdog, &headline, SimTime::FAR_FUTURE),
        );
        for (l, deadline) in erase_deadlines.iter_mut().enumerate() {
            let lun = sys.channel.lun(l as u32);
            if deadline.is_none() && lun.busy_kind() == Some(BusyKind::Erase) {
                *deadline = lun.busy_until();
            }
        }
    }
    let mut samples = vec![Vec::new(); case.luns as usize];
    for e in sys.trace.events() {
        if e.kind == TraceKind::TxnComplete {
            samples[e.lun as usize].push(e.t);
        }
    }
    let sim = Simulated {
        reports: vec![format!("{:?}", ctrl.inner.errors)],
        log: ctrl.log,
        model: vec![ModelStats::of(&sys)],
        now: sys.now,
    };
    JointRun {
        sim,
        events: sys.events_popped(),
        erase_deadlines,
        samples,
    }
}

/// Checks one joint case: moves the edge's deadline if it has one, then
/// holds the summarized run to the played one.
fn joint_case_holds(case: &JointCase) -> Result<(), String> {
    let mut profiles = case.profiles();
    if let Some((lun, sample, nudge)) = case.edge {
        // Where the erase's busy samples fall when every poll plays; its
        // deadline moves onto one of the last few. Nothing before the
        // deadline depends on it, so those samples stay where they were.
        let probe = joint_run(case, &profiles, true);
        let l = lun as usize;
        let Some(deadline) = probe.erase_deadlines[l] else {
            return Ok(());
        };
        let t_bers = &mut profiles[l].t_bers;
        let opened = deadline - *t_bers;
        let busy: Vec<SimTime> = probe.samples[l]
            .iter()
            .copied()
            .filter(|&s| s > opened && s < deadline)
            .collect();
        if busy.len() < 3 {
            return Ok(());
        }
        let target = busy[busy.len() - 1 - sample % (busy.len() - 1).min(6)];
        *t_bers = SimDuration::from_picos(((target - opened).as_picos() as i64 + nudge) as u64);
    }
    let summarized = joint_run(case, &profiles, false);
    let played = joint_run(case, &profiles, true);
    prop_assert_eq!(&summarized.sim, &played.sim);
    if summarized.events > played.events {
        return Err(format!(
            "summarizing popped more events: {} vs {}",
            summarized.events, played.events
        ));
    }
    Ok(())
}

/// Two and three LUNs polling on one channel: the summarized run equals
/// the played one for both runtimes, with colliding and disjoint polls,
/// RDY just before, exactly on and just after a status sample edge, and a
/// submission landing anywhere, mid-summary included.
#[test]
fn joint_status_wait_boundaries() {
    let gen = (
        (
            select(&[false, true]),
            select(&[2u32, 3]),
            range(100u64..1_200),
            range(40u64..500),
            range(0u64..60),
        ),
        (
            range(600u64..30_000),
            select(&[None, Some(0u64), Some(1), Some(2)]),
            range(0u64..40_000),
            (range(0u32..3), range(0usize..64)),
            (
                select(&[None, Some(-1i64), Some(0), Some(1)]),
                range(0u64..3_000),
            ),
        ),
    );
    Property::new("joint_status_wait_boundaries").cases(96).run(
        gen,
        |&(
            (rtos, luns, t_bers_us, t_prog_us, skew_us),
            (backoff_ns, collide, stagger, (edge_lun, sample), (nudge, inject_us)),
        )| {
            // `collide` picks a stagger that lines the first polls up: all
            // at once, or one or two polls' worth apart.
            let stagger_ns = collide.map_or(stagger, |c| c * 300);
            joint_case_holds(&JointCase {
                rtos,
                luns,
                t_bers_us,
                t_prog_us,
                skew_us,
                backoff_ns,
                stagger_ns,
                edge: nudge.map(|n| (edge_lun % luns, sample, n)),
                inject_us,
            })
        },
    );
}

/// Three identical LUNs started together, and three started a backoff
/// apart: pinned cases of colliding and disjoint polls that summarize
/// jointly (fewer events than the played run) and equal it.
#[test]
fn joint_summaries_of_colliding_and_disjoint_pollers() {
    for rtos in [false, true] {
        for stagger_ns in [0, 9_000] {
            let case = JointCase {
                rtos,
                luns: 3,
                t_bers_us: 1_000,
                t_prog_us: 400,
                skew_us: 0,
                backoff_ns: if rtos { 1_400 } else { 24_000 },
                stagger_ns,
                edge: None,
                inject_us: 700,
            };
            let profiles = case.profiles();
            let summarized = joint_run(&case, &profiles, false);
            let played = joint_run(&case, &profiles, true);
            assert_eq!(summarized.sim, played.sim, "{case:?}");
            assert!(
                2 * summarized.events < played.events,
                "{case:?}: {} events summarized vs {} played",
                summarized.events,
                played.events
            );
        }
    }
}

/// Erases `n` blocks of a one-LUN system one at a time.
fn erase_run(rtos: bool, n: u32, traced: bool) -> (Simulated, u64) {
    let profile = PackageProfile {
        t_bers: SimDuration::from_micros(600),
        ..PackageProfile::test_tiny()
    };
    let (cost, cfg) = if rtos {
        (CostModel::rtos(), RuntimeConfig::rtos())
    } else {
        (CostModel::coroutine(), RuntimeConfig::coroutine())
    };
    let mut sys = System::new(
        Channel::new(vec![Lun::new(LunConfig {
            profile: profile.clone(),
            ..LunConfig::test_default()
        })]),
        EmitConfig::nv_ddr2(200),
        Cpu::new(Freq::from_ghz(1), cost),
    );
    if traced {
        sys.trace = Tracer::with_capacity(1 << 16);
    }
    let mut ctrl = Recorder {
        inner: if rtos {
            rtos_controller(profile.layout(), cfg)
        } else {
            coro_controller(profile.layout(), cfg)
        },
        log: Vec::new(),
    };
    let watchdog = Watchdog::disarmed();
    let headline = String::new;
    let mut done = Vec::new();
    for block in 1..=n {
        let req = IoRequest {
            id: u64::from(block),
            kind: IoKind::Erase,
            lun: 0,
            block,
            page: 0,
            col: 0,
            len: 0,
            dram_addr: 0,
        };
        assert!(ctrl.submit(&mut sys, req));
        while ctrl.in_flight() > 0 {
            sys.step(
                &mut ctrl,
                StepLimit::Watched(&watchdog, &headline, SimTime::FAR_FUTURE),
            );
        }
        ctrl.take_completions(&mut done);
    }
    let sim = Simulated {
        reports: vec![format!("{:?}", ctrl.inner.errors)],
        log: ctrl.log,
        model: vec![ModelStats::of(&sys)],
        now: sys.now,
    };
    (sim, sys.events_popped())
}

/// A lone wait reuses the cycle remembered from an earlier wait with the
/// same leads: of two erases in turn on one LUN, the second skips its polls
/// from its first busy poll on, so it pops fewer events than the first,
/// which plays a second busy poll to measure the cycle.
#[test]
fn a_lone_wait_reuses_the_remembered_cycle() {
    for rtos in [false, true] {
        let erases = |n| {
            let summarized = erase_run(rtos, n, false);
            assert_eq!(
                summarized.0,
                erase_run(rtos, n, true).0,
                "rtos {rtos}, {n} erases"
            );
            summarized.1
        };
        let (one, two) = (erases(1), erases(2));
        assert!(
            two - one < one,
            "rtos {rtos}: the second wait popped {} events, the first {one}",
            two - one
        );
    }
}
