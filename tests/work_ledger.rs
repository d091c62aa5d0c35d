//! The work ledger: exact work counts of small versions of the four
//! benchmark workloads, untraced, from construction to shutdown, plus the
//! scheduler and μFSM counts of a traced run's tracer (tasks spawned,
//! scheduler picks, the transactions it publishes from the channel,
//! instructions dispatched).
//!
//! Host-time figures move with the machine; these counts do not. A change
//! that makes the simulator do more or less work per host I/O shows up
//! here as an exact difference, and a change that claims to keep the
//! simulated results must keep every count but the one it targets. A PR
//! that moves a count updates its pin and says why in CHANGES.md.

#[path = "common/devices.rs"]
mod devices;

use babol_trace::{Counter, Tracer};
use devices::{ModelStats, Spec, READ_16CH, READ_1CH, WRITE_CACHED_16CH, WRITE_GC_1CH};

/// What one device did, summed over every job it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ledger {
    /// Host I/Os completed.
    ios: u64,
    /// Events popped from the event queues.
    events: u64,
    /// Barrier rounds (0 on one channel).
    rounds: u64,
    /// READ STATUS bytes the LUNs served.
    status_polls: u64,
    /// Bus segments (one per transaction), bus phases and bus-busy
    /// picoseconds.
    segments: u64,
    phases: u64,
    bus_busy_ps: u64,
    /// Processor cycles charged.
    cpu_cycles: u64,
    /// Array operations completed.
    reads: u64,
    programs: u64,
    erases: u64,
}

impl Ledger {
    fn add_model(&mut self, m: &ModelStats) {
        self.segments += m.channel.segments;
        self.phases += m.channel.phases;
        self.bus_busy_ps += m.channel.busy.as_picos();
        self.cpu_cycles += m.cpu_cycles;
        for l in &m.luns {
            self.status_polls += l.status_polls;
            self.reads += l.reads;
            self.programs += l.programs;
            self.erases += l.erases;
        }
    }
}

fn zero() -> Ledger {
    Ledger {
        ios: 0,
        events: 0,
        rounds: 0,
        status_polls: 0,
        segments: 0,
        phases: 0,
        bus_busy_ps: 0,
        cpu_cycles: 0,
        reads: 0,
        programs: 0,
        erases: 0,
    }
}

fn one_channel(spec: &Spec) -> Ledger {
    let (mut sys, mut ctrl, mut ssd) = spec.one_channel(false, false);
    let mut ledger = zero();
    for job in spec.jobs() {
        ledger.ios += ssd.run(&mut sys, &mut ctrl, job).ios;
    }
    ledger.events = sys.events_popped();
    ledger.add_model(&ModelStats::of(&sys));
    ledger
}

fn multi_channel(spec: &Spec) -> Ledger {
    let mut ssd = spec.multi(2, false);
    let mut ledger = zero();
    for job in spec.jobs() {
        let r = ssd.run(&job);
        ledger.ios += r.fio.ios;
        ledger.rounds += r.rounds;
    }
    for d in ssd.finish() {
        ledger.events += d.events;
        ledger.add_model(&ModelStats {
            channel: d.channel,
            luns: d.luns,
            cpu_cycles: d.cpu_cycles,
        });
    }
    ledger
}

fn check(spec: &Spec, got: Ledger, want: Ledger) {
    let per_io = |n: u64| n as f64 / got.ios as f64;
    println!(
        "work-ledger {}: {got:?}\n  per I/O: {:.1} events, {:.1} txns, {:.1} status polls, {:.0} cycles",
        spec.name,
        per_io(got.events),
        per_io(got.segments),
        per_io(got.status_polls),
        per_io(got.cpu_cycles),
    );
    assert_eq!(got, want, "{}: the work ledger moved", spec.name);
}

#[test]
fn read_1ch_ledger() {
    check(
        &READ_1CH,
        one_channel(&READ_1CH),
        Ledger {
            ios: 464,
            events: 2806,
            rounds: 0,
            status_polls: 524,
            segments: 1452,
            phases: 12708,
            bus_busy_ps: 46794408000,
            cpu_cycles: 9129800,
            reads: 464,
            programs: 0,
            erases: 0,
        },
    );
}

#[test]
fn write_gc_1ch_ledger() {
    check(
        &WRITE_GC_1CH,
        one_channel(&WRITE_GC_1CH),
        Ledger {
            ios: 918,
            events: 39589,
            rounds: 0,
            status_polls: 70291,
            segments: 74954,
            phases: 285160,
            bus_busy_ps: 348213529000,
            cpu_cycles: 554852650,
            reads: 1213,
            programs: 2131,
            erases: 106,
        },
    );
}

#[test]
fn read_16ch_ledger() {
    check(
        &READ_16CH,
        multi_channel(&READ_16CH),
        Ledger {
            ios: 416,
            events: 6528,
            rounds: 745,
            status_polls: 1468,
            segments: 2300,
            phases: 14388,
            bus_busy_ps: 42131288000,
            cpu_cycles: 15721800,
            reads: 416,
            programs: 0,
            erases: 0,
        },
    );
}

#[test]
fn write_cached_16ch_ledger() {
    check(
        &WRITE_CACHED_16CH,
        multi_channel(&WRITE_CACHED_16CH),
        Ledger {
            ios: 3372,
            events: 74130,
            rounds: 211,
            status_polls: 188189,
            segments: 199478,
            phases: 748923,
            bus_busy_ps: 871313095000,
            cpu_cycles: 1481090750,
            reads: 2699,
            programs: 5648,
            erases: 243,
        },
    );
}

/// Scheduler and μFSM work of a traced run, read from its tracer (an
/// untraced run skips the counter writes); the transactions are the
/// channel's segments as `System::publish_counters` publishes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SchedLedger {
    tasks_spawned: u64,
    sched_picks: u64,
    txns_issued: u64,
    instrs_dispatched: u64,
}

impl SchedLedger {
    fn add(&mut self, trace: &Tracer) {
        self.tasks_spawned += trace.counter_total(Counter::TasksSpawned);
        self.sched_picks += trace.counter_total(Counter::SchedPicks);
        self.txns_issued += trace.counter_total(Counter::TxnsIssued);
        self.instrs_dispatched += trace.counter_total(Counter::InstrsDispatched);
    }
}

fn one_channel_traced(spec: &Spec, rtos: bool) -> SchedLedger {
    let (mut sys, mut ctrl, mut ssd) = spec.one_channel(true, rtos);
    for job in spec.jobs() {
        ssd.run(&mut sys, &mut ctrl, job);
    }
    let mut ledger = SchedLedger::default();
    ledger.add(&sys.trace);
    ledger
}

fn multi_channel_traced(spec: &Spec) -> SchedLedger {
    let mut ssd = spec.multi(2, true);
    for job in spec.jobs() {
        ssd.run(&job);
    }
    let mut ledger = SchedLedger::default();
    for d in ssd.finish() {
        ledger.add(&d.tracer);
    }
    ledger
}

fn check_sched(name: &str, got: SchedLedger, want: SchedLedger) {
    println!("sched-ledger {name}: {got:?}");
    assert_eq!(got, want, "{name}: the scheduler ledger moved");
}

#[test]
fn read_1ch_sched_ledger() {
    check_sched(
        READ_1CH.name,
        one_channel_traced(&READ_1CH, false),
        SchedLedger {
            tasks_spawned: 464,
            sched_picks: 1976,
            txns_issued: 1452,
            instrs_dispatched: 2440,
        },
    );
}

#[test]
fn write_gc_1ch_sched_ledger() {
    check_sched(
        WRITE_GC_1CH.name,
        one_channel_traced(&WRITE_GC_1CH, false),
        SchedLedger {
            tasks_spawned: 3450,
            sched_picks: 145245,
            txns_issued: 74954,
            instrs_dispatched: 150720,
        },
    );
}

#[test]
fn write_gc_1ch_rtos_sched_ledger() {
    check_sched(
        "write_gc_1ch (RTOS)",
        one_channel_traced(&WRITE_GC_1CH, true),
        SchedLedger {
            tasks_spawned: 3450,
            sched_picks: 1388401,
            txns_issued: 696532,
            instrs_dispatched: 1393876,
        },
    );
}

#[test]
fn read_16ch_sched_ledger() {
    check_sched(
        READ_16CH.name,
        multi_channel_traced(&READ_16CH),
        SchedLedger {
            tasks_spawned: 416,
            sched_picks: 3768,
            txns_issued: 2300,
            instrs_dispatched: 4184,
        },
    );
}

#[test]
fn write_cached_16ch_sched_ledger() {
    check_sched(
        WRITE_CACHED_16CH.name,
        multi_channel_traced(&WRITE_CACHED_16CH),
        SchedLedger {
            tasks_spawned: 8590,
            sched_picks: 387667,
            txns_issued: 199478,
            instrs_dispatched: 401662,
        },
    );
}
