//! Per-layer metrics, from a traced run timed from outside the program.
//!
//! Each traced run also runs the untraced device on the same chunks,
//! interleaved, so the tracing overhead and the digest check compare
//! like with like. On sixteen channels a one-worker device joins the
//! interleave (the parallel speed-up), and a one-channel replica of one
//! shard carries the controller probe, because `MultiSsd` builds its
//! shards' controllers itself.

use babol_ftl::{FioWorkload, IoPattern, MultiSsd, ShardDigest};
use babol_testkit::digest::Digest;
use babol_trace::{Counter, Metric as TraceMetric, Tracer};

use crate::probe::{empty_span_ns, CallStats, RefClock, Span, Timed};
use crate::report::{guarded, median, ratio, Metric, Outcome};
use crate::workload::{Chunk, OneChannel, Runs, Workload, WORKERS};

/// Tracer counters the per-layer metrics read, summed over components.
const COUNTERS: [Counter; 15] = [
    Counter::EventsPopped,
    Counter::TasksSpawned,
    Counter::SchedPicks,
    Counter::TxnsIssued,
    Counter::InstrsDispatched,
    Counter::PhasesTransmitted,
    Counter::BytesToFlash,
    Counter::BytesFromFlash,
    Counter::GcCycles,
    Counter::EnergyReadPj,
    Counter::EnergyProgramPj,
    Counter::EnergyErasePj,
    Counter::CacheHits,
    Counter::CacheMisses,
    Counter::CacheDirtyEvicts,
];

/// A snapshot of one tracer's counters, bus time and pool allocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    counters: [u64; COUNTERS.len()],
    bus_ps: u64,
    heap_allocs: u64,
}

impl Tally {
    fn of(t: &Tracer, heap_allocs: u64) -> Tally {
        Tally {
            counters: COUNTERS.map(|c| t.counter_total(c)),
            bus_ps: t.metric(TraceMetric::BusHold).sum_ps() as u64,
            heap_allocs,
        }
    }

    fn get(&self, c: Counter) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|&k| k == c)
            .expect("counter not tallied");
        self.counters[i]
    }

    fn minus(&self, base: &Tally) -> Tally {
        Tally {
            counters: std::array::from_fn(|i| self.counters[i] - base.counters[i]),
            bus_ps: self.bus_ps - base.bus_ps,
            heap_allocs: self.heap_allocs - base.heap_allocs,
        }
    }

    fn plus(&self, other: &Tally) -> Tally {
        Tally {
            counters: std::array::from_fn(|i| self.counters[i] + other.counters[i]),
            bus_ps: self.bus_ps + other.bus_ps,
            heap_allocs: self.heap_allocs + other.heap_allocs,
        }
    }
}

fn shard_tallies(digests: &[ShardDigest]) -> Vec<Tally> {
    digests
        .iter()
        .map(|d| Tally::of(&d.tracer, d.pool.heap_allocs()))
        .collect()
}

/// Host time of a device's chunks (at reference-host speed), with what
/// they simulated.
#[derive(Debug, Default)]
struct Timing {
    /// Host µs per I/O, one sample per chunk.
    us_per_io: Vec<f64>,
    host_ns: f64,
    /// Unscaled wall-clock ns.
    wall_ns: f64,
    sim_ps: u64,
    ios: u64,
    rounds: u64,
    digest: Digest,
}

impl Timing {
    fn run(&mut self, clock: &mut RefClock, dev: &mut impl Runs, job: &FioWorkload) -> Chunk {
        let (chunk, t) = clock.time(|| dev.run(job));
        let ns = t.ref_s * 1e9;
        self.us_per_io.push(ratio(ns / 1e3, chunk.fio.ios as f64));
        self.host_ns += ns;
        self.wall_ns += t.wall_s * 1e9;
        self.sim_ps += chunk.fio.elapsed.as_picos();
        self.ios += chunk.fio.ios;
        self.rounds += chunk.rounds;
        self.digest.update(chunk.digest.to_le_bytes());
        chunk
    }
}

/// The controller probe's device: a traced one-channel device whose
/// controller sits behind [`Timed`].
struct Probe {
    dev: OneChannel<Timed<babol::runtime::SoftController>>,
    timing: Timing,
    base: Tally,
    cpu_cycles: u64,
}

impl Probe {
    fn new(w: &Workload, seed: u64) -> Probe {
        let mut dev = w.build_one(true, Timed::new);
        dev.warm_up(w, seed);
        dev.ctrl.stats = CallStats::default();
        let base = Tally::of(&dev.sys.trace, dev.sys.pool().stats().heap_allocs());
        let cpu_cycles = dev.sys.cpu.busy_cycles();
        Probe {
            dev,
            timing: Timing::default(),
            base,
            cpu_cycles,
        }
    }

    fn run(&mut self, clock: &mut RefClock, job: &FioWorkload) -> Chunk {
        self.timing.run(clock, &mut self.dev, job)
    }

    fn tally(&self) -> Tally {
        let sys = &self.dev.sys;
        Tally::of(&sys.trace, sys.pool().stats().heap_allocs()).minus(&self.base)
    }

    /// `core.*` and `ftl.self_us_per_io`: the controller's spans against
    /// the rest of `Ssd::run`, the FTL's self time.
    fn metrics(&self, out: &mut Vec<Metric>, empty_ns: f64) {
        let s = &self.dev.ctrl.stats;
        let ios = self.timing.ios as f64;
        let (spans, calls) = (s.ns() as f64, s.calls() as f64);
        // Spans are wall-clock; scale them like the chunks they ran in.
        let speed = ratio(self.timing.host_ns, self.timing.wall_ns);
        // Each probe costs about two empty spans: one inside its span,
        // one outside it (charged to the FTL side otherwise).
        let core_ns = ((spans - calls * empty_ns) * speed).max(0.0);
        let ftl_ns = (self.timing.host_ns - (spans + calls * empty_ns) * speed).max(0.0);
        let mut m = |name, value, unit| out.push(Metric { name, value, unit });
        m("core.share", ratio(core_ns, core_ns + ftl_ns), "frac");
        let per_call = |span: &Span| span.ns_per_call(empty_ns) * speed;
        m("core.submit.ns_per_call", per_call(&s.submit), "ns");
        m(
            "core.submit.calls_per_io",
            ratio(s.submit.calls as f64, ios),
            "calls/io",
        );
        m(
            "core.submit.refused_frac",
            ratio(s.refused as f64, s.submit.calls as f64),
            "frac",
        );
        const NS: [&str; 4] = [
            "core.on_event.txn_done.ns_per_call",
            "core.on_event.issue_check.ns_per_call",
            "core.on_event.timer.ns_per_call",
            "core.on_event.cpu_done.ns_per_call",
        ];
        const CALLS: [&str; 4] = [
            "core.on_event.txn_done.calls_per_io",
            "core.on_event.issue_check.calls_per_io",
            "core.on_event.timer.calls_per_io",
            "core.on_event.cpu_done.calls_per_io",
        ];
        for k in 0..4 {
            m(NS[k], per_call(&s.on_event[k]), "ns");
            m(CALLS[k], ratio(s.on_event[k].calls as f64, ios), "calls/io");
        }
        m(
            "core.take_completions.ns_per_call",
            per_call(&s.take_completions),
            "ns",
        );
        // Converted here, not with `Freq::cycles`, whose `rem * 1e12`
        // overflows past ~1.8e7 cycles.
        let cpu = &self.dev.sys.cpu;
        let busy_ps =
            (cpu.busy_cycles() - self.cpu_cycles) as f64 * 1e12 / cpu.freq().as_hz() as f64;
        m(
            "core.cpu_busy_frac",
            ratio(busy_ps, self.timing.sim_ps as f64),
            "frac",
        );
        m("ftl.self_us_per_io", ratio(ftl_ns / 1e3, ios), "us");
    }
}

/// Everything the per-layer metrics are computed from.
struct Measured<'a> {
    w: &'a Workload,
    /// The untraced device: the end-to-end run's configuration.
    plain: Timing,
    /// The traced device; `None` when the probe is the traced device.
    traced: Option<Timing>,
    /// The one-worker device (sixteen channels only).
    one_worker: Option<Timing>,
    /// Counter deltas over the timed chunks, per shard.
    shards: Vec<Tally>,
    probe: Probe,
    empty_ns: f64,
}

impl Measured<'_> {
    fn traced(&self) -> &Timing {
        self.traced.as_ref().unwrap_or(&self.probe.timing)
    }

    fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        self.probe.metrics(&mut out, self.empty_ns);
        let t = self
            .shards
            .iter()
            .fold(Tally::default(), |acc, s| acc.plus(s));
        let ios = self.plain.ios as f64;
        let per_io = |c: Counter| ratio(t.get(c) as f64, ios);
        let mut m = |name, value, unit| out.push(Metric { name, value, unit });
        m(
            "core.runtime.tasks_per_io",
            per_io(Counter::TasksSpawned),
            "tasks/io",
        );
        m(
            "core.runtime.sched_picks_per_io",
            per_io(Counter::SchedPicks),
            "picks/io",
        );
        m(
            "core.runtime.txns_per_io",
            per_io(Counter::TxnsIssued),
            "txns/io",
        );
        m(
            "ufsm.instrs_per_io",
            per_io(Counter::InstrsDispatched),
            "instrs/io",
        );
        m(
            "channel.phases_per_io",
            per_io(Counter::PhasesTransmitted),
            "phases/io",
        );
        m(
            "channel.bytes_per_io",
            per_io(Counter::BytesToFlash) + per_io(Counter::BytesFromFlash),
            "B/io",
        );
        let channel_ps = self.traced().sim_ps as f64 * self.w.channels as f64;
        m(
            "channel.bus_busy_frac",
            ratio(t.bus_ps as f64, channel_ps),
            "frac",
        );
        let events = t.get(Counter::EventsPopped) as f64;
        m("sim.events_per_io", ratio(events, ios), "events/io");
        m(
            "sim.host_ns_per_event",
            ratio(self.plain.host_ns, events),
            "ns",
        );
        m("sim.pool.heap_allocs", t.heap_allocs as f64, "count");

        let rounds = self.plain.rounds as f64;
        m(
            "sim.par.rounds_per_kio",
            ratio(rounds * 1e3, ios),
            "rounds/kio",
        );
        // One channel has no barrier: one shard, on one worker.
        let per_shard: Vec<f64> = self
            .shards
            .iter()
            .map(|s| s.get(Counter::EventsPopped) as f64)
            .collect();
        let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        let max = per_shard.iter().copied().fold(0.0, f64::max);
        m(
            "sim.par.events_per_round",
            ratio(events, rounds),
            "events/round",
        );
        m("sim.par.shard_imbalance", ratio(max, mean), "max/mean");
        let speedup = self
            .one_worker
            .as_ref()
            .map_or(1.0, |one| ratio(one.host_ns, self.plain.host_ns));
        m("sim.par.speedup_2t", speedup, "x");

        let energy = self.w.ssd_config().energy;
        let ops = |c: Counter, pj: u64| ratio(t.get(c) as f64 / pj as f64, ios);
        let programs = ops(Counter::EnergyProgramPj, energy.program_pj);
        m(
            "ftl.flash_reads_per_io",
            ops(Counter::EnergyReadPj, energy.read_pj),
            "ops/io",
        );
        m("ftl.flash_programs_per_io", programs, "ops/io");
        m(
            "ftl.flash_erases_per_io",
            ops(Counter::EnergyErasePj, energy.erase_pj),
            "ops/io",
        );
        let writes = self.w.pattern == IoPattern::RandomWrite;
        m(
            "ftl.write_amplification",
            if writes { programs } else { 0.0 },
            "programs/write",
        );
        m(
            "ftl.gc_cycles_per_kio",
            per_io(Counter::GcCycles) * 1e3,
            "cycles/kio",
        );
        let (hits, misses) = (t.get(Counter::CacheHits), t.get(Counter::CacheMisses));
        m(
            "ftl.cache.hit_frac",
            ratio(hits as f64, (hits + misses) as f64),
            "frac",
        );
        m(
            "ftl.cache.dirty_evicts_per_io",
            per_io(Counter::CacheDirtyEvicts),
            "evicts/io",
        );
        m(
            "trace.overhead_frac",
            ratio(
                median(&self.traced().us_per_io),
                median(&self.plain.us_per_io),
            ) - 1.0,
            "frac",
        );
        out
    }
}

/// Runs `w` traced and reports every per-layer metric.
pub fn measure(w: &Workload, seed: u64, chunks: u64) -> Outcome {
    let mut out = Outcome {
        attempted: chunks * w.chunk_ios,
        ..Outcome::default()
    };
    let empty_ns = empty_span_ns();
    let result = if w.channels == 1 {
        guarded(|| measure_one(w, seed, chunks, empty_ns, &mut out))
    } else {
        guarded(|| measure_many(w, seed, chunks, empty_ns, &mut out))
    };
    match result {
        Ok(m) => {
            out.failed = out.attempted - m.plain.ios.min(out.attempted);
            out.metrics = m.metrics();
            // The rest of the probe's host time: 1 - core.share by
            // construction, so it is printed but not a separate metric.
            let core = out.metrics.iter().find(|m| m.name == "core.share");
            out.extra.push(Metric {
                name: "ftl.share",
                value: 1.0 - core.map_or(0.0, |m| m.value),
                unit: "frac",
            });
            out.notes.push(("sim_digest", m.plain.digest.hex()));
            out.notes.push(("traced_digest", m.traced().digest.hex()));
            if let Some(one) = &m.one_worker {
                out.notes.push(("one_worker_digest", one.digest.hex()));
                out.extra.push(Metric {
                    name: "sim.par.host_us_per_round",
                    value: ratio(m.plain.host_ns / 1e3, m.plain.rounds as f64),
                    unit: "us",
                });
            }
            out.extra.push(Metric {
                name: "core.empty_span_ns",
                value: empty_ns,
                unit: "ns",
            });
        }
        Err(e) => {
            out.errors.push(format!("traced run panicked: {e}"));
            out.failed = out.attempted;
        }
    }
    out.notes.push(("chunks", chunks.to_string()));
    out
}

fn measure_one<'a>(
    w: &'a Workload,
    seed: u64,
    chunks: u64,
    empty_ns: f64,
    out: &mut Outcome,
) -> Measured<'a> {
    let mut plain_dev = w.build_one(false, |c| c);
    plain_dev.warm_up(w, seed);
    let mut probe = Probe::new(w, seed);
    let mut plain = Timing::default();
    let mut clock = RefClock::new();
    for c in 0..chunks {
        let job = w.chunk_job(seed, c);
        // Alternate which device runs first, so drift in host speed
        // lands on both.
        let ran = guarded(|| {
            if c % 2 == 0 {
                let a = plain.run(&mut clock, &mut plain_dev, &job);
                (a, probe.run(&mut clock, &job))
            } else {
                let b = probe.run(&mut clock, &job);
                (plain.run(&mut clock, &mut plain_dev, &job), b)
            }
        });
        match ran {
            Ok((a, b)) => check_chunk(out, w, c, &a, &[("traced", &b)]),
            Err(e) => {
                out.errors.push(format!("chunk {c} panicked: {e}"));
                break;
            }
        }
    }
    Measured {
        w,
        plain,
        traced: None,
        one_worker: None,
        shards: vec![probe.tally()],
        probe,
        empty_ns,
    }
}

fn measure_many<'a>(
    w: &'a Workload,
    seed: u64,
    chunks: u64,
    empty_ns: f64,
    out: &mut Outcome,
) -> Measured<'a> {
    // Shard tracers are only readable once the device shuts down, so the
    // preconditioning's share of each counter comes from an identical
    // device shut down right after it.
    let base = {
        let mut dev = w.build_many(WORKERS, true);
        dev.warm_up(w, seed);
        shard_tallies(&dev.finish())
    };
    let prepared = |threads, traced| {
        let mut dev: MultiSsd = w.build_many(threads, traced);
        dev.warm_up(w, seed);
        dev
    };
    let mut devs = [
        prepared(WORKERS, false),
        prepared(1, false),
        prepared(WORKERS, true),
    ];
    let replica = w.one_channel();
    let mut probe = Probe::new(&replica, seed);
    let mut timings: [Timing; 3] = Default::default();
    let mut clock = RefClock::new();
    for c in 0..chunks {
        let job = w.chunk_job(seed, c);
        let ran = guarded(|| {
            // Rotate the order of the three devices chunk by chunk.
            let mut got: [Option<Chunk>; 3] = Default::default();
            for k in 0..3 {
                let i = (c as usize + k) % 3;
                got[i] = Some(timings[i].run(&mut clock, &mut devs[i], &job));
            }
            probe.run(&mut clock, &replica.chunk_job(seed, c));
            got.map(|g| g.expect("every device ran"))
        });
        match ran {
            Ok([a, b, t]) => check_chunk(out, w, c, &a, &[("one-worker", &b), ("traced", &t)]),
            Err(e) => {
                out.errors.push(format!("chunk {c} panicked: {e}"));
                break;
            }
        }
    }
    let [plain_dev, one_dev, traced_dev] = devs;
    drop((plain_dev, one_dev));
    let shards = shard_tallies(&traced_dev.finish())
        .iter()
        .zip(&base)
        .map(|(t, b)| t.minus(b))
        .collect();
    let [plain, one_worker, traced] = timings;
    Measured {
        w,
        plain,
        traced: Some(traced),
        one_worker: Some(one_worker),
        shards,
        probe,
        empty_ns,
    }
}

/// Every device must have simulated exactly what the untraced one did.
fn check_chunk(out: &mut Outcome, w: &Workload, c: u64, plain: &Chunk, others: &[(&str, &Chunk)]) {
    out.check(plain.fio.ios == w.chunk_ios, || {
        format!(
            "chunk {c} completed {} of {} I/Os",
            plain.fio.ios, w.chunk_ios
        )
    });
    for (name, other) in others {
        out.check(other.digest == plain.digest, || {
            format!("chunk {c}: the {name} device's digest differs from the untraced one")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// On every workload's quick run, the traced device (and on sixteen
    /// channels the one-worker device) reproduces the untraced device's
    /// digest chunk by chunk, and the untraced device reproduces the
    /// end-to-end run's digest.
    #[test]
    fn traced_and_one_worker_runs_reproduce_the_untraced_digest() {
        for w in WORKLOADS {
            let traced = measure(&w, 1, 2);
            assert!(traced.correct(), "{}: {:?}", w.name, traced.errors);
            let note = |o: &Outcome, key| {
                o.notes
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| v.clone())
            };
            let untraced = crate::e2e::measure(&w, 1, 2, 1);
            assert_eq!(
                note(&traced, "sim_digest"),
                note(&untraced, "sim_digest"),
                "{}",
                w.name
            );
            assert_eq!(
                note(&traced, "traced_digest"),
                note(&traced, "sim_digest"),
                "{}",
                w.name
            );
            if w.channels > 1 {
                assert_eq!(
                    note(&traced, "one_worker_digest"),
                    note(&traced, "sim_digest"),
                    "{}",
                    w.name
                );
            }
        }
    }
}
