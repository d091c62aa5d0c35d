//! Determinism regression tests: the whole reproduction is a discrete-event
//! simulation, so two runs with the same seed must produce bit-identical
//! results — same completion traces, same reports, same derived numbers.
//! SimpleSSD and Copycat make the same promise; losing it silently would
//! invalidate every BENCH_*.json trajectory comparison.
//!
//! Reports derive `Debug` over every field (per-completion timestamps
//! included), so comparing the rendered traces is an exact equality check
//! on the simulated event history.

use babol_bench::{
    build_controller, build_system, read_microbench, read_microbench_traced, ControllerKind,
};
use babol_flash::PackageProfile;
use babol_ftl::{FioWorkload, IoPattern, MultiSsd, MultiSsdConfig, Ssd, SsdConfig};
use babol_testkit::digest::Digest;

/// The Fig. 10 microbenchmark replays identically: every completion
/// timestamp, CPU cycle count, and bus-busy interval matches across runs.
#[test]
fn microbench_trace_is_reproducible() {
    let profile = PackageProfile::test_tiny();
    for kind in [
        ControllerKind::HwAsync,
        ControllerKind::HwSync,
        ControllerKind::Rtos,
        ControllerKind::Coro,
    ] {
        let a = read_microbench(&profile, 2, 200, 1000, kind, 32);
        let b = read_microbench(&profile, 2, 200, 1000, kind, 32);
        assert_eq!(
            a.completions, b.completions,
            "{kind:?} completion trace diverged"
        );
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{kind:?} run report diverged"
        );
    }
}

/// The tracing layer is a pure observer: switching it on must not move a
/// single completion timestamp, and two traced runs of the same seed must
/// export bit-identical timelines.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let profile = PackageProfile::test_tiny();
    for kind in [
        ControllerKind::HwAsync,
        ControllerKind::HwSync,
        ControllerKind::Rtos,
        ControllerKind::Coro,
    ] {
        let plain = read_microbench(&profile, 2, 200, 1000, kind, 32);
        let (traced, tracer) = read_microbench_traced(&profile, 2, 200, 1000, kind, 32, true);
        assert_eq!(
            plain.completions, traced.completions,
            "{kind:?}: tracing changed the completion trace"
        );
        assert_eq!(
            format!("{plain:?}"),
            format!("{traced:?}"),
            "{kind:?}: tracing changed the run report"
        );
        // Every controller drives the bus through the one traced
        // `Channel::transmit`, so each run schedules sim events, accounts
        // for every picosecond of bus time and leaves its bus ownership in
        // the event ring.
        assert!(
            tracer.counter_total(babol_trace::Counter::EventsScheduled) > 0,
            "{kind:?}: no sim events counted"
        );
        assert_eq!(
            tracer.metric(babol_trace::Metric::BusHold).sum_ps(),
            u128::from(traced.bus_busy.as_picos()),
            "{kind:?}: traced bus hold differs from the channel's busy time"
        );
        assert!(
            tracer
                .events()
                .any(|e| e.kind == babol_trace::TraceKind::BusAcquire),
            "{kind:?}: no bus acquisitions recorded"
        );

        // And the recorded timeline itself is reproducible.
        let (_, tracer2) = read_microbench_traced(&profile, 2, 200, 1000, kind, 32, true);
        assert_eq!(
            tracer.to_json_lines(),
            tracer2.to_json_lines(),
            "{kind:?}: traced event streams diverged"
        );
        assert_eq!(
            tracer.to_chrome_trace(),
            tracer2.to_chrome_trace(),
            "{kind:?}: chrome exports diverged"
        );

        // The derived analysis (utilization, gaps, phase attribution) is a
        // pure function of the trace, so the rendered report — both human
        // and CSV forms — must be byte-identical across same-seed runs.
        let ra = babol_trace::TraceReport::from_tracer(&tracer);
        let rb = babol_trace::TraceReport::from_tracer(&tracer2);
        assert_eq!(
            ra.render_table(),
            rb.render_table(),
            "{kind:?}: trace report tables diverged"
        );
        assert_eq!(
            ra.render_csv(),
            rb.render_csv(),
            "{kind:?}: trace report CSVs diverged"
        );
    }
}

/// A full SSD fio job (FTL + controller + random host pattern) is a pure
/// function of its seeds: same seed, same report; different seed, different
/// I/O stream.
#[test]
fn ssd_fio_run_is_reproducible() {
    let run = |seed: u64| {
        let profile = PackageProfile::test_tiny();
        let luns = 2;
        let mut sys = build_system(&profile, luns, 200, 1000, ControllerKind::Coro);
        let mut ctrl = build_controller(ControllerKind::Coro, &profile, luns);
        let mut ssd = Ssd::new(SsdConfig::tiny(luns));
        ssd.preload();
        let wl = FioWorkload {
            pattern: IoPattern::RandomRead,
            total_ios: 64,
            queue_depth: 8,
            seed,
        };
        format!("{:?}", ssd.run(&mut sys, ctrl.as_mut(), wl))
    };
    let a = run(0xF10);
    let b = run(0xF10);
    assert_eq!(a, b, "same-seed fio traces diverged");
    let c = run(0xF11);
    assert_ne!(
        a, c,
        "different seeds produced identical random-read traces"
    );
}

/// Digest of one multi-channel fio job: the full run report plus every
/// shard's exported timeline, folded into one printable hash.
fn parallel_fio_digest(threads: usize, seed: u64) -> String {
    let mut cfg = MultiSsdConfig::tiny(8, threads);
    cfg.trace_capacity = Some(4096);
    let mut ssd = MultiSsd::new(cfg);
    let report = ssd.run(&FioWorkload {
        pattern: IoPattern::RandomRead,
        total_ios: 256,
        queue_depth: 16,
        seed,
    });
    let mut d = Digest::new();
    d.section("report", format!("{report:?}"));
    for sd in ssd.finish() {
        d.section(&format!("shard{}", sd.shard), sd.tracer.to_json_lines());
    }
    d.hex()
}

/// The sharded parallel simulation is thread-count-invariant: the merged
/// completion stream, derived statistics, and every per-shard timeline are
/// bit-identical whether the shards run inline or on 2 or 8 workers.
///
/// This test is also the CI determinism matrix probe: each matrix leg runs
/// it with `BABOL_THREADS` set to its thread count and `--nocapture`, and
/// the driver compares the printed `determinism-digest` lines byte for byte
/// across all legs. The lines deliberately omit the leg's thread count so
/// identical output across jobs witnesses cross-process, cross-thread-count
/// determinism.
/// Same digest, but with the production FTL subsystems switched on: a
/// write-back cache absorbing host writes on every shard, wear-leveling
/// migration armed, a random-write pattern that drives GC, and the
/// streaming-telemetry hub sampling every shard — the configurations most
/// likely to smuggle nondeterminism in through eviction order, migration
/// timing, or metrics sampling. The digest folds in the exported
/// `metrics.jsonl` bytes (frames, shard lanes, and an SLO verdict), so a
/// single reordered window fails the whole CI matrix.
fn production_fio_digest(threads: usize, seed: u64) -> String {
    use babol_sim::SimDuration;
    use babol_trace::{evaluate_slo, MetricsHub, MetricsSeries, SloSpec};

    let mut cfg = MultiSsdConfig::tiny(8, threads);
    cfg.trace_capacity = Some(4096);
    cfg.preload = false;
    cfg.shard.cache_pages = 8;
    cfg.shard.wear_spread_limit = 4;
    cfg.metrics_window = Some(SimDuration::from_micros(50));
    let mut ssd = MultiSsd::new(cfg);
    let report = ssd.run(&FioWorkload {
        pattern: IoPattern::RandomWrite,
        total_ios: 256,
        queue_depth: 16,
        seed,
    });
    let device_hub = ssd.take_metrics();
    let shard_digests = ssd.finish();
    let shard_hubs: Vec<&MetricsHub> = shard_digests.iter().map(|sd| &sd.metrics).collect();
    let series = MetricsSeries::from_shards(&device_hub, &shard_hubs);
    let spec = SloSpec::parse("p99<800us").expect("static spec");
    let verdict = evaluate_slo(&spec, &series.device, series.window_ps);
    let mut d = Digest::new();
    d.section("report", format!("{report:?}"));
    d.section("metrics", series.to_json_lines(&[verdict]));
    for sd in shard_digests {
        d.section(&format!("shard{}", sd.shard), sd.tracer.to_json_lines());
    }
    d.hex()
}

/// The production-FTL configuration (write-back cache, wear leveling,
/// GC-heavy writes) is as thread-count-invariant as the plain read path,
/// and its digests feed the same CI matrix comparison.
#[test]
fn parallel_production_ftl_is_thread_count_invariant() {
    let leg: usize = std::env::var("BABOL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1);
    for seed in [0xCAC4E_u64, 0x3EA5] {
        let reference = production_fio_digest(1, seed);
        for threads in [2usize, 3, 8] {
            assert_eq!(
                production_fio_digest(threads, seed),
                reference,
                "threads={threads} seed={seed:#x} diverged from the single-thread order"
            );
        }
        let printed = if leg == 1 {
            reference.clone()
        } else {
            production_fio_digest(leg, seed)
        };
        assert_eq!(printed, reference, "matrix leg threads={leg} diverged");
        println!("determinism-digest mode=production seed={seed:#018x} digest={printed}");
    }
}

#[test]
fn parallel_fio_is_thread_count_invariant() {
    let leg: usize = std::env::var("BABOL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1);
    let mut digests = Vec::new();
    for seed in [0xBAB01_u64, 0xD15C, 0x5EED] {
        let reference = parallel_fio_digest(1, seed);
        for threads in [2usize, 3, 8] {
            assert_eq!(
                parallel_fio_digest(threads, seed),
                reference,
                "threads={threads} seed={seed:#x} diverged from the single-thread order"
            );
        }
        // Recompute with this matrix leg's thread count so each CI job
        // genuinely exercises its own configuration before printing.
        let printed = if leg == 1 {
            reference.clone()
        } else {
            parallel_fio_digest(leg, seed)
        };
        assert_eq!(printed, reference, "matrix leg threads={leg} diverged");
        println!("determinism-digest seed={seed:#018x} digest={printed}");
        digests.push(reference);
    }
    digests.sort();
    digests.dedup();
    assert_eq!(
        digests.len(),
        3,
        "different seeds must produce different runs"
    );
}
