//! A whole SSD: FTL + BABOL controller + fio-like host workloads,
//! including a write workload heavy enough to trigger garbage collection.
//!
//! ```sh
//! cargo run --release --example ssd_fio
//! cargo run --release --example ssd_fio -- --trace /tmp/ssd.json
//! cargo run --release --example ssd_fio -- --report
//! cargo run --release --example ssd_fio -- --channels 8 --threads 4
//! cargo run --release --example ssd_fio -- --cache-mb 1
//! cargo run --release --example ssd_fio -- --wear-report
//! cargo run --release --example ssd_fio -- --metrics /tmp/m.jsonl --slo "p99<800us"
//! ```
//!
//! With `--trace`, the GC-heavy random-write job runs with the tracing
//! layer enabled and its timeline is written as a Chrome `trace_event`
//! file (open at `chrome://tracing` or <https://ui.perfetto.dev>) plus a
//! line-JSON sidecar (`<path>.jsonl`) that `--example trace_report` and
//! other tools can parse back. With `--report`, the same traced run is
//! analyzed in-process and a utilization/phase/gap report is printed.
//!
//! With `--channels N` (N > 1) the whole device is simulated instead of a
//! single channel: N per-channel shards driven by the conservative-barrier
//! parallel kernel on `--threads M` threads (the main thread plus M-1
//! spawned workers). Results are bit-identical at
//! every thread count; `--report` then prints a per-shard utilization
//! table and `--trace` writes one timeline pair per channel
//! (`<path>.shardK` / `<path>.shardK.jsonl`).
//!
//! With `--cache-mb N` a write-back DRAM cache of N MiB fronts the FTL for
//! the write job (tiny pages are 512 B, so 1 MiB already covers the whole
//! demo device and absorbs every rewrite); hit/miss/eviction counters are
//! printed after the run. With `--wear-report` wear leveling is armed
//! (spread limit 4) and a per-LUN erase-count table plus migration and
//! bad-block totals are printed. Every write job also reports its
//! simulated flash energy in joules.
//!
//! With `--metrics <path>` the GC-heavy write job streams windowed
//! telemetry (window length `--metrics-window-us`, default 100) and the
//! frame series is written as a `babol-metrics-v1` line-JSON sidecar that
//! `--example trace_report -- --metrics` renders as a dashboard. `--slo
//! "p99<800us"` (repeatable; stats `p50|p95|p99|mean|iops`) evaluates each
//! objective per window, prints the verdict, and embeds it in the sidecar
//! footer region. On a multi-channel run the sidecar also carries one
//! frame lane per shard.

use babol::factory::rtos_controller;
use babol::runtime::RuntimeConfig;
use babol::system::System;
use babol_channel::Channel;
use babol_flash::array::ContentMode;
use babol_flash::lun::LunConfig;
use babol_flash::{Lun, PackageProfile};
use babol_ftl::{FioWorkload, IoPattern, Ssd, SsdConfig};
use babol_sim::{CostModel, Cpu, Freq};
use babol_ufsm::EmitConfig;

fn stack(
    preloaded: bool,
    cache_pages: usize,
    wear_leveling: bool,
) -> (System, babol::runtime::SoftController, Ssd) {
    let profile = PackageProfile::test_tiny();
    let luns: Vec<Lun> = (0..4)
        .map(|i| {
            Lun::new(LunConfig {
                profile: profile.clone(),
                content: if preloaded {
                    ContentMode::Preloaded { seed: 11 }
                } else {
                    ContentMode::Pristine
                },
                seed: i + 1,
                inject_errors: false,
                require_init: false,
            })
        })
        .collect();
    let sys = System::new(
        Channel::new(luns),
        EmitConfig::nv_ddr2(200),
        Cpu::new(Freq::from_ghz(1), CostModel::rtos()),
    );
    let ctrl = rtos_controller(profile.layout(), RuntimeConfig::rtos());
    let mut cfg = SsdConfig::tiny(4);
    cfg.cache_pages = cache_pages;
    if wear_leveling {
        cfg.wear_spread_limit = 4;
    }
    let mut ssd = Ssd::new(cfg);
    if preloaded {
        ssd.preload();
    }
    (sys, ctrl, ssd)
}

/// Evaluates `specs` against the device frames, writes the sidecar when a
/// path was given, and prints one verdict line per objective.
fn emit_metrics(
    series: &babol_trace::MetricsSeries,
    specs: &[babol_trace::SloSpec],
    path: Option<&str>,
) {
    let verdicts: Vec<babol_trace::SloVerdict> = specs
        .iter()
        .map(|s| babol_trace::evaluate_slo(s, &series.device, series.window_ps))
        .collect();
    if let Some(path) = path {
        if let Err(e) = series.write_json_lines(path, &verdicts) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "metrics: wrote {} frames x {} shard lane(s) to {path}",
            series.device.len(),
            series.shards
        );
    }
    for v in &verdicts {
        println!(
            "slo {:12} {}  ({} of {} windows breached, longest streak {}, \
             burn {}bp short / {}bp long)",
            v.spec.to_string(),
            if v.ok() { "OK" } else { "VIOLATED" },
            v.breaches,
            v.evaluated,
            v.longest_streak,
            v.burn_short_bp,
            v.burn_long_bp
        );
    }
}

fn parse_num(args: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    args.next()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            eprintln!("{flag} requires a positive integer");
            std::process::exit(2);
        })
}

/// Telemetry options bundled from `--metrics` / `--slo` /
/// `--metrics-window-us`; the hub is enabled when either a sidecar path
/// or at least one objective was given.
struct MetricsOpts {
    path: Option<String>,
    specs: Vec<babol_trace::SloSpec>,
    window: babol_sim::SimDuration,
}

impl MetricsOpts {
    fn enabled(&self) -> bool {
        self.path.is_some() || !self.specs.is_empty()
    }
}

/// The whole-device path: `channels` shards on `threads` workers.
fn run_multi(
    channels: u32,
    threads: usize,
    trace_path: Option<String>,
    report: bool,
    cache_pages: usize,
    wear_report: bool,
    metrics: &MetricsOpts,
) {
    use babol_ftl::{MultiSsd, MultiSsdConfig};

    let metrics_on = metrics.enabled();
    let traced = trace_path.is_some() || report;
    let configure = |preload: bool| {
        let mut cfg = MultiSsdConfig::tiny(channels, threads);
        cfg.preload = preload;
        cfg.shard.cache_pages = cache_pages;
        if wear_report {
            cfg.shard.wear_spread_limit = 4;
        }
        if traced {
            cfg.trace_capacity = Some(1 << 18);
        }
        cfg
    };

    // Read jobs over a preloaded device, scaled to keep every channel busy.
    for (name, pattern) in [
        ("sequential read", IoPattern::SequentialRead),
        ("random read", IoPattern::RandomRead),
    ] {
        let mut ssd = MultiSsd::new(configure(true));
        let r = ssd.run(&FioWorkload {
            pattern,
            total_ios: 64 * channels as u64,
            queue_depth: 8 * channels as usize,
            seed: 42,
        });
        println!(
            "{name:17}  {:7.1} MB/s  {:8.0} IOPS  mean {}  p50 {}  p95 {}  p99 {}  ({} rounds, {:?} ios/ch)",
            r.fio.bandwidth_mbps(),
            r.fio.iops(),
            r.fio.mean_latency,
            r.fio.p50_latency,
            r.fio.p95_latency,
            r.fio.p99_latency,
            r.rounds,
            r.per_shard_ios
        );
    }

    // The GC-forcing overwrite job on a pristine device. Telemetry covers
    // this job only — it is the one with GC debt and cache churn to watch.
    let mut write_cfg = configure(false);
    if metrics_on {
        write_cfg.metrics_window = Some(metrics.window);
    }
    let mut ssd = MultiSsd::new(write_cfg);
    let r = ssd.run(&FioWorkload {
        pattern: IoPattern::RandomWrite,
        total_ios: 3 * ssd.logical_pages(),
        queue_depth: 4 * channels as usize,
        seed: 7,
    });
    println!(
        "random write x3    {:7.1} MB/s  {:8.0} IOPS  mean {}  p50 {}  p95 {}  p99 {}  ({} GC cycles ran)",
        r.fio.bandwidth_mbps(),
        r.fio.iops(),
        r.fio.mean_latency,
        r.fio.p50_latency,
        r.fio.p95_latency,
        r.fio.p99_latency,
        r.fio.gc_cycles
    );
    // A device-covering cache can absorb the whole overwrite pass, so GC
    // is only guaranteed on the uncached run.
    if cache_pages == 0 {
        assert!(r.fio.gc_cycles > 0);
    }
    println!(
        "energy             {:9.6} J simulated flash energy",
        r.fio.joules()
    );

    let device_hub = ssd.take_metrics();
    let digests = ssd.finish();
    if metrics_on {
        let shard_hubs: Vec<&babol_trace::MetricsHub> =
            digests.iter().map(|d| &d.metrics).collect();
        let series = babol_trace::MetricsSeries::from_shards(&device_hub, &shard_hubs);
        emit_metrics(&series, &metrics.specs, metrics.path.as_deref());
    }
    if cache_pages > 0 {
        println!(
            "cache              {cache_pages} pages/shard  hits {}  misses {}  dirty evicts {}",
            r.fio.cache_hits, r.fio.cache_misses, r.fio.cache_dirty_evicts
        );
    }
    if wear_report {
        println!(
            "wear               {} migrations  {} blocks retired (all shards)",
            r.fio.wear_migrations, r.fio.blocks_retired
        );
    }
    if let Some(path) = &trace_path {
        for d in &digests {
            let chrome = format!("{path}.shard{}", d.shard);
            let sidecar = format!("{chrome}.jsonl");
            if let Err(e) = d
                .tracer
                .write_chrome_trace(&chrome)
                .and_then(|()| d.tracer.write_json_lines(&sidecar))
            {
                eprintln!("failed to write {chrome}: {e}");
                std::process::exit(1);
            }
        }
        println!(
            "trace: wrote {} per-channel timeline pairs under {path}.shard*",
            digests.len()
        );
    }
    if report {
        let reports: Vec<babol_trace::TraceReport> = digests
            .iter()
            .map(|d| babol_trace::TraceReport::from_tracer(&d.tracer))
            .collect();
        print!("\n{}", babol_trace::render_shard_utilization(&reports));
    }
}

fn main() {
    let mut trace_path: Option<String> = None;
    let mut report = false;
    let mut channels = 1u32;
    let mut threads = 1usize;
    let mut cache_mb = 0u64;
    let mut wear_report = false;
    let mut metrics_path: Option<String> = None;
    let mut slo_specs: Vec<babol_trace::SloSpec> = Vec::new();
    let mut metrics_window_us = 100u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            trace_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--trace requires a file path");
                std::process::exit(2);
            }));
        } else if arg == "--metrics" {
            metrics_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--metrics requires a file path");
                std::process::exit(2);
            }));
        } else if arg == "--slo" {
            let text = args.next().unwrap_or_else(|| {
                eprintln!("--slo requires an objective like p99<800us or iops>50000");
                std::process::exit(2);
            });
            slo_specs.push(babol_trace::SloSpec::parse(&text).unwrap_or_else(|e| {
                eprintln!("--slo {text}: {e}");
                std::process::exit(2);
            }));
        } else if arg == "--metrics-window-us" {
            metrics_window_us = parse_num(&mut args, "--metrics-window-us");
        } else if arg == "--report" {
            report = true;
        } else if arg == "--channels" {
            channels = parse_num(&mut args, "--channels") as u32;
        } else if arg == "--threads" {
            threads = parse_num(&mut args, "--threads") as usize;
        } else if arg == "--cache-mb" {
            cache_mb = parse_num(&mut args, "--cache-mb");
        } else if arg == "--wear-report" {
            wear_report = true;
        } else {
            eprintln!("unrecognized argument: {arg}");
            std::process::exit(2);
        }
    }
    let cache_pages = cache_mb as usize * (1 << 20) / babol_flash::Geometry::tiny().page_size;
    let metrics = MetricsOpts {
        path: metrics_path,
        specs: slo_specs,
        window: babol_sim::SimDuration::from_micros(metrics_window_us),
    };
    let metrics_on = metrics.enabled();

    if channels > 1 {
        run_multi(
            channels,
            threads,
            trace_path,
            report,
            cache_pages,
            wear_report,
            &metrics,
        );
        return;
    }

    // Read jobs over a preloaded device.
    for (name, pattern) in [
        ("sequential read", IoPattern::SequentialRead),
        ("random read", IoPattern::RandomRead),
    ] {
        let (mut sys, mut ctrl, mut ssd) = stack(true, 0, false);
        let r = ssd.run(
            &mut sys,
            &mut ctrl,
            FioWorkload {
                pattern,
                total_ios: 128,
                queue_depth: 8,
                seed: 42,
            },
        );
        println!(
            "{name:17}  {:7.1} MB/s  {:8.0} IOPS  mean {}  p50 {}  p95 {}  p99 {}",
            r.bandwidth_mbps(),
            r.iops(),
            r.mean_latency,
            r.p50_latency,
            r.p95_latency,
            r.p99_latency
        );
    }

    // A sustained random-write job: 3x the logical space, forcing GC.
    let (mut sys, mut ctrl, mut ssd) = stack(false, cache_pages, wear_report);
    if metrics_on {
        ssd.enable_metrics(metrics.window);
    }
    if trace_path.is_some() || report {
        // The GC-heavy job emits far more events than the default ring
        // holds; a larger ring keeps the report loss-free.
        sys.trace = babol_trace::Tracer::with_capacity(1 << 21);
    }
    let r = ssd.run(
        &mut sys,
        &mut ctrl,
        FioWorkload {
            pattern: IoPattern::RandomWrite,
            total_ios: 3 * ssd.map().logical_pages(),
            queue_depth: 4,
            seed: 7,
        },
    );
    println!(
        "random write x3    {:7.1} MB/s  {:8.0} IOPS  mean {}  p50 {}  p95 {}  p99 {}  ({} GC cycles ran)",
        r.bandwidth_mbps(),
        r.iops(),
        r.mean_latency,
        r.p50_latency,
        r.p95_latency,
        r.p99_latency,
        r.gc_cycles
    );
    // A device-covering cache can absorb the whole overwrite pass, so GC
    // is only guaranteed on the uncached run.
    if cache_pages == 0 {
        assert!(r.gc_cycles > 0);
    }

    // Settle the cache's debt to flash before reading the energy meter, so
    // the cached and uncached runs are comparable (write-amplification
    // saved, not writes deferred).
    ssd.flush_cache(&mut sys, &mut ctrl);
    let e = *ssd.energy();
    println!(
        "energy             {:9.6} J  (read {} pJ, program {} pJ, erase {} pJ, transfer {} pJ)",
        e.joules(),
        e.read_pj,
        e.program_pj,
        e.erase_pj,
        e.transfer_pj
    );
    if cache_pages > 0 {
        let c = ssd.cache();
        println!(
            "cache              {cache_pages} pages  hits {}  misses {}  dirty evicts {}",
            c.hits(),
            c.misses(),
            c.dirty_evicts()
        );
    }
    if wear_report {
        let g = babol_flash::Geometry::tiny();
        println!(
            "wear               {} migrations  {} blocks retired  {} usable pages",
            ssd.wear_migrations(),
            ssd.blocks_retired(),
            ssd.map().usable_pages()
        );
        for lun in 0..4u32 {
            let counts: Vec<u32> = (0..g.blocks_per_lun())
                .map(|b| ssd.map().erase_count(lun, b))
                .collect();
            println!(
                "  lun {lun}: erase counts min {} max {} (live spread {})",
                counts.iter().min().unwrap(),
                counts.iter().max().unwrap(),
                ssd.map().wear_spread(lun)
            );
        }
    }

    if metrics_on {
        let series = babol_trace::MetricsSeries::from_hub(ssd.metrics());
        emit_metrics(&series, &metrics.specs, metrics.path.as_deref());
    }

    if let Some(path) = trace_path {
        let sidecar = format!("{path}.jsonl");
        if let Err(e) = sys
            .trace
            .write_chrome_trace(&path)
            .and_then(|()| sys.trace.write_json_lines(&sidecar))
        {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        if sys.trace.dropped() > 0 {
            eprintln!(
                "warning: trace ring overflowed, {} oldest events dropped \
                 (utilization and phase numbers will undercount early activity)",
                sys.trace.dropped()
            );
        }
        println!(
            "trace: wrote {} events ({} dropped) to {path} and {sidecar}",
            sys.trace.events().count(),
            sys.trace.dropped()
        );
    }

    if report {
        print!(
            "\n{}",
            babol_trace::TraceReport::from_tracer(&sys.trace).render_table()
        );
    }
}
