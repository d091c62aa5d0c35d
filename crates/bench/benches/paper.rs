//! Paper benchmarks on the in-repo `babol-testkit` runner (no criterion).
//!
//! The paper's tables/figures are *simulated* results regenerated by the
//! `repro_*` binaries; these benches measure that the simulator itself is
//! fast enough to sweep the full parameter grids, and they exercise the
//! same code paths end to end.
//!
//! ```sh
//! cargo bench --bench paper                 # measure, write results JSON
//! BABOL_BENCH_ITERS=2 cargo bench --bench paper   # CI smoke
//! cargo bench --bench paper -- --json out.json    # custom output path
//! ```
//!
//! Results land in `results/BENCH_paper.json` (babol-bench-v1 schema) so
//! successive runs can be diffed along the repo's `BENCH_*.json`
//! trajectory convention.

use babol_testkit::bench::{black_box, Bench};

use babol_bench::{page_transfer_time, read_microbench, ControllerKind};
use babol_ecc::PageCodec;
use babol_flash::PackageProfile;
use babol_sim::rng::SplitMix64;
use babol_sim::{EventQueue, SimTime};

/// Pre-generated mixed-horizon gaps between an event and its follow-up,
/// each drawn below a random power of two from 2^15 ps (~33 ns) to 2^36 ps
/// (~69 ms). Generated once so both queue benches consume the identical
/// sequence.
fn event_gaps(n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(0xB0B0);
    (0..n)
        .map(|_| rng.next_u64() >> (28 + rng.next_below(22)))
        .collect()
}

/// Steady-state churn through `EventQueue` at `pending` events: fill the
/// queue, then pop the earliest event and push its follow-up one gap
/// later, so the population never changes. Simulator runs keep at most 32
/// events pending.
fn churn(pending: usize, gaps: &[u64]) -> u64 {
    let mut q = EventQueue::new();
    for (i, &g) in gaps[..pending].iter().enumerate() {
        q.push(SimTime::from_picos(g), i as u64);
    }
    let mut acc = 0u64;
    for &g in &gaps[pending..] {
        let (t, id) = q.pop().expect("a steady population");
        acc = acc.wrapping_add(t.as_picos()).wrapping_add(id);
        q.push(SimTime::from_picos(t.as_picos() + g), id);
    }
    acc
}

/// Same churn against a raw `BinaryHeap` with the `(time, seq)` FIFO
/// tie-break — the reference that prices `EventQueue`'s wrapper overhead.
fn churn_binheap(pending: usize, gaps: &[u64]) -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut q: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for (i, &g) in gaps[..pending].iter().enumerate() {
        q.push(Reverse((g, seq, i as u64)));
        seq += 1;
    }
    let mut acc = 0u64;
    for &g in &gaps[pending..] {
        let Reverse((t, _, id)) = q.pop().expect("a steady population");
        acc = acc.wrapping_add(t).wrapping_add(id);
        q.push(Reverse((t + g, seq, id)));
        seq += 1;
    }
    acc
}

/// A GC-heavy random-write fio job over the tiny two-LUN stack: the same
/// recipe the FTL tests use to force steady-state garbage collection.
/// Returns a throughput witness plus the simulated flash energy (joules).
fn gc_heavy_throughput() -> (u64, f64) {
    let r = write_job(0, babol_ftl::IoPattern::RandomWrite, 280, 1, false);
    assert!(r.1 > 0, "bench workload must exercise GC");
    (r.0 + r.1, r.2)
}

/// A sequential rewrite job (two passes over the logical space) with a
/// write-back cache of `cache_pages` in front of the FTL. Returns
/// `(ios, gc_cycles, joules)`. With the cache covering the logical space
/// the second pass is absorbed entirely; uncached, every write programs
/// flash — the cached/uncached pair is the cache's paper-style speedup
/// *and* energy-saving measurement, gated by `scripts/bench_check.py`.
/// With `metrics` the streaming-telemetry hub samples the run on a 100 µs
/// window — the metrics-on/off pair gates the observer's overhead.
fn write_job(
    cache_pages: usize,
    pattern: babol_ftl::IoPattern,
    total_ios: u64,
    queue_depth: usize,
    metrics: bool,
) -> (u64, u64, f64) {
    use babol::factory::coro_controller;
    use babol::runtime::RuntimeConfig;
    use babol::system::System;
    use babol_channel::Channel;
    use babol_flash::array::ContentMode;
    use babol_flash::lun::LunConfig;
    use babol_flash::Lun;
    use babol_ftl::{FioWorkload, Ssd, SsdConfig};
    use babol_sim::{CostModel, Cpu, Freq};
    use babol_ufsm::EmitConfig;

    let luns = 2u32;
    let l = (0..luns)
        .map(|i| {
            Lun::new(LunConfig {
                profile: PackageProfile::test_tiny(),
                content: ContentMode::Pristine,
                seed: i as u64 + 1,
                inject_errors: false,
                require_init: false,
            })
        })
        .collect();
    let mut sys = System::new(
        Channel::new(l),
        EmitConfig::nv_ddr2(200),
        Cpu::new(Freq::from_ghz(1), CostModel::coroutine()),
    );
    let layout = PackageProfile::test_tiny().layout();
    let mut ctrl = coro_controller(layout, RuntimeConfig::coroutine());
    let mut cfg = SsdConfig::tiny(luns);
    cfg.cache_pages = cache_pages;
    let mut ssd = Ssd::new(cfg);
    if metrics {
        ssd.enable_metrics(babol_sim::SimDuration::from_micros(100));
    }
    let r = ssd.run(
        &mut sys,
        &mut ctrl,
        FioWorkload {
            pattern,
            total_ios,
            queue_depth,
            seed: 3,
        },
    );
    // End-of-job flush so the cached run pays for the data it still owes
    // flash — the comparison is write-amplification, not deferral.
    ssd.flush_cache(&mut sys, &mut ctrl);
    (r.ios, r.gc_cycles, ssd.energy().joules())
}

/// The Fig. 12 read device: 8 Hynix LUNs on one channel, preloaded
/// flash, a coroutine BABOL controller and the `fig12` FTL. Built once,
/// so the timed jobs measure the read data path, not map construction.
struct PreloadedReads {
    sys: babol::system::System,
    ctrl: babol::runtime::SoftController,
    ssd: babol_ftl::Ssd,
}

impl PreloadedReads {
    fn new() -> Self {
        use babol::factory::coro_controller;
        use babol::runtime::RuntimeConfig;
        use babol_ftl::{Ssd, SsdConfig};

        let ways = 8;
        let profile = PackageProfile::hynix();
        let sys = babol_bench::build_system(&profile, ways, 200, 1000, ControllerKind::Coro);
        let ctrl = coro_controller(profile.layout(), RuntimeConfig::coroutine());
        let mut ssd = Ssd::new(SsdConfig::fig12(ways));
        ssd.preload();
        PreloadedReads { sys, ctrl, ssd }
    }

    /// One random-read fio job (512 × 16 KiB, queue depth 32); every
    /// call replays the same job. Returns `(ios, joules)`.
    fn run(&mut self) -> (u64, f64) {
        use babol_ftl::{FioWorkload, IoPattern};

        let r = self.ssd.run(
            &mut self.sys,
            &mut self.ctrl,
            FioWorkload {
                pattern: IoPattern::RandomRead,
                total_ios: 512,
                queue_depth: 32,
                seed: 0xF10,
            },
        );
        assert_eq!(r.ios, 512);
        (r.ios, r.joules())
    }
}

/// A 16-channel whole-device read job through the sharded parallel kernel.
/// Read-only so no GC runs and the event schedule is exactly reproducible;
/// the returned event count is asserted identical across thread counts,
/// making the `1t` / parallel pair a pure same-work speedup measurement.
/// Also returns the device's simulated flash energy in joules.
fn multi_channel_fio(threads: usize) -> (u64, f64) {
    use babol_ftl::{FioWorkload, IoPattern, MultiSsd, MultiSsdConfig};

    let mut ssd = MultiSsd::new(MultiSsdConfig::tiny(16, threads));
    let r = ssd.run(&FioWorkload {
        pattern: IoPattern::RandomRead,
        total_ios: 1024,
        queue_depth: 64,
        seed: 11,
    });
    assert_eq!(r.fio.ios, 1024);
    (r.events, r.fio.joules())
}

fn main() {
    // `cargo bench` passes harness flags like `--bench`; take only an
    // optional `--json <path>` and ignore the rest. Cargo runs benches with
    // the package dir as CWD, so the default anchors to the workspace root.
    let mut json_path = format!(
        "{}/../../results/BENCH_paper.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            if let Some(path) = args.next() {
                json_path = path;
            }
        }
    }

    let mut b = Bench::new();

    // Table I path: μFSM emission and packetizer timing math.
    b.bench("table1/page_transfer_time", || {
        page_transfer_time(black_box(200))
    });

    // Fig. 10 path: one full microbenchmark point per controller kind.
    let profile = PackageProfile::test_tiny();
    for kind in [
        ControllerKind::HwAsync,
        ControllerKind::HwSync,
        ControllerKind::Rtos,
        ControllerKind::Coro,
    ] {
        b.bench(&format!("fig10/{}", kind.label()), || {
            read_microbench(&profile, 2, 200, 1000, kind, 16)
        });
    }

    // Table II path: line counting over the real sources.
    b.bench("table2/loc_count", babol_bench::loc::table2_measured);

    // Table III path: structural area estimation.
    b.bench("table3/area_estimate", || {
        use babol_ufsm::area;
        (
            area::sync_hw_controller().total(),
            area::async_hw_controller().total(),
            area::babol_controller().total(),
        )
    });

    // ECC substrate: BCH encode and decode of a 512 B sector with 4 errors.
    let codec = PageCodec::new(512, 512, 8);
    let page: Vec<u8> = (0..512u32).map(|i| (i * 7) as u8).collect();
    let parity = codec.encode(&page).unwrap();
    let mut corrupted = page.clone();
    for bit in [3usize, 500, 1800, 4000] {
        corrupted[bit / 8] ^= 1 << (bit % 8);
    }
    b.bench("ecc/bch_encode_512B", || codec.encode(&page).unwrap());
    b.bench("ecc/bch_decode_4err_512B", || {
        let mut data = corrupted.clone();
        codec.decode(&mut data, &parity).unwrap()
    });

    // Event-queue throughput: 100k pop+push pairs through `EventQueue` at
    // the populations simulator runs keep, each next to a raw binary heap
    // on the identical event sequence; the ratio prices the wrapper.
    let gaps = event_gaps(100_000);
    for pending in [8, 32] {
        b.bench(&format!("sim/churn_{pending}_pending"), || {
            churn(pending, black_box(&gaps))
        });
        b.bench(&format!("sim/churn_{pending}_pending_binheap"), || {
            churn_binheap(pending, black_box(&gaps))
        });
    }

    // End-to-end pooled data path: GC-heavy random-write fio job. Energy
    // is a deterministic property of the simulated work, so one probe run
    // supplies the joules annotation for the timed rows.
    let (_, gc_joules) = gc_heavy_throughput();
    b.bench("fio/gc_heavy_throughput", gc_heavy_throughput);
    b.annotate_joules(gc_joules);

    // Fig. 12 read data path: preloaded random 16 KiB reads over 8 LUNs.
    // Each read synthesizes a preloaded page into a LUN page register and
    // streams it to DRAM; the device is built once outside the timing.
    let mut reads = PreloadedReads::new();
    let (_, read_joules) = reads.run();
    b.bench("fio/preloaded_read_throughput", || reads.run());
    b.annotate_joules(read_joules);

    // Write-back cache pair: the identical sequential rewrite job with and
    // without a device-covering cache. The cached run absorbs the rewrite
    // pass in DRAM and programs only the final flush, so it must beat the
    // uncached run on both wall-clock (less simulated flash work) and
    // simulated joules; `scripts/bench_check.py` gates both.
    use babol_ftl::IoPattern as Pat;
    let (_, _, uncached_joules) = write_job(0, Pat::SequentialWrite, 192, 4, false);
    let (_, _, cached_joules) = write_job(96, Pat::SequentialWrite, 192, 4, false);
    assert!(
        cached_joules < uncached_joules,
        "cache failed to absorb rewrites: {cached_joules} J vs {uncached_joules} J"
    );
    b.bench("fio/uncached_write_throughput", || {
        write_job(black_box(0), Pat::SequentialWrite, 192, 4, false)
    });
    b.annotate_joules(uncached_joules);
    b.bench("fio/cached_write_throughput", || {
        write_job(black_box(96), Pat::SequentialWrite, 192, 4, false)
    });
    b.annotate_joules(cached_joules);

    // Telemetry overhead pair: the identical GC-heavy random-write job
    // with the windowed metrics hub off and on. The hub is a pure observer
    // fed by counter delta-snapshots, so the simulated result — including
    // energy — must be bit-identical; only host wall-clock may differ, and
    // `scripts/bench_check.py` gates that difference at a few percent.
    // The pair is timed with interleaved iterations so host speed drift
    // cancels out of the on/off ratio the gate reads.
    let off = write_job(0, Pat::RandomWrite, 280, 4, false);
    let on = write_job(0, Pat::RandomWrite, 280, 4, true);
    assert_eq!(off, on, "metrics sampling perturbed the simulated run");
    b.bench_paired(
        "fio/metrics_off_write",
        "fio/metrics_on_write",
        || write_job(black_box(0), Pat::RandomWrite, 280, 4, false),
        || write_job(black_box(0), Pat::RandomWrite, 280, 4, true),
    );
    b.annotate_joules_for("fio/metrics_off_write", off.2);
    b.annotate_joules_for("fio/metrics_on_write", on.2);

    // Whole-device parallel DES: a 16-channel fio job on 8 workers vs the
    // same job single-threaded. Both do identical simulated work (asserted
    // by event count inside), so their ratio is the parallel speedup;
    // `scripts/bench_check.py` gates it at >= 4x on hosts with >= 8 CPUs.
    let par = multi_channel_fio(8);
    assert_eq!(
        par,
        multi_channel_fio(1),
        "thread counts changed the simulated work"
    );
    b.bench("sim/16ch_fio", || multi_channel_fio(black_box(8)));
    b.annotate_joules(par.1);
    b.bench("sim/16ch_fio_1t", || multi_channel_fio(black_box(1)));
    b.annotate_joules(par.1);

    match b.write_json(&json_path) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => {
            eprintln!("failed to write {json_path}: {e}");
            std::process::exit(1);
        }
    }
}
