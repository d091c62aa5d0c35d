//! The four benchmark workloads and the devices they run on.
//!
//! Every workload is a closed loop: one process keeps `queue_depth` host
//! I/Os outstanding through the public `Ssd::run` (one channel) or
//! `MultiSsd::run` (sixteen channels) entry point. The controller is the
//! coroutine BABOL runtime at 1 GHz on NV-DDR2 200 MT/s everywhere.

use babol::factory::coro_controller;
use babol::runtime::{RuntimeConfig, SoftController};
use babol::system::{Controller, System};
use babol_channel::Channel;
use babol_flash::array::ContentMode;
use babol_flash::lun::LunConfig;
use babol_flash::{Geometry, Lun, PackageProfile};
use babol_ftl::{FioReport, FioWorkload, IoPattern, MultiSsd, MultiSsdConfig, Ssd, SsdConfig};
use babol_sim::rng::SplitMix64;
use babol_sim::{CostModel, Cpu, Freq};
use babol_testkit::digest::Digest;
use babol_trace::Tracer;
use babol_ufsm::EmitConfig;

/// Shard-pool workers on the sixteen-channel workloads. Fixed in the
/// workload definition (it is `nproc` on the reference host) so results
/// never depend on the machine the benchmark lands on.
pub const WORKERS: usize = 2;

/// Ring capacity of every traced run's tracer: the per-layer numbers come
/// from its counters, which are unbounded; the event ring only has to
/// exist.
pub const TRACE_RING: usize = 1024;

/// Preconditioning before the timed chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmUp {
    /// A short random-read job: the buffer pool fills (and, on many
    /// channels, the lazy shard construction runs) before timing starts.
    Reads(u64),
    /// A sequential fill of the logical space, then one random overwrite
    /// of it: GC reaches steady state before timing starts.
    FillThenOverwrite,
}

/// One benchmark workload: a device, its preconditioning, and the job each
/// timed chunk runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// 1 runs `Ssd::run`; more run `MultiSsd::run` on [`WORKERS`] threads.
    pub channels: u32,
    /// LUNs per channel.
    pub luns: u32,
    /// `None`: the paper geometry of `SsdConfig::fig12`. `Some(n)`:
    /// "scaled Hynix" — Hynix timings, 16 KiB pages, 64-page blocks, two
    /// planes of `n` blocks, and 25% over-provisioning.
    pub scaled_blocks_per_plane: Option<u32>,
    /// A write-back cache of 1/8 of each channel's logical pages.
    pub cache: bool,
    /// Pre-map the logical space and preload flash content.
    pub preload: bool,
    pub warm_up: WarmUp,
    pub pattern: IoPattern,
    /// Host I/Os per timed chunk (one `run` call).
    pub chunk_ios: u64,
    pub queue_depth: usize,
}

/// The benchmark's workloads. See README.md for why each one exists.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_1ch",
        channels: 1,
        luns: 8,
        scaled_blocks_per_plane: None,
        cache: false,
        preload: true,
        warm_up: WarmUp::Reads(256),
        pattern: IoPattern::RandomRead,
        chunk_ios: 16_000,
        queue_depth: 32,
    },
    Workload {
        name: "write_gc_1ch",
        channels: 1,
        luns: 4,
        scaled_blocks_per_plane: Some(16),
        cache: false,
        preload: false,
        warm_up: WarmUp::FillThenOverwrite,
        pattern: IoPattern::RandomWrite,
        chunk_ios: 800,
        queue_depth: 8,
    },
    Workload {
        name: "read_16ch",
        channels: 16,
        luns: 2,
        scaled_blocks_per_plane: None,
        cache: false,
        preload: true,
        warm_up: WarmUp::Reads(64),
        pattern: IoPattern::RandomRead,
        chunk_ios: 6_000,
        queue_depth: 64,
    },
    Workload {
        name: "write_cached_16ch",
        channels: 16,
        luns: 2,
        scaled_blocks_per_plane: Some(8),
        cache: true,
        preload: false,
        warm_up: WarmUp::FillThenOverwrite,
        pattern: IoPattern::RandomWrite,
        chunk_ios: 1_600,
        queue_depth: 64,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The seed of stream `stream` of a run seeded with `seed`. Timed chunk
/// `i` uses stream `i`; preconditioning uses [`SETUP_STREAM`] and up, so
/// no chunk repeats another's or the warm-up's inputs.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// First seed stream reserved for preconditioning jobs.
pub const SETUP_STREAM: u64 = 1 << 32;

impl Workload {
    /// The per-channel FTL configuration.
    pub fn ssd_config(&self) -> SsdConfig {
        let mut cfg = SsdConfig::fig12(self.luns);
        if let Some(blocks) = self.scaled_blocks_per_plane {
            cfg.geometry = Geometry {
                pages_per_block: 64,
                blocks_per_plane: blocks,
                planes: 2,
                ..Geometry::paper_16k()
            };
            cfg.logical_pages = cfg.geometry.pages_per_lun() * self.luns as u64 * 3 / 4;
        }
        if self.cache {
            cfg.cache_pages = (cfg.logical_pages / 8) as usize;
        }
        cfg
    }

    /// The flash package on every LUN: Hynix, with the workload's geometry.
    pub fn profile(&self) -> PackageProfile {
        PackageProfile {
            geometry: self.ssd_config().geometry,
            ..PackageProfile::hynix()
        }
    }

    /// One channel of this workload as a one-channel device: the same
    /// per-channel configuration with 1/`channels` of the load. The traced
    /// sixteen-channel runs time the controller on it, because the shards
    /// inside `MultiSsd` build their controllers themselves.
    pub fn one_channel(&self) -> Workload {
        let per = |n: u64| (n / self.channels as u64).max(1);
        Workload {
            channels: 1,
            chunk_ios: per(self.chunk_ios),
            queue_depth: per(self.queue_depth as u64) as usize,
            warm_up: match self.warm_up {
                WarmUp::Reads(n) => WarmUp::Reads(per(n)),
                other => other,
            },
            ..*self
        }
    }

    /// The job timed chunk `index` runs.
    pub fn chunk_job(&self, seed: u64, index: u64) -> FioWorkload {
        FioWorkload {
            pattern: self.pattern,
            total_ios: self.chunk_ios,
            queue_depth: self.queue_depth,
            seed: derive_seed(seed, index),
        }
    }

    /// The preconditioning jobs, in order.
    pub fn warm_up_jobs(&self, seed: u64) -> Vec<FioWorkload> {
        let logical = self.ssd_config().logical_pages * self.channels as u64;
        let job = |pattern, total_ios, stream| FioWorkload {
            pattern,
            total_ios,
            queue_depth: self.queue_depth,
            seed: derive_seed(seed, SETUP_STREAM + stream),
        };
        match self.warm_up {
            WarmUp::Reads(n) => vec![job(IoPattern::RandomRead, n, 0)],
            WarmUp::FillThenOverwrite => vec![
                job(IoPattern::SequentialWrite, logical, 0),
                job(IoPattern::RandomWrite, logical, 1),
            ],
        }
    }

    /// Builds a one-channel device; `wrap` may put the controller behind a
    /// probe. `traced` switches the tracer on.
    pub fn build_one<C: Controller>(
        &self,
        traced: bool,
        wrap: impl FnOnce(SoftController) -> C,
    ) -> OneChannel<C> {
        assert_eq!(
            self.channels, 1,
            "{} is not a one-channel workload",
            self.name
        );
        let profile = self.profile();
        // The multi-channel device preloads the same content.
        let content = if self.preload {
            ContentMode::Preloaded { seed: 0xBAB01 }
        } else {
            ContentMode::Pristine
        };
        let luns = (0..self.luns)
            .map(|i| {
                Lun::new(LunConfig {
                    profile: profile.clone(),
                    content,
                    seed: i as u64 + 1,
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
        if traced {
            sys.trace = Tracer::with_capacity(TRACE_RING);
        }
        let ctrl = wrap(coro_controller(
            profile.layout(),
            RuntimeConfig::coroutine(),
        ));
        let mut ssd = Ssd::new(self.ssd_config());
        if self.preload {
            ssd.preload();
        }
        OneChannel { sys, ctrl, ssd }
    }

    /// Builds a multi-channel device on `threads` shard workers.
    pub fn build_many(&self, threads: usize, traced: bool) -> MultiSsd {
        let profile = self.profile();
        // `tiny` supplies the rest: a 20 µs barrier window, NV-DDR2 200 MT/s
        // and coroutine controllers at 1 GHz.
        let mut cfg = MultiSsdConfig::tiny(self.channels, threads);
        cfg.shard = self.ssd_config();
        cfg.watchdog = Some(Ssd::envelope_watchdog_budget(&profile));
        cfg.profile = profile;
        cfg.preload = self.preload;
        cfg.trace_capacity = traced.then_some(TRACE_RING);
        MultiSsd::new(cfg)
    }
}

/// A one-channel device: system, controller and FTL.
pub struct OneChannel<C> {
    pub sys: System,
    pub ctrl: C,
    pub ssd: Ssd,
}

/// What one `run` call produced.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// The job's report, with every counter a delta over this job (the
    /// one-channel FTL reports totals since construction).
    pub fio: FioReport,
    /// Barrier rounds (0 on one channel, which has no barrier).
    pub rounds: u64,
    /// FNV-1a over the report, plus the completion log on many channels.
    pub digest: u64,
}

/// A device the benchmark runs fio jobs on.
pub trait Runs {
    /// Runs one fio job to completion.
    fn run(&mut self, job: &FioWorkload) -> Chunk;

    /// Runs the workload's preconditioning jobs.
    fn warm_up(&mut self, w: &Workload, seed: u64) {
        for job in w.warm_up_jobs(seed) {
            self.run(&job);
        }
    }
}

impl<C: Controller> Runs for OneChannel<C> {
    fn run(&mut self, job: &FioWorkload) -> Chunk {
        let ssd = &self.ssd;
        let before = [
            ssd.gc_cycles,
            ssd.energy().total_pj(),
            ssd.cache().hits(),
            ssd.cache().misses(),
            ssd.cache().dirty_evicts(),
            ssd.wear_migrations(),
            ssd.blocks_retired(),
        ];
        let mut fio = self.ssd.run(&mut self.sys, &mut self.ctrl, *job);
        fio.gc_cycles -= before[0];
        fio.energy_pj -= before[1];
        fio.cache_hits -= before[2];
        fio.cache_misses -= before[3];
        fio.cache_dirty_evicts -= before[4];
        fio.wear_migrations -= before[5];
        fio.blocks_retired -= before[6];
        let mut d = Digest::new();
        d.section("fio", format!("{fio:?}"));
        Chunk {
            fio,
            rounds: 0,
            digest: d.finish(),
        }
    }
}

impl Runs for MultiSsd {
    fn run(&mut self, job: &FioWorkload) -> Chunk {
        let r = MultiSsd::run(self, job);
        let mut d = Digest::new();
        d.section("fio", format!("{:?}", r.fio));
        d.section("log", format!("{:?}", r.completion_log));
        Chunk {
            fio: r.fio,
            rounds: r.rounds,
            digest: d.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_seeds_are_distinct_and_reproducible() {
        let w = WORKLOADS[0];
        let seeds: std::collections::BTreeSet<u64> =
            (0..1000).map(|i| w.chunk_job(7, i).seed).collect();
        assert_eq!(seeds.len(), 1000, "two chunks share a seed");
        assert_eq!(w.chunk_job(7, 3).seed, w.chunk_job(7, 3).seed);
        assert_ne!(w.chunk_job(7, 3).seed, w.chunk_job(8, 3).seed);
        assert_eq!(w.chunk_job(7, 3).seed, derive_seed(7, 3));
        for job in WORKLOADS[1].warm_up_jobs(7) {
            assert!(
                !seeds.contains(&job.seed),
                "a warm-up job reuses a chunk seed"
            );
        }
    }

    #[test]
    fn scaled_devices_keep_a_quarter_spare() {
        let cfg = find("write_gc_1ch").unwrap().ssd_config();
        assert_eq!(cfg.geometry.page_size, 16 * 1024);
        assert_eq!(cfg.geometry.pages_per_lun(), 64 * 16 * 2);
        assert_eq!(cfg.logical_pages * 4, cfg.geometry.pages_per_lun() * 4 * 3);
        let cached = find("write_cached_16ch").unwrap().ssd_config();
        assert_eq!(cached.cache_pages as u64, cached.logical_pages / 8);
    }

    #[test]
    fn one_channel_replica_divides_the_load() {
        let w = find("read_16ch").unwrap().one_channel();
        assert_eq!((w.channels, w.chunk_ios, w.queue_depth), (1, 375, 4));
        assert_eq!(w.warm_up, WarmUp::Reads(4));
    }
}
