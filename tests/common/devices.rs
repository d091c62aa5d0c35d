//! Small versions of the four benchmark workloads (`simbench/`): the same
//! devices, controllers and fio jobs with fewer LUNs, channels and blocks,
//! so a debug-build test can run each one from construction to shutdown.

// Each test binary uses a subset of the workloads.
#![allow(dead_code)]

use babol::factory::{coro_controller, rtos_controller};
use babol::runtime::{RuntimeConfig, SoftController};
use babol::System;
use babol_channel::{Channel, ChannelStats};
use babol_flash::array::ContentMode;
use babol_flash::lun::{LunConfig, LunStats};
use babol_flash::{Geometry, Lun, PackageProfile};
use babol_ftl::{FioWorkload, IoPattern, MultiSsd, MultiSsdConfig, Ssd, SsdConfig};
use babol_sim::{CostModel, Cpu, Freq};
use babol_trace::Tracer;
use babol_ufsm::EmitConfig;

/// One workload: its device, its preconditioning and its measured job.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub channels: u32,
    pub luns: u32,
    /// `None`: the paper geometry. `Some(n)`: "scaled Hynix", two planes
    /// of `n` blocks of [`SCALED_PAGES_PER_BLOCK`] 16 KiB pages, and 25%
    /// over-provisioning.
    pub blocks_per_plane: Option<u32>,
    pub cache: bool,
    pub preload: bool,
    /// `Some(n)`: `n` random reads before the job. `None`: a sequential
    /// fill of the logical space, then one random overwrite of it, so GC
    /// runs at steady state.
    pub warm_reads: Option<u64>,
    pub pattern: IoPattern,
    pub ios: u64,
    pub queue_depth: usize,
}

pub const READ_1CH: Spec = Spec {
    name: "read_1ch",
    channels: 1,
    luns: 8,
    blocks_per_plane: None,
    cache: false,
    preload: true,
    warm_reads: Some(64),
    pattern: IoPattern::RandomRead,
    ios: 400,
    queue_depth: 32,
};

pub const WRITE_GC_1CH: Spec = Spec {
    name: "write_gc_1ch",
    channels: 1,
    luns: 2,
    blocks_per_plane: Some(8),
    cache: false,
    preload: false,
    warm_reads: None,
    pattern: IoPattern::RandomWrite,
    ios: 150,
    queue_depth: 8,
};

pub const READ_16CH: Spec = Spec {
    name: "read_16ch",
    channels: 4,
    luns: 2,
    blocks_per_plane: None,
    cache: false,
    preload: true,
    warm_reads: Some(16),
    pattern: IoPattern::RandomRead,
    ios: 400,
    queue_depth: 16,
};

pub const WRITE_CACHED_16CH: Spec = Spec {
    name: "write_cached_16ch",
    channels: 4,
    luns: 2,
    blocks_per_plane: Some(8),
    cache: true,
    preload: false,
    warm_reads: None,
    pattern: IoPattern::RandomWrite,
    ios: 300,
    queue_depth: 16,
};

/// Pages per block of the scaled geometry (64 in the benchmark; fewer
/// here, so the preconditioning fill is short).
pub const SCALED_PAGES_PER_BLOCK: u32 = 16;

impl Spec {
    /// The per-channel FTL configuration.
    pub fn ssd_config(&self) -> SsdConfig {
        let mut cfg = SsdConfig::fig12(self.luns);
        if let Some(blocks) = self.blocks_per_plane {
            cfg.geometry = Geometry {
                pages_per_block: SCALED_PAGES_PER_BLOCK,
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

    /// Hynix timings with the workload's geometry.
    pub fn profile(&self) -> PackageProfile {
        PackageProfile {
            geometry: self.ssd_config().geometry,
            ..PackageProfile::hynix()
        }
    }

    /// The jobs a device runs, in order: preconditioning, then the
    /// measured job.
    pub fn jobs(&self) -> Vec<FioWorkload> {
        let job = |pattern, total_ios, seed| FioWorkload {
            pattern,
            total_ios,
            queue_depth: self.queue_depth,
            seed,
        };
        let logical = self.ssd_config().logical_pages * self.channels as u64;
        let mut jobs = match self.warm_reads {
            Some(n) => vec![job(IoPattern::RandomRead, n, 11)],
            None => vec![
                job(IoPattern::SequentialWrite, logical, 12),
                job(IoPattern::RandomWrite, logical, 13),
            ],
        };
        jobs.push(job(self.pattern, self.ios, 14));
        jobs
    }

    /// A one-channel device with the coroutine controller (`rtos` picks
    /// the RTOS one); `traced` switches the tracer on.
    pub fn one_channel(&self, traced: bool, rtos: bool) -> (System, SoftController, Ssd) {
        assert_eq!(
            self.channels, 1,
            "{} is a multi-channel workload",
            self.name
        );
        let profile = self.profile();
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
        let (cost, cfg) = if rtos {
            (CostModel::rtos(), RuntimeConfig::rtos())
        } else {
            (CostModel::coroutine(), RuntimeConfig::coroutine())
        };
        let mut sys = System::new(
            Channel::new(luns),
            EmitConfig::nv_ddr2(200),
            Cpu::new(Freq::from_ghz(1), cost),
        );
        if traced {
            sys.trace = Tracer::with_capacity(1024);
        }
        let ctrl = if rtos {
            rtos_controller(profile.layout(), cfg)
        } else {
            coro_controller(profile.layout(), cfg)
        };
        let mut ssd = Ssd::new(self.ssd_config());
        if self.preload {
            ssd.preload();
        }
        (sys, ctrl, ssd)
    }

    /// A multi-channel device on `threads` shard workers.
    pub fn multi(&self, threads: usize, traced: bool) -> MultiSsd {
        let profile = self.profile();
        let mut cfg = MultiSsdConfig::tiny(self.channels, threads);
        cfg.shard = self.ssd_config();
        cfg.watchdog = Some(Ssd::envelope_watchdog_budget(&profile));
        cfg.profile = profile;
        cfg.preload = self.preload;
        cfg.trace_capacity = traced.then_some(1024);
        MultiSsd::new(cfg)
    }
}

/// The device model's work counters of one system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStats {
    pub channel: ChannelStats,
    pub luns: Vec<LunStats>,
    pub cpu_cycles: u64,
}

impl ModelStats {
    /// Reads the counters of a one-channel device.
    pub fn of(sys: &System) -> Self {
        ModelStats {
            channel: sys.channel.stats(),
            luns: (0..sys.channel.lun_count())
                .map(|l| sys.channel.lun(l).stats())
                .collect(),
            cpu_cycles: sys.cpu.busy_cycles(),
        }
    }
}
