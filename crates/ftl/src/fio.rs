//! fio-like workload definitions.
//!
//! The paper drives its end-to-end experiment with fio: "We initialized the
//! baseline and the modified OpenSSDs with data and issued two READ
//! workloads against them: one sequential and one random" (§VI-C). The
//! types here describe such a job, and one closed-loop client issues it:
//! [`crate::Ssd::run`] hands the client to the FTL's drive loop, and
//! [`crate::MultiSsd::run`] stripes its commands over the channels.

use std::collections::{BTreeMap, VecDeque};

use babol_sim::rng::SplitMix64;
use babol_sim::{SimDuration, SimTime};
use babol_trace::{FtlCounter, FtlCounters, MetricsHub};

use crate::ssd::{Host, Ssd};

/// Access pattern of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoPattern {
    /// Ascending logical pages, wrapping at the end of the device.
    SequentialRead,
    /// Uniformly random logical pages.
    RandomRead,
    /// Ascending writes.
    SequentialWrite,
    /// Uniformly random writes.
    RandomWrite,
}

impl IoPattern {
    /// True for write patterns.
    pub fn is_write(self) -> bool {
        matches!(self, IoPattern::SequentialWrite | IoPattern::RandomWrite)
    }
}

/// One fio job.
#[derive(Debug, Clone, Copy)]
pub struct FioWorkload {
    /// Access pattern.
    pub pattern: IoPattern,
    /// Number of I/Os to issue (each one logical page).
    pub total_ios: u64,
    /// Host queue depth (outstanding I/Os).
    pub queue_depth: usize,
    /// RNG seed for random patterns.
    pub seed: u64,
}

impl FioWorkload {
    /// Produces the logical page of I/O number `i`.
    pub fn lpn_of(&self, i: u64, logical_pages: u64, rng: &mut SplitMix64) -> u64 {
        match self.pattern {
            IoPattern::SequentialRead | IoPattern::SequentialWrite => i % logical_pages,
            IoPattern::RandomRead | IoPattern::RandomWrite => rng.next_below(logical_pages),
        }
    }
}

/// One host command (on a multi-channel device, routed to a shard with its
/// LPN translated to the shard-local space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCmd {
    /// Global host I/O id.
    pub id: u64,
    /// Logical page.
    pub lpn: u64,
    /// DRAM staging slot index: a queue-depth slot no other outstanding
    /// I/O holds.
    pub slot: u64,
    /// Write (`true`) or read.
    pub write: bool,
}

/// The closed-loop fio client: draws a job's I/Os from its seeded
/// generator, keeps its queue depth outstanding and records each I/O's
/// latency.
#[derive(Debug)]
pub(crate) struct FioClient {
    wl: FioWorkload,
    logical_pages: u64,
    rng: SplitMix64,
    next_id: u64,
    /// Queue-depth slots no outstanding I/O holds, in the order they were
    /// freed, so in-order completion hands out `id % queue_depth`.
    free_slots: VecDeque<u64>,
    /// The slot of the command last handed out, until it is issued.
    handed: Option<u64>,
    /// Issue time and staging slot of every outstanding I/O.
    pub(crate) inflight: BTreeMap<u64, (SimTime, u64)>,
    /// Latencies of the completed I/Os, in completion order.
    pub(crate) latencies: Vec<SimDuration>,
}

impl FioClient {
    /// A client issuing `wl` over `logical_pages` logical pages.
    pub(crate) fn new(wl: FioWorkload, logical_pages: u64) -> Self {
        FioClient {
            wl,
            logical_pages,
            rng: SplitMix64::new(wl.seed),
            next_id: 0,
            free_slots: (0..wl.queue_depth as u64).collect(),
            handed: None,
            inflight: BTreeMap::new(),
            latencies: Vec::with_capacity(wl.total_ios as usize),
        }
    }
}

impl Host for FioClient {
    fn next(&mut self) -> Option<HostCmd> {
        if self.inflight.len() >= self.wl.queue_depth || self.next_id >= self.wl.total_ios {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let slot = self
            .free_slots
            .pop_front()
            .expect("a free slot below queue depth");
        self.handed = Some(slot);
        Some(HostCmd {
            id,
            lpn: self.wl.lpn_of(id, self.logical_pages, &mut self.rng),
            slot,
            write: self.wl.pattern.is_write(),
        })
    }

    fn issued(&mut self, id: u64, at: SimTime) {
        let slot = self
            .handed
            .take()
            .expect("issued a command never handed out");
        self.inflight.insert(id, (at, slot));
    }

    fn complete(&mut self, id: u64, at: SimTime, metrics: &mut MetricsHub) {
        let (t0, slot) = self.inflight.remove(&id).expect("unknown host id");
        self.free_slots.push_back(slot);
        let latency = at - t0;
        self.latencies.push(latency);
        metrics.observe_latency(at, latency);
    }

    fn finished(&self) -> bool {
        self.latencies.len() as u64 >= self.wl.total_ios
    }

    fn host_step(&mut self, ssd: &mut Ssd, now: SimTime) {
        ssd.metrics_sample(now, self.inflight.len());
    }
}

/// Result of one fio job.
#[derive(Debug, Clone)]
pub struct FioReport {
    /// I/Os completed.
    pub ios: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Job wall time (simulated).
    pub elapsed: SimDuration,
    /// Mean per-I/O latency.
    pub mean_latency: SimDuration,
    /// Median per-I/O latency.
    pub p50_latency: SimDuration,
    /// 95th-percentile latency.
    pub p95_latency: SimDuration,
    /// 99th-percentile latency.
    pub p99_latency: SimDuration,
    /// Garbage-collection cycles the device has run (total since the SSD
    /// was built, like the counters below).
    pub gc_cycles: u64,
    /// Flash energy spent, picojoules (reads + programs + erases + bus
    /// transfers).
    pub energy_pj: u64,
    /// Write-back cache: writes absorbed while the page was resident.
    pub cache_hits: u64,
    /// Write-back cache: writes that claimed a fresh slot.
    pub cache_misses: u64,
    /// Write-back cache: evictions that had to program flash first.
    pub cache_dirty_evicts: u64,
    /// Wear-leveling migrations of cold blocks.
    pub wear_migrations: u64,
    /// Blocks retired (factory map plus grown failures).
    pub blocks_retired: u64,
}

impl FioReport {
    /// Summarizes a finished job: the `latencies` of its completed I/Os (in
    /// any order), each moving one `page` of bytes, over `elapsed`, with
    /// the production counters of `counters`.
    pub(crate) fn summarize(
        mut latencies: Vec<SimDuration>,
        page: usize,
        elapsed: SimDuration,
        counters: &FtlCounters,
    ) -> FioReport {
        latencies.sort();
        let ios = latencies.len() as u64;
        let pct = |p: f64| SimDuration::percentile(&latencies, p);
        FioReport {
            ios,
            bytes: ios * page as u64,
            elapsed,
            mean_latency: latencies.iter().copied().sum::<SimDuration>() / ios.max(1),
            p50_latency: pct(0.50),
            p95_latency: pct(0.95),
            p99_latency: pct(0.99),
            gc_cycles: counters[FtlCounter::GcCycles],
            energy_pj: counters[FtlCounter::EnergyPj],
            cache_hits: counters[FtlCounter::CacheHits],
            cache_misses: counters[FtlCounter::CacheMisses],
            cache_dirty_evicts: counters[FtlCounter::CacheDirtyEvicts],
            wear_migrations: counters[FtlCounter::WearMigrations],
            blocks_retired: counters[FtlCounter::BlocksRetired],
        }
    }

    /// Bandwidth in MB/s (10^6 bytes per second).
    pub fn bandwidth_mbps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.bytes as f64 / 1e6 / self.elapsed.as_secs_f64()
    }

    /// I/O operations per second.
    pub fn iops(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ios as f64 / self.elapsed.as_secs_f64()
    }

    /// Flash energy spent, joules (1 pJ = 1e-12 J).
    pub fn joules(&self) -> f64 {
        self.energy_pj as f64 * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_wraps() {
        let w = FioWorkload {
            pattern: IoPattern::SequentialRead,
            total_ios: 10,
            queue_depth: 1,
            seed: 0,
        };
        let mut rng = SplitMix64::new(0);
        assert_eq!(w.lpn_of(0, 4, &mut rng), 0);
        assert_eq!(w.lpn_of(5, 4, &mut rng), 1);
    }

    #[test]
    fn random_stays_in_range_and_is_seeded() {
        let w = FioWorkload {
            pattern: IoPattern::RandomRead,
            total_ios: 10,
            queue_depth: 1,
            seed: 7,
        };
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for i in 0..1000 {
            let x = w.lpn_of(i, 50, &mut a);
            assert!(x < 50);
            assert_eq!(x, w.lpn_of(i, 50, &mut b));
        }
    }

    /// An engine run and an fio job rank the same latencies alike: with 16
    /// samples the median is the one at the truncated rank 15 * 0.5 = 7.
    #[test]
    fn run_and_fio_reports_share_one_percentile_rule() {
        use babol::system::{Completion, IoKind, IoRequest, RunReport};
        let lats: Vec<SimDuration> = (1..=16).map(SimDuration::from_micros).collect();
        let req = IoRequest {
            id: 0,
            kind: IoKind::Read,
            lun: 0,
            block: 0,
            page: 0,
            col: 0,
            len: 0,
            dram_addr: 0,
        };
        let run = RunReport {
            completions: lats
                .iter()
                .map(|&lat| Completion {
                    req,
                    submitted: SimTime::ZERO,
                    completed: SimTime::ZERO + lat,
                })
                .collect(),
            elapsed: SimDuration::ZERO,
            bytes: 0,
            bus_busy: SimDuration::ZERO,
        };
        let counters = FtlCounters::default();
        let fio = FioReport::summarize(lats, 0, SimDuration::ZERO, &counters);
        assert_eq!(fio.p50_latency, SimDuration::from_micros(8));
        assert_eq!(run.latency_percentile(0.5), fio.p50_latency);
        assert_eq!(run.latency_percentile(0.99), fio.p99_latency);
    }

    #[test]
    fn report_math() {
        let r = FioReport {
            ios: 100,
            bytes: 100 * 16384,
            elapsed: SimDuration::from_millis(10),
            mean_latency: SimDuration::from_micros(200),
            p50_latency: SimDuration::from_micros(180),
            p95_latency: SimDuration::from_micros(350),
            p99_latency: SimDuration::from_micros(400),
            gc_cycles: 0,
            energy_pj: 2_500_000_000,
            cache_hits: 0,
            cache_misses: 0,
            cache_dirty_evicts: 0,
            wear_migrations: 0,
            blocks_retired: 0,
        };
        assert!((r.bandwidth_mbps() - 163.84).abs() < 0.01);
        assert!((r.iops() - 10_000.0).abs() < 1e-6);
        assert!((r.joules() - 2.5e-3).abs() < 1e-12);
    }

    #[test]
    fn pattern_classification() {
        assert!(IoPattern::RandomWrite.is_write());
        assert!(!IoPattern::SequentialRead.is_write());
    }
}
