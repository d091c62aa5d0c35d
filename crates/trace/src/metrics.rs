//! Streaming sim-time telemetry: windowed metrics frames.
//!
//! A [`MetricsHub`] slices simulated time into fixed windows (`[k·W,
//! (k+1)·W)` picoseconds from time zero) and accumulates one
//! [`MetricsFrame`] per window. It is fed two ways, both cheap:
//!
//! * **Latency observations** — each completed host op is routed to the
//!   frame containing its *completion* timestamp and recorded into that
//!   frame's [`Histogram`]. Because routing is by timestamp, merging the
//!   per-window histograms reproduces the whole-run histogram exactly
//!   (bucket-for-bucket — the property test in `tests/properties.rs`
//!   checks this), and ops harvested slightly after the simulator crossed
//!   a boundary still land in the right window.
//! * **Delta snapshots** — the driver loop periodically hands the hub a
//!   [`MetricsSnapshot`] of counters the FTL already maintains (cache
//!   hits, GC cycles, energy, wear). The hub attributes the delta since
//!   the previous snapshot to the window containing `now` and stamps the
//!   snapshot's gauges (queue depth, dirty pages, free blocks) as the
//!   window's closing values. No new hot-path events exist: sampling cost
//!   is a dozen integer subtractions per driver-loop iteration, and the
//!   disabled hub costs one predictable branch.
//!
//! Frames from a run (or from every shard of a [`MultiSsd`]-style run)
//! assemble into a [`MetricsSeries`], which exports as a stable
//! `babol-metrics-v1` line-JSON sidecar, parses back offline, and renders
//! as an ASCII sparkline dashboard with SLO verdicts
//! ([`render_metrics_dashboard`]).
//!
//! `MultiSsd` is defined in `babol-ftl`; here the multi-shard shape is
//! just "one hub per shard plus a device-level hub for host latencies",
//! combined by [`MetricsSeries::from_shards`].

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use babol_sim::{SimDuration, SimTime};

use crate::hist::Histogram;
use crate::parse::read_records;
use crate::slo::{SloSpec, SloVerdict};
use crate::ParseError;

/// Schema tag on the first line of every `metrics.jsonl` export.
pub const METRICS_SCHEMA: &str = "babol-metrics-v1";

/// Shard tag used for device-level (cross-shard) frames in the export.
const DEVICE_SHARD: i64 = -1;

/// The FTL's production counters, named by their `babol-metrics-v1` keys
/// and listed in export order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlCounter {
    /// Write-cache hits: host writes absorbed while the page was resident,
    /// and reads whose dirty copy was flushed first.
    CacheHits,
    /// Write-cache misses: host writes that claimed a fresh slot.
    CacheMisses,
    /// Dirty cache evictions flushed to flash.
    CacheDirtyEvicts,
    /// Foreground GC cycles.
    GcCycles,
    /// Flash energy spent, picojoules.
    EnergyPj,
    /// Cold blocks migrated by the wear leveler.
    WearMigrations,
    /// Blocks retired to the bad-block map (factory map plus grown).
    BlocksRetired,
}

impl FtlCounter {
    /// Number of counters.
    pub const COUNT: usize = 7;

    /// All counters, in export order.
    pub const ALL: [FtlCounter; FtlCounter::COUNT] = [
        FtlCounter::CacheHits,
        FtlCounter::CacheMisses,
        FtlCounter::CacheDirtyEvicts,
        FtlCounter::GcCycles,
        FtlCounter::EnergyPj,
        FtlCounter::WearMigrations,
        FtlCounter::BlocksRetired,
    ];

    /// The `babol-metrics-v1` key.
    pub const fn name(self) -> &'static str {
        match self {
            FtlCounter::CacheHits => "cache_hits",
            FtlCounter::CacheMisses => "cache_misses",
            FtlCounter::CacheDirtyEvicts => "cache_dirty_evicts",
            FtlCounter::GcCycles => "gc_cycles",
            FtlCounter::EnergyPj => "energy_pj",
            FtlCounter::WearMigrations => "wear_migrations",
            FtlCounter::BlocksRetired => "blocks_retired",
        }
    }
}

/// One value per [`FtlCounter`]. The FTL gathers its totals into this set
/// once, and every view reads it: fio reports, shard deltas, metrics
/// frames and the tracer's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlCounters([u64; FtlCounter::COUNT]);

impl FtlCounters {
    /// The set with each counter `c` at `value(c)`.
    pub fn from_fn(value: impl FnMut(FtlCounter) -> u64) -> FtlCounters {
        FtlCounters(FtlCounter::ALL.map(value))
    }

    /// Each counter's growth from `base` to `self`.
    pub fn since(&self, base: &FtlCounters) -> FtlCounters {
        FtlCounters(std::array::from_fn(|i| self.0[i] - base.0[i]))
    }
}

impl std::ops::Index<FtlCounter> for FtlCounters {
    type Output = u64;

    fn index(&self, c: FtlCounter) -> &u64 {
        &self.0[c as usize]
    }
}

impl std::ops::IndexMut<FtlCounter> for FtlCounters {
    fn index_mut(&mut self, c: FtlCounter) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl std::ops::AddAssign for FtlCounters {
    fn add_assign(&mut self, other: FtlCounters) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// Controller state handed to [`MetricsHub::sample`]: the cumulative FTL
/// counters (the hub attributes successive differences to windows) and
/// instantaneous gauges (the hub stamps the last value seen inside each
/// window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The production counters.
    pub counters: FtlCounters,
    /// Host ops in flight right now (gauge).
    pub queue_depth: u32,
    /// Dirty pages resident in the write cache (gauge).
    pub cache_dirty: u32,
    /// Total pages resident in the write cache (gauge).
    pub cache_len: u32,
    /// Free blocks across all LUNs — the GC debt gauge.
    pub free_blocks: u32,
    /// Worst per-LUN erase-count spread (gauge).
    pub wear_spread: u32,
}

/// One sim-time window's worth of telemetry.
#[derive(Debug, Clone, Default)]
pub struct MetricsFrame {
    /// Window index: this frame covers `[index·W, (index+1)·W)`.
    pub index: u64,
    /// Host ops completed in the window.
    pub ops: u64,
    /// The counters' growth in the window and the gauges at the window's
    /// last sample.
    pub snap: MetricsSnapshot,
    /// Latencies of ops whose completion fell in the window.
    pub lat: Histogram,
}

impl MetricsFrame {
    /// Start of the window this frame covers.
    pub fn start(&self, window: SimDuration) -> SimTime {
        SimTime::from_picos(self.index * window.as_picos())
    }

    /// Exclusive end of the window this frame covers.
    pub fn end(&self, window: SimDuration) -> SimTime {
        SimTime::from_picos((self.index + 1) * window.as_picos())
    }

    /// Completed ops per second, from the window's op count.
    pub fn iops(&self, window: SimDuration) -> u64 {
        (u128::from(self.ops) * 1_000_000_000_000u128 / u128::from(window.as_picos())) as u64
    }

    /// Cache hit fraction in basis points (10000 = all hits); 0 when the
    /// window saw no cache traffic.
    pub fn cache_hit_bp(&self) -> u64 {
        let c = &self.snap.counters;
        let (hits, misses) = (c[FtlCounter::CacheHits], c[FtlCounter::CacheMisses]);
        (hits * 10_000).checked_div(hits + misses).unwrap_or(0)
    }
}

/// Windowed telemetry collector. Starts disabled (every record method is
/// an early return on one `bool`); [`MetricsHub::new`] turns it on.
#[derive(Debug, Clone)]
pub struct MetricsHub {
    enabled: bool,
    window_ps: u64,
    shard: u32,
    primed: bool,
    base: FtlCounters,
    end_ps: u64,
    frames: Vec<MetricsFrame>,
}

impl Default for MetricsHub {
    fn default() -> Self {
        MetricsHub::disabled()
    }
}

impl MetricsHub {
    /// A disabled hub: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        MetricsHub {
            enabled: false,
            window_ps: u64::MAX,
            shard: 0,
            primed: false,
            base: FtlCounters::default(),
            end_ps: 0,
            frames: Vec::new(),
        }
    }

    /// An enabled hub with the given window. Windows shorter than 1 ns are
    /// clamped up: frame storage is dense in window index, so a picosecond
    /// window over a millisecond run would allocate a billion frames.
    pub fn new(window: SimDuration) -> Self {
        let mut hub = MetricsHub::disabled();
        hub.enabled = true;
        hub.window_ps = window.as_picos().max(1_000);
        hub
    }

    /// Whether this hub is collecting.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The window length.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_picos(self.window_ps)
    }

    /// Tags the hub with the shard (channel) it observes.
    pub fn set_shard(&mut self, shard: u32) {
        self.shard = shard;
    }

    /// The shard (channel) this hub observes; 0 for single-system runs.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Latest sim time this hub has seen (picoseconds).
    pub fn end_ps(&self) -> u64 {
        self.end_ps
    }

    /// The frames collected so far, one per window, index-contiguous from
    /// window 0 (quiet windows are present but empty).
    pub fn frames(&self) -> &[MetricsFrame] {
        &self.frames
    }

    fn frame_at(&mut self, at_ps: u64) -> &mut MetricsFrame {
        let idx = at_ps / self.window_ps;
        while self.frames.len() <= idx as usize {
            let index = self.frames.len() as u64;
            self.frames.push(MetricsFrame {
                index,
                ..MetricsFrame::default()
            });
        }
        self.end_ps = self.end_ps.max(at_ps);
        &mut self.frames[idx as usize]
    }

    /// Establishes the delta baseline without attributing anything — call
    /// once at run start so totals accumulated before the run (preload,
    /// a previous job on the same stack) don't pollute window 0.
    pub fn prime(&mut self, snap: &MetricsSnapshot) {
        if !self.enabled || self.primed {
            return;
        }
        self.base = snap.counters;
        self.primed = true;
    }

    /// Attributes the counter deltas since the previous sample to the
    /// window containing `now` and stamps the gauges as that window's
    /// closing values. The first call primes the baseline (see
    /// [`MetricsHub::prime`]).
    #[inline]
    pub fn sample(&mut self, now: SimTime, snap: &MetricsSnapshot) {
        if !self.enabled {
            return;
        }
        if !self.primed {
            self.base = snap.counters;
            self.primed = true;
        }
        let delta = snap.counters.since(&self.base);
        self.base = snap.counters;
        let f = &mut self.frame_at(now.as_picos()).snap;
        f.counters += delta;
        *f = MetricsSnapshot {
            counters: f.counters,
            ..*snap
        };
    }

    /// Records one completed host op: routed by completion time, so
    /// merging per-window histograms reproduces the whole-run histogram.
    #[inline]
    pub fn observe_latency(&mut self, completed_at: SimTime, latency: SimDuration) {
        if !self.enabled {
            return;
        }
        let f = self.frame_at(completed_at.as_picos());
        f.ops += 1;
        f.lat.record(latency);
    }

    /// Counts one completed op without a latency (used by shard hubs in a
    /// multi-channel device, where issue→complete latency is only known
    /// at the coordinator).
    #[inline]
    pub fn note_op(&mut self, completed_at: SimTime) {
        if !self.enabled {
            return;
        }
        self.frame_at(completed_at.as_picos()).ops += 1;
    }

    /// Extends the frame vector to cover `now`, so a run that went quiet
    /// still closes with `floor(end/W) + 1` frames.
    pub fn touch(&mut self, now: SimTime) {
        if !self.enabled {
            return;
        }
        self.frame_at(now.as_picos());
    }

    /// All per-window latency histograms merged into one.
    pub fn merged_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for f in &self.frames {
            h.merge(&f.lat);
        }
        h
    }
}

/// A complete run's telemetry: device-level frames (what SLOs are judged
/// on) plus optional per-shard frame lanes for multi-channel devices.
#[derive(Debug, Clone)]
pub struct MetricsSeries {
    /// Window length in picoseconds.
    pub window_ps: u64,
    /// Number of shards that contributed (1 for single-system runs).
    pub shards: u32,
    /// Latest sim time any contributing hub saw, picoseconds.
    pub end_ps: u64,
    /// Device-level frames, index-contiguous from window 0.
    pub device: Vec<MetricsFrame>,
    /// Per-shard frames (`per_shard[s]` = shard `s`), empty when the run
    /// had a single shard.
    pub per_shard: Vec<Vec<MetricsFrame>>,
}

/// Pads `frames` with empty frames until it has `len` entries.
fn pad_frames(frames: &mut Vec<MetricsFrame>, len: usize) {
    while frames.len() < len {
        let index = frames.len() as u64;
        frames.push(MetricsFrame {
            index,
            ..MetricsFrame::default()
        });
    }
}

impl MetricsSeries {
    /// A series from a single-system run: the one hub's frames are the
    /// device frames.
    pub fn from_hub(hub: &MetricsHub) -> MetricsSeries {
        MetricsSeries {
            window_ps: hub.window_ps,
            shards: 1,
            end_ps: hub.end_ps,
            device: hub.frames.clone(),
            per_shard: Vec::new(),
        }
    }

    /// A series from a multi-channel run: `device_hub` carries host-op
    /// latencies observed at the coordinator; `shard_hubs[s]` carries
    /// shard `s`'s counters and gauges. Device frames take latencies from
    /// the coordinator and sum counters (and gauges, which are per-shard
    /// quantities like queue depth) across shards.
    pub fn from_shards(device_hub: &MetricsHub, shard_hubs: &[&MetricsHub]) -> MetricsSeries {
        let window_ps = device_hub.window_ps;
        let mut end_ps = device_hub.end_ps;
        let mut len = device_hub.frames.len();
        for h in shard_hubs {
            debug_assert_eq!(h.window_ps, window_ps, "shard hubs must share the window");
            end_ps = end_ps.max(h.end_ps);
            len = len.max(h.frames.len());
        }
        let mut device = device_hub.frames.clone();
        pad_frames(&mut device, len);
        let mut per_shard = Vec::with_capacity(shard_hubs.len());
        for h in shard_hubs {
            let mut frames = h.frames.clone();
            pad_frames(&mut frames, len);
            for (d, s) in device.iter_mut().zip(frames.iter()) {
                let (d, s) = (&mut d.snap, &s.snap);
                d.counters += s.counters;
                d.queue_depth += s.queue_depth;
                d.cache_dirty += s.cache_dirty;
                d.cache_len += s.cache_len;
                d.free_blocks += s.free_blocks;
                d.wear_spread = d.wear_spread.max(s.wear_spread);
            }
            per_shard.push(frames);
        }
        MetricsSeries {
            window_ps,
            shards: shard_hubs.len().max(1) as u32,
            end_ps,
            device,
            per_shard,
        }
    }

    /// The window length.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_picos(self.window_ps)
    }

    /// All device-frame latency histograms merged into one.
    pub fn merged_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for f in &self.device {
            h.merge(&f.lat);
        }
        h
    }

    /// Renders the series (plus SLO verdicts) as `babol-metrics-v1`
    /// line-JSON: a header line, one line per device frame (`"shard":-1`),
    /// one line per shard frame, one line per SLO verdict, and a footer.
    /// Every value is an integer or a comma-free string, so the flat
    /// parser in this crate reads it back without a JSON library, and the
    /// bytes are deterministic for a deterministic run.
    pub fn to_json_lines(&self, verdicts: &[SloVerdict]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"{{"schema":"{}","window_ps":{},"shards":{},"frames":{}}}"#,
            METRICS_SCHEMA,
            self.window_ps,
            self.shards,
            self.device.len()
        );
        for f in &self.device {
            push_frame(&mut out, DEVICE_SHARD, f);
        }
        for (sid, frames) in self.per_shard.iter().enumerate() {
            for f in frames {
                push_frame(&mut out, sid as i64, f);
            }
        }
        for v in verdicts {
            let _ = writeln!(
                out,
                r#"{{"slo":"{}","evaluated":{},"breaches":{},"longest_streak":{},"burn_short_bp":{},"burn_long_bp":{},"ok":{}}}"#,
                v.spec,
                v.evaluated,
                v.breaches,
                v.longest_streak,
                v.burn_short_bp,
                v.burn_long_bp,
                v.ok()
            );
        }
        let _ = writeln!(
            out,
            r#"{{"footer":true,"frames":{},"shards":{},"window_ps":{},"end_ps":{}}}"#,
            self.device.len(),
            self.shards,
            self.window_ps,
            self.end_ps
        );
        out
    }

    /// Writes [`MetricsSeries::to_json_lines`] to `path`.
    pub fn write_json_lines(
        &self,
        path: impl AsRef<Path>,
        verdicts: &[SloVerdict],
    ) -> io::Result<()> {
        std::fs::write(path, self.to_json_lines(verdicts))
    }
}

fn push_frame(out: &mut String, shard: i64, f: &MetricsFrame) {
    let _ = write!(
        out,
        r#"{{"frame":{},"shard":{},"ops":{}"#,
        f.index, shard, f.ops
    );
    let s = &f.snap;
    for c in FtlCounter::ALL {
        let _ = write!(out, r#","{}":{}"#, c.name(), s.counters[c]);
    }
    let _ = write!(
        out,
        r#","qd":{},"cache_dirty":{},"cache_len":{},"free_blocks":{},"wear_spread":{},"lat_count":{},"lat_sum_ps":{},"lat_max_ps":{}"#,
        s.queue_depth,
        s.cache_dirty,
        s.cache_len,
        s.free_blocks,
        s.wear_spread,
        f.lat.count(),
        f.lat.sum_ps(),
        f.lat.max().as_picos()
    );
    // Sparse bucket encoding, space-separated so the value stays a single
    // comma-free token for the flat line parser: "bucket:count ...".
    out.push_str(",\"lat_buckets\":\"");
    let mut first = true;
    for (i, &n) in f.lat.buckets().iter().enumerate() {
        if n != 0 {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{i}:{n}");
            first = false;
        }
    }
    out.push_str("\"}\n");
}

/// A `metrics.jsonl` file read back: the series plus its SLO verdicts.
#[derive(Debug, Clone)]
pub struct ParsedMetrics {
    /// The reassembled series.
    pub series: MetricsSeries,
    /// SLO verdicts from the file, in file order.
    pub verdicts: Vec<SloVerdict>,
}

/// Parses a `babol-metrics-v1` export back (inverse of
/// [`MetricsSeries::to_json_lines`]). Unknown keys are skipped; malformed
/// lines are errors with their line number.
pub fn parse_metrics_lines(text: &str) -> Result<ParsedMetrics, ParseError> {
    let mut window_ps = 0u64;
    let mut shards = 1u32;
    let mut end_ps = 0u64;
    let mut device: Vec<MetricsFrame> = Vec::new();
    let mut per_shard: Vec<Vec<MetricsFrame>> = Vec::new();
    let mut verdicts: Vec<SloVerdict> = Vec::new();
    let mut saw_header = false;
    let saw_footer = read_records(text, |rec| {
        if let Some(schema) = rec.get("schema") {
            if schema != format!("\"{METRICS_SCHEMA}\"") {
                return Err(rec.err("unknown metrics schema"));
            }
            window_ps = rec.req("window_ps")?;
            shards = rec.req("shards")?;
            saw_header = true;
            return Ok(());
        }
        if !saw_header {
            return Err(rec.err("missing babol-metrics-v1 header"));
        }
        if rec.get("footer").is_some() {
            end_ps = rec.req("end_ps")?;
            if rec.req::<usize>("frames")? != device.len() {
                return Err(rec.err("footer frame count disagrees with device frames"));
            }
            return Ok(());
        }
        if rec.get("slo").is_some() {
            let spec = SloSpec::parse(rec.string("slo")?).map_err(|e| rec.err(e))?;
            verdicts.push(SloVerdict {
                spec,
                evaluated: rec.req("evaluated")?,
                breaches: rec.req("breaches")?,
                longest_streak: rec.req("longest_streak")?,
                burn_short_bp: rec.req("burn_short_bp")?,
                burn_long_bp: rec.req("burn_long_bp")?,
            });
            return Ok(());
        }
        // A frame row.
        let shard: i64 = rec.req("shard")?;
        let mut counters = FtlCounters::default();
        for c in FtlCounter::ALL {
            counters[c] = rec.req(c.name())?;
        }
        let mut f = MetricsFrame {
            index: rec.req("frame")?,
            ops: rec.req("ops")?,
            snap: MetricsSnapshot {
                counters,
                queue_depth: rec.req("qd")?,
                cache_dirty: rec.req("cache_dirty")?,
                cache_len: rec.req("cache_len")?,
                free_blocks: rec.req("free_blocks")?,
                wear_spread: rec.req("wear_spread")?,
            },
            lat: Histogram::new(),
        };
        // Sparse "bucket:count ..." tokens (see `push_frame`).
        for tok in rec
            .string("lat_buckets")?
            .split(' ')
            .filter(|t| !t.is_empty())
        {
            let (b, n) = tok
                .split_once(':')
                .ok_or_else(|| rec.err("bad bucket token"))?;
            let b: usize = b.parse().map_err(|_| rec.err("bad bucket index"))?;
            let n: u64 = n.parse().map_err(|_| rec.err("bad bucket count"))?;
            f.lat
                .load_bucket(b, n)
                .map_err(|_| rec.err("bucket index out of range"))?;
        }
        f.lat
            .load_summary(
                rec.req("lat_count")?,
                rec.req("lat_sum_ps")?,
                rec.req("lat_max_ps")?,
            )
            .map_err(|_| rec.err("bucket counts disagree with lat_count"))?;
        let lane = match usize::try_from(shard) {
            Err(_) if shard == DEVICE_SHARD => &mut device,
            Err(_) => return Err(rec.err("bad shard")),
            Ok(sid) => {
                if per_shard.len() <= sid {
                    per_shard.resize_with(sid + 1, Vec::new);
                }
                &mut per_shard[sid]
            }
        };
        if f.index as usize != lane.len() {
            return Err(rec.err("frames out of order"));
        }
        lane.push(f);
        Ok(())
    })?;
    if !saw_header {
        return Err(ParseError::at(1, "empty metrics file"));
    }
    if !saw_footer {
        let last = text.lines().count().max(1);
        return Err(ParseError::at(last, "missing metrics footer"));
    }
    Ok(ParsedMetrics {
        series: MetricsSeries {
            window_ps,
            shards,
            end_ps,
            device,
            per_shard,
        },
        verdicts,
    })
}

/// Sparkline glyphs, dimmest to brightest.
const SPARK: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Maximum cells in one dashboard lane; longer series downsample.
const LANE_WIDTH: usize = 64;

/// Downsamples `values` to at most [`LANE_WIDTH`] cells. `peak` folds the
/// members of one cell together (max for gauges, sum would distort rates
/// across uneven cells, so max it is for everything).
fn lane_cells(values: &[u64]) -> Vec<u64> {
    if values.is_empty() {
        return Vec::new();
    }
    let group = values.len().div_ceil(LANE_WIDTH);
    values
        .chunks(group)
        .map(|c| c.iter().copied().max().unwrap_or(0))
        .collect()
}

/// Renders one sparkline lane, normalized to the series maximum.
fn sparkline(values: &[u64]) -> String {
    let cells = lane_cells(values);
    let max = cells.iter().copied().max().unwrap_or(0);
    cells
        .iter()
        .map(|&v| {
            if max == 0 {
                SPARK[0]
            } else {
                // Nonzero values always render at least the dimmest ink.
                let level =
                    (u128::from(v) * (SPARK.len() as u128 - 1)).div_ceil(u128::from(max)) as usize;
                SPARK[level.min(SPARK.len() - 1)]
            }
        })
        .collect()
}

/// Downsamples per-frame marker chars (`!`/`.`/space) to the lane width;
/// a breach anywhere in a cell marks the whole cell.
fn marker_lane(marks: &[char]) -> String {
    if marks.is_empty() {
        return String::new();
    }
    let group = marks.len().div_ceil(LANE_WIDTH);
    marks
        .chunks(group)
        .map(|c| {
            if c.contains(&'!') {
                '!'
            } else if c.contains(&'.') {
                '.'
            } else {
                ' '
            }
        })
        .collect()
}

/// One counter's value in every device frame.
fn device_counter(series: &MetricsSeries, c: FtlCounter) -> Vec<u64> {
    series.device.iter().map(|f| f.snap.counters[c]).collect()
}

fn fmt_us(ps: u64) -> String {
    format!("{:.1}us", ps as f64 / 1e6)
}

/// Renders the ASCII dashboard: one sparkline lane per metric over
/// sim-time, SLO verdicts with per-window breach markers, and per-shard
/// channel-activity lanes for multi-channel runs.
pub fn render_metrics_dashboard(series: &MetricsSeries, verdicts: &[SloVerdict]) -> String {
    let mut out = String::new();
    let w = series.window_ps;
    let n = series.device.len();
    let _ = writeln!(
        out,
        "== metrics dashboard ({} frames x {} window, {} shard{}) ==",
        n,
        fmt_us(w),
        series.shards,
        if series.shards == 1 { "" } else { "s" }
    );
    if n == 0 {
        out.push_str("(no frames)\n");
        return out;
    }
    let lane = |out: &mut String, label: &str, values: &[u64], note: String| {
        let _ = writeln!(out, "{label:<11}[{}]  {note}", sparkline(values));
    };
    let ops: Vec<u64> = series.device.iter().map(|f| f.ops).collect();
    let peak_iops = series
        .device
        .iter()
        .map(|f| f.iops(series.window()))
        .max()
        .unwrap_or(0);
    lane(&mut out, "ops", &ops, format!("peak {peak_iops} IOPS"));
    let p99: Vec<u64> = series
        .device
        .iter()
        .map(|f| f.lat.percentile(99.0).as_picos())
        .collect();
    let worst = p99.iter().copied().max().unwrap_or(0);
    lane(
        &mut out,
        "p99 lat",
        &p99,
        format!("worst {}", fmt_us(worst)),
    );
    let qd: Vec<u64> = series
        .device
        .iter()
        .map(|f| u64::from(f.snap.queue_depth))
        .collect();
    let max_qd = qd.iter().copied().max().unwrap_or(0);
    lane(&mut out, "queue", &qd, format!("max {max_qd}"));
    let hit: Vec<u64> = series.device.iter().map(|f| f.cache_hit_bp()).collect();
    if hit.iter().any(|&v| v != 0) {
        let best = hit.iter().copied().max().unwrap_or(0);
        lane(
            &mut out,
            "cache hit",
            &hit,
            format!("best {}.{:02}%", best / 100, best % 100),
        );
    }
    let gc = device_counter(series, FtlCounter::GcCycles);
    let gc_total: u64 = gc.iter().sum();
    if gc_total != 0 {
        lane(&mut out, "gc", &gc, format!("total {gc_total} cycles"));
    }
    let dirty: Vec<u64> = series
        .device
        .iter()
        .map(|f| u64::from(f.snap.cache_dirty))
        .collect();
    if dirty.iter().any(|&v| v != 0) {
        let peak = dirty.iter().copied().max().unwrap_or(0);
        lane(&mut out, "dirty pages", &dirty, format!("peak {peak}"));
    }
    let energy = device_counter(series, FtlCounter::EnergyPj);
    let total_pj: u64 = energy.iter().sum();
    lane(
        &mut out,
        "energy",
        &energy,
        format!("total {:.3} uJ", total_pj as f64 / 1e6),
    );
    let wear: Vec<u64> = series
        .device
        .iter()
        .map(|f| u64::from(f.snap.wear_spread))
        .collect();
    if wear.iter().any(|&v| v != 0) {
        let peak = wear.iter().copied().max().unwrap_or(0);
        lane(&mut out, "wear sprd", &wear, format!("peak {peak}"));
    }
    if !verdicts.is_empty() {
        out.push_str("-- slo --\n");
        for v in verdicts {
            let spec = &v.spec;
            let _ = writeln!(
                out,
                "{:<11} {}  breaches {}/{} frames  longest streak {}  burn {}.{:02}%/{}.{:02}% (short/long)",
                spec.to_string(),
                if v.ok() { "OK  " } else { "FAIL" },
                v.breaches,
                v.evaluated,
                v.longest_streak,
                v.burn_short_bp / 100,
                v.burn_short_bp % 100,
                v.burn_long_bp / 100,
                v.burn_long_bp % 100,
            );
            let marks = crate::slo::breach_marks(spec, &series.device, w);
            let _ = writeln!(out, "{:<11}[{}]", "", marker_lane(&marks));
        }
    }
    if !series.per_shard.is_empty() {
        out.push_str("-- shard lanes (ops per window) --\n");
        for (sid, frames) in series.per_shard.iter().enumerate() {
            let ops: Vec<u64> = frames.iter().map(|f| f.ops).collect();
            let total: u64 = ops.iter().sum();
            let label = format!("ch{sid:02}");
            let _ = writeln!(out, "{label:<11}[{}]  {total} ops", sparkline(&ops));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::evaluate_slo;
    use FtlCounter::{CacheHits, CacheMisses, EnergyPj, GcCycles};

    fn ps(v: u64) -> SimDuration {
        SimDuration::from_picos(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::from_picos(v)
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let mut hub = MetricsHub::disabled();
        hub.observe_latency(at(5), ps(10));
        hub.sample(at(5), &MetricsSnapshot::default());
        hub.touch(at(1 << 40));
        assert!(!hub.is_enabled());
        assert!(hub.frames().is_empty());
    }

    #[test]
    fn latencies_route_by_completion_time() {
        let w = 1_000_000u64; // 1 us windows
        let mut hub = MetricsHub::new(ps(w));
        hub.observe_latency(at(10), ps(100));
        hub.observe_latency(at(w + 1), ps(200));
        hub.observe_latency(at(3 * w + 5), ps(300));
        // Out-of-order arrival for an earlier window still lands there.
        hub.observe_latency(at(w + 2), ps(400));
        let frames = hub.frames();
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0].ops, 1);
        assert_eq!(frames[1].ops, 2);
        assert_eq!(frames[2].ops, 0, "quiet window is present but empty");
        assert_eq!(frames[3].ops, 1);
        assert_eq!(hub.merged_latency().count(), 4);
        assert_eq!(hub.merged_latency().max(), ps(400));
    }

    #[test]
    fn sample_attributes_deltas_and_stamps_gauges() {
        let w = 1_000_000u64;
        let mut hub = MetricsHub::new(ps(w));
        let mut snap = MetricsSnapshot::default();
        snap.counters[CacheHits] = 100; // pre-run total: must not leak into window 0
        snap.counters[EnergyPj] = 5_000;
        hub.prime(&snap);
        snap.counters[CacheHits] = 110;
        snap.counters[EnergyPj] = 5_400;
        snap.queue_depth = 4;
        hub.sample(at(10), &snap);
        snap.counters[CacheHits] = 115;
        snap.counters[EnergyPj] = 6_000;
        snap.queue_depth = 2;
        hub.sample(at(w + 10), &snap);
        let frames = hub.frames();
        assert_eq!(frames[0].snap.counters[CacheHits], 10);
        assert_eq!(frames[0].snap.counters[EnergyPj], 400);
        assert_eq!(frames[0].snap.queue_depth, 4);
        assert_eq!(frames[1].snap.counters[CacheHits], 5);
        assert_eq!(frames[1].snap.counters[EnergyPj], 600);
        assert_eq!(frames[1].snap.queue_depth, 2);
    }

    #[test]
    fn touch_extends_to_quiet_end_of_run() {
        let w = 1_000_000u64;
        let mut hub = MetricsHub::new(ps(w));
        hub.observe_latency(at(10), ps(1));
        hub.touch(at(5 * w + 1));
        assert_eq!(hub.frames().len(), 6);
        assert_eq!(hub.end_ps(), 5 * w + 1);
    }

    #[test]
    fn tiny_windows_clamp_to_a_nanosecond() {
        let hub = MetricsHub::new(ps(1));
        assert_eq!(hub.window(), SimDuration::from_nanos(1));
    }

    fn sample_series() -> MetricsSeries {
        let w = 1_000_000u64;
        let mut hub = MetricsHub::new(ps(w));
        let mut snap = MetricsSnapshot::default();
        hub.prime(&snap);
        for i in 0..5u64 {
            hub.observe_latency(at(i * w + 500), ps((i + 1) * 111));
            snap.counters[CacheHits] += i;
            snap.counters[CacheMisses] += 1;
            snap.counters[EnergyPj] += 1000 * (i + 1);
            snap.counters[GcCycles] += u64::from(i == 3);
            snap.queue_depth = i as u32;
            snap.free_blocks = 40 - i as u32;
            hub.sample(at(i * w + 900), &snap);
        }
        MetricsSeries::from_hub(&hub)
    }

    #[test]
    fn export_parse_roundtrip() {
        let series = sample_series();
        let spec = SloSpec::parse("p99<400ps").unwrap();
        let verdict = evaluate_slo(&spec, &series.device, series.window_ps);
        let text = series.to_json_lines(std::slice::from_ref(&verdict));
        assert!(text.starts_with(r#"{"schema":"babol-metrics-v1","#));
        let parsed = parse_metrics_lines(&text).unwrap();
        assert_eq!(parsed.series.window_ps, series.window_ps);
        assert_eq!(parsed.series.device.len(), series.device.len());
        assert_eq!(parsed.series.end_ps, series.end_ps);
        assert_eq!(parsed.verdicts, vec![verdict]);
        for (a, b) in parsed.series.device.iter().zip(series.device.iter()) {
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.snap, b.snap);
            assert_eq!(a.lat.buckets(), b.lat.buckets());
            assert_eq!(a.lat.count(), b.lat.count());
            assert_eq!(a.lat.max(), b.lat.max());
            assert_eq!(a.lat.mean(), b.lat.mean());
        }
        // And the re-export is byte-identical: parse is lossless.
        assert_eq!(
            parsed.series.to_json_lines(&parsed.verdicts),
            text,
            "parse -> export must be a fixed point"
        );
    }

    #[test]
    fn parse_rejects_malformed_files() {
        assert!(parse_metrics_lines("").is_err());
        assert!(parse_metrics_lines(
            "{\"schema\":\"bogus-v9\",\"window_ps\":1,\"shards\":1,\"frames\":0}\n"
        )
        .is_err());
        let series = sample_series();
        let good = series.to_json_lines(&[]);
        // Truncating the footer must fail loudly.
        let truncated: String = good.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(parse_metrics_lines(&truncated).is_err());
        // Corrupting a bucket count must fail the count cross-check.
        let bad = good.replace("\"lat_count\":1", "\"lat_count\":7");
        assert!(parse_metrics_lines(&bad).is_err());
    }

    #[test]
    fn multi_shard_series_sums_into_device_frames() {
        let w = 1_000_000u64;
        let mut dev = MetricsHub::new(ps(w));
        let mut s0 = MetricsHub::new(ps(w));
        let mut s1 = MetricsHub::new(ps(w));
        s1.set_shard(1);
        dev.observe_latency(at(100), ps(50));
        dev.observe_latency(at(w + 100), ps(60));
        s0.note_op(at(100));
        s1.note_op(at(w + 100));
        let mut snap = MetricsSnapshot::default();
        s0.prime(&snap);
        snap.counters[EnergyPj] = 300;
        s0.sample(at(150), &snap);
        let mut snap1 = MetricsSnapshot::default();
        s1.prime(&snap1);
        snap1.counters[EnergyPj] = 500;
        snap1.queue_depth = 2;
        s1.sample(at(w + 150), &snap1);
        let series = MetricsSeries::from_shards(&dev, &[&s0, &s1]);
        assert_eq!(series.shards, 2);
        assert_eq!(series.device.len(), 2);
        assert_eq!(series.per_shard.len(), 2);
        assert_eq!(series.device[0].snap.counters[EnergyPj], 300);
        assert_eq!(series.device[1].snap.counters[EnergyPj], 500);
        assert_eq!(series.device[1].snap.queue_depth, 2);
        assert_eq!(series.device[0].ops, 1, "ops come from the device hub");
        assert_eq!(series.per_shard[1][1].ops, 1);
        // Round-trip keeps the shard lanes.
        let parsed = parse_metrics_lines(&series.to_json_lines(&[])).unwrap();
        assert_eq!(parsed.series.per_shard.len(), 2);
        assert_eq!(parsed.series.per_shard[1][1].ops, 1);
    }

    /// `babol-metrics-v1` frame lines, byte for byte: a device frame (shard
    /// counters and gauges summed, wear spread maxed, latency from the
    /// coordinator) and a shard frame. Every value is distinct, so a key
    /// that reads the wrong field shows.
    #[test]
    fn frame_lines_are_pinned() {
        let w = 1_000_000u64;
        let mut dev = MetricsHub::new(ps(w));
        dev.observe_latency(at(100), ps(5_000));
        let shard = |id: u32, k: u64| {
            let mut hub = MetricsHub::new(ps(w));
            hub.set_shard(id);
            hub.prime(&MetricsSnapshot::default());
            hub.note_op(at(100));
            let g = |n: u64| (n * k) as u32;
            let snap = MetricsSnapshot {
                counters: FtlCounters::from_fn(|c| (c as u64 + 1) * k),
                queue_depth: g(8),
                cache_dirty: g(9),
                cache_len: g(10),
                free_blocks: g(11),
                wear_spread: g(12),
            };
            hub.sample(at(200), &snap);
            hub
        };
        let (s0, s1) = (shard(0, 1), shard(1, 100));
        let text = MetricsSeries::from_shards(&dev, &[&s0, &s1]).to_json_lines(&[]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[1],
            r#"{"frame":0,"shard":-1,"ops":1,"cache_hits":101,"cache_misses":202,"cache_dirty_evicts":303,"gc_cycles":404,"energy_pj":505,"wear_migrations":606,"blocks_retired":707,"qd":808,"cache_dirty":909,"cache_len":1010,"free_blocks":1111,"wear_spread":1200,"lat_count":1,"lat_sum_ps":5000,"lat_max_ps":5000,"lat_buckets":"13:1"}"#
        );
        assert_eq!(
            lines[3],
            r#"{"frame":0,"shard":1,"ops":1,"cache_hits":100,"cache_misses":200,"cache_dirty_evicts":300,"gc_cycles":400,"energy_pj":500,"wear_migrations":600,"blocks_retired":700,"qd":800,"cache_dirty":900,"cache_len":1000,"free_blocks":1100,"wear_spread":1200,"lat_count":0,"lat_sum_ps":0,"lat_max_ps":0,"lat_buckets":""}"#
        );
    }

    #[test]
    fn dashboard_renders_lanes_markers_and_shards() {
        let series = sample_series();
        let spec = SloSpec::parse("p99<400ps").unwrap();
        let verdict = evaluate_slo(&spec, &series.device, series.window_ps);
        let dash = render_metrics_dashboard(&series, &[verdict]);
        assert!(dash.contains("== metrics dashboard"));
        assert!(dash.contains("ops"));
        assert!(dash.contains("p99 lat"));
        assert!(dash.contains("-- slo --"));
        assert!(dash.contains("p99<400ps"));
        assert!(dash.contains('!'), "breach marker missing:\n{dash}");
        // Multi-shard dashboards grow channel lanes.
        let w = ps(1_000_000);
        let mut dev = MetricsHub::new(w);
        let mut s0 = MetricsHub::new(w);
        dev.observe_latency(at(5), ps(10));
        s0.note_op(at(5));
        let multi = MetricsSeries::from_shards(&dev, &[&s0]);
        let dash = render_metrics_dashboard(&multi, &[]);
        assert!(dash.contains("-- shard lanes"));
        assert!(dash.contains("ch00"));
    }

    #[test]
    fn sparkline_is_width_bounded_and_deterministic() {
        let values: Vec<u64> = (0..500).map(|i| i % 97).collect();
        let a = sparkline(&values);
        let b = sparkline(&values);
        assert_eq!(a, b);
        assert!(a.chars().count() <= LANE_WIDTH);
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "  ", "all-zero lane renders blank");
    }
}
