//! The trace analyzer: from an event stream to the paper's tables.
//!
//! [`TraceReport`] consumes either a live [`Tracer`] or events parsed back
//! from a line-JSON export and computes:
//!
//! * channel-bus utilization over the trace window, plus a 10-slice
//!   timeline so warm-up and tail idle are visible;
//! * per-LUN array busy fractions (from `ArrayBegin`/`ArrayEnd` spans);
//! * the idle-gap histogram — bus idle between consecutive ownerships
//!   while at least one op is in flight, the software analogue of the
//!   paper's Fig. 10 reaction-time measurement;
//! * the per-op phase breakdown from [`PhaseLedger`], whose phase sums
//!   reconcile exactly with measured end-to-end latency;
//! * queue-depth-over-time statistics from the runtime's samples.
//!
//! Rendering is deterministic: same events in, byte-identical text out
//! (asserted in `tests/determinism.rs`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use babol_sim::{SimDuration, SimTime};

use crate::hist::Histogram;
use crate::interval::IntervalSet;
use crate::phase::{OpPhase, PhaseLedger};
use crate::{Component, QueueDepths, TraceEvent, TraceKind, Tracer};

/// Queue-depth sample statistics, one slot per packed dimension.
#[derive(Debug, Clone, Default)]
struct DepthSummary {
    samples: u64,
    saturated: u64,
    sums: [u64; 4],
    maxs: [u16; 4],
}

const DEPTH_DIMS: [&str; 4] = ["runnable", "ready", "hw", "inflight"];

impl DepthSummary {
    fn add(&mut self, d: QueueDepths) {
        self.samples += 1;
        if d.is_saturated() {
            self.saturated += 1;
        }
        for (i, v) in [d.runnable, d.ready, d.hw, d.inflight]
            .into_iter()
            .enumerate()
        {
            self.sums[i] += u64::from(v);
            self.maxs[i] = self.maxs[i].max(v);
        }
    }

    fn mean(&self, dim: usize) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sums[dim] as f64 / self.samples as f64
    }
}

/// Analysis of one trace. Build with [`TraceReport::from_tracer`] or
/// [`TraceReport::from_events`], render with [`TraceReport::render_table`]
/// (human) or [`TraceReport::render_csv`] (machine).
#[derive(Debug, Clone)]
pub struct TraceReport {
    window: (SimTime, SimTime),
    event_count: usize,
    dropped: u64,
    dropped_by_kind: Vec<(TraceKind, u64)>,
    shard: u32,
    bus: IntervalSet,
    lun_busy: BTreeMap<u32, IntervalSet>,
    gaps: Histogram,
    ledger: PhaseLedger,
    depth: DepthSummary,
}

impl TraceReport {
    /// Analyzes a live tracer's event ring, inheriting its shard tag and
    /// per-kind drop breakdown.
    pub fn from_tracer(tracer: &Tracer) -> Self {
        let events: Vec<TraceEvent> = tracer.events().copied().collect();
        TraceReport::from_events(&events, tracer.dropped())
            .with_shard(tracer.shard())
            .with_drop_breakdown(tracer.dropped_by_kind().collect())
    }

    /// Tags the report with the shard (channel) it covers.
    pub fn with_shard(mut self, shard: u32) -> Self {
        self.shard = shard;
        self
    }

    /// Attaches the per-kind ring-drop breakdown (from a live
    /// [`Tracer::dropped_by_kind`] or a parsed footer's
    /// `dropped_<kind>` keys).
    pub fn with_drop_breakdown(mut self, breakdown: Vec<(TraceKind, u64)>) -> Self {
        self.dropped_by_kind = breakdown;
        self
    }

    /// The shard (channel) this report covers; 0 for single-system runs.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Analyzes an event stream (e.g. parsed back from a line-JSON
    /// export). `dropped` is the ring-overflow count reported alongside
    /// the events; a non-zero value flags the report as built from a
    /// truncated timeline.
    pub fn from_events(events: &[TraceEvent], dropped: u64) -> Self {
        let mut window: Option<(u64, u64)> = None;
        let mut bus = IntervalSet::new();
        let mut bus_open: Vec<u64> = Vec::new();
        let mut bus_pairs: Vec<(u64, u64)> = Vec::new();
        let mut lun_busy: BTreeMap<u32, IntervalSet> = BTreeMap::new();
        let mut lun_open: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        let mut inflight_deltas: Vec<(u64, i64)> = Vec::new();
        let mut depth = DepthSummary::default();

        for e in events {
            let t = e.t.as_picos();
            window = Some(window.map_or((t, t), |(lo, hi)| (lo.min(t), hi.max(t))));
            match e.kind {
                TraceKind::BusAcquire => bus_open.push(t),
                TraceKind::BusRelease => {
                    if let Some(s) = bus_open.pop() {
                        bus.add_ps(s, t);
                        bus_pairs.push((s, t));
                    }
                }
                TraceKind::ArrayBegin => lun_open.entry(e.lun).or_default().push(t),
                TraceKind::ArrayEnd => {
                    if let Some(s) = lun_open.entry(e.lun).or_default().pop() {
                        lun_busy.entry(e.lun).or_default().add_ps(s, t);
                    }
                }
                TraceKind::OpIssue if e.component == Component::Ctrl => {
                    inflight_deltas.push((t, 1));
                }
                TraceKind::OpComplete if e.component == Component::Ctrl => {
                    inflight_deltas.push((t, -1));
                }
                TraceKind::QueueDepth => depth.add(QueueDepths::unpack(e.op_id)),
                _ => {}
            }
        }

        // Idle gaps: bus release → next bus acquire, counted only while at
        // least one op was in flight (idle with an empty pipeline is not a
        // reaction-time problem). Raw ownership pairs, not the coalesced
        // IntervalSet, so back-to-back ownerships count as zero-width gaps
        // — exactly what a hardware controller's reaction time looks like.
        bus_pairs.sort_unstable();
        inflight_deltas.sort_unstable();
        let mut gaps = Histogram::new();
        let mut delta_idx = 0usize;
        let mut inflight = 0i64;
        for pair in bus_pairs.windows(2) {
            let (rel, next_acq) = (pair[0].1, pair[1].0);
            while delta_idx < inflight_deltas.len() && inflight_deltas[delta_idx].0 <= rel {
                inflight += inflight_deltas[delta_idx].1;
                delta_idx += 1;
            }
            if inflight > 0 && next_acq >= rel {
                gaps.record(SimDuration::from_picos(next_acq - rel));
            }
        }

        let window = window.map_or((SimTime::ZERO, SimTime::ZERO), |(lo, hi)| {
            (SimTime::from_picos(lo), SimTime::from_picos(hi))
        });
        TraceReport {
            window,
            event_count: events.len(),
            dropped,
            dropped_by_kind: Vec::new(),
            shard: 0,
            bus,
            lun_busy,
            gaps,
            ledger: PhaseLedger::from_events(events),
            depth,
        }
    }

    /// The `[first, last]` event-timestamp window the report covers.
    pub fn window(&self) -> (SimTime, SimTime) {
        self.window
    }

    /// Ring-overflow count the trace was built with.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Ops with full attribution (issue and complete both seen).
    pub fn ops(&self) -> u64 {
        self.ledger.ops()
    }

    /// Channel-bus busy intervals.
    pub fn bus_intervals(&self) -> &IntervalSet {
        &self.bus
    }

    /// The idle-gap distribution (see module docs).
    pub fn gap_histogram(&self) -> &Histogram {
        &self.gaps
    }

    /// The per-op phase attribution.
    pub fn ledger(&self) -> &PhaseLedger {
        &self.ledger
    }

    fn window_width(&self) -> SimDuration {
        self.window.1.saturating_since(self.window.0)
    }

    /// Renders the human-readable report.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let (w0, w1) = self.window;
        let _ = writeln!(out, "== trace report ==");
        let _ = writeln!(
            out,
            "events: {} ({} dropped{})",
            self.event_count,
            self.dropped,
            if self.dropped > 0 {
                " — timeline truncated, oldest events missing"
            } else {
                ""
            }
        );
        if !self.dropped_by_kind.is_empty() {
            let parts: Vec<String> = self
                .dropped_by_kind
                .iter()
                .map(|(k, n)| format!("{} {}", k.name(), n))
                .collect();
            let _ = writeln!(out, "dropped by kind: {}", parts.join("  "));
        }
        let _ = writeln!(
            out,
            "window: {} .. {} us ({} us)",
            us(w0.as_picos()),
            us(w1.as_picos()),
            us(self.window_width().as_picos())
        );
        let merged = self.ledger.merged();
        let _ = writeln!(
            out,
            "ops attributed: {} (e2e mean {} us)",
            merged.ops,
            us3(merged.e2e.mean().as_picos())
        );

        let _ = writeln!(out, "\n-- channel utilization --");
        let busy = self.bus.busy_between(w0, w1);
        let _ = writeln!(
            out,
            "bus busy {} us of {} us ({})",
            us(busy.as_picos()),
            us(self.window_width().as_picos()),
            pct(self.bus.utilization(w0, w1))
        );
        let slices = self.bus.timeline(w0, w1, 10);
        if !slices.is_empty() {
            let cells: Vec<String> = slices
                .iter()
                .map(|u| format!("{:>5.1}", u * 100.0))
                .collect();
            let _ = writeln!(out, "timeline %: [{}]", cells.join(" "));
        }
        for (lun, set) in &self.lun_busy {
            let _ = writeln!(
                out,
                "lun {:>2} array busy {} us ({})",
                lun,
                us(set.busy_between(w0, w1).as_picos()),
                pct(set.utilization(w0, w1))
            );
        }

        let _ = writeln!(out, "\n-- idle gaps (bus idle while ops in flight) --");
        if self.gaps.is_empty() {
            let _ = writeln!(out, "none observed");
        } else {
            let _ = writeln!(
                out,
                "count {}  mean {} us  p50 {} us  p95 {} us  p99 {} us  max {} us",
                self.gaps.count(),
                us3(self.gaps.mean().as_picos()),
                us3(self.gaps.percentile(50.0).as_picos()),
                us3(self.gaps.percentile(95.0).as_picos()),
                us3(self.gaps.percentile(99.0).as_picos()),
                us3(self.gaps.max().as_picos()),
            );
        }

        let _ = writeln!(out, "\n-- phase breakdown (all attributed ops) --");
        let _ = writeln!(
            out,
            "{:<13} {:>12} {:>7} {:>10} {:>10} {:>10}",
            "phase", "total(us)", "share%", "mean(us)", "p95(us)", "p99(us)"
        );
        for p in OpPhase::ALL {
            let h = &merged.phase[p.index()];
            let sum = merged.phase_sum_ps[p.index()];
            let share = if merged.e2e_sum_ps == 0 {
                0.0
            } else {
                sum as f64 / merged.e2e_sum_ps as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "{:<13} {:>12} {:>7.1} {:>10} {:>10} {:>10}",
                p.name(),
                us3(sum as u64),
                share,
                us3(h.mean().as_picos()),
                us3(h.percentile(95.0).as_picos()),
                us3(h.percentile(99.0).as_picos()),
            );
        }
        let _ = writeln!(
            out,
            "phase sum {} us / e2e sum {} us (partition exact: {})",
            us3(merged.phase_total_ps() as u64),
            us3(merged.e2e_sum_ps as u64),
            merged.phase_total_ps() == merged.e2e_sum_ps
        );

        if self.depth.samples > 0 {
            let _ = writeln!(out, "\n-- queue depths ({} samples) --", self.depth.samples);
            for (i, dim) in DEPTH_DIMS.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{:<9} mean {:>6.2}  max {:>4}",
                    dim,
                    self.depth.mean(i),
                    self.depth.maxs[i]
                );
            }
            if self.depth.saturated > 0 {
                let _ = writeln!(
                    out,
                    "saturated samples: {} (a lane clamped at {})",
                    self.depth.saturated,
                    QueueDepths::LANE_MAX
                );
            }
        }
        out
    }

    /// Renders the machine-readable report: `section,key,value` CSV with a
    /// header row. The schema is what CI's smoke test validates.
    pub fn render_csv(&self) -> String {
        let mut out = String::from("section,key,value\n");
        let (w0, w1) = self.window;
        let mut row = |section: &str, key: &str, value: String| {
            let _ = writeln!(out, "{section},{key},{value}");
        };
        row("meta", "events", self.event_count.to_string());
        row("meta", "dropped", self.dropped.to_string());
        for (k, n) in &self.dropped_by_kind {
            row("meta", &format!("dropped_{}", k.name()), n.to_string());
        }
        row("meta", "shard", self.shard.to_string());
        row(
            "meta",
            "window_ps",
            self.window_width().as_picos().to_string(),
        );
        let merged = self.ledger.merged();
        row("meta", "ops", merged.ops.to_string());
        row(
            "util",
            "channel_busy_ps",
            self.bus.busy_between(w0, w1).as_picos().to_string(),
        );
        row(
            "util",
            "channel_util_pct",
            format!("{:.3}", self.bus.utilization(w0, w1) * 100.0),
        );
        for (lun, set) in &self.lun_busy {
            row(
                "util",
                &format!("lun{lun}_array_util_pct"),
                format!("{:.3}", set.utilization(w0, w1) * 100.0),
            );
        }
        row("gap", "count", self.gaps.count().to_string());
        row("gap", "mean_ps", self.gaps.mean().as_picos().to_string());
        for p in [50.0, 95.0, 99.0] {
            row(
                "gap",
                &format!("p{p:.0}_ps"),
                self.gaps.percentile(p).as_picos().to_string(),
            );
        }
        row("gap", "max_ps", self.gaps.max().as_picos().to_string());
        for p in OpPhase::ALL {
            row(
                "phase",
                &format!("{}_sum_ps", p.name()),
                merged.phase_sum_ps[p.index()].to_string(),
            );
            row(
                "phase",
                &format!("{}_mean_ps", p.name()),
                merged.phase[p.index()].mean().as_picos().to_string(),
            );
        }
        row("recon", "phase_sum_ps", merged.phase_total_ps().to_string());
        row("recon", "e2e_sum_ps", merged.e2e_sum_ps.to_string());
        row("depth", "samples", self.depth.samples.to_string());
        row("depth", "saturated", self.depth.saturated.to_string());
        for (i, dim) in DEPTH_DIMS.iter().enumerate() {
            row(
                "depth",
                &format!("{dim}_mean"),
                format!("{:.3}", self.depth.mean(i)),
            );
            row(
                "depth",
                &format!("{dim}_max"),
                self.depth.maxs[i].to_string(),
            );
        }
        out
    }
}

/// Renders a side-by-side bus-utilization table for several shards — the
/// multi-channel proof that the channels genuinely overlap in time: every
/// shard's 10-slice timeline covers the same global window, so concurrent
/// activity shows up as simultaneously-hot slices across rows.
pub fn render_shard_utilization(reports: &[TraceReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== per-shard channel utilization ==");
    if reports.is_empty() {
        let _ = writeln!(out, "no shards");
        return out;
    }
    // One shared window so rows are comparable.
    let w0 = reports.iter().map(|r| r.window.0).min().unwrap();
    let w1 = reports.iter().map(|r| r.window.1).max().unwrap();
    let _ = writeln!(
        out,
        "window: {} .. {} us ({} us)",
        us(w0.as_picos()),
        us(w1.as_picos()),
        us(w1.saturating_since(w0).as_picos())
    );
    let _ = writeln!(
        out,
        "{:<6} {:>8} {:>12} {:>7}  timeline % (10 slices)",
        "shard", "events", "busy(us)", "util%"
    );
    for r in reports {
        let busy = r.bus.busy_between(w0, w1);
        let slices = r.bus.timeline(w0, w1, 10);
        let cells: Vec<String> = slices
            .iter()
            .map(|u| format!("{:>5.1}", u * 100.0))
            .collect();
        let _ = writeln!(
            out,
            "{:<6} {:>8} {:>12} {:>7.1}  [{}]",
            r.shard,
            r.event_count,
            us(busy.as_picos()),
            r.bus.utilization(w0, w1) * 100.0,
            cells.join(" ")
        );
    }
    out
}

/// Picoseconds → microseconds with 1 decimal (window-scale numbers).
fn us(ps: u64) -> String {
    format!("{:.1}", ps as f64 / 1e6)
}

/// Picoseconds → microseconds with 3 decimals (latency-scale numbers).
fn us3(ps: u64) -> String {
    format!("{:.3}", ps as f64 / 1e6)
}

fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ps: u64, component: Component, kind: TraceKind, lun: u32, op: u64) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_picos(ps),
            component,
            kind,
            lun,
            op_id: op,
        }
    }

    /// Two bus ownerships with an op in flight across the hole between
    /// them: one gap, correct width, correct utilization.
    fn sample_events() -> Vec<TraceEvent> {
        use Component::{Channel, Ctrl};
        vec![
            ev(0, Ctrl, TraceKind::OpIssue, 0, 1),
            ev(100, Channel, TraceKind::BusAcquire, 0, 1),
            ev(300, Channel, TraceKind::BusRelease, 0, 1),
            ev(300, Channel, TraceKind::ArrayBegin, 0, 1),
            ev(700, Channel, TraceKind::ArrayEnd, 0, 1),
            ev(700, Channel, TraceKind::BusAcquire, 0, 1),
            ev(900, Channel, TraceKind::BusRelease, 0, 1),
            ev(1000, Ctrl, TraceKind::OpComplete, 0, 1),
        ]
    }

    #[test]
    fn gap_and_utilization_from_stream() {
        let r = TraceReport::from_events(&sample_events(), 0);
        assert_eq!(r.ops(), 1);
        assert_eq!(r.gap_histogram().count(), 1);
        assert_eq!(r.gap_histogram().max(), SimDuration::from_picos(400));
        // Bus busy 400 ps over the 1000 ps window.
        assert_eq!(
            r.bus_intervals()
                .busy_between(r.window().0, r.window().1)
                .as_picos(),
            400
        );
    }

    #[test]
    fn gaps_without_inflight_ops_are_not_counted() {
        use Component::Channel;
        // Same bus pattern, but no op issued: pipeline empty, gap ignored.
        let events = vec![
            ev(100, Channel, TraceKind::BusAcquire, 0, 1),
            ev(300, Channel, TraceKind::BusRelease, 0, 1),
            ev(700, Channel, TraceKind::BusAcquire, 0, 1),
            ev(900, Channel, TraceKind::BusRelease, 0, 1),
        ];
        let r = TraceReport::from_events(&events, 0);
        assert_eq!(r.gap_histogram().count(), 0);
    }

    #[test]
    fn renders_are_deterministic_and_reconciled() {
        let events = sample_events();
        let a = TraceReport::from_events(&events, 0);
        let b = TraceReport::from_events(&events, 0);
        assert_eq!(a.render_table(), b.render_table());
        assert_eq!(a.render_csv(), b.render_csv());
        let csv = a.render_csv();
        let get = |section: &str, key: &str| -> String {
            csv.lines()
                .find(|l| l.starts_with(&format!("{section},{key},")))
                .unwrap_or_else(|| panic!("missing {section},{key}"))
                .rsplit(',')
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(get("recon", "phase_sum_ps"), get("recon", "e2e_sum_ps"));
        assert_eq!(get("meta", "ops"), "1");
        assert_eq!(get("gap", "count"), "1");
        assert!(a.render_table().contains("partition exact: true"));
    }

    #[test]
    fn from_tracer_matches_from_events() {
        let mut t = Tracer::enabled();
        for e in sample_events() {
            t.record(e);
        }
        let a = TraceReport::from_tracer(&t);
        let events: Vec<TraceEvent> = t.events().copied().collect();
        let b = TraceReport::from_events(&events, 0);
        assert_eq!(a.render_csv(), b.render_csv());
    }

    #[test]
    fn queue_depth_samples_summarize() {
        use Component::Sched;
        let mut events = sample_events();
        for (i, d) in [(1u64, 2u16), (2, 4), (3, 6)] {
            events.push(ev(
                i * 10,
                Sched,
                TraceKind::QueueDepth,
                0,
                QueueDepths::exact(d, 1, 0, d / 2).pack(),
            ));
        }
        let r = TraceReport::from_events(&events, 0);
        let csv = r.render_csv();
        assert!(csv.contains("depth,samples,3"));
        assert!(csv.contains("depth,saturated,0"));
        assert!(csv.contains("depth,runnable_mean,4.000"));
        assert!(csv.contains("depth,runnable_max,6"));
        assert!(r.render_table().contains("queue depths (3 samples)"));
        assert!(!r.render_table().contains("saturated samples"));
    }

    #[test]
    fn saturated_depth_samples_are_counted() {
        use Component::Sched;
        let mut events = sample_events();
        events.push(ev(
            10,
            Sched,
            TraceKind::QueueDepth,
            0,
            QueueDepths::from_lens(usize::MAX, 0, 0, 0).pack(),
        ));
        events.push(ev(
            20,
            Sched,
            TraceKind::QueueDepth,
            0,
            QueueDepths::from_lens(1, 2, 3, 4).pack(),
        ));
        let r = TraceReport::from_events(&events, 0);
        assert!(r.render_csv().contains("depth,saturated,1"));
        assert!(r.render_table().contains("saturated samples: 1"));
    }

    #[test]
    fn drop_breakdown_reaches_table_and_csv() {
        let mut t = Tracer::with_capacity(2);
        for e in sample_events() {
            t.record(e);
        }
        let r = TraceReport::from_tracer(&t);
        assert_eq!(r.dropped(), 6);
        let table = r.render_table();
        assert!(table.contains("dropped by kind:"), "{table}");
        assert!(table.contains("op_issue 1"), "{table}");
        let csv = r.render_csv();
        assert!(csv.contains("meta,dropped,6"));
        assert!(csv.contains("meta,dropped_op_issue,1"));
        assert!(csv.contains("meta,dropped_bus_acquire,"));
    }

    #[test]
    fn empty_stream_renders_without_panicking() {
        let r = TraceReport::from_events(&[], 7);
        assert_eq!(r.ops(), 0);
        assert!(r.render_table().contains("7 dropped"));
        assert!(r.render_csv().contains("meta,dropped,7"));
        assert!(render_shard_utilization(&[]).contains("no shards"));
    }

    #[test]
    fn shard_tag_flows_tracer_to_report_to_csv() {
        let mut t = Tracer::enabled();
        t.set_shard(3);
        for e in sample_events() {
            t.record(e);
        }
        let r = TraceReport::from_tracer(&t);
        assert_eq!(r.shard(), 3);
        assert!(r.render_csv().contains("meta,shard,3"));
    }

    #[test]
    fn shard_utilization_table_covers_the_union_window() {
        let a = TraceReport::from_events(&sample_events(), 0).with_shard(0);
        // Shard 1's activity sits later in time; the shared window must
        // span both so the rows are comparable.
        let shifted: Vec<TraceEvent> = sample_events()
            .into_iter()
            .map(|mut e| {
                e.t = SimTime::from_picos(e.t.as_picos() + 2_000);
                e
            })
            .collect();
        let b = TraceReport::from_events(&shifted, 0).with_shard(1);
        let s = render_shard_utilization(&[a, b]);
        assert!(
            s.contains("0.000 .. 0.003 us") || s.contains("0.0 .. 0.0 us"),
            "{s}"
        );
        assert_eq!(s.matches('[').count(), 2, "one timeline per shard: {s}");
    }
}
