//! Trace exports: line-JSON and Chrome `trace_event` format.
//!
//! Both formats are hand-rolled string builders: every field is either an
//! integer or a static identifier, so no JSON library (and no escaping) is
//! needed — keeping the workspace hermetic.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::{Counter, TraceEvent, TraceKind, Tracer};

impl TraceKind {
    /// The kind that opens the span this one closes, if any.
    pub const fn span_begin(self) -> Option<TraceKind> {
        match self {
            TraceKind::OpComplete => Some(TraceKind::OpIssue),
            TraceKind::TaskFinish => Some(TraceKind::TaskSpawn),
            TraceKind::TxnComplete => Some(TraceKind::TxnIssue),
            TraceKind::BusRelease => Some(TraceKind::BusAcquire),
            TraceKind::GcEnd => Some(TraceKind::GcStart),
            TraceKind::ArrayEnd => Some(TraceKind::ArrayBegin),
            _ => None,
        }
    }
}

fn push_jsonl(out: &mut String, e: &TraceEvent) {
    let _ = writeln!(
        out,
        r#"{{"t_ps":{},"component":"{}","kind":"{}","lun":{},"op_id":{}}}"#,
        e.t.as_picos(),
        e.component.name(),
        e.kind.name(),
        e.lun,
        e.op_id
    );
}

fn micros(ps: u64) -> f64 {
    ps as f64 / 1e6
}

fn push_chrome_span(out: &mut String, shard: u32, begin: &TraceEvent, end: &TraceEvent) {
    let _ = write!(
        out,
        r#"{{"name":"{}","cat":"{}","ph":"X","ts":{:.6},"dur":{:.6},"pid":{},"tid":{},"args":{{"op_id":{}}}}}"#,
        begin.kind.span_name(),
        begin.component.name(),
        micros(begin.t.as_picos()),
        micros(end.t.as_picos() - begin.t.as_picos()),
        shard,
        begin.lun,
        begin.op_id
    );
}

fn push_chrome_instant(out: &mut String, shard: u32, e: &TraceEvent) {
    let _ = write!(
        out,
        r#"{{"name":"{}","cat":"{}","ph":"i","ts":{:.6},"s":"t","pid":{},"tid":{},"args":{{"op_id":{}}}}}"#,
        e.kind.name(),
        e.component.name(),
        micros(e.t.as_picos()),
        shard,
        e.lun,
        e.op_id
    );
}

impl Tracer {
    /// Renders the event ring as line-delimited JSON, one event per line,
    /// oldest first, terminated by a footer record
    /// `{"footer":true,"events":N,"dropped":M,"shard":S}`. A non-zero
    /// `dropped` means the ring overflowed and the timeline's oldest edge
    /// is truncated — consumers (`trace_report`, `parse_json_lines`)
    /// surface it so a partial trace is never read as complete. `shard` is
    /// the channel this tracer observed (0 for single-system runs).
    ///
    /// The FTL production counters ([`Counter::FTL_FOOTER`]: cache
    /// hit/miss/evict, wear migrations, retired blocks, per-op energy)
    /// travel in the footer too, each emitted only when non-zero, so
    /// traces from runs without the production FTL features keep the
    /// exact legacy footer. When the ring overflowed, the footer also
    /// breaks the drop total down per kind (`"dropped_<kind>":N`, non-zero
    /// kinds only) so a truncated timeline says what it lost.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            push_jsonl(&mut out, e);
        }
        let _ = write!(
            out,
            r#"{{"footer":true,"events":{},"dropped":{},"shard":{}}}"#,
            self.events().count(),
            self.dropped(),
            self.shard()
        );
        let mut extend = |key: &str, n: u64| {
            out.truncate(out.len() - 1);
            let _ = write!(out, r#","{key}":{n}}}"#);
        };
        for (k, n) in self.dropped_by_kind() {
            extend(&format!("dropped_{}", k.name()), n);
        }
        for c in Counter::FTL_FOOTER {
            let n = self.counter_total(c);
            if n != 0 {
                extend(c.name(), n);
            }
        }
        out.push('\n');
        out
    }

    /// Renders the event ring in Chrome `trace_event` format (the JSON
    /// object flavor), suitable for `chrome://tracing` or Perfetto.
    ///
    /// Begin/end kind pairs sharing `(op_id, lun)` fold into `ph:"X"`
    /// complete spans on track `tid = lun` under process `pid = shard`, so
    /// a multi-channel device renders as one process lane per channel;
    /// unpaired events (and kinds with no pair) export as instants.
    /// Timestamps are microseconds with picosecond precision.
    pub fn to_chrome_trace(&self) -> String {
        let mut items: Vec<String> = Vec::new();
        // Open span starts, keyed by (begin-kind name, op_id, lun). A Vec
        // per key handles nesting (e.g. retried ops); BTreeMap keeps the
        // leftover sweep deterministic.
        let mut open: BTreeMap<(&'static str, u64, u32), Vec<&TraceEvent>> = BTreeMap::new();
        let shard = self.shard();
        for e in self.events() {
            if e.kind.span_end().is_some() {
                open.entry((e.kind.name(), e.op_id, e.lun))
                    .or_default()
                    .push(e);
            } else if let Some(begin_kind) = e.kind.span_begin() {
                let key = (begin_kind.name(), e.op_id, e.lun);
                match open.get_mut(&key).and_then(Vec::pop) {
                    Some(begin) => {
                        let mut s = String::new();
                        push_chrome_span(&mut s, shard, begin, e);
                        items.push(s);
                    }
                    None => {
                        let mut s = String::new();
                        push_chrome_instant(&mut s, shard, e);
                        items.push(s);
                    }
                }
            } else {
                let mut s = String::new();
                push_chrome_instant(&mut s, shard, e);
                items.push(s);
            }
        }
        // Spans still open when the trace ended (op in flight at shutdown,
        // or the begin fell off the ring): render as instants.
        for (_, starts) in open {
            for e in starts {
                let mut s = String::new();
                push_chrome_instant(&mut s, shard, e);
                items.push(s);
            }
        }
        // `metadata` is not part of the trace_event schema but Chrome and
        // Perfetto ignore unknown top-level keys. `events` counts the
        // entries actually in `traceEvents` (each paired begin/end folds
        // into one span, so this is less than the ring count once spans
        // pair); `recorded` is the ring count and `dropped` the ring-drop
        // count, so a truncated timeline is detectable from the file alone.
        let mut out = format!(
            "{{\"displayTimeUnit\":\"ns\",\"metadata\":{{\"events\":{},\"recorded\":{},\"dropped\":{},\"shard\":{}",
            items.len(),
            self.events().count(),
            self.dropped(),
            shard
        );
        for (k, n) in self.dropped_by_kind() {
            let _ = write!(out, ",\"dropped_{}\":{}", k.name(), n);
        }
        out.push_str("},\"traceEvents\":[");
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(item);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes [`Tracer::to_json_lines`] to `path`.
    pub fn write_json_lines(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json_lines())
    }

    /// Writes [`Tracer::to_chrome_trace`] to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_chrome_trace())
    }
}

#[cfg(test)]
mod tests {
    use babol_sim::SimTime;

    use crate::{Component, TraceEvent, TraceKind, Tracer};

    fn ev(ps: u64, kind: TraceKind, lun: u32, op: u64) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_picos(ps),
            component: Component::Channel,
            kind,
            lun,
            op_id: op,
        }
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let mut t = Tracer::enabled();
        t.record(ev(1_000, TraceKind::BusAcquire, 2, 7));
        t.record(ev(5_000, TraceKind::BusRelease, 2, 7));
        let s = t.to_json_lines();
        assert_eq!(s.lines().count(), 3, "2 events + footer");
        assert!(s.starts_with(
            r#"{"t_ps":1000,"component":"channel","kind":"bus_acquire","lun":2,"op_id":7}"#
        ));
        assert_eq!(
            s.lines().last().unwrap(),
            r#"{"footer":true,"events":2,"dropped":0,"shard":0}"#
        );
    }

    #[test]
    fn jsonl_footer_reports_ring_drops() {
        let mut t = Tracer::with_capacity(2);
        for i in 0..5u64 {
            t.record(ev(i * 1000, TraceKind::SchedPick, 0, i));
        }
        let s = t.to_json_lines();
        assert_eq!(
            s.lines().last().unwrap(),
            r#"{"footer":true,"events":2,"dropped":3,"shard":0,"dropped_sched_pick":3}"#
        );
        let chrome = t.to_chrome_trace();
        assert!(chrome.contains(
            r#""metadata":{"events":2,"recorded":2,"dropped":3,"shard":0,"dropped_sched_pick":3}"#
        ));
    }

    #[test]
    fn footers_without_drops_keep_the_legacy_shape() {
        let mut t = Tracer::enabled();
        t.record(ev(1_000, TraceKind::BusAcquire, 2, 7));
        assert_eq!(
            t.to_json_lines().lines().last().unwrap(),
            r#"{"footer":true,"events":1,"dropped":0,"shard":0}"#
        );
        assert!(!t.to_chrome_trace().contains("dropped_"));
    }

    #[test]
    fn jsonl_footer_carries_nonzero_ftl_counters() {
        use crate::Counter;
        let mut t = Tracer::enabled();
        t.set_counter(Counter::CacheHits, 12);
        t.set_counter(Counter::EnergyProgramPj, 33_000_000);
        // Counters outside the footer set never leak into it.
        t.count(Counter::SchedPicks, 5);
        t.set_counter(Counter::EventsPopped, 9);
        let s = t.to_json_lines();
        assert_eq!(
            s.lines().last().unwrap(),
            r#"{"footer":true,"events":0,"dropped":0,"shard":0,"cache_hits":12,"energy_program_pj":33000000}"#
        );
    }

    #[test]
    fn chrome_pairs_fold_into_spans() {
        let mut t = Tracer::enabled();
        t.record(ev(1_000_000, TraceKind::BusAcquire, 2, 7));
        t.record(ev(3_000_000, TraceKind::SchedPick, 0, 7));
        t.record(ev(5_000_000, TraceKind::BusRelease, 2, 7));
        // Unpaired begin: stays open, exported as an instant.
        t.record(ev(6_000_000, TraceKind::BusAcquire, 3, 8));
        let s = t.to_chrome_trace();
        assert!(s.contains(r#""ph":"X""#), "no complete span in {s}");
        assert!(s.contains(r#""dur":4.000000"#), "wrong duration in {s}");
        assert_eq!(s.matches(r#""ph":"i""#).count(), 2, "instants in {s}");
        assert!(s.contains(r#""tid":2"#));
    }

    #[test]
    fn chrome_trace_is_structurally_valid_json() {
        // A tiny recursive-descent check: balanced braces/brackets outside
        // strings, since we can't pull in a JSON parser.
        let mut t = Tracer::enabled();
        for i in 0..10 {
            t.record(ev(i * 1000, TraceKind::OpIssue, i as u32, i));
            t.record(ev(i * 1000 + 500, TraceKind::OpComplete, i as u32, i));
        }
        let s = t.to_chrome_trace();
        let (mut brace, mut bracket, mut in_str) = (0i64, 0i64, false);
        let mut prev = ' ';
        for c in s.chars() {
            if in_str {
                if c == '"' && prev != '\\' {
                    in_str = false;
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' => brace += 1,
                    '}' => brace -= 1,
                    '[' => bracket += 1,
                    ']' => bracket -= 1,
                    _ => {}
                }
                assert!(brace >= 0 && bracket >= 0);
            }
            prev = c;
        }
        assert_eq!((brace, bracket, in_str), (0, 0, false));
        assert!(s.trim_end().ends_with("]}"));
    }

    #[test]
    fn empty_trace_still_exports_valid_skeleton() {
        let t = Tracer::enabled();
        assert_eq!(
            t.to_json_lines(),
            "{\"footer\":true,\"events\":0,\"dropped\":0,\"shard\":0}\n"
        );
        assert_eq!(
            t.to_chrome_trace(),
            "{\"displayTimeUnit\":\"ns\",\"metadata\":{\"events\":0,\"recorded\":0,\"dropped\":0,\"shard\":0},\"traceEvents\":[\n]}\n"
        );
    }

    #[test]
    fn shard_tag_reaches_both_exports() {
        let mut t = Tracer::enabled();
        t.set_shard(5);
        t.record(ev(1_000, TraceKind::BusAcquire, 2, 7));
        t.record(ev(5_000, TraceKind::BusRelease, 2, 7));
        let jsonl = t.to_json_lines();
        assert_eq!(
            jsonl.lines().last().unwrap(),
            r#"{"footer":true,"events":2,"dropped":0,"shard":5}"#
        );
        let chrome = t.to_chrome_trace();
        assert!(
            chrome.contains(r#""pid":5"#),
            "span lost the shard: {chrome}"
        );
        assert!(chrome.contains(r#""shard":5"#));
    }
}
