//! Parsing exported line-JSON traces back into [`TraceEvent`]s.
//!
//! The inverse of [`Tracer::to_json_lines`][crate::Tracer::to_json_lines]:
//! a minimal parser for exactly the flat-object, no-string-escapes format
//! the exporter emits, so `trace_report` can analyze a trace file offline
//! without a JSON library. Unknown keys are ignored (forward-compatible);
//! malformed lines are errors, not silently skipped — a truncated or
//! corrupted trace should fail loudly, not produce a subtly wrong report.

use std::fmt;
use std::str::FromStr;

use babol_sim::SimTime;

use crate::{Component, Counter, TraceEvent, TraceKind};

/// A trace read back from line-JSON.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace {
    /// The events, in file order (oldest first).
    pub events: Vec<TraceEvent>,
    /// Ring-drop count from the footer record (0 if the file had no
    /// footer — traces from older exporters).
    pub dropped: u64,
    /// Per-kind ring-drop counts from the footer (`dropped_<kind>` keys),
    /// in footer key order; kinds the footer omitted lost nothing.
    pub dropped_by_kind: Vec<(TraceKind, u64)>,
    /// Shard (channel) id from the footer record (0 if absent — traces
    /// from single-system runs or older exporters).
    pub shard: u32,
    /// Whether a footer record was present.
    pub has_footer: bool,
    /// FTL production counters carried in the footer, in
    /// [`Counter::FTL_FOOTER`] order; absent keys are 0.
    pub ftl_counters: Vec<(Counter, u64)>,
}

impl ParsedTrace {
    /// Ring drops of one kind (0 when the footer carried no entry).
    pub fn dropped_of(&self, kind: TraceKind) -> u64 {
        self.dropped_by_kind
            .iter()
            .find(|&&(k, _)| k == kind)
            .map_or(0, |&(_, n)| n)
    }

    /// Value of an FTL footer counter (0 when the footer omitted it).
    pub fn ftl_counter(&self, c: Counter) -> u64 {
        self.ftl_counters
            .iter()
            .find(|&&(k, _)| k == c)
            .map_or(0, |&(_, n)| n)
    }

    /// True when the footer carried any FTL production counter.
    pub fn has_ftl_counters(&self) -> bool {
        self.ftl_counters.iter().any(|&(_, n)| n != 0)
    }
}

/// Why a trace file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.reason
        )
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    pub(crate) fn at(line: usize, reason: impl Into<String>) -> ParseError {
        ParseError {
            line,
            reason: reason.into(),
        }
    }
}

/// Splits one flat JSON object (`{"k":v,...}`, no nesting except the
/// values themselves being bare ints/strings/bools) into key/value pairs.
fn fields(line: &str) -> Option<Vec<(&str, &str)>> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    let mut out = Vec::new();
    for pair in body.split(',') {
        let (k, v) = pair.split_once(':')?;
        let k = k.trim().strip_prefix('"')?.strip_suffix('"')?;
        out.push((k, v.trim()));
    }
    Some(out)
}

/// One record of a flat line-JSON file, with typed key lookup whose errors
/// carry the record's line number.
pub(crate) struct Record<'a> {
    line: usize,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Record<'a> {
    /// An error at this record's line.
    pub(crate) fn err(&self, reason: impl Into<String>) -> ParseError {
        ParseError::at(self.line, reason)
    }

    /// The raw value of `key`.
    pub(crate) fn get(&self, key: &str) -> Option<&'a str> {
        self.fields
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// `key`'s value parsed as `T`, or `None` when the key is absent.
    pub(crate) fn opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, ParseError> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| self.err(format!("bad {key}"))))
            .transpose()
    }

    /// `key`'s value parsed as `T`; an absent key is an error.
    pub(crate) fn req<T: FromStr>(&self, key: &str) -> Result<T, ParseError> {
        self.opt(key)?
            .ok_or_else(|| self.err(format!("missing {key}")))
    }

    /// `key`'s string value, without its quotes.
    pub(crate) fn string(&self, key: &str) -> Result<&'a str, ParseError> {
        self.get(key)
            .ok_or_else(|| self.err(format!("missing {key}")))?
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| self.err(format!("{key} not a string")))
    }
}

/// Reads a flat line-JSON file, handing each record to `each` in file
/// order. Blank lines are skipped, and a record carrying a `footer` key
/// must be the last one. Returns whether a footer was seen.
pub(crate) fn read_records<'a>(
    text: &'a str,
    mut each: impl FnMut(&Record<'a>) -> Result<(), ParseError>,
) -> Result<bool, ParseError> {
    let mut saw_footer = false;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let line_no = idx + 1;
        if saw_footer {
            return Err(ParseError::at(line_no, "record after footer"));
        }
        let fields =
            fields(line).ok_or_else(|| ParseError::at(line_no, "not a flat JSON object"))?;
        let rec = Record {
            line: line_no,
            fields,
        };
        saw_footer = rec.get("footer").is_some();
        each(&rec)?;
    }
    Ok(saw_footer)
}

/// Parses a line-JSON trace export (see
/// [`Tracer::to_json_lines`][crate::Tracer::to_json_lines]). Blank lines
/// are skipped; the footer record, if present, must be last.
pub fn parse_json_lines(text: &str) -> Result<ParsedTrace, ParseError> {
    let mut trace = ParsedTrace::default();
    trace.has_footer = read_records(text, |rec| {
        if rec.get("footer").is_some() {
            trace.dropped = rec.opt("dropped")?.unwrap_or(0);
            trace.shard = rec.opt("shard")?.unwrap_or(0);
            for &(k, _) in &rec.fields {
                if let Some(kind) = k.strip_prefix("dropped_").and_then(TraceKind::from_name) {
                    trace.dropped_by_kind.push((kind, rec.req(k)?));
                }
            }
            for c in Counter::FTL_FOOTER {
                if let Some(n) = rec.opt(c.name())? {
                    trace.ftl_counters.push((c, n));
                }
            }
            return Ok(());
        }
        let component = rec.string("component")?;
        let kind = rec.string("kind")?;
        trace.events.push(TraceEvent {
            t: SimTime::from_picos(rec.req("t_ps")?),
            component: Component::from_name(component)
                .ok_or_else(|| rec.err("unknown component"))?,
            kind: TraceKind::from_name(kind).ok_or_else(|| rec.err("unknown kind"))?,
            lun: rec.req("lun")?,
            op_id: rec.req("op_id")?,
        });
        Ok(())
    })?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    #[test]
    fn roundtrips_exporter_output() {
        let mut t = Tracer::enabled();
        for i in 0..8u64 {
            t.record(TraceEvent {
                t: SimTime::from_picos(i * 1_000),
                component: Component::ALL[(i % 6) as usize],
                kind: TraceKind::ALL[(i % 17) as usize],
                lun: i as u32 % 4,
                op_id: i,
            });
        }
        let parsed = parse_json_lines(&t.to_json_lines()).unwrap();
        let original: Vec<TraceEvent> = t.events().copied().collect();
        assert_eq!(parsed.events, original);
        assert!(parsed.has_footer);
        assert_eq!(parsed.dropped, 0);
        assert_eq!(parsed.shard, 0);
    }

    #[test]
    fn footer_roundtrips_the_shard_tag() {
        let mut t = Tracer::enabled();
        t.set_shard(11);
        t.record(TraceEvent {
            t: SimTime::from_picos(1),
            component: Component::Sim,
            kind: TraceKind::SchedPick,
            lun: 0,
            op_id: 0,
        });
        let parsed = parse_json_lines(&t.to_json_lines()).unwrap();
        assert_eq!(parsed.shard, 11);
        // Traces without the tag (older exporters) default to shard 0.
        let legacy = "{\"footer\":true,\"events\":0,\"dropped\":0}\n";
        assert_eq!(parse_json_lines(legacy).unwrap().shard, 0);
    }

    #[test]
    fn footer_carries_drop_count() {
        let mut t = Tracer::with_capacity(1);
        for i in 0..4u64 {
            t.record(TraceEvent {
                t: SimTime::from_picos(i),
                component: Component::Sim,
                kind: TraceKind::SchedPick,
                lun: 0,
                op_id: i,
            });
        }
        let parsed = parse_json_lines(&t.to_json_lines()).unwrap();
        assert_eq!(parsed.events.len(), 1);
        assert_eq!(parsed.dropped, 3);
        assert_eq!(parsed.dropped_of(TraceKind::SchedPick), 3);
        assert_eq!(parsed.dropped_of(TraceKind::OpIssue), 0);
        // Legacy footers (no breakdown keys) parse with every kind at 0.
        let legacy = "{\"footer\":true,\"events\":0,\"dropped\":9,\"shard\":0}\n";
        let parsed = parse_json_lines(legacy).unwrap();
        assert_eq!(parsed.dropped, 9);
        assert!(parsed.dropped_by_kind.is_empty());
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let text = "{\"t_ps\":1,\"component\":\"sim\",\"kind\":\"sched_pick\",\"lun\":0,\"op_id\":0}\nnot json\n";
        let e = parse_json_lines(text).unwrap_err();
        assert_eq!(e.line, 2);
        let text = r#"{"t_ps":1,"component":"bogus","kind":"sched_pick","lun":0,"op_id":0}"#;
        assert!(parse_json_lines(text).is_err());
        let text = r#"{"component":"sim","kind":"sched_pick","lun":0,"op_id":0}"#;
        assert!(parse_json_lines(text)
            .unwrap_err()
            .reason
            .contains("missing t_ps"));
    }

    #[test]
    fn footer_roundtrips_ftl_counters() {
        use crate::Component;
        let mut t = Tracer::enabled();
        t.count(Component::Ftl, Counter::CacheDirtyEvicts, 4);
        t.count(Component::Ftl, Counter::EnergyErasePj, 248_000_000);
        let parsed = parse_json_lines(&t.to_json_lines()).unwrap();
        assert!(parsed.has_ftl_counters());
        assert_eq!(parsed.ftl_counter(Counter::CacheDirtyEvicts), 4);
        assert_eq!(parsed.ftl_counter(Counter::EnergyErasePj), 248_000_000);
        assert_eq!(parsed.ftl_counter(Counter::CacheHits), 0);
        // Legacy footers parse with every FTL counter at 0.
        let legacy = "{\"footer\":true,\"events\":0,\"dropped\":0,\"shard\":0}\n";
        let parsed = parse_json_lines(legacy).unwrap();
        assert!(!parsed.has_ftl_counters());
        assert_eq!(parsed.ftl_counter(Counter::WearMigrations), 0);
    }

    #[test]
    fn unknown_keys_are_skipped() {
        let text = r#"{"t_ps":5,"component":"ftl","kind":"gc_start","lun":2,"op_id":9,"extra":42}"#;
        let parsed = parse_json_lines(text).unwrap();
        assert_eq!(parsed.events.len(), 1);
        assert_eq!(parsed.events[0].kind, TraceKind::GcStart);
        assert!(!parsed.has_footer);
    }
}
