//! Sample statistics and the benchmark's output format.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics `BENCHMARK.json` names, in its order.
    pub metrics: Vec<Metric>,
    /// Further metrics, printed as text only.
    pub extra: Vec<Metric>,
    /// `name value` notes (digests, host facts), printed as text only.
    pub notes: Vec<(&'static str, String)>,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// Host I/Os the timed phase attempted.
    pub attempted: u64,
    /// Attempted host I/Os that did not complete.
    pub failed: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// `name value unit` lines for every metric, the notes and the failed
    /// checks, then the one-line JSON record, which is always last.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(s, "{} {} {}", m.name, m.value, m.unit);
        }
        for (name, value) in &self.notes {
            let _ = writeln!(s, "{name} {value}");
        }
        for e in &self.errors {
            let _ = writeln!(s, "check_failed {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        s
    }
}

/// `num / den`, or 0 when there is nothing to divide by (a metric must
/// stay a finite JSON number even when every chunk failed).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median of `v` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Index of the reported tail sample among `n` sorted samples: the highest
/// one with at least ten samples beyond it (the 40th of 50, so p80), and
/// never below the upper median on runs too short to have one.
pub fn tail_index(n: usize) -> usize {
    n.saturating_sub(11).max(n / 2)
}

/// The sample at [`tail_index`] (0 when empty).
pub fn tail(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[tail_index(s.len())]
}

/// The process's peak resident set (`VmHWM`), MiB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `f`, turning a panic (a watchdog, the unmapped-read `expect`) into
/// its message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
            .lines()
            .next()
            .unwrap_or_default()
            .to_string()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_fortieth_of_fifty() {
        assert_eq!(tail_index(50), 39);
        let samples: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        assert_eq!(tail(&samples), 40.0);
        assert_eq!(median(&samples), 25.5);
        // Exactly ten samples lie beyond it.
        assert_eq!(samples.iter().filter(|&&x| x > 40.0).count(), 10);
        assert_eq!(tail_index(2), 1);
        assert_eq!(tail_index(0), 0);
    }

    #[test]
    fn render_ends_with_the_json_record() {
        let mut o = Outcome {
            attempted: 10,
            failed: 10,
            ..Outcome::default()
        };
        o.metric("host_us_per_io", 1.25, "us");
        o.errors.push("chunk 0 panicked".into());
        let text = o.render();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": false, \"attempted\": 10, \"failed\": 10, \
             \"metrics\": {\"host_us_per_io\": {\"value\": 1.25, \"unit\": \"us\"}}}"
        );
        assert!(text.starts_with("host_us_per_io 1.25 us\n"));
    }

    #[test]
    fn guarded_reports_the_panic_message() {
        assert_eq!(guarded(|| 3), Ok(3));
        assert_eq!(
            guarded(|| -> u8 { panic!("read of unmapped page: boom\nmore") }),
            Err("read of unmapped page: boom".to_string())
        );
    }
}
