//! A lightweight benchmark runner.
//!
//! Replaces `criterion` for this workspace: each benchmark is warmed up,
//! then timed for a fixed number of iterations; the runner reports median,
//! p95, mean, and sample standard deviation, and serializes everything to
//! the `results/BENCH_*.json` trajectory convention so successive runs of
//! the paper benches can be diffed over time.
//!
//! Iteration counts are environment-tunable (`BABOL_BENCH_WARMUP`,
//! `BABOL_BENCH_ITERS`) so CI can smoke the bench binaries cheaply while
//! local runs measure properly.
//!
//! ```
//! use babol_testkit::bench::{black_box, Bench, BenchConfig};
//!
//! let mut b = Bench::with_config(BenchConfig { warmup_iters: 1, timed_iters: 8 });
//! b.bench("sum_1k", || black_box((0..1000u64).sum::<u64>()));
//! assert_eq!(b.results().len(), 1);
//! assert!(b.to_json().contains("\"name\": \"sum_1k\""));
//! ```

pub use core::hint::black_box;

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The fewest timed iterations of a [`Bench::bench_paired`] pair. A gate
/// reads the median of the pair's per-iteration ratios; on a 2-vCPU host
/// single ratios of a 10 ms job spread over ±10% and more, and the median
/// of five of them missed a +10% slowdown in 2 of 10 runs and flagged the
/// unchanged code in 3 of 10 (thirty: 10 of 10 both ways).
pub const MIN_PAIRS: u32 = 30;

/// Iteration counts for a [`Bench`] run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Untimed warmup iterations per benchmark.
    pub warmup_iters: u32,
    /// Timed iterations per benchmark.
    pub timed_iters: u32,
}

impl BenchConfig {
    /// Reads `BABOL_BENCH_WARMUP` / `BABOL_BENCH_ITERS`, defaulting to
    /// 5 warmup and 30 timed iterations.
    pub fn from_env() -> BenchConfig {
        let get = |key: &str, default: u32| {
            std::env::var(key)
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(default)
        };
        BenchConfig {
            warmup_iters: get("BABOL_BENCH_WARMUP", 5),
            timed_iters: get("BABOL_BENCH_ITERS", 30).max(1),
        }
    }
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig::from_env()
    }
}

/// Summary statistics for one benchmark, all in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (use `group/name` to mirror criterion groups).
    pub name: String,
    /// Number of timed iterations.
    pub iters: u32,
    /// Fastest iteration.
    pub min_ns: f64,
    /// Median iteration.
    pub median_ns: f64,
    /// 95th-percentile iteration.
    pub p95_ns: f64,
    /// Slowest iteration.
    pub max_ns: f64,
    /// Mean iteration.
    pub mean_ns: f64,
    /// Sample standard deviation (0 for a single iteration).
    pub stddev_ns: f64,
    /// Simulated flash energy per iteration in joules (0 when the
    /// benchmark does not model energy). Set via [`Bench::annotate_joules`]
    /// after the timed run — energy is a deterministic property of the
    /// simulated work, not a wall-clock measurement.
    pub joules: f64,
    /// On the second row of a [`Bench::bench_paired`] pair: the median
    /// over timed iterations of this row's time divided by the first
    /// row's time in the same iteration. Both halves of a ratio see the
    /// same host state, so it holds still where the two medians drift
    /// apart. `None` on every other row.
    pub pair_ratio: Option<f64>,
}

impl BenchResult {
    /// Computes the summary from raw per-iteration samples (nanoseconds).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(name: impl Into<String>, mut samples: Vec<f64>) -> BenchResult {
        assert!(!samples.is_empty(), "no samples");
        let median = median(&mut samples);
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let stddev = if n > 1 {
            (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        let p95 = samples[((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1];
        BenchResult {
            name: name.into(),
            iters: n as u32,
            min_ns: samples[0],
            median_ns: median,
            p95_ns: p95,
            max_ns: samples[n - 1],
            mean_ns: mean,
            stddev_ns: stddev,
            joules: 0.0,
            pair_ratio: None,
        }
    }

    fn to_json(&self) -> String {
        let pair_ratio = self
            .pair_ratio
            .map_or(String::new(), |r| format!(", \"pair_ratio\": {r:.6}"));
        format!(
            "{{\"name\": {}, \"iters\": {}, \"min_ns\": {:.1}, \"median_ns\": {:.1}, \
             \"p95_ns\": {:.1}, \"max_ns\": {:.1}, \"mean_ns\": {:.1}, \"stddev_ns\": {:.1}, \
             \"joules\": {:.9}{pair_ratio}}}",
            json_string(&self.name),
            self.iters,
            self.min_ns,
            self.median_ns,
            self.p95_ns,
            self.max_ns,
            self.mean_ns,
            self.stddev_ns,
            self.joules,
        )
    }
}

/// The median of `samples`, which it leaves sorted.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// The benchmark runner: collects [`BenchResult`]s and serializes them.
#[derive(Debug, Default)]
pub struct Bench {
    cfg: BenchConfig,
    results: Vec<BenchResult>,
    quiet: bool,
}

impl Bench {
    /// Creates a runner configured from the environment.
    pub fn new() -> Bench {
        Bench::with_config(BenchConfig::from_env())
    }

    /// Creates a runner with an explicit configuration.
    pub fn with_config(cfg: BenchConfig) -> Bench {
        Bench {
            cfg,
            results: Vec::new(),
            quiet: false,
        }
    }

    /// Suppresses the per-benchmark progress lines.
    pub fn quiet(mut self) -> Bench {
        self.quiet = true;
        self
    }

    /// Runs one benchmark: warmup, timed iterations, summary.
    // Determinism allowlist: measuring wall-clock time is this function's
    // whole purpose; nothing downstream treats the readings as reproducible
    // (`scripts/lint.sh` documents the gate).
    #[allow(clippy::disallowed_methods)]
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &BenchResult {
        for _ in 0..self.cfg.warmup_iters {
            black_box(f());
        }
        let mut samples = Vec::with_capacity(self.cfg.timed_iters as usize);
        for _ in 0..self.cfg.timed_iters {
            let t0 = Instant::now();
            black_box(f());
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        let result = BenchResult::from_samples(name, samples);
        if !self.quiet {
            println!(
                "{:<40} median {:>12} p95 {:>12} stddev {:>12}",
                result.name,
                fmt_ns(result.median_ns),
                fmt_ns(result.p95_ns),
                fmt_ns(result.stddev_ns),
            );
        }
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    /// Runs two benchmarks with interleaved iterations: both warm up, then
    /// every timed iteration runs `f_a` and `f_b` back to back, so host
    /// speed drift over the run lands on both sample sets equally. Use for
    /// on/off pairs whose *ratio* is gated (e.g. the telemetry overhead
    /// pair): measured as two separate blocks, minutes of drift between
    /// the blocks can dwarf a few-percent effect; interleaved, the ratio
    /// of the two medians stays meaningful even on a noisy host, and the
    /// median of the per-iteration ratios (`name_b`'s
    /// [`BenchResult::pair_ratio`]) more so. A pair is timed at least
    /// [`MIN_PAIRS`] times whatever the configured count. Pushes `name_a`
    /// then `name_b`, in that order, onto [`Bench::results`].
    // Determinism allowlist: measuring wall-clock time is this function's
    // whole purpose (see `Bench::bench`).
    #[allow(clippy::disallowed_methods)]
    pub fn bench_paired<RA, RB>(
        &mut self,
        name_a: &str,
        name_b: &str,
        mut f_a: impl FnMut() -> RA,
        mut f_b: impl FnMut() -> RB,
    ) {
        for _ in 0..self.cfg.warmup_iters {
            black_box(f_a());
            black_box(f_b());
        }
        let n = self.cfg.timed_iters.max(MIN_PAIRS) as usize;
        let mut samples_a = Vec::with_capacity(n);
        let mut samples_b = Vec::with_capacity(n);
        for _ in 0..n {
            let t0 = Instant::now();
            black_box(f_a());
            samples_a.push(t0.elapsed().as_nanos() as f64);
            let t1 = Instant::now();
            black_box(f_b());
            samples_b.push(t1.elapsed().as_nanos() as f64);
        }
        let mut ratios: Vec<f64> = samples_a
            .iter()
            .zip(&samples_b)
            .map(|(a, b)| b / a.max(1.0))
            .collect();
        let mut second = BenchResult::from_samples(name_b, samples_b);
        second.pair_ratio = Some(median(&mut ratios));
        for result in [BenchResult::from_samples(name_a, samples_a), second] {
            if !self.quiet {
                println!(
                    "{:<40} median {:>12} p95 {:>12} stddev {:>12}",
                    result.name,
                    fmt_ns(result.median_ns),
                    fmt_ns(result.p95_ns),
                    fmt_ns(result.stddev_ns),
                );
            }
            self.results.push(result);
        }
    }

    /// Attaches the simulated flash energy (joules per iteration) to the
    /// most recently run benchmark. Energy is deterministic across
    /// iterations of the same simulated workload, so the caller computes
    /// it once from any iteration's report.
    ///
    /// # Panics
    ///
    /// Panics if no benchmark has run yet.
    pub fn annotate_joules(&mut self, joules: f64) {
        self.results
            .last_mut()
            .expect("annotate_joules before any benchmark ran")
            .joules = joules;
    }

    /// Attaches simulated flash energy to the benchmark called `name` —
    /// the [`Bench::bench_paired`] counterpart of [`Bench::annotate_joules`],
    /// which can only reach the most recent row.
    ///
    /// # Panics
    ///
    /// Panics if no benchmark with that name has run.
    pub fn annotate_joules_for(&mut self, name: &str, joules: f64) {
        self.results
            .iter_mut()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("annotate_joules_for: no benchmark named {name:?}"))
            .joules = joules;
    }

    /// All results collected so far, in run order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Serializes the run to the `BENCH_*.json` schema.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"schema\": \"babol-bench-v1\",\n");
        s.push_str(&format!("  \"host_cpus\": {},\n", host_cpus()));
        s.push_str(&format!("  \"warmup_iters\": {},\n", self.cfg.warmup_iters));
        s.push_str(&format!("  \"timed_iters\": {},\n", self.cfg.timed_iters));
        s.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let sep = if i + 1 < self.results.len() { "," } else { "" };
            s.push_str(&format!("    {}{sep}\n", r.to_json()));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Writes [`Bench::to_json`] to `path`, creating parent directories.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())
    }
}

/// Logical CPUs available to this process (1 if the platform cannot say).
/// Recorded in the bench JSON so gates that compare parallel against
/// single-thread throughput (`scripts/bench_check.py`) can tell a genuine
/// regression from a run on a host too small to exhibit the speedup.
pub fn host_cpus() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_known_samples() {
        let r = BenchResult::from_samples("t", vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(r.iters, 5);
        assert_eq!(r.min_ns, 1.0);
        assert_eq!(r.max_ns, 5.0);
        assert_eq!(r.median_ns, 3.0);
        assert_eq!(r.p95_ns, 5.0);
        assert_eq!(r.mean_ns, 3.0);
        let expected_sd = (10.0f64 / 4.0).sqrt();
        assert!((r.stddev_ns - expected_sd).abs() < 1e-12);
    }

    #[test]
    fn even_count_median_averages() {
        let r = BenchResult::from_samples("t", vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.median_ns, 2.5);
    }

    #[test]
    fn single_sample_has_zero_stddev() {
        let r = BenchResult::from_samples("t", vec![7.0]);
        assert_eq!(r.stddev_ns, 0.0);
        assert_eq!(r.median_ns, 7.0);
        assert_eq!(r.p95_ns, 7.0);
    }

    #[test]
    fn runner_collects_and_serializes() {
        let mut b = Bench::with_config(BenchConfig {
            warmup_iters: 0,
            timed_iters: 3,
        })
        .quiet();
        b.bench("group/alpha", || black_box(2u64 + 2));
        b.annotate_joules(2.5e-3);
        b.bench("beta", || black_box(vec![0u8; 64]));
        assert_eq!(b.results().len(), 2);
        assert_eq!(b.results()[0].joules, 2.5e-3);
        assert_eq!(b.results()[1].joules, 0.0);
        let json = b.to_json();
        assert!(json.contains("\"schema\": \"babol-bench-v1\""));
        assert!(json.contains(&format!("\"host_cpus\": {}", host_cpus())));
        assert!(host_cpus() >= 1);
        assert!(json.contains("\"name\": \"group/alpha\""));
        assert!(json.contains("\"median_ns\""));
        assert!(json.contains("\"joules\": 0.002500000"));
        // Identical results serialize identically: the JSON layer itself
        // introduces no nondeterminism.
        assert_eq!(json, b.to_json());
    }

    #[test]
    fn paired_benchmarks_interleave_and_annotate() {
        let mut b = Bench::with_config(BenchConfig {
            warmup_iters: 1,
            timed_iters: 4,
        })
        .quiet();
        b.bench_paired(
            "pair/off",
            "pair/on",
            || black_box(1u64 + 1),
            || black_box((0..64u64).sum::<u64>()),
        );
        b.annotate_joules_for("pair/off", 1.5);
        b.annotate_joules_for("pair/on", 1.5);
        assert_eq!(b.results().len(), 2);
        assert_eq!(b.results()[0].name, "pair/off");
        assert_eq!(b.results()[1].name, "pair/on");
        assert_eq!(b.results()[0].iters, MIN_PAIRS);
        assert_eq!(b.results()[1].iters, MIN_PAIRS);
        assert_eq!(b.results()[0].joules, 1.5);
        assert_eq!(b.results()[1].joules, 1.5);
        assert_eq!(b.results()[0].pair_ratio, None);
        assert!(b.results()[1].pair_ratio.is_some_and(|r| r > 0.0));
        let json = b.to_json();
        assert_eq!(json.matches("\"pair_ratio\"").count(), 1);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn write_json_creates_parents() {
        let dir = std::env::temp_dir().join("babol-testkit-bench-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sub").join("BENCH_test.json");
        let mut b = Bench::with_config(BenchConfig {
            warmup_iters: 0,
            timed_iters: 1,
        })
        .quiet();
        b.bench("x", || black_box(1));
        b.write_json(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"name\": \"x\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
