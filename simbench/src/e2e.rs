//! End-to-end metrics, measured with tracing off.

use babol_ftl::IoPattern;
use babol_testkit::digest::Digest;

use crate::probe::RefClock;
use crate::report::{guarded, median, peak_rss_mib, ratio, tail, Metric, Outcome};
use crate::workload::{Runs, Workload, WORKERS};

/// Builds, preconditions and times `w`: `setups` constructions (the
/// median is `setup_s`), then `chunks` timed `run` calls on the last one.
/// Host times are at reference-host speed (see [`RefClock`]).
pub fn measure(w: &Workload, seed: u64, chunks: u64, setups: usize) -> Outcome {
    if w.channels == 1 {
        measure_on(w, seed, chunks, setups, || w.build_one(false, |c| c))
    } else {
        measure_on(w, seed, chunks, setups, || w.build_many(WORKERS, false))
    }
}

fn measure_on<D: Runs>(
    w: &Workload,
    seed: u64,
    chunks: u64,
    setups: usize,
    build: impl Fn() -> D,
) -> Outcome {
    let mut out = Outcome {
        attempted: chunks * w.chunk_ios,
        ..Outcome::default()
    };
    let mut clock = RefClock::new();
    let mut setup_s = Vec::new();
    let mut dev = None;
    for _ in 0..setups {
        // One device at a time, so peak RSS is one device's.
        drop(dev.take());
        let (built, t) = clock.time(|| {
            guarded(|| {
                let mut d = build();
                d.warm_up(w, seed);
                d
            })
        });
        match built {
            Ok(d) => dev = Some(d),
            Err(e) => {
                out.errors.push(format!("setup panicked: {e}"));
                break;
            }
        }
        setup_s.push(t.ref_s);
    }

    let (mut host_us, mut wall_us, mut p99_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut host_s, mut sim_s) = (0.0, 0.0);
    let (mut ios, mut energy_pj, mut gc, mut hits) = (0u64, 0u64, 0u64, 0u64);
    let mut digest = Digest::new();
    if let Some(dev) = dev.as_mut() {
        for c in 0..chunks {
            let job = w.chunk_job(seed, c);
            let chunk = match clock.time(|| guarded(|| dev.run(&job))) {
                (Ok(chunk), t) => {
                    host_us.push(ratio(t.ref_s * 1e6, chunk.fio.ios as f64));
                    wall_us.push(ratio(t.wall_s * 1e6, chunk.fio.ios as f64));
                    host_s += t.ref_s;
                    chunk
                }
                // The device may be mid-operation; this chunk and every
                // later one count as failed.
                (Err(e), _) => {
                    out.errors.push(format!("chunk {c} panicked: {e}"));
                    break;
                }
            };
            let fio = &chunk.fio;
            out.check(fio.ios == w.chunk_ios, || {
                format!("chunk {c} completed {} of {} I/Os", fio.ios, w.chunk_ios)
            });
            p99_us.push(fio.p99_latency.as_micros_f64());
            sim_s += fio.elapsed.as_secs_f64();
            ios += fio.ios;
            energy_pj += fio.energy_pj;
            gc += fio.gc_cycles;
            hits += fio.cache_hits;
            digest.update(chunk.digest.to_le_bytes());
        }
    }
    out.failed = out.attempted - ios.min(out.attempted);

    out.check(energy_pj > 0, || "no flash energy spent".into());
    if w.pattern == IoPattern::RandomWrite {
        out.check(gc > 0, || "write workload ran no GC".into());
    }
    if w.cache {
        out.check(hits > 0, || "cached workload had no cache hits".into());
    }

    out.metric("host_us_per_io", median(&host_us), "us");
    out.metric("host_us_per_io_p80", tail(&host_us), "us");
    out.metric("realtime_factor", ratio(sim_s, host_s), "sim_s/s");
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    out.metric("sim_iops", ratio(ios as f64, sim_s), "io/sim_s");
    out.metric("sim_p99_us", median(&p99_us), "sim_us");
    out.metric(
        "sim_nj_per_io",
        ratio(energy_pj as f64 / 1e3, ios as f64),
        "nJ/io",
    );
    out.extra.push(Metric {
        name: "io_fail_frac",
        value: ratio(out.failed as f64, out.attempted as f64),
        unit: "frac",
    });
    out.extra.push(Metric {
        name: "host_us_per_io_wall",
        value: median(&wall_us),
        unit: "us",
    });
    out.notes.push(("sim_digest", digest.hex()));
    out.notes.push(("chunks", host_us.len().to_string()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;

    /// Reads of a device whose map was never preloaded hit the FTL's
    /// unmapped-read `expect`: every attempted I/O counts as failed, the
    /// run is not correct (a non-zero exit), and every metric is still
    /// reported.
    #[test]
    fn a_panicking_chunk_fails_it_and_every_later_one() {
        let w = Workload {
            preload: false,
            chunk_ios: 50,
            ..find("read_1ch").unwrap()
        };
        let out = measure(&w, 1, 3, 1);
        assert_eq!((out.attempted, out.failed), (150, 150));
        assert!(!out.correct());
        assert!(
            out.errors.iter().any(|e| e.contains("unmapped")),
            "{:?}",
            out.errors
        );
        assert_eq!(out.extra[0].name, "io_fail_frac");
        assert_eq!(out.extra[0].value, 1.0);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "host_us_per_io",
                "host_us_per_io_p80",
                "realtime_factor",
                "setup_s",
                "peak_rss_mb",
                "sim_iops",
                "sim_p99_us",
                "sim_nj_per_io"
            ]
        );
        assert!(out
            .render()
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
