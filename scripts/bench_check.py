#!/usr/bin/env python3
"""Compare a fresh babol-bench-v1 JSON against the committed baseline.

    scripts/bench_check.py <baseline.json> <fresh.json> [--rebaseline]

Fails (exit 1) when any *gated* benchmark's median regresses by more than
BABOL_BENCH_REGRESSION_PCT percent (default 25) AFTER normalizing out the
host-speed difference between the machine that recorded the baseline and
the machine running now. Gated benchmarks are the simulator-throughput
paths — names starting with one of GATED_PREFIXES — because those are the
ones the zero-copy data path and the event queue are accountable for. Latency microbenches (table1/fig10/table3) and the loc counter are
reported but not gated: their medians swing with host load far more than
25%.

Host normalization: raw medians are machine-sensitive (a committed
baseline from a fast workstation would fail every gated bench on a slower
CI runner even with identical code). Instead of comparing absolute
nanoseconds, the gate estimates a host factor — the median of the
fresh/baseline ratios across ALL benchmarks common to both runs — and
flags a benchmark only when it regressed relative to that factor, i.e.
when it got slower *compared to how much slower this machine is overall*.
A uniform slowdown passes; one benchmark degrading while its peers hold
steady fails.

--rebaseline rewrites the baseline file with the fresh run's contents
(exit 0, no gating): the supported way to refresh results/BENCH_paper.json
after an intentional performance change.

New benchmarks missing from the baseline pass with a note (the baseline
just predates them); a gated benchmark missing from the FRESH run fails,
since silently dropping a bench is how regressions hide.

Parallel speedup gate: when the fresh run contains the 16-channel fio
pair (sim/16ch_fio on 8 workers, sim/16ch_fio_1t single-threaded), their
median ratio must be at least BABOL_BENCH_SPEEDUP_MIN (default 4.0).
Both benches simulate identical work, so the ratio is a pure parallel-DES
speedup and needs no host normalization — but it does need cores: on a
host reporting fewer than 8 CPUs (the fresh JSON's host_cpus field) the
gate prints the measured ratio and SKIPs, because an undersubscribed
worker pool cannot exhibit the speedup no matter how correct the kernel.

Write-back cache gate: when the fresh run contains the write pair
(fio/cached_write_throughput, fio/uncached_write_throughput — the same
sequential rewrite job with and without a device-covering cache), the
cached run must be at least BABOL_BENCH_CACHE_SPEEDUP_MIN (default 1.1)
times faster. Same-host, same-work comparison, so no normalization.

Telemetry overhead gate: when the fresh run contains the metrics pair
(fio/metrics_on_write, fio/metrics_off_write — the same GC-heavy random
write job with the streaming-telemetry hub on and off), the metrics-on
time may exceed the metrics-off time by at most
BABOL_BENCH_METRICS_OVERHEAD_PCT percent (default 5). Same-host,
same-work comparison, so no normalization. The bench runner times the
pair with interleaved iterations and records, on the metrics-on row, the
median of the per-iteration on/off ratios ("pair_ratio"): both halves of
each ratio ran back to back and saw the same host state, so a host that
jumps between speed levels during the run moves both and the ratio holds
still, where the two medians (each taken over its own samples) can land
on different levels. The gate reads that field. The hub's delta-snapshot
sampling is designed to be nearly free and this gate keeps it that way.

Energy gate: every fresh result row must carry a "joules" field
(babol-bench-v1 rows report simulated flash energy; 0.0 means the bench
does not model it). The fio/ rows must report nonzero energy, and the
cached write job must burn strictly fewer joules than the uncached one —
energy is deterministic in the simulator, so this is an exact comparison,
not a noisy measurement.

Stdlib only — the workspace is hermetic and CI must not pip install.
"""

import json
import os
import shutil
import statistics
import sys

GATED_PREFIXES = ("sim/", "fio/")

# Below this many common benchmarks the host-factor estimate is noise;
# fall back to raw comparison (factor 1.0).
MIN_COMMON_FOR_FACTOR = 3

# (single-thread bench, parallel bench, worker count the parallel bench
# uses). The speedup gate only arms when the host has at least that many
# CPUs to schedule the workers on.
SPEEDUP_SINGLE = "sim/16ch_fio_1t"
SPEEDUP_PARALLEL = "sim/16ch_fio"
SPEEDUP_MIN_CPUS = 8

# The write-back cache pair: identical simulated write job, cache on/off.
CACHE_ON = "fio/cached_write_throughput"
CACHE_OFF = "fio/uncached_write_throughput"

# The telemetry pair: identical simulated write job, metrics hub on/off.
METRICS_ON = "fio/metrics_on_write"
METRICS_OFF = "fio/metrics_off_write"

# Benchmarks that simulate flash work must report nonzero joules.
ENERGY_REQUIRED_PREFIX = "fio/"


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "babol-bench-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def medians(path):
    return {r["name"]: float(r["median_ns"]) for r in load(path)["results"]}


def check_speedup(fresh_doc, fresh, failures):
    """Applies the parallel speedup gate; appends to failures on breach."""
    if SPEEDUP_SINGLE not in fresh or SPEEDUP_PARALLEL not in fresh:
        return
    minimum = float(os.environ.get("BABOL_BENCH_SPEEDUP_MIN", "4.0"))
    cpus = int(fresh_doc.get("host_cpus", 1))
    if fresh[SPEEDUP_PARALLEL] <= 0:
        failures.append(f"{SPEEDUP_PARALLEL}: zero median, cannot compute speedup")
        return
    ratio = fresh[SPEEDUP_SINGLE] / fresh[SPEEDUP_PARALLEL]
    if cpus < SPEEDUP_MIN_CPUS:
        print(
            f"parallel speedup gate SKIPPED: host_cpus={cpus} < "
            f"{SPEEDUP_MIN_CPUS} (measured {ratio:.2f}x, need {minimum:.1f}x)"
        )
        return
    verdict = "OK" if ratio >= minimum else "FAILED"
    print(
        f"parallel speedup gate {verdict}: {SPEEDUP_SINGLE} / "
        f"{SPEEDUP_PARALLEL} = {ratio:.2f}x (need {minimum:.1f}x, "
        f"host_cpus={cpus})"
    )
    if ratio < minimum:
        failures.append(
            f"parallel speedup {ratio:.2f}x below the {minimum:.1f}x floor "
            f"({SPEEDUP_SINGLE} median {fresh[SPEEDUP_SINGLE]:.0f} ns, "
            f"{SPEEDUP_PARALLEL} median {fresh[SPEEDUP_PARALLEL]:.0f} ns)"
        )


def check_cache_pair(fresh, failures):
    """Gates the cached/uncached write pair; appends on breach."""
    if CACHE_ON not in fresh or CACHE_OFF not in fresh:
        return
    minimum = float(os.environ.get("BABOL_BENCH_CACHE_SPEEDUP_MIN", "1.1"))
    if fresh[CACHE_ON] <= 0:
        failures.append(f"{CACHE_ON}: zero median, cannot compute cache speedup")
        return
    ratio = fresh[CACHE_OFF] / fresh[CACHE_ON]
    verdict = "OK" if ratio >= minimum else "FAILED"
    print(
        f"write cache gate {verdict}: {CACHE_OFF} / {CACHE_ON} = "
        f"{ratio:.2f}x (need {minimum:.1f}x)"
    )
    if ratio < minimum:
        failures.append(
            f"cache speedup {ratio:.2f}x below the {minimum:.1f}x floor "
            f"({CACHE_OFF} median {fresh[CACHE_OFF]:.0f} ns, "
            f"{CACHE_ON} median {fresh[CACHE_ON]:.0f} ns)"
        )


def check_metrics_pair(fresh_doc, fresh, failures):
    """Gates the metrics on/off telemetry overhead; appends on breach."""
    if METRICS_ON not in fresh or METRICS_OFF not in fresh:
        return
    allowed = float(os.environ.get("BABOL_BENCH_METRICS_OVERHEAD_PCT", "5"))
    row = next(r for r in fresh_doc["results"] if r["name"] == METRICS_ON)
    if "pair_ratio" not in row:
        failures.append(f"{METRICS_ON}: no pair_ratio, cannot compute overhead")
        return
    overhead = (float(row["pair_ratio"]) - 1.0) * 100.0
    verdict = "OK" if overhead <= allowed else "FAILED"
    print(
        f"telemetry overhead gate {verdict}: {METRICS_ON} vs {METRICS_OFF} = "
        f"{overhead:+.2f}% (median per-pair ratio, allowed +{allowed:.1f}%)"
    )
    if overhead > allowed:
        failures.append(
            f"telemetry overhead {overhead:+.2f}% above the +{allowed:.1f}% "
            f"ceiling (median per-pair ratio {row['pair_ratio']}; medians "
            f"{fresh[METRICS_ON]:.0f} ns on, {fresh[METRICS_OFF]:.0f} ns off)"
        )


def check_energy(fresh_doc, failures):
    """Gates the simulated-energy reporting; appends on breach."""
    joules = {}
    for r in fresh_doc["results"]:
        name = r["name"]
        if "joules" not in r:
            failures.append(f"{name}: missing the joules field")
            continue
        joules[name] = float(r["joules"])
        if name.startswith(ENERGY_REQUIRED_PREFIX) and joules[name] <= 0:
            failures.append(f"{name}: simulated flash job reports no energy")
    if CACHE_ON in joules and CACHE_OFF in joules and joules[CACHE_ON] > 0:
        ok = joules[CACHE_ON] < joules[CACHE_OFF]
        print(
            f"energy gate {'OK' if ok else 'FAILED'}: {CACHE_ON} "
            f"{joules[CACHE_ON]:.6f} J vs {CACHE_OFF} {joules[CACHE_OFF]:.6f} J"
        )
        if not ok:
            failures.append(
                f"cached write job burned {joules[CACHE_ON]:.6f} J, not less "
                f"than uncached {joules[CACHE_OFF]:.6f} J"
            )
    # The metrics hub is a pure observer: the simulated job — and so its
    # deterministic energy — must be bit-identical with the hub on or off.
    if METRICS_ON in joules and METRICS_OFF in joules:
        if joules[METRICS_ON] != joules[METRICS_OFF]:
            failures.append(
                f"metrics sampling changed simulated energy: "
                f"{joules[METRICS_ON]:.9f} J on vs {joules[METRICS_OFF]:.9f} J off"
            )


def main():
    args = [a for a in sys.argv[1:] if a != "--rebaseline"]
    rebaseline = "--rebaseline" in sys.argv[1:]
    if len(args) != 2:
        sys.exit(__doc__)
    baseline_path, fresh_path = args

    if rebaseline:
        medians(fresh_path)  # validate schema before clobbering anything
        shutil.copyfile(fresh_path, baseline_path)
        print(f"baseline {baseline_path} rewritten from {fresh_path}")
        return

    threshold = float(os.environ.get("BABOL_BENCH_REGRESSION_PCT", "25"))
    base = medians(baseline_path)
    fresh_doc = load(fresh_path)
    fresh = {r["name"]: float(r["median_ns"]) for r in fresh_doc["results"]}

    common = [n for n in base if n in fresh and base[n] > 0]
    if len(common) >= MIN_COMMON_FOR_FACTOR:
        host_factor = statistics.median(fresh[n] / base[n] for n in common)
    else:
        host_factor = 1.0
    print(
        f"host factor {host_factor:.3f} "
        f"(median fresh/baseline ratio over {len(common)} common benchmarks)"
    )

    failures = []
    print(f"{'benchmark':40} {'baseline':>12} {'fresh':>12} {'delta':>8}  gate")
    for name in sorted(set(base) | set(fresh)):
        gated = name.startswith(GATED_PREFIXES)
        tag = "GATED" if gated else "info"
        if name not in fresh:
            print(f"{name:40} {base[name]:12.1f} {'missing':>12} {'':>8}  {tag}")
            if gated:
                failures.append(f"{name}: present in baseline but not in fresh run")
            continue
        if name not in base:
            print(f"{name:40} {'new':>12} {fresh[name]:12.1f} {'':>8}  {tag}")
            continue
        expected = base[name] * host_factor
        delta = (fresh[name] - expected) / expected * 100.0
        print(f"{name:40} {base[name]:12.1f} {fresh[name]:12.1f} {delta:+7.1f}%  {tag}")
        if gated and delta > threshold:
            failures.append(
                f"{name}: median {base[name]:.0f} ns -> {fresh[name]:.0f} ns "
                f"({delta:+.1f}% vs host-normalized expectation "
                f"{expected:.0f} ns, > +{threshold:.0f}% allowed)"
            )

    check_speedup(fresh_doc, fresh, failures)
    check_cache_pair(fresh, failures)
    check_metrics_pair(fresh_doc, fresh, failures)
    check_energy(fresh_doc, failures)

    if failures:
        print(f"\nbench regression gate FAILED ({len(failures)}):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"\nbench regression gate OK (threshold +{threshold:.0f}%, host-normalized)")


if __name__ == "__main__":
    main()
