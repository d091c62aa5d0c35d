#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — the tier-1 gate in one command.
#
#   scripts/ci.sh           # run everything (fmt, clippy, build, test,
#                           # bench smoke, example smoke runs, simbench
#                           # self-tests and smoke)
#
# Every cargo invocation is --offline: the workspace has only path
# dependencies and a committed Cargo.lock, so a cold registry must never
# break the build. If this script exits 0, CI will be green.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --all --check"
cargo fmt --all --check

step "determinism lint (scripts/lint.sh)"
./scripts/lint.sh

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Intra-doc links must resolve: a link left pointing at a deleted item
# fails here instead of rendering as dead text.
step "cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "protocol + envelope lint (ufsm_lint --envelopes --deny-warnings)"
cargo run --release --offline --example ufsm_lint -- --envelopes --deny-warnings

step "lint JSON smoke (ufsm_lint --envelopes --json, schema babol-lint-v1)"
cargo run --release --offline --example ufsm_lint -- --envelopes --json \
  > /tmp/babol_lint.json
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
d = json.load(open("/tmp/babol_lint.json"))
assert d["schema"] == "babol-lint-v1", f"bad schema: {d.get('schema')}"
assert d["summary"]["programs"] == len(d["programs"]) == 92
assert all(p["envelope"] is not None for p in d["programs"])
print(f"lint JSON OK: {len(d['programs'])} programs")
EOF
else
  echo "python3 not found; skipped lint JSON validation"
fi

step "cargo build --release --offline"
cargo build --release --offline

step "cargo test --workspace -q --offline"
cargo test --workspace -q --offline

step "verifier mutation gate"
cargo test --offline -q --test verify_mutations --test verify_differential

# Envelope soundness: the differential run above replays >=10k random
# transactions at three jitter levels against the static [min, max];
# this adds the cross-crate audits (DESIGN.md rule-registry consistency,
# V07x sim-enforced marking).
step "envelope soundness gate (cross-crate audits)"
cargo test --offline -q --test envelope_audit

# The FTL property suite: differential models for wear leveling, bad-block
# retirement, and the write-back cache. Already part of the workspace test
# run above, but named here (like the mutation gate) so a property failure
# is attributed to the FTL instead of buried in the workspace log.
step "FTL property suite (wear/bad-block/cache differential models)"
cargo test --offline -q --test properties -- ftl_ cache

# Mirror of the hosted determinism matrix: both digest tests (plain
# read path + production FTL with cache, wear leveling, and GC) run once
# per thread count, and the printed `determinism-digest` lines
# (3 read seeds + 2 production seeds, x 4 legs = 20 digests) must be
# byte-identical across legs; 3 threads is the uneven split. `--test-threads=1` keeps the two tests'
# printed lines from interleaving mid-line.
step "determinism matrix (BABOL_THREADS 1/2/3/8 x 5 seeds)"
for t in 1 2 3 8; do
  BABOL_THREADS=$t cargo test --offline -q --test determinism \
    thread_count_invariant -- --nocapture --test-threads=1 \
    | grep -o 'determinism-digest.*' | sort > "/tmp/babol_digests_$t.txt"
  echo "threads=$t:"
  cat "/tmp/babol_digests_$t.txt"
done
cmp /tmp/babol_digests_1.txt /tmp/babol_digests_2.txt
cmp /tmp/babol_digests_1.txt /tmp/babol_digests_3.txt
cmp /tmp/babol_digests_1.txt /tmp/babol_digests_8.txt
echo "determinism matrix: all legs byte-identical"

# The smoke run writes to a scratch path: the committed
# results/BENCH_paper.json is the full-iteration baseline and a 2-iter
# smoke run must never clobber it.
step "bench harness smoke (BABOL_BENCH_ITERS=2, scratch output)"
BABOL_BENCH_WARMUP=1 BABOL_BENCH_ITERS=2 \
  cargo bench --offline -p babol-bench --bench paper -- --json /tmp/BENCH_smoke.json

if command -v python3 >/dev/null 2>&1; then
  step "bench regression gate (medians vs results/BENCH_paper.json)"
  BABOL_BENCH_WARMUP=2 BABOL_BENCH_ITERS=5 \
    cargo bench --offline -p babol-bench --bench paper -- --json /tmp/BENCH_fresh.json
  python3 scripts/bench_check.py results/BENCH_paper.json /tmp/BENCH_fresh.json
else
  echo "python3 not found; skipped bench regression gate"
fi

# The example smoke list lives in scripts/examples.txt (shared with the
# hosted workflow) so the two can never drift.
grep -v '^\s*#' scripts/examples.txt | grep -v '^\s*$' | while read -r ex; do
  step "cargo run --release --example $ex"
  cargo run --release --offline --example "$ex"
done

step "multi-channel smoke (ssd_fio --channels 8 --threads 2)"
cargo run --release --offline --example ssd_fio -- --channels 8 --threads 2

step "trace export smoke (ssd_fio --trace)"
cargo run --release --offline --example ssd_fio -- --trace /tmp/babol_trace.json
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
d = json.load(open("/tmp/babol_trace.json"))
assert d["traceEvents"], "trace file has no events"
assert all("ph" in e and "ts" in e for e in d["traceEvents"])
assert d["metadata"]["events"] == len(d["traceEvents"]), "metadata event count mismatch"
print(f"trace OK: {len(d['traceEvents'])} events, {d['metadata']['dropped']} dropped")
EOF
else
  echo "python3 not found; skipped trace JSON validation"
fi

step "trace report smoke (trace_report on the exported .jsonl)"
cargo run --release --offline --example trace_report -- /tmp/babol_trace.json.jsonl \
  > /tmp/babol_report.txt
cargo run --release --offline --example trace_report -- /tmp/babol_trace.json.jsonl --csv \
  > /tmp/babol_report.csv
grep -q "phase breakdown" /tmp/babol_report.txt
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
rows = {}
for line in open("/tmp/babol_report.csv"):
    section, key, value = line.strip().split(",", 2)
    rows[(section, key)] = value
for need in [("meta", "events"), ("util", "channel_busy_ps"), ("gap", "p50_ps"),
             ("gap", "p95_ps"), ("gap", "p99_ps"), ("phase", "array_sum_ps"),
             ("recon", "phase_sum_ps"), ("recon", "e2e_sum_ps")]:
    assert need in rows, f"CSV missing {need}"
phase_sum = int(rows[("recon", "phase_sum_ps")])
e2e_sum = int(rows[("recon", "e2e_sum_ps")])
assert e2e_sum > 0, "report attributed no ops"
assert abs(phase_sum - e2e_sum) <= e2e_sum // 100, \
    f"phase sum {phase_sum} != e2e sum {e2e_sum} (>1% off)"
print(f"report OK: phase sum reconciles ({phase_sum} ps over {rows[('meta', 'events')]} events)")
EOF
else
  echo "python3 not found; skipped trace report validation"
fi

step "metrics export smoke (ssd_fio --metrics, SLO verdicts, dashboard)"
cargo run --release --offline --example ssd_fio -- \
  --metrics /tmp/babol_metrics.jsonl --slo "p99<800us" --slo "iops>1000"
cargo run --release --offline --example trace_report -- --metrics /tmp/babol_metrics.jsonl \
  > /tmp/babol_metrics_dash.txt
grep -q -- "-- slo --" /tmp/babol_metrics_dash.txt
grep -q "p99" /tmp/babol_metrics_dash.txt
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
lines = open("/tmp/babol_metrics.jsonl").read().splitlines()
head = json.loads(lines[0])
assert head["schema"] == "babol-metrics-v1", f"bad schema: {head}"
foot = json.loads(lines[-1])
assert foot.get("footer") is True, "last record is not the footer"
rows = [json.loads(l) for l in lines[1:-1]]
device = [r for r in rows if r.get("shard") == -1]
verdicts = [r for r in rows if "slo" in r]
assert len(device) == head["frames"] == foot["frames"], "frame count mismatch"
assert foot["end_ps"] // head["window_ps"] + 1 == len(device), \
    "device frames must tile sim time from the epoch"
assert [r["frame"] for r in device] == list(range(len(device))), \
    "device lane is not index-contiguous"
assert len(verdicts) == 2, f"expected 2 SLO verdicts, got {len(verdicts)}"
assert sum(r["ops"] for r in device) > 0, "metrics recorded no ops"
print(f"metrics OK: {len(device)} windows x {head['shards']} shard(s), "
      f"{len(verdicts)} SLO verdicts, end_ps={foot['end_ps']}")
EOF
else
  echo "python3 not found; skipped metrics JSON validation"
fi

step "metrics determinism (repeat run + threads 1 vs 2, byte-identical)"
cargo run --release --offline --example ssd_fio -- \
  --metrics /tmp/babol_metrics_rerun.jsonl --slo "p99<800us" --slo "iops>1000" >/dev/null
cmp /tmp/babol_metrics.jsonl /tmp/babol_metrics_rerun.jsonl
cargo run --release --offline --example ssd_fio -- --channels 4 --threads 1 \
  --metrics /tmp/babol_metrics_t1.jsonl >/dev/null
cargo run --release --offline --example ssd_fio -- --channels 4 --threads 2 \
  --metrics /tmp/babol_metrics_t2.jsonl >/dev/null
cmp /tmp/babol_metrics_t1.jsonl /tmp/babol_metrics_t2.jsonl
echo "metrics sidecars byte-identical across repeat runs and thread counts"

# The benchmark (simbench/) is a package of its own that compiles against
# the crates' public API, so an API break must fail here rather than in a
# later benchmark run.
step "benchmark self-tests (cargo test --manifest-path simbench/Cargo.toml)"
cargo test --offline --manifest-path simbench/Cargo.toml

step "benchmark smoke (simbench/smoke.sh: every workload, untraced and traced)"
simbench/smoke.sh

step "CI mirror: all green"
