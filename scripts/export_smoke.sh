#!/usr/bin/env bash
# Export smoke runs with their validators: ssd_fio's --trace export,
# trace_report's text and CSV views of it, ssd_fio's --metrics sidecar with
# two SLO verdicts and its dashboard, and the sidecar's determinism across
# a repeat run and across thread counts.
#
#   scripts/export_smoke.sh [DIR]   # outputs land in DIR (default /tmp)
#
# scripts/ci.sh and the workflow's example job both run this script, the
# way both read scripts/examples.txt, so the two can never drift.
set -euo pipefail
cd "$(dirname "$0")/.."
dir=${1:-/tmp}
mkdir -p "$dir"

step() { printf '\n==> %s\n' "$*"; }

step "trace export smoke (ssd_fio --trace)"
cargo run --release --offline --example ssd_fio -- --trace "$dir/trace.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$dir/trace.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["traceEvents"], "trace file has no events"
assert all("ph" in e and "ts" in e for e in d["traceEvents"])
assert d["metadata"]["events"] == len(d["traceEvents"]), "metadata event count mismatch"
print(f"trace OK: {len(d['traceEvents'])} events, {d['metadata']['dropped']} dropped")
PY
else
  echo "python3 not found; skipped trace JSON validation"
fi

step "trace report smoke (trace_report on the exported .jsonl)"
cargo run --release --offline --example trace_report -- "$dir/trace.json.jsonl" \
  > "$dir/report.txt"
cargo run --release --offline --example trace_report -- "$dir/trace.json.jsonl" --csv \
  > "$dir/report.csv"
grep -q "phase breakdown" "$dir/report.txt"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$dir/report.csv" <<'PY'
import sys
rows = {}
for line in open(sys.argv[1]):
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
PY
else
  echo "python3 not found; skipped trace report validation"
fi

step "metrics export smoke (ssd_fio --metrics, SLO verdicts, dashboard)"
cargo run --release --offline --example ssd_fio -- \
  --metrics "$dir/metrics.jsonl" --slo "p99<800us" --slo "iops>1000"
cargo run --release --offline --example trace_report -- --metrics "$dir/metrics.jsonl" \
  > "$dir/metrics_dash.txt"
grep -q -- "-- slo --" "$dir/metrics_dash.txt"
grep -q "p99" "$dir/metrics_dash.txt"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$dir/metrics.jsonl" <<'PY'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
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
PY
else
  echo "python3 not found; skipped metrics JSON validation"
fi

step "metrics determinism (repeat run + threads 1 vs 2, byte-identical)"
cargo run --release --offline --example ssd_fio -- \
  --metrics "$dir/metrics_rerun.jsonl" --slo "p99<800us" --slo "iops>1000" >/dev/null
cmp "$dir/metrics.jsonl" "$dir/metrics_rerun.jsonl"
cargo run --release --offline --example ssd_fio -- --channels 4 --threads 1 \
  --metrics "$dir/metrics_t1.jsonl" >/dev/null
cargo run --release --offline --example ssd_fio -- --channels 4 --threads 2 \
  --metrics "$dir/metrics_t2.jsonl" >/dev/null
cmp "$dir/metrics_t1.jsonl" "$dir/metrics_t2.jsonl"
echo "metrics sidecars byte-identical across repeat runs and thread counts"
