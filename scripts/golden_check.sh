#!/usr/bin/env bash
# Reruns every committed simulated output in results/ and compares each
# with its committed copy byte for byte; exits 1 on any difference. This
# is the one output-compare loop: the ten paper repro binaries with the
# arguments their outputs were made with (`repro_fig10 160`,
# `repro_fig12 200`, the rest without arguments), and the outputs no repro
# binary prints (ssd_fio's stdout, sidecars and trace exports, ufsm_lint's
# JSON).
#
# Each line of RUNS is an output file under results/ and the shell
# command whose stdout it is. The trace exports are hundreds of MB, so
# their lines hold their SHA-256 instead. The determinism digests are
# not run here: the determinism matrix (scripts/ci.sh and the workflow's
# determinism jobs) compares its BABOL_THREADS=1 leg with
# results/golden_determinism_digests.txt. A change that moves an output on
# purpose regenerates it with the command printed on the difference and
# says why in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

fio=target/release/examples/ssd_fio
lint=target/release/examples/ufsm_lint
# The sidecar and the traces are written to a scratch directory and read
# back; the commands run from the repository root.
RUNS=(
  "repro_table1.txt|target/release/repro_table1"
  "repro_table2.txt|target/release/repro_table2"
  "repro_table3.txt|target/release/repro_table3"
  "repro_fig10.txt|target/release/repro_fig10 160"
  "repro_fig11.txt|target/release/repro_fig11"
  "repro_fig12.txt|target/release/repro_fig12 200"
  "repro_ablation_lookahead.txt|target/release/repro_ablation_lookahead"
  "repro_ablation_polling.txt|target/release/repro_ablation_polling"
  "repro_ablation_switchcost.txt|target/release/repro_ablation_switchcost"
  "repro_ablation_sched.txt|target/release/repro_ablation_sched"
  "golden_ssd_fio.txt|$fio"
  "golden_ssd_fio_metrics.jsonl|d=\$(mktemp -d) && $fio --metrics \$d/m.jsonl >/dev/null && cat \$d/m.jsonl && rm -r \$d"
  "golden_ssd_fio_trace.sha256|d=\$(mktemp -d) && $fio --trace \$d/trace.json >/dev/null && (cd \$d && sha256sum trace.json trace.json.jsonl) && rm -r \$d"
  "golden_ssd_fio_8ch_report.txt|$fio --channels 8 --threads 2 --report"
  "golden_ufsm_lint_envelopes.json|$lint --envelopes --json"
)
# The multi-channel sidecar and per-shard traces must not depend on the
# worker count, so each thread count is held to the one committed file.
for t in 1 2 3; do
  RUNS+=(
    "golden_ssd_fio_8ch_metrics.jsonl|d=\$(mktemp -d) && $fio --channels 8 --threads $t --metrics \$d/m.jsonl >/dev/null && cat \$d/m.jsonl && rm -r \$d"
    "golden_ssd_fio_8ch_trace.sha256|d=\$(mktemp -d) && $fio --channels 8 --threads $t --trace \$d/trace.json >/dev/null && (cd \$d && sha256sum trace.json.shard*) && rm -r \$d"
  )
done

cargo build --release --offline -p babol-bench --bins
cargo build --release --offline --example ssd_fio --example ufsm_lint
out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT
failed=0

for run in "${RUNS[@]}"; do
  file=${run%%|*}
  cmd=${run#*|}
  bash -c "$cmd" >"$out_dir/$file"
  if cmp -s "$out_dir/$file" "results/$file"; then
    echo "same: $file"
  else
    echo "DIFFERS: $file (diff committed fresh):"
    diff "results/$file" "$out_dir/$file" | head -20 || true
    echo "  to regenerate: { $cmd; } > results/$file"
    failed=1
  fi
done
exit "$failed"
