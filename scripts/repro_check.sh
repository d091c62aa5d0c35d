#!/usr/bin/env bash
# Reruns the ten paper repro binaries with the arguments their committed
# outputs in results/ were made with, and compares each output byte for
# byte; exits 1 on any difference.
#
# Each line of RUNS is a binary and its arguments; the output file is
# results/<binary>.txt. To regenerate one, run the binary as printed on a
# difference: target/release/<binary> <arguments> > results/<binary>.txt
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=(
  "repro_table1"
  "repro_table2"
  "repro_table3"
  "repro_fig10 160"
  "repro_fig11"
  "repro_fig12 200"
  "repro_ablation_lookahead"
  "repro_ablation_polling"
  "repro_ablation_switchcost"
  "repro_ablation_sched"
)

cargo build --release --offline -p babol-bench --bins
out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT
failed=0
for run in "${RUNS[@]}"; do
  read -r bin args <<<"$run"
  # shellcheck disable=SC2086 # args is a word list
  target/release/"$bin" $args >"$out_dir/$bin.txt"
  if cmp -s "$out_dir/$bin.txt" "results/$bin.txt"; then
    echo "same: $bin${args:+ $args}"
  else
    echo "DIFFERS: $bin${args:+ $args} (diff committed fresh):"
    diff "results/$bin.txt" "$out_dir/$bin.txt" | head -20 || true
    echo "  to regenerate: target/release/$bin${args:+ $args} > results/$bin.txt"
    failed=1
  fi
done
exit "$failed"
