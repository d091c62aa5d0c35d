#!/usr/bin/env bash
# Quick check of the benchmark: every workload, untraced and traced, with
# --quick (2 timed chunks, one setup). Each run performs all of its
# correctness checks and exits non-zero if one fails. Under a minute on a
# 2-vCPU host once built.
#
#   simbench/smoke.sh
set -euo pipefail
cd "$(dirname "$0")"
cargo build --quiet --release --offline
for workload in read_1ch write_gc_1ch read_16ch write_cached_16ch; do
    for trace in 0 1; do
        cargo run --quiet --release --offline -- \
            --workload "$workload" --seed 1 --trace "$trace" --quick | tail -n 1
    done
done
