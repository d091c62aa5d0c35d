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

# --locked: a dependency edit that would rewrite Cargo.lock fails here.
step "cargo build --release --offline --locked"
cargo build --release --offline --locked

step "cargo test --workspace -q --offline"
cargo test --workspace -q --offline

# Every committed simulated output: the paper's figures and tables (all
# ten repro binaries rerun with the arguments their results/repro_*.txt
# were made with: `repro_fig10 160`, `repro_fig12 200`, the rest without
# arguments), ssd_fio's default stdout, its --metrics sidecar and --trace
# exports (by SHA-256), the 8-channel --report and ufsm_lint --envelopes
# --json, each compared byte for byte with its committed file. The
# determinism matrix below compares the digests with theirs.
step "committed simulated outputs (scripts/golden_check.sh)"
scripts/golden_check.sh

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

# Status-wait summarization: untraced runs, where the runtime skips a lone
# poller's busy status polls, against traced runs, where every poll plays;
# the boundary property (RDY on a sample edge, a submission mid-summary);
# and the work ledger's exact per-workload counts. Part of the workspace
# run too; named so a divergence is attributed to the summary directly.
step "status-wait summarization differential + work ledger"
cargo test --offline -q --test poll_summary --test work_ledger

# Described page payloads: `PageData` against a flat byte model, and the
# DRAM bytes of every read and the array bytes of every program of whole
# runs (both runtimes under GC, the write-back cache, preloaded reads, the
# Cosmos+-style baseline) against the array and the LPN pattern.
step "page-data byte exactness"
cargo test --offline -q --test page_data

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
# Every leg equals leg 1, so one compare pins all twenty digests to the
# committed ones. A change that moves them on purpose copies leg 1 there.
cmp /tmp/babol_digests_1.txt results/golden_determinism_digests.txt || {
  echo "  to regenerate: cp /tmp/babol_digests_1.txt results/golden_determinism_digests.txt"
  exit 1
}
echo "determinism matrix: digests equal results/golden_determinism_digests.txt"

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

# The export smoke runs and their validators live in one script, which the
# hosted workflow's example job runs too.
scripts/export_smoke.sh /tmp/babol_exports

# The benchmark (simbench/) is a package of its own that compiles against
# the crates' public API, so an API break must fail here rather than in a
# later benchmark run.
# --locked: simbench/Cargo.lock is frozen with the benchmark, so a crate
# dependency edit that would rewrite it fails here.
step "benchmark self-tests (cargo test --locked --manifest-path simbench/Cargo.toml)"
cargo test --offline --locked --manifest-path simbench/Cargo.toml

step "benchmark smoke (simbench/smoke.sh: every workload, untraced and traced)"
simbench/smoke.sh

step "CI mirror: all green"
