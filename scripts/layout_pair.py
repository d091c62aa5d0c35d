#!/usr/bin/env python3
"""Parent-against-change host time over several code layouts.

    python3 scripts/layout_pair.py --parent PARENT_DIR --change CHANGE_DIR \\
        --work SCRATCH_DIR [--rounds 8] [--workloads write_gc_1ch,read_1ch]

Host time moves with code layout about as much as with code (ROADMAP item
11), so one build per side cannot resolve a claim under ~10%. This script
builds the benchmark (`simbench/`) of each checkout LAYOUTS times, each link
shuffling the input sections with its own seed
(`rust-lld --shuffle-sections=*=<seed>`), each build in its own target
directory under SCRATCH_DIR. It then runs every build once per workload
per round (`--seconds SECONDS --seed SEED`), alternating the sides and
reversing the order every round, and divides each run's METRIC by its
round's mean, so host drift over time cancels. For each workload it
prints:

* ratio: the median of the change's round-normalized times, pooled over
  its layouts and rounds, over the parent's;
* the parent's A/A spread: each parent layout's median over the parent's
  pooled median, lowest and highest;
* a verdict: "better" or "worse" when the ratio lies outside that spread,
  "same" otherwise.

Pass the same checkout as parent and change for an A/A run: the two sides
then differ only in their layout seeds. The script fails when two builds
of one side, or the two sides of an A/A run, disagree on `sim_digest` for
a workload and seed: layout must not reach simulated output. It reads each
build's JSON record and edits nothing in either checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

DEFAULT_WORKLOADS = "write_gc_1ch"
LAYOUTS = 3  # builds per side
SECONDS = 2  # the benchmark's --seconds per run
SEED = 1  # workload seed
METRIC = "host_us_per_io"


def sysroot():
    return subprocess.run(
        ["rustc", "--print", "sysroot"], capture_output=True, text=True, check=True
    ).stdout.strip()


def build(checkout, target_dir, seed, root):
    """Builds the benchmark of `checkout` linked with section seed `seed`."""
    gcc_ld = os.path.join(root, "lib", "rustlib", "x86_64-unknown-linux-gnu", "bin", "gcc-ld")
    env = dict(os.environ)
    env["RUSTFLAGS"] = " ".join(
        [
            f"-C link-arg=-B{gcc_ld}",
            "-C link-arg=-fuse-ld=lld",
            f"-C link-arg=-Wl,--shuffle-sections=*={seed}",
        ]
    )
    env.pop("CARGO_TARGET_DIR", None)
    subprocess.run(
        [
            "cargo", "build", "--quiet", "--release", "--offline",
            "--manifest-path", os.path.join(checkout, "simbench", "Cargo.toml"),
            "--target-dir", target_dir,
        ],
        env=env, check=True,
    )
    return os.path.join(target_dir, "release", "babol-benchmark")


def run(binary, checkout, workload):
    args = [binary, "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", "0"]
    p = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} failed:\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
    record = json.loads(lines[-1])
    notes = dict(l.split(" ", 1) for l in lines[:-1] if l.count(" ") == 1)
    return record["metrics"][METRIC]["value"], notes.get("sim_digest")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--work", required=True, help="scratch directory for the builds")
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--workloads", default=DEFAULT_WORKLOADS)
    a = ap.parse_args()
    parent, change = os.path.abspath(a.parent), os.path.abspath(a.change)
    aa = parent == change
    started = time.monotonic()
    root = sysroot()
    builds = []  # (side, layout seed, binary)
    for side, checkout, base in (("parent", parent, 1), ("change", change, 101)):
        for k in range(LAYOUTS):
            seed = base + k
            target = os.path.join(os.path.abspath(a.work), f"{side}-{seed}")
            print(f"building {side} layout {seed} in {target}", file=sys.stderr)
            builds.append((side, checkout, seed, build(checkout, target, seed, root)))
    built = time.monotonic()

    workloads = a.workloads.split(",")
    # times[workload][i]: builds[i]'s round-normalized times.
    times = {w: [[] for _ in builds] for w in workloads}
    digests = {}
    for r in range(a.rounds):
        order = list(range(len(builds)))
        # Alternate the sides, and reverse every other round.
        order.sort(key=lambda i: (i % LAYOUTS, builds[i][0] != "parent"))
        if r % 2:
            order.reverse()
        for w in workloads:
            raw = {}
            for i in order:
                side, checkout, seed, binary = builds[i]
                value, digest = run(binary, checkout, w)
                raw[i] = value
                key = (w, side if not aa else "both")
                if digests.setdefault(key, digest) != digest:
                    sys.exit(f"{w}: {side} layout {seed} printed sim_digest {digest}, "
                             f"another build {digests[key]}")
            mean = statistics.fmean(raw.values())
            for i, value in raw.items():
                times[w][i].append(value / mean)
        print(f"round {r + 1}/{a.rounds} done", file=sys.stderr)

    print(f"layouts per side: {LAYOUTS}, rounds: {a.rounds}, seconds per run: {SECONDS}, "
          f"seed: {SEED}, metric: {METRIC}{' (A/A)' if aa else ''}")
    print(f"wall time: {built - started:.0f} s building, {time.monotonic() - built:.0f} s running")
    for w in workloads:
        side_of = [b[0] for b in builds]
        pooled = {s: statistics.median(v for i, t in enumerate(times[w]) if side_of[i] == s
                                       for v in t) for s in ("parent", "change")}
        per_layout = [statistics.median(t) / pooled["parent"]
                      for i, t in enumerate(times[w]) if side_of[i] == "parent"]
        lo, hi = min(per_layout), max(per_layout)
        ratio = pooled["change"] / pooled["parent"]
        verdict = "better" if ratio < lo else "worse" if ratio > hi else "same"
        print(f"{w}: change/parent {ratio:.4f} ({(ratio - 1) * 100:+.1f}%), "
              f"parent A/A spread {lo:.4f}..{hi:.4f}: {verdict}")
        if not aa and digests[(w, "parent")] != digests[(w, "change")]:
            print(f"{w}: sim_digest differs: parent {digests[(w, 'parent')]}, "
                  f"change {digests[(w, 'change')]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
