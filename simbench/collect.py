#!/usr/bin/env python3
"""Runs the benchmark over seeds and records each run as one JSON line.

    python3 simbench/collect.py --seeds 1-10 PARENT_DIR:parent.jsonl CHANGE_DIR:change.jsonl

Each positional argument is a checkout (a directory holding BENCHMARK.json)
and the file its records are appended to. With two or more checkouts the
runs alternate: for every workload and seed each checkout runs once, and
the order reverses from one seed to the next, so drift in host speed lands
on every side. Pass the same checkout twice for an A/A set.

A record holds the workload, seed, trace flag, host CPU count, commit (when
the checkout is a git work tree; "-dirty" marks uncommitted changes), the
digests, every metric of the run's JSON record and, under "extra", its
text-only metrics.
`compare.py` reads these files.
"""

import argparse
import json
import os
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def commit_of(checkout):
    """The checked-out commit, with "-dirty" when the work tree has changes."""
    try:
        out = subprocess.run(
            ["git", "-C", checkout, "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(checkout, command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{checkout}: {' '.join(args)} printed nothing:\n{p.stderr[-3000:]}")
    record = json.loads(lines[-1])
    notes = dict(l.split(" ", 1) for l in lines[:-1] if l.count(" ") == 1)
    # Text-only metrics (`name value unit` lines the JSON record omits).
    extra = {}
    for l in lines[:-1]:
        name, _, rest = l.partition(" ")
        value, _, unit = rest.partition(" ")
        if unit and " " not in unit and name not in record["metrics"]:
            try:
                extra[name] = {"value": float(value), "unit": unit}
            except ValueError:
                pass
    record["extra"] = extra
    record.update({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "exit": p.returncode,
        "host_cpus": int(notes.get("host_cpus", 0)),
        "commit": commit_of(checkout),
    })
    for key in ("sim_digest", "traced_digest", "one_worker_digest"):
        if key in notes:
            record[key] = notes[key]
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sides", nargs="+", metavar="CHECKOUT:OUT.jsonl")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", help="comma-separated (default: every workload)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    opts = ap.parse_args()

    sides = [s.rsplit(":", 1) for s in opts.sides]
    with open(os.path.join(sides[0][0], "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    seconds = opts.seconds or bench["run_seconds"]

    for workload in workloads:
        for i, seed in enumerate(seeds_of(opts.seeds)):
            order = sides if i % 2 == 0 else sides[::-1]
            for checkout, out in order:
                record = run_once(checkout, bench["command"], workload, seed, seconds, opts.trace)
                with open(out, "a") as f:
                    f.write(json.dumps(record, sort_keys=True) + "\n")
                status = "ok" if record["correct"] else "INCORRECT"
                print(f"{workload} seed {seed} {checkout}: {status}", file=sys.stderr)


if __name__ == "__main__":
    main()
