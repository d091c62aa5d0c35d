#!/usr/bin/env python3
"""Compares two sets of benchmark runs by the rule of choosing-metrics section 8.

    python3 simbench/compare.py parent.jsonl change.jsonl         # A/B
    python3 simbench/compare.py --aa set1.jsonl set2.jsonl        # A/A

Reads the records `collect.py` writes and pairs runs of the same workload
and seed. For every end-to-end metric of BENCHMARK.json it reports each
side's median and quartiles and one verdict:

  better      the change won at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range; needs at least 10 pairs
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  a side's spread (IQR / median) exceeds the bound, and not
              every change run beats every parent run
  same        none of the above

The simulated metrics (sim_*) and sim_digest must match seed by seed: a
change that only speeds up the simulator leaves them bit-identical. Traced
records (trace 1) must carry the same digest as the untraced run of their
seed, on every device they ran.

--aa checks two sets of one commit instead: every metric's medians must
agree within its bound, every spread must stay within it, and the simulated
results must match. It prints the largest relative gap between the medians,
the figure the bounds are derived from.

Prints one row per workload after the per-metric lines; exits 1 on a
regression (A/B) or a failed A/A check.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_seed(records, workload, trace):
    return {r["seed"]: r for r in records if r["workload"] == workload and r["trace"] == trace}


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def check_digests(records, runs_by_seed, workload):
    """Traced records must reproduce the untraced digest on every device."""
    problems = []
    for seed, r in sorted(by_seed(records, workload, 1).items()):
        digest = r.get("sim_digest")
        for key in ("traced_digest", "one_worker_digest"):
            if key in r and r[key] != digest:
                problems.append(f"seed {seed}: {key} {r[key]} != sim_digest {digest}")
        run = runs_by_seed.get(seed)
        if run and run.get("seconds") == r.get("seconds") and run.get("sim_digest") != digest:
            problems.append(f"seed {seed}: traced run digest {digest} != untraced {run.get('sim_digest')}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--aa", action="store_true", help="both sets come from one commit")
    ap.add_argument("--bench", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    opts = ap.parse_args()

    with open(opts.bench) as f:
        bench = json.load(f)
    parent, change = load(opts.parent), load(opts.change)
    failed = False
    rows = []
    for w in (w["name"] for w in bench["workloads"]):
        a, b = by_seed(parent, w, 0), by_seed(change, w, 0)
        seeds = sorted(set(a) & set(b))
        if not seeds:
            rows.append(f"{w:18} no paired runs")
            continue
        notes = []
        if any(not a[s]["correct"] or not b[s]["correct"] for s in seeds):
            notes.append("INCORRECT RUNS")
            failed = True
        fail_a = sum(a[s]["failed"] for s in seeds)
        fail_b = sum(b[s]["failed"] for s in seeds)
        if fail_b > fail_a:
            notes.append(f"more failed I/Os ({fail_b} vs {fail_a})")
            failed = True
        sim_diff = [s for s in seeds if a[s].get("sim_digest") != b[s].get("sim_digest")]
        verdicts = []
        worst_gap = 0.0
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            pa = [a[s]["metrics"][name]["value"] for s in seeds]
            pb = [b[s]["metrics"][name]["value"] for s in seeds]
            qa, qb = quartiles(pa), quartiles(pb)
            rel = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse_by = rel if lower else -rel
            sa, sb = spread(pa), spread(pb)
            better = [(y < x) if lower else (y > x) for x, y in zip(pa, pb)]
            wins = sum(better)
            ties = sum(x == y for x, y in zip(pa, pb))
            all_better = (max(pb) < min(pa)) if lower else (min(pb) > max(pa))
            if name.startswith("sim_") and pa != pb:
                sim_diff.append(name)
            if opts.aa:
                gap = abs(rel)
                worst_gap = max(worst_gap, gap) if name != "setup_s" else worst_gap
                ok = gap <= bound and (name == "setup_s" or max(sa, sb) <= bound)
                verdict = "ok" if ok else "FAIL"
                failed |= not ok
            elif max(sa, sb) > bound and not all_better:
                verdict = "unresolved"
            elif len(seeds) >= 10 and wins >= 0.9 * len(seeds) and abs(qb[1] - qa[1]) > qa[2] - qa[0] and worse_by < 0:
                verdict = "better"
            elif worse_by > bound:
                verdict = "worse"
                failed = True
            else:
                verdict = "same"
            verdicts.append(f"{name}={verdict}")
            print(
                f"{w:18} {name:19} {qa[1]:14.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                f"  ->  {qb[1]:14.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {100 * rel:+7.2f}%"
                f"  spread {100 * sa:5.2f}%/{100 * sb:5.2f}%  bound {100 * bound:.0f}%"
                f"  wins {wins}/{len(seeds)} ties {ties}  {verdict}"
            )
        if sim_diff:
            notes.append(f"simulated results differ: {sorted(set(map(str, sim_diff)))}")
            failed |= opts.aa
        for problems in (check_digests(parent, a, w), check_digests(change, b, w)):
            if problems:
                notes.extend(problems)
                failed = True
        if opts.aa:
            notes.append(f"largest A/A median gap {100 * worst_gap:.2f}% (setup_s excluded)")
        rows.append(f"{w:18} pairs {len(seeds):2}  " + " ".join(verdicts) + ("  | " + "; ".join(notes) if notes else ""))
    print()
    for row in rows:
        print(row)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
