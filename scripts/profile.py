#!/usr/bin/env python3
"""Wall-clock sampling profile of one benchmark run.

    python3 scripts/profile.py --work SCRATCH_DIR [--checkout .] \\
        [--workload write_gc_1ch]

The run length, seed, sampling rate and table length are the constants
SECONDS, SEED, HZ and TOP below.

Hosts without hardware counters (`perf_event_open` failing with ENOENT) or
with a coarse profiling tick (`ITIMER_PROF` capped near the ~100 Hz kernel
tick) still have `ITIMER_REAL`. This script

1. compiles a small LD_PRELOAD shim with `cc` into SCRATCH_DIR: it arms an
   `ITIMER_REAL` interval timer at HZ when the process starts, records the
   interrupted program counter on every `SIGALRM`, and at exit writes the
   process's memory map and the samples to a file;
2. builds the benchmark (`simbench/`) of CHECKOUT with line tables into its
   own target directory under SCRATCH_DIR
   (`CARGO_PROFILE_RELEASE_DEBUG=line-tables-only`, `CARGO_TARGET_DIR`);
   nothing in the checkout changes;
3. runs the benchmark once under the shim (`--trace 0`);
4. symbolizes the samples in the benchmark binary with `addr2line -i` and
   those in the C library with its dynamic symbol table (`nm -D`), and
   prints each object's share, the C library's top functions, and the
   innermost repository frame of every sample, by file, function and line.

The C library has no line tables here: a sample in a function it does
not export (glibc's malloc internals, its `memmove` variants) is named
after the exported function below it, as `[unexported, after SYM]`.

Limits. It samples only the process it launches, setup included. The
kernel may deliver fewer signals than HZ asks (2-3 kHz of 10 kHz on a
2-vCPU VM); the first line prints the count. `SIGALRM` from
`ITIMER_REAL` is directed at the process, and the kernel delivers it
mostly to the main thread, so a multi-threaded run (the 16-channel
workloads' worker pool) profiles the coordinator thread, not the workers.
Wall-clock samples also count time the process waits (`sched_yield`,
blocking calls), which is what a wall-clock metric pays.
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys

OUTSIDE = "[outside the repository]"
SECONDS = 4
SEED = 1
HZ = 10000
TOP = 20

SHIM = r"""
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long pcs[MAX_SAMPLES];
static unsigned long taken;

static void on_alarm(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        pcs[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_alarm;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGALRM, &sa, NULL);
    long period = 1000000 / atol(getenv("PROFILE_HZ"));
    struct itimerval it = {{0, period}, {0, period}};
    setitimer(ITIMER_REAL, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_REAL, &off, NULL);
    FILE *out = fopen(getenv("PROFILE_OUT"), "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (out && maps && fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; out && i < n; i++)
        fprintf(out, "pc %lx\n", pcs[i]);
    if (maps)
        fclose(maps);
    if (out)
        fclose(out);
}
"""


def build_shim(work):
    src, lib = os.path.join(work, "shim.c"), os.path.join(work, "shim.so")
    with open(src, "w") as f:
        f.write(SHIM)
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", lib, src], check=True)
    return lib


def build_bench(checkout, work):
    env = dict(os.environ)
    env["CARGO_PROFILE_RELEASE_DEBUG"] = "line-tables-only"
    env["CARGO_TARGET_DIR"] = os.path.join(work, "target")
    subprocess.run(
        ["cargo", "build", "--quiet", "--release", "--offline",
         "--manifest-path", os.path.join(checkout, "simbench", "Cargo.toml")],
        env=env, check=True,
    )
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "babol-benchmark")


def read_samples(path):
    """The process's file mappings and its sampled program counters."""
    maps, pcs = [], []
    with open(path) as f:
        for line in f:
            kind, rest = line.split(" ", 1)
            if kind == "pc":
                pcs.append(int(rest, 16))
                continue
            fields = rest.split()
            if len(fields) < 6 or not fields[5].startswith("/"):
                continue
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            maps.append((lo, hi, int(fields[2], 16), fields[5]))
    return maps, pcs


def load_bases(maps):
    """Each object's load base: the start of its mapping at file offset 0."""
    return {path: lo for lo, _, off, path in maps if off == 0}


def object_of(maps, pc):
    for lo, hi, _, path in maps:
        if lo <= pc < hi:
            return path
    return None


def addr2line(binary, addrs, repo):
    """Innermost repository frame (function, file:line) of each address."""
    p = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", binary],
        input="".join(f"{a:x}\n" for a in addrs), capture_output=True, text=True, check=True,
    )
    # After each `-a` address line come (function, file:line) pairs, the
    # innermost frame first, then the frames it was inlined into.
    frames, current, function = {}, None, None
    for line in p.stdout.splitlines():
        if function is None and line.startswith("0x"):
            current = int(line, 16)
            frames[current] = []
        elif function is None:
            function = line
        else:
            frames[current].append((function, line.split(" ")[0]))
            function = None
    out = {}
    for addr, chain in frames.items():
        inner = next(((fn, loc) for fn, loc in chain if loc.startswith(repo)), None)
        if inner is not None:
            fn, loc = inner
            out[addr] = (short_fn(fn), os.path.relpath(loc, repo))
        elif chain:
            out[addr] = (f"[outside] {short_fn(chain[0][0])}", OUTSIDE)
    return out


def short_fn(fn):
    """A demangled path without generic arguments, last two segments."""
    depth, plain = 0, []
    for c in fn:
        depth += c == "<"
        if depth == 0:
            plain.append(c)
        depth -= c == ">"
    return "::".join("".join(plain).split("::")[-2:])


def dynamic_symbols(lib):
    """(start, size, name) of the library's exported functions."""
    p = subprocess.run(["nm", "-D", "-S", "--defined-only", lib], capture_output=True, text=True)
    syms = []
    for line in p.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[2] in "TtWi":
            syms.append((int(fields[0], 16), int(fields[1], 16), fields[3].split("@")[0]))
    syms.sort()
    return syms


def libc_function(syms, starts, off):
    """The exported function holding `off`; code past its end belongs to an
    internal function (`_int_malloc`, `_int_free`, ...) that only the
    library's full symbol table names."""
    i = bisect.bisect_right(starts, off) - 1
    if i < 0:
        return "[unexported]"
    start, size, name = syms[i]
    return name if off < start + size else f"[unexported, after {name}]"


def table(title, counter, total):
    print(f"\n{title}")
    for key, n in counter.most_common(TOP):
        print(f"  {100 * n / total:5.1f}%  {key}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", required=True, help="scratch directory for the shim and the build")
    ap.add_argument("--checkout", default=".")
    ap.add_argument("--workload", default="write_gc_1ch")
    a = ap.parse_args()
    work, repo = os.path.abspath(a.work), os.path.abspath(a.checkout)
    os.makedirs(work, exist_ok=True)
    shim = build_shim(work)
    binary = build_bench(repo, work)
    samples = os.path.join(work, f"samples-{a.workload}.txt")
    env = dict(os.environ, LD_PRELOAD=shim, PROFILE_OUT=samples, PROFILE_HZ=str(HZ))
    subprocess.run(
        [binary, "--workload", a.workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=repo, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    maps, pcs = read_samples(samples)
    bases = load_bases(maps)
    total = len(pcs)
    if total == 0:
        sys.exit("no samples: did the run exit normally?")
    objects = collections.Counter()
    in_binary, in_libc = collections.Counter(), collections.Counter()
    libc = None
    for pc in pcs:
        path = object_of(maps, pc)
        name = os.path.basename(path) if path else "[anonymous]"
        objects[name] += 1
        if path == os.path.realpath(binary):
            in_binary[pc - bases[path]] += 1
        elif name.startswith("libc.so"):
            libc = path
            in_libc[pc - bases[path]] += 1
    print(f"{a.workload}, seed {SEED}, {SECONDS} s: {total} samples at {HZ} Hz")
    table("by object", objects, total)

    if libc:
        syms = dynamic_symbols(libc)
        starts = [s for s, _, _ in syms]
        fns = collections.Counter()
        for off, n in in_libc.items():
            fns[libc_function(syms, starts, off)] += n
        table("C library, by function", fns, total)

    frames = addr2line(binary, sorted(in_binary), repo)
    files, funcs, locs = collections.Counter(), collections.Counter(), collections.Counter()
    for off, n in in_binary.items():
        fn, loc = frames.get(off, (OUTSIDE, OUTSIDE))
        files[loc.split(":")[0]] += n
        funcs[fn] += n
        locs[loc] += n
    table("innermost repository frame, by file", files, total)
    table("innermost repository frame, by function", funcs, total)
    table("innermost repository frame, by line", locs, total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
