#!/usr/bin/env bash
# Workspace determinism, `unsafe`, FTL-counter, completion-harvest,
# drive-loop, status-wait, one-program, page-bytes, one-decoder,
# barrier-round and summary-credit lint.
#
# The simulation's results must be bit-identical across runs and machines,
# so randomized-iteration-order collections (HashMap/HashSet) and wall-clock
# reads (Instant::now/SystemTime::now) are banned from Rust sources unless a
# file is on the allowlist below. `unsafe` is banned the same way: the
# workspace is safe Rust except for the files in UNSAFE_ALLOW.
# `clippy.toml` enforces the hash and clock policy through `cargo clippy`
# (disallowed-types / disallowed-methods); this grep gate is the
# dependency-free mirror that runs even where clippy cannot, and the single
# place the allowlists are documented.
#
# Adding an exception: the file must use a `#[allow(clippy::disallowed_*)]`
# with a written justification at the use site, AND be listed here with the
# same justification. Keyed-lookup-only maps (never iterated) are the only
# accepted reason for hash collections; wall-clock measurement as the
# feature itself is the only accepted reason for Instant::now. An allowed
# `unsafe` file gives a `// SAFETY:` reason at every unsafe block or impl.
#
# The tracer's counters are one flat row with one writer per counter. A
# count a layer keeps always-on reaches the tracer only as a snapshot, from
# its one export point: the FTL's production counters (cache, GC, wear,
# retirement, energy) from `Ssd::export_counters`, which reads the counter
# set every other report reads, and the kernel's and channel's counts
# (events popped; transactions, which are bus segments; phases and bytes)
# from `System::publish_counters`. Production code (above `#[cfg(test)]`) must
# not write either set anywhere else: no `count` or `set_counter` call may
# name one, a call through a counter variable may only appear in those two
# functions (EXPORT_ALLOW), and each of them may name only its own set. So
# nothing counts a stats-backed counter a second time, and no tracer write
# takes a component. The kernel's `System::schedule` and `pop_event` make
# no tracer call, and `Channel::transmit` reads its statistics only to
# increment them (`self.stats.field +=`), so it keeps no copy of them.
# The tracer keeps one histogram, the bus hold time: production code calls
# `.observe(` only in `Channel::transmit`, so no layer feeds a histogram
# that nothing reads.
#
# The FTL collects controller completions in one place, `Ssd::harvest`,
# which every driver loop shares: it notes watchdog progress and takes out
# the FTL job's awaited flash op. Production code in crates/ftl must not
# call `.take_completions(` in any other function, or host completions and
# job completions could be collected twice, or not at all.
#
# The FTL has one drive loop, `Ssd::drive`, which the one-channel run, the
# cache flush and every multi-channel shard share, so all of them admit
# host I/O by one policy. Production code in crates/ftl must not call
# `.step(` in any other function. A shard's `Shard::step` is a definition,
# not a call: it runs `Ssd::drive`, and the coordinator starts a barrier
# round with `pool.round(`.
#
# Status waits go through one runtime primitive, `StatusWait`
# (crates/core/src/runtime/mod.rs), which is how the runtime recognizes a
# paced status poll and can summarize its pollers' busy polls: `poll`
# paces the polls by the backoff and submits each as a status submission
# (`Submission::Status`), which the runtime plays from the one READ STATUS
# transaction per chip that `StatusWait::transaction` builds. No other
# production function may pair a READ STATUS or a status submission with
# the poll backoff, except the ones in STATUS_WAIT_ALLOW, whose waits the
# runtime must not summarize.
#
# Skipped work is credited in one place, the runtime's summary
# (crates/core/src/runtime/mod.rs): no other file may call
# `System::park`/`unpark` or credit work that was not played
# (`Cpu::credit`, `Channel::credit`, `Lun::credit_status_reads`). Their
# definitions and unit tests (below `#[cfg(test)]`) are not calls.
#
# Each ONFI program the controller software plays is written once: in the
# operation library (crates/core/src/ops.rs), the status wait
# (`StatusWait::transaction`) or the RTOS state machines
# (crates/core/src/runtime/rtos.rs). Package boot plays the library's
# operations on the synchronous op player (`lintcap::play`), as lint
# capture does. Production code in crates/core may build a transaction
# (`Transaction::new(`) only in the functions TXN_BUILD_ALLOW names, so no
# firmware path grows a hand-built second copy of a program.
#
# Page payloads are described (`babol_sim::PageData`) from the flash array
# to DRAM; bytes are produced only where something reads them. Production
# code may turn a `PageData` into bytes (`materialize`, `materialize_into`,
# `first_byte`) only in the functions listed in PAGE_BYTES_ALLOW, the edges
# of the data path. A copy anywhere else (a register slice, a gather
# buffer, a DRAM packet) is the waste the type exists to remove.
#
# The ONFI command grammar is written once, in crates/onfi/src/decode.rs:
# the LUN model, the static verifier and the envelope analyzer each apply
# the actions of its one transition function. The decode-state enum
# (`Decode`) and `BusyKind` may be defined nowhere else, so no consumer
# grows a second grammar beside it.
#
# The conservative barrier protocol is written once, in `ShardPool::round`
# (crates/sim/src/par.rs): it picks each round's horizon (the earliest
# pending event or queued delivery, plus the window) and merges the round's
# records by `(time, shard)`. The model check (tests/shard_barrier.rs)
# drives that call, so it checks the code the device runs only while no
# coordinator keeps a copy. No other production file may compute a horizon
# from a window (a statement naming `horizon` or `earliest` that adds a
# `window`) or sort `(time, shard, record)` records by their first two
# fields (`.sort*_by_key(|&(t, id, _)| (t, id))` or `|r| (r.0, r.1)`).
# Other pair-key sorts, such as the runtime's sleepers by `(wake, tag)`,
# are not round merges and pass.
set -euo pipefail
cd "$(dirname "$0")/.."

# file → justification. Keep in sync with the #[allow] comments in-file.
HASH_ALLOW=(
  # Hottest map in the simulator (page store); keyed lookups only, never
  # iterated, so order cannot reach behavior or output.
  "crates/flash/src/array.rs"
)
CLOCK_ALLOW=(
  # The benchmark runner's purpose is wall-clock measurement; readings are
  # reported, never fed back into simulation state.
  "crates/testkit/src/bench.rs"
)
UNSAFE_ALLOW=(
  # The allocation-budget tests' counting global allocator (`GlobalAlloc`
  # is an unsafe trait); it forwards every call to the system allocator.
  "tests/common/counting_alloc.rs"
)
FTL_COUNTERS='CacheHits|CacheMisses|CacheDirtyEvicts|GcCycles|WearMigrations|BlocksRetired|Energy(Read|Program|Erase|Transfer)Pj'
STATS_COUNTERS='EventsPopped|TxnsIssued|PhasesTransmitted|BytesToFlash|BytesFromFlash'
# file:fn → the counter set it exports.
EXPORT_ALLOW=(
  "crates/ftl/src/ssd.rs:export_counters"
  "crates/core/src/system.rs:publish_counters"
)

# file:fn → justification.
STATUS_WAIT_ALLOW=(
  # The primitive itself: paces by the backoff, submits a status submission.
  "crates/core/src/runtime/mod.rs:poll"
  # Polls several replicas per round and takes whichever is ready first:
  # a round's outcome depends on more than one LUN's deadline.
  "crates/core/src/ops.rs:gang_read"
  # Waits for ARDY (the array), not RDY: in a cache read the LUN stays
  # ready while the array works, and the status it polls changes mid-busy.
  "crates/core/src/ops.rs:wait_ready_cached"
)
# file:fn patterns → what they hold.
TXN_BUILD_ALLOW=(
  # The operation library.
  "crates/core/src/ops.rs:*"
  # The status wait's READ STATUS.
  "crates/core/src/runtime/mod.rs:transaction"
  # The RTOS state machines (the library's programs, step by step).
  "crates/core/src/runtime/rtos.rs:*"
)
PAGE_BYTES_ALLOW=(
  # DRAM byte reads.
  "crates/sim/src/dram.rs:read"
  "crates/sim/src/dram.rs:read_vec"
  # Array byte reads (workload setup and assertions).
  "crates/flash/src/array.rs:read_page"
  # Raw bit errors: a page that takes flips is materialized, then flipped.
  "crates/flash/src/lun.rs:fetch_with_errors"
  # DQS scrambling of an uncalibrated high-speed readout.
  "crates/flash/src/lun.rs:maybe_scramble"
  # A SET FEATURES value the LUN decodes.
  "crates/flash/src/lun.rs:data_in_run"
  # Inline results (status bytes, IDs, feature values) for the software.
  "crates/ufsm/src/emit.rs:execute"
  # The hardware baselines' sampled status bytes.
  "crates/core/src/hw/cosmos.rs:arbitrate"
  "crates/core/src/hw/sync_ctrl.rs:arbitrate"
  # The static verifier reading a raw phase program's pSLC feature value.
  "crates/verify/src/envelope.rs:on_event"
)

fail=0

scan() {
  local pattern="$1"; shift
  local what="$1"; shift
  local -a allow=("$@")
  local hits
  hits=$(grep -rn --include='*.rs' -E "$pattern" \
           crates src tests examples 2>/dev/null || true)
  while IFS= read -r hit; do
    [ -z "$hit" ] && continue
    local file="${hit%%:*}"
    local ok=0
    for a in "${allow[@]}"; do
      [ "$file" = "$a" ] && ok=1 && break
    done
    if [ "$ok" -eq 0 ]; then
      echo "lint: disallowed $what outside the allowlist:"
      echo "  $hit"
      fail=1
    fi
  done <<< "$hits"
}

scan '\bHash(Map|Set)\b' "hash collection" "${HASH_ALLOW[@]}"
scan '\b(Instant|SystemTime)::now\b' "wall-clock read" "${CLOCK_ALLOW[@]}"
scan '\bunsafe\b' "unsafe code" "${UNSAFE_ALLOW[@]}"

# Tracer writes (`.count(counter, n)` / `.set_counter(counter, v)`), which
# rustfmt may split over lines, in production code only, printed as
# `what<TAB>file:line: in fn name: counter`; each call is attributed to the
# last `fn` before it. Then every counter each export function names.
counter_writes=$(find crates src examples -name '*.rs' -print0 | sort -z | xargs -0 perl -0777 -ne '
  s/^#\[cfg\(test\)\].*//ms;
  my %export = map { $_ => 1 } qw('"${EXPORT_ALLOW[*]}"');
  while (/\.(?:count|set_counter)\(\s*([\w:]+)\s*,/g) {
    my $counter = $1;
    my $before = substr($_, 0, $-[0]);
    my ($fn) = $before =~ /.*\bfn\s+(\w+)/s;
    $fn //= "?";
    my $line = 1 + ($before =~ tr/\n//);
    my $what = $counter =~ /^Counter::(?:'"$FTL_COUNTERS"')$/ ? "FTL counter written outside Ssd::export_counters"
      : $counter =~ /^Counter::(?:'"$STATS_COUNTERS"')$/ ? "stats-backed counter written outside System::publish_counters"
      : $counter =~ /^Counter::/ || $export{"$ARGV:$fn"} ? next
      : "tracer write through a variable or a component outside the export points";
    print "$what\t$ARGV:$line: in fn $fn: $counter\n";
  }
  while (/\.observe\(/g) {
    my $before = substr($_, 0, $-[0]);
    my ($fn) = $before =~ /.*\bfn\s+(\w+)/s;
    $fn //= "?";
    next if "$ARGV:$fn" eq "crates/channel/src/lib.rs:transmit";
    my $line = 1 + ($before =~ tr/\n//);
    print "tracer histogram observed outside Channel::transmit\t$ARGV:$line: in fn $fn\n";
  }
  for my $at (sort keys %export) {
    my ($file, $fn) = split /:/, $at;
    next unless $ARGV eq $file;
    /\bfn\s+$fn\b(.*?)(?=\bfn\s+\w+|\z)/s or do { print "export point missing\t$at\n"; next };
    my ($body, $set) = ($1, $fn eq "export_counters" ? "'"$FTL_COUNTERS"'" : "'"$STATS_COUNTERS"'");
    while ($body =~ /\bCounter::(\w+)/g) {
      print "export point naming a counter of another set\t$at: $1\n" unless $1 =~ /^(?:$set)$/;
    }
  }
  for my $at ("crates/core/src/system.rs:schedule", "crates/core/src/system.rs:pop_event",
              "crates/channel/src/lib.rs:transmit") {
    my ($file, $fn) = split /:/, $at;
    next unless $ARGV eq $file;
    /\bfn\s+$fn\b(.*?)(?=\bfn\s+\w+|\z)/s or next;
    my $body = $1;
    print "tracer call in the event queue path\t$at\n" if $fn ne "transmit" && $body =~ /\btrace\b/;
    # In the bus path the stats are only ever incremented in place
    # (`self.stats.field +=`); any other read of them is a copy.
    print "statistics read other than by an increment in the bus path\t$at\n"
      if $fn eq "transmit" && $body =~ /\bself\.stats\b(?!\.\w+\s*\+=)/;
  }')
while IFS= read -r hit; do
  [ -z "$hit" ] && continue
  echo "lint: ${hit%%$'\t'*}:"
  echo "  ${hit#*$'\t'}"
  fail=1
done <<< "$counter_writes"

# FTL production-code calls matching CALL outside `fn ALLOWED_FN` of
# ssd.rs, printed as `file:line: in fn name`; each call is attributed to
# the last `fn` before it.
ftl_calls_outside() {
  local call="$1" allowed_fn="$2"
  find crates/ftl -name '*.rs' -print0 | sort -z | xargs -0 perl -0777 -ne '
    s/^#\[cfg\(test\)\].*//ms;
    while (/\.'"$call"'\(/g) {
      my $before = substr($_, 0, $-[0]);
      my ($fn) = $before =~ /.*\bfn\s+(\w+)/s;
      $fn //= "?";
      next if $ARGV eq "crates/ftl/src/ssd.rs" && $fn eq "'"$allowed_fn"'";
      my $line = 1 + ($before =~ tr/\n//);
      print "$ARGV:$line: in fn $fn\n";
    }'
}

report() {
  local what="$1" hits="$2"
  while IFS= read -r hit; do
    [ -z "$hit" ] && continue
    echo "lint: $what:"
    echo "  $hit"
    fail=1
  done <<< "$hits"
}

# Production functions that name both a READ STATUS (or a status
# submission, which plays one) and the poll backoff, printed as `file:fn`;
# each name outside a comment is attributed to the last `fn`, `struct` or
# `enum` before it, and only names in a function count (a struct's
# `poll_backoff` field is not a use).
status_waits=$(find crates src examples -name '*.rs' -print0 | sort -z | xargs -0 perl -0777 -ne '
  s/^#\[cfg\(test\)\].*//ms;
  s{//[^\n]*}{}g;
  my %uses;
  while (/\b(READ_STATUS|read_status\(|Submission::Status|poll_backoff)/g) {
    my $what = $1 eq "poll_backoff" ? "backoff" : "status";
    my ($item, $fn) = substr($_, 0, $-[0]) =~ /.*\b(fn|struct|enum)\s+(\w+)/s;
    next if defined $item && $item ne "fn";
    $uses{$fn // "?"}{$what} = 1;
  }
  for my $fn (sort keys %uses) {
    print "$ARGV:$fn\n" if $uses{$fn}{status} && $uses{$fn}{backoff};
  }')
while IFS= read -r hit; do
  [ -z "$hit" ] && continue
  ok=0
  for a in "${STATUS_WAIT_ALLOW[@]}"; do
    [ "$hit" = "$a" ] && ok=1 && break
  done
  [ "$ok" -eq 1 ] && continue
  echo "lint: READ STATUS paced by the poll backoff outside the status-wait primitive:"
  echo "  $hit"
  fail=1
done <<< "$status_waits"

# Production functions in crates/core that build a transaction, printed as
# `file:fn`.
txn_builds=$(find crates/core -name '*.rs' -print0 | sort -z | xargs -0 perl -0777 -ne '
  s/^#\[cfg\(test\)\].*//ms;
  my %seen;
  while (/\bTransaction::new\(/g) {
    my ($fn) = substr($_, 0, $-[0]) =~ /.*\bfn\s+(\w+)/s;
    $fn //= "?";
    print "$ARGV:$fn\n" unless $seen{$fn}++;
  }')
while IFS= read -r hit; do
  [ -z "$hit" ] && continue
  ok=0
  for a in "${TXN_BUILD_ALLOW[@]}"; do
    # shellcheck disable=SC2053 # the allowlist entries are patterns
    [[ "$hit" == $a ]] && ok=1 && break
  done
  [ "$ok" -eq 1 ] && continue
  echo "lint: transaction built outside the operation library and the runtime:"
  echo "  $hit"
  fail=1
done <<< "$txn_builds"

# Production functions that turn a PageData into bytes, printed as
# `file:fn`; the type's own module is where the bytes are made.
page_bytes=$(find crates src examples -name '*.rs' ! -path crates/sim/src/data.rs -print0 | sort -z | xargs -0 perl -0777 -ne '
  s/^#\[cfg\(test\)\].*//ms;
  my %seen;
  while (/\.(?:materialize|materialize_into|first_byte)\(/g) {
    my ($fn) = substr($_, 0, $-[0]) =~ /.*\bfn\s+(\w+)/s;
    $fn //= "?";
    print "$ARGV:$fn\n" unless $seen{$fn}++;
  }')
while IFS= read -r hit; do
  [ -z "$hit" ] && continue
  ok=0
  for a in "${PAGE_BYTES_ALLOW[@]}"; do
    [ "$hit" = "$a" ] && ok=1 && break
  done
  [ "$ok" -eq 1 ] && continue
  echo "lint: page bytes materialized outside the data path's edges:"
  echo "  $hit"
  fail=1
done <<< "$page_bytes"

for name in Decode BusyKind; do
  defs=$(grep -rlE --include='*.rs' "\benum $name\b" crates src tests examples 2>/dev/null || true)
  if [ "$defs" != "crates/onfi/src/decode.rs" ]; then
    echo "lint: enum $name must be defined in crates/onfi/src/decode.rs alone; found in:"
    echo "  ${defs:-no file}" | tr '\n' ' '
    echo
    fail=1
  fi
done

report "FTL completions taken outside Ssd::harvest" \
  "$(ftl_calls_outside take_completions harvest)"
report "event queue stepped outside Ssd::drive" \
  "$(ftl_calls_outside step drive)"

# Barrier horizons and round merges in production code outside the shard
# pool, printed as `file:line: what`; comments are skipped.
barrier_copies=$(find crates src examples -name '*.rs' ! -path crates/sim/src/par.rs -print0 | sort -z | xargs -0 perl -0777 -ne '
  s/^#\[cfg\(test\)\].*//ms;
  s{//[^\n]*}{}g;
  while (/[^;{}\s][^;{}]*/g) {
    my ($stmt, $at) = ($&, $-[0]);
    my $what = ($stmt =~ /\b(?:horizon|earliest)\b/ && $stmt =~ /\+\s*[\w.]*window\b/)
      ? "barrier horizon"
      : ($stmt =~ /\.sort\w*_by_key\(\s*\|\s*&?\(\s*(\w+)\s*,\s*(\w+)\s*,[^|]*\)\s*\|\s*\(\s*\1\s*,\s*\2\s*\)\s*\)/
         || $stmt =~ /\.sort\w*_by_key\(\s*\|\s*(\w+)\s*\|\s*\(\s*\1\.0\s*,\s*\1\.1\s*\)\s*\)/) ? "round merge" : next;
    my $line = 1 + (substr($_, 0, $at) =~ tr/\n//);
    print "$ARGV:$line: $what\n";
  }')
report "barrier round computed outside ShardPool::round" "$barrier_copies"

# Summary parking and work credits outside the runtime's summary, printed
# as `file:line: in fn name: call`; comments are skipped.
credits=$(find crates src tests examples -name '*.rs' ! -path crates/core/src/runtime/mod.rs -print0 | sort -z | xargs -0 perl -0777 -ne '
  s/^#\[cfg\(test\)\].*//ms;
  s{//[^\n]*}{}g;
  while (/\.(park|unpark|credit|credit_status_reads)\(/g) {
    my ($call, $before) = ($1, substr($_, 0, $-[0]));
    my ($fn) = $before =~ /.*\bfn\s+(\w+)/s;
    $fn //= "?";
    my $line = 1 + ($before =~ tr/\n//);
    print "$ARGV:$line: in fn $fn: $call\n";
  }')
report "summary parked or skipped work credited outside the runtime" "$credits"

if [ "$fail" -ne 0 ]; then
  echo
  echo "Use BTreeMap/BTreeSet (or SimTime for time) and safe code, or add an"
  echo "#[allow] / SAFETY note with a written justification and extend the"
  echo "allowlist in scripts/lint.sh. Counters a layer keeps are counted once,"
  echo "at their source, and reach the tracer through Ssd::export_counters (FTL)"
  echo "or System::publish_counters (kernel and channel); only Channel::transmit"
  echo "observes a tracer histogram. The FTL"
  echo "takes controller completions only in Ssd::harvest and steps the"
  echo "event queue only in Ssd::drive. Status waits go through StatusWait."
  echo "Transactions are built in the op library, StatusWait and the RTOS"
  echo "machines; other firmware plays the library's ops."
  echo "Page data stays a PageData between the edges in PAGE_BYTES_ALLOW."
  echo "The ONFI grammar's states and busy kinds live in babol_onfi::decode."
  echo "Barrier horizons and round merges live in ShardPool::round."
  echo "Summaries park and credit skipped work only in babol::runtime."
  exit 1
fi
echo "determinism, unsafe, FTL-counter, completion-harvest, drive-loop, status-wait, one-program, page-bytes, one-decoder, barrier-round and summary-credit lint: clean"
