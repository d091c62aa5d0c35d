#!/usr/bin/env bash
# Workspace determinism, `unsafe`, FTL-counter, completion-harvest and
# drive-loop lint.
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
# The FTL's production counters (cache, GC, wear, retirement, energy) reach
# a tracer only through the FTL's one export point, which snapshots them
# from the counter set every other report reads. Production code (above
# `#[cfg(test)]`) must not write them anywhere else: no `count` or
# `set_counter` call may name one, and a write to `Component::Ftl` through
# a counter variable may only appear in the EXPORT_ALLOW file.
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
# `.step(` in any other function; the shard pool's barrier round
# (`pool.step(`) is the coordinator's, not a second loop over the event
# queue.
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
  # Preloaded-page kernel: calls its AVX-512 / AVX2 `#[target_feature]`
  # copies only after `is_x86_feature_detected!` confirmed the features.
  "crates/flash/src/array.rs"
  # The allocation-budget tests' counting global allocator (`GlobalAlloc`
  # is an unsafe trait); it forwards every call to the system allocator.
  "tests/common/counting_alloc.rs"
)
FTL_COUNTERS='CacheHits|CacheMisses|CacheDirtyEvicts|GcCycles|WearMigrations|BlocksRetired|Energy(Read|Program|Erase|Transfer)Pj'
EXPORT_ALLOW=(
  # `Ssd::export_counters`, the one export point.
  "crates/ftl/src/ssd.rs"
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

# Tracer writes (`.count(component, counter, ..)` / `.set_counter(..)`),
# which rustfmt may split over lines, in production code only.
ftl_writes=$(find crates src examples -name '*.rs' -print0 | sort -z | xargs -0 perl -0777 -ne '
  s/^#\[cfg\(test\)\].*//ms;
  while (/\.(?:count|set_counter)\(\s*([\w:]+)\s*,\s*([\w:]+)\s*,/g) {
    my ($component, $counter) = ($1, $2);
    my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
    my $kind = $counter =~ /^Counter::(?:'"$FTL_COUNTERS"')$/ ? "literal"
      : ($component eq "Component::Ftl" && $counter !~ /^Counter::/) ? "variable" : next;
    print "$kind $ARGV:$line: $component, $counter\n";
  }')
while IFS= read -r hit; do
  [ -z "$hit" ] && continue
  kind="${hit%% *}"; hit="${hit#* }"; file="${hit%%:*}"
  if [ "$kind" = "variable" ]; then
    ok=0
    for a in "${EXPORT_ALLOW[@]}"; do
      [ "$file" = "$a" ] && ok=1 && break
    done
    [ "$ok" -eq 1 ] && continue
  fi
  echo "lint: FTL counter written to a tracer outside the export point:"
  echo "  $hit"
  fail=1
done <<< "$ftl_writes"

# FTL production-code calls matching CALL outside `fn ALLOWED_FN` of
# ssd.rs, printed as `file:line: in fn name`; each call is attributed to
# the last `fn` before it. A call on a receiver named SKIP is ignored.
ftl_calls_outside() {
  local call="$1" allowed_fn="$2" skip="${3:-}"
  find crates/ftl -name '*.rs' -print0 | sort -z | xargs -0 perl -0777 -ne '
    s/^#\[cfg\(test\)\].*//ms;
    while (/(\w*)\s*\.'"$call"'\(/g) {
      next if "'"$skip"'" ne "" && $1 eq "'"$skip"'";
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

report "FTL completions taken outside Ssd::harvest" \
  "$(ftl_calls_outside take_completions harvest)"
report "event queue stepped outside Ssd::drive" \
  "$(ftl_calls_outside step drive pool)"

if [ "$fail" -ne 0 ]; then
  echo
  echo "Use BTreeMap/BTreeSet (or SimTime for time) and safe code, or add an"
  echo "#[allow] / SAFETY note with a written justification and extend the"
  echo "allowlist in scripts/lint.sh. FTL counters are counted once, at their"
  echo "source, and reach the tracer through Ssd::export_counters. The FTL"
  echo "takes controller completions only in Ssd::harvest and steps the"
  echo "event queue only in Ssd::drive."
  exit 1
fi
echo "determinism, unsafe, FTL-counter, completion-harvest and drive-loop lint: clean"
