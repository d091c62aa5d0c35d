#!/usr/bin/env bash
# Workspace determinism lint.
#
# The simulation's results must be bit-identical across runs and machines,
# so randomized-iteration-order collections (HashMap/HashSet) and wall-clock
# reads (Instant::now/SystemTime::now) are banned from Rust sources unless a
# file is on the allowlist below. `clippy.toml` enforces the same policy
# through `cargo clippy` (disallowed-types / disallowed-methods); this grep
# gate is the dependency-free mirror that runs even where clippy cannot,
# and the single place the allowlist is documented.
#
# Adding an exception: the file must use a `#[allow(clippy::disallowed_*)]`
# with a written justification at the use site, AND be listed here with the
# same justification. Keyed-lookup-only maps (never iterated) are the only
# accepted reason for hash collections; wall-clock measurement as the
# feature itself is the only accepted reason for Instant::now.
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
      echo "determinism lint: disallowed $what outside the allowlist:"
      echo "  $hit"
      fail=1
    fi
  done <<< "$hits"
}

scan '\bHash(Map|Set)\b' "hash collection" "${HASH_ALLOW[@]}"
scan '\b(Instant|SystemTime)::now\b' "wall-clock read" "${CLOCK_ALLOW[@]}"

if [ "$fail" -ne 0 ]; then
  echo
  echo "Use BTreeMap/BTreeSet (or SimTime for time), or add an #[allow] with"
  echo "a written justification and extend the allowlist in scripts/lint.sh."
  exit 1
fi
echo "determinism lint: clean"
