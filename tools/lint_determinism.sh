#!/usr/bin/env bash
# Static determinism lint: greps src/ for constructs that have historically
# broken the repo's bit-identical-results guarantee (BatchRunner aggregates,
# sharded simulation, corner caches are all reduced in fixed order from
# seeded util::Rng streams -- see the BatchRunner header comment).
#
# Findings and why they are banned:
#   * rand() / srand()          -- hidden global state, platform-dependent
#                                  sequences; use util::Rng.
#   * std::random_device        -- nondeterministic entropy; only util/rng may
#                                  touch it (it currently does not).
#   * std::mt19937* engines and std::*_distribution outside src/util/rng --
#                                  the standard fixes an engine's sequence but
#                                  not a distribution's algorithm, so draws
#                                  would differ between C++ libraries; use
#                                  util::Rng, whose distributions rng.cpp
#                                  writes out.
#   * time(0) / std::time / time(nullptr), std::chrono::*_clock::now() used
#     as a seed -- wall-clock seeding makes runs unreproducible. Clocks are
#     allowed in diagnostics (deadlines, wall-time reporting), so only
#     seed-context uses are flagged (a `seed` on the same line).
#   * range-for directly over a std::unordered_ container -- iteration order
#     is implementation-defined; reductions must walk a sorted or
#     declaration-ordered index instead (see sim/net_criticality).
#
# Exit 1 with a file:line listing on any finding; silent success otherwise.
# An inline `// lint-determinism: allow` comment suppresses a line.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

report() {
  local label="$1"
  local matches="$2"
  if [[ -n "$matches" ]]; then
    echo "lint_determinism: $label:" >&2
    echo "$matches" | sed 's/^/  /' >&2
    fail=1
  fi
}

filter_allowed() {
  grep -v 'lint-determinism: allow' || true
}

# Bare C rand()/srand(). \b keeps sigma_rand / rand_delay identifiers out.
report "C rand()/srand() (use util::Rng)" \
  "$(grep -rnE '\b(s?rand)\(' src/ | filter_allowed)"

# Nondeterministic entropy outside the RNG utility.
report "std::random_device outside src/util/rng" \
  "$(grep -rn 'random_device' src/ | grep -v '^src/util/rng' \
     | filter_allowed)"

# Standard-library engines and distributions outside the RNG utility.
report "std::mt19937* / std::*_distribution outside src/util/rng (use \
util::Rng)" \
  "$(grep -rnE 'std::mt19937|std::[a-z_]+_distribution' src/ \
     | grep -v '^src/util/rng' | filter_allowed)"

# Wall-clock seeding. Clock reads feeding anything named seed are flagged;
# plain diagnostics timing is fine.
report "wall-clock seeding (time()/now() near a seed)" \
  "$(grep -rnE '(std::time\(|[^a-z_]time\(0\)|time\(nullptr\)|_clock::now)' \
     src/ | grep -i 'seed' | filter_allowed)"

# Direct iteration over unordered containers: order is not deterministic.
report "range-for over a std::unordered_ container (iterate a sorted or \
declaration-ordered index instead)" \
  "$(grep -rnE 'for \([^)]*:[^)]*unordered_' src/ | filter_allowed)"

if [[ "$fail" -ne 0 ]]; then
  echo "lint_determinism: FAILED (suppress a deliberate use with" \
    "'// lint-determinism: allow')" >&2
  exit 1
fi
echo "lint_determinism: OK"
