#!/usr/bin/env bash
# Pre-commit tree gate: repo hygiene + full configure/build/ctest.
#
#   tools/check_tree.sh                # hygiene + build + tests
#   tools/check_tree.sh --hygiene-only # just the fast tracked-file checks
#
# Hygiene: no build tree (build*/) may be tracked by git -- PR 3
# accidentally committed 641 build artifacts, this keeps them out for good.
# The determinism lint (tools/lint_determinism.sh) rides along: src/ must
# stay free of nondeterminism sources (bare rand(), std::random_device,
# wall-clock seeding, unordered-container iteration).
#
# The build must be warning-free: any compiler warning located in a repo
# file fails the gate. An incremental build recompiles, and so re-reports,
# only what changed; CI builds from scratch. Warnings inside system headers
# (GCC 12's -Wrestrict reports in /usr/include/c++/12) are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

tracked_build=$(git ls-files | grep -E '^build[^/]*/' || true)
if [[ -n "$tracked_build" ]]; then
  echo "error: build trees are tracked by git (extend .gitignore, then" >&2
  echo "       git rm -r --cached <dir>):" >&2
  echo "$tracked_build" | head -10 >&2
  exit 1
fi

tools/lint_determinism.sh

if [[ "${1:-}" == "--hygiene-only" ]]; then
  echo "check_tree: hygiene OK"
  exit 0
fi

cmake --preset release
build_log=$(mktemp)
trap 'rm -f "$build_log"' EXIT
cmake --build --preset release -j"$(nproc)" 2>&1 | tee "$build_log"
repo_warnings=$(awk -v root="$PWD/" \
  'index($0, root) == 1 && index($0, ": warning: ")' "$build_log")
if [[ -n "$repo_warnings" ]]; then
  echo "error: the build warns in repo files:" >&2
  echo "$repo_warnings" >&2
  exit 1
fi
ctest --test-dir build --output-on-failure -j"$(nproc)"
echo "check_tree: OK"
