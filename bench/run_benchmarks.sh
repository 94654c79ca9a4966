#!/usr/bin/env bash
# Build the Release configuration and run the runtime benchmark suites,
# merging their google-benchmark JSON into BENCH_runtime.json (or $1) at the
# repo root. See bench/README.md for how to read the numbers.
#
# Every benchmark runs 5 times; the ledger keeps the median and
# coefficient-of-variation aggregates of each row (google-benchmark emits
# aggregates only for two or more repetitions), and its context records the
# host's core count (nproc) and SIMD level.
#
# The ledger is guarded: the script refuses to write it from a project tree
# configured as anything but Release (debug timings are noise, not a
# baseline). Host-level caveats that cannot be fixed from here -- benchmarked
# thread counts above the machine's core count, a Debug-built
# google-benchmark *library* -- are loud warnings, recorded in the merged
# JSON context so a reader of the ledger sees them without rerunning.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_runtime.json}"
reps=5

# Pre-commit hygiene gate (fast): refuse to publish numbers from a tree
# that tracks build artifacts. tools/check_tree.sh (no flag) is the full
# build+test gate.
tools/check_tree.sh --hygiene-only

cmake --preset release
cmake --build --preset release -j"$(nproc)"

# Ledger guard: only a Release-configured project build may publish numbers.
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' build/CMakeCache.txt)
if [ "$build_type" != "Release" ]; then
  echo "run_benchmarks.sh: refusing to write $out:" \
    "build/ is configured as '${build_type:-<unset>}', not Release" >&2
  exit 1
fi

# The deepest thread count the suites exercise (BM_BatchThroughput/4,
# BM_StatBatchThroughput/4, BM_ShardedCircuitThroughput shards:4/threads:4).
max_bench_threads=4
n_cores=$(nproc)
warnings=()
if [ "$n_cores" -lt "$max_bench_threads" ]; then
  w="benchmarked thread counts reach $max_bench_threads but this host has \
$n_cores core(s): multi-thread rows measure oversubscription, not scaling"
  echo "run_benchmarks.sh: WARNING: $w" >&2
  warnings+=("$w")
fi

tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT

for suite in runtime_overhead batch_throughput netlist_throughput \
  wire_throughput sharded_throughput process_derive sta; do
  "./build/bench/bench_$suite" --benchmark_format=json \
    --benchmark_repetitions="$reps" --benchmark_report_aggregates_only=true \
    >"$tmp_dir/$suite.json"
done

# Highest SIMD level the CPU reports (the level ModeTableGrid's kernels
# dispatch on: AVX-512, AVX2+FMA or the SSE2 baseline).
flags=$(grep -m1 '^flags' /proc/cpuinfo || true)
case " $flags " in
  *" avx512f "*) simd=avx512 ;;
  *" avx2 "*" fma "* | *" fma "*" avx2 "*) simd=avx2+fma ;;
  *) simd=sse2 ;;
esac

# Merge into a temp file and move it into place atomically: a failure
# anywhere above (set -euo pipefail) or inside the merge leaves any previous
# $out untouched instead of replacing it with partial JSON. The merge also
# folds host caveats (oversubscription warning above, a Debug-built
# google-benchmark library reported by the context itself) into
# context.warnings.
merge_warnings=""
if [ "${#warnings[@]}" -gt 0 ]; then merge_warnings="${warnings[0]}"; fi
WARNINGS="$merge_warnings" NPROC="$n_cores" SIMD="$simd" python3 - \
  "$tmp_dir/runtime_overhead.json" "$tmp_dir/batch_throughput.json" \
  "$tmp_dir/netlist_throughput.json" "$tmp_dir/wire_throughput.json" \
  "$tmp_dir/sharded_throughput.json" "$tmp_dir/process_derive.json" \
  "$tmp_dir/sta.json" "$tmp_dir/merged.json" <<'EOF'
import json, os, sys
runtime, *extras, out = sys.argv[1:]
with open(runtime) as f:
    merged = json.load(f)
for path in extras:
    with open(path) as f:
        merged["benchmarks"] += json.load(f)["benchmarks"]
merged["benchmarks"] = [
    b for b in merged["benchmarks"]
    if b.get("aggregate_name") in ("median", "cv")]
merged["context"]["nproc"] = int(os.environ["NPROC"])
merged["context"]["simd"] = os.environ["SIMD"]
warnings = [w for w in [os.environ.get("WARNINGS", "")] if w]
if merged["context"].get("library_build_type") != "release":
    warnings.append(
        "google-benchmark library was built as "
        f"{merged['context'].get('library_build_type', 'unknown')}: "
        "timing overhead is inflated (the simulator itself is Release)")
if warnings:
    merged["context"]["warnings"] = warnings
    for w in warnings:
        print(f"run_benchmarks.sh: WARNING (recorded in context): {w}",
              file=sys.stderr)
with open(out, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
EOF
mv "$tmp_dir/merged.json" "$out"

echo "wrote $out"
