#!/usr/bin/env python3
"""Build and run one measured run of the end-to-end benchmark.

    python3 perfbench/run.py --workload mc_c432 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py ... --save results/change   # keep the record

Run it from the repository root. The first call configures and builds the
library sources plus the perfbench binary in Release under
.bench_build/perfbench; later calls only rebuild what changed. The
binary's generated inputs and exports (netlist file, VCD, metrics JSON,
Chrome trace) go to .bench_build/perfbench-out.

stdout ends with two JSON lines: the full result record, then the summary
{"correct", "attempted", "failed", "metrics"} whose metric names and units
are checked against BENCHMARK.json. README.md documents the workloads and
metrics; compare.py compares two saved result sets.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("src/CMakeLists.txt", "examples/netlists/c432.net"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing; run from a full checkout")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured for another checkout cannot be reused.
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [SOURCE]:
            shutil.rmtree(BUILD)
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Own process group, so a timeout stops the compilers under cmake too.
        proc = subprocess.Popen(step, cwd=ROOT, env=env, stdout=sys.stderr,
                                stderr=sys.stderr, start_new_session=True)
        try:
            proc.wait(timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("build timed out")
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(BUILD, "perfbench")


def check_summary(summary, trace):
    """The summary must carry exactly BENCHMARK.json's metrics and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    if got != wanted:
        fail(f"metrics do not match BENCHMARK.json: missing "
             f"{sorted(set(wanted) - set(got))}, extra "
             f"{sorted(set(got) - set(wanted))}, units "
             f"{sorted(k for k in got if k in wanted and got[k] != wanted[k])}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="DIR",
                        help="also write the full result record to DIR")
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"perfbench exited with status {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("perfbench printed no result")
    record, summary = json.loads(lines[-2]), json.loads(lines[-1])
    check_summary(summary, args.trace == 1)
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(args.save, name), "w") as f:
            json.dump(record, f, indent=1)
    print(json.dumps(record))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
