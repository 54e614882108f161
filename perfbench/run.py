#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload tenants|fileserve|paging \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds the
benchmark program (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only check that the build is current. The program's own report goes to
standard output, and the last line is one JSON object holding the
metrics BENCHMARK.json declares for the mode: the end-to-end metrics
with --trace 0, the per-layer ones with --trace 1. Traced runs also
leave host spans and simulator trace artifacts in <build dir>/out.

See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tenants", "fileserve", "paging")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configure (once) and build the program; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def select(measured, declared):
    """Keep the declared metrics, in declared order, with their units.

    A simulator event that a workload never charges reads 0; any other
    declared metric the program did not report is an error.
    """
    out = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        got = measured.get(name)
        if got is None:
            if not name.startswith("sim.events."):
                fail(f"perfbench reported no metric {name}")
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail(f"{name}: unit {got['unit']} != declared {unit}")
        out[name] = got
    names = {entry["name"] for entry in declared}
    for name in measured:
        if name.startswith("sim.events.") and name not in names:
            print(f"perfbench: undeclared metric {name} dropped",
                  file=sys.stderr)
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-expectation", action="store_true",
                   help="spoil round 0's expectation (oracle self-test)")
    args = p.parse_args()

    out = build_dir()
    binary = build(out)
    (out / "out").mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out / "out")]
    if args.corrupt_expectation:
        cmd.append("--corrupt-expectation")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"perfbench exited with status {done.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["metrics"] = select(result["metrics"],
                               declared_metrics(args.trace == 1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
