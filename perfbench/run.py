#!/usr/bin/env python3
"""The repository benchmark: build plee_perfbench from source, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload itc99-seq --seed 1 --seconds 35 --trace 0

The first run configures and builds perfbench/ (the library sources under
src/ plus the harness) in $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only re-check the build.  The harness
prints a full JSON report (every metric with its unit and sample count, the
environment stamp, the correctness verdict); this script echoes it, prints a
readable summary on stderr, and prints as its last stdout line the result
object: correct, attempted, failed and the metrics BENCHMARK.json lists --
end_to_end with --trace 0, per_layer with --trace 1.  A metric the harness
reports as absent (no such layer on this workload, or a counter the program
no longer has) reads 0 there and is named on stderr and in the report.

Exit status: 0 when every circuit-job was correct, 1 when any failed or the
harness could not run, 2 on a usage error or a missing source tree.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the harness; returns the executable."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"], check=True,
                   stdout=sys.stderr)
    return out / "plee_perfbench"


def revision():
    """Git revision when the checkout has one, plus a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    git = "no-git"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            git = probe.stdout.strip()
    return f"{git}+src:{digest.hexdigest()[:12]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "runner" / "runner.hpp").exists():
        log("perfbench: no library sources under", ROOT / "src")
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log("perfbench: build failed:", err)
        return 1

    command = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--revision", revision()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: harness exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: harness exited {proc.returncode} without a report")
        return proc.returncode or 1
    report = json.loads(lines[-1])
    print(json.dumps(report), flush=True)

    metrics = {}
    absent = []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = report["metrics"].get(name)
        if got is None:
            log(f"perfbench: harness did not report metric {name}")
            return 1
        if got.get("absent"):
            absent.append(name)
            metrics[name] = {"value": 0.0, "unit": unit}
            log(f"  {name:32s} absent")
        else:
            metrics[name] = {"value": got["value"], "unit": unit}
            log(f"  {name:32s} {got['value']:>14.6g} {unit:6s} "
                f"(n={got['samples']})")
    env = report["env"]
    log(f"  workload {report['workload']} seed {report['seed']}, "
        f"{report.get('circuits', 0)} circuits, {report.get('passes', 0)} "
        f"passes; {env['build_type']} build, {env['compiler']}, "
        f"nproc {env['nproc']}, rev {env['revision']}")
    if absent:
        log("  absent on this workload (reported as 0):", ", ".join(absent))
    if report["failures"]:
        log("  failures:", *report["failures"], sep="\n    ")

    correct = bool(report["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
