#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the gts library plus the benchmark program) in
an optimized build under the directory named by CARGO_TARGET_DIR, or
.bench_build; later calls rebuild only what changed. Build output goes to
standard error, so the last line of standard output is the program's JSON
result. That line is checked against BENCHMARK.json: a result whose
metric names or units differ from the declared ones is refused with a
non-zero exit.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    cmd = ["cmake", "--build", str(build_dir), "--target", "gts_perfbench",
           "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "gts_perfbench"


def declared(args):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    key = "per_layer" if "--trace" in args and \
        args[args.index("--trace") + 1] == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    args = sys.argv[1:]
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    want = declared(args)
    binary = build(build_dir)
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if not lines:
        fail(f"no result (exit {proc.returncode})", proc.returncode or 2)
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError):
        fail(f"malformed result line (exit {proc.returncode})",
             proc.returncode or 2)
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}",
             3)
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
