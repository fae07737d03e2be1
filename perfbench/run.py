#!/usr/bin/env python3
"""End-to-end campaign benchmark: build, run one workload, relay the result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gate_units --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench (the repository's libraries
from src/ plus the program in perfbench/src/) into .bench_build/; later calls
only rebuild what changed. The program's stdout is relayed; its last line is
the JSON result. At the default seed and full size, the pass digest pinned
in perfbench/pinned.json is handed to the program, so a run whose exports
differ from the pinned ones reports "correct": false.

Without the repository's sources next to perfbench/ the build fails and this
script exits non-zero without printing a result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 175
# The compiler (for the build and for gate-program JIT modules) writes its
# temporaries under TMPDIR: keep them inside the checkout too.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))


def build():
    """Configures (once) and builds the perfbench target; False on failure."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, env=ENV).returncode != 0:
            shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
            (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode == 0


def main():
    pinned = json.loads((HERE / "pinned.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=pinned["default_seed"])
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: the reduced campaigns the benchmark's own tests use")
    ap.add_argument("--tamper-pass", type=int,
                    help="test hook: flip one outcome in a copy of pass K's "
                         "export (pass 1 is the reference pass)")
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--out", str(OUT), "--jit-cache", str(BUILD / "jit-cache")]
    expected = pinned["digests"].get(args.workload)
    if args.seed == pinned["default_seed"] and args.size == "full" and expected:
        cmd += ["--expect-digest", expected]
    if args.tamper_pass is not None:
        cmd += ["--tamper-pass", str(args.tamper_pass)]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=ENV, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        sys.stdout.write(out.decode() if isinstance(out, bytes) else out)
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
