#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a CMake project in this directory (perfbench/CMakeLists.txt)
that compiles the simulator libraries from ../src. It is configured and built
in .bench_build/ at the repository root; results and Chrome traces go to
.bench_out/. Build output goes to stderr, so the last line of stdout is the
JSON result printed by ht_perfbench. The exit status is ht_perfbench's, or 1
when the build fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"


def source_id():
    """Git sha of the checkout, or a hash of the sources outside git."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, check=False)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    h = hashlib.sha1()
    for d in (ROOT / "src", HERE):
        if not d.is_dir():
            continue
        for p in sorted(d.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]


def build():
    """Configure once, then build incrementally. Returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not ((BUILD / "build.ninja").exists() or (BUILD / "Makefile").exists()):
        cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        if subprocess.run(cfg, stdout=sys.stderr, check=False).returncode != 0:
            return None
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr, check=False).returncode != 0:
        return None
    return BUILD / "ht_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--source-id", source_id(), "--out-dir", str(OUT)]
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
