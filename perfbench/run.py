#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark and the engine library it links
are built from source with CMake (Release) into $CARGO_TARGET_DIR, default
.bench_build; build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Spans of a traced run and the benchmark's data
files go under the same directory.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def source_digest():
    """SHA-1 over the engine and benchmark sources (the checkout may not be a
    git repository)."""
    h = hashlib.sha1()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        print("perfbench: engine sources not found next to perfbench/",
              file=sys.stderr)
        return 1
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(build_dir / "perfbench"), *sys.argv[1:],
           "--out-dir", str(target / "out"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
