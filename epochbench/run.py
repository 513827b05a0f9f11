#!/usr/bin/env python3
"""Builds the epoch benchmark from source and runs one workload.

    python3 epochbench/run.py --workload aligned_paper --seed 1 --seconds 30 --trace 0
    python3 epochbench/run.py --selftest

Run from the repository root. The benchmark package (epochbench/) is a
Cargo workspace of its own that depends on the repository's crates by
path; it is built in release mode into $CARGO_TARGET_DIR (default
.bench_build). The last line of standard output is the JSON result; its
metric names are checked against BENCHMARK.json before it is passed on.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "dcs-epochbench"
# The benchmark must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def benchmark_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: [(m["name"], m["unit"]) for m in spec[kind]]
            for kind in ("end_to_end", "per_layer")}


def commit():
    """The git commit, or a hash of the sources when there is no git."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    files = [p for pattern in ("crates/**/*.rs", "crates/**/Cargo.toml",
                               "vendor/**/*.rs", "epochbench/src/*.rs")
             for p in ROOT.glob(pattern)]
    for p in sorted(files) + [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def selftest(env, exe):
    """Unit tests of the oracle and the tail rule, then the metric names
    the binary reports against BENCHMARK.json."""
    cmd = ["cargo", "test", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env).returncode != 0:
        return 1
    listed = json.loads(subprocess.run([str(exe), "--list-metrics"], capture_output=True,
                                       text=True, check=True).stdout)
    spec = benchmark_names()
    ok = True
    for kind in ("end_to_end", "per_layer"):
        have = [(m["name"], m["unit"]) for m in listed[kind]]
        if have != spec[kind]:
            print(f"selftest: {kind} metrics differ from BENCHMARK.json:\n"
                  f"  binary only: {sorted(set(have) - set(spec[kind]))}\n"
                  f"  BENCHMARK.json only: {sorted(set(spec[kind]) - set(have))}")
            ok = False
    print("selftest: metric names match BENCHMARK.json" if ok else "selftest: FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(env):
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 2
    exe = pathlib.Path(target) / "release" / BINARY
    if args.selftest:
        return selftest(env, exe)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 5
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        print(f"run.py: no JSON result (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 4
    want = benchmark_names()["per_layer" if args.trace else "end_to_end"]
    have = [(k, v["unit"]) for k, v in result["metrics"].items()]
    if sorted(have) != sorted(want):
        print("\n".join(lines[:-1]))
        print(f"run.py: metrics {sorted(have)} differ from BENCHMARK.json", file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
