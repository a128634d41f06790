#!/usr/bin/env python3
"""Builds the BIPS benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and compiles
perfbench/ (and the simulator sources under src/) in Release mode into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls only rebuild what changed. The benchmark's output is
passed through: a human-readable report, then one JSON line.

Besides the in-process check that every repetition of a seed yields the
same digest, this wrapper remembers the digest of each (build, workload,
seed) in the build directory and reports the run as incorrect if a later
run of the same build and seed disagrees.
"""
import argparse
import gzip
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the BIPS sources (src/) are not next to perfbench/; "
             "run from a full checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "bips_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "bips_perfbench"


def check_digest(out, binary, workload, seed, digest):
    """True unless an earlier run of this binary, workload and seed disagreed."""
    path = out / "digests.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    build = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    key = f"{build}:{workload}:{seed}"
    if key in seen and seen[key] != digest:
        print(f"DIGEST MISMATCH across runs: {digest} vs earlier {seen[key]}")
        return False
    seen[key] = digest
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    spans = out / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    if args.trace == "1":
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    # Back the heap with transparent huge pages (glibc >= 2.35; where the
    # kernel has THP off this does nothing): with 4 KiB pages the timings
    # swung about twice as much between repetitions and between runs on a
    # shared virtual machine (perfbench/NOTES.md).
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(
        t for t in (env.get("GLIBC_TUNABLES"), "glibc.malloc.hugetlb=1") if t)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"bips_perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("the last line of the report is not JSON")

    digest = next((l.split()[1] for l in lines if l.startswith("digest: ")), None)
    if digest is None:
        fail("the report carries no digest line")
    if spans.is_file():
        # A traced run writes millions of spans; keep them compressed.
        with open(spans, "rb") as src, \
                gzip.open(f"{spans}.gz", "wb", compresslevel=1) as dst:
            shutil.copyfileobj(src, dst)
        spans.unlink()
    for line in lines[:-1]:
        print(line.replace(str(spans), f"{spans}.gz"))
    if not check_digest(out, binary, args.workload, args.seed, digest):
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
