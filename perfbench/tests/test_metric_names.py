#!/usr/bin/env python3
"""Checks that the metrics bips_perfbench prints are the ones BENCHMARK.json
declares, with the same units, and that each workload it declares exists.

    python3 perfbench/tests/test_metric_names.py BIPS_PERFBENCH BENCHMARK.json
"""
import json
import subprocess
import sys


def main():
    binary, manifest = sys.argv[1], sys.argv[2]
    with open(manifest) as f:
        bench = json.load(f)

    listed = {"end_to_end": {}, "per_layer": {}}
    out = subprocess.run([binary, "--list-metrics"], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    for line in out.splitlines():
        kind, name, unit = line.split()
        listed[kind][name] = unit

    errors = []
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in bench[kind]}
        if declared != listed[kind]:
            missing = sorted(set(declared) - set(listed[kind]))
            extra = sorted(set(listed[kind]) - set(declared))
            units = sorted(n for n in set(declared) & set(listed[kind])
                           if declared[n] != listed[kind][n])
            errors.append(f"{kind}: not printed {missing}, undeclared {extra}, "
                          f"unit differs {units}")

    workloads = subprocess.run([binary, "--list-workloads"], check=True,
                               stdout=subprocess.PIPE, text=True).stdout
    names = {line.split("\t")[0] for line in workloads.splitlines()}
    for w in bench["workloads"]:
        if w["name"] not in names:
            errors.append(f"workload {w['name']} is declared but not built in")

    for e in errors:
        print("FAIL", e)
    if not errors:
        print("ok: metric names and units match", manifest)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
