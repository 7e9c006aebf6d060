#!/usr/bin/env python3
"""Assert the engine-equivalence invariants of a BENCH_*.json artifact.

The bench harnesses record ``identical_iterations`` wherever two
configurations of the engine (tile heights, geometries' fixed-iteration
runs) solved the same problem (every configuration is bitwise equivalent,
so any mismatch is a correctness bug, not noise); the solve-server bench
records the stronger ``identical_results`` (bitwise-equal solution fields
between batched and solo solves).  The old CI check was
``! grep -q '"identical_iterations": false'`` — which passes vacuously
when the key is missing or the file is empty.  This script fails on BOTH:
every solver entry must carry at least one equivalence flag (directly or
in a nested object) and every flag must be true.

Usage: check_bench_smoke.py BENCH_PR3.json [BENCH_PR4.json ...]
"""

import json
import sys


def collect_flags(node, out):
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("identical_iterations", "identical_results"):
                out.append(value)
            else:
                collect_flags(value, out)
    elif isinstance(node, list):
        for item in node:
            collect_flags(item, out)


def check(path):
    with open(path) as f:
        doc = json.load(f)
    solvers = doc.get("solvers")
    if not isinstance(solvers, list) or not solvers:
        raise SystemExit(f"{path}: no 'solvers' array — nothing was benched")
    for entry in solvers:
        name = entry.get("solver", "<unnamed>")
        flags = []
        collect_flags(entry, flags)
        if not flags:
            raise SystemExit(
                f"{path}: solver '{name}' carries no equivalence flag — "
                f"the check would pass vacuously"
            )
        if not all(flag is True for flag in flags):
            raise SystemExit(
                f"{path}: solver '{name}' produced differing results "
                f"across configurations — they must be bitwise equivalent"
            )
    print(f"{path}: {len(solvers)} solvers, all configurations identical")


def main():
    if len(sys.argv) < 2:
        raise SystemExit("usage: check_bench_smoke.py BENCH.json [...]")
    for path in sys.argv[1:]:
        check(path)


if __name__ == "__main__":
    main()
