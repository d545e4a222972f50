#!/usr/bin/env python3
"""evalcmp checks that eval-matrix reports are equal modulo wall-clock.

Usage: python3 scripts/evalcmp.py REFERENCE.json REPORT.json [REPORT.json ...]

Every score, itemset and rank in a BENCH_eval.json report is a pure
function of the seeded flows, so two runs of the same matrix must agree
on everything except the "wall_ms" timings. Exits 1 naming each report
that differs from the reference, 2 on bad usage.
"""
import json
import sys


def strip(o):
    if isinstance(o, dict):
        return {k: strip(v) for k, v in o.items() if k != "wall_ms"}
    if isinstance(o, list):
        return [strip(v) for v in o]
    return o


def load(path):
    with open(path) as f:
        return strip(json.load(f))


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    ref = load(argv[1])
    differ = [p for p in argv[2:] if load(p) != ref]
    for p in differ:
        print(f"{p} differs from {argv[1]} (modulo wall_ms)")
    if differ:
        return 1
    print(f"{', '.join(argv[2:])} equal {argv[1]} modulo wall_ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
