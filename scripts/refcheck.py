#!/usr/bin/env python3
"""Check the first steps of every benchmark workload against perfbench/reference.json.

    python3 scripts/refcheck.py --seeds 0-63
    python3 scripts/refcheck.py --seeds 0-1,41,48

For each workload and seed it trains the steps that the reference records
(three) through ``run`` of perfbench/workload.py, as the benchmark's own
check does, and compares every loss term with the reference at that step's
tolerance.  A term passes when math.isclose(got, want) holds with the
tolerance as both its relative and absolute bound, that is when its
deviation |got - want| / max(1, |got|, |want|) is at most the tolerance.
It prints the worst deviation of each workload and step, with the seed and
term where it occurs, and exits 1 if any term misses or a run fails.  It
changes nothing under perfbench/; workload.run makes perfbench/out/, which
git ignores, if it is missing.
"""

import argparse
import json
import math
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
PERFBENCH = SCRIPTS.parent / "perfbench"
sys.path[:0] = [str(PERFBENCH), str(SCRIPTS)]

import workload  # noqa: E402  (puts this tree's src/ first on sys.path)
from fingerprint import seed_list  # noqa: E402


def deviation(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(got), abs(want))


def compare(rows, reference: dict, want_rows):
    """(step, term, deviation, passed) of every term of the rows the reference records."""
    for step, (row, want_row, tol) in enumerate(zip(rows, want_rows, reference["tolerance"]), 1):
        for term, got, want in zip(reference["terms"], row, want_row):
            yield step, term, deviation(got, want), math.isclose(got, want, rel_tol=tol,
                                                                 abs_tol=tol)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-63"),
                        help="comma-separated seeds A and ranges A-B, both included, e.g. "
                             "0-1,41,48 (default 0-63: all the reference holds)")
    args = parser.parse_args(argv)
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    misses = []
    for name in workload.WORKLOADS:
        recorded = reference["steps"][name]
        missing = [seed for seed in args.seeds if str(seed) not in recorded]
        if missing:
            parser.error(f"the reference has no {name} seeds {missing}")
        worst = {}  # step -> (deviation, seed, term)
        for seed in args.seeds:
            want_rows = recorded[str(seed)]
            rec = workload.run(name, seed, seconds=math.inf, max_steps=len(want_rows), setups=1,
                               setup_seconds=0.0, evals=0)
            if rec["failure"] or len(rec["rows"]) < len(want_rows):
                misses.append(f"{name} seed {seed}: {len(rec['rows'])} steps, {rec['failure']}")
                continue
            for step, term, dev, passed in compare(rec["rows"], reference, want_rows):
                if dev > worst.get(step, (-1.0,))[0]:
                    worst[step] = (dev, seed, term)
                if not passed:
                    misses.append(f"{name} seed {seed} step {step} {term}: deviation {dev:.2e}")
        for step, (dev, seed, term) in sorted(worst.items()):
            tol = reference["tolerance"][step - 1]
            print(f"{name} step {step}: worst deviation {dev:.2e} (seed {seed}, {term}), "
                  f"tolerance {tol:g}", flush=True)
    for miss in misses:
        print(f"miss: {miss}", file=sys.stderr)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
