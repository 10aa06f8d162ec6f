"""Record the first steps' loss terms of every workload as the correctness reference.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json: for each workload and each seed below
``SEEDS``, the seven loss terms that each of the first ``STEPS`` steps
logs.  The fine-tune step 1 is computed before any backward pass or
optimizer update; later steps depend on the backward sweep of every op and
on Adam, whose first update is about the sign of each gradient.  run.py
compares every recorded step a run reaches.

The tolerance, relative and absolute, grows by ten per step, because Adam
turns a rounding-level change in a near-zero gradient into a full-size
update.  Moving conv2d from np.einsum to np.matmul/np.tensordot changed
the losses by at most 6.4e-6, 7.3e-5 and 6.5e-4 in steps 1-3 (seeds 0-15
of both workloads); a wrong conv2d or maxpool2d backward changes step 2
by about 0.1.  Re-record only when a change alters the losses on purpose,
and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

import workload

SEEDS = 64
STEPS = 3
TOLERANCE = (1e-4, 1e-3, 1e-2)  # per step


def main() -> int:
    steps = {}
    for name in workload.WORKLOADS:
        steps[name] = {}
        for seed in range(SEEDS):
            rec = workload.run(name, seed, seconds=float("inf"), max_steps=STEPS, setups=1,
                               setup_seconds=0.0, evals=0)
            if rec["failure"] or len(rec["rows"]) != STEPS:
                print(f"error: {name} seed {seed}: {rec['failure']}", file=sys.stderr)
                return 1
            steps[name][str(seed)] = rec["rows"]
            print(name, seed, rec["rows"][-1], flush=True)
    out = {"terms": list(workload.TERMS), "tolerance": list(TOLERANCE), "steps": steps}
    (workload.ROOT / "perfbench" / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
