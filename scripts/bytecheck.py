#!/usr/bin/env python3
"""Check that this tree computes the same bits as a git revision.

    python3 scripts/bytecheck.py --against HEAD~1
    python3 scripts/bytecheck.py --against main --seeds 0-3 --steps 2 --workloads joint_k5

It extracts REV's src with ``git archive`` into a temporary directory,
runs this tree's scripts/fingerprint.py with the same arguments on REV's
src and on this tree's (each first on PYTHONPATH), prints the lines that
differ, and removes the directory.  Both sides run this tree's
fingerprint.py, so a workload added to it after REV (``cli``, for one)
can still be compared with REV.  This tree's files are used as they are
on disk, uncommitted changes included.

Exit status: 0 when the two fingerprints are identical, 1 when they differ
or a fingerprint run fails, 2 when REV is not a revision of this checkout.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fingerprint(root: Path, args: list) -> subprocess.CompletedProcess:
    """This tree's fingerprint.py run on the src of the tree at ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "fingerprint.py"), *args],
                          cwd=root, env=env, capture_output=True, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the git revision to compare with, e.g. HEAD~1")
    parser.add_argument("--seeds", nargs="+", default=["0-7"],
                        help="seeds A and ranges A-B, as fingerprint.py takes them")
    parser.add_argument("--steps", type=int, default=5)
    parser.add_argument("--workloads", nargs="+", help="default: all of fingerprint.py's")
    args = parser.parse_args(argv)
    passed = ["--seeds", *args.seeds, "--steps", str(args.steps)]
    if args.workloads:
        passed += ["--workloads", *args.workloads]

    try:
        rev = subprocess.run(["git", "rev-parse", "--verify", "--quiet", "--end-of-options",
                              f"{args.against}^{{commit}}"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip()
    except OSError as e:
        print(f"error: cannot run git to resolve {args.against!r}: {e}", file=sys.stderr)
        return 2
    if not rev:
        print(f"error: {args.against!r} is not a revision of this checkout", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                                 capture_output=True)
        if archive.returncode:
            print(f"error: cannot extract {args.against!r}: "
                  f"{archive.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        runs = {args.against: fingerprint(Path(tmp), passed),
                "this tree": fingerprint(ROOT, passed)}

    for label, run in runs.items():
        if run.returncode:
            print(f"error: fingerprint.py failed in {label}:\n{run.stderr}", file=sys.stderr)
            return 1
    old, new = (run.stdout.splitlines() for run in runs.values())
    diff = list(difflib.unified_diff(old, new, *runs, n=0, lineterm=""))
    for line in diff:
        print(line)
    print(f"{len(old)} fingerprint lines, {'identical' if not diff else 'DIFFERENT'}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
