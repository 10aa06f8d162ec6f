"""scripts/bytecheck.py: a tree against a git revision of itself."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bytecheck(*args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "bytecheck.py"), *args],
                          cwd=ROOT, capture_output=True, text=True)


def _clean_checkout() -> bool:
    """Whether this is a git checkout whose src, scripts and perfbench match HEAD."""
    try:
        status = subprocess.run(["git", "status", "--porcelain", "--", "src", "scripts",
                                 "perfbench"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return False
    return status.returncode == 0 and not status.stdout.strip()


@pytest.mark.skipif(not _clean_checkout(),
                    reason="needs a git checkout whose src, scripts and perfbench match HEAD")
def test_head_against_itself_is_identical():
    run = _bytecheck("--against", "HEAD", "--seeds", "3", "--steps", "1",
                     "--workloads", "finetune_k5")
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "4 fingerprint lines, identical"


def test_a_bad_revision_is_a_usage_error():
    run = _bytecheck("--against", "no-such-revision", "--seeds", "3", "--steps", "1")
    assert run.returncode == 2
    assert "no-such-revision" in run.stderr and "Traceback" not in run.stderr
    assert run.stdout == ""
