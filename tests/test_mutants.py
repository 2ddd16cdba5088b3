"""The mutation matrix of ``tests/mutants.py``: each mutant fails every
test it names, and the no-op mutant survives."""

import os
import subprocess
import sys

import pytest

import mutants
from mutants import MUTANTS, Mutant, RunnerError


def test_every_snippet_occurs_once():
    """Checked in Tier-1 too, so that a refactor that moves a mutated
    line finds out before the slow run."""
    for m in MUTANTS:
        assert mutants.snippet_count(m, mutants.ROOT / "src") == 1, m.name


@pytest.mark.parametrize("old", ["not in the source", "import"])
def test_a_snippet_not_found_once_is_a_runner_error(old):
    with pytest.raises(RunnerError, match="times in verify.py"):
        mutants.run(Mutant("bad", "verify.py", old, "", ("tests",)))


def test_the_runner_collects_a_slow_id():
    """addopts deselect ``slow`` tests; ``run``'s pytest arguments must
    still collect one it names, or it would read as not failed."""
    slow_id = "tests/test_kernel_pair.py::test_whole_corpus[2]"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only",
         *mutants.pytest_args([slow_id])],
        cwd=mutants.ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(mutants.ROOT / "src")})
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines()[0] == slow_id, proc.stdout


@pytest.mark.slow
@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed_unless_a_noop(mutant):
    failed = mutants.run(mutant)
    if mutant.old == mutant.new:
        assert failed == []
    else:
        assert sorted(failed) == sorted(mutant.ids)
