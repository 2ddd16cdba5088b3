"""The mutation matrix of ``tests/mutants.py``: each mutant fails every
test it names, and the no-op mutant survives."""

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


@pytest.mark.slow
@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed_unless_a_noop(mutant):
    failed = mutants.run(mutant)
    if mutant.old == mutant.new:
        assert failed == []
    else:
        assert sorted(failed) == sorted(mutant.ids)
