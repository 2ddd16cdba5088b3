"""The committed mutation matrix: hand-made faults in ``src/`` and the
Tier-1 tests that must fail on each.

Each mutant names a file under ``src/hopfbrace``, an exact snippet of it,
the snippet's replacement, and the test ids that must fail.  ``run``
copies ``src/`` to a temporary directory, applies one mutant there and
runs the named tests in one pytest subprocess, with the copy first on
``PYTHONPATH`` (the package is not installed, so that path decides which
copy is imported; the subprocess checks that it imported the copy).
Mutants run one after another; nothing runs in parallel.

A snippet that does not occur exactly once is a ``RunnerError``, so a
refactor that moves a mutated line must update this table with it.  So is
any pytest outcome other than exit 0 (the mutant survived) or exit 1 with
at least one failed test (killed): a collection error, a missing test id
or an error in a fixture says nothing about the mutant.  A mutant whose
replacement equals its snippet is a no-op, which must survive.

``tests/test_mutants.py`` runs the whole table under ``slow``; select
mutants by name with ``pytest -m slow tests/test_mutants.py -k NAME``.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str           # under src/hopfbrace
    old: str            # occurs exactly once in the file
    new: str
    ids: tuple[str, ...]


class RunnerError(Exception):
    """The mutant could not be judged."""


MUTANTS = (
    Mutant("proposition-never-recorded", "verify.py",
           "    if not ok:\n        report.violations.append(",
           "    if False:\n        report.violations.append(",
           ("tests/test_verify.py::test_failing_propositions_are_reported",
            "tests/test_verify.py::test_cli_reports_failing_propositions")),
    Mutant("gamma-cross-check-dropped", "verify.py",
           "        report.violations.append(Violation(\"gamma-huq-equality\",\n"
           "                                           \"proposition\", str(exc)))\n",
           "",
           ("tests/test_verify.py::test_failing_propositions_are_reported",
            "tests/test_verify.py::test_cli_reports_failing_propositions")),
    Mutant("lemma-clause-not-reseeded", "verify.py",
           "            if ident.suite == \"lemma\":\n"
           "                rng = _rng(seed)\n",
           "",
           ("tests/test_verify.py::test_random_layer_seeding_is_pinned",)),
    Mutant("every-identity-reseeded", "verify.py",
           "            if ident.suite == \"lemma\":\n",
           "            if True:\n",
           ("tests/test_verify.py::test_random_layer_seeding_is_pinned",)),
    Mutant("annihilator-rows-from-st", "series.py",
           "_fiber_rows(st[:, center].T, base.identity)",
           "_fiber_rows(st[center], base.identity)",
           ("tests/test_linear_systems.py::"
            "test_brace_with_a_smaller_annihilator_matches_the_reference",
            "tests/test_linear_systems.py::"
            "test_corpus_sample_matches_the_reference[6]",
            "tests/test_linear_systems.py::test_corpus_sample_has_every_kind")),
    Mutant("single-min-label-step", "series.py",
           "    while (label != (nxt := label[moves].min(axis=1))).any():\n"
           "        label = nxt\n",
           "    label = label[moves].min(axis=1)\n",
           ("tests/test_linear_systems.py::"
            "test_exact_factorization_brace_matches_the_reference",
            "tests/test_linear_systems.py::"
            "test_corpus_sample_matches_the_reference[8]")),
    Mutant("kernel-not-equal", "subobjects.py",
           "        return self.images == self.target.base.identity\n",
           "        return self.images != self.target.base.identity\n",
           ("tests/test_subobjects.py::test_hopf_kernel_examples",
            "tests/test_skewbrace.py::test_morphism_validation")),
    Mutant("always-surjective", "subobjects.py",
           "        return bool(self.target.base.dot._mask(self.images).all())\n",
           "        return True\n",
           ("tests/test_subobjects.py::"
            "test_morphism_images_are_one_read_only_array",
            "tests/test_extensions.py::test_non_surjective_rejected")),
    Mutant("negative-index-accepted", "hopf.py",
           "    if i < 0:\n"
           "        raise IndexError(f\"basis index {i} is negative\")\n",
           "",
           ("tests/test_hopf.py::test_negative_indices_are_refused[-1]",)),
    Mutant("no-op", "verify.py",
           "    if not ok:\n        report.violations.append(",
           "    if not ok:\n        report.violations.append(",
           ("tests/test_verify.py::test_failing_propositions_are_reported",)),
)


def snippet_count(mutant: Mutant, src: Path) -> int:
    """How often the mutant's snippet occurs in its file under ``src``."""
    text = (src / "hopfbrace" / mutant.path).read_text(encoding="utf-8")
    return text.count(mutant.old)


def _apply(mutant: Mutant, src: Path) -> None:
    if (count := snippet_count(mutant, src)) != 1:
        raise RunnerError(f"{mutant.name}: the snippet occurs {count} times "
                          f"in {mutant.path}, not once")
    path = src / "hopfbrace" / mutant.path
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


# pytest under the copy: exit with its code once hopfbrace is the copy's
_PYTEST = """\
import sys, hopfbrace, pytest
if not hopfbrace.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported {hopfbrace.__file__}, not the mutated copy")
sys.exit(pytest.main(sys.argv[2:]))
"""


def run(mutant: Mutant) -> list[str]:
    """The named tests that fail on this mutant: none if it survives."""
    if not mutant.ids:
        raise RunnerError(f"{mutant.name}: no test ids")
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        _apply(mutant, src)
        env = {**os.environ, "PYTHONPATH": str(src),
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", _PYTEST, str(src), "-q", "-rf",
             "--tb=no", "-p", "no:cacheprovider", *mutant.ids],
            cwd=ROOT, env=env, capture_output=True, text=True)
    failed = re.findall(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)
    if proc.returncode == 0 or proc.returncode == 1 and failed:
        return failed
    raise RunnerError(f"{mutant.name}: not judged, exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
