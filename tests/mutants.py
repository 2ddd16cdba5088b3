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
    Mutant("relative-commutator-without-i-star-h", "series.py",
           "    gens = (dot._mask(st[c[:, None], dot.generators])\n"
           "            | dot._mask(st[base.circ.generators[:, None], c]))\n",
           "    gens = dot._mask(st[base.circ.generators[:, None], c])\n",
           ("tests/test_series.py::test_relative_commutator_needs_i_star_h",)),
    Mutant("huq-without-circ-commutators", "series.py",
           "            | dot._mask(_commutators(circ, c, circ.generators))\n",
           "",
           ("tests/test_series.py::"
            "test_huq_commutator_needs_the_circ_commutators",)),
    Mutant("relative-i-star-s-without-the-last-generator", "series.py",
           "st[c[:, None], dot.generators]",
           "st[c[:, None], dot.generators[:-1]]",
           ("tests/test_corpus.py::"
            "test_commutators_match_the_oracle_on_every_ideal[8]",)),
    Mutant("relative-s-star-i-on-s-dot", "series.py",
           "st[base.circ.generators[:, None], c]",
           "st[base.dot.generators[:, None], c]",
           ("tests/test_corpus.py::"
            "test_commutators_match_the_oracle_on_every_ideal[12]",)),
    Mutant("huq-circ-commutators-on-s-dot", "series.py",
           "_commutators(circ, c, circ.generators)",
           "_commutators(circ, c, dot.generators)",
           ("tests/test_corpus.py::"
            "test_commutators_match_the_oracle_on_every_ideal[12]",)),
    Mutant("gamma-step-without-h-star-i", "series.py",
           "        return dot._mask(st[c]) | dot._mask(st[:, c]) "
           "| dot._mask(comm)\n",
           "        return dot._mask(st[c]) | dot._mask(comm)\n",
           ("tests/test_series.py::test_gamma_series_needs_h_star_i",)),
    Mutant("gamma-step-without-i-star-h", "series.py",
           "        return dot._mask(st[c]) | dot._mask(st[:, c]) "
           "| dot._mask(comm)\n",
           "        return dot._mask(st[:, c]) | dot._mask(comm)\n",
           ("tests/test_series.py::test_gamma_series_needs_i_star_h",)),
    Mutant("samples-unchecked", "verify.py",
           "    if _integer(samples) < 0:\n"
           "        raise ValueError(f\"samples must be non-negative, "
           "got {samples}\")\n",
           "",
           ("tests/test_verify.py::test_verify_suite_dispatch",)),
    Mutant("ambient-coerced", "linalg.py",
           "(ambient := _integer(ambient))",
           "(ambient := int(ambient))",
           ("tests/test_linalg.py::"
            "test_ambient_must_be_a_non_negative_integer[2.7-TypeError]",)),
    Mutant("verify-brace-and-all-accepted", "cli.py",
           "    if args.all == bool(args.input):\n",
           "    if not (args.all or args.input):\n",
           ("tests/test_cli.py::"
            "test_bad_flags_exit_2_with_one_line[argv4-env4]",)),
    Mutant("membership-off-by-one", "hopf.py",
           "        if x.nums and max(x.nums) >= n:\n",
           "        if x.nums and max(x.nums) > n:\n",
           ("tests/test_hopf.py::test_basis_mismatch_rejected",
            "tests/test_linalg.py::test_non_canonical_rows_are_refused[0]")),
    Mutant("propositions-dispatched-before-typing", "verify.py",
           "    if _integer(samples) < 0:\n",
           "    if name == \"propositions\":\n"
           "        return verify_propositions(H)\n"
           "    if _integer(samples) < 0:\n",
           ("tests/test_verify.py::test_verify_suite_dispatch",)),
    Mutant("subspace-canonical-check-dropped", "linalg.py",
           "            raise ValueError(f\"rows {rows} are not a canonical "
           "RREF basis\")\n",
           "            pass\n",
           ("tests/test_linalg.py::test_non_canonical_rows_are_refused[0]",
            "tests/test_linear_systems.py::"
            "test_read_off_takes_only_exact_unit_rows")),
    Mutant("annihilator-mask-is-the-socle-mask", "series.py",
           "    ann_mask = soc_mask & (lam[s_circ] == np.arange(n)).all(axis=0)\n",
           "    ann_mask = soc_mask\n",
           ("tests/test_annihilator_centre.py::"
            "test_huq_central_exactly_inside_the_annihilator[6]",
            "tests/test_annihilator_centre.py::"
            "test_upper_annihilator_series_has_the_gamma_length[6]")),
    Mutant("series-stops-one-step-early", "series.py",
           "        terms.append(nxt)\n",
           "        if nxt.is_trivial():\n"
           "            break\n"
           "        terms.append(nxt)\n",
           ("tests/test_annihilator_centre.py::"
            "test_upper_annihilator_series_has_the_gamma_length[2]",)),
    Mutant("circ-normality-rows-dropped", "skewbrace.py",
           "                self.circ._conj_rows(s_circ),\n",
           "",
           ("tests/test_generator_checks.py::test_corpus_sample[6]",)),
    Mutant("lambda-stability-rows-dropped", "skewbrace.py",
           "                self.lambda_table[s_circ],\n",
           "",
           ("tests/test_generator_checks.py::test_corpus_sample[4]",)),
    Mutant("strongness-on-s-dot", "subobjects.py",
           "base.lambda_table[base.circ.generators[:, None], self.elements]",
           "base.lambda_table[base.dot.generators[:, None], self.elements]",
           ("tests/test_generator_checks.py::test_corpus_sample[8]",)),
    Mutant("center-without-the-last-generator", "skewbrace.py",
           "        s = self.generators\n",
           "        s = self.generators[:-1]\n",
           ("tests/test_skewbrace.py::test_center",)),
    Mutant("kernel-unit-row-by-position", "linalg.py",
           "Element._canonical({labels[f]: 1}, 1)",
           "Element._canonical({f: 1}, 1)",
           ("tests/test_series.py::test_socle_of_trivial_brace_is_center",)),
    Mutant("image-generators-without-the-last", "skewbrace.py",
           "_nonzero(gens & ~image._mask(image.identity))",
           "_nonzero(gens & ~image._mask(image.identity))[:-1]",
           ("tests/test_generator_checks.py::"
            "test_every_generating_set_generates[2]",)),
    Mutant("refusal-witness-on-the-generators", "skewbrace.py",
           "        triple = _first_bad_tuple(everywhere, n, n * n)\n",
           "        triple = _first_bad_tuple(on_gens, k, n * n)\n",
           ("tests/test_skewbrace.py::"
            "test_compatibility_violation_carries_triple",
            "tests/test_skewbrace.py::test_light_test_rejects_when_first_"
            "bad_middle_is_outside_generators")),
    Mutant("hopfcoc-reads-only-k-star-a", "extensions.py",
           "(st[c] != e) | (st[:, c].T != e)",
           "(st[c] != e)",
           ("tests/test_kernel_pair.py::test_corpus_sample[6]",)),
    Mutant("huq-without-k-circ-a", "extensions.py",
           " | (ka != o[c])",
           "",
           ("tests/test_kernel_pair.py::test_corpus_sample[8]",)),
    Mutant("bool-scalar-accepted", "hopf.py",
           " and not isinstance(c, bool)",
           "",
           ("tests/test_hopf.py::test_non_rational_scalars_are_refused[True]",)),
    Mutant("map-images-coerced", "catalog.py",
           "[_integer(i) for i in images]",
           "[int(i) for i in images]",
           ("tests/test_catalog.py::"
            "test_save_map_refuses_what_load_map_refuses[bool]",)),
    Mutant("writer-names-unchecked", "catalog.py",
           "        if not isinstance(doc.get(key, \"\"), str):\n",
           "        if False:\n",
           ("tests/test_catalog.py::"
            "test_writers_refuse_a_name_that_is_not_a_string[name]",)),
    Mutant("parse-error-prints-usage", "cli.py",
           "\n    def error(self, message):\n"
           "        self.exit(_error(message))\n",
           "",
           ("tests/test_cli.py::"
            "test_bad_flags_exit_2_with_one_line[argv1-env1]",)),
    Mutant("stabilized-ignores-a-trivial-brace", "series.py",
           "len(terms) == 1 or not terms[-1].is_trivial()",
           "not terms[-1].is_trivial()",
           ("tests/test_series.py::test_every_series_runs_to_its_end",)),
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


def pytest_args(ids) -> list[str]:
    """pytest's arguments for running ``ids``.  ``-m ""`` clears the
    ``-m 'not slow'`` of addopts, which would deselect a ``slow`` id
    without a word, so that it read as a test that did not fail."""
    return ["-q", "-rf", "--tb=no", "-p", "no:cacheprovider", "-m", "", *ids]


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
            [sys.executable, "-c", _PYTEST, str(src),
             *pytest_args(mutant.ids)],
            cwd=ROOT, env=env, capture_output=True, text=True)
    failed = re.findall(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)
    if proc.returncode == 0 or proc.returncode == 1 and failed:
        return failed
    raise RunnerError(f"{mutant.name}: not judged, exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
