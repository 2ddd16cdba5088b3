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
           "                rng = random.Random(seed)\n",
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
            "tests/test_linear_systems.py::test_corpus_sample_has_every_kind",
            "tests/test_products.py::test_corpus_sample[2-0-12-3]")),
    Mutant("single-min-label-step", "series.py",
           "    while (label != (nxt := label[moves].min(axis=1))).any():\n"
           "        label = nxt\n",
           "    label = label[moves].min(axis=1)\n",
           ("tests/test_linear_systems.py::"
            "test_exact_factorization_brace_matches_the_reference",
            "tests/test_linear_systems.py::"
            "test_corpus_sample_matches_the_reference[8]")),
    Mutant("kernel-not-equal", "subobjects.py",
           "f.images == f.target.base.identity",
           "f.images != f.target.base.identity",
           ("tests/test_subobjects.py::test_hopf_kernel_examples",
            "tests/test_skewbrace.py::test_morphism_validation",
            "tests/test_products.py::test_corpus_sample[2-0-12-3]")),
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
           ("tests/test_series.py::test_relative_commutator_needs_i_star_h",
            "tests/test_kernel_pair.py::"
            "test_corpus_sample_commutators_are_least_central[6]")),
    Mutant("huq-without-circ-commutators", "series.py",
           "            | dot._mask(_commutators(circ, c, circ.generators))\n",
           "",
           ("tests/test_series.py::"
            "test_huq_commutator_needs_the_circ_commutators",
            "tests/test_products.py::test_corpus_sample[2-0-12-3]")),
    Mutant("relative-i-star-s-without-the-last-generator", "series.py",
           "st[c[:, None], dot.generators]",
           "st[c[:, None], dot.generators[:-1]]",
           ("tests/test_corpus.py::"
            "test_commutators_match_the_oracle_on_every_ideal[8]",)),
    Mutant("relative-s-star-i-on-s-dot", "series.py",
           "st[base.circ.generators[:, None], c]",
           "st[base.dot.generators[:, None], c]",
           ("tests/test_corpus.py::"
            "test_commutators_match_the_oracle_on_every_ideal[12]",
            "tests/test_kernel_pair.py::"
            "test_corpus_sample_commutators_are_least_central[12]")),
    Mutant("huq-circ-commutators-on-s-dot", "series.py",
           "_commutators(circ, c, circ.generators)",
           "_commutators(circ, c, dot.generators)",
           ("tests/test_corpus.py::"
            "test_commutators_match_the_oracle_on_every_ideal[12]",
            "tests/test_kernel_pair.py::"
            "test_corpus_sample_commutators_are_least_central[12]",
            "tests/test_products.py::test_corpus_sample[2-0-12-3]")),
    Mutant("gamma-step-without-h-star-i", "series.py",
           "        return dot._mask(st[c]) | dot._mask(st[:, c]) "
           "| dot._mask(comm)\n",
           "        return dot._mask(st[c]) | dot._mask(comm)\n",
           ("tests/test_series.py::test_gamma_series_needs_h_star_i",
            "tests/test_products.py::test_corpus_sample[2-0-12-3]")),
    Mutant("gamma-step-without-i-star-h", "series.py",
           "        return dot._mask(st[c]) | dot._mask(st[:, c]) "
           "| dot._mask(comm)\n",
           "        return dot._mask(st[:, c]) | dot._mask(comm)\n",
           ("tests/test_series.py::test_gamma_series_needs_i_star_h",
            "tests/test_products.py::test_corpus_sample[8-11-12-21]")),
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
           "    if args.all == (args.input is not None):\n",
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
            "test_upper_annihilator_series_has_the_gamma_length[6]",
            "tests/test_products.py::test_corpus_sample[2-0-12-3]")),
    Mutant("series-stops-one-step-early", "series.py",
           "        terms.append(nxt)\n",
           "        if nxt.is_trivial():\n"
           "            break\n"
           "        terms.append(nxt)\n",
           ("tests/test_annihilator_centre.py::"
            "test_upper_annihilator_series_has_the_gamma_length[2]",
            "tests/test_products.py::test_corpus_sample[2-0-12-3]")),
    Mutant("circ-normality-rows-dropped", "skewbrace.py",
           "                self.circ.conj_table[s_circ],\n",
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
           ("tests/test_skewbrace.py::test_center",
            "tests/test_products.py::test_corpus_sample[3-0-10-3]")),
    Mutant("kernel-unit-row-by-position", "linalg.py",
           "Element._canonical({labels[f]: 1}, 1)",
           "Element._canonical({f: 1}, 1)",
           ("tests/test_series.py::test_socle_of_trivial_brace_is_center",
            "tests/test_products.py::test_corpus_sample[3-0-10-3]")),
    Mutant("image-generators-without-the-last", "skewbrace.py",
           "_frozen(_nonzero(pi_s))",
           "_frozen(_nonzero(pi_s)[:-1])",
           ("tests/test_generator_checks.py::"
            "test_every_generating_set_generates[2]",)),
    Mutant("refusal-witness-on-the-generators", "skewbrace.py",
           "lambda lo, hi: law(slice(lo, hi), slice(None)), n, n * n)",
           "lambda lo, hi: law(slice(None), gens[lo:hi]), len(gens), n * n)",
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
    Mutant("adopt-leaves-inverses-writable", "skewbrace.py",
           "        inverses.setflags(write=False)\n",
           "",
           ("tests/test_subobjects.py::"
            "test_certified_quotients_match_validation_and_cosets[radical_c4]",)),
    Mutant("image-keeps-the-identity", "skewbrace.py",
           "        pi_s[e] = False\n",
           "",
           ("tests/test_generator_checks.py::"
            "test_every_generating_set_generates[catalog]",)),
    Mutant("refusal-reads-one-generator-per-chunk", "skewbrace.py",
           "law(slice(None), gens[lo:hi])",
           "law(slice(None), gens[lo:hi][:1])",
           ("tests/test_skewbrace.py::"
            "test_compatibility_is_decided_on_every_generator",)),
    Mutant("order-range-without-the-cap", "catalog.py",
           "range(1, ORDER_CAP + 1)",
           "range(1, 2**63)",
           ("tests/test_cli.py::test_order_above_the_cap_is_a_parse_error",)),
    Mutant("identity-range-one-past-the-carrier", "catalog.py",
           "range(order)",
           "range(order + 1)",
           ("tests/test_cli.py::"
            "test_identity_outside_the_carrier_is_a_parse_error[4]",)),
    Mutant("nullspace-labels-unchecked", "linalg.py",
           "        if len(chain) != unknowns + 2 or chain != sorted(set(chain)):\n",
           "        if False:\n",
           ("tests/test_linalg.py::test_nullspace_labels_are_checked[decreasing]",
            "tests/test_linalg.py::test_nullspace_labels_are_checked[outside]")),
    # every catalog and corpus identity is index 0: only a relabelling
    # tells the identity from 0
    Mutant("kernel-at-index-0", "subobjects.py",
           "== f.target.base.identity)",
           "== 0)",
           ("tests/test_relabelling.py::"
            "test_relabelling_renames_every_carrier[trivial:C2]",)),
    Mutant("socle-skips-the-fiber-of-0", "series.py",
           "_fiber_rows(st[center], base.identity)",
           "_fiber_rows(st[center], 0)",
           ("tests/test_relabelling.py::"
            "test_relabelling_renames_every_carrier[trivial:C2]",)),
    Mutant("leg-not-brought-to-the-common-den", "verify.py",
           "coeff = prod(n for _, n in legs) * (den // value.den)",
           "coeff = prod(n for _, n in legs) * 1",
           ("tests/test_verify.py::test_axiom_suite_passes_on_catalog",
            "tests/test_verify.py::test_lemma_suite_all_clauses",
            "tests/test_verify.py::test_structure_suite",
            "tests/test_verify.py::test_verify_all_json_matches_golden")),
    Mutant("integer-flag-takes-non-ascii-digits", "cli.py",
           "    if not (text.isascii()"
           " and text.removeprefix(\"-\").isdigit()):\n",
           "    if not text.removeprefix(\"-\").isdigit():\n",
           ("tests/test_cli.py::"
            "test_bad_flags_exit_2_with_one_line[argv14-env14]",
            "tests/test_cli.py::"
            "test_bad_flags_exit_2_with_one_line[argv15-env15]",
            "tests/test_cli.py::"
            "test_bad_flags_exit_2_with_one_line[argv16-env16]")),
    Mutant("closed-output-not-redirected", "cli.py",
           "        os.dup2(os.open(os.devnull, os.O_WRONLY),"
           " sys.stdout.fileno())\n", "",
           ("tests/test_cli.py::"
            "test_closed_stdout_exits_141_with_nothing_on_stderr"
            "[version-buffered]",)),
    Mutant("element-add-takes-any-combination", "hopf.py",
           "    def __add__(self, other: \"Element\") -> \"Element\":\n"
           "        if not isinstance(other, Element):\n"
           "            return NotImplemented\n",
           "    def __add__(self, other: \"Element\") -> \"Element\":\n",
           ("tests/test_hopf.py::"
            "test_elements_add_and_subtract_only_elements[tensor2]",)),
    Mutant("row-tables-not-typed", "skewbrace.py",
           "{type(x) for row in table for x in row} - {int}",
           "set()",
           ("tests/test_skewbrace.py::"
            "test_bools_in_row_tables_are_refused[bools]",)),
    Mutant("loader-ignores-the-order-field", "catalog.py",
           "        if len(table) != order:\n",
           "        if False:\n",
           ("tests/test_cli.py::"
            "test_tables_smaller_than_the_order_exit_2_with_one_line",)),
    Mutant("equality-is-a-numpy-bool", "skewbrace.py",
           "np.array_equal(self.table, other.table)",
           "(self.table == other.table).all()",
           ("tests/test_subobjects.py::"
            "test_equality_is_a_python_bool[FiniteGroup]",)),
    Mutant("identity-mismatch-without-witness", "skewbrace.py",
           "circ={circ.identity}\",\n"
           "            witness=(dot.identity, circ.identity))",
           "circ={circ.identity}\")",
           ("tests/test_cli.py::"
            "test_identity_mismatch_exits_1_with_both_identities",)),
    Mutant("hopf-brace-takes-any-base", "hopf.py",
           "        if not isinstance(base, SkewBrace):\n"
           "            raise TypeError(f\"expected a SkewBrace, got "
           "{type(base).__name__}\")\n", "",
           ("tests/test_skewbrace.py::"
            "test_brace_objects_refuse_other_types[hopf-of-a-group]",)),
    Mutant("skew-brace-takes-any-groups", "skewbrace.py",
           "        if not (isinstance(dot, FiniteGroup)"
           " and isinstance(circ, FiniteGroup)):\n", "        if False:\n",
           ("tests/test_skewbrace.py::"
            "test_brace_objects_refuse_other_types[skew-of-strs]",)),
    Mutant("float-arrays-truncated", "skewbrace.py",
           "arr.dtype.kind != \"i\"", "arr.dtype.kind not in \"fi\"",
           ("tests/test_skewbrace.py::"
            "test_non_integer_arrays_name_their_first_entry[float]",)),
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
