"""Central-extension verdicts for the two adjunctions.

Both tests work on a surjective morphism via its Hopf kernel carrier.
Surjectivity is decided on group-likes, which is sufficient because
morphisms are basis maps.  Witnesses are the first failing pair in
carrier order, so reports are byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MorphismError
from .skewbrace import _first_bad_tuple
from .subobjects import HopfMorphism, Subbrace, hopf_kernel


@dataclass
class ExtensionReport:
    surjective: bool
    kernel: Subbrace
    central_hopfcoc: bool | None = None
    central_huq: bool | None = None
    witness_hopfcoc: tuple[int, int] | None = None
    witness_huq: tuple[int, int] | None = None


def _require_surjective(f: HopfMorphism) -> Subbrace:
    if not f.is_surjective():
        raise MorphismError("morphism is not surjective; not an extension")
    return hopf_kernel(f)


def _first_pair(kernel: Subbrace, bad) -> tuple[int, int] | None:
    """The first (k, x) in carrier order, then x order, with bad[i, x]
    for k = kernel.carrier[i]; None when no pair is bad."""
    hit = _first_bad_tuple(bad)
    return None if hit is None else (kernel.carrier[hit[0]], hit[1])


def _hopfcoc(kernel: Subbrace) -> dict:
    base = kernel.parent.base
    st, c, e = base.star_table, kernel.elements, base.identity
    hit = _first_pair(kernel, (st[c] != e) | (st[:, c].T != e))
    return {"central_hopfcoc": hit is None, "witness_hopfcoc": hit}


def _huq(kernel: Subbrace) -> dict:
    base = kernel.parent.base
    d, o, c = base.dot.table, base.circ.table, kernel.elements
    ka, ak = d[c], d[:, c].T            # k.a and a.k, row k, column a
    hit = _first_pair(kernel, (ak != ka) | (ka != o[:, c].T) | (ka != o[c]))
    return {"central_huq": hit is None, "witness_huq": hit}


def check_central_hopfcoc(f: HopfMorphism) -> ExtensionReport:
    """Central for the plain-Hopf-algebra adjunction: every star product
    between the kernel and the source is trivial, so that the relative
    commutator, the normal closure of those star products, is trivial."""
    kernel = _require_surjective(f)
    return ExtensionReport(True, kernel, **_hopfcoc(kernel))


def check_central_huq(f: HopfMorphism) -> ExtensionReport:
    """Huq-central: kernel elements commute with everything for both
    products, and all four products agree on such pairs."""
    kernel = _require_surjective(f)
    return ExtensionReport(True, kernel, **_huq(kernel))


def centrality_consequences(f: HopfMorphism) -> list[tuple[int, int]]:
    """For a hopfcoc-central extension, the two products must agree
    whenever one argument is in the kernel; returns violating pairs
    (always empty: this is a proved consequence, kept as a check)."""
    report = check_central_hopfcoc(f)
    if not report.central_hopfcoc:
        raise ValueError("morphism is not a hopfcoc-central extension")
    base = f.source.base
    d, o, c = base.dot.table, base.circ.table, report.kernel.elements
    bad = (d[:, c] != o[:, c]).T | (d[c] != o[c])
    carrier = report.kernel.carrier
    return [(carrier[i], int(x)) for i, x in np.argwhere(bad)]


def analyze_extension(f: HopfMorphism) -> ExtensionReport:
    """Both verdicts, each checked on its own, from one kernel."""
    kernel = _require_surjective(f)
    return ExtensionReport(True, kernel, **_hopfcoc(kernel), **_huq(kernel))
