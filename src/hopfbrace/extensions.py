"""Central-extension verdicts for the two adjunctions.

Both tests work on a surjective morphism via its Hopf kernel carrier.
Surjectivity is decided on group-likes, which is sufficient because
morphisms are basis maps.  Witnesses are the first failing pair in
carrier order, so reports are byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import MorphismError
from .subobjects import HopfMorphism, Subbrace, hopf_kernel


@dataclass
class ExtensionReport:
    morphism: HopfMorphism
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


def check_central_hopfcoc(f: HopfMorphism) -> ExtensionReport:
    """Central for the plain-Hopf-algebra adjunction: every star product
    between the kernel and the source is trivial (the conjugation
    generators of the relative commutator are then trivial as well)."""
    kernel = _require_surjective(f)
    base = f.source.base
    st = base.star_table
    e = base.identity
    witness = None
    for i in kernel.carrier:
        for h in range(f.source.dim):
            if int(st[i, h]) != e or int(st[h, i]) != e:
                witness = (i, h)
                break
        if witness:
            break
    return ExtensionReport(
        morphism=f, surjective=True, kernel=kernel,
        central_hopfcoc=witness is None, witness_hopfcoc=witness)


def check_central_huq(f: HopfMorphism) -> ExtensionReport:
    """Huq-central: kernel elements commute with everything for both
    products, and all four products agree on such pairs."""
    kernel = _require_surjective(f)
    base = f.source.base
    d, o = base.dot.table, base.circ.table
    witness = None
    for k in kernel.carrier:
        for a in range(f.source.dim):
            if not (d[a, k] == d[k, a] == o[a, k] == o[k, a]):
                witness = (k, a)
                break
        if witness:
            break
    return ExtensionReport(
        morphism=f, surjective=True, kernel=kernel,
        central_huq=witness is None, witness_huq=witness)


def centrality_consequences(f: HopfMorphism) -> list[tuple[int, int]]:
    """For a hopfcoc-central extension, the two products must agree
    whenever one argument is in the kernel; returns violating pairs
    (always empty: this is a proved consequence, kept as a check)."""
    report = check_central_hopfcoc(f)
    if not report.central_hopfcoc:
        raise ValueError("morphism is not a hopfcoc-central extension")
    base = f.source.base
    d, o = base.dot.table, base.circ.table
    bad = []
    for h in report.kernel.carrier:
        for x in range(f.source.dim):
            if d[x, h] != o[x, h] or d[h, x] != o[h, x]:
                bad.append((h, x))
    return bad


def analyze_extension(f: HopfMorphism) -> ExtensionReport:
    """Both verdicts on one report (the checks stay independent)."""
    hopfcoc, huq = check_central_hopfcoc(f), check_central_huq(f)
    return replace(hopfcoc, central_huq=huq.central_huq,
                   witness_huq=huq.witness_huq)
