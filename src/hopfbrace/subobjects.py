"""Hopf subbraces as subgroup-backed subobjects, quotients and kernels.

In characteristic zero every Hopf subalgebra of a group algebra is a
subgroup algebra, and all generators arising here (star values,
commutators, conjugates) are group-like, so subobjects are represented
by subgroups of the dot-group.  Predicate results are cached; the cache
is idempotent and safe under concurrent duplicate computation.
"""

from __future__ import annotations

import numpy as np

from .errors import CrossCheckError, NormalityError
from .hopf import Element, HopfBrace
from .skewbrace import BraceMap, FiniteGroup, SkewBrace


class Subbrace:
    """A subobject of a Hopf brace, backed by a subgroup of the dot-group."""

    __slots__ = ("parent", "carrier", "mask", "_strong", "_normal",
                 "_normal_star")

    def __init__(self, parent: HopfBrace, carrier):
        mask = parent.base.dot.mask(carrier)
        elems = np.flatnonzero(mask)
        carrier = tuple(elems.tolist())
        if not parent.base.dot.is_subgroup(elems):
            raise ValueError(f"{carrier} is not a dot-subgroup")
        mask.setflags(write=False)
        self.parent = parent
        self.carrier = carrier
        self.mask = mask
        self._strong = None
        self._normal = None
        self._normal_star = None

    @property
    def elements(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @property
    def dim(self) -> int:
        return len(self.carrier)

    def is_trivial(self) -> bool:
        return len(self.carrier) == 1

    def is_whole(self) -> bool:
        return len(self.carrier) == self.parent.dim

    def is_strong(self) -> bool:
        """Stable under the lambda action of every element."""
        if self._strong is None:
            lam = self.parent.base.lambda_table
            self._strong = bool(self.mask[lam[:, self.elements]].all())
        return self._strong

    def is_normal(self) -> bool:
        """Definition-based: dot-normal, circ-normal and lambda-stable."""
        if self._normal is None:
            base, c, mask = self.parent.base, self.elements, self.mask
            self._normal = bool(mask[base.dot.conj_table[:, c]].all()
                                and mask[base.circ.conj_table[:, c]].all()
                                and mask[base.lambda_table[:, c]].all())
        return self._normal

    def is_normal_via_star(self) -> bool:
        """Equivalent characterization: dot-normal plus two-sided star absorption."""
        if self._normal_star is None:
            base, c, mask = self.parent.base, self.elements, self.mask
            st = base.star_table
            self._normal_star = bool(mask[base.dot.conj_table[:, c]].all()
                                     and mask[st[:, c]].all()
                                     and mask[st[c]].all())
        return self._normal_star

    def contains(self, other: "Subbrace") -> bool:
        return bool((other.mask <= self.mask).all())

    def __eq__(self, other):
        return (isinstance(other, Subbrace) and self.parent == other.parent
                and self.carrier == other.carrier)

    def __hash__(self):
        return hash(self.carrier)

    def __repr__(self):
        return f"Subbrace(dim={self.dim}, carrier={self.carrier})"


def generated_subbrace(H: HopfBrace, gens) -> Subbrace:
    """Smallest subgroup-algebra subobject containing the given group-likes."""
    return Subbrace(H, H.base.dot.subgroup_generated(gens))


def trivial_subbrace(H: HopfBrace) -> Subbrace:
    return Subbrace(H, (H.base.identity,))


def whole_subbrace(H: HopfBrace) -> Subbrace:
    return Subbrace(H, range(H.dim))


class HopfMorphism:
    """Basis map between Hopf braces; automatically a coalgebra map."""

    __slots__ = ("map", "source", "target")

    def __init__(self, source: HopfBrace, target: HopfBrace, images):
        if source.field != target.field:
            raise ValueError("source and target live over different fields")
        self.map = BraceMap(source.base, target.base, images)
        self.source = source
        self.target = target

    def __call__(self, x: Element | int):
        if isinstance(x, int):
            return self.map(x)
        return Element(((self.map(g), c) for g, c in x.coeffs.items()),
                       self.target.field)

    def is_surjective(self) -> bool:
        return self.map.is_surjective()

    @classmethod
    def identity(cls, H: HopfBrace) -> "HopfMorphism":
        return cls(H, H, tuple(range(H.dim)))

    def __eq__(self, other):
        return isinstance(other, HopfMorphism) and self.map == other.map

    def __repr__(self):
        return f"HopfMorphism(dim {self.source.dim} -> {self.target.dim})"


def hopf_kernel(f: HopfMorphism) -> Subbrace:
    """Kernel subobject: group-likes sent to the target identity."""
    return Subbrace(f.source, f.map.kernel_set())


def quotient(H: HopfBrace, B: Subbrace) -> tuple[HopfBrace, HopfMorphism]:
    """Quotient Hopf brace by a normal subbrace, with its projection.

    Cosets of the carrier under dot and circ coincide for normal
    subbraces, so one coset partition carries both product tables.
    """
    if B.parent != H:
        raise ValueError("subbrace does not belong to this Hopf brace")
    if not B.is_normal():
        raise NormalityError(f"carrier {B.carrier} is not a normal subbrace")
    qdot, proj = H.base.dot.quotient(B.carrier)
    _, reps = np.unique(proj, return_index=True)     # least element per coset
    qcirc = np.asarray(proj)[H.base.circ.table[np.ix_(reps, reps)]]
    qbase = SkewBrace(qdot, FiniteGroup(qcirc))
    Q = HopfBrace(qbase, H.field)
    pi = HopfMorphism(H, Q, proj)
    if hopf_kernel(pi).carrier != B.carrier:
        raise CrossCheckError("projection kernel does not recover the subbrace")
    return Q, pi


def normal_agreement(B: Subbrace) -> bool:
    """Cross-check the two normality characterizations; raises if the
    definition-based and star-based answers ever differ."""
    direct, via_star = B.is_normal(), B.is_normal_via_star()
    if direct != via_star:
        raise CrossCheckError(
            f"normality characterizations disagree on carrier {B.carrier}: "
            f"definition={direct}, star={via_star}")
    return direct
