"""Hopf subbraces as subgroup-backed subobjects, kernels, and quotients
certified by their projection (one construction, see ``quotient``).

In characteristic zero every Hopf subalgebra of a group algebra is a
subgroup algebra, and all generators arising here (star values,
commutators, conjugates) are group-like, so subobjects are represented
by subgroups of the dot-group.  The public constructor checks a
caller's indices and that they form a subgroup, on the mask it builds.
Every subbrace the package builds (closures, commutators, socle,
annihilator, center, kernel, whole) enters as its carrier mask
through ``Subbrace._of_mask``, with the same subgroup check and no index
check.  The predicates are gathers over the mask: normality and
strongness on generators only (the proofs are in ``skewbrace``),
normality via star over the whole group, as an independent second
computation; ``_require_normal`` is the one normality guard.  A quotient
reads its coset leaders as the g with rep[g] == g; nothing here calls
numpy's ``unique``.
"""

from __future__ import annotations

import numpy as np

from .errors import CrossCheckError, NormalityError
from .hopf import Element, HopfBrace
from .skewbrace import (BraceMap, SkewBrace, _index, _nonzero,
                        _set_frozen_state)


class Subbrace:
    """A subobject of a Hopf brace, backed by a subgroup of the dot-group."""

    __slots__ = ("parent", "carrier", "mask")
    __setstate__ = _set_frozen_state

    def __init__(self, parent: HopfBrace, carrier):
        self._adopt(parent, parent.base.dot.mask(carrier))

    @classmethod
    def _of_mask(cls, parent: HopfBrace, mask) -> "Subbrace":
        """The subbrace on a mask the package built and gives up: no
        index check, the same subgroup check."""
        sub = cls.__new__(cls)
        sub._adopt(parent, mask)
        return sub

    def _adopt(self, parent: HopfBrace, mask) -> None:
        c = _nonzero(mask)
        if not parent.base.dot._is_subgroup(mask, c):
            raise ValueError(f"{tuple(c.tolist())} is not a dot-subgroup")
        mask.setflags(write=False)
        self.parent = parent
        self.carrier = tuple(c.tolist())
        self.mask = mask

    @property
    def elements(self) -> np.ndarray:
        return _nonzero(self.mask)

    @property
    def dim(self) -> int:
        return len(self.carrier)

    def is_trivial(self) -> bool:
        return len(self.carrier) == 1

    def is_strong(self) -> bool:
        """Stable under the lambda action of every element: of S_circ."""
        base = self.parent.base
        lam = base.lambda_table[base.circ.generators[:, None], self.elements]
        return bool(self.mask[lam].all())

    def is_normal(self) -> bool:
        """Definition-based: dot-normal, circ-normal and lambda-stable,
        each on its group's generators."""
        table = self.parent.base.normality_table
        return bool(self.mask[table[:, self.elements]].all())

    def is_normal_via_star(self) -> bool:
        """Equivalent characterization: dot-normal plus two-sided star absorption."""
        base, c, mask = self.parent.base, self.elements, self.mask
        st = base.star_table
        return bool(mask[base.dot.conj_table[:, c]].all()
                    and mask[st[:, c]].all() and mask[st[c]].all())

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
    return Subbrace._of_mask(H, H.base.dot.subgroup_generated(gens))


def whole_subbrace(H: HopfBrace) -> Subbrace:
    return Subbrace._of_mask(H, np.ones(H.dim, dtype=bool))


class HopfMorphism(BraceMap):
    """Basis map between Hopf braces, checked by its base ``BraceMap`` to
    be a homomorphism for both products, hence automatically a coalgebra
    map.  ``images`` is its read-only int64 array, like the tables."""

    __slots__ = ("source", "target")

    def __init__(self, source: HopfBrace, target: HopfBrace, images):
        super().__init__(source.base, target.base, images)
        self.source = source
        self.target = target

    def __call__(self, x: Element | int):
        """The image of a basis index, or of an element of the source."""
        if not isinstance(x, Element):
            return int(self.images[_index(x, self.source.dim)])
        return self.source._relabel(self.images, x)

    def is_surjective(self) -> bool:
        return bool(self.target.base.dot._mask(self.images).all())

    @classmethod
    def identity(cls, H: HopfBrace) -> "HopfMorphism":
        return cls(H, H, np.arange(H.dim))

    def __eq__(self, other):
        return (isinstance(other, HopfMorphism) and self.source == other.source
                and self.target == other.target
                and np.array_equal(self.images, other.images))

    def __repr__(self):
        return f"HopfMorphism(dim {self.source.dim} -> {self.target.dim})"


def _require_normal(B: Subbrace, H: HopfBrace) -> None:
    if B.parent != H:
        raise ValueError("subbrace does not belong to this Hopf brace")
    if not B.is_normal():
        raise NormalityError(f"carrier {B.carrier} is not a normal subbrace")


def hopf_kernel(f: HopfMorphism) -> Subbrace:
    """Kernel subobject: group-likes sent to the target identity."""
    return Subbrace._of_mask(f.source, f.images == f.target.base.identity)


def quotient(H: HopfBrace, B: Subbrace) -> tuple[HopfBrace, HopfMorphism]:
    """Quotient Hopf brace by a normal subbrace, with its projection.

    Cosets of the carrier under dot and circ coincide for normal
    subbraces, so one coset partition gathers both product tables,
    unvalidated.  The projection's homomorphism check certifies them: a
    surjection from a brace that is multiplicative for both products
    makes its image a brace.  The kernel cross-check follows.
    """
    _require_normal(B, H)
    dot, circ = H.base.dot, H.base.circ
    rep = dot.table[:, B.elements].min(axis=1)          # min of g N
    leader = rep == np.arange(H.dim)                    # least of its coset
    reps, proj = _nonzero(leader), (leader.cumsum() - 1)[rep]   # its rank
    qbase = SkewBrace(dot._image(proj, reps), circ._image(proj, reps))
    Q = HopfBrace(qbase)
    pi = HopfMorphism(H, Q, proj)
    if hopf_kernel(pi).carrier != B.carrier:
        raise CrossCheckError("projection kernel does not recover the subbrace")
    return Q, pi
