"""Built-in example braces, brace/map file I/O and name resolution.

The file format is one JSON document per brace with fields
{name, order, identity, dot_table, circ_table}; tables are row-major
integer matrices over 0-based carrier indices.  Loading always
revalidates, so a file can never smuggle in an invalid brace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

from .errors import BraceFileError, ValidationError
from .skewbrace import (SkewBrace, cyclic_group, dihedral_group,
                        direct_product, opposite_brace, radical_c4_brace,
                        symmetric_group, trivial_brace, validate_skew_brace)


@dataclass
class BraceDescriptor:
    name: str
    order: int
    construction: str                   # trivial | opposite | radical_c4 | product | file
    notes: str = ""
    element_names: tuple[str, ...] = field(default=())


def _perm_names(n):
    def cycles(p):
        seen, out = set(), []
        for start in range(n):
            if start in seen or p[start] == start:
                seen.add(start)
                continue
            cyc, cur = [], start
            while cur not in seen:
                seen.add(cur)
                cyc.append(cur + 1)
                cur = p[cur]
            out.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(out) if out else "e"
    return tuple(cycles(p) for p in sorted(permutations(range(n))))


def _dihedral_names(n):
    return tuple([f"r{k}" for k in range(n)] + [f"sr{k}" for k in range(n)])


def _cyclic_names(n):
    return tuple(str(k) for k in range(n))


def _pair_names(n1, n2, names1, names2):
    names1 = names1 or tuple(str(i) for i in range(n1))
    names2 = names2 or tuple(str(i) for i in range(n2))
    return tuple(f"({names1[a]},{names2[b]})"
                 for a in range(n1) for b in range(n2))


def direct_product_group_c2c2():
    from .skewbrace import product_group
    return product_group(cyclic_group(2), cyclic_group(2))


def alternating_group_4():
    """A4 as the even permutations of S4, reindexed."""
    from .skewbrace import FiniteGroup
    elems = sorted(permutations(range(4)))

    def parity(p):
        return sum(1 for i in range(4) for j in range(i + 1, 4)
                   if p[i] > p[j]) % 2

    even = [p for p in elems if parity(p) == 0]
    index = {p: i for i, p in enumerate(even)}
    table = [[index[tuple(p[q[i]] for i in range(4))] for q in even]
             for p in even]
    return FiniteGroup(table)


def _a4_names():
    even = [p for p in sorted(permutations(range(4)))
            if sum(1 for i in range(4) for j in range(i + 1, 4)
                   if p[i] > p[j]) % 2 == 0]
    names4 = dict(zip(sorted(permutations(range(4))), _perm_names(4)))
    return tuple(names4[p] for p in even)


def builtin_catalog() -> list[tuple[BraceDescriptor, SkewBrace]]:
    """The built-in examples: trivial and opposite braces on standard
    groups, the order-4 radical brace, and direct products up to order 48."""
    return list(_catalog())


@lru_cache(maxsize=1)
def _catalog() -> tuple[tuple[BraceDescriptor, SkewBrace], ...]:
    entries: list[tuple[BraceDescriptor, SkewBrace]] = []

    group_names = {
        "C2": _cyclic_names(2), "C4": _cyclic_names(4),
        "C2xC2": _pair_names(2, 2, _cyclic_names(2), _cyclic_names(2)),
        "S3": _perm_names(3), "D4": _dihedral_names(4),
        "A4": _a4_names(), "S4": _perm_names(4),
    }
    groups = {
        "C2": cyclic_group(2), "C4": cyclic_group(4),
        "C2xC2": direct_product_group_c2c2(),
        "S3": symmetric_group(3), "D4": dihedral_group(4),
        "A4": alternating_group_4(), "S4": symmetric_group(4),
    }

    for gname in ("C2", "C4", "C2xC2", "S3", "D4", "A4", "S4"):
        b = trivial_brace(groups[gname])
        entries.append((BraceDescriptor(
            name=f"trivial:{gname}", order=b.order, construction="trivial",
            notes=f"both products equal the {gname} product",
            element_names=group_names[gname]), b))

    for gname in ("S3", "D4", "A4", "S4"):
        b = opposite_brace(groups[gname])
        entries.append((BraceDescriptor(
            name=f"opposite:{gname}", order=b.order, construction="opposite",
            notes=f"circ is the opposite {gname} product (a o b = b.a)",
            element_names=group_names[gname]), b))

    rc4 = radical_c4_brace()
    entries.append((BraceDescriptor(
        name="radical_c4", order=4, construction="radical_c4",
        notes="Z/4 with a.b = a+b, a o b = a+b+2ab",
        element_names=_cyclic_names(4)), rc4))

    products = [
        ("prod:radical_c4,radical_c4", rc4, "radical_c4", rc4, "radical_c4"),
        ("prod:radical_c4,trivial:S3", rc4, "radical_c4",
         trivial_brace(groups["S3"]), "trivial:S3"),
        ("prod:opposite:S4,trivial:C2", opposite_brace(groups["S4"]),
         "opposite:S4", trivial_brace(groups["C2"]), "trivial:C2"),
    ]
    comp_names = {"radical_c4": _cyclic_names(4),
                  "trivial:S3": _perm_names(3),
                  "opposite:S4": _perm_names(4),
                  "trivial:C2": _cyclic_names(2)}
    for name, b1, n1, b2, n2 in products:
        b = direct_product(b1, b2)
        entries.append((BraceDescriptor(
            name=name, order=b.order, construction="product",
            notes=f"direct product of {n1} and {n2}",
            element_names=_pair_names(b1.order, b2.order,
                                      comp_names[n1], comp_names[n2])), b))

    names = [d.name for d, _ in entries]
    assert len(names) == len(set(names))
    return tuple(entries)


def catalog_names() -> list[str]:
    return [d.name for d, _ in builtin_catalog()]


def lookup(name: str) -> tuple[BraceDescriptor, SkewBrace]:
    for desc, brace in builtin_catalog():
        if desc.name == name:
            return desc, brace
    raise KeyError(f"no catalog brace named {name!r}")


# ----------------------------------------------------------------- file io

def save_brace(brace: SkewBrace, path, name: str = "brace") -> None:
    doc = {
        "name": name,
        "order": brace.order,
        "identity": brace.identity,
        "dot_table": brace.dot.table.tolist(),
        "circ_table": brace.circ.table.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


_INT64 = range(-2**63, 2**63)


def load_brace(path) -> tuple[BraceDescriptor, SkewBrace]:
    """Load and fully revalidate a brace file; parse problems raise
    BraceFileError with a line/field diagnostic, axiom problems raise the
    validation error with its witness."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise BraceFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise BraceFileError(f"{path}: top level must be an object")
    for fieldname in ("order", "identity", "dot_table", "circ_table"):
        if fieldname not in doc:
            raise BraceFileError(f"{path}: missing field {fieldname!r}")
    for fieldname in ("order", "identity"):
        if type(doc[fieldname]) is not int:     # bool is not int
            raise BraceFileError(f"{path}: field {fieldname!r} must be an "
                                 f"integer, got {doc[fieldname]!r}")
        if doc[fieldname] not in _INT64:
            raise BraceFileError(f"{path}: field {fieldname!r} is outside "
                                 f"the 64-bit range, got {doc[fieldname]}")
    order = doc["order"]
    for tname in ("dot_table", "circ_table"):
        t = doc[tname]
        if (not isinstance(t, list) or len(t) != order
                or any(not isinstance(r, list) or len(r) != order for r in t)):
            raise BraceFileError(
                f"{path}: field {tname!r} is not an {order}x{order} matrix")
        bad = [x for row in t for x in row
               if type(x) is not int or x not in _INT64]
        if bad:
            kind = "an out-of-range" if type(bad[0]) is int else "a non-integer"
            raise BraceFileError(
                f"{path}: field {tname!r} has {kind} entry {bad[0]!r}")
    brace = validate_skew_brace(doc["dot_table"], doc["circ_table"],
                                identity=doc["identity"])
    desc = BraceDescriptor(name=str(doc.get("name", path)), order=brace.order,
                           construction="file", notes=f"loaded from {path}")
    return desc, brace


def save_map(images, path, source: str = "", target: str = "") -> None:
    doc = {"source": source, "target": target,
           "images": [int(i) for i in images]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_map(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise BraceFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(doc, dict) or "images" not in doc:
        raise BraceFileError(f"{path}: map file needs an 'images' field")
    if (not isinstance(doc["images"], list)
            or any(type(x) is not int for x in doc["images"])):
        raise BraceFileError(f"{path}: 'images' must be an array of indices")
    return doc


def resolve(name_or_path: str) -> tuple[BraceDescriptor, SkewBrace]:
    """Resolve a CLI input: catalog name first, then file path."""
    try:
        return lookup(name_or_path)
    except KeyError:
        pass
    import os
    if os.path.exists(name_or_path):
        return load_brace(name_or_path)
    raise BraceFileError(
        f"{name_or_path!r} is neither a catalog name nor an existing file; "
        f"catalog: {', '.join(catalog_names())}")


def verify_catalog_validates() -> None:
    """Every catalog entry must pass full validation (it already did at
    construction; this re-runs the public validator on raw tables)."""
    for desc, brace in builtin_catalog():
        revalidated = validate_skew_brace(brace.dot.table, brace.circ.table,
                                          identity=brace.identity)
        if revalidated != brace:
            raise ValidationError(f"catalog entry {desc.name} failed revalidation")
