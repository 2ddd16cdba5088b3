"""Built-in example braces, brace/map file I/O and name resolution.

The file format is one JSON document per brace with fields
{name, order, identity, dot_table, circ_table}; tables are row-major
integer matrices over 0-based carrier indices.  Loading always
revalidates, so a file can never smuggle in an invalid brace.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import BraceFileError, ValidationError
from .skewbrace import (ORDER_CAP, FiniteGroup, SkewBrace, _as_table, _integer,
                        cyclic_group, dihedral_group, direct_product,
                        opposite_brace, product_group, radical_c4_brace,
                        symmetric_group, trivial_brace, validate_skew_brace)


@dataclass
class BraceDescriptor:
    name: str
    order: int
    construction: str                   # trivial | opposite | radical_c4 | product | file
    element_names: tuple[str, ...] = field(default=())


def _perm_names(n):
    """Cycle notation of the permutations of range(n) in sorted order,
    the element order of ``symmetric_group(n)``."""
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


def _alternating_group_4(s4):
    """A4 as the even permutations of S4, kept in S4's element order, and
    their names."""
    even = [k for k, p in enumerate(sorted(permutations(range(4))))
            if sum(p[i] > p[j] for j in range(4) for i in range(j)) % 2 == 0]
    table = s4.table[np.ix_(even, even)]
    names = _perm_names(4)
    return (FiniteGroup(np.searchsorted(even, table)),
            tuple(names[k] for k in even))


def _dihedral_names(n):
    return tuple([f"r{k}" for k in range(n)] + [f"sr{k}" for k in range(n)])


def _cyclic_names(n):
    return tuple(str(k) for k in range(n))


def _pair_names(names1, names2):
    return tuple(f"({a},{b})" for a in names1 for b in names2)


def builtin_catalog() -> list[tuple[BraceDescriptor, SkewBrace]]:
    """The built-in examples: trivial and opposite braces on standard
    groups, the order-4 radical brace, and direct products up to order 48."""
    return list(_catalog().values())


@lru_cache(maxsize=1)
def _catalog() -> dict[str, tuple[BraceDescriptor, SkewBrace]]:
    """Name -> (descriptor, brace), in catalog order."""
    entries: dict[str, tuple[BraceDescriptor, SkewBrace]] = {}

    def add(name, construction, brace, names):
        entries[name] = (BraceDescriptor(name, brace.order, construction,
                                         names), brace)

    c2, s4 = _cyclic_names(2), symmetric_group(4)
    groups = {        # name -> (group, element names)
        "C2": (cyclic_group(2), c2), "C4": (cyclic_group(4), _cyclic_names(4)),
        "C2xC2": (product_group(cyclic_group(2), cyclic_group(2)),
                  _pair_names(c2, c2)),
        "S3": (symmetric_group(3), _perm_names(3)),
        "D4": (dihedral_group(4), _dihedral_names(4)),
        "A4": _alternating_group_4(s4),
        "S4": (s4, _perm_names(4)),
    }
    for gname, (group, names) in groups.items():
        add(f"trivial:{gname}", "trivial", trivial_brace(group), names)
    for gname in ("S3", "D4", "A4", "S4"):
        group, names = groups[gname]
        add(f"opposite:{gname}", "opposite", opposite_brace(group), names)
    add("radical_c4", "radical_c4", radical_c4_brace(), _cyclic_names(4))
    for n1, n2 in (("radical_c4", "radical_c4"), ("radical_c4", "trivial:S3"),
                   ("opposite:S4", "trivial:C2")):
        (d1, b1), (d2, b2) = entries[n1], entries[n2]
        add(f"prod:{n1},{n2}", "product", direct_product(b1, b2),
            _pair_names(d1.element_names, d2.element_names))
    return entries


def catalog_names() -> list[str]:
    return list(_catalog())


def lookup(name: str) -> tuple[BraceDescriptor, SkewBrace]:
    try:
        return _catalog()[name]
    except KeyError:
        raise KeyError(f"no catalog brace named {name!r}") from None


# ----------------------------------------------------------------- file io

def save_brace(brace: SkewBrace, path, name: str = "brace") -> None:
    _write_json({"name": name, "order": brace.order,
                 "identity": brace.identity,
                 "dot_table": brace.dot.table.tolist(),
                 "circ_table": brace.circ.table.tolist()}, path)


# The most bytes read from a brace or map file.  A brace of order
# ORDER_CAP saved by save_brace takes ~0.6 MB (~0.84 MB at indent=2).
MAX_FILE_BYTES = 8 * 2**20
# A read allocates the bytes it asks for, so a file is read in two steps:
# up to this many first, and the rest of the cap only if the file is longer.
_FIRST_READ = 2**16


def _write_json(doc, path) -> None:
    """Write a brace or map document, whose names must be strings, as
    ``load_brace`` and ``load_map`` ask."""
    for key in ("name", "source", "target"):
        if not isinstance(doc.get(key, ""), str):
            raise TypeError(f"{key} must be a string, got {doc[key]!r}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    """The file's JSON document; any failure to read it, or a file longer
    than MAX_FILE_BYTES, is a BraceFileError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(_FIRST_READ)
            if len(data) == _FIRST_READ:
                data += fh.read(MAX_FILE_BYTES + 1 - _FIRST_READ)
        if len(data) > MAX_FILE_BYTES:
            raise BraceFileError(
                f"{path}: longer than the cap of {MAX_FILE_BYTES} bytes")
        return json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise BraceFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise BraceFileError(f"{path}: cannot read: {exc}") from exc


def load_brace(path) -> tuple[BraceDescriptor, SkewBrace]:
    """Load and fully revalidate a brace file; parse problems raise
    BraceFileError with a line/field diagnostic, axiom problems raise the
    validation error with its witness."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise BraceFileError(f"{path}: top level must be an object")
    for fieldname in ("order", "identity", "dot_table", "circ_table"):
        if fieldname not in doc:
            raise BraceFileError(f"{path}: missing field {fieldname!r}")
    for fieldname in ("order", "identity"):
        if type(doc[fieldname]) is not int:     # bool is not int
            raise BraceFileError(f"{path}: field {fieldname!r} must be an "
                                 f"integer, got {doc[fieldname]!r}")
    order, name = doc["order"], doc.get("name", str(path))
    if order not in range(1, ORDER_CAP + 1):
        raise BraceFileError(f"{path}: field 'order' is outside the range "
                             f"[1, {ORDER_CAP}], got {order}")
    if doc["identity"] not in range(order):
        raise BraceFileError(f"{path}: field 'identity' is outside the range "
                             f"[0, {order}), got {doc['identity']}")
    if not isinstance(name, str):
        raise BraceFileError(f"{path}: field 'name' must be a string, "
                             f"got {name!r}")
    tables = []
    for tname in ("dot_table", "circ_table"):
        try:
            table = _as_table(doc[tname])
        except ValidationError as exc:
            raise BraceFileError(f"{path}: field {tname!r}: {exc}") from None
        if len(table) != order:
            raise BraceFileError(f"{path}: field {tname!r} is {len(table)}x"
                                 f"{len(table)}, not {order}x{order}")
        tables.append(table)
    brace = validate_skew_brace(*tables, identity=doc["identity"])
    return BraceDescriptor(name=name, order=brace.order,
                           construction="file"), brace


def save_map(images, path, source: str = "", target: str = "") -> None:
    _write_json({"source": source, "target": target,
                 "images": [_integer(i) for i in images]}, path)


def load_map(path) -> dict:
    doc = _read_json(path)
    if not isinstance(doc, dict) or "images" not in doc:
        raise BraceFileError(f"{path}: map file needs an 'images' field")
    if (not isinstance(doc["images"], list)
            or any(type(x) is not int for x in doc["images"])):
        raise BraceFileError(f"{path}: 'images' must be an array of indices")
    for key in ("source", "target"):
        if key in doc and not isinstance(doc[key], str):
            raise BraceFileError(f"{path}: {key!r} must be a catalog name or "
                                 f"file path string, got {doc[key]!r}")
    return doc


def resolve(name_or_path: str) -> tuple[BraceDescriptor, SkewBrace]:
    """Resolve a CLI input: catalog name first, then file path."""
    if not isinstance(name_or_path, str):
        raise BraceFileError(f"expected a catalog name or file path, got "
                             f"{name_or_path!r}")
    if name_or_path in _catalog():
        return lookup(name_or_path)
    if os.path.exists(name_or_path):
        return load_brace(name_or_path)
    raise BraceFileError(
        f"{name_or_path!r} is neither a catalog name nor an existing file; "
        f"catalog: {', '.join(catalog_names())}")

