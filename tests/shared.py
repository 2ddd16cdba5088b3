"""What several test modules build alike: the validated corpus braces, a
brace's ideals, a brace file's document, and the benchmark's own files,
loaded read-only from ``perfbench/``.

``perfbench`` is not a package, so each file is loaded from its path;
the tests then check the braces and the relabelling that the benchmark
itself runs.
"""

import importlib.util
from pathlib import Path

import corpus
import hopfbrace as hb
import oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """``perfbench/<name>.py`` as a new module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_perfbench("workloads")


def ladder_brace(name):
    """The benchmark ladder's brace of this name, orders 96-192.  Its
    builders take the package as an argument: perfbench imports it only
    inside its timed set-up."""
    return WORKLOADS.LADDER[name](hb)


def corpus_braces(order, picks=None):
    """The validated corpus braces of this order, or those at the
    ``picks`` indices of ``corpus.braces``."""
    braces = corpus.braces(order)
    for i in range(len(braces)) if picks is None else picks:
        _, dot, circ = braces[i]
        yield hb.validate_skew_brace(dot, circ)


def ideals(H):
    """The normal subbraces of H, one for each of the oracle's subgroups
    that ``is_normal``, in the oracle's order, smallest first."""
    subs = (hb.Subbrace(H, c) for c in oracle.subgroups(H.base.dot.table))
    return [N for N in subs if N.is_normal()]


def brace_doc(brace, name):
    """The brace file document of ``brace`` under ``name``."""
    return {"name": name, "order": brace.order, "identity": brace.identity,
            "dot_table": brace.dot.table.tolist(),
            "circ_table": brace.circ.table.tolist()}
