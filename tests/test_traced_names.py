"""Every name that the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` wraps functions and methods by name from outside
the package; a renamed or deleted one would only fail there.  This
resolves each name in its ``SPANS`` the way ``Tracer.installed`` does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_traced_name_resolves():
    spans = load_spans()
    assert spans
    for group, (modname, names) in spans.items():
        module = importlib.import_module(modname)
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                assert attr in vars(getattr(module, cls_name)), (group, name)
            else:
                assert callable(getattr(module, name, None)), (group, name)
