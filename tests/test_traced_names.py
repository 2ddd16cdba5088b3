"""Every name that the benchmark's tracer wraps still exists, and its
counting hooks still read what the package returns.

``perfbench/tracing.py`` wraps functions and methods by name from outside
the package; a renamed or deleted one, or a changed return type or
signature that breaks a hook, would only fail there.  This loads the
tracer from its file, resolves each name in its ``SPANS`` the way
``Tracer.installed`` does, and runs it around a few public calls.
"""

import importlib

import hopfbrace as hb
from shared import load_perfbench


def test_every_traced_name_resolves():
    spans = load_perfbench("tracing").SPANS
    assert spans
    for group, (modname, names) in spans.items():
        module = importlib.import_module(modname)
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                assert attr in vars(getattr(module, cls_name)), (group, name)
            else:
                assert callable(getattr(module, name, None)), (group, name)


def test_the_tracer_hooks_count_and_change_no_result():
    """Traced, the calls give what they give untraced, and the closure,
    solve and suite hooks each count something."""
    H = hb.HopfBrace(hb.lookup("radical_c4")[1])   # center = whole

    def run():
        return (hb.generated_subbrace(H, [1, 3]), hb.gamma_series(H),
                hb.socle_annihilator(H), hb.verify_suite(H, "propositions"))

    untraced = run()
    tracer = load_perfbench("tracing").Tracer()
    with tracer.installed():
        traced = run()
    assert traced == untraced
    for metric in ("skewbrace.closure_gens", "linalg.rows_in",
                   "verify.basis_checks"):
        assert tracer.counts[metric] > 0, metric
