"""The benchmark's span tracer patches hamlie by name; every name it pins
must still exist, so a refactor that drops one fails here, not in a bench
run."""

import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import spantrace  # noqa: E402


def test_tracer_patches_every_pinned_name():
    originals = {(home, name): getattr(importlib.import_module(home), name)
                 for home, name, _ in spantrace.FUNCTIONS}
    tracer = spantrace.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
    finally:
        tracer.uninstall()
    for home, name, _ in spantrace.FUNCTIONS:
        hits = [1 for _, n, orig in patched if n == name and orig is originals[home, name]]
        assert hits, (home, name)
    for cls, name, _ in spantrace.METHODS:
        hits = [1 for owner, n, _ in patched if owner is cls and n == name]
        assert len(hits) == 1, (cls.__name__, name)
    assert all(getattr(importlib.import_module(home), name) is fn
               for (home, name), fn in originals.items())
