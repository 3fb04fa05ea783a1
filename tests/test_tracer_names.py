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


def test_result_counts_read_what_their_functions_return():
    # each RESULT_COUNTS reader takes the value its traced function returns
    # now: the closure engine's {grade: echelon}, an enumeration report and
    # a probe report
    from fractions import Fraction

    from hamlie import submodules
    from hamlie.hamiltonian import GradedVector, ModuleParams
    from hamlie.reps import build_rep
    from hamlie.symplectic import build_sp

    p = ModuleParams((Fraction(1, 3), 0), (0, 0), build_rep(build_sp(1, verify=False), "natural"))
    box, gens = submodules.Box(2, 2), submodules.GeneratorSet(1, 2)
    engine = submodules._ClosureEngine(p, box, gens)
    seed = GradedVector((0, 0), (Fraction(1), Fraction(0)))
    family = submodules.build_submodule("delta1", p, box)
    tracer = spantrace.Tracer()
    read = []
    try:
        tracer.install()
        tracer.active = True
        for call, counter in (
                (lambda: engine.run([seed]), "submodules.closure.total_dim"),
                (lambda: submodules.invariance_check(family, gens, method="enumerate"),
                 "submodules.enumerate.pairs"),
                (lambda: submodules.irreducibility_probe(p, box, gens), "submodules.probe.seeds")):
            before = tracer.counts[counter]
            out = call()
            read.append((tracer.counts[counter] - before, out))
    finally:
        tracer.active = False
        tracer.uninstall()
    (dims, spaces), (pairs, report), (seeds, probe) = read
    assert dims == int(submodules._ranks(engine.run_grid([seed])).sum()) == sum(
        s.dim for s in spaces.values()) > 0
    assert pairs == report["pairs"] > 0
    assert seeds == len(probe["seeds"]) > 0
