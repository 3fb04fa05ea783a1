"""Differential tests of the integer closure engine against Fraction oracles.

The engine works on L-scaled integer rows in int64 where every product is
bounded and in unbounded Python integers otherwise.  These tests compare it
with the plain rational path (``rho_rank_one``, ``act_H`` and
``Subspace.add_vector``) on alpha denominators chosen so that every branch
runs: 1, 2^31-1 (int64 throughout), 2^61-1 (int64 table, unbounded scalars
and images) and 3^40 (L itself beyond int64).
"""

from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamlie.hamiltonian import GradedVector, ModuleParams, act_H
from hamlie.linalg import Subspace
from hamlie.reps import build_rep
from hamlie.submodules import (
    Box,
    GeneratorSet,
    TruncatedModule,
    _ActionTable,
    _ClosureEngine,
    _IntEchelon,
    _annihilator,
    _enumerate_invariance,
    closure,
)
from hamlie.symplectic import build_sp

F = Fraction
DENOMINATORS = (1, 2 ** 31 - 1, 2 ** 61 - 1, 3 ** 40)
TABLE_REPS = [(1, spec) for spec in ("trivial", "natural", "sym:2", "sym:3", "exterior:2")] + [
    (2, spec) for spec in ("trivial", "natural", "sym:2", "sym:3", "fundamental:2", "exterior:2")
]


@cache
def _rep(n, spec):
    return build_rep(build_sp(n, verify=False), spec)


@cache
def _rho_dense(n, spec, r):
    """rho(r bar(r)^t) through sp_decompose, as a Fraction array."""
    p = ModuleParams((0,) * (2 * n), (0,) * (2 * n), _rep(n, spec))
    return np.array(p.rho_rank_one(r).to_rows(), dtype=object)


def _alpha(data, N):
    q = data.draw(st.sampled_from(DENOMINATORS))
    return tuple(F(data.draw(st.integers(-3 * q, 3 * q)), q) for _ in range(N))


@pytest.mark.parametrize("gens", [1, 2])
@pytest.mark.parametrize("n,spec", TABLE_REPS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_action_table_matches_rho_rank_one(n, spec, gens, data):
    N = 2 * n
    p = ModuleParams(_alpha(data, N), (0,) * N, _rep(n, spec))
    box = data.draw(st.integers(gens, 3))
    table = _ActionTable(p, GeneratorSet(gens, N), box)
    assert table.gens == sorted(GeneratorSet(gens, N).vectors())
    for r, pt in zip(table.gens, table.pt):
        assert (pt.T == _rho_dense(n, spec, r) * table.L).all(), r


def _naive_closure(seeds, p, box, gens) -> dict:
    """Breadth-first saturation straight from act_H, in Fractions."""
    spaces = {}
    queue = []

    def offer(x):
        s, new = spaces.get(x.grade, Subspace.zero(p.rep.dim)).add_vector(x.payload)
        if new:
            spaces[x.grade] = s
            queue.append(x)

    for x in seeds:
        offer(x)
    while queue:
        x = queue.pop()
        for r in gens.vectors():
            if box.contains(tuple(a + b for a, b in zip(x.grade, r))):
                offer(act_H(r, x, p))
    return spaces


def _naive_passes(family, gens) -> int:
    """(grade, generator) pairs whose image lands in the family, by act_H."""
    box, p = family.box, family.params
    passes = 0
    for s in box.grades():
        for r in gens.vectors():
            t = tuple(a + b for a, b in zip(s, r))
            if box.contains(t) and all(
                family.space(t).contains(act_H(r, GradedVector(s, row), p).payload)
                for row in family.space(s).basis
            ):
                passes += 1
    return passes


def _closure_case(data):
    """An n=1 module, box, generator set and one seed vector."""
    spec = data.draw(st.sampled_from(["trivial", "natural", "sym:2"]))
    p = ModuleParams(_alpha(data, 2), (0, 0), _rep(1, spec))
    gens = GeneratorSet(data.draw(st.integers(1, 2)), 2)
    box = Box(data.draw(st.integers(gens.radius, 3)), 2)
    grade = tuple(data.draw(st.integers(-box.radius, box.radius)) for _ in range(2))
    if spec == "natural" and data.draw(st.booleans()):
        payload = tuple(g + a for g, a in zip(grade, p.alpha))  # the delta1 line
    else:
        payload = tuple(data.draw(st.integers(-2, 2)) for _ in range(p.rep.dim))
    return p, box, gens, GradedVector(grade, payload)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_closure_and_enumeration_match_naive_oracle(data):
    p, box, gens, seed = _closure_case(data)
    grade, payload = seed.grade, seed.payload

    want = _naive_closure([seed], p, box, gens)
    got = closure([seed], p, box, gens)
    zero = Subspace.zero(p.rep.dim)
    assert all(got.space(g) == want.get(g, zero) for g in box.grades())

    closed = TruncatedModule(p, box, spaces=want)
    assert _enumerate_invariance(closed, gens)["failures"] == []
    assert _enumerate_invariance(got, gens)["failures"] == []  # from the echelons
    seed_only = TruncatedModule(p, box, spaces={grade: Subspace.from_vectors([payload], p.rep.dim)})
    assert _enumerate_invariance(seed_only, gens)["passes"] == _naive_passes(seed_only, gens)


@pytest.mark.parametrize("q", [2 ** 61 - 1, 3 ** 40])
def test_closure_exact_beyond_int64(q):
    # alpha = (1/q, 0) and the seed e1 at grade 0 span the delta1 line family.
    # At q = 2^61-1, (s L + L alpha) . bar r exceeds int64, and wrapping there
    # once doubled this closure to the whole box (98); at q = 3^40, L itself
    # exceeds int64, which once raised OverflowError.
    p = ModuleParams((F(1, q), 0), (0, 0), _rep(1, "natural"))
    box, gens = Box(3, 2), GeneratorSet(2, 2)
    seed = GradedVector((0, 0), (1, 0))
    fam = closure([seed], p, box, gens)
    assert sum(fam.space(g).dim for g in box.grades()) == 49
    assert all(fam.space(g) == s for g, s in _naive_closure([seed], p, box, gens).items())


# entries at and beyond 2^63 push annihilators and rows off int64
BIG = (2 ** 63, -(2 ** 63 + 1), 3 ** 41)
_entries = st.one_of(st.integers(-3, 3), st.sampled_from(BIG))


def _int_matrix(data, d):
    return [[data.draw(_entries) for _ in range(d)]
            for _ in range(data.draw(st.integers(0, d + 1)))]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_annihilator_matches_fraction_reference(data):
    d = data.draw(st.integers(1, 5))
    rows = _int_matrix(data, d)
    ech = _IntEchelon(d)
    for row in rows:
        ech.insert(row)
    space = Subspace.from_vectors(rows, d)
    assert ech.subspace() == space and ech.dim == space.dim
    ann = _annihilator(ech.rows, ech.pivots, d)
    assert Subspace.from_vectors(ann, d) == space.annihilator()


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_enumeration_of_big_integer_family_matches_naive(data):
    # each grade holds nothing, its delta1 line (pairs between two lines pass
    # through the annihilator screen) or a span of entries >= 2^63 (object
    # rows and, where the annihilator overflows int64, the exact re-test)
    p = ModuleParams(_alpha(data, 2), (0, 0), _rep(1, "natural"))
    box, gens = Box(1, 2), GeneratorSet(1, 2)
    spaces = {}
    for g in box.grades():
        kind = data.draw(st.sampled_from(["none", "line", "big"]))
        if kind == "line":
            spaces[g] = Subspace.from_vectors([[s + a for s, a in zip(g, p.alpha)]], 2)
        elif kind == "big":
            spaces[g] = Subspace.from_vectors(_int_matrix(data, 2), 2)
    family = TruncatedModule(p, box, spaces=spaces)
    assert _enumerate_invariance(family, gens)["passes"] == _naive_passes(family, gens)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_closure_echelons_convert_to_canonical_spaces(data):
    p, box, gens, seed = _closure_case(data)
    echelons = _ClosureEngine(p, box, gens).run([seed])
    family = TruncatedModule(p, box, echelons=echelons)
    for g, ech in echelons.items():
        want = Subspace.from_vectors(ech.rows, p.rep.dim)
        got = family.space(g)
        assert got == want and got.pivots == want.pivots and got.to_obj() == want.to_obj()
    # perfbench/spantrace.py sums these .dim values as closure.total_dim
    assert sum(e.dim for e in echelons.values()) == sum(
        family.space(g).dim for g in box.grades())
