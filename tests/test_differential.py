"""Differential tests of the fast exact kernels against naive oracles.

The closure engine works on L-scaled integer rows in int64 where every
product is bounded and in unbounded Python integers otherwise.  These tests
compare it with the plain rational path (a direct sp decomposition of
r bar(r)^t, ``act_H`` and ``Subspace.add_vector``) on alpha denominators
chosen so that every branch runs: 1, 2^31-1 (int64 throughout), 2^61-1
(int64 table, unbounded scalars and images) and 3^40 (L itself beyond
int64).  ``rho_rank_one``, which reads the rep's table of rho(C_ab), is
held to the same direct decomposition.

The sparse rep-layer kernels (restriction to Ker theta_k, the deltak grade
spaces, ``sp_decompose``) are compared with the per-vector ``Subspace``
solves, the Fraction-RREF kernel and the dense readout they replace, kept
here as oracles.  ``nullspace``, the integer echelon's kernel, is checked
against the Fraction RREF on rational and beyond-int64 matrices.

The probe's mod-p FULL screen is compared with the exact closure engine:
it may only say FULL where the exact closure is full on the inner box, it
must say FULL for every probe seed whose closure is full on a set of small
shapes, and probe reports must not depend on it.  The same holds for the
mod-p-guided exact closure: its family must be the exact engine's wherever
the probe takes it, and a family it gets wrong must send the probe to the
exact engine.  Transport along invertible steps must give the exact
engine's family at axis, generic and integral alphas, must refuse a grade 0
of the wrong dimension or without the seed, and a lift that fails or is
wrong must send the probe to the guided closure with the same report bytes.
Nor may reports depend on the probe's reuse of a closure for a repeated
seed line or of a re-check for a repeated family.

The sparse layer keeps integral scalars as ``int`` and the rest as
``Fraction``.  Its arithmetic, ``combine``, ``sp_decompose``, ``act_H``
and the product of rectangular ``MatrixPolynomial``s (the one polynomial
type, in which g1, g2 and the certificate's identities are written) are
compared with the same operations done in ``Fraction`` throughout, and
every result must hold canonical scalars only.
"""

import functools
import itertools
import json
import random
from fractions import Fraction
from math import comb, gcd, isqrt, lcm, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hamlie.hamiltonian import GradedVector, MatrixPolynomial, ModuleParams, act_H
from hamlie.linalg import (
    SparseMatrix,
    Subspace,
    _IntEchelon,
    _annihilator,
    _annihilator_stack,
    _echelon_stack,
    _int_row,
    nullspace,
)
from hamlie.reps import (
    build_rep,
    contraction_theta,
    exterior_power,
    highest_weight_vectors,
    natural_rep,
    rep_from_obj,
    subrepresentation,
    wedge_matrix,
)
from hamlie import cli, submodules
from hamlie.submodules import (
    _SCREEN_PRIME,
    Box,
    GeneratorSet,
    TruncatedModule,
    _ActionTable,
    _ClosureEngine,
    _GradeIndex,
    _GradeState,
    _close_seed,
    _echelon_grid,
    _enumerate_invariance,
    _family_key,
    _probe_seeds,
    _ranks,
    build_submodule,
    closure,
    invariance_check,
    irreducibility_probe,
)
from hamlie.symplectic import bar, build_sp, combine, pairing, rank_one, sp_decompose

F = Fraction
DENOMINATORS = (1, 2 ** 31 - 1, 2 ** 61 - 1, 3 ** 40)
TABLE_REPS = [(1, spec) for spec in ("trivial", "natural", "sym:2", "sym:3", "exterior:2")] + [
    (2, spec) for spec in ("trivial", "natural", "sym:2", "sym:3", "fundamental:2", "exterior:2")
]


@functools.cache
def _rep(n, spec):
    return build_rep(build_sp(n, verify=False), spec)


def _rho_direct(rep, r):
    """rho(r bar(r)^t) by an sp decomposition of r bar(r)^t itself: a
    reference the rep's polarization table does not feed."""
    return combine(sp_decompose(rank_one(r), rep.alg), rep.action, rep.dim, rep.dim)


@functools.cache
def _rho_dense(n, spec, r):
    """``_rho_direct`` as a Fraction array."""
    return np.array(_rho_direct(_rep(n, spec), r).to_rows(), dtype=object)


def _alpha(data, N, denominators=DENOMINATORS):
    q = data.draw(st.sampled_from(denominators))
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
    _assert_table_matches_loops(table, p, GeneratorSet(gens, N), box)
    assert _GradeIndex(box, N).coords.tolist() == [
        list(g) for g in itertools.product(range(-box, box + 1), repeat=N)]


def _table_by_loops(p, gens, box_radius) -> dict:
    """offsets, bars, c_small and max_p of the action table, one generator
    at a time in Python, as the table was first built; max_p is int64 when
    every entry is below 2^62."""
    vectors = list(gens.vectors())
    L = lcm(*(a.denominator for a in p.alpha),
            *(v.denominator for m in p.rep.polarizations.values() for v in m.entries.values()))
    l_alpha = [int(a * L) for a in p.alpha]
    scale = box_radius * L + max(map(abs, l_alpha))
    max_p = [max(abs(int(v)) for v in pt.ravel())
             for pt in _ActionTable(p, gens, box_radius).pt]
    return {
        "offsets": np.array(vectors, dtype=np.int64),
        "bars": np.array([bar(r) for r in vectors], dtype=np.int64),
        "c_small": np.array([scale * sum(map(abs, bar(r))) < 2 ** 62 for r in vectors]),
        "max_p": np.array(max_p, dtype=np.int64 if max(max_p) < 2 ** 62 else object),
    }


def _assert_table_matches_loops(table, p, gens, box_radius):
    for name, want in _table_by_loops(p, gens, box_radius).items():
        got = getattr(table, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tolist() == want.tolist(), name


@pytest.mark.parametrize("rg,target,small", [(1, 2 ** 62, 2), (2, 2 ** 62 - 1, 3)])
def test_action_table_c_small_bound_is_exact(rg, target, small):
    # trivial V at n=1 with alpha = (1/q, 0) and box radius 1: L = q and
    # (bar r, s L + L alpha) is bounded by (q + 1) sum|bar r|.  With q + 1 =
    # target / small, generators with sum|bar r| = small land on the target
    # itself: 2^62 - 1 is still int64-safe, 2^62 is not
    q = target // small - 1
    p = ModuleParams((F(1, q), 0), (0, 0), _rep(1, "trivial"))
    gens = GeneratorSet(rg, 2)
    table = _ActionTable(p, gens, 1)
    _assert_table_matches_loops(table, p, gens, 1)
    sums = np.abs(table.bars).sum(axis=1)
    assert (q + 1) * small == target and (sums == small).any()
    assert table.c_small[sums == small].all() == (target < 2 ** 62)
    assert table.c_small[sums < small].all() and not table.c_small[sums > small].any()


def _typed_entries(m):
    return {pos: (type(v), v) for pos, v in m.entries.items()}


@pytest.mark.parametrize("n,spec", [(1, "trivial"), (1, "natural"), (2, "natural"), (2, "sym:2"),
                                    (2, "exterior:2"), (2, "fundamental:2")])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_rho_rank_one_matches_direct_decomposition(n, spec, data):
    # rho_rank_one reads the rep's polarization table; the oracle decomposes
    # r bar(r)^t itself.  A rep read back from its JSON form builds its own
    # table and must agree too, scalar types included.
    N = 2 * n
    r = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=N, max_size=N)))
    rep = _rep(n, spec)
    for v in (rep, rep_from_obj(rep.to_obj())):
        got = ModuleParams((0,) * N, (0,) * N, v).rho_rank_one(r)
        assert _typed_entries(got) == _typed_entries(_rho_direct(rep, r)), (spec, r)


def _family(p, box, spaces) -> TruncatedModule:
    """A family holding the given Subspaces, as the grid of their integer
    echelons."""
    idx = _GradeIndex(box.radius, box.N)
    return TruncatedModule(p, box, grid=_echelon_grid(box.count(), p.rep.dim, {
        idx.encode_one(g): _IntEchelon.of_rows(s.ambient_dim, map(_int_row, s.basis))
        for g, s in spaces.items()}))


def _by_grade(engine, grid) -> dict:
    """{grade: _IntEchelon} of the nonzero grades of a family grid of the
    engine's box."""
    return {tuple(engine.index.coords[gid].tolist()): _IntEchelon.of_echelon(engine.dim, grid[gid])
            for gid in np.flatnonzero(_ranks(grid))}


def _inner_gids(engine) -> np.ndarray:
    """The gids of the engine's inner box, where the probe reads its dims."""
    return np.flatnonzero(np.abs(engine.index.coords).max(axis=1) <= engine.inner_radius)


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


def _primitive_row(row) -> list:
    """A rational row scaled to primitive integers, signs kept."""
    den = lcm(*(F(x).denominator for x in row))
    ints = [int(x * den) for x in row]
    g = gcd(*ints) or 1
    return [v // g for v in ints]


def _naive_failures(family, gens, cap: int = 20) -> list:
    """The enumeration's failure list straight from act_H: generator-major,
    then grade in lex order, each pair at its first basis row whose image
    leaves the target space, witnessed by that row as primitive integers."""
    box, p = family.box, family.params
    out = []
    for r in sorted(gens.vectors()):
        for s in box.grades():
            t = tuple(a + b for a, b in zip(s, r))
            if not box.contains(t):
                continue
            for row in family.space(s).basis:
                if not family.space(t).contains(act_H(r, GradedVector(s, row), p).payload):
                    out.append({"grade": list(s), "generator": list(r),
                                "witness": [str(v) for v in _primitive_row(row)]})
                    break
    return out[:cap]


def _naive_pairs(box, gens) -> int:
    return sum(box.contains(tuple(a + b for a, b in zip(s, r)))
               for s in box.grades() for r in gens.vectors())


# alpha denominators of the enumeration tests; the last two make L a
# multiple of the first residue moduli (``_residue_moduli``)
ENUM_DENOMINATORS = (1, 7, 2 ** 31 - 1, 2 ** 61 - 1, 3 ** 40, _SCREEN_PRIME,
                     _SCREEN_PRIME * (_SCREEN_PRIME - 1))


def _each_walk(family, gens) -> list:
    """The enumeration reports of ``family`` with the grid walk forced and
    then the sweep forced, asserting that the forced walk ran.  The sweep
    runs only in int64, so a family past the int64 bound (one that
    ``_residue_moduli`` gives moduli) takes the grid both times."""
    reports = []
    for grid in (True, False):
        moduli = []
        with mock.patch.object(submodules, "_takes_grid",
                               side_effect=lambda m, *a: moduli.append(m) or grid or bool(m)), \
                mock.patch.object(submodules, "_grid_walk", wraps=submodules._grid_walk) as g, \
                mock.patch.object(submodules, "_sweep_walk", wraps=submodules._sweep_walk) as w:
            reports.append(_enumerate_invariance(family, gens))
        rows = any(family.int_basis(t).rows for t in family.box.grades())
        took_grid = grid or any(moduli)
        assert (g.called, w.called) == ((took_grid, not took_grid) if rows else (False, False))
    return reports


def _moduli_taken(family, gens) -> list:
    """The residue moduli of the enumeration of ``family``: none when it
    runs in int64."""
    taken = []
    choose = submodules._residue_moduli
    with mock.patch.object(submodules, "_residue_moduli",
                           side_effect=lambda *a: taken.append(choose(*a)) or taken[-1]):
        _enumerate_invariance(family, gens)
    return taken[0]


def _assert_walks_match_naive(family, gens):
    """Both walks report the naive pair count, pass count and failure list
    (in order, with witnesses)."""
    want = (_naive_pairs(family.box, gens), _naive_passes(family, gens),
            _naive_failures(family, gens))
    for report in _each_walk(family, gens):
        assert (report["pairs"], report["passes"], report["failures"]) == want


def _broken(data, p, box, spaces) -> dict:
    """``spaces`` with one grade broken: a basis row replaced, the grade
    emptied, or its space moved to another grade (a line at the wrong
    grade, for the line families)."""
    spaces = dict(spaces)
    grades = sorted(g for g, s in spaces.items() if s.dim)
    if not grades:
        return spaces
    g = data.draw(st.sampled_from(grades))
    how = data.draw(st.sampled_from(["replace", "empty", "move"]))
    if how == "replace":
        rows = list(spaces[g].basis)
        rows[data.draw(st.integers(0, len(rows) - 1))] = [
            data.draw(st.integers(-2, 2)) for _ in range(p.rep.dim)]
        spaces[g] = Subspace.from_vectors(rows, p.rep.dim)
    elif how == "empty":
        del spaces[g]
    else:
        to = data.draw(st.sampled_from(sorted(t for t in box.grades() if t != g)))
        spaces[to] = spaces.pop(g)
    return spaces


def _closure_case(data, denominators=DENOMINATORS):
    """An n=1 module, box, generator set and one seed vector."""
    spec = data.draw(st.sampled_from(["trivial", "natural", "sym:2"]))
    p = ModuleParams(_alpha(data, 2, denominators), (0, 0), _rep(1, spec))
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
    # every enumeration runs each walk in turn (``_each_walk``)
    p, box, gens, seed = _closure_case(data, ENUM_DENOMINATORS)
    grade, payload = seed.grade, seed.payload

    want = _naive_closure([seed], p, box, gens)
    got = closure([seed], p, box, gens)
    zero = Subspace.zero(p.rep.dim)
    assert all(got.space(g) == want.get(g, zero) for g in box.grades())

    closed = _family(p, box, want)
    pairs = _naive_pairs(box, gens)
    for family in (closed, got):  # got: from the closure's echelons
        for report in _each_walk(family, gens):
            assert (report["pairs"], report["passes"], report["failures"]) == (pairs, pairs, [])
    seed_only = _family(p, box, {grade: Subspace.from_vectors([payload], p.rep.dim)})
    _assert_walks_match_naive(seed_only, gens)
    _assert_walks_match_naive(_family(p, box, _broken(data, p, box, want)), gens)


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
    # independent of the integer kernel: each functional kills every row,
    # and they span a space of the complementary dimension
    assert all(sum(a * b for a, b in zip(w, row)) == 0 for w in ann for row in rows)
    assert Subspace.from_vectors(ann, d).dim == d - space.dim


# int64 entries whose products pass 2^62: after one elimination step
# (2^31 - 1, 3^19), so the stack turns to Python integers part way, or at
# once (2^40 + 1, 3^27)
_int64_entries = st.one_of(
    st.integers(-3, 3), st.sampled_from((2 ** 31 - 1, -(3 ** 19), 2 ** 40 + 1, -(3 ** 27))))


def _stack_matrix(data, entries, r, c) -> list:
    """An r x c integer matrix: zero, drawn entry by entry, or of full rank
    min(r, c) (a staircase of nonzero entries with drawn entries to its
    right, rows and columns shuffled), so pivots differ between matrices."""
    kind = data.draw(st.sampled_from(["zero", "drawn", "full"]))
    if kind == "zero":
        return [[0] * c for _ in range(r)]
    m = [[data.draw(entries) for _ in range(c)] for _ in range(r)]
    if kind == "full":
        for i in range(min(r, c)):
            m[i][:i] = [0] * i
            m[i][i] = data.draw(entries.filter(bool))
        rows = data.draw(st.permutations(range(r)))
        cols = data.draw(st.permutations(range(c)))
        m = [[m[i][j] for j in cols] for i in rows]
    return m


def _int_stack(mats, shape) -> np.ndarray:
    """Matrices as one stack: int64 when every entry is below 2^62."""
    big = any(abs(v) >= 2 ** 62 for m in mats for row in m for v in row)
    return np.array(mats, dtype=object if big else np.int64).reshape(shape)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stacks_match_the_one_matrix_echelon_and_annihilator(data):
    # row for row on every matrix of a stack: int64 stacks that turn to
    # Python integers part way or at once, and stacks in Python integers
    # from the start (an entry past 2^62 turns the whole stack, small
    # matrices too).  The annihilators are taken of the reference echelons
    # in int64 where they fit, so large pivots meet the lcm and entry bounds
    c = data.draw(st.integers(1, 5))
    r = data.draw(st.integers(0, c + 1))
    h = min(r, c)
    entries = data.draw(st.sampled_from([_int64_entries, _entries]))
    mats = [_stack_matrix(data, entries, r, c) for _ in range(data.draw(st.integers(1, 5)))]
    echs = [_IntEchelon.of_rows(c, m) for m in mats]
    want = [[list(row) for row in e.rows] + [[0] * c] * (h - e.dim) for e in echs]
    assert _echelon_stack(_int_stack(mats, (len(mats), r, c))).tolist() == want
    got = _annihilator_stack(_int_stack(want, (len(mats), h, c))).tolist()
    assert got == [[list(w) for w in _annihilator(e.rows, e.pivots, c)] + [[0] * c] * e.dim
                   for e in echs]


@pytest.mark.parametrize("rows", [
    # the lcm of the pivots, (2^31 - 1) 3^21, passes 2^63
    [[[2 ** 31 - 1, 0, 1], [0, 3 ** 21, 1]], [[1, 0, 1], [0, 2, 1]]],
    # the pivot lcm times an entry, 4 (2^61 + 1), passes 2^63
    [[[1, 0, 2 ** 61 + 1], [0, 4, 1]], [[1, 0, 1], [0, 2, 1]]],
])
def test_annihilator_stack_leaves_int64_before_it_overflows(rows):
    got = _annihilator_stack(np.array(rows, dtype=np.int64)).tolist()
    assert got == [[list(_annihilator(m, [0, 1], 3)[0]), [0] * 3, [0] * 3] for m in rows]


NULLSPACE_DENOMINATORS = (1, 7, 2 ** 61 - 1, 3 ** 40)
_kernel_entries = st.one_of(
    _entries,
    st.builds(F, st.integers(-3, 3), st.sampled_from(NULLSPACE_DENOMINATORS)),
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_nullspace_is_the_fraction_kernel(data):
    # three properties fix the kernel: m kills each basis vector, the
    # dimension is cols minus the Fraction-RREF rank, and the basis is the
    # canonical RREF one
    cols = data.draw(st.integers(0, 5))
    rows = [[data.draw(_kernel_entries) for _ in range(cols)]
            for _ in range(data.draw(st.integers(0, cols + 2)))]
    if rows and data.draw(st.booleans()):
        rows.insert(data.draw(st.integers(0, len(rows))), [0] * cols)
    m = SparseMatrix(len(rows), cols, {(i, j): v for i, row in enumerate(rows)
                                       for j, v in enumerate(row)})
    got = nullspace(m)
    assert all(not any(m.matvec(v)) for v in got.basis)
    assert got.dim == cols - Subspace.from_vectors(rows, cols).dim
    want = Subspace.from_vectors(got.basis, cols)
    assert got == want and got.pivots == want.pivots


def test_grade_state_screen_bounds_minus_2_63_exactly():
    # the annihilator of span{(1, 0, 2^61), (0, 4, 1)} is (-2^63, -1, 4):
    # it fits int64, but its int64 absolute value wraps to -2^63, and an
    # int64 residual of (-2, 0, 0) would wrap to 0
    ech = _IntEchelon.of_rows(3, [(1, 0, 2 ** 61), (0, 4, 1)])
    state = _GradeState(1, 3)
    state.set(0, ech)
    assert state.a_pad.dtype == np.int64
    # the same grade through the whole-family state, which keeps it in
    # Python integers (past 2^62)
    grid_state = _GradeState.of_grid(np.array([ech.rows], dtype=np.int64))
    assert grid_state.a_pad.dtype == object
    y = np.array([[-2, 0, 0], [0, -8, -2]], dtype=np.int64)
    for state in (state, grid_state):
        assert list(state.a_pad[0, 0]) == [-2 ** 63, -1, 4] and not ech.contains((-2, 0, 0))
        assert list(state.candidates(np.array([0, 0]), y)) == [0]


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_enumeration_of_big_integer_family_matches_naive(data):
    # each grade holds nothing, its delta1 line (pairs between two lines pass
    # through the annihilator screen) or a span of entries >= 2^63 (rows
    # and, often, annihilators past int64, so the residue walk) or the
    # line of another grade; each walk runs in turn
    p = ModuleParams(_alpha(data, 2, ENUM_DENOMINATORS), (0, 0), _rep(1, "natural"))
    box, gens = Box(1, 2), GeneratorSet(1, 2)
    spaces = {}
    for g in box.grades():
        kind = data.draw(st.sampled_from(["none", "line", "wrong line", "big"]))
        if kind == "wrong line":
            g_line = data.draw(st.sampled_from([t for t in box.grades() if t != g]))
        else:
            g_line = g
        if kind in ("line", "wrong line"):
            spaces[g] = Subspace.from_vectors([[s + a for s, a in zip(g_line, p.alpha)]], 2)
        elif kind == "big":
            spaces[g] = Subspace.from_vectors(_int_matrix(data, 2), 2)
    _assert_walks_match_naive(_family(p, box, spaces), gens)


def test_walks_retest_exact_grades():
    # grade (1, 0) holds the span of (2^63, 3^41), whose annihilator
    # overflows int64, and grade (0, 0) all of V.  At alpha = 0, H_r with
    # r = (1, 0) maps e_0 to 0, which passes on its residues, and e_1 to a
    # multiple of r, which fails on them: the witness is the second row
    p = ModuleParams((0, 0), (0, 0), _rep(1, "natural"))
    box, gens = Box(1, 2), GeneratorSet(1, 2)
    family = _family(p, box, {(0, 0): Subspace.from_vectors([[1, 0], [0, 1]], 2),
                              (1, 0): Subspace.from_vectors([[2 ** 63, 3 ** 41]], 2)})
    assert len(_moduli_taken(family, gens)) >= 1
    _assert_walks_match_naive(family, gens)
    failures = _enumerate_invariance(family, gens)["failures"]
    assert {"grade": [0, 0], "generator": [1, 0], "witness": ["0", "1"]} in failures


def test_int64_grid_walk_retests_exact_grades():
    # sym:2 at n=1: the span of (p1, 0, 1) and (0, p2, 1), p1 = 2^31 - 1 and
    # p2 = 2^32 + 15, has the annihilator (-p2, -p1, p1 p2) with p1 p2 > 2^63,
    # while its rows are small; grade (-1, 0) holds all of V, so its images
    # under r = (1, 0) are tested at (0, 0) on their residues
    p = ModuleParams((F(1, 3), 0), (0, 0), _rep(1, "sym:2"))
    box, gens = Box(1, 2), GeneratorSet(1, 2)
    p1, p2 = 2 ** 31 - 1, 2 ** 32 + 15
    family = _family(p, box, {(-1, 0): Subspace.from_vectors([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
                              (0, 0): Subspace.from_vectors([[p1, 0, 1], [0, p2, 1]], 3)})
    engine = _ClosureEngine(p, box, gens)
    state = _GradeState(engine.index.count, 3)
    for gid in np.flatnonzero(_ranks(family.grade_rows())).tolist():
        state.set(gid, family.int_basis(tuple(engine.index.coords[gid].tolist())))
    gid = engine.index.encode_one((0, 0))
    assert state.a_pad.dtype == object and list(state.a_pad[gid, 0]) == [-p2, -p1, p1 * p2]
    # the same family through the whole-family state the enumeration builds
    grid = family.grade_rows(engine.index.coords)
    grid_state = _GradeState.of_grid(grid)
    assert grid.dtype == np.int64 and grid_state.a_pad.dtype == object
    assert (grid_state.a_pad == state.a_pad).all()
    assert len(_moduli_taken(family, gens)) >= 1
    _assert_walks_match_naive(family, gens)


def _first_moduli(count: int) -> list:
    """The first ``count`` residue moduli at dim 1: greedily down from the
    cap, each coprime to those before it."""
    first, m = [], submodules._modulus_cap(1)
    while len(first) < count:
        first += [m] if gcd(m, prod(first)) == 1 else []
        m -= 1
    return first


def _trivial_lines(a: int, empty: set):
    """The trivial rep at n=1, alpha = (a/(a+1), 0), box and generators of
    radius 1, the line at every grade but those in ``empty``, and its
    generators.  A pair into an empty grade fails exactly when its scalar
    z = (sL + L alpha) . bar r is nonzero; along r = (0, 1), z = s_1 L + a.
    The bound on z is 2(L + a) = 4a + 2."""
    p = ModuleParams((F(a, a + 1), 0), (0, 0), _rep(1, "trivial"))
    box = Box(1, 2)
    family = _family(p, box, {g: Subspace.from_vectors([[1]], 1)
                              for g in box.grades() if g not in empty})
    return family, GeneratorSet(1, 2)


def test_residues_one_modulus_short_miss_a_failure():
    # a = M, the product of the first three moduli: 4M + 2 is below M times
    # the fourth, so four moduli are taken; from s = (0, 0) along r = (0, 1)
    # into the empty grade (0, 1), z = M, a nonzero multiple of the first
    # three, so a list one modulus short passes that pair
    first = _first_moduli(4)
    family, gens = _trivial_lines(prod(first[:3]), {(0, 1)})
    assert _moduli_taken(family, gens) == first
    want = (_naive_passes(family, gens), _naive_failures(family, gens))
    missed = {"grade": [0, 0], "generator": [0, 1], "witness": ["1"]}
    assert missed in want[1]
    for report in _each_walk(family, gens):
        assert (report["passes"], report["failures"]) == want
    choose = submodules._residue_moduli
    with mock.patch.object(submodules, "_residue_moduli", lambda *a: choose(*a)[:-1]):
        short = _enumerate_invariance(family, gens)
    assert short["passes"] == want[0] + 1
    assert short["failures"] == [f for f in want[1] if f != missed]


def test_residue_walk_ors_the_moduli():
    # a = m1 m2 m4 takes the same four moduli.  Along r = (0, 1), the pair
    # from (0, 0) has z = a, nonzero mod m3 only, and the pair from (1, 0)
    # has z = 2a + 1, nonzero mod m4: a walk that let the last modulus's
    # mask stand for all of them would pass the first pair
    first = _first_moduli(4)
    family, gens = _trivial_lines(first[0] * first[1] * first[3], {(0, 1), (1, 1)})
    assert _moduli_taken(family, gens) == first
    want = _naive_failures(family, gens)
    assert {"grade": [0, 0], "generator": [0, 1], "witness": ["1"]} in want
    for report in _each_walk(family, gens):
        assert (report["passes"], report["failures"]) == (_naive_passes(family, gens), want)


def test_residuals_stay_in_int64_at_the_largest_modulus():
    # at dim 511, the largest with _SCREEN_PRIME as the modulus cap, image
    # sums of entries m - 1 reach (dim+1)(m-1)^2, just below 2^63: every
    # residual must equal the Python-integer one.  Rows and annihilators
    # are int32, as the grid walk holds them, and pt and c int64
    dim = 511
    m = submodules._modulus_cap(dim)
    assert m == _SCREEN_PRIME and (dim + 1) * (m - 1) ** 2 < 2 ** 63 <= (dim + 2) * (m - 1) ** 2
    rng = np.random.default_rng(27)
    x = np.full((2, dim), m - 1, dtype=np.int32)
    x[1] = rng.integers(m - 1000, m, dim)
    pt = np.full((dim, dim), m - 1, dtype=np.int64)
    a = np.full((dim, dim), m - 1, dtype=np.int32)
    a[:, 1] = rng.integers(m - 1000, m, dim)
    c = np.array([[m - 1], [m - 2]], dtype=np.int64)
    got = submodules._residuals(x, pt, c, a, m)
    X, P, A = x.tolist(), pt.tolist(), a.tolist()
    for i in range(2):
        y = [(sum(X[i][k] * P[k][e] for k in range(dim)) + int(c[i, 0]) * X[i][e]) % m
             for e in range(dim)]
        assert got[i].tolist() == [sum(y[k] * A[k][e] for k in range(dim)) % m
                                   for e in range(dim)]


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_closure_echelons_convert_to_canonical_spaces(data):
    p, box, gens, seed = _closure_case(data)
    engine = _ClosureEngine(p, box, gens)
    echelons = engine.run([seed])
    family = TruncatedModule(p, box, grid=engine.run_grid([seed]))
    for g, ech in echelons.items():
        want = Subspace.from_vectors(ech.rows, p.rep.dim)
        got = family.space(g)
        assert got == want and got.pivots == want.pivots and got.to_obj() == want.to_obj()
    # perfbench/spantrace.py sums these .dim values as closure.total_dim
    assert sum(e.dim for e in echelons.values()) == sum(
        family.space(g).dim for g in box.grades())


# -- the sparse rep-layer kernels -----------------------------------------------


def _naive_restriction(rep, space):
    """{label: matrix} of rep on space by one coordinates() solve per basis
    column, or None when some image leaves the space."""
    action = {}
    for label in rep.alg.labels:
        entries = {}
        for col, row in enumerate(space.basis):
            coords = space.coordinates(rep.action[label].matvec(row))
            if coords is None:
                return None
            entries.update({(i, col): v for i, v in enumerate(coords) if v})
        action[label] = SparseMatrix(space.dim, space.dim, entries)
    return action


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
def test_kernel_restriction_matches_coordinate_solves(n, k):
    alg = build_sp(n, verify=False)
    kernel = nullspace(contraction_theta(alg, k).matrix)
    lam = exterior_power(natural_rep(alg), k)
    sub = subrepresentation(lam, kernel, f"fundamental:{k}")
    assert sub.action == _naive_restriction(lam, kernel)
    assert sub.weights == [lam.weights[p] for p in kernel.pivots]
    assert sub.subspace is kernel


def test_restriction_confirms_recorded_weights():
    alg = build_sp(2, verify=False)
    lam = exterior_power(natural_rep(alg), 2)
    kernel = nullspace(contraction_theta(alg, 2).matrix)
    lam.weights = lam.weights[1:] + lam.weights[:1]  # each monomial takes the next one's
    with pytest.raises(ValueError, match="not a weight vector"):
        subrepresentation(lam, kernel, "fundamental:2")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_restriction_raises_exactly_off_invariant_subspaces(data):
    # exterior:2 at n=2 holds the invariant kernel of theta_2 (dim 5) and the
    # symplectic form line; random spans, alone or joined to those, mostly
    # are not invariant
    alg = build_sp(2, verify=False)
    lam = exterior_power(natural_rep(alg), 2)
    kernel = nullspace(contraction_theta(alg, 2).matrix)
    omega = Subspace.from_vectors([[0, 1, 0, 0, 1, 0]], 6)  # e1^e3 + e2^e4
    base = data.draw(st.sampled_from([Subspace.zero(6), kernel, omega]))
    extra = [[data.draw(st.integers(-2, 2)) for _ in range(6)]
             for _ in range(data.draw(st.integers(0, 2)))]
    space = base.sum_with(Subspace.from_vectors(extra, 6))
    want = _naive_restriction(lam, space)
    if want is None:
        with pytest.raises(ValueError, match="not invariant"):
            subrepresentation(lam, space, "sub")
    else:
        assert subrepresentation(lam, space, "sub").action == want


def _wedge_with_vector(u, k: int, N: int) -> list:
    """Basis of u ^ Lambda^{k-1} inside Lambda^k, as raw vectors."""
    wedges = [wedge_matrix(N, k - 1, a) for a in range(N)]
    out = []
    for col in range(comb(N, k - 1)):
        vec = [Fraction(0)] * comb(N, k)
        for a in range(N):
            if u[a] != 0:
                for (i, j), v in wedges[a].entries.items():
                    if j == col:
                        vec[i] += Fraction(u[a]) * v
        out.append(vec)
    return out


def _deltak_space_by_intersection(p, k, grade):
    """The deltak grade space as Ker theta_k meet u ^ Lambda^{k-1}, by
    Zassenhaus intersection and coordinates in the kernel basis."""
    rep = p.rep
    N = rep.alg.N
    if all(a.denominator == 1 for a in p.alpha) and all(
            g == -a for g, a in zip(grade, p.alpha)):
        return Subspace.full(rep.dim)
    u = tuple(g + a for g, a in zip(grade, p.alpha))
    if not any(u):
        return Subspace.zero(rep.dim)
    w = Subspace.from_vectors(_wedge_with_vector(u, k, N), comb(N, k))
    inter = w.intersect(rep.subspace)
    return Subspace.from_vectors([rep.subspace.coordinates(r) for r in inter.basis], rep.dim)


def _delta1_space_by_fractions(p, grade):
    """The delta1 grade space span{s + alpha}, built in Fractions."""
    N = p.rep.alg.N
    vec = tuple(F(g) + a for g, a in zip(grade, p.alpha))
    if not any(vec):
        return Subspace.zero(N)
    return Subspace.from_vectors([vec], N)


def _fraction_kernel(m: SparseMatrix) -> Subspace:
    """The right kernel by Fraction RREF: one vector per free column."""
    rref = Subspace.from_vectors(m.to_rows(), m.cols)
    vectors = []
    for f in (j for j in range(m.cols) if j not in rref.pivots):
        v = [F(0)] * m.cols
        v[f] = F(1)
        for row, piv in zip(rref.basis, rref.pivots):
            v[piv] = -row[f]
        vectors.append(v)
    return Subspace.from_vectors(vectors, m.cols)


def _deltak_builder_by_fractions(p, k):
    """The deltak grade spaces as Fraction kernels of (u ^ .) E, E the
    kernel embedding and u = s + alpha scaled by its common denominator;
    the whole kernel at the integral grade -alpha."""
    rep = p.rep
    N = rep.alg.N
    emb = rep.subspace.embedding()
    wedge_emb = [(wedge_matrix(N, k, a) @ emb).entries for a in range(N)]

    def builder(grade):
        if all(a.denominator == 1 for a in p.alpha) and all(
                g == -a for g, a in zip(grade, p.alpha)):
            return Subspace.full(rep.dim)
        u = tuple(F(g) + a for g, a in zip(grade, p.alpha))
        scale = lcm(*(x.denominator for x in u))
        acc = {}
        for a, x in enumerate(u):
            if x:
                for pos, v in wedge_emb[a].items():
                    acc[pos] = acc.get(pos, F(0)) + x * scale * v
        return _fraction_kernel(SparseMatrix(comb(N, k + 1), rep.dim, acc))

    return builder


def _assert_grade_matches(family, g, want):
    got = family.space(g)
    assert got == want and got.pivots == want.pivots and got.to_obj() == want.to_obj(), g
    ech = family.int_basis(g)
    assert [list(r) for r in ech.rows] == [_primitive_row(r) for r in want.basis], g
    assert list(ech.pivots) == list(want.pivots), g


BUILDER_DENOMINATORS = (1, 7, 2 ** 31 - 1, 2 ** 61 - 1, 3 ** 40)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_deltak_grade_spaces_match_intersection(data):
    n, k = data.draw(st.sampled_from([(2, 2), (3, 2), (3, 3)]))
    N = 2 * n
    q = data.draw(st.sampled_from(BUILDER_DENOMINATORS))
    alpha = tuple(F(data.draw(st.integers(-2 * q, 2 * q)), q) for _ in range(N))
    p = ModuleParams(alpha, (0,) * N, _rep(n, f"fundamental:{k}"))
    family = build_submodule("deltak", p, Box(2, N))
    grades = [tuple(data.draw(st.integers(-2, 2)) for _ in range(N)) for _ in range(3)]
    if q == 1:
        grades.append(tuple(-int(a) for a in alpha))  # u = 0: the whole kernel
    by_fractions = _deltak_builder_by_fractions(p, k)
    for g in grades:
        want = _deltak_space_by_intersection(p, k, g)
        assert want == by_fractions(g)
        _assert_grade_matches(family, g, want)


def _builder_alpha(q: int, N: int) -> tuple:
    """alpha with numerators near q/2 (entries of u far beyond int64 for
    the large q); at q = 1, integral with -alpha inside the radius-1 box."""
    if q == 1:
        return tuple(F((-1) ** i * (i % 2)) for i in range(N))
    return tuple(F(q // 2 - 3 * i, q) if i % 3 else F(0) for i in range(N))


@pytest.mark.parametrize("q", BUILDER_DENOMINATORS)
@pytest.mark.parametrize("kind,n,k", [("delta1", 2, None), ("delta1", 3, None),
                                      ("deltak", 2, 2), ("deltak", 3, 2), ("deltak", 3, 3)])
def test_built_families_match_fraction_builders(kind, n, k, q):
    # every grade of the radius-1 box at n = 2; at n = 3, where one Fraction
    # kernel takes ~10 ms, 40 of its 729 grades; the integral -alpha grade
    # in both
    N = 2 * n
    spec = "natural" if kind == "delta1" else f"fundamental:{k}"
    p = ModuleParams(_builder_alpha(q, N), (0,) * N, _rep(n, spec))
    box = Box(1, N)
    family = build_submodule(kind, p, box)
    grades = list(box.grades())
    if n == 3:
        grades = random.Random(q).sample(grades, 40)
    if q == 1:
        grades.append(tuple(-int(a) for a in p.alpha))
    if kind == "delta1":
        oracle = functools.partial(_delta1_space_by_fractions, p)
    else:
        oracle = _deltak_builder_by_fractions(p, k)
    # the whole box in one stack: each grade's echelon rows, then zero rows
    coords = list(box.grades())
    stack = family.grade_rows(np.array(coords)).tolist()
    at = {g: i for i, g in enumerate(coords)}
    for g in grades:
        want = oracle(g)
        _assert_grade_matches(family, g, want)
        rows = stack[at[g]]
        assert rows[:want.dim] == [_primitive_row(r) for r in want.basis], g
        assert not any(map(any, rows[want.dim:])), g


def _readout_by_position(m, alg):
    """sp coefficients read position by position from the block structure,
    then checked by summing the basis matrices one at a time."""
    n = alg.n
    coeffs = {}

    def put(label, val):
        if val != 0:
            coeffs[label] = val

    for a in range(n):
        put(f"h{a + 1}", m.get(a, a))
    for i in range(n):
        for j in range(n):
            if i != j:
                put(f"X(e{i + 1}-e{j + 1})", m.get(i, j))
    for k in range(n):
        put(f"X(2e{k + 1})", F(m.get(k, n + k)) / 2)
        put(f"X(-2e{k + 1})", F(m.get(n + k, k)) / 2)
        for l in range(k + 1, n):
            put(f"X(e{k + 1}+e{l + 1})", m.get(k, n + l))
            put(f"X(-e{k + 1}-e{l + 1})", m.get(n + k, l))
    recon = SparseMatrix(alg.N, alg.N)
    for label, c in coeffs.items():
        recon = recon + alg.matrices[label].scale(c)
    return coeffs if recon == m else None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sp_decompose_matches_positional_readout(data):
    n = data.draw(st.integers(1, 3))
    alg = build_sp(n, verify=False)
    N = alg.N
    m = SparseMatrix(N, N)
    for label in alg.labels:
        c = F(data.draw(st.integers(-3, 3)), data.draw(st.sampled_from([1, 2, 3])))
        m = m + alg.matrices[label].scale(c)
    assert sp_decompose(m, alg) == _readout_by_position(m, alg)
    # one entry changed: still in sp_N only on the diagonals of the B and C
    # blocks, whose unit matrices are multiples of X_{2eps_k}, X_{-2eps_k}
    i, j = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
    bumped = m + SparseMatrix(N, N, {(i, j): data.draw(st.sampled_from([1, -1, F(1, 2)]))})
    if abs(i - j) == n:
        assert sp_decompose(bumped, alg) == _readout_by_position(bumped, alg)
    else:
        assert _readout_by_position(bumped, alg) is None
        with pytest.raises(ValueError, match="not in the span"):
            sp_decompose(bumped, alg)


# -- the mod-p FULL screen -------------------------------------------------

# 134217689 is the spin's default prime: there it divides L, and the engine
# must step below it
SCREEN_DENOMINATORS = (1, 7, 2 ** 31 - 1, 2 ** 61 - 1, 3 ** 40, _SCREEN_PRIME)
SCREEN_REPS = [(n, spec) for n in (1, 2) for spec in ("trivial", "natural", "sym:2")] + [
    (2, "fundamental:2")]


def _full_on_inner(engine, seed, inner) -> bool:
    echelons = engine.run([seed])
    grades = itertools.product(range(-inner, inner + 1), repeat=len(seed.grade))
    return all(g in echelons and echelons[g].dim == engine.dim for g in grades)


@pytest.mark.parametrize("n,spec", SCREEN_REPS)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_screen_full_implies_exact_full(n, spec, data):
    N = 2 * n
    q = data.draw(st.sampled_from(SCREEN_DENOMINATORS))
    alpha = tuple(F(data.draw(st.integers(-3 * q, 3 * q)), q) for _ in range(N))
    p = ModuleParams(alpha, (0,) * N, _rep(n, spec))
    gens = GeneratorSet(data.draw(st.integers(1, 3 - n)), N)
    box = Box(data.draw(st.integers(gens.radius, gens.radius + 1)), N)
    payload = tuple(F(data.draw(st.integers(-4, 4)), data.draw(st.sampled_from([1, 2, 3])))
                    for _ in range(p.rep.dim))
    assume(any(payload))
    seed = GradedVector((0,) * N, payload)
    engine = _ClosureEngine(p, box, gens)
    inner = box.radius - gens.radius

    verdict = engine.screen_full(seed)
    assert type(verdict) is bool
    if verdict:
        assert _full_on_inner(engine, seed, inner)
    # where the prime divides L every generator is a scalar mod p
    assert engine.table.L % engine._modp[0]


# the probe's reducible cases: natural and Ker theta_2 off the integral
# lattice, trivial on it
NEVER_FULL = [
    (1, "natural", (F(1, 3), 0)),
    (2, "natural", (F(1, 3), 0, 0, 0)),
    (2, "fundamental:2", (F(1, 3), 0, 0, 0)),
    (1, "trivial", (1, 1)),
    (2, "trivial", (1, 0, -1, 0)),
]


@pytest.mark.parametrize("n,spec,alpha", NEVER_FULL)
def test_screen_never_fills_a_closure_that_is_not_full(n, spec, alpha):
    N = 2 * n
    p = ModuleParams(alpha, (0,) * N, _rep(n, spec))
    box, gens = (Box(3, 2), GeneratorSet(2, 2)) if n == 1 else (Box(2, 4), GeneratorSet(1, 4))
    engine = _ClosureEngine(p, box, gens)
    inner = box.radius - gens.radius
    not_full = 0
    for _, payload in _probe_seeds(p.rep.dim, 0xC0FFEE, 4):
        seed = GradedVector((0,) * N, payload)
        if not _full_on_inner(engine, seed, inner):
            not_full += 1
            assert not engine.screen_full(seed), payload
    assert not_full


def test_screen_fills_the_irreducible_cases():
    # sym:2 and trivial with alpha off the lattice fill from every seed
    for n, spec, alpha in [(1, "sym:2", (F(1, 3), 0)), (2, "sym:2", (F(1, 3), 0, 0, 0)),
                           (2, "trivial", (F(1, 2), 0, 0, 0))]:
        N = 2 * n
        p = ModuleParams(alpha, (0,) * N, _rep(n, spec))
        engine = _ClosureEngine(p, Box(2, N), GeneratorSet(1, N))
        for _, payload in _probe_seeds(p.rep.dim, 0xC0FFEE, 2):
            assert engine.screen_full(GradedVector((0,) * N, payload)), (spec, payload)


# (n, rep, alphas, box, gens): every probe seed whose exact closure fills
# the inner box must be screened FULL.  The integral alphas need the screen's
# missed-grade rank rule: every step into grade -alpha has scalar
# (bar r, -r) = 0, so the walk never reaches it, and the images of V over
# its other in-box steps must span V.
DECIDED_SHAPES = [
    (1, "natural", [(1, 0), (0, -1), (-2, 3)], 5, 1),
    (1, "sym:3", [(F(2, 5), 0), (0, F(-3, 7))], 6, 2),
    (2, "natural", [(F(1, 3), 0, 0, 0)], 2, 1),
    (2, "fundamental:2", [(F(1, 3), 0, 0, 0)], 2, 1),
    (2, "trivial", [(F(1, 2), 0, 0, 0)], 2, 1),
    (2, "natural", [(0, 0, -1, 0)], 2, 1),
    (2, "fundamental:2", [(1, 0, 0, 0)], 2, 1),
]


@pytest.mark.parametrize("n,spec,alphas,box,gens", DECIDED_SHAPES)
def test_screen_decides_every_full_seed(n, spec, alphas, box, gens):
    N = 2 * n
    inner = box - gens
    full = 0
    for alpha in alphas:
        p = ModuleParams(alpha, (0,) * N, _rep(n, spec))
        engine = _ClosureEngine(p, Box(box, N), GeneratorSet(gens, N))
        for _, payload in _probe_seeds(p.rep.dim, 0xC0FFEE, 4):
            seed = GradedVector((0,) * N, payload)
            if _full_on_inner(engine, seed, inner):
                full += 1
                assert engine.screen_full(seed), (alpha, payload)
    assert full


def _fermat_inverse(a: np.ndarray, p: int) -> np.ndarray:
    """a^(p-2) mod p by square and multiply, elementwise in int64."""
    out = np.ones_like(a)
    e = p - 2
    while e:
        if e & 1:
            out = out * a % p
        a = a * a % p
        e >>= 1
    return out


@pytest.mark.parametrize("p", [_SCREEN_PRIME, submodules._spin_prime(2, _SCREEN_PRIME)])
def test_inv_mod(p):
    rng = random.Random(p)
    a = np.array([1, 2, p - 1] + [rng.randrange(1, p) for _ in range(300)], dtype=np.int64)
    inv = submodules._inv_mod(a, p)
    assert inv.dtype == np.int64
    assert all(x * y % p == 1 for x, y in zip(a.tolist(), inv.tolist()))
    assert (inv == _fermat_inverse(a, p)).all()


def test_rank_one_action_is_nilpotent(tmp_path):
    # H_r = (bar r, s+alpha) I + rho(r bar r^t) is invertible where the
    # scalar is nonzero because rho(r bar r^t)^dim = 0: (r bar r^t)^2 =
    # (bar r, r) r bar r^t = 0 in sp_2n, and a rep keeps it nilpotent
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(_rep(2, "fundamental:2").to_obj()))
    reps = [_rep(2, spec) for spec in ("natural", "trivial", "sym:2", "sym:3",
                                       "exterior:2", "fundamental:2")]
    reps += [_rep(3, "fundamental:3"), cli._load_rep(str(path))]
    rng = random.Random(7)
    for rep in reps:
        p = ModuleParams((0,) * rep.alg.N, (0,) * rep.alg.N, rep)
        for _ in range(3):
            r = tuple(rng.randint(-3, 3) for _ in range(rep.alg.N))
            if not any(r):
                continue
            m = np.array(p.rho_rank_one(r).to_rows(), dtype=object)
            assert not np.linalg.matrix_power(m, rep.dim).any(), (rep.name, r)
            assert rep.dim == 1 or m.any(), (rep.name, r)


def _prime(m: int) -> bool:
    return m > 1 and all(m % d for d in range(2, isqrt(m) + 1))


def test_spin_prime():
    P = _SCREEN_PRIME
    assert _prime(P) and not any(_prime(c) for c in range(P + 1, 2 ** 27))

    def good(c, dim, L):
        # x @ pt + c x over dim reduced entries stays in int64
        return (dim + 1) * (c - 1) ** 2 < 2 ** 63 and L % c and _prime(c)

    # the default prime, unless the bound or L rules it out
    for dim in (1, 14, 511):
        for L in (1, 21, 2 ** 61 - 1, 3 ** 40, P - 1, P + 1):
            assert submodules._spin_prime(dim, L) == P
    q = next(c for c in range(P - 1, 1, -1) if _prime(c))
    for dim, L in [(2, P), (2, 3 * P), (2, P * q), (2, P ** 2 * q * 7),
                   (512, 1), (512, P), (1000, 1), (1000, 3 * 5 * 7)]:
        p = submodules._spin_prime(dim, L)
        assert good(p, dim, L) and p < P
        # no c above the search's start meets the bound
        start = min(P, isqrt((2 ** 63 - 1) // (dim + 1)) + 1)
        assert start == P or (dim + 1) * start ** 2 >= 2 ** 63
        assert not any(good(c, dim, L) for c in range(p + 1, start + 1)), (dim, L)
    assert submodules._spin_prime(2, P * q) < q


_ON_OFF_CASES = [
    (1, "trivial", (F(1, 2), 0), 3, 2),
    (1, "trivial", (1, 1), 2, 2),
    (1, "natural", (F(1, 3), 0), 3, 2),
    (1, "sym:2", (F(1, 3), 0), 3, 2),
    (2, "natural", (F(2, 7), 0, F(1, 7), 0), 2, 1),
    (2, "trivial", (1, 0, 0, 0), 2, 1),
]


def _probe_bytes() -> list:
    out = []
    for n, spec, alpha, box, gens in _ON_OFF_CASES:
        p = ModuleParams(alpha, (0,) * (2 * n), _rep(n, spec))
        report = irreducibility_probe(p, Box(box, 2 * n), GeneratorSet(gens, 2 * n))
        out.append(json.dumps(report, indent=2).encode())
    return out


def test_probe_reports_do_not_depend_on_the_screen(monkeypatch):
    verdicts = []
    screen = _ClosureEngine.screen_full
    monkeypatch.setattr(_ClosureEngine, "screen_full",
                        lambda self, *a: verdicts.append(screen(self, *a)) or verdicts[-1])
    with_screen = _probe_bytes()
    assert any(verdicts) and not all(verdicts)
    monkeypatch.setattr(_ClosureEngine, "screen_full", lambda self, *a: False)
    assert _probe_bytes() == with_screen


def test_mod_p_table_is_built_only_by_the_screen(monkeypatch):
    # the prime is chosen as the mod-p state is built, on the first spin
    built = []
    choose = submodules._spin_prime
    monkeypatch.setattr(submodules, "_spin_prime", lambda *a: built.append(a) or choose(*a))
    p = ModuleParams((F(1, 3), 0), (0, 0), _rep(1, "natural"))
    box, gens = Box(2, 2), GeneratorSet(1, 2)
    closure([GradedVector((0, 0), (1, 0))], p, box, gens)
    invariance_check(build_submodule("delta1", p, box), gens, method="enumerate")
    assert built == []
    irreducibility_probe(p, box, gens)
    assert len(built) == 1


# -- the mod-p-guided exact closure ---------------------------------------


def _count_runs(counter: list):
    """A patch of ``_ClosureEngine.run`` that counts its calls."""
    run = _ClosureEngine.run
    return mock.patch.object(_ClosureEngine, "run",
                             lambda self, *a: counter.append(1) or run(self, *a))


def _small_prime(*primes):
    """A patch of ``_spin_prime``: the first of ``primes`` that does not
    divide L (there L carries the nonzero L alpha_i too), else the first
    such prime above them; a prime at which the guide may miss rows."""
    return lambda dim, L: next(q for q in itertools.chain(primes, itertools.count(max(primes)))
                               if L % q and _prime(q))


def _exact_close_seed(engine, seed, gens, inner, rechecks, screen=False):
    """The probe's ``_close_seed`` by the exact engine alone, or, with
    ``screen``, by the exact engine on the seeds the mod-p screen leaves."""
    if screen and engine.screen_full(seed):
        return None
    grid = engine.run_grid([seed])
    return None if (_ranks(grid)[inner] == engine.dim).all() else grid


@pytest.mark.parametrize("n,spec", SCREEN_REPS)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_guided_closure_matches_exact_engine(n, spec, data):
    N = 2 * n
    q = data.draw(st.sampled_from(SCREEN_DENOMINATORS))
    alpha = tuple(F(data.draw(st.integers(-3 * q, 3 * q)), q) for _ in range(N))
    p = ModuleParams(alpha, (0,) * N, _rep(n, spec))
    gens = GeneratorSet(data.draw(st.integers(1, 3 - n)), N)
    box = Box(data.draw(st.integers(gens.radius, gens.radius + 1)), N)
    payload = tuple(F(data.draw(st.integers(-4, 4)), data.draw(st.sampled_from([1, 2, 3])))
                    for _ in range(p.rep.dim))
    assume(any(payload))
    seed = GradedVector((0,) * N, payload)
    engine = _ClosureEngine(p, box, gens)

    exact = engine.run([seed])
    guided = engine.guided_run(seed)
    # every guided row is an exact image inside the closure, and the guided
    # family is the closure, as its re-check proves: at every denominator,
    # the spin's default prime included
    assert all(g in exact and all(exact[g].contains(row) for row in ech.rows)
               for g, ech in _by_grade(engine, guided).items())
    family = TruncatedModule(p, box, grid=guided)
    assert not _enumerate_invariance(family, gens, engine=engine)["failures"]
    exact_grid = engine.run_grid([seed])
    assert _family_key(guided) == _family_key(exact_grid)
    # at a bad prime the guide may miss rows, but every row it takes is
    # still inside the closure
    with mock.patch.object(submodules, "_spin_prime", _small_prime(3, 5, 7)):
        short = _ClosureEngine(p, box, gens).guided_run(seed)
    assert all(g in exact and all(exact[g].contains(row) for row in ech.rows)
               for g, ech in _by_grade(engine, short).items())

    # the probe's step: the closure itself, through the guide alone
    inner = _inner_gids(engine)
    runs = []
    with _count_runs(runs):
        closed = _close_seed(engine, seed, gens, inner, {})
    if closed is None:
        assert (_ranks(exact_grid)[inner] == engine.dim).all()
    else:
        assert _family_key(closed) == _family_key(exact_grid)
    assert runs == []

    # and the probe's report is the one the exact engine alone gives
    rng_seed = data.draw(st.integers(0, 2 ** 16))
    with_guide = irreducibility_probe(p, box, gens, rng_seed=rng_seed, extra_seeds=1)
    with mock.patch.object(submodules, "_close_seed",
                           functools.partial(_exact_close_seed, screen=True)):
        without = irreducibility_probe(p, box, gens, rng_seed=rng_seed, extra_seeds=1)
    assert json.dumps(with_guide, indent=2) == json.dumps(without, indent=2)


def test_probe_closes_exactly_where_p_divides_L():
    # alpha's denominator is the spin's default prime: the engine steps
    # below it, and the screen and the guide close every seed
    p = ModuleParams((F(1, _SCREEN_PRIME), 0), (0, 0), _rep(1, "natural"))
    box, gens = Box(3, 2), GeneratorSet(2, 2)
    runs = []
    with _count_runs(runs):
        report = irreducibility_probe(p, box, gens)
    assert runs == []
    assert report["verdict"] == "PROPER"
    with mock.patch.object(submodules, "_close_seed", _exact_close_seed):
        exact = irreducibility_probe(p, box, gens)
    assert json.dumps(report, indent=2) == json.dumps(exact, indent=2)


@pytest.mark.parametrize("prime", [3, 5, 7])
def test_probe_falls_back_when_the_guide_misses_rows(monkeypatch, prime):
    expected = _probe_bytes()
    # a small prime makes the guide miss rows, and the exact engine completes
    # the short family W' from all of its rows
    guided = _ClosureEngine.guided_run
    run = _ClosureEngine.run
    families, completions = [], []
    monkeypatch.setattr(submodules, "_spin_prime", _small_prime(prime, 3, 5, 7))
    monkeypatch.setattr(_ClosureEngine, "guided_run",
                        lambda self, seed: families.append(guided(self, seed)) or families[-1])
    monkeypatch.setattr(_ClosureEngine, "run",
                        lambda self, seeds: completions.append((_by_grade(self, families[-1]),
                                                                seeds))
                        or run(self, seeds))
    assert _probe_bytes() == expected
    assert completions
    for family, seeds in completions:
        assert sorted((gv.grade, _int_row(gv.payload)) for gv in seeds) == sorted(
            (g, tuple(row)) for g, ech in family.items() for row in ech.rows)
    assert any(len(seeds) > 1 for _, seeds in completions)


# (n, rep, alpha, box, gens): probes where a seed lies at grade 0 in a
# family an earlier seed closed to.  Natural V at n=2 and alpha (0, 0, -2/5,
# 0) puts basis:2's delta1 line inside basis:1's larger family, and
# fundamental:2 gives basis:1 a grade-0 rank (3) above the dimension (2) of
# basis:0's family, which does not hold it.
_REUSE_CASES = [
    (2, "natural", (F(1, 3), 0, 0, 0), 2, 1),
    (2, "natural", (0, 0, F(-2, 5), 0), 2, 1),
    (2, "fundamental:2", (F(1, 3), 0, 0, 0), 2, 1),
    (3, "natural", (F(1, 3), 0, 0, 0, 0, 0), 1, 1),
]


def _closures_by_seed(monkeypatch, n, spec, alpha, box, gens) -> tuple:
    """Run the probe; (engine, seed, inner radius, the probe's closure or None
    when full on the inner box) for each seed it closes, and the number of
    closures it took from a family it already held."""
    N = 2 * n
    p = ModuleParams(alpha, (0,) * N, _rep(n, spec))
    close = submodules._close_seed
    known = submodules._known_closure
    closed, taken = [], []

    def close_spy(engine, seed, gens, *a):
        closed.append((engine, seed, box - gens.radius, close(engine, seed, gens, *a)))
        return closed[-1][3]

    def known_spy(*a):
        taken.append(known(*a))
        return taken[-1]

    with monkeypatch.context() as m:
        m.setattr(submodules, "_close_seed", close_spy)
        m.setattr(submodules, "_known_closure", known_spy)
        irreducibility_probe(p, Box(box, N), GeneratorSet(gens, N))
    return closed, sum(t is not None for t in taken)


def _assert_exact_closures(closed: list):
    for engine, seed, inner, got in closed:
        if got is None:
            assert _full_on_inner(engine, seed, inner), seed.payload
        else:
            assert _family_key(got) == _family_key(engine.run_grid([seed])), seed.payload


@pytest.mark.parametrize("n,spec,alpha,box,gens", _REUSE_CASES)
def test_known_closure_is_the_exact_closure(monkeypatch, n, spec, alpha, box, gens):
    closed, taken = _closures_by_seed(monkeypatch, n, spec, alpha, box, gens)
    assert taken
    _assert_exact_closures(closed)


def _use_small_prime(m):
    """The guide at a small prime, with no transport before it."""
    m.setattr(submodules, "_spin_prime", _small_prime(3, 5, 7))
    m.setattr(_ClosureEngine, "transport", lambda self, seed: None)


def _drop_outer_shell(m):
    """Transported and guided families less their grades on the box's outer
    shell: each holds the closure's grade 0 but misses rows elsewhere."""
    def short(engine, family):
        if family is not None:
            family = family.copy()
            family[np.abs(engine.index.coords).max(axis=1) == engine.box.radius] = 0
            return submodules._normalized(family)

    for name in ("transport", "guided_run"):
        close = getattr(_ClosureEngine, name)
        m.setattr(_ClosureEngine, name,
                  lambda self, seed, close=close: short(self, close(self, seed)))


@pytest.mark.parametrize("short_guide", [_use_small_prime, _drop_outer_shell])
def test_known_closure_is_never_a_family_that_failed_its_recheck(monkeypatch, short_guide):
    # guided families miss rows and fail their re-checks, and the exact
    # engine completes them.  A short family that holds the completed
    # family's grade 0 holds a later seed: that seed must take the completed
    # family, not the short one
    failed = []
    recheck = submodules._recheck

    def recheck_spy(*a):
        out = recheck(*a)
        failed.append(not out[0])
        return out

    short_guide(monkeypatch)
    monkeypatch.setattr(submodules, "_recheck", recheck_spy)
    closed, taken = _closures_by_seed(monkeypatch, *_REUSE_CASES[0])
    assert taken and any(failed)
    _assert_exact_closures(closed)


def test_grade_zero_spin_runs_once_per_seed_line(monkeypatch):
    # the screen, the reuse of a known closure and transport share one spin
    # per line
    spans = submodules._ModpSpans
    images_span = _ClosureEngine._images_span
    spin = _ClosureEngine._grade_zero_spin
    counts = {"one_grade": 0, "images": 0}
    asked = []

    def one_grade(p, count, dim):
        counts["one_grade"] += count == 1
        return spans(p, count, dim)

    def count_images(self, *a):
        counts["images"] += 1
        return images_span(self, *a)

    monkeypatch.setattr(submodules, "_ModpSpans", one_grade)
    monkeypatch.setattr(_ClosureEngine, "_images_span", count_images)
    monkeypatch.setattr(_ClosureEngine, "_grade_zero_spin",
                        lambda self, seed: asked.append(submodules._seed_key(seed))
                        or spin(self, seed))
    closed, taken = _closures_by_seed(monkeypatch, *_REUSE_CASES[0])
    assert taken
    spins = counts["one_grade"] - counts["images"]
    assert spins == len(set(asked)) < len(asked)


# -- transport along invertible steps --------------------------------------

Q31, Q61, Q40 = 2 ** 31 - 1, 2 ** 61 - 1, 3 ** 40
# (n, rep, alpha, box, gens): axis and generic alphas (two nonzero
# coordinates) at q = 7, 2^31-1, 2^61-1 and 3^40 (past int64 from the first
# images of U_0 on), and integral alphas, where the walk misses the grade
# -alpha
_TRANSPORT_CASES = [
    (2, "natural", (F(2, 7), 0, 0, 0), 2, 1),
    (2, "fundamental:2", (F(1, 7), F(3, 7), 0, 0), 2, 1),
    (2, "natural", (F(1, Q31), 0, F(-3, Q31), 0), 2, 1),
    (2, "fundamental:2", (F(2, Q31), 0, 0, 0), 2, 1),
    (2, "natural", (F(1, Q61), F(3, Q61), 0, 0), 2, 1),
    (2, "fundamental:2", (F(2, Q61), 0, 0, 0), 2, 1),
    (2, "natural", (0, 0, -1, 0), 2, 1),
    (2, "fundamental:2", (0, 0, -1, 0), 2, 1),
    (3, "natural", (F(1, 3), 0, 0, 0, 0, 0), 1, 1),
    (2, "natural", (F(1, Q40), 0, F(2, Q40), 0), 2, 1),
]


def _engine(n, spec, alpha, box, gens) -> _ClosureEngine:
    N = 2 * n
    return _ClosureEngine(ModuleParams(alpha, (0,) * N, _rep(n, spec)), Box(box, N),
                          GeneratorSet(gens, N))


@pytest.mark.parametrize("n,spec,alpha,box,gens", _TRANSPORT_CASES)
def test_transport_is_the_exact_closure(n, spec, alpha, box, gens):
    engine = _engine(n, spec, alpha, box, gens)
    seeds = _probe_seeds(engine.dim, 0xC0FFEE, 1)
    # basis:0, basis:1 and random:0
    for name, payload in seeds[:2] + seeds[-1:]:
        seed = GradedVector((0,) * (2 * n), payload)
        got = engine.transport(seed)
        assert got is not None, name
        # the grid the helper makes of the exact engine's echelons, entry for
        # entry and in the same shape and dtype
        want = engine.run_grid([seed])
        assert (got.shape, got.dtype) == (want.shape, want.dtype), name
        assert (got == want).all(), name
        assert _family_key(got) == _family_key(want), name
        if n == 2 and spec in ("natural", "fundamental:2"):
            # every closure path hands over the same family key
            assert _family_key(engine.guided_run(seed)) == _family_key(want), name
    # the walk over the whole box, which transport reads, and over the inner
    # box, which the screen reads
    for radius in (box, box - gens):
        idx, layers, (_, _, tgt) = engine._walk(radius)
        reached = {idx.encode_one((0,) * idx.N)}.union(*(layer[2].tolist() for layer in layers))
        missed = set(range(idx.count)) - reached
        # every missed grade is a target of the rest
        assert set(tgt.tolist()) == missed, radius
        missed = {tuple(idx.coords[t].tolist()) for t in missed}
        if all(F(a).denominator == 1 for a in alpha) and max(map(abs, alpha)) <= radius:
            assert missed == {tuple(-a for a in alpha)}, radius
        else:
            assert missed == set(), radius


@pytest.mark.parametrize("p", [7, 101, _SCREEN_PRIME])
def test_rational_lift(p):
    bound = isqrt(p // 2)
    rng = random.Random(p)
    for _ in range(200):
        x = F(rng.randint(-bound, bound), rng.randint(1, bound))
        assert submodules._rational_lift(x.numerator * pow(x.denominator, -1, p), p) == x
    # at p = 7 the bound is 1: only 0 and +-1 reconstruct
    if p == 7:
        assert [submodules._rational_lift(a, p) for a in range(7)] == [0, 1, None, None,
                                                                        None, None, -1]


def _exact_probe_bytes() -> list:
    with mock.patch.object(submodules, "_close_seed", _exact_close_seed):
        return _probe_bytes()


def test_probe_falls_back_when_the_lift_fails(monkeypatch):
    expected = _exact_probe_bytes()
    assert _probe_bytes() == expected
    transported, guided = [], []
    monkeypatch.setattr(submodules, "_rational_lift", lambda a, p: None)
    close = _ClosureEngine.transport
    monkeypatch.setattr(_ClosureEngine, "transport",
                        lambda self, seed: transported.append(close(self, seed)) or transported[-1])
    run = _ClosureEngine.guided_run
    monkeypatch.setattr(_ClosureEngine, "guided_run",
                        lambda self, seed: guided.append(seed) or run(self, seed))
    assert _probe_bytes() == expected
    assert transported and all(t is None for t in transported)
    assert len(guided) == len(transported)


# (n, rep, alpha, box, gens) at alpha = 0, where every step out of grade 0
# has scalar (bar r, 0) = 0
_ZERO_ALPHA_CASES = [
    (1, "natural", (0, 0), 4, 1),
    (1, "sym:2", (0, 0), 4, 1),
    (2, "natural", (0, 0, 0, 0), 2, 1),
]


@pytest.mark.parametrize("n,spec,alpha,box,gens", _ZERO_ALPHA_CASES)
def test_probe_skips_transport_at_alpha_zero(monkeypatch, n, spec, alpha, box, gens):
    # the walk reaches no grade, so transport gives no family and costs no
    # re-check; the guide closes every seed, with the exact engine's bytes
    N = 2 * n
    p = ModuleParams(alpha, (0,) * N, _rep(n, spec))
    box, gens = Box(box, N), GeneratorSet(gens, N)
    with mock.patch.object(submodules, "_close_seed", _exact_close_seed):
        exact = json.dumps(irreducibility_probe(p, box, gens), indent=2)
    transported, rechecks = [], []
    recheck = submodules._enumerate_invariance
    monkeypatch.setattr(submodules, "_enumerate_invariance",
                        lambda *a, **k: rechecks.append(1) or recheck(*a, **k))
    close = _ClosureEngine.transport
    monkeypatch.setattr(_ClosureEngine, "transport",
                        lambda self, seed: transported.append((self, close(self, seed)))
                        or transported[-1][1])
    assert json.dumps(irreducibility_probe(p, box, gens), indent=2) == exact
    assert transported and all(u is None for _, u in transported)
    # the walk has no layer, so it misses every grade but 0; the rest holds
    # the steps out of grade 0, one per grade within the generator radius,
    # and the screen never carries
    for eng in {eng for eng, _ in transported}:
        assert not eng._carries
        for radius in (eng.box.radius, eng.inner_radius):
            idx, layers, rest = eng._walk(radius)
            assert layers == [], radius
            near = np.abs(idx.coords).max(axis=1)
            assert (rest[0] == idx.encode_one((0,) * idx.N)).all()
            assert rest[2].tolist() == np.flatnonzero((near > 0) & (near <= gens.radius)).tolist()
    with_transport = len(rechecks)
    rechecks.clear()
    monkeypatch.setattr(_ClosureEngine, "transport", lambda self, seed: None)
    assert json.dumps(irreducibility_probe(p, box, gens), indent=2) == exact
    assert with_transport == len(rechecks)


@pytest.mark.parametrize("n,spec,alpha,box,gens", [
    (2, "natural", (F(1, 3), 0, 0, 0), 2, 1),
    (2, "fundamental:2", (1, 0, 0, 0), 2, 1),
    (1, "natural", (0, 0), 4, 1),
])
def test_probe_builds_each_walk_once(monkeypatch, n, spec, alpha, box, gens):
    # the screen reads the walk over the inner box and transport the walk
    # over the whole box; each is built once per engine, however many seeds
    # ask for it
    asked = []
    walk = _ClosureEngine._walk
    monkeypatch.setattr(_ClosureEngine, "_walk",
                        lambda self, radius: asked.append((self, radius, walk(self, radius)))
                        or asked[-1][2])
    N = 2 * n
    p = ModuleParams(alpha, (0,) * N, _rep(n, spec))
    irreducibility_probe(p, Box(box, N), GeneratorSet(gens, N))
    built = {}
    for engine, radius, out in asked:
        built.setdefault((engine, radius), set()).add(id(out))
    assert {radius for _, radius in built} == {box, box - gens}
    assert len({engine for engine, _ in built}) == 1
    assert all(len(outs) == 1 for outs in built.values())
    assert len(asked) > len(built)


def _perturbed_spin(perturbed: list):
    """A patch of ``_ClosureEngine._grade_zero_spin``: the RREF with one
    entry moved by 1 mod p, in a free column of a row the seed does not
    use, so the lifted U_0 still holds the seed and has the right dimension
    but is not W_0."""
    spin = _ClosureEngine._grade_zero_spin

    def wrong(self, seed):
        rank, rref = spin(self, seed)
        row = _int_row(seed.payload)
        pivots = np.argmax(rref != 0, axis=1)
        free = [m for m in range(self.dim) if m not in pivots]
        unused = [k for k, q in enumerate(pivots) if row[q] == 0]
        if not free or not unused:
            return rank, rref
        rref = rref.copy()
        rref[unused[0], free[0]] = (rref[unused[0], free[0]] + 1) % self._modp[0]
        perturbed.append(seed)
        return rank, rref
    return wrong


def test_probe_falls_back_when_the_lift_is_wrong(monkeypatch):
    expected = _exact_probe_bytes()
    perturbed, rechecked = [], []
    monkeypatch.setattr(_ClosureEngine, "_grade_zero_spin", _perturbed_spin(perturbed))
    close = _ClosureEngine.transport

    def transport(self, seed):
        perturbed.clear()
        out = close(self, seed)
        if perturbed:
            # the wrong U_0 passes the lift's checks, and U its re-check never
            assert out is not None
            family = TruncatedModule(self.p, self.box, grid=out)
            gens = GeneratorSet(int(self.table.offsets.max()), self.box.N)
            rechecked.append(bool(_enumerate_invariance(family, gens, engine=self)["failures"]))
        return out

    monkeypatch.setattr(_ClosureEngine, "transport", transport)
    assert _probe_bytes() == expected
    assert rechecked and all(rechecked)


def test_transport_refuses_a_grade_zero_that_is_not_the_seeds():
    # natural V at alpha (0, 0, -2/5, 0): basis:2 closes to the delta1 line,
    # which lies in basis:1's family, whose grade 0 has dimension 3
    engine = _engine(*_REUSE_CASES[1])
    zero = (0, 0, 0, 0)
    line, big = (GradedVector(zero, tuple(F(int(i == j)) for j in range(4))) for i in (2, 1))
    rank_line, rref_line = engine._grade_zero_spin(line)
    rank_big, rref_big = engine._grade_zero_spin(big)
    assert (rank_line, rank_big) == (1, 3)
    inner = _inner_gids(engine)
    with mock.patch.object(_ClosureEngine, "_grade_zero_spin",
                           lambda self, seed: (rank_line, rref_big)):
        # an invariant family that holds the seed, but too large at grade 0
        assert engine.transport(line) is None
        got = _close_seed(engine, line, GeneratorSet(1, 4), inner, {})
        assert _family_key(got) == _family_key(engine.run_grid([line]))
    other = np.zeros_like(rref_line)
    other[0, 3] = 1
    with mock.patch.object(_ClosureEngine, "_grade_zero_spin",
                           lambda self, seed: (rank_line, other)):
        # a grade 0 of the right dimension that does not hold the seed
        assert engine.transport(line) is None


# (n, rep, alpha, box, gens, seeds or None for the probe's own).  The
# crafted seeds put multiples of the grade-0 line of the delta1 family, which
# fill only that line, next to a seed of the same support that fills V.
_CACHE_CASES = [
    (1, "natural", (F(-3, 7), 0), 6, 2, None),
    (1, "natural", (F(1, 3), F(1, 3)), 3, 2,
     [(1, 1), (1, 2), (-2, -2), (F(1, 2), F(1, 2)), (2, 1), (1, 0)]),
    (2, "natural", (F(1, 3), 0, 0, 0), 2, 1, None),
    (2, "fundamental:2", (F(1, 3), 0, 0, 0), 2, 1, None),
    (1, "trivial", (1, 1), 3, 2, None),
    (2, "trivial", (1, 0, -1, 0), 2, 1, None),
    (1, "sym:2", (F(1, 3), 0), 3, 2, None),
    (2, "sym:2", (F(1, 3), 0, 0, 0), 2, 1, None),
]


def _cached_probe_bytes(monkeypatch) -> list:
    out = []
    for n, spec, alpha, box, gens, seeds in _CACHE_CASES:
        p = ModuleParams(alpha, (0,) * (2 * n), _rep(n, spec))
        with monkeypatch.context() as m:
            if seeds is not None:
                named = [(f"crafted:{i}", tuple(F(x) for x in v)) for i, v in enumerate(seeds)]
                m.setattr(submodules, "_probe_seeds", lambda *a: named)
            report = irreducibility_probe(p, Box(box, 2 * n), GeneratorSet(gens, 2 * n))
        out.append(json.dumps(report, sort_keys=True, indent=2).encode())
    return out


def test_probe_reports_do_not_depend_on_the_caches(monkeypatch):
    counts = {"closures": 0, "recheck": 0}

    def count_closure(out):
        counts["closures"] += 1
        return out

    for name in ("transport", "guided_run", "run"):
        close = getattr(_ClosureEngine, name)
        monkeypatch.setattr(_ClosureEngine, name,
                            lambda self, *a, close=close: count_closure(close(self, *a)))
    recheck = submodules._enumerate_invariance
    monkeypatch.setattr(submodules, "_enumerate_invariance",
                        lambda *a, **k: counts.update(recheck=counts["recheck"] + 1)
                        or recheck(*a, **k))
    cached = _cached_probe_bytes(monkeypatch)
    with_caches = dict(counts)
    counts.update(closures=0, recheck=0)
    # a fresh key on every call and no known closure: no seed, no family and
    # no closure is ever reused
    monkeypatch.setattr(submodules, "_seed_key", lambda gv: object())
    monkeypatch.setattr(submodules, "_family_key", lambda grid: object())
    monkeypatch.setattr(submodules, "_known_closure", lambda *a: None)
    assert _cached_probe_bytes(monkeypatch) == cached
    assert with_caches["closures"] < counts["closures"]
    assert with_caches["recheck"] < counts["recheck"]


# -- the span of the closed words at grade 0 --------------------------------

# alpha = (c_0/q, ..., c_{N-1}/q) at the alpha denominators q of the spin:
# 134217689 is the default spin prime, which the spin then steps below
SPAN_DENOMINATORS = (1, 7, Q31, Q61, Q40, _SCREEN_PRIME)
_SPAN_NUMERATORS = {1: (1, -2), 2: (1, 0, -3, 0)}
_SPAN_CASES = [(n, spec, tuple(F(c, q) for c in _SPAN_NUMERATORS[n]), 1, 1)
               for n, spec in [(1, "natural"), (1, "sym:2"), (1, "trivial"), (2, "natural"),
                               (2, "fundamental:2"), (2, "sym:2"), (2, "trivial")]
               for q in SPAN_DENOMINATORS]
_SPAN_CASES += [(n, spec, (0,) * (2 * n), 1, 1)
                for n, spec in [(1, "natural"), (2, "natural"), (2, "fundamental:2")]]
_SPAN_CASES += [(3, "natural", (F(1, 3), 0, 0, 0, 0, 0), 1, 1)]


def _word_spin(engine: _ClosureEngine, seed: GradedVector) -> tuple:
    """The oracle of ``_ClosureEngine._grade_zero_spin``: (rank, RREF) over
    F_p of the seed's rows at grade 0 pushed through every closed word,
    round by round, until no new row appears or the rank is dim."""
    dim, p = engine.dim, engine._modp[0]
    offsets = engine.table.offsets
    spans = submodules._ModpSpans(p, 1, dim)
    zero = np.zeros(1, dtype=np.int64)
    frontier = spans.insert(zero, np.array([[v % p for v in _int_row(seed.payload)]]))
    while len(frontier) and spans.rank[0] < dim:
        new = []
        for words in engine._words:
            for w0 in range(0, len(words), 2048):
                w, i = np.divmod(np.arange(min(2048, len(words) - w0) * len(frontier)),
                                 len(frontier))
                y, src = frontier[i], np.zeros((len(i), offsets.shape[1]), dtype=np.int64)
                for j in words[w0 + w].T:
                    y = engine._step(src, y, j)
                    src = src + offsets[j]
                new += [rows for _, _, rows in spans.absorb(zero.repeat(len(y)), y)]
        frontier = np.concatenate(new) if new else []
    P = spans.P[0]
    return int(spans.rank[0]), P[P.any(axis=1)]


def _span_mismatches(n, spec, alpha, box, gens) -> list:
    """The probe seeds whose grade-0 spin under the basis of the words'
    span S gives another (rank, RREF) than the spin through every word."""
    engine = _engine(n, spec, alpha, box, gens)
    engine._span = engine._word_span()
    assert len(engine._span) <= engine.dim ** 2
    bad = []
    for name, payload in _probe_seeds(engine.dim, 0xC0FFEE, 4):
        seed = GradedVector((0,) * (2 * n), payload)
        rank, rref = engine._grade_zero_spin(seed)
        want_rank, want_rref = _word_spin(engine, seed)
        if rank != want_rank or not np.array_equal(rref, want_rref):
            bad.append(name)
    return bad


@pytest.mark.parametrize("n,spec,alpha,box,gens", _SPAN_CASES)
def test_spin_under_the_word_span_is_the_word_spin(n, spec, alpha, box, gens):
    assert _span_mismatches(n, spec, alpha, box, gens) == []


def test_a_word_span_short_by_one_matrix_is_caught(monkeypatch):
    span = _ClosureEngine._word_span
    monkeypatch.setattr(_ClosureEngine, "_word_span", lambda self: span(self)[:-1])
    assert any(_span_mismatches(*case) for case in _SPAN_CASES
               if case[:2] in {(1, "natural"), (2, "natural"), (2, "fundamental:2")})


def test_word_span_reduction_stays_in_int64():
    # dim^2 pivots of residues near p - 1: one sum over all of them passes
    # 2^63, so the reduction must sum at most dim pivots at a time
    dim = 24
    p = submodules._spin_prime(dim, 1)
    k = dim * dim
    assert k * (p - 1) ** 2 >= 2 ** 63 > (dim + 1) * (p - 1) ** 2
    rng = np.random.default_rng(26)
    width = k + 8
    pivots = rng.permutation(width)[:k]
    rref = rng.integers(p - 1000, p, (k, width))
    rref[:, pivots] = np.eye(k, dtype=np.int64)
    v = rng.integers(p - 1000, p, (3, width))
    got = submodules._reduce_mod_p(v, rref, pivots, p, dim)
    rows = rref.tolist()
    for row, res in zip(v.tolist(), got.tolist()):
        want = list(row)
        for q, pivot_row in zip(pivots.tolist(), rows):
            want = [a - row[q] * b for a, b in zip(want, pivot_row)]
        assert res == [a % p for a in want]


def test_word_span_is_built_only_by_a_spin_below_dim(monkeypatch):
    built = []
    span = _ClosureEngine._word_span
    monkeypatch.setattr(_ClosureEngine, "_word_span",
                        lambda self: built.append(self) or span(self))
    # probes where every seed fills grade 0 never build S
    for spec, alpha in [("sym:2", (F(1, 3), 0, 0, 0)), ("trivial", (F(1, 2), 0, F(2, 7), 0))]:
        p = ModuleParams(alpha, (0,) * 4, _rep(2, spec))
        assert irreducibility_probe(p, Box(2, 4), GeneratorSet(1, 4))["verdict"] == "FULL"
    # nor do the exact closure and the enumeration
    p = ModuleParams((F(1, 3), 0), (0, 0), _rep(1, "natural"))
    box, gens = Box(2, 2), GeneratorSet(1, 2)
    closure([GradedVector((0, 0), (1, 0))], p, box, gens)
    invariance_check(build_submodule("delta1", p, box), gens, method="enumerate")
    assert built == []
    # a PROPER probe builds it once, for its one engine, though several of
    # its seed lines stay below dim
    below = set()
    spin = _ClosureEngine._grade_zero_spin

    def spin_spy(self, seed):
        out = spin(self, seed)
        if out[0] < self.dim:
            below.add(submodules._seed_key(seed))
        return out

    monkeypatch.setattr(_ClosureEngine, "_grade_zero_spin", spin_spy)
    p = ModuleParams((F(1, 3), 0, 0, 0), (0,) * 4, _rep(2, "natural"))
    assert irreducibility_probe(p, Box(2, 4), GeneratorSet(1, 4))["verdict"] == "PROPER"
    assert len(built) == 1 and len(below) > 1


# -- canonical scalars against a pure-Fraction oracle ----------------------

CANON_DENOMINATORS = (1, 2, 7, 2 ** 61 - 1, 3 ** 40)
# ints, and Fractions that may or may not reduce to an integer
_scalar = st.one_of(
    st.integers(-4, 4),
    st.builds(F, st.integers(-4, 4), st.sampled_from(CANON_DENOMINATORS)),
)


def _canonical(x) -> bool:
    return type(x) is int or (type(x) is F and x.denominator != 1)


def _assert_matrix(m: SparseMatrix, want: list):
    assert all(_canonical(v) and v != 0 for v in m.entries.values())
    assert m.to_rows() == want


def _assert_vector(got: tuple, want: tuple):
    assert all(_canonical(x) for x in got)
    assert got == want


def _dense(data, rows, cols) -> list:
    return [[data.draw(_scalar) for _ in range(cols)] for _ in range(rows)]


def _sparse(rows: list) -> SparseMatrix:
    return SparseMatrix(len(rows), len(rows[0]),
                        {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})


def _fsum(terms):
    return sum(terms, F(0))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_arithmetic_matches_fraction_oracle(data):
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b, d = _dense(data, r, k), _dense(data, r, k), _dense(data, k, c)
    fa, fb, fd = ([[F(x) for x in row] for row in m] for m in (a, b, d))
    ma, mb, md = _sparse(a), _sparse(b), _sparse(d)
    _assert_matrix(ma + mb, [[x + y for x, y in zip(u, v)] for u, v in zip(fa, fb)])
    _assert_matrix(ma - mb, [[x - y for x, y in zip(u, v)] for u, v in zip(fa, fb)])
    _assert_matrix(ma @ md, [[_fsum(fa[i][t] * fd[t][j] for t in range(k)) for j in range(c)]
                             for i in range(r)])
    s = data.draw(_scalar)
    _assert_matrix(ma.scale(s), [[F(s) * x for x in row] for row in fa])
    u = [data.draw(_scalar) for _ in range(k)]
    v = [data.draw(_scalar) for _ in range(k)]
    _assert_vector(ma.matvec(v), tuple(_fsum(fa[i][t] * F(v[t]) for t in range(k))
                                       for i in range(r)))
    _assert_vector((pairing(u, v),), (_fsum(F(x) * F(y) for x, y in zip(u, v)),))


def _sp_coeffs_oracle(m: list, n: int) -> dict:
    """sp basis coefficients of a dense Fraction matrix, read by block position."""
    coeffs = {f"h{a + 1}": m[a][a] for a in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j:
                coeffs[f"X(e{i + 1}-e{j + 1})"] = m[i][j]
    for k in range(n):
        coeffs[f"X(2e{k + 1})"] = m[k][n + k] / 2
        coeffs[f"X(-2e{k + 1})"] = m[n + k][k] / 2
        for l in range(k + 1, n):
            coeffs[f"X(e{k + 1}+e{l + 1})"] = m[k][n + l]
            coeffs[f"X(-e{k + 1}-e{l + 1})"] = m[n + k][l]
    return {label: c for label, c in coeffs.items() if c}


def _combine_oracle(coeffs: dict, matrices: dict, dim: int) -> list:
    out = [[F(0)] * dim for _ in range(dim)]
    for label, c in coeffs.items():
        for (i, j), v in matrices[label].entries.items():
            out[i][j] += F(c) * F(v)
    return out


CANON_REPS = [(1, "natural"), (1, "sym:2"), (2, "natural"), (2, "fundamental:2")]


@pytest.mark.parametrize("n,spec", CANON_REPS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_combine_and_sp_decompose_match_fraction_oracle(n, spec, data):
    rep = _rep(n, spec)
    alg = rep.alg
    coeffs = {label: data.draw(_scalar) for label in alg.labels if data.draw(st.booleans())}
    want = _combine_oracle(coeffs, alg.matrices, alg.N)
    m = combine(coeffs, alg.matrices, alg.N, alg.N)
    _assert_matrix(m, want)
    got = sp_decompose(m, alg)
    assert all(_canonical(c) for c in got.values())
    assert got == _sp_coeffs_oracle(want, n) == {k: v for k, v in coeffs.items() if v}
    _assert_matrix(combine(coeffs, rep.action, rep.dim, rep.dim),
                   _combine_oracle(coeffs, rep.action, rep.dim))


@pytest.mark.parametrize("n,spec", CANON_REPS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_act_H_matches_fraction_oracle(n, spec, data):
    rep = _rep(n, spec)
    N = rep.alg.N
    q = data.draw(st.sampled_from(CANON_DENOMINATORS))
    alpha = tuple(F(data.draw(st.integers(-2 * q, 2 * q)), q) for _ in range(N))
    p = ModuleParams(alpha, (0,) * N, rep)
    grade = tuple(data.draw(st.integers(-3, 3)) for _ in range(N))
    payload = tuple(data.draw(_scalar) for _ in range(rep.dim))
    r = tuple(data.draw(st.integers(-2, 2)) for _ in range(N))
    assume(any(r))
    got = act_H(r, GradedVector(grade, payload), p)
    # ((bar r, s + alpha) I + rho(r bar(r)^t)) v, all in Fraction
    rb = r[n:] + tuple(-x for x in r[:n])
    c = _fsum(F(rb[i]) * (F(grade[i]) + alpha[i]) for i in range(N))
    rr = [[F(r[i]) * F(rb[j]) for j in range(N)] for i in range(N)]
    rho = _combine_oracle(_sp_coeffs_oracle(rr, n), rep.action, rep.dim)
    want = tuple(_fsum(rho[i][j] * F(payload[j]) for j in range(rep.dim)) + c * F(payload[i])
                 for i in range(rep.dim))
    assert got.grade == tuple(g + x for g, x in zip(grade, r))
    _assert_vector(got.payload, want)


POLY_DENOMINATORS = (1, 7, 2 ** 61 - 1, 3 ** 40)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_poly_product_matches_fraction_oracle(data):
    # rectangular (rows x inner) @ (inner x cols) matrix polynomials in two
    # variables, coefficients ints and Fractions that may reduce to ints
    rows, inner, cols = (data.draw(st.integers(1, 3)) for _ in range(3))
    scalar = st.one_of(st.integers(-4, 4),
                       st.builds(F, st.integers(-4, 4), st.sampled_from(POLY_DENOMINATORS)))
    monos = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=3, unique=True)

    def draw(r, c):
        return {e: [[data.draw(scalar) for _ in range(c)] for _ in range(r)]
                for e in data.draw(monos)}

    a, b = draw(rows, inner), draw(inner, cols)
    want: dict = {}
    for e1, m1 in a.items():
        for e2, m2 in b.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            acc = want.setdefault(e, [[F(0)] * cols for _ in range(rows)])
            for i in range(rows):
                for j in range(cols):
                    acc[i][j] += _fsum(F(m1[i][t]) * F(m2[t][j]) for t in range(inner))
    got = (MatrixPolynomial(2, (rows, inner), {e: _sparse(m) for e, m in a.items()})
           @ MatrixPolynomial(2, (inner, cols), {e: _sparse(m) for e, m in b.items()}))
    assert got.shape == (rows, cols)
    want = {e: m for e, m in want.items() if any(any(row) for row in m)}
    assert set(got.terms) == set(want)
    for e, m in want.items():
        _assert_matrix(got.coefficient(e), m)
    assert got.coefficient((9, 9)) == SparseMatrix(rows, cols)
    with pytest.raises(ValueError):
        got @ MatrixPolynomial(2, (cols + 1, 1))
    with pytest.raises(ValueError):
        got + MatrixPolynomial(2, (rows, cols + 1))


def test_division_sites_stay_exact_on_integer_input():
    # the three true divisions get all-int input: none may give a float
    basis = Subspace.from_vectors([[2, 1]], 2).basis
    assert basis == ((1, F(1, 2)),) and all(type(v) is F for v in basis[0])
    ((_, weight),) = highest_weight_vectors(_rep(1, "sym:2"))
    assert weight == (2,) and type(weight[0]) is int
    alg = build_sp(2, verify=False)
    coeffs = sp_decompose(alg.matrices["X(2e1)"], alg)
    assert coeffs == {"X(2e1)": 1} and type(coeffs["X(2e1)"]) is int
