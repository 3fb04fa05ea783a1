"""sp_2n construction, bar map, pairing, decomposition, heights."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlie import cli, symplectic
from hamlie.linalg import SparseMatrix
from hamlie.symplectic import (
    SpAlgebra,
    SpBasisElement,
    SpBasisError,
    bar,
    basis_failures,
    bracket,
    build_sp,
    is_symplectic,
    pairing,
    positive_roots,
    rank_one,
    root_height,
    sp_decompose,
    sym_outer,
)

F = Fraction


def test_n1_basis_matrices():
    alg = build_sp(1)
    assert alg.dim == 3
    assert alg.matrices["h1"] == SparseMatrix.from_rows([[1, 0], [0, -1]])
    assert alg.matrices["X(2e1)"] == SparseMatrix.from_rows([[0, 2], [0, 0]])
    assert alg.matrices["X(-2e1)"] == SparseMatrix.from_rows([[0, 0], [2, 0]])


def test_dim_formula():
    for n in range(1, 5):
        assert build_sp(n, verify=True).dim == 2 * n * n + n


def _loop_failures(alg):
    """The reference check, one ordered pair at a time: sp_decompose of
    every bracket, then is_symplectic of every basis element."""
    out = []
    for x in alg.basis:
        for y in alg.basis:
            try:
                sp_decompose(bracket(x.matrix, y.matrix), alg)
            except ValueError:
                out.append({"bracket": [x.label, y.label]})
    return out + [{"symplectic": b.label} for b in alg.basis if not is_symplectic(b.matrix, alg.n)]


def _mutated(n, label, change):
    """The sp_2n basis with ``change`` applied to the entries of ``label``."""
    basis = []
    for b in build_sp(n, verify=False).basis:
        if b.label == label:
            entries = dict(b.matrix.entries)
            change(entries)
            b = SpBasisElement(label, SparseMatrix(2 * n, 2 * n, entries))
        basis.append(b)
    return basis


def _moved(n):
    # h1's -1 at (n, n) moved one column to the right, cyclically
    def change(entries):
        entries[(n, (n + 1) % (2 * n))] = entries.pop((n, n))
    return _mutated(n, "h1", change)


def _halved(n):
    # X(2e1) = e_{1,n+1} instead of 2 e_{1,n+1}: still symplectic, and its
    # brackets are caught only through the halved readout
    def change(entries):
        entries[(0, n)] = 1
    return _mutated(n, "X(2e1)", change)


def _negated(n):
    def change(entries):
        entries[(n, n)] = -entries[(n, n)]
    return _mutated(n, "h1", change)


def test_closure_pass_matches_the_pair_loop():
    for n in range(1, 6):
        alg = build_sp(n, verify=False)
        assert basis_failures(alg) == _loop_failures(alg) == []


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mutation", [_moved, _halved, _negated])
def test_mutated_bases_rejected_by_pass_and_loop(mutation, n):
    alg = SpAlgebra(n, mutation(n))
    failures = basis_failures(alg)
    assert failures == _loop_failures(alg)
    assert any("bracket" in f for f in failures)
    assert any("symplectic" in f for f in failures) == (mutation is not _halved)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_pass_matches_the_pair_loop_on_random_mutations(data):
    n = data.draw(st.integers(1, 3))
    N = 2 * n
    label = data.draw(st.sampled_from(build_sp(n, verify=False).labels))
    pos = (data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1)))
    value = data.draw(st.integers(-2, 2))
    alg = SpAlgebra(n, _mutated(n, label, lambda entries: entries.__setitem__(pos, value)))
    assert basis_failures(alg) == _loop_failures(alg)


def test_closure_pass_refuses_entries_it_cannot_hold_exactly():
    for value in (F(1, 2), 2**9):
        alg = SpAlgebra(1, _mutated(1, "h1", lambda entries: entries.__setitem__((0, 0), value)))
        with pytest.raises(ValueError):
            basis_failures(alg)


@pytest.mark.parametrize("mutation,kind", [(_halved, "bracket"), (_negated, "symplectic")])
def test_sp_check_lists_basis_failures(mutation, kind, monkeypatch, tmp_path, capsys):
    # a basis that fails the check is a failed check (exit 1), not an input
    # error or a crash
    basis = mutation(2)
    want = _loop_failures(SpAlgebra(2, basis))
    monkeypatch.setattr(symplectic, "_basis", lambda n: basis)
    with pytest.raises(SpBasisError):
        build_sp(2)
    out = tmp_path / "report.json"
    assert cli.main(["sp-check", "--n", "2", "--samples", "5", "--output", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["failures"][:len(want)] == want
    assert any(kind in f for f in want)
    assert report["passes"] == 5 - len(report["failures"][len(want):])
    assert "FAILED" in capsys.readouterr().out


def test_sp_check_leaves_numpy_ma_unimported():
    # numpy.ma costs resident memory on its first import (np.unique pulls it in)
    code = ("import io, sys, contextlib\n"
            "from hamlie.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['sp-check', '--n', '5']) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_bracket_examples():
    alg = build_sp(1)
    x = alg.matrices["X(2e1)"]
    y = alg.matrices["X(-2e1)"]
    h = alg.matrices["h1"]
    assert bracket(x, x).is_zero()
    assert bracket(x, y) == h.scale(4)
    assert bracket(h, x) == x.scale(2)


def test_bar_examples():
    assert bar((1, 2, 3, 4)) == (3, 4, -1, -2)
    assert bar((1, 0)) == (0, -1)
    rng = random.Random(7)
    for _ in range(20):
        r = tuple(rng.randint(-9, 9) for _ in range(6))
        assert bar(bar(r)) == tuple(-x for x in r)


def test_pairing_examples():
    assert pairing((1, 0), (1, 0)) == 1
    assert pairing(bar((1, 2, 3, 4)), (1, 0, 0, 0)) == 3
    assert pairing(bar((1, 0, 0, 0)), (1, 2, 3, 4)) == -3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_pairing_antisymmetry(r, s):
    assert pairing(bar(r), s) == -pairing(bar(s), r)
    assert pairing(bar(r), r) == 0


def test_symplectic_condition():
    for n in (1, 2, 3):
        alg = build_sp(n, verify=False)
        for label in alg.labels:
            assert is_symplectic(alg.matrices[label], n)


def test_decompose_g1_instance():
    # s = (1,1): s sbar^t = [[1,-1],[1,-1]] with known coefficients
    alg = build_sp(1)
    coeffs = sp_decompose(rank_one((1, 1)), alg)
    assert coeffs["h1"] == 1
    assert coeffs["X(-2e1)"] == F(1, 2)
    assert coeffs["X(2e1)"] == F(-1, 2)


def test_decompose_zero_and_error():
    alg = build_sp(2, verify=False)
    assert all(v == 0 for v in sp_decompose(SparseMatrix.zero(4, 4), alg).values())
    with pytest.raises(ValueError):
        sp_decompose(SparseMatrix.identity(4), alg)


def test_rank_one_membership_random():
    rng = random.Random(11)
    for n in (1, 2, 3):
        alg = build_sp(n, verify=False)
        for _ in range(30):
            r = tuple(rng.randint(-6, 6) for _ in range(2 * n))
            coeffs = sp_decompose(rank_one(r), alg)
            assert isinstance(coeffs, dict)


def test_root_heights_n2():
    assert root_height((1, -1), 2).height == 1
    datum = root_height((1, 1), 2)
    assert datum.height == 2
    assert datum.simple_coeffs == (1, 1)
    datum = root_height((2, 0), 2)
    assert datum.height == 3
    assert datum.simple_coeffs == (2, 1)


def test_root_height_closed_forms():
    for n in range(1, 11):
        for root in positive_roots(n):
            datum = root_height(root, n)
            nz = [(i, c) for i, c in enumerate(root) if c != 0]
            if len(nz) == 2 and nz[0][1] == 1 and nz[1][1] == -1:
                i, j = nz[0][0] + 1, nz[1][0] + 1
                if j == i + 1:
                    assert datum.height == 1
            elif all(c >= 0 for c in root):
                idxs = [i + 1 for i, c in enumerate(root) for _ in range(c)]
                i, j = idxs[0], idxs[-1]
                assert datum.height == 2 * n - (i + j) + 1


def _sym_outer_dense(u, v):
    """u bar(v)^t + v bar(u)^t entry by entry over all N^2 positions."""
    ub, vb = bar(u), bar(v)
    N = len(u)
    entries = {}
    for i in range(N):
        for j in range(N):
            val = F(u[i]) * F(vb[j]) + F(v[i]) * F(ub[j])
            if val != 0:
                entries[(i, j)] = val
    return SparseMatrix(N, N, entries)


_rationals = st.one_of(
    st.just(0), st.fractions(min_value=-5, max_value=5, max_denominator=7))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sym_outer_matches_dense_formula(data):
    n = data.draw(st.integers(1, 3))
    u = [data.draw(_rationals) for _ in range(2 * n)]
    v = [data.draw(_rationals) for _ in range(2 * n)]
    got = sym_outer(u, v)
    want = _sym_outer_dense(u, v)
    assert got == want and list(got.entries) == list(want.entries)
    # canonical scalars: an int exactly when the value is integral, else a
    # Fraction, never a float
    assert all(type(x) is (int if F(x).denominator == 1 else F)
               for x in got.entries.values())
