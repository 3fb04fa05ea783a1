"""Representation constructions: powers, contraction kernels, irreducibility."""

import itertools
from fractions import Fraction
from math import comb

import pytest

from hamlie.linalg import SparseMatrix, nullspace
from hamlie.reps import (
    build_rep,
    contraction_theta,
    cyclic_span,
    exterior_power,
    fundamental_rep,
    highest_weight_vectors,
    is_irreducible,
    natural_rep,
    rep_from_obj,
    symmetric_power,
    trivial_rep,
    verify_intertwiner,
)
from hamlie.symplectic import build_sp

F = Fraction


def test_natural_rep():
    alg = build_sp(2, verify=False)
    rep = natural_rep(alg)
    assert rep.dim == 4
    assert rep.weights == [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for label in alg.labels:
        assert rep.act(label) == alg.matrices[label]
    assert is_irreducible(rep)


def test_natural_rep_n1_weights():
    rep = natural_rep(build_sp(1, verify=False))
    assert rep.dim == 2
    assert rep.weights == [(1,), (-1,)]


def test_exterior_power_dims():
    rep = natural_rep(build_sp(2, verify=False))
    assert exterior_power(rep, 0).dim == 1
    k1 = exterior_power(rep, 1)
    assert k1.action == rep.action
    assert exterior_power(rep, 2).dim == 6


def test_symmetric_power_dims():
    n1 = natural_rep(build_sp(1, verify=False))
    assert symmetric_power(n1, 1).action == n1.action
    adj = symmetric_power(n1, 2)
    assert adj.dim == 3
    n2 = natural_rep(build_sp(2, verify=False))
    s2 = symmetric_power(n2, 2)
    assert s2.dim == 10
    assert is_irreducible(s2)
    hw = highest_weight_vectors(s2)
    assert len(hw) == 1 and hw[0][1] == (2, 0)


def test_theta_entries():
    alg = build_sp(2, verify=False)
    theta = contraction_theta(alg, 2)
    # wedge basis is lexicographic on index pairs
    idx = {tup: i for i, tup in enumerate(theta.source.basis_labels)}
    col_13 = idx[(0, 2)]
    col_12 = idx[(0, 1)]
    assert theta.matrix.get(0, col_13) == 1
    assert theta.matrix.get(0, col_12) == 0


def _slot_pair_theta(n, k):
    """theta_k by pairing wedge slots r < s (1-based r+1, s+1) through the
    symplectic form, (e_a, bar e_b), with sign (-1)^{(r+1)+(s+1)-1}: an
    oracle written independently of the interior products."""
    N = 2 * n
    tgt = {t: i for i, t in enumerate(itertools.combinations(range(N), k - 2))}
    entries = {}
    for col, tup in enumerate(itertools.combinations(range(N), k)):
        for r, s in itertools.combinations(range(k), 2):
            a, b = tup[r], tup[s]
            pair = (-1 if a == b + n else 0) if b < n else (1 if a == b - n else 0)
            if pair:
                rest = tup[:r] + tup[r + 1:s] + tup[s + 1:]
                key = (tgt[rest], col)
                entries[key] = entries.get(key, 0) + (1 if (r + s) % 2 else -1) * pair
    return SparseMatrix(len(tgt), comb(N, k), entries)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_theta_matches_slot_pair_formula(n):
    alg = build_sp(n, verify=False)
    for k in range(2, 2 * n + 1):
        want = _slot_pair_theta(n, k)
        assert not want.is_zero()
        assert contraction_theta(alg, k).matrix == want, k


def test_theta_intertwines():
    for n, k in [(2, 2), (3, 2), (3, 3)]:
        alg = build_sp(n, verify=False)
        ok, violations = verify_intertwiner(contraction_theta(alg, k))
        assert ok, violations


def test_theta_kernel_dims():
    for n, k in [(2, 2), (3, 2), (3, 3)]:
        alg = build_sp(n, verify=False)
        theta = contraction_theta(alg, k)
        want = comb(2 * n, k) - comb(2 * n, k - 2)
        assert nullspace(theta.matrix).dim == want


def test_fundamental_rep():
    alg = build_sp(2, verify=False)
    assert fundamental_rep(alg, 0).dim == 1
    assert fundamental_rep(alg, 1).action == natural_rep(alg).action
    v2 = fundamental_rep(alg, 2)
    assert v2.dim == 5
    assert is_irreducible(v2)
    with pytest.raises(ValueError):
        fundamental_rep(alg, 3)


def test_fundamental_dim_n3():
    alg = build_sp(3, verify=False)
    assert fundamental_rep(alg, 3).dim == 14


def test_bracket_preservation():
    alg = build_sp(2, verify=False)
    for rep in [natural_rep(alg), fundamental_rep(alg, 2), symmetric_power(natural_rep(alg), 2)]:
        for a in alg.labels[:4]:
            for b in alg.labels[4:8]:
                from hamlie.symplectic import bracket, sp_decompose

                coeffs = sp_decompose(bracket(alg.matrices[a], alg.matrices[b]), alg)
                lhs = rep.act(a) @ rep.act(b) - rep.act(b) @ rep.act(a)
                rhs = SparseMatrix.zero(rep.dim, rep.dim)
                for label, c in coeffs.items():
                    if c:
                        rhs = rhs + rep.act(label).scale(c)
                assert lhs == rhs


def test_highest_weight_vectors():
    alg = build_sp(2, verify=False)
    hw = highest_weight_vectors(natural_rep(alg))
    assert len(hw) == 1 and hw[0][1] == (1, 0)
    hw = highest_weight_vectors(trivial_rep(alg))
    assert len(hw) == 1 and hw[0][1] == (0, 0)
    hw = highest_weight_vectors(exterior_power(natural_rep(alg), 2))
    assert sorted(w for _, w in hw) == [(0, 0), (1, 1)]


def test_cyclic_span():
    alg = build_sp(2, verify=False)
    rep = natural_rep(alg)
    assert cyclic_span(rep, (0,) * 4).is_zero()
    assert cyclic_span(rep, (1, 2, 3, 4)).is_full()


def test_lambda2_reducible():
    alg = build_sp(2, verify=False)
    assert not is_irreducible(exterior_power(natural_rep(alg), 2))


def test_non_equivariant_map_rejected():
    from hamlie.reps import LinearMap

    alg = build_sp(2, verify=False)
    src = exterior_power(natural_rep(alg), 2)
    tgt = exterior_power(natural_rep(alg), 0)
    m = SparseMatrix.from_rows([[1, 2, 3, 4, 5, 6]])
    ok, violations = verify_intertwiner(LinearMap(src, tgt, m))
    assert not ok and violations


def test_rep_round_trip():
    alg = build_sp(2, verify=False)
    for spec in ["natural", "trivial", "fundamental:2", "sym:2", "exterior:2"]:
        rep = build_rep(alg, spec)
        assert rep_from_obj(rep.to_obj()) == rep


def test_malformed_rep_obj():
    with pytest.raises(ValueError):
        rep_from_obj({"n": 2, "name": "broken"})
