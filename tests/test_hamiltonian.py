"""Module action, bracket law, and the g1/g2 coefficient systems."""

import random
from fractions import Fraction

import pytest

from hamlie import hamiltonian, reps
from hamlie.hamiltonian import (
    GradedVector,
    ModuleParams,
    act_H,
    act_d,
    g1_polynomial,
    g2_polynomial,
    verify_g1,
    verify_g2_table,
    verify_ham_bracket,
    verify_named_actions,
    verify_shift_isomorphism,
)
from hamlie.linalg import SparseMatrix
from hamlie.reps import build_rep, natural_rep, trivial_rep
from hamlie.symplectic import build_sp

F = Fraction


def _params(n, spec, alpha=None, beta=None):
    alg = build_sp(n, verify=False)
    rep = build_rep(alg, spec)
    N = alg.N
    alpha = alpha or (0,) * N
    beta = beta or (0,) * N
    return ModuleParams(alpha, beta, rep)


@pytest.mark.parametrize("bad", [0.1, 0.0, 1.0])
def test_graded_vector_rejects_floats(bad):
    with pytest.raises(TypeError):
        GradedVector((0,), (bad,))
    with pytest.raises(TypeError):
        _params(1, "natural", alpha=(bad, 0))


def test_graded_vector_payload_is_canonical():
    x = GradedVector((0, 0), (F(4, 2), F(1, 2), 3))
    assert [type(v) for v in x.payload] == [int, F, int]


def test_act_H_natural_n1():
    p = _params(1, "natural")
    out = act_H((0, 1), GradedVector((0, 0), (1, 0)), p)
    assert out.grade == (0, 1)
    assert out.payload == (F(0), F(1))
    out = act_H((1, 0), GradedVector((0, 0), (1, 0)), p)
    assert out.is_zero()


def test_act_H_trivial_line_annihilated():
    p = _params(1, "trivial", alpha=(1, 0))
    x = GradedVector((-1, 0), (1,))
    for r in [(1, 0), (0, 1), (2, -1), (-1, -1)]:
        assert act_H(r, x, p).is_zero()


def test_act_H_rejects_zero():
    p = _params(1, "natural")
    with pytest.raises(ValueError):
        act_H((0, 0), GradedVector((0, 0), (1, 0)), p)


def test_act_d():
    p = _params(1, "natural", beta=(F(1, 2), 0))
    x = GradedVector((2, 0), (1, 3))
    out = act_d(1, x, p)
    assert out.grade == x.grade
    assert out.payload == (F(5, 2), F(15, 2))
    assert act_d(2, GradedVector((0, 0), (1, 1)), p).is_zero()
    y = act_d(1, act_d(2, x, p), p)
    z = act_d(2, act_d(1, x, p), p)
    assert y == z
    with pytest.raises(ValueError):
        act_d(3, x, p)


def test_bracket_hand_example():
    # n=1, alpha=0: [H_(1,0), H_(0,1)] e1 t^0 = (-e1-e2) t^(1,1)
    p = _params(1, "natural")
    x = GradedVector((0, 0), (1, 0))
    a = act_H((1, 0), act_H((0, 1), x, p), p)
    b = act_H((0, 1), act_H((1, 0), x, p), p)
    lhs = tuple(u - v for u, v in zip(a.payload, b.payload))
    assert a.grade == (1, 1) and lhs == (F(-1), F(-1))
    assert verify_ham_bracket((1, 0), (0, 1), x, p) is True


def _bracket_zero_sum(r, x: GradedVector, p: ModuleParams) -> bool:
    """[H_r, H_{-r}] acts as zero: the structure constant (bar r, -r)
    vanishes and no derivation term appears in the modeled action."""
    neg = tuple(-v for v in r)
    lhs1 = act_H(r, act_H(neg, x, p), p)
    lhs2 = act_H(neg, act_H(r, x, p), p)
    return lhs1.grade == lhs2.grade == x.grade and lhs1.payload == lhs2.payload


def test_bracket_skips_and_diagonal():
    p = _params(1, "natural")
    x = GradedVector((1, 2), (2, -3))
    assert verify_ham_bracket((1, 1), (-1, -1), x, p) is None
    assert verify_ham_bracket((0, 0), (1, 0), x, p) is None
    assert verify_ham_bracket((1, 1), (1, 1), x, p) is True
    assert _bracket_zero_sum((1, 2), x, p)


def test_bracket_random_sweep():
    rng = random.Random(3)
    for spec in ["natural", "fundamental:2"]:
        p = _params(2, spec, alpha=(F(1, 2), 0, F(1, 3), 0))
        dim = p.rep.dim
        for _ in range(40):
            r = tuple(rng.randint(-2, 2) for _ in range(4))
            s = tuple(rng.randint(-2, 2) for _ in range(4))
            x = GradedVector(
                tuple(rng.randint(-2, 2) for _ in range(4)),
                tuple(F(rng.randint(-4, 4)) for _ in range(dim)),
            )
            assert verify_ham_bracket(r, s, x, p) is not False


def test_g1_coefficients_n1():
    p = _params(1, "natural")
    g1 = g1_polynomial((0, 0), p)
    assert g1.degree() <= 2
    # s1^2 coefficient is -(1/2) rho(X(2e1)) = [[0,-1],[0,0]]
    assert g1.coefficient((2, 0)) == SparseMatrix.from_rows([[0, -1], [0, 0]])
    assert g1.coefficient((1, 1)) == SparseMatrix.from_rows([[1, 0], [0, -1]])
    assert g1.coefficient((0, 0)).is_zero()


def test_g1_report():
    rng = random.Random(5)
    p = _params(2, "sym:2", alpha=(F(1, 3), 0, 0, 0))
    report = verify_g1(p, (1, 0, -1, 2), 20, rng)
    assert report["failures"] == []


@pytest.mark.parametrize("n, spec", [(1, "natural"), (2, "natural"), (1, "sym:2"), (2, "sym:2")])
def test_sub_substitutes_r_minus_x(n, spec):
    # P.sub(r) is the polynomial x -> P(r - x), compared at random rational points
    N = 2 * n
    rng = random.Random(13)
    p = _params(n, spec, alpha=tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(N)))
    for _ in range(3):
        g1 = g1_polynomial(tuple(rng.randint(-2, 2) for _ in range(N)), p)
        r = tuple(rng.randint(-3, 3) for _ in range(N))
        sub = g1.sub(r)
        assert sub.degree() == g1.degree() == 2
        for _ in range(4):
            x = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(N))
            assert sub.evaluate(x) == g1.evaluate(tuple(a - b for a, b in zip(r, x)))


def test_g2_trivial_rep_identity():
    # trivial rep with (bar r, k+alpha) = 0: the product collapses to
    # -(bar s, r+k+alpha)(bar s, k+alpha)
    from hamlie.symplectic import bar, pairing

    p = _params(1, "trivial", alpha=(F(1, 2), 0))
    r, k = (3, 2), (1, 1)
    kalpha = tuple(F(a) + b for a, b in zip(k, p.alpha))
    assert pairing(bar(r), kalpha) == 0
    g2 = g2_polynomial(r, k, p)
    rng = random.Random(9)
    for _ in range(10):
        s = tuple(rng.randint(-3, 3) for _ in range(2))
        val = g2.evaluate(s).get(0, 0)
        ralpha = tuple(F(a) + b for a, b in zip((x + y for x, y in zip(r, k)), p.alpha))
        assert val == -pairing(bar(s), ralpha) * pairing(bar(s), kalpha)


@pytest.mark.parametrize("spec", ["trivial", "natural", "sym:2", "fundamental:2"])
def test_g2_matches_composed_action(spec):
    # g2(r, k)(s) is H_{r-s} H_s on grade k, applied by act_H to each basis vector
    N = 4
    p = _params(2, spec, alpha=(F(1, 3),) + (0,) * (N - 1))
    dim = p.rep.dim
    rng = random.Random(37)
    columns = 0
    for _ in range(3):
        r = tuple(rng.randint(-2, 2) for _ in range(N))
        k = tuple(rng.randint(-2, 2) for _ in range(N))
        g2 = g2_polynomial(r, k, p)
        for _ in range(3):
            s = tuple(rng.randint(-2, 2) for _ in range(N))
            r_s = tuple(a - b for a, b in zip(r, s))
            if not any(s) or not any(r_s):
                continue
            got = g2.evaluate(s)
            for j in range(dim):
                x = GradedVector(k, tuple(int(i == j) for i in range(dim)))
                y = act_H(r_s, act_H(s, x, p), p)
                assert y.grade == tuple(a + b for a, b in zip(k, r))
                assert y.payload == tuple(got.get(i, j) for i in range(dim)), (r, k, s, j)
                columns += 1
    assert columns > 0


def test_g2_s1_fourth_coefficient():
    p = _params(1, "natural")
    g2 = g2_polynomial((1, 1), (0, 0), p)
    assert g2.coefficient((4, 0)).is_zero()
    padj = _params(1, "sym:2")
    g2 = g2_polynomial((1, 1), (0, 0), padj)
    x = padj.rep.act("X(2e1)")
    assert g2.coefficient((4, 0)) == (x @ x).scale(F(1, 4))


def test_g2_table_reports():
    for n, spec in [(1, "natural"), (2, "natural"), (2, "fundamental:2")]:
        alpha = (F(1, 2),) + (0,) * (2 * n - 1)
        p = _params(n, spec, alpha=alpha)
        report = verify_g2_table(p)
        assert report["failures"] == []
        assert report["passes"] == report["samples"] > 0


def test_named_actions_reports():
    rng = random.Random(13)
    for n, spec in [(1, "natural"), (2, "fundamental:2")]:
        p = _params(n, spec, alpha=(F(1, 3),) + (0,) * (2 * n - 1))
        report = verify_named_actions(p, 30, rng)
        assert report["failures"] == []


def test_shift_isomorphism_reports():
    rng = random.Random(17)
    p = _params(1, "natural", alpha=(F(1, 2), 0), beta=(0, 1))
    report = verify_shift_isomorphism((0, 0), p, 20, rng)
    assert report["failures"] == []
    report = verify_shift_isomorphism((1, 0), p, 100, rng)
    assert report["failures"] == []
    p2 = _params(2, "fundamental:2", alpha=(F(1, 3), 0, 0, 0))
    report = verify_shift_isomorphism((0, 1, 1, 0), p2, 100, rng)
    assert report["failures"] == []


def test_shift_isomorphism_counts_failing_samples(monkeypatch):
    # shifted parameters off by one in every entry break both the H and the
    # d leg of a sample; passes counts samples, so it never goes below 0
    params = hamiltonian.ModuleParams
    monkeypatch.setattr(hamiltonian, "ModuleParams", lambda alpha, beta, rep: params(
        [a + 1 for a in alpha], [b + 1 for b in beta], rep))
    p = _params(1, "natural", alpha=(F(1, 2), 0))
    report = verify_shift_isomorphism((1, 0), p, 5, random.Random(31))
    assert len(report["failures"]) > report["samples"] == 5
    assert report["passes"] == 0


def test_shift_isomorphism_builds_one_table(monkeypatch):
    # p and the shifted parameters share one rep, so rho(C_ab) is
    # decomposed once per pair a <= b and no r bar(r)^t is decomposed
    p = _params(2, "fundamental:2", alpha=(F(1, 3), 0, 0, 0))
    calls = []
    for mod in (hamiltonian, reps):
        decompose = mod.sp_decompose
        monkeypatch.setattr(mod, "sp_decompose",
                            lambda m, alg, f=decompose: calls.append(1) or f(m, alg))
    report = verify_shift_isomorphism((1, 0, -1, 2), p, 40, random.Random(19))
    assert report["failures"] == []
    assert len(calls) == 4 * 5 // 2


@pytest.mark.parametrize("n,spec", [(1, "natural"), (2, "fundamental:2")])
def test_g1_evaluation_is_independent_of_the_table(n, spec):
    # a wrong rho(C_00) reaches g1 through the table; the evaluation leg
    # decomposes s bar(s)^t directly, so it must catch it too
    N = 2 * n
    p = _params(n, spec, alpha=(F(1, 2),) + (0,) * (N - 1))
    table = p.rep.polarizations
    table[(0, 0)] = table[(0, 0)].scale(2)
    report = verify_g1(p, (0,) * N, 20, random.Random(23))
    kinds = {f["kind"] for f in report["failures"]}
    assert {"coefficient", "evaluation"} <= kinds
