"""Action of the Hamiltonian generators on F^{alpha,beta}(V).

H_r sends v tensor t^s to ((bar r, s+alpha)I + rho(r bar(r)^t))v tensor
t^{r+s}; d_i scales by s_i + beta_i.  The coefficient systems g1 and g2
are carried around as exact matrix-valued polynomials in s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .linalg import SparseMatrix, canon, format_scalar, vec_is_zero
from .reps import Representation
from .symplectic import _unit, bar, combine, pairing, rank_one, sp_decompose


@dataclass(frozen=True)
class GradedVector:
    grade: tuple
    payload: tuple

    def __post_init__(self):
        object.__setattr__(self, "grade", tuple(int(x) for x in self.grade))
        object.__setattr__(self, "payload", tuple(canon(x) for x in self.payload))

    def is_zero(self) -> bool:
        return vec_is_zero(self.payload)


class ModuleParams:
    """Parameters (alpha, beta, rep) of F^{alpha,beta}(V).  V enters the
    H-action only through rho(r bar(r)^t), read from the rep's table
    ``Representation.polarizations``."""

    def __init__(self, alpha, beta, rep: Representation):
        N = rep.alg.N
        self.alpha = tuple(canon(a) for a in alpha)
        self.beta = tuple(canon(b) for b in beta)
        if len(self.alpha) != N or len(self.beta) != N:
            raise ValueError(f"alpha and beta must have length {N}")
        self.rep = rep

    def rho_rank_one(self, r) -> SparseMatrix:
        """rho(r bar(r)^t) = sum_{a<=b} r_a r_b rho(C_ab)."""
        table = self.rep.polarizations
        coeffs = {(a, b): r[a] * r[b] for a, b in table if r[a] and r[b]}
        return combine(coeffs, table, self.rep.dim, self.rep.dim)


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def act_H(r, x: GradedVector, p: ModuleParams) -> GradedVector:
    r = tuple(int(v) for v in r)
    if all(v == 0 for v in r):
        raise ValueError("H_0 is not a generator of the Hamiltonian algebra")
    s_alpha = tuple(g + a for g, a in zip(x.grade, p.alpha))
    c = pairing(bar(r), s_alpha)
    rho = p.rho_rank_one(r)
    out = list(rho.matvec(x.payload))
    if c != 0:
        out = [y + c * v for y, v in zip(out, x.payload)]
    return GradedVector(_vec_add(x.grade, r), tuple(out))


def act_d(i: int, x: GradedVector, p: ModuleParams) -> GradedVector:
    if not (1 <= i <= p.rep.alg.N):
        raise ValueError(f"derivation index {i} out of range 1..{p.rep.alg.N}")
    c = canon(x.grade[i - 1] + p.beta[i - 1])
    return GradedVector(x.grade, tuple(c * v for v in x.payload))


def verify_ham_bracket(r, s, x: GradedVector, p: ModuleParams):
    """[H_r, H_s] x == (bar r, s) H_{r+s} x, exactly.

    Returns True/False, or None when a precondition (r, s, r+s all
    nonzero) fails; such cases are skipped, not errors.
    """
    r = tuple(int(v) for v in r)
    s = tuple(int(v) for v in s)
    rs = _vec_add(r, s)
    if all(v == 0 for v in r) or all(v == 0 for v in s) or all(v == 0 for v in rs):
        return None
    lhs1 = act_H(r, act_H(s, x, p), p)
    lhs2 = act_H(s, act_H(r, x, p), p)
    c = pairing(bar(r), s)
    rhs = act_H(rs, x, p)
    diff = tuple(a - b for a, b in zip(lhs1.payload, lhs2.payload))
    want = tuple(c * v for v in rhs.payload)
    return lhs1.grade == lhs2.grade == rhs.grade and diff == want


class MatrixPolynomial:
    """Polynomial in nvars variables whose coefficients are exact
    (rows x cols) matrices: an exponent tuple keys each coefficient."""

    def __init__(self, nvars: int, shape: tuple, terms: dict | None = None):
        self.nvars = nvars
        self.shape = tuple(shape)
        self.terms = {}
        if terms:
            for e, m in terms.items():
                if not m.is_zero():
                    self.terms[tuple(e)] = m

    @classmethod
    def linear(cls, nvars: int, coeffs: dict) -> "MatrixPolynomial":
        """sum_i x_i M_i for coeffs {i: M_i}, all M_i of one shape."""
        m = next(iter(coeffs.values()))
        return cls(nvars, (m.rows, m.cols), {_mono(nvars, i): c for i, c in coeffs.items()})

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def coefficient(self, exponent) -> SparseMatrix:
        return self.terms.get(tuple(exponent), SparseMatrix(*self.shape))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return self.shape == other.shape and self.terms == other.terms

    def __add__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        terms = dict(self.terms)
        for e, m in other.terms.items():
            terms[e] = terms[e] + m if e in terms else m
        return MatrixPolynomial(self.nvars, self.shape, terms)

    def __matmul__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        terms: dict = {}
        for e1, m1 in self.terms.items():
            for e2, m2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = m1 @ m2
                terms[e] = terms[e] + prod if e in terms else prod
        return MatrixPolynomial(self.nvars, (self.shape[0], other.shape[1]), terms)

    def sub(self, r) -> "MatrixPolynomial":
        """P(r - x) as a polynomial in x, for this P(x): each x_i^d becomes
        sum_j C(d, j) r_i^(d-j) (-1)^j x_i^j."""
        r = [canon(v) for v in r]
        terms: dict = {}
        for e, m in self.terms.items():
            for f in itertools.product(*(range(d + 1) for d in e)):
                c = 1
                for d, j, ri in zip(e, f, r):
                    c *= comb(d, j) * ri ** (d - j) * (-1) ** j
                if c:
                    m_c = m.scale(c)
                    terms[f] = terms[f] + m_c if f in terms else m_c
        return MatrixPolynomial(self.nvars, self.shape, terms)

    def evaluate(self, s) -> SparseMatrix:
        s = [canon(v) for v in s]
        out = SparseMatrix(*self.shape)
        for e, m in self.terms.items():
            c = 1
            for exp, val in zip(e, s):
                c *= val ** exp
            out = out + m.scale(c)
        return out


def _mono(nvars: int, *idxs) -> tuple:
    e = [0] * nvars
    for i in idxs:
        e[i] += 1
    return tuple(e)


def _bar_linear_terms(c, N: int) -> dict:
    """(bar s, c) = -(s, bar c) as a linear polynomial: exponent tuple -> scalar."""
    return {_mono(N, j): -canon(x) for j, x in enumerate(bar(c)) if x != 0}


def _scalar_times_identity(scalars: dict, dim: int, N: int) -> MatrixPolynomial:
    eye = SparseMatrix.identity(dim)
    return MatrixPolynomial(N, (dim, dim), {e: eye.scale(c) for e, c in scalars.items()})


def _rho_quadratic(p: ModuleParams) -> MatrixPolynomial:
    """rho(s bar(s)^t) as a quadratic matrix polynomial in s."""
    N = p.rep.alg.N
    terms = {_mono(N, a, b): m for (a, b), m in p.rep.polarizations.items()}
    return MatrixPolynomial(N, (p.rep.dim, p.rep.dim), terms)


def g1_polynomial(r, p: ModuleParams) -> MatrixPolynomial:
    """(bar s, r+alpha) I + rho(s bar(s)^t), a degree-2 polynomial in s."""
    N = p.rep.alg.N
    c = tuple(a + b for a, b in zip(r, p.alpha))
    lin = _scalar_times_identity(_bar_linear_terms(c, N), p.rep.dim, N)
    return lin + _rho_quadratic(p)


def g2_polynomial(r, k, p: ModuleParams) -> MatrixPolynomial:
    """H_{r-s} H_s on grade k as a degree-4 polynomial in s: g1 at grade
    k + r taken at r - s, which is (bar(r-s), k+s+alpha) I +
    rho((r-s) bar(r-s)^t) as (bar(r-s), r-s) = 0, times g1 at grade k
    taken at s."""
    r = tuple(int(v) for v in r)
    k_r = tuple(a + b for a, b in zip(k, r))
    return g1_polynomial(k_r, p).sub(r) @ g1_polynomial(k, p)


def _report(check: str, params: dict, samples: int, passes: int, failures: list) -> dict:
    return {
        "check": check,
        "params": params,
        "samples": samples,
        "passes": passes,
        "failures": failures,
    }


def verify_g1(p: ModuleParams, r, samples: int, rng) -> dict:
    """Check g1 against its closed quadratic expansion and against the
    module action coefficient matrix on random integer points; there
    rho(s bar(s)^t) is decomposed directly, not read from the table g1
    is built from."""
    alg = p.rep.alg
    n, N = alg.n, alg.N
    act = p.rep.action
    g1 = g1_polynomial(r, p)
    failures = []
    total = 1

    if g1.degree() > 2:
        failures.append({"kind": "degree", "got": g1.degree()})

    expected = {}
    for a in range(n):
        expected[_mono(N, a, n + a)] = act[f"h{a + 1}"]
        expected[_mono(N, n + a, n + a)] = act[f"X(-2e{a + 1})"].scale(Fraction(1, 2))
        expected[_mono(N, a, a)] = act[f"X(2e{a + 1})"].scale(Fraction(-1, 2))
    for b in range(n):
        for c in range(n):
            if b != c:
                expected[_mono(N, b, n + c)] = act[f"X(e{b + 1}-e{c + 1})"]
    for d in range(n):
        for e in range(d + 1, n):
            expected[_mono(N, n + d, n + e)] = act[f"X(-e{d + 1}-e{e + 1})"]
            expected[_mono(N, d, e)] = act[f"X(e{d + 1}+e{e + 1})"].scale(-1)
    for exponent, mat in sorted(expected.items()):
        total += 1
        if g1.coefficient(exponent) != mat:
            failures.append({"kind": "coefficient", "exponent": list(exponent)})

    c_vec = tuple(a + b for a, b in zip(r, p.alpha))
    eye = SparseMatrix.identity(p.rep.dim)
    for _ in range(samples):
        total += 1
        s = tuple(rng.randint(-4, 4) for _ in range(N))
        if all(v == 0 for v in s):
            s = (1,) + s[1:]
        rho = combine(sp_decompose(rank_one(s), alg), act, p.rep.dim, p.rep.dim)
        direct = eye.scale(pairing(bar(s), c_vec)) + rho
        if g1.evaluate(s) != direct:
            failures.append({"kind": "evaluation", "s": list(s)})

    return _report(
        "g1",
        {"n": n, "rep": p.rep.name, "r": [str(int(v)) for v in r],
         "alpha": [format_scalar(a) for a in p.alpha]},
        total,
        total - len(failures),
        failures,
    )


def verify_g2_table(p: ModuleParams) -> dict:
    """Compare extracted degree-4 coefficients of g2 with the closed table."""
    alg = p.rep.alg
    n, N = alg.n, alg.N
    zero = (0,) * N
    g2 = g2_polynomial(zero, zero, p)

    def rho(label):
        return p.rep.action[label]

    rows = []
    for i in range(1, n + 1):
        rows.append(
            (f"s{i}^4", _mono(N, i - 1, i - 1, i - 1, i - 1),
             rho(f"X(2e{i})") @ rho(f"X(2e{i})"), Fraction(1, 4))
        )
        rows.append(
            (f"s{n + i}^4", _mono(N, n + i - 1, n + i - 1, n + i - 1, n + i - 1),
             rho(f"X(-2e{i})") @ rho(f"X(-2e{i})"), Fraction(1, 4))
        )
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rows.append(
                (f"s{i}^2*s{j}^2", _mono(N, i - 1, i - 1, j - 1, j - 1),
                 rho(f"X(e{i}+e{j})") @ rho(f"X(e{i}+e{j})")
                 + (rho(f"X(2e{i})") @ rho(f"X(2e{j})")).scale(Fraction(1, 2)), 1)
            )
            rows.append(
                (f"s{n + i}^2*s{n + j}^2",
                 _mono(N, n + i - 1, n + i - 1, n + j - 1, n + j - 1),
                 rho(f"X(-e{i}-e{j})") @ rho(f"X(-e{i}-e{j})")
                 + (rho(f"X(-2e{j})") @ rho(f"X(-2e{i})")).scale(Fraction(1, 2)), 1)
            )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            rows.append(
                (f"s{i}^2*s{n + j}^2", _mono(N, i - 1, i - 1, n + j - 1, n + j - 1),
                 rho(f"X(e{i}-e{j})") @ rho(f"X(e{i}-e{j})")
                 - (rho(f"X(-2e{j})") @ rho(f"X(2e{i})")).scale(Fraction(1, 2)), 1)
            )
            rows.append(
                (f"s{i}^3*s{n + j}", _mono(N, i - 1, i - 1, i - 1, n + j - 1),
                 (rho(f"X(e{i}-e{j})") @ rho(f"X(2e{i})")).scale(-1), 1)
            )

    failures = []
    for name, exponent, table_matrix, scale in rows:
        got = g2.coefficient(exponent)
        want = table_matrix.scale(scale)
        if got != want:
            failures.append({"monomial": name, "exponent": list(exponent)})
    return _report(
        "g2_table",
        {"n": n, "rep": p.rep.name},
        len(rows),
        len(rows) - len(failures),
        failures,
    )


def verify_named_actions(p: ModuleParams, samples: int, rng) -> dict:
    """The three closed-form generator actions on random graded vectors."""
    alg = p.rep.alg
    n, N, dim = alg.n, alg.N, p.rep.dim
    failures = []
    total = 0

    def rand_gv():
        grade = tuple(rng.randint(-4, 4) for _ in range(N))
        payload = tuple(rng.randint(-5, 5) for _ in range(dim))
        return GradedVector(grade, payload)

    def apply(mat, scale, v):
        return tuple(scale * y for y in mat.matvec(v))

    for _ in range(samples):
        x = rand_gv()
        k = x.grade
        i = rng.randint(1, n)
        j = rng.randint(1, n)

        total += 1
        got = act_H(_unit(N, i - 1), x, p)
        c = -(k[n + i - 1] + p.alpha[n + i - 1])
        want = tuple(
            c * v + w
            for v, w in zip(x.payload, apply(p.rep.action[f"X(2e{i})"], Fraction(-1, 2), x.payload))
        )
        if got.payload != want or got.grade != _vec_add(k, _unit(N, i - 1)):
            failures.append({"item": 1, "i": i, "grade": list(k)})

        total += 1
        got = act_H(_unit(N, n + i - 1), x, p)
        c = k[i - 1] + p.alpha[i - 1]
        want = tuple(
            c * v + w
            for v, w in zip(x.payload, apply(p.rep.action[f"X(-2e{i})"], Fraction(1, 2), x.payload))
        )
        if got.payload != want or got.grade != _vec_add(k, _unit(N, n + i - 1)):
            failures.append({"item": 2, "i": i, "grade": list(k)})

        if i != j:
            total += 1
            r = _vec_add(_unit(N, i - 1), _unit(N, n + j - 1))
            got = act_H(r, x, p)
            c = k[j - 1] + p.alpha[j - 1] - k[n + i - 1] - p.alpha[n + i - 1]
            term = [c * v for v in x.payload]
            for mat, scale in (
                (p.rep.action[f"X(e{i}-e{j})"], 1),
                (p.rep.action[f"X(-2e{j})"], Fraction(1, 2)),
                (p.rep.action[f"X(2e{i})"], Fraction(-1, 2)),
            ):
                add = apply(mat, scale, x.payload)
                term = [a + b for a, b in zip(term, add)]
            if got.payload != tuple(term) or got.grade != _vec_add(k, r):
                failures.append({"item": 3, "i": i, "j": j, "grade": list(k)})

    return _report(
        "named_actions",
        {"n": n, "rep": p.rep.name, "alpha": [format_scalar(a) for a in p.alpha]},
        total,
        total - len(failures),
        failures,
    )


def verify_shift_isomorphism(gamma, p: ModuleParams, samples: int, rng) -> dict:
    """v tensor t^r -> v tensor t^{r-gamma} intertwines (alpha,beta) with
    (alpha+gamma, beta+gamma)."""
    gamma = tuple(int(v) for v in gamma)
    alg = p.rep.alg
    N, dim = alg.N, p.rep.dim
    shifted = ModuleParams(
        tuple(a + g for a, g in zip(p.alpha, gamma)),
        tuple(b + g for b, g in zip(p.beta, gamma)),
        p.rep,
    )

    def phi(x: GradedVector) -> GradedVector:
        return GradedVector(tuple(a - g for a, g in zip(x.grade, gamma)), x.payload)

    failures = []
    failed_samples = 0
    for _ in range(samples):
        grade = tuple(rng.randint(-4, 4) for _ in range(N))
        payload = tuple(rng.randint(-5, 5) for _ in range(dim))
        x = GradedVector(grade, payload)
        r = tuple(rng.randint(-3, 3) for _ in range(N))
        before = len(failures)
        if any(v != 0 for v in r):
            if phi(act_H(r, x, p)) != act_H(r, phi(x), shifted):
                failures.append({"kind": "H", "grade": list(grade), "r": list(r)})
        i = rng.randint(1, N)
        if phi(act_d(i, x, p)) != act_d(i, phi(x), shifted):
            failures.append({"kind": "d", "grade": list(grade), "i": i})
        if len(failures) > before:  # a sample can fail both the H and the d leg
            failed_samples += 1
    return _report(
        "shift_isomorphism",
        {
            "n": alg.n,
            "rep": p.rep.name,
            "gamma": [str(g) for g in gamma],
            "alpha": [format_scalar(a) for a in p.alpha],
        },
        samples,
        samples - failed_samples,
        failures,
    )
