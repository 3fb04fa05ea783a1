"""Finite-dimensional sp_2n representations.

Wedge monomials are strictly increasing index tuples (0-based), ordered
lexicographically; a permutation of factors contributes its sign.  The
contraction theta_k = 1/2 sum_b iota_{e_b} iota_{bar e_b} is built from
the interior products, and its kernel realizes the fundamental module
V(delta_k) for k >= 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb

from .linalg import (
    SparseMatrix,
    Subspace,
    canon,
    format_scalar,
    nullspace,
    parse_scalar,
    unit_vector,
    vec_is_zero,
)
from .symplectic import (
    SpAlgebra,
    _unit,
    bar,
    bracket,
    build_sp,
    combine,
    polarization,
    sp_decompose,
)


@dataclass
class Representation:
    alg: SpAlgebra
    name: str
    dim: int
    basis_labels: list
    action: dict
    weights: list
    # for subrepresentations cut out of a wedge power: the ambient kernel
    subspace: Subspace | None = field(default=None, repr=False)

    def act(self, label: str) -> SparseMatrix:
        return self.action[label]

    @cached_property
    def polarizations(self) -> dict:
        """(a, b) -> rho(C_ab) for a <= b, built once per rep: every
        rho(r bar(r)^t) = sum_{a<=b} r_a r_b rho(C_ab) is read from it."""
        N = self.alg.N
        return {(a, b): combine(sp_decompose(polarization(N, a, b), self.alg),
                                self.action, self.dim, self.dim)
                for a in range(N) for b in range(a, N)}

    def to_obj(self) -> dict:
        return {
            "n": self.alg.n,
            "name": self.name,
            "dim": self.dim,
            "labels": [list(t) for t in self.basis_labels],
            "weights": [[format_scalar(w) for w in wt] for wt in self.weights],
            "action": {label: self.action[label].to_obj() for label in self.alg.labels},
        }

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (
            self.alg.n == other.alg.n
            and self.dim == other.dim
            and self.basis_labels == other.basis_labels
            and self.weights == other.weights
            and self.action == other.action
        )


@dataclass(frozen=True)
class LinearMap:
    source: Representation
    target: Representation
    matrix: SparseMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ValueError("linear map shape does not match source/target dims")


def _index_weight(i: int, n: int) -> tuple:
    w = [0] * n
    if i < n:
        w[i] = 1
    else:
        w[i - n] = -1
    return tuple(w)


def natural_rep(alg: SpAlgebra) -> Representation:
    N = alg.N
    weights = [_index_weight(i, alg.n) for i in range(N)]
    action = {b.label: b.matrix for b in alg.basis}
    return Representation(alg, "natural", N, [(i,) for i in range(N)], action, weights)


def trivial_rep(alg: SpAlgebra) -> Representation:
    action = {label: SparseMatrix(1, 1) for label in alg.labels}
    return Representation(alg, "trivial", 1, [()], action, [(0,) * alg.n])


def _sort_wedge(tup: tuple):
    """Sorted tuple and permutation sign, or (None, 0) on a repeat."""
    lst = list(tup)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(lst)):
        if lst[i - 1] == lst[i]:
            return None, 0
    return tuple(lst), sign


def _derivation_matrix(m: SparseMatrix, basis: list, index: dict, alternating: bool) -> SparseMatrix:
    """Extend m to the wedge (alternating) or symmetric power basis."""
    dim = len(basis)
    entries = {}
    by_col: dict[int, list] = {}
    for (i, j), v in m.entries.items():
        by_col.setdefault(j, []).append((i, v))
    for col, tup in enumerate(basis):
        for pos in range(len(tup)):
            hits = by_col.get(tup[pos])
            if not hits:
                continue
            for i, v in hits:
                new = tup[:pos] + (i,) + tup[pos + 1:]
                if alternating:
                    sorted_tup, sign = _sort_wedge(new)
                    if sorted_tup is None:
                        continue
                    coeff = v * sign
                else:
                    sorted_tup = tuple(sorted(new))
                    coeff = v
                key = (index[sorted_tup], col)
                entries[key] = entries.get(key, 0) + coeff
    return SparseMatrix(dim, dim, entries)


def exterior_power(rep: Representation, k: int) -> Representation:
    if not (0 <= k <= rep.dim):
        raise ValueError(f"wedge degree {k} out of range 0..{rep.dim}")
    basis = list(itertools.combinations(range(rep.dim), k))
    index = {t: i for i, t in enumerate(basis)}
    action = {
        label: _derivation_matrix(m, basis, index, alternating=True)
        for label, m in rep.action.items()
    }
    weights = [
        tuple(sum(rep.weights[i][a] for i in t) for a in range(rep.alg.n)) for t in basis
    ]
    return Representation(rep.alg, f"exterior:{k}", len(basis), basis, action, weights)


def symmetric_power(rep: Representation, k: int) -> Representation:
    if k < 0:
        raise ValueError("symmetric power degree must be non-negative")
    basis = list(itertools.combinations_with_replacement(range(rep.dim), k))
    index = {t: i for i, t in enumerate(basis)}
    action = {
        label: _derivation_matrix(m, basis, index, alternating=False)
        for label, m in rep.action.items()
    }
    weights = [
        tuple(sum(rep.weights[i][a] for i in t) for a in range(rep.alg.n)) for t in basis
    ]
    return Representation(rep.alg, f"sym:{k}", len(basis), basis, action, weights)


def theta_matrix(N: int, k: int) -> SparseMatrix:
    """The matrix of theta_k = 1/2 sum_b iota_{e_b} iota_{bar e_b}:
    Lambda^k -> Lambda^{k-2} of an N-dimensional space, with bar(e_b) =
    sgn_b e_{j_b} read from ``symplectic.bar``."""
    if k < 2 or k > N:
        raise ValueError(f"contraction degree {k} must be in 2..{N}")
    total = SparseMatrix(comb(N, k - 2), comb(N, k))
    for b in range(N):
        j, sgn = next((j, c) for j, c in enumerate(bar(_unit(N, b))) if c)
        total = total + (interior_matrix(N, k - 1, b) @ interior_matrix(N, k, j)).scale(sgn)
    return total.scale(Fraction(1, 2))


def contraction_theta(alg: SpAlgebra, k: int) -> LinearMap:
    """theta_k (``theta_matrix``) as a map between the representations
    Lambda^k and Lambda^{k-2}."""
    matrix = theta_matrix(alg.N, k)
    nat = natural_rep(alg)
    return LinearMap(exterior_power(nat, k), exterior_power(nat, k - 2), matrix)


def subrepresentation(rep: Representation, space: Subspace, name: str) -> Representation:
    """Restrict rep to an invariant subspace given in canonical RREF basis.

    With E the embedding (columns = basis rows), the restriction of rho(x)
    is the R with E R = rho(x) E.  In an RREF basis the coordinates of a
    vector are its pivot entries, so R is the pivot rows of rho(x) E, and
    E R = rho(x) E is the invariance check.
    """
    if space.ambient_dim != rep.dim:
        raise ValueError("subspace ambient dimension does not match rep")
    d = space.dim
    emb = space.embedding()
    pivot_row = {piv: row for row, piv in enumerate(space.pivots)}
    action = {}
    for label in rep.alg.labels:
        img = rep.action[label] @ emb
        restricted = SparseMatrix._trusted(d, d, {
            (pivot_row[i], c): v for (i, c), v in img.entries.items() if i in pivot_row
        })
        if emb @ restricted != img:
            raise ValueError(f"subspace is not invariant under {label}")
        action[label] = restricted
    # RREF basis rows of a Cartan-stable subspace are weight-homogeneous:
    # read the weight off the pivot monomial and confirm it exactly; as
    # E R = rho(h) E holds and E has full column rank, basis row c is a
    # weight vector of weight wt iff column c of R is wt[a] e_c
    weights = [rep.weights[piv] for piv in space.pivots]
    for a in range(rep.alg.n):
        diag = {(c, c): wt[a] for c, wt in enumerate(weights) if wt[a] != 0}
        if action[f"h{a + 1}"].entries != diag:
            raise ValueError("subspace basis vector is not a weight vector")
    labels = [rep.basis_labels[piv] for piv in space.pivots]
    sub = Representation(rep.alg, name, d, labels, action, weights)
    sub.subspace = space
    return sub


def fundamental_rep(alg: SpAlgebra, k: int) -> Representation:
    if k < 0 or k > alg.n:
        raise ValueError(f"fundamental weight index {k} must be in 0..{alg.n}")
    if k == 0:
        return trivial_rep(alg)
    if k == 1:
        return natural_rep(alg)
    kernel = nullspace(theta_matrix(alg.N, k))
    return subrepresentation(exterior_power(natural_rep(alg), k), kernel, f"fundamental:{k}")


def highest_weight_vectors(rep: Representation) -> list:
    """Basis of the joint kernel of all raising operators, with weights."""
    pos = rep.alg.positive_labels()
    if not pos:
        stacked = SparseMatrix(0, rep.dim)
    else:
        stacked = rep.action[pos[0]]
        for label in pos[1:]:
            stacked = stacked.stack(rep.action[label])
    space = nullspace(stacked)
    out = []
    for row in space.basis:
        wt = []
        for a in range(rep.alg.n):
            hv = rep.action[f"h{a + 1}"].matvec(row)
            piv = next(i for i, x in enumerate(row) if x != 0)
            mu = canon(Fraction(hv[piv]) / row[piv])
            if hv != tuple(mu * x for x in row):
                raise ValueError("highest weight vector is not a weight vector")
            wt.append(mu)
        out.append((row, tuple(wt)))
    return out


def cyclic_span(rep: Representation, v) -> Subspace:
    """Smallest subspace containing v and stable under every basis action."""
    v = tuple(canon(x) for x in v)
    if len(v) != rep.dim:
        raise ValueError("vector length does not match rep dimension")
    if vec_is_zero(v):
        return Subspace.zero(rep.dim)
    span = Subspace.from_vectors([v], rep.dim)
    pending = [v]
    mats = [rep.action[label] for label in rep.alg.labels]
    while pending:
        x = pending.pop()
        for m in mats:
            w = m.matvec(x)
            span, new = span.add_vector(w)
            if new:
                pending.append(w)
        if span.is_full():
            break
    return span


def is_irreducible(rep: Representation) -> bool:
    """Cyclic from every basis vector plus a unique highest-weight line."""
    if rep.dim < 1:
        raise ValueError("empty representation")
    if len(highest_weight_vectors(rep)) != 1:
        return False
    for i in range(rep.dim):
        if not cyclic_span(rep, unit_vector(rep.dim, i)).is_full():
            return False
    return True


def verify_intertwiner(f: LinearMap):
    """(ok, violating labels) for f rho_src(x) = rho_tgt(x) f over the basis."""
    violations = []
    for label in f.source.alg.labels:
        lhs = f.matrix @ f.source.action[label]
        rhs = f.target.action[label] @ f.matrix
        if lhs != rhs:
            violations.append(label)
    return not violations, violations


def bracket_violations(rep: Representation) -> list:
    """Basis pairs (x, y), x before y, with rho([x, y]) != [rho(x), rho(y)]."""
    alg = rep.alg
    out = []
    for i, x in enumerate(alg.labels):
        for y in alg.labels[i + 1:]:
            coeffs = sp_decompose(bracket(alg.matrices[x], alg.matrices[y]), alg)
            lhs = combine(coeffs, rep.action, rep.dim, rep.dim)
            if lhs != bracket(rep.action[x], rep.action[y]):
                out.append((x, y))
    return out


def wedge_matrix(N: int, k: int, a: int) -> SparseMatrix:
    """Matrix of e_a wedge: Lambda^k -> Lambda^{k+1}."""
    src = list(itertools.combinations(range(N), k))
    tgt_index = {t: i for i, t in enumerate(itertools.combinations(range(N), k + 1))}
    entries = {}
    for col, tup in enumerate(src):
        if a in tup:
            continue
        pos = sum(1 for x in tup if x < a)
        new = tuple(sorted(tup + (a,)))
        entries[(tgt_index[new], col)] = -1 if pos % 2 else 1
    return SparseMatrix(len(tgt_index), len(src), entries)


def interior_matrix(N: int, k: int, b: int) -> SparseMatrix:
    """Matrix of the interior product iota_{e_b} (dot pairing): Lambda^k -> Lambda^{k-1}."""
    src = list(itertools.combinations(range(N), k))
    tgt_index = {t: i for i, t in enumerate(itertools.combinations(range(N), k - 1))}
    entries = {}
    for col, tup in enumerate(src):
        if b not in tup:
            continue
        pos = tup.index(b)
        rest = tup[:pos] + tup[pos + 1:]
        entries[(tgt_index[rest], col)] = -1 if pos % 2 else 1
    return SparseMatrix(len(tgt_index), len(src), entries)


def rep_from_obj(obj: dict) -> Representation:
    try:
        n = int(obj["n"])
        name = str(obj["name"])
        dim = int(obj["dim"])
        labels = [tuple(t) for t in obj["labels"]]
        weights = [tuple(canon(parse_scalar(w)) for w in wt) for wt in obj["weights"]]
        action_obj = obj["action"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed representation object: {exc}") from exc
    alg = build_sp(n, verify=False)
    action = {}
    for label in alg.labels:
        if label not in action_obj:
            raise ValueError(f"malformed representation object: missing action for {label}")
        m = SparseMatrix.from_obj(action_obj[label])
        if m.rows != dim or m.cols != dim:
            raise ValueError(f"malformed representation object: bad shape for {label}")
        action[label] = m
    if len(labels) != dim or len(weights) != dim:
        raise ValueError("malformed representation object: label/weight count mismatch")
    return Representation(alg, name, dim, labels, action, weights)


def build_rep(alg: SpAlgebra, spec: str) -> Representation:
    """Parse a rep spec: natural | trivial | fundamental:k | sym:k | exterior:k."""
    if spec == "natural":
        return natural_rep(alg)
    if spec == "trivial":
        return trivial_rep(alg)
    if ":" in spec:
        kind, _, arg = spec.partition(":")
        try:
            k = int(arg)
        except ValueError:
            raise ValueError(f"bad representation spec {spec!r}")
        if kind == "fundamental":
            return fundamental_rep(alg, k)
        if kind == "sym":
            return symmetric_power(natural_rep(alg), k)
        if kind == "exterior":
            return exterior_power(natural_rep(alg), k)
    raise ValueError(f"bad representation spec {spec!r}")
