"""The symplectic Lie algebra sp_2n, its basis and positive roots.

Basis normalization: h_i = e_ii - e_{n+i,n+i}, X_{eps_i-eps_j} = e_ij -
e_{n+j,n+i}, X_{eps_k+eps_l} = e_{k,n+l} + e_{l,n+k} (so X_{2eps_k} =
2 e_{k,n+k}), X_{-eps_k-eps_l} = e_{n+k,l} + e_{n+l,k}.  Basis order:
h_1..h_n, then X_{eps_i-eps_j} lexicographic over i != j, then the
X_{eps_k+eps_l} with k <= l, then the X_{-eps_k-eps_l} with k <= l.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import SparseMatrix, canon


@dataclass(frozen=True)
class SpBasisElement:
    label: str
    matrix: SparseMatrix


@dataclass(frozen=True)
class RootDatum:
    root: tuple
    simple_coeffs: tuple
    height: int


def _eps_sum(n: int, i: int, j: int, si: int, sj: int) -> tuple:
    v = [0] * n
    v[i] += si
    v[j] += sj
    return tuple(v)


class SpAlgebra:
    """Immutable container for the sp_2n basis."""

    def __init__(self, n: int, basis: list):
        self.n = n
        self.N = 2 * n
        self.dim = 2 * n * n + n
        self.basis = basis
        self.labels = [b.label for b in basis]
        self.matrices = {b.label: b.matrix for b in basis}
        self.readout = _readout_table(n)

    def positive_labels(self) -> list:
        """Labels of the positive-root basis elements (raising operators)."""
        out = []
        for i in range(self.n):
            for j in range(self.n):
                if i < j:
                    out.append(f"X(e{i + 1}-e{j + 1})")
        for k in range(self.n):
            for l in range(k, self.n):
                out.append(_plus_label(k, l))
        return out

    def __repr__(self):
        return f"SpAlgebra(n={self.n}, dim={self.dim})"


def _readout_table(n: int) -> dict:
    """Matrix position -> (label, halved) from which sp_decompose reads a
    coefficient; X_{2eps_k} and X_{-2eps_k} carry a 2 there, so they halve."""
    table = {(a, a): (f"h{a + 1}", False) for a in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j:
                table[(i, j)] = (f"X(e{i + 1}-e{j + 1})", False)
    for k in range(n):
        for l in range(k, n):
            table[(k, n + l)] = (_plus_label(k, l), k == l)
            table[(n + k, l)] = (_minus_label(k, l), k == l)
    return table


def _plus_label(k: int, l: int) -> str:
    if k == l:
        return f"X(2e{k + 1})"
    return f"X(e{k + 1}+e{l + 1})"


def _minus_label(k: int, l: int) -> str:
    if k == l:
        return f"X(-2e{k + 1})"
    return f"X(-e{k + 1}-e{l + 1})"


def build_sp(n: int, verify: bool = True) -> SpAlgebra:
    """Construct sp_2n; with ``verify``, check bracket closure and the
    symplectic condition for the whole basis (``basis_failures``) and
    raise ``SpBasisError`` listing every failure."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    alg = SpAlgebra(n, _basis(n))
    if verify:
        failures = basis_failures(alg)
        if failures:
            raise SpBasisError(alg, failures)
    return alg


def _basis(n: int) -> list:
    N = 2 * n
    basis = []

    def mat(entries):
        return SparseMatrix(N, N, entries)

    for i in range(n):
        basis.append(SpBasisElement(f"h{i + 1}", mat({(i, i): 1, (n + i, n + i): -1})))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            basis.append(
                SpBasisElement(f"X(e{i + 1}-e{j + 1})", mat({(i, j): 1, (n + j, n + i): -1}))
            )
    for k in range(n):
        for l in range(k, n):
            ent = {(k, n + l): 1}
            ent[(l, n + k)] = ent.get((l, n + k), 0) + 1
            basis.append(SpBasisElement(_plus_label(k, l), mat(ent)))
    for k in range(n):
        for l in range(k, n):
            ent = {(n + k, l): 1}
            ent[(n + l, k)] = ent.get((n + l, k), 0) + 1
            basis.append(SpBasisElement(_minus_label(k, l), mat(ent)))
    return basis


class SpBasisError(ValueError):
    """The basis of ``alg`` fails its check; ``failures`` as ``basis_failures``."""

    def __init__(self, alg: SpAlgebra, failures: list):
        super().__init__(f"the sp basis fails {len(failures)} checks, first {failures[0]}")
        self.alg = alg
        self.failures = failures


# basis entries above this size could wrap the int64 pass of basis_failures
_ENTRY_BOUND = 2**8


def basis_failures(alg: SpAlgebra) -> list:
    """Every ordered basis pair whose bracket leaves the span, as
    {"bracket": [x, y]}, then every basis element that fails the
    symplectic condition m^t J + J m = 0, as {"symplectic": label}.

    One int64 pass over the basis entries, each matrix holding at most two:
    every product entry x_a[i, j] x_b[j, k] is a join of entries on column =
    row, and [x_a, x_b] sums the products keyed by (pair, position).  The
    coefficients are read at ``alg.readout``, doubled so that the halved
    readouts stay integral, and the doubled bracket must equal the
    combination they rebuild, entry by entry.  This is ``sp_decompose`` of
    every bracket at once: a pair fails here exactly when it raises there.
    """
    # numpy loads on first use, as in linalg: imported with this module, ahead
    # of the others, it raised the process's peak RSS by 3 MB
    import numpy as np

    n, N, labels = alg.n, alg.N, alg.labels
    d, NN = len(labels), N * N
    ents = [(a, i, j, v) for a, label in enumerate(labels)
            for (i, j), v in alg.matrices[label].entries.items()]
    if any(type(v) is not int or abs(v) > _ENTRY_BOUND for *_, v in ents):
        raise ValueError(f"the sp basis check takes integer entries of size at most {_ENTRY_BOUND}")
    lab, row, col, val = np.array(ents, dtype=np.int64).reshape(-1, 4).T
    # products x_a x_b: entry (a, i, j) meets every entry (b, j, k)
    by_row = np.argsort(row, kind="stable")
    left, right = _join(col, np.searchsorted(row[by_row], np.arange(N + 1)))
    right = by_row[right]
    a, b = lab[left], lab[right]
    pos = row[left] * N + col[right]
    prod = val[left] * val[right]
    keys, vals = _sum_by_key(np.concatenate([(a * d + b) * NN + pos, (b * d + a) * NN + pos]),
                             np.concatenate([prod, -prod]))
    # doubled coefficients, read where the readout table points
    rlabel = np.full(NN, -1, dtype=np.int64)
    rmult = np.zeros(NN, dtype=np.int64)
    index = {label: t for t, label in enumerate(labels)}
    for (i, j), (label, halved) in alg.readout.items():
        rlabel[i * N + j] = index[label]
        rmult[i * N + j] = 1 if halved else 2
    pair, pos = np.divmod(keys, NN)
    hit = rlabel[pos] >= 0
    pair, coeff, c2 = pair[hit], rlabel[pos[hit]], vals[hit] * rmult[pos[hit]]
    # the rebuilt combination: every coefficient times its label's entries
    # (the entries run in label order)
    cl, ce = _join(coeff, np.searchsorted(lab, np.arange(d + 1)))
    rebuilt = (pair[cl] * NN + row[ce] * N + col[ce], c2[cl] * val[ce])
    # the symplectic condition of x_a, keyed after every pair: J[s, s^] =
    # +1 for s < n and -1 for s >= n, with s^ = s + n mod N
    sig = (row + n) % N
    sv = np.where(row < n, val, -val)
    sym = ((d * d + lab) * NN + col * N + sig, (d * d + lab) * NN + sig * N + col)
    bad, _ = _sum_by_key(np.concatenate([rebuilt[0], keys, *sym]),
                         np.concatenate([rebuilt[1], -2 * vals, sv, -sv]))
    return [{"bracket": [labels[p // d], labels[p % d]]} if p < d * d
            else {"symplectic": labels[p - d * d]} for p in sorted(set((bad // NN).tolist()))]


def _join(want, starts) -> tuple:
    """Index pairs (l, r) with r running over starts[want[l]]:starts[want[l] + 1],
    the positions of group want[l] in an array sorted by group."""
    import numpy as np

    lo = starts[want]
    cnt = starts[want + 1] - lo
    left = np.repeat(np.arange(len(want)), cnt)
    return left, np.arange(cnt.sum()) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)


def _sum_by_key(keys, vals) -> tuple:
    """The distinct keys in increasing order with their nonzero value sums."""
    import numpy as np

    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    sums = np.add.reduceat(vals, first)
    keep = sums != 0
    return keys[first][keep], sums[keep]


def bracket(x: SparseMatrix, y: SparseMatrix) -> SparseMatrix:
    """Matrix commutator xy - yx."""
    if x.rows != x.cols or y.rows != y.cols or x.rows != y.rows:
        raise ValueError("bracket requires square matrices of equal size")
    return (x @ y) - (y @ x)


def _unit(N, i):
    e = [0] * N
    e[i] = 1
    return tuple(e)


def bar(r: Sequence) -> tuple:
    """r = (r_1..r_n, r_{n+1}..r_{2n}) -> (r_{n+1}..r_{2n}, -r_1..-r_n)."""
    if len(r) % 2 != 0:
        raise ValueError("bar requires an even-length vector")
    n = len(r) // 2
    return tuple(r[n:]) + tuple(-x for x in r[:n])


def pairing(u: Sequence, v: Sequence):
    """Standard bilinear form sum(u_i v_i), as a canonical scalar."""
    if len(u) != len(v):
        raise ValueError("pairing requires equal-length vectors")
    return canon(sum(canon(a) * canon(b) for a, b in zip(u, v)))


def rank_one(r: Sequence) -> SparseMatrix:
    """The matrix r bar(r)^t, which lies in sp_N."""
    rb = bar(r)
    N = len(r)
    entries = {}
    for i in range(N):
        if r[i] == 0:
            continue
        for j in range(N):
            if rb[j] == 0:
                continue
            entries[(i, j)] = r[i] * rb[j]
    return SparseMatrix(N, N, entries)


def sym_outer(u: Sequence, v: Sequence) -> SparseMatrix:
    """u bar(v)^t + v bar(u)^t, the polarization of r bar(r)^t; always in sp_N.

    Only products over the nonzero supports of u, bar v, v and bar u are
    formed; entries come out row by row in column order."""
    N = len(u)
    ub = [(j, canon(x)) for j, x in enumerate(bar(u)) if x]
    vb = [(j, canon(x)) for j, x in enumerate(bar(v)) if x]
    entries = {}
    for i in range(N):
        row: dict = {}
        for x, other in ((u[i], vb), (v[i], ub)):
            if x:
                x = canon(x)
                for j, y in other:
                    row[j] = row.get(j, 0) + x * y
        entries.update(((i, j), row[j]) for j in sorted(row) if row[j])
    return SparseMatrix(N, N, entries)


def polarization(N: int, a: int, b: int) -> SparseMatrix:
    """C_ab = e_a bar(e_b)^t + e_b bar(e_a)^t, halved when a = b, so that
    r bar(r)^t = sum_{a<=b} r_a r_b C_ab."""
    c = sym_outer(_unit(N, a), _unit(N, b))
    return c.scale(Fraction(1, 2)) if a == b else c


def symplectic_form_matrix(n: int) -> SparseMatrix:
    """J with J v = bar(v)."""
    entries = {}
    for i in range(n):
        entries[(i, n + i)] = 1
        entries[(n + i, i)] = -1
    return SparseMatrix(2 * n, 2 * n, entries)


def is_symplectic(m: SparseMatrix, n: int) -> bool:
    j = symplectic_form_matrix(n)
    return (m.transpose() @ j + j @ m).is_zero()


def sp_decompose(m: SparseMatrix, alg: SpAlgebra) -> dict:
    """Coefficients of m in the sp basis; error if m is not in the span.

    Uses the block structure [[A, B], [C, -A^t]]: the coefficient of h_a
    is A[a][a], of X_{eps_i-eps_j} is A[i][j], of X_{2eps_k} is B[k][k]/2,
    of X_{eps_k+eps_l} (k<l) is B[k][l], and similarly for C.  Only the
    nonzero entries of m are read; the rebuilt combination must equal m.
    """
    N = alg.N
    if m.rows != N or m.cols != N:
        raise ValueError(f"expected a {N}x{N} matrix")
    coeffs = {}
    readout = alg.readout
    for pos, v in m.entries.items():
        hit = readout.get(pos)
        if hit is not None:
            label, halved = hit
            coeffs[label] = canon(Fraction(v) / 2) if halved else v
    if combine(coeffs, alg.matrices, N, N).entries != m.entries:
        raise ValueError("matrix is not in the span of the sp basis")
    return coeffs


def combine(coeffs: dict, matrices: dict, rows: int, cols: int) -> SparseMatrix:
    """Linear combination sum coeffs[label] * matrices[label]."""
    acc = {}
    for label, c in coeffs.items():
        m = matrices[label]
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError(f"shape mismatch: {m.rows}x{m.cols} vs {rows}x{cols}")
        c = canon(c)
        for pos, v in m.entries.items():
            acc[pos] = acc.get(pos, 0) + c * v
    return SparseMatrix._trusted(rows, cols, {k: canon(v) for k, v in acc.items() if v})


def positive_roots(n: int) -> list:
    """All positive roots of sp_2n in eps-coordinates."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(_eps_sum(n, i, j, 1, -1))
    for i in range(n):
        for j in range(i, n):
            out.append(_eps_sum(n, i, j, 1, 1))
    return out


def root_height(root: Sequence, n: int) -> RootDatum:
    """Simple-root coefficients and height of a positive root."""
    root = tuple(int(x) for x in root)
    if len(root) != n:
        raise ValueError(f"root must have length {n}")
    if root not in set(positive_roots(n)):
        raise ValueError(f"{root} is not a positive root of sp_{2 * n}")
    # solve root = sum a_t alpha_t: coordinate recurrences
    a = [0] * n
    prev = 0
    for i in range(n - 1):
        a[i] = prev + root[i]
        prev = a[i]
    last = prev + root[n - 1]
    if last % 2 != 0:
        raise ValueError(f"{root} is not in the root lattice span")
    a[n - 1] = last // 2
    if any(x < 0 for x in a):
        raise ValueError(f"{root} is not a positive root of sp_{2 * n}")
    return RootDatum(root, tuple(a), sum(a))
