"""Box-truncated graded families: closure, invariance, explicit submodules.

A TruncatedModule assigns a subspace of V to every lattice point of a
finite box; closure saturates a seed family under all modeled H_r.  The
invariance checker has two modes: direct enumeration over (grade,
generator) pairs, batched through integer matrix arithmetic, and a
certificate mode for the explicitly built families that verifies a small
set of polynomial identities implying invariance at every grade at once.
One exact closure serves ``closure`` and the probe: a family inside the
closure grows by the exact images of the pairs that the enumeration's own
walks find failing, until none fails.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from math import comb, gcd, isqrt, lcm, prod

import numpy as np

from .linalg import (
    SparseMatrix,
    Subspace,
    ZERO,
    ONE,
    _INT64_SAFE,
    _IntEchelon,
    _annihilator_stack,
    _echelon_stack,
    _int_row,
    _max_abs,
    _primitive,
    format_scalar,
    nullspace,
    vec_is_zero,
)
from .reps import (
    LinearMap,
    Representation,
    contraction_theta,
    exterior_power,
    interior_matrix,
    natural_rep,
    theta_matrix,
    verify_intertwiner,
    wedge_matrix,
)
from .symplectic import _unit, bar, combine, pairing, polarization, rank_one
from .hamiltonian import (
    GradedVector,
    MatrixPolynomial,
    ModuleParams,
    _mono,
    _scalar_times_identity,
    act_H,
)


@dataclass(frozen=True)
class Box:
    radius: int
    N: int

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("box radius must be positive")

    def contains(self, grade) -> bool:
        return len(grade) == self.N and all(abs(g) <= self.radius for g in grade)

    def grades(self):
        rng = range(-self.radius, self.radius + 1)
        return itertools.product(rng, repeat=self.N)

    def count(self) -> int:
        return (2 * self.radius + 1) ** self.N


@dataclass(frozen=True)
class GeneratorSet:
    radius: int
    N: int

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("generator radius must be positive")

    def vectors(self):
        rng = range(-self.radius, self.radius + 1)
        for r in itertools.product(rng, repeat=self.N):
            if any(v != 0 for v in r):
                yield r

    def count(self) -> int:
        return (2 * self.radius + 1) ** self.N - 1

    def vector(self, i: int) -> tuple:
        """The i-th vector ``vectors`` yields, computed from i alone: skip
        the zero vector at the middle of the box, then read off the
        base-(2R+1) digits of the place, shifted by -R."""
        place = i + (i >= self.count() // 2)
        digits = []
        for _ in range(self.N):
            place, d = divmod(place, 2 * self.radius + 1)
            digits.append(d - self.radius)
        return tuple(reversed(digits))


class TruncatedModule:
    """Grade-indexed family of subspaces of V inside a box.

    Every grade is a fully reduced integer echelon, and the family's one
    layout is its grid (``grade_rows``): the rows of every grade of the box
    in lex (gid) order, zero-padded to the largest grade dimension.  A
    built family makes the grid from its ``builder``, one batched call over
    any stack of grades (grades never asked for are never made, which
    matters for the larger certificate-checked families); a closure family
    holds the normalized ``grid`` it was handed.  ``int_basis`` reads one
    grade off the grid as an echelon, and a grade's Fraction basis is made
    from that only when ``space`` asks for it.
    """

    def __init__(self, params: ModuleParams, box: Box, builder=None,
                 kind=None, k=None, grid=None):
        self.params = params
        self.box = box
        self.kind = kind
        self.k = k
        self._grid = grid
        self._builder = builder

    @property
    def dim_v(self) -> int:
        return self.params.rep.dim

    def grade_rows(self, grades: np.ndarray | None = None) -> np.ndarray:
        """The spaces at the in-box ``grades`` (G x N), or at every grade of
        the box in lex order when None, as one G x m x dim array, m the
        largest of their dimensions: each grade's fully reduced echelon of
        primitive integer rows with positive pivot entries, then zero rows.
        int64 when every entry is below 2^62 in absolute value, Python
        integers (object) otherwise."""
        if not self._builder:
            if grades is None:
                return self._grid
            side = 2 * self.box.radius + 1
            gids = np.ravel_multi_index(tuple((grades + self.box.radius).T), (side,) * self.box.N)
            return _normalized(self._grid[gids])
        if grades is None:
            grades = _lattice_points(self.box.radius, self.box.N)
        return _normalized(self._builder(grades))

    def int_basis(self, grade) -> "_IntEchelon":
        """The space at ``grade`` as a fully reduced echelon of primitive
        integer rows with positive pivot entries (empty for a zero space)."""
        grade = tuple(int(g) for g in grade)
        if not self.box.contains(grade):
            raise ValueError(f"grade {grade} outside the box")
        return _IntEchelon.of_echelon(self.dim_v, self.grade_rows(np.array([grade]))[0])

    def space(self, grade) -> Subspace:
        return self.int_basis(grade).subspace()

    def to_obj(self) -> dict:
        """Each grade's RREF basis, read off the grid: every row divided by
        its (positive) pivot entry, in lowest terms."""
        grid = self.grade_rows()
        held = np.flatnonzero(_ranks(grid))
        spaces = {",".join(map(str, g)): [_format_row(row) for row in rows if any(row)]
                  for g, rows in zip(_lattice_points(self.box.radius, self.box.N)[held].tolist(),
                                     grid[held].tolist())}
        return {
            "alpha": [format_scalar(a) for a in self.params.alpha],
            "beta": [format_scalar(b) for b in self.params.beta],
            "rep_ref": self.params.rep.name,
            "box_radius": self.box.radius,
            "spaces": spaces,
        }


def _format_row(row: list) -> list:
    """format_scalar(Fraction(x, d)) of each entry x of the integer ``row``,
    d > 0 its first nonzero entry (the pivot), in integers."""
    d = next(filter(None, row))
    return [str(x // g) if g == d else f"{x // g}/{d // g}"
            for x, g in ((x, gcd(x, d)) for x in row)]


# -- int64 bounds for integer rows ----------------------------------------


def _ranks(stack: np.ndarray) -> np.ndarray:
    """The number of nonzero rows of each matrix of a stack."""
    return (stack != 0).any(axis=2).sum(axis=1)


def _normalized(stack: np.ndarray) -> np.ndarray:
    """A stack of echelons (nonzero rows first) cut to its largest rank,
    int64 when every entry is below 2^62 in absolute value and Python
    integers (object) otherwise: the form a family grid is kept and
    compared in."""
    return _int_array(stack[:, :int(_ranks(stack).max(initial=0))])


def _echelon_grid(count: int, dim: int, echelons: dict) -> np.ndarray:
    """The normalized grid (``_normalized``) of the family that holds
    ``echelons[gid]`` (an ``_IntEchelon``) at each gid and zero elsewhere,
    of ``count`` grades."""
    held = {gid: e.rows for gid, e in echelons.items() if e.rows}
    dtype = _int_array([row for rows in held.values() for row in rows]).dtype
    grid = np.zeros((count, max(map(len, held.values()), default=0), dim), dtype=dtype)
    for gid, rows in held.items():
        grid[gid, :len(rows)] = rows
    return grid


def _grid_with_rows(grid: np.ndarray, gids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The normalized grid (``_normalized``) of the family ``grid`` with the
    integer ``rows`` added at their ``gids``, by one ``_echelon_stack`` over
    the touched grades: each its rows, then its new ones, zero-padded to the
    largest group (no grade's new echelon is shorter than its old one)."""
    order = np.argsort(gids, kind="stable")
    touched, first, counts = np.unique(gids[order], return_index=True, return_counts=True)
    m, dim = grid.shape[1:]
    pad = np.zeros((len(touched), m + counts.max(), dim), dtype=np.result_type(grid, rows))
    pad[:, :m] = grid[touched]
    pad[np.repeat(np.arange(len(touched)), counts),
        m + np.arange(len(gids)) - np.repeat(first, counts)] = rows[order]
    ech = _normalized(_echelon_stack(pad))
    grid = np.concatenate([grid, np.zeros((len(grid), max(0, ech.shape[1] - m), dim),
                                          dtype=grid.dtype)], axis=1)
    grid = grid.astype(np.result_type(grid, ech), copy=False)
    grid[touched, :ech.shape[1]] = ech
    return _normalized(grid)


def _int_array(values) -> np.ndarray:
    """Integers, equal-length rows of them or an integer array, as an int64
    array when every |v| < 2^62 and as Python integers (object) otherwise."""
    array = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    return array.astype(np.int64 if _max_abs(array) < _INT64_SAFE else object, copy=False)


def _lattice_points(radius: int, N: int) -> np.ndarray:
    """The points of {-radius..radius}^N in lex order, one row each: the
    order of ``itertools.product``, filled from a sparse index grid one
    coordinate at a time."""
    side = 2 * radius + 1
    points = np.empty((side,) * N + (N,), dtype=np.int64)
    for a, column in enumerate(np.indices((side,) * N, sparse=True)):
        points[..., a] = column - radius
    return points.reshape(-1, N)


class _GradeIndex:
    """Lex enumeration of box grades; a grade's index (gid) is
    (grade + R) . weights, so shifting a grade by r adds r . weights."""

    def __init__(self, radius: int, N: int):
        self.R = radius
        self.N = N
        self.side = 2 * radius + 1
        self.count = self.side ** N
        self.coords = _lattice_points(radius, N)
        self.weights = self.side ** np.arange(N - 1, -1, -1, dtype=np.int64)

    def encode_one(self, grade) -> int:
        return int(sum((g + self.R) * w for g, w in zip(grade, self.weights)))

    def steps_in_box(self, src: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """mask[k, j]: the grade with coordinates ``src[k]`` moved by
        ``offsets[j]`` stays in the box; per coordinate a lookup in the
        (side x offsets) table of which moves keep each value in [-R, R]."""
        side = np.arange(-self.R, self.R + 1)[:, None]
        mask = np.ones((len(src), len(offsets)), dtype=bool)
        for a in range(self.N):
            mask &= np.take(np.abs(side + offsets[:, a]) <= self.R, src[:, a] + self.R, axis=0)
        return mask


class _ActionTable:
    """Per-generator integer matrices L*rho(r bar r^t), transposed, and bar
    vectors, for sources whose grades satisfy |s_i| <= box_radius.

    rho(r bar r^t) = sum_{a<=b} r_a r_b rho(C_ab) (the rank-one expansion
    the certificate mode proves), so all generator matrices come from one
    contraction of the integer tensor T[k] = L*rho(C_ab), read from the
    rep's ``polarizations``, with the monomials r_a r_b.  L is the lcm of
    the alpha and rho(C_ab) denominators.  Every int64 product is bounded
    before it is formed; a failed bound keeps the table or the scalars in
    unbounded Python integers instead.
    """

    def __init__(self, p: ModuleParams, gens: GeneratorSet, box_radius: int):
        dim = p.rep.dim
        N = gens.N
        pairs = list(p.rep.polarizations)
        sym = list(p.rep.polarizations.values())
        self.L = L = lcm(*(a.denominator for a in p.alpha),
                         *(v.denominator for m in sym for v in m.entries.values()))
        # GeneratorSet.vectors() order: the radius box in lex order, less
        # the zero vector at its middle
        points = _lattice_points(gens.radius, N)
        self.offsets = np.delete(points, len(points) // 2, axis=0)
        self.gens = list(map(tuple, self.offsets.tolist()))

        # T as (k, i, j, value) entries; colsum[i, j] = sum_k |T[k, i, j]|
        ents = []
        colsum: dict = {}
        for k, m in enumerate(sym):
            for (i, j), v in m.entries.items():
                t = v.numerator * (L // v.denominator)
                ents.append((k, i, j, t))
                colsum[(i, j)] = colsum.get((i, j), 0) + abs(t)
        max_coef = gens.radius ** 2
        small = max_coef * max(colsum.values(), default=0) < _INT64_SAFE
        dtype = np.int64 if small else object
        T = np.zeros((len(pairs), dim, dim), dtype=dtype)
        for k, i, j, t in ents:
            T[k, i, j] = t
        # the monomials r_a r_b, one column per pair (a, b)
        left, right = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        coef = (self.offsets[:, left] * self.offsets[:, right]).astype(dtype)
        self.pt = _int_array(np.einsum("gk,kij->gji", coef, T))
        self.max_p = _int_array(np.abs(self.pt).reshape(len(self.gens), -1).max(axis=1).tolist())

        l_alpha = [int(a * L) for a in p.alpha]
        self.l_alpha = _int_array(l_alpha)
        # bar(r) = (r_{n+1}..r_{2n}, -r_1..-r_n)
        n = N // 2
        self.bars = np.concatenate([self.offsets[:, n:], -self.offsets[:, :n]], axis=1)
        # |(s*L + l_alpha) . bar r| <= (R*L + max|l_alpha|) * sum|bar r|
        scale = box_radius * L + max(map(abs, l_alpha))
        bar_sums = np.abs(self.bars).sum(axis=1)
        self.c_small = bar_sums <= (_INT64_SAFE - 1) // max(scale, 1)
        # that bound, over every generator
        self.max_c = scale * int(bar_sums.max())


# elements per transient array of a sweep chunk
_SWEEP_BATCH = 2 ** 13


def _images(table: _ActionTable, src: np.ndarray, x: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Images of integer rows ``x`` at grades ``src`` under the generators
    ``j``: L*((bar r, s+alpha)I + rho(r bar r^t)) x, row by row.

    Exact integer arithmetic: int64 where every product is bounded below
    2^62, unbounded Python integers otherwise.
    """
    bars = table.bars[j]
    if table.c_small[j].all():
        c = np.einsum("cn,cn->c", src * table.L + table.l_alpha, bars)
    else:
        s_l = src.astype(object) * table.L + table.l_alpha.astype(object)
        c = (s_l * bars.astype(object)).sum(axis=1)
    pt = table.pt[j]
    max_x = int(np.abs(x).max())
    max_c = int(np.abs(c).max())
    bound = x.shape[1] * int(table.max_p[j].max()) * max_x + max_c * max_x
    if bound < _INT64_SAFE and x.dtype == c.dtype == pt.dtype == np.int64:
        return np.einsum("cd,cde->ce", x, pt) + c[:, None] * x
    xo = x.astype(object)
    return np.einsum("cd,cde->ce", xo, pt.astype(object)) + c.astype(object)[:, None] * xo


@dataclass(frozen=True)
class _GradeState:
    """A family on a box's grades (by gid), as the enumeration walks screen
    images with it: each grade's annihilator rows, zero-padded to dim x dim
    (the identity at an empty grade), and which grades are ``full``.  A
    value built once per family grid (``of_grid``): the annihilators are
    int64 while every entry is below 2^62, and Python integers (object)
    otherwise."""

    a_pad: np.ndarray
    full: np.ndarray

    @classmethod
    def of_grid(cls, grid: np.ndarray) -> "_GradeState":
        """The state of the family whose echelon rows at every gid are
        ``grid`` (count x m x dim, as ``TruncatedModule.grade_rows`` gives
        them): the annihilators of all its nonzero grades from one
        ``_annihilator_stack``."""
        count, _, dim = grid.shape
        ranks = _ranks(grid)
        held = np.flatnonzero(ranks > 0)
        ann = _int_array(_annihilator_stack(grid[held]))
        a_pad = np.tile(np.eye(dim, dtype=ann.dtype), (count, 1, 1))
        a_pad[held] = ann
        return cls(a_pad, ranks == dim)

    def candidates(self, tgt: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Indices of the images ``y`` that lie outside the spaces at their
        target gids ``tgt``: a nonzero annihilator residual.  The sweep asks
        only where ``_residue_moduli`` gives no moduli, so the annihilators
        and images are int64 and every residual is below 2^62."""
        return np.flatnonzero(np.einsum("rad,rd->ra", self.a_pad[tgt], y).any(axis=1))


def _seed_key(gv: GradedVector) -> tuple:
    """The grade and the primitive row with its first nonzero entry positive:
    seeds that are nonzero rational multiples of each other share a key,
    and c v spans the same line as v, so both have the same closure."""
    row = _int_row(gv.payload)
    if next((v for v in row if v), 0) < 0:
        row = tuple(-v for v in row)
    return tuple(gv.grade), row


def _family_key(grid: np.ndarray) -> tuple:
    """The shape and entries of a normalized family grid (``_normalized``):
    a fully reduced echelon of primitive rows with positive pivots is
    unique to its span, and the height and dtype follow from the rows, so
    equal keys mean equal families."""
    return grid.shape, grid.tobytes() if grid.dtype == np.int64 else tuple(grid.ravel().tolist())


# -- the mod-p FULL screen ------------------------------------------------

# The largest prime below 2^27
_SCREEN_PRIME = 134217689
# int64 elements per transient batch of the spin
_SCREEN_BATCH = 2 ** 15


def _modulus_cap(dim: int) -> int:
    """The largest m <= _SCREEN_PRIME with (dim+1)(m-1)^2 < 2^63, the
    bound on an image x @ pt + c x or a reduction v @ P of entries in
    [0, m)."""
    return min(_SCREEN_PRIME, isqrt((2 ** 63 - 1) // (dim + 1)) + 1)


def _spin_prime(dim: int, L: int) -> int:
    """The largest prime p <= ``_modulus_cap(dim)`` that does not divide L
    (there every generator is a scalar mod p; the engine passes L times its
    nonzero L alpha_i).  Primality is tested only below _SCREEN_PRIME."""
    p = _modulus_cap(dim)
    while L % p == 0 or (p < _SCREEN_PRIME and not _is_prime(p)):
        p -= 1
    return p


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % d for d in range(2, isqrt(m) + 1))


def _inv_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverses of nonzero residues mod the prime p."""
    return np.array([pow(v, -1, p) for v in a.tolist()], dtype=np.int64)


def _reduce_mod_p(v: np.ndarray, rref: np.ndarray, pivots: np.ndarray, p: int,
                  block: int) -> np.ndarray:
    """The residuals over F_p of the rows ``v``, entries in [0, p), against
    the fully reduced echelon rows ``rref`` with pivot columns ``pivots``:
    v - v[:, pivots] @ rref mod p, summed ``block`` pivots at a time.  A
    fully reduced row is 0 at every other pivot, so the blocks reduce one
    after another, and each partial sum stays below (block + 1)(p - 1)^2:
    with block = dim that is ``_spin_prime``'s bound, where one sum over
    dim^2 pivots could pass 2^63 and wrap."""
    for b0 in range(0, len(pivots), block):
        v = (v - v[:, pivots[b0:b0 + block]] @ rref[b0:b0 + block]) % p
    return v


def _rational_lift(a: int, p: int) -> Fraction | None:
    """The fraction n/d with |n|, d <= sqrt(p/2) and n = a d mod p, or None
    when there is none (rational reconstruction: the extended Euclidean
    algorithm on p and a, stopped at the first remainder within the
    bound).  Such a fraction is unique."""
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, a % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


class _ModpSpans:
    """Row spaces over F_p at ``count`` grades (by gid).  Each grade keeps
    a reduction matrix P whose pivot rows hold its RREF rows over F_p, so
    the residual of v is v - v @ P."""

    def __init__(self, p: int, count: int, dim: int):
        self.p = p
        self.P = np.zeros((count, dim, dim), dtype=np.int64)
        self.rank = np.zeros(count, dtype=np.int64)

    def insert(self, gids: np.ndarray, res: np.ndarray) -> np.ndarray:
        """Assimilate one nonzero residual per grade of ``gids``; returns
        the normalised new rows."""
        p, P = self.p, self.P
        k = np.arange(len(gids))
        q = np.argmax(res != 0, axis=1)
        w = res * _inv_mod(res[k, q], p)[:, None] % p
        col = P[gids, :, q]
        P[gids] = (P[gids] - col[:, :, None] * w[:, None, :]) % p
        P[gids, q] = w
        self.rank[gids] += 1
        return w

    def absorb(self, tgt: np.ndarray, y: np.ndarray) -> list:
        """Reduce candidate rows ``y`` at their target gids and insert what
        survives, one row per grade and pass, first candidate first; returns
        each pass's (candidate indices, gids, normalised rows)."""
        p = self.p
        res = (y - np.einsum("cd,cde->ce", y, self.P[tgt])) % p
        cand = np.arange(len(tgt))
        passes = []
        while True:
            keep = res.any(axis=1)
            tgt, res, cand = tgt[keep], res[keep], cand[keep]
            if not len(tgt):
                return passes
            gids, first = np.unique(tgt, return_index=True)
            w = self.insert(gids, res[first])
            passes.append((cand[first], gids, w))
            rest = np.ones(len(tgt), dtype=bool)
            rest[first] = False
            tgt, res, cand = tgt[rest], res[rest], cand[rest]
            w = w[np.searchsorted(gids, tgt)]
            q = np.argmax(w != 0, axis=1)
            res = (res - res[np.arange(len(res)), q][:, None] * w) % p


class _ClosureEngine:
    def __init__(self, p: ModuleParams, box: Box, gens: GeneratorSet):
        self.p = p
        self.box = box
        self.index = _GradeIndex(box.radius, box.N)
        self.table = _ActionTable(p, gens, box.radius)
        self.dim = p.rep.dim
        # a target's gid is its source's gid plus the generator's code
        self.codes = self.table.offsets @ self.index.weights
        # the radius of the inner box, whose grades keep every step in the box
        self.inner_radius = box.radius - gens.radius
        # box radius -> its breadth-first walk from grade 0 (``_walk``)
        self._walks: dict = {}
        # seed line -> (rank, RREF) over F_p of its spin at grade 0
        self._ranks: dict = {}
        # an F_p basis of the span S of the closed words (``_word_span``),
        # built by the first grade-0 spin that one round over the words
        # leaves below dim
        self._span: np.ndarray | None = None

    @cached_property
    def _modp(self) -> tuple:
        """(p, generator matrices, L, L alpha), reduced mod the spin's prime.

        The prime divides neither L nor any nonzero L alpha_i: at a prime
        dividing L alpha_i, a step out of grade 0 whose scalar
        L (bar r, alpha) is nonzero over Q can read 0 mod p, and the
        grade-0 spin finds too few rows.  The rule covers grade 0 only: at
        another grade s a nonzero scalar L (bar r, s + alpha) can still
        vanish mod p.  Then a spin finds too few rows, the family fails its
        re-check and the probe falls back, so no report depends on the
        prime."""
        table = self.table
        q = _spin_prime(self.dim, table.L * prod(int(a) for a in table.l_alpha.tolist() if a))
        return (q, np.array(np.mod(table.pt, q), dtype=np.int64), table.L % q,
                np.array(np.mod(table.l_alpha, q), dtype=np.int64))

    def _step(self, src: np.ndarray, x: np.ndarray | None, j: np.ndarray) -> np.ndarray:
        """Images over F_p of rows ``x`` at grades ``src`` under the
        generators ``j``: L*((bar r, s+alpha)I + rho(r bar r^t)) x mod p.
        ``x`` holds one row or one (m, dim) stack of rows per step; None
        stands for the identity, so the images are the steps' matrices."""
        p, pt, l_mod, l_alpha = self._modp
        u = (src * l_mod + l_alpha) % p
        c = np.einsum("cn,cn->c", u, self.table.bars[j]) % p
        if x is None:
            y = pt[j]
            diag = np.arange(self.dim)
            y[:, diag, diag] += c[:, None]
        else:
            y = np.matmul(x.reshape(len(x), -1, self.dim), pt[j]).reshape(x.shape)
            y += c.reshape((-1,) + (1,) * (x.ndim - 1)) * x
        y %= p
        return y

    @cached_property
    def _words(self) -> list:
        """The closed words at grade 0 over the radius-1 generators, as
        arrays of generator indices with one column per step, first step
        first: H_{-r} H_r, then H_{r3} H_{r2} H_{r1} with r1 + r2 + r3 = 0.
        Every grade a word passes has entries in {-1, 0, 1}, so it lies in
        the box."""
        offsets = self.table.offsets
        N = offsets.shape[1]
        unit = np.flatnonzero(np.abs(offsets).max(axis=1) == 1)
        r = offsets[unit].astype(np.int8)
        # a radius-1 vector's base-3 code -> its generator index
        w3 = 3 ** np.arange(N - 1, -1, -1)
        index = np.full(3 ** N, -1)
        index[(r + 1) @ w3] = unit
        three = []
        for r1, j1 in zip(r, unit):
            s = r1 + r
            b = np.flatnonzero(np.abs(s).max(axis=1) == 1)
            three.append(np.stack([np.full(len(b), j1), unit[b], index[(1 - s[b]) @ w3]],
                                  axis=1))
        return [np.stack([unit, index[(1 - r) @ w3]], axis=1), np.concatenate(three)]

    def _word_images(self, x: np.ndarray | None, per: int):
        """The images over F_p of the rows ``x`` at grade 0 under the closed
        words (``_words``), ``per`` words at a time: one (words, rows, dim)
        stack per batch, in word order.  For x None (the identity, as in
        ``_step``) they are the words' matrices."""
        offsets = self.table.offsets
        for words in self._words:
            for w0 in range(0, len(words), per):
                w = words[w0:w0 + per]
                y = None if x is None else np.broadcast_to(x, (len(w),) + x.shape)
                src = np.zeros((len(w), offsets.shape[1]), dtype=np.int64)
                for j in w.T:
                    y = self._step(src, y, j)
                    src = src + offsets[j]
                yield y

    def _word_span(self) -> np.ndarray:
        """An F_p basis of S, the linear span of the closed words' matrices
        (``_words``), as a (dim S, dim, dim) stack; dim S <= dim^2.  Each
        word's matrix (``_word_images`` of the identity) is flattened to a
        dim^2-vector and reduced against the fully reduced rows of S found
        so far (``_reduce_mod_p``, blocks of dim pivots); a residual that is
        not zero joins them, and the rest of its batch is reduced by it.
        The batches hold _SCREEN_BATCH // dim^2 words."""
        dim = self.dim
        p = self._modp[0]
        rref = np.zeros((0, dim * dim), dtype=np.int64)
        pivots = np.zeros(0, dtype=np.int64)
        for y in self._word_images(None, max(1, _SCREEN_BATCH // (dim * dim))):
            res = _reduce_mod_p(y.reshape(len(y), -1), rref, pivots, p, dim)
            res = res[res.any(axis=1)]
            while len(res):
                q = int(np.argmax(res[0] != 0))
                w = res[0] * pow(int(res[0, q]), -1, p) % p
                rref = np.concatenate([(rref - rref[:, q, None] * w) % p, w[None]])
                pivots = np.append(pivots, q)
                res = (res[1:] - res[1:, q, None] * w) % p
                res = res[res.any(axis=1)]
            if len(pivots) == dim * dim:
                break
        return rref.reshape(-1, dim, dim)

    def _grade_zero_spin(self, seed: GradedVector) -> tuple:
        """(rank, RREF) over F_p of the rows of a seed at grade 0 pushed
        through the closed words (``_words``) until no new row appears, or
        dim as soon as it is reached: the rank and the RREF rows as an int64
        array in pivot order.  Spun once per seed line.  The rank is at most
        dim W_0 for the seed's closure W (``screen_full``): the screen asks
        whether it is dim, the reuse of a known closure whether it reaches
        that family's dim at grade 0; transport lifts the RREF.

        Each round applies the new rows to every word, or, once the engine
        holds it, to the basis of the words' span S (``_word_span``), which
        has at most dim^2 matrices where the words number 2,240 at n=2 and
        116,192 at n=3.  A row space is closed under every word exactly when
        it is closed under their span, so both give the same rank and,
        since an RREF is unique to its span, the same RREF.  S is built
        when a round over the words ends below dim, once per engine: a
        probe whose seeds all fill grade 0 never builds it.
        """
        key = _seed_key(seed)
        if key in self._ranks:
            return self._ranks[key]
        dim = self.dim
        p = self._modp[0]
        spans = _ModpSpans(p, 1, dim)
        zero = np.zeros(1, dtype=np.int64)
        row = np.array([[v % p for v in _int_row(seed.payload)]], dtype=np.int64)
        frontier = [spans.insert(zero, row)]
        # candidate rows per batch
        chunk = max(1, _SCREEN_BATCH // (dim * dim))
        while frontier and spans.rank[0] < dim:
            rows = np.concatenate(frontier)
            frontier = []
            per = max(1, chunk // len(rows))
            span = self._span
            images = self._word_images(rows, per) if span is None else (
                rows @ span[k0:k0 + per] % p for k0 in range(0, len(span), per))
            for y in images:
                y = y.reshape(-1, dim)
                frontier += [new for _, _, new in spans.absorb(zero.repeat(len(y)), y)]
                if spans.rank[0] == dim:
                    break
            if span is None and spans.rank[0] < dim:
                self._span = self._word_span()
        P = spans.P[0]
        self._ranks[key] = (int(spans.rank[0]), P[P.any(axis=1)])
        return self._ranks[key]

    def _invertible_steps(self, idx: _GradeIndex, gids: np.ndarray) -> np.ndarray:
        """steps[k, j]: the step from grade ``gids[k]`` of ``idx`` under
        generator j stays in that box, and its exact scalar
        L (bar r, s + alpha) is nonzero.  There H_r is that scalar times I
        plus the nilpotent rho(r bar r^t), so it is invertible and maps the
        grade's space of any invariant family onto the target's."""
        table = self.table
        src = idx.coords[gids]
        if table.c_small.all():
            s_l = src * table.L + table.l_alpha
        else:
            s_l = src.astype(object) * table.L + table.l_alpha.astype(object)
        return idx.steps_in_box(src, table.offsets) & (s_l @ table.bars.T != 0)

    def _walk(self, radius: int) -> tuple:
        """(index, layers, rest): the walk from grade 0 over the box of
        ``radius``, as gids of ``index``, that box's grade index.  The same
        for every seed, so it is built once per radius.

        ``layers`` runs breadth first along the invertible steps
        (``_invertible_steps``), one (parents, generators, targets) triple of
        gid arrays per layer, one parent per newly reached grade: its first
        step in row-major order.  ``rest`` holds the (sources, generators,
        targets) of every in-box step from a reached grade into a grade no
        layer reaches, by target and then by generator.  At integral alpha
        the walk misses -alpha: every step into it has scalar
        (bar r, -r) = 0.  At alpha = 0 no step leaves grade 0, so there is no
        layer and the walk misses every other grade.
        """
        if radius in self._walks:
            return self._walks[radius]
        idx = self.index if radius == self.box.radius else _GradeIndex(radius, self.box.N)
        offsets = self.table.offsets
        codes = offsets @ idx.weights
        reached = np.zeros(idx.count, dtype=bool)
        new = np.array([idx.encode_one((0,) * idx.N)])
        reached[new] = True
        block = max(1, _SCREEN_BATCH // len(offsets))
        layers = []
        while len(new):
            layer = []
            for b0 in range(0, len(new), block):
                src = new[b0:b0 + block]
                ii, jj = np.nonzero(self._invertible_steps(idx, src))
                tgt, first = np.unique(src[ii] + codes[jj], return_index=True)
                fresh = ~reached[tgt]
                tgt, first = tgt[fresh], first[fresh]
                reached[tgt] = True
                layer.append((src[ii[first]], jj[first], tgt))
            layer = tuple(map(np.concatenate, zip(*layer)))
            if len(layer[2]):
                layers.append(layer)
            new = layer[2]
        missed = np.flatnonzero(~reached)
        # starts with an empty triple, for a box with no grade missed
        rest = [(missed[:0],) * 3]
        for b0 in range(0, len(missed), block):
            tgt = missed[b0:b0 + block]
            # the sources t - r in the box
            kk, jj = np.nonzero(idx.steps_in_box(idx.coords[tgt], -offsets))
            src = tgt[kk] - codes[jj]
            keep = reached[src]
            rest.append((src[keep], jj[keep], tgt[kk[keep]]))
        self._walks[radius] = idx, layers, tuple(map(np.concatenate, zip(*rest)))
        return self._walks[radius]

    def _images_span(self, src: np.ndarray, j: np.ndarray) -> bool:
        """True when the images over F_p of V under the generators ``j``
        from the grades ``src`` (coordinates, one row per step) have rank
        dim."""
        dim = self.dim
        spans = _ModpSpans(self._modp[0], 1, dim)
        per = max(1, _SCREEN_BATCH // (dim * dim * dim))
        for b0 in range(0, len(j), per):
            y = self._step(src[b0:b0 + per], None, j[b0:b0 + per]).reshape(-1, dim)
            spans.absorb(np.zeros(len(y), dtype=np.int64), y)
            if spans.rank[0] == dim:
                return True
        return False

    @cached_property
    def _carries(self) -> bool:
        """Whether every family that is full at grade 0 and invariant under
        the engine's generators is full on every grade of the inner box.

        The walk over the inner box (``_walk``) carries V onto V along
        invertible steps.  Each grade t it misses must be a target of its
        ``rest``, and the images H_r(V) over those steps, from reached
        grades t - r, must have rank dim mod p (an integer stack of rank
        dim mod p has rank dim over Q)."""
        idx, layers, (src, gens, tgt) = self._walk(self.inner_radius)
        # the rest runs by target: one group of steps per missed grade
        missed, first = np.unique(tgt, return_index=True)
        # every grade but 0 and the layers' targets must be a target of the rest
        if len(missed) < idx.count - 1 - sum(len(layer[2]) for layer in layers):
            return False
        return all(self._images_span(idx.coords[s], j)
                   for s, j in zip(np.split(src, first)[1:], np.split(gens, first)[1:]))

    def screen_full(self, seed: GradedVector) -> bool:
        """True when the closure W over Q of ``seed``, a vector at grade 0,
        fills every grade of the engine's inner box; False proves nothing,
        and a seed at another grade is never screened.

        Two parts decide it.  The seed's spin over F_p at grade 0 through
        closed words (``_grade_zero_spin``, spun once per seed line; the
        probe reads the same rank to reuse a known closure and the same RREF
        to transport) must reach rank dim.  Once a spin stays below dim
        after a round over the words, the engine spins under a basis of
        their span S instead (``_word_span``, built once): a subspace is
        closed under every word exactly when it is closed under S, so the
        rank does not change.  Let W be the closure: each
        W_g meet Z^dim is a saturated lattice, and the integer operator
        L H_r of the action table maps it into the lattice at grade g + r,
        so the lattice family mod p is invariant, contains the reduced
        primitive seed and has dimension dim W_g at grade g.  Every word is
        a path between grades of the radius-1 box, inside the engine's, so
        the rank mod p is at most dim W_0, for every p.  Then the walk over
        the inner box must carry fullness from grade 0 to every inner grade
        (``_carries``, decided once per engine, the same for every seed).
        """
        return not any(seed.grade) and self._carries and self._grade_zero_spin(seed)[0] == self.dim

    def _carry(self, x: np.ndarray, src: np.ndarray, gens: np.ndarray) -> np.ndarray:
        """The exact images, made primitive, of the rows ``x[k]`` (a
        steps x m x dim stack) at the gids ``src[k]`` under the generators
        ``gens[k]``, in the same shape; one ``_images`` call per
        _SWEEP_BATCH // max(dim^2, N) rows."""
        m, dim = x.shape[1:]
        x = x.reshape(-1, dim)
        k = np.repeat(np.arange(len(src)), m)
        chunk = max(1, _SWEEP_BATCH // max(dim * dim, self.index.N))
        y = np.concatenate([
            _images(self.table, self.index.coords[src[k[c0:c0 + chunk]]], x[c0:c0 + chunk],
                    gens[k[c0:c0 + chunk]])
            for c0 in range(0, len(x), chunk)])
        d = np.gcd.reduce(y, axis=1)
        return (y // np.where(d == 0, 1, d)[:, None]).reshape(len(src), m, dim)

    def transport(self, seed: GradedVector) -> np.ndarray | None:
        """The grid (``TruncatedModule.grade_rows``) of a family U made from
        the grade-0 spin of ``seed``, a vector at grade 0; or None.  U lies
        in the closure W of the seed when it fills grade 0, and it is W when
        it passes the enumeration re-check.

        W is fixed by W_0: on an invertible step s -> s + r
        (``_invertible_steps``) H_r W_s lies in W_{s+r} and has its
        dimension, as the reverse step (scalar -c, since (bar r, r) = 0) is
        invertible too, so W_{s+r} = H_r W_s.  U is made the same way:
        - (a) U_0: the RREF of the seed's grade-0 spin over F_p
          (``_grade_zero_spin``), each entry lifted by rational
          reconstruction (``_rational_lift``) and each row scaled to a
          primitive integer row; one prime, no CRT.  None when the walk
          reaches no grade (alpha = 0), when an entry does not
          reconstruct, when dim U_0 is not the spin's rank, or when U_0
          does not hold the seed exactly;
        - (b) U_t = H_r U_s along the layers of the walk over the engine's
          box (``_walk``), one ``_echelon_stack`` of the (targets, rank,
          dim) images per layer: each step is invertible, so each target
          gets rank independent rows;
        - (c) at a grade the walk misses, U_t is the span of H_r U_s over
          its ``rest`` steps, from the reached in-box sources s = t - r, in
          one pass: one more stack of each missed grade's images, padded
          to the largest group, which may make the grid taller.

        Soundness:
        - the prime never divides L, so the spin's rank is at most dim W_0,
          as in ``screen_full``, and dim U_0 is that rank;
        - if U fills the inner box, then U_0 = V, which is exact (so
          W_0 = V); every other row of U is an exact image of a row of U,
          so U lies in W;
        - if U is invariant and holds the seed, then W lies in U, so
          dim U_0 <= dim W_0 <= dim U_0, hence U_0 = W_0 and U = W.
        A wrong lift can therefore only fail the re-check, and report bytes
        do not change: a fully reduced echelon is unique to its span.
        """
        _, layers, (src, gens, tgt) = self._walk(self.box.radius)
        if any(seed.grade) or not layers:
            # no invertible step leaves grade 0 (alpha = 0): U would be only
            # grade 0 and one pass of its images
            return None
        rank, rref = self._grade_zero_spin(seed)
        p = self._modp[0]
        lifted = [[_rational_lift(v, p) for v in row] for row in rref.tolist()]
        if any(None in row for row in lifted):
            return None
        # U_0, and U_0 with the seed: both of the spin's rank when U_0 has
        # that dimension and holds the seed
        rows = [_int_row(row) for row in lifted]
        u0 = _echelon_stack(_int_array([rows + [(0,) * self.dim], rows + [_int_row(seed.payload)]]))
        if (_ranks(u0) != rank).any():
            return None
        grid = np.zeros((self.index.count, rank, self.dim), dtype=u0.dtype)
        grid[self.index.encode_one(seed.grade)] = u0[0, :rank]
        for parents, steps, targets in layers:
            ech = _echelon_stack(self._carry(grid[parents], parents, steps))
            grid = grid.astype(np.result_type(grid, ech), copy=False)
            grid[targets] = ech
        if len(tgt):
            # taller where a missed grade's span exceeds the rank
            grid = _grid_with_rows(grid, np.repeat(tgt, rank),
                                   self._carry(grid[src], src, gens).reshape(-1, self.dim))
        return _normalized(grid)

    def guided_run(self, seeds: list) -> np.ndarray:
        """The grid (``_echelon_grid``) of a family W' that holds ``seeds``
        and lies in their closure W: the start of every closure the engine
        completes (``run_grid``), and the probe's fallback where
        ``transport`` gives no family or one that fails its re-check.

        One pass spins the seeds over F_p between the grades of the engine's
        box and takes the spin's steps exactly.  Every seed enters its
        grade's echelon (``_IntEchelon``) exactly.  Each round keeps two
        frontiers, row for row: the rows the spin inserted over F_p (first
        the seeds) and their exact rows.  The spin picks the round's steps,
        a parent row and a generator for each row it inserts; at the end of
        the round the exact image of each step's parent row is made
        primitive and inserted into its grade's echelon, one row at a time,
        in the order the spin kept them.  The row an insertion leaves,
        reduced against its grade's earlier rows, is the next round's exact
        frontier row.  Every row of W' is thus a seed or an exact image of a
        row already in W', so W' lies in W for every prime.  For a good
        prime W' = W, but only an invariance check of W' (which, holding the
        seeds, then contains W) or a W' that is full where W must be proves
        it.  Transients stay within _SCREEN_BATCH elements per spin batch
        and _SWEEP_BATCH per exact one.
        """
        dim = self.dim
        p = self._modp[0]
        idx = self.index
        table = self.table
        offsets = table.offsets
        n_gens, N = offsets.shape
        spans = _ModpSpans(p, idx.count, dim)
        echelons: dict = {}

        def insert(gid: int, row: tuple) -> tuple:
            ech = echelons.get(gid)
            if ech is None:
                ech = echelons[gid] = _IntEchelon(dim)
            reduced = ech.insert(row)
            return row if reduced is None else reduced

        for gv in seeds:
            if not self.box.contains(gv.grade):
                raise ValueError(f"seed grade {gv.grade} outside the box")
        rows = [_int_row(gv.payload) for gv in seeds]
        # the frontier: gids, F_p rows and exact rows, aligned
        f_gids = np.array([idx.encode_one(gv.grade) for gv in seeds], dtype=np.int64)
        exact = [insert(gid, row) for gid, row in zip(f_gids.tolist(), rows)]
        inserted = spans.absorb(f_gids, np.array([[v % p for v in row] for row in rows],
                                                 dtype=np.int64).reshape(-1, dim))
        picked, f_gids, f_rows = map(np.concatenate, zip(
            (f_gids[:0], f_gids[:0], np.zeros((0, dim), dtype=np.int64)), *inserted))
        x_rows = [exact[k] for k in picked.tolist()]
        block = max(1, _SCREEN_BATCH // n_gens)
        chunk = max(1, _SCREEN_BATCH // (dim * dim))
        exact_chunk = max(1, _SWEEP_BATCH // max(dim * dim, N))
        while True:
            # the round's steps in the spin's order: (parent, generator, gid, F_p row)
            steps = []
            for b0 in range(0, len(f_gids), block):
                src_gids = f_gids[b0:b0 + block]
                src = idx.coords[src_gids]
                ii, jj = np.divmod(np.flatnonzero(idx.steps_in_box(src, offsets)), n_gens)
                tgt = src_gids[ii] + self.codes[jj]
                open_tgt = spans.rank[tgt] < dim
                ii, jj, tgt = ii[open_tgt], jj[open_tgt], tgt[open_tgt]
                for c0 in range(0, len(ii), chunk):
                    i, j = ii[c0:c0 + chunk], jj[c0:c0 + chunk]
                    y = self._step(src[i], f_rows[b0 + i], j)
                    steps.extend((b0 + i[k], j[k], gids, w)
                                 for k, gids, w in spans.absorb(tgt[c0:c0 + chunk], y))
            if not steps:
                break
            parents, gens, gids, rows = map(np.concatenate, zip(*steps))
            new_rows = []
            for c0 in range(0, len(parents), exact_chunk):
                par = parents[c0:c0 + exact_chunk]
                x = _int_array([x_rows[q] for q in par])
                y = _images(table, idx.coords[f_gids[par]], x, gens[c0:c0 + exact_chunk])
                new_rows.extend(insert(int(g), _primitive(v))
                                for g, v in zip(gids[c0:c0 + exact_chunk], y))
            f_gids, f_rows, x_rows = gids, rows, new_rows
        return _echelon_grid(idx.count, dim, echelons)

    def complete(self, grid: np.ndarray) -> np.ndarray:
        """The closure W of the seeds of ``grid``, a family grid that holds
        them and lies in W (``guided_run``'s, or the seeds alone), grown
        until the enumeration's walks (``_failing_pairs``) find no failing
        pair.  Each round adds the primitive exact image (``_carry``) of
        each failing pair's first failing row at the pair's target, with
        one ``_echelon_stack`` over the touched grades (``_grid_with_rows``).
        A grade takes the images of at most dim pairs per round: the stack
        is padded to the largest group, and at a bad prime one grade can be
        the target of dozens.  The pairs left out fail again, and their
        sources are walked again.  Each image leaves its target's space, so
        every touched grade grows and the rounds end.  Sound for every
        prime: every added row is an exact image of a row of the family,
        which so stays in W, and an invariant family that holds the seeds
        contains W.  From the second round on the walks take as sources
        only the grades that grew and the last round's failing sources: any
        other pair passed, and target spaces only grow.
        """
        sources = None
        while True:
            gids, gens, slots = _failing_pairs(self, grid, sources)
            if not len(gids):
                return grid
            # the pairs by target, at most dim of them per grade
            tgt = gids + self.codes[gens]
            order = np.argsort(tgt, kind="stable")
            _, first, counts = np.unique(tgt[order], return_index=True, return_counts=True)
            taken = order[np.arange(len(order)) - np.repeat(first, counts) < self.dim]
            src, j = gids[taken], gens[taken]
            grid = _grid_with_rows(grid, tgt[taken],
                                   self._carry(grid[src, slots[taken]][:, None], src, j)[:, 0])
            sources = np.zeros(len(grid), dtype=bool)
            sources[tgt] = sources[gids] = True

    def run(self, seeds: list) -> dict:
        """{grade: _IntEchelon} of the closure (``run_grid``), nonzero
        grades only."""
        grid = self.run_grid(seeds)
        return {tuple(self.index.coords[gid].tolist()): _IntEchelon.of_echelon(self.dim, grid[gid])
                for gid in np.flatnonzero(_ranks(grid))}

    def run_grid(self, seeds: list) -> np.ndarray:
        """The grid (``TruncatedModule.grade_rows``) of the closure of
        ``seeds``: the guided family (``guided_run``), completed."""
        return self.complete(self.guided_run(seeds))


def closure(seeds: list, p: ModuleParams, box: Box, gens: GeneratorSet) -> TruncatedModule:
    """Smallest family containing the seeds and closed under all H_r with
    r in gens whenever the target grade stays in the box: the seeds' guided
    family, completed exactly (``_ClosureEngine.run_grid``)."""
    return TruncatedModule(p, box, grid=_ClosureEngine(p, box, gens).run_grid(seeds))


def _pair_count(box: Box, gens: GeneratorSet) -> int:
    """Number of (grade s, generator r) pairs with s and s+r in the box."""
    R, Rg = box.radius, gens.radius

    def c(t):
        return sum(1 for s in range(-R, R + 1) if abs(s + t) <= R)

    with_zero = sum(c(t) for t in range(-Rg, Rg + 1)) ** box.N
    only_zero = c(0) ** box.N
    return with_zero - only_zero


# failing pairs an enumeration report lists; ``passes`` counts them all
_LISTED_FAILURES = 20


def _enumerate_invariance(family: TruncatedModule, gens: GeneratorSet,
                          engine=None) -> dict:
    """Pass count over every in-box (grade, generator) pair.  ``engine``, a
    _ClosureEngine for the family's params and box and for ``gens``, lends
    its action table and grade index; without one, a new one is built.

    The failing pairs (``_failing_pairs``) are all counted and the first
    _LISTED_FAILURES listed: generator-major, then by grade, each at its
    first row whose image leaves the target space."""
    p, box = family.params, family.box
    if engine is None:
        engine = _ClosureEngine(p, box, gens)
    grid = family.grade_rows()
    failing = _failing_pairs(engine, grid)
    failures = [{
        "grade": engine.index.coords[gid].tolist(),
        "generator": list(engine.table.gens[j]),
        "witness": [str(v) for v in grid[gid, slot].tolist()],
    } for gid, j, slot in zip(*(a[:_LISTED_FAILURES].tolist() for a in failing))]
    pairs = _pair_count(box, gens)
    return {
        "check": "invariance",
        "method": "enumerate",
        "params": _family_params(family, gens),
        "pairs": pairs,
        "passes": pairs - len(failing[0]),
        "failures": failures,
    }


def _failing_pairs(engine, grid: np.ndarray, sources: np.ndarray | None = None) -> tuple:
    """(gids, gens, slots): the (source gid, generator index) pairs of the
    family ``grid`` (``TruncatedModule.grade_rows``) whose image leaves the
    target space, generator-major and then by gid, each at its first
    failing row ``grid[gid, slot]``; ``sources``, a gid mask, keeps the
    sources to its grades.  The enumeration and the closure's completion
    (``_ClosureEngine.complete``) both take them from here.  Two walks find
    them, in that order, on one grade state (``_GradeState.of_grid``):
    ``_grid_walk`` and ``_sweep_walk``, as ``_takes_grid`` picks.  Every
    residual is exact in int64 or decided by its residues
    (``_residue_moduli``), so neither does arithmetic on Python integers."""
    table, idx = engine.table, engine.index
    state = _GradeState.of_grid(grid)
    x = grid if sources is None else np.where(sources[:, None, None], grid, 0)
    # the source rows, by gid and then in echelon order
    src_gids, slots = np.divmod(np.flatnonzero((x != 0).any(axis=2)), x.shape[1])
    if not len(src_gids):
        return src_gids, src_gids, slots
    moduli = _residue_moduli(table, state, grid)
    if _takes_grid(moduli, table, idx, src_gids, engine.dim):
        return _grid_walk(table, idx, state, x, moduli)
    i, j = _sweep_walk(table, idx, state, x[src_gids, slots], src_gids)
    return src_gids[i], j, slots[i]


def _residue_moduli(table: _ActionTable, state: _GradeState, grid: np.ndarray) -> list:
    """The moduli the walks over the rows of ``grid`` run on.

    B = dim max|A| (dim max_p + max_c) max|x|, over the whole table, box
    and state, bounds every entry of every residual A_t y; the last three
    factors bound each image y = x pt + c x, and max|A| is taken as at
    least 1, so B bounds the images too.  Below 2^62 there are no moduli:
    the walks run exactly in int64.  Otherwise the moduli are pairwise
    coprime, each m <= ``_modulus_cap(dim)`` and so exact in int64 on
    residues in [0, m), and their product exceeds B: greedily downward,
    every m coprime to the product so far (a gcd, not a primality test).
    A residual z with |z| <= B that is 0 mod every modulus is then 0
    (Chinese remaindering)."""
    dim = grid.shape[-1]
    max_y = (dim * int(table.max_p.max()) + table.max_c) * _max_abs(grid)
    bound = dim * max(_max_abs(state.a_pad), 1) * max_y
    moduli, m = [], _modulus_cap(dim)
    while bound >= _INT64_SAFE and prod(moduli) <= bound:
        if gcd(m, prod(moduli)) == 1:
            moduli.append(m)
        m -= 1
    return moduli


def _takes_grid(moduli: list, table: _ActionTable, idx: _GradeIndex,
                src_gids: np.ndarray, dim: int) -> bool:
    """The grid walk when it runs on residues (``moduli``) or a generator's
    in-box rows fill, on average, at least half a ``_sweep_walk`` chunk;
    the sweep for the sparser int64 families, where the grid would spend
    its per-generator products on padding and empty grades."""
    R = idx.R
    Rg = int(table.offsets.max())
    # per coordinate s_a: the offsets r_a in [-Rg, Rg] with |s_a + r_a| <= R
    side = np.arange(-R, R + 1)
    span = np.minimum(R, side + Rg) - np.maximum(-R, side - Rg) + 1
    # (row, generator r != 0) pairs whose target stays in the box
    pairs = int((span[idx.coords[src_gids] + R].prod(axis=1) - 1).sum())
    chunk = max(1, _SWEEP_BATCH // max(dim * dim, idx.N))
    return bool(moduli) or 2 * pairs >= chunk * len(table.offsets)


def _sweep_walk(table: _ActionTable, idx: _GradeIndex, state: _GradeState,
                x_rows: np.ndarray, src_gids: np.ndarray) -> tuple:
    """(rows, gens): the failing pairs of the rows ``x_rows`` at
    ``src_gids`` (in gid order), as row and generator indices,
    generator-major and then by gid, each at its first row whose exact
    image (``_images``) is a candidate (``_GradeState.candidates``).  Every
    in-box pair whose target is not ``state.full`` is formed; generators go
    in blocks whose in-box mask has at most about _SWEEP_BATCH elements,
    and a chunk holds at most _SWEEP_BATCH // max(dim^2, N) pairs, so its
    gathered generator matrices stay within _SWEEP_BATCH elements too.
    Taken only where ``_residue_moduli`` gives no moduli, so images and
    residuals are int64."""
    n_rows, dim = x_rows.shape
    n_gens, N = table.offsets.shape
    src = idx.coords[src_gids]
    # a target's gid is its source's gid plus the generator's code
    codes = table.offsets @ idx.weights
    block = max(1, _SWEEP_BATCH // n_rows)
    chunk = max(1, _SWEEP_BATCH // max(dim * dim, N))
    failing = [np.zeros((2, 0), dtype=np.intp)]
    for j0 in range(0, n_gens, block):
        jj, ii = np.nonzero(idx.steps_in_box(src, table.offsets[j0:j0 + block]).T)
        jj += j0
        tt = src_gids[ii] + codes[jj]
        keep = ~state.full[tt]
        ii, jj, tt = ii[keep], jj[keep], tt[keep]
        for c0 in range(0, len(ii), chunk):
            i, j = ii[c0:c0 + chunk], jj[c0:c0 + chunk]
            bad = state.candidates(tt[c0:c0 + chunk], _images(table, src[i], x_rows[i], j))
            failing.append(np.stack([i[bad], j[bad]]))
    # generator-major and then in row order, so a pair's first occurrence
    # is its first failing row
    i, j = np.concatenate(failing, axis=1)
    _, first = np.unique(j * idx.count + src_gids[i], return_index=True)
    return i[first], j[first]


def _residuals(x: np.ndarray, pt: np.ndarray, c: np.ndarray, a: np.ndarray, m: int) -> np.ndarray:
    """The residuals y @ a of the images y = x @ pt + c x, summed in int64
    with pt and c: exact when m is 0, and mod m when x, pt and a are residues
    in [0, m) (c is reduced here), each sum below (dim+1)(m-1)^2 < 2^63."""
    y = x @ pt + (c % m if m else c) * x
    return (y % m) @ a % m if m else y @ a


def _grid_walk(table: _ActionTable, idx: _GradeIndex, state: _GradeState,
               grid: np.ndarray, moduli: list) -> tuple:
    """(gids, gens, slots): ``_sweep_walk``'s failing pairs, in its order,
    from the box grid, each at its first failing row ``grid[gid, slot]``.

    ``grid`` holds each grade's rows at its gid, zero-padded to the largest
    grade dimension m.  For each generator r, the grades s with s and s + r
    in the box are one slice of that grid and their targets the slice
    shifted by r, both views; the images are one product with the
    generator's matrix plus c x, and the residuals one product with the
    annihilators of ``state`` on the target slice.  A padding row is zero
    and passes.  Without ``moduli`` this runs once, exactly in int64;
    otherwise once per modulus on residues (grid and annihilators reduced up
    front), and a row fails where any modulus sees a nonzero residual, ORed
    before each pair takes its first failing row.  The k int32 reduced grids
    hold k x count x (m + dim) x dim residues, and each generator's
    transients, one modulus at a time, a few arrays of slice grades x m x dim.
    """
    dim, side = grid.shape[-1], idx.side
    shape = (side,) * idx.N
    layers = []
    for mod in moduli or [0]:
        X, A, l_alpha, pt = (np.asarray(np.mod(a, mod) if mod else a, dtype=np.int64)
                             for a in (grid, state.a_pad, table.l_alpha, table.pt))
        if mod:  # in half the memory; their products with pt still form in int64
            X, A = X.astype(np.int32), A.astype(np.int32)
        s_l = idx.coords * (table.L % mod if mod else table.L) + l_alpha
        layers.append((mod, X.reshape(shape + grid.shape[1:]),
                       A.reshape(shape + (dim, dim)).swapaxes(-1, -2),
                       s_l.reshape(shape + (idx.N,)), pt))
    gid_grid = np.arange(idx.count).reshape(shape)
    failing = [(gid_grid.ravel()[:0],) * 3]
    # per generator and axis: the grades s with s and s + r in the box run
    # from neg to side - pos, their targets from pos to side - neg
    pos = np.maximum(table.offsets, 0)
    neg = np.maximum(-table.offsets, 0)
    bounds = zip(neg.tolist(), (side - pos).tolist(), pos.tolist(), (side - neg).tolist())
    for j, (s0, s1, t0, t1) in enumerate(bounds):
        src = tuple(map(slice, s0, s1))
        tgt = tuple(map(slice, t0, t1))
        bad = False
        for mod, X, A, s_l, pt in layers:
            c = (s_l[src] @ table.bars[j])[..., None, None]
            res = _residuals(X[src], pt[j], c, A[tgt], mod)
            if res.any():
                bad = bad | res.any(axis=-1)
        if bad is False:
            continue
        bad = bad.reshape(-1, bad.shape[-1])
        fail = np.flatnonzero(bad.any(axis=1))
        failing.append((gid_grid[src].ravel()[fail], np.full(len(fail), j),
                        bad[fail].argmax(axis=1)))
    return tuple(map(np.concatenate, zip(*failing)))


def _family_params(family: TruncatedModule, gens: GeneratorSet) -> dict:
    p = family.params
    return {
        "rep": p.rep.name,
        "n": p.rep.alg.n,
        "alpha": [format_scalar(a) for a in p.alpha],
        "box_radius": family.box.radius,
        "gen_radius": gens.radius,
        "kind": family.kind,
    }


# -- polynomial identities for the certificate mode ----------------------


def _bar_sign_index(b: int, n: int):
    """bar(e_b) = sign * e_index."""
    return (-1, n + b) if b < n else (1, b - n)


def _linear(N: int, mats: list, *blocks) -> MatrixPolynomial:
    """sum_a x_a mats[a] in the variables u_0..u_{N-1}, r_0..r_{N-1}
    (indices 0..2N-1): x is u for blocks (0,), r for (1,), u + r for (0, 1)."""
    return MatrixPolynomial.linear(
        2 * N, {blk * N + a: m for blk in blocks for a, m in enumerate(mats)})


def _pairing_identity(N: int, dim: int) -> MatrixPolynomial:
    """(bar r, u) I_dim in the variables (u, r).  bar comes from
    ``symplectic.bar``, not from ``_bar_sign_index`` as in rho_w, so I1
    holds only if the two agree."""
    return _scalar_times_identity({_mono(2 * N, j, N + i): c for i in range(N)
                                   for j, c in enumerate(bar(_unit(N, i))) if c}, dim, 2 * N)


def _column(N: int, *blocks) -> MatrixPolynomial:
    """x as an N x 1 column, with x as in ``_linear``."""
    return _linear(N, [SparseMatrix(N, 1, {(a, 0): 1}) for a in range(N)], *blocks)


def _bar_row(N: int) -> MatrixPolynomial:
    """bar(r)^t as a 1 x N row, linear in r."""
    return _linear(N, [SparseMatrix.from_rows([bar(_unit(N, a))]) for a in range(N)], 1)


def _certificate_wedge_identities(n: int, k: int) -> list:
    """Exact polynomial identities behind the deltak invariance argument.

    Each is one product of matrix polynomials in (u, r), so it holds for
    every rational grade and generator:

      I1: ((u+r) ^) ((bar r, u) I + rho_w(r)) (u ^) = 0 on Lambda^{k-1}
      I2: (r ^) rho_w(r) = 0 on Lambda^k
      S1: iota_r (u ^) + (u ^) iota_r = (r . u) I on Lambda^k  (Koszul
          homotopy, so Ker(u ^ .) on wedge degree k equals u ^ Lambda^{k-1}
          for u != 0)

    with rho_w(r) = sum r_a r_b (e_a ^) iota_{bar e_b} = (r ^) iota_{bar r},
    built independently of the rep's rho (``rho_factorization`` ties them).
    Returns names of the identities that FAILED (empty means all hold).
    """
    N = 2 * n
    wedge = {d: [wedge_matrix(N, d, a) for a in range(N)] for d in (k - 1, k)}
    interior = {d: [interior_matrix(N, d, b) for b in range(N)] for d in (k, k + 1)}
    bar_interior = [interior[k][j].scale(sgn)
                    for sgn, j in (_bar_sign_index(b, n) for b in range(N))]
    rho_w = _linear(N, wedge[k - 1], 1) @ _linear(N, bar_interior, 1)
    u_wedge = _linear(N, wedge[k - 1], 0)
    dim_k = comb(N, k)
    dot = _scalar_times_identity({_mono(2 * N, a, N + a): 1 for a in range(N)}, dim_k, 2 * N)

    failed = []
    if (_linear(N, wedge[k], 0, 1) @ (_pairing_identity(N, dim_k) + rho_w) @ u_wedge).terms:
        failed.append("I1")
    if (_linear(N, wedge[k], 1) @ rho_w).terms:
        failed.append("I2")
    homotopy = (_linear(N, interior[k + 1], 1) @ _linear(N, wedge[k], 0)
                + u_wedge @ _linear(N, interior[k], 1))
    if homotopy != dot:
        failed.append("S1")
    return failed


def _certificate_rank_one_expansion(n: int) -> bool:
    """r bar(r)^t = sum_{a<=b} r_a r_b C_ab with C_ab the sp polarizations."""
    N = 2 * n
    expansion = MatrixPolynomial(2 * N, (N, N), {
        _mono(2 * N, N + a, N + b): polarization(N, a, b)
        for a in range(N) for b in range(a, N)})
    return _column(N, 1) @ _bar_row(N) == expansion


def _certificate_rho_factorization(lam: Representation, k: int) -> bool:
    """rho_Lambda(C_ab) = wedge_a iota_{bar e_b} + wedge_b iota_{bar e_a}
    on lam = Lambda^k, for every pair a <= b; ties
    ``Representation.polarizations``, the table every rho(r bar(r)^t) is
    read from, to the wedge/interior factorization."""
    alg = lam.alg
    n, N = alg.n, alg.N
    wedges = {a: wedge_matrix(N, k - 1, a) for a in range(N)}
    interiors = {b: interior_matrix(N, k, b) for b in range(N)}
    for (a, b), lhs in lam.polarizations.items():
        sgn_b, jb = _bar_sign_index(b, n)
        rhs = (wedges[a] @ interiors[jb]).scale(sgn_b)
        if a != b:
            sgn_a, ja = _bar_sign_index(a, n)
            rhs = rhs + (wedges[b] @ interiors[ja]).scale(sgn_a)
        if lhs != rhs:
            return False
    return True


def _spot_check_family(family: TruncatedModule, gens: GeneratorSet, rng,
                       samples: int) -> list:
    """Direct act_H membership checks on randomly sampled (grade, r) pairs.

    The draws never depend on the family, so every in-box pair is drawn
    first and the grades they touch are built in one ``grade_rows`` stack."""
    box = family.box
    p = family.params
    pairs = []
    while len(pairs) < samples:
        grade = tuple(rng.randint(-box.radius, box.radius) for _ in range(box.N))
        r = gens.vector(rng.randrange(gens.count()))
        tgt = tuple(a + b for a, b in zip(grade, r))
        if box.contains(tgt):
            pairs.append((grade, r, tgt))
    grades = sorted({g for grade, _, tgt in pairs for g in (grade, tgt)})
    stack = family.grade_rows(np.array(grades, dtype=np.int64).reshape(-1, box.N))
    spaces = {g: _IntEchelon.of_echelon(family.dim_v, rows) for g, rows in zip(grades, stack)}
    failures = []
    for grade, r, tgt in pairs:
        dst = spaces[tgt]
        for row in spaces[grade].rows:
            img = act_H(r, GradedVector(grade, row), p)
            if not dst.contains(_int_row(img.payload)):
                failures.append({"grade": list(grade), "generator": list(r)})
                break
    return failures


def _certificate_invariance(family: TruncatedModule, gens: GeneratorSet,
                            spot_samples: int = 25) -> dict:
    p = family.params
    alg = p.rep.alg
    n = alg.n
    checks = {}
    rng = random.Random(0xC0FFEE)

    if family.kind == "trivial_line":
        checks["rep_acts_by_zero"] = all(
            p.rep.action[label].is_zero() for label in alg.labels
        )
        # H_r acts on a line at grade s by the scalar (bar r, s + alpha),
        # which vanishes for every r only at s = -alpha
        held = np.flatnonzero(_ranks(family.grade_rows()))
        checks["scalar_vanishes"] = all(
            pairing(bar(r), tuple(g + a for g, a in zip(s, p.alpha))) == 0
            for s in _lattice_points(family.box.radius, family.box.N)[held].tolist()
            for r in gens.vectors()
        )
    elif family.kind == "delta1":
        # ((bar r, u) I + r bar(r)^t) u = (bar r, u) (u + r), symbolically
        N = alg.N
        pair = _pairing_identity(N, N)
        rank_one_r = _column(N, 1) @ _bar_row(N)
        checks["line_identity"] = (pair + rank_one_r) @ _column(N, 0) == pair @ _column(N, 0, 1)
        checks["rank_one_expansion"] = _certificate_rank_one_expansion(n)
        # the cached rho path reproduces r bar(r)^t itself on the natural rep
        samples = [tuple(rng.randint(-2, 2) for _ in range(N)) for _ in range(5)]
        checks["rho_matches_rank_one"] = all(
            p.rho_rank_one(r_) == rank_one(r_) for r_ in samples if any(r_)
        )
    elif family.kind == "deltak":
        k = family.k
        failed = _certificate_wedge_identities(n, k)
        for name in ("I1", "I2", "S1"):
            checks[name] = name not in failed
        checks["rank_one_expansion"] = _certificate_rank_one_expansion(n)
        lam = exterior_power(natural_rep(alg), k)
        checks["rho_factorization"] = _certificate_rho_factorization(lam, k)
        checks["theta_equivariant"] = verify_intertwiner(contraction_theta(alg, k))[0]
        # the kernel embedding intertwines the fundamental rep with
        # Lambda^k, so invariance can be argued upstairs
        checks["kernel_embedding"] = verify_intertwiner(
            LinearMap(p.rep, lam, p.rep.subspace.embedding()))[0]
    else:
        raise ValueError(f"no certificate available for family kind {family.kind!r}")

    spot_failures = _spot_check_family(family, gens, rng, spot_samples)
    checks["spot_checks"] = not spot_failures

    pairs = _pair_count(family.box, gens)
    all_ok = all(checks.values())
    failures = [] if all_ok else (
        [{"identity": name} for name, ok in checks.items() if not ok] + spot_failures
    )
    return {
        "check": "invariance",
        "method": "certificate",
        "params": _family_params(family, gens),
        "identities": {name: bool(ok) for name, ok in sorted(checks.items())},
        "spot_samples": spot_samples,
        "pairs": pairs,
        "passes": pairs if all_ok else 0,
        "failures": failures,
    }


def invariance_check(family: TruncatedModule, gens: GeneratorSet,
                     method: str = "auto", spot_samples: int = 25) -> dict:
    """Verify act_H(r) maps family(s) into family(s+r) for every in-box pair.

    method "enumerate" materializes the family and checks every pair
    directly; "certificate" (available for the explicitly built kinds)
    verifies polynomial identities that imply the same statement at every
    grade, plus random end-to-end spot checks; "auto" picks the
    certificate when one exists.
    """
    if method == "auto":
        method = "certificate" if family.kind in ("trivial_line", "delta1", "deltak") else "enumerate"
    if method == "certificate":
        return _certificate_invariance(family, gens, spot_samples=spot_samples)
    if method == "enumerate":
        return _enumerate_invariance(family, gens)
    raise ValueError(f"unknown invariance method {method!r}")


# -- explicit submodule families -----------------------------------------


def _alpha_integral(alpha) -> bool:
    return all(a.denominator == 1 for a in alpha)


def build_submodule(kind: str, p: ModuleParams, box: Box) -> TruncatedModule:
    rep = p.rep
    alg = rep.alg
    N = alg.N

    if kind == "trivial_line":
        if rep.name != "trivial":
            raise ValueError("trivial_line requires the trivial representation")
        if rep.dim != 1:
            # a file: rep may carry the name with another action
            raise ValueError(f"trivial_line requires the trivial representation of "
                             f"dimension 1, not {rep.dim}")
        if not _alpha_integral(p.alpha):
            raise ValueError("trivial_line requires integral alpha")
        neg_alpha = tuple(-int(a) for a in p.alpha)
        if not box.contains(neg_alpha):
            # the family would be empty and pass every check vacuously
            raise ValueError(f"trivial_line lives at grade -alpha = {neg_alpha}, "
                             f"outside the box of radius {box.radius}")
        side = 2 * box.radius + 1
        grid = np.zeros((box.count(), 1, 1), dtype=np.int64)
        grid[np.ravel_multi_index([a + box.radius for a in neg_alpha], (side,) * box.N)] = 1
        return TruncatedModule(p, box, grid=grid, kind="trivial_line")

    if kind == "delta1":
        if rep.name != "natural":
            raise ValueError("delta1 requires the natural representation")
        if rep.dim != N:
            # a file: rep may carry the name with another action
            raise ValueError(f"delta1 requires the natural representation of "
                             f"dimension {N}, not {rep.dim}")
        return TruncatedModule(p, box, builder=partial(_delta1_rows, p.alpha), kind="delta1")

    if kind == "deltak":
        if not rep.name.startswith("fundamental:"):
            raise ValueError("deltak requires a fundamental representation")
        k = int(rep.name.split(":")[1])
        if k < 2:
            raise ValueError("deltak requires k >= 2")
        # (e_a wedge) E : Ker theta_k -> Lambda^{k+1}, E the kernel embedding
        # scaled by the lcm of its entry denominators, as integer entries
        emb = rep.subspace.embedding()
        e_scale = lcm(*(v.denominator for v in emb.entries.values()))
        wedge_emb = np.zeros((N, comb(N, k + 1), rep.dim), dtype=object)
        for a in range(N):
            for (i, j), v in (wedge_matrix(N, k, a) @ emb).entries.items():
                wedge_emb[a, i, j] = int(v * e_scale)
        return TruncatedModule(p, box, builder=partial(_deltak_rows, p.alpha, wedge_emb),
                               kind="deltak", k=k)

    raise ValueError(f"unknown submodule kind {kind!r}")


def _scaled_u(alpha, grades: np.ndarray) -> np.ndarray:
    """u = L (s + alpha) at every grade s of ``grades`` (G x N), an integer
    vector with L the lcm of the alpha denominators: it spans the line of
    s + alpha, and u = 0 exactly when alpha is integral and s = -alpha.
    int64 when every |u| < 2^62, Python integers (object) otherwise."""
    L = lcm(*(a.denominator for a in alpha))
    l_alpha = [int(a * L) for a in alpha]
    small = _max_abs(grades) * L + max(map(abs, l_alpha)) < _INT64_SAFE
    dtype = np.int64 if small else object
    return grades.astype(dtype) * L + np.array(l_alpha, dtype=dtype)


def _delta1_rows(alpha, grades: np.ndarray) -> np.ndarray:
    """The delta1 family at ``grades``: the line of u (``_scaled_u``) as one
    primitive row with its first nonzero entry positive, G x 1 x N; a zero
    row where u = 0."""
    u = _scaled_u(alpha, grades)
    d = np.gcd.reduce(u, axis=1)
    lead = np.take_along_axis(u, (u != 0).argmax(axis=1)[:, None], axis=1)[:, 0]
    d = np.where(lead < 0, -d, d)
    return (u // np.where(d == 0, 1, d)[:, None])[:, None, :]


def _deltak_rows(alpha, wedge_emb: np.ndarray, grades: np.ndarray) -> np.ndarray:
    """The deltak family at ``grades``: per grade the kernel echelon of
    (u ^ .) E, G x dim x dim, with ``wedge_emb`` the N x C(N, k+1) x dim
    integer matrices (e_a ^ .) E.

    Koszul exactness (identity S1): for u != 0, u ^ Lambda^{k-1} is
    Ker(u ^ .) on Lambda^k, so the grade space Ker theta_k meet
    u ^ Lambda^{k-1} is the kernel of (u ^ .) E: the echelon of the
    annihilator of its row echelon.  At u = 0 the matrix is zero and the
    space is the whole kernel, as it must be.  All grades go through the
    same three stack steps, in ceil(C(N, k+1) / dim) blocks of grades, so
    that no block's (u ^ .) E stack is larger than the whole stack's
    dim x dim annihilators."""
    u = _scaled_u(alpha, grades)
    _, n_rows, dim = wedge_emb.shape
    # |sum_a u_a (e_a ^ .) E| <= max|u| times the largest column sum of |wedge_emb|
    small = u.dtype == np.int64 and (
        _max_abs(u) * int(np.abs(wedge_emb).sum(axis=0).max()) < _INT64_SAFE)
    wedge = wedge_emb.astype(np.int64 if small else object)
    return np.concatenate([
        _echelon_stack(_annihilator_stack(_echelon_stack(np.einsum("ga,aij->gij", ub, wedge))))
        for ub in np.array_split(u.astype(wedge.dtype, copy=False), -(-n_rows // dim))])


def claim2_witness(p: ModuleParams, r, k: int):
    """A nonzero element (r+alpha) ^ v_1 ^ ... ^ v_{k-1} of W_r^k
    intersected with Ker theta_k, built through the iterated hyperplane
    chain L(v) = v-perp meet bar(v)-perp."""
    alg = p.rep.alg
    n, N = alg.n, alg.N
    if not (1 <= k <= n):
        raise ValueError(f"k must be in 1..{n}")
    u = tuple(Fraction(g) + a for g, a in zip(r, p.alpha))
    if vec_is_zero(u):
        raise ValueError("r + alpha = 0: W is the zero subspace")
    if k == 1:
        return u

    constraints = [list(u), list(bar(u))]
    factors = []
    for _ in range(k - 1):
        l_space = nullspace(SparseMatrix.from_rows(constraints))
        if l_space.is_zero():
            raise AssertionError("hyperplane chain collapsed early")
        v = l_space.basis[0]
        factors.append(v)
        constraints.append(list(v))
        constraints.append(list(bar(v)))

    # wedge up: w ^ v differs from v ^ w by a sign only, irrelevant here
    witness = u
    for deg, v in enumerate(factors, start=1):
        v_wedge = combine(dict(enumerate(v)), {a: wedge_matrix(N, deg, a) for a in range(N)},
                          comb(N, deg + 1), comb(N, deg))
        witness = v_wedge.matvec(witness)
    if vec_is_zero(witness):
        raise AssertionError("witness wedge vanished")
    if not vec_is_zero(theta_matrix(N, k).matvec(witness)):
        raise AssertionError("witness is not in the kernel of theta")
    return witness


def claim1_inequality(n_max: int) -> dict:
    """C(2n,k) - C(2n,k-2) > C(2n-1,k-1) for all 2 <= k <= n <= n_max."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    entries = []
    failures = []
    for n in range(2, n_max + 1):
        for k in range(2, n + 1):
            lhs = comb(2 * n, k) - comb(2 * n, k - 2)
            rhs = comb(2 * n - 1, k - 1)
            ok = lhs > rhs
            entries.append({"n": n, "k": k, "dim": lhs, "bound": rhs, "pass": ok})
            if not ok:
                failures.append({"n": n, "k": k})
    return {
        "check": "claim1_inequality",
        "params": {"n_max": n_max},
        "samples": len(entries),
        "passes": len(entries) - len(failures),
        "failures": failures,
        "entries": entries,
    }


# -- the irreducibility probe --------------------------------------------


def _random_payload(rng, dim: int) -> tuple:
    while True:
        v = tuple(
            Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(dim)
        )
        if not vec_is_zero(v):
            return v


def _probe_seeds(dim: int, rng_seed: int, extra_seeds: int) -> list:
    """(name, payload) of the probe's seeds: the standard basis, then
    ``extra_seeds`` random rational vectors."""
    rng = random.Random(rng_seed)
    seeds = [(f"basis:{i}", tuple(ONE if j == i else ZERO for j in range(dim)))
             for i in range(dim)]
    for i in range(extra_seeds):
        seeds.append((f"random:{i}", _random_payload(rng, dim)))
    return seeds


def _recheck(engine: _ClosureEngine, gens: GeneratorSet, grid: np.ndarray,
             rechecks: dict) -> tuple:
    """(invariant, family) of the enumeration re-check of the family
    ``grid``, made once per distinct family and kept in ``rechecks``."""
    fkey = _family_key(grid)
    if fkey not in rechecks:
        fam = TruncatedModule(engine.p, engine.box, grid=grid)
        rechecks[fkey] = (not _enumerate_invariance(fam, gens, engine=engine)["failures"], fam)
    return rechecks[fkey]


def _known_closure(engine: _ClosureEngine, seed: GradedVector, rechecks: dict) -> np.ndarray | None:
    """The grid of a family in ``rechecks`` that is the closure W of
    ``seed``, a vector at grade 0, or None.

    Every invariant family U there is the closure of an earlier seed at
    grade 0.  U is W when ``seed`` lies in U_0 and the seed's rank at grade
    0 over F_p (``_ClosureEngine._grade_zero_spin``, asked for only then)
    is at least dim U_0: U is invariant and holds the seed, so W lies in U;
    the rank is at most dim W_0 (``screen_full``), so W_0 = U_0, which
    holds the earlier seed, and U lies in W.  A family that failed its
    re-check is never taken.
    """
    row = _int_row(seed.payload)
    for invariant, fam in rechecks.values():
        w0 = fam.int_basis(seed.grade)
        if invariant and w0.contains(row) and engine._grade_zero_spin(seed)[0] >= w0.dim:
            return fam.grade_rows()
    return None


def _close_seed(engine: _ClosureEngine, seed: GradedVector, gens: GeneratorSet,
                inner: np.ndarray, rechecks: dict) -> np.ndarray | None:
    """The grid of the closure W of ``seed``, a vector at grade 0, over Q,
    or None when W fills the inner box, whose gids are ``inner``.

    The mod-p screen decides first (``_ClosureEngine.screen_full``: the
    seed's words fill grade 0 and the engine's walk over the inner box
    carries that to every inner grade).  Next, an invariant family already
    re-checked in ``rechecks`` is W when the seed lies in its grade 0 and
    the seed's grade-0 rank reaches that grade's dimension
    (``_known_closure``); its grid, family key and re-check are the ones
    a fresh closure would give.  Every seed left is closed by transport: the
    family U that ``_ClosureEngine.transport`` carries from the lifted
    grade-0 RREF of the seed's spin along the walk over the whole box.  When
    no invertible step leaves grade 0 (alpha = 0) or the lift fails it gives
    nothing; when the lift is wrong U fails its re-check.  Only then does
    the seed go to the guided family W' of ``_ClosureEngine.guided_run``,
    made of the exact steps of the seed's F_p spin across the whole box.
    Either family is taken when it fills the inner box (it lies in W, so
    W does too) or when it passes the enumeration re-check (invariant and
    holding the seed, it contains W, and then it is W).  That re-check is
    the one a PROPER seed's family gets anyway, and its outcome is kept in
    ``rechecks``.  Otherwise ``_ClosureEngine.complete`` grows W' itself,
    the grid that failed its re-check, by the exact images of its failing
    pairs: W' holds the seed and lies in W, so the completion is W.
    """
    if engine.screen_full(seed):
        return None
    grid = _known_closure(engine, seed, rechecks)
    if grid is not None:
        return grid
    # transport first; the guided closure when transport gives no family
    # or one that fails its re-check
    for close, arg in ((engine.transport, seed), (engine.guided_run, [seed])):
        grid = close(arg)
        if grid is None:
            continue
        if (_ranks(grid)[inner] == engine.dim).all():
            return None
        if _recheck(engine, gens, grid, rechecks)[0]:
            return grid
    return engine.complete(grid)


def irreducibility_probe(p: ModuleParams, box: Box, gens: GeneratorSet,
                         rng_seed: int = 0xC0FFEE, extra_seeds: int = 4) -> dict:
    """Closure from every standard basis seed plus random rational seeds;
    verdict FULL / PROPER / INCONCLUSIVE on the inner box.

    FULL is evidence only (the box truncation cannot certify
    irreducibility); PROPER re-verifies the detected family's invariance
    and is certificate grade within the modeled generators.

    Each seed is first screened over F_p (``_ClosureEngine.screen_full``):
    its spin through closed words at grade 0 must span V, and the engine's
    breadth-first walk from grade 0 over the inner box, made once per
    probe, must carry a full grade 0 to every inner grade.  The walk
    follows the invertible steps; a grade it misses needs the images of V
    over its remaining in-box steps to span V.  A seed screened FULL is
    full there over Q as well, and needs no exact closure.  A seed that
    lies at grade 0 in an invariant family the probe already holds, with a
    grade-0 rank over F_p reaching that grade's dimension, has that family
    as its closure (``_known_closure``).  Every other seed is closed by
    transport (``_ClosureEngine.transport``) along the walk over the whole
    box, and the enumeration re-check of that family proves it is the
    closure.  A seed with no transport (alpha = 0, or a lift that fails) or
    whose family fails the re-check falls back to the guided closure
    (``_ClosureEngine.guided_run``) and, failing that, to that family's
    exact completion (``_ClosureEngine.complete``).  Every path hands over
    the family as one
    grid (``TruncatedModule.grade_rows``): its ranks at the inner gids give
    the seed's dims, and it feeds the re-check and the detected family.  A
    seed that is a multiple of an earlier one reuses its outcome, and each
    distinct family is re-checked once.
    """
    if box.radius < gens.radius:
        # the inner box would be empty and every seed would count as FULL
        raise ValueError(
            f"box radius {box.radius} must be at least the generator radius {gens.radius}"
        )
    dim = p.rep.dim
    N = p.rep.alg.N
    zero = (0,) * N
    engine = _ClosureEngine(p, box, gens)
    # the gids of the inner box, in lex order
    inner = np.flatnonzero(np.abs(engine.index.coords).max(axis=1) <= engine.inner_radius)

    seed_reports = []
    proper_families = []
    all_full = True
    # seed key -> grid of its closure, None when it fills the inner box
    closures = {}
    # family key -> (invariant, family) of its enumeration re-check
    rechecks = {}

    for name, payload in _probe_seeds(dim, rng_seed, extra_seeds):
        seed = GradedVector(zero, payload)
        key = _seed_key(seed)
        if key not in closures:
            closures[key] = _close_seed(engine, seed, gens, inner, rechecks)
        grid = closures[key]
        dims = [dim] * len(inner) if grid is None else _ranks(grid)[inner].tolist()
        full = all(d == dim for d in dims)
        entry = {
            "seed": name,
            "vector": [format_scalar(x) for x in payload],
            "full_on_inner": full,
            "min_inner_dim": min(dims),
            "max_inner_dim": max(dims),
        }
        # the seed lies at inner grade 0, so a closure that is not full is proper
        if not full:
            all_full = False
            entry["invariant"], fam = _recheck(engine, gens, grid, rechecks)
            entry["inner_dims"] = {
                ",".join(map(str, g)): d for g, d in zip(engine.index.coords[inner].tolist(), dims)
            }
            if entry["invariant"]:
                proper_families.append((int(_ranks(grid).sum()), fam))
        seed_reports.append(entry)

    report = {
        "check": "irreducibility_probe",
        "params": {
            "n": p.rep.alg.n,
            "rep": p.rep.name,
            "alpha": [format_scalar(a) for a in p.alpha],
            "beta": [format_scalar(b) for b in p.beta],
            "box_radius": box.radius,
            "gen_radius": gens.radius,
            "rng_seed": rng_seed,
            "extra_seeds": extra_seeds,
        },
        "dim_v": dim,
        "inner_radius": box.radius - gens.radius,
        "seeds": seed_reports,
    }

    if all_full:
        report["verdict"] = "FULL"
        report["caveat"] = (
            "FULL is evidence only: every seed saturates the inner box, but a "
            "finite box and finite generator set cannot certify irreducibility."
        )
        return report

    if proper_families:
        # smallest total dimension = sharpest reducibility witness
        detected = min(proper_families, key=lambda t: t[0])[1]
        report["verdict"] = "PROPER"
        report["detected_family"] = detected.to_obj()
        report["caveat"] = (
            "PROPER is certificate grade for the modeled generators: the "
            "detected family is a verified invariant proper family."
        )
        return report

    report["verdict"] = "INCONCLUSIVE"
    return report
