"""Exact rational sparse matrices, the integer echelon and canonical subspaces.

Matrix entries and vector payloads hold one scalar form (see ``canon``):
an integral value is a Python ``int``, any other value a
``fractions.Fraction`` in lowest terms with positive denominator, and no
value is ever a ``float``.  Integer data (sp_2n, its reps, integer
grades) so never pays for ``Fraction`` arithmetic, and an int and the
equal ``Fraction`` compare, hash and format the same.

One fraction-free integer echelon (``_IntEchelon``) makes every kernel:
``nullspace`` scales each row to a primitive integer row, takes the
echelon of the rows and then its kernel echelon (``_IntEchelon.kernel``,
the echelon of its annihilator).  ``_echelon_stack`` and
``_annihilator_stack`` give the same rows for a whole stack of equal-shape
integer matrices at once, one column or pivot row per numpy step; they
make the grades of the built families and the enumeration's annihilators.
Every subspace the program computes with is such an echelon.  A
``Subspace``, the reference and report form, is its canonical form: a
reduced row-echelon basis of ``Fraction`` rows (pivot = first nonzero
column, leading entry 1), so equal subspaces compare equal bit-for-bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def canon(x):
    """The canonical form of an exact scalar: an int when it is integral,
    else a Fraction.  TypeError on a float or any other kind of number,
    which would carry a rounded value into exact arithmetic."""
    if type(x) is int:
        return x
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"exact scalar expected (int or Fraction), got {type(x).__name__}")


def parse_scalar(text: str) -> Fraction:
    """Parse a rational literal "p/q" or "p"; ValueError on bad input."""
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError(f"bad rational literal {text!r}: expected p/q or p, "
                         "with p and q integers") from None
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_scalar(x) -> str:
    """Render an int or Fraction as "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


class SparseMatrix:
    """Immutable sparse rational matrix keyed by (row, col).

    Zero entries are never stored and stored entries are canonical
    (``canon``).  All arithmetic is exact.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], int | Fraction] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) out of bounds for {rows}x{cols}")
                v = canon(v)
                if v:
                    clean[(i, j)] = v
        self.entries = clean

    # -- construction ------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "SparseMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                v = canon(v)
                if v:
                    entries[(i, j)] = v
        return cls._trusted(rows, cols, entries)

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: dict) -> "SparseMatrix":
        """Wrap entries that are already nonzero, in bounds and canonical, as
        the results of arithmetic on validated matrices are; no re-coercion."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols)

    # -- access ------------------------------------------------------

    def get(self, i: int, j: int):
        return self.entries.get((i, j), 0)

    def to_rows(self) -> list[list]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def is_zero(self) -> bool:
        return not self.entries

    # -- arithmetic --------------------------------------------------

    def _check_same_shape(self, other: "SparseMatrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_same_shape(other)
        entries = dict(self.entries)
        for k, v in other.entries.items():
            entries[k] = entries.get(k, 0) + v
        return SparseMatrix._trusted(self.rows, self.cols, _nonzero(entries))

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_same_shape(other)
        entries = dict(self.entries)
        for k, v in other.entries.items():
            entries[k] = entries.get(k, 0) - v
        return SparseMatrix._trusted(self.rows, self.cols, _nonzero(entries))

    def scale(self, c) -> "SparseMatrix":
        c = canon(c)
        if c == 0:
            return SparseMatrix(self.rows, self.cols)
        return SparseMatrix._trusted(
            self.rows, self.cols, {k: canon(c * v) for k, v in self.entries.items()}
        )

    def __neg__(self) -> "SparseMatrix":
        return self.scale(-1)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # row-indexed view of other for sparse row combination
        other_rows: dict[int, list[tuple]] = {}
        for (k, j), v in other.entries.items():
            other_rows.setdefault(k, []).append((j, v))
        acc: dict[tuple[int, int], int | Fraction] = {}
        for (i, k), a in self.entries.items():
            hits = other_rows.get(k)
            if not hits:
                continue
            for j, b in hits:
                key = (i, j)
                acc[key] = acc.get(key, 0) + a * b
        return SparseMatrix._trusted(self.rows, other.cols, _nonzero(acc))

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._trusted(
            self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def matvec(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        v = [canon(x) for x in v]
        out = [0] * self.rows
        for (i, j), a in self.entries.items():
            if v[j]:
                out[i] += a * v[j]
        return tuple(canon(x) for x in out)

    def stack(self, other: "SparseMatrix") -> "SparseMatrix":
        """Vertical concatenation."""
        if self.cols != other.cols:
            raise ValueError("column mismatch in stack")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i + self.rows, j)] = v
        return SparseMatrix._trusted(self.rows + other.rows, self.cols, entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"

    # -- serialization -----------------------------------------------

    def to_obj(self) -> dict:
        ents = [
            [i, j, format_scalar(v)]
            for (i, j), v in sorted(self.entries.items())
        ]
        return {"rows": self.rows, "cols": self.cols, "entries": ents}

    @classmethod
    def from_obj(cls, obj: dict) -> "SparseMatrix":
        try:
            rows, cols = int(obj["rows"]), int(obj["cols"])
            entries = {
                (int(i), int(j)): parse_scalar(s) for i, j, s in obj["entries"]
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed matrix object: {exc}") from exc
        return cls(rows, cols, entries)


def _nonzero(entries: dict) -> dict:
    return {k: canon(v) for k, v in entries.items() if v}


def _rref_rows(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns).

    Pivot selection: first nonzero column, first nonzero row within it.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        sel = -1
        for i in range(pr, nrows):
            if rows[i][pc] != 0:
                sel = i
                break
        if sel < 0:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        inv = ONE / rows[pr][pc]
        if inv != 1:
            rows[pr] = [inv * x for x in rows[pr]]
        prow = rows[pr]
        for i in range(nrows):
            if i == pr:
                continue
            f = rows[i][pc]
            if f != 0:
                ri = rows[i]
                rows[i] = [a - f * b for a, b in zip(ri, prow)]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return rows, pivots


class Subspace:
    """A subspace of Q^n in canonical RREF basis.

    The basis rows have leading entry 1, pivot columns otherwise zero and
    strictly increasing pivots; two Subspace objects are equal iff they
    are the same subspace.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: tuple[Vector, ...], pivots: tuple[int, ...]):
        # internal constructor; use the classmethods
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        basis = tuple(unit_vector(ambient_dim, i) for i in range(ambient_dim))
        return cls(ambient_dim, basis, tuple(range(ambient_dim)))

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        rows = []
        for v in vectors:
            v = list(v)
            if len(v) != ambient_dim:
                raise ValueError(f"vector length {len(v)} != ambient {ambient_dim}")
            rows.append([Fraction(x) for x in v])
        if not rows:
            return cls.zero(ambient_dim)
        rows, pivots = _rref_rows(rows)
        basis = tuple(tuple(r) for r in rows[: len(pivots)])
        return cls(ambient_dim, basis, tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient_dim

    def reduce(self, v: Sequence) -> Vector:
        """Residual of v after elimination against the RREF basis."""
        if len(v) != self.ambient_dim:
            raise ValueError(f"vector length {len(v)} != ambient {self.ambient_dim}")
        w = [Fraction(x) for x in v]
        for row, p in zip(self.basis, self.pivots):
            c = w[p]
            if c != 0:
                w = [a - c * b for a, b in zip(w, row)]
        return tuple(w)

    def contains(self, v: Sequence) -> bool:
        return vec_is_zero(self.reduce(v))

    def coordinates(self, v: Sequence) -> Vector | None:
        """Coefficients of v in the RREF basis, or None if v is outside."""
        if len(v) != self.ambient_dim:
            raise ValueError(f"vector length {len(v)} != ambient {self.ambient_dim}")
        w = [Fraction(x) for x in v]
        coords = []
        for row, p in zip(self.basis, self.pivots):
            c = w[p]
            coords.append(c)
            if c != 0:
                w = [a - c * b for a, b in zip(w, row)]
        if not vec_is_zero(tuple(w)):
            return None
        return tuple(coords)

    def add_vector(self, v: Sequence) -> tuple["Subspace", bool]:
        """Enlarged subspace and whether v was actually new."""
        res = self.reduce(v)
        if vec_is_zero(res):
            return self, False
        return Subspace.from_vectors(list(self.basis) + [res], self.ambient_dim), True

    def sum_with(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(
            list(self.basis) + list(other.basis), self.ambient_dim
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus intersection of two subspaces."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient_dim
        rows = []
        for v in self.basis:
            rows.append(list(v) + list(v))
        for v in other.basis:
            rows.append(list(v) + [ZERO] * n)
        if not rows:
            return Subspace.zero(n)
        rows, pivots = _rref_rows(rows)
        inter = []
        for r, row in enumerate(rows[: len(pivots)]):
            if pivots[r] >= n:
                inter.append(row[n:])
        return Subspace.from_vectors(inter, n)

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains(v) for v in other.basis)

    def annihilator(self) -> "Subspace":
        """Row space of functionals vanishing on this subspace."""
        if self.is_zero():
            return Subspace.full(self.ambient_dim)
        m = SparseMatrix.from_rows([list(r) for r in self.basis])
        return nullspace(m).subspace()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def to_obj(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "basis": [[format_scalar(x) for x in row] for row in self.basis],
        }


def nullspace(m: SparseMatrix) -> "_IntEchelon":
    """The integer echelon of the right kernel {v : m v = 0}."""
    return _IntEchelon.of_rows(m.cols, map(_int_row, m.to_rows())).kernel()


# -- the fraction-free integer echelon ----------------------------------


def _primitive(ints) -> tuple:
    ints = [int(v) for v in ints]
    g = gcd(*ints)
    if g <= 1:
        return tuple(ints)
    return tuple(v // g for v in ints)


def _int_row(vec) -> tuple:
    """A rational vector scaled to a primitive integer row (span-preserving)."""
    den = lcm(*(x.denominator for x in vec))
    return _primitive([int(x * den) for x in vec])


class _IntEchelon:
    """Fully reduced integer echelon basis: primitive rows, positive
    leading entry, zeros above and below every pivot.  Fraction-free
    elimination, with each row kept primitive by dividing out its gcd,
    keeps entries small and, in the closure hot loop, machine-sized.
    A fully reduced echelon is unique to its span."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list = []
        self.pivots: list = []

    @classmethod
    def of_rows(cls, ambient: int, rows) -> "_IntEchelon":
        """The echelon of the span of integer ``rows``."""
        ech = cls(ambient)
        for row in rows:
            ech.insert(row)
        return ech

    @classmethod
    def of_echelon(cls, ambient: int, rows: np.ndarray) -> "_IntEchelon":
        """The echelon whose rows are the nonzero rows of ``rows``, one
        matrix of a stack of fully reduced echelons (``_echelon_stack``,
        ``TruncatedModule.grade_rows``), taken as they are."""
        ech = cls(ambient)
        ech.rows = [row for row in rows.tolist() if any(row)]
        ech.pivots = [next(j for j, v in enumerate(row) if v) for row in ech.rows]
        return ech

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, cand) -> list:
        """An integer multiple of ``cand`` minus its part in the span,
        cleared at every pivot.  TypeError on an entry that is not an
        integer (``operator.index``): a Fraction is not truncated."""
        v = [index(x) for x in cand]
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                g = gcd(row[p], c)
                m1, m2 = row[p] // g, c // g
                v = [m1 * a - m2 * b for a, b in zip(v, row)]
        return v

    def contains(self, cand) -> bool:
        return not any(self._reduce(cand))

    def subspace(self) -> Subspace:
        """The canonical RREF basis: each row divided by its pivot entry."""
        basis = tuple(tuple(Fraction(x, row[p]) for x in row)
                      for row, p in zip(self.rows, self.pivots))
        return Subspace(self.ambient, basis, tuple(self.pivots))

    def embedding(self) -> tuple[SparseMatrix, int]:
        """(E, s): s the lcm of the pivot entries and E the ambient x dim
        integer matrix whose column c is row c times s / (its pivot entry):
        s times the canonical basis as columns, so E's pivot rows are s I."""
        s = lcm(*(row[p] for row, p in zip(self.rows, self.pivots)))
        return SparseMatrix._trusted(self.ambient, self.dim, {
            (i, c): v * (s // row[p])
            for c, (row, p) in enumerate(zip(self.rows, self.pivots))
            for i, v in enumerate(row) if v}), s

    def kernel(self) -> "_IntEchelon":
        """The echelon of the annihilator: {v : row . v = 0 for every row}."""
        ann = _annihilator(self.rows, self.pivots, self.ambient)
        return _IntEchelon.of_rows(self.ambient, ann)

    def insert(self, cand) -> tuple | None:
        """Assimilate one integer row; the reduced new row, or None."""
        v = self._reduce(cand)
        p = next((j for j, x in enumerate(v) if x), -1)
        if p < 0:
            return None
        g = gcd(*v)
        if v[p] < 0:
            g = -g
        v = [x // g for x in v]
        for i, row in enumerate(self.rows):
            c = row[p]
            if c:
                g = gcd(v[p], c)
                m1, m2 = v[p] // g, c // g
                nr = [m1 * a - m2 * b for a, b in zip(row, v)]
                gg = gcd(*nr)
                if nr[self.pivots[i]] < 0:
                    gg = -gg
                self.rows[i] = [x // gg for x in nr]
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < p:
            pos += 1
        self.rows.insert(pos, v)
        self.pivots.insert(pos, p)
        return tuple(v)


def _annihilator(rows: list, pivots: list, ambient: int) -> list:
    """Primitive integer functionals spanning the annihilator of the span
    of a fully reduced integer echelon (zeros above and below each pivot):
    one per free column j, e_j minus the pivot entries that cancel it."""
    piv = set(pivots)
    scale = 1
    for row, p in zip(rows, pivots):
        scale = lcm(scale, row[p])
    out = []
    for j in range(ambient):
        if j in piv:
            continue
        w = [0] * ambient
        w[j] = scale
        for row, p in zip(rows, pivots):
            w[p] = -row[j] * (scale // row[p])
        out.append(_primitive(w))
    return out


# -- the same, on a stack of matrices ----------------------------------
#
# numpy is imported inside the two stack routines, not with this module:
# every other module imports this one first, and with no cached bytecode a
# process that loads numpy before it compiles the larger modules peaks
# about 3 MB higher (29 -> 33 MB after importing hamlie.cli)

# int64 products are formed only below this bound; past it, Python integers
_INT64_SAFE = 2 ** 62


def _max_abs(a: np.ndarray) -> int:
    """The largest absolute entry of an integer array, 0 when it is empty;
    in Python ints, as an int64 -2^63 has no int64 absolute value."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _echelon_stack(M: np.ndarray) -> np.ndarray:
    """The fully reduced echelon of every matrix of the integer stack ``M``
    (G x r x c, int64 or object): the rows ``_IntEchelon.of_rows`` gives,
    primitive with positive pivots and in pivot order, then zero rows, to
    the height min(r, c).

    Fraction-free Gauss-Jordan elimination, one column for the whole stack
    per step; each matrix takes its own pivot rows.  The pivot row is made
    primitive with a positive pivot, and every other row x with entry f in
    the column becomes (piv x - f pivot row) / gcd(piv, f), made primitive.
    An int64 step forms entries up to 2 max|M|^2, so the stack turns to
    Python integers (object) before the first step where max|M|^2 reaches
    2^62.  A fully reduced echelon of primitive rows with positive pivots
    is unique to its span, so the rows equal the one-row-at-a-time ones.
    """
    import numpy as np

    G, r, c = M.shape
    M = M.copy()
    done = np.zeros(G, dtype=np.intp)  # pivot rows found so far, per matrix
    below = np.arange(r)[None, :] >= done[:, None]
    for j in range(c):
        cand = (M[:, :, j] != 0) & below
        g = np.flatnonzero(cand.any(axis=1))
        if not len(g):
            continue
        if M.dtype != object and _max_abs(M) ** 2 >= _INT64_SAFE:
            M = M.astype(object)
        top, sel = done[g], cand[g].argmax(axis=1)
        piv_row = M[g, sel]
        M[g, sel] = M[g, top]
        d = np.gcd.reduce(piv_row, axis=1)
        piv_row //= np.where(piv_row[:, j] < 0, -d, d)[:, None]
        sub = M[g]
        f = sub[:, :, j].copy()
        f[np.arange(len(g)), top] = 0
        piv = piv_row[:, j][:, None]
        d = np.gcd(piv, f)
        sub *= (piv // d)[:, :, None]
        sub -= (f // d)[:, :, None] * piv_row[:, None, :]
        sub[np.arange(len(g)), top] = piv_row
        d = np.gcd.reduce(sub, axis=2)
        sub //= np.where(d == 0, 1, d)[:, :, None]
        M[g] = sub
        done[g] += 1
        below[g, top] = False
    return M[:, :min(r, c)]


def _annihilator_stack(E: np.ndarray) -> np.ndarray:
    """``_annihilator`` of every matrix of ``E`` (G x h x c), a stack of
    fully reduced integer echelons with zero rows after the nonzero ones:
    per matrix, one primitive row per free column j in increasing order,
    scale e_j minus (scale / pivot) times the column's pivot-row entries at
    the pivots, scale the lcm of the pivots; then zero rows, to c x c.

    int64 while the lcm, checked before each pivot row is taken in, and the
    entries stay below 2^62; Python integers (object) for the whole stack
    past that.
    """
    import numpy as np

    G, h, c = E.shape
    nonzero = E != 0
    gi, ii = np.nonzero(nonzero.any(axis=2))
    pc = nonzero[gi, ii].argmax(axis=1)  # the pivot column of each nonzero row
    piv = np.ones((G, h), dtype=E.dtype)
    piv[gi, ii] = E[gi, ii, pc]
    # pivots, scale and mult are positive
    scale = np.ones(G, dtype=E.dtype)
    for i in range(h):
        if scale.dtype != object and (
                int(scale.max(initial=1)) * int(piv[:, i].max(initial=1)) >= _INT64_SAFE):
            scale, piv, E = scale.astype(object), piv.astype(object), E.astype(object)
        scale = np.lcm(scale, piv[:, i])
    mult = scale[:, None] // piv
    if E.dtype != object and int(mult.max(initial=1)) * _max_abs(E) >= _INT64_SAFE:
        scale, mult, E = scale.astype(object), mult.astype(object), E.astype(object)
    # per matrix, its free columns in increasing order, then its pivot
    # columns; row t of W belongs to column cols[t]
    is_piv = np.zeros((G, c), dtype=bool)
    is_piv[gi, pc] = True
    cols = np.argsort(is_piv, axis=1, kind="stable")
    g = np.arange(G)[:, None]
    W = np.zeros((G, c, c), dtype=E.dtype)
    W[g, np.arange(c), cols] = scale[:, None]
    F = mult[:, :, None] * E[g[:, :, None], np.arange(h)[:, None], cols[:, None, :]]
    W[gi, :, pc] = -F[gi, ii]
    W[np.arange(c) >= c - is_piv.sum(axis=1)[:, None]] = 0
    d = np.gcd.reduce(W, axis=2)
    W //= np.where(d == 0, 1, d)[:, :, None]
    return W
