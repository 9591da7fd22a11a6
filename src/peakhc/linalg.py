"""Exact sparse linear algebra over Fraction or GaussianRational scalars.

Vectors are dicts mapping an index to a nonzero scalar; matrices are stored
column-sparse.  Everything here is field-generic: any scalar type with exact
+, -, *, / and truthiness-as-nonzero works.  Scalars follow the one
representation of ``scalars``: a stored real value is ``int`` while it is
integral and ``Fraction`` otherwise, and only a value with a nonzero
imaginary part is a ``GaussianRational``.  The scalar operators and the
vector primitives here (``vec_add_term``, ``vec_iadd_scaled``,
``vec_scale``) are the only places where a value is made and normalised;
callers keep what they return.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import _rational

__all__ = [
    "vec_add_term",
    "vec_iadd_scaled",
    "vec_scale",
    "SparseMatrix",
    "Echelon",
    "SpanSolver",
    "nullspace",
    "solve_unique",
]


def vec_add_term(u: dict, k, val) -> None:
    """u[k] += val in place, dropping the entry when it cancels; an integral
    ``Fraction`` sum is stored as ``int``."""
    s = u.get(k)
    s = val if s is None else s + val
    if s:
        u[k] = _rational(s) if type(s) is Fraction else s
    else:
        u.pop(k, None)


def vec_iadd_scaled(u: dict, v, c) -> dict:
    """u += c*v in place, dropping cancelled entries; returns u.

    ``v`` is a dict or an iterable of (key, value) pairs.  One loop serves
    every ``c``: the scalar operators form ``c * value`` and the sum, so int
    coefficients stay int and a ``GaussianRational`` result is demoted when
    real; an integral ``Fraction`` sum is stored as ``int``.
    """
    if not c:
        return u
    items = v.items() if isinstance(v, dict) else v
    for k, val in items:
        s = u.get(k)
        s = c * val if s is None else s + c * val
        if s:
            u[k] = _rational(s) if type(s) is Fraction else s
        else:
            u.pop(k, None)
    return u


def vec_scale(v: dict, c) -> dict:
    """c * v; a ``Fraction`` product is stored as ``int`` while integral."""
    if not c:
        return {}
    out = {}
    for k, val in v.items():
        p = val * c
        out[k] = _rational(p) if type(p) is Fraction else p
    return out


class SparseMatrix:
    """Column-sparse exact matrix: ``cols[j]`` maps row index -> nonzero entry."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = [dict() for _ in range(ncols)] if cols is None else cols

    @classmethod
    def identity(cls, n: int, one):
        return cls(n, n, [{i: one} for i in range(n)])

    @classmethod
    def from_entries(cls, nrows, ncols, entries):
        m = cls(nrows, ncols)
        for r, c, v in entries:
            if v:
                m.cols[c][r] = v
        return m

    def set(self, r: int, c: int, v) -> None:
        if v:
            self.cols[c][r] = v
        else:
            self.cols[c].pop(r, None)

    def get(self, r: int, c: int):
        return self.cols[c].get(r)

    def entries(self):
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                yield i, j, v

    def apply(self, vec: dict) -> dict:
        """Matrix times column vector."""
        out: dict = {}
        for j, c in vec.items():
            vec_iadd_scaled(out, self.cols[j], c)
        return out

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        return SparseMatrix(
            self.nrows, other.ncols, [self.apply(c) for c in other.cols]
        )

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        cols = []
        for a, b in zip(self.cols, other.cols):
            col = dict(a)
            vec_iadd_scaled(col, b, 1)
            cols.append(col)
        return SparseMatrix(self.nrows, self.ncols, cols)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        cols = []
        for a, b in zip(self.cols, other.cols):
            col = dict(a)
            vec_iadd_scaled(col, b, -1)
            cols.append(col)
        return SparseMatrix(self.nrows, self.ncols, cols)

    def scale(self, c) -> "SparseMatrix":
        return SparseMatrix(self.nrows, self.ncols, [vec_scale(col, c) for col in self.cols])

    def __neg__(self):
        return self.scale(-1)

    def transpose(self) -> "SparseMatrix":
        m = SparseMatrix(self.ncols, self.nrows)
        for i, j, v in self.entries():
            m.cols[i][j] = v
        return m

    def trace(self):
        tot = 0
        for j, col in enumerate(self.cols):
            v = col.get(j)
            if v is not None:
                tot = tot + v
        return _rational(tot) if type(tot) is Fraction else tot

    def is_zero(self) -> bool:
        return all(not col for col in self.cols)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(a == b for a, b in zip(self.cols, other.cols))

    def __hash__(self):
        raise TypeError("SparseMatrix is not hashable")

    def copy(self) -> "SparseMatrix":
        return SparseMatrix(self.nrows, self.ncols, [dict(c) for c in self.cols])


def _eliminate(rows: dict, vec: dict, reps=None, rep=None):
    """Reduce ``vec`` by the stored pivot rows (pivot -> row with entry 1 there).

    Returns ``(p, vec)``: the reduced copy of ``vec`` and its pivot, which has
    no stored row, or ``p = None`` when ``vec`` reduces to zero.  When
    ``reps`` (pivot -> combination that writes minus the row) is given,
    ``rep`` takes the same steps in place, with the same negated pivot entry
    as ``vec``, so that on return the reduced ``vec`` is the input minus the
    combination ``rep``.
    """
    vec = dict(vec)
    while vec:
        p = min(vec)
        row = rows.get(p)
        if row is None:
            return p, vec
        c = -vec[p]
        vec_iadd_scaled(vec, row, c)
        if reps is not None:
            vec_iadd_scaled(rep, reps[p], c)
    return None, vec


class Echelon:
    """Incremental exact row-echelon form of a set of sparse row vectors.

    Rows are dicts keyed by any totally ordered index type; the pivot of a row
    is its minimal index.  Stored pivot rows are normalized to pivot entry 1.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict = {}  # pivot index -> normalized row

    def add(self, row: dict):
        """Insert a row; return its pivot index, or None if dependent."""
        p, row = _eliminate(self.rows, row)
        if p is None:
            return None
        inv = _invert_scalar(row[p])
        if inv != 1:
            row = vec_scale(row, inv)
        self.rows[p] = row
        return p

    def copy(self) -> "Echelon":
        """An echelon form that shares the stored rows, which are never
        modified in place, but not the pivot table."""
        out = Echelon()
        out.rows = dict(self.rows)
        return out

    @property
    def rank(self) -> int:
        return len(self.rows)


class SpanSolver:
    """Row space of tagged vectors, with exact membership and expression.

    ``add(tag, vec)`` inserts a vector; ``express(vec)`` writes a vector as an
    exact linear combination of the inserted ones (dict tag -> coefficient) or
    returns None when it is outside the span.
    """

    __slots__ = ("rows", "reps")

    def __init__(self):
        # pivot -> row and pivot -> rep, with the invariant
        # row == -sum rep[t]*orig[t]: an expression then accumulates with
        # the sign it is returned with, and no rep is ever negated
        self.rows: dict = {}
        self.reps: dict = {}

    def _store(self, p, vec: dict, rep: dict) -> None:
        """Store the reduced ``vec``, which is -sum rep[t]*orig[t], under
        its pivot p, both scaled by 1/vec[p]."""
        inv = _invert_scalar(vec[p])
        if inv != 1:
            vec = vec_scale(vec, inv)
            rep = vec_scale(rep, inv)
        self.rows[p] = vec
        self.reps[p] = rep

    def add(self, tag, vec: dict) -> bool:
        """Insert; returns True when the vector enlarges the span."""
        rep = {tag: -1}
        p, vec = _eliminate(self.rows, vec, self.reps, rep)
        if p is None:
            return False
        self._store(p, vec, rep)
        return True

    def add_or_express(self, tag, vec: dict):
        """Insert ``vec`` under ``tag`` when it enlarges the span and return
        None; otherwise return its expression, as ``express`` does, after
        a single elimination."""
        rep = {}
        p, vec = _eliminate(self.rows, vec, self.reps, rep)
        if p is None:
            return rep
        rep[tag] = -1
        self._store(p, vec, rep)
        return None

    def contains(self, vec: dict) -> bool:
        return _eliminate(self.rows, vec)[0] is None

    def express(self, vec: dict):
        rep = {}
        if _eliminate(self.rows, vec, self.reps, rep)[0] is not None:
            return None
        return rep

    @property
    def rank(self) -> int:
        return len(self.rows)


def _invert_scalar(c):
    """Exact 1/c: an int stays int when c is 1 or -1 and becomes a Fraction
    otherwise, a Fraction with an integral inverse inverts to an int, and a
    GaussianRational is inverted by its own ``1 / c`` (conj(c) / |c|^2,
    a real one as a rational)."""
    if isinstance(c, int):
        return int(c) if c == 1 or c == -1 else Fraction(1, c)
    if isinstance(c, Fraction):
        return _rational(1 / c)
    return 1 / c


def _back_substitute(pivots: dict, x: dict) -> dict:
    """Fill in the pivot entries of ``x`` so that every stored row
    (pivot -> row with entry 1 there) vanishes on it, last pivot first."""
    for p in sorted(pivots, reverse=True):
        s = None
        for c, v in pivots[p].items():
            if c == p:
                continue
            xc = x.get(c)
            if xc is not None:
                s = v * xc if s is None else s + v * xc
        if s:
            x[p] = _rational(-s) if type(s) is Fraction else -s
    return x


def nullspace(rows, columns) -> list:
    """Basis of {x : A x = 0} for the row-sparse matrix A over ``columns``.

    ``rows`` is an iterable of dicts keyed by members of ``columns`` (any
    hashable, totally ordered index set).  Returns a list of dict vectors.
    """
    ech = Echelon()
    for r in rows:
        ech.add(r)
    pivots = ech.rows
    return [_back_substitute(pivots, {f: 1}) for f in columns if f not in pivots]


def solve_unique(rows_with_rhs):
    """Solve A x = b given rows as (coefficient dict, rhs scalar) pairs.

    The augmented vector (a, -b) is echelonized; a pivot landing in the
    right-hand-side column means the system is inconsistent (ValueError).
    Free coefficient columns are set to zero, so when A has full column rank
    on the referenced columns the returned dict is the unique solution.
    """
    ech = Echelon()
    for row, rhs in rows_with_rhs:
        r = {(0, c): v for c, v in row.items() if v}
        if rhs:
            r[_RHS] = -rhs
        ech.add(r)
    pivots = ech.rows
    if _RHS in pivots:
        raise ValueError("inconsistent linear system")
    x = _back_substitute(pivots, {_RHS: 1})
    return {c: v for (flag, c), v in x.items() if flag == 0 and v}


# sorts after every coefficient column (0, c)
_RHS = (1, "rhs")
