"""Exact rational linear algebra: matrices, kernels, the subspace lattice,
quotients with deterministic sections, and annihilators.

Every entry a caller passes in or gets back is a `fractions.Fraction`, so
every identity in this module is an exact set equality; there are no
tolerances here. Inside, elimination and products run on integers: each row
is held as integer numerators over one common denominator, `rref` eliminates
fraction-free (Bareiss 1968) and divides by the pivots once at the end, and
products build one `Fraction` per output entry. Subspaces are kept in a
canonical form (reduced column echelon, pivots normalized to 1, pivot rows
strictly increasing) so that equality of subspaces is equality of their
stored bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import ValidationError

Scalar = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_row(row: Sequence[Fraction]) -> tuple:
    """(numerators, denominator) of a row of Fractions: row == numerators / d
    entry for entry, with d the lcm of the row's denominators."""
    dens = [x.denominator for x in row]
    d = lcm(*dens)
    if d == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (d // q) for x, q in zip(row, dens)], d


def _primitive(nums: list) -> list:
    """An integer row divided by the gcd of its entries."""
    h = gcd(*nums)
    return [a // h for a in nums] if h > 1 else nums


def _ratio(num: int, den: int) -> Fraction:
    return Fraction(num, den) if num else _ZERO


def _as_scalar(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValidationError(f"not an exact scalar: {x!r}")


class Matrix:
    """Immutable exact matrix with row-major entries.

    Zero-row and zero-column shapes are legal; they show up constantly as
    bases of trivial subspaces.
    """

    __slots__ = ("rows", "cols", "_data", "_ints")

    def __init__(self, entries: Sequence[Sequence]):
        data = tuple(tuple(_as_scalar(x) for x in row) for row in entries)
        rows = len(data)
        cols = len(data[0]) if rows else 0
        for row in data:
            if len(row) != cols:
                raise ValidationError("ragged matrix literal")
        self.rows = rows
        self.cols = cols
        self._data = data
        self._ints = None

    @classmethod
    def _make(cls, rows: int, cols: int, data: tuple) -> "Matrix":
        m = object.__new__(cls)
        m.rows, m.cols = rows, cols
        m._data = data
        m._ints = None
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._make(
            rows, cols, tuple(tuple(_ZERO for _ in range(cols)) for _ in range(rows))
        )

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, entries: Sequence) -> "Matrix":
        return cls([[x] for x in entries])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._data[i][j]

    def row(self, i: int) -> tuple:
        return self._data[i]

    def col(self, j: int) -> tuple:
        return tuple(self._data[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.col(j) for j in range(self.cols)]

    @property
    def entries(self) -> tuple:
        return self._data

    def _integer_rows(self) -> list:
        """`_integer_row` of every row, computed once per matrix."""
        if self._ints is None:
            self._ints = [_integer_row(row) for row in self._data]
        return self._ints

    def transpose(self) -> "Matrix":
        return Matrix._make(
            self.cols,
            self.rows,
            tuple(
                tuple(self._data[i][j] for i in range(self.rows)) for j in range(self.cols)
            ),
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValidationError(f"shape mismatch: {self.shape} @ {other.shape}")
        cols = [_integer_row(col) for col in other.transpose()._data]
        out = []
        for nums, d in self._integer_rows():
            nonzero = [(j, a) for j, a in enumerate(nums) if a]
            out.append(
                tuple(_ratio(sum(a * cn[j] for j, a in nonzero), d * cd) for cn, cd in cols)
            )
        return Matrix._make(self.rows, other.cols, tuple(out))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValidationError("shape mismatch in addition")
        return Matrix._make(
            self.rows,
            self.cols,
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self._data, other._data)
            ),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix._make(
            self.rows, self.cols, tuple(tuple(-a for a in row) for row in self._data)
        )

    def scale(self, c) -> "Matrix":
        c = _as_scalar(c)
        return Matrix._make(
            self.rows, self.cols, tuple(tuple(c * a for a in row) for row in self._data)
        )

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product, returning a plain tuple of Fractions."""
        v = [_as_scalar(x) for x in vec]
        if len(v) != self.cols:
            raise ValidationError("vector length does not match column count")
        vn, vd = _integer_row(v)
        nonzero = [(j, b) for j, b in enumerate(vn) if b]
        return tuple(
            _ratio(sum(nums[j] * b for j, b in nonzero), d * vd)
            for nums, d in self._integer_rows()
        )

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValidationError("row mismatch in hstack")
        return Matrix._make(
            self.rows,
            self.cols + other.cols,
            tuple(r1 + r2 for r1, r2 in zip(self._data, other._data)),
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValidationError("column mismatch in vstack")
        return Matrix._make(self.rows + other.rows, self.cols, self._data + other._data)

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._data for x in row)

    def is_skew(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self._data[i][j] == -self._data[j][i]
            for i in range(self.rows)
            for j in range(i, self.cols)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._data == other._data and self.shape == other.shape

    def __hash__(self):
        return hash((self.shape, self._data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._data)
        return f"Matrix({self.rows}x{self.cols}: [{body}])"


def rref(m: Matrix, stop: Optional[int] = None) -> tuple:
    """Reduced row echelon form of m. Returns (R, pivot_columns).

    Fraction-free Gauss-Jordan: each row is scaled to integers, a row is
    cleared at the pivot column as p*row - f*pivot_row with the row gcd
    divided out, and the pivots are divided out only at the end. Every
    integer row is a nonzero multiple of the row rational Gauss-Jordan holds
    at the same step, so the pivots, the swaps and the result are the same.
    With `stop`, only the first `stop` columns are eliminated; the rows left
    without a pivot (zero when every column is) come back unreduced.
    """
    data = [_primitive(_integer_row(row)[0]) for row in m.entries]
    rows, cols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(cols if stop is None else stop):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if data[i][c]), None)
        if pivot_row is None:
            continue
        data[r], data[pivot_row] = data[pivot_row], data[r]
        prow = data[r]
        p = prow[c]
        for i in range(rows):
            f = data[i][c]
            if i != r and f:
                g = gcd(p, f)
                pg, fg = p // g, f // g
                data[i] = _primitive([pg * a - fg * b for a, b in zip(data[i], prow)])
        pivots.append(c)
        r += 1
    out = [tuple(_ratio(a, row[c]) for a in row) for row, c in zip(data, pivots)]
    out += [tuple(_ratio(a, 1) for a in row) if any(row) else (_ZERO,) * cols for row in data[r:]]
    return Matrix._make(rows, cols, tuple(out)), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def solve(a: Matrix, b: Sequence):
    """Solve a @ x = b exactly. Returns a tuple, or None when inconsistent.

    When the solution is not unique the free variables are set to zero, so the
    output is still deterministic.
    """
    bvec = [_as_scalar(x) for x in b]
    if len(bvec) != a.rows:
        raise ValidationError("right-hand side length mismatch")
    aug = a.hstack(Matrix.column(bvec))
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [_ZERO] * a.cols
    for r, c in enumerate(pivots):
        x[c] = red[r, a.cols]
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square invertible matrix, read off one elimination of [m | I]."""
    if m.rows != m.cols:
        raise ValidationError("only square matrices invert")
    red, pivots = rref(m.hstack(Matrix.identity(m.rows)))
    if pivots[: m.cols] != tuple(range(m.cols)):
        raise ValidationError("matrix columns are dependent")
    return Matrix._make(m.rows, m.cols, tuple(row[m.cols :] for row in red.entries))


def kernel(m: Matrix) -> "Subspace":
    """Kernel {x : m x = 0} in canonical form."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for fc in free:
        v = [_ZERO] * m.cols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, fc]
        vectors.append(v)
    return Subspace.from_vectors(m.cols, vectors)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n in canonical reduced-column-echelon form.

    The basis matrix is n x d; its columns have strictly increasing pivot
    rows, each pivot entry is 1, and the pivot row of each column is zero in
    all other columns. Two subspaces are equal iff their fields are equal.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise ValidationError("basis rows must equal the ambient dimension")

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        """Canonical subspace spanned by the given vectors (possibly none)."""
        vecs = [tuple(_as_scalar(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValidationError("vector length does not match ambient dimension")
        if not vecs:
            return Subspace(ambient_dim, Matrix.zeros(ambient_dim, 0))
        red, pivots = rref(Matrix(vecs))
        basis_rows = [red.row(r) for r in range(len(pivots))]
        if not basis_rows:
            return Subspace(ambient_dim, Matrix.zeros(ambient_dim, 0))
        return Subspace(ambient_dim, Matrix(basis_rows).transpose())

    @staticmethod
    def from_matrix_columns(m: Matrix) -> "Subspace":
        return Subspace.from_vectors(m.rows, [m.col(j) for j in range(m.cols)])

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace.from_vectors(n, [])

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, Matrix.identity(n))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def contains_vector(self, v: Sequence) -> bool:
        return solve(self.basis, v) is not None


def sum_(a: Subspace, b: Subspace) -> Subspace:
    """Subspace sum A + B."""
    _check_same_ambient(a, b)
    return Subspace.from_matrix_columns(a.basis.hstack(b.basis))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Subspace intersection: A x for the x of each kernel vector (x, y) of
    [A | B], since A x = -B y lies in both."""
    _check_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    combos = kernel(a.basis.hstack(b.basis)).basis
    top = Matrix._make(a.dim, combos.cols, combos.entries[: a.dim])
    return Subspace.from_matrix_columns(a.basis @ top)


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subspace of a: appending b's basis to a's adds no rank."""
    _check_same_ambient(a, b)
    return rank(a.basis.hstack(b.basis)) == a.dim


def _check_same_ambient(a: Subspace, b: Subspace):
    if a.ambient_dim != b.ambient_dim:
        raise ValidationError(
            f"ambient dimension mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )


@dataclass(frozen=True)
class QuotientSpace:
    """ambient/sub presented by an explicit section of coset representatives.

    The section columns are chosen greedily from the ambient canonical basis
    in index order, so identical inputs always produce the identical section.
    `elimination` is an invertible n x n E with E [sub | section] = [I; 0]:
    its rows below dim ambient vanish exactly on ambient.
    """

    ambient: Subspace
    sub: Subspace
    section: Matrix
    elimination: Matrix

    @property
    def dim(self) -> int:
        return self.section.cols

    @cached_property
    def _beyond_sub(self) -> Matrix:
        """The rows of E from dim sub on: the section rows, then the rows
        that vanish exactly on ambient. No caller reads the sub rows."""
        rows = self.elimination.entries[self.sub.dim :]
        return Matrix._make(len(rows), self.elimination.cols, rows)

    @cached_property
    def projector(self) -> Matrix:
        """dim x n matrix sending each vector of ambient to its section
        coordinates: the section rows of E."""
        return Matrix._make(self.dim, self.elimination.cols, self._beyond_sub.entries[: self.dim])

    def project(self, v: Sequence) -> tuple:
        """Section coordinates of the coset of v (v must lie in ambient)."""
        coords = self._beyond_sub.apply(v)
        if any(coords[self.dim :]):
            raise ValidationError("vector outside the ambient subspace")
        return coords[: self.dim]

    def lift(self, coords: Sequence) -> tuple:
        return self.section.apply(coords)


def quotient(ambient: Subspace, sub: Subspace) -> QuotientSpace:
    """Quotient of ambient by sub (requires sub to be contained in ambient).

    One echelon pass over [sub | ambient | I], eliminating the first two
    blocks, gives everything. Pivot columns landing in the ambient block are
    exactly the ambient basis columns that extend sub in index order: the
    greedy section. sub lies in ambient iff the rank is dim ambient. The
    identity block becomes the E of the row operations, which send
    [sub | section] to the leading unit vectors.
    """
    _check_same_ambient(ambient, sub)
    n, width = ambient.ambient_dim, sub.dim + ambient.dim
    red, pivots = rref(sub.basis.hstack(ambient.basis).hstack(Matrix.identity(n)), stop=width)
    if len(pivots) != ambient.dim:
        raise ValidationError("quotient requires sub to be contained in ambient")
    chosen = [p - sub.dim for p in pivots[sub.dim :]]
    section = Matrix._make(n, len(chosen), tuple(tuple(row[j] for j in chosen) for row in ambient.basis.entries))
    elimination = Matrix._make(n, n, tuple(row[width:] for row in red.entries))
    return QuotientSpace(ambient, sub, section, elimination)


def annihilator(s: Subspace) -> Subspace:
    """{phi : phi(s) = 0} in the dual, identified with Q^n via the dual basis."""
    if s.dim == 0:
        return Subspace.full(s.ambient_dim)
    return kernel(s.basis.transpose())
