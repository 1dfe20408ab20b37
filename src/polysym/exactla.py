"""Exact rational linear algebra: matrices, kernels, the subspace lattice,
quotients with deterministic sections, coordinates in a canonical basis, and
annihilators.

Every entry a caller passes in or gets back is a `fractions.Fraction`, so
every identity in this module is an exact set equality; there are no
tolerances here. Fractions and zeros live only at the edges: a `Matrix`
stores each row as its nonzero entries, a dict from column to integer
numerator, over one positive denominator, in lowest terms, so equal matrices
have equal rows. Parsing builds those rows, and reading an entry, a row or a
column fills in the zeros and builds the `Fraction`s. Everything between
(elimination, sums, stacking, slicing, transposes, comparisons) runs on the
integer nonzeros, so its cost follows the nonzeros, not the shape: a
coboundary matrix has p + 2 of them per row. Products, sums and coefficient
maps are one sparse row combination, `_combine` (Gustavson 1978): a result
row sums the operand rows that one row's nonzeros select. `rref` eliminates
fraction-free (Bareiss 1968), one row at a time, touching only the union of
two rows' supports, and leaves each pivot row over its pivot. A subspace is
kept as its canonical rows (reduced row echelon, pivots normalized to 1,
pivot columns strictly increasing), so equality of subspaces is equality of
their stored rows, and sums, intersections, containment and kernels
eliminate those rows as they stand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import ValidationError

_ZERO = Fraction(0)
_ZERO_ROW = ({}, 1)


def _canonical(row: dict, d: int) -> tuple:
    """The row row / d (d nonzero, row's values nonzero integers) as (row,
    denominator) in lowest terms: denominator > 0 and gcd(numerators...,
    denominator) = 1, so equal rows have equal pairs. This is the stored
    form of a Matrix row; the zero row is ({}, 1)."""
    if d == 1:
        return row, 1
    g = gcd(*row.values(), d)
    if d < 0:
        g = -g
    if g == 1:
        return row, d
    return {c: a // g for c, a in row.items()}, d // g


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    h = gcd(*row.values())
    return {c: a // h for c, a in row.items()} if h > 1 else row


def _nonzeros(nums) -> dict:
    """A dense integer row as its column -> nonzero numerator dict."""
    return {j: a for j, a in enumerate(nums) if a}


def _combine(coeffs: dict, rows: Sequence[dict]) -> dict:
    """The integer row sum of coeffs[k] * rows[k], without its zeros."""
    acc = {}
    for k, x in coeffs.items():
        for c, y in rows[k].items():
            acc[c] = acc.get(c, 0) + x * y
    return {c: v for c, v in acc.items() if v}


def _ratio(num: int, den: int) -> Fraction:
    return Fraction(num) if den == 1 else Fraction(num, den)


def _as_scalar(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ValidationError(f"not an exact scalar: {x!r}")


def _parse_row(row) -> tuple:
    """A row of ints and Fractions as dense (numerators, d), d the lcm of the
    denominators. It is in lowest terms: a prime's full power in d divides
    some denominator, and that entry's numerator and d // denominator are
    prime to it."""
    row = tuple(row)
    if all(type(x) is int for x in row):
        return row, 1
    row = [_as_scalar(x) for x in row]
    dens = [x.denominator for x in row]
    d = lcm(*dens)
    return tuple([x.numerator * (d // q) for x, q in zip(row, dens)]), d


class Matrix:
    """Immutable exact matrix. Row i is stored as (nonzeros, d): a dict from
    column to nonzero integer numerator, over one positive denominator d, in
    lowest terms (see `_canonical`), so `==` and `hash` are exact. Stored
    dicts are never mutated, so matrices share them freely. The dense
    readers (`entries`, `row`, `col`, indexing, `apply`) fill in the zeros.

    Zero-row and zero-column shapes are legal; they show up constantly as
    bases of trivial subspaces.
    """

    __slots__ = ("rows", "cols", "_ints")

    def __init__(self, entries: Sequence[Sequence]):
        dense = [_parse_row(row) for row in entries]
        cols = len(dense[0][0]) if dense else 0
        for nums, _ in dense:
            if len(nums) != cols:
                raise ValidationError("ragged matrix literal")
        self.rows = len(dense)
        self.cols = cols
        self._ints = tuple((_nonzeros(nums), d) for nums, d in dense)

    @classmethod
    def _of(cls, rows: int, cols: int, ints: tuple) -> "Matrix":
        """The matrix of canonical rows ints."""
        m = object.__new__(cls)
        m.rows, m.cols = rows, cols
        m._ints = ints
        return m

    @classmethod
    def _of_integers(cls, rows: Sequence[dict], cols: int, den: int) -> "Matrix":
        """The matrix with rows divided by den, each row a dict from column
        to nonzero integer."""
        return cls._of(len(rows), cols, tuple(_canonical(row, den) for row in rows))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, (_ZERO_ROW,) * rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, tuple(({i: 1}, 1) for i in range(n)))

    @classmethod
    def column(cls, entries: Sequence) -> "Matrix":
        return cls([[x] for x in entries])

    def _check_col(self, j: int):
        if not 0 <= j < self.cols:
            raise IndexError("matrix column index out of range")

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        self._check_col(j)
        nums, d = self._ints[i]
        return _ratio(nums[j], d) if j in nums else _ZERO

    def row(self, i: int) -> tuple:
        nums, d = self._ints[i]
        out = [_ZERO] * self.cols
        for c, a in nums.items():
            out[c] = _ratio(a, d)
        return tuple(out)

    def col(self, j: int) -> tuple:
        self._check_col(j)
        return tuple([_ratio(nums[j], d) if j in nums else _ZERO for nums, d in self._ints])

    def columns(self) -> list:
        return [self.col(j) for j in range(self.cols)]

    @property
    def entries(self) -> tuple:
        return tuple(self.row(i) for i in range(self.rows))

    def _scaled_rows(self) -> tuple:
        """(rows, D): the rows as nonzero numerators over one common
        denominator D, the lcm of the row denominators."""
        big = lcm(*(d for _, d in self._ints))
        return [nums if d == big else {c: a * (big // d) for c, a in nums.items()} for nums, d in self._ints], big

    def _row_block(self, indices: Iterable[int]) -> "Matrix":
        """The rows at indices, in that order."""
        ints = tuple(self._ints[i] for i in indices)
        return Matrix._of(len(ints), self.cols, ints)

    def _col_block(self, indices: Sequence[int]) -> "Matrix":
        """The columns at indices (distinct), in that order."""
        at = {j: k for k, j in enumerate(indices)}
        return Matrix._of(
            self.rows,
            len(at),
            tuple(_canonical({at[c]: a for c, a in nums.items() if c in at}, d) for nums, d in self._ints),
        )

    def transpose(self) -> "Matrix":
        big = lcm(*(d for _, d in self._ints))
        out = [{} for _ in range(self.cols)]
        for i, (nums, d) in enumerate(self._ints):
            f = big // d
            for c, a in nums.items():
                out[c][i] = a * f
        return Matrix._of_integers(out, self.rows, big)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Each row of the product combines other's rows, scaled to one
        denominator, by the row's nonzeros."""
        if self.cols != other.rows:
            raise ValidationError(f"shape mismatch: {self.shape} @ {other.shape}")
        rows, big = other._scaled_rows()
        out = tuple(_canonical(_combine(nums, rows), d * big) for nums, d in self._ints)
        return Matrix._of(self.rows, other.cols, out)

    def __neg__(self) -> "Matrix":
        return Matrix._of(
            self.rows, self.cols, tuple(({c: -a for c, a in nums.items()}, d) for nums, d in self._ints)
        )

    def scale(self, c) -> "Matrix":
        c = _as_scalar(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        p, q = c.numerator, c.denominator
        return Matrix._of(
            self.rows,
            self.cols,
            tuple(_canonical({j: a * p for j, a in nums.items()}, d * q) for nums, d in self._ints),
        )

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product, returning a plain tuple of Fractions."""
        vn, vd = _parse_row(vec)
        if len(vn) != self.cols:
            raise ValidationError("vector length does not match column count")
        return tuple([_ratio(sum(map(mul, nums.values(), map(vn.__getitem__, nums))), d * vd) for nums, d in self._ints])

    def hstack(self, other: "Matrix") -> "Matrix":
        """[self | other]; a row joined over the lcm of its two denominators
        stays in lowest terms."""
        if self.rows != other.rows:
            raise ValidationError("row mismatch in hstack")
        shift = self.cols
        out = []
        for (a, da), (b, db) in zip(self._ints, other._ints):
            big = lcm(da, db)
            fa, fb = big // da, big // db
            row = {c: x * fa for c, x in a.items()}
            for c, y in b.items():
                row[c + shift] = y * fb
            out.append((row, big))
        return Matrix._of(self.rows, self.cols + other.cols, tuple(out))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValidationError("column mismatch in vstack")
        return Matrix._of(self.rows + other.rows, self.cols, self._ints + other._ints)

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(nums for nums, _ in self._ints)

    def is_skew(self) -> bool:
        return self.rows == self.cols and self.transpose() == -self

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.shape == other.shape and self._ints == other._ints

    def __hash__(self):
        return hash((self.shape, tuple((frozenset(nums.items()), d) for nums, d in self._ints)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: [{body}])"


def _clear(row: dict, prow: dict, c: int) -> dict:
    """p*row - f*prow, with p and f the entries of prow and row at column c
    over their gcd, and the gcd of the result divided out: row cleared at c.
    Only the union of the two rows' supports is touched."""
    g = gcd(prow[c], row[c])
    pg, fg = prow[c] // g, row[c] // g
    out = dict(row) if pg == 1 else {k: pg * a for k, a in row.items()}
    for k, b in prow.items():
        v = out.get(k, 0) - fg * b
        if v:
            out[k] = v
        else:
            del out[k]
    return _primitive(out)


def rref(m: Matrix) -> tuple:
    """Reduced row echelon form of m. Returns (R, pivot_columns).

    Fraction-free, one row at a time: each row, as its nonzero numerators,
    is cleared at the pivot columns found so far where it is nonzero. The
    pivot rows are zero at one another's pivots, so a clear changes no other
    pivot column, and the cleared row is the primitive integer row of its
    direction whatever the order of the clears. If it is not zero, its first
    column becomes a pivot and the pivot rows are cleared there, so they
    stay reduced against one another; at the end each is put over its pivot.
    The RREF is unique, so the pivots and R are those of rational
    Gauss-Jordan. Once every column has a pivot, the rows left are dependent
    and are not read.
    """
    cols = m.cols
    basis = {}  # pivot column -> pivot row
    for row, _ in m._ints:
        for c in [c for c in row if c in basis]:
            row = _clear(row, basis[c], c)
        if not row:
            continue
        c = min(row)
        row = _primitive(row)
        for pc, prow in basis.items():
            if c in prow:
                basis[pc] = _clear(prow, row, c)
        basis[c] = row
        if len(basis) == cols:
            break
    pivots = sorted(basis)
    out = [_canonical(basis[c], basis[c][c]) for c in pivots]
    out += [_ZERO_ROW] * (m.rows - len(out))
    return Matrix._of(m.rows, cols, tuple(out)), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def solve(a: Matrix, b: Sequence):
    """Solve a @ x = b exactly. Returns a tuple, or None when inconsistent.

    When the solution is not unique the free variables are set to zero, so the
    output is still deterministic.
    """
    if len(b) != a.rows:
        raise ValidationError("right-hand side length mismatch")
    red, pivots = rref(a.hstack(Matrix.column(b)))
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
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
    return red._col_block(range(m.cols, 2 * m.cols))


def kernel(m: Matrix) -> "Subspace":
    """Kernel {x : m x = 0} in canonical form, read off one elimination of
    m with its columns reversed.

    There, each free column f gives the kernel vector e_f minus column f of
    the RREF at the pivot columns. An RREF row is zero left of its pivot, so
    the vector is zero at the pivot columns right of f, and at the other
    free columns. With the columns put back in order and f taken in
    descending order, the vectors have increasing leading entries, each 1
    and zero in every other vector: they are the kernel's reduced echelon
    rows as they stand.
    """
    n = m.cols
    last = n - 1
    red, pivots = rref(Matrix._of(m.rows, n, tuple(({last - c: a for c, a in nums.items()}, d) for nums, d in m._ints)))
    free = sorted(set(range(n)) - set(pivots), reverse=True)
    at = {f: [] for f in free}  # free column -> (numerator, d, pivot) of the RREF rows there
    for (nums, d), p in zip(red._ints, pivots):
        for c, a in nums.items():
            if c in at:
                at[c].append((a, d, p))
    vectors = []
    for f in free:
        terms = at[f]
        big = lcm(*(d for _, d, _ in terms))
        v = {last - f: big}
        for a, d, p in terms:
            v[last - p] = -a * (big // d)
        vectors.append(_canonical(v, big))
    return Subspace(n, Matrix._of(len(vectors), n, tuple(vectors)))


class Subspace:
    """A linear subspace of Q^n, stored as its canonical rows.

    `echelon` is d x n in reduced row echelon form: its rows have strictly
    increasing pivot columns, each pivot entry is 1, and each pivot column
    is zero in all other rows. Two subspaces are equal iff their fields are
    equal. `basis` is its n x d transpose, the canonical reduced column
    echelon basis, built on first use for readers of columns.
    """

    __slots__ = ("ambient_dim", "echelon", "_basis")

    def __init__(self, ambient_dim: int, echelon: Matrix):
        if echelon.cols != ambient_dim:
            raise ValidationError("echelon columns must equal the ambient dimension")
        self.ambient_dim = ambient_dim
        self.echelon = echelon
        self._basis = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ambient_dim, self.echelon) == (other.ambient_dim, other.echelon)

    def __hash__(self):
        return hash((self.ambient_dim, self.echelon))

    @property
    def basis(self) -> Matrix:
        if self._basis is None:
            self._basis = self.echelon.transpose()
        return self._basis

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        """Canonical subspace spanned by the given vectors (possibly none)."""
        dense = [_parse_row(v) for v in vectors]
        for nums, _ in dense:
            if len(nums) != ambient_dim:
                raise ValidationError("vector length does not match ambient dimension")
        ints = tuple((_nonzeros(nums), d) for nums, d in dense)
        return _span(ambient_dim, Matrix._of(len(ints), ambient_dim, ints))

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, Matrix.zeros(0, n))

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, Matrix.identity(n))

    @property
    def dim(self) -> int:
        return self.echelon.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def contains_vector(self, v: Sequence) -> bool:
        return solve(self.basis, v) is not None


def _span(n: int, m: Matrix) -> Subspace:
    """Canonical subspace of Q^n spanned by the rows of m: its nonzero RREF
    rows."""
    red, pivots = rref(m)
    return Subspace(n, red._row_block(range(len(pivots))))


def sum_(a: Subspace, b: Subspace) -> Subspace:
    """Subspace sum A + B: the span of both row blocks."""
    _check_same_ambient(a, b)
    return _span(a.ambient_dim, a.echelon.vstack(b.echelon))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Subspace intersection by Zassenhaus on the smaller side's rows: each
    row b of B becomes [b - b[P] A | b] (up to scale), cleared at the pivot
    columns P of the other side's rows A. A combination (y R, y B) has
    y R = 0 iff y B lies in A, so after one elimination the rows pivoting
    in the right half hold the canonical rows of A meet B there."""
    _check_same_ambient(a, b)
    if a.dim < b.dim:
        a, b = b, a
    n = a.ambient_dim
    basis = {min(nums): nums for nums, _ in a.echelon._ints}
    rows = []
    for nums, _ in b.echelon._ints:
        row = {**nums, **{c + n: x for c, x in nums.items()}}
        for c in [c for c in nums if c in basis]:
            row = _clear(row, basis[c], c)
        rows.append((row, 1))
    red, pivots = rref(Matrix._of(len(rows), 2 * n, tuple(rows)))
    meet = tuple(({c - n: x for c, x in nums.items()}, d) for (nums, d), p in zip(red._ints, pivots) if p >= n)
    return Subspace(n, Matrix._of(len(meet), n, meet))


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subspace of a: stacking b's rows under a's adds no rank."""
    _check_same_ambient(a, b)
    return rank(a.echelon.vstack(b.echelon)) == a.dim


def _check_same_ambient(a: Subspace, b: Subspace):
    if a.ambient_dim != b.ambient_dim:
        raise ValidationError(
            f"ambient dimension mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )


class QuotientSpace:
    """ambient/sub presented by an explicit section of coset representatives.

    `projector` (dim x n) sends each vector of ambient to its section
    coordinates: it is the annihilator of the sub read at ambient's pivot
    columns P, spread from P onto Q^n. The section columns are the ambient
    rows at its rows' leading columns, chosen greedily in index order
    (`quotient`), so identical inputs always produce the identical section.
    """

    __slots__ = ("ambient", "pivots", "section", "projector")

    def __init__(self, ambient: Subspace, pivots: tuple, section: Matrix, projector: Matrix):
        self.ambient = ambient
        self.pivots = pivots
        self.section = section
        self.projector = projector

    @property
    def dim(self) -> int:
        return self.section.cols

    def project(self, v: Sequence) -> tuple:
        """Section coordinates of the coset of v. A vector of the wrong length
        or outside ambient raises ValidationError: unless ambient is the
        whole space, v must be v[P] A, A ambient's rows (`_at_pivots`)."""
        coords = self.projector.apply(v)
        a = self.ambient
        if a.dim < a.ambient_dim and _at_pivots(a, Matrix([v])) is None:
            raise ValidationError("vector outside the ambient subspace")
        return coords

    def lift(self, coords: Sequence) -> tuple:
        return self.section.apply(coords)


def quotient(ambient: Subspace, sub) -> QuotientSpace:
    """Quotient of ambient by sub, a `Subspace` or a `Matrix` of rows that
    span it (ValidationError unless they lie in ambient): one `kernel` of the
    rows read at ambient's pivot columns P (`pivot_coordinates`).

    With r_i the RREF rows of S, the sub at P, taken with the columns
    reversed, and l_i the last nonzero of r_i, the kernel row led at j is
    e_j - sum_i r_i[j] e_(l_i). Applied to v it reads at j the vector
    v - sum_i v[l_i] r_i of v + S, which is zero at every l_i: the kernel is
    the projector. Its leading columns, where no vector of S ends, are the
    unit vectors that extend S in index order: the greedy section.
    """
    at, rows = pivot_coordinates(ambient, sub.echelon if isinstance(sub, Subspace) else sub)
    ann = kernel(rows).echelon
    section = ambient.echelon._row_block([min(nums) for nums, _ in ann._ints]).transpose()
    spread = tuple(({at[k]: a for k, a in nums.items()}, d) for nums, d in ann._ints)
    return QuotientSpace(ambient, at, section, Matrix._of(ann.rows, ambient.ambient_dim, spread))


def pivot_coordinates(ambient: Subspace, rows: Matrix) -> tuple:
    """(P, R): the pivot columns P of ambient's canonical rows, and rows read
    at P (ValidationError unless they lie in ambient). v -> v[P] is one to
    one on ambient, so R spans the sub at P, and any rows spanning one sub
    have the same kernel there."""
    if rows.cols != ambient.ambient_dim:
        raise ValidationError(f"ambient dimension mismatch: {ambient.ambient_dim} vs {rows.cols}")
    read = _at_pivots(ambient, rows)
    if read is None:
        raise ValidationError("sub is not contained in ambient")
    return tuple(min(nums) for nums, _ in ambient.echelon._ints), read


def _at_pivots(ambient: Subspace, rows: Matrix):
    """rows read at the pivot columns P of ambient's canonical rows A, or
    None if one lies outside ambient. A is the identity at P, so each vector
    v of ambient is v[P] A: each row must give itself back as row[P] A."""
    arows, big = ambient.echelon._scaled_rows()
    read = rows._col_block([min(nums) for nums in arows])
    for (s, ds), row in zip(read._ints, rows._ints):
        if _canonical(_combine(s, arows), ds * big) != row:
            return None
    return read


def annihilator(s: Subspace) -> Subspace:
    """{phi : phi(s) = 0} in the dual, identified with Q^n via the dual basis."""
    return kernel(s.echelon)
