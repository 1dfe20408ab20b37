"""Cochain calculus on small ordered-simplex complexes and the abelian gauge
reduction it supports: the cup form with values in 2-cochains modulo
coboundaries, the shift action of 0-cochains on 1-cochains, its moment
functional, and reduction to first cohomology with the pairing into second
cohomology.

Everything here is exact rational. Complexes allow identified faces (the
one-vertex torus, the quotient cube), so face maps are stored explicitly as
index tuples and validated against the simplicial identities; building from
plain vertex tuples is supported whenever face lookup is unambiguous.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional

from .errors import ContractViolation, ValidationError
from .exactla import Matrix, QuotientSpace, Subspace, contains, kernel, quotient
from .polycore import joint_kernel

MAX_DIMENSION = 3


class DeltaComplex:
    """An ordered-simplex complex of dimension at most 3.

    simplices[p] lists the p-simplices as vertex tuples (used for display and
    for face resolution when unambiguous); faces[p][s][i] is the index of the
    i-th face (the vertex-i deletion) of simplex s in degree p-1.

    A complex is never mutated after __init__. Values derived from it (the
    coboundary matrices, the cocycle spaces, cup tables, cohomology per
    degree, the C^2/B^2 quotient and the curvature table) are therefore
    built on first request and cached on it. Both kinds of quotient are
    `quotient` by d's own rows (`_coboundary_rows`): H^p is Z^p modulo them,
    read only at Z^p's pivots, and C^2/B^2 the whole space modulo them.
    `omega_disc` projects one product onto C^2/B^2; the moment functions,
    `omega_kernel` and `lagrangian_check` read theirs off one table
    (`_cup_rows`) of only the rows some product reaches, and `reduce_gauge`
    projects its table onto H^2.
    """

    def __init__(
        self,
        simplices: Dict[int, List[tuple]],
        faces: Optional[Dict[int, List[tuple]]] = None,
        name: str = "",
    ):
        degrees = sorted(simplices)
        if degrees != list(range(len(degrees))):
            raise ValidationError("simplex degrees must be contiguous from 0")
        if not degrees:
            raise ValidationError("a complex needs at least degree 0")
        self.simplices = {p: [tuple(s) for s in simplices[p]] for p in degrees}
        for p in degrees:
            for s in self.simplices[p]:
                if len(s) != p + 1:
                    raise ValidationError(f"degree-{p} simplex {s} has wrong arity")
        self.dimension = max(p for p in degrees if self.simplices[p]) if any(
            self.simplices.values()
        ) else 0
        if self.dimension > MAX_DIMENSION:
            raise ValidationError(f"complex dimension exceeds {MAX_DIMENSION}")
        if not self.simplices[0]:
            raise ValidationError("a complex needs at least one vertex")
        self.name = name
        self.faces: Dict[int, List[tuple]] = {}
        given = faces or {}
        for p in degrees:
            if p == 0:
                continue
            if p in given and given[p] is not None:
                self.faces[p] = [tuple(f) for f in given[p]]
                if len(self.faces[p]) != len(self.simplices[p]):
                    raise ValidationError(f"face list length mismatch in degree {p}")
            else:
                self.faces[p] = self._derive_faces(p)
        self.explicit_faces = bool(given)
        self._validate()
        self._cache: Dict[object, object] = {}

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _derive_faces(self, p: int) -> List[tuple]:
        lookup: Dict[tuple, int] = {}
        duplicated = set()
        for idx, s in enumerate(self.simplices[p - 1]):
            if s in lookup:
                duplicated.add(s)
            lookup[s] = idx
        out = []
        for s in self.simplices[p]:
            row = []
            for i in range(p + 1):
                face = s[:i] + s[i + 1 :]
                if face in duplicated:
                    raise ValidationError(
                        f"face {face} is ambiguous (identified simplices); "
                        "supply explicit face maps"
                    )
                if face not in lookup:
                    raise ValidationError(f"face {face} of {s} is missing from degree {p-1}")
                row.append(lookup[face])
            out.append(tuple(row))
        return out

    def _validate(self):
        for p, rows in self.faces.items():
            count_below = len(self.simplices[p - 1])
            for s, row in enumerate(rows):
                if len(row) != p + 1:
                    raise ValidationError(f"degree-{p} simplex {s} needs {p+1} faces")
                for f in row:
                    if not (0 <= f < count_below):
                        raise ValidationError(f"face index out of range in degree {p}")
        # simplicial identity: deleting vertices commutes in the expected order
        for p in self.faces:
            if p < 2:
                continue
            for s, row in enumerate(self.faces[p]):
                for j in range(p + 1):
                    for i in range(j):
                        left = self.faces[p - 1][row[j]][i]
                        right = self.faces[p - 1][row[i]][j - 1]
                        if left != right:
                            raise ValidationError(
                                f"face maps violate the simplicial identity at degree {p}, "
                                f"simplex {s}, pair ({i},{j})"
                            )

    def count(self, p: int) -> int:
        return len(self.simplices.get(p, []))

    @property
    def counts(self) -> tuple:
        return tuple(self.count(p) for p in range(self.dimension + 1))

    def coboundary_matrix(self, p: int) -> Matrix:
        """Matrix of d: C^p -> C^(p+1); the zero-row matrix above top degree."""
        return self._memo(("coboundary", p), lambda: self._build_coboundary(p))

    def _build_coboundary(self, p: int) -> Matrix:
        n_from = self.count(p)
        n_to = self.count(p + 1)
        if n_to == 0:
            return Matrix.zeros(0, n_from)
        rows = []
        for frow in self.faces[p + 1]:
            row = {}
            for i, f in enumerate(frow):
                v = row.get(f, 0) + (-1) ** i
                if v:
                    row[f] = v
                else:
                    del row[f]
            rows.append(row)
        return Matrix._of_integers(rows, n_from, 1)

    def cocycles(self, p: int) -> Subspace:
        """Z^p, the kernel of d on C^p."""
        return self._memo(("cocycles", p), lambda: kernel(self.coboundary_matrix(p)))

    def front_face(self, degree: int, index: int, p: int) -> int:
        """Index of the front p-face (iterated last-vertex deletion)."""
        cur = index
        for dim in range(degree, p, -1):
            cur = self.faces[dim][cur][dim]
        return cur

    def back_face(self, degree: int, index: int, q: int) -> int:
        """Index of the back q-face (iterated first-vertex deletion)."""
        cur = index
        for dim in range(degree, q, -1):
            cur = self.faces[dim][cur][0]
        return cur

    def cup_table(self, p: int, q: int) -> tuple:
        """(front p-face, back q-face) of each (p+q)-simplex s, so that
        cup(a, b)[s] = a[front] * b[back]."""
        return self._memo(("cup", p, q), lambda: tuple(
            (self.front_face(p + q, s, p), self.back_face(p + q, s, q))
            for s in range(self.count(p + q))
        ))

    @property
    def cup_quotient(self) -> "CochainQuotient":
        """C^2 modulo coboundaries, where the cup form takes its values."""
        return self._memo("cup_quotient", lambda: CochainQuotient(self, 2))


class Cochain:
    __slots__ = ("complex", "degree", "values")

    def __init__(self, complex: DeltaComplex, degree: int, values):
        vals = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)
        if len(vals) != complex.count(degree):
            raise ValidationError(
                f"degree-{degree} cochain needs {complex.count(degree)} values"
            )
        self.complex = complex
        self.degree = degree
        self.values = vals

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.complex, self.degree, self.values) == (other.complex, other.degree, other.values)

    def __hash__(self):
        return hash((self.complex, self.degree, self.values))

    @staticmethod
    def basis(complex: DeltaComplex, degree: int, index: int) -> "Cochain":
        vals = [Fraction(0)] * complex.count(degree)
        vals[index] = Fraction(1)
        return Cochain(complex, degree, tuple(vals))

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.complex is not other.complex or self.degree != other.degree:
            raise ValidationError("cochain mismatch in addition")
        return Cochain(self.complex, self.degree, tuple(a + b for a, b in zip(self.values, other.values)))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


def d(c: Cochain) -> Cochain:
    """Coboundary; rejected at top degree (use the gauge operations instead,
    they treat the missing next degree as the zero space)."""
    if c.degree >= c.complex.dimension:
        raise ValidationError("coboundary at top degree")
    return _d_extended(c)


def _d_extended(c: Cochain) -> Cochain:
    mat = c.complex.coboundary_matrix(c.degree)
    return Cochain(c.complex, c.degree + 1, mat.apply(c.values))


def cup(a: Cochain, b: Cochain) -> Cochain:
    """Front-face/back-face product; Leibniz-exact against the coboundary."""
    if a.complex is not b.complex:
        raise ValidationError("cup arguments live on different complexes")
    p, q = a.degree, b.degree
    if p + q > a.complex.dimension:
        raise ValidationError("cup degree exceeds the complex dimension")
    return _cup_extended(a, b)


def _cup_extended(a: Cochain, b: Cochain) -> Cochain:
    table = a.complex.cup_table(a.degree, b.degree)
    return Cochain(a.complex, a.degree + b.degree, tuple(a.values[f] * b.values[k] for f, k in table))


def _cup_rows(
    cx: DeltaComplex, p: int, q: int, left: Matrix, right: Matrix,
    by_right: bool = False, proj: Optional[Matrix] = None,
) -> tuple:
    """(rows, den): projected cup products of the columns of left
    (p-cochains) and right (q-cochains), read off one pass over the cup
    table, as integer rows over den.

    proj defaults to the C^2/B^2 coordinates of the complex's cup quotient;
    `reduce_gauge` passes H^2 coordinates instead. Row i*k + c, column j
    holds coordinate c of proj(left_i cup right_j), where k = proj.rows;
    with by_right the roles swap, so row j*k + c, column i: a linear map in
    the coefficients of the column side, stacked over the block side. Only
    the nonzero rows are keyed, each without its zero sums, so a row that
    no product reaches is never made.
    """
    proj = cx.cup_quotient.presentation.projector if proj is None else proj
    (lrows, ld), (rrows, rd) = left._scaled_rows(), right._scaled_rows()
    pcols, pd = proj.transpose()._scaled_rows()
    k = proj.rows
    sums = {}
    for s, (f, b) in enumerate(cx.cup_table(p, q)):
        for i, x in lrows[f].items():
            for j, y in rrows[b].items():
                block, col = (j, i) if by_right else (i, j)
                for c, z in pcols[s].items():
                    row = sums.setdefault(block * k + c, {})
                    row[col] = row.get(col, 0) + x * y * z
    nonzero = ((r, {col: v for col, v in row.items() if v}) for r, row in sums.items())
    return {r: row for r, row in nonzero if row}, ld * rd * pd


class CohomologyPresentation(NamedTuple):
    """Cocycles and a deterministic harmonic section in one degree: H^p = Z/B
    as the quotient of Z by d's rows. Its projector is the kernel of those
    rows read at Z's pivot rows, so it reads a cocycle's class off the
    cocycle's entries there, and the harmonic section is the rows of Z at
    that kernel's leading columns."""

    degree: int
    cocycles: Subspace
    presentation: QuotientSpace  # Z modulo B

    @property
    def betti(self) -> int:
        return self.presentation.dim

    @property
    def harmonic_section(self) -> Matrix:
        return self.presentation.section

    @property
    def projector(self) -> Matrix:
        """betti x (cochain count): the section coordinates of the class of
        each cocycle. Off Z it is not a class map; `class_coordinates`
        checks closedness."""
        return self.presentation.projector

    def class_coordinates(self, c: Cochain) -> tuple:
        """Coordinates of the class of a cocycle in the harmonic section; a
        cochain that is not closed raises ValidationError."""
        try:
            return self.presentation.project(c.values)
        except ValidationError:
            raise ValidationError("the cochain is not closed") from None


def cohomology(cx: DeltaComplex, p: int) -> CohomologyPresentation:
    if not (0 <= p <= cx.dimension):
        raise ValidationError("cohomology degree out of range")
    return cx._memo(("cohomology", p), lambda: _cohomology(cx, p))


def _coboundary_rows(cx: DeltaComplex, p: int) -> Matrix:
    """A basis of B^p as rows, none in degree 0: d of the basis (p-1)-cochains
    off Z^(p-1)'s pivots P, as d x = d(x - x[P] Z) and a cocycle 0 at P is 0."""
    if p == 0:
        return Matrix.zeros(0, cx.count(0))
    pivots = {min(row) for row, _ in cx.cocycles(p - 1).echelon._ints}
    return cx.coboundary_matrix(p - 1).transpose()._row_block(i for i in range(cx.count(p - 1)) if i not in pivots)


def _cohomology(cx: DeltaComplex, p: int) -> CohomologyPresentation:
    z = cx.cocycles(p)
    try:
        return CohomologyPresentation(p, z, quotient(z, _coboundary_rows(cx, p)))
    except ValidationError:
        raise ContractViolation(f"the coboundaries are not contained in the cocycles in degree {p}") from None


class CochainQuotient:
    """C^p modulo coboundaries, with a fixed deterministic complement.

    The canonical representative of a coset is its image under projection
    along the chosen complement of the coboundary space. The quotient keeps
    no reference to its complex, so the complex that caches it (see
    `DeltaComplex.cup_quotient`) is freed as soon as it is dropped.
    """

    def __init__(self, cx: DeltaComplex, degree: int = 2):
        self.degree = degree
        self.presentation = quotient(Subspace.full(cx.count(degree)), _coboundary_rows(cx, degree))

    @property
    def dim(self) -> int:
        return self.presentation.dim

    def coords(self, c: Cochain) -> tuple:
        return self.presentation.project(c.values)

    def is_coboundary(self, c: Cochain) -> bool:
        return all(x == 0 for x in self.coords(c))


def omega_disc(cx: DeltaComplex, alpha: Cochain, beta: Cochain) -> tuple:
    """Value of the cup form on two 1-cochains: the coordinates of the coset
    of their product in C^2 modulo coboundaries (`presentation.lift` of the
    complex's cup quotient gives its canonical representative)."""
    if alpha.degree != 1 or beta.degree != 1:
        raise ValidationError("the cup form takes two 1-cochains")
    return cx.cup_quotient.coords(_cup_extended(alpha, beta))


def omega_kernel(cx: DeltaComplex) -> Subspace:
    """Degeneracy kernel of the cup form on C^1 (measured, never assumed zero):
    the 1-cochains whose product with every edge is a coboundary."""
    edges = Matrix.identity(cx.count(1))
    rows, den = _cup_rows(cx, 1, 1, edges, edges, by_right=True)
    return kernel(Matrix._of_integers(list(rows.values()), cx.count(1), den))


def gauge_moment(cx: DeltaComplex, a: Cochain) -> Matrix:
    """The moment functional of a 1-cochain A, 0-cochains to C^2/B^2: column j
    holds the cup-quotient coordinates of (dA cup f_j) for the basis
    0-cochain f_j."""
    if a.degree != 1:
        raise ValidationError("the gauge moment takes a 1-cochain")
    curvature = Matrix.column(_d_extended(a).values)
    rows, den = _cup_rows(cx, 2, 0, curvature, Matrix.identity(cx.count(0)))
    return Matrix._of_integers([rows.get(c, {}) for c in range(cx.cup_quotient.dim)], cx.count(0), den)


def _curvature_rows(cx: DeltaComplex) -> tuple:
    """The `_cup_rows` table of alpha -> coset(d alpha cup f) over the basis
    0-cochains f, built once per complex: the moment zero set and the moment
    identity both read it."""
    return cx._memo("curvature", lambda: _cup_rows(
        cx, 2, 0, cx.coboundary_matrix(1), Matrix.identity(cx.count(0)), by_right=True
    ))


def check_gauge_moment_identity(cx: DeltaComplex) -> bool:
    """Exact linear-map equality: alpha -> coset(d alpha cup f) equals
    alpha -> coset(alpha cup d f) for every basis 0-cochain f; both tables
    are over the C^2/B^2 projector's denominator, as d is an integer matrix."""
    curvature = _curvature_rows(cx)
    shifted = _cup_rows(cx, 1, 1, Matrix.identity(cx.count(1)), cx.coboundary_matrix(0), by_right=True)
    return curvature == shifted


class MomentZeroReport(NamedTuple):
    zero_set: Subspace
    cocycles: Subspace
    equals_cocycles: bool
    contains_cocycles: bool


def moment_zero_set(cx: DeltaComplex) -> MomentZeroReport:
    """{A : the moment functional of A vanishes}, with its relation to the
    closed 1-cochains reported rather than assumed."""
    rows, den = _curvature_rows(cx)
    zero = kernel(Matrix._of_integers(list(rows.values()), cx.count(1), den))
    z1 = cx.cocycles(1)
    return MomentZeroReport(
        zero_set=zero,
        cocycles=z1,
        equals_cocycles=zero == z1,
        contains_cocycles=contains(zero, z1),
    )


class GaugeReduction(NamedTuple):
    """First cohomology as the reduced space, with the cup pairing into the
    second-cohomology section."""

    carrier: CohomologyPresentation
    target: CohomologyPresentation
    pairing: tuple  # matrices, one per second-cohomology coordinate

    def pairing_kernel(self) -> Subspace:
        """Classes paired to zero with every class; all of H^1 when H^2 = 0."""
        return joint_kernel(self.carrier.betti, self.pairing)


def reduce_gauge(cx: DeltaComplex) -> GaugeReduction:
    carrier = cohomology(cx, 1)
    # Below dimension 2 there are no 2-cochains, and this is the zero presentation.
    target = cohomology(cx, 2) if cx.dimension >= 2 else _cohomology(cx, 2)
    b1 = carrier.betti
    b2 = target.betti
    reps = carrier.harmonic_section

    proj = target.projector

    # Gauge invariance of the pairing: shifting a representative by a
    # coboundary moves the product by a coboundary only. A 2-cochain is a
    # coboundary iff d^2 sends it to zero and its H^2 coordinates vanish, so
    # each product df_j cup reps_a is tested against the rows of d^2 and of
    # the projector; any nonzero row fails it.
    tests = cx.coboundary_matrix(2).vstack(proj)
    if _cup_rows(cx, 1, 1, cx.coboundary_matrix(0), reps, proj=tests)[0]:
        raise ContractViolation("pairing is not gauge invariant")

    # Row a*b2 + c, column b: coordinate c of the class of reps_a cup reps_b.
    products, den = _cup_rows(cx, 1, 1, reps, reps, proj=proj)
    pairing = tuple(
        Matrix._of_integers([products.get(a * b2 + c, {}) for a in range(b1)], b1, den)
        for c in range(b2)
    )
    return GaugeReduction(carrier=carrier, target=target, pairing=pairing)


class LagrangianReport(NamedTuple):
    h2_trivial: bool
    z1_is_lagrangian: Optional[bool]
    z1_dim: int
    orthogonal_dim: Optional[int]


def lagrangian_check(cx: DeltaComplex) -> LagrangianReport:
    """When second cohomology vanishes, compare the cup-orthogonal of the
    closed 1-cochains with the closed 1-cochains themselves."""
    h2 = cohomology(cx, 2).betti if cx.dimension >= 2 else 0
    z1 = cx.cocycles(1)
    if h2 != 0:
        return LagrangianReport(h2_trivial=False, z1_is_lagrangian=None, z1_dim=z1.dim, orthogonal_dim=None)
    rows, den = _cup_rows(cx, 1, 1, z1.basis, Matrix.identity(cx.count(1)))
    orth = kernel(Matrix._of_integers(list(rows.values()), cx.count(1), den))
    return LagrangianReport(
        h2_trivial=True,
        z1_is_lagrangian=orth == z1,
        z1_dim=z1.dim,
        orthogonal_dim=orth.dim,
    )


# Builtin complexes.

def interval_complex() -> DeltaComplex:
    return DeltaComplex({0: [(0,), (1,)], 1: [(0, 1)]}, name="interval")


def sphere_complex(dim: int) -> DeltaComplex:
    """Boundary of the (dim+1)-simplex."""
    if dim not in (2, 3):
        raise ValidationError("sphere builtin supports dimensions 2 and 3")
    n = dim + 2  # vertex count
    simplices = {
        p: [tuple(c) for c in itertools.combinations(range(n), p + 1)]
        for p in range(dim + 1)
    }
    return DeltaComplex(simplices, name=f"sphere{dim}")


def torus_complex(dim: int) -> DeltaComplex:
    """One-vertex quotient torus from the standard triangulated cube.

    Cells are chains of 0/1 increment vectors with pairwise disjoint
    supports, translated to the origin; vertex deletion maps to chain
    shortening or merging of adjacent increments.
    """
    if dim not in (2, 3):
        raise ValidationError("torus builtin supports dimensions 2 and 3")
    increments = [
        tuple(bits)
        for bits in itertools.product((0, 1), repeat=dim)
        if any(bits)
    ]

    def disjoint(u, v):
        return all(not (a and b) for a, b in zip(u, v))

    chains: Dict[int, List[tuple]] = {0: [()]}
    for p in range(1, dim + 1):
        out = []
        for prev in chains[p - 1]:
            for u in increments:
                if all(disjoint(u, w) for w in prev):
                    out.append(prev + (u,))
        chains[p] = sorted(out)

    index = {p: {c: i for i, c in enumerate(chains[p])} for p in chains}
    faces: Dict[int, List[tuple]] = {}
    for p in range(1, dim + 1):
        rows = []
        for chain in chains[p]:
            row = []
            for i in range(p + 1):
                if i == 0:
                    face = chain[1:]
                elif i == p:
                    face = chain[:-1]
                else:
                    merged = tuple(a + b for a, b in zip(chain[i - 1], chain[i]))
                    face = chain[: i - 1] + (merged,) + chain[i + 1 :]
                row.append(index[p - 1][face])
            rows.append(tuple(row))
        faces[p] = rows

    simplices = {p: [(0,) * (p + 1) for _ in chains[p]] for p in chains}
    return DeltaComplex(simplices, faces=faces, name=f"torus{dim}")


BUILTIN_COMPLEXES = {
    "interval": interval_complex,
    "sphere2": lambda: sphere_complex(2),
    "sphere3": lambda: sphere_complex(3),
    "torus2": lambda: torus_complex(2),
    "torus3": lambda: torus_complex(3),
}
