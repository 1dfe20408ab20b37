"""Vector-valued symplectic linear algebra.

A form on Q^n with values in Q^k is stored as k exactly skew n x n component
matrices. The module provides the orthogonal of a subspace, the four-way
subspace classification, reduction to the quotient of the orthogonal, the
canonical model on U + Hom(U, V), the graph embedding into it, and
post-composition with coefficient maps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from typing import NamedTuple, Sequence

from .errors import ContractViolation, ValidationError
from .exactla import (
    Matrix,
    QuotientSpace,
    Subspace,
    _canonical,
    _combine,
    intersect,
    kernel,
    quotient,
    rank,
)


class VForm:
    """Alternating bilinear form U x U -> V in coordinates.

    components[i] is the matrix of the i-th coordinate of the form, so
    evaluate(u, u')[i] = u^T components[i] u'. Degenerate forms are legal
    values (coefficient reduction produces them); nondegeneracy is a query,
    not an invariant.
    """

    # No __slots__: the cached property _stacked_rows lives in the instance dict.
    def __init__(self, dim_u: int, components):
        comps = tuple(components)
        if len(comps) < 1:
            raise ValidationError("a form needs at least one component")
        for m in comps:
            if not isinstance(m, Matrix) or m.shape != (dim_u, dim_u):
                raise ValidationError("form components must be square of equal size")
            if not m.is_skew():
                raise ValidationError("form components must be skew-symmetric")
        self.dim_u = dim_u
        self.components = comps

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim_u, self.components) == (other.dim_u, other.components)

    def __hash__(self):
        return hash((self.dim_u, self.components))

    @property
    def dim_v(self) -> int:
        return len(self.components)

    def evaluate(self, u: Sequence, v: Sequence) -> tuple:
        return tuple(sum((a * b for a, b in zip(u, m.apply(v))), Fraction(0)) for m in self.components)

    def degeneracy_kernel(self) -> Subspace:
        """Vectors killed by every component, i.e. the kernel of the stacked
        components; zero iff the form is polysymplectic."""
        return joint_kernel(self.dim_u, self.components)

    def is_nondegenerate(self) -> bool:
        return self.degeneracy_kernel().is_zero()

    @cached_property
    def _stacked_rows(self) -> tuple:
        """(rows, D): the rows of W_1, ..., W_k in turn as nonzero integer
        numerators over the components' common denominator D."""
        return reduce(Matrix.vstack, self.components)._scaled_rows()

    def restrict(self, section: Matrix) -> "VForm":
        """Form induced on the column span of section, in section coordinates."""
        st = section.transpose()
        return VForm(section.cols, tuple(st @ (m @ section) for m in self.components))


def joint_kernel(n: int, blocks: Sequence[Matrix]) -> Subspace:
    """Vectors of Q^n killed by every block: the kernel of the blocks stacked
    (all of Q^n when they have no rows)."""
    return kernel(reduce(Matrix.vstack, blocks, Matrix.zeros(0, n)))


def orthogonal(omega: VForm, a: Subspace) -> Subspace:
    """{v : omega(a, v) = 0 for all a in A}, canonical: the kernel of the
    rows a^T W_c over each row a of A and each component c. Each is taken
    as the combination of W_c's integer rows by a's numerators, a positive
    multiple of the row that the kernel does not see, so A's rows and the
    form's cached rows are read as they stand and nothing is rescaled."""
    if a.ambient_dim != omega.dim_u:
        raise ValidationError("subspace ambient dimension does not match the form")
    n, (wrows, _) = omega.dim_u, omega._stacked_rows
    rows = [(_combine(nums, wrows[c * n : (c + 1) * n]), 1) for c in range(omega.dim_v) for nums, _ in a.echelon._ints]
    return kernel(Matrix._of(len(rows), n, tuple(rows)))


class SubspaceClass(NamedTuple):
    isotropic: bool
    coisotropic: bool
    lagrangian: bool
    polysymplectic: bool


def classify(omega: VForm, a: Subspace) -> SubspaceClass:
    """Classification flags from I = A intersected with A-orthogonal: A is
    isotropic iff I = A, coisotropic iff I = A-orthogonal, polysymplectic
    iff I = 0."""
    orth = orthogonal(omega, a)
    meet = intersect(a, orth).dim
    return SubspaceClass(
        isotropic=meet == a.dim,
        coisotropic=meet == orth.dim,
        lagrangian=meet == a.dim == orth.dim,
        polysymplectic=meet == 0,
    )


class LinearReduction(NamedTuple):
    """Reduction of a form by a subspace A.

    carrier presents A-orthogonal over its intersection with A; reduced_form
    is the induced form on the section; kernel is the degeneracy kernel of the
    reduced form in section coordinates (the quotient image of the double
    orthogonal intersected with the orthogonal).
    """

    carrier: QuotientSpace
    reduced_form: VForm
    kernel: Subspace
    nondegenerate: bool


def linear_reduce(omega: VForm, a: Subspace) -> LinearReduction:
    if a.ambient_dim != omega.dim_u:
        raise ValidationError("subspace ambient dimension does not match the form")
    orth = orthogonal(omega, a)
    core = intersect(a, orth)
    try:
        carrier = quotient(orth, core)
    except ValidationError:
        raise ContractViolation("the meet of A and its orthogonal is not contained in the orthogonal") from None
    section = carrier.section

    # Well-definedness: the form must not see the quotiented directions.
    section_t = section.transpose()
    if not all((section_t @ (m @ core.basis)).is_zero() for m in omega.components):
        raise ContractViolation("descent to the quotient failed")

    reduced = omega.restrict(section)
    ker = reduced.degeneracy_kernel()
    return LinearReduction(
        carrier=carrier,
        reduced_form=reduced,
        kernel=ker,
        nondegenerate=ker.is_zero(),
    )


# Largest k (n + n k)^2 a canonical shape (n, k) may have: the cells of the
# canonical model's components, and the floats of the canonical patch's
# structure form at a point. `embed --builtin canonical:4,7` needs 458,752.
MAX_CANONICAL_CELLS = 2**20


def canonical_dim(n: int, k: int, what: str = "canonical model") -> int:
    """n + n*k, once the shape (n, k) is known to be positive and within
    MAX_CANONICAL_CELLS; checked before anything of that size is allocated."""
    if n < 1 or k < 1:
        raise ValidationError(f"{what} needs n >= 1 and k >= 1")
    dim = n + n * k
    cells = k * dim * dim
    if cells > MAX_CANONICAL_CELLS:
        raise ValidationError(
            f"{what} of shape ({n}, {k}) needs {cells} cells; at most {MAX_CANONICAL_CELLS} are supported"
        )
    return dim


def canonical_model(n: int, k: int) -> VForm:
    """The universal form on Q^(n + n*k) with coordinates (u, phi).

    phi_{ij} (the (i, j) entry of phi: U -> V) sits at position
    n + (i-1)*n + (j-1); the form is phi'(u) - phi(u').
    """
    dim = canonical_dim(n, k)
    comps = []
    for c in range(k):
        rows = [[0] * dim for _ in range(dim)]
        for j in range(n):
            p = n + c * n + j
            rows[j][p] = 1
            rows[p][j] = -1
        comps.append(Matrix(rows))
    return VForm(dim, tuple(comps))


def universal_embed(omega: VForm) -> Matrix:
    """Matrix of u -> u - (1/2) iota_u omega into the canonical model: the
    identity stacked on each (1/2) W_c, since -(1/2) W_c^T = (1/2) W_c.

    Requires a nondegenerate input; the pullback of canonical_model(n, k)
    along the result reproduces omega exactly.
    """
    if not omega.is_nondegenerate():
        raise ContractViolation("universal embedding requires a nondegenerate form")
    half = Fraction(1, 2)
    return reduce(Matrix.vstack, [m.scale(half) for m in omega.components], Matrix.identity(omega.dim_u))


def pullback(omega: VForm, linear_map: Matrix) -> VForm:
    """Pullback of omega along a linear map given by its matrix."""
    if linear_map.rows != omega.dim_u:
        raise ValidationError("map codomain does not match the form")
    return omega.restrict(linear_map)


def apply_coefficient_map(f: Matrix, omega: VForm) -> tuple:
    """Post-compose omega with the coefficient map f: V -> V', given as its
    k' x k matrix. Returns (candidate form, degeneracy kernel)."""
    if f.cols != omega.dim_v:
        raise ValidationError("coefficient map source does not match the form")
    if f.rows < 1:
        raise ValidationError("coefficient map target must be at least 1-dimensional")
    # Row i of image component j combines row i of each W_c by row j of f.
    n, (wrows, big) = omega.dim_u, omega._stacked_rows
    comps = (
        Matrix._of(n, n, tuple(_canonical(_combine(nums, wrows[i::n]), d * big) for i in range(n)))
        for nums, d in f._ints
    )
    candidate = VForm(n, tuple(comps))
    return candidate, candidate.degeneracy_kernel()


def check_reduction_candidate(omega: VForm, f: Matrix) -> bool:
    """True iff the surjection f carries omega to a nondegenerate form."""
    if rank(f) != f.rows:
        raise ContractViolation("reduction candidates must be surjective")
    return apply_coefficient_map(f, omega)[1].is_zero()
