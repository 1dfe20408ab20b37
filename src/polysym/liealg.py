"""Lie algebras as coefficient systems, plus the SO(3) group-level machinery.

The exact half works over structure constants: centers, centralizers, the
bracket form (a vector-valued symplectic structure on a centerless algebra),
and reduction by a subspace. The numeric half implements the rotation group
with Rodrigues' formula and carries the two executable counterexamples: a
fixed-point-free loop of structure-preserving maps, and a moment image that
is a sphere rather than a convex set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ContractViolation, ValidationError
from .exactla import Matrix, Subspace
from .polycore import LinearReduction, VForm, joint_kernel, linear_reduce

GROUP_TOLERANCE = 1e-9


class LieAlgebra:
    """A rational Lie algebra given by its nonzero structure constants.

    brackets[(i, j)] = ((k, c), ...) with [e_i, e_j] = sum_k c e_k: indices
    0-based, k increasing, every c nonzero, (j, i) holding the negated terms
    and pairs with a zero bracket absent, as structure_table builds it. The
    Jacobi identity is validated exactly on construction.
    """

    def __init__(self, dim: int, brackets: dict, name: str = ""):
        self.dim = dim
        self.brackets = brackets
        self.name = name
        self._check_jacobi()

    @classmethod
    def from_triples(cls, dim: int, triples: Sequence, name: str = "") -> "LieAlgebra":
        """Build from 1-based (i, j, k, c) entries meaning [e_i, e_j] has
        e_k-coefficient c; see structure_table."""
        return cls(dim, structure_table(dim, triples), name=name)

    @cached_property
    def components(self) -> tuple:
        """Dense matrices with components[k][i, j] = c^k_ij, read off the
        bracket table; only the bracket form reads them."""
        n = self.dim
        grids = [[[0] * n for _ in range(n)] for _ in range(n)]
        for (i, j), terms in self.brackets.items():
            for k, c in terms:
                grids[k][i][j] = c
        return tuple(Matrix(grid) for grid in grids)

    def _check_jacobi(self):
        """Sum the nonzero terms on every basis triple i < j < k with a
        nonzero bracket among its pairs, in lexicographic order; on the other
        triples every term vanishes. The constants are scaled once to
        integers over their common denominator D, so the sums (D^2 times the
        rational ones) run on integers."""
        n = self.dim
        big = math.lcm(*(c.denominator for terms in self.brackets.values() for _, c in terms))
        table = {
            pair: [(k, c.numerator * (big // c.denominator)) for k, c in terms]
            for pair, terms in self.brackets.items()
        }
        triples = sorted({tuple(sorted((i, j, k))) for i, j in table for k in range(n) if k not in (i, j)})
        for i, j, k in triples:
            acc = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, x in table.get((a, b), ()):
                    for p, y in table.get((m, c), ()):
                        acc[p] = acc.get(p, 0) + x * y
            if any(acc.values()):
                raise ValidationError(f"Jacobi identity fails on basis triple ({i+1},{j+1},{k+1})")

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        return self.ad(x).apply(y)

    def ad(self, x: Sequence) -> Matrix:
        """Matrix of ad_x: y -> [x, y]."""
        rows = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for (i, j), terms in self.brackets.items():
            if x[i]:
                for k, c in terms:
                    rows[k][j] += x[i] * c
        return Matrix(rows)


def structure_table(dim: int, triples: Sequence) -> dict:
    """The bracket table of LieAlgebra from 1-based (i, j, k, c) triples:
    +c at (i, j, k) and -c at (j, i, k) are summed, then zeros dropped."""
    sums = {}
    for entry in triples:
        if len(entry) != 4:
            raise ValidationError("structure triples must be (i, j, k, c)")
        i, j, k, c = entry
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            raise ValidationError(f"index out of range in triple {entry!r}")
        c = c if isinstance(c, Fraction) else Fraction(c)
        for pair, s in (((i - 1, j - 1), c), ((j - 1, i - 1), -c)):
            row = sums.setdefault(pair, {})
            row[k - 1] = row.get(k - 1, 0) + s
    table = {pair: tuple((k, c) for k, c in sorted(row.items()) if c) for pair, row in sums.items()}
    return {pair: terms for pair, terms in table.items() if terms}


def center(g: LieAlgebra) -> Subspace:
    """Elements commuting with the whole algebra; exact."""
    return centralizer(g, Subspace.full(g.dim))


def bracket_form(g: LieAlgebra) -> VForm:
    """The bracket as a g-valued symplectic structure (needs trivial center)."""
    if not center(g).is_zero():
        raise ContractViolation("bracket form requires a centerless algebra")
    return VForm(g.dim, g.components)


def centralizer(g: LieAlgebra, a: Subspace) -> Subspace:
    """{x : [a, x] = 0}; computed from ad, so it works with any center."""
    if a.ambient_dim != g.dim:
        raise ValidationError("subspace ambient dimension does not match the algebra")
    return joint_kernel(g.dim, [g.ad(a.basis.col(j)) for j in range(a.dim)])


def lie_reduce(g: LieAlgebra, a: Subspace) -> LinearReduction:
    """Reduction of the bracket form by a subspace. The bracket form's flat at
    u is ad(u), so the carrier is the centralizer of a modulo its meet with a."""
    return linear_reduce(bracket_form(g), a)


# Builtin algebras: name -> (dim, structure triples). The lie documents of
# the builtin registry in docio are rendered from this table.
BUILTIN_TRIPLES = {
    "so3": (3, ((1, 2, 3, 1), (2, 3, 1, 1), (3, 1, 2, 1))),
    # basis (h, e, f): [h,e]=2e, [h,f]=-2f, [e,f]=h
    "sl2": (3, ((1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, 1))),
    "heisenberg": (3, ((1, 2, 3, 1),)),
}


def so3() -> LieAlgebra:
    return LieAlgebra.from_triples(*BUILTIN_TRIPLES["so3"], name="so3")


def sl2() -> LieAlgebra:
    return LieAlgebra.from_triples(*BUILTIN_TRIPLES["sl2"], name="sl2")


def heisenberg() -> LieAlgebra:
    return LieAlgebra.from_triples(*BUILTIN_TRIPLES["heisenberg"], name="heisenberg")


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {}, name=f"abelian{n}")


def algebra_direct_sum(g: LieAlgebra, h: LieAlgebra) -> LieAlgebra:
    """g + h, with h's basis after g's: h's table shifted by g.dim."""
    n = g.dim
    brackets = dict(g.brackets)
    for (i, j), terms in h.brackets.items():
        brackets[(i + n, j + n)] = tuple((k + n, c) for k, c in terms)
    return LieAlgebra(n + h.dim, brackets, name=f"{g.name}+{h.name}")


# Numeric rotation-group machinery.

def hat(v: np.ndarray) -> np.ndarray:
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def unhat(m: np.ndarray) -> np.ndarray:
    """Inverse of hat on the skew part; a (..., 3, 3) stack gives (..., 3)."""
    s = 0.5 * (m - np.swapaxes(m, -1, -2))
    return np.stack([s[..., 2, 1], s[..., 0, 2], s[..., 1, 0]], axis=-1)


def so3_exp(v: np.ndarray) -> np.ndarray:
    """Rodrigues rotation exp(hat(v)), with a series fallback near zero."""
    v = np.asarray(v, dtype=float)
    theta = float(np.linalg.norm(v))
    k = hat(v)
    if theta < 1e-8:
        return np.eye(3) + k + 0.5 * (k @ k)
    a = math.sin(theta) / theta
    b = (1.0 - math.cos(theta)) / (theta * theta)
    return np.eye(3) + a * k + b * (k @ k)


def check_rotations(m: np.ndarray) -> None:
    """Raise ContractViolation unless every matrix of a (..., 3, 3) stack is
    orthogonal with determinant 1 within GROUP_TOLERANCE; NaN fails both."""
    if not np.all(np.linalg.norm(np.swapaxes(m, -1, -2) @ m - np.eye(3), axis=(-2, -1)) <= GROUP_TOLERANCE):
        raise ContractViolation("matrix is not orthogonal within tolerance")
    if not np.all(np.abs(np.linalg.det(m) - 1.0) <= GROUP_TOLERANCE):
        raise ContractViolation("matrix determinant is not 1 within tolerance")


HAAR_BLOCK = 4096


def haar_so3(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` Haar-distributed rotations as a (count, 3, 3) array, by one
    stacked QR of Gaussian matrices (Mezzadri 2007).

    The signs of R's diagonal move into Q, and the third column is negated
    where the determinant is -1. Every sample passes check_rotations, and the
    generator advances by one 3x3 standard-normal draw per sample, so blocks
    of any size give the rotations that one-at-a-time draws give, bit for bit.
    """
    q, r = np.linalg.qr(rng.standard_normal((count, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    flip = np.linalg.det(q) < 0
    q[flip, :, 2] = -q[flip, :, 2]
    check_rotations(q)
    return q


def haar_blocks(count: int, seed: int):
    """`count` Haar rotations from default_rng(seed), yielded as stacks of at
    most HAAR_BLOCK, so memory stays bounded whatever the count."""
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    for start in range(0, count, HAAR_BLOCK):
        yield haar_so3(rng, min(HAAR_BLOCK, count - start))


@dataclass(frozen=True)
class ArnoldReport:
    samples: int
    fixed_points_found: int
    translation_distance: float
    min_displacement: float


def arnold_counterexample(
    xi: np.ndarray, t: float, sample_count: int, seed: int = 0, tolerance_scale: float = 1.0
) -> ArnoldReport:
    """Count Haar-sampled fixed points of left translation by exp(t xi).

    The translation must differ from the identity; a fixed-point count of 0
    is the expected outcome for every non-identity translation. For
    orthogonal g, |ug - g| = |u - I| (Frobenius), so min_displacement, the
    smallest sampled |ug - g|, must equal translation_distance to rounding.
    """
    if sample_count < 1:
        raise ValidationError("need at least one sample")
    xi = np.asarray(xi, dtype=float)
    u = so3_exp(t * xi)
    gap = float(np.linalg.norm(u - np.eye(3)))
    if gap <= GROUP_TOLERANCE * tolerance_scale:
        raise ContractViolation(
            "translation time lands on the identity; the check is vacuous"
        )
    tol = 1e-9 * tolerance_scale
    found, nearest = 0, np.inf
    for g in haar_blocks(sample_count, seed):
        moved = np.linalg.norm(u @ g - g, axis=(1, 2))
        found += int(np.count_nonzero(moved < tol))
        nearest = np.minimum(nearest, moved.min())
    return ArnoldReport(sample_count, found, gap, float(nearest))


GRAM_BLOCK_CELLS = 1 << 18  # 2 MiB of float64


def most_antipodal_pair(points: np.ndarray) -> tuple:
    """The pair (i, j), i != j, with the smallest inner product, which also
    minimizes the midpoint norm on a sphere; ties go to the first in row-major
    order, so the pair does not depend on the block size. The Gram matrix is
    scanned max(1, GRAM_BLOCK_CELLS // N) rows at a time, so memory grows
    with N rather than N^2.
    """
    step = max(1, GRAM_BLOCK_CELLS // max(1, len(points)))
    best, pair = np.inf, (0, 0)
    for start in range(0, len(points), step):
        block = points[start:start + step] @ points.T
        rows = np.arange(len(block))
        block[rows, start + rows] = np.inf
        r, j = np.unravel_index(np.argmin(block), block.shape)
        if block[r, j] < best:
            best, pair = block[r, j], (start + int(r), int(j))
        del block  # free it before the next block is built
    return pair


def moment_images(xi: np.ndarray, samples: int, seed: int = 0) -> np.ndarray:
    """Left-regular moment images Ad_{g^-1} xi = unhat(g^T hat(xi) g) of
    `samples` Haar rotations from haar_blocks, as a (samples, 3) array."""
    x = hat(xi)
    return np.concatenate([unhat(np.swapaxes(g, 1, 2) @ x @ g) for g in haar_blocks(samples, seed)])


@dataclass(frozen=True)
class ConvexityReport:
    samples: int
    on_sphere: bool
    sphere_radius: float
    max_radius_error: float
    midpoint_norm: float
    midpoint_gap: float


def convexity_counterexample(
    xi: np.ndarray, samples: int, seed: int = 0, tolerance_scale: float = 1.0
) -> ConvexityReport:
    """Moment image of the left regular action: a sphere, hence not convex.

    Checks that every sampled image point (moment_images, drawn in blocks of
    HAAR_BLOCK rotations) has the norm of xi, then exhibits the sampled pair
    whose midpoint is deepest inside the ball (most_antipodal_pair, a Gram
    scan in blocks of at most GRAM_BLOCK_CELLS entries).
    """
    if samples < 1:
        raise ValidationError("need at least one sample")
    xi = np.asarray(xi, dtype=float)
    radius = float(np.linalg.norm(xi))
    if radius == 0.0:
        raise ContractViolation("the zero direction has a trivial moment image")
    images = moment_images(xi, samples, seed)
    radius_err = float(np.max(np.abs(np.linalg.norm(images, axis=1) - radius)))
    on_sphere = radius_err <= 1e-9 * tolerance_scale
    i, j = most_antipodal_pair(images)
    midpoint = 0.5 * (images[i] + images[j])
    mid_norm = float(np.linalg.norm(midpoint))
    return ConvexityReport(
        samples=samples,
        on_sphere=on_sphere,
        sphere_radius=radius,
        max_radius_error=radius_err,
        midpoint_norm=mid_norm,
        midpoint_gap=radius - mid_norm,
    )
