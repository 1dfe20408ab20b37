"""The rotation group SO(3), numerically, with the exact Lie algebras of
`lietable` re-exported.

Rotations come from Rodrigues' formula and Haar sampling. The module carries
the paper's two executable counterexamples: a fixed-point-free loop of
structure-preserving maps, and a moment image that is a sphere rather than a
convex set. The exact names are re-exported so that `liealg` stays the one
name for both halves; commands that need only the exact half import
`lietable` and load no numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, ValidationError
from .lietable import (  # noqa: F401  (re-exported)
    BUILTIN_TRIPLES, LieAlgebra, algebra_direct_sum, bracket_form, center, centralizer, lie_reduce,
    sl2, so3, structure_table,
)

GROUP_TOLERANCE = 1e-9


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


class ArnoldReport(NamedTuple):
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


class ConvexityReport(NamedTuple):
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
