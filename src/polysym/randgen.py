"""Seeded generators of exact random instances for the property suites.

Everything returns Fractions built from small integers so the downstream
assertions stay exact and fast; generation is deterministic given the
`random.Random` instance passed in.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import ContractViolation, ValidationError
from .exactla import Matrix, Subspace, rank
from .polycore import VForm

SPAN, ATTEMPTS = 3, 200  # numerators lie in [-SPAN, SPAN]; rejection samplers give up after ATTEMPTS draws
DENOMINATORS = (1, 1, 1, 2, 3)  # each divides 6


def rand_fraction(rng: random.Random) -> Fraction:
    den = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(-SPAN, SPAN), den)


def rand_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix([[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)])


def rand_vector(rng: random.Random, n: int) -> tuple:
    return tuple(rand_fraction(rng) for _ in range(n))


def rand_subspace(rng: random.Random, n: int) -> Subspace:
    d = rng.randint(0, n)
    return Subspace.from_vectors(n, [rand_vector(rng, n) for _ in range(d)])


def rand_skew(rng: random.Random, n: int) -> Matrix:
    """m - m^T for the m that `rand_matrix` draws, from the same draws in the
    same order, built as integer rows over 6."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            den = rng.choice(DENOMINATORS)
            m[i][j] = rng.randint(-SPAN, SPAN) * (6 // den)
    rows = [{j: m[i][j] - m[j][i] for j in range(n) if m[i][j] != m[j][i]} for i in range(n)]
    return Matrix._of_integers(rows, n, 6)


def rand_vform(rng: random.Random, n: int, k: int) -> VForm:
    """A random nondegenerate form, rejection-sampled. A single component on
    an odd-dimensional space is always degenerate, so callers pass even n
    when k == 1."""
    for _ in range(ATTEMPTS):
        form = VForm(n, tuple(rand_skew(rng, n) for _ in range(k)))
        if form.is_nondegenerate():
            return form
    raise ContractViolation(f"no nondegenerate form found for n={n}, k={k}")


def rand_dims(rng: random.Random, max_n: int, max_k: int) -> tuple:
    """Dimension pair (n, k) compatible with nondegeneracy (even n when k=1)."""
    k = rng.randint(1, max_k)
    if k == 1:
        n = 2 * rng.randint(1, max_n // 2)
    else:
        n = rng.randint(2, max_n)
    return n, k


def rand_surjection(rng: random.Random, rows: int, cols: int) -> Matrix:
    if rows > cols:
        raise ContractViolation("a surjection needs rows <= cols")
    for _ in range(ATTEMPTS):
        m = rand_matrix(rng, rows, cols)
        if rank(m) == rows:
            return m
    raise ContractViolation("no surjection found")


def rand_line(rng: random.Random, n: int) -> Subspace:
    while True:
        v = rand_vector(rng, n)
        if any(x != 0 for x in v):
            return Subspace.from_vectors(n, [v])


def rand_plane(rng: random.Random, n: int) -> Subspace:
    while True:
        s = Subspace.from_vectors(n, [rand_vector(rng, n), rand_vector(rng, n)])
        if s.dim == 2:
            return s


def rand_cochain(rng: random.Random, cx, degree: int, closed: bool = False):
    """A `discgauge.Cochain` of the complex cx with integer coordinates in
    [-SPAN, SPAN]: on the cocycle basis of the degree when closed, else on the
    simplices. Only this draw loads `discgauge`."""
    from .discgauge import Cochain

    if closed:
        if not (0 <= degree <= cx.dimension):
            raise ValidationError("cohomology degree out of range")
        z = cx.cocycles(degree)
        return Cochain(cx, degree, z.basis.apply([Fraction(rng.randint(-SPAN, SPAN)) for _ in range(z.dim)]))
    return Cochain(cx, degree, [Fraction(rng.randint(-SPAN, SPAN)) for _ in range(cx.count(degree))])
