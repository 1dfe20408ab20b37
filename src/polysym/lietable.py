"""Lie algebras as exact coefficient systems.

A Lie algebra is held as the table of its nonzero rational structure
constants. On it this module computes centers, centralizers, the bracket form
(a vector-valued symplectic structure on a centerless algebra) and reduction
by a subspace, all over the rationals. It imports no numpy, so the exact CLI
commands that read Lie documents never load it; the rotation group lives in
`liealg`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import ContractViolation, ValidationError
from .exactla import Matrix, Subspace
from .polycore import LinearReduction, VForm, joint_kernel, linear_reduce


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
        bracket table; the bracket form and the center read them."""
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
    """Elements commuting with the whole algebra: the bracket form's kernel."""
    return joint_kernel(g.dim, g.components)


def bracket_form(g: LieAlgebra) -> VForm:
    """The bracket as a g-valued symplectic structure (needs trivial center)."""
    if not center(g).is_zero():
        raise ContractViolation("bracket form requires a centerless algebra")
    return VForm(g.dim, g.components)


def centralizer(g: LieAlgebra, a: Subspace) -> Subspace:
    """{x : [a, x] = 0}; computed from ad, so it works with any center."""
    if a.ambient_dim != g.dim:
        raise ValidationError("subspace ambient dimension does not match the algebra")
    return joint_kernel(g.dim, [g.ad(a.echelon.row(i)) for i in range(a.dim)])


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


def algebra_direct_sum(g: LieAlgebra, h: LieAlgebra) -> LieAlgebra:
    """g + h, with h's basis after g's: h's table shifted by g.dim."""
    n = g.dim
    brackets = dict(g.brackets)
    for (i, j), terms in h.brackets.items():
        brackets[(i + n, j + n)] = tuple((k + n, c) for k, c in terms)
    return LieAlgebra(n + h.dim, brackets, name=f"{g.name}+{h.name}")
