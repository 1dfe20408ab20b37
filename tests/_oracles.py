"""Independent oracles for the test suite.

These deliberately avoid the package's echelon/quotient machinery: ranks use
fraction-free integer elimination (Bareiss style), bilinear-form facts are
checked straight from definitions, and the scalar kernels of `exactla`
(`rref`, matrix products) have plain `Fraction` reference versions here.
The numeric samplers of `liealg` have their one-sample-at-a-time loops here.
"""

from fractions import Fraction

import numpy as np


def fraction_rref(rows, cols):
    """Reference Gauss-Jordan over Fractions, dividing by each pivot as it is
    chosen. Returns (rows of the reduced row echelon form, pivot columns)."""
    data = [[Fraction(x) for x in row] for row in rows]
    n_rows = len(data)
    pivots = []
    r = 0
    for c in range(cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if data[i][c] != 0), None)
        if pivot_row is None:
            continue
        data[r], data[pivot_row] = data[pivot_row], data[r]
        inv = data[r][c]
        data[r] = [x / inv for x in data[r]]
        for i in range(n_rows):
            if i != r and data[i][c] != 0:
                f = data[i][c]
                data[i] = [a - f * b for a, b in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in data), tuple(pivots)


def fraction_apply(rows, vec):
    """Matrix-vector product as Fraction dot products."""
    return tuple(
        sum((Fraction(a) * Fraction(b) for a, b in zip(row, vec)), Fraction(0)) for row in rows
    )


def fraction_matmul(left, right, cols):
    """Product of a list of rows with a matrix of `cols` columns given by its
    rows, as Fraction dot products."""
    columns = [[row[j] for row in right] for j in range(cols)]
    return tuple(fraction_apply(columns, row) for row in left)


def looped_rotations(count, seed):
    """Haar rotations drawn one at a time from default_rng(seed): a 3x3 QR,
    signs fixed by a diagonal product, the third column negated if det < 0."""
    rng = np.random.default_rng(seed)
    out = np.empty((count, 3, 3))
    for s in range(count):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q @ np.diag(np.sign(np.diag(r)))
        if np.linalg.det(q) < 0:
            q[:, 2] = -q[:, 2]
        out[s] = q
    return out


def looped_moment_images(xi, count, seed):
    """Ad_{g^-1} xi, the skew part of g^T hat(xi) g, one rotation at a time."""
    x, y, z = xi
    h = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    out = np.empty((count, 3))
    for s, g in enumerate(looped_rotations(count, seed)):
        m = g.T @ h @ g
        out[s] = 0.5 * np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    return out


def looped_displacements(u, count, seed):
    """|ug - g| (Frobenius) for each rotation g, one at a time."""
    return np.array([np.linalg.norm(u @ g - g) for g in looped_rotations(count, seed)])


def bareiss_rank(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(n_rows):
            if r == rank:
                continue
            for c in range(n_cols):
                if c == col:
                    continue
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == n_rows:
            break
    return rank


def oracle_betti(cx, p):
    """Betti number from coboundary ranks, built straight off the face lists."""

    def cob_rows(q):
        n_from = cx.count(q)
        n_to = cx.count(q + 1)
        rows = [[0] * n_from for _ in range(n_to)]
        if q + 1 in cx.faces:
            for s, frow in enumerate(cx.faces[q + 1]):
                for i, f in enumerate(frow):
                    rows[s][f] += (-1) ** i
        return rows

    rank_d = bareiss_rank(cob_rows(p))
    rank_prev = bareiss_rank(cob_rows(p - 1)) if p >= 1 else 0
    return cx.count(p) - rank_d - rank_prev


def in_orthogonal(form, subspace, v):
    """Definition check: v is orthogonal to every basis vector of subspace."""
    for j in range(subspace.dim):
        a = subspace.basis.col(j)
        if any(x != 0 for x in form.evaluate(a, v)):
            return False
    return True
