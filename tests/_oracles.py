"""Oracles and reference loops for the test suite.

The oracles deliberately avoid the package's echelon/quotient machinery:
ranks use fraction-free integer elimination (Bareiss style), bilinear-form
facts are checked straight from definitions, and the scalar kernels of
`exactla` (`rref`, matrix products, scaling, transposes, stacking and the
skew test) have plain `Fraction` reference versions here; `rref` also
has its earlier dense integer version, which can stop after the leading
columns and fixes the rows it leaves below the pivots.

The reference loops compute what a package routine computes, the plain way,
and the tests require the routine to match them exactly: the numeric
samplers of `liealg` one sample at a time, the Lie bracket, adjoint and
Jacobi check from dense dim^3 structure constants, the potentials of the
builtin patches one point at a time, the pointwise derivatives of
`pointham` one central difference per axis (and the closedness defect of its
structure form), the pointham routines that take the structure form once
per point as they were when each took it again (the bracket, the
preservation and moment-identity defects, the pullback defect), the
rotation-group left generator as exp, the patch's theta and a 3x3 solve (also in 40-digit
`Decimal` arithmetic, where the float version cancels), the joint kernels (orthogonal,
centralizer, center, degeneracy kernel) by stacking the blocks one at a time
before a single `exactla.kernel`, quotient coordinates by one
`exactla.solve` per vector, the quotient as one dense elimination of three
blocks ([sub | ambient | I], which the package's quotient in ambient's pivot
coordinates must match) and as the conditions that define the greedy
quotient, checked on nonzeros, the coboundary space B^p of a complex in the whole
cochain space (the span of d's columns), and the linear layer one vector or
one entry at a time (the contraction of a form at a vector, subspace sums and
intersections, coefficient maps, the universal embedding, and the bracket
form's components from the rows of ad), the subspace lattice as it was
computed on canonical column bases (sums, intersections, containment and
the orthogonal by transposes and products), the skew random draw as
m - m^T of a drawn `Fraction` matrix, and the JSON rendering of a problem
document that the round-trip tests parse back.
"""

import decimal
import json
import math
from fractions import Fraction
from math import lcm
from typing import NamedTuple

import numpy as np

from polysym.errors import ContractViolation, ValidationError
from polysym.exactla import Matrix, Subspace, kernel, rank, rref, solve
from polysym.liealg import hat, so3_exp, unhat
from polysym.pointham import DEFAULT_FD_STEP, hamiltonian_field, omega_at


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


def fraction_add(left, right):
    """Entrywise sum of two lists of rows."""
    return tuple(tuple(Fraction(a) + Fraction(b) for a, b in zip(r, s)) for r, s in zip(left, right))


def fraction_scale(rows, c):
    return tuple(tuple(Fraction(c) * Fraction(a) for a in row) for row in rows)


def fraction_transpose(rows, cols):
    return tuple(tuple(Fraction(row[j]) for row in rows) for j in range(cols))


def fraction_hstack(left, right):
    return tuple(tuple(Fraction(a) for a in list(r) + list(s)) for r, s in zip(left, right))


def fraction_vstack(top, bottom):
    return tuple(tuple(Fraction(a) for a in row) for row in list(top) + list(bottom))


def fraction_is_skew(rows, cols):
    """Square, and entry (i, j) is minus entry (j, i) for every i <= j."""
    return len(rows) == cols and all(
        Fraction(rows[i][j]) == -Fraction(rows[j][i]) for i in range(cols) for j in range(i, cols)
    )


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


def so3_log(r):
    """Inverse of liealg.so3_exp for rotations with angle strictly below pi."""
    c = min(1.0, max(-1.0, (np.trace(r) - 1.0) / 2.0))
    theta = math.acos(c)
    if theta < 1e-8:
        return unhat(r)
    if theta > math.pi - 1e-6:
        raise ValueError("logarithm near the cut locus is not supported")
    return theta / (2.0 * math.sin(theta)) * unhat(r - r.T)


def _primitive_list(nums):
    h = math.gcd(*nums)
    return [a // h for a in nums] if h > 1 else nums


def _cleared(row, prow, c):
    g = math.gcd(prow[c], row[c])
    return _primitive_list([prow[c] // g * a - row[c] // g * b for a, b in zip(row, prow)])


def dense_rows_rref(rows, cols, stop=None):
    """The fraction-free, one-row-at-a-time elimination of `exactla.rref`, on
    dense lists of integers, as it ran before matrix rows were stored as their
    nonzeros. With a `stop`, only the first `stop` columns lead, as in the
    three-block quotient below; it fixes the rows left below the pivots
    (primitive integer rows, with their signs), which no Gauss-Jordan
    reference does. Takes rows of ints and Fractions; returns (all rows as
    Fraction tuples, pivot columns)."""
    lead = cols if stop is None else stop
    basis, rest = {}, []
    zero = Fraction(0)
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        row = [x.numerator * (d // x.denominator) for x in row]
        for c, prow in basis.items():
            if row[c]:
                row = _cleared(row, prow, c)
        first = next((c for c in range(lead) if row[c]), None)
        if first is None:
            rest.append(_primitive_list(row))
            continue
        row = _primitive_list(row)
        for c, prow in basis.items():
            if prow[first]:
                basis[c] = _cleared(prow, row, first)
        basis[first] = row
        if len(basis) == cols:
            break
    pivots = sorted(basis)
    out = [tuple(Fraction(a, basis[c][c]) if a else zero for a in basis[c]) for c in pivots]
    out += [tuple(Fraction(a) if a else zero for a in row) for row in rest]
    out += [(zero,) * cols] * (len(rows) - len(out))
    return tuple(out), tuple(pivots)


def bareiss_rank(rows):
    """Rank of an integer matrix by fraction-free (Bareiss) forward
    elimination on each row's nonzeros. The pivot is the first remaining row
    holding the leftmost remaining nonzero column; every row below becomes
    (p * row - a * pivot row) / previous pivot, a division that is exact
    because each entry is a minor of the matrix."""
    rows = [{c: a for c, a in enumerate(r) if a} for r in rows]
    rows = [r for r in rows if r]
    rank, prev = 0, 1
    while rows:
        col = min(min(r) for r in rows)
        prow = rows.pop(next(i for i, r in enumerate(rows) if col in r))
        p = prow[col]
        out = []
        for r in rows:
            new = {c: p * x for c, x in r.items()}
            a = r.get(col, 0)
            for c, y in prow.items() if a else ():
                new[c] = new.get(c, 0) - a * y
            new = {c: v // prev for c, v in new.items() if v}
            if new:
                out.append(new)
        rows, prev = out, p
        rank += 1
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


def coboundary_space(cx, p):
    """B^p in the whole cochain space C^p: the span of the columns of
    d^(p-1), the zero space in degree 0."""
    if p == 0:
        return Subspace.zero(cx.count(0))
    return Subspace.from_vectors(cx.count(p), cx.coboundary_matrix(p - 1).columns())


def in_orthogonal(form, subspace, v):
    """Definition check: v is orthogonal to every basis vector of subspace."""
    for j in range(subspace.dim):
        a = subspace.basis.col(j)
        if any(x != 0 for x in form.evaluate(a, v)):
            return False
    return True


# The builtin potentials at one point, which each row of their stacked
# kernels must equal bit for bit.

def so3_dexp_inv_at(x):
    """Left-trivialized differential of the exponential chart at x, with the
    series below norm 1e-8."""
    th = float(np.linalg.norm(x))
    k = hat(x)
    if th < 1e-8:
        return np.eye(3) - 0.5 * k + (k @ k) / 6.0
    s = math.sin(0.5 * th) / th
    a = 2.0 * s * s  # (1 - cos th) / th^2 without the cancellation
    b = (th - math.sin(th)) / (th ** 3)
    return np.eye(3) - a * k + b * (k @ k)


def so3_left_generator_at(xi, x):
    """Left generator of the rotation-group patch at x as exp and a solve:
    theta_x^-1 Ad_{exp(x)^-1} xi, with Rodrigues' exp and the patch's theta."""
    x = np.asarray(x, dtype=float)
    return np.linalg.solve(so3_dexp_inv_at(x), so3_exp(x).T @ np.asarray(xi, dtype=float))


def decimal_left_generator_at(xi, x, digits=40):
    """so3_left_generator_at in `digits`-digit Decimal arithmetic, as floats.

    sin t / t, (1 - cos t) / t^2 and (t - sin t) / t^3 are summed as power
    series in t^2, so nothing cancels at small t, where the float version
    loses digits in 1 - cos t; the solve is Cramer's rule.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        v = [decimal.Decimal(float(c)) for c in x]
        e = [decimal.Decimal(float(c)) for c in xi]
        t2 = sum(c * c for c in v)
        powers = [decimal.Decimal(1)] + [(-t2) ** n for n in range(1, 60)]
        s1, a, b = (sum(p / math.factorial(2 * n + o) for n, p in enumerate(powers)) for o in (1, 2, 3))
        k = [[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]]
        kk = [[sum(k[i][m] * k[m][j] for m in range(3)) for j in range(3)] for i in range(3)]
        rot = [[(i == j) + s1 * k[i][j] + a * kk[i][j] for j in range(3)] for i in range(3)]
        jr = [[(i == j) - a * k[i][j] + b * kk[i][j] for j in range(3)] for i in range(3)]
        rhs = [sum(rot[m][i] * e[m] for m in range(3)) for i in range(3)]

        def det(m):
            return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                    - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                    + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

        d = det(jr)
        cols = [[[rhs[i] if j == c else jr[i][j] for j in range(3)] for i in range(3)] for c in range(3)]
        return np.array([float(det(m) / d) for m in cols])


def canonical_theta_at(n, k, x):
    """phi dq at the point x = (q, phi) of the canonical patch, shape (k, n + nk)."""
    out = np.zeros((k, n + n * k))
    out[:, :n] = np.asarray(x, dtype=float)[n:].reshape(k, n)
    return out


# Per-axis central differences, one loop per derivative of `pointham`.

def looped_theta_derivative(patch, x, h):
    """D[a, c, b] = d theta_cb / d x_a, one axis at a time."""
    n = patch.dim_m
    d = np.empty((n, patch.dim_v, n))
    for a in range(n):
        e = np.zeros(n)
        e[a] = h
        d[a] = (patch.theta_at(x + e) - patch.theta_at(x - e)) / (2.0 * h)
    return d


def looped_omega_at(patch, x):
    """-d(theta) at x from the looped derivative."""
    x = np.asarray(x, dtype=float)
    d = looped_theta_derivative(patch, x, DEFAULT_FD_STEP)
    raw = np.transpose(d, (1, 0, 2))
    return -(raw - np.transpose(raw, (0, 2, 1)))


def looped_gradient(patch, f, x):
    """df at x as (k, n): one stacked column per axis."""
    x = np.asarray(x, dtype=float)
    h = DEFAULT_FD_STEP
    n = patch.dim_m
    cols = []
    for a in range(n):
        e = np.zeros(n)
        e[a] = h
        cols.append((np.asarray(f(x + e), dtype=float) - np.asarray(f(x - e), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=-1).reshape(patch.dim_v, n)


def looped_partials(f, x):
    """(f(x + h e_a) - f(x - h e_a)) / 2h in row a, one axis at a time."""
    x = np.asarray(x, dtype=float)
    h = DEFAULT_FD_STEP
    rows = []
    for a in range(x.size):
        e = np.zeros(x.size)
        e[a] = h
        rows.append((np.asarray(f(x + e), dtype=float) - np.asarray(f(x - e), dtype=float)) / (2.0 * h))
    return np.array(rows)


def looped_lie_derivative_of_theta(patch, gen, x):
    """(L_X theta)_cb with the generator Jacobian filled one row per axis."""
    x = np.asarray(x, dtype=float)
    n = patch.dim_m
    h = DEFAULT_FD_STEP
    d_theta = looped_theta_derivative(patch, x, h)
    xv = np.asarray(gen(x), dtype=float)
    theta = patch.theta_at(x)
    dx = np.empty((n, n))
    for b in range(n):
        e = np.zeros(n)
        e[b] = h
        dx[b] = (np.asarray(gen(x + e), dtype=float) - np.asarray(gen(x - e), dtype=float)) / (2.0 * h)
    return np.einsum("a,acb->cb", xv, d_theta) + np.einsum("ca,ba->cb", theta, dx)


def looped_section_jacobian(embedding, x):
    """Jacobian of x -> (x, theta_x), one stacked column per axis."""
    x = np.asarray(x, dtype=float)
    n = embedding.patch.dim_m
    h = DEFAULT_FD_STEP
    cols = []
    for a in range(n):
        e = np.zeros(n)
        e[a] = h
        cols.append((embedding.map(x + e) - embedding.map(x - e)) / (2.0 * h))
    return np.stack(cols, axis=1)


def looped_closedness_defect(patch, x):
    """Max coefficient of d(omega) at x, from one looped partial of
    pointham.omega_at per axis and second differences over coordinate triples."""
    x = np.asarray(x, dtype=float)
    n = patch.dim_m
    h = DEFAULT_FD_STEP
    partials = []
    for a in range(n):
        e = np.zeros(n)
        e[a] = h
        partials.append((omega_at(patch, x + e) - omega_at(patch, x - e)) / (2.0 * h))
    worst = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                val = partials[a][:, b, c] - partials[b][:, a, c] + partials[c][:, a, b]
                worst = max(worst, float(np.max(np.abs(val))))
    return worst


# Pointham routines that differentiate the potential again for every use of
# the structure form.

def three_omega_bracket(patch, f, g, x, tolerance_scale=1.0):
    """{f, g}(x) from two hamiltonian_field solves and a third omega_at."""
    x = np.asarray(x, dtype=float)
    sf = hamiltonian_field(patch, f, x, tolerance_scale)
    sg = hamiltonian_field(patch, g, x, tolerance_scale)
    if not sf.is_hamiltonian or not sg.is_hamiltonian:
        raise ContractViolation(
            "bracket arguments must be Hamiltonian at the point "
            f"(residuals {sf.residual:.3e}, {sg.residual:.3e})"
        )
    return -np.einsum("i,cij,j->c", sf.X, omega_at(patch, x), sg.X)


def looped_preservation_defect(patch, generators, points):
    """Max |L_X theta| with one Lie derivative, and so one derivative of the
    potential, per point and generator."""
    return max(
        float(np.max(np.abs(looped_lie_derivative_of_theta(patch, gen, x)))) for x in points for gen in generators
    )


def _moment_matrix(patch, generators, x):
    theta = patch.theta_at(x)
    return np.stack([theta @ np.asarray(gen(x), dtype=float) for gen in generators], axis=1)


def two_point_moment_identity_defect(patch, generators, points, directions):
    """Max |d mu(X)(xi) - omega(xi_induced, X)| with the directional
    derivative written out as a two-point quotient."""
    h = DEFAULT_FD_STEP
    worst = 0.0
    for x, direction in zip(points, directions):
        x = np.asarray(x, dtype=float)
        nrm = np.linalg.norm(direction)
        if nrm == 0:
            continue
        xdir = direction / nrm
        dmu = (_moment_matrix(patch, generators, x + h * xdir) - _moment_matrix(patch, generators, x - h * xdir)) / (2.0 * h)
        omega = omega_at(patch, x)
        for gi, gen in enumerate(generators):
            rhs = np.einsum("i,cij,j->c", np.asarray(gen(x), dtype=float), omega, xdir)
            worst = max(worst, float(np.max(np.abs(dmu[:, gi] - rhs))))
    return worst


def omega_at_pullback_defect(embedding, x):
    """The section's pullback defect against a second omega_at; the target
    form is pulled back as j^T (W j), the same products as pullback_defect."""
    j = embedding.jacobian(x)
    pulled = j.T @ (embedding.target_omega @ j)
    return float(np.max(np.abs(pulled - omega_at(embedding.patch, x))))


# Lie algebras: dim^3 dense structure constants, brackets as dense products,
# and the Jacobi identity checked with six brackets on every basis triple.

def dense_structure(dim, triples):
    """grids[k][i][j] = c^k_ij: +c at (i, j, k) and -c at (j, i, k) summed
    over 1-based (i, j, k, c) triples."""
    grids = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, c in triples:
        grids[k - 1][i - 1][j - 1] += Fraction(c)
        grids[k - 1][j - 1][i - 1] -= Fraction(c)
    return grids


def dense_bracket(grids, x, y):
    """[x, y]_k = sum over i, j of x_i c^k_ij y_j (zero products skipped)."""
    n = len(grids)
    pairs = [(i, j, Fraction(x[i]) * y[j]) for i in range(n) for j in range(n) if x[i] and y[j]]
    return tuple(sum((w * m[i][j] for i, j, w in pairs if m[i][j]), Fraction(0)) for m in grids)


def dense_ad(grids, x):
    """Rows of the matrix of y -> [x, y]."""
    n = len(grids)
    cols = [dense_bracket(grids, x, [int(t == j) for t in range(n)]) for j in range(n)]
    return tuple(zip(*cols))


def dense_jacobi_error(grids):
    """The message for the first basis triple, in lexicographic order, on
    which the Jacobi identity fails; None when it holds."""
    n = len(grids)
    basis = [[int(t == s) for t in range(n)] for s in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = [Fraction(0)] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    outer = dense_bracket(grids, dense_bracket(grids, basis[a], basis[b]), basis[c])
                    acc = [x + y for x, y in zip(acc, outer)]
                if any(acc):
                    return f"Jacobi identity fails on basis triple ({i+1},{j+1},{k+1})"
    return None


# Joint kernels: stack the blocks one at a time, then take one kernel.

def _stacked_kernel(n, blocks):
    stacked = None
    for block in blocks:
        stacked = block if stacked is None else stacked.vstack(block)
    return Subspace.full(n) if stacked is None else kernel(stacked)


def stacked_orthogonal(omega, a):
    return _stacked_kernel(omega.dim_u, (flat(omega, a.basis.col(j)) for j in range(a.dim)))


def stacked_degeneracy_kernel(omega):
    return _stacked_kernel(omega.dim_u, omega.components)


def stacked_centralizer(g, a):
    return _stacked_kernel(g.dim, (g.ad(a.basis.col(j)) for j in range(a.dim)))


def stacked_center(g):
    """Kernel of ad(e_i) stacked over the standard basis."""
    unit = [[Fraction(int(i == j)) for j in range(g.dim)] for i in range(g.dim)]
    return _stacked_kernel(g.dim, (g.ad(e) for e in unit))


# Quotients.

def solved_project(q, sub, v):
    """Section coordinates of the coset of v, solved from [section | sub] x = v."""
    sol = solve(q.section.hstack(sub.basis), v)
    if sol is None:
        raise ValidationError("vector outside the ambient subspace")
    return tuple(sol[: q.dim])


def greedy_section(ambient, sub):
    """The ambient basis columns, in index order, that each raise the rank of
    sub's basis and the columns kept so far (ranks by Bareiss elimination)."""
    kept = [sub.basis.col(j) for j in range(sub.dim)]
    chosen = []
    for j in range(ambient.dim):
        col = ambient.basis.col(j)
        if _column_rank(kept + [col]) > len(kept):
            kept.append(col)
            chosen.append(col)
    return chosen


class ThreeBlockQuotient(NamedTuple):
    section: Matrix  # n x (dim ambient - dim sub)
    elimination: Matrix  # n x n
    projector: Matrix  # the section rows of elimination


def three_block_quotient(ambient, sub):
    """The quotient as `exactla.quotient` computed it before it eliminated in
    ambient's pivot coordinates: one dense elimination of [sub | ambient | I]
    on its first two blocks. The pivots in the ambient block are the greedy
    section, and the identity block becomes an invertible n x n E with
    E [sub | section] = [I; 0], whose rows below dim ambient vanish exactly
    on ambient."""
    n, width = ambient.ambient_dim, sub.dim + ambient.dim
    rows = [sub.basis.row(i) + ambient.basis.row(i) + tuple(int(i == j) for j in range(n)) for i in range(n)]
    red, pivots = dense_rows_rref(rows, width + n, stop=width)
    if len(pivots) != ambient.dim:
        raise ValidationError("quotient requires sub to be contained in ambient")
    section = ambient.basis._col_block([p - sub.dim for p in pivots[sub.dim :]])
    elimination = Matrix([row[width:] for row in red])
    return ThreeBlockQuotient(section, elimination, elimination._row_block(range(sub.dim, ambient.dim)))


def _column_rank(columns):
    d = lcm(*(x.denominator for col in columns for x in col))
    return bareiss_rank([[x.numerator * (d // x.denominator) for x in col] for col in columns])


def check_greedy_quotient(q, rows):
    """The conditions that make q the quotient of its ambient by the span of
    rows (a Matrix) with the greedy section, in plain Fraction arithmetic on
    nonzeros, with no elimination but the Bareiss rank. Returns the names of
    those that fail, so [] accepts.

    With m = dim ambient, P its pivot columns and c_1 < c_2 < ... the
    section indices: the projector must be the identity on the section and
    kill the rows, and dim q = m - rank(rows), so its kernel on ambient is
    exactly their span. A skipped ambient row j must project onto the
    section rows before it, so e_j lies in span(rows, e_0 ... e_(j-1)) at P,
    while the chosen rows are independent modulo the span: the greedy
    choice."""
    def nonzeros(row):
        return {j: x for j, x in enumerate(row) if x}

    arows = [nonzeros(row) for row in q.ambient.echelon.entries]
    at = [min(row) for row in arows]
    index = {c: i for i, c in enumerate(at)}
    section = [nonzeros(col) for col in q.section.columns()]
    chosen = [index.get(min(col, default=None)) for col in section]
    by_col = {}
    for k, row in enumerate(q.projector.entries):
        for j, x in nonzeros(row).items():
            by_col.setdefault(j, {})[k] = x

    def project(v):
        out = {}
        for j, x in v.items():
            for k, y in by_col.get(j, {}).items():
                out[k] = out.get(k, 0) + x * y
        return {k: y for k, y in out.items() if y}

    failed = []
    if None in chosen or chosen != sorted(set(chosen)) or any(arows[i] != col for i, col in zip(chosen, section)):
        failed.append("section is ambient rows at increasing indices")
        chosen = []
    if [project(col) for col in section] != [{k: 1} for k in range(len(section))]:
        failed.append("projector . section = I")
    if any(project(nonzeros(row)) for row in rows.entries):
        failed.append("projector kills the rows")
    skipped = sorted(set(range(len(at))) - set(chosen))
    if any(k >= len(chosen) or chosen[k] > j for j in skipped for k in by_col.get(at[j], {})):
        failed.append("skipped rows project onto earlier section rows")
    if q.dim != len(at) - _column_rank(rows.entries):
        failed.append("dim = m - rank")
    return failed


# The linear layer one vector or one entry at a time.

def flat(omega, u):
    """The contraction u -> omega(u, .) as a k x n matrix (rows u^T W_c).
    Components are exactly skew, so u^T W_c is -(W_c u) entry for entry."""
    return Matrix([[-x for x in m.apply(u)] for m in omega.components])


def looped_sum(a, b):
    return Subspace.from_vectors(a.ambient_dim, a.basis.columns() + b.basis.columns())


def looped_intersect(a, b):
    """A meet B from the kernel of [A | -B], one A-combination per kernel vector."""
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    combos = kernel(a.basis.hstack(b.basis.scale(-1)))
    return Subspace.from_vectors(a.ambient_dim, [a.basis.apply(v[: a.dim]) for v in combos.basis.columns()])


# The subspace lattice on canonical column bases: each returns the n x d
# basis (reduced column echelon) that the routine returned before subspaces
# were kept as their echelon rows.

def fraction_column_basis(n, vectors):
    """The canonical column basis of the span of vectors, by `fraction_rref`:
    the transpose of the nonzero RREF rows."""
    rows, pivots = fraction_rref([tuple(Fraction(x) for x in v) for v in vectors], n)
    return Matrix([[rows[r][i] for r in range(len(pivots))] for i in range(n)]) if n else Matrix.zeros(0, len(pivots))


def _column_span(m):
    """The canonical column basis of the row span of m."""
    red, pivots = rref(m)
    return red._row_block(range(len(pivots))).transpose()


def column_sum(a, b):
    return _column_span(a.basis.hstack(b.basis).transpose())


def column_intersect(a, b):
    """A x for the x of each kernel vector (x, y) of [A | B], re-spanned."""
    if a.dim == 0 or b.dim == 0:
        return Matrix.zeros(a.ambient_dim, 0)
    combos = kernel(a.basis.hstack(b.basis)).basis
    return _column_span((a.basis @ combos._row_block(range(a.dim))).transpose())


def column_contains(a, b):
    return rank(a.basis.hstack(b.basis)) == a.dim


def column_orthogonal(omega, a):
    """The joint kernel of the blocks of A^T [W_1 | ... | W_k], one product
    split into its k blocks."""
    n = omega.dim_u
    if a.dim == 0:
        return Matrix.identity(n)
    wide = omega.components[0]
    for m in omega.components[1:]:
        wide = wide.hstack(m)
    product = a.basis.transpose() @ wide
    stacked = product._col_block(range(n))
    for c in range(1, omega.dim_v):
        stacked = stacked.vstack(product._col_block(range(c * n, (c + 1) * n)))
    return kernel(stacked).basis


def drawn_skew(rng, n):
    """m - m^T for an n x n `randgen.rand_matrix` draw m."""
    from polysym.randgen import rand_matrix

    rows = rand_matrix(rng, n, n).entries
    return Matrix(fraction_add(rows, fraction_scale(fraction_transpose(rows, n), -1)))


def entrywise_coefficient_components(f, omega):
    """Components of f composed with omega: entry (r, s) of the i-th is
    sum_j F[i, j] W_j[r, s], summed one entry at a time."""
    n, k = omega.dim_u, omega.dim_v
    return tuple(
        Matrix([
            [sum((f[i, j] * omega.components[j][r, s] for j in range(k)), Fraction(0)) for s in range(n)]
            for r in range(n)
        ])
        for i in range(f.rows)
    )


def row_loop_embedding(omega):
    """Matrix of u -> u - (1/2) iota_u omega, row by row: the identity, then
    for each component W and each j the row -(1/2) W[., j]."""
    n = omega.dim_u
    rows = [[Fraction(int(m == j)) for m in range(n)] for j in range(n)]
    for w in omega.components:
        for j in range(n):
            rows.append([-Fraction(1, 2) * w[m, j] for m in range(n)])
    return Matrix(rows)


def ad_row_components(g):
    """components[k][i, j] = c^k_ij as row k of ad(e_i), for each i."""
    ads = [g.ad([int(t == i) for t in range(g.dim)]) for i in range(g.dim)]
    return tuple(Matrix([a.row(k) for a in ads]) for k in range(g.dim))


def render_document(doc):
    """The JSON text of a problem document: its kind, its payload and its
    seed, in that order; docio.parse_document reads it back to the same
    document."""
    out = {"kind": doc.kind}
    out.update(doc.payload)
    if doc.seed is not None:
        out["seed"] = doc.seed
    return json.dumps(out, indent=2, sort_keys=False) + "\n"
