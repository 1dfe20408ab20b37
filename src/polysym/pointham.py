"""Pointwise numeric Hamiltonian formalism on coordinate patches.

A patch carries a stacked potential theta: (P, n) points to (P, k, n)
values. The structure form at a point is the negative exterior derivative of
theta, evaluated by central differences and exactly skew by construction. On
top of that sit Hamiltonian vector-field solves (least squares over the
stacked component system), the bracket, moment maps of potential-preserving
actions, and the section embedding into the canonical target.

All derivatives, directional ones included, are central differences
on the stencil x +- h e_a with the fixed step h = DEFAULT_FD_STEP.
Each routine differentiates theta once per point, in one call on the whole
stencil; Hamiltonians and generators take one point per call, the rotation
generator in closed form. All sampling is low-discrepancy with an explicit seed.

The per-point numpy setup is paid once: stencils add cached read-only
offsets, a one-row rotation potential combines k and k^2 with two floats,
solve norms are sqrt(v.v), and pullbacks are the two products j^T (W j).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ContractViolation, ValidationError
from .polycore import VForm, canonical_dim, canonical_model

DEFAULT_FD_STEP = 1e-5


def vform_to_numpy(form: VForm) -> np.ndarray:
    """Float array of shape (k, n, n) from an exact form."""
    return np.array(
        [[[float(m[i, j]) for j in range(form.dim_u)] for i in range(form.dim_u)] for m in form.components]
    )


def halton_points(dim: int, count: int, seed: int = 0, scale: float = 1.0) -> np.ndarray:
    """Deterministic low-discrepancy points in [-scale, scale]^dim.

    Scrambled Halton (Owen 2017, arXiv:1706.02808): coordinate i permutes the
    digits of the radical inverse in the i-th prime base, with one permutation
    per digit position whose weight exceeds 2^-54. Drawing and summing follow
    scipy.stats.qmc.Halton(d=dim, scramble=True, seed=seed) in order, so the
    points are bit-identical to it.
    """
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if count < 0:
        raise ValidationError(f"point count must be non-negative, got {count}")
    rng = np.random.default_rng(seed)
    primes = (n for n in itertools.count(2) if all(n % p for p in range(2, math.isqrt(n) + 1)))
    unit = np.empty((count, dim))
    for i, base in enumerate(itertools.islice(primes, dim)):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q, v, weight = np.arange(count), np.zeros(count), 1.0 / base
        for perm in perms:
            v += perm[q % base] * weight
            q //= base
            weight /= base
        unit[:, i] = v
    return scale * (2.0 * unit - 1.0)


class ExactPatch:
    """A coordinate patch with an exact structure form -d(theta).

    theta maps a (P, dim_m) stack of points to the (P, dim_v, dim_m) stack of
    its values, row for row: row i of the result must not depend on the other
    rows, so that a derivative can evaluate its whole stencil in one call and
    a stack gives the same floats as its rows one at a time. sample_scale
    bounds the cube used by the verification samplers; keep it inside the
    domain where theta is defined. base_shape is (n, k) for canonical patches.
    """

    __slots__ = ("dim_m", "dim_v", "theta", "name", "sample_scale", "base_shape")

    def __init__(
        self,
        dim_m: int,
        dim_v: int,
        theta: Callable[[np.ndarray], np.ndarray],
        name: str = "",
        sample_scale: float = 1.0,
        base_shape: Optional[tuple] = None,
    ):
        self.dim_m = dim_m
        self.dim_v = dim_v
        self.theta = theta
        self.name = name
        self.sample_scale = sample_scale
        self.base_shape = base_shape

    def thetas(self, xs: np.ndarray, at: Optional[np.ndarray] = None) -> np.ndarray:
        """theta on a (P, dim_m) stack, its shape and finiteness checked once.
        An error names the point `at` the stack was built around (default:
        the stack itself)."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim_m:
            raise ValidationError(f"theta takes a (P, {self.dim_m}) stack of points, got shape {xs.shape}")
        try:
            out = np.asarray(self.theta(xs), dtype=float)
        except (ArithmeticError, ValueError) as exc:
            raise ValidationError(f"theta is undefined at {xs if at is None else at}: {exc}") from exc
        if out.shape != (len(xs), self.dim_v, self.dim_m):
            raise ValidationError(
                f"theta returned shape {out.shape}, expected {(len(xs), self.dim_v, self.dim_m)}"
            )
        if np.count_nonzero(np.isfinite(out)) != out.size:
            raise ValidationError("theta returned non-finite values")
        return out

    def theta_at(self, x: np.ndarray) -> np.ndarray:
        """theta at one point, the one-row stack: shape (dim_v, dim_m)."""
        x = np.asarray(x, dtype=float)
        return self.thetas(x[None], x)[0]


@functools.lru_cache(maxsize=32)
def _offsets(dim: int) -> np.ndarray:
    """The read-only rows h e_a for every axis a, then -h e_a; h = DEFAULT_FD_STEP."""
    e = DEFAULT_FD_STEP * np.eye(dim)
    out = np.concatenate([e, -e])
    out.flags.writeable = False
    return out


def _stencil(x: np.ndarray) -> np.ndarray:
    """x + h e_a in row a for every axis a of x, then x - h e_a in row
    x.size + a; h = DEFAULT_FD_STEP. Adding -h e_a is the same IEEE
    operation as subtracting h e_a."""
    x = np.asarray(x, dtype=float)
    return x + _offsets(x.size)


def _difference(values: np.ndarray) -> np.ndarray:
    """Central differences (values[i] - values[m + i]) / 2h from the 2m
    values of a stencil."""
    m = len(values) // 2
    return (values[:m] - values[m:]) / (2.0 * DEFAULT_FD_STEP)


def _partials(f: Callable, x: np.ndarray) -> np.ndarray:
    """out[a] = (f(x + h e_a) - f(x - h e_a)) / 2h for every axis a of x,
    with f called once per point. Callers that want the axis last take
    `.T.copy()`, so the einsum or lstsq that follows reads a C-ordered array
    and sums in a fixed order."""
    return _difference(np.array([f(p) for p in _stencil(x)], dtype=float))


def _theta_partials(patch: ExactPatch, x: np.ndarray) -> np.ndarray:
    """d[a, c, b] = d theta_cb / d x_a at x, from one theta call on the stencil."""
    x = np.asarray(x, dtype=float)
    return _difference(patch.thetas(_stencil(x), x))


def _structure_form(d: np.ndarray) -> np.ndarray:
    """-d(theta) from d[a, c, b] = d theta_cb / d x_a, shape (k, n, n), exactly skew."""
    raw = d.transpose(1, 0, 2)  # raw[c, a, b] = d theta_cb / d x_a
    return -(raw - raw.transpose(0, 2, 1))


def omega_at(patch: ExactPatch, x: np.ndarray) -> np.ndarray:
    """Components of -d(theta) at x, shape (k, n, n), exactly skew."""
    return _structure_form(_theta_partials(patch, x))


def canonical_theta(n: int, k: int) -> ExactPatch:
    """The canonical patch on coordinates (q, phi): theta maps (dq, dphi) to phi dq."""
    dim = canonical_dim(n, k, "canonical patch")

    def theta(xs: np.ndarray) -> np.ndarray:
        out = np.zeros((len(xs), k, dim))
        out[:, :, :n] = xs[:, n:].reshape(-1, k, n)
        return out

    return ExactPatch(
        dim_m=dim, dim_v=k, theta=theta, name=f"canonical:{n},{k}", base_shape=(n, k),
    )


# hat(x) ravelled is x @ _HAT_BASIS: each entry is one coordinate times +-1
# or zero, so the product is exact.
_HAT_BASIS = np.array(
    [[0, 0, 0, 0, 0, -1, 0, 1, 0], [0, 0, 1, 0, 0, 0, -1, 0, 0], [0, -1, 0, 1, 0, 0, 0, 0, 0]], dtype=float
)
_EYE3 = np.eye(3)


def _so3_ab(t: float) -> tuple:
    """The potential's coefficients a = (1 - cos t) / t^2 and b = (t - sin t) / t^3,
    with a as 2 (sin(t/2) / t)^2, which does not cancel near t = 0."""
    s = math.sin(0.5 * t) / t
    return 2.0 * s * s, (t - math.sin(t)) / t**3


def _so3_dexp_inv(xs: np.ndarray) -> np.ndarray:
    """Left-trivialized differential of the exponential chart at each row x
    of a (P, 3) stack: I - a k + b k^2 with k = hat(x), t = |x| and a, b from
    _so3_ab, or the series I - k / 2 + k^2 / 6 where t < 1e-8.

    Each row equals the one-point formula to the bit: t is sqrt of vecdot
    (norm(axis=1) rounds differently), and a and b are float arithmetic row
    by row, since a stack is one point or one stencil and at those heights
    eight numpy calls cost more than the loop. One row outside the series,
    the common theta_at, scales k and k^2 by the two floats directly.
    """
    p = len(xs)
    k = xs.dot(_HAT_BASIS).reshape(p, 3, 3)
    kk = k @ k
    ts = np.sqrt(np.vecdot(xs, xs)).tolist()
    if p == 1 and ts[0] >= 1e-8:
        a, b = _so3_ab(ts[0])
        return _EYE3 - a * k + b * kk
    ab = np.array([_so3_ab(t) if t >= 1e-8 else (0.0, 0.0) for t in ts]).reshape(p, 2, 1, 1)
    out = _EYE3 - ab[:, 0] * k + ab[:, 1] * kk
    small = [i for i, t in enumerate(ts) if t < 1e-8]
    if small:
        out[small] = _EYE3 - 0.5 * k[small] + kk[small] / 6.0
    return out


def so3_patch() -> ExactPatch:
    """Rotation group in exponential coordinates with its translation form.

    theta_x translates tangent vectors back to the identity, so the patch
    realizes the group with its algebra-valued structure form near 1.
    """
    return ExactPatch(dim_m=3, dim_v=3, theta=_so3_dexp_inv, name="so3", sample_scale=0.5)


def so3_left_generator(xi: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Induced field of left translation by exp(s xi) in exponential coordinates, J_l(x)^-1 xi =
    theta_x^-1 Ad_{exp(x)^-1} xi = xi - k xi / 2 + c k (k xi) with k xi = x cross xi, t = |x| and c =
    1 / t^2 - cos(t/2) / (2 t sin(t/2)), or 1/12 where t < 1e-8 (Chirikjian 2012; arXiv:1812.01537)."""
    e0, e1, e2 = np.asarray(xi, dtype=float).tolist()

    def gen(x: np.ndarray) -> np.ndarray:
        x0, x1, x2 = np.asarray(x, dtype=float).tolist()
        k0, k1, k2 = x1 * e2 - x2 * e1, x2 * e0 - x0 * e2, x0 * e1 - x1 * e0
        kk0, kk1, kk2 = x1 * k2 - x2 * k1, x2 * k0 - x0 * k2, x0 * k1 - x1 * k0
        t = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
        c = 1.0 / (t * t) - math.cos(0.5 * t) / (2.0 * t * math.sin(0.5 * t)) if t >= 1e-8 else 1.0 / 12.0
        return np.array([e0 - 0.5 * k0 + c * kk0, e1 - 0.5 * k1 + c * kk1, e2 - 0.5 * k2 + c * kk2])

    return gen


def lifted_generator(
    n: int, k: int, v: Callable[[np.ndarray], np.ndarray], dv: Callable[[np.ndarray], np.ndarray]
) -> Callable[[np.ndarray], np.ndarray]:
    """Generator on the canonical patch induced by a base vector field v with
    Jacobian dv: (q, phi) moves by (v(q), -phi dv(q))."""

    def gen(x: np.ndarray) -> np.ndarray:
        q = x[:n]
        phi = x[n:].reshape(k, n)
        return np.concatenate([np.asarray(v(q), dtype=float), (-(phi @ np.asarray(dv(q), dtype=float))).ravel()])

    return gen


def translation_generator(n: int, k: int, direction: int) -> Callable[[np.ndarray], np.ndarray]:
    e = np.zeros(n)
    e[direction] = 1.0
    zero = np.zeros((n, n))
    return lifted_generator(n, k, lambda q: e, lambda q: zero)


def gradient(patch: ExactPatch, f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """df at x as a (k, n) array of partial derivatives, central differences."""
    return _partials(f, x).reshape(patch.dim_m, patch.dim_v).T.copy()


class HamiltonianSolve(NamedTuple):
    """Least-squares solve of the contraction equation at one point.

    X is the minimal-norm solution of the stacked system; the input counts as
    Hamiltonian at the point iff the residual clears the relative threshold.
    A rank below the patch dimension flags a degenerate structure form.
    """

    X: np.ndarray
    residual: float
    threshold: float
    rank: int
    degenerate: bool

    @property
    def is_hamiltonian(self) -> bool:
        return self.residual <= self.threshold


def hamiltonian_field(
    patch: ExactPatch,
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    tolerance_scale: float = 1.0,
) -> HamiltonianSolve:
    """Solve the defining equation of the structure gradient of f at x.

    With the sign conventions of this package (form = -d theta, equation
    -iota_X omega = df) the stacked linear system reads omega_c X = grad f_c
    for every component c.
    """
    x = np.asarray(x, dtype=float)
    return _solve_field(patch, omega_at(patch, x), f, x, tolerance_scale)


def _solve_field(
    patch: ExactPatch, omega: np.ndarray, f: Callable, x: np.ndarray, tolerance_scale: float
) -> HamiltonianSolve:
    """Least-squares solve of omega_c X = grad f_c against the form omega at x."""
    df = gradient(patch, f, x)
    a = omega.reshape(patch.dim_v * patch.dim_m, patch.dim_m)
    b = df.reshape(-1)
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    r = a @ sol - b
    residual = math.sqrt(r.dot(r))  # np.linalg.norm of a 1-D float array, without its wrapper
    threshold = 1e-6 * tolerance_scale * (1.0 + math.sqrt(b.dot(b)))
    return HamiltonianSolve(
        X=sol,
        residual=residual,
        threshold=threshold,
        rank=int(rank),
        degenerate=int(rank) < patch.dim_m,
    )


def poisson_bracket(
    patch: ExactPatch,
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    tolerance_scale: float = 1.0,
) -> np.ndarray:
    """{f, g}(x) = -omega_x(X_f, X_g); both inputs must pass the residual test."""
    x = np.asarray(x, dtype=float)
    omega = omega_at(patch, x)
    sf = _solve_field(patch, omega, f, x, tolerance_scale)
    sg = _solve_field(patch, omega, g, x, tolerance_scale)
    if not sf.is_hamiltonian or not sg.is_hamiltonian:
        raise ContractViolation(
            "bracket arguments must be Hamiltonian at the point "
            f"(residuals {sf.residual:.3e}, {sg.residual:.3e})"
        )
    return -np.einsum("i,cij,j->c", sf.X, omega, sg.X)


def _lie_derivative(
    generators: Sequence[Callable], x: np.ndarray, theta: np.ndarray, d_theta: np.ndarray
) -> np.ndarray:
    """(L_X theta)_cb = X_a d_a theta_cb + theta_ca d_b X_a for each generator
    X, stacked (g, k, n), from theta's value theta[c, a] and derivative
    d_theta[a, c, b] at x."""
    out = []
    for gen in generators:
        xv = np.asarray(gen(x), dtype=float)
        dx = _partials(gen, x)  # dx[b, a] = d X_a / d x_b
        out.append(np.einsum("a,acb->cb", xv, d_theta) + np.einsum("ca,ba->cb", theta, dx))
    return np.stack(out)


class MomentMap(NamedTuple):
    """Moment map of a potential-preserving action, column per generator.

    Construction verifies that the sampled action preserves the potential and
    records the measured defect of the directional-derivative identity
    d mu(X)(xi) = omega(xi_induced, X) over the same samples.
    """

    patch: ExactPatch
    generators: tuple
    preservation_defect: float
    identity_defect: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _moment(self.patch, self.generators, np.asarray(x, dtype=float))


def _moment(patch: ExactPatch, generators: Sequence[Callable], x: np.ndarray) -> np.ndarray:
    """The potential at x contracted with each generator, one column each."""
    theta = patch.theta_at(x)
    return np.stack([theta @ np.asarray(gen(x), dtype=float) for gen in generators], axis=1)


def moment_identity_defect(
    patch: ExactPatch,
    generators: Sequence[Callable],
    points: np.ndarray,
    directions: np.ndarray,
) -> float:
    """Max over samples of |d mu(X)(xi) - omega(xi_induced, X)|.

    mu here is the potential contracted with each generator; the derivative
    along X is the partial of s -> mu(x + s X) at s = 0.
    """
    return _identity_defect(patch, generators, points, directions, lambda i: omega_at(patch, points[i]))


def _identity_defect(patch: ExactPatch, generators: Sequence[Callable], points, directions, omega_of: Callable) -> float:
    """moment_identity_defect with the structure form at the i-th point
    read from omega_of(i)."""
    worst = 0.0
    for i, (x, direction) in enumerate(zip(points, directions)):
        x = np.asarray(x, dtype=float)
        nrm = np.linalg.norm(direction)
        if nrm == 0:
            continue
        xdir = direction / nrm
        dmu = _partials(lambda s: _moment(patch, generators, x + s[0] * xdir), np.zeros(1))[0]
        omega = omega_of(i)
        for gi, gen in enumerate(generators):
            xi_ind = np.asarray(gen(x), dtype=float)
            rhs = np.einsum("i,cij,j->c", xi_ind, omega, xdir)
            worst = max(worst, float(np.max(np.abs(dmu[:, gi] - rhs))))
    return worst


def moment_from_potential(
    patch: ExactPatch,
    generators: Sequence[Callable],
    sample_count: int = 20,
    seed: int = 0,
    tolerance_scale: float = 1.0,
) -> MomentMap:
    """Moment map x -> theta_x(generator values), for theta-preserving actions.

    Raises ValidationError without a sample and ContractViolation when the
    sampled Lie derivative of the potential exceeds the preservation tolerance.
    Theta is evaluated once per sample on its stencil with the sample appended,
    which gives both its value and its derivative; the Lie derivative and the
    identity's structure form share the derivative.
    """
    if sample_count < 1:
        raise ValidationError("need at least one sample")
    gens = tuple(generators)
    points = halton_points(patch.dim_m, sample_count, seed=seed, scale=patch.sample_scale)
    d_thetas = []
    preserve = 0.0
    for x in points:
        thetas = patch.thetas(np.concatenate([_stencil(x), x[None]]), x)
        d_thetas.append(_difference(thetas[:-1]))
        preserve = max(preserve, float(np.max(np.abs(_lie_derivative(gens, x, thetas[-1], d_thetas[-1])))))
    if preserve > 1e-5 * tolerance_scale:
        raise ContractViolation(
            f"action does not preserve the potential (defect {preserve:.3e})"
        )
    directions = halton_points(patch.dim_m, sample_count, seed=seed + 1, scale=1.0)
    defect = _identity_defect(patch, gens, points, directions, lambda i: _structure_form(d_thetas[i]))
    return MomentMap(
        patch=patch, generators=gens, preservation_defect=preserve, identity_defect=defect
    )


def _pullback(j: np.ndarray, w: np.ndarray) -> np.ndarray:
    """j^T w_c j for each component w_c of the (k, N, N) stack w and the
    (N, n) Jacobian j: shape (k, n, n), two matrix products."""
    return j.T @ (w @ j)


class SectionEmbedding(NamedTuple):
    """The graph x -> (x, theta_x) into the canonical patch over the patch itself."""

    patch: ExactPatch
    target: ExactPatch
    target_omega: np.ndarray  # the canonical model as floats, (k, n + nk, n + nk)

    def map(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.concatenate([x, self.patch.theta_at(x).ravel()])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Central differences of map, from one theta call on the stencil."""
        x = np.asarray(x, dtype=float)
        pts = _stencil(x)
        maps = np.concatenate([pts, self.patch.thetas(pts, x).reshape(len(pts), -1)], axis=1)
        return _difference(maps).T.copy()

    def pullback_defect(self, x: np.ndarray) -> float:
        """Max entrywise gap between the pulled-back target form and the patch
        form, which is read off the theta rows of the same Jacobian."""
        j = self.jacobian(x)
        pulled = _pullback(j, self.target_omega)
        n = self.patch.dim_m
        omega = _structure_form(j[n:].T.reshape(n, self.patch.dim_v, n))
        return float(np.max(np.abs(pulled - omega)))


def local_embed(patch: ExactPatch) -> SectionEmbedding:
    """Section embedding of the patch into its canonical target; the section
    is global on the patch domain."""
    target = canonical_theta(patch.dim_m, patch.dim_v)
    target_omega = vform_to_numpy(canonical_model(patch.dim_m, patch.dim_v))
    return SectionEmbedding(patch=patch, target=target, target_omega=target_omega)

