"""Named verification suites.

Each suite drives one family of identities on randomized or built-in
instances and adds its checks to a structured result; the CLI renders them,
and the acceptance gate runs each at its declared trials. Exact suites assert
set equalities over the rationals; numeric suites compare against the stated
tolerances, scaled by the caller's tolerance factor.

A suite is declared once, by `@_suite(name, default trials, identity)`, which
registers it in SUITES (and, with `numeric=True`, in NUMERIC_SUITES).
`run_suite` alone builds the result and the RNG seeded with the run's seed,
and hands both to the suite. Each suite imports what lies beyond the exact
core when it runs: the random draws (`randgen`), the cochain layer
(`discgauge`), and, in the numeric suites only, numpy with the numeric layers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import lietable as lt
from .errors import ContractViolation, ValidationError
from .exactla import Subspace, contains, intersect, kernel, sum_
from .polycore import (
    canonical_model,
    classify,
    linear_reduce,
    orthogonal,
    pullback,
    reduction_candidate,
    universal_embed,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class SuiteResult:
    """The checks of one suite run, appended as the suite makes them."""

    def __init__(self, identity: str, seed: int, trials: int):
        self.identity = identity
        self.seed = seed
        self.trials = trials
        self.checks = []

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(name=name, passed=bool(passed), detail=detail))


class Suite(NamedTuple):
    """A declared suite: `run(res, rng, tol_scale)` adds its checks to `res`,
    which carries the run's seed and trial count."""

    run: Callable
    trials: int
    identity: str
    numeric: bool


SUITES: dict = {}


def _suite(name: str, trials: int, identity: str, numeric: bool = False):
    """Register the decorated function as the suite `name`, run at `trials`
    trials unless the caller says otherwise; `numeric` marks a suite that
    computes in floats (the rest are exact and load no numpy)."""

    def register(run):
        SUITES[name] = Suite(run, trials, identity, numeric)
        return run

    return register


@_suite(
    "cross-table", 50,
    "cross-product orthogonals: zero space to all, lines fixed, planes to zero",
)
def _(res: SuiteResult, rng: random.Random, tol_scale: float):
    from . import randgen as rg

    cross = lt.bracket_form(lt.so3())
    res.add("zero maps to full", orthogonal(cross, Subspace.zero(3)) == Subspace.full(3))
    res.add("full maps to zero", orthogonal(cross, Subspace.full(3)).is_zero())
    lines = planes = True
    for _ in range(res.trials):
        line = rg.rand_line(rng, 3)
        lines &= orthogonal(cross, line) == line
        plane = rg.rand_plane(rng, 3)
        planes &= orthogonal(cross, plane).is_zero()
    res.add(f"{res.trials} random lines are self-orthogonal", lines)
    res.add(f"{res.trials} random planes map to zero", planes)


@_suite(
    "lemma-subspaces", 100,
    "orthogonal calculus: extremes, inclusion reversal, double orthogonal, sums and intersections",
)
def _(res: SuiteResult, rng: random.Random, tol_scale: float):
    from . import randgen as rg

    ok = {key: True for key in ("i", "ii", "iii", "iv", "v", "vi")}
    for _ in range(res.trials):
        n, k = rg.rand_dims(rng, max_n=8, max_k=4)
        form = rg.rand_vform(rng, n, k)
        a = rg.rand_subspace(rng, n)
        b = sum_(a, rg.rand_subspace(rng, n))
        a1, a2 = rg.rand_subspace(rng, n), rg.rand_subspace(rng, n)

        o1, oa1, oa2 = orthogonal(form, a), orthogonal(form, a1), orthogonal(form, a2)

        ok["i"] &= orthogonal(form, Subspace.full(n)).is_zero()
        ok["i"] &= orthogonal(form, Subspace.zero(n)) == Subspace.full(n)
        ok["ii"] &= contains(o1, orthogonal(form, b))
        o2 = orthogonal(form, o1)
        o3 = orthogonal(form, o2)
        ok["iii"] &= contains(o2, a)
        ok["iv"] &= o1 == o3
        ok["v"] &= intersect(oa1, oa2) == orthogonal(form, sum_(a1, a2))
        ok["vi"] &= contains(orthogonal(form, intersect(a1, a2)), sum_(oa1, oa2))
    res.add("part i: extremes swap", ok["i"])
    res.add("part ii: inclusions reverse", ok["ii"])
    res.add("part iii: double orthogonal grows", ok["iii"])
    res.add("part iv: triple orthogonal stabilizes", ok["iv"])
    res.add("part v: orthogonal of a sum is the intersection", ok["v"])
    res.add("part vi: sum of orthogonals refines the intersection", ok["vi"])


@_suite(
    "reduction-kernel", 100,
    "reduced-form kernel matches the quotient image of the double orthogonal",
)
def _(res: SuiteResult, rng: random.Random, tol_scale: float):
    from . import randgen as rg

    kernel_ok = nondeg_ok = values_ok = True
    for _ in range(res.trials):
        n, k = rg.rand_dims(rng, max_n=6, max_k=4)
        form = rg.rand_vform(rng, n, k)
        a = rg.rand_subspace(rng, n)
        red = linear_reduce(form, a)
        cols = red.carrier.section.columns()
        values_ok &= all(
            red.reduced_form.components[c][i, j] == value
            for i, u in enumerate(cols) for j, v in enumerate(cols) for c, value in enumerate(form.evaluate(u, v))
        )
        orth = orthogonal(form, a)
        double = orthogonal(form, orth)
        witness = intersect(double, orth)
        core = intersect(a, orth)
        image = Subspace.from_vectors(
            red.carrier.dim,
            [red.carrier.project(witness.echelon.row(i)) for i in range(witness.dim)],
        )
        kernel_ok &= image == red.kernel
        nondeg_ok &= red.nondegenerate == (witness == core)
    res.add(f"kernel formula on {res.trials} random instances", kernel_ok)
    res.add("nondegeneracy criterion matches", nondeg_ok)
    res.add("reduced form is the form on the section columns", values_ok)


@_suite(
    "canonical-reduction", 50,
    "reducing the universal model by a base subspace reproduces the smaller model",
)
def _(res: SuiteResult, rng: random.Random, tol_scale: float):
    from . import randgen as rg

    dims_ok = nondeg_ok = True
    for _ in range(res.trials):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        model = canonical_model(n, k)
        base = rg.rand_subspace(rng, n)
        lifted = Subspace.from_vectors(
            n + n * k,
            [
                base.echelon.row(i) + (Fraction(0),) * (n * k)
                for i in range(base.dim)
            ],
        )
        red = linear_reduce(model, lifted)
        dims_ok &= red.carrier.dim == (n - base.dim) * (1 + k)
        nondeg_ok &= red.nondegenerate
    res.add(f"carrier dimension (n - dim A)(1 + k) on {res.trials} instances", dims_ok)
    res.add("reduced form always nondegenerate", nondeg_ok)


@_suite(
    "embedding", 50,
    "graph embedding into the universal model pulls the canonical form back exactly",
)
def _(res: SuiteResult, rng: random.Random, tol_scale: float):
    from . import randgen as rg

    ok = True
    for _ in range(res.trials):
        n, k = rg.rand_dims(rng, max_n=6, max_k=3)
        form = rg.rand_vform(rng, n, k)
        emb = universal_embed(form)
        pulled = pullback(canonical_model(n, k), emb)
        ok &= list(pulled.components) == list(form.components)
    res.add(f"exact pullback identity on {res.trials} random forms", ok)


@_suite(
    "irreducibility", 50,
    "every proper coefficient surjection degenerates the universal model, with the constant-direction witness",
)
def _(res: SuiteResult, rng: random.Random, tol_scale: float):
    from . import randgen as rg

    reject_ok = witness_ok = True
    for _ in range(res.trials):
        k = rng.randint(2, 4)
        n = rng.randint(1, 3)
        model = canonical_model(n, k)
        kp = rng.randint(1, k - 1)
        f = rg.rand_surjection(rng, kp, k)
        _, degeneracy = reduction_candidate(model, f)
        reject_ok &= not degeneracy.is_zero()
        v = kernel(f).echelon.row(0)
        witness = [Fraction(0)] * (n + n * k)
        for i in range(k):
            witness[n + i * n] = v[i]
        witness_ok &= degeneracy.contains_vector(witness)
    res.add(f"{res.trials} proper surjections rejected", reject_ok)
    res.add("kernel contains the constant-direction witness", witness_ok)


@_suite(
    "lie-reductions", 50,
    "rotation algebra reduces to a point by any line; the diagonal subalgebra is self-orthogonal; centralizers are orthogonals",
)
def _(res: SuiteResult, rng: random.Random, tol_scale: float):
    from . import randgen as rg

    g3, g2 = lt.so3(), lt.sl2()
    point_ok = True
    for _ in range(res.trials):
        line = rg.rand_line(rng, 3)
        point_ok &= lt.lie_reduce(g3, line).carrier.dim == 0
    res.add(f"{res.trials} lines reduce the rotation algebra to a point", point_ok)
    cartan = Subspace.from_vectors(3, [(1, 0, 0)])
    flags = classify(lt.bracket_form(g2), cartan)
    res.add("diagonal subalgebra classifies self-orthogonal", flags.lagrangian)
    cent_ok = True
    for g in (g3, g2):
        form = lt.bracket_form(g)
        for _ in range(res.trials):
            a = rg.rand_subspace(rng, 3)
            cent_ok &= orthogonal(form, a) == lt.centralizer(g, a)
    res.add(f"centralizer equals bracket orthogonal on {2 * res.trials} subspaces", cent_ok)


@_suite(
    "moment-identity", 100,
    "directional derivative of the moment map pairs as the structure form on induced fields",
    numeric=True,
)
def _(res: SuiteResult, rng: random.Random, tol_scale: float):
    import numpy as np

    from . import pointham as ph

    tol = 1e-5 * tol_scale
    per_patch = max(1, -(-res.trials // 9))
    worst_canon = 0.0
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            patch = ph.canonical_theta(n, k)
            gens = [ph.translation_generator(n, k, i) for i in range(n)]
            if n == 2:
                rot = np.array([[0.0, -1.0], [1.0, 0.0]])
                gens.append(ph.lifted_generator(n, k, lambda q: rot @ q, lambda q: rot))
            pts = ph.halton_points(patch.dim_m, per_patch, seed=res.seed + 10 * n + k, scale=1.0)
            dirs = ph.halton_points(patch.dim_m, per_patch, seed=res.seed + 100 + 10 * n + k, scale=1.0)
            worst_canon = max(worst_canon, ph.moment_identity_defect(patch, gens, pts, dirs))
    res.add(
        f"canonical patches, {9 * per_patch} samples",
        worst_canon <= tol,
        f"defect {worst_canon:.3e} <= {tol:.1e}",
    )
    patch = ph.so3_patch()
    gens = [ph.so3_left_generator(np.eye(3)[i]) for i in range(3)]
    pts = ph.halton_points(3, res.trials, seed=res.seed + 7, scale=patch.sample_scale)
    dirs = ph.halton_points(3, res.trials, seed=res.seed + 8, scale=1.0)
    worst_so3 = ph.moment_identity_defect(patch, gens, pts, dirs)
    res.add(
        f"rotation-group patch, {res.trials} samples",
        worst_so3 <= tol,
        f"defect {worst_so3:.3e} <= {tol:.1e}",
    )


@_suite(
    "arnold", 1000,
    "a non-identity left translation of the rotation group is fixed-point free",
    numeric=True,
)
def _(res: SuiteResult, rng: random.Random, tol_scale: float):
    import numpy as np

    from . import liealg as la

    xi = np.array([0.0, 0.0, 2.0 * np.pi])
    report = la.arnold_counterexample(xi, 0.5, res.trials, seed=res.seed, tolerance_scale=tol_scale)
    res.add(
        f"{res.trials} samples, half-period translation",
        report.fixed_points_found == 0,
        f"fixed points {report.fixed_points_found}",
    )
    report2 = la.arnold_counterexample(xi, 1e-4, res.trials, seed=res.seed + 1, tolerance_scale=tol_scale)
    res.add(
        "tiny but nonzero translation",
        report2.fixed_points_found == 0,
        f"fixed points {report2.fixed_points_found}",
    )


@_suite(
    "convexity", 1000,
    "the moment image is a sphere: radius is preserved and midpoints fall inside",
    numeric=True,
)
def _(res: SuiteResult, rng: random.Random, tol_scale: float):
    import numpy as np

    from . import liealg as la

    xi = np.array([1.0, 0.0, 0.0])
    report = la.convexity_counterexample(xi, res.trials, seed=res.seed, tolerance_scale=tol_scale)
    res.add(
        f"{res.trials} samples stay on the sphere",
        report.on_sphere,
        f"max radius error {report.max_radius_error:.3e}",
    )
    res.add(
        "an exhibited midpoint is interior",
        report.midpoint_gap >= 1e-6,
        f"midpoint norm {report.midpoint_norm:.3e}, gap {report.midpoint_gap:.3e}",
    )


def _oracle_betti(cx, p: int) -> int:
    """Rank-nullity first Betti oracle by fraction-free integer elimination,
    independent of the package's echelon and cup machinery."""

    def coboundary_rows(q: int) -> list:
        n_from = cx.count(q)
        n_to = cx.count(q + 1)
        rows = [[0] * n_from for _ in range(n_to)]
        if q + 1 in cx.faces:
            for s, frow in enumerate(cx.faces[q + 1]):
                for i, f in enumerate(frow):
                    rows[s][f] += (-1) ** i
        return rows

    def int_rank(rows: list) -> int:
        m = [list(r) for r in rows]
        rank_ = 0
        cols = len(m[0]) if m else 0
        for c in range(cols):
            piv = next((r for r in range(rank_, len(m)) if m[r][c] != 0), None)
            if piv is None:
                continue
            m[rank_], m[piv] = m[piv], m[rank_]
            pv = m[rank_][c]
            for r in range(len(m)):
                if r != rank_ and m[r][c] != 0:
                    factor = m[r][c]
                    m[r] = [pv * x - factor * y for x, y in zip(m[r], m[rank_])]
            rank_ += 1
        return rank_

    rank_dp = int_rank(coboundary_rows(p))
    rank_dprev = int_rank(coboundary_rows(p - 1)) if p >= 1 else 0
    return cx.count(p) - rank_dp - rank_dprev


@_suite(
    "gauge-h1", 1,
    "gauge reduction lands on first cohomology; the pairing is the cup pairing into second cohomology",
)
def _(res: SuiteResult, rng: random.Random, tol_scale: float):
    from . import discgauge as dg

    if res.trials != 1:
        raise ValidationError(f"gauge-h1 draws nothing and runs 1 trial, not {res.trials}")
    expected = {"torus2": 2, "torus3": 3, "sphere2": 0, "sphere3": 0}
    for name, want in expected.items():
        cx = dg.BUILTIN_COMPLEXES[name]()
        red = dg.reduce_gauge(cx)
        oracle = _oracle_betti(cx, 1)
        res.add(
            f"{name}: carrier dim {red.carrier.betti} equals oracle {oracle} equals {want}",
            red.carrier.betti == oracle == want,
        )
        if name == "torus2":
            p = red.pairing[0]
            skew = p.transpose() == -p
            nonzero = p[0, 1] != 0
            res.add("torus2 pairing is skew of rank 2", skew and nonzero)
        if name == "torus3":
            res.add(
                "torus3 pairing has trivial component-kernel intersection",
                red.pairing_kernel().is_zero(),
            )


@_suite(
    "gauge-invariance", 100,
    "shifting a closed argument by a coboundary moves the cup value by a coboundary only",
)
def _(res: SuiteResult, rng: random.Random, tol_scale: float):
    from . import discgauge as dg
    from . import randgen as rg

    for name in ("torus2", "torus3"):
        cx = dg.BUILTIN_COMPLEXES[name]()
        ok = True
        for _ in range(res.trials):
            alpha = rg.rand_cochain(rng, cx, 1, closed=True)
            beta = rg.rand_cochain(rng, cx, 1, closed=True)
            gamma = rg.rand_cochain(rng, cx, 0)
            shifted = alpha + dg.d(gamma)
            ok &= dg.omega_disc(cx, shifted, beta) == dg.omega_disc(cx, alpha, beta)
        res.add(f"{name}: {res.trials} random shifted pairs agree mod coboundaries", ok)


@_suite(
    "lagrangian-sphere3", 20,
    "with trivial second cohomology, compare closed 1-cochains with their cup orthogonal",
)
def _(res: SuiteResult, rng: random.Random, tol_scale: float):
    from . import discgauge as dg
    from . import randgen as rg

    cx = dg.BUILTIN_COMPLEXES["sphere3"]()
    report = dg.lagrangian_check(cx)
    res.add(
        "second cohomology vanishes",
        report.h2_trivial,
        f"z1 dim {report.z1_dim}, orthogonal dim {report.orthogonal_dim}, "
        f"lagrangian {report.z1_is_lagrangian}",
    )
    # Z^1 = B^1 here, and df cup dg = d(f cup dg), so every closed pair cups to zero.
    ok = True
    for _ in range(res.trials):
        alpha = rg.rand_cochain(rng, cx, 1, closed=True)
        beta = rg.rand_cochain(rng, cx, 1, closed=True)
        ok &= not any(dg.omega_disc(cx, alpha, beta))
    res.add(f"{res.trials} random closed pairs cup to zero modulo coboundaries", ok)


NUMERIC_SUITES = frozenset(name for name, suite in SUITES.items() if suite.numeric)


def run_suite(name: str, seed: int = 0, trials: int = None, tolerance_scale: float = 1.0) -> SuiteResult:
    """Run the suite `name` on a fresh result and an RNG seeded with `seed`,
    at its default trial count unless `trials` is given. A ContractViolation
    raised while the suite runs ends it as one failed check, with the
    message as its detail."""
    if name not in SUITES:
        raise ValidationError(
            f"unknown suite {name!r}; known suites: {', '.join(sorted(SUITES))}"
        )
    suite = SUITES[name]
    trials = suite.trials if trials is None else trials
    # A check run on no samples would pass vacuously.
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    res = SuiteResult(suite.identity, seed, trials)
    try:
        suite.run(res, random.Random(seed), tolerance_scale)
    except ContractViolation as exc:
        res.add("contract", False, str(exc))
    return res
