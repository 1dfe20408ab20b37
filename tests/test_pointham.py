import re

import numpy as np
import pytest

from _oracles import (
    canonical_theta_at,
    decimal_left_generator_at,
    looped_closedness_defect,
    looped_gradient,
    looped_lie_derivative_of_theta,
    looped_omega_at,
    looped_partials,
    looped_preservation_defect,
    looped_section_jacobian,
    omega_at_pullback_defect,
    so3_dexp_inv_at,
    so3_left_generator_at,
    so3_log,
    three_omega_bracket,
    two_point_moment_identity_defect,
)
from polysym import liealg as la
from polysym import pointham as ph
from polysym import verify
from polysym.errors import ContractViolation, ValidationError
from polysym.polycore import canonical_model


def exact_model(n, k):
    return ph.vform_to_numpy(canonical_model(n, k))


class TestOmegaAt:
    def test_smallest_canonical_patch(self):
        patch = ph.canonical_theta(1, 1)
        omega = ph.omega_at(patch, np.array([0.3, -0.7]))
        assert np.max(np.abs(omega[0] - np.array([[0, 1], [-1, 0]]))) < 1e-8

    def test_matches_linear_model(self):
        patch = ph.canonical_theta(2, 2)
        x = np.array([0.1, 0.2, 0.3, 0.4, -0.5, 0.6])
        assert np.max(np.abs(ph.omega_at(patch, x) - exact_model(2, 2))) < 1e-7

    def test_constant_potential_flat(self):
        patch = ph.ExactPatch(dim_m=2, dim_v=1, theta=lambda xs: np.tile([[1.0, 2.0]], (len(xs), 1, 1)))
        assert np.max(np.abs(ph.omega_at(patch, np.array([0.5, 0.5])))) == 0.0

    def test_exactly_skew(self):
        patch = ph.so3_patch()
        omega = ph.omega_at(patch, np.array([0.15, -0.2, 0.05]))
        assert np.max(np.abs(omega + np.transpose(omega, (0, 2, 1)))) == 0.0

    def test_nonfinite_theta_rejected(self):
        patch = ph.ExactPatch(dim_m=1, dim_v=1, theta=lambda xs: np.full((len(xs), 1, 1), np.inf))
        with pytest.raises(ValidationError, match="non-finite"):
            ph.omega_at(patch, np.zeros(1))

    def test_points_of_the_wrong_shape_rejected(self):
        for patch in (ph.so3_patch(), ph.canonical_theta(1, 2)):
            for bad in (np.zeros(patch.dim_m), np.zeros((2, patch.dim_m + 1))):
                with pytest.raises(ValidationError, match="stack of points"):
                    patch.thetas(bad)
            with pytest.raises(ValidationError, match="stack of points"):
                patch.theta_at(np.zeros(patch.dim_m + 1))

    def test_per_point_theta_rejected(self):
        # theta takes a stack of points; one returning a single (k, n) value is refused
        patch = ph.ExactPatch(dim_m=2, dim_v=1, theta=lambda x: np.array([[1.0, 2.0]]))
        for evaluate in (ph.omega_at, lambda p, x: p.theta_at(x), lambda p, x: ph.local_embed(p).jacobian(x)):
            with pytest.raises(ValidationError, match="shape"):
                evaluate(patch, np.array([0.5, 0.5]))


class TestDiffeomorphismLift:
    def test_lifted_map_preserves_omega(self):
        # base diffeo of the plane, lifted to the canonical patch over it
        n = k = 2
        patch = ph.canonical_theta(n, k)

        def psi(q):
            return np.array([q[0] + 0.3 * np.sin(q[1]), q[1]])

        def dpsi(q):
            return np.array([[1.0, 0.3 * np.cos(q[1])], [0.0, 1.0]])

        def lift(x):
            q, phi = x[:n], x[n:].reshape(k, n)
            return np.concatenate([psi(q), (phi @ np.linalg.inv(dpsi(q))).ravel()])

        rng = np.random.default_rng(3)
        target = exact_model(n, k)
        h = 1e-5
        for _ in range(5):
            x = rng.uniform(-0.8, 0.8, patch.dim_m)
            jac = np.stack(
                [(lift(x + h * e) - lift(x - h * e)) / (2 * h) for e in np.eye(patch.dim_m)],
                axis=1,
            )
            pulled = np.einsum("ia,cij,jb->cab", jac, target, jac)
            assert np.max(np.abs(pulled - ph.omega_at(patch, x))) < 1e-7


class TestHamiltonianField:
    def test_momentum_generates_negative_translation(self):
        patch = ph.canonical_theta(1, 1)
        sol = ph.hamiltonian_field(patch, lambda x: np.array([x[1]]), np.array([0.2, 0.4]))
        assert sol.is_hamiltonian
        assert np.max(np.abs(sol.X - np.array([-1.0, 0.0]))) < 1e-6

    def test_base_lift_is_vertical(self):
        patch = ph.canonical_theta(1, 2)
        f = lambda x: np.array([np.sin(x[0]), x[0] ** 2])
        sol = ph.hamiltonian_field(patch, f, np.array([0.3, 0.1, -0.2]))
        assert sol.is_hamiltonian
        assert abs(sol.X[0]) < 1e-6

    def test_obstructed_function_detected(self):
        patch = ph.canonical_theta(1, 2)
        f = lambda x: np.array([x[2], 0.0])
        sol = ph.hamiltonian_field(patch, f, np.array([0.3, 0.1, -0.2]))
        assert sol.residual > 1e-3
        assert not sol.is_hamiltonian

    def test_degenerate_form_reported_not_raised(self):
        patch = ph.ExactPatch(dim_m=2, dim_v=1, theta=lambda xs: np.full((len(xs), 1, 2), 0.5))
        sol = ph.hamiltonian_field(patch, lambda x: np.array([x[0]]), np.zeros(2))
        assert sol.degenerate
        assert sol.rank == 0
        assert not sol.is_hamiltonian


class TestPoissonBracket:
    def test_coordinate_bracket(self):
        patch = ph.canonical_theta(1, 1)
        val = ph.poisson_bracket(
            patch, lambda x: np.array([x[0]]), lambda x: np.array([x[1]]), np.zeros(2)
        )
        assert abs(val[0] + 1.0) < 1e-6

    def test_self_bracket_vanishes(self):
        patch = ph.canonical_theta(1, 1)
        f = lambda x: np.array([x[1] ** 2])
        assert abs(ph.poisson_bracket(patch, f, f, np.array([0.1, 0.2]))[0]) < 1e-9

    def test_bilinearity(self):
        patch = ph.canonical_theta(1, 1)
        x = np.array([0.3, -0.2])
        f = lambda z: np.array([z[0]])
        g = lambda z: np.array([z[1]])
        h = lambda z: np.array([z[0] * z[1]])
        gh = lambda z: np.array([z[1] + z[0] * z[1]])
        lhs = ph.poisson_bracket(patch, f, gh, x)
        rhs = ph.poisson_bracket(patch, f, g, x) + ph.poisson_bracket(patch, f, h, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_non_hamiltonian_input_rejected(self):
        patch = ph.canonical_theta(1, 2)
        bad = lambda x: np.array([x[2], 0.0])
        good = lambda x: np.array([np.sin(x[0]), x[0]])
        with pytest.raises(ContractViolation):
            ph.poisson_bracket(patch, bad, good, np.array([0.3, 0.1, -0.2]))

    def test_conditional_product_rule_instance(self):
        # classical patch: scaling a Hamiltonian by a function keeps it
        # Hamiltonian, and the product rule holds where everything qualifies
        # (with the minus the package's gradient sign forces; see the ledger)
        patch = ph.canonical_theta(1, 1)
        x = np.array([0.4, -0.3])
        f = lambda z: np.array([z[1]])          # momentum
        fp = lambda z: np.array([z[0]])         # position
        s = lambda z: z[0] * z[1]               # scalar multiplier
        sfp = lambda z: np.array([s(z) * z[0]])
        assert ph.hamiltonian_field(patch, sfp, x).is_hamiltonian
        lhs = ph.poisson_bracket(patch, f, sfp, x)
        xf = ph.hamiltonian_field(patch, f, x).X
        h = ph.DEFAULT_FD_STEP
        ds = np.array([(s(x + h * e) - s(x - h * e)) / (2 * h) for e in np.eye(2)])
        rhs = -(xf @ ds) * fp(x) + s(x) * ph.poisson_bracket(patch, f, fp, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-5


class TestMomentFromPotential:
    def test_translation_moment_reads_off_fiber(self):
        for k in (1, 2, 3):
            patch = ph.canonical_theta(1, k)
            mu = ph.moment_from_potential(
                patch, [ph.translation_generator(1, k, 0)], sample_count=10, seed=2
            )
            x = np.concatenate([[0.5], 0.1 * np.arange(1, k + 1)])
            assert np.max(np.abs(mu(x)[:, 0] - x[1:])) < 1e-12
            assert mu.identity_defect < 1e-5

    def test_zero_generator_gives_zero_column(self):
        patch = ph.canonical_theta(2, 2)
        zero_gen = lambda x: np.zeros(patch.dim_m)
        mu = ph.moment_from_potential(patch, [zero_gen], sample_count=5, seed=0)
        assert np.max(np.abs(mu(np.ones(patch.dim_m)))) == 0.0

    def test_rotation_action_identity(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        patch = ph.canonical_theta(2, 2)
        gen = ph.lifted_generator(2, 2, lambda q: rot @ q, lambda q: rot)
        mu = ph.moment_from_potential(patch, [gen], sample_count=25, seed=5)
        assert mu.identity_defect < 1e-5

    def test_non_preserving_action_rejected(self):
        patch = ph.canonical_theta(1, 1)
        shear = lambda x: np.array([x[0], 0.0])  # moves q without the fiber fix-up
        with pytest.raises(ContractViolation):
            ph.moment_from_potential(patch, [shear], sample_count=5, seed=0)

    def test_so3_moment_is_inverse_adjoint(self):
        patch = ph.so3_patch()
        gens = [ph.so3_left_generator(np.eye(3)[i]) for i in range(3)]
        mu = ph.moment_from_potential(patch, gens, sample_count=10, seed=1)
        x = np.array([0.2, -0.3, 0.1])
        g = la.so3_exp(x)
        for i in range(3):
            expect = la.unhat(g.T @ la.hat(np.eye(3)[i]) @ g)  # Ad_{g^-1} e_i
            assert np.max(np.abs(mu(x)[:, i] - expect)) < 1e-9
        assert mu.identity_defect < 1e-5


def _maurer_cartan_gap(patch, x):
    """Largest entry of omega_at(x) - eps(theta_x ., theta_x .), where
    eps(u, v)_c = (u x v)_c."""
    eps = np.zeros((3, 3, 3))
    for c, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[c, a, b], eps[c, b, a] = 1.0, -1.0
    theta = patch.theta_at(x)
    return np.max(np.abs(ph.omega_at(patch, x) - np.einsum("cab,ai,bj->cij", eps, theta, theta)))


class TestSo3Patch:
    def test_structure_form_is_maurer_cartan(self):
        # omega_c(u, v) = (theta u x theta v)_c; the opposite sign misses by 2.0
        patch = ph.so3_patch()
        for x in ph.halton_points(3, 200, seed=3, scale=0.5):
            assert _maurer_cartan_gap(patch, x) < 1e-9

    @pytest.mark.parametrize("radius", [1e-5, 1e-4, 1e-3])
    def test_structure_form_is_maurer_cartan_near_the_origin(self, radius):
        # (1 - cos t) / t^2 cancels here and omega_at divides theta's
        # rounding by 2h: that form missed by 5.8e-7 at 1e-5
        patch = ph.so3_patch()
        for d in ph.halton_points(3, 50, seed=17, scale=1.0):
            assert _maurer_cartan_gap(patch, radius * d / np.linalg.norm(d)) < 1e-10

    def test_generator_matches_flow_derivative(self):
        rng = np.random.default_rng(0)
        for _ in range(6):
            x = rng.uniform(-0.5, 0.5, 3)
            xi = rng.standard_normal(3)
            gen = ph.so3_left_generator(xi)
            h = 1e-6
            fd = (
                so3_log(la.so3_exp(h * xi) @ la.so3_exp(x))
                - so3_log(la.so3_exp(-h * xi) @ la.so3_exp(x))
            ) / (2 * h)
            assert np.linalg.norm(fd - gen(x)) < 1e-6

    def test_left_invariance_at_matrix_level(self):
        # translating a tangent vector with the group leaves its algebra value fixed
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = la.so3_exp(rng.uniform(-1, 1, 3))
            h = la.so3_exp(rng.uniform(-1, 1, 3))
            tangent = g @ la.hat(rng.standard_normal(3))
            before = la.unhat(np.linalg.inv(g) @ tangent)
            after = la.unhat(np.linalg.inv(h @ g) @ (h @ tangent))
            assert np.linalg.norm(before - after) < 1e-9

    def test_field_of_contracted_potential_is_negative_generator(self):
        patch = ph.so3_patch()
        xi = np.array([0.3, -0.2, 0.5])
        gen = ph.so3_left_generator(xi)
        f = lambda x: patch.theta_at(x) @ gen(x)
        x0 = np.array([0.1, 0.2, -0.15])
        sol = ph.hamiltonian_field(patch, f, x0)
        assert sol.is_hamiltonian
        assert np.linalg.norm(sol.X + gen(x0)) < 1e-5

    def test_bracket_chain_on_rotation_patch(self):
        # bracket of two contracted potentials is minus the contraction of
        # the bracketed generator (see the decisions ledger on the sign)
        patch = ph.so3_patch()
        xi = np.array([0.3, -0.2, 0.5])
        eta = np.array([-0.4, 0.1, 0.2])
        f1 = lambda x: patch.theta_at(x) @ ph.so3_left_generator(xi)(x)
        f2 = lambda x: patch.theta_at(x) @ ph.so3_left_generator(eta)(x)
        lie = la.unhat(la.hat(xi) @ la.hat(eta) - la.hat(eta) @ la.hat(xi))
        f3 = lambda x: patch.theta_at(x) @ ph.so3_left_generator(lie)(x)
        for x in (np.array([0.1, 0.2, -0.15]), np.array([-0.2, 0.05, 0.3])):
            lhs = ph.poisson_bracket(patch, f1, f2, x)
            assert np.max(np.abs(lhs + f3(x))) < 1e-4


GENERATOR_XIS = [*np.eye(3), np.array([0.3, -1.0, 0.5])]


def _relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestSo3LeftGenerator:
    """The closed form against exp and a 3x3 solve (`so3_left_generator_at`)."""

    POINTS = {
        "halton-0.5": ph.halton_points(3, 64, seed=11, scale=0.5),
        "halton-3": ph.halton_points(3, 64, seed=12, scale=3.0),
        "origin": np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]]),
        "below-1e-8": np.array([[3e-9, -6e-9, 6e-9], [-9.9e-9, 0.0, 0.0]]),
        "t-pi": np.pi * np.array([[1.0, 0.0, 0.0], [1 / 3, 2 / 3, -2 / 3], [0.0, 0.0, -1.0]]),
    }

    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_matches_exp_and_solve(self, name):
        for xi in GENERATOR_XIS:
            gen = ph.so3_left_generator(xi)
            for x in self.POINTS[name]:
                assert _relative_gap(gen(x), so3_left_generator_at(xi, x)) <= 1e-12

    def test_near_1e_5_where_c_cancels(self):
        # In floats, exp and solve lose digits in 1 - cos t here (up to about
        # 1e-11 relative); their 40-digit Decimal evaluation does not.
        directions = ph.halton_points(3, 16, seed=13, scale=1.0)
        for i, d in enumerate(directions):
            x = (0.5 + i / 16) * 1e-5 * d / np.linalg.norm(d)
            for xi in GENERATOR_XIS:
                got = ph.so3_left_generator(xi)(x)
                assert _relative_gap(got, decimal_left_generator_at(xi, x)) <= 1e-14
                assert _relative_gap(got, so3_left_generator_at(xi, x)) <= 1e-10

    def test_decimal_oracle_matches_float_oracle_away_from_zero(self):
        for x in self.POINTS["halton-3"][:8]:
            for xi in GENERATOR_XIS:
                assert _relative_gap(decimal_left_generator_at(xi, x), so3_left_generator_at(xi, x)) <= 1e-13


def _mutant_generator(half: float, with_c: bool):
    """so3_left_generator with the k xi coefficient `half` (-1/2 in the
    closed form) and its c k (k xi) term kept or dropped."""

    def make(xi):
        xi = np.asarray(xi, dtype=float)

        def gen(x):
            k = np.cross(x, xi)
            t = float(np.linalg.norm(x))
            c = 1.0 / t**2 - np.cos(t / 2) / (2 * t * np.sin(t / 2)) if t >= 1e-8 else 1.0 / 12.0
            return xi + half * k + (c * np.cross(x, k) if with_c else 0.0)

        return gen

    return make


def test_unmutated_mutant_generator_is_the_closed_form():
    for xi in GENERATOR_XIS:
        for x in ph.halton_points(3, 8, seed=14, scale=0.5):
            expected = ph.so3_left_generator(xi)(x)
            assert _relative_gap(_mutant_generator(-0.5, True)(xi)(x), expected) <= 1e-14


@pytest.mark.parametrize(
    "half, with_c, passes",
    [(-0.5, True, True), (0.5, True, False), (-0.5, False, False)],
    ids=["unmutated", "half-term-sign-flipped", "c-term-dropped"],
)
def test_moment_identity_suite_notices_a_broken_generator(monkeypatch, half, with_c, passes):
    monkeypatch.setattr(ph, "so3_left_generator", _mutant_generator(half, with_c))
    result = verify.run_suite("moment-identity")
    assert result.passed is passes
    assert result.checks[0].passed  # the canonical patches use no rotation generator


class TestLocalEmbed:
    def test_canonical_patch_into_its_double(self):
        emb = ph.local_embed(ph.canonical_theta(1, 1))
        assert emb.pullback_defect(np.array([0.3, 0.4])) < 1e-7

    def test_so3_patch(self):
        emb = ph.local_embed(ph.so3_patch())
        for x in ph.halton_points(3, 5, seed=2, scale=0.5):
            assert emb.pullback_defect(x) < 1e-5

    def test_constant_patch_lands_in_one_fiber(self):
        patch = ph.ExactPatch(dim_m=2, dim_v=1, theta=lambda xs: np.tile([[1.0, 0.0]], (len(xs), 1, 1)))
        emb = ph.local_embed(patch)
        a, b = emb.map(np.array([0.1, 0.9])), emb.map(np.array([0.7, -0.3]))
        assert np.array_equal(a[2:], b[2:])
        assert emb.pullback_defect(np.array([0.1, 0.9])) < 1e-9


class TestClosedness:
    def test_canonical_and_rotation_patches(self):
        canon = ph.canonical_theta(2, 2)
        x = np.array([0.1, 0.2, 0.3, 0.4, -0.5, 0.6])
        assert looped_closedness_defect(canon, x) < 1e-4
        assert looped_closedness_defect(ph.so3_patch(), np.array([0.1, 0.2, -0.1])) < 1e-4


def _assert_same_floats(got, expected):
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def _kernel_points(dim, scale):
    """Halton points, then the origin (both signs of zero), points with exact
    zero coordinates and points of norm below 1e-8."""
    halton = ph.halton_points(dim, 64, seed=11, scale=scale)
    special = [np.zeros(dim), np.full(dim, -0.0), 1e-9 * halton[0], 3e-9 * np.eye(dim)[-1], -5e-9 * np.ones(dim) / dim]
    for i in range(dim):
        zeroed = halton[i].copy()
        zeroed[i] = 0.0
        special += [zeroed, -zeroed]
    return halton, np.concatenate([halton[:8], np.array(special)])


@pytest.mark.parametrize(
    "patch, theta_at",
    [pytest.param(ph.so3_patch(), so3_dexp_inv_at, id="so3")]
    + [
        pytest.param(ph.canonical_theta(n, k), lambda x, n=n, k=k: canonical_theta_at(n, k, x), id=f"canonical:{n},{k}")
        for n, k in ((1, 1), (2, 2), (3, 2), (1, 3))
    ],
)
@pytest.mark.parametrize("scale", [0.5, 3.0])
def test_stacked_kernel_matches_per_point_oracle(patch, theta_at, scale):
    """Each row of a stack, and each one-row call, equals the per-point
    formula bit for bit, signs of zero included."""
    for pts in _kernel_points(patch.dim_m, scale):
        expected = np.array([theta_at(x) for x in pts])
        _assert_same_floats(patch.thetas(pts), expected)
        for x, row in zip(pts, expected):
            _assert_same_floats(patch.theta_at(x), row)


_TEST_PATCHES = [
    ph.so3_patch(),
    *(ph.canonical_theta(n, k) for n, k in ((1, 1), (2, 2), (1, 3), (2, 1), (3, 1), (1, 2), (3, 2))),
]


def _value_function(k):
    """A smooth (k,)-valued function whose partials differ on every axis."""
    return lambda x: np.array([np.sin(x @ np.arange(1.0, x.size + 1) + c) * x[c % x.size] for c in range(k)])


def _generators(patch):
    if patch.name == "so3":
        return [ph.so3_left_generator(np.array([0.3, -1.0, 0.5])), ph.so3_left_generator(np.array([-0.4, 0.1, 0.2]))]
    n, k = patch.base_shape
    rot = np.eye(n)[::-1] - np.eye(n)
    return [ph.translation_generator(n, k, 0), ph.lifted_generator(n, k, lambda q: rot @ q, lambda q: rot)]


# The "-r0" suffix keeps these test ids stable across releases.
@pytest.mark.parametrize("patch", _TEST_PATCHES, ids=lambda p: f"{p.name}-r0")
class TestCentralDifferencesMatchPerAxisLoops:
    """Every derivative goes through one central-difference routine; each
    must equal the per-axis loop it replaced, bit for bit."""

    def points(self, patch):
        return ph.halton_points(patch.dim_m, 4, seed=2, scale=patch.sample_scale)

    def test_omega_at(self, patch):
        for x in self.points(patch):
            assert np.array_equal(ph.omega_at(patch, x), looped_omega_at(patch, x))

    def test_gradient(self, patch):
        f = _value_function(patch.dim_v)
        for x in self.points(patch):
            assert np.array_equal(ph.gradient(patch, f, x), looped_gradient(patch, f, x))

    def test_lie_derivative_of_theta(self, patch):
        gens = _generators(patch)
        for x in self.points(patch):
            got = ph._lie_derivative(gens, x, patch.theta_at(x), ph._theta_partials(patch, x))
            assert got.shape == (len(gens), patch.dim_v, patch.dim_m)
            for gi, gen in enumerate(gens):
                assert np.array_equal(got[gi], looped_lie_derivative_of_theta(patch, gen, x))

    def test_section_jacobian(self, patch):
        emb = ph.local_embed(patch)
        for x in self.points(patch):
            assert np.array_equal(emb.jacobian(x), looped_section_jacobian(emb, x))

    def test_closedness_defect(self, patch):
        # omega = d(theta) is closed; second differences of omega_at see it.
        for x in self.points(patch):
            assert looped_closedness_defect(patch, x) < 1e-9


def _contracted_potentials(patch):
    """theta contracted with each generator: Hamiltonian functions, since the
    generators preserve theta."""
    return [lambda x, gen=gen: patch.theta_at(x) @ gen(x) for gen in _generators(patch)]


@pytest.mark.parametrize("patch", _TEST_PATCHES, ids=lambda p: f"{p.name}-r0")
class TestOneStructureFormPerPoint:
    """Each routine that now differentiates theta once per point must equal,
    bit for bit, its old body that differentiated it again for every use."""

    def points(self, patch):
        return ph.halton_points(patch.dim_m, 4, seed=6, scale=patch.sample_scale)

    def test_poisson_bracket(self, patch):
        f, g = _contracted_potentials(patch)
        pairs = [(f, g), (g, f), (f, _value_function(patch.dim_v))]
        for x in self.points(patch):
            for a, b in pairs:
                try:
                    expected = three_omega_bracket(patch, a, b, x)
                except ContractViolation as exc:
                    with pytest.raises(ContractViolation, match=re.escape(str(exc))):
                        ph.poisson_bracket(patch, a, b, x)
                    continue
                assert np.array_equal(ph.poisson_bracket(patch, a, b, x), expected)

    def test_moment_map_defects(self, patch):
        gens = _generators(patch)
        mu = ph.moment_from_potential(patch, gens, sample_count=6, seed=3)
        points = ph.halton_points(patch.dim_m, 6, seed=3, scale=patch.sample_scale)
        directions = ph.halton_points(patch.dim_m, 6, seed=4, scale=1.0)
        assert mu.preservation_defect == looped_preservation_defect(patch, gens, points)
        assert mu.identity_defect == two_point_moment_identity_defect(patch, gens, points, directions)

    def test_moment_identity_defect(self, patch):
        gens = _generators(patch)
        points = self.points(patch)
        directions = ph.halton_points(patch.dim_m, len(points), seed=7, scale=1.0)
        directions[1] = 0.0  # a zero direction is skipped
        got = ph.moment_identity_defect(patch, gens, points, directions)
        assert got == two_point_moment_identity_defect(patch, gens, points, directions)

    def test_pullback_defect(self, patch):
        emb = ph.local_embed(patch)
        for x in self.points(patch):
            assert emb.pullback_defect(x) == omega_at_pullback_defect(emb, x)


@pytest.mark.parametrize("patch", [ph.canonical_theta(3, 2), ph.so3_patch()], ids=lambda p: p.name)
def test_theta_evaluations_per_point(patch):
    rows = []  # the stack height of each theta call

    def theta(xs):
        rows.append(len(xs))
        return patch.theta(xs)

    counted = ph.ExactPatch(
        patch.dim_m, patch.dim_v, theta, name=patch.name,
        sample_scale=patch.sample_scale, base_shape=patch.base_shape,
    )
    n = patch.dim_m
    f, g = _contracted_potentials(patch)  # these read the uncounted patch
    x = ph.halton_points(n, 1, seed=8, scale=patch.sample_scale)[0]

    ph.poisson_bracket(counted, f, g, x)
    assert rows == [2 * n]
    rows.clear()
    ph.local_embed(counted).pullback_defect(x)
    assert rows == [2 * n]
    rows.clear()
    ph.moment_from_potential(counted, _generators(patch), sample_count=5, seed=1)
    assert sum(rows) == 5 * (2 * n + 3)
    assert len(rows) == 5 * 3


class TestStencilOffsets:
    """The stencil adds cached, read-only offsets +-h e_a."""

    X = np.array([0.25, -0.0, 0.0, -1.5, 3.0])

    @staticmethod
    def expected(x):
        h = ph.DEFAULT_FD_STEP
        plus, minus = [], []
        for a in range(x.size):
            e = np.zeros(x.size)
            e[a] = h
            plus.append(x + e)
            minus.append(x - e)
        return np.array(plus + minus)

    def test_offsets_are_read_only(self):
        off = ph._offsets(self.X.size)
        assert not off.flags.writeable
        with pytest.raises(ValueError):
            off[0, 0] = 1.0

    # Signed zeros; one axis; coordinates whose spacing exceeds h, so that
    # x +- h rounds back to x; and subnormals, where h swamps x.
    @pytest.mark.parametrize(
        "x",
        [X, np.array([-0.0]), np.array([1e12, -3e15, 7.0]), np.array([5e-324, -2e-310, 1e-300])],
        ids=["signed-zeros", "one-axis", "beyond-ulp", "subnormal"],
    )
    def test_rows_are_x_plus_and_minus_h_e_a_to_the_bit(self, x):
        _assert_same_floats(ph._stencil(x), self.expected(x))

    def test_mutating_a_stencil_leaves_the_next_one_alone(self):
        first = ph._stencil(self.X)
        first[...] = np.nan
        _assert_same_floats(ph._stencil(self.X), self.expected(self.X))


class TestSo3OneRowPath:
    """theta_at's one-row potential equals the same row of a stack."""

    @pytest.mark.parametrize("radius", [0.99e-8, 1e-8, 1.01e-8, 1e-5, 0.3])
    def test_one_row_equals_stacked_row(self, radius):
        patch = ph.so3_patch()
        for d in ph.halton_points(3, 16, seed=14, scale=1.0):
            x = radius * d / np.linalg.norm(d)
            stacked = patch.thetas(np.stack([x, 2.0 * x, -x]))
            _assert_same_floats(patch.theta_at(x), stacked[0])
            _assert_same_floats(patch.theta_at(-x), stacked[2])

    def test_both_paths_raise_the_same_error_on_overflow(self):
        patch = ph.so3_patch()
        x = np.array([1e200, -3e200, 2e200])
        errors = []
        for xs in (x[None], np.stack([x, x])):
            with pytest.raises(ValidationError) as info, np.errstate(over="ignore", invalid="ignore"):
                patch.thetas(xs, x)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("theta is undefined at")


@pytest.mark.parametrize("patch", [ph.canonical_theta(3, 2), ph.so3_patch()], ids=lambda p: p.name)
def test_pullback_products_match_the_einsum(patch):
    """j^T (W j) equals the three-operand einsum up to summation order."""
    emb = ph.local_embed(patch)
    for x in ph.halton_points(patch.dim_m, 8, seed=16, scale=patch.sample_scale):
        j = emb.jacobian(x)
        want = np.einsum("ia,cij,jb->cab", j, emb.target_omega, j)
        got = ph._pullback(j, emb.target_omega)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("patch", [ph.canonical_theta(3, 2), ph.so3_patch()], ids=lambda p: p.name)
def test_solve_norms_match_linalg_norm(patch):
    """The residual and threshold equal np.linalg.norm of the same vectors."""
    f = _contracted_potentials(patch)[0]
    for x in ph.halton_points(patch.dim_m, 8, seed=15, scale=patch.sample_scale):
        sol = ph.hamiltonian_field(patch, f, x, tolerance_scale=2.0)
        a = ph.omega_at(patch, x).reshape(patch.dim_v * patch.dim_m, patch.dim_m)
        b = ph.gradient(patch, f, x).reshape(-1)
        assert sol.residual == float(np.linalg.norm(a @ sol.X - b))
        assert sol.threshold == 1e-6 * 2.0 * (1.0 + float(np.linalg.norm(b)))


@pytest.mark.parametrize("n,k", [(1, 1), (2, 2), (3, 1), (1, 3), (2, 1)])
def test_partials_match_per_axis_loop(n, k):
    """`_partials` of a k-valued function on R^2n, one output nonlinear in
    the last axis, equals the per-axis loop bit for bit."""

    def f(z):
        q, v = z[:n], z[n:]
        base = 0.5 * v @ v + q @ v
        return np.array([base + c * np.sin(q[0] + c) * v[-1] ** 3 for c in range(k)])

    for x in ph.halton_points(2 * n, 3, seed=4):
        got = ph._partials(f, x)
        assert got.shape == (2 * n, k)
        assert np.array_equal(got, looped_partials(f, x))


def test_halton_points_reject_a_negative_count():
    with pytest.raises(ValidationError, match="non-negative"):
        ph.halton_points(3, -1)
    assert ph.halton_points(3, 0).shape == (0, 3)


def test_moment_from_potential_needs_a_sample():
    patch = ph.so3_patch()
    gens = [ph.so3_left_generator(np.eye(3)[i]) for i in range(3)]
    for count in (0, -2):
        with pytest.raises(ValidationError, match="need at least one sample"):
            ph.moment_from_potential(patch, gens, sample_count=count)


def test_halton_points_deterministic():
    a = ph.halton_points(3, 7, seed=9, scale=0.5)
    b = ph.halton_points(3, 7, seed=9, scale=0.5)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a)) <= 0.5


@pytest.mark.parametrize("dim", range(1, 13))
def test_halton_points_match_scipy_bit_for_bit(dim):
    qmc = pytest.importorskip("scipy.stats").qmc
    for count in (1, 2, 17, 1000):
        for seed in (0, 1, 3, 7, 2024):
            for scale in (1.0, 0.5):
                reference = qmc.Halton(d=dim, scramble=True, seed=seed).random(count)
                expected = scale * (2.0 * reference - 1.0)
                assert np.array_equal(ph.halton_points(dim, count, seed=seed, scale=scale), expected)
