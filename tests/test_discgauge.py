import itertools
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from _oracles import coboundary_space, oracle_betti
from polysym import discgauge as dg
from polysym.errors import ContractViolation, ValidationError
from polysym.exactla import Matrix, Subspace, annihilator, contains, kernel, pivot_coordinates
from polysym.randgen import rand_cochain
from polysym.verify import SUITES, run_suite

sys.path.append(str(Path(__file__).resolve().parents[1]))
from perfbench.inputs import grid_torus_simplices  # noqa: E402


def grid_torus(n: int, dim: int) -> dg.DeltaComplex:
    """Periodic n^dim triangulated grid: same space as the quotient-cube
    torus, but with enough vertices to carry non-constant 0-cochains. Faces
    resolve by vertex-tuple lookup, exercising that construction path."""
    return dg.DeltaComplex(grid_torus_simplices(n, dim), name=f"grid{n}^{dim}")


class TestDeltaComplexValidation:
    def test_missing_face_rejected(self):
        with pytest.raises(ValidationError):
            dg.DeltaComplex({0: [(0,)], 1: [(0, 1)]})

    def test_ambiguous_tuples_need_explicit_faces(self):
        with pytest.raises(ValidationError, match="ambiguous"):
            dg.DeltaComplex({0: [(0,)], 1: [(0, 0), (0, 0)], 2: [(0, 0, 0)]})

    def test_simplicial_identity_enforced(self):
        # a scrambled triangle face row on a multi-vertex complex; a
        # one-vertex complex would satisfy the identities vacuously
        s2 = dg.sphere_complex(2)
        bad = {p: [tuple(f) for f in rows] for p, rows in s2.faces.items()}
        r0 = bad[2][0]
        bad[2] = [(r0[1], r0[0], r0[2])] + bad[2][1:]
        with pytest.raises(ValidationError, match="simplicial identity"):
            dg.DeltaComplex(s2.simplices, faces=bad)

    def test_dimension_cap(self):
        simplices = {
            p: [tuple(c) for c in itertools.combinations(range(6), p + 1)]
            for p in range(5)
        }
        with pytest.raises(ValidationError, match="dimension"):
            dg.DeltaComplex(simplices)

    def test_counts(self):
        assert dg.torus_complex(2).counts == (1, 3, 2)
        assert dg.torus_complex(3).counts == (1, 7, 12, 6)
        assert dg.sphere_complex(2).counts == (4, 6, 4)
        assert dg.sphere_complex(3).counts == (5, 10, 10, 5)


class TestCoboundary:
    def test_interval_step_function(self):
        iv = dg.interval_complex()
        assert dg.d(dg.Cochain(iv, 0, (0, 1))).values == (F(1),)

    def test_constant_has_zero_coboundary(self):
        iv = dg.interval_complex()
        assert dg.d(dg.Cochain(iv, 0, (5, 5))).is_zero()

    def test_one_vertex_torus_kills_degree_zero(self):
        t2 = dg.torus_complex(2)
        assert dg.d(dg.Cochain(t2, 0, (7,))).is_zero()

    def test_top_degree_rejected(self):
        t2 = dg.torus_complex(2)
        with pytest.raises(ValidationError):
            dg.d(dg.Cochain(t2, 2, [0] * t2.count(2)))

    def test_dd_zero_everywhere(self):
        for make in dg.BUILTIN_COMPLEXES.values():
            cx = make()
            for p in range(cx.dimension):
                prod = cx.coboundary_matrix(p + 1) @ cx.coboundary_matrix(p)
                assert prod.is_zero()


class TestCup:
    def test_constant_one_is_identity_both_sides(self):
        t3 = dg.torus_complex(3)
        one = dg.Cochain(t3, 0, (1,))
        rng = random.Random(0)
        beta = rand_cochain(rng, t3, 1)
        assert dg.cup(one, beta).values == beta.values
        assert dg.cup(beta, one).values == beta.values

    def test_degree_overflow_rejected(self):
        t2 = dg.torus_complex(2)
        with pytest.raises(ValidationError):
            dg.cup(dg.Cochain(t2, 1, [0] * t2.count(1)), dg.Cochain(t2, 2, [0] * t2.count(2)))

    def test_leibniz_exact(self):
        rng = random.Random(5)
        for cx in (dg.torus_complex(3), dg.sphere_complex(3)):
            for _ in range(20):
                p = rng.choice([0, 1, 1, 2])
                q = rng.choice([0, 1])
                if p + q + 1 > cx.dimension:
                    continue
                a = rand_cochain(rng, cx, p)
                b = rand_cochain(rng, cx, q)
                lhs = dg.d(dg.cup(a, b))
                signed = dg.Cochain(cx, p + q + 1, [(-1) ** p * v for v in dg.cup(a, dg.d(b)).values])
                rhs = dg.cup(dg.d(a), b) + signed
                assert lhs.values == rhs.values

    def test_torus2_edge_product_generates_top_cohomology(self):
        t2 = dg.torus_complex(2)
        a = dg.Cochain.basis(t2, 1, 1)  # straight edge in the first direction
        b = dg.Cochain.basis(t2, 1, 0)  # straight edge in the second direction
        product = dg.cup(a, b)
        quot = dg.CochainQuotient(t2, 2)
        assert not quot.is_coboundary(product)

    def test_coboundary_cup_cocycle_is_coboundary(self):
        rng = random.Random(8)
        t3 = dg.torus_complex(3)
        quot = dg.CochainQuotient(t3, 2)
        for _ in range(15):
            gamma = rand_cochain(rng, t3, 0)
            beta = rand_cochain(rng, t3, 1, closed=True)
            assert quot.is_coboundary(dg.cup(dg.d(gamma), beta))


class TestCohomology:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("torus2", (1, 2, 1)),
            ("sphere2", (1, 0, 1)),
            ("sphere3", (1, 0, 0, 1)),
            ("torus3", (1, 3, 3, 1)),
            ("interval", (1, 0)),
        ],
    )
    def test_betti_numbers_against_oracle(self, name, expected):
        cx = dg.BUILTIN_COMPLEXES[name]()
        betti = tuple(dg.cohomology(cx, p).betti for p in range(cx.dimension + 1))
        assert betti == expected
        assert betti == tuple(oracle_betti(cx, p) for p in range(cx.dimension + 1))

    def test_presentation_decomposes_cocycles(self):
        t3 = dg.torus_complex(3)
        pres = dg.cohomology(t3, 1)
        b1 = coboundary_space(t3, 1)
        assert contains(pres.cocycles, b1)
        assert pres.harmonic_section.cols == pres.betti == pres.cocycles.dim - b1.dim

    def test_degree_out_of_range(self):
        with pytest.raises(ValidationError):
            dg.cohomology(dg.torus_complex(2), 3)

    @pytest.mark.parametrize("name", sorted(dg.BUILTIN_COMPLEXES))
    def test_class_coordinates_reject_a_cochain_that_is_not_closed(self, name):
        cx = dg.BUILTIN_COMPLEXES[name]()
        rejected = 0
        for p in range(cx.dimension):
            h = dg.cohomology(cx, p)
            for i in range(cx.count(p)):
                c = dg.Cochain.basis(cx, p, i)
                if not dg.d(c).is_zero():
                    with pytest.raises(ValidationError, match="not closed"):
                        h.class_coordinates(c)
                    rejected += 1
        assert rejected > 0


class TestOmegaDisc:
    def test_zero_argument(self):
        t2 = dg.torus_complex(2)
        coords = dg.omega_disc(t2, dg.Cochain(t2, 1, [0] * t2.count(1)), dg.Cochain.basis(t2, 1, 0))
        assert not any(coords)

    def test_self_pairing_projects_to_zero_in_cohomology(self):
        rng = random.Random(2)
        t2 = dg.torus_complex(2)
        h2 = dg.cohomology(t2, 2)
        for _ in range(10):
            alpha = rand_cochain(rng, t2, 1, closed=True)
            square = dg.cup(alpha, alpha)
            assert all(x == 0 for x in h2.class_coordinates(square))

    def test_generator_pairing_nonzero(self):
        t2 = dg.torus_complex(2)
        z = dg.cohomology(t2, 1).cocycles
        alpha = dg.Cochain(t2, 1, z.basis.col(0))
        beta = dg.Cochain(t2, 1, z.basis.col(1))
        assert any(dg.omega_disc(t2, alpha, beta))

    def test_antisymmetric_mod_coboundaries(self):
        rng = random.Random(3)
        t3 = dg.torus_complex(3)
        quot = dg.CochainQuotient(t3, 2)
        for _ in range(10):
            alpha = rand_cochain(rng, t3, 1, closed=True)
            beta = rand_cochain(rng, t3, 1, closed=True)
            total = dg.cup(alpha, beta) + dg.cup(beta, alpha)
            assert quot.is_coboundary(total)

    def test_kernel_reported_on_coarse_complexes(self):
        assert dg.omega_kernel(dg.torus_complex(2)).dim == 1
        assert dg.omega_kernel(dg.torus_complex(3)).dim == 1
        assert dg.omega_kernel(dg.interval_complex()) == Subspace.full(1)


class TestGaugeMoment:
    def test_closed_connection_gives_zero_functional(self):
        rng = random.Random(4)
        for name in ("torus2", "torus3", "sphere2"):
            cx = dg.BUILTIN_COMPLEXES[name]()
            assert dg.gauge_moment(cx, rand_cochain(rng, cx, 1, closed=True)).is_zero()

    def test_constant_test_function_scales_curvature(self):
        rng = random.Random(5)
        cx = dg.sphere_complex(2)
        a = rand_cochain(rng, cx, 1)
        moment = dg.gauge_moment(cx, a)
        quot = dg.CochainQuotient(cx, 2)
        da = dg.d(a)
        ones = dg.Cochain(cx, 0, (1,) * cx.count(0))
        assert moment.apply(ones.values) == quot.coords(da)

    def test_moment_identity_exact_on_builtins(self):
        for name in ("interval", "torus2", "torus3", "sphere2", "sphere3"):
            assert dg.check_gauge_moment_identity(dg.BUILTIN_COMPLEXES[name]())

    def test_single_vertex_complexes_have_vanishing_functional(self):
        # only constant test functions exist, and curvature cup a constant
        # is a coboundary; the honest nonzero case needs more vertices
        rng = random.Random(6)
        t3 = dg.torus_complex(3)
        for _ in range(5):
            assert dg.gauge_moment(t3, rand_cochain(rng, t3, 1)).is_zero()

    def test_zero_sets(self):
        iv = dg.interval_complex()
        assert dg.moment_zero_set(iv).zero_set == Subspace.full(1)
        for name in ("torus2", "torus3", "sphere2", "sphere3"):
            report = dg.moment_zero_set(dg.BUILTIN_COMPLEXES[name]())
            assert report.contains_cocycles

    def test_sphere2_zero_set_strictly_contains_cocycles(self):
        # even with non-constant test functions the coarse level set stays
        # strictly larger than the closed cochains; the report records this
        report = dg.moment_zero_set(dg.sphere_complex(2))
        assert report.contains_cocycles
        assert not report.equals_cocycles
        assert (report.zero_set.dim, report.cocycles.dim) == (5, 3)


class TestGridTorus:
    def test_grid_carries_nonzero_moment_functional(self):
        grid = grid_torus(2, 3)
        assert grid.counts == (8, 56, 96, 48)
        betti1 = dg.cohomology(grid, 1).betti
        assert betti1 == 3
        rng = random.Random(3)
        a = rand_cochain(rng, grid, 1)
        assert not dg.d(a).is_zero()
        assert not dg.gauge_moment(grid, a).is_zero()


class TestReduceGauge:
    @pytest.mark.parametrize(
        "name,b1", [("torus2", 2), ("torus3", 3), ("sphere2", 0), ("sphere3", 0)]
    )
    def test_carrier_dimensions(self, name, b1):
        red = dg.reduce_gauge(dg.BUILTIN_COMPLEXES[name]())
        assert red.carrier.betti == b1
        assert red.carrier.betti == oracle_betti(dg.BUILTIN_COMPLEXES[name](), 1)

    def test_torus2_pairing_skew_rank_two(self):
        red = dg.reduce_gauge(dg.torus_complex(2))
        p = red.pairing[0]
        assert p.transpose() == -p
        assert p[0, 1] != 0

    def test_torus3_pairing_nondegenerate(self):
        red = dg.reduce_gauge(dg.torus_complex(3))
        assert len(red.pairing) == 3
        for p in red.pairing:
            assert p.transpose() == -p
        assert red.pairing_kernel().is_zero()

    def test_sphere3_has_no_pairing_components(self):
        red = dg.reduce_gauge(dg.sphere_complex(3))
        assert red.pairing == ()
        assert red.pairing_kernel() == Subspace.full(0)

    def test_without_second_cohomology_all_of_h1_is_the_pairing_kernel(self):
        circle = dg.DeltaComplex({0: [(0,)], 1: [(0, 0)]}, faces={1: [(0, 0)]})
        red = dg.reduce_gauge(circle)
        assert (red.carrier.betti, red.pairing) == (1, ())
        assert red.pairing_kernel() == Subspace.full(1)

    def test_pairing_independent_of_representatives(self):
        # evaluating on arbitrary closed representatives agrees with the
        # stored pairing of their classes
        rng = random.Random(9)
        for name in ("torus2", "torus3"):
            cx = dg.BUILTIN_COMPLEXES[name]()
            red = dg.reduce_gauge(cx)
            h1, h2 = red.carrier, red.target
            for _ in range(10):
                z1 = rand_cochain(rng, cx, 1, closed=True)
                z2 = rand_cochain(rng, cx, 1, closed=True)
                x1 = h1.class_coordinates(z1)
                x2 = h1.class_coordinates(z2)
                direct = h2.class_coordinates(dg.cup(z1, z2))
                via_pairing = tuple(
                    sum(
                        (p[i, j] * x1[i] * x2[j] for i in range(h1.betti) for j in range(h1.betti)),
                        F(0),
                    )
                    for p in red.pairing
                )
                assert direct == via_pairing

    def test_gauge_invariance_of_cup_values(self):
        rng = random.Random(10)
        for name in ("torus2", "torus3"):
            cx = dg.BUILTIN_COMPLEXES[name]()
            for _ in range(25):
                alpha = rand_cochain(rng, cx, 1, closed=True)
                beta = rand_cochain(rng, cx, 1, closed=True)
                gamma = rand_cochain(rng, cx, 0)
                shifted = alpha + dg._d_extended(gamma)
                assert dg.omega_disc(cx, shifted, beta) == dg.omega_disc(cx, alpha, beta)


class TestLagrangianCheck:
    def test_sphere3_report(self):
        report = dg.lagrangian_check(dg.sphere_complex(3))
        assert report.h2_trivial
        assert report.z1_dim == 4
        assert report.z1_is_lagrangian is False
        assert report.orthogonal_dim == 7

    def test_torus2_skipped(self):
        report = dg.lagrangian_check(dg.torus_complex(2))
        assert not report.h2_trivial
        assert report.z1_is_lagrangian is None

    def test_interval_everything_isotropic(self):
        report = dg.lagrangian_check(dg.interval_complex())
        assert report.h2_trivial
        assert report.orthogonal_dim == 1
        assert report.z1_is_lagrangian is True


# Reference path for the cup-form routines: every matrix is assembled from
# pairwise products taken straight off the face maps, each projected through a
# freshly built C^2/B^2 quotient, as the routines did before they read the
# complex's cached cup table and quotient.

def pairwise_cup(a, b):
    cx, p, q = a.complex, a.degree, b.degree
    return dg.Cochain(cx, p + q, [
        a.values[cx.front_face(p + q, s, p)] * b.values[cx.back_face(p + q, s, q)]
        for s in range(cx.count(p + q))
    ])


def stacked(columns, rows):
    """Matrix with the given columns, or the zero-row matrix when there are no rows."""
    return Matrix(list(zip(*columns))) if rows else Matrix.zeros(0, len(columns))


def reference_omega_kernel(cx):
    q = dg.CochainQuotient(cx, 2)
    n1 = cx.count(1)
    edges = [dg.Cochain.basis(cx, 1, m) for m in range(n1)]
    cols = [[x for eb in edges for x in q.coords(pairwise_cup(em, eb))] for em in edges]
    return kernel(stacked(cols, q.dim * n1))


def reference_gauge_moment(cx, a):
    q = dg.CochainQuotient(cx, 2)
    da = dg._d_extended(a)
    cols = [q.coords(pairwise_cup(da, dg.Cochain.basis(cx, 0, j))) for j in range(cx.count(0))]
    return stacked(cols, q.dim)


def reference_curvature_moments(cx):
    """Columns alpha = e_m of alpha -> (coords(d alpha cup f_j), coords(alpha cup d f_j))."""
    q = dg.CochainQuotient(cx, 2)
    tests = [dg.Cochain.basis(cx, 0, j) for j in range(cx.count(0))]
    lhs, rhs = [], []
    for m in range(cx.count(1)):
        em = dg.Cochain.basis(cx, 1, m)
        lhs.append([x for f in tests for x in q.coords(pairwise_cup(dg._d_extended(em), f))])
        rhs.append([x for f in tests for x in q.coords(pairwise_cup(em, dg._d_extended(f)))])
    rows = q.dim * len(tests)
    return stacked(lhs, rows), stacked(rhs, rows)


def reference_lagrangian_orthogonal(cx):
    q = dg.CochainQuotient(cx, 2)
    z1 = kernel(cx.coboundary_matrix(1))
    closed = [dg.Cochain(cx, 1, z1.basis.col(a)) for a in range(z1.dim)]
    cols = [
        [x for z in closed for x in q.coords(pairwise_cup(z, dg.Cochain.basis(cx, 1, m)))]
        for m in range(cx.count(1))
    ]
    return kernel(stacked(cols, q.dim * z1.dim))


def reference_reduction(cx):
    """(gauge invariant, pairing matrices) from pairwise products of the
    harmonic representatives."""
    q = dg.CochainQuotient(cx, 2)
    h1 = dg.cohomology(cx, 1)
    reps = [dg.Cochain(cx, 1, h1.harmonic_section.col(j)) for j in range(h1.betti)]
    invariant = all(
        q.is_coboundary(pairwise_cup(dg._d_extended(dg.Cochain.basis(cx, 0, j)), h))
        for j in range(cx.count(0))
        for h in reps
    )
    if cx.dimension < 2:
        return invariant, ()
    h2 = dg.cohomology(cx, 2)
    coords = [[h2.class_coordinates(pairwise_cup(a, b)) for b in reps] for a in reps]
    pairing = tuple(
        Matrix([[coords[a][b][c] for b in range(h1.betti)] for a in range(h1.betti)])
        for c in range(h2.betti)
    )
    return invariant, pairing


def laid_out(table, rows, cols):
    """The `_cup_rows` table as a rows x cols matrix: every key is a row
    index, no held row is empty, and the rows it leaves out are zero."""
    held, den = table
    assert all(0 <= r < rows and entries for r, entries in held.items())
    return Matrix._of_integers([held.get(r, {}) for r in range(rows)], cols, den)


DIFFERENTIAL_COMPLEXES = sorted(dg.BUILTIN_COMPLEXES) + ["grid3^2"]


def differential_complex(name):
    return grid_torus(3, 2) if name == "grid3^2" else dg.BUILTIN_COMPLEXES[name]()


class TestCupTableAgainstPairwiseProducts:
    @pytest.mark.parametrize("name", DIFFERENTIAL_COMPLEXES)
    def test_cup_matches_pairwise_products(self, name):
        cx = differential_complex(name)
        rng = random.Random(11)
        for p in range(cx.dimension + 1):
            for q in range(cx.dimension + 1 - p):
                a, b = rand_cochain(rng, cx, p), rand_cochain(rng, cx, q)
                assert dg.cup(a, b) == pairwise_cup(a, b)

    @pytest.mark.parametrize("name", DIFFERENTIAL_COMPLEXES)
    def test_routines_match_reference(self, name):
        cx = differential_complex(name)
        assert dg.omega_kernel(cx) == reference_omega_kernel(cx)
        rng = random.Random(12)
        for _ in range(3):
            a = rand_cochain(rng, cx, 1)
            assert dg.gauge_moment(cx, a) == reference_gauge_moment(cx, a)
        lhs, rhs = reference_curvature_moments(cx)
        curvature = dg._cup_rows(cx, 2, 0, cx.coboundary_matrix(1), Matrix.identity(cx.count(0)), by_right=True)
        assert laid_out(curvature, lhs.rows, cx.count(1)) == lhs
        assert dg.check_gauge_moment_identity(cx) == (lhs == rhs)
        assert dg.moment_zero_set(cx).zero_set == kernel(lhs)
        report = dg.lagrangian_check(cx)
        if report.h2_trivial:
            orth = reference_lagrangian_orthogonal(cx)
            assert report.orthogonal_dim == orth.dim
            assert report.z1_is_lagrangian == (orth == kernel(cx.coboundary_matrix(1)))
        invariant, pairing = reference_reduction(cx)
        assert invariant
        assert dg.reduce_gauge(cx).pairing == pairing

    def test_checks_reject_a_corrupted_cup(self, monkeypatch):
        # Both identities hold on every valid complex, so the checks are
        # exercised through a cup table of edges whose back faces are wrong.
        cx = grid_torus(3, 2)
        valid = cx.cup_table
        corrupted = tuple((f, f) for f, _ in valid(1, 1))
        monkeypatch.setattr(cx, "cup_table", lambda p, q: corrupted if (p, q) == (1, 1) else valid(p, q))
        assert not dg.check_gauge_moment_identity(cx)
        with pytest.raises(ContractViolation, match="not gauge invariant"):
            dg.reduce_gauge(cx)

    def test_invariance_check_rejects_a_product_that_is_not_closed(self, monkeypatch):
        # With every class coordinate read as zero, only the rows of d^2 can
        # notice that the corrupted products leave Z^2.
        cx = grid_torus(2, 3)
        valid = cx.cup_table
        corrupted = tuple((f, f) for f, _ in valid(1, 1))
        monkeypatch.setattr(cx, "cup_table", lambda p, q: corrupted if (p, q) == (1, 1) else valid(p, q))
        blind = property(lambda self: Matrix.zeros(self.betti, self.cocycles.ambient_dim))
        monkeypatch.setattr(dg.CohomologyPresentation, "projector", blind)
        with pytest.raises(ContractViolation, match="not gauge invariant"):
            dg.reduce_gauge(cx)

    @pytest.mark.parametrize("trials", [3, SUITES["lagrangian-sphere3"].trials])
    def test_lagrangian_suite_rejects_a_corrupted_cup(self, monkeypatch, trials):
        # Closed pairs on sphere3 cup to coboundaries; with back faces read as
        # front faces their products leave B^2 and the suite fails.
        build = dg.BUILTIN_COMPLEXES["sphere3"]

        def corrupted():
            cx = build()
            valid = cx.cup_table
            table = tuple((f, f) for f, _ in valid(1, 1))
            cx.cup_table = lambda p, q: table if (p, q) == (1, 1) else valid(p, q)
            return cx

        assert run_suite("lagrangian-sphere3", seed=0, trials=trials).passed
        monkeypatch.setitem(dg.BUILTIN_COMPLEXES, "sphere3", corrupted)
        result = run_suite("lagrangian-sphere3", seed=0, trials=trials)
        assert [c.passed for c in result.checks] == [True, False]

    def test_closed_draws_build_no_cohomology_presentation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a quotient was built")

        cx = dg.torus_complex(3)
        monkeypatch.setattr(dg, "quotient", refuse)
        alpha = rand_cochain(random.Random(16), cx, 1, closed=True)
        assert dg.d(alpha).is_zero()

    def test_quotient_built_once_per_complex(self, monkeypatch):
        """So is the curvature table, which the moment zero set and the
        moment identity share."""
        builds, curvature_builds = [], []
        original = dg.CochainQuotient.__init__
        cup_rows = dg._cup_rows

        def counting(self, cx, degree=2):
            builds.append(cx)
            original(self, cx, degree)

        def counting_rows(cx, p, q, left, right, by_right=False, proj=None):
            if (p, q, by_right) == (2, 0, True):
                curvature_builds.append(cx)
            return cup_rows(cx, p, q, left, right, by_right, proj)

        monkeypatch.setattr(dg.CochainQuotient, "__init__", counting)
        monkeypatch.setattr(dg, "_cup_rows", counting_rows)
        cx = dg.torus_complex(3)
        rng = random.Random(13)
        dg.omega_disc(cx, rand_cochain(rng, cx, 1, closed=True), rand_cochain(rng, cx, 1, closed=True))
        dg.omega_kernel(cx)
        dg.gauge_moment(cx, rand_cochain(rng, cx, 1))
        dg.moment_zero_set(cx)
        dg.check_gauge_moment_identity(cx)
        dg.reduce_gauge(cx)
        dg.lagrangian_check(cx)
        assert builds == [cx]
        assert curvature_builds == [cx]
        assert dg.cohomology(cx, 2) is dg.cohomology(cx, 2)

    @pytest.mark.parametrize("name", ["torus3", "grid2^3"])
    def test_each_cochain_space_is_eliminated_once(self, monkeypatch, name):
        import polysym.exactla as ea

        cx = dg.torus_complex(3) if name == "torus3" else grid_torus(2, 3)
        calls = []
        original = ea.rref
        monkeypatch.setattr(ea, "rref", lambda *a, **k: calls.append(a[0].shape) or original(*a, **k))
        for p in range(cx.dimension + 1):
            start = len(calls)
            z = dg.cohomology(cx, p).cocycles
            # Below the top, Z^p is smaller than C^p, and H^p reads d^(p-1)'s
            # rows only at Z^p's pivots: the one elimination as wide as C^p
            # is d^p's, whose kernel is Z^p, and none has the whole-space
            # shape of d^(p-1) transposed. At the top Z^p = C^p, so the
            # rows' kernel is taken in C^p; degree 0 has no rows.
            if 0 < p < cx.dimension:
                assert z.dim < cx.count(p)
                assert [s for s in calls[start:] if s[1] == cx.count(p)] == [(cx.count(p + 1), cx.count(p))]
        dg.reduce_gauge(cx)
        zero_set = dg.moment_zero_set(cx)
        dg.lagrangian_check(cx)
        rng = random.Random(15)
        dg.omega_disc(cx, rand_cochain(rng, cx, 1, closed=True), rand_cochain(rng, cx, 1, closed=True))
        # Per degree: the kernel Z^p, and the H^p quotient's kernel of
        # d^(p-1)'s rows at Z^p's pivots: 2 x 4 = 8. Then the C^2/B^2
        # quotient's kernel of d^1's rows in the whole space: 1. Then the
        # moment kernel and one containment: 2. 8 + 1 + 2 = 11; every
        # projector comes with its quotient, and no elimination is wider
        # than the largest cochain count.
        assert len(calls) <= 11
        assert max(cols for _, cols in calls) <= max(cx.counts)
        assert zero_set.cocycles is cx.cocycles(1) is dg.cohomology(cx, 1).cocycles
        # Both quotients are by the same rows, so they have the same codimension.
        assert cx.count(2) - cx.cup_quotient.dim == cx.cocycles(2).dim - dg.cohomology(cx, 2).betti

    def test_dropped_complex_is_freed_without_the_cycle_collector(self):
        import gc
        import weakref

        cx = dg.torus_complex(3)
        rng = random.Random(14)
        dg.omega_disc(cx, rand_cochain(rng, cx, 1, closed=True), rand_cochain(rng, cx, 1, closed=True))
        dg.reduce_gauge(cx)
        ref = weakref.ref(cx)
        gc.disable()
        try:
            del cx
            assert ref() is None
        finally:
            gc.enable()


# The cohomology presentations, the whole-space C^2/B^2 quotient and the
# gauge reduction against one dense elimination of [sub | ambient | I] per quotient
# (tests/_oracles.py), with the invariance check read through C^2/B^2. The
# sub is B^p in the whole cochain space, the oracle span of d's columns; d's
# own rows, read at Z^p's pivot columns, must span that B^p read there, and
# every quotient must meet the conditions that define the greedy quotient.
# On the builtins and grids 2^3 and 3^3 both oracles run, so they check each
# other; on grid 4^3 only the greedy conditions do, and the cup products are
# read through the quotients they accept.

ORACLE_COMPLEXES = sorted(dg.BUILTIN_COMPLEXES) + ["grid2^3", "grid3^3", "grid4^3"]
CERTIFIED_ONLY = {"grid4^3"}


@pytest.mark.parametrize("name", ORACLE_COMPLEXES)
def test_gauge_layer_matches_the_three_block_quotients(name):
    from _oracles import check_greedy_quotient, three_block_quotient

    cx = grid_torus(int(name[4]), 3) if name.startswith("grid") else dg.BUILTIN_COMPLEXES[name]()
    dense = name not in CERTIFIED_ONLY
    oracles = []
    for p in range(cx.dimension + 1):
        h, b = dg.cohomology(cx, p), coboundary_space(cx, p)
        rows = dg._coboundary_rows(cx, p)
        assert rows.rows == b.dim and Subspace.from_vectors(cx.count(p), rows.entries) == b
        assert check_greedy_quotient(h.presentation, rows) == []
        at_rows, at_b = (pivot_coordinates(h.cocycles, m)[1] for m in (rows, b.echelon))
        assert Subspace.from_vectors(h.cocycles.dim, at_rows.entries) == Subspace.from_vectors(h.cocycles.dim, at_b.entries)
        if dense:
            oracle = three_block_quotient(h.cocycles, b)
            assert h.harmonic_section == oracle.section
            assert h.betti == oracle.section.cols
            assert h.projector @ h.cocycles.basis == oracle.projector @ h.cocycles.basis
            oracles.append(oracle)
    assert check_greedy_quotient(cx.cup_quotient.presentation, dg._coboundary_rows(cx, 2)) == []
    cup = cx.cup_quotient.presentation
    if dense:
        cup = three_block_quotient(Subspace.full(cx.count(2)), coboundary_space(cx, 2))
        assert (cx.cup_quotient.presentation.section, cx.cup_quotient.presentation.projector) == (
            cup.section, cup.projector)
    reps = dg.cohomology(cx, 1).harmonic_section
    assert dg._cup_rows(cx, 1, 1, cx.coboundary_matrix(0), reps, proj=cup.projector)[0] == {}
    pairing = dg.reduce_gauge(cx).pairing
    if cx.dimension < 2:
        assert pairing == ()
        return
    h2 = dg.cohomology(cx, 2)
    proj = oracles[2].projector if dense else h2.projector
    b1, b2 = reps.cols, h2.betti
    products = laid_out(dg._cup_rows(cx, 1, 1, reps, reps, proj=proj), b1 * b2, b1)
    assert pairing == tuple(products._row_block(range(c, b1 * b2, b2)) for c in range(b2))
    if name.startswith("grid"):
        assert [dg.cohomology(cx, p).betti for p in range(4)] == [1, 3, 3, 1]


class TestGridTorusCubed:
    """Grid 2^3, beyond what the pairwise products could assemble in test time."""

    def test_moment_identity_and_omega_kernel(self):
        cx = grid_torus(2, 3)
        assert dg.check_gauge_moment_identity(cx)
        ker = dg.omega_kernel(cx)
        assert 0 < ker.dim < cx.count(1)
        # Membership in B^2, checked independently of the quotient: a
        # coboundary is annihilated by every cycle, i.e. by ker(d1^T).
        cycles = annihilator(coboundary_space(cx, 2)).basis.columns()
        for j in range(ker.dim):
            k = dg.Cochain(cx, 1, ker.basis.col(j))
            for b in range(cx.count(1)):
                product = pairwise_cup(k, dg.Cochain.basis(cx, 1, b)).values
                support = [(s, x) for s, x in enumerate(product) if x]
                assert all(sum((z[s] * x for s, x in support), F(0)) == 0 for z in cycles)


@pytest.mark.parametrize("name", sorted(dg.BUILTIN_COMPLEXES))
def test_rand_cochain_draws(name):
    cx = dg.BUILTIN_COMPLEXES[name]()
    rng, replay = random.Random(9), random.Random(9)
    closed = rand_cochain(rng, cx, 1, closed=True)
    z1 = dg.cohomology(cx, 1).cocycles
    coeffs = [F(replay.randint(-3, 3)) for _ in range(z1.dim)]
    assert closed.values == z1.basis.apply(coeffs)
    if cx.dimension > 1:
        assert dg.d(closed).is_zero()
    plain = rand_cochain(rng, cx, 0)
    assert plain.values == tuple(F(replay.randint(-3, 3)) for _ in range(cx.count(0)))
    assert rng.getstate() == replay.getstate()


@pytest.mark.parametrize("name", ["torus3", "sphere3", "grid3^2"])
def test_the_gauge_layer_multiplies_no_matrices(monkeypatch, name):
    """Cohomology, the cup form's kernels, the moment map and the gauge
    reduction all work on rows: none of them calls `Matrix @`."""
    cx = differential_complex(name)
    calls = []
    original = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda self, other: calls.append(other.shape) or original(self, other))
    for p in range(cx.dimension + 1):
        dg.cohomology(cx, p)
    dg.reduce_gauge(cx)
    dg.omega_kernel(cx)
    dg.moment_zero_set(cx)
    assert dg.check_gauge_moment_identity(cx)
    dg.gauge_moment(cx, dg.Cochain.basis(cx, 1, 0))
    dg.lagrangian_check(cx)
    assert calls == []


@pytest.mark.parametrize("name", ["grid3^3", "sphere3"])
def test_cup_kernels_eliminate_only_the_rows_products_reach(monkeypatch, name):
    """`omega_kernel`, `moment_zero_set` and `lagrangian_check` hand `kernel`
    no empty row, so fewer rows than the blocks x k a laid-out cup matrix
    would have."""
    cx = grid_torus(3, 3) if name == "grid3^3" else dg.BUILTIN_COMPLEXES[name]()
    for p in range(cx.dimension + 1):
        dg.cohomology(cx, p)
    k = cx.cup_quotient.dim
    handed = []
    monkeypatch.setattr(dg, "kernel", lambda m: handed.append(m) or kernel(m))
    dg.omega_kernel(cx)
    dg.moment_zero_set(cx)
    report = dg.lagrangian_check(cx)
    laid_out_rows = [cx.count(1) * k, cx.count(0) * k] + ([cx.cocycles(1).dim * k] if report.h2_trivial else [])
    assert [m.cols for m in handed] == [cx.count(1)] * len(laid_out_rows)
    assert all(m.rows < rows for m, rows in zip(handed, laid_out_rows))
    assert all(nums for m in handed for nums, _ in m._ints)
