import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysym import liealg as la
from polysym.errors import ContractViolation, ValidationError
from polysym import polycore
from polysym.exactla import Matrix, Subspace, intersect
from polysym.polycore import classify, linear_reduce, orthogonal
from polysym.randgen import rand_subspace, rand_vector

from _oracles import (
    ad_row_components,
    dense_ad,
    dense_bracket,
    dense_jacobi_error,
    dense_structure,
    flat,
    fraction_apply,
    fraction_rref,
    looped_displacements,
    looped_moment_images,
    looped_rotations,
    so3_log,
    stacked_center,
    stacked_centralizer,
)


def span(n, *vecs):
    return Subspace.from_vectors(n, vecs)


def moment(g, xi):
    """Left-regular moment Ad_{g^-1} xi = unhat(g^T hat(xi) g) of a rotation
    or a (N, 3, 3) stack of them."""
    return la.unhat(np.swapaxes(g, -1, -2) @ la.hat(xi) @ g)


class TestConstruction:
    def test_antisymmetry_filled_in(self):
        g = la.so3()
        assert g.ad((1, 0, 0)).apply((0, 1, 0)) == (F(0), F(0), F(1))
        assert g.ad((0, 1, 0)).apply((1, 0, 0)) == (F(0), F(0), F(-1))

    def test_jacobi_enforced(self):
        # [e1,e2]=e1 and [e1,e3]=e2 cannot satisfy the cyclic identity
        with pytest.raises(ValidationError):
            la.LieAlgebra.from_triples(3, [(1, 2, 1, 1), (1, 3, 2, 1)])

    def test_jacobi_on_fractional_constants_reports_the_dense_first_triple(self):
        # so3 with constants 1/2, 1/3, 1/5 on e1..e3 is a Lie algebra; the
        # pairs among e2, e4, e5 break the identity, first on (1,3,4).
        so3_part = [(1, 2, 3, F(1, 2)), (2, 3, 1, F(1, 3)), (3, 1, 2, F(1, 5))]
        broken = so3_part + [(2, 4, 4, F(1, 2)), (2, 5, 5, F(-1, 3)), (4, 5, 1, F(2, 5))]
        la.LieAlgebra.from_triples(5, so3_part)
        error = dense_jacobi_error(dense_structure(5, broken))
        assert error == "Jacobi identity fails on basis triple (1,3,4)"
        with pytest.raises(ValidationError) as caught:
            la.LieAlgebra.from_triples(5, broken)
        assert str(caught.value) == error

    def test_index_range_checked(self):
        with pytest.raises(ValidationError):
            la.LieAlgebra.from_triples(2, [(1, 3, 1, 1)])


class TestCenter:
    def test_so3_centerless(self):
        assert la.center(la.so3()).is_zero()

    def test_abelian_center_is_everything(self):
        assert la.center(la.LieAlgebra(3, {})) == Subspace.full(3)

    def test_heisenberg_center(self):
        assert la.center(la.LieAlgebra.from_triples(*la.BUILTIN_TRIPLES["heisenberg"])) == span(3, (0, 0, 1))


class TestBracketForm:
    def test_so3_gives_cross_product(self):
        form = la.bracket_form(la.so3())
        assert form.evaluate((1, 0, 0), (0, 1, 0)) == (F(0), F(0), F(1))
        assert form.is_nondegenerate()

    def test_sl2_nondegenerate(self):
        assert la.bracket_form(la.sl2()).is_nondegenerate()

    def test_center_obstructs(self):
        with pytest.raises(ContractViolation):
            la.bracket_form(la.LieAlgebra.from_triples(*la.BUILTIN_TRIPLES["heisenberg"]))


class TestCentralizer:
    def test_so3_line(self):
        line = span(3, (1, 0, 0))
        assert la.centralizer(la.so3(), line) == line

    def test_sl2_cartan_self_centralizing(self):
        h = span(3, (1, 0, 0))
        assert la.centralizer(la.sl2(), h) == h

    def test_zero_subspace(self):
        assert la.centralizer(la.so3(), Subspace.zero(3)) == Subspace.full(3)

    def test_equals_bracket_orthogonal_when_centerless(self):
        rng = random.Random(12)
        for g in (la.so3(), la.sl2()):
            form = la.bracket_form(g)
            for _ in range(25):
                a = rand_subspace(rng, 3)
                assert la.centralizer(g, a) == orthogonal(form, a)

    def test_works_with_center(self):
        h = la.LieAlgebra.from_triples(*la.BUILTIN_TRIPLES["heisenberg"])
        assert la.centralizer(h, span(3, (1, 0, 0))) == span(3, (1, 0, 0), (0, 0, 1))


ALGEBRAS = {
    "so3": la.so3,
    "sl2": la.sl2,
    "heisenberg": lambda: la.LieAlgebra.from_triples(*la.BUILTIN_TRIPLES["heisenberg"]),
    "abelian4": lambda: la.LieAlgebra(4, {}),
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
class TestJointKernelMatchesStackedLoops:
    def test_center_is_the_centralizer_of_the_whole_algebra(self, name, monkeypatch):
        # Two routes: the center reads the bracket form's components and
        # builds no ad matrix; the centralizer is built from ad.
        g = ALGEBRAS[name]()
        with monkeypatch.context() as patched:
            patched.setattr(la.LieAlgebra, "ad", lambda self, x: pytest.fail("center built an ad matrix"))
            center = la.center(g)
        assert center == la.centralizer(g, Subspace.full(g.dim))
        assert center == stacked_center(g)

    def test_centralizer(self, name):
        g = ALGEBRAS[name]()
        rng = random.Random(8)
        subspaces = [Subspace.zero(g.dim), Subspace.full(g.dim)] + [rand_subspace(rng, g.dim) for _ in range(12)]
        for a in subspaces:
            assert la.centralizer(g, a) == stacked_centralizer(g, a)


class TestLieReduce:
    def test_so3_lines_reduce_to_points(self):
        rng = random.Random(3)
        for _ in range(10):
            v = tuple(F(rng.randint(-3, 3)) for _ in range(3))
            if all(x == 0 for x in v):
                continue
            assert la.lie_reduce(la.so3(), span(3, v)).carrier.dim == 0

    def test_sl2_cartan_reduces_to_point(self):
        assert la.lie_reduce(la.sl2(), span(3, (1, 0, 0))).carrier.dim == 0

    def test_full_algebra_reduces_to_point(self):
        for g in (la.so3(), la.sl2()):
            assert la.lie_reduce(g, Subspace.full(3)).carrier.dim == 0

    def test_descent_check_sees_a_wrong_orthogonal(self, monkeypatch):
        # The cross product's orthogonal of e1 is the line e1. With the whole
        # space in its place the carrier keeps e2 and e3, which pair with e1.
        monkeypatch.setattr(polycore, "orthogonal", lambda omega, a: Subspace.full(omega.dim_u))
        with pytest.raises(ContractViolation, match="descent to the quotient failed"):
            linear_reduce(la.bracket_form(la.so3()), span(3, (1, 0, 0)))


class TestIsotropicMeansAbelian:
    def test_on_direct_sum(self):
        g = la.algebra_direct_sum(la.so3(), la.so3())
        form = la.bracket_form(g)
        rng = random.Random(8)
        hits = 0
        for _ in range(60):
            d = rng.randint(0, 3)
            a = Subspace.from_vectors(6, [rand_vector(rng, 6) for _ in range(d)])
            brackets_vanish = all(
                all(x == 0 for x in g.ad(a.basis.col(i)).apply(a.basis.col(j)))
                for i in range(a.dim)
                for j in range(a.dim)
            )
            assert classify(form, a).isotropic == brackets_vanish
            hits += brackets_vanish
        assert hits > 0  # the sample includes genuinely abelian subspaces


# The bracket table against the dense dim^3 reference (tests/_oracles.py):
# raw triples with repeated, cancelling and i == j entries, and images of sums
# of builtin algebras under a random change of basis.

_constants = st.integers(-3, 3) | st.builds(F, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def _raw_triples(draw):
    dim = draw(st.integers(1, 6))
    index = st.integers(1, dim)
    base = draw(st.lists(st.tuples(index, index, index, _constants), max_size=6))
    extra = []
    if base:
        extra += draw(st.lists(st.sampled_from(base), max_size=2))
        extra += [(i, j, k, -c) for i, j, k, c in draw(st.lists(st.sampled_from(base), max_size=2))]
    extra += [(i, i, k, c) for i, k, c in draw(st.lists(st.tuples(index, index, _constants), max_size=1))]
    return dim, draw(st.permutations(base + extra))


@st.composite
def _changed_basis_triples(draw):
    """Triples of so3, sl2 or heisenberg sums (dim 3 or 6) in the basis
    f_a = sum_i P[i][a] e_i, with P = L D U for unit triangular integer L, U
    and a nonzero diagonal D, so P is invertible and 1/det P brings p/q
    constants."""
    names = draw(st.lists(st.sampled_from(sorted(la.BUILTIN_TRIPLES)), min_size=1, max_size=2))
    dim, triples = 0, []
    for name in names:
        n, part = la.BUILTIN_TRIPLES[name]
        triples += [(i + dim, j + dim, k + dim, c) for i, j, k, c in part]
        dim += n
    entry = st.integers(-1, 1)
    lower = [[1 if i == j else draw(entry) if i > j else 0 for j in range(dim)] for i in range(dim)]
    upper = [[1 if i == j else draw(entry) if i < j else 0 for j in range(dim)] for i in range(dim)]
    diag = [draw(st.sampled_from([-2, -1, 1, 2])) for _ in range(dim)]
    p = [[sum(lower[i][m] * diag[m] * upper[m][j] for m in range(dim)) for j in range(dim)] for i in range(dim)]
    augmented = [row + [int(i == j) for j in range(dim)] for i, row in enumerate(p)]
    inverse = [row[dim:] for row in fraction_rref(augmented, 2 * dim)[0]]
    grids = dense_structure(dim, triples)
    cols = [[p[i][a] for i in range(dim)] for a in range(dim)]
    changed = []
    for a in range(dim):
        for b in range(a + 1, dim):
            coords = fraction_apply(inverse, dense_bracket(grids, cols[a], cols[b]))
            changed += [(a + 1, b + 1, k + 1, c) for k, c in enumerate(coords) if c]
    return dim, changed


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(_raw_triples(), _changed_basis_triples()), st.data())
def test_bracket_table_matches_the_dense_reference(case, data):
    dim, triples = case
    grids = dense_structure(dim, triples)
    error = dense_jacobi_error(grids)
    if error is not None:
        with pytest.raises(ValidationError) as caught:
            la.LieAlgebra.from_triples(dim, triples)
        assert str(caught.value) == error
        return
    g = la.LieAlgebra.from_triples(dim, triples)
    assert g.components == tuple(Matrix(grid) for grid in grids)
    vector = st.lists(_constants, min_size=dim, max_size=dim)
    for x, y in data.draw(st.lists(st.tuples(vector, vector), min_size=1, max_size=3)):
        assert g.ad(x).apply(y) == dense_bracket(grids, x, y)
        assert g.ad(x).entries == dense_ad(grids, x)


def test_changed_bases_reach_accepted_algebras_with_fractions():
    """The changed-basis strategy is not vacuous: it yields valid algebras
    with non-integer constants."""
    found = []

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(_changed_basis_triples())
    def collect(case):
        dim, triples = case
        if dense_jacobi_error(dense_structure(dim, triples)) is None:
            found.append(any(F(c).denominator > 1 for *_, c in triples))

    collect()
    assert len(found) == 10 and any(found)


_builtin_triples = st.sampled_from(sorted(la.BUILTIN_TRIPLES)).map(la.BUILTIN_TRIPLES.get)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(_builtin_triples, _changed_basis_triples()), st.data())
def test_bracket_form_flat_is_ad_and_orthogonals_are_centralizers(case, data):
    """What lie_reduce relies on: the bracket form's flat at u is ad(u), so its
    orthogonal of a subspace is the centralizer, and the reduction's carrier
    is the centralizer modulo its meet with the subspace."""
    dim, triples = case
    g = la.LieAlgebra.from_triples(dim, triples)
    if not la.center(g).is_zero():
        with pytest.raises(ContractViolation):
            la.bracket_form(g)
        return
    form = la.bracket_form(g)
    vector = st.lists(_constants, min_size=dim, max_size=dim)
    for u in data.draw(st.lists(vector, min_size=1, max_size=3)):
        assert flat(form, u) == g.ad(u)
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    for a in [Subspace.zero(dim), Subspace.full(dim)] + [rand_subspace(rng, dim) for _ in range(3)]:
        cent = la.centralizer(g, a)
        assert orthogonal(form, a) == cent
        assert la.lie_reduce(g, a).carrier.dim == cent.dim - intersect(a, cent).dim


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(_builtin_triples, _changed_basis_triples()))
def test_components_are_the_rows_of_ad(case):
    """The table's dense components against row k of ad(e_i) per basis vector."""
    g = la.LieAlgebra.from_triples(*case)
    assert g.components == ad_row_components(g)


class TestGroupNumerics:
    def test_group_element_validation(self):
        with pytest.raises(ContractViolation):
            la.check_rotations(np.eye(3) * 1.5)
        with pytest.raises(ContractViolation):
            la.check_rotations(np.diag([1.0, 1.0, -1.0]))  # det -1

    def test_adjoint_identity(self):
        xi = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(moment(np.eye(3), xi), xi)

    def test_quarter_turn(self):
        rot = la.so3_exp(np.array([0, 0, np.pi / 2]))
        out = la.unhat(rot @ la.hat(np.array([1.0, 0.0, 0.0])) @ rot.T)
        assert np.linalg.norm(out - np.array([0.0, 1.0, 0.0])) < 1e-12

    def test_adjoint_preserves_norm(self):
        rng = np.random.default_rng(5)
        g = la.haar_so3(rng, 20)
        xi = rng.standard_normal((20, 3))
        moved = la.unhat(g @ np.stack([la.hat(v) for v in xi]) @ np.swapaxes(g, 1, 2))
        assert np.max(np.abs(np.linalg.norm(moved, axis=1) - np.linalg.norm(xi, axis=1))) < 1e-12

    def test_moment_is_inverse_adjoint(self):
        # hat(g v) = g hat(v) g^T, so the moment image of g is g^T xi.
        xi = np.array([0.4, -0.2, 0.9])
        g = np.concatenate(list(la.haar_blocks(50, 6)))
        assert np.max(np.abs(la.moment_images(xi, 50, seed=6) - g.transpose(0, 2, 1) @ xi)) < 1e-12

    def test_equivariance(self):
        # mu(hg)(xi) = Ad_{g^-1} mu(h)(xi) for the left-regular moment.
        rng = np.random.default_rng(7)
        xi = np.array([0.3, 0.5, -0.2])
        h, g = la.haar_so3(rng, 25), la.haar_so3(rng, 25)
        lhs = moment(h @ g, xi)
        rhs = la.unhat(np.swapaxes(g, 1, 2) @ np.stack([la.hat(v) for v in moment(h, xi)]) @ g)
        assert np.max(np.linalg.norm(lhs - rhs, axis=1)) < 1e-9

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            v = rng.uniform(-0.9, 0.9, 3)
            assert np.linalg.norm(so3_log(la.so3_exp(v)) - v) < 1e-9

    def test_haar_determinism(self):
        a = la.haar_so3(np.random.default_rng(42), 1)
        b = la.haar_so3(np.random.default_rng(42), 1)
        assert np.array_equal(a, b)


class TestArnold:
    def test_half_period_has_no_fixed_points(self):
        xi = np.array([0.0, 0.0, 2 * np.pi])
        rep = la.arnold_counterexample(xi, 0.5, 1000, seed=0)
        assert rep.fixed_points_found == 0

    def test_full_period_is_vacuous(self):
        with pytest.raises(ContractViolation):
            la.arnold_counterexample(np.array([0.0, 0.0, 2 * np.pi]), 1.0, 10, seed=0)

    def test_tiny_translation_still_free(self):
        rep = la.arnold_counterexample(np.array([0.0, 0.0, 2 * np.pi]), 1e-4, 500, seed=1)
        assert rep.fixed_points_found == 0


class TestConvexity:
    def test_image_on_sphere_with_interior_midpoint(self):
        rep = la.convexity_counterexample(np.array([1.0, 0.0, 0.0]), 1000, seed=0)
        assert rep.on_sphere
        assert rep.max_radius_error < 1e-9
        assert rep.midpoint_gap > 1e-6

    def test_antipodal_midpoint_is_zero(self):
        xi = np.array([1.0, 0.0, 0.0])
        p1, p2 = moment(np.array([np.eye(3), la.so3_exp(np.array([0.0, 0.0, np.pi]))]), xi)
        assert np.linalg.norm(0.5 * (p1 + p2)) < 1e-12

    def test_zero_direction_rejected(self):
        with pytest.raises(ContractViolation):
            la.convexity_counterexample(np.zeros(3), 10, seed=0)

    def test_distinct_points_have_positive_gap(self):
        rep = la.convexity_counterexample(np.array([0.0, 2.0, 0.0]), 200, seed=3)
        assert rep.midpoint_gap > 0
        assert abs(rep.sphere_radius - 2.0) < 1e-12


def full_gram_pair(points):
    """The most antipodal pair read off the whole N x N Gram matrix."""
    grams = points @ points.T
    np.fill_diagonal(grams, np.inf)
    i, j = np.unravel_index(np.argmin(grams), grams.shape)
    return (int(i), int(j)), grams[i, j]


ROWS = 256  # Gram rows per block in the scan tests


class TestMostAntipodalPair:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [2, 3, 50, ROWS, ROWS + 1, 4 * ROWS + 37])
    def test_blocked_scan_matches_full_gram(self, monkeypatch, seed, n):
        monkeypatch.setattr(la, "GRAM_BLOCK_CELLS", ROWS * n)
        rng = np.random.default_rng(seed)
        xi = np.array([1.0, 0.0, 0.0])
        points = moment(la.haar_so3(rng, n), xi)
        (i, j), smallest = full_gram_pair(points)
        assert la.most_antipodal_pair(points) == (i, j)
        assert points[i] @ points[j] == smallest

    def test_a_point_never_pairs_with_itself(self, monkeypatch):
        # A short vector's square is its smallest product; it sits in a later block.
        points = np.ones((3 * ROWS, 3))
        points[2 * ROWS + 5] *= 1e-3
        monkeypatch.setattr(la, "GRAM_BLOCK_CELLS", ROWS * len(points))
        assert la.most_antipodal_pair(points) == full_gram_pair(points)[0] == (0, 2 * ROWS + 5)

    def test_ties_go_to_the_first_pair(self, monkeypatch):
        # Many pairs reach the minimum -1; the first in row-major order is (0, 1).
        e = np.array([1.0, 0.0, 0.0])
        points = np.tile(np.array([e, -e, e, -e]), (ROWS, 1))
        monkeypatch.setattr(la, "GRAM_BLOCK_CELLS", ROWS * len(points))
        assert la.most_antipodal_pair(points) == full_gram_pair(points)[0] == (0, 1)

    def test_a_budget_below_one_row_scans_row_by_row(self, monkeypatch):
        points = la.moment_images(np.array([0.0, 0.0, 1.0]), 40, seed=2)
        monkeypatch.setattr(la, "GRAM_BLOCK_CELLS", 1)
        assert la.most_antipodal_pair(points) == full_gram_pair(points)[0]

    def test_scan_memory_is_one_block(self):
        # One block is GRAM_BLOCK_CELLS doubles (2 MiB); the full Gram matrix
        # at N = 20,000 would be 3.2 GB, and blocks of 256 rows 41 MB.
        points = la.moment_images(np.array([1.0, 0.0, 0.0]), 20_000, seed=0)
        tracemalloc.start()
        try:
            la.most_antipodal_pair(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * la.GRAM_BLOCK_CELLS


HB = la.HAAR_BLOCK
BLOCK_COUNTS = [1, HB - 1, HB, HB + 1]


class TestBatchedHaar:
    """The stacked sampler against the one-sample-at-a-time loop it replaced."""

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    def test_blocks_equal_the_loop(self, seed, count):
        blocks = list(la.haar_blocks(count, seed))
        assert [len(b) for b in blocks] == [min(HB, count - s) for s in range(0, count, HB)]
        assert np.array_equal(np.concatenate(blocks), looped_rotations(count, seed))

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    def test_moment_images_equal_the_loop(self, seed, count):
        xi = np.array([0.3, -1.2, 0.7])
        assert np.array_equal(la.moment_images(xi, count, seed), looped_moment_images(xi, count, seed))

    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    def test_arnold_equals_the_loop(self, count):
        xi, t = np.array([0.0, 0.0, 2 * np.pi]), 0.5
        rep = la.arnold_counterexample(xi, t, count, seed=3)
        moved = looped_displacements(la.so3_exp(t * xi), count, seed=3)
        assert rep.samples == count
        assert rep.fixed_points_found == int(np.count_nonzero(moved < 1e-9)) == 0
        # The stacked and the single-matrix Frobenius norms may differ in the last bit.
        assert abs(rep.min_displacement - moved.min()) <= 4 * np.finfo(float).eps * moved.min()

    def test_draws_of_one_equal_a_block(self):
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        singles = np.concatenate([la.haar_so3(a, 1) for _ in range(3)])
        assert np.array_equal(singles, la.haar_so3(b, 3))
        assert np.array_equal(singles, looped_rotations(3, 9))
        assert a.standard_normal() == b.standard_normal()

    def test_a_corrupted_sample_is_rejected(self, monkeypatch):
        # Scale q of the last sample only, so that every sample must be checked.
        qr = np.linalg.qr

        def scaled_qr(a):
            q, r = qr(a)
            q[-1] *= 1.0 + 1e-6
            return q, r

        monkeypatch.setattr(np.linalg, "qr", scaled_qr)
        with pytest.raises(ContractViolation):
            la.haar_so3(np.random.default_rng(0), HB)
        with pytest.raises(ContractViolation):
            la.arnold_counterexample(np.array([0.0, 0.0, 1.0]), 0.5, 10, seed=0)
        with pytest.raises(ContractViolation):
            la.convexity_counterexample(np.array([0.0, 0.0, 1.0]), 10, seed=0)

    def test_nan_is_not_a_rotation(self):
        stack = np.array([np.eye(3), np.full((3, 3), np.nan)])
        with pytest.raises(ContractViolation):
            la.check_rotations(stack)
        with pytest.raises(ContractViolation):
            la.check_rotations(stack[1])

    def test_arnold_memory_is_one_block(self):
        # 200,000 samples at once would hold 14.4 MB per (N, 3, 3) array.
        xi = np.array([0.0, 0.0, 2 * np.pi])
        la.arnold_counterexample(xi, 0.5, 10)
        tracemalloc.start()
        try:
            rep = la.arnold_counterexample(xi, 0.5, 200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.samples == 200_000 and rep.fixed_points_found == 0
        assert peak <= 4 << 20

    def test_zero_samples_rejected(self):
        with pytest.raises(ValidationError):
            la.arnold_counterexample(np.array([0.0, 0.0, 1.0]), 0.5, 0)
        with pytest.raises(ValidationError):
            la.convexity_counterexample(np.ones(3), 0)



class TestMembershipPredicate:
    def test_centralizer_level_set(self):
        # A rotation about e3 commutes with hat(v) exactly for v in the
        # so3 centralizer of e3, the line e3; the identity commutes with all.
        def commutes(g, v):
            return np.linalg.norm(g @ la.hat(v) - la.hat(v) @ g) < 1e-12

        e1, e3 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
        cent = la.centralizer(la.so3(), span(3, (0, 0, 1)))
        assert cent == span(3, (0, 0, 1))
        about_e3 = la.so3_exp(0.7 * e3)
        assert commutes(about_e3, np.array([float(c) for c in cent.basis.col(0)]))
        assert not commutes(about_e3, e1)
        assert commutes(np.eye(3), e3) and commutes(np.eye(3), e1)
