from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysym.errors import ValidationError
from polysym.exactla import (
    Matrix,
    Subspace,
    annihilator,
    contains,
    intersect,
    inverse,
    kernel,
    pivot_coordinates,
    quotient,
    rank,
    rref,
    solve,
    sum_,
)


def span(n, *vecs):
    return Subspace.from_vectors(n, vecs)


class TestMatrix:
    def test_shapes_and_ops(self):
        m = Matrix([[1, 2], [3, 4], [5, 6]])
        assert m.shape == (3, 2)
        assert m.transpose().shape == (2, 3)
        assert (m.transpose() @ m).shape == (2, 2)
        assert m.apply((1, 0)) == (F(1), F(3), F(5))

    def test_fraction_literals(self):
        m = Matrix([[F(1, 2), 1], [0, F(-3, 4)]])
        assert m[0, 0] == F(1, 2)
        assert m[1, 1] == F(-3, 4)
        # Text goes through docio.parse_scalar; the matrix layer reads no strings.
        for text in ("1/2", "1e1000000"):
            with pytest.raises(ValidationError, match="not an exact scalar"):
                Matrix([[text, 1]])

    def test_ragged_rejected(self):
        with pytest.raises(ValidationError):
            Matrix([[1, 2], [3]])

    def test_empty_shapes_survive_ops(self):
        tall = Matrix.zeros(3, 0)
        assert tall.transpose().shape == (0, 3)
        assert (tall.transpose() @ Matrix.zeros(3, 2)).shape == (0, 2)
        assert tall.hstack(Matrix.identity(3)).shape == (3, 3)

    def test_inverse(self):
        m = Matrix([[1, 2], [3, 5]])
        assert inverse(m) @ m == Matrix.identity(2)
        with pytest.raises(ValidationError):
            inverse(Matrix([[1, 2], [2, 4]]))

    def test_rref_pivots(self):
        red, pivots = rref(Matrix([[0, 2, 1], [0, 4, 2]]))
        assert pivots == (1,)
        assert red.row(0) == (F(0), F(1), F(1, 2))


class TestKernel:
    def test_identity_injective(self):
        assert kernel(Matrix.identity(3)).is_zero()

    def test_zero_map(self):
        assert kernel(Matrix.zeros(2, 2)) == Subspace.full(2)

    def test_hand_reduced_example(self):
        assert kernel(Matrix([[1, 1], [0, 0]])) == span(2, (1, -1))

    def test_zero_row_matrix(self):
        # joint_kernel of blocks with no rows is this kernel.
        for n in range(6):
            assert kernel(Matrix.zeros(0, n)) == Subspace.full(n)


class TestLattice:
    def test_sum_of_axes(self):
        assert sum_(span(3, (1, 0, 0)), span(3, (0, 1, 0))) == span(3, (1, 0, 0), (0, 1, 0))

    def test_intersect_planes(self):
        a = span(3, (1, 0, 0), (0, 1, 0))
        b = span(3, (0, 1, 0), (0, 0, 1))
        assert intersect(a, b) == span(3, (0, 1, 0))

    def test_contains(self):
        assert contains(Subspace.full(3), span(3, (1, 0, 0)))
        assert not contains(span(3, (1, 0, 0)), Subspace.full(3))

    def test_ambient_mismatch(self):
        with pytest.raises(ValidationError):
            sum_(span(2, (1, 0)), span(3, (1, 0, 0)))
        for sub in (span(3, (1, 0, 0)), Matrix([[1, 0, 0]])):
            with pytest.raises(ValidationError, match="mismatch"):
                quotient(Subspace.full(2), sub)


class TestQuotient:
    def test_plane_by_axis(self):
        q = quotient(Subspace.full(2), span(2, (1, 0)))
        assert q.section.columns() == [(F(0), F(1))]

    def test_greedy_extension(self):
        q = quotient(Subspace.full(3), span(3, (1, 1, 0)))
        assert q.dim == 2
        assert q.section.columns() == [(F(1), F(0), F(0)), (F(0), F(0), F(1))]

    def test_self_quotient_trivial(self):
        s = span(3, (1, 2, 3))
        assert quotient(s, s).dim == 0

    def test_containment_enforced(self):
        with pytest.raises(ValidationError):
            quotient(span(3, (1, 0, 0)), span(3, (0, 1, 0)))

    def test_projection_roundtrip(self):
        q = quotient(Subspace.full(3), span(3, (1, 1, 0)))
        v = (F(2), F(5), F(1))
        coords = q.project(v)
        diff = tuple(a - b for a, b in zip(v, q.lift(coords)))
        assert span(3, (1, 1, 0)).contains_vector(diff)

    def test_projection_rejects_outside_vectors(self):
        # Outside the ambient, or of the wrong length: ValidationError, never
        # IndexError, over a partial and over the whole ambient.
        for ambient in (span(3, (1, 0, 0), (0, 1, 0)), Subspace.full(3)):
            q = quotient(ambient, span(3, (1, 0, 0)))
            for v in [(0, 0, 1)] * (ambient.dim < 3) + [(), (1, 0), (1, 0, 0, 0)]:
                with pytest.raises(ValidationError):
                    q.project(v)


class TestAnnihilator:
    def test_axis(self):
        assert annihilator(span(3, (1, 0, 0))) == span(3, (0, 1, 0), (0, 0, 1))

    def test_zero_subspace(self):
        assert annihilator(Subspace.zero(3)) == Subspace.full(3)

    def test_diagonal(self):
        assert annihilator(span(2, (1, 1))) == span(2, (1, -1))


def _vectors(n, count):
    entry = st.integers(min_value=-4, max_value=4)
    return st.lists(st.tuples(*[entry] * n), min_size=0, max_size=count)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), _vectors(n, n + 1))))
def test_canonical_form_is_span_invariant(args):
    n, vecs = args
    s1 = Subspace.from_vectors(n, vecs)
    # re-span with sums and reversals of the generators
    mixed = [tuple(a + b for a, b in zip(u, v)) for u in vecs for v in vecs][: n + 2]
    s2 = Subspace.from_vectors(n, list(reversed(vecs)) + mixed)
    assert s1 == s2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), _vectors(n, n))))
def test_annihilator_duality(args):
    n, vecs = args
    s = Subspace.from_vectors(n, vecs)
    assert annihilator(annihilator(s)) == s
    assert s.dim + annihilator(s).dim == n


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), _vectors(n, n), _vectors(n, n))
    )
)
def test_lattice_dimension_formula(args):
    n, va, vb = args
    a = Subspace.from_vectors(n, va)
    b = Subspace.from_vectors(n, vb)
    assert sum_(a, b).dim + intersect(a, b).dim == a.dim + b.dim
    assert contains(sum_(a, b), a)
    assert contains(a, intersect(a, b))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), _vectors(n, n), _vectors(n, n))
    )
)
def test_quotient_decomposition(args):
    n, va, vb = args
    sub = Subspace.from_vectors(n, va)
    ambient = sum_(sub, Subspace.from_vectors(n, vb))
    q = quotient(ambient, sub)
    sec = Subspace.from_vectors(n, q.section.columns())
    assert sec.dim == ambient.dim - sub.dim
    assert intersect(sec, sub).is_zero()
    assert sum_(sec, sub) == ambient


def test_solve_unique_and_inconsistent():
    a = Matrix([[1, 1], [0, 1]])
    assert solve(a, (3, 1)) == (F(2), F(1))
    assert solve(Matrix([[1], [1]]), (0, 1)) is None


def test_rank_matches_bareiss_oracle():
    import random

    from _oracles import bareiss_rank

    rng = random.Random(1)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        grid = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert rank(Matrix(grid)) == bareiss_rank(grid)


# Differential tests: the integer kernels of exactla against plain Fraction
# Gauss-Jordan and Fraction dot products (tests/_oracles.py).

_DENOMINATORS = (1, 1, 2, 3, 7, 1024, 10**12 + 39, 2**61 - 1)
_scalars = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.sampled_from(_DENOMINATORS)),
    st.builds(F, st.integers(-(10**20), 10**20), st.sampled_from(_DENOMINATORS)),
)


@st.composite
def _grids(draw, rows, cols):
    """rows x cols Fractions of rank at most a drawn k: k random rows, the
    others random combinations of them, shuffled. k = 0 is the zero matrix."""
    k = draw(st.integers(0, rows))
    base = [[draw(_scalars) for _ in range(cols)] for _ in range(k)]
    grid = list(base)
    for _ in range(rows - k):
        coeffs = [draw(_scalars) for _ in base]
        grid.append([sum((a * row[j] for a, row in zip(coeffs, base)), F(0)) for j in range(cols)])
    return [grid[i] for i in draw(st.permutations(range(rows)))]


def _matrix(grid, cols):
    return Matrix(grid) if grid else Matrix.zeros(0, cols)


def _all_fractions(rows):
    return all(type(x) is F for row in rows for x in row)


def _assert_canonical(m):
    """Each stored row is (nonzeros, d): a dict from column to nonzero integer
    numerator, d > 0 and gcd(numerators..., d) = 1: the one form equal rows
    can take."""
    assert len(m._ints) == m.rows
    for nums, d in m._ints:
        assert type(nums) is dict and type(d) is int and d > 0
        assert all(type(c) is int and 0 <= c < m.cols and type(a) is int and a for c, a in nums.items())
        assert gcd(*nums.values(), d) == 1


_dims = st.integers(0, 6)


@settings(max_examples=120, deadline=None)
@given(st.tuples(_dims, _dims).flatmap(lambda rc: st.tuples(st.just(rc[1]), _grids(*rc))))
def test_rref_matches_fraction_gauss_jordan(args):
    from _oracles import fraction_rref

    cols, grid = args
    red, pivots = rref(_matrix(grid, cols))
    ref_rows, ref_pivots = fraction_rref(grid, cols)
    assert red.shape == (len(grid), cols)
    assert red.entries == ref_rows and _all_fractions(red.entries)
    assert pivots == ref_pivots
    _assert_canonical(red)


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(_dims, _dims, _dims).flatmap(
        lambda rkc: st.tuples(st.just(rkc), _grids(rkc[0], rkc[1]), _grids(rkc[1], rkc[2]))
    )
)
def test_matmul_matches_fraction_products(args):
    from _oracles import fraction_matmul

    (_, inner, cols), left, right = args
    product = _matrix(left, inner) @ _matrix(right, cols)
    assert product.shape == (len(left), cols)
    assert product.entries == fraction_matmul(left, right, cols)
    assert _all_fractions(product.entries)
    _assert_canonical(product)


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(_dims, _dims).flatmap(
        lambda rc: st.tuples(st.just(rc[1]), _grids(*rc), st.lists(_scalars, min_size=rc[1], max_size=rc[1]))
    )
)
def test_apply_matches_fraction_products(args):
    from _oracles import fraction_apply

    cols, grid, vec = args
    out = _matrix(grid, cols).apply(vec)
    assert out == fraction_apply(grid, vec) and _all_fractions([out])


def test_rref_negative_pivots_and_large_denominators():
    from _oracles import fraction_rref

    big = 2**61 - 1
    grid = [
        [F(-3, big), F(5, 7), F(0), F(-1, 10**12 + 39)],
        [F(6, big), F(-10, 7), F(-2), F(0)],
        [F(0), F(0), F(-4, 3), F(1, big)],
    ]
    red, pivots = rref(Matrix(grid))
    assert (red.entries, pivots) == fraction_rref(grid, 4)
    assert pivots == (0, 2, 3)


# The stored form: canonical integer rows. Every operation that runs on them
# equals its entrywise Fraction reference (tests/_oracles.py), leaves every
# row canonical, and equal matrices compare and hash equal whatever built them.

_same_shape_pairs = st.tuples(_dims, _dims).flatmap(
    lambda rc: st.tuples(st.just(rc[1]), _grids(*rc), _grids(*rc), _scalars)
)


@settings(max_examples=40, deadline=None)
@given(_same_shape_pairs)
def test_entrywise_operations_match_the_fraction_references(args):
    from _oracles import fraction_hstack, fraction_scale, fraction_transpose, fraction_vstack

    cols, left, right, c = args
    a, b = _matrix(left, cols), _matrix(right, cols)
    _assert_canonical(a)
    cases = [
        (-a, fraction_scale(left, -1)),
        (a.scale(c), fraction_scale(left, c)),
        (a.transpose(), fraction_transpose(left, cols)),
        (a.hstack(b), fraction_hstack(left, right)),
        (a.vstack(b), fraction_vstack(left, right)),
    ]
    for m, ref in cases:
        _assert_canonical(m)
        assert m.entries == ref and _all_fractions(m.entries)
    assert (a.hstack(b).shape, a.vstack(b).shape) == ((len(left), 2 * cols), (2 * len(left), cols))
    assert a.transpose().shape == (cols, len(left))
    assert a.is_zero() == all(x == 0 for row in left for x in row)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), _grids(n, n))))
def test_is_skew_matches_the_fraction_reference(args):
    from _oracles import fraction_add, fraction_is_skew, fraction_scale, fraction_transpose

    n, grid = args
    m = _matrix(grid, n)
    skew = _matrix(fraction_add(grid, fraction_scale(fraction_transpose(grid, n), -1)), n)
    assert skew.is_skew() and fraction_is_skew(skew.entries, n)
    assert m.is_skew() == fraction_is_skew(grid, n)
    if n:
        # One entry off its negated mirror.
        bump = [[F(int((i, j) == (0, n - 1)), 3) for j in range(n)] for i in range(n)]
        bumped = _matrix(fraction_add(skew.entries, bump), n)
        assert not bumped.is_skew() and not fraction_is_skew(bumped.entries, n)
    assert not Matrix.zeros(n, n + 1).is_skew()


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(_dims, _dims, _dims).flatmap(
        lambda rkc: st.tuples(st.just(rkc[2]), _grids(rkc[0], rkc[1]), _grids(rkc[1], rkc[2]), _scalars)
    )
)
def test_products_read_the_columns_of_the_right_operand_itself(args):
    """A product reads the right operand's own stored rows. Matrices derived
    from b by negation, scaling or transposes share or rebuild those rows,
    and each product must see the derived matrix, not b."""
    from _oracles import fraction_matmul, fraction_scale, fraction_transpose

    cols, left, right, c = args
    inner = len(right)
    a, b = _matrix(left, inner), _matrix(right, cols)
    assert (a @ b).entries == fraction_matmul(left, right, cols)
    derived = [
        (-b, fraction_scale(right, -1)),
        (b.scale(c), fraction_scale(right, c)),
    ]
    for m, ref in derived:
        product = a @ m
        _assert_canonical(product)
        assert product.entries == fraction_matmul(left, ref, cols)
    twice = b.transpose().transpose()
    assert (a @ twice).entries == fraction_matmul(left, right, cols)
    assert (b.transpose() @ a.transpose()).entries == fraction_matmul(
        fraction_transpose(right, cols), fraction_transpose(left, inner), len(left)
    )


@settings(max_examples=30, deadline=None)
@given(st.tuples(_dims, _dims).flatmap(lambda rc: st.tuples(st.just(rc[1]), _grids(*rc))))
def test_equal_matrices_from_different_paths_compare_and_hash_equal(args):
    from _oracles import fraction_rref

    cols, grid = args
    rows = len(grid)
    m = _matrix(grid, cols)
    paths = [
        _matrix(list(m.entries), cols),
        _matrix([[x.numerator if x.denominator == 1 else x for x in row] for row in grid], cols),
        m.transpose().transpose(),
        m @ Matrix.identity(cols),
        Matrix.identity(rows) @ m,
        m.scale(F(-3, 7)).scale(F(-7, 3)),
        m.hstack(Matrix.zeros(rows, 0)),
        Matrix.zeros(rows, 2).hstack(m).hstack(m)._col_block(range(2, 2 + cols)),
        Matrix._of_integers(*_integer_rows(grid, cols)),
    ]
    for other in paths:
        _assert_canonical(other)
        assert other == m and hash(other) == hash(m)
    red, pivots = rref(m)
    reference = _matrix(list(fraction_rref(grid, cols)[0]), cols)
    again = rref(red)[0]
    assert red == reference == again and hash(red) == hash(reference) == hash(again)
    if rows and cols:
        assert m.scale(F(1, 2)) != m or m.is_zero()


def _integer_rows(grid, cols):
    """(rows, cols, d): grid over one common denominator d, each row a dict
    from column to nonzero integer numerator."""
    d = lcm(*(x.denominator for row in grid for x in row))
    return [{j: int(x * d) for j, x in enumerate(row) if x} for row in grid], cols, d


# Sparse rows: a stored row is its nonzeros, and every routine that builds,
# eliminates or slices rows equals its Fraction reference on dense random
# inputs and on coboundary-shaped ones: +-1 entries (now and then +-2), at most
# three per row, with an identity block beside them as in `inverse`.


@st.composite
def _coboundary_grids(draw, rows, cols):
    grid = []
    for _ in range(rows):
        row = [F(0)] * cols
        for j in draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=min(3, cols), unique=True)):
            row[j] = F(draw(st.sampled_from((1, -1, 1, -1, 2, -2))))
        grid.append(row)
    return grid


def _with_identity(grid):
    """[grid | I], the shape of `inverse`'s elimination and of the three-block
    quotient oracle's."""
    return [list(row) + [F(int(i == j)) for j in range(len(grid))] for i, row in enumerate(grid)]


_shaped = st.sampled_from(["dense", "coboundary"]).flatmap(
    lambda kind: st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
        lambda rc: st.tuples(
            st.just(kind), st.just(rc[1]), (_grids if kind == "dense" else _coboundary_grids)(*rc)
        )
    )
)


@settings(max_examples=120, deadline=None)
@given(_shaped, st.booleans())
def test_sparse_rref_matches_both_references(args, beside_identity):
    from _oracles import dense_rows_rref, fraction_rref

    _, cols, grid = args
    width = cols
    if beside_identity:
        grid, width = _with_identity(grid), cols + len(grid)
    red, pivots = rref(_matrix(grid, width))
    _assert_canonical(red)
    assert (red.entries, pivots) == fraction_rref(grid, width) == dense_rows_rref(grid, width)
    # The dense elimination stopped after the leading columns, as the
    # three-block quotient oracle runs it: those columns and their pivots
    # against Gauss-Jordan.
    for stop in (cols, cols // 2):
        rows, pivots = dense_rows_rref(grid, width, stop)
        assert (tuple(row[:stop] for row in rows), pivots) == fraction_rref([row[:stop] for row in grid], stop)


@settings(max_examples=80, deadline=None)
@given(_shaped)
def test_sparse_kernel_is_the_canonical_null_space(args):
    """m K = 0, dim K = cols - rank m, and K is in reduced column echelon
    form: together these fix the kernel's stored basis."""
    from _oracles import fraction_matmul, fraction_rref

    _, cols, grid = args
    basis = kernel(_matrix(grid, cols)).basis
    _assert_canonical(basis)
    assert basis.shape == (cols, cols - len(fraction_rref(grid, cols)[1]))
    assert fraction_matmul(grid, basis.entries, basis.cols) == tuple((F(0),) * basis.cols for _ in grid)
    lead = [next(i for i in range(cols) if basis[i, j]) for j in range(basis.cols)]
    assert lead == sorted(set(lead))
    for j, i in enumerate(lead):
        assert basis.row(i) == tuple(F(int(k == j)) for k in range(basis.cols))


@settings(max_examples=60, deadline=None)
@given(_shaped, st.data())
def test_sparse_rows_build_and_slice_like_the_fraction_references(args, data):
    from _oracles import fraction_hstack, fraction_matmul, fraction_transpose, fraction_vstack

    kind, cols, grid = args
    rows = len(grid)
    other = data.draw((_grids if kind == "dense" else _coboundary_grids)(rows, cols))
    inner = data.draw((_grids if kind == "dense" else _coboundary_grids)(cols, 3))
    picked = data.draw(st.permutations(range(cols)).flatmap(lambda p: st.integers(0, cols).map(lambda k: p[:k])))
    a, b = _matrix(grid, cols), _matrix(other, cols)
    cases = [
        (a @ _matrix(inner, 3), fraction_matmul(grid, inner, 3)),
        (a.hstack(b), fraction_hstack(grid, other)),
        (a.vstack(b), fraction_vstack(grid, other)),
        (a.transpose(), fraction_transpose(grid, cols)),
        (a._col_block(picked), tuple(tuple(row[j] for j in picked) for row in grid)),
        (a.hstack(Matrix.identity(rows)), tuple(tuple(row) for row in _with_identity(grid))),
        (Matrix._of_integers(*_integer_rows(grid, cols)), tuple(tuple(row) for row in grid)),
    ]
    for m, ref in cases:
        _assert_canonical(m)
        assert m.entries == ref and _all_fractions(m.entries)
        assert [m.col(j) for j in range(m.cols)] == [tuple(row[j] for row in ref) for j in range(m.cols)]


# Quotients: in ambient's pivot coordinates, one kernel of the spanning rows
# gives the projector, and its leading columns the section. The references
# are the greedy section by Bareiss ranks, the conditions that define the
# greedy quotient, one `solve` of [section | sub] x = v per vector, and one
# dense elimination of [sub | ambient | I] (tests/_oracles.py).


@st.composite
def _quotient_inputs(draw):
    """(ambient, sub, vectors of ambient, other vectors of Q^n, rows spanning
    sub): a full or a partial ambient, and a zero, a partial or the whole
    sub. The spanning rows are sub's rows, each scaled by a nonzero scalar,
    and up to two combinations of them, shuffled: redundant and not in
    echelon form."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        ambient = Subspace.full(n)
    else:
        ambient = Subspace.from_vectors(n, draw(_grids(draw(st.integers(0, n)), n)))
    kind = draw(st.sampled_from(["zero", "partial", "whole"]))
    if kind == "zero":
        sub = Subspace.zero(n)
    elif kind == "whole":
        sub = ambient
    else:
        combos = draw(_grids(draw(st.integers(0, ambient.dim)), ambient.dim))
        sub = Subspace.from_vectors(n, [ambient.basis.apply(c) for c in combos])
    coeffs = st.lists(_scalars, min_size=ambient.dim, max_size=ambient.dim)
    inside = [ambient.basis.apply(c) for c in draw(st.lists(coeffs, min_size=1, max_size=3))]
    others = draw(st.lists(st.lists(_scalars, min_size=n, max_size=n).map(tuple), max_size=3))
    scales = draw(st.lists(_scalars.filter(bool), min_size=sub.dim, max_size=sub.dim))
    rows = [tuple(c * x for x in row) for c, row in zip(scales, sub.echelon.entries)]
    rows += [sub.basis.apply(c) for c in draw(st.lists(st.lists(_scalars, min_size=sub.dim, max_size=sub.dim), max_size=2))]
    rows = draw(st.permutations(rows))
    spanning = Matrix(rows) if rows else Matrix.zeros(0, n)
    return ambient, sub, inside, others, spanning


@settings(max_examples=80, deadline=None)
@given(_quotient_inputs())
def test_quotient_matches_the_solved_projection(args):
    from _oracles import check_greedy_quotient, greedy_section, solved_project

    ambient, sub, inside, others, spanning = args
    q = quotient(ambient, sub)
    assert q.section.columns() == greedy_section(ambient, sub)
    assert q.dim == ambient.dim - sub.dim
    assert check_greedy_quotient(q, sub.echelon) == check_greedy_quotient(q, spanning) == []
    for v in inside:
        assert q.project(v) == solved_project(q, sub, v) == q.projector.apply(v)
        for wrong in [v + (F(0),)] + ([v[:-1]] if v else []):
            with pytest.raises(ValidationError, match="length"):
                q.project(wrong)
    for v in others:
        try:
            want = solved_project(q, sub, v)
        except ValidationError:
            with pytest.raises(ValidationError, match="outside the ambient"):
                q.project(v)
        else:
            assert q.project(v) == want


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_quotient_inputs())
def test_shortcuts_match_the_three_block_quotient(args):
    # The quotient in ambient's pivot coordinates against one dense
    # elimination of [sub | ambient | I], for whole and partial ambients:
    # the same section, the same projector on ambient, the same coordinates
    # inside ambient, and rejection exactly where the oracle's rows below
    # dim ambient, which vanish exactly on ambient, do not vanish. Rows that
    # span sub, redundant and out of order, give the same quotient, and a
    # row outside ambient among them is refused.
    from _oracles import three_block_quotient

    ambient, sub, inside, others, spanning = args
    oracle = three_block_quotient(ambient, sub)
    q = quotient(ambient, sub)
    assert q.section == oracle.section
    assert q.projector @ ambient.basis == oracle.projector @ ambient.basis
    for v in inside:
        assert q.project(v) == oracle.projector.apply(v)
    beyond = oracle.elimination._row_block(range(ambient.dim, ambient.ambient_dim))
    spanned = quotient(ambient, spanning)
    fields = ("pivots", "section", "projector")
    assert [getattr(spanned, f) for f in fields] == [getattr(q, f) for f in fields]
    for v in others:
        if any(beyond.apply(v)):
            with pytest.raises(ValidationError, match="outside the ambient"):
                q.project(v)
            with pytest.raises(ValidationError, match="not contained"):
                quotient(ambient, spanning.vstack(Matrix([v])))
        else:
            assert q.project(v) == oracle.projector.apply(v)
    # Each row read at P, combined by ambient's rows, gives itself back.
    at, rows = pivot_coordinates(ambient, sub.echelon)
    assert at == q.pivots and rows @ ambient.echelon == sub.echelon
    assert pivot_coordinates(ambient, spanning)[1] @ ambient.echelon == spanning
    outside = Subspace.from_vectors(ambient.ambient_dim, others)
    if contains(ambient, outside):
        pivot_coordinates(ambient, outside.echelon)
    else:
        with pytest.raises(ValidationError, match="not contained"):
            quotient(ambient, outside)


def test_quotient_eliminates_once_and_projects_without_eliminating(monkeypatch):
    import polysym.exactla as ea

    cases = [
        (Subspace.full(4), span(4, (1, 1, 0, 0))),
        (Subspace.full(4), Matrix([[0, 0, 1, 1], [1, 1, 0, 0], [2, 2, 3, 3]])),
        (span(4, (1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)), span(4, (1, 0, 0, 0))),
        (span(3, (1, 2, 3)), Subspace.zero(3)),
    ]
    calls = []
    for name in ("rref", "solve"):
        original = getattr(ea, name)
        monkeypatch.setattr(ea, name, lambda *a, _f=original, _n=name, **k: calls.append((_n, a[0].shape)) or _f(*a, **k))
    applied = []
    apply = ea.Matrix.apply
    monkeypatch.setattr(ea.Matrix, "apply", lambda self, v: applied.append(self.rows) or apply(self, v))
    for ambient, sub in cases:
        calls.clear()
        q = quotient(ambient, sub)
        # The kernel of the spanning rows read at P, and nothing else.
        rows = sub.dim if isinstance(sub, Subspace) else sub.rows
        assert calls == [("rref", (rows, ambient.dim))]
        calls.clear()
        assert q.projector.rows == q.dim
        applied.clear()
        q.project(ambient.basis.col(0))
        # The projector's rows; membership reads the vector at P and combines
        # the ambient rows by that reading, with no product.
        assert applied == [q.dim]
        if ambient.dim < ambient.ambient_dim:
            with pytest.raises(ValidationError, match="outside the ambient"):
                q.project((0, 0, 1) if ambient.ambient_dim == 3 else (0, 0, 1, -1))
        assert calls == []


# Sums, intersections, containment and pivot coordinates against the
# per-vector references and the column-basis paths they replaced
# (tests/_oracles.py): A and B share a drawn span, so the meet is often
# neither zero nor all of either; zero, full, equal and nested pairs are
# drawn too.


@st.composite
def _subspace_pairs(draw):
    """((A, its generators), (B, its generators)) in Q^n, n <= 8."""
    n = draw(st.integers(0, 8))

    def side(shared):
        kind = draw(st.sampled_from(["zero", "full", "drawn", "drawn"]))
        if kind == "zero":
            vectors = []
        elif kind == "full":
            vectors = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        else:
            vectors = shared + draw(_grids(draw(st.integers(0, n)), n))
        return Subspace.from_vectors(n, vectors), vectors

    shared = draw(_grids(draw(st.integers(0, n)), n))
    a, va = side(shared)
    kind = draw(st.sampled_from(["other", "equal", "nested"]))
    if kind == "other":
        b, vb = side(shared)
    elif kind == "equal":
        b, vb = a, va
    else:
        vb = [a.basis.apply(c) for c in draw(_grids(draw(st.integers(0, a.dim)), a.dim))]
        b = Subspace.from_vectors(n, vb)
    return ((a, va), (b, vb)) if draw(st.booleans()) else ((b, vb), (a, va))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_subspace_pairs())
def test_sum_and_intersect_match_the_per_vector_loops(pair):
    from _oracles import (
        column_contains,
        column_intersect,
        column_sum,
        fraction_column_basis,
        looped_intersect,
        looped_sum,
    )

    (a, va), (b, vb) = pair
    n = a.ambient_dim
    assert a.basis == fraction_column_basis(n, va) and b.basis == fraction_column_basis(n, vb)
    meet, total = intersect(a, b), sum_(a, b)
    assert meet == looped_intersect(a, b) and meet.basis == column_intersect(a, b)
    assert total == looped_sum(a, b) and total.basis == column_sum(a, b)
    for s in (meet, total):
        _assert_canonical(s.echelon)
        assert s.basis is s.basis and s.basis == s.echelon.transpose()
    for x, y in ((a, b), (b, a), (total, meet), (meet, a)):
        assert contains(x, y) == column_contains(x, y)
        if contains(x, y):
            at, rows = pivot_coordinates(x, y.echelon)
            assert x.basis @ Subspace.from_vectors(x.dim, rows.entries).basis == y.basis
        else:
            with pytest.raises(ValidationError, match="not contained"):
                pivot_coordinates(x, y.echelon)


def test_intersect_eliminates_once(monkeypatch):
    import polysym.exactla as ea

    calls = []
    original = ea.rref
    monkeypatch.setattr(ea, "rref", lambda m: calls.append(m.shape) or original(m))
    a, b = span(4, (1, 1, 0, 0), (0, 0, 1, 0)), span(4, (1, 1, 1, 0), (0, 0, 0, 1))
    for x, y in ((a, b), (b, a), (a, a), (a, Subspace.zero(4)), (Subspace.full(4), b)):
        calls.clear()
        intersect(x, y)
        assert len(calls) == 1
    assert intersect(a, b) == span(4, (1, 1, 1, 0))
