import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    entrywise_coefficient_components,
    flat,
    in_orthogonal,
    row_loop_embedding,
    stacked_degeneracy_kernel,
    stacked_orthogonal,
)
from polysym.errors import ContractViolation, ValidationError
from polysym.exactla import Matrix, Subspace, contains, intersect, kernel, rank, sum_
from polysym.liealg import bracket_form, sl2, so3
from polysym.polycore import (
    VForm,
    apply_coefficient_map,
    canonical_model,
    classify,
    linear_reduce,
    orthogonal,
    pullback,
    reduction_candidate,
    universal_embed,
)
from polysym.randgen import rand_dims, rand_skew, rand_subspace, rand_vform


def cross_form() -> VForm:
    return bracket_form(so3())


def std_symplectic() -> VForm:
    return VForm(2, (Matrix([[0, 1], [-1, 0]]),))


def span(n, *vecs):
    return Subspace.from_vectors(n, vecs)


class TestVForm:
    def test_skewness_enforced(self):
        with pytest.raises(ValidationError):
            VForm(2, (Matrix([[0, 1], [1, 0]]),))

    def test_needs_a_component(self):
        with pytest.raises(ValidationError):
            VForm(2, ())

    def test_evaluate_cross(self):
        assert cross_form().evaluate((1, 0, 0), (0, 1, 0)) == (F(0), F(0), F(1))


class TestFlat:
    """The per-vector contraction the orthogonal is checked against
    (tests/_oracles.py)."""

    def test_cross_at_e1(self):
        m = flat(cross_form(), (1, 0, 0))
        assert m == Matrix([[0, 0, 0], [0, 0, -1], [0, 1, 0]])
        # the matrix realizes v -> e1 x v
        assert m.apply((0, 1, 0)) == (F(0), F(0), F(1))

    def test_zero_vector(self):
        assert flat(cross_form(), (0, 0, 0)).is_zero()

    def test_standard_symplectic_row(self):
        assert flat(std_symplectic(), (1, 0)) == Matrix([[0, 1]])


class TestNondegeneracy:
    def test_cross_nondegenerate(self):
        assert cross_form().is_nondegenerate()

    def test_zero_form_degenerate(self):
        assert not VForm(2, (Matrix.zeros(2, 2),)).is_nondegenerate()

    def test_so3_bracket_nondegenerate(self):
        assert bracket_form(so3()).is_nondegenerate()


class TestOrthogonal:
    def test_cross_table(self):
        form = cross_form()
        line = span(3, (1, 0, 0))
        assert orthogonal(form, line) == line
        assert orthogonal(form, span(3, (1, 0, 0), (0, 1, 0))).is_zero()
        assert orthogonal(form, Subspace.zero(3)) == Subspace.full(3)
        assert orthogonal(form, Subspace.full(3)).is_zero()

    def test_matches_definition_on_random_probes(self):
        rng = random.Random(4)
        for _ in range(25):
            n, k = rand_dims(rng, max_n=6, max_k=3)
            form = rand_vform(rng, n, k)
            a = rand_subspace(rng, n)
            orth = orthogonal(form, a)
            for _ in range(8):
                v = tuple(F(rng.randint(-3, 3)) for _ in range(n))
                assert orth.contains_vector(v) == in_orthogonal(form, a, v)


class TestJointKernelMatchesStackedLoops:
    """orthogonal and degeneracy_kernel share one joint-kernel routine; both
    must equal stacking their blocks one at a time before a single kernel."""

    def random_forms(self, rng, count):
        for _ in range(count):
            n, k = rng.randint(1, 6), rng.randint(1, 3)
            comps = [rand_skew(rng, n) for _ in range(k)]
            if rng.random() < 0.3:
                comps[0] = Matrix.zeros(n, n)  # degenerate on purpose
            yield VForm(n, tuple(comps))

    def test_orthogonal(self):
        rng = random.Random(21)
        for form in self.random_forms(rng, 40):
            n = form.dim_u
            for a in (Subspace.zero(n), Subspace.full(n), rand_subspace(rng, n), rand_subspace(rng, n)):
                assert orthogonal(form, a) == stacked_orthogonal(form, a)

    def test_degeneracy_kernel(self):
        rng = random.Random(22)
        kernels = set()
        for form in self.random_forms(rng, 60):
            ker = form.degeneracy_kernel()
            assert ker == stacked_degeneracy_kernel(form)
            kernels.add(ker.dim)
        assert len(kernels) > 1  # both degenerate and nondegenerate forms were drawn


def test_rand_skew_is_the_drawn_matrix_minus_its_transpose():
    # The same draws in the same order as m - m^T of a `rand_matrix` draw:
    # equal matrices, and the generator left in the same state.
    from _oracles import drawn_skew

    for seed in range(6):
        for n in range(9):
            rng, replay = random.Random(seed), random.Random(seed)
            assert rand_skew(rng, n) == drawn_skew(replay, n)
            assert rng.getstate() == replay.getstate()


class TestClassify:
    def test_cross_lines_lagrangian(self):
        rng = random.Random(7)
        form = cross_form()
        for _ in range(20):
            v = tuple(F(rng.randint(-3, 3)) for _ in range(3))
            if all(x == 0 for x in v):
                continue
            flags = classify(form, span(3, v))
            assert flags.lagrangian and flags.isotropic and flags.coisotropic
            assert not flags.polysymplectic

    def test_cross_planes_coisotropic(self):
        flags = classify(cross_form(), span(3, (1, 0, 0), (0, 1, 0)))
        assert flags.coisotropic and not flags.isotropic and not flags.lagrangian

    def test_canonical_factors_lagrangian(self):
        model = canonical_model(2, 2)
        u_factor = span(6, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))
        hom_factor = Subspace.from_vectors(
            6, [tuple(F(1 if i == j else 0) for i in range(6)) for j in range(2, 6)]
        )
        assert classify(model, u_factor).lagrangian
        assert classify(model, hom_factor).lagrangian

    def test_zero_subspace_flags(self):
        flags = classify(cross_form(), Subspace.zero(3))
        assert flags.isotropic and flags.polysymplectic and not flags.coisotropic

    def test_nested_lagrangians_coincide(self):
        # no self-orthogonal subspace properly contains another
        rng = random.Random(11)
        for _ in range(30):
            n, k = rand_dims(rng, max_n=6, max_k=3)
            form = rand_vform(rng, n, k)
            a = rand_subspace(rng, n)
            b = sum_(a, rand_subspace(rng, n))
            if classify(form, a).lagrangian and classify(form, b).lagrangian:
                assert a == b


class TestLinearReduce:
    def test_cross_by_line_is_point(self):
        red = linear_reduce(cross_form(), span(3, (1, 0, 0)))
        assert red.carrier.dim == 0
        assert red.nondegenerate

    def test_canonical_model_reduction_matches_smaller_model(self):
        red = linear_reduce(canonical_model(2, 2), span(6, (1, 0, 0, 0, 0, 0)))
        assert red.carrier.dim == 3
        assert red.nondegenerate
        assert list(red.reduced_form.components) == list(canonical_model(1, 2).components)

    def test_so3_bracket_by_line_is_point(self):
        red = linear_reduce(bracket_form(so3()), span(3, (1, 0, 0)))
        assert red.carrier.dim == 0

    def test_kernel_is_reduced_form_degeneracy(self):
        rng = random.Random(2)
        for _ in range(25):
            n, k = rand_dims(rng, max_n=6, max_k=3)
            form = rand_vform(rng, n, k)
            a = rand_subspace(rng, n)
            red = linear_reduce(form, a)
            assert red.kernel == red.reduced_form.degeneracy_kernel()
            assert red.nondegenerate == red.kernel.is_zero()


class TestCanonicalModel:
    def test_smallest_is_standard_symplectic(self):
        assert canonical_model(1, 1).components[0] == Matrix([[0, 1], [-1, 0]])

    def test_unit_pairings(self):
        model = canonical_model(1, 2)
        assert model.evaluate((1, 0, 0), (0, 1, 0)) == (F(1), F(0))
        assert model.evaluate((1, 0, 0), (0, 0, 1)) == (F(0), F(1))

    def test_nondegenerate_small_range(self):
        for n in range(1, 4):
            for k in range(1, 4):
                assert canonical_model(n, k).is_nondegenerate()

    def test_bad_dims(self):
        with pytest.raises(ValidationError):
            canonical_model(0, 1)


class TestUniversalEmbed:
    def test_standard_symplectic_graph(self):
        form = std_symplectic()
        emb = universal_embed(form)
        assert emb.shape == (4, 2)
        pulled = pullback(canonical_model(2, 1), emb)
        assert pulled.components[0] == form.components[0]

    def test_cross_into_twelve_dims(self):
        form = cross_form()
        emb = universal_embed(form)
        assert emb.shape == (12, 3)
        pulled = pullback(canonical_model(3, 3), emb)
        assert list(pulled.components) == list(form.components)

    def test_linearity_at_zero(self):
        emb = universal_embed(cross_form())
        assert emb.apply((0, 0, 0)) == (F(0),) * 12

    def test_degenerate_rejected(self):
        with pytest.raises(ContractViolation):
            universal_embed(VForm(2, (Matrix.zeros(2, 2),)))

    def test_random_forms_pull_back_exactly(self):
        rng = random.Random(9)
        for _ in range(15):
            n, k = rand_dims(rng, max_n=5, max_k=3)
            form = rand_vform(rng, n, k)
            pulled = pullback(canonical_model(n, k), universal_embed(form))
            assert list(pulled.components) == list(form.components)


class TestCoefficientMaps:
    def test_projection_recovers_summand(self):
        w1 = std_symplectic()
        w2 = VForm(2, (Matrix([[0, 2], [-2, 0]]),))
        combined = VForm(2, w1.components + w2.components)
        candidate, ker = apply_coefficient_map(Matrix([[1, 0]]), combined)
        assert candidate.components[0] == w1.components[0]
        assert ker.is_zero()

    def test_identity_map(self):
        form = cross_form()
        candidate, ker = apply_coefficient_map(Matrix.identity(3), form)
        assert list(candidate.components) == list(form.components)
        assert ker.is_zero()

    def test_canonical_witness_direction(self):
        model = canonical_model(1, 2)
        candidate, ker = apply_coefficient_map(Matrix([[1, 0]]), model)
        assert ker.contains_vector((0, 0, 1))

    def test_reduction_candidates(self):
        model = canonical_model(1, 2)
        assert not reduction_candidate(model, Matrix([[1, 0]]))[1].is_zero()
        assert reduction_candidate(model, Matrix.identity(2))[1].is_zero()
        w12 = VForm(2, std_symplectic().components + (Matrix([[0, 3], [-3, 0]]),))
        assert reduction_candidate(w12, Matrix([[1, 0]]))[1].is_zero()

    def test_non_surjective_rejected(self):
        with pytest.raises(ContractViolation):
            reduction_candidate(canonical_model(1, 2), Matrix([[1, 0], [2, 0]]))

    def test_shape_mismatch(self):
        model = canonical_model(1, 2)
        with pytest.raises(ValidationError):
            apply_coefficient_map(Matrix([[1, 0, 0]]), model)
        # A shape error comes before reduction_candidate's surjectivity test.
        for f in (Matrix([[1, 0, 0], [2, 0, 0]]), Matrix.zeros(0, 2)):
            with pytest.raises(ValidationError):
                reduction_candidate(model, f)


class TestCoefficientOrthogonalRelations:
    def test_direct_sum_orthogonal_is_intersection(self):
        rng = random.Random(3)
        for _ in range(15):
            n = 2 * rng.randint(1, 3)
            forms = [rand_vform(rng, n, 1) for _ in range(rng.randint(2, 3))]
            combined = VForm(n, tuple(c for f in forms for c in f.components))
            a = rand_subspace(rng, n)
            expect = Subspace.full(n)
            for f in forms:
                expect = intersect(expect, orthogonal(f, a))
            assert orthogonal(combined, a) == expect

    def test_injective_map_preserves_orthogonal(self):
        rng = random.Random(5)
        for _ in range(15):
            n, k = rand_dims(rng, max_n=5, max_k=3)
            form = rand_vform(rng, n, k)
            a = rand_subspace(rng, n)
            inj = Matrix.identity(k).vstack(Matrix([[F(rng.randint(-2, 2)) for _ in range(k)]]))
            cand, _ = apply_coefficient_map(inj, form)
            assert orthogonal(cand, a) == orthogonal(form, a)

    def test_general_map_grows_orthogonal(self):
        rng = random.Random(6)
        for _ in range(15):
            n, k = rand_dims(rng, max_n=5, max_k=3)
            form = rand_vform(rng, n, k)
            a = rand_subspace(rng, n)
            rows = rng.randint(1, k)
            f = Matrix([[F(rng.randint(-2, 2)) for _ in range(k)] for _ in range(rows)])
            cand, _ = apply_coefficient_map(f, form)
            assert contains(orthogonal(cand, a), orthogonal(form, a))


def test_sl2_cartan_is_self_orthogonal():
    flags = classify(bracket_form(sl2()), span(3, (1, 0, 0)))
    assert flags.lagrangian


# One product per block against the per-vector and per-entry loops
# (tests/_oracles.py): random forms, degenerate ones included, subspaces
# including zero and full, and coefficient maps of every shape up to k + 1
# rows, surjections among them.

_entries = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3, 7)))


@st.composite
def _forms(draw, max_n=6):
    n, k = draw(st.integers(1, max_n)), draw(st.integers(1, 3))
    comps = []
    for _ in range(k):
        upper = [[draw(_entries) if i < j else F(0) for j in range(n)] for i in range(n)]
        comps.append(Matrix([[upper[i][j] - upper[j][i] for j in range(n)] for i in range(n)]))
    return VForm(n, tuple(comps))


@st.composite
def _subspaces(draw, n):
    kind = draw(st.sampled_from(["zero", "full", "drawn", "drawn"]))
    if kind == "zero":
        return Subspace.zero(n)
    if kind == "full":
        return Subspace.full(n)
    nonzero = _entries.filter(bool)
    vectors = draw(st.lists(st.lists(nonzero, min_size=n, max_size=n), min_size=1, max_size=n + 1))
    return Subspace.from_vectors(n, vectors)


@st.composite
def _coefficient_maps(draw, k):
    rows = draw(st.integers(1, k + 1))
    return Matrix([[draw(_entries) for _ in range(k)] for _ in range(rows)])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_orthogonal_is_the_stacked_per_vector_contraction(data):
    # Against the product A^T [W_1 | ... | W_k] on column bases too, for A
    # and a B equal to or nested in A, whose orthogonal must contain A's.
    from _oracles import column_orthogonal

    form = data.draw(_forms(max_n=8))
    n = form.dim_u
    a = data.draw(_subspaces(n))
    if data.draw(st.booleans()):
        b = a
    else:
        combos = data.draw(st.lists(st.lists(_entries, min_size=a.dim, max_size=a.dim), max_size=a.dim))
        b = Subspace.from_vectors(n, [a.basis.apply(c) for c in combos])
    oa, ob = orthogonal(form, a), orthogonal(form, b)
    assert oa == stacked_orthogonal(form, a) and oa.basis == column_orthogonal(form, a)
    assert ob == stacked_orthogonal(form, b) and ob.basis == column_orthogonal(form, b)
    assert contains(ob, oa)


def _counting_cases():
    return [
        (cross_form(), span(3, (1, 0, 0))),
        (cross_form(), Subspace.full(3)),
        (canonical_model(2, 2), span(6, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 1, 0))),
        (VForm(0, (Matrix.zeros(0, 0),)), Subspace.zero(0)),
    ]


def test_orthogonal_multiplies_and_transposes_nothing(monkeypatch):
    cases = _counting_cases()
    calls = []
    for name in ("__matmul__", "transpose"):
        original = getattr(Matrix, name)
        monkeypatch.setattr(Matrix, name, lambda self, *a, _f=original, _n=name: calls.append(_n) or _f(self, *a))
    for form, a in cases:
        assert orthogonal(form, a).ambient_dim == form.dim_u
    assert calls == []
    monkeypatch.undo()
    assert [orthogonal(form, a) for form, a in cases] == [stacked_orthogonal(form, a) for form, a in cases]


def test_linear_reduce_transposes_the_section_once(monkeypatch):
    """Three products per component (P_c = W_c S, the core rows times P_c,
    S^T P_c) and one transpose of the section. The other transposes build
    the section inside `quotient` and check each reduced component's
    skewness in `VForm`. The core is read as rows, so its column basis is
    never built."""
    from polysym import polycore

    cases = _counting_cases()
    products, transposed, cores = [], [], []
    matmul, transpose, meet = Matrix.__matmul__, Matrix.transpose, polycore.intersect
    monkeypatch.setattr(Matrix, "__matmul__", lambda self, other: products.append(self) or matmul(self, other))
    monkeypatch.setattr(Matrix, "transpose", lambda self: transposed.append(self) or transpose(self))
    monkeypatch.setattr(polycore, "intersect", lambda a, b: cores.append(meet(a, b)) or cores[-1])
    reductions = []
    for form, a in cases:
        del products[:], transposed[:], cores[:]
        red = linear_reduce(form, a)
        assert len(products) == 3 * form.dim_v
        assert sum(m is red.carrier.section for m in transposed) == 1
        assert len(transposed) == 2 + form.dim_v
        assert len(cores) == 1 and cores[0]._basis is None
        reductions.append(red)
    monkeypatch.undo()
    for (form, _), red in zip(cases, reductions):
        assert red.reduced_form == pullback(form, red.carrier.section)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_coefficient_map_is_the_entrywise_sum(data):
    form = data.draw(_forms())
    f = data.draw(_coefficient_maps(form.dim_v))
    candidate, ker = apply_coefficient_map(f, form)
    assert candidate.components == entrywise_coefficient_components(f, form)
    assert ker == stacked_degeneracy_kernel(candidate)
    if rank(f) == f.rows:
        assert reduction_candidate(form, f) == (candidate, ker)
    else:
        with pytest.raises(ContractViolation):
            reduction_candidate(form, f)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_forms())
def test_universal_embedding_is_the_row_loop(form):
    if not form.is_nondegenerate():
        with pytest.raises(ContractViolation):
            universal_embed(form)
        return
    emb = universal_embed(form)
    assert emb == row_loop_embedding(form)
    assert pullback(canonical_model(form.dim_u, form.dim_v), emb).components == form.components
