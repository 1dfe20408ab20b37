"""Named mutants of the product code, and the verify suites that must notice
each one: the rows of the kill matrix in ROADMAP.md that reach the cup
form, the coboundary, the matrix product, the orthogonals, intersections
and quotients under every reduction, and the coefficient map.

A mutant is a `monkeypatch` of one routine, rebound in every package module
that imported it by name. Each runs only against the suites it targets, at
their default trials and seed 0, and each targeted suite must pass
unmutated. A suite notices a mutant when `run_suite` reports a failed
check; a ContractViolation that stops the suite, such as `linear_reduce`'s
descent check refusing a mutated orthogonal, is reported as one.

The last test holds the quotient mutant against the tier-1 greedy-quotient
check of tests/_oracles.py, which refuses its section wherever it moves one.
"""

import pytest

from polysym import discgauge as dg
from polysym import exactla as ea
from polysym import polycore as pc
from polysym import verify
from polysym.exactla import Matrix
from polysym.verify import run_suite


def _rebind(monkeypatch, original, replacement):
    """Replace original wherever a package module bound it by name."""
    for module in (ea, pc, dg, verify):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)


def cup_front_for_back(monkeypatch):
    """The (1, 1) cup table reads each 2-simplex's front edge for its back edge."""
    valid = dg.DeltaComplex.cup_table

    def cup_table(self, p, q):
        table = valid(self, p, q)
        return tuple((f, f) for f, _ in table) if (p, q) == (1, 1) else table

    monkeypatch.setattr(dg.DeltaComplex, "cup_table", cup_table)


def unsigned_coboundary(monkeypatch):
    """The coboundary adds every face with sign +1."""

    def build(self, p):
        if self.count(p + 1) == 0:
            return Matrix.zeros(0, self.count(p))
        rows = []
        for frow in self.faces[p + 1]:
            row = {}
            for f in frow:
                row[f] = row.get(f, 0) + 1
            rows.append(row)
        return Matrix._of_integers(rows, self.count(p), 1)

    monkeypatch.setattr(dg.DeltaComplex, "_build_coboundary", build)


def product_drops_right_denominator(monkeypatch):
    """Each row of a product is put over the left row's denominator only, as
    if the right operand's common denominator were 1."""

    def matmul(self, other):
        rows, _ = other._scaled_rows()
        out = tuple(ea._canonical(ea._combine(nums, rows), d) for nums, d in self._ints)
        return Matrix._of(self.rows, other.cols, out)

    monkeypatch.setattr(Matrix, "__matmul__", matmul)


def orthogonal_drops_last_component(monkeypatch):
    """The orthogonal is taken for the form without its last component; a
    form of one component leaves none, whose orthogonal is the whole space."""
    valid = pc.orthogonal

    def orthogonal(omega, a):
        if omega.dim_v == 1:
            return ea.Subspace.full(omega.dim_u)
        return valid(pc.VForm(omega.dim_u, omega.components[:-1]), a)

    _rebind(monkeypatch, pc.orthogonal, orthogonal)


def intersect_is_sum(monkeypatch):
    """Every intersection is the sum."""
    _rebind(monkeypatch, ea.intersect, ea.sum_)


def section_one_pivot_late(monkeypatch):
    """The quotient's section takes, for each leading column of the kernel
    rows, the ambient row after it (cyclically), so it is still a set of
    ambient rows, but not the greedy one."""

    def quotient(ambient, sub):
        at, rows = ea.pivot_coordinates(ambient, sub.echelon if isinstance(sub, ea.Subspace) else sub)
        ann = ea.kernel(rows).echelon
        m = ambient.dim
        section = ambient.echelon._row_block([(min(nums) + 1) % m for nums, _ in ann._ints]).transpose()
        spread = tuple(({at[k]: a for k, a in nums.items()}, d) for nums, d in ann._ints)
        return ea.QuotientSpace(ambient, at, section, Matrix._of(ann.rows, ambient.ambient_dim, spread))

    _rebind(monkeypatch, ea.quotient, quotient)


def coefficient_map_is_identity(monkeypatch):
    """Post-composing with a coefficient map leaves the form unchanged."""

    def apply_coefficient_map(f, omega):
        return omega, omega.degeneracy_kernel()

    _rebind(monkeypatch, pc.apply_coefficient_map, apply_coefficient_map)


# mutant -> the suites that must notice it.
KILLS = {
    cup_front_for_back: ("gauge-h1", "lagrangian-sphere3"),
    unsigned_coboundary: ("gauge-invariance", "gauge-h1", "lagrangian-sphere3"),
    product_drops_right_denominator: ("embedding", "reduction-kernel"),
    orthogonal_drops_last_component: (
        "cross-table", "lemma-subspaces", "reduction-kernel", "canonical-reduction", "lie-reductions",
    ),
    intersect_is_sum: ("lemma-subspaces", "canonical-reduction", "reduction-kernel"),
    section_one_pivot_late: ("canonical-reduction",),
    coefficient_map_is_identity: ("irreducibility",),
}
CASES = [(mutant, suite) for mutant, suites in KILLS.items() for suite in suites]


@pytest.mark.parametrize("suite", sorted({suite for _, suite in CASES}))
def test_targeted_suite_passes_unmutated(suite):
    assert run_suite(suite).passed


@pytest.mark.parametrize("mutant,suite", CASES, ids=[f"{mutant.__name__}-{suite}" for mutant, suite in CASES])
def test_suite_notices_the_mutant(monkeypatch, mutant, suite):
    mutant(monkeypatch)
    assert not run_suite(suite).passed


def test_greedy_check_rejects_the_late_section(monkeypatch):
    """The conditions that define the greedy quotient (tests/_oracles.py)
    refuse the shifted section in every degree where it moves an index,
    and in C^2/B^2."""
    from _oracles import check_greedy_quotient

    section_one_pivot_late(monkeypatch)
    cx = dg.torus_complex(3)
    quotients = [(dg.cohomology(cx, p).presentation, dg._coboundary_rows(cx, p)) for p in (1, 2, 3)]
    quotients.append((cx.cup_quotient.presentation, dg._coboundary_rows(cx, 2)))
    for q, rows in quotients:
        failed = check_greedy_quotient(q, rows)
        assert "projector . section = I" in failed and "skipped rows project onto earlier section rows" in failed
