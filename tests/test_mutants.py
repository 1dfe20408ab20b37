"""Named mutants of the product code, and the verify suites that must notice
each one: the gauge rows of the kill matrix in ROADMAP.md.

A mutant is a `monkeypatch` of one routine. Each runs only against the
suites it targets, at their default trials and seed 0. A suite notices a
mutant when `run_suite` reports a failed check; where the table names an
error instead, the suite must stop with that error rather than pass.
"""

import pytest

from polysym import discgauge as dg
from polysym.errors import ValidationError
from polysym.exactla import Matrix
from polysym.verify import run_suite


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


# mutant -> {suite: None for a failed check, or the (error, message) the suite
# must stop with}. Under unsigned signs d d is not zero, so B^1 leaves Z^1 and
# the cohomology presentation refuses it.
KILLS = {
    cup_front_for_back: {"gauge-h1": None, "lagrangian-sphere3": None},
    unsigned_coboundary: {"gauge-invariance": None, "gauge-h1": (ValidationError, "not contained")},
}
CASES = [(mutant, suite, error) for mutant, suites in KILLS.items() for suite, error in suites.items()]


@pytest.mark.parametrize(
    "mutant,suite,error", CASES, ids=[f"{mutant.__name__}-{suite}" for mutant, suite, _ in CASES]
)
def test_suite_notices_the_mutant(monkeypatch, mutant, suite, error):
    assert run_suite(suite).passed
    mutant(monkeypatch)
    if error is None:
        assert not run_suite(suite).passed
    else:
        with pytest.raises(error[0], match=error[1]):
            run_suite(suite)
