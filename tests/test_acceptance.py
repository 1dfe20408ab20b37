"""Acceptance gate: criterion n is the n-th suite declared in `verify.SUITES`,
run at its declared trial count and seed 7 within its wall-clock budget. One
pass/fail line prints per criterion, then its checks (run with `pytest -s` to
see them live).
"""

import time

import pytest

from polysym.verify import SUITES, run_suite

SEED = 7

# Wall-clock budget of each criterion in seconds, in declaration order.
BUDGETS = {
    "cross-table": 1.0,
    "lemma-subspaces": 10.0,
    "reduction-kernel": 10.0,
    "canonical-reduction": 5.0,
    "embedding": 5.0,
    "irreducibility": 5.0,
    "lie-reductions": 5.0,
    "moment-identity": 30.0,
    "arnold": 5.0,
    "convexity": 5.0,
    "gauge-h1": 30.0,
    "gauge-invariance": 10.0,
    "lagrangian-sphere3": 10.0,
}


def test_every_suite_has_a_budget_in_declaration_order():
    assert list(BUDGETS) == list(SUITES)


@pytest.mark.parametrize("number, name", list(enumerate(SUITES, 1)))
def test_criterion(number, name):
    budget = BUDGETS[name]
    start = time.perf_counter()
    result = run_suite(name, seed=SEED)
    elapsed = time.perf_counter() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} ({elapsed:6.2f}s <= {budget}s) {name}: {result.identity}")
    for check in result.checks:
        mark = "ok" if check.passed else "FAILED"
        detail = f" -- {check.detail}" if check.detail else ""
        print(f"    [{mark}] {check.name}{detail}")
    assert result.passed, f"criterion {number}: {name}"
    assert result.trials == SUITES[name].trials
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    if name == "arnold":
        assert any("1000 samples" in c.name for c in result.checks)
