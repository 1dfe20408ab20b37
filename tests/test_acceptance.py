"""Acceptance gate: every shipped criterion at its stated tolerance, trial
count, and wall-clock budget. One pass/fail line prints per criterion (run
with `pytest -s` to see them live).
"""

import time

import numpy as np

from polysym import discgauge as dg
from polysym import liealg as la
from polysym.verify import run_suite

SEED = 7


def _run(number: int, description: str, suite: str, trials=None, budget=None):
    start = time.perf_counter()
    result = run_suite(suite, seed=SEED, trials=trials)
    elapsed = time.perf_counter() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} ({elapsed:6.2f}s <= {budget}s) {description}")
    for check in result.checks:
        mark = "ok" if check.passed else "FAILED"
        detail = f" -- {check.detail}" if check.detail else ""
        print(f"    [{mark}] {check.name}{detail}")
    assert result.passed, f"criterion {number}: {description}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    return result


def test_criterion_01_cross_product_orthogonal_table():
    _run(1, "cross-product orthogonal table on 50 random lines and planes",
         "cross-table", trials=50, budget=1.0)


def test_criterion_02_subspace_relations_suite():
    _run(2, "six-part orthogonal calculus on 100 random instances (n<=8, k<=4)",
         "lemma-subspaces", trials=100, budget=10.0)


def test_criterion_03_reduction_kernel_formula():
    _run(3, "reduction kernel equals the quotient image of the double orthogonal, 100 instances",
         "reduction-kernel", trials=100, budget=10.0)


def test_criterion_04_canonical_model_reduction():
    _run(4, "universal-model reduction dimensions (n - dim A)(1 + k), nondegenerate",
         "canonical-reduction", trials=50, budget=5.0)


def test_criterion_05_universal_embedding():
    _run(5, "exact pullback along the half-contraction graph on 50 random forms",
         "embedding", trials=50, budget=5.0)


def test_criterion_06_irreducibility_witness():
    _run(6, "50 proper surjections degenerate the universal model, witness direction in kernel",
         "irreducibility", trials=50, budget=5.0)


def test_criterion_07_lie_reductions():
    _run(7, "rotation-algebra point reductions, diagonal subalgebra, centralizer identity",
         "lie-reductions", trials=50, budget=5.0)


def test_criterion_08_moment_identities_numeric():
    _run(8, "moment directional-derivative identity within 1e-5 at 100+ samples",
         "moment-identity", trials=100, budget=30.0)


def test_criterion_09_arnold_failure():
    result = _run(9, "1000 Haar samples, non-identity translation, zero fixed points at 1e-9",
                  "arnold", trials=1000, budget=5.0)
    assert any("1000 samples" in c.name for c in result.checks)


def test_criterion_10_convexity_failure():
    start = time.perf_counter()
    report = la.convexity_counterexample(np.array([1.0, 0.0, 0.0]), 1000, seed=SEED)
    elapsed = time.perf_counter() - start
    ok = report.on_sphere and report.max_radius_error <= 1e-9 and report.midpoint_norm <= report.sphere_radius - 1e-6
    print(f"ACCEPTANCE 10 {'PASS' if ok else 'FAIL'} ({elapsed:6.2f}s <= 5.0s) "
          f"sphere radius error {report.max_radius_error:.2e}, midpoint norm {report.midpoint_norm:.2e}")
    assert ok
    assert elapsed < 5.0
    suite = run_suite("convexity", seed=SEED, trials=1000)
    assert suite.passed


def test_criterion_11_discrete_gauge_reduction():
    _run(11, "gauge reduction carrier dims match the rank-nullity oracle; torus pairings",
         "gauge-h1", budget=30.0)


def test_criterion_12_gauge_invariance():
    _run(12, "cup values move by coboundaries only under the shift action, 100 random triples",
         "gauge-invariance", trials=100, budget=10.0)


def test_criterion_13_lagrangian_check_sphere3():
    result = _run(13, "trivial second cohomology confirmed; random closed pairs cup to coboundaries",
                  "lagrangian-sphere3", budget=10.0)
    report = dg.lagrangian_check(dg.BUILTIN_COMPLEXES["sphere3"]())
    assert report.h2_trivial
    assert report.z1_dim == 4 and report.orthogonal_dim == 7
