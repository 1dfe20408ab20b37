"""Self-tests of the benchmark: seeded inputs, checks that can fail, tracer
restoration, and the per-layer counters of each workload.

    python3 -m pytest perfbench/tests -q

The counter test runs one traced pass of every workload (about two minutes).
"""

import json
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from perfbench import inputs, workloads
from perfbench.probes import import_times
from perfbench.tracer import ORIGINAL, Tracer
from perfbench.workloads import ROOT, Op, Tally


# -- seeded inputs ----------------------------------------------------------

def _forms(seed):
    return [(f["form"].components, f["spans"]) for f in inputs.form_inputs(seed)["forms"]]


def test_same_seed_gives_identical_inputs():
    assert inputs.gauge_inputs(3) == inputs.gauge_inputs(3)
    assert _forms(3) == _forms(3)
    assert inputs.cli_argvs(3) == inputs.cli_argvs(3)
    a, b = inputs.numeric_inputs(3), inputs.numeric_inputs(3)
    assert np.array_equal(a["arnold"][0], b["arnold"][0]) and a["arnold"][1:] == b["arnold"][1:]
    x = np.linspace(-0.5, 0.5, 9)
    assert np.array_equal(a["patches"]["canonical:3,2"]["f"](x), b["patches"]["canonical:3,2"]["f"](x))


def test_different_seed_gives_different_inputs():
    assert [f[0] for f in _forms(3)] != [f[0] for f in _forms(4)]
    assert inputs.gauge_inputs(3) != inputs.gauge_inputs(4)
    assert inputs.cli_argvs(3) != inputs.cli_argvs(4)
    assert not np.array_equal(inputs.numeric_inputs(3)["arnold"][0], inputs.numeric_inputs(4)["arnold"][0])


def test_grid_torus_cell_counts():
    # per vertex: 2^d - 1 edges, and d! top simplices
    assert [len(c) for c in inputs.grid_torus_simplices(2, 3).values()] == [8, 56, 96, 48]
    assert [len(c) for c in inputs.grid_torus_simplices(3, 2).values()] == [9, 27, 18]


# -- checks that can fail ---------------------------------------------------

EXACT_ARGV = list(inputs.EXACT_ARGVS[0])


def _cli_op(golden):
    return Op("planted", lambda: workloads.run_cli_in_process(EXACT_ARGV), workloads.cli_check(EXACT_ARGV, golden))


def test_golden_output_passes_as_captured():
    tally = Tally()
    tally.run_pass([_cli_op(workloads.load_golden())])
    assert (tally.attempted, tally.failed) == (1, 0)


@pytest.mark.parametrize("field,value", [("stdout", "planted\n"), ("exit", 1)])
def test_planted_wrong_golden_output_is_a_failure(field, value):
    golden = workloads.load_golden()
    golden[" ".join(EXACT_ARGV)][field] = value
    tally = Tally()
    tally.run_pass([_cli_op(golden)])
    assert tally.failed / tally.attempted > 0


def test_numeric_pass_fields_can_fail():
    argv = ["lie", "arnold", "--trials", "1000"]
    assert workloads.numeric_fields_pass(argv, "samples: 1000\nfixed_points_found: 0\n")
    assert not workloads.numeric_fields_pass(argv, "samples: 1000\nfixed_points_found: 2\n")
    assert not workloads.numeric_fields_pass(["lie", "convexity"], "on_sphere: false\nmidpoint_gap: 0.9\n")


def test_raising_operation_is_a_failure():
    tally = Tally()
    tally.run_pass([Op("boom", lambda: 1 / 0, lambda out: True), Op("ok", lambda: 1, lambda out: out == 1)])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_import_times_counts_nested_scipy_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:       300 |        300 |       scipy._lib",
        "import time:       200 |        500 |     scipy.stats",
        "import time:        50 |        650 |   polysym.pointham",
        "import time:        10 |        660 | polysym.cli",
        "import time:        40 |         40 | json",
    ])
    assert import_times(log) == (660e-6, 500e-6)


# -- tracer -----------------------------------------------------------------

def _bindings():
    """Every function object bound in a polysym module or class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("polysym"):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def wrapped_functions() -> list:
    """Every benchmark wrapper still bound in a polysym module or class."""
    return [key for key, value in _bindings().items() if hasattr(value, ORIGINAL)]


def test_traced_run_restores_every_wrapped_function():
    from polysym import discgauge, exactla, polycore

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert polycore.kernel is not before[("polysym.polycore", "kernel")]
        assert exactla.Matrix.__matmul__ is not before[("polysym.exactla", "Matrix", "__matmul__")]
        assert len(wrapped_functions()) >= 40
        discgauge.cohomology(discgauge.torus_complex(2), 1)
        assert tracer.spans
    finally:
        tracer.restore()
    after = _bindings()
    assert wrapped_functions() == []
    assert all(after[key] is value for key, value in before.items() if not isinstance(value, types.ModuleType))
    spans = len(tracer.spans)
    discgauge.cohomology(discgauge.torus_complex(2), 1)
    assert len(tracer.spans) == spans


def test_self_time_excludes_children():
    from polysym import discgauge

    tracer = Tracer()
    tracer.install()
    try:
        discgauge.reduce_gauge(discgauge.torus_complex(3))
    finally:
        tracer.restore()
    totals = tracer.totals()
    calls, total, self_s = totals["discgauge.reduce_gauge"]
    assert calls == 1 and 0 < self_s < total
    assert sum(row[2] for row in totals.values()) <= total * 1.001


# -- per-layer counters -----------------------------------------------------

# Counters that must be non-zero on the workload doing that layer's work, and
# counters of layers the workload must not touch.
NONZERO = {
    "gauge-grid": [
        "exactla.rref.calls", "exactla.rref.cells", "exactla.rref.max_bits", "exactla.rref.self_s",
        "exactla.project.self_s", "discgauge.coboundary_matrix.calls", "discgauge.cup.calls",
        "discgauge.cochain_quotient.builds_per_complex", "discgauge.complex_build.self_s",
        "discgauge.omega_kernel.self_s", "discgauge.moment_zero_set.self_s",
        "discgauge.moment_identity.self_s", "discgauge.reduce_gauge.self_s",
    ] + [f"discgauge.cohomology.h{p}.self_s" for p in range(4)],
    "exact-forms": [
        "exactla.rref.calls", "exactla.matmul.calls", "exactla.matmul.cells", "exactla.matmul.self_s",
        "exactla.contains.solves_per_call", "exactla.kernel.self_s", "exactla.solve.self_s",
        "exactla.quotient.self_s", "exactla.project.self_s", "liealg.exact.self_s",
    ] + [f"polycore.{fn}.self_s" for fn in (
        "orthogonal", "classify", "linear_reduce", "degeneracy_kernel", "universal_embed", "pullback")],
    "numeric-sampling": [
        "liealg.haar_so3.calls", "liealg.haar_so3.self_s", "liealg.arnold.self_s",
        "liealg.convexity.self_s", "liealg.convexity.gram_bytes",
        "pointham.omega_at.calls", "pointham.hamiltonian_field.calls",
        "pointham.hamiltonian_field.max_residual_ratio",
    ] + [f"pointham.{fn}.self_s" for fn in (
        "halton_points", "omega_at", "hamiltonian_field", "poisson_bracket", "moment_from_potential", "local_embed")],
    "cli-builtins": ["docio.parse_document.self_s", "docio.resolve_builtin.self_s", "exactla.rref.calls",
                     "liealg.haar_so3.calls", "pointham.omega_at.calls", "discgauge.cup.calls"],
}
ZERO = {
    "gauge-grid": ["pointham.omega_at.calls", "liealg.haar_so3.calls", "exactla.matmul.calls"],
    "numeric-sampling": ["exactla.rref.calls", "discgauge.cup.calls", "discgauge.coboundary_matrix.calls"],
}


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_counters_nonzero_where_the_layer_works(workload):
    from polysym.verify import SUITES

    from perfbench.workloads import WORKLOADS, setup_cli

    make_pass = setup_cli(5, in_process=True) if workload == "cli-builtins" else WORKLOADS[workload](5)
    tracer = Tracer()
    tracer.install()
    tally = Tally()
    try:
        tally.run_pass(make_pass(), tracer)
    finally:
        tracer.restore()
    assert tally.failed == 0
    metrics = tracer.layer_metrics(SUITES)
    assert [m for m in NONZERO[workload] if not metrics[m] > 0] == []
    assert [m for m in ZERO.get(workload, []) if metrics[m] != 0] == []
    if workload == "exact-forms":
        assert all(metrics[f"verify.{suite}.s"] > 0 for suite in SUITES)


# -- the contract's failure mode --------------------------------------------

def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "gauge-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
