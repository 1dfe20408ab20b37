"""One pass of the benchmark's gauge-grid workload (perfbench/workloads.py),
in process: every operation must run and pass its check, so a gauge-layer
change that breaks the workload fails here and not only in a benchmark
run. perfbench/ itself is only read."""

from pathlib import Path


def test_one_gauge_grid_pass_has_no_failed_operation(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import Tally, setup_gauge

    ops = setup_gauge(1)()
    tally = Tally()
    tally.run_pass(ops)
    assert ops and (tally.attempted, tally.failed) == (len(ops), 0)
