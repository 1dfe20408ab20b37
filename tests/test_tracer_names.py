"""The benchmark's tracer (perfbench/tracer.py) wraps package functions and
methods by name, so deleting or renaming one of them breaks every traced
benchmark run. Installing and restoring the tracer here catches that in the
ordinary test run; perfbench/ itself is only read."""

from pathlib import Path


def test_tracer_installs_and_restores_every_name_it_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.tracer import ORIGINAL, Tracer

    tracer = Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert all(hasattr(getattr(owner, name), ORIGINAL) for owner, name, _ in patched)
    finally:
        tracer.restore()
    assert patched and all(getattr(owner, name) is original for owner, name, original in patched)
