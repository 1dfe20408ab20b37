"""Process probes of the traced run: interpreter start and import time,
each the median of a few fresh processes."""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

from .workloads import ROOT, child_env

PROBE_REPEATS = 3


def _child_wall(cmd) -> tuple:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=120, check=True)
    return time.perf_counter() - start, proc.stderr.decode()


def import_times(importtime_log: str) -> tuple:
    """(polysym imports, scipy imports) in seconds from `-X importtime` output.

    A module's cumulative time includes the modules it imported, and lines
    come children first, so a scipy module counts only when no module below
    it in the log (its parents) is a scipy module too.
    """
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total = sum(c for depth, c, name in rows if depth == 0 and name.split(".")[0] == "polysym")
    scipy = 0
    parents = []  # (depth, is scipy) of the enclosing modules
    for depth, cumulative, name in reversed(rows):
        while parents and parents[-1][0] >= depth:
            parents.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(p[1] for p in parents):
            scipy += cumulative
        parents.append((depth, is_scipy))
    return total / 1e6, scipy / 1e6


def process_probes() -> dict:
    bare = [_child_wall([sys.executable, "-c", "pass"])[0] for _ in range(PROBE_REPEATS)]
    imports = [
        import_times(_child_wall([sys.executable, "-X", "importtime", "-c", "import polysym.cli"])[1])
        for _ in range(PROBE_REPEATS)
    ]
    return {
        "cli.interpreter_s": statistics.median(bare),
        "cli.import_s": statistics.median(i[0] for i in imports),
        "cli.import_scipy_s": statistics.median(i[1] for i in imports),
    }
