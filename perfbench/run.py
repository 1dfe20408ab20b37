"""Run one polysym benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gauge-grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the sources under `src/` are what gets
measured. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
run metadata (commit, versions, sample counts, fail ratio). A readable table
goes to stderr.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json:

- setup_s: median over SETUP_REPEATS set-ups (this process and fresh
  processes started for the purpose) of the time from the script's start to
  the first timed operation: importing polysym and generating the inputs,
  plus one untimed warm-up `polysym` run on cli-builtins.
- wall_s: median over the run's passes of the summed wall time of the
  workload's fixed list of operations. A run repeats whole passes while the
  median pass still fits in `--seconds`, and always makes at least one.
- peak_rss_mb: peak resident memory of this process, or of the largest
  `polysym` process on cli-builtins.

Operations whose output fails its check are counted in `failed`; the fail
ratio is `failed / attempted` and is in the metadata line, with the median
wall time of one operation (`op_p50_s`: on cli-builtins one `polysym`
process, interpreter start included) and the sample counts.

With `--trace 1` the metrics are the per-layer ones: one untraced pass, then
one pass with every listed polysym function wrapped (see tracer.py), then
process probes for interpreter start and import time. The spans are written
to `.perfbench/spans-<workload>-seed<seed>.jsonl`.

Other modes: `--workload all` runs every workload in turn, each in a fresh
process, and ends with one JSON object of all results; `--record FILE` appends the result to a JSON list (the BENCH files
under perfbench/results); `--capture-golden` rewrites the cli-builtins golden
outputs from the current sources.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

# One client, run sequentially: pin every BLAS/OpenMP pool to one thread,
# before numpy loads, in this process and every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

SETUP_REPEATS = 3
OUT_DIR = ROOT / ".perfbench"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- set-up -----------------------------------------------------------------

def set_up(workload: str, seed: int, in_process: bool = False):
    from perfbench.workloads import WORKLOADS, setup_cli

    if workload == "cli-builtins":
        return setup_cli(seed, in_process=in_process)
    return WORKLOADS[workload](seed)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, as it measures it itself."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=120, check=True,
    )
    return json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"]


# -- metadata ---------------------------------------------------------------

def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True)
    return proc.stdout.decode().strip() or "unknown"


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def run_metadata(args, tally) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": src_lines(),
        "passes": len(tally.pass_walls),
        "pass_walls_s": tally.pass_walls,
        "op_samples": len(tally.op_times),
        "op_p50_s": statistics.median(tally.op_times) if tally.op_times else None,
        "fail_ratio": tally.failed / tally.attempted if tally.attempted else 1.0,
    }


# -- the two kinds of run ---------------------------------------------------

def timed_run(args, tally) -> tuple:
    make_pass = set_up(args.workload, args.seed)
    setups = [time.perf_counter() - _START]
    setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
    start = time.perf_counter()
    while True:
        tally.run_pass(make_pass())
        if time.perf_counter() - start + statistics.median(tally.pass_walls) > args.seconds:
            break
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-builtins" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(tally.pass_walls),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    return metrics, {"setup_samples_s": setups}


def traced_run(args, tally) -> tuple:
    from perfbench.probes import process_probes
    from perfbench.tracer import Tracer
    from polysym.verify import SUITES

    cli = args.workload == "cli-builtins"
    make_pass = set_up(args.workload, args.seed, in_process=True)
    untraced = tally.run_pass(make_pass())
    tracer = Tracer()
    tracer.install()
    try:
        traced = tally.run_pass(make_pass(), tracer)
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics(SUITES)
    metrics.update(process_probes())
    metrics["cli.run_s"] = untraced if cli else 0.0
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    return metrics, {"spans": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.spans)}


def result_line(spec: dict, metrics: dict, tally, trace: int) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        missing, extra = set(names) - set(metrics), set(metrics) - set(names)
        raise RuntimeError(f"metrics do not match BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}")
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def print_table(workload: str, result: dict) -> None:
    fail_ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} fail_ratio={fail_ratio:.4f}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)


def run_all(args, spec) -> None:
    results = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", args.record]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900, check=True)
        results[w["name"]] = json.loads(proc.stdout.decode().splitlines()[-1])
    print(json.dumps(results))


def capture_golden() -> None:
    from perfbench import inputs, workloads

    golden = {}
    for argv in inputs.EXACT_ARGVS:
        code, stdout = workloads.run_cli_process(argv)
        golden[" ".join(argv)] = {"exit": code, "stdout": stdout}
    workloads.GOLDEN.parent.mkdir(exist_ok=True)
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} golden outputs to {workloads.GOLDEN.relative_to(ROOT)}")


def record(path: str, meta: dict, result: dict) -> None:
    target = ROOT / path
    runs = json.loads(target.read_text(encoding="utf-8")) if target.exists() else []
    runs.append({"meta": meta, "result": result})
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result to this JSON file (relative to the checkout)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--capture-golden", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "polysym" / "__init__.py").is_file():
        fail(f"no polysym sources under {ROOT / 'src'}; run from a checkout of the repository")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.capture_golden:
        capture_golden()
        return
    if args.workload == "all":
        run_all(args, spec)
        return
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
        return

    from perfbench.workloads import Tally

    tally = Tally()
    metrics, extra = (traced_run if args.trace else timed_run)(args, tally)
    meta = run_metadata(args, tally)
    meta.update(extra)
    result = result_line(spec, metrics, tally, args.trace)
    print_table(args.workload, result)
    print(json.dumps(meta))
    print(json.dumps(result))
    if args.record:
        record(args.record, meta, result)


if __name__ == "__main__":
    main()
