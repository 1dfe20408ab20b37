"""The four benchmark workloads.

Each workload's `setup(seed)` imports what it needs and generates its inputs;
it returns a function that builds one pass: the workload's fixed list of
operations. An operation's `run` is the timed call into polysym and its
`check` tests the output outside the timed region. Operations of one pass may
read results of earlier ones through the pass's shared `state` dict.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from . import inputs

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli-builtins.json"
CLI_SNIPPET = "import sys; from polysym.cli import main; sys.exit(main())"


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


class Tally:
    """Runs passes and counts what was attempted, what failed and how long
    each operation and pass took. A failing operation is counted, not fatal."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_times = []
        self.pass_walls = []

    def run_pass(self, ops, tracer=None) -> float:
        total = 0.0
        for index, op in enumerate(ops):
            self.attempted += 1
            if tracer is not None:
                tracer.op = index
                tracer.enabled = True
            try:
                start = time.perf_counter()
                out = op.run()
                elapsed = time.perf_counter() - start
            except Exception as exc:
                self.failed += 1
                print(f"perfbench: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            finally:
                if tracer is not None:
                    tracer.enabled = False
            total += elapsed
            self.op_times.append(elapsed)
            try:
                ok = op.check(out)
            except Exception as exc:
                print(f"perfbench: {op.name}: check raised {type(exc).__name__}: {exc}", file=sys.stderr)
                ok = False
            if not ok:
                self.failed += 1
                print(f"perfbench: {op.name}: wrong output", file=sys.stderr)
        self.pass_walls.append(total)
        return total


def child_env() -> dict:
    """The environment of every process the benchmark starts: the checkout's
    sources first on the path, and the inherited single-thread pools."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- cli-builtins -----------------------------------------------------------

def run_cli_process(argv) -> tuple:
    """One `polysym` process, interpreter start included: (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-c", CLI_SNIPPET, *argv],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120,
    )
    return proc.returncode, proc.stdout.decode()


def run_cli_in_process(argv) -> tuple:
    """`cli.run` on one argv in this process, stdout captured."""
    import contextlib
    import io

    from polysym import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return code, buf.getvalue()


def _fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def numeric_fields_pass(argv, stdout: str) -> bool:
    """Pass fields of the sampled subcommands, whose sample points a later
    change to the numeric layer may move."""
    f = _fields(stdout)
    verb = tuple(argv[:2])
    if verb == ("lie", "arnold"):
        return f["fixed_points_found"] == "0" and f["samples"] == argv[argv.index("--trials") + 1]
    if verb == ("lie", "convexity"):
        return f["on_sphere"] == "true" and float(f["midpoint_gap"]) > 0.0
    if verb == ("ham", "moment"):
        return float(f["preservation_defect"]) <= 1e-5 and float(f["identity_defect"]) <= 1e-5
    if verb == ("ham", "embed"):
        return float(f["max_pullback_defect"]) <= 1e-6
    raise ValueError(f"no pass fields for {argv}")


def cli_check(argv, golden: dict) -> Callable[[tuple], bool]:
    if inputs.is_numeric_argv(argv):
        return lambda out: out[0] == 0 and numeric_fields_pass(argv, out[1])
    expected = golden[" ".join(argv)]
    return lambda out: out[0] == expected["exit"] and out[1] == expected["stdout"]


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def setup_cli(seed: int, in_process: bool = False):
    """Timed runs are `polysym` processes; the traced run calls `cli.run` in
    this process on the same argv list."""
    golden = load_golden()
    argvs = inputs.cli_argvs(seed)
    code, _ = run_cli_process(inputs.WARMUP_ARGV)
    if code != 0:
        raise RuntimeError(f"warm-up run exited {code}")
    runner = run_cli_in_process if in_process else run_cli_process
    if in_process:
        import polysym.cli  # noqa: F401  (imported once, as a long-lived caller would)

    def make_pass():
        return [
            Op(" ".join(argv), lambda argv=argv: runner(argv), cli_check(argv, golden))
            for argv in argvs
        ]

    return make_pass


# -- gauge-grid -------------------------------------------------------------

def setup_gauge(seed: int):
    from fractions import Fraction

    from polysym import discgauge as dg
    from polysym import docio

    entries = inputs.gauge_inputs(seed)

    def complex_ops(e, state):
        name, d = e["name"], e["dim"]
        betti = inputs.expected_betti(name, d)
        torus = not name.startswith("sphere")
        ops = []

        def build():
            if e["builtin"]:
                cx = docio.complex_to_delta(docio.resolve_builtin(e["builtin"]))
            else:
                cx = dg.DeltaComplex(e["simplices"], name=name)
            state["cx"] = cx
            return cx

        ops.append(Op(f"{name}/build", build, lambda cx: cx.dimension == d and cx.count(1) == e["edges"]))
        for p in range(d + 1):
            ops.append(Op(
                f"{name}/H{p}",
                lambda p=p: dg.cohomology(state["cx"], p),
                lambda h, p=p: h.betti == betti[p],
            ))
        if e["edges"] <= inputs.SMALL_EDGES:
            ops.append(Op(
                f"{name}/moment_zero_set",
                lambda: dg.moment_zero_set(state["cx"]),
                lambda z: z.contains_cocycles,
            ))
            ops.append(Op(
                f"{name}/moment_identity",
                lambda: dg.check_gauge_moment_identity(state["cx"]),
                lambda ok: ok is True,
            ))

            def kernel_check(ker):
                # A seeded kernel element pairs to a coboundary with every
                # edge, and on a torus the cup form is not identically zero.
                cx = state["cx"]
                q = dg.CochainQuotient(cx, 2)
                coeffs = (e["cocycle_coeffs"][0] * ker.dim)[: ker.dim]
                v = dg.Cochain(cx, 1, ker.basis.apply([Fraction(c) for c in coeffs]))
                return (not torus or ker.dim < e["edges"]) and all(
                    q.is_coboundary(dg.cup(v, dg.Cochain.basis(cx, 1, b))) for b in range(e["edges"])
                )

            ops.append(Op(f"{name}/omega_kernel", lambda: dg.omega_kernel(state["cx"]), kernel_check))

        def reduce_check(red):
            state["red"] = red
            skew = all(m.transpose() == -m for m in red.pairing)
            ok = red.carrier.betti == betti[1] and red.target.betti == (betti[2] if d >= 2 else 0)
            return ok and skew and (not torus or red.pairing_kernel().dim == 0)

        ops.append(Op(f"{name}/reduce_gauge", lambda: dg.reduce_gauge(state["cx"]), reduce_check))

        def pairing():
            # Random cocycles from the Z^1 basis: the class of their cup product
            # depends only on their classes, so it must equal the reduced
            # pairing of their class coordinates.
            red = state["red"]
            z1 = red.carrier.cocycles
            a, b = (
                dg.Cochain(state["cx"], 1, z1.basis.apply([Fraction(c) for c in coeffs]))
                for coeffs in e["cocycle_coeffs"]
            )
            xa = red.carrier.class_coordinates(a)
            xb = red.carrier.class_coordinates(b)
            product = red.target.class_coordinates(dg.cup(a, b))
            return a, b, xa, xb, product

        def pairing_check(out):
            a, b, xa, xb, product = out
            state["cocycles"] = (a, b)
            expected = tuple(
                sum((xa[i] * m[i, j] * xb[j] for i in range(len(xa)) for j in range(len(xb))), Fraction(0))
                for m in state["red"].pairing
            )
            return dg.d(a).is_zero() and dg.d(b).is_zero() and tuple(product) == expected

        ops.append(Op(f"{name}/pairing", pairing, pairing_check))
        if e["edges"] <= inputs.SMALL_EDGES:
            ops.append(Op(
                f"{name}/gauge_moment",
                lambda: [dg.gauge_moment(state["cx"], c) for c in state["cocycles"]],
                lambda moments: all(m.is_zero() for m in moments),
            ))
        return ops

    def make_pass():
        ops = []
        for e in entries:
            ops += complex_ops(e, {})
        return ops

    return make_pass


# -- exact-forms ------------------------------------------------------------

def setup_forms(seed: int):
    from polysym import exactla as ea
    from polysym import liealg as la
    from polysym import polycore as pc
    from polysym import verify

    data = inputs.form_inputs(seed)

    def keep(state, key, check=lambda value: True):
        """A check that stores the output for later operations of the pass."""
        def inner(value):
            state[key] = value
            return check(value)
        return inner

    def form_ops(entry, state):
        form, spans, name = entry["form"], entry["spans"], entry["name"]
        n, k = form.dim_u, form.dim_v
        sub = lambda i: state[("A", i)]  # noqa: E731
        ops = []
        for i, vectors in enumerate(spans):
            tag = f"{name}/A{i}"

            def orth_check(o, i=i):
                a = sub(i)
                state[("orth", i)] = o
                return all(
                    x == 0
                    for j in range(a.dim) for m in range(o.dim)
                    for x in form.evaluate(a.basis.col(j), o.basis.col(m))
                )

            def classify_check(c, i=i):
                a, o = sub(i), state[("orth", i)]
                return (
                    c.isotropic == ea.contains(o, a)
                    and c.coisotropic == ea.contains(a, o)
                    and c.lagrangian == (c.isotropic and c.coisotropic)
                )

            def reduce_check(r, i=i):
                a, o = sub(i), state[("orth", i)]
                return r.carrier.dim == o.dim - ea.intersect(a, o).dim and r.nondegenerate == r.kernel.is_zero()

            ops.append(Op(
                f"{tag}/span",
                lambda vectors=vectors: ea.Subspace.from_vectors(n, vectors),
                keep(state, ("A", i), lambda a, vectors=vectors: a.dim == len(vectors)),
            ))
            ops.append(Op(f"{tag}/orthogonal", lambda i=i: pc.orthogonal(form, sub(i)), orth_check))
            ops.append(Op(f"{tag}/classify", lambda i=i: pc.classify(form, sub(i)), classify_check))
            ops.append(Op(f"{tag}/linear_reduce", lambda i=i: pc.linear_reduce(form, sub(i)), reduce_check))

        def embed():
            return pc.pullback(pc.canonical_model(n, k), pc.universal_embed(form))

        ops.append(Op(f"{name}/embed_pullback", embed, lambda pulled: pulled.components == form.components))

        count = len(spans)
        for i in range(count):
            j = (i + 1) % count
            tag = f"{name}/pair{i}"
            ops.append(Op(f"{tag}/sum", lambda i=i, j=j: ea.sum_(sub(i), sub(j)), keep(state, ("sum", i))))
            ops.append(Op(
                f"{tag}/intersect",
                lambda i=i, j=j: ea.intersect(sub(i), sub(j)),
                keep(state, ("int", i), lambda s, i=i, j=j: s.dim + state[("sum", i)].dim == sub(i).dim + sub(j).dim),
            ))
            ops.append(Op(
                f"{tag}/contains",
                lambda i=i, j=j: ea.contains(state[("sum", i)], sub(i)) and ea.contains(state[("sum", i)], sub(j)),
                lambda ok: ok is True,
            ))

            def quotient_project(i=i):
                q = ea.quotient(state[("sum", i)], state[("int", i)])
                return q, [q.project(sub(i).basis.col(c)) for c in range(sub(i).dim)]

            def quotient_check(out, i=i):
                q, coords = out
                a, inter = sub(i), state[("int", i)]
                return q.dim == state[("sum", i)].dim - inter.dim and all(
                    inter.contains_vector([x - y for x, y in zip(a.basis.col(c), q.lift(xs))])
                    for c, xs in enumerate(coords)
                )

            ops.append(Op(f"{tag}/quotient_project", quotient_project, quotient_check))
            ops.append(Op(
                f"{tag}/annihilator", lambda i=i: ea.annihilator(sub(i)), lambda s, i=i: s.dim == n - sub(i).dim
            ))
        return ops

    def lie_ops(state):
        # so3 + sl2 is semisimple: its center is zero and the bracket form reduces.
        g = lambda: state["g"]  # noqa: E731
        a = lambda: ea.Subspace.from_vectors(6, data["lie_span"])  # noqa: E731
        return [
            Op(
                "lie/direct_sum",
                lambda: la.algebra_direct_sum(la.so3(), la.sl2()),
                keep(state, "g", lambda alg: alg.dim == 6),
            ),
            Op("lie/center", lambda: la.center(g()), lambda c: c.dim == 0),
            Op(
                "lie/centralizer",
                lambda: la.centralizer(g(), a()),
                # on a centerless algebra the centralizer is the bracket-form orthogonal
                lambda c: c == pc.orthogonal(la.bracket_form(g()), a()),
            ),
            Op(
                "lie/lie_reduce",
                lambda: la.lie_reduce(g(), a()),
                lambda r: r.nondegenerate == r.kernel.is_zero(),
            ),
        ]

    def make_pass():
        ops = [
            Op(f"verify/{suite}", lambda suite=suite: verify.run_suite(suite, seed=inputs.ACCEPTANCE_SEED),
               lambda r: r.passed)
            for suite in verify.SUITES
        ]
        for entry in data["forms"]:
            ops += form_ops(entry, {})
        ops += lie_ops({})
        return ops

    return make_pass


# -- numeric-sampling -------------------------------------------------------

def setup_numeric(seed: int):
    import numpy as np

    from polysym import liealg as la
    from polysym import pointham as ph
    from polysym import polycore as pc

    data = inputs.numeric_inputs(seed)
    exact_canonical = ph.vform_to_numpy(pc.canonical_model(3, 2))

    def patch_ops(name, p, state):
        patch = p["patch"]
        ops = []

        def points():
            pts = ph.halton_points(patch.dim_m, inputs.FIELD_POINTS, seed=p["seed"], scale=patch.sample_scale)
            state["pts"] = pts
            return pts

        ops.append(Op(
            f"{name}/halton_points", points,
            lambda pts: pts.shape == (inputs.FIELD_POINTS, patch.dim_m) and np.all(np.abs(pts) <= patch.sample_scale),
        ))

        def omega_check(omegas):
            skew = all(np.array_equal(w, -np.transpose(w, (0, 2, 1))) and np.all(np.isfinite(w)) for w in omegas)
            if name.startswith("canonical"):
                return skew and max(float(np.max(np.abs(w - exact_canonical))) for w in omegas) < 1e-7
            return skew

        ops.append(Op(f"{name}/omega_at", lambda: [ph.omega_at(patch, x) for x in state["pts"]], omega_check))

        def field_check(sols):
            ok = all(s.is_hamiltonian and not s.degenerate for s in sols)
            if "base_velocity" in p:
                n = len(p["base_velocity"])
                ok = ok and all(np.max(np.abs(s.X[:n] - p["base_velocity"])) < 1e-6 for s in sols)
            return ok

        ops.append(Op(
            f"{name}/hamiltonian_field",
            lambda: [ph.hamiltonian_field(patch, p["f"], x) for x in state["pts"]],
            field_check,
        ))
        if "g" in p:
            pts = lambda: state["pts"][: inputs.BRACKET_POINTS]  # noqa: E731
            ops.append(Op(
                f"{name}/poisson_bracket",
                lambda: [(x, ph.poisson_bracket(patch, p["f"], p["g"], x)) for x in pts()],
                # {f_xi, f_eta} = -f_[xi, eta] for contracted potentials
                lambda out: all(np.max(np.abs(v + p["fg"](x))) < 1e-4 for x, v in out),
            ))
        ops.append(Op(
            f"{name}/moment_from_potential",
            lambda: ph.moment_from_potential(patch, p["generators"], sample_count=inputs.MOMENT_SAMPLES, seed=p["seed"]),
            lambda mu: mu.preservation_defect <= 1e-5 and mu.identity_defect <= 1e-5,
        ))

        def embed_defects():
            emb = ph.local_embed(patch)
            return [emb.pullback_defect(x) for x in state["pts"][: inputs.EMBED_POINTS]]

        ops.append(Op(f"{name}/local_embed", embed_defects, lambda defects: max(defects) <= 1e-6))
        return ops

    def make_pass():
        xi, t, arnold_seed = data["arnold"]
        cxi, convexity_seed = data["convexity"]
        radius = float(np.linalg.norm(cxi))
        ops = [
            Op(
                "arnold",
                lambda: la.arnold_counterexample(xi, t, inputs.ARNOLD_SAMPLES, seed=arnold_seed),
                lambda r: r.samples == inputs.ARNOLD_SAMPLES and r.fixed_points_found == 0,
            ),
            Op(
                "convexity",
                lambda: la.convexity_counterexample(cxi, inputs.CONVEXITY_SAMPLES, seed=convexity_seed),
                lambda r: r.on_sphere and r.midpoint_gap > 0.5 * radius,
            ),
        ]
        for name in inputs.NUMERIC_PATCHES:
            ops += patch_ops(name, data["patches"][name], {})
        return ops

    return make_pass


WORKLOADS = {
    "cli-builtins": setup_cli,
    "gauge-grid": setup_gauge,
    "exact-forms": setup_forms,
    "numeric-sampling": setup_numeric,
}
