"""Command-line front end.

One binary, subcommand style. Every run prints a deterministic report:
`key: value` lines in a stable order (or `key=value` with --machine), so
identical input and seed produce identical bytes. Exit codes: 0 success,
1 computational contract violation, 2 validation error.

Parsing the arguments imports no computing layer, so a process loads only
the layer of its command. Each command imports its modules when it runs and
calls them through the module (`lt.center(...)`), so a function replaced on
its module is the one called:
- `orth`, `classify`, `reduce` and `embed`: `docio`, `exactla` and
  `polycore` (and `lietable` for the `cross` builtin);
- `lie center|centralizer|reduce`: those and `lietable`;
- `gauge`: `docio`, `exactla`, `polycore`, `discgauge` and `randgen`;
- `verify`: `verify`, `exactla`, `polycore` and `lietable`, and what the
  suite runs of `randgen` and `discgauge`;
- `ham`, `lie arnold|convexity` and the numeric `verify` suites: numpy,
  `liealg` and `pointham` besides. Every exact command runs without numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Tuple

from .errors import ContractViolation, ValidationError

if TYPE_CHECKING:
    import numpy as np

    from . import docio
    from . import pointham as ph
    from .exactla import Matrix, Subspace

# The verify suite names. --suite help reads them here, so that parsing any
# command imports no suite; a test keeps them equal to verify.SUITES.
SUITE_NAMES = (
    "arnold", "canonical-reduction", "convexity", "cross-table", "embedding",
    "gauge-h1", "gauge-invariance", "irreducibility", "lagrangian-sphere3",
    "lemma-subspaces", "lie-reductions", "moment-identity", "reduction-kernel",
)


class Report:
    """Ordered key-value output with a human and a machine rendering."""

    def __init__(self, command: str):
        self.rows: List[Tuple[str, str]] = [("command", command)]

    def add(self, key: str, value) -> "Report":
        """Append a row; a bool renders as `true` or `false`."""
        self.rows.append((key, str(value).lower() if isinstance(value, bool) else str(value)))
        return self

    def render(self, machine: bool) -> str:
        if machine:
            return "".join(f"{k}={v}\n" for k, v in self.rows)
        return "".join(f"{k}: {v}\n" for k, v in self.rows)


def _fmt_scalar(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fmt_vector(v) -> str:
    return "(" + ", ".join(_fmt_scalar(x) for x in v) + ")"


def _fmt_matrix(m: Matrix) -> str:
    return "[" + "; ".join(" ".join(_fmt_scalar(x) for x in row) for row in m.entries) + "]"


def _fmt_subspace(s: Subspace) -> str:
    if s.dim == 0:
        return f"0 (in dim {s.ambient_dim})"
    return " ".join(_fmt_vector(s.echelon.row(i)) for i in range(s.dim))


def _fmt_float(x: float) -> str:
    # Fixed point would spell out every digit of a large magnitude (309 at 1e308).
    return f"{x:.12e}" if abs(x) >= 1e15 else f"{x:.12f}"


def _fmt_float_matrix(m: np.ndarray) -> str:
    return "[" + "; ".join(" ".join(_fmt_float(x) for x in row) for row in m) + "]"


def parse_subspace_arg(text: str, ambient_dim: int) -> Subspace:
    from .docio import check_subspace_entries, parse_scalar
    from .exactla import Subspace

    text = text.strip()
    if text in ("zero", "0"):
        return Subspace.zero(ambient_dim)
    if text == "full":
        return Subspace.full(ambient_dim)
    if all(tok.strip().startswith("e") for tok in text.split(",")):
        check_subspace_entries(text.count(",") + 1, ambient_dim)
        vectors = []
        for tok in text.split(","):
            tok = tok.strip()
            if not tok[1:].isdigit():
                raise ValidationError(f"bad basis vector {tok!r}")
            idx = int(tok[1:])
            if not (1 <= idx <= ambient_dim):
                raise ValidationError(f"basis vector {tok} out of range")
            v = [Fraction(0)] * ambient_dim
            v[idx - 1] = Fraction(1)
            vectors.append(v)
        return Subspace.from_vectors(ambient_dim, vectors)
    check_subspace_entries(text.count(";") + 1, ambient_dim)
    vectors = []
    for part in text.split(";"):
        entries = [e.strip() for e in part.split(",")]
        if len(entries) != ambient_dim:
            raise ValidationError(
                f"subspace vector {part!r} needs {ambient_dim} entries"
            )
        vectors.append([parse_scalar(e) for e in entries])
    return Subspace.from_vectors(ambient_dim, vectors)


# The builtin a command reads when given neither --file nor --builtin.
_DEFAULT_BUILTIN = {"lie": "so3", "gauge": "torus2"}


def _load_document(args) -> docio.ProblemDocument:
    from . import docio

    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                return docio.parse_document(fh.read())
        except OSError as exc:
            raise ValidationError(f"cannot read {args.file}: {exc}") from exc
    name = args.builtin or _DEFAULT_BUILTIN.get(args.cmd)
    if name:
        return docio.resolve_builtin(name)
    raise ValidationError("supply --file or --builtin")


def _form_and_subspace(args):
    from . import docio

    doc = _load_document(args)
    form = docio.form_to_vform(doc)
    sub = None
    if getattr(args, "subspace", None):
        sub = parse_subspace_arg(args.subspace, form.dim_u)
    else:
        sub = docio.document_subspace(doc, form.dim_u)
    return doc, form, sub


def cmd_orth(args) -> Report:
    from . import polycore as pc

    _, form, sub = _form_and_subspace(args)
    if sub is None:
        raise ValidationError("orth needs a subspace (--subspace or document field)")
    rep = Report(f"orth {args.builtin or args.file}")
    rep.add("ambient_dim", form.dim_u)
    rep.add("value_dim", form.dim_v)
    rep.add("subspace", _fmt_subspace(sub))
    rep.add("orthogonal", _fmt_subspace(pc.orthogonal(form, sub)))
    rep.add("identity", "orthogonal = joint kernel of the contraction maps")
    return rep


def cmd_classify(args) -> Report:
    from . import polycore as pc

    _, form, sub = _form_and_subspace(args)
    if sub is None:
        raise ValidationError("classify needs a subspace (--subspace or document field)")
    flags = pc.classify(form, sub)
    rep = Report(f"classify {args.builtin or args.file}")
    rep.add("subspace", _fmt_subspace(sub))
    rep.add("isotropic", flags.isotropic)
    rep.add("coisotropic", flags.coisotropic)
    rep.add("lagrangian", flags.lagrangian)
    rep.add("polysymplectic", flags.polysymplectic)
    rep.add("identity", "classification from containments between a subspace and its orthogonal")
    return rep


def cmd_reduce(args) -> Report:
    from . import docio
    from . import polycore as pc

    doc, form, sub = _form_and_subspace(args)
    if sub is None:
        raise ValidationError("reduce needs a subspace (--subspace or document field)")
    cmap = docio.document_coefficient_map(doc)
    rep = Report(f"reduce {args.builtin or args.file}")
    if cmap is not None:
        candidate, ker = pc.apply_coefficient_map(cmap, form)
        rep.add("coefficient_map", _fmt_matrix(cmap))
        rep.add("coefficient_kernel_dim", ker.dim)
        rep.add("reduction_candidate_ok", pc.check_reduction_candidate(form, cmap))
        form = candidate
    red = pc.linear_reduce(form, sub)
    rep.add("subspace", _fmt_subspace(sub))
    rep.add("carrier_dim", red.carrier.dim)
    rep.add("section", _fmt_matrix(red.carrier.section))
    for i, comp in enumerate(red.reduced_form.components):
        rep.add(f"reduced_component_{i}", _fmt_matrix(comp))
    rep.add("kernel_dim", red.kernel.dim)
    rep.add("nondegenerate", red.nondegenerate)
    rep.add("identity", "form descends to the quotient of the orthogonal by its core")
    return rep


def cmd_embed(args) -> Report:
    from . import polycore as pc

    _, form, _ = _form_and_subspace(args)
    model = pc.canonical_model(form.dim_u, form.dim_v)
    emb = pc.universal_embed(form)
    pulled = pc.pullback(model, emb)
    exact = list(pulled.components) == list(form.components)
    rep = Report(f"embed {args.builtin or args.file}")
    rep.add("target_dim", form.dim_u + form.dim_u * form.dim_v)
    rep.add("embedding", _fmt_matrix(emb))
    rep.add("pullback_exact", exact)
    rep.add("identity", "graph of the half contraction includes into the universal model")
    return rep


def _parse_xi(text: str, size: Optional[int] = None) -> np.ndarray:
    import numpy as np

    try:
        out = np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"bad vector literal {text!r}") from exc
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"vector literal {text!r} has a non-finite entry")
    if size is not None and out.size != size:
        raise ValidationError(f"vector literal {text!r} needs {size} entries")
    return out


def cmd_lie(args) -> Report:
    rep = Report(f"lie {args.verb}")
    if args.verb in ("center", "centralizer", "reduce"):
        from . import docio
        from . import lietable as lt

        algebra = docio.lie_to_algebra(_load_document(args))
        rep.add("algebra_dim", algebra.dim)
        if args.verb == "center":
            rep.add("center", _fmt_subspace(lt.center(algebra)))
            rep.add("identity", "joint kernel of the adjoint maps")
            return rep
        if not args.subspace:
            raise ValidationError(f"lie {args.verb} needs --subspace")
        sub = parse_subspace_arg(args.subspace, algebra.dim)
        rep.add("subspace", _fmt_subspace(sub))
        if args.verb == "centralizer":
            rep.add("centralizer", _fmt_subspace(lt.centralizer(algebra, sub)))
            rep.add("identity", "centralizer equals the bracket-form orthogonal when the center vanishes")
            return rep
        red = lt.lie_reduce(algebra, sub)
        rep.add("carrier_dim", red.carrier.dim)
        rep.add("kernel_dim", red.kernel.dim)
        rep.add("nondegenerate", red.nondegenerate)
        rep.add("identity", "centralizer modulo its meet with the subspace")
        return rep
    import numpy as np

    from . import liealg as la

    if args.verb == "arnold":
        xi = _parse_xi(args.xi, 3) if args.xi else np.array([0.0, 0.0, 2.0 * np.pi])
        report = la.arnold_counterexample(
            xi, args.t, args.trials or 1000, seed=args.seed, tolerance_scale=args.tolerance_scale
        )
        rep.add("samples", report.samples)
        rep.add("translation_distance", _fmt_float(report.translation_distance))
        rep.add("min_displacement", _fmt_float(report.min_displacement))
        rep.add("fixed_points_found", report.fixed_points_found)
        rep.add("identity", "left translation by a non-identity element has no fixed points")
        return rep
    if args.verb == "convexity":
        xi = _parse_xi(args.xi, 3) if args.xi else np.array([1.0, 0.0, 0.0])
        report = la.convexity_counterexample(
            xi, args.trials or 1000, seed=args.seed, tolerance_scale=args.tolerance_scale
        )
        rep.add("samples", report.samples)
        rep.add("sphere_radius", _fmt_float(report.sphere_radius))
        rep.add("on_sphere", report.on_sphere)
        rep.add("max_radius_error", f"{report.max_radius_error:.3e}")
        rep.add("midpoint_norm", _fmt_float(report.midpoint_norm))
        rep.add("midpoint_gap", _fmt_float(report.midpoint_gap))
        rep.add("identity", "the moment image is a sphere, so midpoints leave it")
        return rep
    raise ValidationError(f"unknown lie verb {args.verb!r}")


def _patch_from_name(name: str) -> ph.ExactPatch:
    from . import docio
    from . import pointham as ph

    if name in ("so3", "rigidbody"):
        return ph.so3_patch()
    if name.startswith("canonical:"):
        return ph.canonical_theta(*docio.canonical_shape(name))
    raise ValidationError(f"unknown patch {name!r} (canonical:n,k, so3, rigidbody)")


def _patch_point(args, patch: ph.ExactPatch) -> np.ndarray:
    import numpy as np

    if args.point:
        pt = _parse_xi(args.point)
        if pt.size != patch.dim_m:
            raise ValidationError(
                f"point needs {patch.dim_m} coordinates for patch {patch.name}"
            )
        return pt
    return np.zeros(patch.dim_m)


def _patch_generators(patch: ph.ExactPatch):
    import numpy as np

    from . import pointham as ph

    if patch.name == "so3":
        return [ph.so3_left_generator(np.eye(3)[i]) for i in range(3)]
    n, k = patch.base_shape
    return [ph.translation_generator(n, k, i) for i in range(n)]


def cmd_ham(args) -> Report:
    from . import pointham as ph
    from .exprs import compile_vector

    patch = _patch_from_name(args.patch)
    rep = Report(f"ham {args.verb} {args.patch}")
    x = _patch_point(args, patch)
    rep.add("point", ", ".join(_fmt_float(v) for v in x))
    if args.verb == "omega":
        omega = ph.omega_at(patch, x)
        for c in range(patch.dim_v):
            rep.add(f"omega_component_{c}", _fmt_float_matrix(omega[c]))
        rep.add("identity", "negative exterior derivative of the potential, skew by construction")
        return rep
    if args.verb == "field":
        if not args.function:
            raise ValidationError("ham field needs --function (one expression per value coordinate)")
        f = compile_vector(args.function, patch.dim_m)
        if len(args.function) != patch.dim_v:
            raise ValidationError(f"need {patch.dim_v} expressions for this patch")
        sol = ph.hamiltonian_field(patch, f, x, tolerance_scale=args.tolerance_scale)
        rep.add("field", ", ".join(_fmt_float(v) for v in sol.X))
        rep.add("residual", f"{sol.residual:.3e}")
        rep.add("threshold", f"{sol.threshold:.3e}")
        rep.add("rank", sol.rank)
        rep.add("degenerate", sol.degenerate)
        rep.add("is_hamiltonian", sol.is_hamiltonian)
        rep.add("identity", "minimal-norm solve of the contraction equation")
        return rep
    if args.verb == "bracket":
        if not args.function or not args.function2:
            raise ValidationError("ham bracket needs --function and --function2")
        f = compile_vector(args.function, patch.dim_m)
        g = compile_vector(args.function2, patch.dim_m)
        value = ph.poisson_bracket(patch, f, g, x, tolerance_scale=args.tolerance_scale)
        rep.add("bracket", ", ".join(_fmt_float(v) for v in value))
        rep.add("identity", "negative form value on the two structure gradients")
        return rep
    if args.verb == "moment":
        gens = _patch_generators(patch)
        mu = ph.moment_from_potential(
            patch, gens, sample_count=max(5, (args.trials or 20)), seed=args.seed,
            tolerance_scale=args.tolerance_scale,
        )
        val = mu(x)
        for i in range(val.shape[1]):
            rep.add(f"moment_column_{i}", ", ".join(_fmt_float(v) for v in val[:, i]))
        rep.add("preservation_defect", f"{mu.preservation_defect:.3e}")
        rep.add("identity_defect", f"{mu.identity_defect:.3e}")
        rep.add("identity", "potential contracted with the induced fields is a moment map")
        return rep
    if args.verb == "embed":
        emb = ph.local_embed(patch)
        pts = ph.halton_points(patch.dim_m, max(5, (args.trials or 10)), seed=args.seed,
                               scale=patch.sample_scale)
        worst = max(emb.pullback_defect(p) for p in pts)
        rep.add("target_patch", emb.target.name)
        rep.add("samples", len(pts))
        rep.add("max_pullback_defect", f"{worst:.3e}")
        rep.add("identity", "the potential graph pulls the canonical form back to the patch form")
        return rep
    raise ValidationError(f"unknown ham verb {args.verb!r}")


def cmd_gauge(args) -> Report:
    import random as _random

    from . import discgauge as dg
    from . import docio, randgen

    cx = docio.complex_to_delta(_load_document(args))
    rep = Report(f"gauge {args.verb} {args.builtin or args.file or _DEFAULT_BUILTIN['gauge']}")
    rep.add("cells", " ".join(str(c) for c in cx.counts))
    rng = _random.Random(args.seed)
    if args.verb == "betti":
        betti = " ".join(str(dg.cohomology(cx, p).betti) for p in range(cx.dimension + 1))
        rep.add("betti", betti)
        rep.add("identity", "cocycle rank minus coboundary rank per degree")
        return rep
    if args.verb == "omega":
        alpha = randgen.rand_cochain(rng, cx, 1, closed=True)
        beta = randgen.rand_cochain(rng, cx, 1, closed=True)
        coords = dg.omega_disc(cx, alpha, beta)
        rep.add("alpha", _fmt_vector(alpha.values))
        rep.add("beta", _fmt_vector(beta.values))
        rep.add("coset_coords", _fmt_vector(coords))
        rep.add("representative", _fmt_vector(cx.cup_quotient.presentation.lift(coords)))
        rep.add("form_kernel_dim", dg.omega_kernel(cx).dim)
        rep.add("identity", "cup value taken modulo coboundaries; kernel measured, not assumed")
        return rep
    if args.verb == "moment":
        a = randgen.rand_cochain(rng, cx, 1)
        moment = dg.gauge_moment(cx, a)
        zero = dg.moment_zero_set(cx)
        rep.add("connection", _fmt_vector(a.values))
        rep.add("functional_matrix", _fmt_matrix(moment))
        rep.add("functional_zero", moment.is_zero())
        rep.add("zero_set_dim", zero.zero_set.dim)
        rep.add("cocycle_dim", zero.cocycles.dim)
        rep.add("zero_set_equals_cocycles", zero.equals_cocycles)
        rep.add("moment_identity_exact", dg.check_gauge_moment_identity(cx))
        rep.add("identity", "curvature cupped with test functions, modulo coboundaries")
        return rep
    if args.verb == "reduce":
        red = dg.reduce_gauge(cx)
        rep.add("carrier_dim", red.carrier.betti)
        rep.add("target_dim", red.target.betti)
        for i, p in enumerate(red.pairing):
            rep.add(f"pairing_component_{i}", _fmt_matrix(p))
        if red.pairing:
            rep.add("pairing_kernel_dim", red.pairing_kernel().dim)
        rep.add("identity", "reduced space is first cohomology with the cup pairing into second")
        return rep
    if args.verb == "lagrangian":
        lag = dg.lagrangian_check(cx)
        rep.add("h2_trivial", lag.h2_trivial)
        rep.add("z1_dim", lag.z1_dim)
        if lag.h2_trivial:
            rep.add("orthogonal_dim", lag.orthogonal_dim)
            rep.add("z1_is_lagrangian", lag.z1_is_lagrangian)
        else:
            rep.add("z1_is_lagrangian", "skipped")
        rep.add("identity", "zero level set against its cup orthogonal when second cohomology vanishes")
        return rep
    raise ValidationError(f"unknown gauge verb {args.verb!r}")


def cmd_verify(args) -> Tuple[Report, bool]:
    from . import verify

    result = verify.run_suite(
        args.suite, seed=args.seed, trials=args.trials, tolerance_scale=args.tolerance_scale
    )
    rep = Report(f"verify {args.suite}")
    rep.add("identity", result.identity)
    rep.add("seed", result.seed)
    rep.add("trials", result.trials)
    passed = 0
    for c in result.checks:
        status = "pass" if c.passed else "FAIL"
        detail = f" ({c.detail})" if c.detail else ""
        rep.add(f"check[{c.name}]", status + detail)
        passed += c.passed
    rep.add("summary", f"{passed}/{len(result.checks)} pass")
    return rep, result.passed


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one `error:` line and exit 2, like
    every other unusable input; subcommand parsers inherit the class."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polysym",
        description="vector-valued symplectic computations: orthogonals, reductions, "
        "group counterexamples, patch Hamiltonians, and discrete gauge cohomology",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, with_document=True, with_subspace=False):
        if with_document:
            p.add_argument("--file", help="problem document (JSON)")
            p.add_argument("--builtin", help="builtin problem name")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--machine", action="store_true", help="line-delimited key=value output")
        p.add_argument(
            "--tolerance-scale", dest="tolerance_scale", type=float, default=1.0,
            help="multiplies numeric tolerances (exact checks ignore it)",
        )
        if with_subspace:
            p.add_argument("--subspace", help="e1,e2 | full | zero | 1,0,0;0,1,0")

    for name in ("orth", "classify", "reduce"):
        p = sub.add_parser(name, help=f"{name} on a form document")
        common(p, with_subspace=True)
    p = sub.add_parser("embed", help="embedding of a form into the universal model")
    common(p)

    p = sub.add_parser("lie", help="Lie-algebra and rotation-group operations")
    p.add_argument("verb", choices=("center", "centralizer", "reduce", "arnold", "convexity"))
    common(p, with_subspace=True)
    p.add_argument("--xi", help="algebra vector, comma separated")
    p.add_argument("--t", type=float, default=0.5, help="translation time in full periods")

    p = sub.add_parser("ham", help="pointwise Hamiltonian operations on a patch")
    p.add_argument("verb", choices=("omega", "field", "bracket", "moment", "embed"))
    common(p, with_document=False)
    p.add_argument("--patch", default="canonical:1,1", help="canonical:n,k | so3 | rigidbody")
    p.add_argument("--point", help="patch coordinates, comma separated")
    p.add_argument("--function", action="append", help="value-coordinate expression (repeat)")
    p.add_argument("--function2", action="append", help="second function for bracket")

    p = sub.add_parser("gauge", help="discrete gauge operations on a complex")
    p.add_argument("verb", choices=("betti", "omega", "moment", "reduce", "lagrangian"))
    common(p)

    p = sub.add_parser("verify", help="run a named property suite")
    common(p, with_document=False)
    p.add_argument("--suite", required=True, help=", ".join(SUITE_NAMES))
    return parser


# Largest --trials: the convexity check holds every moment image and compares
# them pairwise, so its memory is linear and its time quadratic in the count.
MAX_TRIALS = 100_000


def _float_policy(args):
    """The float-error policy of a command: a float overflow or invalid
    operation (numeric arguments too large for float64) ends the run with one
    error line, not numpy warnings and nan fields. Only the commands that
    compute in floats enter it, so the exact ones never import numpy."""
    if args.cmd == "verify":
        from . import verify

        numeric = args.suite in verify.NUMERIC_SUITES
    else:
        numeric = args.cmd == "ham" or (args.cmd == "lie" and args.verb in ("arnold", "convexity"))
    if not numeric:
        return contextlib.nullcontext()
    import numpy as np

    return np.errstate(over="raise", divide="raise", invalid="raise")


def run(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # A check run on no samples would pass vacuously.
        if args.trials is not None and args.trials < 1:
            raise ValidationError(f"--trials must be at least 1, got {args.trials}")
        if args.trials is not None and args.trials > MAX_TRIALS:
            raise ValidationError(f"--trials is {args.trials}; at most {MAX_TRIALS} is supported")
        # A zero, negative or nan scale decides tolerance checks whatever the data.
        if not (0 < args.tolerance_scale < math.inf):
            raise ValidationError(f"--tolerance-scale must be positive and finite, got {args.tolerance_scale}")
        if not math.isfinite(getattr(args, "t", 0.0)):
            raise ValidationError(f"--t must be finite, got {args.t}")
        with _float_policy(args):
            if args.cmd == "verify":
                rep, ok = cmd_verify(args)
                sys.stdout.write(rep.render(args.machine))
                return 0 if ok else 1
            handler = {
                "orth": cmd_orth,
                "classify": cmd_classify,
                "reduce": cmd_reduce,
                "embed": cmd_embed,
                "lie": cmd_lie,
                "ham": cmd_ham,
                "gauge": cmd_gauge,
            }[args.cmd]
            rep = handler(args)
            sys.stdout.write(rep.render(args.machine))
            return 0
    except (ValidationError, FloatingPointError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ContractViolation as exc:
        sys.stderr.write(f"contract violation: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())
