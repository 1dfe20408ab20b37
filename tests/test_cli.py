import contextlib
import copy
import importlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import render_document
from polysym import cli
from polysym import discgauge as dg
from polysym import docio
from polysym import liealg as la
from polysym.cli import parse_subspace_arg, run
from polysym.verify import NUMERIC_SUITES, SUITES
from polysym.errors import ValidationError
from polysym.exactla import Subspace


class TestDocumentRoundTrip:
    def test_builtin_documents_reach_a_fixpoint(self):
        for name in [*docio.BUILTINS, "canonical:1,1", "canonical:2,2"]:
            doc = docio.resolve_builtin(name)
            text = render_document(doc)
            reparsed = docio.parse_document(text)
            assert reparsed == doc, name
            assert render_document(reparsed) == text, name

    def test_fraction_entries_survive(self):
        text = json.dumps(
            {"kind": "form", "form": [[["0", "1/2"], ["-1/2", 0]]], "seed": 3}
        )
        doc = docio.parse_document(text)
        form = docio.form_to_vform(doc)
        assert str(form.components[0][0, 1]) == "1/2"
        again = docio.parse_document(render_document(doc))
        assert again == doc

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            docio.parse_document('{"kind": "mystery"}')

    def test_malformed_json_rejected(self):
        with pytest.raises(ValidationError):
            docio.parse_document("{nope")

    def test_non_skew_form_rejected(self):
        with pytest.raises(ValidationError):
            docio.parse_document(json.dumps({"kind": "form", "form": [[[0, 1], [1, 0]]]}))

    def test_bad_scalar_rejected(self):
        with pytest.raises(ValidationError):
            docio.parse_document(
                json.dumps({"kind": "form", "form": [[[0, 1.5], [-1.5, 0]]]})
            )

    def test_complex_document_parses(self):
        doc = docio.resolve_builtin("torus3")
        cx = docio.complex_to_delta(doc)
        assert cx.counts == (1, 7, 12, 6)

    def test_lie_document_parses(self):
        algebra = docio.lie_to_algebra(docio.resolve_builtin("sl2"))
        assert algebra.dim == 3


class TestBuiltinRegistry:
    KINDS = {
        "cross": "form", "canonical:1,1": "form", "canonical:2,3": "form",
        "so3": "lie", "sl2": "lie", "heisenberg": "lie",
        "interval": "complex", "sphere2": "complex", "sphere3": "complex",
        "torus2": "complex", "torus3": "complex",
    }

    def test_every_builtin_resolves_to_its_kind(self):
        assert set(docio.BUILTINS) == {n for n in self.KINDS if not n.startswith("canonical:")}
        for name, kind in self.KINDS.items():
            assert docio.resolve_builtin(name).kind == kind, name

    def test_lie_documents_render_the_algebra_triples(self):
        for name in ("so3", "sl2", "heisenberg"):
            algebra = docio.lie_to_algebra(docio.resolve_builtin(name))
            assert algebra.components == la.LieAlgebra.from_triples(*la.BUILTIN_TRIPLES[name]).components

    def test_resolving_a_form_builds_no_complex(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a DeltaComplex was constructed")

        monkeypatch.setattr(dg.DeltaComplex, "__init__", refuse)
        assert docio.resolve_builtin("cross").kind == "form"
        with pytest.raises(AssertionError):
            docio.resolve_builtin("torus2")

    def test_builtins_carry_their_factory_object_unparsed(self, monkeypatch, capsys):
        def refuse(doc):
            raise AssertionError("a builtin was parsed back from its payload")

        for kind in list(docio._BUILDERS):
            monkeypatch.setitem(docio._BUILDERS, kind, refuse)
        for name in [*docio.BUILTINS, "canonical:2,3"]:
            assert docio.resolve_builtin(name).built is not None, name
        for argv in (["embed", "--builtin", "canonical:1,2"], ["lie", "center"], ["gauge", "betti"]):
            assert run(argv) == 0, argv

    @pytest.mark.parametrize("name", ["canonical:x", "canonical:1", "canonical:1,2,3"])
    def test_bad_canonical_spec(self, name):
        with pytest.raises(ValidationError):
            docio.resolve_builtin(name)


FILE_COMMANDS = {
    "form": ["orth", "--subspace", "e1"],
    "lie": ["lie", "center"],
    "complex": ["gauge", "betti"],
}


@pytest.mark.parametrize("name", ["cross", "so3", "torus3"])
def test_file_documents_are_built_once(tmp_path, monkeypatch, capsys, name):
    doc = docio.resolve_builtin(name)
    path = tmp_path / "doc.json"
    path.write_text(render_document(doc))
    build = docio._BUILDERS[doc.kind]
    builds = []
    monkeypatch.setitem(docio._BUILDERS, doc.kind, lambda d: builds.append(d) or build(d))
    assert run(FILE_COMMANDS[doc.kind] + ["--file", str(path)]) == 0
    assert len(builds) == 1
    parsed = docio.parse_document(path.read_text())
    assert parsed == doc and parsed.built is not None and len(builds) == 2


def test_parsed_documents_carry_what_they_describe():
    form = docio.parse_document(render_document(docio.resolve_builtin("cross"))).built
    assert form.components == docio.form_to_vform(docio.resolve_builtin("cross")).components
    algebra = docio.parse_document(render_document(docio.resolve_builtin("sl2"))).built
    assert algebra.components == la.sl2().components
    cx = docio.parse_document(render_document(docio.resolve_builtin("torus3"))).built
    assert (cx.counts, cx.faces) == ((1, 7, 12, 6), dg.torus_complex(3).faces)
    with pytest.raises(ValidationError, match="expected a lie document"):
        docio.lie_to_algebra(docio.parse_document(render_document(docio.resolve_builtin("cross"))))


def _in_fresh_process(code: str, stdin: str = "") -> str:
    """The stdout of `python -c code` in a fresh interpreter that imports
    this checkout's sources, run from the repository root."""
    src = str(Path(docio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env, cwd=REPO_ROOT,
        capture_output=True, text=True, check=True,
    ).stdout


def test_cli_imports_no_scipy():
    code = (
        "import pkgutil, importlib, sys, polysym, polysym.cli\n"
        "for m in pkgutil.iter_modules(polysym.__path__):\n"
        "    importlib.import_module('polysym.' + m.name)\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n"
    )
    assert _in_fresh_process(code) == "[]\n"


def _is_exact(argv) -> bool:
    """Whether a CLI argv computes over the rationals only: every command but
    `ham`, `lie arnold|convexity` and the numeric verify suites."""
    if argv[0] == "verify":
        return argv[argv.index("--suite") + 1] not in NUMERIC_SUITES
    return argv[0] != "ham" and argv[:2] not in (["lie", "arnold"], ["lie", "convexity"])


def test_exact_modules_import_no_numpy():
    """The exact modules, the CLI front end, and every exact golden argv run
    through `cli.run`, all in one process that never loads numpy."""
    exact = [case for case in GOLDEN if _is_exact(case["argv"])]
    code = (
        "import contextlib, io, json, sys, polysym.exactla, polysym.polycore, polysym.discgauge\n"
        "import polysym.cli, polysym.docio, polysym.verify, polysym.lietable\n"
        "codes = []\n"
        "for argv in json.loads(sys.stdin.read()):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(polysym.cli.run(argv))\n"
        "print(json.dumps([codes, sorted(n for n in sys.modules if n.split('.')[0] == 'numpy')]))\n"
    )
    out = _in_fresh_process(code, json.dumps([case["argv"] for case in exact]))
    assert exact
    assert json.loads(out) == [[case["exit"] for case in exact], []]


# Each verb family, as the golden argvs it matches, and the modules none of
# its commands may load.
VERB_FAMILIES = {
    "lie": (lambda argv: argv[0] == "lie" and argv[1] in ("center", "centralizer", "reduce"),
            {"discgauge", "randgen", "verify"}),
    "form": (lambda argv: argv[0] in ("orth", "classify", "reduce", "embed"), {"discgauge", "verify"}),
    "gauge": (lambda argv: argv[0] == "gauge", {"lietable", "verify"}),
    # The suite draws its lines and planes from randgen; no cochains.
    "verify-cross-table": (lambda argv: argv[:3] == ["verify", "--suite", "cross-table"],
                           {"discgauge", "liealg", "pointham"}),
}


_VERB_RUNNER = (
    "import contextlib, io, json, sys, polysym.cli\n"
    "codes = []\n"
    "for argv in json.loads(sys.stdin.read()):\n"
    "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "        codes.append(polysym.cli.run(argv))\n"
    "print(json.dumps([codes, sorted(n for n in sys.modules if n.startswith('polysym.'))]))\n"
)


@pytest.mark.parametrize("family", sorted(VERB_FAMILIES))
def test_each_verb_loads_only_its_layer(family):
    """Every golden argv of one verb family through `cli.run`, in one fresh
    process; the polysym modules loaded at the end leave out the family's
    forbidden ones."""
    matches, forbidden = VERB_FAMILIES[family]
    cases = [case for case in GOLDEN if matches(case["argv"])]
    codes, loaded = json.loads(_in_fresh_process(_VERB_RUNNER, json.dumps([case["argv"] for case in cases])))
    assert cases and codes == [case["exit"] for case in cases]
    assert "polysym.exactla" in loaded
    assert not {f"polysym.{name}" for name in forbidden} & set(loaded)


def test_ham_loads_no_lie_layer(monkeypatch):
    """The benchmark's `ham` argvs (none is in the golden file) through
    `cli.run` in one fresh process: the rotation-group generator is in closed
    form, so neither liealg nor lietable loads."""
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    from perfbench.inputs import EXACT_ARGVS, NUMERIC_ARGVS

    argvs = [list(argv) for argv in EXACT_ARGVS + NUMERIC_ARGVS if argv[0] == "ham"]
    assert sorted(argv[1] for argv in argvs) == ["bracket", "embed", "field", "moment", "omega"]
    assert ["so3", "rigidbody"] == [argv[argv.index("--patch") + 1] for argv in argvs[-2:]]
    codes, loaded = json.loads(_in_fresh_process(_VERB_RUNNER, json.dumps(argvs)))
    assert codes == [0] * len(argvs)
    assert "polysym.pointham" in loaded
    assert not {"polysym.liealg", "polysym.lietable"} & set(loaded)


def test_no_module_imports_dataclasses():
    code = (
        "import importlib, pkgutil, sys\n"
        "preloaded = 'dataclasses' in sys.modules\n"
        "import polysym\n"
        "for m in pkgutil.iter_modules(polysym.__path__):\n"
        "    importlib.import_module('polysym.' + m.name)\n"
        "print(preloaded, 'dataclasses' in sys.modules)\n"
    )
    preloaded, loaded = _in_fresh_process(code).split()
    if preloaded == "True":
        pytest.skip("the interpreter loads dataclasses before polysym")
    assert loaded == "False"


def test_static_name_tables_match_their_sources():
    """cli and docio spell out the suite and builtin names so that listing
    them imports no suite, algebra or complex code."""
    from polysym import lietable

    assert list(cli.SUITE_NAMES) == sorted(SUITES)
    assert set(docio.BUILTINS) == {"cross"} | set(lietable.BUILTIN_TRIPLES) | set(dg.BUILTIN_COMPLEXES)


def test_verify_help_lists_every_suite(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "1000")  # one help line, so no name is wrapped
    with pytest.raises(SystemExit) as exit_info:
        run(["verify", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in SUITES)


# One routine that each numeric command calls, and the module the command
# reads it from when it runs.
NUMERIC_PATHS = [
    (["ham", "omega"], "pointham", "omega_at"),
    (["ham", "field", "--function", "x0"], "pointham", "hamiltonian_field"),
    (["ham", "bracket", "--function", "x0", "--function2", "x1"], "pointham", "poisson_bracket"),
    (["ham", "moment"], "pointham", "moment_from_potential"),
    (["ham", "embed"], "pointham", "local_embed"),
    (["lie", "arnold"], "liealg", "arnold_counterexample"),
    (["lie", "convexity"], "liealg", "convexity_counterexample"),
    (["verify", "--suite", "moment-identity"], "pointham", "moment_identity_defect"),
    (["verify", "--suite", "arnold"], "liealg", "arnold_counterexample"),
    (["verify", "--suite", "convexity"], "liealg", "convexity_counterexample"),
]


@pytest.mark.parametrize("argv,module,routine", NUMERIC_PATHS, ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_numeric_paths_raise_on_float_errors(monkeypatch, capsys, argv, module, routine):
    """Inside every numeric command, numpy raises on overflow, division by
    zero and invalid operations, and the policy ends with the run."""
    import numpy as np

    before = np.geterr()
    seen = []

    def record(*args, **kwargs):
        seen.append({key: np.geterr()[key] for key in ("over", "divide", "invalid")})
        raise ValidationError("recorded")

    monkeypatch.setattr(importlib.import_module(f"polysym.{module}"), routine, record)
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: recorded\n"
    assert seen == [{"over": "raise", "divide": "raise", "invalid": "raise"}]
    assert np.geterr() == before


class TestSubspaceArg:
    def test_standard_basis_tokens(self):
        assert parse_subspace_arg("e1", 3) == Subspace.from_vectors(3, [(1, 0, 0)])
        assert parse_subspace_arg("e1,e3", 3) == Subspace.from_vectors(
            3, [(1, 0, 0), (0, 0, 1)]
        )

    def test_keywords(self):
        assert parse_subspace_arg("zero", 2).is_zero()
        assert parse_subspace_arg("full", 2) == Subspace.full(2)

    def test_explicit_vectors(self):
        s = parse_subspace_arg("1,0,0;0,1/2,1", 3)
        assert s.dim == 2

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            parse_subspace_arg("e4", 3)
        with pytest.raises(ValidationError):
            parse_subspace_arg("1,0", 3)


class TestExitCodes:
    def test_success(self, capsys):
        assert run(["gauge", "betti", "--builtin", "torus2"]) == 0
        out = capsys.readouterr().out
        assert "betti: 1 2 1" in out

    def test_validation_error(self, capsys):
        assert run(["orth", "--builtin", "nosuch"]) == 2
        assert "unknown builtin" in capsys.readouterr().err

    def test_contract_violation(self, capsys):
        assert run(["lie", "arnold", "--t", "1.0", "--trials", "5"]) == 1
        assert "vacuous" in capsys.readouterr().err

    # A defect that a product check catches ends the run like any contract
    # violation: exit 1 and one stderr line, no traceback.
    def test_defect_in_the_descent_check(self, monkeypatch, capsys):
        from polysym import polycore

        monkeypatch.setattr(polycore, "orthogonal", lambda omega, a: Subspace.full(omega.dim_u))
        assert run(["reduce", "--builtin", "cross", "--subspace", "e1"]) == 1
        err = capsys.readouterr().err
        assert err == "contract violation: descent to the quotient failed\n"

    def test_defect_in_the_reduction_quotient(self, monkeypatch, capsys):
        # With intersections taken as sums, A + its orthogonal leaves the
        # orthogonal, and linear_reduce's quotient refuses it. Under verify
        # the refusal is the suite's one failed check, in its report.
        from polysym import exactla, polycore

        monkeypatch.setattr(polycore, "intersect", exactla.sum_)
        assert run(["verify", "--suite", "reduction-kernel"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-2:] == [
            "check[contract]: FAIL (the meet of A and its orthogonal is not contained in the orthogonal)",
            "summary: 0/1 pass",
        ]

    def test_defect_in_the_gauge_invariance_check(self, monkeypatch, tmp_path, capsys):
        # A grid torus has the non-constant 0-cochains the check shifts by; its
        # edges' back faces read as front faces make the pairing gauge dependent.
        monkeypatch.syspath_prepend(str(REPO_ROOT))
        from perfbench.inputs import grid_torus_simplices

        simplices = grid_torus_simplices(3, 2)
        doc = {"kind": "complex", "simplices": {str(p): [list(s) for s in simplices[p]] for p in simplices}}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        valid = dg.DeltaComplex.cup_table

        def corrupted(self, p, q):
            table = valid(self, p, q)
            return tuple((f, f) for f, _ in table) if (p, q) == (1, 1) else table

        monkeypatch.setattr(dg.DeltaComplex, "cup_table", corrupted)
        assert run(["gauge", "reduce", "--file", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "contract violation: pairing is not gauge invariant\n"

    def test_verify_unknown_suite(self, capsys):
        assert run(["verify", "--suite", "nope"]) == 2

    def test_missing_input(self, capsys):
        assert run(["orth", "--subspace", "e1"]) == 2

    # ham and verify read no document: a document option is an error, not ignored.
    @pytest.mark.parametrize(
        "argv",
        [
            ["ham", "omega", "--file", "DOC"],
            ["ham", "omega", "--builtin", "torus3"],
            ["ham", "moment", "--patch", "so3", "--builtin", "so3"],
            ["verify", "--suite", "cross-table", "--builtin", "nope"],
            ["verify", "--suite", "cross-table", "--file", "DOC"],
        ],
    )
    def test_document_options_rejected_where_unread(self, tmp_path, capsys, argv):
        doc = tmp_path / "doc.json"
        doc.write_text('{"kind": "patch", "patch": "so3"}')
        assert run([str(doc) if a == "DOC" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unrecognized arguments: --") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("trials", ["0", "-5"])
    @pytest.mark.parametrize(
        "argv",
        [["verify", "--suite", "embedding"], ["verify", "--suite", "moment-identity"], ["lie", "arnold"]],
    )
    def test_trial_counts_below_one_rejected(self, capsys, argv, trials):
        assert run(argv + ["--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --trials must be at least 1, got {trials}\n"


NON_FINITE_ARGUMENTS = {
    "xi nan": ["lie", "arnold", "--xi", "nan,0,0", "--trials", "5"],
    "xi -inf": ["lie", "arnold", "--xi=1,-inf,0", "--trials", "5"],
    "convexity xi inf": ["lie", "convexity", "--xi", "inf,0,0", "--trials", "5"],
    "t nan": ["lie", "arnold", "--t", "nan", "--trials", "5"],
    "t inf": ["lie", "arnold", "--t", "inf", "--trials", "5"],
    "point nan": ["ham", "omega", "--patch", "so3", "--point", "nan,0,0"],
    "point inf": ["ham", "field", "--patch", "canonical:1,1", "--point", "inf,0", "--function", "x0"],
    "scale nan": ["lie", "arnold", "--tolerance-scale", "nan", "--trials", "5"],
    "scale inf": ["verify", "--suite", "convexity", "--tolerance-scale", "inf", "--trials", "5"],
    "scale -1": ["lie", "arnold", "--tolerance-scale", "-1", "--trials", "5"],
    "scale 0": ["ham", "field", "--patch", "canonical:1,1", "--function", "x0", "--tolerance-scale", "0"],
    # Finite arguments that overflow float64 or that numpy cannot take.
    "t * xi overflows": ["lie", "arnold", "--t", "1e308", "--trials", "5"],
    "xi norm overflows": ["lie", "convexity", "--xi", "1e308,1e308,0", "--trials", "5"],
    "so3 theta overflows": ["ham", "omega", "--patch", "so3", "--point", "1e103,0,0"],
    "xi of two entries": ["lie", "arnold", "--xi", "1,0", "--trials", "5"],
    "negative haar seed": ["lie", "convexity", "--seed", "-1", "--trials", "5"],
    "negative halton seed": ["ham", "embed", "--patch", "so3", "--seed", "-1"],
    # --subspace entries go through the document scalar parser.
    "subspace letters": ["orth", "--builtin", "cross", "--subspace", "a,b,c"],
    "subspace 1/0": ["orth", "--builtin", "cross", "--subspace", "1/0,1,1"],
    "subspace nan": ["orth", "--builtin", "cross", "--subspace", "nan,1,1"],
    "subspace empty entry": ["orth", "--builtin", "cross", "--subspace", "1,,1"],
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_ARGUMENTS))
def test_unusable_numeric_argument_exits_2(capsys, case):
    assert run(NON_FINITE_ARGUMENTS[case]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_large_magnitudes_print_in_exponent_form(capsys):
    # In fixed point, 1e308 took 309 digits; magnitudes below 1e15 print as before.
    assert run(["ham", "omega", "--patch", "canonical:1,1", "--point", "1e308,-1e308"]) == 0
    out = capsys.readouterr().out
    assert "point: 1.000000000000e+308, -1.000000000000e+308\n" in out
    assert max(len(line) for line in out.splitlines()) <= 100
    assert [cli._fmt_float(x) for x in (1e15, -1e15, 999999999999999.9, 0.5)] == [
        "1.000000000000e+15", "-1.000000000000e+15", "999999999999999.875000000000", "0.500000000000",
    ]


def test_exponent_literals_exit_2_within_a_second(tmp_path):
    """Fraction("1e99999999") would build a 10^8-digit integer, so scalars
    with an exponent are rejected before Fraction reads them. Run in a child
    process, so that a missing check fails on the timeout."""
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"kind": "form", "form": [[[0, "1e3000000"], ["-1e3000000", 0]]]}))
    argvs = [["orth", "--builtin", "cross", "--subspace", "1e99999999,1,1"], ["orth", "--file", str(path)]]
    code = (
        "import contextlib, io, json, sys, time\n"
        "from polysym.cli import run\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    e = io.StringIO()\n"
        "    start = time.perf_counter()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(e):\n"
        "        code = run(argv)\n"
        "    out.append([code, e.getvalue(), time.perf_counter() - start])\n"
        "print(json.dumps(out))\n"
    )
    src = str(Path(docio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for argv, (exit_code, stderr, seconds) in zip(argvs, json.loads(proc.stdout)):
        assert exit_code == 2 and stderr.startswith("error: bad scalar literal") and stderr.count("\n") == 1, argv
        assert seconds < 1.0, argv


# Arguments argparse itself rejects: one `error:` line and exit 2, no usage block.
ARGPARSE_ERRORS = {
    "malformed int": ["gauge", "betti", "--trials", "x"],
    "malformed float": ["lie", "arnold", "--t", "1/2"],
    "unknown option": ["orth", "--builtin", "cross", "--bogus"],
    "option the subcommand lacks": ["gauge", "betti", "--subspace", "e1"],
    "option without its value": ["lie", "center", "--builtin"],
    "flag with a value": ["gauge", "betti", "--machine=1"],
    "unknown subcommand": ["nosuch"],
    "no subcommand": [],
    "verb outside the choices": ["gauge", "nosuch"],
    "missing required option": ["verify"],
}


@pytest.mark.parametrize("case", sorted(ARGPARSE_ERRORS))
def test_argparse_error_is_one_line_and_exit_2(capsys, case):
    assert run(ARGPARSE_ERRORS[case]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_argparse_error_text(capsys):
    assert run(["gauge", "betti", "--trials", "x"]) == 2
    assert capsys.readouterr().err == "error: argument --trials: invalid int value: 'x'\n"


@pytest.mark.parametrize("argv", [["-h"], ["gauge", "--help"]])
def test_help_still_prints_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run(argv)
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: polysym") and captured.err == ""


# Inputs whose size would exhaust memory or time without a bound. They run in
# one child process under an address-space limit, so a missing check fails
# the test (a MemoryError traceback, or the timeout) instead of the host.
OVERSIZED_ARGUMENTS = [
    ["embed", "--builtin", "canonical:1,16"],
    ["orth", "--builtin", "canonical:300,300", "--subspace", "e1"],
    ["ham", "omega", "--patch", "canonical:1000,1000"],
    ["ham", "embed", "--patch", "canonical:30,30"],
    ["lie", "convexity", "--trials", "1000000000"],
    ["verify", "--suite", "convexity", "--trials", "1000000000"],
    ["lie", "convexity", "--trials", str(cli.MAX_TRIALS + 1)],
]


def test_oversized_inputs_exit_2_under_a_memory_limit():
    import resource

    code = (
        "import contextlib, io, json, sys\n"
        "from polysym.cli import run\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    o, e = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):\n"
        "        out.append([run(argv), o.getvalue(), e.getvalue()])\n"
        "print(json.dumps(out))\n"
    )
    limit = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(docio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(OVERSIZED_ARGUMENTS)],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
    )
    assert proc.returncode == 0, proc.stderr
    for argv, (exit_code, stdout, stderr) in zip(OVERSIZED_ARGUMENTS, json.loads(proc.stdout)):
        assert (exit_code, stdout) == (2, ""), argv
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, argv
        assert "at most" in stderr, argv


def test_largest_canonical_shapes_in_use_are_accepted():
    from polysym.polycore import MAX_CANONICAL_CELLS, canonical_dim

    assert canonical_dim(4, 7) == 32 and 7 * 32**2 <= MAX_CANONICAL_CELLS
    assert canonical_dim(32, 7) == 256 and 7 * 256**2 <= MAX_CANONICAL_CELLS
    with pytest.raises(ValidationError, match="at most"):
        canonical_dim(64, 63)


MALFORMED_DOCUMENTS = {
    "non-integer faces key": {
        "kind": "complex",
        "simplices": {"0": [[0], [1]], "1": [[0, 1]]},
        "faces": {"x": [[1, 0]]},
    },
    "plain int simplex": {"kind": "complex", "simplices": {"0": [0, 1]}},
    "string triple index": {"kind": "lie", "dim": 3, "triples": [["a", 2, 3, 1]]},
    "float triple index": {"kind": "lie", "dim": 3, "triples": [[1.5, 2, 3, 1]]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_malformed_document_exits_2(tmp_path, capsys, case):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MALFORMED_DOCUMENTS[case]))
    verb = ["gauge", "betti"] if MALFORMED_DOCUMENTS[case]["kind"] == "complex" else ["lie", "center"]
    assert run(verb + ["--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


BAD_FORM_DOCUMENTS = {
    "non-square": ([[[0, 1, 0], [-1, 0, 0]]], "square of equal size"),
    "unequal sizes": ([[[0, 1], [-1, 0]], [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]], "square of equal size"),
    "non-skew": ([[[0, 1], [1, 0]]], "skew-symmetric"),
}


@pytest.mark.parametrize("case", sorted(BAD_FORM_DOCUMENTS))
def test_bad_form_document_exits_2_with_one_error_line(tmp_path, capsys, case):
    components, reason = BAD_FORM_DOCUMENTS[case]
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"kind": "form", "form": components}))
    assert run(["orth", "--file", str(path), "--subspace", "e1"]) == 2
    assert capsys.readouterr() == ("", f"error: form components must be {reason}\n")


def test_oversized_lie_dim_exits_2_before_allocating(tmp_path, capsys):
    import tracemalloc

    path = tmp_path / "lie.json"
    path.write_text(json.dumps({"kind": "lie", "dim": 100000, "triples": []}))
    tracemalloc.start()
    try:
        code = run(["lie", "center", "--file", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    # center's dim ad matrices would be 10^15 cells; the check runs first.
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: lie document 'dim' is 100000; at most {docio.MAX_LIE_DIM} is supported\n"


def test_lie_dim_just_above_the_cap_is_rejected():
    text = json.dumps({"kind": "lie", "dim": docio.MAX_LIE_DIM + 1, "triples": []})
    with pytest.raises(ValidationError, match="at most"):
        docio.lie_to_algebra(docio.parse_document(text))


def _complex_text(simplices) -> str:
    return json.dumps({"kind": "complex", "simplices": {str(p): [list(s) for s in cells] for p, cells in simplices.items()}})


def test_complex_cells_past_the_cap_exit_2_with_one_error_line(tmp_path, capsys):
    cap = docio.MAX_COMPLEX_CELLS
    vertices = lambda count: {0: [(v,) for v in range(count)]}  # noqa: E731
    assert docio.complex_to_delta(docio.parse_document(_complex_text(vertices(cap)))).counts == (cap,)
    path = tmp_path / "complex.json"
    path.write_text(_complex_text(vertices(cap + 1)))
    assert run(["gauge", "betti", "--file", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: complex document has {cap + 1} cells; at most {cap} are supported\n")


def _zero_form_text(n: int, k: int) -> str:
    return json.dumps({"kind": "form", "form": [[[0] * n for _ in range(n)] for _ in range(k)]})


def test_form_cells_past_the_cap_exit_2_before_any_entry_is_read(tmp_path, capsys, monkeypatch):
    cap = docio.MAX_FORM_CELLS
    for n, k in ((128, 1), (64, 4)):
        form = docio.form_to_vform(docio.parse_document(_zero_form_text(n, k)))
        assert form.dim_v * form.dim_u**2 == cap

    def refuse(x):
        raise AssertionError("an entry was parsed before the cap")

    monkeypatch.setattr(docio, "parse_scalar", refuse)
    path = tmp_path / "form.json"
    for n, k in ((129, 1), (74, 3)):
        path.write_text(_zero_form_text(n, k))
        assert run(["orth", "--file", str(path), "--subspace", "e1"]) == 2
        assert capsys.readouterr() == ("", f"error: form document has {k * n * n} cells; at most {cap} are supported\n")


def test_subspace_entries_past_the_form_cap_exit_2_before_any_entry_is_read(tmp_path, capsys, monkeypatch):
    # On a form with n = 1, each listed vector is one entry.
    cap = docio.MAX_FORM_CELLS
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"kind": "form", "form": [[[0]]], "subspace": [[1]] * cap}))
    assert run(["orth", "--file", str(path)]) == 0
    assert run(["orth", "--file", str(path), "--subspace", ";".join(["1"] * cap)]) == 0
    capsys.readouterr()

    parsed = []
    original = docio.parse_scalar
    monkeypatch.setattr(docio, "parse_scalar", lambda x: parsed.append(x) or original(x))
    error = f"error: subspace lists {cap + 1} entries; at most {cap} are supported\n"
    path.write_text(json.dumps({"kind": "form", "form": [[[0]]], "subspace": [[1]] * (cap + 1)}))
    assert run(["orth", "--file", str(path)]) == 2
    assert capsys.readouterr() == ("", error)
    path.write_text(json.dumps({"kind": "form", "form": [[[0]]]}))
    for listed in (";".join(["1"] * (cap + 1)), ",".join(["e1"] * (cap + 1))):
        assert run(["orth", "--file", str(path), "--subspace", listed]) == 2
        assert capsys.readouterr() == ("", error)
    # Only the form's one entry was read, once per run.
    assert parsed == [0, 0, 0]


def test_the_grid_torus_at_the_cell_cap_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    from perfbench.inputs import grid_torus_simplices

    simplices = grid_torus_simplices(5, 3)
    assert sum(len(cells) for cells in simplices.values()) == docio.MAX_COMPLEX_CELLS
    path = tmp_path / "grid.json"
    path.write_text(_complex_text(simplices))
    assert run(["gauge", "betti", "--file", str(path)]) == 0
    assert "betti: 1 3 3 1\n" in capsys.readouterr().out
    assert run(["gauge", "omega", "--file", str(path)]) == 0
    assert "form_kernel_dim: 125\n" in capsys.readouterr().out
    assert run(["gauge", "moment", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "zero_set_dim: 252\ncocycle_dim: 127\n" in out and "moment_identity_exact: true\n" in out


def test_abelian_center_at_the_dim_cap_runs_in_under_a_second(tmp_path, capsys):
    import time

    assert docio.MAX_LIE_DIM == 64
    path = tmp_path / "lie.json"
    path.write_text(json.dumps({"kind": "lie", "dim": 64, "triples": []}))
    start = time.perf_counter()
    assert run(["lie", "center", "--file", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    assert "algebra_dim: 64" in capsys.readouterr().out


def _semidirect_triples(count):
    """[e_1, e_j] gets e_k for the first `count` pairs (j, k), j, k >= 2: e_1
    acting on an abelian ideal, a Lie algebra whatever the count."""
    return [[1, j, k, 1] for j in range(2, 65) for k in range(2, 65)][:count]


def test_structure_constants_are_capped_after_summing(tmp_path, capsys, monkeypatch):
    cap = docio.MAX_LIE_CONSTANTS
    over = _semidirect_triples(cap + 1)
    path = tmp_path / "lie.json"
    path.write_text(json.dumps({"kind": "lie", "dim": 64, "triples": over}))

    def refuse(self):
        raise AssertionError("Jacobi ran before the cap")

    monkeypatch.setattr(la.LieAlgebra, "_check_jacobi", refuse)
    assert run(["lie", "center", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: lie document has {cap + 1} nonzero structure constants; at most {cap} is supported\n"
    monkeypatch.undo()
    # The last constant cancelled by its counterpart [e_j, e_1], plus an i == j
    # entry, sums to exactly the cap.
    _, j, k, _ = over[-1]
    text = json.dumps({"kind": "lie", "dim": 64, "triples": over + [[j, 1, k, 1], [2, 2, 3, 5]]})
    algebra = docio.lie_to_algebra(docio.parse_document(text))
    assert sum(len(terms) for (a, b), terms in algebra.brackets.items() if a < b) == cap


def test_closed_cochains_need_a_degree_the_complex_has(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"kind": "complex", "simplices": {"0": [[0], [1]]}}))
    assert run(["gauge", "omega", "--file", str(path)]) == 2
    assert capsys.readouterr().err == "error: cohomology degree out of range\n"


def test_gauge_default_builtin_is_named_in_the_header(capsys):
    assert run(["gauge", "betti", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "command: gauge betti torus2"
    assert "betti: 1 2 1" in out


@pytest.mark.parametrize("function", ["exp(1000)", "x0/x1", "10**400"])
def test_expression_evaluation_error_exits_1(capsys, function):
    assert run(["ham", "field", "--patch", "canonical:1,1", "--function", function]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("contract violation: ")
    assert captured.err.count("\n") == 1


def test_expression_literals_are_floats():
    from polysym.exprs import compile_scalar

    # Integer arithmetic would give 1; in floats 10**20 + 1 rounds to 10**20.
    assert compile_scalar("(10**20 + 1) - 10**20", 1)([0.0]) == 0.0


class TestReports:
    def test_classify_cross_line(self, capsys):
        assert run(["classify", "--builtin", "cross", "--subspace", "e1"]) == 0
        out = capsys.readouterr().out
        assert "lagrangian: true" in out
        assert "polysymplectic: false" in out

    def test_determinism_bytes(self, capsys):
        args = ["gauge", "reduce", "--builtin", "torus3", "--machine"]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == first

    def test_seeded_determinism(self, capsys):
        args = ["gauge", "omega", "--builtin", "torus2", "--seed", "11"]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == first

    def test_machine_format(self, capsys):
        assert run(["gauge", "betti", "--builtin", "sphere2", "--machine"]) == 0
        out = capsys.readouterr().out
        assert "betti=1 0 1" in out
        assert ": " not in out.split("identity", 1)[0]

    def test_orth_on_file_document(self, tmp_path, capsys):
        doc = docio.resolve_builtin("cross")
        path = tmp_path / "cross.json"
        path.write_text(render_document(doc))
        assert run(["orth", "--file", str(path), "--subspace", "e2"]) == 0
        out = capsys.readouterr().out
        assert "orthogonal: (0, 1, 0)" in out

    def test_reduce_with_coefficient_map(self, tmp_path, capsys):
        doc = docio.resolve_builtin("canonical:1,1")
        payload = dict(doc.payload)
        payload["coefficient_map"] = [[1]]
        path = tmp_path / "doc.json"
        path.write_text(
            render_document(
                docio.ProblemDocument(kind="form", payload=payload, seed=0)
            )
        )
        assert run(["reduce", "--file", str(path), "--subspace", "e1"]) == 0
        out = capsys.readouterr().out
        assert "reduction_candidate_ok: true" in out
        assert "carrier_dim: 0" in out
        assert "nondegenerate: true" in out

    @pytest.mark.parametrize(
        "rows,code,err",
        [
            ([[1]] * 4000, 1, "contract violation: reduction candidates must be surjective\n"),
            ([[1, 0]] * 3, 2, "error: coefficient map source does not match the form\n"),
        ],
        ids=["4000-rows", "source-mismatch"],
    )
    def test_coefficient_map_is_refused_before_it_is_applied(self, tmp_path, monkeypatch, capsys, rows, code, err):
        # A 64 x 64 form of one component: a surjection onto it has at most
        # one row, so 4,000 rows are refused by the rank test before any
        # component row is combined, and a map of the wrong shape is refused
        # as a validation error before the rank test.
        from polysym import exactla, polycore

        payload = dict(docio.resolve_builtin("canonical:32,1").payload)
        payload["coefficient_map"] = rows
        path = tmp_path / "doc.json"
        path.write_text(render_document(docio.ProblemDocument(kind="form", payload=payload, seed=0)))
        combined = []
        monkeypatch.setattr(polycore, "_combine", lambda *a: combined.append(a) or exactla._combine(*a))
        assert run(["reduce", "--file", str(path), "--subspace", "e1"]) == code
        assert capsys.readouterr().err == err
        assert combined == []

    def test_embed_command(self, capsys):
        assert run(["embed", "--builtin", "cross"]) == 0
        assert "pullback_exact: true" in capsys.readouterr().out

    def test_lie_verbs(self, capsys):
        assert run(["lie", "center", "--builtin", "heisenberg"]) == 0
        assert "center: (0, 0, 1)" in capsys.readouterr().out
        assert run(["lie", "centralizer", "--builtin", "sl2", "--subspace", "e1"]) == 0
        assert "centralizer: (1, 0, 0)" in capsys.readouterr().out
        assert run(["lie", "reduce", "--builtin", "so3", "--subspace", "e1"]) == 0
        assert "carrier_dim: 0" in capsys.readouterr().out

    def test_ham_verbs(self, capsys):
        assert run(["ham", "omega", "--patch", "canonical:1,1", "--point", "0,0"]) == 0
        out = capsys.readouterr().out
        assert "omega_component_0" in out
        assert (
            run(
                [
                    "ham", "field", "--patch", "canonical:1,1",
                    "--point", "0.2,0.4", "--function", "x1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "is_hamiltonian: true" in out
        assert "field: -1.000000000000, 0.000000000000" in out
        assert (
            run(
                [
                    "ham", "bracket", "--patch", "canonical:1,1", "--point", "0,0",
                    "--function", "x0", "--function2", "x1",
                ]
            )
            == 0
        )
        assert "bracket: -1.000000000000" in capsys.readouterr().out
        assert run(["ham", "moment", "--patch", "so3", "--trials", "6"]) == 0
        assert "identity_defect" in capsys.readouterr().out
        assert run(["ham", "embed", "--patch", "rigidbody", "--trials", "5"]) == 0
        assert "max_pullback_defect" in capsys.readouterr().out

    def test_ham_rejects_bad_expression(self, capsys):
        assert (
            run(
                [
                    "ham", "field", "--patch", "canonical:1,1",
                    "--function", "__import__('os')",
                ]
            )
            == 2
        )

    def test_gauge_moment_report(self, capsys):
        assert run(["gauge", "moment", "--builtin", "sphere2", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "moment_identity_exact: true" in out
        assert "zero_set_dim: 5" in out

    def test_gauge_lagrangian_report(self, capsys):
        assert run(["gauge", "lagrangian", "--builtin", "sphere3"]) == 0
        out = capsys.readouterr().out
        assert "h2_trivial: true" in out
        assert "z1_is_lagrangian: false" in out

    def test_verify_suite_report(self, capsys):
        assert run(["verify", "--suite", "cross-table", "--seed", "7", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "summary: 4/4 pass" in out

    def test_tolerance_scale_accepted(self, capsys):
        assert (
            run(
                [
                    "verify", "--suite", "moment-identity", "--seed", "1",
                    "--trials", "9", "--tolerance-scale", "10",
                ]
            )
            == 0
        )


class TestFileDocumentBranches:
    def test_lie_from_file(self, tmp_path, capsys):
        doc = docio.resolve_builtin("so3")
        path = tmp_path / "alg.json"
        path.write_text(render_document(doc))
        assert run(["lie", "centralizer", "--file", str(path), "--subspace", "e3"]) == 0
        assert "centralizer: (0, 0, 1)" in capsys.readouterr().out

    def test_gauge_from_file(self, tmp_path, capsys):
        doc = docio.resolve_builtin("torus2")
        path = tmp_path / "cx.json"
        path.write_text(render_document(doc))
        assert run(["gauge", "betti", "--file", str(path)]) == 0
        assert "betti: 1 2 1" in capsys.readouterr().out

    def test_unknown_suite_raises(self):
        from polysym.verify import run_suite

        with pytest.raises(ValidationError):
            run_suite("nope")

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_run_suite_rejects_fewer_than_one_trial(self, suite):
        """A check run on no samples would pass vacuously, so `run_suite`
        itself refuses, not only the CLI."""
        from polysym.verify import run_suite

        for trials in (0, -4):
            with pytest.raises(ValidationError, match="at least 1"):
                run_suite(suite, trials=trials)

    def test_run_suite_records_a_contract_violation_as_one_failed_check(self, monkeypatch):
        """The checks made before the violation stay; the violation ends the
        run as the failed check `contract`, with its message as the detail."""
        from polysym.errors import ContractViolation
        from polysym.verify import Suite, run_suite

        def broken(res, rng, tol_scale):
            res.add("first", True)
            raise ContractViolation("descent to the quotient failed")

        monkeypatch.setitem(SUITES, "broken", Suite(broken, 2, "broken identity", False))
        result = run_suite("broken", seed=3)
        assert [(c.name, c.passed, c.detail) for c in result.checks] == [
            ("first", True, ""),
            ("contract", False, "descent to the quotient failed"),
        ]
        assert not result.passed
        assert (result.identity, result.seed, result.trials) == ("broken identity", 3, 2)

    def test_run_suite_lets_a_validation_error_through(self, monkeypatch):
        from polysym.verify import Suite, run_suite

        def refusing(res, rng, tol_scale):
            raise ValidationError("bad input")

        monkeypatch.setitem(SUITES, "refusing", Suite(refusing, 1, "refusing", False))
        with pytest.raises(ValidationError, match="bad input"):
            run_suite("refusing")

    def test_ham_field_wrong_expression_count(self, capsys):
        assert (
            run(
                [
                    "ham", "field", "--patch", "canonical:1,2",
                    "--point", "0,0,0", "--function", "x1",
                ]
            )
            == 2
        )
        assert "expressions" in capsys.readouterr().err


# Report bytes: stdout, stderr and exit code of gauge, form, lie and verify
# commands, recorded before the quotient became one echelon pass. A refactor
# leaves every one unchanged; only an intended report change may rewrite them.
# A --file argument is a path relative to the repository root.
GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_report_bytes_match_the_golden_file(monkeypatch, case):
    monkeypatch.chdir(REPO_ROOT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(case["argv"])
    assert (code, out.getvalue(), err.getvalue()) == (case["exit"], case["stdout"], case["stderr"])


def test_every_exact_suite_has_a_golden_report():
    """Each exact suite's report is pinned by at least one golden argv, which
    `test_exact_modules_import_no_numpy` also replays without numpy."""
    pinned = {case["argv"][2] for case in GOLDEN if case["argv"][:2] == ["verify", "--suite"]}
    assert set(SUITES) - NUMERIC_SUITES <= pinned


def test_readme_states_the_package_line_count():
    """README's "`src/polysym` is N lines." is the net line count that the
    design aim tracks; it counts the lines of every module, as `wc -l` does."""
    stated = re.search(r"`src/polysym` is ([\d,]+) lines\.", (REPO_ROOT / "README.md").read_text())
    counted = sum(path.read_bytes().count(b"\n") for path in (REPO_ROOT / "src" / "polysym").glob("*.py"))
    assert stated and int(stated[1].replace(",", "")) == counted


# The benchmark's correctness gate: its cli-builtins workload compares the exit
# code and stdout of every exact argv, byte for byte, with the golden output in
# perfbench/golden/cli-builtins.json (read here, never written).
BENCH_GOLDEN = json.loads((REPO_ROOT / "perfbench" / "golden" / "cli-builtins.json").read_text())


def _bench_exact_argvs(monkeypatch) -> dict:
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    from perfbench.inputs import EXACT_ARGVS

    return {" ".join(argv): list(argv) for argv in EXACT_ARGVS}


def test_every_benchmark_exact_argv_has_a_golden_output(monkeypatch):
    assert sorted(_bench_exact_argvs(monkeypatch)) == sorted(BENCH_GOLDEN)


@pytest.mark.parametrize("line", sorted(BENCH_GOLDEN))
def test_benchmark_exact_argvs_match_their_golden_output(monkeypatch, line):
    argv = _bench_exact_argvs(monkeypatch)[line]
    monkeypatch.chdir(REPO_ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert (code, out.getvalue()) == (BENCH_GOLDEN[line]["exit"], BENCH_GOLDEN[line]["stdout"])


# Fuzzing: mutated builtin documents through --file, and mutated option values.
# Every run must end in exit 0, 1 or 2 with at most one stderr line (numpy
# warnings count as lines) and no uncaught exception; that includes options
# argparse rejects. Integers drawn into documents stay small so that indices
# often land in range; sizes are not what this test probes (the document
# caps, docio.MAX_LIE_DIM, MAX_LIE_CONSTANTS, MAX_COMPLEX_CELLS and
# MAX_FORM_CELLS, have tests of their own).

FUZZ_DOCUMENT_VERBS = {
    "cross": [["orth"], ["classify"], ["reduce"], ["embed"]],
    "canonical:2,1": [["orth"], ["classify"], ["reduce"], ["embed"]],
    "so3": [["lie", "center"], ["lie", "centralizer"], ["lie", "reduce"]],
    "heisenberg": [["lie", "center"], ["lie", "centralizer"], ["lie", "reduce"]],
    "interval": [["gauge", v] for v in ("betti", "omega", "moment", "reduce", "lagrangian")],
    "torus2": [["gauge", v] for v in ("betti", "omega", "moment", "reduce", "lagrangian")],
    "sphere2": [["gauge", v] for v in ("betti", "omega", "moment", "lagrangian")],
}

_json_scalars = st.one_of(
    st.integers(-3, 6),
    st.sampled_from(["1/2", "-1/3", "0/0", "x", "", "1e3"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["0", "1", "2", "x"]), inner, max_size=2),
    max_leaves=6,
)
_number_text = st.sampled_from(["0", "1", "-1", "0.5", "3", "nan", "inf", "-inf", "1e200", "-1e308", "1e-300"])
_vector_text = st.one_of(
    st.lists(_number_text, min_size=2, max_size=3),
    st.lists(_number_text | st.sampled_from(["", "x", "1/2"]), max_size=6),
).map(",".join)
_subspace_option = st.sampled_from(
    ["e1", "e2,e3", "zero", "full", "e0", "e9", "e1,x", "1,0,0", "1,0;0,1", "", ";", "1/2,0,0",
     "a,b,c", "1/0,1,1", "nan,1,1", "1,,1"]
).map(lambda v: f"--subspace={v}")
_rejected_options = st.sampled_from(
    ["--trials=x", "--seed=1.5", "--tolerance-scale=", "--machine=1", "--bogus", "--file", "-x"]
)
_common_options = st.one_of(
    st.integers(-5, 5).map(lambda v: f"--seed={v}"),
    st.integers(-2, 4).map(lambda v: f"--trials={v}"),
    _number_text.map(lambda v: f"--tolerance-scale={v}"),
    st.just("--machine"),
    _rejected_options,
)
_lie_options = _vector_text.map(lambda v: f"--xi={v}") | _number_text.map(lambda v: f"--t={v}")
_ham_options = st.one_of(
    _vector_text.map(lambda v: f"--point={v}"),
    st.sampled_from(["x0", "x1*x0", "sin(x0)", "exp(1000)", "x0/x1", "x9", "(", "x0**0.5", "__import__('os')"]).map(
        lambda v: f"--function={v}"
    ),
)


def _mutate(data, doc):
    """Replace, delete or duplicate a few randomly chosen nodes of a JSON tree."""
    for _ in range(data.draw(st.integers(1, 3))):
        node = doc
        while node:
            key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
                node = child
                continue
            op = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
            if op == "replace":
                node[key] = data.draw(_json_values)
            elif op == "delete":
                del node[key]
            elif isinstance(node, list):
                node.append(copy.deepcopy(child))
            else:
                node[key] = [child, copy.deepcopy(child)]
            break
    return doc


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    return code, out.getvalue(), err.getvalue().splitlines() + [str(w.message) for w in caught]


def _assert_clean_exit(argv, code, stderr_lines):
    assert code in (0, 1, 2), argv
    assert len(stderr_lines) <= 1, (argv, stderr_lines)
    assert not any("Traceback" in line for line in stderr_lines), argv


@settings(max_examples=25, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_mutated_documents(tmp_path, data):
    name = data.draw(st.sampled_from(sorted(FUZZ_DOCUMENT_VERBS)))
    verb = data.draw(st.sampled_from(FUZZ_DOCUMENT_VERBS[name]))
    doc = json.loads(render_document(docio.resolve_builtin(name)))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_mutate(data, doc)))
    options = _common_options | _subspace_option
    argv = verb + ["--file", str(path)] + data.draw(st.lists(options, max_size=3))
    code, _, stderr_lines = _run_captured(argv)
    _assert_clean_exit(argv, code, stderr_lines)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzz_numeric_arguments(data):
    group = data.draw(st.sampled_from(["lie", "ham", "verify"]))
    if group == "verify":
        suite = data.draw(st.sampled_from(sorted(SUITES)))
        argv = ["verify", f"--suite={suite}", f"--trials={data.draw(st.integers(1, 3))}"]
        extra = _common_options.filter(lambda option: not option.startswith("--trials"))
    elif group == "lie":
        argv = ["lie", data.draw(st.sampled_from(["arnold", "convexity"]))]
        extra = _common_options | _subspace_option | _lie_options
    else:
        patch = data.draw(st.sampled_from(["so3", "rigidbody", "canonical:1,1", "canonical:2,1", "canonical:0,1", "nope"]))
        argv = ["ham", data.draw(st.sampled_from(["omega", "field", "bracket", "moment", "embed"])), f"--patch={patch}"]
        extra = _common_options | _ham_options
    argv += data.draw(st.lists(extra, max_size=4))
    code, _, stderr_lines = _run_captured(argv)
    _assert_clean_exit(argv, code, stderr_lines)
