"""Spans around the public functions of each polysym layer, recorded from
outside the package.

`Tracer.install` replaces each listed function or method with a wrapper,
rebinding it in every loaded polysym module that imported it by name, and
`Tracer.restore` puts every original back. Spans stay in memory as
[name, start_ns, end_ns, parent, op, child_ns] and are written out when the
run ends. A span's self time is its duration minus the time its child spans
cover; time spent in the counters' hooks is charged to no span.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

ORIGINAL = "__perfbench_original__"


def _bits(m) -> int:
    return max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for row in m.entries for x in row),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        # Off while the benchmark checks an output, so checks leave no spans.
        self.enabled = True
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self.rref_cells = 0
        self.rref_max_bits = 0
        self.matmul_cells = 0
        self.quotient_complexes = set()
        self.gram_bytes = 0
        self.max_residual_ratio = 0.0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, original, name, hook):
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else -1
            label = name(*args, **kwargs) if callable(name) else name
            index = len(spans)
            span = [label, 0, 0, parent, tracer.op, 0]
            spans.append(span)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                span[1], span[2] = start, end
                if parent >= 0:
                    spans[parent][5] += end - start
            if hook is not None:
                hook(args, kwargs, result)
                if parent >= 0:
                    spans[parent][5] += perf_counter_ns() - end
            return result

        setattr(wrapper, ORIGINAL, original)
        return wrapper

    def _patch(self, owner, attribute, name, hook=None):
        original = owner.__dict__[attribute]
        wrapper = self._wrap(original, name, hook)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)
        if isinstance(owner, type):
            return
        # Rebind in every polysym module that imported the function by name.
        for mod_name, module in list(sys.modules.items()):
            if module is owner or not mod_name.startswith("polysym"):
                continue
            if module.__dict__.get(attribute) is original:
                self._patched.append((module, attribute, original))
                setattr(module, attribute, wrapper)

    def install(self):
        from polysym import discgauge, docio, exactla, liealg, pointham, polycore, verify

        def rref_hook(args, kwargs, result):
            m = args[0]
            self.rref_cells += m.rows * m.cols
            self.rref_max_bits = max(self.rref_max_bits, _bits(m), _bits(result[0]))

        def matmul_hook(args, kwargs, result):
            a, b = args
            self.matmul_cells += a.rows * a.cols * b.cols

        def quotient_hook(args, kwargs, result):
            self.quotient_complexes.add(args[1])  # held, so no id is reused

        def convexity_hook(args, kwargs, result):
            self.gram_bytes = max(self.gram_bytes, 8 * result.samples * result.samples)

        def field_hook(args, kwargs, result):
            self.max_residual_ratio = max(self.max_residual_ratio, result.residual / result.threshold)

        for fn in ("kernel", "solve", "inverse", "quotient", "contains"):
            self._patch(exactla, fn, f"exactla.{fn}")
        self._patch(exactla, "rref", "exactla.rref", rref_hook)
        self._patch(exactla.QuotientSpace, "project", "exactla.project")
        self._patch(exactla.Matrix, "__matmul__", "exactla.matmul", matmul_hook)

        for fn in ("orthogonal", "classify", "linear_reduce", "universal_embed", "pullback"):
            self._patch(polycore, fn, f"polycore.{fn}")
        self._patch(polycore.VForm, "degeneracy_kernel", "polycore.degeneracy_kernel")

        self._patch(discgauge.DeltaComplex, "__init__", "discgauge.complex_build")
        self._patch(discgauge.DeltaComplex, "coboundary_matrix", "discgauge.coboundary_matrix")
        self._patch(discgauge.CochainQuotient, "__init__", "discgauge.cochain_quotient", quotient_hook)
        # Every cup-form routine pairs cochains through the private product.
        self._patch(discgauge, "_cup_extended", "discgauge.cup")
        for fn in ("omega_kernel", "moment_zero_set", "reduce_gauge"):
            self._patch(discgauge, fn, f"discgauge.{fn}")
        self._patch(discgauge, "check_gauge_moment_identity", "discgauge.moment_identity")
        self._patch(discgauge, "cohomology", lambda *a, **k: f"discgauge.cohomology.h{a[1] if len(a) > 1 else k['p']}")

        for fn in ("center", "centralizer", "lie_reduce", "bracket_form"):
            self._patch(liealg, fn, "liealg.exact")
        self._patch(liealg.LieAlgebra, "__init__", "liealg.exact")
        self._patch(liealg, "haar_so3", "liealg.haar_so3")
        self._patch(liealg, "arnold_counterexample", "liealg.arnold")
        self._patch(liealg, "convexity_counterexample", "liealg.convexity", convexity_hook)

        for fn in ("halton_points", "omega_at", "poisson_bracket", "moment_from_potential", "local_embed"):
            self._patch(pointham, fn, f"pointham.{fn}")
        self._patch(pointham.SectionEmbedding, "pullback_defect", "pointham.local_embed")
        self._patch(pointham, "hamiltonian_field", "pointham.hamiltonian_field", field_hook)

        self._patch(docio, "parse_document", "docio.parse_document")
        self._patch(docio, "resolve_builtin", "docio.resolve_builtin")
        self._patch(verify, "run_suite", lambda *a, **k: f"verify.{a[0] if a else k['name']}")

    def restore(self):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # -- reading ----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, _, _, child in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += (end - start) / 1e9
            row[2] += (end - start - child) / 1e9
        return dict(out)

    def layer_metrics(self, suites) -> dict:
        t = self.totals()

        def calls(name):
            return t.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return t.get(name, (0, 0.0, 0.0))[2]

        m = {}
        for fn in ("rref", "kernel", "solve", "inverse", "quotient", "project", "matmul"):
            m[f"exactla.{fn}.self_s"] = self_s(f"exactla.{fn}")
        m["exactla.rref.calls"] = calls("exactla.rref")
        m["exactla.rref.cells"] = self.rref_cells
        m["exactla.rref.max_bits"] = self.rref_max_bits
        m["exactla.matmul.calls"] = calls("exactla.matmul")
        m["exactla.matmul.cells"] = self.matmul_cells
        contains_calls = calls("exactla.contains")
        nested_solves = sum(
            1 for s in self.spans if s[0] == "exactla.solve" and s[3] >= 0 and self.spans[s[3]][0] == "exactla.contains"
        )
        m["exactla.contains.solves_per_call"] = nested_solves / contains_calls if contains_calls else 0.0

        for fn in ("orthogonal", "classify", "linear_reduce", "degeneracy_kernel", "universal_embed", "pullback"):
            m[f"polycore.{fn}.self_s"] = self_s(f"polycore.{fn}")

        for fn in (
            "complex_build", "coboundary_matrix", "cochain_quotient", "cup",
            "omega_kernel", "moment_zero_set", "moment_identity", "reduce_gauge",
        ):
            m[f"discgauge.{fn}.self_s"] = self_s(f"discgauge.{fn}")
        for p in range(4):
            m[f"discgauge.cohomology.h{p}.self_s"] = self_s(f"discgauge.cohomology.h{p}")
        m["discgauge.coboundary_matrix.calls"] = calls("discgauge.coboundary_matrix")
        m["discgauge.cup.calls"] = calls("discgauge.cup")
        builds = calls("discgauge.cochain_quotient")
        complexes = len(self.quotient_complexes)
        m["discgauge.cochain_quotient.builds_per_complex"] = builds / complexes if complexes else 0.0

        m["liealg.exact.self_s"] = self_s("liealg.exact")
        m["liealg.haar_so3.calls"] = calls("liealg.haar_so3")
        for fn in ("haar_so3", "arnold", "convexity"):
            m[f"liealg.{fn}.self_s"] = self_s(f"liealg.{fn}")
        m["liealg.convexity.gram_bytes"] = self.gram_bytes

        for fn in ("halton_points", "omega_at", "hamiltonian_field", "poisson_bracket", "moment_from_potential", "local_embed"):
            m[f"pointham.{fn}.self_s"] = self_s(f"pointham.{fn}")
        m["pointham.omega_at.calls"] = calls("pointham.omega_at")
        m["pointham.hamiltonian_field.calls"] = calls("pointham.hamiltonian_field")
        m["pointham.hamiltonian_field.max_residual_ratio"] = self.max_residual_ratio

        m["docio.parse_document.self_s"] = self_s("docio.parse_document")
        m["docio.resolve_builtin.self_s"] = self_s("docio.resolve_builtin")
        for suite in suites:
            m[f"verify.{suite}.s"] = t.get(f"verify.{suite}", (0, 0.0, 0.0))[1]
        return m

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}))
                fh.write("\n")

