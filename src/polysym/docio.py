"""Problem-document parsing and the builtin registry.

Documents are JSON with a `kind` discriminator (form, lie, complex).
Exact entries are integers or strings such as "p/q" (see parse_scalar);
builtin documents are rendered in the same shape, so they parse back to
themselves. Everything here is exact and loads no numpy. Each builder and
builtin factory imports the layer it builds from when it runs, so reading a
form loads neither `lietable` nor `discgauge`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Optional

from .errors import ValidationError

if TYPE_CHECKING:
    from .discgauge import DeltaComplex
    from .exactla import Matrix, Subspace
    from .lietable import LieAlgebra
    from .polycore import VForm

KINDS = ("form", "lie", "complex")

# Largest `dim` a lie document may declare, and most nonzero structure
# constants c^k_ij with i < j once its triples are summed: 16 * C(16, 2), so
# every document the old dim cap of 16 accepted still passes. Work grows with
# the constants. On a shared 2-vCPU Xeon, the slowest documents found within
# both caps (random bases of so3^5 beside so3 blocks, dim 63 and about 1,600
# to 1,850 constants; sl3 + sl3 in a random basis, dim 16 and 1,920) build in
# 1.4-3.1 s; as whole processes, `lie center` and `centralizer` end in
# 1.6-2.9 s and `reduce` within 4 s (on a line, the slowest); an abelian
# dim-64 `lie center` takes 0.3 s. Those builds were measured while the
# Jacobi check summed Fractions; with integer sums, sl3 + sl3 builds in
# 0.07 s against 1.0 s before, on the same host.
MAX_LIE_DIM = 64
MAX_LIE_CONSTANTS = 1920

# Most cells (simplices of every degree) a complex document may list: those of
# the 5^3 grid torus (125 + 875 + 1500 + 750). Per process on a shared 2-vCPU
# Xeon, every `gauge` verb ends within 0.35 s on it (`moment` 0.26-0.34 s, the
# slowest); in-process, `omega_kernel` takes 0.25 s on the 6^3 grid (5,616 cells).
MAX_COMPLEX_CELLS = 3250

# Most cells (k * n^2, entries of all components) a form document may list:
# every n up to 128 at k = 1. Elimination cost follows n much more than k. On
# a shared 2-vCPU Xeon, in-process, with random entries in [-9, 9]: at
# n = 128, k = 1, `orth --subspace full` and `embed` take 1.2 s and `reduce`
# 1.8 s on the span of e_i + e_(i+64); on a dense random 64-dim subspace,
# `classify` takes 4.3 s and `reduce` 5.8 s, the slowest found. Past the
# cap, `reduce` takes 5.0 s at n = 160, k = 1 on the first subspace, and
# 7.4 s at n = 200, k = 3 (120,000 cells) on e1.
MAX_FORM_CELLS = 2**14


def check_subspace_entries(vectors: int, n: int):
    """Refuse a subspace listing more entries (vectors x n) than a form may have cells."""
    if vectors * n > MAX_FORM_CELLS:
        raise ValidationError(f"subspace lists {vectors * n} entries; at most {MAX_FORM_CELLS} are supported")


class ProblemDocument:
    """A parsed or builtin document. `built` holds the form, algebra or
    complex it describes (made once, by parsing or by the builtin's factory),
    so commands do not build it again; equality leaves it out."""

    __slots__ = ("kind", "payload", "seed", "built")

    def __init__(self, kind: str, payload: dict, seed: Optional[int] = None, built: object = None):
        self.kind = kind
        self.payload = payload
        self.seed = seed
        self.built = built

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.payload, self.seed) == (other.kind, other.payload, other.seed)


def parse_scalar(x) -> Fraction:
    """The exact scalar of a document entry or a --subspace entry: an integer,
    or a string that Fraction reads and that has no exponent ("1e99999999"
    would build a 10^8-digit integer)."""
    if isinstance(x, bool):
        raise ValidationError("booleans are not scalars")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" not in x.lower():
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError):
                pass
        raise ValidationError(f"bad scalar literal {x!r}")
    raise ValidationError(f"bad scalar literal {x!r} (use integers or 'p/q' strings)")


def _parse_index(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValidationError(f"{what} must be an integer, got {x!r}")
    return x


def _parse_index_list(items, what: str) -> tuple:
    if not isinstance(items, list):
        raise ValidationError(f"{what} must be a list of integers, got {items!r}")
    return tuple(_parse_index(x, what) for x in items)


def _parse_degree_lists(raw, what: str, item: str) -> dict:
    """{degree: [index tuple, ...]} from an object keyed by degree strings."""
    if not isinstance(raw, dict):
        raise ValidationError(f"complex documents need '{what}' as an object keyed by degree")
    out = {}
    for key, items in raw.items():
        try:
            p = int(key)
        except ValueError as exc:
            raise ValidationError(f"bad degree key {key!r} in '{what}'") from exc
        if not isinstance(items, list):
            raise ValidationError(f"degree {p} {what} must be a list")
        out[p] = [_parse_index_list(s, f"degree-{p} {item}") for s in items]
    return out


def _render_scalar(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _parse_matrix(rows, what: str) -> Matrix:
    from .exactla import Matrix

    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValidationError(f"{what} must be a non-empty nested array")
    return Matrix([[parse_scalar(x) for x in row] for row in rows])


def _render_matrix(m: Matrix):
    return [[_render_scalar(x) for x in row] for row in m.entries]


def parse_document(text: str) -> ProblemDocument:
    import json

    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed document: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("document must be a JSON object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"unknown document kind {kind!r} (expected one of {KINDS})")
    seed = raw.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ValidationError("seed must be an integer")
    payload = {k: v for k, v in raw.items() if k not in ("kind", "seed")}
    built = _BUILDERS[kind](ProblemDocument(kind, payload))
    return ProblemDocument(kind=kind, payload=payload, seed=seed, built=built)


def _built(doc: ProblemDocument, kind: str):
    """The object a parsed or builtin document of this kind describes."""
    if doc.kind != kind:
        raise ValidationError(f"expected a {kind} document")
    return doc.built


def form_to_vform(doc: ProblemDocument) -> VForm:
    return _built(doc, "form")


def _build_form(doc: ProblemDocument) -> VForm:
    from .polycore import VForm

    comps = doc.payload.get("form")
    if not isinstance(comps, list) or not comps:
        raise ValidationError("form documents need a non-empty 'form' list of matrices")
    cells = sum(len(row) for m in comps if isinstance(m, list) for row in m if isinstance(row, list))
    if cells > MAX_FORM_CELLS:
        raise ValidationError(f"form document has {cells} cells; at most {MAX_FORM_CELLS} are supported")
    matrices = [_parse_matrix(m, "form component") for m in comps]
    return VForm(matrices[0].rows, tuple(matrices))


def document_subspace(doc: ProblemDocument, ambient_dim: int) -> Optional[Subspace]:
    vecs = doc.payload.get("subspace")
    if vecs is None:
        return None
    if not isinstance(vecs, list):
        raise ValidationError("'subspace' must be a list of vectors")
    check_subspace_entries(len(vecs), ambient_dim)
    from .exactla import Subspace

    return Subspace.from_vectors(
        ambient_dim, [[parse_scalar(x) for x in v] for v in vecs]
    )


def document_coefficient_map(doc: ProblemDocument) -> Optional[Matrix]:
    """The k' x k matrix of the document's coefficient map V -> V', if any."""
    rows = doc.payload.get("coefficient_map")
    if rows is None:
        return None
    return _parse_matrix(rows, "coefficient_map")


def lie_to_algebra(doc: ProblemDocument) -> LieAlgebra:
    return _built(doc, "lie")


def _build_algebra(doc: ProblemDocument) -> LieAlgebra:
    from . import lietable as lt

    dim = doc.payload.get("dim")
    triples = doc.payload.get("triples")
    if not isinstance(dim, int) or dim < 1:
        raise ValidationError("lie documents need a positive integer 'dim'")
    if dim > MAX_LIE_DIM:
        raise ValidationError(f"lie document 'dim' is {dim}; at most {MAX_LIE_DIM} is supported")
    if not isinstance(triples, list):
        raise ValidationError("lie documents need a 'triples' list of (i, j, k, c)")
    parsed = []
    for t in triples:
        if not isinstance(t, list) or len(t) != 4:
            raise ValidationError(f"bad structure triple {t!r}")
        i, j, k = (_parse_index(x, "structure triple index") for x in t[:3])
        parsed.append((i, j, k, parse_scalar(t[3])))
    table = lt.structure_table(dim, parsed)
    constants = sum(len(terms) for (i, j), terms in table.items() if i < j)
    if constants > MAX_LIE_CONSTANTS:
        raise ValidationError(
            f"lie document has {constants} nonzero structure constants; at most {MAX_LIE_CONSTANTS} is supported"
        )
    return lt.LieAlgebra(dim, table)


def complex_to_delta(doc: ProblemDocument) -> DeltaComplex:
    return _built(doc, "complex")


def _build_complex(doc: ProblemDocument) -> DeltaComplex:
    from .discgauge import DeltaComplex

    simplices = _parse_degree_lists(doc.payload.get("simplices"), "simplices", "simplex")
    cells = sum(len(items) for items in simplices.values())
    if cells > MAX_COMPLEX_CELLS:
        raise ValidationError(f"complex document has {cells} cells; at most {MAX_COMPLEX_CELLS} are supported")
    faces_raw = doc.payload.get("faces")
    faces = None if faces_raw is None else _parse_degree_lists(faces_raw, "faces", "face row")
    return DeltaComplex(simplices, faces=faces)


_BUILDERS = {"form": _build_form, "lie": _build_algebra, "complex": _build_complex}


# Builtin documents, rendered through the same schema the parser accepts and
# carrying the object their factory made, so no builtin is parsed back.

def _form_document(form: VForm) -> ProblemDocument:
    comps = [_render_matrix(m) for m in form.components]
    return ProblemDocument(kind="form", payload={"form": comps}, seed=0, built=form)


def canonical_shape(name: str) -> tuple:
    """(n, k) from a `canonical:n,k` builtin form or patch name."""
    try:
        n, k = (int(t) for t in name.split(":", 1)[1].split(","))
    except ValueError as exc:
        raise ValidationError(f"bad canonical spec {name!r} (expected canonical:n,k)") from exc
    return n, k


def _cross_document() -> ProblemDocument:
    """The cross product: the bracket form of so3."""
    from . import lietable as lt

    return _form_document(lt.bracket_form(lt.so3()))


def _lie_document(name: str) -> ProblemDocument:
    from . import lietable as lt

    dim, triples = lt.BUILTIN_TRIPLES[name]
    payload = {"dim": dim, "triples": [list(t) for t in triples]}
    return ProblemDocument(kind="lie", payload=payload, seed=0, built=lt.LieAlgebra.from_triples(dim, triples, name=name))


def _complex_document(name: str) -> ProblemDocument:
    from . import discgauge as dg

    cx = dg.BUILTIN_COMPLEXES[name]()
    simplices = {str(p): [list(s) for s in cx.simplices[p]] for p in sorted(cx.simplices)}
    payload = {"simplices": simplices}
    if cx.explicit_faces:
        payload["faces"] = {str(p): [list(f) for f in cx.faces[p]] for p in sorted(cx.faces)}
    return ProblemDocument(kind="complex", payload=payload, seed=0, built=cx)


# The builtin registry: every --builtin name resolves here, and each factory
# builds only the document asked for. The names are spelled out, so listing
# them imports neither table they come from: the algebras of
# lietable.BUILTIN_TRIPLES and the complexes of discgauge.BUILTIN_COMPLEXES
# (a test keeps them equal). Besides these names, any `canonical:n,k`
# resolves to the canonical form of that shape.
BUILTINS = {
    "cross": _cross_document,
    **{name: partial(_lie_document, name) for name in ("so3", "sl2", "heisenberg")},
    **{name: partial(_complex_document, name) for name in ("interval", "sphere2", "sphere3", "torus2", "torus3")},
}


def resolve_builtin(name: str) -> ProblemDocument:
    if name.startswith("canonical:"):
        from .polycore import canonical_model

        return _form_document(canonical_model(*canonical_shape(name)))
    if name not in BUILTINS:
        raise ValidationError(f"unknown builtin {name!r}")
    return BUILTINS[name]()
