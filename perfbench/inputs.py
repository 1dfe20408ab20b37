"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and nothing else that varies, so the
same seed gives the same inputs. The program under test only ever sees what
these functions return.
"""

from __future__ import annotations

import itertools
import math
import random

# Left out for run time only, and not run at all: the grid torus 3^3 (H^2
# takes 194 s and reduce_gauge over 300 s at the seed commit), and
# omega_kernel and the moment identity on grid 2^3 (115 s and 35 s). Add them
# once a faster layer makes them feasible.

# Periodic grid tori (n, d) of the gauge-grid workload, and the builtins it
# adds. Complexes with at most SMALL_EDGES edges also run the pairwise cup
# routines (moment zero set, moment identity, cup-form kernel).
GRID_TORI = ((3, 2), (4, 2), (5, 2), (2, 3))
GAUGE_BUILTINS = ("torus3", "sphere3")
SMALL_EDGES = 27
# Random closed 1-cochains drawn per complex.
COCYCLES_PER_COMPLEX = 2

# Dense random forms (n, k) of the exact-forms workload, and the dimensions of
# the random subspaces drawn for each.
FORM_SHAPES = ((16, 3), (24, 4))


def subspace_dims(n: int) -> tuple:
    return (1, 2, 3, n // 4, n // 2)


# The verify suites run at the seed and trial counts of the acceptance tests.
ACCEPTANCE_SEED = 7

# numeric-sampling sizes.
ARNOLD_SAMPLES = 50_000
CONVEXITY_SAMPLES = 4_000
FIELD_POINTS = 2_000
BRACKET_POINTS = 150
MOMENT_SAMPLES = 150
EMBED_POINTS = 150
NUMERIC_PATCHES = ("canonical:3,2", "so3")


def grid_torus_simplices(n: int, d: int) -> dict:
    """Vertex tuples of the periodic n^d grid torus.

    Each unit cube is cut into d! simplices, one per monotone lattice path
    through it; a p-simplex starts at a grid point and takes p steps whose
    0/1 increment vectors have disjoint supports. Indices wrap mod n.
    """
    verts = list(itertools.product(range(n), repeat=d))
    vid = {v: i for i, v in enumerate(verts)}
    steps = [s for s in itertools.product((0, 1), repeat=d) if any(s)]

    def disjoint(u, v):
        return not any(a and b for a, b in zip(u, v))

    def paths(p):
        out = [()]
        for _ in range(p):
            out = [c + (u,) for c in out for u in steps if all(disjoint(u, w) for w in c)]
        return out

    simplices = {0: [(vid[v],) for v in verts]}
    for p in range(1, d + 1):
        cells = set()
        for base in verts:
            for path in paths(p):
                pts = [base]
                for u in path:
                    pts.append(tuple(a + b for a, b in zip(pts[-1], u)))
                cells.add(tuple(vid[tuple(c % n for c in q)] for q in pts))
        simplices[p] = sorted(cells)
    return simplices


def expected_betti(name: str, d: int) -> tuple:
    """Betti numbers known in closed form: C(d, p) on a d-torus, and those
    of the 3-sphere."""
    if name.startswith("sphere"):
        return (1,) + (0,) * (d - 1) + (1,)
    return tuple(math.comb(d, p) for p in range(d + 1))


def gauge_inputs(seed: int) -> list:
    """One entry per complex: its name, how to build it, and integer
    coefficient vectors that pick random closed 1-cochains from Z^1.

    On a connected complex dim Z^1 = dim B^1 + b1 = #vertices - 1 + b1, so
    the vectors are sized before anything is computed.
    """
    rng = random.Random(seed)
    out = []
    for n, d in GRID_TORI:
        simplices = grid_torus_simplices(n, d)
        out.append({"name": f"grid{n}^{d}", "dim": d, "simplices": simplices, "builtin": None})
    for name in GAUGE_BUILTINS:
        out.append({"name": name, "dim": 3, "simplices": None, "builtin": name})
    counts = {"torus3": (1, 7), "sphere3": (5, 10)}
    for entry in out:
        if entry["simplices"] is not None:
            n0, n1 = len(entry["simplices"][0]), len(entry["simplices"][1])
        else:
            n0, n1 = counts[entry["name"]]
        z1 = n0 - 1 + expected_betti(entry["name"], entry["dim"])[1]
        entry["edges"] = n1
        entry["cocycle_coeffs"] = [
            [rng.randint(-3, 3) for _ in range(z1)] for _ in range(COCYCLES_PER_COMPLEX)
        ]
    return out


def form_inputs(seed: int) -> dict:
    """Dense random forms, and spanning vectors of random subspaces of fixed
    dimensions for them and for the 6-dimensional so3 + sl2. The subspaces
    themselves are spanned inside the timed operations."""
    from polysym import randgen as rg
    from polysym.polycore import VForm

    rng = random.Random(seed)
    forms = []
    for n, k in FORM_SHAPES:
        # Random skew components; universal_embed checks nondegeneracy.
        form = VForm(n, tuple(rg.rand_skew(rng, n) for _ in range(k)))
        spans = [[rg.rand_vector(rng, n) for _ in range(dim)] for dim in subspace_dims(n)]
        forms.append({"name": f"form{n}x{k}", "form": form, "spans": spans})
    lie_span = [rg.rand_vector(rng, 6) for _ in range(2)]
    return {"forms": forms, "lie_span": lie_span}


def numeric_inputs(seed: int) -> dict:
    """Directions, times, sampling seeds and Hamiltonian functions for the
    numeric layer. Every function handed to hamiltonian_field is Hamiltonian
    on its patch, so every solve must pass its residual test."""
    import numpy as np

    from polysym import pointham as ph

    rng = np.random.default_rng(seed)

    def unit():
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)

    arnold_xi = 2.0 * math.pi * unit()
    arnold_t = float(rng.uniform(0.2, 0.8))
    convexity_xi = float(rng.uniform(0.5, 2.0)) * unit()

    patches = {}
    # canonical:3,2 has coordinates (q, phi_0, phi_1); f_c = phi_c . v + a_c sin(q . w_c)
    # is Hamiltonian with base component -v.
    n, k = 3, 2
    v = rng.standard_normal(n)
    a = rng.standard_normal(k)
    w = rng.standard_normal((k, n))

    def canon_f(x, v=v, a=a, w=w):
        phi = x[n:].reshape(k, n)
        return phi @ v + a * np.sin(w @ x[:n])

    patches["canonical:3,2"] = {
        "patch": ph.canonical_theta(n, k),
        "f": canon_f,
        "base_velocity": -v,
        "generators": [ph.translation_generator(n, k, i) for i in range(n)],
    }
    # On the rotation-group patch the potential contracted with a left
    # generator is Hamiltonian, and brackets close on the Lie bracket.
    so3 = ph.so3_patch()
    xi, eta = 0.5 * unit(), 0.5 * unit()

    def contracted(direction):
        gen = ph.so3_left_generator(direction)
        return lambda x: so3.theta_at(x) @ gen(x)

    lie = np.cross(xi, eta)
    patches["so3"] = {
        "patch": so3,
        "f": contracted(xi),
        "g": contracted(eta),
        "fg": contracted(lie),
        "generators": [ph.so3_left_generator(np.eye(3)[i]) for i in range(3)],
    }
    for name in NUMERIC_PATCHES:
        patches[name]["seed"] = int(rng.integers(0, 2**31 - 1))
    return {
        "arnold": (arnold_xi, arnold_t, int(rng.integers(0, 2**31 - 1))),
        "convexity": (convexity_xi, int(rng.integers(0, 2**31 - 1))),
        "patches": patches,
    }


# cli-builtins: one argv per line, covering every subcommand and verb, every
# builtin kind and the --file path. Exact argvs are compared byte for byte
# with golden output; NUMERIC argvs are checked on exit code and pass fields,
# and take the run seed.
DOCS = "perfbench/docs"
EXACT_ARGVS = (
    ("orth", "--builtin", "cross", "--subspace", "e1"),
    ("classify", "--builtin", "canonical:2,2", "--subspace", "e1,e3", "--machine"),
    ("reduce", "--file", f"{DOCS}/form_cmap.json"),
    ("embed", "--builtin", "cross"),
    ("lie", "center", "--builtin", "heisenberg"),
    ("lie", "centralizer", "--builtin", "sl2", "--subspace", "e1"),
    ("lie", "reduce", "--file", f"{DOCS}/lie_sl2.json", "--subspace", "e2"),
    ("ham", "omega", "--patch", "canonical:2,2", "--point", "0.1,-0.2,0.3,0.4,-0.5,0.6"),
    ("ham", "field", "--patch", "canonical:1,2", "--point", "0.3,0.1,-0.2",
     "--function", "sin(x0)", "--function", "x0*x0"),
    ("ham", "bracket", "--patch", "canonical:1,1", "--point", "0.3,-0.2",
     "--function", "x0", "--function2", "x0*x1"),
    ("gauge", "betti", "--builtin", "torus3"),
    ("gauge", "omega", "--builtin", "torus2", "--seed", "3"),
    ("gauge", "moment", "--builtin", "sphere2", "--seed", "5"),
    ("gauge", "reduce", "--file", f"{DOCS}/torus3.json"),
    ("gauge", "lagrangian", "--builtin", "sphere3"),
    ("verify", "--suite", "cross-table"),
    ("verify", "--suite", "gauge-h1"),
)
NUMERIC_ARGVS = (
    ("lie", "arnold", "--trials", "1000"),
    ("lie", "convexity", "--trials", "1000"),
    ("ham", "moment", "--patch", "so3", "--trials", "20"),
    ("ham", "embed", "--patch", "rigidbody", "--trials", "10"),
)
# The untimed warm-up run of every cli-builtins set-up.
WARMUP_ARGV = ("classify", "--builtin", "cross", "--subspace", "e1")


def cli_argvs(seed: int) -> list:
    """The cli-builtins argv list in a seeded order, numeric argvs seeded."""
    rng = random.Random(seed)
    argvs = [list(a) for a in EXACT_ARGVS]
    argvs += [list(a) + ["--seed", str(rng.randint(0, 2**31 - 1))] for a in NUMERIC_ARGVS]
    rng.shuffle(argvs)
    return argvs


def is_numeric_argv(argv) -> bool:
    return tuple(argv[:2]) in {tuple(a[:2]) for a in NUMERIC_ARGVS}
