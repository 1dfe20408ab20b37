"""polysym: exact and numeric computations with vector-valued symplectic
structures, from subspace orthogonals and reductions through Lie-algebra
coefficient systems, patch-level Hamiltonian mechanics, and discrete gauge
cohomology.
"""

__version__ = "0.1.0"
