"""Tiny safe evaluator for the numeric function specs the CLI accepts.

Expressions use coordinates x0, x1, ... plus arithmetic and a few math
functions; they are compiled through the ast whitelist below, never eval'd
raw. Numeric literals compile as floats, so `**` cannot build an unbounded
integer. A malformed expression is a ValidationError; an expression that
fails to evaluate to a finite float at a point (overflow, division by zero,
a complex power) is a ContractViolation.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation, ValidationError

_ALLOWED_CALLS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "tanh": math.tanh}
_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd, ast.Load,
)


def _check(node: ast.AST, dim: int):
    """Reject one node outside the whitelist; turn a numeric literal into a float."""
    if not isinstance(node, _ALLOWED_NODES):
        raise ValidationError(f"disallowed syntax in expression: {type(node).__name__}")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
            raise ValidationError("only sin, cos, exp, tanh calls are allowed")
        if node.keywords or len(node.args) != 1:
            raise ValidationError("math calls take exactly one positional argument")
    if isinstance(node, ast.Name) and node.id not in _ALLOWED_CALLS:
        if not (node.id.startswith("x") and node.id[1:].isdigit()):
            raise ValidationError(f"unknown name {node.id!r} (coordinates are x0, x1, ...)")
        if int(node.id[1:]) >= dim:
            raise ValidationError(f"coordinate {node.id} is out of range for dimension {dim}")
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ValidationError("only numeric constants are allowed")
        try:
            node.value = float(node.value)
        except OverflowError as exc:
            raise ValidationError("an integer constant does not fit a float") from exc


def compile_scalar(expr: str, dim: int) -> Callable[[np.ndarray], float]:
    try:
        tree = ast.parse(expr, mode="eval")
        for node in ast.walk(tree):
            _check(node, dim)
        code = compile(tree, "<expr>", "eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ValidationError(f"bad expression {expr!r}: {exc}") from exc

    def fn(x: np.ndarray) -> float:
        env = {f"x{i}": float(x[i]) for i in range(dim)}
        env.update(_ALLOWED_CALLS)
        try:
            value = float(eval(code, {"__builtins__": {}}, env))
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ContractViolation(f"{expr!r} cannot be evaluated near the point: {exc}") from exc
        if not math.isfinite(value):
            raise ContractViolation(f"{expr!r} is not finite near the point")
        return value

    return fn


def compile_vector(exprs: Sequence[str], dim: int) -> Callable[[np.ndarray], np.ndarray]:
    fns = [compile_scalar(e, dim) for e in exprs]

    def fn(x: np.ndarray) -> np.ndarray:
        return np.array([f(x) for f in fns])

    return fn
