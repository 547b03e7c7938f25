"""A small, safe expression language for custom field definitions in configs.

Grammar (whitelisted Python expression syntax, no general code execution):

    expr    := arithmetic over +, -, *, /, ** with parentheses
    atoms   := numbers | x | y | u | m1 | m2 | vector literals [e1, e2, ...]
    indexing:= x[0], y[1], m1[0]      (constant integer indices)
    calls   := sin cos tanh exp sqrt abs norm dot min max

``x`` is the evaluation point, ``y`` the interaction partner, ``u`` the noise
label value (a number), ``m1`` the mean of the current measure and ``m2`` its
scalar 2-moment (nonlocal fields only).  Expressions are parsed with the
standard ``ast`` module and compiled node-by-node against this whitelist, so
attribute access, names outside the variable set, and arbitrary calls are
rejected at load time.  The compiled code is array code: ``x`` and ``y`` may
be one point ``(d,)`` or a batch ``(n, d)``, so the fields built here are
array-native: given ``(n, d)`` arrays they return ``(n, d)`` velocities whose
row i equals the call on row i alone, bit for bit.
"""

from __future__ import annotations

import ast
from typing import Callable

import numpy as np

from .errors import InputError
from .fields import (
    InteractionField,
    NonlocalSampledField,
    NoiseSpace,
    PvfSpec,
    SampledField,
    StochasticInteractionField,
)
from .measure import second_moment


def _ordered_sum(v: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order, ``((v0 + v1) + v2)``, keeping it with length 1."""
    total = v[..., 0:1]
    for k in range(1, v.shape[-1]):
        total = total + v[..., k : k + 1]
    return total


def _norm(v) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return np.sqrt(_ordered_sum(v * v))


def _dot(a, b) -> np.ndarray:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape[-1] != b.shape[-1]:
        raise InputError(f"dot of vectors of lengths {a.shape[-1]} and {b.shape[-1]}")
    return _ordered_sum(a * b)


_FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "norm": _norm,
    "dot": _dot,
    "min": np.minimum,
    "max": np.maximum,
}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a**b,
}

_UNARY = {ast.USub: lambda a: -a, ast.UAdd: lambda a: a}


def _component(v, k: int) -> np.ndarray:
    """Component ``k`` of each point, as a per-point scalar with a trailing axis of length 1."""
    v = np.atleast_1d(v)
    if k >= v.shape[-1]:
        raise InputError(f"index {k} out of range for a vector of length {v.shape[-1]}")
    return v[..., k : k + 1]


def _vector(parts: list) -> np.ndarray:
    """Per-point scalars concatenated on the last axis."""
    cols = []
    for part in parts:
        a = np.asarray(part, dtype=float)
        if a.ndim == 0:
            a = a.reshape(1)
        elif a.shape[-1] != 1:
            raise InputError("vector literal elements must be scalars")
        cols.append(a)
    return np.concatenate(np.broadcast_arrays(*cols), axis=-1)


def _compile_node(node: ast.AST, variables: tuple) -> Callable[[dict], object]:
    if isinstance(node, ast.Expression):
        return _compile_node(node.body, variables)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise InputError(f"only numeric constants allowed, got {node.value!r}")
        value = float(node.value)
        return lambda env: value
    if isinstance(node, ast.Name):
        if node.id not in variables:
            raise InputError(f"unknown variable {node.id!r}; allowed: {variables}")
        name = node.id
        return lambda env: env[name]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        left = _compile_node(node.left, variables)
        right = _compile_node(node.right, variables)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        op = _UNARY[type(node.op)]
        operand = _compile_node(node.operand, variables)
        return lambda env: op(operand(env))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise InputError("only whitelisted function calls are allowed")
        if node.keywords:
            raise InputError("keyword arguments are not supported")
        fn = _FUNCTIONS[node.func.id]
        args = [_compile_node(a, variables) for a in node.args]
        return lambda env: fn(*(a(env) for a in args))
    if isinstance(node, (ast.List, ast.Tuple)):
        if not node.elts:
            raise InputError("empty vector literal")
        elems = [_compile_node(e, variables) for e in node.elts]
        return lambda env: _vector([e(env) for e in elems])
    if isinstance(node, ast.Subscript):
        base = _compile_node(node.value, variables)
        idx_node = node.slice
        if not (
            isinstance(idx_node, ast.Constant)
            and isinstance(idx_node.value, int)
            and not isinstance(idx_node.value, bool)
        ):
            raise InputError("only constant integer indices are allowed")
        idx = idx_node.value
        return lambda env: _component(base(env), idx)
    raise InputError(f"disallowed syntax: {ast.dump(node)[:80]}")


def compile_expression(text: str, variables: tuple) -> Callable[[dict], np.ndarray]:
    """Compile a DSL expression to an array evaluator over an environment dict.

    The evaluator takes one point per variable, shape ``(d,)``, or a batch of
    points, shape ``(n, d)``, and works on the last axis: ``x[k]`` is
    ``x[..., k:k+1]``, so a per-point scalar keeps a trailing axis of length 1
    and never broadcasts against the batch axis; vector literals concatenate
    on the last axis; ``norm`` and ``dot`` sum over it in index order.  Every
    other operation is elementwise, so row i of a batch equals the call on
    row i alone, bit for bit.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise InputError(f"cannot parse expression {text!r}: {exc}") from exc
    return _compile_node(tree, variables)


def _as_velocity(value, x: np.ndarray, dim: int) -> np.ndarray:
    """The expression's value as velocities at the points ``x``: ``(dim,)`` or ``(n, dim)``."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape[-1] == 1 and dim > 1:
        raise InputError(f"expression yields a scalar but the field dimension is {dim}")
    if arr.shape[-1] != dim:
        raise InputError(f"expression yields {arr.shape[-1]} components, expected {dim}")
    shape = x.shape[:-1] + (dim,)
    return arr if arr.shape == shape else np.broadcast_to(arr, shape).copy()


def _noise_from_config(cfg: dict) -> NoiseSpace:
    labels = [float(v) for v in cfg["labels"]]
    weights = np.asarray(cfg["weights"], dtype=float)
    return NoiseSpace(tuple(labels), weights)


# kind -> (field class, expression key, the field closure's arguments); a
# closure argument ``mu`` is read through the variables m1 and m2
_KINDS = {
    "sampled": (SampledField, "g", ("x", "u")),
    "interaction": (InteractionField, "f", ("x", "y")),
    "stochastic-interaction": (StochasticInteractionField, "h", ("x", "y", "u")),
    "nonlocal-sampled": (NonlocalSampledField, "g", ("x", "mu", "u")),
}


def field_from_config(cfg: dict, dim: int) -> PvfSpec:
    """Build a PvfSpec from a config mapping with a DSL expression.

    Expected keys: kind (sampled | interaction | stochastic-interaction |
    nonlocal-sampled), the expression under "g", "f", or "h", and a noise
    table {"labels": [...], "weights": [...]} where applicable.
    """
    if cfg.get("kind") not in _KINDS:
        raise InputError(f"unknown custom field kind {cfg.get('kind')!r}")
    cls, key, args = _KINDS[cfg["kind"]]
    variables = tuple(v for a in args for v in (("m1", "m2") if a == "mu" else (a,)))
    fn = compile_expression(cfg[key], variables)

    def velocity(*values):
        env = dict(zip(args, values))
        if "mu" in env:
            mu = env.pop("mu")
            env.update(m1=np.sum(mu.weights[:, None] * mu.atoms, axis=0), m2=second_moment(mu))
        return _as_velocity(fn(env), env["x"], dim)

    return cls(velocity, _noise_from_config(cfg["noise"])) if "u" in args else cls(velocity)


def unread_keys(cfg: dict) -> list:
    """The sorted keys that ``field_from_config`` does not read; key w of ``noise`` is "noise.w"."""
    _, key, args = _KINDS[cfg["kind"]]
    given, read = set(cfg), {"kind", key}
    if "u" in args:  # the kind draws a label from the noise table
        given |= {f"noise.{k}" for k in cfg["noise"]}
        read |= {"noise", "noise.labels", "noise.weights"}
    return sorted(given - read)
