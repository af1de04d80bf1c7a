"""JSON forms of surfaces, expressions and reports.

Expression and surface documents round-trip exactly: floats are emitted with
``repr`` (shortest round-trip form), so a reloaded expression evaluates
bit-identically.  Report serialization is one-way (dataclasses to plain JSON
types) and deterministic: keys are sorted and no volatile data is included.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

from .errors import ConfigError
from .exprs import (
    Clamp,
    ConcaveStep,
    ConvexDiag,
    ConvexPlateau,
    ELExpr,
    Linear,
    Scale,
    Sum,
    TruncateMin,
)
from .surfaces import (
    Curve2D,
    Hyperplane,
    HyperbolaCurve,
    LineCurve,
    QuadraticCurve,
    Surface,
)

__all__ = [
    "surface_to_dict",
    "surface_from_dict",
    "expr_to_dict",
    "expr_from_dict",
    "to_jsonable",
    "dumps",
]

# A document's keys are the dataclass fields of its node or curve family.
_OPS = {
    "linear": Linear,
    "sum": Sum,
    "scale": Scale,
    "truncate_min": TruncateMin,
    "clamp": Clamp,
    "convex_plateau": ConvexPlateau,
    "convex_diag": ConvexDiag,
    "concave_step": ConcaveStep,
}
_OP_OF = {cls: op for op, cls in _OPS.items()}
_FAMILIES = {cls.family: cls for cls in (LineCurve, QuadraticCurve, HyperbolaCurve)}
_CURVE_FIELDS = ("a", "b", "shape")  # every other field of a curve family is a param


def _curve_params(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.name not in _CURVE_FIELDS]


def surface_to_dict(surface: Surface) -> dict:
    if isinstance(surface, Hyperplane):
        return {"kind": "hyperplane", "c": list(surface.c), "M": surface.M}
    if type(surface) not in _FAMILIES.values():
        raise ConfigError(f"unknown surface type {type(surface).__name__}")
    return {
        "kind": "curve",
        "family": surface.family,
        "a": surface.a,
        "b": surface.b,
        "shape": surface.shape,
        "params": {name: getattr(surface, name) for name in _curve_params(type(surface))},
    }


def _take(doc: dict, required, optional: dict[str, Any], where: str) -> dict:
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    out = {}
    for key in required:
        if key not in doc:
            raise ConfigError(f"missing key {key!r} in {where}")
        out[key] = doc[key]
    for key, default in optional.items():
        out[key] = doc.get(key, default)
    return out


def surface_from_dict(doc: dict) -> Surface:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("surface document must be an object with a 'kind' key")
    try:
        if doc["kind"] == "hyperplane":
            fields = _take(doc, ("kind", "c", "M"), {}, "hyperplane surface")
            return Hyperplane(c=tuple(float(v) for v in fields["c"]), M=float(fields["M"]))
        if doc["kind"] == "curve":
            fields = _take(
                doc, ("kind", "family", "a", "b"), {"shape": "auto", "params": {}}, "curve surface"
            )
            family = fields["family"]
            a, b, shape = float(fields["a"]), float(fields["b"]), fields["shape"]
            cls = _FAMILIES.get(family) if isinstance(family, str) else None
            if cls is None:
                raise ConfigError(f"unknown curve family {family!r}")
            names = _curve_params(cls)
            params = _take(fields["params"] or {}, names, {}, f"{family} params")
            return cls(a=a, b=b, shape=shape, **{name: float(params[name]) for name in names})
        raise ConfigError(f"unknown surface kind {doc['kind']!r}")
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"malformed surface document: {exc}") from exc


def _encode(value):
    if isinstance(value, ELExpr):
        return expr_to_dict(value)
    if isinstance(value, Curve2D):
        return surface_to_dict(value)
    return list(value) if isinstance(value, tuple) else value


def expr_to_dict(expr: ELExpr) -> dict:
    op = _OP_OF.get(type(expr))
    if op is None:
        raise ConfigError(f"unknown expression node {type(expr).__name__}")
    doc = {"op": op}
    for field in dataclasses.fields(expr):
        doc[field.name] = _encode(getattr(expr, field.name))
    return doc


def _curve_from(doc, where: str) -> Curve2D:
    surface = surface_from_dict(doc)
    if isinstance(surface, Hyperplane):
        raise ConfigError(f"{where} needs a curve, got a hyperplane")
    return surface


# How a node field is read back, keyed by its annotation (a string, as
# elopt.exprs postpones the evaluation of annotations); called as (value, op).
_READERS = {
    "ELExpr": lambda value, op: expr_from_dict(value),
    "Curve2D": _curve_from,
    "float": lambda value, op: float(value),
    "tuple[float, ...]": lambda value, op: tuple(float(v) for v in value),
}


def expr_from_dict(doc: dict) -> ELExpr:
    if not isinstance(doc, dict) or "op" not in doc:
        raise ConfigError("expression document must be an object with an 'op' key")
    op = doc["op"]
    try:
        cls = _OPS.get(op) if isinstance(op, str) else None
        if cls is None:
            raise ConfigError(f"unknown expression op {op!r}")
        fields = dataclasses.fields(cls)
        values = _take(doc, ["op"] + [f.name for f in fields], {}, f"{op} node")
        return cls(*(_READERS[f.type](values[f.name], op) for f in fields))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"malformed expression document: {exc}") from exc


def to_jsonable(obj: Any) -> Any:
    """Dataclasses/numpy values to plain JSON types (NaN/inf become strings)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"type": type(obj).__name__}
        for field in dataclasses.fields(obj):
            out[field.name] = to_jsonable(getattr(obj, field.name))
        return out
    if obj is None or isinstance(obj, (str, bool)):
        return obj  # before the int branch: bool is an int
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    return repr(obj)


def dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, repr floats, trailing newline."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"
