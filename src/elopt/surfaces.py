"""Separating surfaces on the non-negative orthant.

Two kinds of surface are supported:

* :class:`Hyperplane` -- the set ``sum(c_i x_i) = M`` intersected with the
  orthant, in any dimension ``n >= 1``, with strictly positive ``c`` and
  ``M``.  Its outward normal is the constant vector ``c``.
* two-dimensional analytic curves running from ``(0, b)`` down to ``(a, 0)``:
  :class:`LineCurve`, :class:`QuadraticCurve` and :class:`HyperbolaCurve`.
  A curve is the graph ``{(x, alpha(x)) : 0 <= x <= a}`` of a strictly
  decreasing function and equally the graph ``{(beta(y), y) : 0 <= y <= b}``
  of its inverse.  The outward normal at ``(x, alpha(x))`` is
  ``(-alpha'(x), 1)``.

Every valid surface is compact, avoids the origin, and has strictly positive
outward normals, so it separates a downward-closed region (below) from its
complement (above).  ``validate`` checks these requirements quantitatively
and never raises for a mathematical violation -- it returns the list of
violated clauses instead.  Malformed input (``a <= 0``, non-finite numbers)
raises ``ValueError`` at construction time.

Only analytic families are provided: the constructions consume ``alpha'``
pointwise, so a sampled or piecewise-linear curve would wreck derivative
exactness.  ``alpha`` and ``beta`` snap their values at the interval
endpoints to the exact intercepts; ``validate`` separately checks that the
raw closed forms agree with the intercepts to 1e-12, which catches
inconsistent parameter sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, EloptError

__all__ = [
    "SHAPE_LINEAR",
    "SHAPE_CONVEX",
    "SHAPE_CONCAVE",
    "Hyperplane",
    "Curve2D",
    "LineCurve",
    "QuadraticCurve",
    "HyperbolaCurve",
    "TPoint",
    "SurfaceValidationReport",
    "Surface",
    "bisect_decreasing",
]

SHAPE_LINEAR = "linear"
SHAPE_CONVEX = "strictly_convex"
SHAPE_CONCAVE = "strictly_concave"

# Quantitative reading of "strictly positive normals": reject curves whose
# slope -alpha' leaves this window anywhere on [0, a].
SLOPE_MIN = 1e-6
SLOPE_MAX = 1e6

_ENDPOINT_TOL = 1e-12
_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def bisect_decreasing(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    tol: float = _BISECT_TOL,
    max_iter: int = _BISECT_MAX_ITER,
) -> float:
    """Solve ``fn(x) = target`` for strictly decreasing ``fn`` on ``[lo, hi]``.

    Deterministic plain bisection; the iteration cap is a hard error so the
    call always terminates.
    """
    flo = fn(lo) - target
    fhi = fn(hi) - target
    if flo < 0.0 or fhi > 0.0:
        raise ValueError("target outside the range of fn on [lo, hi]")
    for _ in range(max_iter):
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        fm = fn(mid) - target
        if fm > 0.0:
            lo = mid
        elif fm < 0.0:
            hi = mid
        else:
            return mid
    raise EloptError(f"bisection did not converge within {max_iter} iterations")


@dataclass(frozen=True)
class TPoint:
    """Surface point whose outward normal is (1, 1); the seam of the 2-D constructions."""

    t_x: float
    t_y: float


@dataclass(frozen=True)
class SurfaceValidationReport:
    kind: str
    valid: bool
    violations: tuple[str, ...]
    slope_range: Optional[tuple[float, float]] = None
    shape: Optional[str] = None
    normal: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class Hyperplane:
    """Surface ``sum(c_i x_i) = M`` in the orthant; constant outward normal ``c``."""

    c: tuple[float, ...]
    M: float

    def __post_init__(self) -> None:
        coeffs = tuple(float(v) for v in self.c)
        if len(coeffs) == 0:
            raise ValueError("hyperplane needs at least one coefficient")
        for v in coeffs:
            _require_positive("hyperplane coefficient", v)
        object.__setattr__(self, "c", coeffs)
        object.__setattr__(self, "M", _require_positive("M", self.M))

    @property
    def dim(self) -> int:
        return len(self.c)

    def intercepts(self) -> tuple[float, ...]:
        return tuple(self.M / v for v in self.c)

    def contains(self, point, tol: float = 1e-9) -> bool:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            return False
        if np.any(p < 0.0):
            return False
        return abs(float(np.dot(p, self.c)) - self.M) <= tol * max(1.0, self.M)

    def normal_at(self, point=None) -> np.ndarray:
        if point is not None and not self.contains(point):
            raise DomainError(f"point {point!r} is not on the hyperplane")
        return np.asarray(self.c, dtype=float)

    def validate(self) -> SurfaceValidationReport:
        # Positivity of c and M is enforced at construction time, so a
        # constructed hyperplane always satisfies the surface requirements.
        return SurfaceValidationReport(
            kind="hyperplane", valid=True, violations=(), normal=self.c
        )


class Curve2D:
    """Strictly decreasing analytic curve from ``(0, b)`` to ``(a, 0)``.

    Subclasses provide the raw closed forms ``_alpha_raw``, ``_beta_raw``,
    ``alpha_prime`` and ``alpha_second``; everything else (snapping,
    inverse-derivative rule, normal-point search, validation) is shared.
    All evaluators accept scalars or numpy arrays.
    """

    a: float
    b: float
    shape: str

    family = "abstract"

    # -- closed forms supplied by subclasses --------------------------------

    def _alpha_raw(self, x):
        raise NotImplementedError

    def _beta_raw(self, y):
        raise NotImplementedError

    def alpha_prime(self, x):
        raise NotImplementedError

    def alpha_second(self, x):
        raise NotImplementedError

    def _derived_shape(self) -> str:
        raise NotImplementedError

    # -- shared surface interface -------------------------------------------

    def _snap(self, raw, arg, at_zero, at_end, end):
        arr = np.asarray(arg, dtype=float)
        val = np.asarray(raw, dtype=float)
        out = np.where(arr == 0.0, at_zero, np.where(arr == end, at_end, val))
        return float(out) if out.ndim == 0 else out

    @staticmethod
    def _check_range(arg, limit: float, name: str) -> np.ndarray:
        arr = np.asarray(arg, dtype=float)
        slack = 1e-9 * max(1.0, limit)
        if arr.size and (np.any(arr < -slack) or np.any(arr > limit + slack)):
            raise DomainError(f"{name} outside [0, {limit}]")
        return arr

    def alpha(self, x):
        """Height of the curve above ``x in [0, a]``; exact ``b`` at 0 and exact 0 at ``a``."""
        arr = self._check_range(x, self.a, "x")
        return self._snap(self._alpha_raw(arr), x, self.b, 0.0, self.a)

    def beta(self, y):
        """Inverse of ``alpha`` on ``[0, b]``; exact ``a`` at 0 and exact 0 at ``b``."""
        arr = self._check_range(y, self.b, "y")
        return self._snap(self._beta_raw(arr), y, self.a, 0.0, self.b)

    def beta_prime(self, y):
        """Slope of the inverse, via ``beta'(y) = 1 / alpha'(beta(y))``."""
        val = 1.0 / self.alpha_prime(self.beta(y))
        return float(val) if np.ndim(val) == 0 else val

    def slope_range(self) -> tuple[float, float]:
        """Range of ``-alpha'`` over ``[0, a]``.

        All built-in families have monotone ``alpha'``, so the extremes sit
        at the endpoints.
        """
        s0 = -float(self.alpha_prime(0.0))
        sa = -float(self.alpha_prime(self.a))
        return (min(s0, sa), max(s0, sa))

    def t_point(self) -> Optional[TPoint]:
        """Point with outward normal (1, 1), i.e. ``alpha'(t) = -1``.

        Solved by bisection on the monotone ``alpha'`` to 1e-12; ``None``
        when ``alpha' + 1`` does not change sign strictly on ``(0, a)``
        (this includes the degenerate 45-degree line, where it vanishes
        identically).
        """
        g0 = float(self.alpha_prime(0.0)) + 1.0
        ga = float(self.alpha_prime(self.a)) + 1.0
        if g0 == 0.0 or ga == 0.0 or (g0 > 0.0) == (ga > 0.0):
            return None
        # Flip the sign so that the bisected function decreases; negation is
        # exact, so the midpoints are those of the unflipped search.
        sign = 1.0 if g0 > 0.0 else -1.0
        t_x = bisect_decreasing(lambda x: sign * (float(self.alpha_prime(x)) + 1.0), 0.0, self.a, 0.0)
        return TPoint(t_x=t_x, t_y=float(self.alpha(t_x)))

    def normal_at(self, x: float) -> np.ndarray:
        """Outward normal ``(-alpha'(x), 1)`` at ``(x, alpha(x))``; not normalized."""
        x = float(x)
        if not 0.0 < x < self.a:
            raise DomainError(f"normal requested at x={x}, outside (0, {self.a})")
        return np.array([-float(self.alpha_prime(x)), 1.0])

    def contains(self, point, tol: float = 1e-9) -> bool:
        p = np.asarray(point, dtype=float)
        if p.shape != (2,):
            return False
        x, y = float(p[0]), float(p[1])
        if not 0.0 <= x <= self.a:
            return False
        return abs(y - float(self.alpha(x))) <= tol * max(1.0, self.b)

    def validate(self) -> SurfaceValidationReport:
        violations: list[str] = []
        scale = max(1.0, abs(self.b))

        raw0 = float(self._alpha_raw(np.float64(0.0)))
        rawa = float(self._alpha_raw(np.float64(self.a)))
        if abs(raw0 - self.b) > _ENDPOINT_TOL * scale:
            violations.append(f"alpha(0) = {raw0!r} does not equal the y-intercept b = {self.b!r}")
        if abs(rawa) > _ENDPOINT_TOL * scale:
            violations.append(f"alpha(a) = {rawa!r} does not vanish at the x-intercept a = {self.a!r}")

        xs = np.linspace(0.0, self.a, 1025)
        slopes = -np.asarray(self.alpha_prime(xs), dtype=float)
        s_lo = float(np.min(slopes))
        s_hi = float(np.max(slopes))
        if s_lo <= 0.0:
            violations.append("alpha is not strictly decreasing on [0, a]")
        for end, label in ((0.0, "x=0"), (self.a, "x=a")):
            s_end = -float(self.alpha_prime(end))
            if s_end < SLOPE_MIN:
                violations.append(
                    f"normal degenerate at endpoint {label}: -alpha' = {s_end!r} below {SLOPE_MIN}"
                )
        if s_hi > SLOPE_MAX:
            violations.append(f"slope -alpha' = {s_hi!r} exceeds the bound {SLOPE_MAX}")

        curv = np.asarray(self.alpha_second(xs[1:-1]), dtype=float)
        if self.shape == SHAPE_CONVEX and not np.all(curv > 0.0):
            violations.append("shape flag strictly_convex does not match the curvature sign")
        elif self.shape == SHAPE_CONCAVE and not np.all(curv < 0.0):
            violations.append("shape flag strictly_concave does not match the curvature sign")
        elif self.shape == SHAPE_LINEAR and not np.all(curv == 0.0):
            violations.append("shape flag linear requires zero curvature")

        return SurfaceValidationReport(
            kind="curve",
            valid=not violations,
            violations=tuple(violations),
            slope_range=(min(s_lo, s_hi), max(s_lo, s_hi)),
            shape=self.shape,
        )

    def _init_common(self, shape: str) -> None:
        object.__setattr__(self, "a", _require_positive("a", self.a))
        object.__setattr__(self, "b", _require_positive("b", self.b))
        derived = self._derived_shape()
        if shape == "auto":
            shape = derived
        if shape not in (SHAPE_LINEAR, SHAPE_CONVEX, SHAPE_CONCAVE):
            raise ValueError(f"unknown shape flag {shape!r}")
        object.__setattr__(self, "shape", shape)


@dataclass(frozen=True)
class LineCurve(Curve2D):
    """Segment from ``(0, b)`` to ``(a, 0)``: ``alpha(x) = b - (b/a) x``."""

    a: float
    b: float
    shape: str = "auto"

    family = "line"

    def __post_init__(self) -> None:
        self._init_common(self.shape)

    def _derived_shape(self) -> str:
        return SHAPE_LINEAR

    def _alpha_raw(self, x):
        return self.b - (self.b / self.a) * x

    def _beta_raw(self, y):
        return self.a - (self.a / self.b) * y

    def alpha_prime(self, x):
        return np.full_like(np.asarray(x, dtype=float), -(self.b / self.a))[()]

    def alpha_second(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))[()]


@dataclass(frozen=True)
class QuadraticCurve(Curve2D):
    """Parabolic arc ``alpha(x) = b + c1 x + c2 x**2`` with ``c1`` fixed by ``alpha(a) = 0``.

    ``c2 > 0`` gives a strictly convex arc, ``c2 < 0`` strictly concave,
    ``c2 = 0`` degenerates to the line.
    """

    a: float
    b: float
    c2: float
    shape: str = "auto"

    family = "quadratic"

    def __post_init__(self) -> None:
        c2 = float(self.c2)
        if not math.isfinite(c2):
            raise ValueError(f"c2 must be finite, got {c2!r}")
        object.__setattr__(self, "c2", c2)
        self._init_common(self.shape)
        object.__setattr__(self, "c1", -(self.b + self.c2 * self.a * self.a) / self.a)

    def _derived_shape(self) -> str:
        if self.c2 > 0.0:
            return SHAPE_CONVEX
        if self.c2 < 0.0:
            return SHAPE_CONCAVE
        return SHAPE_LINEAR

    def _alpha_raw(self, x):
        return self.b + self.c1 * x + self.c2 * x * x

    def _beta_raw(self, y):
        # Root of c2 B^2 + c1 B + (b - y) = 0 sitting on the decreasing arc,
        # written in the form that is stable as c2 -> 0 and valid for either
        # sign of c2.
        y = np.asarray(y, dtype=float)
        disc = self.c1 * self.c1 - 4.0 * self.c2 * (self.b - y)
        root = np.sqrt(np.maximum(disc, 0.0))
        return 2.0 * (self.b - y) / (-self.c1 + root)

    def alpha_prime(self, x):
        return self.c1 + 2.0 * self.c2 * np.asarray(x, dtype=float)

    def alpha_second(self, x):
        return np.full_like(np.asarray(x, dtype=float), 2.0 * self.c2)[()]


@dataclass(frozen=True)
class HyperbolaCurve(Curve2D):
    """Hyperbolic arc ``alpha(x) = kappa / (x + s) - t`` with ``kappa`` fixed by ``alpha(a) = 0``.

    Always strictly convex.  The parameters must also satisfy
    ``alpha(0) = b``, which forces ``t = s * b / a``; ``validate`` reports a
    violated intercept otherwise.  :func:`hyperbola_through` derives ``t``
    from ``s``.
    """

    a: float
    b: float
    s: float
    t: float
    shape: str = "auto"

    family = "hyperbola"

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _require_positive("s", self.s))
        object.__setattr__(self, "t", _require_positive("t", self.t))
        self._init_common(self.shape)
        object.__setattr__(self, "kappa", self.t * (self.a + self.s))

    def _derived_shape(self) -> str:
        return SHAPE_CONVEX

    def _alpha_raw(self, x):
        return self.kappa / (np.asarray(x, dtype=float) + self.s) - self.t

    def _beta_raw(self, y):
        return self.kappa / (np.asarray(y, dtype=float) + self.t) - self.s

    def alpha_prime(self, x):
        d = np.asarray(x, dtype=float) + self.s
        return -self.kappa / (d * d)

    def alpha_second(self, x):
        d = np.asarray(x, dtype=float) + self.s
        return 2.0 * self.kappa / (d * d * d)


def hyperbola_through(a: float, b: float, s: float) -> HyperbolaCurve:
    """Hyperbolic arc with intercepts ``(a, 0)`` and ``(0, b)`` and offset ``s``."""
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    s = _require_positive("s", s)
    return HyperbolaCurve(a=a, b=b, s=s, t=s * b / a)


Surface = Union[Hyperplane, Curve2D]
