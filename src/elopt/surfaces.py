"""Separating surfaces on the non-negative orthant.

Two kinds of surface are supported:

* :class:`Hyperplane` -- the set ``sum(c_i x_i) = M`` intersected with the
  orthant, in any dimension ``n >= 1``, with strictly positive ``c``, ``M``
  and intercepts ``M / c_i``.  Its outward normal is the constant vector ``c``.
  In 2-D it also offers ``alpha`` and ``beta`` (without snapping).
* two-dimensional analytic curves running from ``(0, b)`` down to ``(a, 0)``:
  :class:`LineCurve`, :class:`QuadraticCurve` and :class:`HyperbolaCurve`.
  A curve is the graph ``{(x, alpha(x)) : 0 <= x <= a}`` of a strictly
  decreasing function and equally the graph ``{(beta(y), y) : 0 <= y <= b}``
  of its inverse.  The outward normal at ``(x, alpha(x))`` is
  ``(-alpha'(x), 1)``.

Every valid surface is compact, avoids the origin, and has strictly positive
outward normals, so it separates a downward-closed region (below) from its
complement (above).  ``validate`` checks these requirements on the closed
forms (a curve's slope window is its ``slope_range``) and never raises for
a mathematical violation -- it returns the list of violated clauses
instead.  A curve's ``shape`` (linear, strictly convex or strictly concave)
is worked out from its parameters.  Malformed input (``a <= 0``,
non-finite numbers, a hyperbola whose closed forms overflow) raises
``ValueError`` at construction time.

Only analytic families are provided: the constructions consume ``alpha'``
pointwise and the seam ``alpha' = -1`` in closed form, so a sampled or
piecewise-linear curve would wreck derivative exactness.  ``alpha`` and
``beta`` snap their values at the interval endpoints to the exact
intercepts; ``validate`` separately checks that the raw closed forms agree
with the intercepts to 1e-12 of the box's scale, which catches inconsistent
parameter sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DomainError

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
]

SHAPE_LINEAR = "linear"
SHAPE_CONVEX = "strictly_convex"
SHAPE_CONCAVE = "strictly_concave"

# Quantitative reading of "strictly positive normals": reject curves whose
# slope -alpha' leaves this window anywhere on [0, a].
SLOPE_MIN = 1e-6
SLOPE_MAX = 1e6

# Coordinate ties (the nodes' branches, the LP's crossings, a curve's
# endpoints), in units of the box's scale.
_TIE_TOL = 1e-12


def _box_scale(box) -> float:
    """The program's length unit, ``2**floor(log2(max(box)))`` (0 for a box of side 0).

    Every length tolerance, step and slack is measured in it, so dilating the
    box by a power of two dilates every result exactly; a longest side in
    [1, 2) gives 1.  ``frexp`` is exact where ``log2`` can round up.
    """
    mant, exp = math.frexp(max(box))
    return math.ldexp(0.5, exp) if mant else 0.0


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


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

    def _coeffs_2d(self) -> tuple[float, float]:
        if self.dim != 2:
            raise DomainError(f"alpha and beta need a 2-D hyperplane, got dim {self.dim}")
        return self.c

    def alpha(self, x):
        """Height of the 2-D line above ``x``: ``(M - c_0 x) / c_1``."""
        c0, c1 = self._coeffs_2d()
        return (self.M - c0 * x) / c1

    def beta(self, y):
        """Inverse of ``alpha``: ``(M - c_1 y) / c_0``."""
        c0, c1 = self._coeffs_2d()
        return (self.M - c1 * y) / c0

    def validate(self) -> SurfaceValidationReport:
        # c and M are positive by construction, but M / c_i can overflow or underflow.
        violations = tuple(
            f"intercept M / c[{i}] = {v!r} is not a finite positive number"
            for i, v in enumerate(self.intercepts()) if not 0.0 < v < math.inf
        )
        return SurfaceValidationReport("hyperplane", not violations, violations, normal=self.c)


class Curve2D:
    """Strictly decreasing analytic curve from ``(0, b)`` to ``(a, 0)``.

    Subclasses provide the raw closed forms ``_alpha_raw``, ``_beta_raw``,
    ``alpha_prime`` and the seam root ``_seam_x``, and set ``shape`` from
    their parameters; everything else (snapping, inverse-derivative rule,
    validation) is shared.
    All evaluators accept scalars or numpy arrays.
    """

    a: float
    b: float
    shape: str

    family = "abstract"
    dim = 2

    # -- closed forms supplied by subclasses --------------------------------

    def _alpha_raw(self, x):
        raise NotImplementedError

    def _beta_raw(self, y):
        raise NotImplementedError

    def alpha_prime(self, x):
        raise NotImplementedError

    def _seam_x(self) -> float:
        """Root of ``alpha'(x) = -1``; asked for only when the slopes straddle 1."""
        raise NotImplementedError

    # -- shared surface interface -------------------------------------------

    def intercepts(self) -> tuple[float, float]:
        """Where the curve meets the axes: ``(a, b)``."""
        return (self.a, self.b)

    @staticmethod
    def _snap(raw, arg, at_zero, at_end, end) -> np.ndarray:
        """``raw`` (a fresh array, overwritten) with the exact intercept values where ``arg`` is 0 or ``end``."""
        out = np.asarray(raw, dtype=float)
        out[arg == 0.0] = at_zero
        out[arg == end] = at_end
        return out

    @staticmethod
    def _check_range(arg, limit: float, name: str) -> np.ndarray:
        arr = np.asarray(arg, dtype=float)
        slack = 1e-9 * _box_scale((limit,))
        if arr.size and (np.any(arr < -slack) or np.any(arr > limit + slack)):
            raise DomainError(f"{name} outside [0, {limit}]")
        return arr

    def _alpha_in(self, x: np.ndarray) -> np.ndarray:
        """``alpha`` of an array the caller keeps in range (up to the nodes' tie tolerance), unchecked."""
        return self._snap(self._alpha_raw(x), x, self.b, 0.0, self.a)

    def _beta_in(self, y: np.ndarray) -> np.ndarray:
        """``beta`` of an array the caller keeps in range (up to the nodes' tie tolerance), unchecked."""
        return self._snap(self._beta_raw(y), y, self.a, 0.0, self.b)

    def alpha(self, x):
        """Height of the curve above ``x in [0, a]``; exact ``b`` at 0 and exact 0 at ``a``."""
        out = self._alpha_in(self._check_range(x, self.a, "x"))
        return float(out) if out.ndim == 0 else out

    def beta(self, y):
        """Inverse of ``alpha`` on ``[0, b]``; exact ``a`` at 0 and exact 0 at ``b``."""
        out = self._beta_in(self._check_range(y, self.b, "y"))
        return float(out) if out.ndim == 0 else out

    def beta_prime(self, y):
        """Slope of the inverse, via ``beta'(y) = 1 / alpha'(beta(y))``."""
        val = 1.0 / self.alpha_prime(self.beta(y))
        return float(val) if np.ndim(val) == 0 else val

    def slope_range(self) -> tuple[float, float]:
        """Range of ``-alpha'`` over ``[0, a]``.

        All built-in families have monotone ``alpha'``, so the extremes sit
        at the endpoints.  ``validate`` reads its slope window here: a family
        whose ``alpha'`` is not monotone must supply its own extremes.
        """
        s0 = -float(self.alpha_prime(0.0))
        sa = -float(self.alpha_prime(self.a))
        return (min(s0, sa), max(s0, sa))

    def t_point(self) -> Optional[TPoint]:
        """Point with outward normal (1, 1), i.e. ``alpha'(t) = -1``.

        ``None`` unless the slope range straddles 1 strictly (so never on a
        line, the 45-degree one included).  The family's closed-form root is
        clamped into ``[0, a]``, which it can leave only by rounding.
        """
        s_lo, s_hi = self.slope_range()
        if not s_lo < 1.0 < s_hi:
            return None
        t_x = min(max(self._seam_x(), 0.0), self.a)
        return TPoint(t_x=t_x, t_y=float(self.alpha(t_x)))

    def validate(self) -> SurfaceValidationReport:
        violations: list[str] = []
        tol = _TIE_TOL * _box_scale(self.intercepts())

        raw0 = float(self._alpha_raw(np.float64(0.0)))
        rawa = float(self._alpha_raw(np.float64(self.a)))
        if abs(raw0 - self.b) > tol:
            violations.append(f"alpha(0) = {raw0!r} does not equal the y-intercept b = {self.b!r}")
        if abs(rawa) > tol:
            violations.append(f"alpha(a) = {rawa!r} does not vanish at the x-intercept a = {self.a!r}")

        s_lo, s_hi = self.slope_range()
        if s_lo <= 0.0:
            violations.append("alpha is not strictly decreasing on [0, a]")
        for x, label in ((0.0, "x=0"), (self.a, "x=a")):
            s_end = -float(self.alpha_prime(x))
            if s_end < SLOPE_MIN:
                violations.append(
                    f"normal degenerate at endpoint {label}: -alpha' = {s_end!r} below {SLOPE_MIN}"
                )
        if s_hi > SLOPE_MAX:
            violations.append(f"slope -alpha' = {s_hi!r} exceeds the bound {SLOPE_MAX}")

        return SurfaceValidationReport(
            kind="curve",
            valid=not violations,
            violations=tuple(violations),
            slope_range=(s_lo, s_hi),
            shape=self.shape,
        )

    def _init_common(self) -> None:
        object.__setattr__(self, "a", _require_positive("a", self.a))
        object.__setattr__(self, "b", _require_positive("b", self.b))


@dataclass(frozen=True)
class LineCurve(Curve2D):
    """Segment from ``(0, b)`` to ``(a, 0)``: ``alpha(x) = b - (b/a) x``."""

    a: float
    b: float
    shape: str = field(default=SHAPE_LINEAR, init=False)

    family = "line"

    def __post_init__(self) -> None:
        self._init_common()

    def _alpha_raw(self, x):
        return self.b - (self.b / self.a) * x

    def _beta_raw(self, y):
        return self.a - (self.a / self.b) * y

    def alpha_prime(self, x):
        return np.full_like(np.asarray(x, dtype=float), -(self.b / self.a))[()]


@dataclass(frozen=True)
class QuadraticCurve(Curve2D):
    """Parabolic arc ``alpha(x) = b + c1 x + c2 x**2`` with ``c1`` fixed by ``alpha(a) = 0``.

    ``c2 > 0`` gives a strictly convex arc, ``c2 < 0`` strictly concave,
    ``c2 = 0`` degenerates to the line.
    """

    a: float
    b: float
    c2: float
    shape: str = field(init=False)

    family = "quadratic"

    def __post_init__(self) -> None:
        c2 = float(self.c2)
        if not math.isfinite(c2):
            raise ValueError(f"c2 must be finite, got {c2!r}")
        object.__setattr__(self, "c2", c2)
        self._init_common()
        shape = SHAPE_CONVEX if c2 > 0.0 else SHAPE_CONCAVE if c2 < 0.0 else SHAPE_LINEAR
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "c1", -(self.b + self.c2 * self.a * self.a) / self.a)

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

    def _seam_x(self) -> float:
        return (-1.0 - self.c1) / (2.0 * self.c2)


@dataclass(frozen=True)
class HyperbolaCurve(Curve2D):
    """Hyperbolic arc ``alpha(x) = kappa / (x + s) - t`` with ``kappa`` fixed by ``alpha(a) = 0``.

    Always strictly convex.  The parameters must also satisfy
    ``alpha(0) = b``, which forces ``t = s * b / a``; ``validate`` reports a
    violated intercept otherwise.  Parameters whose ``kappa`` or ``(a + s)**2``
    overflows raise ``ValueError``.
    """

    a: float
    b: float
    s: float
    t: float
    shape: str = field(default=SHAPE_CONVEX, init=False)

    family = "hyperbola"

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _require_positive("s", self.s))
        object.__setattr__(self, "t", _require_positive("t", self.t))
        self._init_common()
        reach = self.a + self.s  # alpha' squares x + s, which reaches a + s on the curve
        kappa = self.t * reach
        for name, value in (("kappa", kappa), ("(a+s)²", reach * reach)):
            if not math.isfinite(value):
                raise ValueError(f"hyperbola parameters overflow: {name} is not finite")
        object.__setattr__(self, "kappa", kappa)

    def _alpha_raw(self, x):
        return self.kappa / (np.asarray(x, dtype=float) + self.s) - self.t

    def _beta_raw(self, y):
        return self.kappa / (np.asarray(y, dtype=float) + self.t) - self.s

    def alpha_prime(self, x):
        d = np.asarray(x, dtype=float) + self.s
        return -self.kappa / (d * d)

    def _seam_x(self) -> float:
        return math.sqrt(self.kappa) - self.s


Surface = Union[Hyperplane, Curve2D]
