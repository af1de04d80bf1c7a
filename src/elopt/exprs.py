"""Entropy-like functions as immutable expression trees.

An entropy-like (EL) function is a real function ``f`` on the non-negative
orthant that is

* pointed: ``f(0) = 0``,
* non-decreasing: ``x <= y`` coordinatewise implies ``f(x) <= f(y)``,
* submodular: ``f(x) + f(y) >= f(min(x, y)) + f(max(x, y))`` with
  coordinatewise min/max, and
* has diminishing returns: for ``x <= y`` and any coordinate ``i`` and
  ``eps > 0``, ``f(x + eps e_i) - f(x) >= f(y + eps e_i) - f(y)``.

The class is closed under non-negative linear combination (:class:`Sum`,
:class:`Scale`), truncation ``min(f, M)`` (:class:`TruncateMin`) and clamping
``f(min(x, a))`` (:class:`Clamp`).  Three two-dimensional piecewise nodes,
:class:`ConvexPlateau`, :class:`ConvexDiag` and :class:`ConcaveStep`, realise
the cost-optimal functions for strictly convex and strictly concave
separating curves; builders with the matching feasibility bookkeeping live in
:mod:`elopt.constructions`.

Every node supports batched evaluation and *exact* one-sided partial
derivatives.  Left/right limits are propagated symbolically through the
combinators; on the piecewise nodes a branch-region classifier with
deterministic tie handling (absolute coordinate tolerance 1e-12, ties
resolved towards the side being queried) picks the adjacent open region, so
a one-sided value is always the limit from that side.  Left derivatives do
not exist on the coordinate hyperplanes ``x_i = 0``; they are reported as
NaN together with the ``defined_left`` mask of :class:`OneSidedGrad`, never
as an exception.

Two cost functionals complete the module: :func:`cost`, the largest right
partial derivative at the origin, and :func:`cost_total`, the supremum of
the range (an error for unbounded expressions).

Values are immutable after construction and all operations are pure, so
expressions may be evaluated concurrently from many workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, DomainError, ShapeError, UnboundedRangeError
from .surfaces import SHAPE_CONCAVE, SHAPE_CONVEX, Curve2D

__all__ = [
    "ELExpr",
    "Linear",
    "Sum",
    "Scale",
    "TruncateMin",
    "Clamp",
    "ConvexPlateau",
    "ConvexDiag",
    "ConcaveStep",
    "OneSidedGrad",
    "eval_at",
    "one_sided_partials",
    "cost",
    "cost_total",
]

# Branch-boundary classification tolerance (absolute, on coordinates).
_TIE_TOL = 1e-12

# Piece codes shared by the three piecewise nodes.
_FLAT = 0       # constant plateau / region above the curve
_XSTRIP = 1     # strip x >= t_x below the curve
_YSTRIP = 2     # strip y >= t_y below the curve
_INNER = 3      # region with both coordinates below the seam
_XUP = 4        # strip x >= t_x above the curve, non-flat (concave case)
_YUP = 5        # strip y >= t_y above the curve, non-flat (concave case)
_SUM = 6        # region where the function is x + y


def _as_batch(x, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce a point or an (k, n) batch of points; enforce the orthant."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        batch, scalar = arr[None, :], True
    elif arr.ndim == 2:
        batch, scalar = arr, False
    else:
        raise DomainError(f"expected a point or a batch of points, got ndim={arr.ndim}")
    if batch.shape[1] != dim:
        raise DomainError(f"dimension mismatch: expression has dim {dim}, point has {batch.shape[1]}")
    if not np.all(np.isfinite(batch)):
        raise DomainError("point has non-finite coordinates")
    if np.any(batch < 0.0):
        raise DomainError("point outside the non-negative orthant")
    return batch, scalar


def _cmp(v, w, side, tol: float = _TIE_TOL):
    """Three-way compare with ties (|v - w| <= tol) resolved by ``side``."""
    return np.where(v < np.asarray(w) - tol, -1, np.where(v > np.asarray(w) + tol, 1, side))


class _Layout(NamedTuple):
    mode: str       # "full" | "single_shallow" | "single_steep"
    t_x: float
    t_y: float
    plateau: float  # NaN when the variant has no plateau (concave fallbacks)


@dataclass(frozen=True)
class OneSidedGrad:
    """One-sided partial derivatives at a point (arrays of shape ``(n,)``) or a batch (``(k, n)``).

    ``left`` holds the backward-difference limits, defined only where
    ``x_i > 0`` (NaN and ``defined_left == False`` elsewhere); ``right``
    holds the forward limits, which always exist.  For entropy-like
    functions, ``left >= right >= 0`` wherever defined.
    """

    left: np.ndarray
    right: np.ndarray
    defined_left: np.ndarray

    def jump(self) -> np.ndarray:
        """``left - right``; NaN where the left derivative is undefined."""
        return self.left - self.right


class ELExpr:
    """Base class of all expression nodes.  Instances are immutable."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def _values(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _partials(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _sup(self) -> float:
        """Supremum of the range; ``inf`` when unbounded."""
        raise NotImplementedError

    def __call__(self, x):
        return eval_at(self, x)


@dataclass(frozen=True)
class Linear(ELExpr):
    """``f(x) = sum(c_i x_i)`` with strictly positive coefficients."""

    c: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(v) for v in self.c)
        if len(coeffs) == 0:
            raise ValueError("Linear needs at least one coefficient")
        if not all(math.isfinite(v) and v > 0.0 for v in coeffs):
            raise ValueError(f"Linear coefficients must be finite and positive, got {coeffs!r}")
        object.__setattr__(self, "c", coeffs)

    @property
    def dim(self) -> int:
        return len(self.c)

    @cached_property
    def _c(self) -> np.ndarray:
        return np.asarray(self.c, dtype=float)

    def _values(self, X):
        return X @ self._c

    def _partials(self, X):
        grad = np.tile(self._c, (X.shape[0], 1))
        return grad, grad.copy()

    def _sup(self):
        return math.inf


@dataclass(frozen=True)
class Sum(ELExpr):
    left: ELExpr
    right: ELExpr

    def __post_init__(self) -> None:
        if self.left.dim != self.right.dim:
            raise DomainError(
                f"Sum children disagree on dimension: {self.left.dim} vs {self.right.dim}"
            )

    @property
    def dim(self) -> int:
        return self.left.dim

    def _values(self, X):
        return self.left._values(X) + self.right._values(X)

    def _partials(self, X):
        l1, r1 = self.left._partials(X)
        l2, r2 = self.right._partials(X)
        return l1 + l2, r1 + r2

    def _sup(self):
        return self.left._sup() + self.right._sup()


@dataclass(frozen=True)
class Scale(ELExpr):
    """``factor * inner`` with ``factor >= 0`` (zero yields the zero function)."""

    factor: float
    inner: ELExpr

    def __post_init__(self) -> None:
        factor = float(self.factor)
        if not math.isfinite(factor) or factor < 0.0:
            raise ValueError(f"Scale factor must be finite and >= 0, got {factor!r}")
        object.__setattr__(self, "factor", factor)

    @property
    def dim(self) -> int:
        return self.inner.dim

    def _values(self, X):
        return self.factor * self.inner._values(X)

    def _partials(self, X):
        li, ri = self.inner._partials(X)
        return self.factor * li, self.factor * ri

    def _sup(self):
        return 0.0 if self.factor == 0.0 else self.factor * self.inner._sup()


@dataclass(frozen=True)
class TruncateMin(ELExpr):
    """``min(inner, cap)`` with ``cap >= 0``."""

    cap: float
    inner: ELExpr

    def __post_init__(self) -> None:
        cap = float(self.cap)
        if not math.isfinite(cap) or cap < 0.0:
            raise ValueError(f"TruncateMin cap must be finite and >= 0, got {cap!r}")
        object.__setattr__(self, "cap", cap)

    @property
    def dim(self) -> int:
        return self.inner.dim

    def _values(self, X):
        return np.minimum(self.inner._values(X), self.cap)

    def _partials(self, X):
        # At the cap the left limit comes from the inner function, the right
        # limit is zero; strictly above the cap (reachable only when queried
        # off the evaluation path) both vanish.
        v = self.inner._values(X)
        li, ri = self.inner._partials(X)
        atol = _TIE_TOL * max(1.0, abs(self.cap))
        above = (v > self.cap + atol)[:, None]
        below = (v < self.cap - atol)[:, None]
        left = np.where(above, 0.0, li)
        right = np.where(below, ri, 0.0)
        return left, right

    def _sup(self):
        return min(self.cap, self.inner._sup())


@dataclass(frozen=True)
class Clamp(ELExpr):
    """``inner(min(x, at))`` with strictly positive clamp point ``at``."""

    at: tuple[float, ...]
    inner: ELExpr

    def __post_init__(self) -> None:
        at = tuple(float(v) for v in self.at)
        if not all(math.isfinite(v) and v > 0.0 for v in at):
            raise ValueError(f"Clamp point must have finite positive coordinates, got {at!r}")
        if len(at) != self.inner.dim:
            raise DomainError(f"Clamp point has dim {len(at)}, inner expression dim {self.inner.dim}")
        object.__setattr__(self, "at", at)

    @property
    def dim(self) -> int:
        return self.inner.dim

    @cached_property
    def _at(self) -> np.ndarray:
        return np.asarray(self.at, dtype=float)

    def _values(self, X):
        return self.inner._values(np.minimum(X, self._at))

    def _partials(self, X):
        # Coordinates strictly below the clamp pass the inner derivatives
        # through; on the clamp the left limit survives and the right one is
        # zero; beyond it both vanish.
        Y = np.minimum(X, self._at)
        li, ri = self.inner._partials(Y)
        below = X < self._at - _TIE_TOL
        at_clamp = np.abs(X - self._at) <= _TIE_TOL
        left = np.where(below | at_clamp, li, 0.0)
        right = np.where(below, ri, 0.0)
        return left, right

    def _sup(self):
        # Monotone inner, so the supremum over min(x, at) sits at the clamp.
        return eval_at(self.inner, self._at)


def _neg_alpha_prime(f, x):
    return -f._alpha_prime_cl(x)


def _neg_beta_prime(f, y):
    return -f._beta_prime_cl(y)


def _x_plus_y(f, x, y):
    return x + y


def _group_pieces(table):
    """Masked passes for a ``piece -> (value, d/dx, d/dy)`` table, one list per column.

    Each pass is ``(pieces, formula)``: pieces sharing a formula are evaluated
    together and zero entries are skipped.  A formula is a constant or a
    function of the node and the selected points' coordinates: ``(node, x, y)``
    for values, ``(node, x)`` for d/dx and ``(node, y)`` for d/dy (every piece
    is a sum of one-variable terms).
    """
    columns = []
    for column in range(3):
        passes: dict = {}
        for code, row in table.items():
            if row[column] != 0.0:
                passes.setdefault(row[column], []).append(code)
        columns.append([(codes, formula) for formula, codes in passes.items()])
    return columns


class _CurveConstruction(ELExpr):
    """Shared plumbing of the three piecewise two-dimensional nodes.

    A node classifies points into pieces (``_classify``) and lists each
    piece's value and partials in ``_PASSES`` (see :func:`_group_pieces`);
    pieces missing from the table sit on the plateau, with zero partials.
    """

    curve: Curve2D

    _required_shape = ""

    def __post_init__(self) -> None:
        if self.curve.shape != self._required_shape:
            raise ShapeError(
                f"{type(self).__name__} requires a {self._required_shape} curve, "
                f"got shape {self.curve.shape!r}"
            )
        _ = self._layout  # resolve the seam / fallback branch eagerly

    @property
    def dim(self) -> int:
        return 2

    def _sup(self) -> float:
        return self._layout.plateau

    # Values of the curve and of its derivatives, with the argument clamped
    # into the curve's parameter range (the classifier only selects pieces
    # whose formulas are constant beyond the clamp).
    def _alpha_cl(self, x):
        return self.curve.alpha(np.minimum(x, self.curve.a))

    def _beta_cl(self, y):
        return self.curve.beta(np.minimum(y, self.curve.b))

    def _alpha_prime_cl(self, x):
        return self.curve.alpha_prime(np.minimum(x, self.curve.a))

    def _beta_prime_cl(self, y):
        return self.curve.beta_prime(np.minimum(y, self.curve.b))

    def _strip_classify(self, u, v, su, sv, inverse: bool) -> np.ndarray:
        """Whether ``u`` lies on or above the clamped curve at ``v``, ties towards the queried side.

        ``inverse`` compares ``u = x`` with ``beta(v)``, otherwise ``u = y`` is
        compared with ``alpha(v)``.  Beyond the intercept the clamped curve is
        constant, so a tie there cannot be resolved by moving ``v``.
        """
        end, curve_cl = (self.curve.b, self._beta_cl) if inverse else (self.curve.a, self._alpha_cl)
        cv = _cmp(v, end, sv)
        level = np.where(cv >= 0, 0.0, curve_cl(v))
        return _cmp(u, level, su if su != 0 else np.where(cv < 0, sv, 0)) >= 0

    def _classify(self, x, y, sx: int, sy: int) -> np.ndarray:
        raise NotImplementedError

    def _eval(self, column: int, piece, x, y) -> np.ndarray:
        """Column 0 (value), 1 (d/dx) or 2 (d/dy) of the piece table at classified points."""
        out = np.full(x.shape, self._layout.plateau if column == 0 else 0.0)
        coords = ((x, y), (x,), (y,))[column]
        for codes, formula in self._PASSES[column]:
            m = piece == codes[0]
            for code in codes[1:]:
                m |= piece == code
            if np.any(m):
                out[m] = formula(self, *(c[m] for c in coords)) if callable(formula) else formula
        return out

    def _values(self, X):
        x, y = X[:, 0], X[:, 1]
        return self._eval(0, self._classify(x, y, 0, 0), x, y)

    def _partials(self, X):
        x, y = X[:, 0], X[:, 1]
        left_x = self._eval(1, self._classify(x, y, -1, 0), x, y)
        right_x = self._eval(1, self._classify(x, y, +1, 0), x, y)
        left_y = self._eval(2, self._classify(x, y, 0, -1), x, y)
        right_y = self._eval(2, self._classify(x, y, 0, +1), x, y)
        return np.stack([left_x, left_y], axis=1), np.stack([right_x, right_y], axis=1)


@dataclass(frozen=True)
class ConvexPlateau(_CurveConstruction):
    """Flat-plateau function for a strictly convex curve.

    With a seam point ``T = (t_x, t_y)`` (curve normal (1, 1)) the function
    equals the constant ``C = (a - t_x) + (b - t_y)`` everywhere on and above
    the curve, ``C + x - beta(y)`` on the strip ``x >= t_x`` below it,
    ``C + y - alpha(x)`` on the strip ``y >= t_y`` below it, and
    ``(a - alpha(x)) + (b - beta(y))`` where both coordinates are below the
    seam.  Without a seam point the single surviving branch is used, with the
    curve clamped to its parameter range:

    * every slope ``-alpha' <= 1``: ``f = a + min(x - beta(y), 0)``,
    * every slope ``-alpha' >= 1``: ``f = b + min(y - alpha(x), 0)``.
    """

    curve: Curve2D

    _required_shape = SHAPE_CONVEX
    _PASSES = _group_pieces({
        _XSTRIP: (lambda f, x, y: f._layout.plateau + x - f._beta_cl(y), 1.0, _neg_beta_prime),
        _YSTRIP: (lambda f, x, y: f._layout.plateau + y - f._alpha_cl(x), _neg_alpha_prime, 1.0),
        _INNER: (
            lambda f, x, y: (f.curve.a - f.curve.alpha(x)) + (f.curve.b - f.curve.beta(y)),
            _neg_alpha_prime,
            _neg_beta_prime,
        ),
    })

    @cached_property
    def _layout(self) -> _Layout:
        t = self.curve.t_point()
        if t is not None:
            plateau = (self.curve.a - t.t_x) + (self.curve.b - t.t_y)
            return _Layout("full", t.t_x, t.t_y, plateau)
        s_lo, s_hi = self.curve.slope_range()
        if s_hi <= 1.0:
            return _Layout("single_shallow", math.nan, math.nan, self.curve.a)
        if s_lo >= 1.0:
            return _Layout("single_steep", math.nan, math.nan, self.curve.b)
        raise ConstructionError(
            "curve has no point with normal (1, 1) yet its slope range straddles 1"
        )

    def _classify(self, x, y, sx, sy):
        lay = self._layout
        if lay.mode == "full":
            cx = _cmp(x, lay.t_x, sx)
            cy = _cmp(y, lay.t_y, sy)
            piece = np.full(x.shape, _INNER, dtype=np.int8)
            piece[(cx >= 0) & (cy >= 0)] = _FLAT
            xs = (cx >= 0) & (cy < 0)
            if np.any(xs):
                t = _cmp(x[xs], self.curve.beta(y[xs]), sx if sx != 0 else sy)
                piece[xs] = np.where(t >= 0, _FLAT, _XSTRIP)
            ys = (cx < 0) & (cy >= 0)
            if np.any(ys):
                u = _cmp(y[ys], self.curve.alpha(x[ys]), sy if sy != 0 else sx)
                piece[ys] = np.where(u >= 0, _FLAT, _YSTRIP)
            return piece
        if lay.mode == "single_shallow":
            return np.where(self._strip_classify(x, y, sx, sy, True), _FLAT, _XSTRIP).astype(np.int8)
        return np.where(self._strip_classify(y, x, sy, sx, False), _FLAT, _YSTRIP).astype(np.int8)


@dataclass(frozen=True)
class ConvexDiag(_CurveConstruction):
    """Diagonal-plateau function for a strictly convex curve with a seam point.

    ``f = x + y`` below the seam, the constant ``C = t_x + t_y`` on and above
    the curve, ``C + y - alpha(x)`` on the strip ``x >= t_x`` below the
    curve and ``C + x - beta(y)`` on the strip ``y >= t_y`` below it.  Both
    diagonal branches are required, so a curve without a point of normal
    (1, 1) is rejected.
    """

    curve: Curve2D

    _required_shape = SHAPE_CONVEX
    _PASSES = _group_pieces({
        _XSTRIP: (lambda f, x, y: f._layout.plateau + y - f._alpha_cl(x), _neg_alpha_prime, 1.0),
        _YSTRIP: (lambda f, x, y: f._layout.plateau + x - f._beta_cl(y), 1.0, _neg_beta_prime),
        _SUM: (_x_plus_y, 1.0, 1.0),
    })

    @cached_property
    def _layout(self) -> _Layout:
        t = self.curve.t_point()
        if t is None:
            raise ConstructionError(
                "ConvexDiag needs both diagonal branches: the curve has no point with normal (1, 1)"
            )
        return _Layout("full", t.t_x, t.t_y, t.t_x + t.t_y)

    def _classify(self, x, y, sx, sy):
        lay = self._layout
        cx = _cmp(x, lay.t_x, sx)
        cy = _cmp(y, lay.t_y, sy)
        piece = np.full(x.shape, _SUM, dtype=np.int8)
        piece[(cx >= 0) & (cy >= 0)] = _FLAT
        xs = (cx >= 0) & (cy < 0)
        if np.any(xs):
            above = self._strip_classify(y[xs], x[xs], sy, sx, False)
            piece[xs] = np.where(above, _FLAT, _XSTRIP)
        ys = (cx < 0) & (cy >= 0)
        if np.any(ys):
            above = self._strip_classify(x[ys], y[ys], sx, sy, True)
            piece[ys] = np.where(above, _FLAT, _YSTRIP)
        return piece


@dataclass(frozen=True)
class ConcaveStep(_CurveConstruction):
    """Capped-sum function for a strictly concave curve.

    With a seam point: ``f = x + y`` below the curve, ``y + beta(y)`` on the
    strip ``x >= t_x`` above the curve, ``x + alpha(x)`` on the strip
    ``y >= t_y`` above it, and the constant ``t_x + t_y`` beyond both seam
    coordinates (the cap region is not flat along the curve, only past the
    seam).  Without a seam point a single branch is used, the curve being
    continued *linearly* past its intercept so that the section functions
    stay concave (a constant continuation would make the slope jump back up):

    * every slope ``-alpha' >= 1``: ``f = y + min(x, beta_lin(y))``,
    * every slope ``-alpha' <= 1``: ``f = x + min(y, alpha_lin(x))``.

    These single-branch forms are unbounded whenever the continuation slope
    is non-zero, so ``cost_total`` rejects them.
    """

    curve: Curve2D

    _required_shape = SHAPE_CONCAVE
    _PASSES = _group_pieces({
        _SUM: (_x_plus_y, 1.0, 1.0),
        _XUP: (lambda f, x, y: y + f._beta_lin(y), 0.0, lambda f, y: 1.0 + f._beta_prime_cl(y)),
        _YUP: (lambda f, x, y: x + f._alpha_lin(x), lambda f, x: 1.0 + f._alpha_prime_cl(x), 0.0),
    })

    @cached_property
    def _layout(self) -> _Layout:
        t = self.curve.t_point()
        if t is not None:
            return _Layout("full", t.t_x, t.t_y, t.t_x + t.t_y)
        s_lo, s_hi = self.curve.slope_range()
        if s_lo >= 1.0:
            return _Layout("single_steep", math.nan, math.nan, math.nan)
        if s_hi <= 1.0:
            return _Layout("single_shallow", math.nan, math.nan, math.nan)
        raise ConstructionError(
            "curve has no point with normal (1, 1) yet its slope range straddles 1"
        )

    def _sup(self) -> float:
        lay = self._layout
        if lay.mode == "full":
            return lay.plateau
        if lay.mode == "single_steep":
            tail = 1.0 + self.curve.beta_prime(self.curve.b)
            return math.inf if tail > 0.0 else self.curve.b
        tail = 1.0 + self.curve.alpha_prime(self.curve.a)
        return math.inf if tail > 0.0 else self.curve.a

    def _beta_lin(self, y):
        # Linear continuation of beta past the y-intercept (slope beta'(b)).
        over = y - self.curve.b
        return np.where(over <= 0.0, self._beta_cl(y), self.curve.beta_prime(self.curve.b) * over)

    def _alpha_lin(self, x):
        over = x - self.curve.a
        return np.where(over <= 0.0, self._alpha_cl(x), self.curve.alpha_prime(self.curve.a) * over)

    def _classify(self, x, y, sx, sy):
        lay = self._layout
        if lay.mode == "full":
            cx = _cmp(x, lay.t_x, sx)
            cy = _cmp(y, lay.t_y, sy)
            piece = np.full(x.shape, _SUM, dtype=np.int8)
            piece[(cx >= 0) & (cy >= 0)] = _FLAT
            xs = (cx >= 0) & (cy < 0)
            if np.any(xs):
                t = _cmp(x[xs], self.curve.beta(y[xs]), sx if sx != 0 else sy)
                piece[xs] = np.where(t >= 0, _XUP, _SUM)
            ys = (cx < 0) & (cy >= 0)
            if np.any(ys):
                u = _cmp(y[ys], self.curve.alpha(x[ys]), sy if sy != 0 else sx)
                piece[ys] = np.where(u >= 0, _YUP, _SUM)
            return piece
        if lay.mode == "single_steep":
            # The linear continuation keeps beta' nonzero everywhere, so a
            # tie is always resolvable from either coordinate.
            t = _cmp(x, self._beta_lin(y), sx if sx != 0 else sy)
            return np.where(t >= 0, _XUP, _SUM).astype(np.int8)
        u = _cmp(y, self._alpha_lin(x), sy if sy != 0 else sx)
        return np.where(u >= 0, _YUP, _SUM).astype(np.int8)


def eval_at(expr: ELExpr, x):
    """Evaluate ``expr`` at a point (returns float) or an (k, n) batch (returns (k,) array)."""
    X, scalar = _as_batch(x, expr.dim)
    v = expr._values(X)
    return float(v[0]) if scalar else v


def one_sided_partials(expr: ELExpr, x) -> OneSidedGrad:
    """Exact one-sided partial derivatives of ``expr`` at ``x`` (point or batch)."""
    X, scalar = _as_batch(x, expr.dim)
    left, right = expr._partials(X)
    defined = X > 0.0
    left = np.where(defined, left, np.nan)
    if scalar:
        return OneSidedGrad(left=left[0], right=right[0], defined_left=defined[0])
    return OneSidedGrad(left=left, right=right, defined_left=defined)


def cost(expr: ELExpr) -> float:
    """Largest right partial derivative at the origin."""
    grad = one_sided_partials(expr, np.zeros(expr.dim))
    return float(np.max(grad.right))


def cost_total(expr: ELExpr) -> float:
    """Supremum of the range (total-size cost); raises for unbounded expressions."""
    s = expr._sup()
    if not math.isfinite(s):
        raise UnboundedRangeError("cost_total undefined for unbounded EL function")
    return float(s)
