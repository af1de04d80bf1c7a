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
:mod:`elopt.constructions`.  Each piecewise node checks its curve's shape and
validity, and derives its seam, supremum and tie tolerance once, in a layout.
The seam is the curve's point ``T`` of normal (1, 1); a curve without one
gets its seam at an endpoint, so every curve runs the same seam layout.

Every node supports batched evaluation and *exact* one-sided partial
derivatives.  Left/right limits are propagated symbolically through the
combinators; on the piecewise nodes a branch-region classifier with
deterministic tie handling (coordinate tolerance 1e-12 in units of the box's
power-of-two scale, ties resolved towards the side being queried) picks the
adjacent open region, so a one-sided value is always the limit from that
side.  Left derivatives do not exist on the coordinate hyperplanes
``x_i = 0``; they are reported as NaN together with the ``defined_left``
mask of :class:`OneSidedGrad`, never as an exception.

Two cost functionals complete the module: :func:`cost`, the largest right
partial derivative at the origin, and :func:`cost_total`, the supremum of
the range (``None`` for unbounded expressions).

Values are immutable after construction and all operations are pure, so
expressions may be evaluated concurrently from many workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConstructionError, DomainError, ShapeError
from .surfaces import SHAPE_CONCAVE, SHAPE_CONVEX, Curve2D, TPoint, _box_scale

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

# Branch-boundary classification tolerance on coordinates; the piecewise
# nodes measure it in units of their box's power-of-two scale.
_TIE_TOL = 1e-12


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
    if not np.isfinite(batch).all():
        raise DomainError("point has non-finite coordinates")
    if (batch < 0.0).any():
        raise DomainError("point outside the non-negative orthant")
    return batch, scalar


def _on_or_above(v, w, s: int, tol: float, ties=None) -> np.ndarray:
    """Mask of ``v`` on or above ``w``, a tie (``|v - w| <= tol``) going up, or down when ``s < 0``.

    With ``ties``, a boolean row mask, the rows that tie are ORed into it.
    """
    if s < 0:
        return v > w + tol
    up = v >= w - tol
    if ties is not None:
        ties |= up & (v <= w + tol)
    return up


class _Points:
    """A batch of 2-D points and the curve there, each computed once, when first used.

    ``alpha`` and ``beta`` take the curve at the coordinates clamped into
    ``[0, a]`` and ``[0, b]``.  ``seam_alpha`` and ``seam_beta`` clamp at
    ``reach`` instead, which passes an intercept only where the seam lies
    within the tie tolerance of it: the seam layout compares its strips with
    the curve itself, and a strip reaches the tie tolerance past the seam.  So
    the unchecked evaluators never see an argument further out than that.
    """

    def __init__(self, curve: Curve2D, x, y, reach: tuple):
        self.curve, self.x, self.y, self.reach = curve, x, y, reach

    def take(self, rows) -> "_Points":
        return _Points(self.curve, self.x[rows], self.y[rows], self.reach)

    @cached_property
    def _x_in(self):
        return np.minimum(self.x, self.curve.a)

    @cached_property
    def alpha(self):
        return self.curve._alpha_in(self._x_in)

    @cached_property
    def beta(self):
        return self.curve._beta_in(np.minimum(self.y, self.curve.b))

    @cached_property
    def seam_alpha(self):
        end = self.reach[0]
        return self.alpha if end == self.curve.a else self.curve._alpha_in(np.minimum(self.x, end))

    @cached_property
    def seam_beta(self):
        end = self.reach[1]
        return self.beta if end == self.curve.b else self.curve._beta_in(np.minimum(self.y, end))

    @cached_property
    def alpha_prime(self):
        return self.curve.alpha_prime(self._x_in)

    @cached_property
    def beta_prime(self):
        return 1.0 / self.curve.alpha_prime(self.beta)


class _Layout(NamedTuple):
    """What a piecewise node derives from its curve: the seam, the range's supremum and the tie tolerance."""
    t_x: float      # seam point T; without T an endpoint, its axis coordinate -inf
    t_y: float
    sup: float      # supremum of the range, the plateau value
    tol: float      # tie tolerance on coordinates, _TIE_TOL times the box's scale


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


class ELExpr:
    """Base class of all expression nodes.  Instances are immutable."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def _values(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _partials(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(left, right)`` partials of the batch; one array may stand for both, and callers never write to them."""
        raise NotImplementedError

    def _sup(self) -> float:
        """Supremum of the range; ``inf`` when unbounded."""
        raise NotImplementedError


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
        # numpy computes a one-row product as a dot product, whose bits can
        # differ from the same row of a batch; two rows take the batch's path.
        if len(X) == 1:
            return (np.concatenate([X, X]) @ self._c)[:1]
        return X @ self._c

    def _partials(self, X):
        grad = np.tile(self._c, (X.shape[0], 1))
        return grad, grad

    def _sup(self):
        return math.inf


@dataclass(frozen=True)
class Sum(ELExpr):
    left: ELExpr
    right: ELExpr

    def __post_init__(self) -> None:
        if self.left.dim != self.right.dim:
            raise DomainError(f"Sum children disagree on dimension: {self.left.dim} vs {self.right.dim}")

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
        # off the evaluation path) both vanish.  The values are repeated to
        # the partials' shape: np.where over an (n, 1) mask broadcast to
        # (n, k) runs n inner loops of length k, several times slower.
        li, ri = self.inner._partials(X)
        v = np.repeat(self.inner._values(X), li.shape[1]).reshape(li.shape)
        atol = _TIE_TOL * max(1.0, abs(self.cap))
        return np.where(v > self.cap + atol, 0.0, li), np.where(v < self.cap - atol, ri, 0.0)

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


def _neg_alpha_prime(f, p):
    return -p.alpha_prime


def _neg_beta_prime(f, p):
    return -p.beta_prime


_X_PLUS_Y = (lambda f, p: p.x + p.y, 1.0, 1.0)


def _split(mask, on, below) -> list:
    """``(rows, piece)`` of the pieces on and off ``mask``, leaving out empty ones and the plateau (``None``)."""
    pieces = []
    for piece, m in ((on, mask), (below, ~mask)):
        if piece is not None:
            rows = m.nonzero()[0]
            if rows.size:
                pieces.append((rows, piece))
    return pieces


class _CurveConstruction(ELExpr):
    """Shared plumbing of the three piecewise two-dimensional nodes.

    A node checks its curve's shape and validity when built, then resolves
    ``_layout`` once: the seam, the supremum of the range and the tie
    tolerance.  A curve without a point of normal (1, 1) gets its seam at the
    endpoint ``_seam_at_b`` picks, whose normal is the nearer to (1, 1), and
    then runs the same layout as any other, every point being past the
    seam's coordinate on the axis.  It classifies points into pieces
    (``_regions``), each given by the formulas of its value and partials in
    ``_PIECES``; ``None`` stands for the plateau, with zero partials.

    A batch is split once per call into regions by the comparisons with the
    seam coordinates: past both (the plateau), the two strips, and the
    region below the seam.  A strip is compared with the curve on its own
    rows only, and its pieces' formulas reuse the curve values of that
    comparison.  The tie rule is the same for every side: within the tie
    tolerance of a boundary a point belongs to the region on the queried
    side of it.  A tie goes up unless the side steps down an axis, so values
    and both right partials share one split, and a left partial is split
    again only on the rows where some comparison tied.
    """

    curve: Curve2D

    _required_shape = ""
    # Pieces as (value, d/dx, d/dy): below the seam, then (on or above,
    # below the curve) on the strip x >= t_x and on the strip y >= t_y.  A
    # formula is a constant or a function ``(node, points)`` of the node and
    # a region's :class:`_Points`.
    _PIECES: tuple = ()

    def __post_init__(self) -> None:
        if self.curve.shape != self._required_shape:
            raise ShapeError(
                f"{type(self).__name__} requires a {self._required_shape} curve, got shape {self.curve.shape!r}"
            )
        report = self.curve.validate()
        if not report.valid:
            raise ConstructionError(f"curve failed validation: {'; '.join(report.violations)}")
        _ = self._layout  # resolve the seam eagerly

    @property
    def dim(self) -> int:
        return 2

    @cached_property
    def _layout(self) -> _Layout:
        # An endpoint seam's coordinate on the axis is -inf: no tie next to the
        # axis reaches the region beyond it, whose formulas need slope 1 there.
        box = self.curve.intercepts()
        t = seam = self.curve.t_point()
        if t is None and self._seam_at_b(*self.curve.slope_range()):
            t, seam = TPoint(0.0, box[1]), TPoint(-math.inf, box[1])
        elif t is None:
            t, seam = TPoint(box[0], 0.0), TPoint(box[0], -math.inf)
        return _Layout(seam.t_x, seam.t_y, self._seam_plateau(t), _TIE_TOL * _box_scale(box))

    def _seam_at_b(self, s_lo: float, s_hi: float) -> bool:
        """Endpoint seam of a curve whose slopes ``-alpha'`` lie in ``[s_lo, s_hi]``, all on one side of 1: (0, b) if True, else (a, 0)."""
        raise NotImplementedError

    @cached_property
    def _reach(self) -> tuple:
        """Clamp ends of :class:`_Points`' seam curve: the seam plus the tie tolerance, where that passes the intercept."""
        a, b = self.curve.intercepts()
        lay = self._layout
        return max(a, lay.t_x + lay.tol), max(b, lay.t_y + lay.tol)

    def _points(self, x, y) -> _Points:
        return _Points(self.curve, x, y, self._reach)

    def _seam_plateau(self, t: TPoint) -> float:
        return t.t_x + t.t_y

    def _sup(self) -> float:
        return self._layout.sup

    def _strip_test(self, p: _Points, x_strip: bool, sx: int, sy: int, ties):
        """Mask of the points on or above the curve, read on the strip x >= t_x or y >= t_y."""
        if x_strip:
            return _on_or_above(p.x, p.seam_beta, sx or sy, self._layout.tol, ties)
        return _on_or_above(p.y, p.seam_alpha, sx or sy, self._layout.tol, ties)

    def _regions(self, p: _Points, sx: int, sy: int, ties=None) -> list:
        """``(rows, points, pieces)`` of each region of the batch, ties resolved towards the side ``(sx, sy)``.

        ``rows`` are the region's rows of the batch; ``pieces`` lists ``(rows,
        piece)`` with the rows of the region that a piece of ``_PIECES``
        covers (a slice for all of them).  The plateau is left out: its rows
        keep ``_eval``'s default.  With ``ties``, the rows where some
        comparison tied are ORed into it.
        """
        lay = self._layout
        inner, x_pieces, y_pieces = self._PIECES
        past_x = _on_or_above(p.x, lay.t_x, sx, lay.tol, ties)
        past_y = _on_or_above(p.y, lay.t_y, sy, lay.tol, ties)
        regions = []
        for mask, x_strip, pieces in ((past_x & ~past_y, True, x_pieces), (past_y & ~past_x, False, y_pieces)):
            rows = mask.nonzero()[0]
            if rows.size:
                q = p.take(rows)
                tied = None if ties is None else np.zeros(rows.size, dtype=bool)
                regions.append((rows, q, _split(self._strip_test(q, x_strip, sx, sy, tied), *pieces)))
                if ties is not None:
                    ties[rows] |= tied
        rows = (~(past_x | past_y)).nonzero()[0]
        if rows.size:
            regions.append((rows, p.take(rows), [(slice(None), inner)]))
        return regions

    def _eval(self, column: int, regions, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with column 0 (value), 1 (d/dx) or 2 (d/dy) of the pieces of the ``regions``."""
        out.fill(self._layout.sup if column == 0 else 0.0)
        for rows, q, pieces in regions:
            for at, piece in pieces:
                formula = piece[column]
                out[rows[at]] = formula(self, q)[at] if callable(formula) else formula
        return out

    def _values(self, X):
        return self._eval(0, self._regions(self._points(X[:, 0], X[:, 1]), 0, 0), np.empty(len(X)))

    def _partials(self, X):
        p = self._points(X[:, 0], X[:, 1])
        ties = np.zeros(len(X), dtype=bool)
        regions = self._regions(p, 0, 0, ties)
        left = right = np.empty(X.shape)
        self._eval(1, regions, right[:, 0])
        self._eval(2, regions, right[:, 1])
        at = ties.nonzero()[0]
        if at.size:
            q = p.take(at)
            left = right.copy()
            left[at, 0] = self._eval(1, self._regions(q, -1, 0), np.empty(at.size))
            left[at, 1] = self._eval(2, self._regions(q, 0, -1), np.empty(at.size))
        return left, right


@dataclass(frozen=True)
class ConvexPlateau(_CurveConstruction):
    """Flat-plateau function for a strictly convex curve.

    With a seam point ``T = (t_x, t_y)`` (curve normal (1, 1)) the function
    equals the constant ``C = (a - t_x) + (b - t_y)`` everywhere on and above
    the curve, ``C + x - beta(y)`` on the strip ``x >= t_x`` below it,
    ``C + y - alpha(x)`` on the strip ``y >= t_y`` below it, and
    ``(a - alpha(x)) + (b - beta(y))`` where both coordinates are below the
    seam.  Without a seam point the seam is an endpoint, and one strip is
    left:

    * every slope ``-alpha' <= 1``: ``T = (0, b)`` and ``f = a + min(x - beta(y), 0)``,
    * otherwise ``T = (a, 0)`` and ``f = b + min(y - alpha(x), 0)``.
    """

    curve: Curve2D

    _required_shape = SHAPE_CONVEX
    _PIECES = (
        (lambda f, p: (f.curve.a - p.seam_alpha) + (f.curve.b - p.seam_beta), _neg_alpha_prime, _neg_beta_prime),
        (None, (lambda f, p: f._layout.sup + p.x - p.beta, 1.0, _neg_beta_prime)),
        (None, (lambda f, p: f._layout.sup + p.y - p.alpha, _neg_alpha_prime, 1.0)),
    )

    def _seam_at_b(self, s_lo, s_hi):
        return s_hi <= 1.0

    def _seam_plateau(self, t: TPoint) -> float:
        return (self.curve.a - t.t_x) + (self.curve.b - t.t_y)


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
    _PIECES = (
        _X_PLUS_Y,
        (None, (lambda f, p: f._layout.sup + p.y - p.alpha, _neg_alpha_prime, 1.0)),
        (None, (lambda f, p: f._layout.sup + p.x - p.beta, 1.0, _neg_beta_prime)),
    )

    def _seam_at_b(self, s_lo, s_hi):
        raise ConstructionError("ConvexDiag needs both diagonal branches: the curve has no point with normal (1, 1)")

    def _strip_test(self, p, x_strip, sx, sy, ties):
        """Mask of the points on or above the curve clamped into its range.

        The strip x >= t_x splits where ``y`` crosses ``alpha(min(x, a))``,
        the strip y >= t_y where ``x`` crosses ``beta(min(y, b))``.  Past the
        intercept the clamped curve is the axis, constant in the other
        coordinate, so a tie there takes only the side queried along the
        compared axis.
        """
        if x_strip:
            u, v, end, level, su, sv = p.y, p.x, self.curve.a, p.alpha, sy, sx
        else:
            u, v, end, level, su, sv = p.x, p.y, self.curve.b, p.beta, sx, sy
        tol = self._layout.tol
        past = _on_or_above(v, end, sv, tol, ties)
        on_axis = _on_or_above(u, 0.0, su, tol, ties)
        on_curve = _on_or_above(u, level, su or sv, tol, ties)
        return (past & on_axis) | (~past & on_curve)


@dataclass(frozen=True)
class ConcaveStep(_CurveConstruction):
    """Capped-sum function for a strictly concave curve.

    With a seam point: ``f = x + y`` below the curve, ``y + beta(y)`` on the
    strip ``x >= t_x`` above the curve, ``x + alpha(x)`` on the strip
    ``y >= t_y`` above it, and the constant ``t_x + t_y`` beyond both seam
    coordinates (the cap region is not flat along the curve, only past the
    seam).  Without a seam point the seam is an endpoint, and one strip is
    left:

    * every slope ``-alpha' >= 1``: ``T = (0, b)`` and ``f = min(y + min(x, beta(y)), b)``,
    * otherwise ``T = (a, 0)`` and ``f = min(x + min(y, alpha(x)), a)``.

    Along the strip ``y + beta(y)`` rises to ``b`` (resp. ``x + alpha(x)`` to
    ``a``), so each is the sum continued linearly past the intercept and
    truncated there, which keeps it entropy-like and bounds it.
    """

    curve: Curve2D

    _required_shape = SHAPE_CONCAVE
    _PIECES = (
        _X_PLUS_Y,
        ((lambda f, p: p.y + p.beta, 0.0, lambda f, p: 1.0 + p.beta_prime), _X_PLUS_Y),
        ((lambda f, p: p.x + p.alpha, lambda f, p: 1.0 + p.alpha_prime, 0.0), _X_PLUS_Y),
    )

    def _seam_at_b(self, s_lo, s_hi):
        return s_lo >= 1.0


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


def cost_total(expr: ELExpr) -> Optional[float]:
    """Supremum of the range (total-size cost); ``None`` for unbounded expressions."""
    s = expr._sup()
    return float(s) if math.isfinite(s) else None
