"""Builders for the cost-optimal feasible functions of each surface family.

Each builder returns a :class:`ConstructionResult` whose ``claimed_cost`` is
computed from the surface's closed-form slopes and then cross-checked against
``cost(expr)`` from the derivative machinery; a mismatch beyond 1e-9, relative
for claims above 1, is a build-time error, so the two independent paths guard
each other.  A curve of the wrong shape raises ``ShapeError``: the piecewise
node a builder makes checks the curve's shape and validity, and
:func:`linear_opt_curve`, which makes none, checks the shape itself.

The optimum need not be unique: a convex curve with a point of normal (1, 1)
has two, :func:`convex_plateau` and :func:`convex_diag`.  :func:`construct`
returns a surface's default optimum; the CLI's ``construct`` writes every one.

For curves without a point of normal (1, 1) the plateau and capped-sum
nodes fall back to a seam at an endpoint of the curve.  Those functions get
one sentence of justification in the literature at best, so they are never
trusted: the builder runs the property suite and the feasibility check on
the fallback and hard-fails if either does not pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstructionError, ShapeError
from .exprs import (
    ConcaveStep,
    ConvexDiag,
    ConvexPlateau,
    ELExpr,
    Linear,
    Scale,
    TruncateMin,
    cost,
)
from .surfaces import SHAPE_CONCAVE, SHAPE_CONVEX, SHAPE_LINEAR, Curve2D, Hyperplane, Surface

__all__ = [
    "ConstructionResult",
    "construct",
    "linear_opt",
    "linear_opt_curve",
    "convex_plateau",
    "convex_diag",
    "concave_construct",
]

_COST_MATCH_TOL = 1e-9

# Fixed seed and sample counts for the build-time verification of fallback
# constructions; deterministic so identical inputs always build identically.
_FALLBACK_SEED = 74125
_FALLBACK_EL_SAMPLES = 4000
_FALLBACK_SURFACE_SAMPLES = 500


@dataclass(frozen=True)
class ConstructionResult:
    """A built feasible function together with its certified cost.

    ``scale_k`` is the multiplier actually applied to the raw piecewise
    function (1.0 when the raw function is already feasible).
    """

    expr: ELExpr
    claimed_cost: float
    scale_k: float
    kind: str


def _finish(expr: ELExpr, claimed: float, scale_k: float, kind: str) -> ConstructionResult:
    got = cost(expr)
    if abs(got - claimed) > _COST_MATCH_TOL * max(1.0, abs(claimed)):
        raise ConstructionError(
            f"{kind}: cost from derivative rules ({got!r}) disagrees with the "
            f"closed-form claim ({claimed!r})"
        )
    return ConstructionResult(expr=expr, claimed_cost=claimed, scale_k=scale_k, kind=kind)


def _verify_fallback(expr: ELExpr, curve: Curve2D, kind: str) -> None:
    # Imported here to avoid a module cycle: analysis consumes constructions.
    from .analysis import _check_box, check_el, check_feasible

    el = check_el(expr, _check_box(curve), samples=_FALLBACK_EL_SAMPLES, seed=_FALLBACK_SEED)
    if not el.passed:
        failed = ", ".join(p.name for p in el.properties if not p.passed)
        raise ConstructionError(f"{kind}: endpoint-seam fallback fails the property suite ({failed})")
    feas = check_feasible(expr, curve, samples=_FALLBACK_SURFACE_SAMPLES, seed=_FALLBACK_SEED)
    if not feas.feasible:
        raise ConstructionError(
            f"{kind}: endpoint-seam fallback is infeasible (min jump {feas.min_jump!r})"
        )


def linear_opt(surface: Hyperplane) -> ConstructionResult:
    """Optimal function for a hyperplane: ``k * min(sum(c_i x_i), M)`` with ``k = 1/min(c)``.

    The derivative jump across the surface is ``k * c_i`` per coordinate, so
    this choice of ``k`` is the smallest feasible one; the cost is
    ``max(c) / min(c)``, matching the normal-ratio lower bound.
    """
    c_min = min(surface.c)
    c_max = max(surface.c)
    k = 1.0 / c_min
    expr = Scale(k, TruncateMin(surface.M, Linear(surface.c)))
    return _finish(expr, c_max / c_min, k, "linear_opt")


def linear_opt_curve(curve: Curve2D) -> ConstructionResult:
    """Optimal function for a linear curve, via its own normal: the hyperplane ``(b/a) x + y = b``."""
    if curve.shape != SHAPE_LINEAR:
        raise ShapeError(f"expected a {SHAPE_LINEAR} curve, got shape {curve.shape!r}")
    return linear_opt(Hyperplane(c=(curve.b / curve.a, 1.0), M=curve.b))


def convex_plateau(curve: Curve2D) -> ConstructionResult:
    """Flat-plateau optimum for a strictly convex curve; cost ``max(-alpha'(0), -beta'(0))``.

    The raw function is already feasible, so no scaling is applied.  When the
    curve has no point with normal (1, 1) the node's seam sits at an endpoint,
    and the build is suite-verified.
    """
    expr = ConvexPlateau(curve)
    # Without a seam point the slopes lie on one side of 1, and -beta'(0) is
    # 1/(-alpha'(a)), so this max is also the cost of either fallback.
    claimed = max(-curve.alpha_prime(0.0), -curve.beta_prime(0.0))
    if curve.t_point() is None:
        _verify_fallback(expr, curve, "convex_plateau")
    return _finish(expr, float(claimed), 1.0, "convex_plateau")


def convex_diag(curve: Curve2D) -> ConstructionResult:
    """Diagonal optimum for a strictly convex curve with a (1, 1)-normal point.

    The raw function has cost 1 and its derivative jump across the curve is
    at least ``k = min(-alpha'(a), -beta'(b))``, so ``1/k`` times the raw
    function is the optimal feasible scaling with cost ``1/k``.
    """
    inner = ConvexDiag(curve)
    k = min(-curve.alpha_prime(curve.a), -curve.beta_prime(curve.b))
    scale = 1.0 / float(k)
    return _finish(Scale(scale, inner), scale, scale, "convex_diag")


def concave_construct(curve: Curve2D) -> ConstructionResult:
    """Capped-sum optimum for a strictly concave curve.

    The raw function has cost 1; its smallest derivative jump across the
    curve is ``min(-alpha'(0), -beta'(0))`` (attained in the limit towards
    the intercepts), so the optimal feasible multiple is
    ``k = 1 / min(-alpha'(0), -beta'(0))``, of cost ``k``.  A curve without a
    (1, 1)-normal point gets its seam at an endpoint, and the build is
    suite-verified.
    """
    node = ConcaveStep(curve)
    # As in convex_plateau, the min also picks the fallbacks' smallest jump.
    k = 1.0 / float(min(-curve.alpha_prime(0.0), -curve.beta_prime(0.0)))
    expr = Scale(k, node)
    if curve.t_point() is None:
        _verify_fallback(expr, curve, "concave_construct")
    return _finish(expr, k, k, "concave_construct")


def construct(surface: Surface) -> ConstructionResult:
    """The default optimum for ``surface``.

    ``linear_opt`` for hyperplanes and linear curves, ``convex_plateau`` for
    convex curves and ``concave_construct`` for concave ones.  A convex curve
    with a point of normal (1, 1) has a second optimum, :func:`convex_diag`.
    """
    if isinstance(surface, Hyperplane):
        return linear_opt(surface)
    # Looked up per call, not kept in a module-level dict, so that a builder
    # rebound on this module (the benchmark's tracer does so) is the one run.
    builders = {
        SHAPE_LINEAR: linear_opt_curve,
        SHAPE_CONVEX: convex_plateau,
        SHAPE_CONCAVE: concave_construct,
    }
    return builders[surface.shape](surface)
