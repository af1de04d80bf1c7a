"""Sampling-based verification and cost bounds.

``check_el`` verifies the defining properties of entropy-like functions on a
box by deterministic seeded sampling and reports, per property, the worst
violation and a witness.  ``check_feasible`` samples inner surface points and
reports the smallest derivative jump ``left - right`` across the surface
(feasibility needs jump >= 1 in every coordinate).  ``normal_ratio_bound``
computes the universal lower bound on the cost of any feasible function,

    sup over surface points of  normal_j(x) / normal_i(x),

taken over the closure of the surface (normals extend continuously to the
endpoints, and the built-in curve families have monotone slope, so the
supremum sits at an endpoint).  ``gap_report`` brackets the unknown optimal
cost between that bound, the grid-LP relaxation of :mod:`elopt.lp_oracle`,
and the cost of the matching construction.

Sampling is split into independent substreams derived from the master seed
(one per property), so reports are bit-reproducible and the checks could be
fanned out across workers without changing the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .constructions import construct
from .errors import DomainError, UnboundedRangeError
from .exprs import ELExpr, cost_total, eval_at, one_sided_partials
from .surfaces import Curve2D, Hyperplane, Surface

__all__ = [
    "PropertyCheck",
    "ELReport",
    "FeasibilityReport",
    "RatioBound",
    "BoundReport",
    "check_el",
    "check_feasible",
    "normal_ratio_bound",
    "gap_report",
    "DEFAULT_PAIR_SAMPLES",
    "DEFAULT_SURFACE_SAMPLES",
]

DEFAULT_PAIR_SAMPLES = 10_000
DEFAULT_SURFACE_SAMPLES = 1_000

# Exact derivative rules make violations sharp; tolerances only absorb float
# rounding.  Function-value properties: absolute.  Derivative comparisons:
# absolute on exact rules, relative (floored at magnitude 1) against finite
# differences.
VALUE_TOL = 1e-7
DERIV_TOL = 1e-9
FD_REL_TOL = 1e-6
JUMP_TOL = 1e-6
FEASIBLE_MARGIN_FRAC = 1e-4
LIMIT_EPS = tuple(10.0 ** -k for k in range(2, 9))  # 1e-2 ... 1e-8, geometric
# The last two rungs (1e-7, 1e-8) are extrapolated linearly to eps = 0, which
# cancels the first-order curvature residual |f''| * eps of the final rung;
# what remains is rounding and |f'''| * 1e-15, far below 1e-6, while a
# misclassified one-sided value is off by O(1).
LIMIT_TOL = 1e-6

_FD_POINTS = 256
_LIMIT_POINTS = 32


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    worst_violation: float
    tolerance: float
    witness: Optional[tuple]
    checked: int


@dataclass(frozen=True)
class ELReport:
    passed: bool
    properties: tuple[PropertyCheck, ...]
    samples: int
    seed: int
    box: tuple[float, ...]
    includes_derivative_checks: bool

    def property(self, name: str) -> PropertyCheck:
        for check in self.properties:
            if check.name == name:
                return check
        raise KeyError(name)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    min_jump: float
    witness_point: tuple[float, ...]
    witness_coord: int
    samples: int
    seed: int
    margin: float
    tolerance: float


@dataclass(frozen=True)
class RatioBound:
    """Lower bound ``normal_j / normal_i`` with its witness surface point.

    The value is the supremum over the closure of the surface; the witness
    may therefore be a boundary point (where the bound holds as a limit).
    """

    value: float
    point: tuple[float, ...]
    j: int
    i: int


@dataclass(frozen=True)
class BoundReport:
    surface: str
    ratio_bound: float
    ratio_witness: RatioBound
    construction_kind: str
    construction_cost: float
    construction_scale: float
    construction_total: Optional[float]
    lp_values: Optional[tuple[tuple[int, float], ...]]
    lp_bound: Optional[float]
    gap_cost_minus_bound: float
    gap_bound_minus_lp: Optional[float]


def _value_batch(fn: Union[ELExpr, Callable]) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(fn, ELExpr):
        return lambda X: np.asarray(eval_at(fn, X), dtype=float)
    return lambda X: np.array([float(fn(row)) for row in X], dtype=float)


def _worst(name, viol, tol, witness_of, checked=None) -> PropertyCheck:
    viol = np.asarray(viol, dtype=float)
    if viol.size == 0:
        return PropertyCheck(name, True, 0.0, tol, None, 0)
    idx = int(np.argmax(viol))
    worst = float(viol[idx])
    return PropertyCheck(
        name=name,
        passed=worst <= tol,
        worst_violation=worst,
        tolerance=tol,
        witness=witness_of(idx),
        checked=int(viol.size) if checked is None else checked,
    )


def _pt(row) -> tuple[float, ...]:
    return tuple(float(v) for v in np.atleast_1d(row))


def check_el(
    fn: Union[ELExpr, Callable],
    box,
    samples: int = DEFAULT_PAIR_SAMPLES,
    seed: int = 0,
) -> ELReport:
    """Verify the entropy-like properties of ``fn`` on ``[0, box]`` by seeded sampling.

    ``fn`` may be an expression node or a plain callable taking one point;
    the derivative-based checks (left >= right, derivative monotonicity,
    finite-difference agreement, one-sided derivative limits) run only for
    expression nodes.  Identical seeds give bit-identical reports.
    """
    box_arr = np.asarray(box, dtype=float)
    if box_arr.ndim != 1 or box_arr.size == 0 or not np.all(box_arr > 0.0):
        raise DomainError("box must be a strictly positive vector")
    n = box_arr.size
    is_expr = isinstance(fn, ELExpr)
    if is_expr and fn.dim != n:
        raise DomainError(f"box has dim {n}, expression has dim {fn.dim}")
    value = _value_batch(fn)

    names = [
        "pointed",
        "monotone",
        "submodular",
        "dr_coordinate",
        "dr_general",
        "directional_concavity",
        "left_at_least_right",
        "derivative_monotone",
        "fd_agreement",
        "derivative_limits",
    ]
    seeds = dict(zip(names, np.random.SeedSequence(seed).spawn(len(names))))
    rng = {name: np.random.Generator(np.random.PCG64(s)) for name, s in seeds.items()}
    checks: list[PropertyCheck] = []

    # pointed: f(0) = 0, exactly (the combinators preserve exact zero).
    v0 = float(value(np.zeros((1, n)))[0])
    checks.append(PropertyCheck("pointed", v0 == 0.0, abs(v0), 0.0, _pt(np.zeros(n)), 1))

    def ordered_pair(gen):
        X = gen.uniform(0.0, box_arr, (samples, n))
        Y = X + (box_arr - X) * gen.uniform(size=(samples, n))
        return X, Y

    # monotone: x <= y implies f(x) <= f(y)
    g = rng["monotone"]
    X, Y = ordered_pair(g)
    viol = value(X) - value(Y)
    checks.append(_worst("monotone", viol, VALUE_TOL, lambda i: (_pt(X[i]), _pt(Y[i]))))

    # submodular: f(x) + f(y) >= f(min) + f(max)
    g = rng["submodular"]
    X = g.uniform(0.0, box_arr, (samples, n))
    Y = g.uniform(0.0, box_arr, (samples, n))
    lo = np.minimum(X, Y)
    hi = np.maximum(X, Y)
    viol = value(lo) + value(hi) - value(X) - value(Y)
    checks.append(_worst("submodular", viol, VALUE_TOL, lambda i: (_pt(X[i]), _pt(Y[i]))))

    def dr_violation(gen, single_coordinate: bool):
        X = gen.uniform(0.0, box_arr, (samples, n))
        coord = gen.integers(0, n, size=samples)
        rows = np.arange(samples)
        if single_coordinate:
            Y = X.copy()
            Y[rows, coord] += (box_arr[coord] - X[rows, coord]) * gen.uniform(size=samples)
        else:
            Y = X + (box_arr - X) * gen.uniform(size=(samples, n))
        eps = box_arr[coord] * (1e-4 + 0.5 * gen.uniform(size=samples))
        Xp = X.copy()
        Xp[rows, coord] += eps
        Yp = Y.copy()
        Yp[rows, coord] += eps
        viol = (value(Yp) - value(Y)) - (value(Xp) - value(X))
        return viol, X, Y, coord, eps

    # diminishing returns along one coordinate, then for arbitrary ordered pairs
    viol, X, Y, coord, eps = dr_violation(rng["dr_coordinate"], True)
    checks.append(
        _worst(
            "dr_coordinate",
            viol,
            VALUE_TOL,
            lambda i: (_pt(X[i]), _pt(Y[i]), int(coord[i]), float(eps[i])),
        )
    )
    viol, X, Y, coord, eps = dr_violation(rng["dr_general"], False)
    checks.append(
        _worst(
            "dr_general",
            viol,
            VALUE_TOL,
            lambda i: (_pt(X[i]), _pt(Y[i]), int(coord[i]), float(eps[i])),
        )
    )

    # concavity along positive directions
    g = rng["directional_concavity"]
    X, Y = ordered_pair(g)
    lam = g.uniform(size=samples)
    mid = lam[:, None] * X + (1.0 - lam[:, None]) * Y
    viol = lam * value(X) + (1.0 - lam) * value(Y) - value(mid)
    checks.append(
        _worst(
            "directional_concavity",
            viol,
            VALUE_TOL,
            lambda i: (_pt(X[i]), _pt(Y[i]), float(lam[i])),
        )
    )

    if is_expr:
        checks.extend(_derivative_checks(fn, box_arr, samples, rng))

    return ELReport(
        passed=all(c.passed for c in checks),
        properties=tuple(checks),
        samples=samples,
        seed=seed,
        box=tuple(float(v) for v in box_arr),
        includes_derivative_checks=is_expr,
    )


def _derivative_checks(expr: ELExpr, box_arr, samples, rng) -> list[PropertyCheck]:
    n = box_arr.size
    checks = []

    # left >= right wherever the left derivative exists
    g = rng["left_at_least_right"]
    P = g.uniform(0.0, box_arr, (samples, n))
    grad = one_sided_partials(expr, P)
    gap = np.where(grad.defined_left, grad.right - grad.left, -np.inf)
    viol = gap.max(axis=1)
    checks.append(
        _worst(
            "left_at_least_right",
            viol,
            DERIV_TOL,
            lambda i: (_pt(P[i]), int(np.argmax(gap[i]))),
        )
    )

    # right derivatives do not increase along positive directions
    g = rng["derivative_monotone"]
    X = g.uniform(0.0, box_arr, (samples, n))
    Y = X + (box_arr - X) * g.uniform(size=(samples, n))
    diff = one_sided_partials(expr, Y).right - one_sided_partials(expr, X).right
    viol = diff.max(axis=1)
    checks.append(
        _worst(
            "derivative_monotone",
            viol,
            DERIV_TOL,
            lambda i: (_pt(X[i]), _pt(Y[i]), int(np.argmax(diff[i]))),
        )
    )

    checks.append(_fd_check(expr, box_arr, rng["fd_agreement"]))
    checks.append(_limit_check(expr, box_arr, rng["derivative_limits"]))
    return checks


def _fd_check(expr: ELExpr, box_arr, gen) -> PropertyCheck:
    """One-sided difference quotients against the exact rules.

    Quotients are only meaningful when the step does not straddle a branch
    boundary; a segment is accepted as smooth when the exact one-sided
    derivatives at its two ends agree to 1e-4 (curvature over a 1e-7 step is
    orders of magnitude below that, kinks of the built-in nodes are orders
    of magnitude above).  On a smooth step the quotient is compared with the
    mean of those two end derivatives (the trapezoid rule): its error is of
    order h**2 |f'''|, where either end alone leaves h |f''| / 2, so strong
    curvature is not mistaken for a wrong derivative rule.
    """
    n = box_arr.size
    P = gen.uniform(0.0, box_arr, (_FD_POINTS, n))
    h = 1e-7 * np.maximum(1.0, np.max(np.abs(P), axis=1))
    base = eval_at(expr, P)
    grad = one_sided_partials(expr, P)
    viols = []
    witnesses = []
    for i in range(n):
        step = np.zeros((len(P), n))
        step[:, i] = h
        plus = P + step
        q_right = (eval_at(expr, plus) - base) / h
        d_right = grad.right[:, i]
        d_end = one_sided_partials(expr, plus).left[:, i]
        scale = np.maximum(1.0, np.abs(d_right))
        smooth = np.abs(d_end - d_right) <= 1e-4 * scale
        rel = np.abs(q_right - 0.5 * (d_right + d_end)) / scale
        for row in np.nonzero(smooth)[0]:
            viols.append(rel[row])
            witnesses.append((_pt(P[row]), i, "right"))

        can_left = P[:, i] >= h
        minus = P - step
        minus[~can_left] = P[~can_left]
        q_left = (base - eval_at(expr, minus)) / h
        d_left = grad.left[:, i]
        back = one_sided_partials(expr, np.maximum(minus, 0.0)).right[:, i]
        scale = np.maximum(1.0, np.abs(d_left))
        smooth = can_left & (np.abs(back - d_left) <= 1e-4 * scale)
        rel = np.abs(q_left - 0.5 * (d_left + back)) / scale
        for row in np.nonzero(smooth)[0]:
            viols.append(rel[row])
            witnesses.append((_pt(P[row]), i, "left"))
    return _worst("fd_agreement", viols, FD_REL_TOL, lambda i: witnesses[i])


def _ladder_limit(seq: np.ndarray) -> np.ndarray:
    # Linear extrapolation to eps = 0 from the last two rungs, eps and 10 eps.
    return seq[-1] + (seq[-1] - seq[-2]) / 9.0


def _limit_check(expr: ELExpr, box_arr, gen) -> PropertyCheck:
    """One-sided derivatives are limits of nearby right derivatives.

    Walking in from the right, ``f_i^+(x + eps e_i)`` increases monotonically
    to ``f_i^+(x)`` as ``eps`` shrinks; walking in from the left,
    ``f_i^+(x - eps e_i)`` decreases monotonically to ``f_i^-(x)``.  Both are
    checked over a geometric ``eps`` ladder: monotonicity rung by rung, and
    the limit against the ladder extrapolated to ``eps = 0``.
    """
    n = box_arr.size
    P = gen.uniform(0.0, box_arr, (_LIMIT_POINTS, n))
    grad = one_sided_partials(expr, P)
    eps_ladder = np.asarray(LIMIT_EPS)
    viols = []
    witnesses = []
    for i in range(n):
        seq_plus = []
        for eps in eps_ladder:
            Q = P.copy()
            Q[:, i] += eps
            seq_plus.append(one_sided_partials(expr, Q).right[:, i])
        seq_plus = np.stack(seq_plus)  # ladder index grows as eps shrinks
        mono = np.max(seq_plus[:-1] - seq_plus[1:], axis=0)
        conv = np.abs(_ladder_limit(seq_plus) - grad.right[:, i])
        for row in range(len(P)):
            viols.append(max(float(mono[row]), float(conv[row])))
            witnesses.append((_pt(P[row]), i, "right"))

        usable = P[:, i] > float(eps_ladder[0])
        if np.any(usable):
            R = P[usable]
            seq_minus = []
            for eps in eps_ladder:
                Q = R.copy()
                Q[:, i] -= eps
                seq_minus.append(one_sided_partials(expr, Q).right[:, i])
            seq_minus = np.stack(seq_minus)
            mono = np.max(seq_minus[1:] - seq_minus[:-1], axis=0)
            conv = np.abs(_ladder_limit(seq_minus) - grad.left[usable, i])
            for k, row in enumerate(np.nonzero(usable)[0]):
                viols.append(max(float(mono[k]), float(conv[k])))
                witnesses.append((_pt(P[row]), i, "left"))
    return _worst("derivative_limits", viols, LIMIT_TOL, lambda i: witnesses[i])


def _sample_curve_inner(curve: Curve2D, samples: int, gen, margin: float) -> np.ndarray:
    xs = gen.uniform(margin, curve.a - margin, samples)
    return np.column_stack([xs, np.asarray(curve.alpha(xs))])


def _sample_hyperplane_inner(surface: Hyperplane, samples: int, gen, frac: float) -> np.ndarray:
    n = surface.dim
    raw = gen.standard_exponential((samples, n))
    weights = raw / raw.sum(axis=1, keepdims=True)
    weights = frac + (1.0 - n * frac) * weights
    return surface.M * weights / np.asarray(surface.c)


def check_feasible(
    expr: ELExpr,
    surface: Surface,
    samples: int = DEFAULT_SURFACE_SAMPLES,
    seed: int = 0,
    margin_frac: float = FEASIBLE_MARGIN_FRAC,
) -> FeasibilityReport:
    """Smallest sampled derivative jump across the surface.

    Surface points are sampled strictly inside the surface with a relative
    margin from its boundary (the jump requirement applies to points with
    all coordinates positive).  Feasible means every jump >= 1 - 1e-6.
    """
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if isinstance(surface, Hyperplane):
        if expr.dim != surface.dim:
            raise DomainError("expression and surface dimensions differ")
        margin = margin_frac
        points = _sample_hyperplane_inner(surface, samples, gen, margin_frac)
    else:
        if expr.dim != 2:
            raise DomainError("curve surfaces are two-dimensional")
        margin = margin_frac * surface.a
        points = _sample_curve_inner(surface, samples, gen, margin)
    grad = one_sided_partials(expr, points)
    jumps = grad.left - grad.right
    flat = int(np.argmin(jumps))
    row, col = divmod(flat, jumps.shape[1])
    min_jump = float(jumps[row, col])
    return FeasibilityReport(
        feasible=min_jump >= 1.0 - JUMP_TOL,
        min_jump=min_jump,
        witness_point=_pt(points[row]),
        witness_coord=int(col),
        samples=samples,
        seed=seed,
        margin=float(margin),
        tolerance=JUMP_TOL,
    )


def normal_ratio_bound(surface: Surface) -> RatioBound:
    """Largest ratio of outward-normal coordinates over the surface closure.

    Every feasible entropy-like function costs at least this much: walking
    from a surface point x a step w inward along coordinate i and back onto
    the surface along coordinate j multiplies the mandatory unit derivative
    jump by the normal ratio in the limit w -> 0.
    """
    if isinstance(surface, Hyperplane):
        c = np.asarray(surface.c)
        i = int(np.argmin(c))
        j = int(np.argmax(c))
        n = surface.dim
        center = tuple(surface.M / (n * ck) for ck in surface.c)
        return RatioBound(value=float(c[j] / c[i]), point=center, j=j, i=i)
    s0 = -float(surface.alpha_prime(0.0))
    sa = -float(surface.alpha_prime(surface.a))
    s_lo, s_hi = min(s0, sa), max(s0, sa)
    # Slope is monotone along every built-in family, so both extremes sit at
    # the endpoints of the curve.
    if s_hi >= 1.0 / s_lo:
        x_star = 0.0 if s0 >= sa else surface.a
        value, j, i = s_hi, 0, 1
    else:
        x_star = 0.0 if s0 <= sa else surface.a
        value, j, i = 1.0 / s_lo, 1, 0
    point = (float(x_star), float(surface.alpha(x_star)))
    return RatioBound(value=float(value), point=point, j=j, i=i)


def gap_report(
    surface: Surface,
    grid_m: Union[int, Sequence[int], None] = None,
) -> BoundReport:
    """Bracket the optimal feasible cost for ``surface``.

    Assembles the normal-ratio lower bound, the matching construction's cost
    (an upper bound on the optimum), and optionally the grid-LP lower bound
    for each requested grid size (two-dimensional surfaces only).
    """
    result = construct(surface)
    bound = normal_ratio_bound(surface)
    try:
        total = cost_total(result.expr)
    except UnboundedRangeError:
        total = None

    lp_values = None
    lp_bound = None
    if grid_m is not None:
        ms = [int(grid_m)] if isinstance(grid_m, (int, np.integer)) else [int(m) for m in grid_m]
        if ms:
            if isinstance(surface, Hyperplane) and surface.dim != 2:
                raise DomainError("the grid LP supports two-dimensional surfaces only")
            from .lp_oracle import build_lp, solve_lp

            lp_values = tuple((m, float(solve_lp(build_lp(surface, m)).value)) for m in ms)
            lp_bound = max(v for _, v in lp_values)

    return BoundReport(
        surface=repr(surface),
        ratio_bound=bound.value,
        ratio_witness=bound,
        construction_kind=result.kind,
        construction_cost=result.claimed_cost,
        construction_scale=result.scale_k,
        construction_total=total,
        lp_values=lp_values,
        lp_bound=lp_bound,
        gap_cost_minus_bound=result.claimed_cost - bound.value,
        gap_bound_minus_lp=None if lp_bound is None else bound.value - lp_bound,
    )
