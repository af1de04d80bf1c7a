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
(one per property), so reports are bit-reproducible.  ``check_el`` fans the
properties out over up to one thread per available CPU (numpy releases the
interpreter lock inside its array loops) and collects them in a fixed
order, so the report depends on neither the worker count nor the start
order.  Each property is one block function: it draws its random arrays
for a block of rows from a generator and returns their row-wise violations
and a witness for any row.  ``_fold`` runs it on ``_BLOCK`` (16,384) rows
at a time and keeps the worst row by ``np.argmax``'s rules, so memory stays
one block long whatever the sample count.  Block 0 draws from the
property's own generator, so a report of at most ``_BLOCK`` samples is the
one full-length draws give; block k >= 1 draws from a generator seeded by
child k of the property's ``SeedSequence``.  So ``_BLOCK`` is part of what
a report of more samples means.  Blocks can be this small because an
expression call costs only some tens of microseconds beyond its rows.
``lp_sweep`` builds the grid LPs of an ``m`` sweep on the calling thread,
then solves them on the same pool, largest ``m`` first, and returns them in
sweep order.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .constructions import construct
from .errors import DomainError, _integer
from .exprs import ELExpr, cost_total, eval_at, one_sided_partials
from .lp_oracle import GridLP, LPSolution, build_lp, solve_lp
from .surfaces import SHAPE_CONCAVE, SHAPE_CONVEX, Curve2D, Hyperplane, Surface, _box_scale

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
    "lp_sweep",
    "DEFAULT_PAIR_SAMPLES",
    "DEFAULT_SURFACE_SAMPLES",
]

DEFAULT_PAIR_SAMPLES = 10_000
DEFAULT_SURFACE_SAMPLES = 1_000

# Exact derivative rules make violations sharp; tolerances only absorb float
# rounding.  Function values and steps: in units of the box's scale.
# Derivative comparisons: absolute on exact rules, relative (floored at
# magnitude 1) against finite differences.
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
# Rows per block of a sampled property.
_BLOCK = 1 << 14

# Substream k of the master seed drives property k, whether or not it runs.
_PROPERTIES = (
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
)


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


def _pt(row) -> tuple[float, ...]:
    return tuple(float(v) for v in np.ravel(row))


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
    expression nodes.  Every property after ``pointed`` is one task with its
    own generator; the tasks run on up to one thread per available CPU and
    are reported in the fixed order of ``_PROPERTIES``, so identical seeds
    give bit-identical reports.  A plain callable must therefore be safe to
    call from several threads at once.  For a power of two ``lam``,
    ``lam * f(x / lam)`` on ``lam * box`` gets ``f``'s report, lengths times ``lam``.
    """
    samples = _integer(samples, 0, "check_el needs a non-negative integer sample count")
    seed = _integer(seed, 0, "check_el needs a non-negative integer seed")
    box_arr = np.asarray(box, dtype=float)
    if box_arr.ndim != 1 or box_arr.size == 0 or not np.all(np.isfinite(box_arr) & (box_arr > 0.0)):
        raise DomainError("box must be a strictly positive finite vector")
    n = box_arr.size
    is_expr = isinstance(fn, ELExpr)
    if is_expr and fn.dim != n:
        raise DomainError(f"box has dim {n}, expression has dim {fn.dim}")
    value = _value_batch(fn)
    lam = _box_scale(box_arr)
    value_tol = VALUE_TOL * lam

    seeds = np.random.SeedSequence(seed).spawn(len(_PROPERTIES))
    gens = [np.random.Generator(np.random.PCG64(s)) for s in seeds]

    # pointed: f(0) = 0, exactly (the combinators preserve exact zero).
    v0 = float(value(np.zeros((1, n)))[0])
    checks = [PropertyCheck("pointed", v0 == 0.0, abs(v0), 0.0, _pt(np.zeros(n)), 1)]

    sampled = [
        ("monotone", value_tol, partial(_monotone, value, box_arr)),
        ("submodular", value_tol, partial(_submodular, value, box_arr)),
        ("dr_coordinate", value_tol, partial(_diminishing_returns, True, value, box_arr)),
        ("dr_general", value_tol, partial(_diminishing_returns, False, value, box_arr)),
        ("directional_concavity", value_tol, partial(_directional_concavity, value, box_arr)),
    ]
    listed = []
    if is_expr:
        sampled += [
            ("left_at_least_right", DERIV_TOL, partial(_left_at_least_right, fn, box_arr)),
            ("derivative_monotone", DERIV_TOL, partial(_derivative_monotone, fn, box_arr)),
        ]
        listed = [partial(_fd_check, fn, box_arr, lam), partial(_limit_check, fn, box_arr, lam)]
    tasks = [partial(_fold, name, tol, samples, block) for name, tol, block in sampled] + listed
    checks += _run_tasks([partial(task, gen) for task, gen in zip(tasks, gens[1:])])

    return ELReport(
        passed=all(c.passed for c in checks),
        properties=tuple(checks),
        samples=samples,
        seed=seed,
        box=tuple(float(v) for v in box_arr),
        includes_derivative_checks=is_expr,
    )


def _run_tasks(tasks, order=None) -> list:
    """Call each zero-argument task on ``min(tasks, CPUs)`` workers; results in task order.

    The calling thread is one of the workers.  Tasks start in ``order`` (a
    permutation of their indices; list order by default).  Every task runs;
    then the first exception in task order is re-raised.
    """
    results = [None] * len(tasks)
    errors = [None] * len(tasks)
    # next() on a shared list or range iterator is atomic
    pending = iter(range(len(tasks)) if order is None else order)

    def work():
        for i in pending:
            try:
                results[i] = tasks[i]()
            except BaseException as exc:  # re-raised below, in task order
                errors[i] = exc

    workers = min(len(tasks), _available_cpus())
    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _fold(name, tol, count, block, gen) -> PropertyCheck:
    """The worst of ``count`` row-wise violations, one block of rows at a time.

    ``block(gen, rows)`` draws ``rows`` rows from the generator it is handed
    and returns their violations and a map from a row of the block to its
    witness.  Block 0 draws from the property's own ``gen``, block k >= 1
    from a generator seeded by child k of its ``SeedSequence``.  Blocks fold
    by ``np.argmax``'s rules, so the check equals one ``np.argmax`` over all
    rows: the first maximum wins, and the first NaN beats every number.
    """
    if count == 0:
        return PropertyCheck(name, True, 0.0, tol, None, 0)
    children = gen.bit_generator.seed_seq.spawn(-(-count // _BLOCK))  # child 0 goes unused
    for k, lo in enumerate(range(0, count, _BLOCK)):
        stream = gen if k == 0 else np.random.default_rng(children[k])
        v, witness = block(stream, min(_BLOCK, count - lo))
        i = int(np.argmax(v))
        if k == 0 or (not math.isnan(worst) and (v[i] > worst or math.isnan(v[i]))):
            worst, found = float(v[i]), witness(i)
        del v, witness  # the witness holds the block's arrays; free them before the next
    return PropertyCheck(name, worst <= tol, worst, tol, found, count)


def _listed(name, tol, viols, witnesses) -> PropertyCheck:
    """The worst of violations already listed with their witnesses, picked as ``_fold`` picks."""
    if not viols:
        return PropertyCheck(name, True, 0.0, tol, None, 0)
    i = int(np.argmax(viols))
    worst = float(viols[i])
    return PropertyCheck(name, worst <= tol, worst, tol, witnesses[i], len(viols))


def _points(box_arr, gen, rows):
    """``rows`` points uniform on the box, bit for bit ``gen.uniform(0.0, box_arr, (rows, n))``."""
    return gen.random((rows, box_arr.size)) * box_arr


def _ordered_pair(box_arr, gen, rows):
    """``x`` uniform on the box, and ``y`` the fractions ``u`` of the way to the box's far corner."""
    x = _points(box_arr, gen, rows)
    return x, _above(box_arr, x, gen.random((rows, box_arr.size)))


def _above(box_arr, x, u):
    """The point the fractions ``u`` of the way from ``x`` to the box's far corner."""
    return x + (box_arr - x) * u


def _monotone(value, box_arr, gen, rows):
    """x <= y implies f(x) <= f(y)."""
    x, y = _ordered_pair(box_arr, gen, rows)
    return value(x) - value(y), lambda i: (_pt(x[i]), _pt(y[i]))


def _submodular(value, box_arr, gen, rows):
    """f(x) + f(y) >= f(min(x, y)) + f(max(x, y))."""
    x, y = _points(box_arr, gen, rows), _points(box_arr, gen, rows)
    v = value(np.minimum(x, y)) + value(np.maximum(x, y)) - value(x) - value(y)
    return v, lambda i: (_pt(x[i]), _pt(y[i]))


def _diminishing_returns(single_coordinate, value, box_arr, gen, rows):
    """For x <= y, a step along one coordinate gains no more at y than at x.

    ``single_coordinate`` draws y from x along the stepped coordinate only;
    otherwise y is an arbitrary point above x.  Sample coordinates are
    non-negative, so adding the masked ``0.0`` leaves the other columns
    bit-identical.
    """
    n = box_arr.size
    x = _points(box_arr, gen, rows)
    c = gen.integers(0, n, size=rows)
    u = gen.random(rows) if single_coordinate else gen.random((rows, n))
    eps = box_arr[c] * (1e-4 + 0.5 * gen.random(rows))
    along = c[:, None] == np.arange(n)
    if single_coordinate:
        y = x + np.where(along, ((box_arr[c] - x[np.arange(rows), c]) * u)[:, None], 0.0)
    else:
        y = _above(box_arr, x, u)
    step = np.where(along, eps[:, None], 0.0)
    v = (value(y + step) - value(y)) - (value(x + step) - value(x))
    return v, lambda i: (_pt(x[i]), _pt(y[i]), int(c[i]), float(eps[i]))


def _directional_concavity(value, box_arr, gen, rows):
    """Concavity along positive directions."""
    x, y = _ordered_pair(box_arr, gen, rows)
    t = gen.random(rows)
    mid = t[:, None] * x + (1.0 - t[:, None]) * y
    v = t * value(x) + (1.0 - t) * value(y) - value(mid)
    return v, lambda i: (_pt(x[i]), _pt(y[i]), float(t[i]))


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1)`` of a ``(samples, n)`` array, folded over its few columns.

    Far faster than the row-wise reduction, and equal to it when ``a`` holds
    no NaN.
    """
    return reduce(np.maximum, a.T)


def _left_at_least_right(expr: ELExpr, box_arr, gen, rows):
    """Left >= right wherever the left derivative exists."""
    p = _points(box_arr, gen, rows)
    grad = one_sided_partials(expr, p)
    gap = np.where(grad.defined_left, grad.right - grad.left, -np.inf)
    return _row_max(gap), lambda i: (_pt(p[i]), int(np.argmax(gap[i])))


def _derivative_monotone(expr: ELExpr, box_arr, gen, rows):
    """Right derivatives do not increase along positive directions."""
    x, y = _ordered_pair(box_arr, gen, rows)
    diff = one_sided_partials(expr, y).right - one_sided_partials(expr, x).right
    return _row_max(diff), lambda i: (_pt(x[i]), _pt(y[i]), int(np.argmax(diff[i])))


def _fd_check(expr: ELExpr, box_arr, lam, gen) -> PropertyCheck:
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
    P = _points(box_arr, gen, _FD_POINTS)
    h = 1e-7 * np.maximum(lam, np.max(np.abs(P), axis=1))
    base = eval_at(expr, P)
    grad = one_sided_partials(expr, P)
    viols = []
    witnesses = []
    for i in range(n):
        # the derivative on this side at P against the other side's at the step's end
        for side, far, sign in (("right", "left", 1.0), ("left", "right", -1.0)):
            Q = P.copy()
            Q[:, i] += sign * h
            usable = Q[:, i] >= 0.0  # a left step must stay in the orthant
            Q[~usable] = P[~usable]
            q = sign * (eval_at(expr, Q) - base) / h
            d_near = getattr(grad, side)[:, i]
            d_end = getattr(one_sided_partials(expr, Q), far)[:, i]
            scale = np.maximum(1.0, np.abs(d_near))
            smooth = usable & (np.abs(d_end - d_near) <= 1e-4 * scale)
            rel = np.abs(q - 0.5 * (d_near + d_end)) / scale
            for row in np.nonzero(smooth)[0]:
                viols.append(rel[row])
                witnesses.append((_pt(P[row]), i, side))
    return _listed("fd_agreement", FD_REL_TOL, viols, witnesses)


def _ladder_limit(seq: np.ndarray) -> np.ndarray:
    # Linear extrapolation to eps = 0 from the last two rungs, eps and 10 eps.
    return seq[-1] + (seq[-1] - seq[-2]) / 9.0


def _limit_check(expr: ELExpr, box_arr, lam, gen) -> PropertyCheck:
    """One-sided derivatives are limits of nearby right derivatives.

    Walking in from the right, ``f_i^+(x + eps e_i)`` increases monotonically
    to ``f_i^+(x)`` as ``eps`` shrinks; walking in from the left,
    ``f_i^+(x - eps e_i)`` decreases monotonically to ``f_i^-(x)``.  Both are
    checked over a geometric ``eps`` ladder in units of the box's scale
    ``lam``: monotonicity rung by rung, and the limit against its extrapolation.
    """
    n = box_arr.size
    P = _points(box_arr, gen, _LIMIT_POINTS)
    grad = one_sided_partials(expr, P)
    viols = []
    witnesses = []
    for i in range(n):
        for side, sign in (("right", 1.0), ("left", -1.0)):
            # a left ladder needs room for its largest rung
            usable = P[:, i] > LIMIT_EPS[0] * lam if sign < 0 else np.full(len(P), True)
            if not np.any(usable):
                continue
            R = P[usable]
            seq = []
            for eps in LIMIT_EPS:
                Q = R.copy()
                Q[:, i] += sign * eps * lam
                seq.append(one_sided_partials(expr, Q).right[:, i])
            seq = np.stack(seq)  # ladder index grows as eps shrinks
            # rising toward f_i^+ from the right, falling toward f_i^- from the left
            lower, upper = (seq[:-1], seq[1:]) if sign > 0 else (seq[1:], seq[:-1])
            mono = np.max(lower - upper, axis=0)
            conv = np.abs(_ladder_limit(seq) - getattr(grad, side)[usable, i])
            for k, row in enumerate(np.nonzero(usable)[0]):
                viols.append(max(float(mono[k]), float(conv[k])))
                witnesses.append((_pt(P[row]), i, side))
    return _listed("derivative_limits", LIMIT_TOL, viols, witnesses)


def _sample_curve_inner(curve: Curve2D, samples: int, gen, frac: float) -> np.ndarray:
    margin = frac * curve.a
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
) -> FeasibilityReport:
    """Smallest sampled derivative jump across the surface.

    Surface points are sampled strictly inside the surface with a relative
    margin from its boundary (the jump requirement applies to points with
    all coordinates positive); the report's ``margin`` is that fraction.
    Feasible means every jump >= 1 - 1e-6.
    """
    if expr.dim != surface.dim:
        raise DomainError(f"expression has dim {expr.dim}, surface has dim {surface.dim}")
    samples = _integer(samples, 1, "check_feasible needs an integer count of at least one sample")
    seed = _integer(seed, 0, "check_feasible needs a non-negative integer seed")
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    sample_inner = _sample_hyperplane_inner if isinstance(surface, Hyperplane) else _sample_curve_inner
    points = sample_inner(surface, samples, gen, FEASIBLE_MARGIN_FRAC)
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
        margin=FEASIBLE_MARGIN_FRAC,
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
    s_lo, s_hi = surface.slope_range()
    # The slope -alpha' falls along a convex curve and rises along a concave
    # one, so x = a holds s_lo or s_hi respectively; a flat slope is taken at 0.
    if s_hi >= 1.0 / s_lo:
        value, j, i, far = s_hi, 0, 1, SHAPE_CONCAVE
    else:
        value, j, i, far = 1.0 / s_lo, 1, 0, SHAPE_CONVEX
    x_star = surface.a if s_lo < s_hi and surface.shape == far else 0.0
    point = (float(x_star), float(surface.alpha(x_star)))
    return RatioBound(value=float(value), point=point, j=j, i=i)


def lp_sweep(surface: Surface, ms: Sequence[int]) -> list[tuple[GridLP, LPSolution]]:
    """``build_lp`` for each grid size, then ``solve_lp`` on ``check_el``'s worker pool.

    Returns ``(lp, solution)`` in sweep order.  Every LP is built on the
    calling thread, in sweep order, before any solve, so a bad grid size
    raises its first build error at once.  Solves start largest ``m``
    first, so on two workers the slowest solve overlaps all the others;
    every solve runs, then the first ``SolverError`` in sweep order is
    re-raised.
    """
    lps = [build_lp(surface, m) for m in ms]
    largest_first = sorted(range(len(lps)), key=lambda k: -lps[k].m)
    return list(zip(lps, _run_tasks([partial(solve_lp, lp) for lp in lps], largest_first)))


def gap_report(
    surface: Surface,
    grid_m: Optional[Sequence[int]] = None,
) -> BoundReport:
    """Bracket the optimal feasible cost for ``surface``.

    Assembles the normal-ratio lower bound, the matching construction's cost
    (an upper bound on the optimum), and optionally the grid-LP lower bound
    for each requested grid size (two-dimensional surfaces only).
    """
    result = construct(surface)
    bound = normal_ratio_bound(surface)
    total = cost_total(result.expr)

    lp_values = None
    lp_bound = None
    if grid_m:
        lp_values = tuple((lp.m, sol.value) for lp, sol in lp_sweep(surface, grid_m))
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
