"""Grid-LP lower bound on the optimal feasible cost of a 2-D surface.

The LP has one variable ``f(i, j)`` per node of an ``(m+1) x (m+1)`` grid on
the surface's intercept box plus the objective scalar ``t``.  :class:`GridLP`
owns the grid: ``nodes[d]`` holds the coordinates ``k h[d]`` along axis ``d``
and ``h[d] = box[d]/m`` its step (anisotropic when the box is not square);
node ``g`` is variable ``ravel_multi_index(g, shape)``.  Every row family
but submodularity is written once per axis.  The rows are

(i)    pointedness        ``f(0,0) = 0``;
(ii)   corner monotonicity ``f(m,m) >= f(m-1,m)`` and ``f(m,m) >= f(m,m-1)``;
(iii)  lattice submodularity ``f(g+e_x) + f(g+e_y) >= f(g) + f(g+e_x+e_y)``;
(iv)   per-axis concavity ``f(g+e_d) - f(g) >= f(g+2 e_d) - f(g+e_d)``;
(v)    crossing rows: on each grid line in direction ``d`` crossing the
       surface at coordinate ``c`` with ``k h_d <= c <= (k+1) h_d`` and
       ``1 <= k <= m-2``,
                          ``[f(k) - f(k-1)] - [f(k+2) - f(k+1)] >= h_d``;
(vi)   objective          ``min t`` with ``h_d * t >= f(e_d)`` for both axes.

Soundness (why the optimal LP value is a lower bound on the cost of every
surface-feasible entropy-like function): restrict such an ``f`` to the grid.
Rows (i)-(iv) hold because pointedness, monotonicity, submodularity and
per-axis concavity restrict verbatim to lattice points.  The two corner rows
imply monotonicity at every node: writing ``d_x(i,j) = f(i+1,j) - f(i,j)``,
concavity gives ``d_x(i,j) >= d_x(m-1,j)`` and submodularity gives
``d_x(m-1,j) >= d_x(m-1,m) >= 0``; likewise along y.  For row (v), f is
concave along the grid line, so the backward chord slope over the cell left
of the crossing is at least the left derivative at ``c`` and the forward
chord slope over the cell right of it is at most the right derivative at
``c``; feasibility makes the difference of those derivatives at least 1, and
multiplying by the step gives the row.  For (vi), concavity with ``f(0)=0``
gives ``f(h_d e_d)/h_d <= f_d^+(0) <= cost(f)``.  Hence the restriction is
LP-feasible with objective at most ``cost(f)``, and minimising over the
larger LP polytope can only go lower.  The restriction argument is machine-
checked by :func:`restriction_check`.

The rows measure ``f`` in units of ``scale = 2**round(log2(max(box)))``, so
the crossing right-hand sides and objective coefficients are ``h_d / scale``
for a box of any size.  HiGHS's tolerances are absolute; in the box's own
units an LP solved above the ratio bound on a box near 4e9 and was reported
infeasible on one near 4e-6 (Neumaier & Shcherbina, Math. Prog. 99, 2004,
warn against such rows).  A power of two scales exactly: :func:`solve_lp`
multiplies the grid back, :func:`restriction_check` divides ``f`` by it, and
:func:`dump_lp` writes the scaled model.  The crossing search works on
``c / scale``, with a tie window of 1e-12: crossings that fall on a grid node
use the same cells (the quotients stay on the correct sides of the crossing),
and out-of-range crossings are skipped, which only weakens the relaxation.
The LP is feasible at every scale (the restriction of any feasible function
is a witness; with no crossing rows the zero function satisfies everything)
and bounded below by 0, so a deterministic solve returns a finite optimum.

HiGHS solves it by interior point, then crossover to an optimal vertex with
basic duals; both phases are deterministic and single-threaded.  scipy only
ships the HiGHS extension: :func:`solve_lp` loads
``scipy/optimize/_highspy/_core`` by file path on the first solve and imports
no scipy Python package.  Presolve is off: it removes only the fixed column
``f(0,0)`` and its equality row, yet the reduced copy of the model it keeps
raises peak memory of an m = 48 solve by 2-4 MB.  ``m`` is capped at 96
(about 9.4k variables) to keep desk-scale runtimes.

Independent instances (an ``m`` sweep, :func:`elopt.analysis.lp_sweep`) are
safe to solve on concurrent threads: the inputs are immutable, every solve
has its own ``_Highs`` object, and each solve is deterministic and
single-threaded, so the bytes do not depend on what runs beside it.
``_Highs.run`` releases the interpreter lock, so the solves overlap.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

import numpy as np

from .errors import DomainError, SolverError, _integer
from .exprs import ELExpr, eval_at
from .surfaces import Surface, _box_scale

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "GridLP",
    "LPSolution",
    "RestrictionReport",
    "build_lp",
    "solve_lp",
    "restriction_check",
    "grid_points",
    "dump_lp",
]

M_CAP = 96
_CROSS_TIE = 1e-12
ROW_TOL = 1e-9


@dataclass(frozen=True)
class GridLP:
    # nodes[d][k] = k * h[d]; h is carried as built, not recomputed from nodes
    nodes: tuple[np.ndarray, ...]
    h: tuple[float, ...]
    scale: float                # the power of two the rows measure f in
    # rows geq @ z >= geq_rhs in CSR form, columns ascending within each row;
    # z is the grid divided by scale, followed by t
    geq_indptr: np.ndarray
    geq_indices: np.ndarray
    geq_data: np.ndarray
    geq_rhs: np.ndarray
    kinds: tuple[str, ...]
    crossing_rows: int
    surface: str

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(n.size for n in self.nodes)

    @property
    def m(self) -> int:
        return self.nodes[0].size - 1

    @property
    def n_vars(self) -> int:
        return math.prod(self.shape) + 1

    @cached_property
    def geq(self) -> sp.csr_matrix:
        """The rows as a scipy.sparse matrix; imports scipy.sparse on first access."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.geq_data, self.geq_indices, self.geq_indptr),
            shape=(self.geq_rhs.size, self.n_vars),
        )


@dataclass(frozen=True)
class LPSolution:
    value: float
    t: float
    grid: np.ndarray            # lp.shape; grid[i, j] = f(nodes[0][i], nodes[1][j])
    status: str                 # always "optimal"; kept for the tracer's counters
    iterations: int             # interior-point plus crossover iterations


@dataclass(frozen=True)
class RestrictionReport:
    satisfied: bool
    max_violation: float
    worst_row: str
    objective: float


def _node_names(ids, shape: tuple[int, ...], head: str, sep: str, tail: str = "") -> list[str]:
    """``head``, the grid index of each flat variable id in ``ids`` (axes joined by ``sep``), ``tail``."""
    index = np.unravel_index(np.ravel(ids), shape)
    template = head + sep.join(["{}"] * len(shape)) + tail
    return [template.format(*node) for node in zip(*(i.tolist() for i in index))]


def build_lp(surface: Surface, m: int) -> GridLP:
    """Assemble the grid LP for a validated 2-D surface."""
    if surface.dim != 2:
        raise DomainError("the grid LP supports two-dimensional surfaces only")
    m = _integer(m, 4, "need m >= 4")
    if m > M_CAP:
        raise DomainError(f"m = {m} above the cap {M_CAP} (9.4k variables)")
    report = surface.validate()
    if not report.valid:
        raise DomainError(f"surface failed validation: {'; '.join(report.violations)}")
    box = surface.intercepts()
    h = tuple(side / m for side in box)
    scale = _box_scale(box)
    nodes = tuple(np.arange(m + 1) * step for step in h)
    # V[i, j] is the column of f(nodes[0][i], nodes[1][j]); t's column is V.size
    V = np.arange((m + 1) ** len(box)).reshape((m + 1,) * len(box))
    # axes[d][k, ...] are the columns of the nodes with index k along axis d
    axes = [np.moveaxis(V, d, 0) for d in range(V.ndim)]

    cols: list[np.ndarray] = []  # one (rows, terms) array per block, ascending along each row
    vals: list[np.ndarray] = []
    rhs: list[np.ndarray] = []
    kinds: list[str] = []

    def add_block(term_cols, term_vals, rhs_val, labels):
        """Rows ``sum_t term_vals[t] * z[term_cols[t]] >= rhs_val``, one per label."""
        block = np.stack(np.broadcast_arrays(*map(np.ravel, term_cols)), axis=1)
        order = np.argsort(block, axis=1)
        cols.append(np.take_along_axis(block, order, axis=1))
        vals.append(np.array(term_vals)[order])
        rhs.append(np.full(len(labels), float(rhs_val)))
        kinds.extend(labels)

    def at_nodes(kind, ids):
        return _node_names(ids, V.shape, f"{kind}[", ",", "]")

    # (ii) corner monotonicity; the other monotonicity rows are implied.
    # A[k].flat[-1] is the node at index k along the axis and m on the others.
    for name, A in zip("xy", axes):
        below = A[m - 1].flat[-1]
        add_block([A[m].flat[-1], below], [1.0, -1.0], 0.0, at_nodes(f"mono_{name}", below))

    # (iii) lattice submodularity on every cell
    add_block(
        [V[1:, :-1], V[:-1, 1:], V[:-1, :-1], V[1:, 1:]], [1.0, 1.0, -1.0, -1.0], 0.0,
        at_nodes("submod", V[:-1, :-1]),
    )

    # (iv) per-axis concavity; ravel("K") reads V's memory order, so the rows
    # of every axis ascend by their first node
    for name, A in zip("xy", axes):
        first, mid, last = (A[s:s + m - 1].ravel("K") for s in range(3))
        add_block([mid, first, last], [2.0, -1.0, -1.0], 0.0, at_nodes(f"conc_{name}", first))

    # (v) crossing rows: axis d's grid lines run along d and sit at the nodes
    # of the other axis, where the surface crosses them at c = beta or alpha
    crossings = 0
    for d, (cross, A) in enumerate(zip((surface.beta, surface.alpha), axes)):
        across = 1 - d
        c = cross(np.minimum(nodes[across], box[across])) / scale
        outside = ~((-_CROSS_TIE <= c) & (c <= box[d] / scale + _CROSS_TIE))
        if outside.any():
            at = float(nodes[across][np.argmax(outside)])
            raise DomainError(f"surface exits the grid box at {'xy'[across]} = {at!r}")
        k = np.floor((c + _CROSS_TIE) / (h[d] / scale)).astype(int)
        q = np.flatnonzero((1 <= k) & (k <= m - 2))
        k = k[q]
        head = f"cross_{'xy'[d]}[{'ij'[across]}"
        add_block(
            [A[k, q], A[k - 1, q], A[k + 1, q], A[k + 2, q]], [1.0, -1.0, 1.0, -1.0], h[d] / scale,
            [f"{head}={line},k={cell}]" for line, cell in zip(q.tolist(), k.tolist())],
        )
        crossings += q.size
    if crossings == 0:
        warnings.warn(
            "grid hosts no crossing row; the LP is valid but its bound is trivial",
            stacklevel=2,
        )

    # (vi) objective support rows: h_d * t >= f(e_d)
    for name, A, step in zip("xy", axes, h):
        add_block([V.size, A[1].flat[0]], [step / scale, -1.0], 0.0, [f"obj_{name}"])

    indptr = np.zeros(len(kinds) + 1, dtype=np.int32)
    terms = [block.shape[1] for block in cols]
    np.cumsum(np.repeat(terms, [len(block) for block in cols]), out=indptr[1:])
    return GridLP(
        nodes=nodes,
        h=h,
        scale=scale,
        geq_indptr=indptr,
        geq_indices=np.concatenate([block.ravel() for block in cols]).astype(np.int32),
        geq_data=np.concatenate([block.ravel() for block in vals]),
        geq_rhs=np.concatenate(rhs),
        kinds=tuple(kinds),
        crossing_rows=crossings,
        surface=repr(surface),
    )


_HIGHS_MODULE = "scipy.optimize._highspy._core"
_HIGHS_LOCK = threading.Lock()
# linprog's check of a reported optimum: bounds and rows hold to sqrt(1e-9) * 10
_OPTIMUM_TOL = math.sqrt(1e-9) * 10


def _highs():
    """scipy's bundled HiGHS extension, loaded by file path without importing scipy."""
    with _HIGHS_LOCK:
        core = sys.modules.get(_HIGHS_MODULE)
        if core is not None:
            return core
        spec = importlib.util.find_spec("scipy")
        if spec is None or not spec.submodule_search_locations:
            raise SolverError("scipy is not installed; the LP solve needs its HiGHS extension")
        base = Path(spec.submodule_search_locations[0], "optimize", "_highspy")
        candidates = [base / f"_core{sfx}" for sfx in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in candidates if p.is_file()), None)
        if path is None:
            looked = ", ".join(map(str, candidates))
            raise SolverError(f"scipy's HiGHS extension not found; looked for {looked}")
        core_spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
        core = importlib.util.module_from_spec(core_spec)
        sys.modules[_HIGHS_MODULE] = core
        try:
            core_spec.loader.exec_module(core)
        except BaseException:
            del sys.modules[_HIGHS_MODULE]
            raise
        return core


def solve_lp(lp: GridLP) -> LPSolution:
    """Deterministic solve to an optimum; any other HiGHS status raises ``SolverError``.

    HiGHS receives ``min t`` subject to ``-geq @ z <= -geq_rhs`` and then
    ``f(0,0) = 0`` as the last row, ``z >= 0``, with presolve off, the IPM
    solver, the dual simplex strategy and output off: the model and options
    of ``linprog(method="highs-ipm", options={"presolve": False})``.  The
    rows go in as built, row-wise; HiGHS turns them into the column-wise
    matrix that linprog would pass.  Any other status raises
    ``SolverError("LP status <HiGHS status name> at m=<m>")``; a built LP is
    feasible and bounded (see the module docstring), so only an edited model
    or a solver fault raises it.
    """
    core = _highs()
    n_rows = lp.geq_rhs.size

    objective = np.zeros(lp.n_vars)
    objective[-1] = 1.0
    row_upper = np.append(-lp.geq_rhs, 0.0)

    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.n_vars
    model.num_row_ = model.a_matrix_.num_row_ = n_rows + 1
    model.a_matrix_.format_ = core.MatrixFormat.kRowwise
    model.a_matrix_.start_ = np.append(lp.geq_indptr, lp.geq_indptr[-1] + 1)
    model.a_matrix_.index_ = np.append(lp.geq_indices, np.int32(0))
    model.a_matrix_.value_ = np.append(-lp.geq_data, 1.0)
    model.col_cost_ = objective
    model.col_lower_ = np.zeros(lp.n_vars)
    model.col_upper_ = np.full(lp.n_vars, core.kHighsInf)
    model.row_lower_ = np.append(np.full(n_rows, -core.kHighsInf), 0.0)
    model.row_upper_ = row_upper

    options = core.HighsOptions()
    options.presolve = "off"
    options.solver = "ipm"
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    highs = core._Highs()
    if (
        highs.passOptions(options) == core.HighsStatus.kError
        or highs.passModel(model) == core.HighsStatus.kError
    ):
        raise SolverError("HiGHS rejected the LP model or its options")
    highs.run()
    status = highs.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        raise SolverError(f"LP status {highs.modelStatusToString(status)} at m={lp.m}")
    info = highs.getInfo()
    iterations = int(
        (info.simplex_iteration_count or info.ipm_iteration_count) + info.crossover_iteration_count
    )
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    value = float(info.objective_function_value)
    slack = row_upper - np.array(solution.row_value)
    if not (
        np.all(x >= -_OPTIMUM_TOL)
        and np.all(slack[:-1] >= -_OPTIMUM_TOL)
        and abs(slack[-1]) <= _OPTIMUM_TOL
        and not math.isnan(value)
    ):
        raise SolverError(
            f"LP solve failed: the reported optimum violates the model by more than {_OPTIMUM_TOL:.2E}"
        )
    return LPSolution(
        value=value,
        t=float(x[-1]),
        grid=x[:-1].reshape(lp.shape) * lp.scale,
        status="optimal",
        iterations=iterations,
    )


def grid_points(lp: GridLP) -> np.ndarray:
    """Grid nodes as a (nodes, dim) batch ordered like the LP variables."""
    return np.stack(np.meshgrid(*lp.nodes, indexing="ij"), axis=-1).reshape(-1, len(lp.nodes))


def restriction_check(lp: GridLP, expr: ELExpr) -> RestrictionReport:
    """Machine check of the soundness argument: a feasible function's grid restriction satisfies every row."""
    f = np.asarray(eval_at(expr, grid_points(lp)), dtype=float)
    # f(e_d) / h_d for each axis d; eye(dim)'s rows index the unit nodes e_d
    t = max(f.reshape(lp.shape)[tuple(np.eye(len(lp.h), dtype=int))] / lp.h)
    z = np.append(f / lp.scale, t)
    residual = lp.geq @ z - lp.geq_rhs
    # the pointedness row f(0,0) = 0 goes last, so it is the worst only when strictly worse
    violations = np.append(np.maximum(-residual, 0.0), abs(z[0]))
    worst = int(np.argmax(violations))
    return RestrictionReport(
        satisfied=bool(violations[worst] <= ROW_TOL),
        max_violation=float(violations[worst]),
        worst_row=(*lp.kinds, "point_origin")[worst],
        objective=float(t),
    )


def dump_lp(lp: GridLP, stream: TextIO) -> None:
    """Write the LP in the plain-text interchange format of CPLEX-style solvers.

    Variables follow the solver convention of default bounds ``0 <= var``,
    which matches how :func:`solve_lp` poses the problem.
    """
    names = _node_names(np.arange(lp.n_vars - 1), lp.shape, "f_", "_") + ["t"]
    stream.write(f"\\ grid LP lower bound ({lp.surface}), m = {lp.m}\n")
    stream.write("Minimize\n obj: t\nSubject To\n")
    stream.write(" point_origin: f_0_0 = 0\n")
    indptr, indices, data = (a.tolist() for a in (lp.geq_indptr, lp.geq_indices, lp.geq_data))
    for row, bound in enumerate(lp.geq_rhs.tolist()):
        start, end = indptr[row], indptr[row + 1]
        terms = []
        for col, val in zip(indices[start:end], data[start:end]):
            sign = "+" if val >= 0 else "-"
            terms.append(f"{sign} {abs(val)!r} {names[col]}")
        label = lp.kinds[row].replace("[", "_").replace("]", "").replace(",", "_").replace("=", "")
        stream.write(f" {label}_r{row}: {' '.join(terms)} >= {bound!r}\n")
    stream.write("End\n")
