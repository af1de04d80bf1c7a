"""Grid-LP lower bound on the optimal feasible cost of a 2-D surface.

The LP has one variable ``f(i, j)`` per node of an ``(m+1) x (m+1)`` grid on
the surface's intercept box (steps ``h_x = X/m``, ``h_y = Y/m``, anisotropic
when the box is not square) plus the objective scalar ``t``, and rows

(i)    pointedness        ``f(0,0) = 0``;
(ii)   corner monotonicity
                          ``f(m,m) >= f(m-1,m)`` and ``f(m,m) >= f(m,m-1)``;
(iii)  lattice submodularity
                          ``f(g+e_x) + f(g+e_y) >= f(g) + f(g+e_x+e_y)``;
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

Crossings that fall on a grid node use the same cells (the quotients stay on
the correct sides of the crossing); the tie window is 1e-12.  Out-of-range
crossings are skipped, which only weakens the relaxation.  The LP is always
feasible (the restriction of any feasible function is a witness; with no
crossing rows the zero function already satisfies everything) and bounded
below by 0, so a deterministic solve returns a finite optimum.
:func:`solve_lp` is the one place that decides whether a solve is usable:
any HiGHS status other than optimal raises ``SolverError``, so every
:class:`LPSolution` holds an optimum.

The solve is delegated to the interior-point method of HiGHS, followed by
crossover to an optimal vertex with basic duals; both phases are
deterministic and single-threaded.  scipy only ships the HiGHS extension:
:func:`solve_lp` loads ``scipy/optimize/_highspy/_core`` by file path on the
first solve and imports no scipy Python package.  HiGHS gets the model that
``linprog(method="highs-ipm")`` would pass it, with linprog's options but
presolve off, so values, grids and iteration counts are those of that call
with ``options={"presolve": False}``.  Presolve removes only the fixed
column ``f(0,0)`` and its equality row, yet the reduced copy of the model it
keeps raises peak memory of an m = 48 solve by 2-4 MB.  ``m`` is capped at
96 (about 9.4k variables) to keep desk-scale runtimes.

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

from .errors import DomainError, SolverError
from .exprs import ELExpr, eval_at
from .surfaces import Surface

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
    m: int
    h_x: float
    h_y: float
    n_vars: int
    # rows geq @ z >= geq_rhs in CSR form, columns ascending within each row
    geq_indptr: np.ndarray
    geq_indices: np.ndarray
    geq_data: np.ndarray
    geq_rhs: np.ndarray
    kinds: tuple[str, ...]
    crossing_rows: int
    surface: str

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
    grid: np.ndarray            # (m+1, m+1); grid[i, j] = f(i h_x, j h_y)
    status: str                 # always "optimal"; kept for the tracer's counters
    iterations: int             # interior-point plus crossover iterations


@dataclass(frozen=True)
class RestrictionReport:
    satisfied: bool
    max_violation: float
    worst_row: str
    objective: float


def build_lp(surface: Surface, m: int) -> GridLP:
    """Assemble the grid LP for a validated 2-D surface."""
    if surface.dim != 2:
        raise DomainError("the grid LP supports two-dimensional surfaces only")
    if m < 4:
        raise DomainError(f"need m >= 4, got {m}")
    if m > M_CAP:
        raise DomainError(f"m = {m} above the cap {M_CAP} (9.4k variables)")
    report = surface.validate()
    if not report.valid:
        raise DomainError(f"surface failed validation: {'; '.join(report.violations)}")
    box = surface.intercepts()
    h = (box[0] / m, box[1] / m)
    n_grid = m + 1
    t_col = n_grid * n_grid
    V = np.arange(t_col).reshape(n_grid, n_grid)  # V[i, j] is the column of f(i h_x, j h_y)
    # Per axis d: its name, the letter of the grid-line index, the crossing of
    # the surface with a grid line, and nodes[k, q] = node k along d on line q.
    axes = (("x", "j", surface.beta, V), ("y", "i", surface.alpha, V.T))

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    rhs: list[np.ndarray] = []
    kinds: list[str] = []
    counter = 0

    def add_block(term_cols, term_vals, rhs_val, kind, label_nodes):
        """Rows ``sum_t term_vals[t] * z[term_cols[t]] >= rhs_val``, labelled ``kind[i,j]`` by node."""
        nonlocal counter
        k = np.size(term_cols[0])
        base = counter
        for col_arr, cf in zip(term_cols, term_vals):
            rows.append(base + np.arange(k))
            cols.append(np.ravel(col_arr))
            vals.append(np.full(k, float(cf)))
        rhs.append(np.full(k, float(rhs_val)))
        if label_nodes is None:
            kinds.append(kind)
        else:
            I, J = np.divmod(np.ravel(label_nodes), n_grid)
            kinds.extend(f"{kind}[{i},{j}]" for i, j in zip(I.tolist(), J.tolist()))
        counter += k

    # (ii) corner monotonicity; the other monotonicity rows are implied
    for name, _, _, nodes in axes:
        add_block([nodes[m, m], nodes[m - 1, m]], [1.0, -1.0], 0.0, f"mono_{name}", nodes[m - 1, m])

    # (iii) lattice submodularity on every cell
    add_block(
        [V[1:, :-1], V[:-1, 1:], V[:-1, :-1], V[1:, 1:]], [1.0, 1.0, -1.0, -1.0], 0.0,
        "submod", V[:-1, :-1],
    )

    # (iv) per-axis concavity; ravel("K") reads V's memory order, so the rows
    # of both axes ascend by their first node
    for name, _, _, nodes in axes:
        first, mid, last = (nodes[s:s + m - 1].ravel("K") for s in range(3))
        add_block([mid, first, last], [2.0, -1.0, -1.0], 0.0, f"conc_{name}", first)

    # (v) crossing rows
    crossings = 0
    for d, (name, line, cross, nodes) in enumerate(axes):
        across = 1 - d
        for q in range(n_grid):
            c = cross(min(q * h[across], box[across]))
            if not (-_CROSS_TIE <= c <= box[d] + _CROSS_TIE):
                raise DomainError(f"surface exits the grid box at {'xy'[across]} = {q * h[across]!r}")
            k = int(math.floor((c + _CROSS_TIE) / h[d]))
            if 1 <= k <= m - 2:
                add_block(
                    [nodes[k, q], nodes[k - 1, q], nodes[k + 1, q], nodes[k + 2, q]],
                    [1.0, -1.0, 1.0, -1.0], h[d],
                    f"cross_{name}[{line}={q},k={k}]", None,
                )
                crossings += 1
    if crossings == 0:
        warnings.warn(
            "grid hosts no crossing row; the LP is valid but its bound is trivial",
            stacklevel=2,
        )

    # (vi) objective support rows: h_d * t >= f(e_d)
    for d, (name, _, _, nodes) in enumerate(axes):
        add_block([t_col, nodes[1, 0]], [h[d], -1.0], 0.0, f"obj_{name}", None)

    row_ids = np.concatenate(rows)
    col_ids = np.concatenate(cols)
    order = np.lexsort((col_ids, row_ids))
    indptr = np.zeros(counter + 1, dtype=np.int32)
    np.cumsum(np.bincount(row_ids, minlength=counter), out=indptr[1:])
    return GridLP(
        m=m,
        h_x=h[0],
        h_y=h[1],
        n_vars=t_col + 1,
        geq_indptr=indptr,
        geq_indices=col_ids[order].astype(np.int32),
        geq_data=np.concatenate(vals)[order],
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
        grid=x[:-1].reshape(lp.m + 1, lp.m + 1),
        status="optimal",
        iterations=iterations,
    )


def grid_points(lp: GridLP) -> np.ndarray:
    """Grid nodes as an ((m+1)^2, 2) batch ordered like the LP variables."""
    n_grid = lp.m + 1
    xs = np.arange(n_grid) * lp.h_x
    ys = np.arange(n_grid) * lp.h_y
    return np.column_stack([np.repeat(xs, n_grid), np.tile(ys, n_grid)])


def restriction_check(lp: GridLP, expr: ELExpr) -> RestrictionReport:
    """Machine check of the soundness argument: a feasible function's grid restriction satisfies every row."""
    f = np.asarray(eval_at(expr, grid_points(lp)), dtype=float)
    n_grid = lp.m + 1
    t = max(f[1 * n_grid + 0] / lp.h_x, f[0 * n_grid + 1] / lp.h_y)
    z = np.concatenate([f, [t]])
    residual = lp.geq @ z - lp.geq_rhs
    violations = np.maximum(-residual, 0.0)
    worst_idx = int(np.argmax(violations))
    worst = float(violations[worst_idx])
    origin = abs(float(f[0]))
    if origin > worst:
        worst_row = "point_origin"
        worst = origin
    else:
        worst_row = lp.kinds[worst_idx]
    return RestrictionReport(
        satisfied=worst <= ROW_TOL,
        max_violation=worst,
        worst_row=worst_row,
        objective=float(t),
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def dump_lp(lp: GridLP, stream: TextIO) -> None:
    """Write the LP in the plain-text interchange format of CPLEX-style solvers.

    Variables follow the solver convention of default bounds ``0 <= var``,
    which matches how :func:`solve_lp` poses the problem.
    """
    n_grid = lp.m + 1

    def var_name(col: int) -> str:
        if col == lp.n_vars - 1:
            return "t"
        return f"f_{col // n_grid}_{col % n_grid}"

    stream.write(f"\\ grid LP lower bound ({lp.surface}), m = {lp.m}\n")
    stream.write("Minimize\n obj: t\nSubject To\n")
    stream.write(" point_origin: f_0_0 = 0\n")
    indptr, indices, data = (a.tolist() for a in (lp.geq_indptr, lp.geq_indices, lp.geq_data))
    for row in range(lp.geq_rhs.size):
        start, end = indptr[row], indptr[row + 1]
        terms = []
        for col, val in zip(indices[start:end], data[start:end]):
            sign = "+" if val >= 0 else "-"
            terms.append(f"{sign} {_fmt(abs(val))} {var_name(col)}")
        label = lp.kinds[row].replace("[", "_").replace("]", "").replace(",", "_").replace("=", "")
        stream.write(f" {label}_r{row}: {' '.join(terms)} >= {_fmt(lp.geq_rhs[row])}\n")
    stream.write("End\n")
