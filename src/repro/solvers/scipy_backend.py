"""SciPy (HiGHS) backend for :class:`~repro.solvers.problem.LinearProgram`.

SciPy's ``linprog`` minimizes, so the canonical maximization objective is
negated on the way in and the optimum negated on the way back. SciPy is
imported on the first solve: serving processes, whose sessions decide
through analytic solves, tables and caches, never load it.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.problem import LinearProgram
from repro.solvers.result import LPSolution, SolveStatus

BACKEND_NAME = "scipy"

_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.NUMERICAL_ERROR,
}


def load() -> None:
    """Import SciPy's solver now rather than on the first solve."""
    from scipy.optimize import linprog  # noqa: F401


def solve(program: LinearProgram, **_ignored: object) -> LPSolution:
    """Solve ``program`` with ``scipy.optimize.linprog`` (HiGHS)."""
    from scipy.optimize import linprog

    result = linprog(
        c=-program.c,
        A_ub=program.a_ub if program.a_ub.shape[0] else None,
        b_ub=program.b_ub if program.b_ub.shape[0] else None,
        A_eq=program.a_eq if program.a_eq.shape[0] else None,
        b_eq=program.b_eq if program.b_eq.shape[0] else None,
        bounds=list(program.bounds),
        method="highs",
    )
    status = _STATUS_MAP.get(result.status, SolveStatus.NUMERICAL_ERROR)
    if status is not SolveStatus.OPTIMAL:
        return LPSolution(status, backend=BACKEND_NAME,
                          iterations=int(getattr(result, "nit", 0) or 0),
                          message=str(getattr(result, "message", "") or ""))
    return LPSolution(
        SolveStatus.OPTIMAL,
        x=np.asarray(result.x, dtype=float),
        objective=float(-result.fun),
        iterations=int(getattr(result, "nit", 0) or 0),
        backend=BACKEND_NAME,
    )
