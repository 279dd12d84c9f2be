"""Backend lookup and cross-checking utilities."""

from __future__ import annotations

from typing import Callable, Protocol

from repro.errors import (
    InfeasibleProblemError,
    SolverConvergenceError,
    SolverError,
    UnboundedProblemError,
)
from repro.solvers import scipy_backend, simplex
from repro.solvers.problem import LinearProgram
from repro.solvers.result import LPSolution, SolveStatus


class SolverBackend(Protocol):
    """Callable signature every backend satisfies."""

    def __call__(self, program: LinearProgram, **options: object) -> LPSolution:
        ...


_BACKENDS: dict[str, Callable[..., LPSolution]] = {
    simplex.BACKEND_NAME: simplex.solve,
    scipy_backend.BACKEND_NAME: scipy_backend.solve,
}

DEFAULT_BACKEND = scipy_backend.BACKEND_NAME

#: The vectorized analytic backend (:mod:`repro.engine.analytic`). It is a
#: *structured* backend: it solves the SSE multiple-LP family (LP (2)) as
#: stacked arrays in one pass instead of via generic LP machinery, so only
#: the game-theoretic layers dispatch on it. Generic :class:`LinearProgram`
#: solves requested under this name fall back to the backend named in
#: ``_STRUCTURED_FALLBACK`` (HiGHS, the analytic path's cross-check partner).
ANALYTIC_BACKEND = "analytic"

#: The fictitious-play backend (:mod:`repro.learning.fictitious_play`). Also
#: structured: it reaches the SSE through learning dynamics plus exact
#: candidate refinement rather than generic LP solves, so generic programs
#: requested under this name fall back to HiGHS as well.
FICTITIOUS_PLAY_BACKEND = "fictitious_play"

_STRUCTURED_FALLBACK = {
    ANALYTIC_BACKEND: scipy_backend.BACKEND_NAME,
    FICTITIOUS_PLAY_BACKEND: scipy_backend.BACKEND_NAME,
}

#: One-line per-backend descriptions for the ``repro backends`` CLI.
BACKEND_DESCRIPTIONS: dict[str, str] = {
    scipy_backend.BACKEND_NAME: (
        "generic LP backend — scipy.optimize.linprog (HiGHS); the default"
    ),
    simplex.BACKEND_NAME: (
        "generic LP backend — pure-python Bland-rule simplex cross-check"
    ),
    ANALYTIC_BACKEND: (
        "structured SSE backend — vectorized closed-form water-filling "
        f"(generic LPs fall back to '{scipy_backend.BACKEND_NAME}')"
    ),
    FICTITIOUS_PLAY_BACKEND: (
        "structured SSE backend — damped fictitious-play dynamics with exact "
        f"candidate refinement (generic LPs fall back to "
        f"'{scipy_backend.BACKEND_NAME}')"
    ),
}


def available_backends() -> tuple[str, ...]:
    """Names of the registered backends (generic and structured)."""
    return tuple(sorted((*_BACKENDS, *_STRUCTURED_FALLBACK)))


def get_backend(name: str = DEFAULT_BACKEND) -> Callable[..., LPSolution]:
    """Look up a generic-LP backend by ``name``.

    ``"scipy"`` and ``"simplex"`` resolve to themselves; the structured
    ``"analytic"`` backend resolves to its generic fallback (``"scipy"``)
    because arbitrary linear programs carry none of the SSE structure the
    analytic solver exploits.
    """
    try:
        return _BACKENDS[_STRUCTURED_FALLBACK.get(name, name)]
    except KeyError:
        raise SolverError(
            f"unknown solver backend {name!r}; available: {available_backends()}"
        ) from None


def warm_up(name: str = DEFAULT_BACKEND) -> None:
    """Load what the named backend imports lazily, before it is timed.

    SciPy is imported on the first HiGHS solve (so processes that never
    solve a generic LP never load it); a benchmark that times solves
    calls this first, so the import is not billed to the first one.
    """
    if _STRUCTURED_FALLBACK.get(name, name) == scipy_backend.BACKEND_NAME:
        scipy_backend.load()


def solve(
    program: LinearProgram,
    backend: str = DEFAULT_BACKEND,
    raise_on_failure: bool = True,
    **options: object,
) -> LPSolution:
    """Solve ``program`` with the named backend.

    With ``raise_on_failure`` (the default) a non-optimal status is converted
    into the matching :mod:`repro.errors` exception, so call sites that
    expect feasibility can stay linear.
    """
    solution = get_backend(backend)(program, **options)
    if raise_on_failure and not solution.status.is_success:
        detail = f": {solution.message}" if solution.message else ""
        if solution.status is SolveStatus.INFEASIBLE:
            raise InfeasibleProblemError(
                f"LP infeasible (backend={backend}){detail}"
            )
        if solution.status is SolveStatus.UNBOUNDED:
            raise UnboundedProblemError(
                f"LP unbounded (backend={backend}){detail}"
            )
        raise SolverConvergenceError(
            f"LP solve failed with status {solution.status.value} "
            f"(backend={backend}){detail}"
        )
    return solution


def cross_check(
    program: LinearProgram,
    tol: float = 1e-6,
) -> tuple[LPSolution, LPSolution]:
    """Solve with both backends and assert they agree on the optimum.

    Returns ``(scipy_solution, simplex_solution)``. Only objective values are
    compared — LPs routinely have multiple optimal vertices.
    """
    first = solve(program, backend=scipy_backend.BACKEND_NAME, raise_on_failure=False)
    second = solve(program, backend=simplex.BACKEND_NAME, raise_on_failure=False)
    if first.status != second.status:
        raise SolverError(
            "backend status disagreement: "
            f"scipy={first.status.value} simplex={second.status.value}"
        )
    if first.status.is_success:
        gap = abs(first.objective - second.objective)
        scale = max(1.0, abs(first.objective))
        if gap > tol * scale:
            raise SolverError(
                f"backend objective disagreement: scipy={first.objective} "
                f"simplex={second.objective}"
            )
    return first, second
