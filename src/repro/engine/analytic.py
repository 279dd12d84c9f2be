"""Vectorized analytic fast path for LP (2) — every candidate LP in one pass.

The per-candidate LP of the multiple-LP method has small, fixed structure.
Writing ``theta^t = coef_t * B^t`` (``coef_t`` maps a budget share to the
induced marginal), candidate ``c``'s LP is

    maximize   theta^c * (U_dc^c - U_du^c)
    subject to A_t(theta^t) <= A_c(theta^c)   for every t != c
               sum_t theta^t / coef_t <= budget
               0 <= theta^t <= min(1, coef_t * budget)

where ``A_t(x) = U_au^t + x * (U_ac^t - U_au^t)`` is the attacker's expected
utility against coverage ``x`` of type ``t`` (strictly decreasing: getting
caught hurts). Two observations turn this into a closed-form water-filling:

1. The objective is strictly increasing in ``theta^c`` alone
   (``U_dc >= 0 > U_du``), so the optimum maximizes ``theta^c`` and grants
   every other type exactly its cheapest feasible coverage.
2. Each best-response constraint is a *lower* bound on ``theta^t`` that
   rises linearly with ``theta^c``:

       theta^t >= L_t(theta^c) = a_t + b_t * theta^c,
       a_t = (U_au^t - U_au^c) / (U_au^t - U_ac^t),
       b_t = (U_ac^c - U_au^c) / (U_ac^t - U_au^t) > 0.

   Hence the minimum budget needed to support coverage ``x`` of the
   candidate,

       g(x) = x / coef_c + sum_{t != c} max(0, L_t(x)) / coef_t,

   is piecewise-linear and non-decreasing, the feasible ``x`` form an
   interval ``[0, x*]``, and ``x*`` is found *exactly* by evaluating ``g``
   at its breakpoints (where some ``L_t`` crosses zero) and interpolating
   on the crossing segment.

All |T| candidate LPs share the same data, so the whole computation stacks
into (|T| x |T|) arrays — one NumPy pass replaces |T| generic LP solves.
The result is a regular :class:`~repro.core.sse.SSESolution` with the same
feasibility accounting and tie-breaking as the LP path, and the property
suite cross-validates objective values, best responses, and best-response
marginals against scipy/HiGHS.

Equivalence caveat: only the *best-response* marginal is pinned by the
optimum. The other types' marginals are degenerate (the objective ignores
them, the budget constraint is an inequality), so LP vertices may spread
slack budget over them arbitrarily while this solver grants each exactly
its minimal supporting coverage. Equilibrium value, best response, and
feasibility coincide; the audit probability committed to a
*non-best-response* alert can differ between backends — both choices are
optimal, but they are different optima.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.core.payoffs import PayoffMatrix
from repro.core.sse import (
    _TIE_TOL,
    SSESolution,
    build_certificate,
    select_candidate,
)

#: Feasibility slack, matching the LP path's tolerance scale.
_FEAS_TOL = 1e-9


def solve_multiple_lp_analytic(
    budget: float,
    coefficient: Mapping[int, float],
    payoffs: Mapping[int, PayoffMatrix],
) -> SSESolution:
    """Solve the multiple-LP SSE analytically, all candidates stacked.

    Drop-in replacement for the per-candidate LP loop of
    :func:`repro.core.sse.solve_multiple_lp`: same inputs, same
    :class:`~repro.core.sse.SSESolution` semantics (feasibility counters,
    strong-Stackelberg tie-breaking), computed without a generic LP solver.
    """
    type_ids = sorted(coefficient)
    n = len(type_ids)
    coef = np.array([float(coefficient[t]) for t in type_ids])
    if np.any(coef < 0) or not np.all(np.isfinite(coef)):
        raise ModelError("theta coefficients must be finite and non-negative")
    u_dc = np.array([payoffs[t].u_dc for t in type_ids])
    u_du = np.array([payoffs[t].u_du for t in type_ids])
    u_ac = np.array([payoffs[t].u_ac for t in type_ids])
    u_au = np.array([payoffs[t].u_au for t in type_ids])
    gap = u_ac - u_au  # strictly negative under the sign conventions

    # Budget share per unit of coverage; a zero coefficient pins theta at 0
    # (its budget shares buy no coverage), encoded as a zero inverse.
    positive = coef > 0.0
    inv_coef = np.where(positive, 1.0 / np.where(positive, coef, 1.0), 0.0)

    # Row c, column t: theta^t >= a[c, t] + b[c, t] * theta^c  (t != c).
    a = (u_au[None, :] - u_au[:, None]) / (-gap)[None, :]
    b = gap[:, None] / gap[None, :]
    off = ~np.eye(n, dtype=bool)

    # Box feasibility caps on theta^c: the candidate's own bound, plus for
    # every other type the point where its required coverage would exceed
    # what its box allows (1, or 0 when its coefficient cannot buy any).
    own_cap = np.minimum(1.0, coef * budget)
    theta_box = np.where(positive, 1.0, 0.0)
    cross_cap = np.where(off, (theta_box[None, :] - a) / b, np.inf)
    x_cap = np.minimum(own_cap, cross_cap.min(axis=1, initial=np.inf))

    feasible = x_cap >= -_FEAS_TOL
    x_cap = np.clip(x_cap, 0.0, None)

    # Breakpoints of g: where each support requirement L_t activates.
    act = np.where(off & (a < 0.0), -a / b, 0.0)
    act = np.clip(act, 0.0, x_cap[:, None])
    points = np.sort(
        np.concatenate([np.zeros((n, 1)), act, x_cap[:, None]], axis=1), axis=1
    )

    # g at every breakpoint, every candidate at once: (n, n + 2).
    support = np.clip(a[:, None, :] + b[:, None, :] * points[:, :, None], 0.0, None)
    support = np.where(off[:, None, :], support, 0.0)
    g = points * inv_coef[:, None] + np.einsum("ckt,t->ck", support, inv_coef)

    feasible &= g[:, 0] <= budget + _FEAS_TOL

    # Largest breakpoint still within budget, then interpolate on the
    # crossing segment (g is linear between consecutive breakpoints).
    n_points = points.shape[1]
    k = np.clip(np.sum(g <= budget + _FEAS_TOL, axis=1) - 1, 0, n_points - 1)
    rows = np.arange(n)
    x_lo, g_lo = points[rows, k], g[rows, k]
    k_next = np.minimum(k + 1, n_points - 1)
    x_hi, g_hi = points[rows, k_next], g[rows, k_next]
    dg = g_hi - g_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(dg > 0.0, (budget - g_lo) * (x_hi - x_lo) / dg, 0.0)
    x_star = np.where(
        k == n_points - 1, x_lo, np.clip(x_lo + step, x_lo, x_hi)
    )
    x_star = np.where(feasible, x_star, 0.0)

    auditor = u_du + x_star * (u_dc - u_du)
    attacker = u_au + x_star * gap

    winner = select_candidate(
        [
            (type_ids[i], float(auditor[i]), float(attacker[i]))
            for i in range(n)
            if feasible[i]
        ]
    )
    if winner is None:
        # Unreachable in a well-formed game: the all-zero allocation is
        # always feasible for the type maximizing the uncovered payoff.
        raise ModelError("no feasible best-response LP; game is ill-formed")
    best = type_ids.index(winner)

    thetas = np.clip(a[best] + b[best] * x_star[best], 0.0, 1.0)
    thetas[best] = x_star[best]
    thetas = np.where(positive, thetas, 0.0)
    allocations = thetas * inv_coef
    return SSESolution(
        thetas={t: float(thetas[i]) for i, t in enumerate(type_ids)},
        allocations={t: float(allocations[i]) for i, t in enumerate(type_ids)},
        best_response=winner,
        auditor_utility=float(auditor[best]),
        attacker_utility=float(attacker[best]),
        lps_solved=n,
        lps_feasible=int(np.count_nonzero(feasible)),
        certificate=build_certificate(
            budget,
            coefficient,
            payoffs,
            {
                t: float(auditor[i]) if feasible[i] else None
                for i, t in enumerate(type_ids)
            },
            winner,
        ),
    )


@dataclass(frozen=True)
class GridSolution:
    """One stacked analytic solve over a (rate-column x budget) grid.

    Everything :func:`solve_multiple_lp_analytic` derives for a single
    state, evaluated for ``K`` coefficient vectors ("columns") crossed with
    ``N`` budgets in one NumPy pass. The per-candidate water-filling
    geometry splits into a budget-independent part shared by every column
    (the bound lines ``a``/``b``, the coverage breakpoints ``xs`` and the
    box feasibility ``feasible_cap`` — pure payoff algebra, since theta
    coefficients are strictly positive) and a per-column part (``g``
    evaluated at the breakpoints, weighted by that column's reciprocal
    coefficients). The compiled policy table serves *exact* per-state
    solutions from ``g`` alone; the per-grid-point values and winners
    certify its cells.

    Attributes
    ----------
    type_ids:
        Sorted alert types; every candidate axis is ordered by this.
    a, b:
        Best-response lower-bound lines, shape ``(n, n)`` (row: candidate).
    xs:
        Candidate coverage breakpoints, shape ``(n, n + 2)``, ascending.
    feasible_cap:
        Shape ``(n,)``; whether each candidate's budget-independent
        coverage cap admits any coverage at all.
    g:
        Budget needed to support each coverage breakpoint, per column:
        shape ``(K, n, n + 2)``; ``g[:, :, 0]`` is the candidate's entry
        cost (budget needed for its cheapest feasible allocation).
    x_star:
        Optimal candidate coverage at each grid state, shape ``(K, n, N)``
        (0 where the candidate is infeasible).
    values:
        Auditor utility at ``x_star``, ``-inf`` where the candidate is
        infeasible, shape ``(K, n, N)``.
    winners:
        Canonical winning-candidate *index* per grid state (same
        tie-breaking as :func:`~repro.core.sse.select_candidate`), shape
        ``(K, N)``.
    """

    type_ids: tuple[int, ...]
    a: np.ndarray
    b: np.ndarray
    xs: np.ndarray
    feasible_cap: np.ndarray
    g: np.ndarray
    x_star: np.ndarray
    values: np.ndarray
    winners: np.ndarray


def _breakpoint_index(g: np.ndarray, within: np.ndarray) -> np.ndarray:
    """Last breakpoint of each ``g`` row at or below each threshold.

    ``g`` has shape ``(..., m)`` and ``within`` is an ascending threshold
    axis of shape ``(N,)``; the result, shape ``(..., N)``, is
    ``clip(#{k : g[..., k] <= within[i]} - 1, 0, m - 1)``. Since
    ``within`` is sorted, ``g[..., k] <= within[i]`` holds exactly when
    ``i`` is at or past the left insertion point of ``g[..., k]``, so a
    per-row histogram of insertion points, accumulated along the
    threshold axis, counts the same breakpoints as the full
    ``(..., m, N)`` comparison — whatever the order of ``g`` along ``k``
    — without materializing it.
    """
    m = g.shape[-1]
    n_within = within.shape[0]
    first = np.searchsorted(within, g, side="left").reshape(-1, m)
    n_rows = first.shape[0]
    first += (np.arange(n_rows) * (n_within + 1))[:, None]
    counts = np.bincount(first.ravel(), minlength=n_rows * (n_within + 1))
    below = counts.reshape(n_rows, n_within + 1).cumsum(axis=1)[:, :n_within]
    return np.clip(below - 1, 0, m - 1).reshape(g.shape[:-1] + (n_within,))


def solve_grid_analytic(
    budgets: np.ndarray,
    coefficients: np.ndarray,
    payoffs: Mapping[int, PayoffMatrix],
    type_ids: Sequence[int] | None = None,
) -> GridSolution:
    """Solve the multiple-LP SSE over a whole state grid in one pass.

    ``budgets`` is the ascending budget axis (shape ``(N,)``);
    ``coefficients`` holds one strictly-positive theta-coefficient vector
    per rate column (shape ``(K, n)``, columns ordered by sorted type id).
    The result covers all ``K x N`` states. Memory scales as
    ``K * n * N``; stream the columns in blocks for large grids (each
    column's solution is independent of the others).
    """
    if type_ids is None:
        type_ids = sorted(payoffs)
    type_ids = tuple(type_ids)
    n = len(type_ids)
    budgets = np.asarray(budgets, dtype=float)
    coef = np.asarray(coefficients, dtype=float)
    if coef.ndim != 2 or coef.shape[1] != n:
        raise ModelError(
            f"coefficients must have shape (K, {n}), got {coef.shape}"
        )
    if np.any(coef <= 0.0) or not np.all(np.isfinite(coef)):
        raise ModelError("grid theta coefficients must be finite and positive")
    if budgets.ndim != 1 or budgets.size < 1 or not np.all(np.diff(budgets) > 0):
        raise ModelError("budgets must be a strictly increasing 1-D grid")

    u_dc = np.array([payoffs[t].u_dc for t in type_ids])
    u_du = np.array([payoffs[t].u_du for t in type_ids])
    u_au = np.array([payoffs[t].u_au for t in type_ids])
    gap = np.array([payoffs[t].u_ac for t in type_ids]) - u_au

    # Budget-independent geometry (coefficients are positive, so every
    # theta box is [0, 1] and the cross caps are pure payoff algebra).
    a = (u_au[None, :] - u_au[:, None]) / (-gap)[None, :]
    b = gap[:, None] / gap[None, :]
    off = ~np.eye(n, dtype=bool)
    cross_cap = np.where(off, (1.0 - a) / b, np.inf)
    x_cap_raw = np.minimum(1.0, cross_cap.min(axis=1, initial=np.inf))
    feasible_cap = x_cap_raw >= -_FEAS_TOL
    x_cap = np.clip(x_cap_raw, 0.0, None)

    act = np.where(off & (a < 0.0), -a / b, 0.0)
    act = np.clip(act, 0.0, x_cap[:, None])
    xs = np.sort(
        np.concatenate([np.zeros((n, 1)), act, x_cap[:, None]], axis=1), axis=1
    )
    m = xs.shape[1]

    # Support tensor S[c, k, t]: coverage type t must carry when candidate
    # c sits at breakpoint xs[c, k] (own coverage on the diagonal). One
    # einsum against each column's reciprocal coefficients yields g.
    support = np.clip(a[:, None, :] + b[:, None, :] * xs[:, :, None], 0.0, None)
    support = np.where(off[:, None, :], support, 0.0)
    diag = np.arange(n)
    support[diag, :, diag] = xs  # own coverage on the diagonal
    inv_coef = 1.0 / coef  # (K, n)
    g = np.einsum("ckt,jt->jck", support, inv_coef)  # (K, n, m)

    within = budgets + _FEAS_TOL
    feasible = feasible_cap[None, :, None] & (
        g[:, :, 0, None] <= within[None, None, :]
    )

    # Largest breakpoint within budget, then segment interpolation — the
    # same water-filling inversion as the single-state path, broadcast.
    idx = _breakpoint_index(g, within)  # (K, n, N)
    idx_next = np.minimum(idx + 1, m - 1)
    x_lo = xs[diag[:, None], idx]
    x_hi = xs[diag[:, None], idx_next]
    g_lo = np.take_along_axis(g, idx, axis=2)
    dg = np.take_along_axis(g, idx_next, axis=2) - g_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(
            dg > 0.0, (budgets[None, None, :] - g_lo) * (x_hi - x_lo) / dg, 0.0
        )
    x_star = np.where(idx == m - 1, x_lo, np.clip(x_lo + step, x_lo, x_hi))
    x_star = np.where(feasible, x_star, 0.0)

    values = np.where(
        feasible,
        u_du[None, :, None] + x_star * (u_dc - u_du)[None, :, None],
        -np.inf,
    )
    attacker = u_au[None, :, None] + x_star * gap[None, :, None]

    # select_candidate, vectorized: value ties within _TIE_TOL, then least
    # attacker utility within _TIE_TOL, then smallest type id (= smallest
    # index, since type_ids is sorted).
    best = values.max(axis=1, keepdims=True)
    tied = values >= best - _TIE_TOL
    att_masked = np.where(tied, attacker, np.inf)
    least = att_masked.min(axis=1, keepdims=True)
    tied &= att_masked <= least + _TIE_TOL
    winners = tied.argmax(axis=1).astype(np.int16)

    return GridSolution(
        type_ids=type_ids,
        a=a,
        b=b,
        xs=xs,
        feasible_cap=feasible_cap,
        g=g,
        x_star=x_star,
        values=values,
        winners=winners,
    )


def refine_candidate_solution(
    candidate: int,
    budget: float,
    coefficient: Mapping[int, float],
    payoffs: Mapping[int, PayoffMatrix],
) -> SSESolution | None:
    """Exact water-filling for one known candidate — the cache's hit path.

    When the error-bounded cache certifies that a cached solution's
    winning candidate is still (near-)optimal at a queried state, the
    equilibrium there does not need the full stacked solve: re-running the
    closed-form water-filling for that single candidate at the *queried*
    budget and coefficients yields the exact per-candidate optimum in
    ``O(|T|)`` scalar work. Returns ``None`` when the candidate is
    infeasible at this state (the caller then falls back to a full solve).

    The returned solution reports ``lps_solved == lps_feasible == 1`` —
    the actual work performed — and carries no certificate (refined
    solutions are served, never cached).
    """
    type_ids = sorted(coefficient)
    pay_c = payoffs[candidate]
    coef_c = float(coefficient[candidate])
    gap_c = pay_c.u_ac - pay_c.u_au

    # Lower-bound lines theta^t >= a_t + b_t * x and the candidate's cap.
    lines: list[tuple[int, float, float]] = []
    x_cap = min(1.0, coef_c * budget) if coef_c > 0.0 else 0.0
    for t in type_ids:
        if t == candidate:
            continue
        pay_t = payoffs[t]
        gap_t = pay_t.u_ac - pay_t.u_au
        a_t = (pay_t.u_au - pay_c.u_au) / (-gap_t)
        b_t = gap_c / gap_t
        lines.append((t, a_t, b_t))
        box = 1.0 if coefficient[t] > 0.0 else 0.0
        x_cap = min(x_cap, (box - a_t) / b_t)
    if x_cap < -_FEAS_TOL:
        return None
    x_cap = max(0.0, x_cap)

    inv = {
        t: 1.0 / coefficient[t] if coefficient[t] > 0.0 else 0.0
        for t in type_ids
    }

    def g(x: float) -> float:
        total = x * (inv[candidate] if coef_c > 0.0 else 0.0)
        for t, a_t, b_t in lines:
            total += max(0.0, a_t + b_t * x) * inv[t]
        return total

    if g(0.0) > budget + _FEAS_TOL:
        return None

    points = sorted(
        {0.0, x_cap}
        | {
            min(x_cap, max(0.0, -a_t / b_t))
            for _, a_t, b_t in lines
            if a_t < 0.0
        }
    )
    x_star = 0.0
    for lo, hi in zip(points, points[1:]):
        g_lo, g_hi = g(lo), g(hi)
        if g_hi <= budget + _FEAS_TOL:
            x_star = hi
            continue
        if g_hi > g_lo:
            x_star = min(
                hi, max(lo, lo + (budget - g_lo) * (hi - lo) / (g_hi - g_lo))
            )
        break
    else:
        x_star = points[-1] if points else 0.0

    thetas = {}
    for t, a_t, b_t in lines:
        theta = min(1.0, max(0.0, a_t + b_t * x_star))
        thetas[t] = theta if coefficient[t] > 0.0 else 0.0
    thetas[candidate] = x_star
    return SSESolution(
        thetas=thetas,
        allocations={t: thetas[t] * inv[t] for t in type_ids},
        best_response=candidate,
        auditor_utility=pay_c.auditor_utility(x_star),
        attacker_utility=pay_c.attacker_utility(x_star),
        lps_solved=1,
        lps_feasible=1,
    )
