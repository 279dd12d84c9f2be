"""Precompiled certified policy tables: the zero-solve steady-state path.

Within one audit cycle the game state that reaches the SSE solver is
``(remaining budget, future-alert rates)`` — and the rate vector is not
free: it is a deterministic step function of the (rollback-effective) query
time, changing only at historical arrival times
(:meth:`~repro.stats.estimator.FutureAlertEstimator.rate_trajectory`). The
reachable region is therefore a *one-dimensional family of rate columns*
crossed with a budget interval, which is small enough to solve exhaustively
ahead of time:

* **Columns.** One column per trajectory row, carrying the row's exact rate
  vector. The certificate's rate sensitivities
  (``L_B * V_t * |r'(lambda_t)| / r^2``, from
  :func:`~repro.stats.poisson.expected_reciprocal_slope`) price a certified
  rate step at ``error_budget / (2 * L_rate)`` — nanoscale for any useful
  error budget — so the Lipschitz bound effectively forces *exact* column
  placement. The discrete trajectory makes that affordable: no interior
  rate quantization exists to certify away.
* **Budget grid.** The Lipschitz-certified step ``error_budget / (2 * L_B)``
  (slope ``max_t coef_t * span_t``, the certificate's ``lipschitz_budget``)
  is likewise far below any practical width, so the compiler clamps the
  step to ``span / max_budget_cells`` and instead certifies each realized
  cell *exactly*: every candidate's optimal value is nondecreasing in the
  budget, so the winner at a cell's low edge stays the winner across the
  whole cell whenever its value there dominates every rival's value at the
  *high* edge by a guard above the solver's tie window. Certified cells
  introduce **zero** value error — the table stores the winner's identity,
  and serving re-evaluates that winner's closed-form water-filling at the
  *queried* budget, which is the exact optimum (the same mathematics
  :func:`~repro.engine.analytic.solve_multiple_lp_analytic` would return).
  Uncertified cells (winner handoffs, tie regions) are marked invalid and
  fall back to the engine's cache path.

The grid is solved by :func:`~repro.engine.analytic.solve_grid_analytic`
in small blocks of rate columns, so a compile's working set stays near a
few megabytes whatever the trajectory length; each block is certified and
packed before the next is solved. The compiled artifact keeps only what
serving reads: per cell, the certified flag and the winner, and per
column, the water-filling geometry ``g`` and reciprocal coefficients.
:meth:`~repro.engine.stream.BatchAuditEngine.process_stream` answers an
in-region state with index arithmetic plus that closed-form water-filling,
or :meth:`CompiledPolicy.scan` on an uncertified cell; out-of-region
states (budget outside the compiled span, effective time past the
compiled columns) fall back to the cache path and mark the table for
recompilation on cycle close.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from repro.errors import ExperimentError
from repro.core.game import SAGConfig
from repro.core.sse import _TIE_TOL
from repro.engine.analytic import solve_grid_analytic
from repro.engine.cache import DEFAULT_ERROR_BUDGET
from repro.stats.estimator import RollbackEstimator
from repro.stats.poisson import PoissonReciprocalMoment

#: Winner-stability guard: certified cells keep the winner's lead above the
#: solver's canonical tie window by an order of magnitude, so tie-set
#: membership can never disagree with a direct solve inside a valid cell.
STABILITY_GUARD = 10.0 * _TIE_TOL

#: Rate columns per block of the grid solve. A block's largest temporaries
#: hold ``block * n_types * n_grid_points`` floats: about 1 MB each for
#: seven types on the default 257-point budget grid.
_BLOCK_COLUMNS = 64


@dataclass(frozen=True)
class TableRegion:
    """The reachable-region estimate a table was compiled for."""

    budget_floor: float
    budget_ceiling: float
    budget_cells: int
    budget_step: float
    columns: int
    total_columns: int
    truncated: bool
    lipschitz_budget: float
    lipschitz_budget_step: float
    lipschitz_rate_step: float


class CompiledPolicy:
    """A certified policy table for one game configuration.

    Built by :class:`PolicyTableCompiler`. Per compiled rate column it
    holds the water-filling geometry (``g``, ``inv_coef``) and per budget
    cell the certified flag (``valid``) and the winning candidate
    (``winner``); together with the shared lines ``a``/``b`` and
    breakpoints ``xs`` they give the *exact* SSE at any in-region state.
    """

    def __init__(
        self,
        *,
        type_ids: tuple[int, ...],
        region: TableRegion,
        boundaries: np.ndarray,
        rates: np.ndarray,
        totals: np.ndarray,
        payoff_rows: dict[str, tuple[float, ...]],
        costs: tuple[float, ...],
        feasible_cap: tuple[bool, ...],
        inv_coef: list[tuple[float, ...]],
        a: tuple[tuple[float, ...], ...],
        b: tuple[tuple[float, ...], ...],
        xs: tuple[tuple[float, ...], ...],
        g: list[tuple[tuple[float, ...], ...]],
        valid: list[bytes],
        winner: list[bytes],
        compile_seconds: float,
    ) -> None:
        self.type_ids = type_ids
        self.region = region
        self.boundaries = boundaries
        self.rates = rates
        self.totals = totals
        self.u_dc = payoff_rows["u_dc"]
        self.u_du = payoff_rows["u_du"]
        self.u_ac = payoff_rows["u_ac"]
        self.u_au = payoff_rows["u_au"]
        self.gap = payoff_rows["gap"]
        self.span = payoff_rows["span"]
        self.costs = costs
        self.feasible_cap = feasible_cap
        self.inv_coef = inv_coef
        self.a = a
        self.b = b
        self.xs = xs
        self.g = g
        self.valid = valid
        self.winner = winner
        self.compile_seconds = compile_seconds
        self.index_of = {t: i for i, t in enumerate(type_ids)}

    def scan(self, column: int, budget: float) -> tuple[int, float] | None:
        """Exact winner + coverage by scanning every candidate.

        Used on uncertified cells, where the stored single winner cannot be
        trusted across the whole budget cell. Evaluates each feasible
        candidate's water-filling at the queried budget and applies the
        solver's canonical two-phase tie-break (value within ``_TIE_TOL``,
        then least attacker utility, then smallest type id) — the same
        selection :func:`~repro.core.sse.select_candidate` makes. Returns
        ``None`` when no candidate is feasible at this state.
        """
        gcol = self.g[column]
        in_budget = budget + 1e-9
        u_du = self.u_du
        u_au = self.u_au
        gap = self.gap
        span = self.span
        xs = self.xs
        candidates: list[int] = []
        values: list[float] = []
        attackers: list[float] = []
        coverages: list[float] = []
        for c in range(len(self.type_ids)):
            if not self.feasible_cap[c]:
                continue
            gs = gcol[c]
            if gs[0] > in_budget:
                continue
            xc = xs[c]
            m = len(gs)
            k = 0
            while k + 1 < m and gs[k + 1] <= in_budget:
                k += 1
            if k == m - 1:
                x = xc[k]
            else:
                g_lo = gs[k]
                dg = gs[k + 1] - g_lo
                x_lo = xc[k]
                if dg <= 0.0:
                    x = x_lo
                else:
                    x_hi = xc[k + 1]
                    x = x_lo + (budget - g_lo) * (x_hi - x_lo) / dg
                    if x < x_lo:
                        x = x_lo
                    elif x > x_hi:
                        x = x_hi
            candidates.append(c)
            values.append(u_du[c] + x * span[c])
            attackers.append(u_au[c] + x * gap[c])
            coverages.append(x)
        if not candidates:
            return None
        best = max(values)
        cut = best - _TIE_TOL
        least = min(a for a, v in zip(attackers, values) if v >= cut)
        att_cut = least + _TIE_TOL
        for i, c in enumerate(candidates):
            if values[i] >= cut and attackers[i] <= att_cut:
                return c, coverages[i]
        return None  # pragma: no cover - the selection above always lands


class PolicyTableCompiler:
    """Compiles a :class:`CompiledPolicy` for one game + estimator pair.

    Parameters
    ----------
    config:
        Game configuration. Table mode covers the classic closed-form
        signaling pipeline: ``robust_margin`` must be 0, and with signaling
        enabled the method must be ``"closed_form"`` with every payoff
        satisfying the Theorem 3 condition.
    estimator:
        The cycle's rollback estimator; its base history defines the rate
        trajectory (and its threshold the rollback row totals).
    error_budget:
        Certified game-value error budget (defaults to the cache's
        ``DEFAULT_ERROR_BUDGET``). Valid cells serve exact solutions, so
        the realized error is 0; the budget sizes the Lipschitz step
        diagnostics and the stability guard.
    max_budget_cells:
        Practical clamp on the budget grid resolution.
    max_columns:
        Clamp on compiled trajectory columns; alerts whose effective time
        lands beyond the compiled prefix miss the table (the engine
        recompiles with full coverage on cycle close).
    budget_floor:
        Lower edge of the compiled budget span. States below it miss the
        table (budget exhaustion below the grid floor).
    moment:
        Optional shared reciprocal-moment memo.
    """

    def __init__(
        self,
        config: SAGConfig,
        estimator: RollbackEstimator,
        *,
        error_budget: float | None = None,
        max_budget_cells: int = 256,
        max_columns: int = 16384,
        budget_floor: float = 0.0,
        moment: PoissonReciprocalMoment | None = None,
    ) -> None:
        if config.robust_margin > 0:
            raise ExperimentError(
                "policy tables cover the classic OSSP only; robust_margin "
                "must be 0"
            )
        if config.signaling_enabled:
            if config.signaling_method != "closed_form":
                raise ExperimentError(
                    "policy tables require signaling_method='closed_form'"
                )
            bad = [
                t
                for t in sorted(config.payoffs)
                if not config.payoffs[t].satisfies_theorem3_condition()
            ]
            if bad:
                raise ExperimentError(
                    "policy tables require the Theorem 3 payoff condition "
                    f"for every type; violated by {bad}"
                )
        if not 0.0 <= budget_floor < config.budget:
            raise ExperimentError(
                f"budget_floor must lie in [0, {config.budget}), "
                f"got {budget_floor}"
            )
        if max_budget_cells < 1 or max_columns < 1:
            raise ExperimentError(
                "max_budget_cells and max_columns must be positive"
            )
        self._config = config
        self._estimator = estimator
        self._error_budget = (
            DEFAULT_ERROR_BUDGET if error_budget is None else float(error_budget)
        )
        if self._error_budget <= 0:
            raise ExperimentError(
                f"error_budget must be positive, got {self._error_budget}"
            )
        self._max_budget_cells = int(max_budget_cells)
        self._max_columns = int(max_columns)
        self._budget_floor = float(budget_floor)
        self._moment = moment if moment is not None else PoissonReciprocalMoment()

    @property
    def error_budget(self) -> float:
        """The certified game-value error budget."""
        return self._error_budget

    def compile(self) -> CompiledPolicy:
        """Solve the reachable region and pack the table."""
        started = _time.perf_counter()
        config = self._config
        base = self._estimator.base
        type_ids = base.type_ids
        n = len(type_ids)
        costs = tuple(float(config.costs[t]) for t in type_ids)

        boundaries, rates = base.rate_trajectory()
        total_columns = rates.shape[0]
        n_columns = min(total_columns, self._max_columns)
        # Row totals in the estimator's summation order, for the rollback
        # rich/poor split (bitwise identical to total_remaining_mean).
        totals = np.zeros(total_columns)
        for i in range(n):
            totals += rates[:, i]

        # Per-rate work runs once per distinct rate of each type: a type's
        # rate repeats across the columns where only other types change.
        moment = self._moment
        coef = np.empty((n_columns, n))
        distinct_rates = []
        for i in range(n):
            distinct, inverse = np.unique(
                rates[:n_columns, i], return_inverse=True
            )
            coef[:, i] = np.array(
                [moment(rate) / costs[i] for rate in distinct]
            )[inverse]
            distinct_rates.append(distinct)
        span = np.array(
            [config.payoffs[t].u_dc - config.payoffs[t].u_du for t in type_ids]
        )
        lipschitz_budget = float((coef * span[None, :]).max()) if n_columns else 0.0
        slope_bound = 0.0
        for i, distinct in enumerate(distinct_rates):
            for rate in distinct:
                r = moment(rate)
                slope_bound = max(
                    slope_bound,
                    lipschitz_budget * costs[i] * abs(moment.slope(rate)) / (r * r),
                )

        # Grid-step selection from the Lipschitz bounds: the certified-exact
        # steps are error_budget / (2 L); both are clamped to what is
        # practical (the budget grid to max_budget_cells; the rate axis to
        # the exact trajectory rows, since no coarser step certifies).
        floor = self._budget_floor
        ceiling = float(config.budget)
        budget_span = ceiling - floor
        lip_budget_step = (
            self._error_budget / (2.0 * lipschitz_budget)
            if lipschitz_budget > 0
            else budget_span
        )
        lip_rate_step = (
            self._error_budget / (2.0 * slope_bound)
            if slope_bound > 0
            else float("inf")
        )
        if budget_span > 0:
            width = max(lip_budget_step, budget_span / self._max_budget_cells)
            n_cells = min(
                self._max_budget_cells, max(1, int(np.ceil(budget_span / width)))
            )
        else:
            n_cells = 1
        budgets = np.linspace(floor, ceiling, n_cells + 1)
        step = budgets[1] - budgets[0] if n_cells >= 1 and budget_span > 0 else 1.0

        guard = max(STABILITY_GUARD, self._error_budget)
        feasible_cap: tuple[bool, ...] = ()
        a_rows: tuple[tuple[float, ...], ...] = ()
        b_rows: tuple[tuple[float, ...], ...] = ()
        xs_rows: tuple[tuple[float, ...], ...] = ()
        g_list: list[tuple[tuple[float, ...], ...]] = []
        valid_list: list[bytes] = []
        winner_list: list[bytes] = []

        for start in range(0, n_columns, _BLOCK_COLUMNS):
            grid = solve_grid_analytic(
                budgets, coef[start:start + _BLOCK_COLUMNS], config.payoffs, type_ids
            )
            if start == 0:
                a_rows = tuple(tuple(row) for row in grid.a.tolist())
                b_rows = tuple(tuple(row) for row in grid.b.tolist())
                xs_rows = tuple(tuple(row) for row in grid.xs.tolist())
                feasible_cap = tuple(bool(v) for v in grid.feasible_cap)

            winners = grid.winners  # (Kc, N)
            values = grid.values  # (Kc, n, N)
            # Cell certification: each candidate's value is nondecreasing in
            # the budget, so the left-edge winner stays optimal across the
            # cell iff its left-edge value dominates every rival's
            # right-edge value by the guard.
            w_cells = winners[:, :-1].astype(np.intp)  # (Kc, C)
            v_w_lo = np.take_along_axis(
                values[:, :, :-1], w_cells[:, None, :], axis=1
            )[:, 0, :]
            rivals = values[:, :, 1:].copy()
            np.put_along_axis(rivals, w_cells[:, None, :], -np.inf, axis=1)
            rival_hi = rivals.max(axis=1)
            valid = (v_w_lo - rival_hi >= guard) | np.isneginf(rival_hi)

            g_list.extend(
                tuple(tuple(row) for row in cols) for cols in grid.g.tolist()
            )
            valid_list.extend(bytes(row) for row in valid.astype(np.uint8))
            winner_list.extend(bytes(row) for row in winners[:, :-1].astype(np.uint8))

        payoff_rows = {
            "u_dc": tuple(float(config.payoffs[t].u_dc) for t in type_ids),
            "u_du": tuple(float(config.payoffs[t].u_du) for t in type_ids),
            "u_ac": tuple(float(config.payoffs[t].u_ac) for t in type_ids),
            "u_au": tuple(float(config.payoffs[t].u_au) for t in type_ids),
            "gap": tuple(
                float(config.payoffs[t].u_ac - config.payoffs[t].u_au)
                for t in type_ids
            ),
            "span": tuple(
                float(config.payoffs[t].u_dc - config.payoffs[t].u_du)
                for t in type_ids
            ),
        }
        region = TableRegion(
            budget_floor=floor,
            budget_ceiling=ceiling,
            budget_cells=n_cells,
            budget_step=float(step),
            columns=n_columns,
            total_columns=total_columns,
            truncated=n_columns < total_columns,
            lipschitz_budget=lipschitz_budget,
            lipschitz_budget_step=float(lip_budget_step),
            lipschitz_rate_step=float(lip_rate_step),
        )
        return CompiledPolicy(
            type_ids=type_ids,
            region=region,
            boundaries=boundaries,
            rates=rates,
            totals=totals,
            payoff_rows=payoff_rows,
            costs=costs,
            feasible_cap=feasible_cap,
            inv_coef=[tuple(row) for row in (1.0 / coef).tolist()],
            a=a_rows,
            b=b_rows,
            xs=xs_rows,
            g=g_list,
            valid=valid_list,
            winner=winner_list,
            compile_seconds=_time.perf_counter() - started,
        )
