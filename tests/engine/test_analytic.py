"""Cross-validation of the analytic SSE backend against the LP path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.payoffs import PayoffMatrix
from repro.core.sse import (
    _TIE_TOL,
    GameState,
    solve_multiple_lp,
    solve_online_sse,
)
from repro.engine.analytic import (
    _FEAS_TOL,
    _breakpoint_index,
    solve_grid_analytic,
    solve_multiple_lp_analytic,
)
from repro.errors import ModelError
from repro.stats.poisson import expected_reciprocal

PAY1 = PayoffMatrix(u_dc=100.0, u_du=-400.0, u_ac=-2000.0, u_au=400.0)


def _random_instance(rng, n_types):
    payoffs, costs, lambdas = {}, {}, {}
    for t in range(1, n_types + 1):
        payoffs[t] = PayoffMatrix(
            u_dc=float(rng.uniform(0.0, 200.0)),
            u_du=float(-rng.uniform(1.0, 500.0)),
            u_ac=float(-rng.uniform(1.0, 3000.0)),
            u_au=float(rng.uniform(1.0, 500.0)),
        )
        costs[t] = float(rng.uniform(0.5, 3.0))
        lambdas[t] = float(rng.uniform(0.0, 300.0))
    return payoffs, costs, lambdas


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_types=st.integers(min_value=1, max_value=6),
    budget=st.floats(min_value=0.0, max_value=100.0),
)
def test_analytic_matches_scipy_on_random_instances(seed, n_types, budget):
    """The satellite property: objectives within 1e-6, same best response."""
    rng = np.random.default_rng(seed)
    payoffs, costs, lambdas = _random_instance(rng, n_types)
    state = GameState(budget=budget, lambdas=lambdas)
    lp = solve_online_sse(state, payoffs, costs, backend="scipy")
    fast = solve_online_sse(state, payoffs, costs, backend="analytic")
    scale = max(1.0, abs(lp.auditor_utility))
    assert abs(fast.auditor_utility - lp.auditor_utility) <= 1e-6 * scale
    assert fast.best_response == lp.best_response
    assert fast.lps_solved == lp.lps_solved
    assert fast.lps_feasible == lp.lps_feasible
    assert abs(fast.attacker_utility - lp.attacker_utility) <= 1e-6 * max(
        1.0, abs(lp.attacker_utility)
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_types=st.integers(min_value=1, max_value=6),
    budget=st.floats(min_value=0.0, max_value=100.0),
)
def test_analytic_solution_is_lp_feasible(seed, n_types, budget):
    """Thetas are probabilities, allocations fit the budget, and the winning
    type really is the attacker's best response."""
    rng = np.random.default_rng(seed)
    payoffs, costs, lambdas = _random_instance(rng, n_types)
    state = GameState(budget=budget, lambdas=lambdas)
    solution = solve_online_sse(state, payoffs, costs, backend="analytic")
    assert sum(solution.allocations.values()) <= budget + 1e-6
    for theta in solution.thetas.values():
        assert -1e-9 <= theta <= 1.0 + 1e-9
    values = {
        t: payoffs[t].attacker_utility(min(1.0, max(0.0, solution.thetas[t])))
        for t in payoffs
    }
    assert values[solution.best_response] == pytest.approx(
        max(values.values()), abs=1e-6
    )


def test_single_type_theta_formula():
    lam, budget = 50.0, 10.0
    state = GameState(budget=budget, lambdas={1: lam})
    solution = solve_online_sse(state, {1: PAY1}, {1: 1.0}, backend="analytic")
    assert solution.theta_of(1) == pytest.approx(
        min(1.0, budget * expected_reciprocal(lam)), rel=1e-9
    )
    assert solution.best_response == 1


def test_zero_budget():
    state = GameState(budget=0.0, lambdas={1: 50.0})
    solution = solve_online_sse(state, {1: PAY1}, {1: 1.0}, backend="analytic")
    assert solution.theta_of(1) == pytest.approx(0.0, abs=1e-12)
    assert solution.auditor_utility == pytest.approx(PAY1.u_du)


def test_huge_budget_caps_theta_and_deters():
    state = GameState(budget=1000.0, lambdas={1: 5.0})
    solution = solve_online_sse(state, {1: PAY1}, {1: 1.0}, backend="analytic")
    assert solution.theta_of(1) <= 1.0 + 1e-12
    assert solution.deterred


def test_table2_state_matches_scipy(payoffs, costs):
    state = GameState(
        budget=25.0,
        lambdas={1: 196.0, 2: 29.0, 3: 140.0, 4: 11.0, 5: 25.0, 6: 15.0, 7: 43.0},
    )
    lp = solve_online_sse(state, payoffs, costs, backend="scipy")
    fast = solve_online_sse(state, payoffs, costs, backend="analytic")
    assert fast.auditor_utility == pytest.approx(lp.auditor_utility, abs=1e-8)
    assert fast.best_response == lp.best_response
    for t in payoffs:
        assert fast.thetas[t] == pytest.approx(lp.thetas[t], abs=1e-7)


def test_deterministic_coefficients_dispatch():
    """solve_multiple_lp(backend="analytic") covers the offline-style path."""
    coefficient = {1: 1.0 / 100.0, 2: 1.0 / 10.0}
    payoffs = {
        1: PAY1,
        2: PayoffMatrix(u_dc=150.0, u_du=-500.0, u_ac=-2250.0, u_au=400.0),
    }
    lp = solve_multiple_lp(10.0, coefficient, payoffs, backend="scipy")
    fast = solve_multiple_lp(10.0, coefficient, payoffs, backend="analytic")
    assert fast.auditor_utility == pytest.approx(lp.auditor_utility, abs=1e-8)
    assert fast.best_response == lp.best_response
    assert sum(fast.allocations.values()) <= 10.0 + 1e-9


def test_zero_coefficient_type_pins_theta_at_zero():
    """A type whose shares buy no coverage stays at theta 0 in any SSE."""
    coefficient = {1: 0.1, 2: 0.0}
    payoffs = {
        1: PAY1,
        2: PayoffMatrix(u_dc=150.0, u_du=-500.0, u_ac=-2250.0, u_au=300.0),
    }
    solution = solve_multiple_lp_analytic(5.0, coefficient, payoffs)
    assert solution.thetas[2] == 0.0
    assert solution.allocations[2] == 0.0
    lp = solve_multiple_lp(5.0, coefficient, payoffs, backend="scipy")
    assert solution.auditor_utility == pytest.approx(lp.auditor_utility, abs=1e-8)
    assert solution.best_response == lp.best_response


def _broadcast_grid_reference(budgets, grid, payoffs):
    """The grid solve's water-filling inversion over the full (K, n, m, N)
    comparison tensor and broadcast gathers: the formulation the blocked
    solver replaced, kept as its oracle."""
    type_ids = grid.type_ids
    u_dc = np.array([payoffs[t].u_dc for t in type_ids])
    u_du = np.array([payoffs[t].u_du for t in type_ids])
    u_au = np.array([payoffs[t].u_au for t in type_ids])
    gap = np.array([payoffs[t].u_ac for t in type_ids]) - u_au
    g, xs = grid.g, grid.xs
    m = xs.shape[1]
    feasible = grid.feasible_cap[None, :, None] & (
        g[:, :, 0][:, :, None] <= budgets[None, None, :] + _FEAS_TOL
    )
    idx = np.clip(
        np.sum(g[:, :, :, None] <= budgets[None, None, None, :] + _FEAS_TOL, axis=2)
        - 1,
        0,
        m - 1,
    )
    xs_cols = np.broadcast_to(xs[None, :, :], g.shape)
    x_lo = np.take_along_axis(xs_cols, idx, axis=2)
    g_lo = np.take_along_axis(g, idx, axis=2)
    idx_next = np.minimum(idx + 1, m - 1)
    x_hi = np.take_along_axis(xs_cols, idx_next, axis=2)
    g_hi = np.take_along_axis(g, idx_next, axis=2)
    dg = g_hi - g_lo
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
    best = values.max(axis=1, keepdims=True)
    tied = values >= best - _TIE_TOL
    att_masked = np.where(tied, attacker, np.inf)
    least = att_masked.min(axis=1, keepdims=True)
    tied &= att_masked <= least + _TIE_TOL
    return idx, x_star, values, tied.argmax(axis=1).astype(np.int16)


@pytest.mark.parametrize("seed", range(24))
def test_grid_solve_equals_the_broadcast_formulation(seed):
    rng = np.random.default_rng(seed)
    n_types = 1 + seed % 7
    payoffs, _, _ = _random_instance(rng, n_types)
    coefficients = rng.uniform(0.005, 2.0, size=(int(rng.integers(1, 40)), n_types))
    budgets = np.unique(rng.uniform(0.0, 60.0, size=int(rng.integers(1, 80))))
    if seed % 3 == 0:
        budgets = np.linspace(0.0, float(rng.uniform(1.0, 80.0)), 257)
    grid = solve_grid_analytic(budgets, coefficients, payoffs)
    idx, x_star, values, winners = _broadcast_grid_reference(budgets, grid, payoffs)
    assert np.array_equal(_breakpoint_index(grid.g, budgets + _FEAS_TOL), idx)
    assert np.array_equal(grid.x_star, x_star)
    assert np.array_equal(grid.values, values)
    assert np.array_equal(grid.winners, winners)


@pytest.mark.parametrize("seed", range(8))
def test_breakpoint_index_ignores_row_order_and_counts_ties(seed):
    """Unsorted rows, thresholds equal to breakpoints, repeated values."""
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 12, size=(5, 3, 9)).astype(float)
    within = np.unique(np.concatenate([g.ravel()[::4], rng.uniform(-1.0, 13.0, 6)]))
    reference = np.clip(
        np.sum(g[..., None] <= within, axis=-2) - 1, 0, g.shape[-1] - 1
    )
    assert np.array_equal(_breakpoint_index(g, within), reference)


@pytest.mark.parametrize(
    "budgets", [[0.0, np.nan, 2.0], [0.0, 2.0, 1.0], [1.0, 1.0]]
)
def test_grid_solve_rejects_an_unsorted_budget_axis(budgets):
    """The breakpoint index binary-searches the budget axis; a NaN in it
    is rejected like any other break in the strict order."""
    with pytest.raises(ModelError, match="strictly increasing"):
        solve_grid_analytic(np.array(budgets), np.ones((1, 1)), {1: PAY1})
