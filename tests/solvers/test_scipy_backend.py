"""Direct tests of the SciPy backend's status mapping and conversions."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.solvers import LinearProgram
from repro.solvers.result import SolveStatus
from repro.solvers.scipy_backend import solve


class TestScipyBackend:
    def test_optimal_negates_objective_back(self):
        # maximize 2x with x <= 3: the backend must report +6, not -6.
        lp = LinearProgram(c=np.array([2.0]), bounds=((0.0, 3.0),))
        solution = solve(lp)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(6.0)
        assert solution.backend == "scipy"

    def test_infeasible_status(self):
        lp = LinearProgram(
            c=np.array([1.0]),
            a_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([1.0, -2.0]),
        )
        assert solve(lp).status is SolveStatus.INFEASIBLE

    def test_unbounded_status(self):
        lp = LinearProgram(c=np.array([1.0]))
        assert solve(lp).status is SolveStatus.UNBOUNDED

    def test_equality_and_bounds(self):
        lp = LinearProgram(
            c=np.array([1.0, 0.0]),
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([1.0]),
            bounds=((0.0, 0.4), (0.0, 1.0)),
        )
        solution = solve(lp)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.x[0] == pytest.approx(0.4)
        assert solution.x[1] == pytest.approx(0.6)

    def test_reports_iterations(self):
        lp = LinearProgram(
            c=np.array([3.0, 5.0]),
            a_ub=np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]]),
            b_ub=np.array([4.0, 12.0, 18.0]),
        )
        solution = solve(lp)
        assert solution.iterations >= 0

    def test_solution_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            lp = LinearProgram(
                c=rng.normal(size=n),
                a_ub=rng.normal(size=(3, n)),
                b_ub=np.abs(rng.normal(size=3)) + 0.5,
                bounds=tuple((0.0, float(u)) for u in rng.uniform(0.5, 3.0, n)),
            )
            solution = solve(lp)
            assert solution.status is SolveStatus.OPTIMAL
            assert lp.is_feasible(solution.x, tol=1e-6)


class TestLazyImport:
    def test_serving_sessions_never_load_scipy(self):
        # Table and certified-cache sessions decide through the analytic
        # solver; SciPy loads only when a generic LP is solved on it.
        script = textwrap.dedent("""
            import sys

            import numpy as np

            import repro, repro.api, repro.cli
            from repro.api.v1 import AlertEvent, AuditSession, SessionConfig
            from repro.core.payoffs import PayoffMatrix

            pay = PayoffMatrix(u_dc=100.0, u_du=-400.0, u_ac=-2000.0, u_au=400.0)
            times = np.linspace(1000, 80000, 60)
            history = {1: [times.copy(), times.copy(), times.copy()]}
            common = dict(budget=50.0, payoffs={1: pay}, costs={1: 1.0},
                          backend="analytic")
            configs = (
                SessionConfig(tenant="table", policy_table=True, **common),
                SessionConfig(tenant="cache", cache_budget_step=0.5,
                              cache_rate_step=1.0, cache_error_budget=1e-6,
                              **common),
            )
            for config in configs:
                session = AuditSession.open(config, history)
                for time_of_day in (2000.0, 30000.0, 60000.0):
                    session.decide(AlertEvent(tenant=config.tenant, type_id=1,
                                              time_of_day=time_of_day))
                session.close_cycle()
            loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
            assert not loaded, loaded

            from repro.solvers import LinearProgram
            from repro.solvers.registry import solve
            program = LinearProgram(c=np.array([2.0]), bounds=((0.0, 3.0),))
            assert solve(program, backend="scipy").objective == 6.0
            assert "scipy.optimize" in sys.modules
        """)
        source_root = str(Path(repro.__file__).resolve().parent.parent)
        path = os.pathsep.join(
            [source_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert completed.returncode == 0, completed.stderr
