"""Tests for Poisson helpers and the conditional reciprocal moment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EstimationError
from repro.stats import poisson
from repro.stats.poisson import (
    PoissonReciprocalMoment,
    expected_reciprocal,
    expected_reciprocal_slope,
    poisson_cdf,
    poisson_pmf,
)


class TestReciprocalSlope:
    @pytest.mark.parametrize("lam", [0.2, 1.0, 5.0, 30.0, 120.0, 250.0])
    def test_matches_numerical_derivative(self, lam):
        h = 1e-6 * max(lam, 1.0)
        numeric = (
            expected_reciprocal(lam + h) - expected_reciprocal(lam - h)
        ) / (2 * h)
        assert expected_reciprocal_slope(lam) == pytest.approx(
            numeric, rel=1e-5
        )

    def test_small_rate_limit_is_minus_quarter(self):
        assert expected_reciprocal_slope(0.0) == -0.25
        assert expected_reciprocal_slope(1e-12) == -0.25
        assert expected_reciprocal_slope(1e-4) == pytest.approx(-0.25, abs=1e-4)

    @given(st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=60, deadline=None)
    def test_negative_and_bounded_by_quarter(self, lam):
        slope = expected_reciprocal_slope(lam)
        # The cache's rate-sensitivity bound leans on |r'| <= 1/4.
        assert -0.25 <= slope <= 0.0

    def test_rejects_negative_rate(self):
        with pytest.raises(EstimationError):
            expected_reciprocal_slope(-1.0)

    def test_memoized_slope_matches(self):
        moment = PoissonReciprocalMoment()
        assert moment.slope(42.0) == expected_reciprocal_slope(42.0)
        moment.clear()
        assert moment.slope(42.0) == expected_reciprocal_slope(42.0)


class TestPmfCdf:
    def test_pmf_sums_to_one(self):
        lam = 3.7
        total = sum(poisson_pmf(k, lam) for k in range(200))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pmf_zero_rate(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(1, 0.0) == 0.0

    def test_pmf_negative_k(self):
        assert poisson_pmf(-1, 2.0) == 0.0

    def test_pmf_negative_rate_raises(self):
        with pytest.raises(EstimationError):
            poisson_pmf(1, -1.0)

    def test_cdf_monotone(self):
        lam = 5.0
        values = [poisson_cdf(k, lam) for k in range(30)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-9)

    def test_cdf_negative_k(self):
        assert poisson_cdf(-1, 2.0) == 0.0

    def test_pmf_matches_known_value(self):
        # Poisson(2): P[X=2] = 2^2 e^-2 / 2! = 2 e^-2
        assert poisson_pmf(2, 2.0) == pytest.approx(2 * math.exp(-2))


class TestExpectedReciprocal:
    def brute_force(self, lam: float, terms: int = 3000) -> float:
        numerator = sum(poisson_pmf(k, lam) / k for k in range(1, terms))
        return numerator / (1.0 - poisson_pmf(0, lam))

    @pytest.mark.parametrize("lam", [0.01, 0.5, 1.0, 4.0, 25.0, 196.57])
    def test_matches_brute_force(self, lam):
        assert expected_reciprocal(lam) == pytest.approx(
            self.brute_force(lam), rel=1e-9
        )

    def test_zero_rate_limit(self):
        assert expected_reciprocal(0.0) == 1.0
        assert expected_reciprocal(1e-15) == 1.0

    def test_negative_rate_raises(self):
        with pytest.raises(EstimationError):
            expected_reciprocal(-0.1)

    def test_large_lambda_approaches_one_over_lambda(self):
        lam = 500.0
        value = expected_reciprocal(lam)
        # E[1/d] ~ 1/lam * (1 + 1/lam + ...) for large lam.
        assert value == pytest.approx(1.0 / lam, rel=0.01)

    @given(st.floats(min_value=0.0, max_value=300.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_bounded_between_inverse_mean_and_one(self, lam):
        value = expected_reciprocal(lam)
        assert 0.0 < value <= 1.0
        if lam > 1e-9:
            # Jensen: E[1/d | d>=1] >= 1/E[d | d>=1] >= 1/(lam+1)
            assert value >= 1.0 / (lam + 1.0) - 1e-12

    @given(
        st.floats(min_value=0.001, max_value=200.0, allow_nan=False),
        st.floats(min_value=1.01, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_decreasing_in_lambda(self, lam, factor):
        assert expected_reciprocal(lam * factor) <= expected_reciprocal(lam) + 1e-12

    def test_monte_carlo_agreement(self):
        lam = 7.0
        rng = np.random.default_rng(0)
        draws = rng.poisson(lam, size=400_000)
        draws = draws[draws >= 1]
        empirical = float(np.mean(1.0 / draws))
        assert expected_reciprocal(lam) == pytest.approx(empirical, rel=0.01)


class TestLargeRates:
    """Rates past ~708.4, where ``e^{-lam}`` stops being a normal double."""

    @staticmethod
    def log_space_reference(lam: float) -> float:
        # Every term in log space over a range far wider than the mass,
        # summed exactly.
        last = int(lam + 60.0 * math.sqrt(lam)) + 60
        numerator = math.fsum(
            math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) / k
            for k in range(1, last)
        )
        return numerator / -math.expm1(-lam)

    @pytest.mark.parametrize("lam", [700.0, 745.0, 746.0, 1e3, 1e4])
    def test_matches_log_space_reference(self, lam):
        assert expected_reciprocal(lam) == pytest.approx(
            self.log_space_reference(lam), rel=1e-12
        )

    def test_values_below_the_switch_are_unchanged(self):
        # Golden streams and existing WALs replay through these floats.
        assert expected_reciprocal(500.0) == 0.002004016096775725
        assert expected_reciprocal(708.0) == 0.001414429994766388
        assert expected_reciprocal(0.5) == float.fromhex("0x1.c1fd385714a14p-1")
        assert expected_reciprocal(7.0) == float.fromhex("0x1.61407402b68f5p-3")
        assert expected_reciprocal(100 / 3) == float.fromhex(
            "0x1.fb3dc496b44f7p-6"
        )
        assert expected_reciprocal(256.0) == float.fromhex("0x1.010206187adf4p-8")

    def test_infinite_rate_rejected(self):
        with pytest.raises(EstimationError):
            expected_reciprocal(math.inf)


class TestMemoization:
    def test_caches_by_rounded_key(self):
        moment = PoissonReciprocalMoment(decimals=6)
        first = moment(3.14159265)
        second = moment(3.14159265)
        assert first == second
        assert len(moment) == 1

    def test_clear(self):
        moment = PoissonReciprocalMoment()
        moment(2.0)
        assert len(moment) == 1
        moment.clear()
        assert len(moment) == 0

    def test_matches_uncached(self):
        moment = PoissonReciprocalMoment()
        for lam in (0.0, 0.3, 4.0, 50.0):
            assert moment(lam) == pytest.approx(expected_reciprocal(lam))

    @pytest.mark.parametrize(
        "lam", [0.0, 1e-10, 1e-9, 0.5, 7.0, 700.0, 746.0, 1e4]
    )
    def test_slope_is_bit_equal_to_the_closed_form(self, lam):
        assert PoissonReciprocalMoment().slope(lam) == expected_reciprocal_slope(lam)

    def test_each_key_sums_the_series_once(self, monkeypatch):
        summed = []
        original = poisson.expected_reciprocal

        def counting(lam, *args, **kwargs):
            summed.append(lam)
            return original(lam, *args, **kwargs)

        monkeypatch.setattr(poisson, "expected_reciprocal", counting)
        moment = PoissonReciprocalMoment()
        for lam in (0.5, 7.0, 700.0, 0.5, 7.0):
            moment(lam)
            moment.slope(lam)
        moment.slope(3.0)
        moment(3.0)
        assert sorted(summed) == [0.5, 3.0, 7.0, 700.0]
