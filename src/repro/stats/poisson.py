"""Poisson probability helpers and the truncated reciprocal moment.

LP (2) in the paper sets the marginal audit probability of alert type ``t'``
to ``theta = E_{d ~ Poisson(lambda)}[ B / (V d) ]``. The expectation makes
the constraint *linear* in the budget share ``B`` because

    E[ B / (V d) ] = (B / V) * E[1/d]

and ``E[1/d]`` depends only on ``lambda``. Since an audited alert must
exist for the expectation to matter (and ``1/d`` is undefined at ``d = 0``),
we use the moment conditioned on at least one arrival:

    r(lambda) = E[ 1/d | d >= 1 ]
              = sum_{k>=1} (1/k) * pmf(k; lambda) / (1 - pmf(0; lambda)).

``r`` is continuous with ``r(0+) = 1`` and decreases towards ``1/lambda``
for large ``lambda``.
"""

from __future__ import annotations

import math
import sys

from repro.errors import EstimationError

_SERIES_TOL = 1e-14
_MAX_TERMS = 100_000
_TINY_LAMBDA = 1e-12


def poisson_pmf(k: int, lam: float) -> float:
    """``P[X = k]`` for ``X ~ Poisson(lam)``."""
    if k < 0:
        return 0.0
    if lam < 0:
        raise EstimationError(f"Poisson rate must be non-negative, got {lam}")
    if lam == 0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def poisson_cdf(k: int, lam: float) -> float:
    """``P[X <= k]`` for ``X ~ Poisson(lam)``."""
    if k < 0:
        return 0.0
    total = 0.0
    for i in range(k + 1):
        total += poisson_pmf(i, lam)
    return min(total, 1.0)


def expected_reciprocal(lam: float, tol: float = _SERIES_TOL) -> float:
    """The conditional reciprocal moment ``E[1/d | d >= 1]``, ``d ~ Poisson(lam)``.

    Computed by direct series summation. Terms ``(1/k) pmf(k)`` decay
    super-geometrically once ``k > lam``; summation stops when the running
    term falls below ``tol`` times the accumulated mass *and* ``k`` has
    passed the mode, which bounds the discarded tail by ``tol``.

    The series starts from ``pmf(1) = lam e^{-lam}``, which is exact only
    while ``e^{-lam}`` is a normal double (``lam`` below about 708.4).
    Above that, :func:`_reciprocal_series_log_space` computes every term
    in log space instead.
    """
    if lam < 0:
        raise EstimationError(f"Poisson rate must be non-negative, got {lam}")
    if lam <= _TINY_LAMBDA:
        # Conditioned on d >= 1, Poisson(0+) is a point mass at 1.
        return 1.0
    if math.exp(-lam) < sys.float_info.min:
        if math.isinf(lam):
            raise EstimationError(f"Poisson rate must be finite, got {lam}")
        # 1 - e^{-lam} rounds to exactly 1.0 here.
        return _reciprocal_series_log_space(lam, tol)

    mass_above_zero = -math.expm1(-lam)  # 1 - e^{-lam}, stable for small lam
    total = 0.0
    term = lam * math.exp(-lam)  # pmf(1)
    k = 1
    while k < _MAX_TERMS:
        total += term / k
        if k > lam and term / k < tol * max(total, 1e-300):
            break
        term *= lam / (k + 1)
        k += 1
    else:  # pragma: no cover - series always converges well before the cap
        raise EstimationError(f"reciprocal-moment series did not converge (lam={lam})")
    return total / mass_above_zero


def _reciprocal_series_log_space(lam: float, tol: float) -> float:
    """``sum_{k>=1} pmf(k) / k`` with each ``pmf(k)`` taken in log space.

    For a rate this large the mass sits within a few standard deviations
    of the mode, so the sum runs outward from the mode, largest terms
    first, and stops on each side once a term falls below ``tol`` times
    the running total.
    """
    log_lam = math.log(lam)
    mode = int(lam)
    total = 0.0
    for ks in (range(mode, 0, -1), range(mode + 1, mode + _MAX_TERMS)):
        for k in ks:
            term = math.exp(k * log_lam - lam - math.lgamma(k + 1)) / k
            total += term
            if term < tol * total:
                break
    return total


def expected_reciprocal_slope(lam: float) -> float:
    """``d/d lambda`` of :func:`expected_reciprocal`, in closed form.

    Differentiating the conditional moment ``r(lam) = S(lam) / (1 - e^-lam)``
    with ``S = sum_{k>=1} pmf(k; lam) / k`` and using
    ``pmf'(k) = pmf(k) (k/lam - 1)`` collapses the series to

        r'(lam) = 1/lam - r(lam) / (1 - e^-lam).

    The two terms are both ``~1/lam`` for small rates, but their difference
    stays well-conditioned down to ``lam ~ 1e-9``; below that the Taylor
    limit ``r'(0+) = -1/4`` is returned directly. The slope is negative
    (more expected arrivals dilute the reciprocal) and its magnitude is
    bounded by 1/4 everywhere — the bound the solution-cache certificates
    lean on.
    """
    if lam < 0:
        raise EstimationError(f"Poisson rate must be non-negative, got {lam}")
    if lam <= 1e-9:
        return -0.25
    return 1.0 / lam - expected_reciprocal(lam) / (-math.expm1(-lam))


class PoissonReciprocalMoment:
    """Memoized ``expected_reciprocal`` lookup.

    The online solvers evaluate the moment for the same handful of rates
    thousands of times per simulated day; caching on a rounded key keeps the
    estimator exact to ``decimals`` digits while making lookups O(1).
    """

    def __init__(self, decimals: int = 9) -> None:
        self._decimals = decimals
        self._cache: dict[float, float] = {}
        self._slopes: dict[float, float] = {}

    def __call__(self, lam: float) -> float:
        key = round(float(lam), self._decimals)
        value = self._cache.get(key)
        if value is None:
            value = expected_reciprocal(key if key > 0 else max(key, 0.0))
            self._cache[key] = value
        return value

    def slope(self, lam: float) -> float:
        """Memoized :func:`expected_reciprocal_slope` (same rounded key)."""
        key = round(float(lam), self._decimals)
        value = self._slopes.get(key)
        if value is None:
            value = expected_reciprocal_slope(max(key, 0.0))
            self._slopes[key] = value
        return value

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        """Drop all memoized values."""
        self._cache.clear()
        self._slopes.clear()
