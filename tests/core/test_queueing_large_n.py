"""Large-N regression for the log-space Eq. 1–5 rewrite.

The original ``erlang_pi0`` accumulated the Eq. 1 normalization in linear
space; the terms a^k/k! peak near e^a, so π₀ underflowed to exactly 0.0
for N ≳ 700 and ``erlang_pin``/``erlang_c``/``wait_quantile`` then raised
``ValueError: math domain error``.  These tests pin the fix two ways:

* against a 60+-digit ``decimal.Decimal`` evaluation of the exact Eq. 1
  sums (the "mpmath-grade" reference — mpmath itself is not available in
  the CI container), to ≥10 significant digits;
* against the numerically stable Erlang-B recurrence
  B₀ = 1, B_k = a·B_{k−1}/(k + a·B_{k−1}),  C = B_N/(1 − ρ(1 − B_N)),
  a fully independent float-only derivation of Erlang-C.

Both reference paths are immune to the underflow the bug family hits.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext

import pytest

from repro.sim.queueing import (
    discriminant_lambda,
    erlang_c,
    erlang_pi0,
    erlang_pin,
    log_erlang_c,
    log_erlang_pi0,
    log_erlang_pin,
    max_arrival_rate,
    min_servers,
    qos_satisfied,
    wait_cdf,
    wait_quantile,
)

getcontext().prec = 60


def decimal_eq1(n: int, rho: float) -> tuple[Decimal, Decimal]:
    """(S, t_N) for Eq. 1 at 60 digits: S the normalization, t_N = a^N/N!.

    ``rho`` is converted with ``Decimal(float)`` so the reference evaluates
    the *same binary* utilization the production code sees.
    """
    rho_d = Decimal(rho)
    a = n * rho_d
    term = Decimal(1)
    total = Decimal(1)
    for k in range(1, n):
        term *= a / k
        total += term
    term *= a / n  # now a^n/n!
    total += term / (1 - rho_d)
    return total, term


def decimal_pin(n: int, rho: float) -> Decimal:
    total, t_n = decimal_eq1(n, rho)
    return t_n / total


def decimal_erlang_c(n: int, rho: float) -> Decimal:
    return decimal_pin(n, rho) / (1 - Decimal(rho))


def decimal_wait_quantile(r: float, lam: float, mu: float, n: int) -> Decimal:
    """Closed-form W_r = ln(P{W>0}/(1−r)) / (Nμ(1−ρ)) at 60 digits."""
    rho = Decimal(lam) / (n * Decimal(mu))
    pw = decimal_pin(n, float(rho)) / (1 - rho)
    tail = 1 - Decimal(r)
    if pw <= tail:
        return Decimal(0)
    return (pw / tail).ln() / (n * Decimal(mu) * (1 - rho))


def erlang_c_via_b(n: int, rho: float) -> float:
    """Independent float reference: Erlang-B recurrence then B→C."""
    a = n * rho
    b = 1.0
    for k in range(1, n + 1):
        b = a * b / (k + a * b)
    return b / (1.0 - rho * (1.0 - b))


# ---------------------------------------------------------------------------
# the confirmed-crashing calls from the issue
# ---------------------------------------------------------------------------


class TestIssueRepros:
    def test_erlang_pin_1000_finite(self):
        val = erlang_pin(1000, 0.95)
        assert math.isfinite(val) and val > 0.0

    def test_erlang_pin_2000_matches_decimal_to_10_digits(self):
        got = erlang_pin(2000, 0.95)
        ref = float(decimal_pin(2000, 0.95))
        assert math.isfinite(got)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_wait_quantile_fleet_scale_finite(self):
        # lam=1900, mu=1, n=2000: rho=0.95 but P{W>0} ≈ 0.0134 < 0.05,
        # so the true 95th-percentile wait is exactly zero — the bug was
        # that this raised instead of returning it.
        got = wait_quantile(0.95, 1900.0, 1.0, 2000)
        assert got == 0.0
        assert float(decimal_wait_quantile(0.95, 1900.0, 1.0, 2000)) == 0.0

    def test_wait_quantile_fleet_scale_positive_branch(self):
        # push utilization high enough that the r-ile arrival does wait
        got = wait_quantile(0.95, 1990.0, 1.0, 2000)
        ref = float(decimal_wait_quantile(0.95, 1990.0, 1.0, 2000))
        assert got > 0.0
        assert got == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# N = 1 … 10⁵ sweeps against both references
# ---------------------------------------------------------------------------

SWEEP = [
    (1, 0.6),
    (3, 0.9),
    (10, 0.5),
    (70, 0.85),
    (500, 0.9),
    (699, 0.95),
    (701, 0.95),  # first N past the old underflow cliff
    (1000, 0.8),
    (2000, 0.95),
    (5000, 0.99),
]


class TestDecimalReference:
    @pytest.mark.parametrize("n,rho", SWEEP)
    def test_pin_10_digits(self, n, rho):
        assert erlang_pin(n, rho) == pytest.approx(float(decimal_pin(n, rho)), rel=1e-10)

    @pytest.mark.parametrize("n,rho", SWEEP)
    def test_erlang_c_10_digits(self, n, rho):
        assert erlang_c(n, rho) == pytest.approx(float(decimal_erlang_c(n, rho)), rel=1e-10)

    @pytest.mark.parametrize("n,rho", SWEEP)
    def test_pi0_log_matches_decimal(self, n, rho):
        total, _ = decimal_eq1(n, rho)
        log_ref = -float(total.ln())
        assert log_erlang_pi0(n, rho) == pytest.approx(log_ref, rel=1e-12, abs=1e-10)

    @pytest.mark.slow
    def test_n_100000_pin_10_digits(self):
        n, rho = 100_000, 0.95
        got = erlang_pin(n, rho)
        ref = float(decimal_pin(n, rho))
        assert math.isfinite(got) and got > 0.0
        assert got == pytest.approx(ref, rel=1e-10)


class TestErlangBReference:
    @pytest.mark.parametrize(
        "n,rho",
        SWEEP + [(20_000, 0.97), (100_000, 0.95), (100_000, 0.999)],
    )
    def test_erlang_c_matches_b_recurrence(self, n, rho):
        got = erlang_c(n, rho)
        ref = erlang_c_via_b(n, rho)
        # the recurrence accumulates its own rounding over N steps; 1e-8
        # relative is well inside both paths' error budgets
        assert got == pytest.approx(ref, rel=1e-8)


# ---------------------------------------------------------------------------
# log-space primitives and downstream Eqs. 4–5 at scale
# ---------------------------------------------------------------------------


class TestLogSpacePrimitives:
    def test_log_pi0_finite_where_pi0_underflows(self):
        # pi0 ≈ e^-92000 at this size: the float is genuinely 0.0 but the
        # log form must stay finite and usable
        n, rho = 100_000, 0.95
        assert erlang_pi0(n, rho) == 0.0
        lp0 = log_erlang_pi0(n, rho)
        assert math.isfinite(lp0) and lp0 < -80_000

    def test_log_pin_consistency(self):
        for n, rho in SWEEP:
            assert math.exp(log_erlang_pin(n, rho)) == pytest.approx(
                erlang_pin(n, rho), rel=1e-12
            )

    def test_log_erlang_c_rho_zero_raises(self):
        with pytest.raises(ValueError):
            log_erlang_pin(5, 0.0)
        with pytest.raises(ValueError):
            log_erlang_c(5, 0.0)

    def test_wait_cdf_large_n_monotone(self):
        lam, mu, n = 99_000.0, 1.0, 100_000
        vals = [wait_cdf(t, lam, mu, n) for t in (0.0, 1e-4, 1e-3, 1e-2, 1.0)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert vals == sorted(vals)
        assert vals[0] == pytest.approx(1.0 - erlang_c(n, lam / (n * mu)))

    def test_quantile_inverts_cdf_large_n(self):
        lam, mu, n = 1990.0, 1.0, 2000
        w = wait_quantile(0.95, lam, mu, n)
        assert w > 0.0
        assert wait_cdf(w, lam, mu, n) == pytest.approx(0.95, rel=1e-9)


class TestDiscriminantLargeN:
    @pytest.mark.parametrize("n", [700, 2000, 5000])
    def test_eq5_agrees_with_bisection(self, n):
        """The fixed-point and the bisection answer must still coincide
        past the old underflow cliff (the masked `pin <= 0` branch used to
        fake 'no queueing' here)."""
        mu, qos = 1.0, 1.5
        a = discriminant_lambda(mu, n, qos)
        b = max_arrival_rate(mu, n, qos)
        assert a == pytest.approx(b, rel=2e-3)
        assert 0.0 < b < n * mu

    def test_near_saturation_bisection_bound_evaluates(self):
        # the bisection probes lam = n*mu*(1 - 1e-12); that evaluation
        # must not raise even at fleet scale
        n, mu = 100_000, 1.0
        lam = n * mu * (1.0 - 1e-12)
        assert isinstance(qos_satisfied(lam, mu, n, qos=10.0), bool)

    def test_qos_satisfied_large_n(self):
        assert qos_satisfied(1900.0, 1.0, 2000, qos=1.5)
        assert not qos_satisfied(1999.999, 1.0, 2000, qos=1.001)


class TestMinServersBisection:
    @pytest.mark.parametrize("lam", [10.0, 333.0, 1900.0, 3500.0])
    def test_smallest_feasible_at_scale(self, lam):
        mu, qos = 1.0, 1.5
        n = min_servers(lam, mu, qos)
        assert qos_satisfied(lam, mu, n, qos)
        assert n == 1 or not qos_satisfied(lam, mu, n - 1, qos)

    def test_matches_linear_scan_small(self):
        mu, qos, r = 2.0, 1.5, 0.95
        for lam_tenths in range(1, 80, 3):
            lam = lam_tenths / 10.0
            n = min_servers(lam, mu, qos, r)
            brute = next(
                k for k in range(1, 200) if lam < k * mu and qos_satisfied(lam, mu, k, qos, r)
            )
            assert n == brute

    def test_cap_still_raises(self):
        with pytest.raises(ValueError):
            min_servers(1000.0, 1.0, qos=1.5, n_cap=10)
