"""M/M/N math (paper Eqs. 1-5): closed forms, inverses, the discriminant."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.queueing import (
    discriminant_lambda,
    erlang_c,
    erlang_pi0,
    erlang_pin,
    max_arrival_rate,
    mean_wait,
    min_servers,
    qos_satisfied,
    sojourn_quantile,
    wait_cdf,
    wait_quantile,
)
from tests.core.oracle_queue import fcfs_customers


def brute_pi0(n, rho):
    a = n * rho
    total = sum(a**k / math.factorial(k) for k in range(n))
    total += a**n / (math.factorial(n) * (1 - rho))
    return 1.0 / total


class TestStationaryDistribution:
    @pytest.mark.parametrize("n,rho", [(1, 0.5), (2, 0.3), (5, 0.9), (10, 0.7), (40, 0.95)])
    def test_pi0_matches_brute_force(self, n, rho):
        assert erlang_pi0(n, rho) == pytest.approx(brute_pi0(n, rho), rel=1e-10)

    def test_pi0_large_n_no_overflow(self):
        val = erlang_pi0(500, 0.9)
        assert 0.0 < val < 1.0

    def test_pi0_empty_system(self):
        assert erlang_pi0(3, 0.0) == 1.0

    def test_pin_matches_brute_force(self):
        n, rho = 4, 0.6
        a = n * rho
        expected = a**n / math.factorial(n) * brute_pi0(n, rho)
        assert erlang_pin(n, rho) == pytest.approx(expected, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_pi0(0, 0.5)
        with pytest.raises(ValueError):
            erlang_pi0(3, 1.0)
        with pytest.raises(ValueError):
            erlang_pi0(3, -0.1)


class TestErlangC:
    def test_single_server_is_rho(self):
        # M/M/1: P{wait} = rho
        assert erlang_c(1, 0.6) == pytest.approx(0.6, rel=1e-10)

    def test_known_value(self):
        # classic Erlang-C table: n=5, offered a=4 (rho=0.8) -> ~0.5541
        assert erlang_c(5, 0.8) == pytest.approx(0.5541, abs=2e-4)

    def test_increasing_in_rho(self):
        vals = [erlang_c(4, r) for r in (0.2, 0.5, 0.8, 0.95)]
        assert vals == sorted(vals)

    def test_decreasing_in_n_at_fixed_rho(self):
        # more servers at the same utilization -> less waiting
        assert erlang_c(10, 0.8) < erlang_c(2, 0.8)


class TestWaitDistribution:
    def test_cdf_at_zero_is_no_wait_probability(self):
        lam, mu, n = 3.0, 1.0, 5
        rho = lam / (n * mu)
        assert wait_cdf(0.0, lam, mu, n) == pytest.approx(1.0 - erlang_c(n, rho))

    def test_cdf_monotone_and_limits(self):
        lam, mu, n = 4.0, 1.0, 5
        ts = np.linspace(0, 20, 50)
        vals = [wait_cdf(float(t), lam, mu, n) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.999
        assert wait_cdf(-1.0, lam, mu, n) == 0.0

    def test_cdf_no_load(self):
        assert wait_cdf(0.5, 0.0, 1.0, 3) == 1.0

    @given(
        st.floats(0.55, 0.99),
        st.integers(1, 30),
        st.floats(0.2, 5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_quantile_inverts_cdf(self, r, n, mu):
        lam = 0.8 * n * mu
        w = wait_quantile(r, lam, mu, n)
        if w > 0:
            assert wait_cdf(w, lam, mu, n) == pytest.approx(r, rel=1e-6)
        else:
            assert wait_cdf(0.0, lam, mu, n) >= r - 1e-9

    def test_quantile_zero_when_mostly_idle(self):
        # almost empty system: the 95th percentile arrival does not wait
        assert wait_quantile(0.95, 0.1, 1.0, 10) == 0.0

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            wait_quantile(1.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            wait_quantile(0.95, 1.0, 0.0, 2)

    def test_mean_wait_mm1(self):
        # M/M/1: E[W] = rho / (mu - lam)
        lam, mu = 0.6, 1.0
        assert mean_wait(lam, mu, 1) == pytest.approx(0.6 / 0.4)

    def test_mean_wait_against_simulation(self):
        """M/M/3 queueing delay measured on an exact FCFS simulation."""
        lam, mu, n = 2.4, 1.0, 3
        until = 20000.0
        customers = fcfs_customers(lam, n, until, 8, lambda rng: rng.exponential("svc", 1.0 / mu))
        waits = [start - t0 for t0, start, _ in customers if start < until]
        assert np.mean(waits) == pytest.approx(mean_wait(lam, mu, n), rel=0.1)


class TestDiscriminant:
    def test_qos_satisfied_boundaries(self):
        assert qos_satisfied(0.0, 1.0, 1, qos=2.0)
        assert not qos_satisfied(5.0, 1.0, 3, qos=2.0)  # unstable
        with pytest.raises(ValueError):
            qos_satisfied(1.0, 1.0, 1, qos=0.0)

    def test_max_arrival_rate_is_the_threshold(self):
        mu, n, qos = 2.0, 4, 1.5
        lam = max_arrival_rate(mu, n, qos)
        assert 0.0 < lam < n * mu
        assert qos_satisfied(lam * 0.999, mu, n, qos)
        assert not qos_satisfied(lam * 1.01, mu, n, qos)

    def test_max_arrival_rate_zero_when_qos_unreachable(self):
        assert max_arrival_rate(1.0, 4, qos=0.5) == 0.0  # 1/mu = 1 > 0.5

    def test_max_arrival_rate_monotone_in_n(self):
        vals = [max_arrival_rate(2.0, n, 1.5) for n in (1, 2, 4, 8, 16)]
        assert vals == sorted(vals)

    def test_max_arrival_rate_monotone_in_qos(self):
        vals = [max_arrival_rate(2.0, 4, q) for q in (0.6, 1.0, 2.0, 5.0)]
        assert vals == sorted(vals)

    @pytest.mark.parametrize(
        "mu,n,qos,r",
        [
            (2.0, 4, 1.5, 0.95),
            (8.0, 5, 0.3, 0.95),
            (1.0, 10, 2.5, 0.9),
            (0.5, 3, 6.0, 0.99),
        ],
    )
    def test_eq5_fixed_point_agrees_with_bisection(self, mu, n, qos, r):
        """Paper Eq. 5 and the operational bisection find the same λ."""
        a = discriminant_lambda(mu, n, qos, r)
        b = max_arrival_rate(mu, n, qos, r)
        assert a == pytest.approx(b, rel=2e-3)

    def test_discriminant_validates_inputs(self):
        with pytest.raises(ValueError):
            discriminant_lambda(0.0, 4, 1.0)
        with pytest.raises(ValueError):
            max_arrival_rate(1.0, 0, 1.0)

    def test_discriminant_prediction_holds_in_simulation(self):
        """λ just under λ(μ) meets the QoS on a queueing simulation.

        Eq. 5 budgets the *mean* service time (T_D − 1/μ), which presumes
        near-deterministic per-query runtimes — true of the FunctionBench
        kernels the paper (and our platform model, lognormal with small
        sigma) uses.  The M/M/N wait bound is then conservative (M/D/N
        waits are shorter), so the prediction must hold end-to-end.
        """
        mu, n, qos, r = 2.0, 4, 1.5, 0.95
        lam = 0.95 * max_arrival_rate(mu, n, qos, r)
        until = 30000.0
        customers = fcfs_customers(
            lam, n, until, 21, lambda rng: rng.lognormal_around("svc", 1.0 / mu, 0.12)
        )
        sojourns = [end - t0 for t0, _, end in customers if end < until]
        assert float(np.percentile(sojourns, 95)) <= qos


class TestMinServers:
    def test_returns_smallest_feasible(self):
        lam, mu, qos = 10.0, 2.0, 1.5
        n = min_servers(lam, mu, qos)
        assert qos_satisfied(lam, mu, n, qos)
        assert n == 1 or not qos_satisfied(lam, mu, n - 1, qos)

    def test_zero_load_needs_one(self):
        assert min_servers(0.0, 1.0, 2.0) == 1

    def test_unattainable_qos_raises(self):
        with pytest.raises(ValueError):
            min_servers(1.0, 1.0, qos=0.5)

    def test_cap_exceeded_raises(self):
        with pytest.raises(ValueError):
            min_servers(1000.0, 1.0, qos=1.5, n_cap=10)

    def test_validation(self):
        with pytest.raises(ValueError):
            min_servers(-1.0, 1.0, 2.0)
