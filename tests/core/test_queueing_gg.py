"""The Allen–Cunneen G/G/N extension to the Eq. 5 discriminant."""

import numpy as np
import pytest

from repro.sim.queueing import (
    max_arrival_rate,
    max_arrival_rate_gg,
    qos_satisfied_gg,
    wait_quantile,
    wait_quantile_gg,
)

# long queueing simulations: excluded from the quick tier
pytestmark = pytest.mark.slow


def test_mm_n_recovered_with_exponential_service():
    # C_a^2 = C_s^2 = 1 -> factor 1: plain M/M/N
    assert wait_quantile_gg(0.95, 4.0, 1.0, 6, ca2=1.0, cs2=1.0) == pytest.approx(
        wait_quantile(0.95, 4.0, 1.0, 6)
    )


def test_md_n_halves_the_wait():
    # deterministic service: (1 + 0)/2 = half the M/M/N wait
    assert wait_quantile_gg(0.95, 4.0, 1.0, 6, cs2=0.0) == pytest.approx(
        0.5 * wait_quantile(0.95, 4.0, 1.0, 6)
    )


def test_corrected_backend_admits_more_load():
    mmn = max_arrival_rate(2.0, 4, 1.0)
    mdn = max_arrival_rate_gg(2.0, 4, 1.0, cs2=0.0)
    assert mdn > mmn


def test_qos_satisfied_gg_boundary():
    mu, n, qos = 2.0, 4, 1.0
    lam = max_arrival_rate_gg(mu, n, qos, cs2=0.0)
    assert qos_satisfied_gg(lam * 0.999, mu, n, qos, cs2=0.0)
    assert not qos_satisfied_gg(lam * 1.01, mu, n, qos, cs2=0.0)


def test_validation():
    with pytest.raises(ValueError):
        wait_quantile_gg(0.95, 1.0, 1.0, 2, ca2=-1.0)
    with pytest.raises(ValueError):
        qos_satisfied_gg(1.0, 1.0, 2, qos=0.0)
    with pytest.raises(ValueError):
        max_arrival_rate_gg(0.0, 2, 1.0)


def test_mdn_matches_near_deterministic_simulation():
    """The corrected quantile tracks an M/D/N-ish simulation closely,
    where plain M/M/N over-estimates."""
    from repro.sim.environment import Environment
    from repro.sim.resources import Resource
    from repro.sim.rng import RngRegistry

    lam, mu, n = 6.5, 2.0, 4  # rho ~0.81
    env = Environment()
    rng = RngRegistry(seed=33)
    servers = Resource(env, capacity=n)
    waits = []

    def customer(env):
        t0 = env.now
        req = servers.request()
        yield req
        waits.append(env.now - t0)
        yield env.timeout(rng.lognormal_around("svc", 1.0 / mu, 0.05))
        servers.release(req)

    def arrivals(env):
        while True:
            yield env.timeout(rng.exponential("arr", 1.0 / lam))
            env.process(customer(env))

    env.process(arrivals(env))
    env.run(until=40000.0)
    sim_q95 = float(np.percentile(waits, 95))
    mmn_q95 = wait_quantile(0.95, lam, mu, n)
    mdn_q95 = wait_quantile_gg(0.95, lam, mu, n, cs2=0.0)
    # M/M/N overshoots near-deterministic reality; the correction is closer
    assert abs(mdn_q95 - sim_q95) < abs(mmn_q95 - sim_q95)


class TestGGLargeN:
    """The controller's mdn discriminant at fleet-scale container counts."""

    @pytest.mark.parametrize("n", [700, 2000, 100_000])
    def test_max_arrival_rate_gg_finite_at_scale(self, n):
        lam = max_arrival_rate_gg(1.0, n, qos=1.5, cs2=0.0)
        assert 0.0 < lam < n * 1.0
        assert qos_satisfied_gg(lam * 0.999, 1.0, n, 1.5, cs2=0.0)

    def test_gg_ceiling_at_least_mmn_ceiling(self):
        # deterministic service halves the predicted wait, so the
        # admissible rate can only go up
        for n in (700, 2000):
            assert max_arrival_rate_gg(1.0, n, 1.5, cs2=0.0) >= max_arrival_rate(1.0, n, 1.5)
