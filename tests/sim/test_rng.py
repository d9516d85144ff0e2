"""Determinism and independence of named RNG substreams."""

import numpy as np
import pytest

from repro.sim.rng import RngRegistry


def test_same_seed_same_stream():
    a = RngRegistry(seed=7).stream("x").random(10)
    b = RngRegistry(seed=7).stream("x").random(10)
    assert np.array_equal(a, b)


def test_different_names_differ():
    reg = RngRegistry(seed=7)
    a = reg.stream("x").random(10)
    b = reg.stream("y").random(10)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngRegistry(seed=1).stream("x").random(10)
    b = RngRegistry(seed=2).stream("x").random(10)
    assert not np.array_equal(a, b)


def test_stream_identity_is_creation_order_independent():
    r1 = RngRegistry(seed=5)
    r1.stream("a")
    v1 = r1.stream("b").random(5)
    r2 = RngRegistry(seed=5)
    v2 = r2.stream("b").random(5)  # "a" never created here
    assert np.array_equal(v1, v2)


def test_stream_cached():
    reg = RngRegistry(seed=3)
    assert reg.stream("s") is reg.stream("s")


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngRegistry(seed=-1)


def test_exponential_mean():
    reg = RngRegistry(seed=11)
    xs = [reg.exponential("e", 2.0) for _ in range(20000)]
    assert abs(np.mean(xs) - 2.0) < 0.05


def test_exponential_validation():
    with pytest.raises(ValueError):
        RngRegistry(seed=0).exponential("e", 0.0)


def test_lognormal_median():
    reg = RngRegistry(seed=13)
    xs = [reg.lognormal_around("l", 3.0, 0.3) for _ in range(20001)]
    assert abs(np.median(xs) - 3.0) < 0.1


def test_lognormal_validation():
    with pytest.raises(ValueError):
        RngRegistry(seed=0).lognormal_around("l", -1.0, 0.1)


def test_uniform_bounds():
    reg = RngRegistry(seed=17)
    xs = [reg.uniform("u", 2.0, 5.0) for _ in range(1000)]
    assert min(xs) >= 2.0 and max(xs) < 5.0


def test_uniform_validation():
    with pytest.raises(ValueError):
        RngRegistry(seed=0).uniform("u", 5.0, 2.0)


@pytest.mark.parametrize("median, sigma", [(1.0, 0.15), (0.05, 0.3), (2.0, 0.0)])
def test_lognormal_sampler_matches_scalar_draws(median, sigma):
    # 100 draws cross three block refills and end inside a partial block
    draw = RngRegistry(seed=42).lognormal_sampler("s", median, sigma)
    got = [draw().hex() for _ in range(100)]
    gen = RngRegistry(seed=42).stream("s")
    want = [float(median * np.exp(gen.normal(0.0, sigma))).hex() for _ in range(100)]
    assert got == want


def test_lognormal_sampler_owns_its_stream():
    reg = RngRegistry(seed=0)
    reg.lognormal_sampler("owned", 1.0, 0.1)
    with pytest.raises(RuntimeError):
        reg.stream("owned")
    with pytest.raises(RuntimeError):
        reg.lognormal_around("owned", 1.0, 0.1)
    with pytest.raises(RuntimeError):
        reg.lognormal_sampler("owned", 1.0, 0.1)
    # unowned names are untouched by the guard
    reg.stream("free")
    reg.lognormal_around("other", 1.0, 0.1)
    reg.lognormal_sampler("another", 1.0, 0.1)()


def test_lognormal_sampler_refuses_a_stream_already_handed_out():
    reg = RngRegistry(seed=0)
    reg.stream("shared")
    with pytest.raises(RuntimeError):
        reg.lognormal_sampler("shared", 1.0, 0.1)


def test_lognormal_sampler_validation_claims_nothing():
    reg = RngRegistry(seed=0)
    with pytest.raises(ValueError):
        reg.lognormal_sampler("bad", 0.0, 0.1)
    reg.stream("bad")  # the refused sampler did not take the name


def test_seed_property():
    assert RngRegistry(seed=42).seed == 42
    assert RngRegistry().seed == 0


def test_owned_stream_draws_what_the_shared_stream_would():
    owned = RngRegistry(seed=8).owned_stream("arrivals/x").random(6)
    shared = RngRegistry(seed=8).stream("arrivals/x").random(6)
    assert np.array_equal(owned, shared)


def test_owned_stream_has_one_owner():
    reg = RngRegistry(seed=8)
    reg.owned_stream("a")
    with pytest.raises(RuntimeError):
        reg.owned_stream("a")
    with pytest.raises(RuntimeError):
        reg.stream("a")
    with pytest.raises(RuntimeError):
        reg.uniform("a", 0.0, 1.0)
    reg.stream("b")
    with pytest.raises(RuntimeError):
        reg.owned_stream("b")


def test_convenience_draws_come_from_the_named_stream():
    a, b = RngRegistry(seed=21), RngRegistry(seed=21)
    assert a.uniform("u", 2.0, 5.0) == b.stream("u").uniform(2.0, 5.0)
    assert a.lognormal_around("l", 3.0, 0.2) == 3.0 * np.exp(b.stream("l").normal(0.0, 0.2))
    assert a.exponential("e", 2.0) == b.stream("e").exponential(2.0)
