"""The circuit breaker: trip, deterministic dwell, half-open probes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overload import BreakerState, CircuitBreaker, OverloadPolicy


def make_breaker(**overrides):
    defaults = dict(
        breaker_window=16,
        breaker_window_s=100.0,
        breaker_min_samples=4,
        breaker_threshold=0.5,
        breaker_dwell_s=10.0,
        breaker_halfopen_samples=4,
    )
    defaults.update(overrides)
    return CircuitBreaker(OverloadPolicy(**defaults))


def feed(breaker, now, outcomes):
    for bad in outcomes:
        breaker.record(now, bad=bad)


class TestTrip:
    def test_trips_at_threshold_with_enough_samples(self):
        breaker = make_breaker()
        feed(breaker, 1.0, [True, True, False, True])
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert breaker.opened_at == 1.0

    def test_no_trip_below_min_samples(self):
        breaker = make_breaker()
        feed(breaker, 1.0, [True, True, True])  # 100% bad but only 3 samples
        assert breaker.state is BreakerState.CLOSED

    def test_no_trip_below_threshold(self):
        breaker = make_breaker()
        feed(breaker, 1.0, [True, False, False, False])
        assert breaker.state is BreakerState.CLOSED

    def test_old_samples_age_out_of_the_window(self):
        breaker = make_breaker(breaker_window_s=5.0)
        feed(breaker, 0.0, [True, True, True])
        # the early badness is stale by the time fresh samples arrive
        feed(breaker, 50.0, [False, False, False, True])
        assert breaker.state is BreakerState.CLOSED

    def test_weighted_outcome_counts_multiply(self):
        breaker = make_breaker()
        breaker.record(1.0, bad=True, weight=4)
        assert breaker.state is BreakerState.OPEN

    def test_nonpositive_weight_is_ignored(self):
        breaker = make_breaker()
        breaker.record(1.0, bad=True, weight=0)
        assert breaker.state is BreakerState.CLOSED


class TestOpen:
    def test_open_ignores_outcomes_until_dwell(self):
        breaker = make_breaker()
        feed(breaker, 1.0, [True] * 4)
        feed(breaker, 5.0, [False] * 50)  # inside the dwell: not evidence
        assert breaker.state is BreakerState.OPEN
        assert breaker.is_open(5.0)

    def test_half_open_edge_is_stamped_at_dwell_expiry(self):
        breaker = make_breaker()
        feed(breaker, 1.0, [True] * 4)
        # consult long after the dwell elapsed; the transition must be
        # stamped at opened_at + dwell (11.0), not at consultation time
        assert not breaker.is_open(40.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.transitions[-1] == (11.0, "half_open")

    def test_transition_log_is_consultation_order_independent(self):
        early, late = make_breaker(), make_breaker()
        feed(early, 1.0, [True] * 4)
        feed(late, 1.0, [True] * 4)
        early.is_open(11.0)  # polled right at the dwell boundary
        late.is_open(500.0)  # polled much later
        assert early.transitions == late.transitions


class TestHalfOpen:
    def _half_open(self):
        breaker = make_breaker()
        feed(breaker, 1.0, [True] * 4)
        breaker.advance(20.0)
        assert breaker.state is BreakerState.HALF_OPEN
        return breaker

    def test_healthy_probe_batch_closes(self):
        breaker = self._half_open()
        feed(breaker, 20.0, [False] * 4)
        assert breaker.state is BreakerState.CLOSED
        assert [state for _t, state in breaker.transitions] == ["open", "half_open", "closed"]
        assert breaker.trips == 1

    def test_bad_probe_batch_reopens(self):
        breaker = self._half_open()
        feed(breaker, 20.0, [True, True, False, False])
        assert breaker.state is BreakerState.OPEN
        assert [state for _t, state in breaker.transitions] == ["open", "half_open", "open"]
        assert breaker.trips == 1  # the second OPEN edge is a reopen, not a trip

    def test_a_reopen_restarts_the_dwell(self):
        breaker = self._half_open()
        feed(breaker, 20.0, [True] * 4)  # reopens at 20.0
        assert breaker.is_open(29.999)  # the first dwell's end (11.0) is long past
        breaker.record(30.0, bad=False)  # due exactly now: half-opens, then probes
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.transitions[-1] == (30.0, "half_open")
        assert breaker.opened_at == 20.0  # dwell restarts from the reopen

    def test_close_resets_the_window_history(self):
        breaker = self._half_open()
        feed(breaker, 20.0, [False] * 4)
        # one bad outcome after closing must not trip on stale history
        breaker.record(21.0, bad=True)
        assert breaker.state is BreakerState.CLOSED

    def test_full_lifecycle_is_recorded_in_order(self):
        breaker = self._half_open()
        feed(breaker, 20.0, [False] * 4)
        assert [state for _, state in breaker.transitions] == [
            "open",
            "half_open",
            "closed",
        ]
        times = [t for t, _ in breaker.transitions]
        assert times == sorted(times)


class TestRunningBadCount:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=8.0),  # time step
                st.booleans(),  # bad
                st.integers(min_value=0, max_value=5),  # weight (0 = advance only)
            ),
            max_size=120,
        )
    )
    def test_running_count_matches_the_window(self, steps):
        # a small window and a short age bound exercise both ways an
        # outcome leaves: the full deque dropping it, and age eviction
        breaker = make_breaker(breaker_window=6, breaker_window_s=10.0, breaker_min_samples=3)
        now = 0.0
        for dt, bad, weight in steps:
            now += dt
            if weight:
                breaker.record(now, bad=bad, weight=weight)
            else:
                breaker.advance(now)
            assert breaker._bad == sum(1 for _, b in breaker._window if b)
