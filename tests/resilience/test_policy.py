"""Tests for the ResiliencePolicy configuration object."""

import random

import pytest

from repro.resilience import ResiliencePolicy
from repro.resilience.policy import BACKOFF_CAP, BACKOFF_MULTIPLIER


class TestPolicyValidation:
    def test_defaults(self):
        policy = ResiliencePolicy()
        assert policy.max_retries == 2
        assert policy.breaker_threshold == 5
        assert policy.call_timeout is None
        assert policy.plan_deadline is None

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)

    def test_rejects_out_of_range_jitter(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(jitter=1.5)

    def test_rejects_zero_breaker_threshold(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(breaker_threshold=0)

    def test_breaker_threshold_none_disables_breaking(self):
        policy = ResiliencePolicy(breaker_threshold=None)
        assert policy.breaker_threshold is None



class TestBackoff:
    def test_exponential_progression(self):
        policy = ResiliencePolicy(backoff_base=0.1)
        assert BACKOFF_MULTIPLIER == 2.0
        assert policy.backoff_delay(1) == pytest.approx(0.1)
        assert policy.backoff_delay(2) == pytest.approx(0.2)
        assert policy.backoff_delay(3) == pytest.approx(0.4)

    def test_cap_bounds_the_delay(self):
        policy = ResiliencePolicy(backoff_base=1.0)
        assert policy.backoff_delay(5) == BACKOFF_CAP == 2.0

    def test_no_jitter_without_rng(self):
        policy = ResiliencePolicy(jitter=0.5)
        assert policy.backoff_delay(1) == policy.backoff_delay(1)

    def test_jitter_is_deterministic_per_seed(self):
        policy = ResiliencePolicy(jitter=0.2, backoff_base=1.0)
        a = [policy.backoff_delay(1, random.Random(7)) for _ in range(3)]
        b = [policy.backoff_delay(1, random.Random(7)) for _ in range(3)]
        assert a == b
        # symmetric: within [1 - jitter, 1 + jitter] of the raw delay
        assert all(0.8 <= d <= 1.2 for d in a)

    def test_jitter_varies_across_draws(self):
        policy = ResiliencePolicy(jitter=0.2, backoff_base=1.0)
        rng = random.Random(7)
        draws = {policy.backoff_delay(1, rng) for _ in range(8)}
        assert len(draws) > 1
