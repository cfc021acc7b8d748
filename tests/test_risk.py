"""The risk parameter's neutral threshold, and the weighted logmeanexp that
the tail-objective and fully observed checks aggregate with."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import logmeanexp_direct, weighted_logmeanexp
from rscpi.risk import RiskParameter


class TestRiskParameter:
    def test_below_threshold_is_neutral(self):
        assert RiskParameter(0.0).is_neutral
        assert RiskParameter(1e-10).is_neutral
        assert RiskParameter(-1e-10).is_neutral

    def test_above_threshold_is_tilted(self):
        assert not RiskParameter(1e-8).is_neutral
        assert not RiskParameter(1.0).is_neutral


class TestWeightedLogmeanexp:
    def test_constant_value_any_lambda(self):
        for lam in (0.0, 1e-6, 0.5, 1.0, 10.0, -2.0):
            assert weighted_logmeanexp([1.0], [3.25], lam) == pytest.approx(
                3.25, abs=1e-12)

    def test_neutral_is_weighted_mean(self):
        w = [0.25, 0.25, 0.25, 0.25]
        v = [2.0, -10.0, -10.0, 6.0]
        assert weighted_logmeanexp(w, v, 0.0) == pytest.approx(-3.0, abs=1e-12)

    def test_two_point_tilt(self):
        got = weighted_logmeanexp([0.9, 0.1], [2.0, -10.0], 1.0)
        want = math.log(0.9 * math.e ** 2 + 0.1 * math.e ** -10)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(1.89464017, abs=1e-8)
        assert got == pytest.approx(
            logmeanexp_direct([0.9, 0.1], [2.0, -10.0], 1.0), abs=1e-12)

    def test_unnormalized_weights_are_normalized(self):
        a = weighted_logmeanexp([9.0, 1.0], [2.0, -10.0], 1.0)
        b = weighted_logmeanexp([0.9, 0.1], [2.0, -10.0], 1.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_zero_weight_entries_ignored(self):
        # an ignored -inf-like outlier must not poison the result
        got = weighted_logmeanexp([0.5, 0.0, 0.5], [1.0, -1e308, 3.0], 2.0)
        want = logmeanexp_direct([0.5, 0.5], [1.0, 3.0], 2.0)
        assert got == pytest.approx(want, abs=1e-12)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="all-zero weights"):
            weighted_logmeanexp([0.0, 0.0], [1.0, 2.0], 1.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_logmeanexp([0.5, -0.5], [1.0, 2.0], 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_logmeanexp([1.0], [1.0, 2.0], 1.0)

    def test_risk_averse_lambda_accepted(self):
        got = weighted_logmeanexp([0.5, 0.5], [0.0, 10.0], -1.0)
        want = logmeanexp_direct([0.5, 0.5], [0.0, 10.0], -1.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert got < 5.0  # below the mean: averse side

    def test_matches_direct_oracle_on_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            w = rng.uniform(0.0, 1.0, size=k)
            w[int(rng.integers(k))] += 0.1  # keep at least one positive
            v = rng.uniform(-20.0, 20.0, size=k)
            lam = float(rng.choice([0.0, 1e-6, 0.1, 1.0, 3.0]))
            got = weighted_logmeanexp(w, v, lam)
            want = logmeanexp_direct(list(w), list(v), lam)
            # 1/lam amplifies the log's rounding at tiny lam; 1e-9 covers it
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_translation_invariance_1000_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            k = int(rng.integers(1, 7))
            w = rng.uniform(0.0, 1.0, size=k) + 1e-3
            v = rng.uniform(-50.0, 50.0, size=k)
            c = float(rng.uniform(-100.0, 100.0))
            lam = float(rng.choice([0.0, 0.01, 0.1, 1.0, 5.0]))
            base = weighted_logmeanexp(w, v, lam)
            shifted = weighted_logmeanexp(w, v + c, lam)
            assert abs(shifted - (base + c)) <= 1e-10

    @given(
        st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=6),
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=6),
        st.floats(0.0, 5.0),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_values(self, v, deltas, lam, data):
        k = min(len(v), len(deltas))
        v = np.asarray(v[:k])
        hi = v + np.asarray(deltas[:k])
        w = np.asarray(data.draw(st.lists(
            st.floats(0.01, 1.0), min_size=k, max_size=k)))
        lo_val = weighted_logmeanexp(w, v, lam)
        hi_val = weighted_logmeanexp(w, hi, lam)
        assert lo_val <= hi_val + 1e-12

    def test_continuity_at_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            w = rng.uniform(0.0, 1.0, size=k) + 1e-3
            v = rng.uniform(-100.0, 100.0, size=k)
            near = weighted_logmeanexp(w, v, 1e-8)
            at = weighted_logmeanexp(w, v, 0.0)
            assert abs(near - at) <= 1e-6 * (np.abs(v).max() + 1.0)

    @given(
        st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8),
        st.floats(1e-6, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_overflow_on_large_values(self, v, lam):
        w = np.ones(len(v))
        assert math.isfinite(weighted_logmeanexp(w, v, lam))

    def test_no_overflow_extreme_corners(self):
        v = np.array([-1e4, 1e4])
        for lam in (0.1, 1.0, 10.0):
            out = weighted_logmeanexp([0.5, 0.5], v, lam)
            assert math.isfinite(out)
            # the max dominates the tilt at these scales
            assert out <= 1e4 + 1e-9
