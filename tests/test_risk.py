"""The tilt's neutral threshold, the one float form of lam that every
recursion takes, and the weighted logmeanexp that the tail-objective and
fully observed checks aggregate with."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _benchmarks import random_model, random_policy_for
from oracles import logmeanexp_direct, stage_plan, weighted_logmeanexp
from rscpi.evaluation import (aggregate_initial, backward, evaluate_risk,
                              is_neutral, stage_backup)
from rscpi.solver import sweep


class TestRiskParameter:
    def test_below_threshold_is_neutral(self):
        assert is_neutral(0.0)
        assert is_neutral(1e-10)
        assert is_neutral(-1e-10)

    def test_above_threshold_is_tilted(self):
        assert not is_neutral(1e-8)
        assert not is_neutral(1.0)


def lam_calls():
    """Name -> a call of lam returning its result's bytes, one per entry
    point that takes lam and one per step of a stage on a solve's plan, all
    on one two-agent model and policy, its marginals and a random L_2 and
    q_red. The stage steps are named after the phases of a sweep."""
    rng = np.random.default_rng(5)
    model = random_model(rng, n_states=3, action_counts=(2, 3),
                         obs_counts=(2, 2), horizon=3)
    policy = random_policy_for(model, (2, 2), seed=6)
    S, A = model.state_count, model.joint_action_count
    l_next = rng.uniform(-1.0, 1.0, size=(S, model.joint_obs_count, 4))
    q_red = rng.uniform(-1.0, 1.0, size=(S, A, 4))

    def backup(lam):
        out = np.empty(q_red.shape)
        return stage_backup(model, l_next, lam, out).tobytes()

    def fold(lam):
        plan = stage_plan(model, policy, lam, q_red=q_red)
        return plan.fold(2, 0).tobytes()

    def swept(lam):
        twin = policy.copy()
        j = sweep(model, twin, lam, 0.3)
        return [float(j).hex()] + [t.tobytes() for t in twin.tables]

    def local(lam):
        qbar = stage_plan(model, policy, lam, l_next).local_q(2, 1)
        return qbar.table.tobytes() + qbar.mass.tobytes()

    return {
        "stage_backup": backup,
        "fold_stage": fold,
        "aggregate_initial": lambda lam: float(aggregate_initial(
            model, policy, l_next, lam)).hex(),
        "backward": lambda lam: backward(model, policy, lam).tobytes(),
        "evaluate_risk": lambda lam: float(evaluate_risk(model, policy,
                                                         lam)).hex(),
        "sweep": swept,
        "averaged_local_q": local,
    }


class TestLamContract:
    """lam is one float through every recursion: a Python float and an
    np.float64 of the same value give the same bits, and every public entry
    point refuses a negative or non-finite lam at its boundary."""

    @pytest.mark.parametrize("name", ["stage_backup", "fold_stage",
                                      "aggregate_initial", "backward",
                                      "evaluate_risk", "sweep",
                                      "averaged_local_q"])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_float_and_float64_give_the_same_bits(self, name, lam):
        call = lam_calls()[name]
        assert call(lam) == call(np.float64(lam))

    @pytest.mark.parametrize("name", ["backward", "evaluate_risk", "sweep"])
    @pytest.mark.parametrize("lam", [-1.0, math.inf, math.nan])
    def test_bad_lam_is_refused(self, name, lam):
        call = lam_calls()[name]
        with pytest.raises(ValueError, match="lam"):
            call(lam)

    def test_nan_is_not_neutral(self):
        """A nan lam takes the tilted path, where the boundary check or the
        tilted recursion's finiteness check fails it."""
        assert not is_neutral(math.nan)


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
