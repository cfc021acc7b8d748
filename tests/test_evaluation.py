"""Forward marginals, exact/risk evaluation, and Monte-Carlo cross-checks."""

import numpy as np
import pytest

from _benchmarks import (dectiger_block_policy, dectiger_model,
                         deterministic_policy, fully_observed_model,
                         random_model, random_policy_for, recycling_model,
                         recycling_reactive_policy)
from oracles import (evaluate_enum, evaluate_risk_enum,
                     expand_joint_policy_gather, forward_sum_eval,
                     marginal_enum)
from rscpi.evaluation import (evaluate_exact, evaluate_risk,
                              expand_joint_policy, forward_marginals,
                              joint_phi, rollout_monte_carlo)
from rscpi.model import matrix_game_model
from rscpi.policy import JointPolicy, random_policy
from rscpi.risk import certainty_equivalent

MATRIX_PAYOFFS = [[2.0, -10.0], [-10.0, 6.0]]


def uniform_matrix_policy():
    tab = np.full((1, 1, 1, 2, 1), 0.5)
    return JointPolicy(horizon=1, agent_state_sizes=(1, 1),
                       tables=[tab, tab.copy()])


def pick_policy(model, a1, a2):
    return deterministic_policy(model, (1, 1),
                                lambda i, t, y, w: ((a1, a2)[i], 0))


class TestExpandJointPolicy:
    def test_matches_gather_form_bitwise(self):
        rng = np.random.default_rng(21)
        for k in range(12):
            n = int(rng.integers(1, 4))
            a_sizes = tuple(int(v) for v in rng.integers(1, 4, size=n))
            y_sizes = tuple(int(v) for v in rng.integers(1, 4, size=n))
            z_sizes = tuple(int(v) for v in rng.integers(1, 3, size=n))
            policy = random_policy(a_sizes, y_sizes, z_sizes, 2, seed=k)
            for t in range(2):
                for skip in [None] + list(range(n)):
                    got = expand_joint_policy(policy, t, skip_agent=skip)
                    want = expand_joint_policy_gather(policy, t, skip)
                    assert got.shape == want.shape
                    assert np.array_equal(got, want), (k, t, skip)


class TestForwardMarginals:
    def test_first_slice_is_initial_product(self):
        model = dectiger_model(horizon=3)
        policy = random_policy_for(model, (2, 2), seed=0)
        traj = forward_marginals(model, policy)
        phi = joint_phi(policy)
        want = model.zeta1[:, :, None] * phi[None, None, :]
        np.testing.assert_array_equal(traj.at(1), want)

    def test_matrix_game_single_point_mass(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        traj = forward_marginals(model, uniform_matrix_policy())
        assert traj.horizon == 1
        assert traj.at(1).shape == (1, 1, 1)
        assert traj.at(1)[0, 0, 0] == 1.0

    def test_normalized_over_long_horizon(self):
        model = dectiger_model(horizon=20)
        policy = random_policy_for(model, (2, 2), seed=1)
        traj = forward_marginals(model, policy)
        for t in range(1, 21):
            z = traj.at(t)
            assert np.all(z >= 0.0)
            assert abs(z.sum() - 1.0) <= 1e-10

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, n_states=2, horizon=3)
        policy = random_policy_for(model, (2, 2), seed=3)
        traj = forward_marginals(model, policy)
        got = traj.at(3)
        want = marginal_enum(model, policy, 3)
        total = np.zeros_like(got)
        for (s, y, z), p in want.items():
            total[s, y, z] = p
        np.testing.assert_allclose(got, total, rtol=0, atol=1e-12)

    def test_dim_mismatch_rejected(self):
        model = dectiger_model(horizon=3)
        other = matrix_game_model(MATRIX_PAYOFFS)
        policy = random_policy_for(other, (1, 1), seed=0)
        with pytest.raises(ValueError):
            forward_marginals(model, policy)


class TestEvaluateExact:
    def test_matrix_game_corner_points(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        assert evaluate_exact(model, pick_policy(model, 1, 1)) == 6.0
        assert evaluate_exact(model, pick_policy(model, 0, 0)) == 2.0
        assert evaluate_exact(model, pick_policy(model, 0, 1)) == -10.0

    def test_matrix_game_uniform(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        got = evaluate_exact(model, uniform_matrix_policy())
        assert got == pytest.approx(-3.0, abs=1e-12)

    def test_equals_forward_sum_on_random_models(self):
        rng = np.random.default_rng(4)
        for k in range(20):
            model = random_model(rng, n_states=int(rng.integers(2, 5)),
                                 horizon=int(rng.integers(2, 6)))
            policy = random_policy_for(model, (2, 2), seed=100 + k)
            a = evaluate_exact(model, policy)
            b = forward_sum_eval(model, policy)
            assert abs(a - b) <= 1e-9

    def test_equals_path_enumeration(self):
        rng = np.random.default_rng(5)
        for k in range(3):
            model = random_model(rng, n_states=2, horizon=2)
            policy = random_policy_for(model, (2, 2), seed=200 + k)
            got = evaluate_exact(model, policy)
            assert got == pytest.approx(evaluate_enum(model, policy),
                                        abs=1e-10)

    def test_dectiger_block_policy_value(self):
        # hand-computed: two listens then open on agreement pays 9.1908125
        # in expectation against the 4 spent on listening
        model = dectiger_model(horizon=3)
        got = evaluate_exact(model, dectiger_block_policy(3))
        assert got == pytest.approx(5.1908125, abs=1e-12)
        model6 = dectiger_model(horizon=6)
        got6 = evaluate_exact(model6, dectiger_block_policy(6))
        assert got6 == pytest.approx(2 * 5.1908125, abs=1e-10)

    def test_recycling_closed_forms_long_horizon(self):
        # geometric closed forms for the two reactive rules at T=100
        model = recycling_model(100)
        stationary = 4000 / 13 + 120 / 169 * (1 - (-0.3) ** 100)
        opening = stationary + 5 / 13 - 0.4 * (6 / 13) * ((-0.3) ** 98)
        got_s = evaluate_exact(model, recycling_reactive_policy(100, 1))
        got_o = evaluate_exact(model, recycling_reactive_policy(100, 0))
        assert got_s == pytest.approx(stationary, abs=1e-9)
        assert got_o == pytest.approx(opening, abs=1e-9)


class TestEvaluateRisk:
    def test_neutral_equals_exact(self):
        rng = np.random.default_rng(6)
        for k in range(10):
            model = random_model(rng, horizon=3)
            policy = random_policy_for(model, (2, 2), seed=300 + k)
            a = evaluate_exact(model, policy)
            b = evaluate_risk(model, policy, 0.0)
            assert abs(a - b) <= 1e-9

    def test_matrix_game_uniform_tilt(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        got = evaluate_risk(model, uniform_matrix_policy(), 1.0)
        want = certainty_equivalent([0.25] * 4, [2.0, -10.0, -10.0, 6.0], 1.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(4.6319, abs=1e-4)

    def test_constant_reward_any_lambda(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, horizon=4)
        model.r[:] = -0.8
        policy = random_policy_for(model, (2, 2), seed=8)
        for lam in (0.0, 0.1, 1.0, 5.0):
            got = evaluate_risk(model, policy, lam)
            assert got == pytest.approx(4 * -0.8, abs=1e-9)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, n_states=2, horizon=2)
        policy = random_policy_for(model, (2, 2), seed=9)
        for lam in (0.0, 0.5, 2.0):
            got = evaluate_risk(model, policy, lam)
            want = evaluate_risk_enum(model, policy, lam)
            assert got == pytest.approx(want, abs=1e-9)

    def test_nondecreasing_in_lambda(self):
        rng = np.random.default_rng(9)
        lams = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0]
        for k in range(10):
            model = random_model(rng, horizon=3)
            policy = random_policy_for(model, (2, 2), seed=400 + k)
            vals = [evaluate_risk(model, policy, lam) for lam in lams]
            for lo, hi in zip(vals, vals[1:]):
                assert hi >= lo - 1e-9

    def test_negative_lambda_rejected(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        with pytest.raises(ValueError, match="lam"):
            evaluate_risk(model, uniform_matrix_policy(), -0.5)


class TestMonteCarlo:
    def test_deterministic_process_zero_stderr(self):
        P = np.zeros((2, 2, 2))
        P[:, :, 1] = 1.0  # every action leads to state 1
        r = np.array([[1.0, 2.0], [3.0, 4.0]])
        model = fully_observed_model(P, r, [1.0, 0.0], horizon=3)
        policy = deterministic_policy(model, (1,),
                                      lambda i, t, y, w: (y % 2, 0))
        mean, stderr = rollout_monte_carlo(model, policy, 500, seed=0)
        assert stderr == 0.0
        assert mean == pytest.approx(evaluate_exact(model, policy), abs=1e-12)

    def test_matrix_game_uniform_statistics(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        mean, stderr = rollout_monte_carlo(model, uniform_matrix_policy(),
                                           100_000, seed=1)
        assert stderr > 0.0
        assert abs(mean - (-3.0)) <= 4.0 * stderr

    def test_dectiger_agrees_with_exact(self):
        model = dectiger_model(horizon=3)
        policy = dectiger_block_policy(3)
        mean, stderr = rollout_monte_carlo(model, policy, 20_000, seed=2)
        assert abs(mean - 5.1908125) <= 4.0 * stderr

    def test_same_seed_reproduces(self):
        model = dectiger_model(horizon=3)
        policy = random_policy_for(model, (2, 2), seed=3)
        a = rollout_monte_carlo(model, policy, 2000, seed=7)
        b = rollout_monte_carlo(model, policy, 2000, seed=7)
        assert a == b

    def test_episode_count_validated(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        with pytest.raises(ValueError, match="episodes"):
            rollout_monte_carlo(model, uniform_matrix_policy(), 0, seed=0)
