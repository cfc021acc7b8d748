"""Model construction, null-observation padding and initial-distribution
tests."""

import numpy as np
import pytest

from _benchmarks import dectiger_model, deterministic_policy, random_model
from rscpi.model import (DecPomdpModel, is_int,
                         make_initial_distribution, matrix_game_model,
                         pad_dynamics_for_dummy)


@pytest.mark.parametrize("value, lo, ok", [
    (3, None, True), (-3, None, True), (np.int64(3), 1, True),
    (np.uint8(0), 0, True), (0, 1, False), (np.int32(-1), 0, False),
    (True, None, False), (np.bool_(True), None, False), (3.0, None, False),
    ("3", None, False), (None, None, False)])
def test_is_int(value, lo, ok):
    """The one integer check of configs, policy JSON and rollout arguments:
    numpy integers count, bools and floats do not."""
    assert is_int(value, lo) is ok


class TestMakeInitialDistribution:
    def test_point_mass_dummy_single_cell(self):
        for obs_counts in [(2, 2), (2, 3, 1)]:
            zeta1, counts = make_initial_distribution([1.0, 0.0], obs_counts)
            assert counts == tuple(n + 1 for n in obs_counts)
            assert zeta1.shape == (2, np.prod(counts))
            assert zeta1.sum() == 1.0
            nz = np.argwhere(zeta1)
            assert len(nz) == 1
            s, y = nz[0]
            assert zeta1[s, y] == 1.0
            assert s == 0
            assert y == zeta1.shape[1] - 1   # the last flat index
            # every agent on its appended null
            assert np.unravel_index(y, counts) == obs_counts

    def test_uniform_mode_product_cells(self):
        zeta1, counts = make_initial_distribution(
            [0.5, 0.5], (2, 2), mode="uniform_observation")
        assert counts == (2, 2)
        np.testing.assert_array_equal(zeta1, np.full((2, 4), 0.125))

    def test_dummy_mode_preserves_state_marginal(self):
        start = np.array([0.5, 0.5])
        zeta1, _ = make_initial_distribution(start, (2, 2))
        assert zeta1.sum() == pytest.approx(1.0, abs=0)
        np.testing.assert_array_equal(zeta1.sum(axis=1), start)

    def test_marginal_exact_on_random_starts(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            start = rng.dirichlet(np.ones(4))
            for mode in ("dummy_observation", "uniform_observation"):
                zeta1, _ = make_initial_distribution(start, (2, 3), mode)
                np.testing.assert_allclose(zeta1.sum(axis=1), start,
                                           rtol=0, atol=1e-15)

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError, match="sums to"):
            make_initial_distribution([0.5, 0.48], (2,))
        with pytest.raises(ValueError):
            make_initial_distribution([1.5, -0.5], (2,))
        with pytest.raises(ValueError):
            make_initial_distribution([], (2,))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            make_initial_distribution([1.0], (2,), mode="belief")


class TestPadDynamics:
    def test_null_symbols_never_emitted(self):
        rng = np.random.default_rng(1)
        S, A = 2, 4
        for obs_counts in [(2, 2), (2, 3, 1)]:
            Y = np.prod(obs_counts)
            P = rng.dirichlet(np.ones(S * Y), size=(S, A)).reshape(S, A, S, Y)
            out = pad_dynamics_for_dummy(P, obs_counts)
            counts = tuple(n + 1 for n in obs_counts)
            assert out.shape == (S, A, S, np.prod(counts))
            np.testing.assert_allclose(out.sum(axis=(2, 3)), 1.0, atol=1e-12)
            parts = np.unravel_index(np.arange(out.shape[3]), counts)
            null = np.any([c == n for c, n in zip(parts, obs_counts)], axis=0)
            assert np.all(out[..., null] == 0.0)
            # every other cell is P's, in order and bit for bit
            np.testing.assert_array_equal(out[..., ~null], P)


class TestDecPomdpModel:
    def test_dectiger_dims_and_start(self):
        model = dectiger_model(horizon=2)
        assert model.n_agents == 2
        assert model.state_count == 2
        assert model.action_counts == (3, 3)
        assert model.obs_counts == (3, 3)  # null appended per agent
        np.testing.assert_array_equal(model.zeta1.sum(axis=1), [0.5, 0.5])

    def test_validates_p_rows(self):
        model = random_model(np.random.default_rng(2))
        P = model.P.copy()
        P[0, 0] *= 0.5
        with pytest.raises(ValueError, match="sums to"):
            DecPomdpModel(
                n_agents=model.n_agents, state_count=model.state_count,
                action_counts=model.action_counts, obs_counts=model.obs_counts,
                P=P, r=model.r, zeta1=model.zeta1, horizon=model.horizon)

    def test_validates_zeta1(self):
        model = random_model(np.random.default_rng(3))
        bad = model.zeta1 * 0.7
        with pytest.raises(ValueError, match="zeta1"):
            DecPomdpModel(
                n_agents=model.n_agents, state_count=model.state_count,
                action_counts=model.action_counts, obs_counts=model.obs_counts,
                P=model.P, r=model.r, zeta1=bad, horizon=model.horizon)

    def test_rejects_nonfinite_rewards(self):
        model = random_model(np.random.default_rng(4))
        r = model.r.copy()
        r[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DecPomdpModel(
                n_agents=model.n_agents, state_count=model.state_count,
                action_counts=model.action_counts, obs_counts=model.obs_counts,
                P=model.P, r=r, zeta1=model.zeta1, horizon=model.horizon)

    @pytest.mark.parametrize("field", ["P", "zeta1"])
    def test_rejects_nan_probabilities(self, field):
        model = random_model(np.random.default_rng(6))
        arrays = dict(P=model.P.copy(), zeta1=model.zeta1.copy())
        arrays[field].reshape(-1)[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DecPomdpModel(
                n_agents=model.n_agents, state_count=model.state_count,
                action_counts=model.action_counts, obs_counts=model.obs_counts,
                r=model.r, horizon=model.horizon, **arrays)

    def test_rejects_bad_horizon(self):
        model = random_model(np.random.default_rng(5))
        with pytest.raises(ValueError, match="horizon"):
            DecPomdpModel(
                n_agents=model.n_agents, state_count=model.state_count,
                action_counts=model.action_counts, obs_counts=model.obs_counts,
                P=model.P, r=model.r, zeta1=model.zeta1, horizon=0)


class TestMatrixGame:
    def test_payoff_table_layout(self):
        model = matrix_game_model([[2.0, -10.0], [-10.0, 6.0]])
        assert model.horizon == 1
        assert model.state_count == 1
        assert model.action_counts == (2, 2)
        assert model.obs_counts == (1, 1)
        for picks, payoff in [((0, 0), 2.0), ((0, 1), -10.0),
                              ((1, 0), -10.0), ((1, 1), 6.0)]:
            a = np.ravel_multi_index(picks, model.action_counts)
            assert model.r[0, a] == payoff

    def test_zero_payoffs_evaluate_to_zero(self):
        from rscpi.evaluation import evaluate_exact
        model = matrix_game_model([[0.0, 0.0], [0.0, 0.0]])
        for picks in [(0, 0), (0, 1), (1, 1)]:
            policy = deterministic_policy(
                model, (1, 1), lambda i, t, y, w: (picks[i], 0))
            assert evaluate_exact(model, policy) == 0.0

    def test_one_by_one_game(self):
        from rscpi.evaluation import evaluate_exact
        model = matrix_game_model([[-7.25]])
        policy = deterministic_policy(model, (1, 1))
        assert evaluate_exact(model, policy) == -7.25

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            matrix_game_model([1.0, 2.0])
