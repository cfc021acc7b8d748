"""Policy containers, random init, conservative mixing, serialization, dumps."""

import numpy as np
import pytest

from _benchmarks import dectiger_model, deterministic_policy
import oracles
from oracles import as_table
from rscpi.model import matrix_game_model
from rscpi.policy import (JointPolicy, PolicyBatch, dump_policy, mix_policies,
                          point_mass_phi, policy_from_json, policy_to_json,
                          random_policy, uniform_phi)

DECTIGER_DIMS = dict(action_counts=(3, 3), obs_counts=(3, 3),
                     z_sizes=(2, 2), horizon=3)


def dectiger_random(seed):
    return random_policy(seed=seed, **DECTIGER_DIMS)


class TestJointPolicy:
    def test_default_phi_is_point_mass(self):
        pol = dectiger_random(0)
        for z, ph in zip((2, 2), pol.phi):
            np.testing.assert_array_equal(ph, point_mass_phi(z))

    def test_dims_from_tables(self):
        pol = dectiger_random(0)
        assert pol.n_agents == 2
        assert pol.action_counts() == (3, 3)
        assert pol.obs_counts() == (3, 3)

    def test_rejects_unnormalized_rows(self):
        pol = dectiger_random(0)
        pol.tables[1][2, 0, 1] *= 0.5
        with pytest.raises(ValueError, match="sums to"):
            pol.validate()

    def test_rejects_negative_entries(self):
        pol = dectiger_random(0)
        pol.tables[0][0, 0, 0, 0, 0] -= 1.0
        with pytest.raises(ValueError, match="negative"):
            pol.validate()

    def test_rejects_wrong_horizon(self):
        tab = np.ones((2, 1, 1, 1, 1))
        with pytest.raises(ValueError, match="shape"):
            JointPolicy(horizon=3, agent_state_sizes=(1,), tables=[tab])

    def test_rejects_size_count_mismatch(self):
        with pytest.raises(ValueError, match="lists 0 sizes for 1 tables"):
            JointPolicy(horizon=1, agent_state_sizes=(),
                        tables=[np.full((1, 1, 1, 2, 1), 0.5)],
                        phi=[np.ones(1)])

    def test_rejects_bad_phi(self):
        pol = dectiger_random(0)
        pol.phi[0] = np.array([0.5, 0.4])
        with pytest.raises(ValueError, match="phi"):
            pol.validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite_table_entries(self, value):
        pol = dectiger_random(0)
        pol.tables[0][1, 0, 1, 0, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            pol.validate()

    def test_rejects_nan_phi(self):
        pol = dectiger_random(0)
        pol.phi[1] = np.array([np.nan, 1.0])
        with pytest.raises(ValueError, match="phi"):
            pol.validate()

    def test_copy_is_deep(self):
        pol = dectiger_random(0)
        dup = pol.copy()
        dup.tables[0][0, 0, 0] = 0.0
        dup.tables[0][0, 0, 0, 0, 0] = 1.0
        assert not np.array_equal(pol.tables[0], dup.tables[0])


class TestRandomPolicy:
    def test_rows_sum_to_one(self):
        pol = dectiger_random(42)
        for tab in pol.tables:
            np.testing.assert_allclose(tab.sum(axis=(3, 4)), 1.0, atol=1e-12)

    def test_trivial_dims_are_point_mass(self):
        pol = random_policy((1, 1), (2, 2), (1, 1), horizon=4, seed=9)
        for tab in pol.tables:
            np.testing.assert_array_equal(tab, 1.0)

    def test_same_seed_bitwise_equal(self):
        a, b = dectiger_random(7), dectiger_random(7)
        for ta, tb in zip(a.tables, b.tables):
            np.testing.assert_array_equal(ta, tb)

    def test_different_seeds_differ(self):
        a, b = dectiger_random(7), dectiger_random(8)
        assert any(not np.array_equal(ta, tb)
                   for ta, tb in zip(a.tables, b.tables))

    def test_full_support(self):
        # flat-Dirichlet rows are interior points almost surely
        pol = dectiger_random(3)
        for tab in pol.tables:
            assert np.all(tab > 0.0)

    def test_uniform_phi_mode(self):
        pol = random_policy((2, 2), (2, 2), (2, 2), horizon=2, seed=0,
                            phi_mode="uniform")
        for ph in pol.phi:
            np.testing.assert_array_equal(ph, uniform_phi(2))

    @pytest.mark.parametrize("mode", ["point-mass", "Uniform", None])
    def test_unknown_phi_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="phi_mode"):
            random_policy((2, 2), (2, 2), (2, 2), horizon=2, seed=0,
                          phi_mode=mode)


class TestMixPolicies:
    def setup_method(self):
        # one-row slice over 2 actions, |Z|=1; the pick is action 1
        self.old = np.array([0.9, 0.1]).reshape(1, 1, 2, 1)
        self.pick1 = np.array([[1]])

    def test_alpha_zero_returns_old_bitwise(self):
        out = mix_policies(self.old, self.pick1, 0.0)
        assert out is self.old

    def test_alpha_one_equals_deterministic_table(self):
        out = mix_policies(self.old, self.pick1, 1.0)
        np.testing.assert_array_equal(out.reshape(2), [0.0, 1.0])

    def test_half_mix(self):
        out = mix_policies(self.old, self.pick1, 0.5)
        np.testing.assert_allclose(out.reshape(2), [0.45, 0.55], atol=1e-15)

    def test_rejects_alpha_outside_unit_interval(self):
        for alpha in (-0.1, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                mix_policies(self.old, self.pick1, alpha)

    def test_rows_stay_normalized_for_all_alpha(self):
        rng = np.random.default_rng(5)
        old = rng.dirichlet(np.ones(6), size=(3, 2)).reshape(3, 2, 3, 2)
        picks = rng.integers(0, 6, size=(3, 2))
        for alpha in np.linspace(0.0, 1.0, 21):
            out = mix_policies(old, picks, float(alpha))
            np.testing.assert_allclose(out.sum(axis=(2, 3)), 1.0, atol=1e-12)

    def test_matches_point_mass_table_mix_bitwise(self):
        """Against the mix with a point-mass table and against the
        (actions, next states) scatter it replaced."""
        rng = np.random.default_rng(6)
        for k in range(20):
            ny, nw, na, nz = (int(v) for v in rng.integers(1, 5, size=4))
            old = rng.dirichlet(np.ones(na * nz), size=(ny, nw))
            old = old.reshape(ny, nw, na, nz)
            if k % 2:
                old[old < 0.1] = 0.0  # zero cells, as after a full greedy step
                old /= old.sum(axis=(2, 3), keepdims=True)
            picks = rng.integers(0, na * nz, size=(ny, nw))
            det = oracles.DeterministicAgentSlice(
                agent=0, t=1, actions=picks // nz, next_states=picks % nz)
            for alpha in (0.1, 0.3, float(rng.uniform()), 1.0):
                want = (1.0 - alpha) * old + alpha * as_table(picks, na, nz)
                want = want / want.sum(axis=(2, 3), keepdims=True)
                got = mix_policies(old, picks, alpha)
                assert np.array_equal(got, want)
                assert np.array_equal(got, oracles.mix_policies(old, det,
                                                                alpha))

    @pytest.mark.parametrize("alpha", [0.1, 1.0])
    def test_strided_slice_mixes_as_its_contiguous_copy(self, alpha):
        """A batch's stage slice tables[i][:, t] is not contiguous, and a
        Fortran-ordered copy of it not C-ordered; each mixes to the bytes
        of its contiguous copy and is not written."""
        batch = PolicyBatch.stack(
            (dectiger_random(seed) for seed in range(3)), 3)
        rng = np.random.default_rng(7)
        for tab in batch.tables:
            for old in (tab[:, 1], np.asfortranarray(tab[:, 1])):
                assert not old.flags.c_contiguous
                before = np.ascontiguousarray(old)
                picks = rng.integers(0, 6, size=old.shape[:3])
                got = mix_policies(old, picks, alpha)
                assert got.flags.c_contiguous
                assert np.array_equal(got, mix_policies(before, picks, alpha))
                assert old.tobytes() == before.tobytes()


class TestDeterministicSlice:
    def test_as_table_point_masses(self):
        # flat picks a * Z + z' over 3 actions and 2 agent states
        picks = np.array([[2 * 2 + 0, 0 * 2 + 1], [1 * 2 + 1, 1 * 2 + 0]])
        tab = as_table(picks, 3, 2)
        assert tab.shape == (2, 2, 3, 2)
        np.testing.assert_allclose(tab.sum(axis=(2, 3)), 1.0)
        assert tab[0, 0, 2, 0] == 1.0
        assert tab[1, 0, 1, 1] == 1.0


class TestSerialization:
    def test_json_round_trip_exact(self):
        pol = dectiger_random(11)
        back = policy_from_json(policy_to_json(pol))
        assert back.horizon == pol.horizon
        assert back.agent_state_sizes == pol.agent_state_sizes
        for ta, tb in zip(pol.tables, back.tables):
            np.testing.assert_array_equal(ta, tb)
        for pa, pb in zip(pol.phi, back.phi):
            np.testing.assert_array_equal(pa, pb)

    def test_json_schema_keys(self):
        import json
        doc = json.loads(policy_to_json(dectiger_random(0)))
        assert set(doc) == {"horizon", "agent_state_sizes", "tables", "phi"}

    def test_from_json_validates(self):
        import json
        doc = json.loads(policy_to_json(dectiger_random(0)))
        doc["tables"][0][0][0][0][0][0] = 5.0
        with pytest.raises(ValueError):
            policy_from_json(json.dumps(doc))


class TestDumpPolicy:
    def test_matrix_game_action_names(self):
        model = matrix_game_model([[2.0, -10.0], [-10.0, 6.0]])
        pol = deterministic_policy(model, (1, 1), lambda i, t, y, w: (1, 0))
        text = dump_policy(pol, model)
        assert "t=1" in text
        assert "agent 1" in text and "agent 2" in text
        assert text.count("a1/z0") == 2  # both agents pick action index 1

    def test_uniform_row_shows_probability(self):
        tab = np.full((1, 1, 1, 2, 1), 0.5)
        pol = JointPolicy(horizon=1, agent_state_sizes=(1,), tables=[tab])
        text = dump_policy(pol)
        assert "(0.50)" in text

    def test_near_deterministic_row_unannotated(self):
        tab = np.array([0.9995, 0.0005]).reshape(1, 1, 1, 2, 1)
        pol = JointPolicy(horizon=1, agent_state_sizes=(1,), tables=[tab])
        assert "(" not in dump_policy(pol)

    def test_reactive_dump_shape(self):
        # T blocks, one row per observation symbol per agent
        model = dectiger_model(horizon=4)
        pol = deterministic_policy(model, (1, 1))
        text = dump_policy(pol, model)
        assert text.count("t=") == 4
        assert text.count("hear-left") == 8  # 2 agents x 4 steps
        assert text.count("listen") == 24  # 3 obs rows x 2 agents x 4 steps
