"""Tilted backward values, averaged local Q, greedy sweeps, and rscpi."""

import math
import tracemalloc

import numpy as np
import pytest

from _benchmarks import (dectiger_model, deterministic_policy,
                         fully_observed_model, random_model, random_policy_for)
from oracles import (averaged_local_q_flat, logmeanexp_direct,
                     risk_vi_reference, update_agent_at_incumbent,
                     weighted_logmeanexp)
from rscpi import kernels, solver
from rscpi.evaluation import (NumericError, aggregate_initial, backward,
                              evaluate_exact, evaluate_risk,
                              forward_marginals, joint_components,
                              stage_backup)
from rscpi.model import matrix_game_model
from rscpi.policy import JointPolicy, PolicyBatch, mix_policies, random_policy
from rscpi.risk import RiskParameter
from rscpi.solver import (AveragedLocalQ, SolverConfig, SolveWorkspace,
                          averaged_local_q, greedy_agent_update, rscpi, sweep)

MATRIX_PAYOFFS = [[2.0, -10.0], [-10.0, 6.0]]


def interior_matrix_policy(p1, p2):
    """Matrix-game policy with per-agent first-action probabilities."""
    tabs = []
    for p in (p1, p2):
        tab = np.array([p, 1.0 - p]).reshape(1, 1, 1, 2, 1)
        tabs.append(tab)
    return JointPolicy(horizon=1, agent_state_sizes=(1, 1), tables=tabs)


def atom(policy, agent):
    """First-action probability of a matrix-game policy."""
    return float(policy.tables[agent][0, 0, 0, 0, 0])


def matrix_qbar(p2, lam):
    """Agent 1's averaged local Q on the matrix game vs a (p2, 1-p2) partner."""
    model = matrix_game_model(MATRIX_PAYOFFS)
    policy = interior_matrix_policy(0.5, p2)
    zeta1 = np.ones((1, 1, 1))
    l_next = np.zeros((1, 1, 1))
    return averaged_local_q(model, zeta1, policy, 1, l_next, lam, 0)


def value_stack(model, policy):
    """A (T, S, Y, Z) tensor for backward(..., out=) to fill with every L_t."""
    Z = int(np.prod(policy.agent_state_sizes))
    return np.full((model.horizon, model.state_count, model.joint_obs_count,
                    Z), np.nan)


class TestBackwardTiltedValues:
    def test_matrix_game_base_case(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        policy = interior_matrix_policy(0.9, 0.9)
        lam = 1.0
        stack = value_stack(model, policy)
        l1 = backward(model, policy, lam, out=stack)
        assert stack.shape == (1, 1, 1, 1)
        assert np.array_equal(l1, stack[0])
        # L_1 = log sum_a pi(a) exp(lam * payoff(a))
        probs = [0.81, 0.09, 0.09, 0.01]
        vals = [2.0, -10.0, -10.0, 6.0]
        want = math.log(sum(p * math.exp(v) for p, v in zip(probs, vals)))
        assert l1[0, 0, 0] == pytest.approx(want, abs=1e-12)

    def test_constant_reward_scales_linearly(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, horizon=4)
        model.r[:] = 1.3
        policy = random_policy_for(model, (2, 2), seed=1)
        for lam in (0.5, 2.0):
            l1 = backward(model, policy, lam)
            np.testing.assert_allclose(l1 / lam, 4 * 1.3, atol=1e-9)

    def test_neutral_aggregate_matches_exact_evaluation(self):
        rng = np.random.default_rng(2)
        for k in range(10):
            model = random_model(rng, horizon=int(rng.integers(2, 5)))
            policy = random_policy_for(model, (2, 2), seed=10 + k)
            l1 = backward(model, policy, 0.0)
            j = aggregate_initial(model, policy, l1, RiskParameter(0.0))
            assert j == pytest.approx(evaluate_exact(model, policy), abs=1e-9)

    def test_stage_indexing(self):
        model = dectiger_model(horizon=4)
        policy = random_policy_for(model, (2, 2), seed=0)
        stack = value_stack(model, policy)
        l1 = backward(model, policy, 0.5, out=stack)
        assert np.isfinite(stack).all()
        assert np.array_equal(l1, stack[0])
        # out[t - 1] holds L_t: the last stage is the one-step backup alone
        last = JointPolicy(horizon=1,
                           agent_state_sizes=policy.agent_state_sizes,
                           tables=[tab[3:] for tab in policy.tables])
        np.testing.assert_array_equal(
            backward(dectiger_model(horizon=1), last, 0.5), stack[3])

    def test_negative_lambda_rejected(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        policy = interior_matrix_policy(0.5, 0.5)
        with pytest.raises(ValueError, match="lam"):
            backward(model, policy, -1.0)

    def test_overflow_raises_numeric_error(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, horizon=3)
        model.r[:] = 9e307  # finite, but sums past the float64 ceiling
        policy = random_policy_for(model, (2, 2), seed=4)
        with pytest.raises(NumericError, match="nonfinite tilted value at t="):
            backward(model, policy, 1.0)


BATCH_SIZES = {2: dict(action_counts=(2, 3), obs_counts=(3, 2)),
               3: dict(action_counts=(2, 2, 3), obs_counts=(2, 3, 2))}
BATCH_Z_SIZES = {2: (2, 3), 3: (2, 1, 2)}


class TestBatchedEvaluation:
    """backward, evaluate_exact and evaluate_risk on a PolicyBatch give each
    restart the bits of its lone call."""

    def batch_of_three(self, agents):
        model = random_model(np.random.default_rng(40 + agents), n_states=3,
                             horizon=3, **BATCH_SIZES[agents])
        singles = [random_policy_for(model, BATCH_Z_SIZES[agents],
                                     seed=110 + r) for r in range(3)]
        return model, singles, PolicyBatch.stack(singles, 3)

    @pytest.mark.parametrize("agents", [2, 3])
    def test_each_restart_as_if_evaluated_alone(self, agents):
        model, singles, batch = self.batch_of_three(agents)
        j = evaluate_exact(model, batch)
        j_risk = evaluate_risk(model, batch, 0.5)
        assert j.shape == j_risk.shape == (3,)
        for r, policy in enumerate(singles):
            assert j[r] == evaluate_exact(model, policy)
            assert j_risk[r] == evaluate_risk(model, policy, 0.5)

    @pytest.mark.parametrize("agents", [2, 3])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_out_keeps_each_restarts_stages(self, agents, lam):
        model, singles, batch = self.batch_of_three(agents)
        stack = np.stack([value_stack(model, p) for p in singles])
        l1 = backward(model, batch, lam, out=stack)
        assert np.array_equal(l1, stack[:, 0])
        for r, policy in enumerate(singles):
            alone = value_stack(model, policy)
            assert np.array_equal(backward(model, policy, lam, out=alone),
                                  l1[r])
            assert np.array_equal(alone, stack[r])

    def test_out_of_wrong_shape_names_both_shapes(self):
        model, singles, batch = self.batch_of_three(2)
        lone = value_stack(model, singles[0])
        want = str((3,) + lone.shape)
        with pytest.raises(ValueError) as err:
            backward(model, batch, 0.0, out=lone)
        assert str(lone.shape) in str(err.value)
        assert want in str(err.value)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_out_of_wrong_dtype_names_both_dtypes(self, dtype):
        """An integer out truncated every L_t and a float32 one rounded it,
        each without an error; both are refused before a write."""
        model = dectiger_model(horizon=3)
        policy = random_policy_for(model, (2, 2), seed=0)
        out = np.zeros((3, 2, 9, 4), dtype=dtype)
        with pytest.raises(ValueError) as err:
            backward(model, policy, 0.0, out=out)
        assert f"dtype {np.dtype(dtype)}, expected float64" in str(err.value)
        assert not out.any()

    def test_overflow_names_the_restart(self):
        # joint action 0 pays 9e307 a stage: restart 1 takes it at every
        # stage and overflows at t=2, restart 0 never takes it
        model = random_model(np.random.default_rng(44), horizon=3)
        model.r[:] = 0.0
        model.r[:, 0] = 9e307
        never = deterministic_policy(model, (1, 1), lambda i, t, y, w: (1, 0))
        always = deterministic_policy(model, (1, 1))
        batch = PolicyBatch.stack([never, always], 2)
        assert evaluate_exact(model, never) == 0.0
        with pytest.raises(NumericError,
                           match=r"nonfinite tilted value at t=2, "
                                 r"cell=.* of restart 1"):
            evaluate_exact(model, batch)


class TestAveragedLocalQ:
    def test_matrix_game_neutral_values(self):
        qbar = matrix_qbar(p2=0.9, lam=0.0)
        assert qbar.is_plain
        assert np.all(qbar.reachable)
        q = qbar.q_values()[0, 0, :, 0]
        np.testing.assert_allclose(q, [0.8, -8.4], atol=1e-12)

    def test_matrix_game_tilted_ordering_flips(self):
        qbar = matrix_qbar(p2=0.9, lam=1.0)
        q = qbar.q_values()[0, 0, :, 0]
        want_a = logmeanexp_direct([0.9, 0.1], [2.0, -10.0], 1.0)
        want_b = logmeanexp_direct([0.9, 0.1], [-10.0, 6.0], 1.0)
        np.testing.assert_allclose(q, [want_a, want_b], atol=1e-12)
        assert q[1] > q[0]  # the 0.1 e^6 tail wins under the tilt
        neutral = matrix_qbar(p2=0.9, lam=0.0).q_values()[0, 0, :, 0]
        assert neutral[0] > neutral[1]

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_fully_observed_single_agent_identity(self, lam):
        # conditional over states degenerates, so Q-bar is the stage reward
        rng = np.random.default_rng(5)
        P = rng.dirichlet(np.ones(3), size=(3, 2))
        r = rng.uniform(-1, 1, size=(3, 2))
        model = fully_observed_model(P, r, [0.2, 0.5, 0.3], horizon=1)
        policy = random_policy_for(model, (1,), seed=6)
        zeta1 = forward_marginals(model, policy).at(1)
        l_next = np.zeros((3, 3, 1))
        qbar = averaged_local_q(model, zeta1, policy, 1, l_next, lam, 0)
        assert np.all(qbar.reachable)
        q = qbar.q_values()[:, 0, :, 0]
        np.testing.assert_allclose(q, r, atol=1e-12)

    def test_unreachable_cells_flagged(self):
        rng = np.random.default_rng(7)
        P = rng.dirichlet(np.ones(3), size=(3, 2))
        r = rng.uniform(-1, 1, size=(3, 2))
        model = fully_observed_model(P, r, [0.5, 0.5, 0.0], horizon=1)
        policy = random_policy_for(model, (1,), seed=8)
        zeta1 = forward_marginals(model, policy).at(1)
        qbar = averaged_local_q(model, zeta1, policy, 1,
                                np.zeros((3, 3, 1)), 0.0, 0)
        np.testing.assert_array_equal(qbar.reachable[:, 0],
                                      [True, True, False])
        assert np.all(np.isnan(qbar.q_values()[2]))

    def test_mass_is_cell_marginal(self):
        model = dectiger_model(horizon=3)
        policy = random_policy_for(model, (2, 2), seed=9)
        traj = forward_marginals(model, policy)
        l_next = np.zeros((2, 9, 4))
        qbar = averaged_local_q(model, traj.at(2), policy, 2, l_next, 0.0, 0)
        y_comp = joint_components(model.obs_counts)[0]
        w_comp = joint_components((2, 2))[0]
        want = np.zeros((3, 2))
        flat = traj.at(2).sum(axis=0)
        for y in range(9):
            for w in range(4):
                want[y_comp[y], w_comp[w]] += flat[y, w]
        np.testing.assert_allclose(qbar.mass, want, atol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_last_stage_ties_stay_exact(self, lam):
        """At t = T with L_{T+1} = 0 no cell depends on z'^i, so the table is
        constant along that axis in real arithmetic. It must be bitwise
        constant too, or the greedy tie-break stops picking index 0. Checked
        on one policy and on a batch of three restarts.

        This pins the property, but no mutant has been shown to break it:
        with numpy 2.4.6 and OpenBLAS 0.3.31 (Haswell kernels), replacing the
        column sum with np.einsum(..., optimize=True) on the per-agent views
        or on the flat joint views, or with np.ones(M) @ vals, kept every
        last-stage table bitwise constant along z'^i.
        """
        for seed in range(3):
            model = random_model(np.random.default_rng(seed), n_states=8,
                                 action_counts=(4, 4), obs_counts=(4, 4),
                                 horizon=3)
            singles = [random_policy_for(model, (3, 3), seed=seed + 10 + r)
                       for r in range(3)]
            batch = PolicyBatch.stack(singles, 3)
            shape = (8, model.joint_obs_count, 9)
            for policy, l_next in ((singles[0], np.zeros(shape)),
                                   (batch, np.zeros((3,) + shape))):
                zeta_t = forward_marginals(model, policy).at(model.horizon)
                for agent in (0, 1):
                    qbar = averaged_local_q(model, zeta_t, policy,
                                            model.horizon, l_next, lam, agent)
                    assert np.all(qbar.table == qbar.table[..., :1])
                    picks = greedy_agent_update(qbar)
                    assert np.all(picks[qbar.reachable] % 3 == 0)

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_batch_equals_each_restart(self, lam):
        model = random_model(np.random.default_rng(4), n_states=3,
                             action_counts=(2, 3), obs_counts=(3, 2),
                             horizon=3)
        singles = [random_policy_for(model, (2, 3), seed=80 + r)
                   for r in range(3)]
        batch = PolicyBatch.stack(singles, 3)
        zeta_t = forward_marginals(model, batch).at(2)
        l_next = np.random.default_rng(5).uniform(
            -1.0, 1.0, size=(3, 3, model.joint_obs_count, 6))
        for agent in (0, 1):
            qbar = averaged_local_q(model, zeta_t, batch, 2, l_next, lam,
                                    agent)
            for r, policy in enumerate(singles):
                one = averaged_local_q(model, zeta_t[r], policy, 2,
                                       l_next[r], lam, agent)
                assert np.array_equal(qbar.table[r], one.table)
                assert np.array_equal(qbar.mass[r], one.mass)


class TestFactoredLocalQ:
    """The averaged local value sums the co-agents' (y, w) axes out before
    q is broadcast in; `averaged_local_q_flat` is the full product it
    replaced. The table's last bits may move; they reach the policy only
    through the greedy argmax."""

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("agents", [2, 3])
    def test_matches_full_product_through_real_sweeps(self, monkeypatch,
                                                      lam, agents):
        """At every stage and agent of two sweeps of a batch of three
        restarts, the table is the full product's to 1e-12, and the greedy
        pick is the full product's wherever its best two cells differ by
        more than 1e-9."""
        factored = solver._averaged_local_q
        clear_cells = []

        def checked(model, zeta_t, batch, t, q_red, risk, agent):
            got = factored(model, zeta_t, batch, t, q_red, risk, agent)
            want = averaged_local_q_flat(model, zeta_t, batch, t, q_red,
                                         risk, agent)
            np.testing.assert_allclose(got.table, want.table, rtol=0,
                                       atol=1e-12)
            assert np.array_equal(got.mass, want.mass)
            *lead, ai, zi = want.table.shape
            top2 = np.sort(want.table.reshape(*lead, ai * zi))[..., -2:]
            with np.errstate(invalid="ignore"):
                clear = want.reachable & (top2[..., 1] - top2[..., 0] > 1e-9)
            mine, theirs = (greedy_agent_update(x)[clear]
                            for x in (got, want))
            assert np.array_equal(mine, theirs)
            clear_cells.append(int(clear.sum()))
            return got

        monkeypatch.setattr(solver, "_averaged_local_q", checked)
        model = random_model(np.random.default_rng(30 + agents), n_states=3,
                             action_counts=(2,) * agents,
                             obs_counts=(2,) * agents, horizon=3)
        z_sizes = (2,) * agents
        batch = PolicyBatch.stack(
            [random_policy_for(model, z_sizes, seed=120 + r)
             for r in range(3)], 3)
        for _ in range(2):
            sweep(model, batch, lam, 0.4)
        assert len(clear_cells) == 2 * model.horizon * agents
        assert sum(clear_cells) > 0

    @pytest.mark.parametrize("lambda0", [0.0, 0.5])
    def test_dectiger_trace_as_with_full_product(self, monkeypatch, lambda0):
        model = dectiger_model(horizon=6)
        config = SolverConfig(lambda0=lambda0, anneal_sweeps=3, alpha=0.1,
                              max_sweeps=8, restarts=2, seed=0,
                              z_sizes=(2, 2))
        got = rscpi(model, config)
        monkeypatch.setattr(solver, "_averaged_local_q",
                            averaged_local_q_flat)
        want = rscpi(model, config)
        assert got.trace == want.trace
        assert got.sweeps == want.sweeps == 8

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_peak_memory_on_the_large_synthetic_shape(self, lam):
        """One call at S=8, A^i=Y^i=4, Z^i=3 and one restart peaks under
        0.6 MB; the full product, S*co_yw*co_az*yw*az = 165,888 floats,
        peaks above it."""
        model = random_model(np.random.default_rng(0), n_states=8,
                             action_counts=(4, 4), obs_counts=(4, 4),
                             horizon=2, init_obs_mode="uniform_observation")
        batch = PolicyBatch.of(random_policy_for(model, (3, 3), seed=1))
        zeta_t = forward_marginals(model, batch).at(2)
        risk = RiskParameter(lam)
        q_red = np.empty((1, 8, 16, 9))
        with kernels.quiet_overflow():
            stage_backup(model, np.zeros((1, 8, 16, 9)), risk, q_red)

        def peak_mb(local_q):
            args = (model, zeta_t, batch, 2, q_red, risk)
            local_q(*args, 0)   # warm-up outside the measurement
            tracemalloc.start()
            try:
                for agent in (0, 1):
                    local_q(*args, agent)
                return tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()

        assert peak_mb(solver._averaged_local_q) < 0.6
        assert peak_mb(averaged_local_q_flat) > 0.6


class TestGreedyAgentUpdate:
    def test_neutral_picks_safe_action(self):
        picks = greedy_agent_update(matrix_qbar(p2=0.9, lam=0.0))
        assert picks[0, 0] == 0     # a = 0, z' = 0

    def test_tilted_picks_risky_action(self):
        picks = greedy_agent_update(matrix_qbar(p2=0.9, lam=1.0))
        assert picks[0, 0] == 1     # a = 1 of Z = 1

    def test_all_equal_ties_to_first_cell(self):
        qbar = AveragedLocalQ(agent=0, t=1, table=np.zeros((2, 2, 3, 2)),
                              mass=np.ones((2, 2)), lam=0.0, is_plain=True)
        np.testing.assert_array_equal(greedy_agent_update(qbar), 0)

    def test_flat_index_is_action_times_z_plus_next_state(self):
        table = np.zeros((2, 1, 3, 2))
        table[0, 0, 2, 1] = 1.0
        table[1, 0, 1, 0] = 1.0
        qbar = AveragedLocalQ(agent=0, t=1, table=table,
                              mass=np.ones((2, 1)), lam=0.0, is_plain=True)
        np.testing.assert_array_equal(greedy_agent_update(qbar),
                                      [[2 * 2 + 1], [1 * 2 + 0]])

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_sweep_leaves_unreachable_rows_unchanged(self, lam):
        """With a point-mass phi, w^i = 1 is unreachable at t = 1: its rows
        keep their bytes while an alpha = 1 sweep makes every reachable row
        of that stage a point mass."""
        model = dectiger_model(horizon=3)
        policy = random_policy_for(model, (2, 2), seed=3)
        before = [tab[0].copy() for tab in policy.tables]
        zeta_1 = forward_marginals(model, policy).at(1)
        l_next = np.zeros((model.state_count, model.joint_obs_count, 4))
        sweep(model, policy, lam, 1.0)
        for agent, tab in enumerate(policy.tables):
            reach = averaged_local_q(model, zeta_1, policy, 1, l_next, lam,
                                     agent).reachable
            assert reach.any() and not reach.all()
            assert tab[0][~reach].tobytes() == before[agent][~reach].tobytes()
            assert np.all(tab[0][reach].max(axis=(-2, -1)) == 1.0)

    def test_argmax_consistent_across_lambda_forms(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, horizon=3)
        policy = random_policy_for(model, (2, 2), seed=12)
        traj = forward_marginals(model, policy)
        for lam in (1e-6, 0.1, 1.0, 5.0):
            tilted = value_stack(model, policy)
            backward(model, policy, lam, out=tilted)
            for agent in (0, 1):
                qbar = averaged_local_q(model, traj.at(2), policy, 2,
                                        tilted[2], lam, agent)
                yi, wi, ai, zi = qbar.table.shape
                flat_w = qbar.table.reshape(yi, wi, ai * zi)
                flat_q = qbar.q_values().reshape(yi, wi, ai * zi)
                for y in range(yi):
                    for w in range(wi):
                        if qbar.mass[y, w] > 0:
                            assert (np.argmax(flat_w[y, w])
                                    == np.argmax(flat_q[y, w]))


class TestSweep:
    def test_matrix_neutral_locks_in_safe_corner(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        policy = interior_matrix_policy(0.9, 0.9)
        j = sweep(model, policy, 0.0, 1.0)
        assert atom(policy, 0) == 1.0 and atom(policy, 1) == 1.0
        assert j == pytest.approx(2.0, abs=1e-12)
        assert evaluate_exact(model, policy) == pytest.approx(2.0, abs=1e-12)

    def test_matrix_tilted_escapes_to_better_corner(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        policy = interior_matrix_policy(0.9, 0.9)
        sweep(model, policy, 1.0, 1.0)
        assert atom(policy, 0) == 0.0 and atom(policy, 1) == 0.0
        assert evaluate_exact(model, policy) == pytest.approx(6.0, abs=1e-12)

    def test_return_value_is_post_sweep_risk_objective(self):
        rng = np.random.default_rng(13)
        for k in range(5):
            model = random_model(rng, horizon=3)
            policy = random_policy_for(model, (2, 2), seed=20 + k)
            for lam in (0.0, 0.7):
                j = sweep(model, policy, lam, 0.4)
                assert j == pytest.approx(
                    evaluate_risk(model, policy, lam), abs=1e-9)

    def test_never_decreases_risk_objective(self):
        rng = np.random.default_rng(14)
        for k in range(15):
            model = random_model(rng, n_states=int(rng.integers(2, 4)),
                                 horizon=int(rng.integers(2, 5)))
            policy = random_policy_for(model, (2, 2), seed=30 + k)
            lam = float(rng.choice([0.0, 0.5]))
            alpha = float(rng.choice([0.3, 1.0]))
            before = evaluate_risk(model, policy, lam)
            after = sweep(model, policy, lam, alpha)
            assert after >= before - 1e-9
            policy.validate()  # rows stay normalized through the mix

    def test_per_agent_ordering_also_improves(self):
        rng = np.random.default_rng(15)
        model = random_model(rng, horizon=3)
        policy = random_policy_for(model, (2, 2), seed=40)
        before = evaluate_risk(model, policy, 0.5)
        after = sweep(model, policy, 0.5, 0.5, ordering="per_agent")
        assert after >= before - 1e-9

    def test_rejects_unknown_ordering_and_negative_lambda(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        policy = interior_matrix_policy(0.5, 0.5)
        with pytest.raises(ValueError, match="ordering"):
            sweep(model, policy, 0.0, 1.0, ordering="jacobi")
        with pytest.raises(ValueError, match="lam"):
            sweep(model, policy, -0.1, 1.0)


class TestStageBackups:
    """A sweep backs each stage up once and shares it across the stage."""

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("ordering", ["sequential", "per_agent"])
    def test_one_backup_per_stage(self, monkeypatch, lam, ordering):
        calls = []
        backup = solver.stage_backup

        def counted(model, l_next, risk, out):
            calls.append(risk.lam)
            return backup(model, l_next, risk, out)

        monkeypatch.setattr(solver, "stage_backup", counted)
        model = random_model(np.random.default_rng(19), horizon=4)
        policy = random_policy_for(model, (2, 2), seed=70)
        sweep(model, policy, lam, 0.5, ordering=ordering)
        passes = model.n_agents if ordering == "per_agent" else 1
        assert calls == [lam] * (passes * model.horizon)


def tables_bytes(policy):
    return [t.tobytes() for t in policy.tables + policy.phi]


class TestBatchedSweep:
    """A sweep on a PolicyBatch leaves each restart as if swept alone."""

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("ordering", ["sequential", "per_agent"])
    @pytest.mark.parametrize("agents", [2, 3])
    def test_each_restart_as_if_swept_alone(self, lam, ordering, agents):
        z_sizes = BATCH_Z_SIZES[agents]
        model = random_model(np.random.default_rng(agents), n_states=3,
                             horizon=3, **BATCH_SIZES[agents])
        start = [random_policy_for(model, z_sizes, seed=90 + r)
                 for r in range(3)]
        batch = PolicyBatch.stack(start, 3)
        live = np.array([True, False, True])
        ws = SolveWorkspace(model, z_sizes, restarts=3)
        alone = [p.copy() for p in start]
        for _ in range(2):
            j = sweep(model, batch, lam, 0.4, ordering, ws, live)
            for r in (0, 2):
                want = sweep(model, alone[r], lam, 0.4, ordering)
                assert j[r] == want
                if lam == 0.0:
                    # a plain sweep's L_1 is the recursion of its result
                    assert j[r] == evaluate_exact(model, batch.policies[r])
                assert tables_bytes(batch.policies[r]) == tables_bytes(
                    alone[r])
            # the masked restart's rows stay untouched
            assert tables_bytes(batch.policies[1]) == tables_bytes(start[1])
            assert j[1] == evaluate_risk(model, start[1], lam)

    def test_single_policy_is_a_batch_of_one(self):
        model = random_model(np.random.default_rng(6), horizon=3)
        policy = random_policy_for(model, (2, 2), seed=7)
        batch = PolicyBatch.of(policy)
        twin = policy.copy()
        j = sweep(model, batch, 0.5, 0.4)
        assert isinstance(j, np.ndarray) and j.shape == (1,)
        assert j[0] == sweep(model, twin, 0.5, 0.4)
        # the batch views the policy's own arrays
        assert tables_bytes(policy) == tables_bytes(twin)

    @pytest.mark.parametrize("live", [[False], [True, False], True,
                                      [[True, False, True]]])
    def test_live_must_hold_one_flag_per_restart(self, live):
        model = random_model(np.random.default_rng(8), horizon=2)
        batch = PolicyBatch.stack(
            [random_policy_for(model, (2, 2), seed=9 + r) for r in range(3)],
            3)
        before = [t.tobytes() for t in batch.tables]
        with pytest.raises(ValueError, match=r"live has shape .*\(3,\)"):
            sweep(model, batch, 0.0, 0.5, live=live)
        assert [t.tobytes() for t in batch.tables] == before

    def test_workspace_must_match_the_batch(self):
        model = random_model(np.random.default_rng(8), horizon=2)
        policy = random_policy_for(model, (2, 2), seed=9)
        for restarts, z_sizes in ((2, (2, 2)), (1, (3, 3))):
            ws = SolveWorkspace(model, z_sizes, restarts=restarts)
            with pytest.raises(ValueError, match="workspace holds"):
                sweep(model, policy, 0.0, 0.5, workspace=ws)


class TestFlatUpdate:
    """The greedy pick as one flat (a, z') index, mixed in one scatter,
    writes the bytes of the (actions, next states) pair with its incumbent
    fallback for unreachable cells, kept in oracles."""

    @pytest.mark.parametrize("alpha", [0.1, 1.0])
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("agents", [2, 3])
    def test_sweeps_match_the_incumbent_pair(self, monkeypatch, agents, lam,
                                             alpha):
        """Two sweeps of a batch of three with the middle restart masked;
        point-mass phi leaves w^i != 0 unreachable at t = 1."""
        z_sizes = BATCH_Z_SIZES[agents]
        model = random_model(np.random.default_rng(40 + agents), n_states=3,
                             horizon=3, **BATCH_SIZES[agents])
        start = [random_policy_for(model, z_sizes, seed=130 + r)
                 for r in range(3)]
        live = np.array([True, False, True])
        unreachable = []

        def run():
            batch = PolicyBatch.stack(start, 3)
            js = [sweep(model, batch, lam, alpha, live=live)
                  for _ in range(2)]
            return js, [t.tobytes() for t in batch.tables]

        def oracle(*args):
            qbar = update_agent_at_incumbent(*args)
            unreachable.append(int((~qbar.reachable).sum()))

        got_j, got = run()
        monkeypatch.setattr(solver, "_update_agent_at", oracle)
        want_j, want = run()
        assert got == want
        assert all(np.array_equal(a, b) for a, b in zip(got_j, want_j))
        initial = PolicyBatch.stack(start, 3)
        assert got != [t.tobytes() for t in initial.tables]
        assert sum(unreachable) > 0


class TestFixpoints:
    def reachable_rows(self, model, policy, t, agent):
        """Mask of (y_i, w_i) cells with positive pre-sweep marginal mass."""
        traj = forward_marginals(model, policy)
        y_comp = joint_components(model.obs_counts)[agent]
        w_comp = joint_components(policy.agent_state_sizes)[agent]
        yi = model.obs_counts[agent]
        wi = policy.agent_state_sizes[agent]
        mass = np.zeros((yi, wi))
        np.add.at(mass, (y_comp[:, None], w_comp[None, :]),
                  traj.at(t).sum(axis=0))
        return mass > 0

    def test_full_greedy_reaches_bitwise_fixpoint(self):
        rng = np.random.default_rng(16)
        for k in range(5):
            model = random_model(rng, n_states=2, horizon=3)
            lam = float(rng.choice([0.0, 1.0]))
            policy = random_policy_for(model, (2, 2), seed=50 + k)
            prev = None
            for n in range(25):
                sweep(model, policy, lam, 1.0)
                cur = [t.copy() for t in policy.tables]
                if prev is not None and all(
                        np.array_equal(a, b) for a, b in zip(prev, cur)):
                    break
                prev = cur
            else:
                pytest.fail(f"no fixpoint within 25 sweeps (model {k})")

    def test_first_sweep_makes_reachable_rows_deterministic(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, horizon=3,
                             init_obs_mode="uniform_observation")
        policy = random_policy_for(model, (2, 2), seed=60)
        pre = policy.copy()
        sweep(model, policy, 0.0, 1.0)
        for agent in (0, 1):
            for t in range(1, 4):
                ok = self.reachable_rows(model, pre, t, agent)
                rows = policy.tables[agent][t - 1]
                row_max = rows.reshape(rows.shape[0], rows.shape[1], -1).max(
                    axis=2)
                assert np.all(row_max[ok] == 1.0)


class TestSolverConfig:
    def test_validation_catches_bad_fields(self):
        bad = [dict(lambda0=-0.5), dict(alpha=0.0), dict(alpha=1.2),
               dict(anneal_sweeps=-1), dict(max_sweeps=5, anneal_sweeps=9),
               dict(restarts=0), dict(ordering="both"), dict(z_sizes=(0, 2)),
               dict(restarts=2.0), dict(restarts=True), dict(max_sweeps=50.0),
               dict(anneal_sweeps=2.5), dict(seed=1.5), dict(seed=False),
               dict(seed=-1), dict(z_sizes=(2.5, 2)), dict(z_sizes=(True, 2)),
               dict(z_sizes=2), dict(phi_mode="point-mass"),
               dict(phi_mode=None), dict(lambda0="1"), dict(alpha=True),
               dict(tol="x"), dict(disable_rs="no"), dict(disable_cpi=1)]
        for kv in bad:
            with pytest.raises(ValueError, match=next(iter(kv))):
                SolverConfig(**kv).validate()
        SolverConfig().validate()
        SolverConfig(restarts=np.int64(2), seed=np.int64(3),
                     z_sizes=[np.int64(1), 2], phi_mode="uniform",
                     lambda0=1, alpha=np.float64(0.5), tol=math.inf,
                     disable_rs=np.bool_(True)).validate()

    @pytest.mark.parametrize("kv", [dict(lambda0=math.nan),
                                    dict(lambda0=math.inf),
                                    dict(tol=math.nan)])
    def test_rejects_nonfinite_fields_at_construction(self, kv):
        with pytest.raises(ValueError, match=next(iter(kv))):
            SolverConfig(**kv)

    def test_rscpi_rejects_z_sizes_of_wrong_arity(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        config = SolverConfig(restarts=1, z_sizes=(1, 1, 1))
        with pytest.raises(ValueError, match="3 agent-state sizes for 2"):
            rscpi(model, config)

    def test_anneal_schedule(self):
        cfg = SolverConfig(lambda0=2.0, anneal_sweeps=4)
        assert [cfg.lam_at(k) for k in (1, 2, 3, 4, 5, 9)] == [
            2.0, 1.5, 1.0, 0.5, 0.0, 0.0]

    def test_disable_rs_forces_zero(self):
        cfg = SolverConfig(lambda0=2.0, anneal_sweeps=4, disable_rs=True)
        assert all(cfg.lam_at(k) == 0.0 for k in range(1, 8))


class TestRscpi:
    def test_one_batched_evaluation_per_sweep(self, monkeypatch):
        calls = []
        run_sweep, run_eval = solver.sweep, solver.evaluate_exact

        def counted_sweep(model, policy, *args):
            calls.append("sweep")
            return run_sweep(model, policy, *args)

        def counted_eval(model, policy):
            calls.append(("evaluate_exact", policy.size))
            return run_eval(model, policy)

        monkeypatch.setattr(solver, "sweep", counted_sweep)
        monkeypatch.setattr(solver, "evaluate_exact", counted_eval)
        config = SolverConfig(lambda0=0.5, anneal_sweeps=2, alpha=0.5,
                              max_sweeps=40, tol=1e-6, restarts=3, seed=3,
                              z_sizes=(2, 2))
        result = rscpi(dectiger_model(horizon=3), config)
        sweeps = calls.count("sweep")
        assert sweeps >= result.sweeps > 2
        assert calls == ["sweep", ("evaluate_exact", 3)] * sweeps

    def test_matrix_game_annealed_escape(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        config = SolverConfig(lambda0=1.0, anneal_sweeps=1, alpha=1.0,
                              max_sweeps=20, restarts=1, seed=0,
                              z_sizes=(1, 1))
        init = interior_matrix_policy(0.1, 0.1)
        result = rscpi(model, config, initial_policy=init)
        assert atom(result.policy, 0) == 0.0
        assert atom(result.policy, 1) == 0.0
        assert result.j_exact == pytest.approx(6.0, abs=1e-12)

    def test_trace_matches_schedule_and_sweeps(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        config = SolverConfig(lambda0=1.0, anneal_sweeps=3, alpha=1.0,
                              max_sweeps=30, restarts=1, seed=1,
                              z_sizes=(1, 1))
        result = rscpi(model, config)
        assert len(result.trace) == result.sweeps
        for k, (lam, j_risk, j_exact) in enumerate(result.trace, start=1):
            assert lam == config.lam_at(k)
            assert math.isfinite(j_risk) and math.isfinite(j_exact)

    def test_convergence_only_counts_at_zero_lambda(self):
        # with K1=3 the first two sweeps are tilted and never trip the stop
        model = matrix_game_model(MATRIX_PAYOFFS)
        config = SolverConfig(lambda0=1.0, anneal_sweeps=3, alpha=1.0,
                              max_sweeps=30, restarts=1, seed=2,
                              z_sizes=(1, 1))
        result = rscpi(model, config)
        assert result.sweeps >= 4  # 3 annealed + at least one at zero

    def test_restarts_return_best_exact_value(self):
        model = dectiger_model(horizon=2)
        base = dict(lambda0=0.0, anneal_sweeps=0, alpha=1.0, max_sweeps=30,
                    z_sizes=(1, 1))
        singles = [rscpi(model, SolverConfig(restarts=1, seed=s, **base))
                   for s in (0, 1, 2)]
        combined = rscpi(model, SolverConfig(restarts=3, seed=0, **base))
        best = max(s.j_exact for s in singles)
        assert combined.j_exact == best
        first = min(i for i, s in enumerate(singles) if s.j_exact == best)
        assert combined.seed == singles[first].seed

    def test_lockstep_restarts_equal_best_single_run(self):
        # restarts stop at different sweeps, so later sweeps run masked
        model = dectiger_model(horizon=3)
        base = dict(lambda0=0.5, anneal_sweeps=2, alpha=0.5, max_sweeps=60,
                    tol=1e-6, z_sizes=(2, 2))
        singles = [rscpi(model, SolverConfig(restarts=1, seed=s, **base))
                   for s in (3, 4, 5, 6)]
        assert len({s.sweeps for s in singles}) > 1
        combined = rscpi(model, SolverConfig(restarts=4, seed=3, **base))
        best = singles[0]
        for s in singles[1:]:
            if s.j_exact > best.j_exact:
                best = s
        assert combined.seed == best.seed
        assert combined.trace == best.trace
        assert combined.sweeps == best.sweeps
        assert combined.j_exact == best.j_exact
        assert combined.j_risk_final == best.j_risk_final
        assert tables_bytes(combined.policy) == tables_bytes(best.policy)

    @pytest.mark.parametrize("field,kwargs", [
        ("horizon", dict(horizon=3)),
        ("n_agents", dict(action_counts=(3, 3, 3), obs_counts=(3, 3, 3),
                          z_sizes=(2, 2, 2))),
        ("action_counts", dict(action_counts=(3, 2))),
        ("obs_counts", dict(obs_counts=(3, 2))),
        ("agent_state_sizes", dict(z_sizes=(3, 3))),
    ])
    def test_initial_policy_checked_against_model_and_config(self, field,
                                                              kwargs):
        model = dectiger_model(horizon=2)
        dims = dict(action_counts=model.action_counts,
                    obs_counts=model.obs_counts, z_sizes=(2, 2), horizon=2)
        dims.update(kwargs)
        policy = random_policy(dims["action_counts"], dims["obs_counts"],
                               dims["z_sizes"], dims["horizon"], seed=0)
        config = SolverConfig(restarts=2, anneal_sweeps=1, max_sweeps=3,
                              z_sizes=(2, 2))
        with pytest.raises(ValueError, match=f"initial_policy {field} "):
            rscpi(model, config, initial_policy=policy)

    def test_disable_cpi_forces_full_greedy(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        config = SolverConfig(lambda0=0.0, anneal_sweeps=0, alpha=0.1,
                              max_sweeps=10, restarts=1, seed=3,
                              z_sizes=(1, 1), disable_cpi=True)
        init = interior_matrix_policy(0.9, 0.9)
        result = rscpi(model, config, initial_policy=init)
        # alpha is overridden to 1, so the first sweep already locks a corner
        assert atom(result.policy, 0) in (0.0, 1.0)
        assert result.sweeps <= 3

    def test_peak_floats_closed_form(self):
        for T in (4, 6):
            model = dectiger_model(horizon=T)
            config = SolverConfig(lambda0=0.5, anneal_sweeps=2, alpha=0.5,
                                  max_sweeps=8, restarts=1, seed=4,
                                  z_sizes=(2, 2))
            result = rscpi(model, config)
            S, Y, Z = 2, 9, 4
            want = T * S * Y * Z + 2 * S * Y * Z
            assert result.peak_floats == want

    def test_peak_floats_counts_every_restart(self):
        S, Y, Z = 2, 9, 4
        for R in (1, 3):
            peaks = {}
            for T in (4, 6):
                config = SolverConfig(lambda0=0.5, anneal_sweeps=2,
                                      alpha=0.5, max_sweeps=4, restarts=R,
                                      seed=4, z_sizes=(2, 2))
                peaks[T] = rscpi(dectiger_model(horizon=T), config).peak_floats
                assert peaks[T] == R * (T * S * Y * Z + 2 * S * Y * Z)
            # affine in T: each stage adds one marginal slice per restart
            assert peaks[6] - peaks[4] == 2 * R * S * Y * Z

    def test_single_sweep_solves_fully_observed_mdp(self):
        rng = np.random.default_rng(18)
        P = rng.dirichlet(np.ones(3), size=(3, 2))
        r = rng.uniform(-1, 1, size=(3, 2))
        start = rng.dirichlet(np.ones(3))
        model = fully_observed_model(P, r, start, horizon=3)
        lam = 1.0
        V, _, _ = risk_vi_reference(P.tolist(), r.tolist(), 3, lam)
        want = weighted_logmeanexp(start, V[0], lam)
        policy = random_policy_for(model, (1,), seed=19)
        j = sweep(model, policy, lam, 1.0)
        assert j == pytest.approx(want, abs=1e-9)
