"""Tilted backward values, averaged local Q, greedy sweeps, and rscpi."""

import math

import numpy as np
import pytest

from _benchmarks import (dectiger_model, fully_observed_model, random_model,
                         random_policy_for)
from oracles import logmeanexp_direct
from rscpi import kernels
from rscpi.evaluation import (aggregate_initial, evaluate_exact, evaluate_risk,
                              forward_marginals, joint_components)
from rscpi.model import matrix_game_model
from rscpi.policy import JointPolicy, mix_policies
from rscpi.risk import (RiskParameter, risk_value_iteration,
                        weighted_logmeanexp)
from rscpi.solver import (AveragedLocalQ, NumericError, SolverConfig,
                          averaged_local_q, backward_tilted_values,
                          greedy_agent_update, rscpi, sweep)

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


class TestBackwardTiltedValues:
    def test_matrix_game_base_case(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        policy = interior_matrix_policy(0.9, 0.9)
        lam = 1.0
        out = backward_tilted_values(model, policy, lam)
        assert len(out) == 1
        assert out[0].t == 1 and not out[0].is_plain
        # L_1 = log sum_a pi(a) exp(lam * payoff(a))
        probs = [0.81, 0.09, 0.09, 0.01]
        vals = [2.0, -10.0, -10.0, 6.0]
        want = math.log(sum(p * math.exp(v) for p, v in zip(probs, vals)))
        assert out[0].values[0, 0, 0] == pytest.approx(want, abs=1e-12)

    def test_constant_reward_scales_linearly(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, horizon=4)
        model.r[:] = 1.3
        policy = random_policy_for(model, (2, 2), seed=1)
        for lam in (0.5, 2.0):
            out = backward_tilted_values(model, policy, lam)
            np.testing.assert_allclose(out[0].values / lam, 4 * 1.3,
                                       atol=1e-9)

    def test_neutral_aggregate_matches_exact_evaluation(self):
        rng = np.random.default_rng(2)
        for k in range(10):
            model = random_model(rng, horizon=int(rng.integers(2, 5)))
            policy = random_policy_for(model, (2, 2), seed=10 + k)
            out = backward_tilted_values(model, policy, 0.0)
            assert all(tv.is_plain for tv in out)
            j = aggregate_initial(model, policy, out[0].values,
                                  RiskParameter(0.0))
            assert j == pytest.approx(evaluate_exact(model, policy), abs=1e-9)

    def test_stage_indexing(self):
        model = dectiger_model(horizon=4)
        policy = random_policy_for(model, (2, 2), seed=0)
        out = backward_tilted_values(model, policy, 0.5)
        assert [tv.t for tv in out] == [1, 2, 3, 4]
        assert all(np.isfinite(tv.values).all() for tv in out)

    def test_negative_lambda_rejected(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        policy = interior_matrix_policy(0.5, 0.5)
        with pytest.raises(ValueError, match="lam"):
            backward_tilted_values(model, policy, -1.0)

    def test_overflow_raises_numeric_error(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, horizon=3)
        model.r[:] = 9e307  # finite, but sums past the float64 ceiling
        policy = random_policy_for(model, (2, 2), seed=4)
        with pytest.raises(NumericError, match="nonfinite tilted value at t="):
            backward_tilted_values(model, policy, 1.0)


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


class TestGreedyAgentUpdate:
    def test_neutral_picks_safe_action(self):
        qbar = matrix_qbar(p2=0.9, lam=0.0)
        det = greedy_agent_update(qbar, interior_matrix_policy(
            0.9, 0.9).tables[0][0])
        assert det.actions[0, 0] == 0
        assert det.next_states[0, 0] == 0

    def test_tilted_picks_risky_action(self):
        qbar = matrix_qbar(p2=0.9, lam=1.0)
        det = greedy_agent_update(qbar, interior_matrix_policy(
            0.9, 0.9).tables[0][0])
        assert det.actions[0, 0] == 1

    def test_all_equal_ties_to_first_cell(self):
        qbar = AveragedLocalQ(agent=0, t=1, table=np.zeros((2, 2, 3, 2)),
                              mass=np.ones((2, 2)), lam=0.0, is_plain=True)
        det = greedy_agent_update(qbar, np.full((2, 2, 3, 2), 1.0 / 6))
        np.testing.assert_array_equal(det.actions, 0)
        np.testing.assert_array_equal(det.next_states, 0)

    def test_unreachable_copies_incumbent(self):
        table = np.zeros((1, 2, 2, 1))
        table[0, 0, 1, 0] = 5.0
        mass = np.array([[1.0, 0.0]])
        qbar = AveragedLocalQ(agent=0, t=1, table=table, mass=mass,
                              lam=0.0, is_plain=True)
        incumbent = np.zeros((1, 2, 2, 1))
        incumbent[0, 0, 0, 0] = 1.0
        incumbent[0, 1, 1, 0] = 1.0  # unreachable cell currently picks a=1
        det = greedy_agent_update(qbar, incumbent)
        assert det.actions[0, 0] == 1  # reachable: argmax of weights
        assert det.actions[0, 1] == 1  # unreachable: incumbent's argmax

    def test_argmax_consistent_across_lambda_forms(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, horizon=3)
        policy = random_policy_for(model, (2, 2), seed=12)
        traj = forward_marginals(model, policy)
        for lam in (1e-6, 0.1, 1.0, 5.0):
            tilted = backward_tilted_values(model, policy, lam)
            for agent in (0, 1):
                qbar = averaged_local_q(model, traj.at(2), policy, 2,
                                        tilted[2].values, lam, agent)
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

    @pytest.mark.parametrize("lam, kernel", [(0.0, "tilted_q_mean"),
                                             (0.7, "tilted_q_log")])
    @pytest.mark.parametrize("ordering", ["sequential", "per_agent"])
    def test_one_backup_per_stage(self, monkeypatch, lam, kernel, ordering):
        calls = []

        def counted(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        for name in ("tilted_q_mean", "tilted_q_log"):
            monkeypatch.setattr(kernels, name,
                                counted(name, getattr(kernels, name)))
        model = random_model(np.random.default_rng(19), horizon=4)
        policy = random_policy_for(model, (2, 2), seed=70)
        sweep(model, policy, lam, 0.5, ordering=ordering)
        passes = model.n_agents if ordering == "per_agent" else 1
        assert calls == [kernel] * (passes * model.horizon)


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
               dict(restarts=0), dict(ordering="both"), dict(z_sizes=(0, 2))]
        for kv in bad:
            with pytest.raises(ValueError):
                SolverConfig(**kv).validate()
        SolverConfig().validate()

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

    def test_single_sweep_solves_fully_observed_mdp(self):
        rng = np.random.default_rng(18)
        P = rng.dirichlet(np.ones(3), size=(3, 2))
        r = rng.uniform(-1, 1, size=(3, 2))
        start = rng.dirichlet(np.ones(3))
        model = fully_observed_model(P, r, start, horizon=3)
        from rscpi.risk import FiniteMdp
        mdp = FiniteMdp(P=P, r=r, zeta1=start, horizon=3)
        lam = 1.0
        V, _, _ = risk_value_iteration(mdp, lam)
        want = weighted_logmeanexp(start, V[0], lam)
        policy = random_policy_for(model, (1,), seed=19)
        j = sweep(model, policy, lam, 1.0)
        assert j == pytest.approx(want, abs=1e-9)
