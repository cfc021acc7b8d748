"""Forward marginals, the per-agent fold, exact/risk evaluation, and
Monte-Carlo cross-checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _benchmarks import (dectiger_block_policy, dectiger_model,
                         deterministic_policy, fully_observed_model,
                         random_model, random_policy_for, recycling_model,
                         recycling_reactive_policy)
from oracles import (evaluate_enum, evaluate_risk_enum, fold_stage_joint,
                     forward_marginals_joint, forward_sum_eval,
                     marginal_enum, qpomdp_bound, risk_vi_reference,
                     rollout_monte_carlo_rows, _sample_rows,
                     weighted_logmeanexp)
from rscpi import evaluation, kernels
from rscpi.bench_cli import load_model
from rscpi.evaluation import (NumericError, SolveWorkspace, check_fit,
                              evaluate_exact, evaluate_risk, fold_stage,
                              forward_marginals, joint_phi,
                              rollout_monte_carlo)
from rscpi.model import matrix_game_model
from rscpi.policy import ROW_ATOL, JointPolicy, PolicyBatch, random_policy
from test_cli import HUGE_REWARD_MODEL

MATRIX_PAYOFFS = [[2.0, -10.0], [-10.0, 6.0]]


def uniform_matrix_policy():
    tab = np.full((1, 1, 1, 2, 1), 0.5)
    return JointPolicy(horizon=1, agent_state_sizes=(1, 1),
                       tables=[tab, tab.copy()])


def pick_policy(model, a1, a2):
    return deterministic_policy(model, (1, 1),
                                lambda i, t, y, w: ((a1, a2)[i], 0))


CONTRACTION_SIZES = {2: dict(action_counts=(2, 3), obs_counts=(3, 2)),
                     3: dict(action_counts=(2, 3, 2), obs_counts=(3, 2, 2))}
CONTRACTION_Z_SIZES = {2: (2, 3), 3: (2, 1, 3)}


def sparse_policy(model, z_sizes, seed):
    """A random policy whose rows hold zeros: every cell under half its
    row's largest is cut, so its log is -inf."""
    policy = random_policy_for(model, z_sizes, seed)
    tables = []
    for tab in policy.tables:
        top = tab.max(axis=(-2, -1), keepdims=True)
        tab = np.where(tab < 0.5 * top, 0.0, tab)
        tables.append(tab / tab.sum(axis=(-2, -1), keepdims=True))
    assert any(np.any(tab == 0.0) for tab in tables)
    return JointPolicy(horizon=policy.horizon, agent_state_sizes=z_sizes,
                       tables=tables)


def contraction_case(agents, restarts=3):
    """A model with unequal per-agent sizes, `restarts` sparse policies of
    it, and a batch of them."""
    model = random_model(np.random.default_rng(60 + agents), n_states=3,
                         horizon=3, **CONTRACTION_SIZES[agents])
    singles = [sparse_policy(model, CONTRACTION_Z_SIZES[agents], 70 + r)
               for r in range(restarts)]
    return model, singles, PolicyBatch.stack(singles, restarts)


def q_red_for(model, policy, restarts=(), seed=0):
    Z = int(np.prod(policy.agent_state_sizes))
    return np.random.default_rng(seed).uniform(
        -3.0, 3.0, size=restarts + (model.state_count,
                                    model.joint_action_count, Z))


class TestPerAgentContraction:
    """fold_stage and forward_marginals contract the policy one agent at a
    time; the references in oracles form the dense joint table."""

    @pytest.mark.parametrize("agents", [2, 3])
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_fold_matches_joint_table(self, agents, lam):
        model, singles, _ = contraction_case(agents)
        for policy in singles:
            q_red = q_red_for(model, policy)
            for t in range(1, model.horizon + 1):
                got = np.empty((model.state_count, model.joint_obs_count,
                                q_red.shape[-1]))
                fold_stage(policy, t, q_red, lam, got)
                want = fold_stage_joint(policy, t, q_red, lam)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("agents", [2, 3])
    def test_forward_matches_joint_table(self, agents):
        model, singles, _ = contraction_case(agents)
        for policy in singles:
            got = forward_marginals(model, policy)
            want = forward_marginals_joint(model, policy)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("agents", [2, 3])
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_batch_equals_each_restart_alone(self, agents, lam):
        model, singles, batch = contraction_case(agents)
        q_red = q_red_for(model, singles[0], restarts=(batch.size,))
        risk = lam
        got = np.empty(q_red.shape[:2] + (model.joint_obs_count,
                                          q_red.shape[-1]))
        zetas = forward_marginals(model, batch)
        for t in range(1, model.horizon + 1):
            fold_stage(batch, t, q_red, risk, got)
            for r, policy in enumerate(singles):
                alone = np.empty(got.shape[1:])
                fold_stage(policy, t, q_red[r], risk, alone)
                assert np.array_equal(got[r], alone)
        for r, policy in enumerate(singles):
            assert np.array_equal(zetas[r],
                                  forward_marginals(model, policy))

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_overflowing_cell_is_reported(self, lam):
        # one +inf cell of q_red, which some rows weigh with 0: every sum
        # it enters overflows or is nan, never a finite value
        model, singles, _ = contraction_case(2, restarts=1)
        q_red = q_red_for(model, singles[0])
        q_red[1, 2, 3] = np.inf
        out = np.empty((model.state_count, model.joint_obs_count,
                        q_red.shape[-1]))
        with pytest.raises(NumericError, match="nonfinite tilted value"):
            with kernels.quiet_overflow():
                fold_stage(singles[0], 2, q_red, lam, out)

    @pytest.mark.parametrize("t", [0, -1, 4])
    def test_stage_outside_horizon_is_refused(self, t):
        """t = 0 would fold the last stage's rows through t - 1 = -1; out
        is left unwritten."""
        model = dectiger_model(horizon=3)
        policy = random_policy_for(model, (2, 2), seed=0)
        q_red = q_red_for(model, policy)
        out = np.full((model.state_count, model.joint_obs_count, 4), np.nan)
        with pytest.raises(ValueError, match=rf"t={t} outside 1\.\.3"):
            fold_stage(policy, t, q_red, 0.0, out)
        assert np.all(np.isnan(out))

    def test_no_joint_table_is_formed(self):
        """Each step peaks below one dense joint table, Y*W*A*W floats,
        on Dec-Tiger T=3 with 8 agent states per agent."""
        model = dectiger_model(horizon=3)
        policy = random_policy_for(model, (8, 8), seed=0)
        Y, A, W = model.joint_obs_count, model.joint_action_count, 64
        joint_mb = Y * W * A * W * 8 / 1e6
        q_red = q_red_for(model, policy)
        out = np.empty((model.state_count, Y, W))

        def peak_mb(step):
            step()
            tracemalloc.start()
            try:
                step()
                return tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()

        peaks = [peak_mb(lambda: fold_stage(policy, 2, q_red,
                                            lam, out))
                 for lam in (0.0, 0.5)]
        peaks.append(peak_mb(lambda: forward_marginals(model, policy)))
        assert max(peaks) < joint_mb, (peaks, joint_mb)


class TestForwardMarginals:
    def test_first_slice_is_initial_product(self):
        model = dectiger_model(horizon=3)
        policy = random_policy_for(model, (2, 2), seed=0)
        traj = forward_marginals(model, policy)
        phi = joint_phi(policy)
        want = model.zeta1[:, :, None] * phi[None, None, :]
        np.testing.assert_array_equal(traj[0], want)

    def test_matrix_game_single_point_mass(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        traj = forward_marginals(model, uniform_matrix_policy())
        assert traj.shape == (1, 1, 1, 1)
        assert traj[0, 0, 0, 0] == 1.0

    def test_normalized_over_long_horizon(self):
        model = dectiger_model(horizon=20)
        policy = random_policy_for(model, (2, 2), seed=1)
        traj = forward_marginals(model, policy)
        for t in range(1, 21):
            z = traj[t - 1]
            assert np.all(z >= 0.0)
            assert abs(z.sum() - 1.0) <= 1e-10

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, n_states=2, horizon=3)
        policy = random_policy_for(model, (2, 2), seed=3)
        traj = forward_marginals(model, policy)
        got = traj[2]
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

    @pytest.mark.parametrize("agents", [2, 3])
    @pytest.mark.parametrize("kept", [None, 0.0, 0.7])
    def test_on_a_workspace_as_alone(self, agents, kept):
        """With a workspace the step runs on the plan kept for the batch,
        tilted or not, or lays an untilted one out when none is kept; its
        bits are those of the lone call, which runs on a workspace of its
        own, whatever the shared arena held before."""
        model, singles, batch = contraction_case(agents)
        ws = SolveWorkspace(model, batch.agent_state_sizes,
                            restarts=batch.size)
        plan = None
        if kept is not None:
            plan = ws.layout(model, batch, bool(kept))
            plan.q_out.base.fill(np.nan)   # the arena every phase shares
        got = forward_marginals(model, batch, workspace=ws)
        assert got is ws.zeta
        assert ws.plan.tilted == bool(kept)
        assert plan is None or ws.plan is plan
        assert got.tobytes() == forward_marginals(model, batch).tobytes()
        one = SolveWorkspace(model, batch.agent_state_sizes)
        got = forward_marginals(model, singles[1], workspace=one)
        assert got.tobytes() == forward_marginals(model,
                                                  singles[1]).tobytes()


class TestCheckFit:
    @pytest.mark.parametrize("field,kwargs", [
        ("horizon", dict(horizon=3)),
        ("n_agents", dict(action_counts=(3, 3, 3), obs_counts=(3, 3, 3),
                          z_sizes=(2, 2, 2))),
        ("action_counts", dict(action_counts=(3, 2))),
        ("obs_counts", dict(obs_counts=(3, 2)))])
    def test_names_the_first_field_that_differs(self, field, kwargs):
        model = dectiger_model(horizon=2)
        dims = dict(action_counts=model.action_counts,
                    obs_counts=model.obs_counts, z_sizes=(2, 2), horizon=2)
        dims.update(kwargs)
        policy = random_policy(dims["action_counts"], dims["obs_counts"],
                               dims["z_sizes"], dims["horizon"], seed=0)
        for call in (lambda: evaluate_exact(model, policy),
                     lambda: rollout_monte_carlo(model, policy, 10, 0),
                     lambda: forward_marginals(model,
                                               PolicyBatch.of(policy))):
            with pytest.raises(ValueError, match=f"^policy {field} is "):
                call()

    def test_agent_state_sizes_only_when_given(self):
        model = dectiger_model(horizon=2)
        policy = random_policy_for(model, (2, 3), seed=0)
        check_fit(model, policy)
        check_fit(model, policy, (2, 3))
        with pytest.raises(ValueError, match=r"^plan agent_state_sizes is "
                                             r"\(2, 3\), expected \(2, 2\)$"):
            check_fit(model, policy, (2, 2), name="plan")


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

    def test_overflow_raises_numeric_error(self, tmp_path):
        # rewards of 9e307 are finite, but three stages of them are not
        path = tmp_path / "huge.dpomdp"
        path.write_text(HUGE_REWARD_MODEL)
        model, _ = load_model(str(path), 3)
        policy = random_policy_for(model, (1, 1), seed=0)
        with pytest.raises(NumericError, match="t="):
            evaluate_exact(model, policy)

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
        want = weighted_logmeanexp([0.25] * 4, [2.0, -10.0, -10.0, 6.0], 1.0)
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


def mdp_bound(model, lam):
    """The optimal value of the model's fully observed state MDP (P summed
    over y'), under the entropic tilt lam, from zeta1 summed over y: Q_MDP
    at lam = 0. A decentralized policy is a randomized history-dependent
    policy of that MDP, so no policy's objective exceeds it."""
    V, _, psi = risk_vi_reference(model.P.sum(axis=3).tolist(),
                                  model.r.tolist(), model.horizon, lam)
    return weighted_logmeanexp(model.zeta1.sum(axis=1), V[0], lam), psi


def assert_below_bound(model, policy, lams):
    scale = model.horizon * np.abs(model.r).max() + 1.0
    for lam in lams:
        got = (evaluate_exact(model, policy) if lam == 0.0
               else evaluate_risk(model, policy, lam))
        bound, _ = mdp_bound(model, lam)
        assert got <= bound + 1e-9 * scale, (lam, got, bound)


class TestUpperBound:
    """Every objective is at most the state MDP's: an evaluation that
    overcounts reward fails here even where two recursions of this package
    agree."""

    @given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 3),
           agents=st.integers(1, 3), horizon=st.integers(1, 4),
           reward_scale=st.sampled_from([0.1, 1.0, 10.0]),
           lam=st.sampled_from([0.05, 0.5, 1.0]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_drawn_models_and_policies(self, seed, n_states, agents,
                                       horizon, reward_scale, lam, data):
        # |V| <= 4 * 10 * 1.0, so the oracle's unshifted exp stays finite
        sizes = st.lists(st.integers(1, 2), min_size=agents,
                         max_size=agents).map(tuple)
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_states=n_states,
                             action_counts=data.draw(sizes),
                             obs_counts=data.draw(sizes), horizon=horizon,
                             reward_scale=reward_scale)
        policy = random_policy_for(model, data.draw(sizes), seed % 1000)
        assert_below_bound(model, policy, [0.0, lam])

    @pytest.mark.parametrize("load, horizon, q_mdp", [
        (dectiger_model, 6, 120.0), (recycling_model, 100, 328.371)])
    def test_bundled_models(self, load, horizon, q_mdp):
        model = load(horizon=horizon)
        assert mdp_bound(model, 0.0)[0] == pytest.approx(q_mdp, abs=1e-3)
        policy = random_policy_for(model, (2, 2), seed=0)
        assert_below_bound(model, policy, [0.0, 0.1, 0.5, 1.0])

    @given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 3),
           agents=st.integers(1, 3), horizon=st.integers(1, 4),
           reward_scale=st.sampled_from([0.1, 1.0, 10.0]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_value_below_qpomdp(self, seed, n_states, agents, horizon,
                                      reward_scale, data):
        """The centralized POMDP's value bounds every exact value, and is
        itself at most the state MDP's."""
        sizes = st.lists(st.integers(1, 2), min_size=agents,
                         max_size=agents).map(tuple)
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_states=n_states,
                             action_counts=data.draw(sizes),
                             obs_counts=data.draw(sizes), horizon=horizon,
                             reward_scale=reward_scale)
        policy = random_policy_for(model, data.draw(sizes), seed % 1000)
        scale = model.horizon * np.abs(model.r).max() + 1.0
        bound = qpomdp_bound(model)
        assert bound <= mdp_bound(model, 0.0)[0] + 1e-9 * scale
        assert evaluate_exact(model, policy) <= bound + 1e-9 * scale

    @pytest.mark.parametrize("horizon, q_pomdp", [
        (3, 13.015), (4, 22.701), (5, 26.810), (6, 35.074)])
    def test_dectiger_qpomdp(self, horizon, q_pomdp):
        """Dec-Tiger's Q_POMDP lies between its optima (5.19, 4.80, 7.03,
        10.38) and its Q_MDP (60, 80, 100, 120)."""
        model = dectiger_model(horizon=horizon)
        assert qpomdp_bound(model) == pytest.approx(q_pomdp, abs=1e-3)

    @pytest.mark.parametrize("horizon", [3, 4, 5])
    def test_recycling_qpomdp_is_its_qmdp(self, horizon):
        """The robots start in one state and their joint observation is the
        next state, so the centralized controller always knows the state."""
        model = recycling_model(horizon=horizon)
        assert qpomdp_bound(model) == pytest.approx(
            mdp_bound(model, 0.0)[0], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_reached_when_the_state_is_observed(self, lam):
        """On a fully observed MDP the bound's own Markov policy reaches it:
        `evaluate_risk` reports in the bound's units, the reward's."""
        rng = np.random.default_rng(11)
        P = rng.dirichlet(np.ones(3), size=(3, 2))
        model = fully_observed_model(P, rng.uniform(-2.0, 2.0, (3, 2)),
                                     rng.dirichlet(np.ones(3)), horizon=4)
        bound, psi = mdp_bound(model, lam)
        policy = deterministic_policy(model, (1,),
                                      lambda i, t, y, w: (psi[t][y], 0))
        assert evaluate_risk(model, policy, lam) == pytest.approx(
            bound, rel=1e-12, abs=1e-12)


def deterministic_process():
    """A fully observed chain and policy with a single possible episode."""
    P = np.zeros((2, 2, 2))
    P[:, :, 1] = 1.0  # every action leads to state 1
    r = np.array([[1.0, 2.0], [3.0, 4.0]])
    model = fully_observed_model(P, r, [1.0, 0.0], horizon=3)
    return model, deterministic_policy(model, (1,),
                                       lambda i, t, y, w: (y % 2, 0))


class TestMonteCarlo:
    def test_deterministic_process_zero_stderr(self):
        model, policy = deterministic_process()
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

    def test_policy_batch_refused(self):
        """A batch's (R, Z_i) phi would be read as one distribution and its
        tables as one policy's; the error names the batch."""
        model = dectiger_model(horizon=3)
        batch = PolicyBatch.stack(
            (random_policy_for(model, (2, 2), seed=s) for s in range(2)), 2)
        with pytest.raises(ValueError, match="PolicyBatch"):
            rollout_monte_carlo(model, batch, 100, seed=0)

    def test_one_chunk_peak_below_the_dense_successor_gather(self):
        """Successors are drawn on P's support, so one chunk of 4096
        episodes on Recycling T=100 peaks below the (S Y, 4096) float64
        gather that a draw over every (s', y') would take on its own."""
        model = recycling_model(horizon=100)
        policy = random_policy_for(model, (2, 2), seed=0)
        dense_mb = model.state_count * model.joint_obs_count * 4096 * 8 / 1e6
        rollout_monte_carlo(model, policy, 4096, seed=1)   # caches the support
        tracemalloc.start()
        try:
            rollout_monte_carlo(model, policy, 4096, seed=1)
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < dense_mb, (peak_mb, dense_mb)

    def test_same_seed_reproduces(self):
        model = dectiger_model(horizon=3)
        policy = random_policy_for(model, (2, 2), seed=3)
        a = rollout_monte_carlo(model, policy, 2000, seed=7)
        b = rollout_monte_carlo(model, policy, 2000, seed=7)
        assert a == b

    def test_episode_count_validated(self):
        """episodes and chunk are integers >= 1, seed an integer >= 0; each
        error names its argument (chunk=0 would loop forever)."""
        model = matrix_game_model(MATRIX_PAYOFFS)
        for name, bad in [("episodes", 0), ("episodes", -3),
                          ("episodes", True), ("episodes", 10.0),
                          ("chunk", 0), ("chunk", -3), ("chunk", True),
                          ("chunk", 2.5), ("seed", -1), ("seed", 1.5),
                          ("seed", "7")]:
            args = dict(episodes=10, seed=0, chunk=4) | {name: bad}
            with pytest.raises(ValueError, match=name):
                rollout_monte_carlo(model, uniform_matrix_policy(), **args)

    def test_numpy_integers_accepted(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        policy = uniform_matrix_policy()
        assert (rollout_monte_carlo(model, policy, np.int64(50), np.int64(3),
                                    chunk=np.int32(7))
                == rollout_monte_carlo(model, policy, 50, 3, chunk=7))


def _oracle_cases():
    """(model, policy, episodes) on which the rollout is checked bitwise;
    no episode count is a multiple of 7 or 4096."""
    tiger = dectiger_model(horizon=6)
    yield tiger, random_policy(tiger.action_counts, tiger.obs_counts, (2, 2),
                               6, seed=4, phi_mode="uniform"), 1003
    recycling = recycling_model(horizon=100)
    yield recycling, random_policy_for(recycling, (2, 2), seed=0), 45
    three = random_model(np.random.default_rng(8), action_counts=(2, 2, 2),
                         obs_counts=(2, 2, 2), horizon=4)
    yield three, random_policy_for(three, (2, 1, 3), seed=5), 1003
    yield *deterministic_process(), 1003


ORACLE_CASES = list(_oracle_cases())


class TestMonteCarloOracle:
    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("case", range(len(ORACLE_CASES)),
                             ids=["dectiger", "recycling", "three_agents",
                                  "deterministic"])
    def test_equal_to_per_row_sampler(self, case, chunk):
        """Drawing from CDFs built once per call gives the same bits as
        gathering probability rows and summing them at every step."""
        model, policy, episodes = ORACLE_CASES[case]
        if chunk == 1:  # one Python step per episode and stage
            episodes = 2 + 100 // model.horizon
        got = rollout_monte_carlo(model, policy, episodes, seed=11,
                                  chunk=chunk)
        assert got == rollout_monte_carlo_rows(model, policy, episodes,
                                               seed=11, chunk=chunk)


class FixedUniforms:
    """Stands in for a numpy Generator: random(n) hands out the next n of
    the given uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        out, self.values = self.values[:n], self.values[n:]
        return np.array(out)


class TestDrawConvention:
    """evaluation._draw at exact boundary uniforms: category k takes the
    scaled u = u * cdf[-1] in (cdf[k-1], cdf[k]]. Random uniforms almost
    never land on a boundary, so the rollout oracle cannot pin this."""

    def test_boundaries_of_exact_steps(self):
        cdf = evaluation._cdf_columns(np.array([[0.25, 0.25, 0.5]]))
        u = [0.0, 0.25, np.nextafter(0.25, 1.0), 0.5,
             np.nextafter(0.5, 1.0), 0.75, np.nextafter(1.0, 0.0)]
        got = evaluation._draw(FixedUniforms(u), cdf, len(u))
        assert got.tolist() == [0, 0, 1, 1, 2, 2, 2]

    def test_scaled_by_the_row_sum(self):
        """A row summing to 1 - 5e-10 passes the row check; u just above
        cdf[1] = 0.5 lands below it once scaled by the row sum."""
        row = np.array([[0.25, 0.25, 0.5 - 5e-10]])
        assert 0.0 < 1.0 - row.sum() <= ROW_ATOL
        cdf = evaluation._cdf_columns(row)
        assert cdf[1, 0] == 0.5
        got = evaluation._draw(FixedUniforms([0.5 + 1.25e-10]), cdf, 1)
        assert got.tolist() == [1]

    @pytest.mark.parametrize("row, u, want", [
        ([0.0, 0.5, 0.5], [0.0], [1]),
        ([0.0, 0.0, 0.0, 1.0], [0.0], [3]),
        ([0.0, 0.0, 0.25, 0.0, 0.75], [0.0, 0.25, np.nextafter(0.25, 1.0)],
         [2, 2, 4]),
    ])
    def test_zero_probability_category_never_drawn(self, row, u, want):
        """u = 0.0 lands on the first positive category, not on category 0,
        in the package's draw and in the oracle's alike."""
        cdf = evaluation._cdf_columns(np.array([row]))
        assert evaluation._draw(FixedUniforms(u), cdf, len(u)).tolist() == want
        rows = np.array([row] * len(u))
        assert _sample_rows(FixedUniforms(u), rows).tolist() == want

    def test_leading_zeros_per_column(self):
        rows = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        cdf = evaluation._cdf_columns(rows)
        got = evaluation._draw(FixedUniforms([0.0] * 3), cdf, 3)
        assert got.tolist() == [1, 2, 0]
