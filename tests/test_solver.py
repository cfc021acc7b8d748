"""Tilted backward values, averaged local Q, greedy sweeps, and rscpi."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

from _benchmarks import (dectiger_model, deterministic_policy,
                         fully_observed_model, random_model, random_policy_for,
                         recycling_model)
from oracles import (agent_components, averaged_local_q_flat,
                     backward_stages, logmeanexp_direct, q_values,
                     risk_vi_reference, stage_plan,
                     update_agent_at_incumbent, weighted_logmeanexp)
from rscpi import evaluation, kernels, solver
from rscpi.evaluation import (AveragedLocalQ, NumericError, SolveWorkspace,
                              StagePlan, aggregate_initial, backward,
                              evaluate_exact, evaluate_risk,
                              forward_marginals, is_neutral, stage_backup)
from rscpi.model import matrix_game_model
from rscpi.policy import JointPolicy, PolicyBatch, mix_policies, random_policy
from rscpi.solver import SolverConfig, greedy_agent_update, rscpi, sweep

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


def lone(qbar):
    """A JointPolicy's AveragedLocalQ without its restart axis of one."""
    return AveragedLocalQ(table=qbar.table[0], mass=qbar.mass[0])


def matrix_qbar(p2, lam):
    """Agent 1's averaged local Q on the matrix game vs a (p2, 1-p2) partner."""
    model = matrix_game_model(MATRIX_PAYOFFS)
    policy = interior_matrix_policy(0.5, p2)
    return lone(stage_plan(model, policy, lam,
                           np.zeros((1, 1, 1))).local_q(1, 0))


def flat_local_q(plan, t, agent):
    """`averaged_local_q_flat` on the operands of a sweep's plan, in the
    place of `StagePlan.local_q`."""
    return averaged_local_q_flat(plan.model, plan.zeta[:, t - 1], plan.batch,
                                 t, plan.q_red, plan.tilted, agent)


class TestBackwardTiltedValues:
    def test_matrix_game_base_case(self):
        model = matrix_game_model(MATRIX_PAYOFFS)
        policy = interior_matrix_policy(0.9, 0.9)
        lam = 1.0
        stack = backward_stages(model, policy, lam)
        l1 = backward(model, policy, lam)
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
            j = aggregate_initial(model, policy, l1, 0.0)
            assert j == pytest.approx(evaluate_exact(model, policy), abs=1e-9)

    def test_stage_indexing(self):
        model = dectiger_model(horizon=4)
        policy = random_policy_for(model, (2, 2), seed=0)
        stack = backward_stages(model, policy, 0.5)
        l1 = backward(model, policy, 0.5)
        assert np.isfinite(stack).all()
        assert np.array_equal(l1, stack[0])
        # stack[t - 1] holds L_t: the last stage is the one-step backup alone
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
    def test_each_restarts_stages_as_if_alone(self, agents, lam):
        """Every L_t of a batch, and backward's L_1, carry each restart's
        lone bits."""
        model, singles, batch = self.batch_of_three(agents)
        stacks = backward_stages(model, batch, lam)
        l1 = backward(model, batch, lam)
        assert np.array_equal(l1, stacks[:, 0])
        for r, policy in enumerate(singles):
            assert np.array_equal(backward(model, policy, lam), l1[r])
            assert np.array_equal(backward_stages(model, policy, lam),
                                  stacks[r])

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("n_states,obs_counts", [(3, (3, 2)), (2, (1, 1)),
                                                     (1, (2, 1))])
    def test_aggregate_gives_each_restart_its_lone_bits(self, lam, n_states,
                                                        obs_counts):
        """One call folds the whole batch. numpy's einsum sums a batch of
        two-cell zeta1 (S*Y = 2, the last two cases) in another order than
        a lone restart's."""
        rng = np.random.default_rng(50)
        model = random_model(rng, n_states=n_states, obs_counts=obs_counts,
                             horizon=2, init_obs_mode="uniform_observation")
        singles = [random_policy_for(model, (2, 3), seed=120 + r)
                   for r in range(3)]
        for policy in singles:
            policy.phi = [rng.dirichlet(np.ones(z)) for z in (2, 3)]
        batch = PolicyBatch.stack(singles, 3)
        l1 = 10.0 * rng.normal(size=(3, n_states, model.joint_obs_count, 6))
        risk = lam
        got = aggregate_initial(model, batch, l1, risk)
        for r, policy in enumerate(singles):
            want = aggregate_initial(model, policy, l1[r].copy(), risk)
            assert float(got[r]).hex() == want.hex()

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

    def test_overflow_of_one_policy_names_no_restart(self):
        """One JointPolicy is one restart: evaluate_risk and sweep report
        its overflow alike, with no restart in the message."""
        model = matrix_game_model([[1e308] * 2] * 2)
        messages = []
        for run in (lambda p: evaluate_risk(model, p, 5.0),
                    lambda p: sweep(model, p, 5.0, 0.5)):
            with pytest.raises(NumericError) as exc:
                run(interior_matrix_policy(0.5, 0.5))
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0] == "nonfinite tilted value at t=1, cell=(0, 0, 0)"


class TestAveragedLocalQ:
    def test_matrix_game_neutral_values(self):
        qbar = matrix_qbar(p2=0.9, lam=0.0)
        assert np.all(qbar.reachable)
        q = q_values(qbar, 0.0)[0, 0, :, 0]
        np.testing.assert_allclose(q, [0.8, -8.4], atol=1e-12)

    def test_matrix_game_tilted_ordering_flips(self):
        qbar = matrix_qbar(p2=0.9, lam=1.0)
        q = q_values(qbar, 1.0)[0, 0, :, 0]
        want_a = logmeanexp_direct([0.9, 0.1], [2.0, -10.0], 1.0)
        want_b = logmeanexp_direct([0.9, 0.1], [-10.0, 6.0], 1.0)
        np.testing.assert_allclose(q, [want_a, want_b], atol=1e-12)
        assert q[1] > q[0]  # the 0.1 e^6 tail wins under the tilt
        neutral = q_values(matrix_qbar(p2=0.9, lam=0.0), 0.0)[0, 0, :, 0]
        assert neutral[0] > neutral[1]

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_fully_observed_single_agent_identity(self, lam):
        # conditional over states degenerates, so Q-bar is the stage reward
        rng = np.random.default_rng(5)
        P = rng.dirichlet(np.ones(3), size=(3, 2))
        r = rng.uniform(-1, 1, size=(3, 2))
        model = fully_observed_model(P, r, [0.2, 0.5, 0.3], horizon=1)
        policy = random_policy_for(model, (1,), seed=6)
        qbar = lone(stage_plan(model, policy, lam,
                               np.zeros((3, 3, 1))).local_q(1, 0))
        assert np.all(qbar.reachable)
        q = q_values(qbar, lam)[:, 0, :, 0]
        np.testing.assert_allclose(q, r, atol=1e-12)

    def test_unreachable_cells_flagged(self):
        rng = np.random.default_rng(7)
        P = rng.dirichlet(np.ones(3), size=(3, 2))
        r = rng.uniform(-1, 1, size=(3, 2))
        model = fully_observed_model(P, r, [0.5, 0.5, 0.0], horizon=1)
        policy = random_policy_for(model, (1,), seed=8)
        qbar = lone(stage_plan(model, policy, 0.0,
                               np.zeros((3, 3, 1))).local_q(1, 0))
        np.testing.assert_array_equal(qbar.reachable[:, 0],
                                      [True, True, False])
        assert np.all(np.isnan(q_values(qbar, 0.0)[2]))

    def test_mass_is_cell_marginal(self):
        model = dectiger_model(horizon=3)
        policy = random_policy_for(model, (2, 2), seed=9)
        traj = forward_marginals(model, policy)
        qbar = lone(stage_plan(model, policy, 0.0,
                               np.zeros((2, 9, 4))).local_q(2, 0))
        y_comp = agent_components(model.obs_counts)[0]
        w_comp = agent_components((2, 2))[0]
        want = np.zeros((3, 2))
        flat = traj[1].sum(axis=0)
        for y in range(9):
            for w in range(4):
                want[y_comp[y], w_comp[w]] += flat[y, w]
        np.testing.assert_allclose(qbar.mass, want, atol=1e-12)

    def test_plain_domain_weights_keep_a_far_tail(self):
        """The co-agents' weights zeta * copi are summed in the plain domain
        at every lam. A co-agent action of probability 1e-200 whose payoff
        is 600 higher still wins at lam = 1, as 1e-200 * e^600 ~ 4e60."""
        model = matrix_game_model([[1.0, 1.0], [0.0, 600.0]])
        tabs = [np.array([0.5, 0.5]).reshape(1, 1, 1, 2, 1),
                np.array([1.0, 1e-200]).reshape(1, 1, 1, 2, 1)]
        policy = JointPolicy(horizon=1, agent_state_sizes=(1, 1), tables=tabs)
        qbar = lone(stage_plan(model, policy, 1.0,
                               np.zeros((1, 1, 1))).local_q(1, 0))
        q = q_values(qbar, 1.0)[0, 0, :, 0]
        want = [logmeanexp_direct([1.0, 1e-200], row, 1.0)
                for row in ([1.0, 1.0], [0.0, 600.0])]
        np.testing.assert_allclose(q, want, rtol=0, atol=1e-12)
        assert q[1] > q[0] + 100.0
        assert greedy_agent_update(qbar)[0, 0] == 1

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
            for policy in (singles[0], batch):
                plan = stage_plan(model, policy, lam, np.zeros(shape))
                for agent in (0, 1):
                    qbar = plan.local_q(model.horizon, agent)
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
        l_next = np.random.default_rng(5).uniform(
            -1.0, 1.0, size=(3, 3, model.joint_obs_count, 6))
        plan = stage_plan(model, batch, lam, l_next)
        alone = [stage_plan(model, policy, lam, l_next[r])
                 for r, policy in enumerate(singles)]
        for agent in (0, 1):
            qbar = plan.local_q(2, agent)
            for r, one in enumerate(alone):
                one = one.local_q(2, agent)
                assert np.array_equal(qbar.table[r], one.table[0])
                assert np.array_equal(qbar.mass[r], one.mass[0])


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
        factored = StagePlan.local_q
        clear_cells = []

        def checked(plan, t, agent):
            got = factored(plan, t, agent)
            want = flat_local_q(plan, t, agent)
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

        monkeypatch.setattr(StagePlan, "local_q", checked)
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
        monkeypatch.setattr(StagePlan, "local_q", flat_local_q)
        want = rscpi(model, config)
        assert got.trace == want.trace
        assert got.sweeps == want.sweeps == 8

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_peak_memory_on_the_large_synthetic_shape(self, lam):
        """One call at S=8, A^i=Y^i=4, Z^i=3 and one restart, with its
        buffers in the plan's arena, holds under 0.6 MB; the full product,
        S*co_yw*co_az*yw*az = 165,888 floats, peaks above it."""
        model = random_model(np.random.default_rng(0), n_states=8,
                             action_counts=(4, 4), obs_counts=(4, 4),
                             horizon=2, init_obs_mode="uniform_observation")
        batch = PolicyBatch.of(random_policy_for(model, (3, 3), seed=1))
        risk = lam
        ws = SolveWorkspace(model, batch)
        forward_marginals(model, batch, workspace=ws)
        with kernels.quiet_overflow():
            stage_backup(model, np.zeros((1, 8, 16, 9)), risk, ws.q_red)

        def peak_mb(local_q):
            local_q(0)   # warm-up outside the measurement
            tracemalloc.start()
            try:
                for agent in (0, 1):
                    local_q(agent)
                return tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()

        # the plan's arena holds each agent's buffers in one phase; a call
        # may allocate more on top of the largest
        plan = ws.layout(not is_neutral(risk))
        held = max(8 * sum(max(map(math.prod, entry))
                           if isinstance(entry, list) else math.prod(entry)
                           for entry in evaluation._LocalQLayout(
                               model, batch, ws.zeta, ws.q_red, agent).spec
                           if entry is not None)
                   for agent in (0, 1)) / 1e6
        assert held + peak_mb(lambda agent: plan.local_q(2, agent)) < 0.6
        assert peak_mb(lambda agent: flat_local_q(plan, 2, agent)) > 0.6

    def test_tilted_arena_holds_no_gathered_support(self):
        """On the large synthetic shape the stage backup's scratch is the
        matmul's product with P (R, S*A, Z), after the shifted exp E
        (R, S*Y, Z) in the tilted regime. So the tilted arena is no larger
        than the untilted one or the log-domain fold's buffers, plus E, far
        below the (W, S*A, R, Z) gather of P's support, 1.18 MB here."""
        model = random_model(np.random.default_rng(0), n_states=8,
                             action_counts=(4, 4), obs_counts=(4, 4),
                             horizon=2, init_obs_mode="uniform_observation")
        ws = SolveWorkspace(model, PolicyBatch.of(
            random_policy_for(model, (3, 3), seed=1)))
        S, A, Y, Z = 8, 16, 16, 9
        arenas = {}
        for tilted in (False, True):
            plan = ws.layout(tilted)
            assert [b.shape for b in plan.scratch] == (
                [(1, S * Y, Z)] * tilted + [(1, S * A, Z)])
            arenas[tilted] = plan.scratch[0].base.size
        fold = evaluation._scratch(evaluation._Contraction.shapes(
            1, S, [12, 12], [12, 12], True))[0][0].base.size
        assert arenas[True] <= max(arenas[False], fold) + Z * S * Y
        gathered = len(evaluation._support(model)[0]) * S * A * Z
        assert 8 * gathered > 1.1e6 > 4 * 8 * arenas[True]


class TestStagePlanScratch:
    """A sweep or an exact evaluation lays its stages out once per call,
    in scratch whose size does not depend on T: a per-stage list of views
    held for the call would add hundreds of KB at T = 400."""

    @staticmethod
    def warm_peak_kb(step):
        step()   # warm-up outside the measurement
        tracemalloc.start()
        try:
            step()
            return tracemalloc.get_traced_memory()[1] / 1e3
        finally:
            tracemalloc.stop()

    def peaks_kb(self, horizon):
        model = recycling_model(horizon=horizon)
        batch = PolicyBatch.stack(
            [random_policy_for(model, (2, 2), seed=r) for r in range(3)], 3)
        ws = SolveWorkspace(model, batch)
        return (self.warm_peak_kb(lambda: evaluate_exact(model, batch)),
                self.warm_peak_kb(lambda: sweep(model, batch, 0.0, 0.3,
                                                workspace=ws)))

    def test_peaks_do_not_grow_with_the_horizon(self):
        short, long = self.peaks_kb(10), self.peaks_kb(400)
        for what, a, b in zip(("evaluate_exact", "sweep"), short, long):
            assert b - a <= 48.0, (what, a, b)


class TestSolveLayout:
    """A solve lays its stages out once per regime: its forward steps,
    sweeps and exact evaluations share the one `StagePlan` its workspace
    keeps."""

    @staticmethod
    def count_plans(monkeypatch):
        """The regime (tilted or not) of each solve plan built, one laid out
        over zeta; the plans of a lone `backward` are not counted."""
        built = []

        class Counted(StagePlan):
            __slots__ = ()

            def __init__(self, model, batch, tilted, *args, zeta=None):
                if zeta is not None:
                    built.append(tilted)
                super().__init__(model, batch, tilted, *args, zeta=zeta)

        monkeypatch.setattr(evaluation, "StagePlan", Counted)
        return built

    @staticmethod
    def count_arenas(monkeypatch):
        """The phase count of each scratch arena cut."""
        cuts = []
        cut = evaluation._scratch

        def counted(*phases):
            cuts.append(len(phases))
            return cut(*phases)

        monkeypatch.setattr(evaluation, "_scratch", counted)
        return cuts

    def test_an_untilted_solve_cuts_one_arena(self, monkeypatch):
        """The plan lays the forward step out with its other phases, so no
        forward step of the solve cuts an arena of its own."""
        cuts = self.count_arenas(monkeypatch)
        config = SolverConfig(lambda0=0.0, alpha=0.1, max_sweeps=30,
                              restarts=3, seed=0, z_sizes=(2, 2))
        assert rscpi(dectiger_model(horizon=4), config).sweeps > 2
        assert len(cuts) == 1

    def test_an_untilted_solve_lays_its_stages_out_once(self, monkeypatch):
        built = self.count_plans(monkeypatch)
        config = SolverConfig(lambda0=0.0, alpha=0.1, max_sweeps=30,
                              restarts=3, seed=0, z_sizes=(2, 2))
        result = rscpi(dectiger_model(horizon=4), config)
        assert result.sweeps > 2
        assert built == [False]

    def test_a_change_of_regime_swaps_the_layout(self, monkeypatch):
        built = self.count_plans(monkeypatch)
        cuts = self.count_arenas(monkeypatch)
        config = SolverConfig(lambda0=0.5, anneal_sweeps=2, alpha=0.1,
                              max_sweeps=6, restarts=2, seed=0,
                              z_sizes=(2, 2))
        assert rscpi(dectiger_model(horizon=3), config).sweeps > 3
        # each tilted sweep is followed by an untilted evaluation
        assert built == [True, False, True, False]
        assert len(cuts) == len(built)

    def test_a_joint_policy_keeps_its_plan(self, monkeypatch):
        """A workspace wraps its JointPolicy in a batch once, so every call
        on it shares one plan, and the results are those of the calls
        without it."""
        model = dectiger_model(horizon=4)
        policy = random_policy_for(model, (2, 2), seed=3)
        twin = policy.copy()
        want = [(sweep(model, twin, 0.0, 0.3).hex(),
                 evaluate_exact(model, twin).hex()) for _ in range(5)]
        built = self.count_plans(monkeypatch)
        ws = SolveWorkspace(model, policy)
        got = [(sweep(model, policy, 0.0, 0.3, workspace=ws).hex(),
                evaluate_exact(model, policy, workspace=ws).hex())
               for _ in range(5)]
        assert built == [False]
        assert got == want
        assert tables_bytes(policy) == tables_bytes(twin)
        with pytest.raises(ValueError, match="another model"):
            evaluate_exact(dectiger_model(horizon=4), policy, workspace=ws)

    @pytest.mark.parametrize("ordering", ["sequential", "per_agent"])
    def test_evaluation_on_the_workspace_is_a_lone_one(self, ordering):
        model = random_model(np.random.default_rng(21), n_states=3,
                             horizon=3, **BATCH_SIZES[2])
        batch = PolicyBatch.stack([random_policy_for(model, (2, 3),
                                                     seed=140 + r)
                                   for r in range(3)], 3)
        ws = SolveWorkspace(model, batch)
        for lam in (0.7, 0.0, 0.0):
            sweep(model, batch, lam, 0.4, ordering, ws)
            got = evaluate_exact(model, batch, workspace=ws)
            assert got.tobytes() == evaluate_exact(model, batch).tobytes()

    def test_a_change_of_regime_drops_the_old_layout_first(self):
        """On the benchmark's synthetic-large shape the tilted arena holds
        the gathered successors, ~1.2 MB; an untilted evaluation after a
        tilted sweep must free it before it cuts its own, ~0.13 MB."""
        model = random_model(np.random.default_rng(0), n_states=8,
                             action_counts=(4, 4), obs_counts=(4, 4),
                             horizon=10, init_obs_mode="uniform_observation")
        policy = random_policy_for(model, (3, 3), seed=1)

        def peak_kb(evaluate):
            batch = PolicyBatch.of(policy.copy())
            ws = SolveWorkspace(model, batch)
            tracemalloc.start()
            try:
                sweep(model, batch, 1.0, 0.3, workspace=ws)
                if evaluate:
                    evaluate_exact(model, batch, workspace=ws)
                return tracemalloc.get_traced_memory()[1] / 1e3
            finally:
                tracemalloc.stop()

        peak_kb(True)   # warm-up: the model caches its support on first use
        assert peak_kb(True) <= peak_kb(False) + 16.0


class TestModuleBoundary:
    def test_solver_binds_no_private_name_of_evaluation(self):
        """Policy improvement reaches evaluation through its public names
        only: how a stage is laid out stays evaluation's own decision."""
        private = [value for name, value in vars(evaluation).items()
                   if name.startswith("_")
                   and (inspect.isfunction(value) or inspect.isclass(value))]
        assert private
        bound = [name for name, value in vars(solver).items()
                 if any(value is p for p in private)]
        assert bound == []


class TestGreedyAgentUpdate:
    def test_neutral_picks_safe_action(self):
        picks = greedy_agent_update(matrix_qbar(p2=0.9, lam=0.0))
        assert picks[0, 0] == 0     # a = 0, z' = 0

    def test_tilted_picks_risky_action(self):
        picks = greedy_agent_update(matrix_qbar(p2=0.9, lam=1.0))
        assert picks[0, 0] == 1     # a = 1 of Z = 1

    def test_all_equal_ties_to_first_cell(self):
        qbar = AveragedLocalQ(table=np.zeros((2, 2, 3, 2)),
                              mass=np.ones((2, 2)))
        np.testing.assert_array_equal(greedy_agent_update(qbar), 0)

    def test_flat_index_is_action_times_z_plus_next_state(self):
        table = np.zeros((2, 1, 3, 2))
        table[0, 0, 2, 1] = 1.0
        table[1, 0, 1, 0] = 1.0
        qbar = AveragedLocalQ(table=table, mass=np.ones((2, 1)))
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
        plan = stage_plan(model, policy, lam)
        sweep(model, policy, lam, 1.0)
        for agent, tab in enumerate(policy.tables):
            reach = plan.local_q(1, agent).reachable[0]
            assert reach.any() and not reach.all()
            assert tab[0][~reach].tobytes() == before[agent][~reach].tobytes()
            assert np.all(tab[0][reach].max(axis=(-2, -1)) == 1.0)

    def test_argmax_consistent_across_lambda_forms(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, horizon=3)
        policy = random_policy_for(model, (2, 2), seed=12)
        for lam in (1e-6, 0.1, 1.0, 5.0):
            plan = stage_plan(model, policy, lam,
                              backward_stages(model, policy, lam)[2])
            for agent in (0, 1):
                qbar = lone(plan.local_q(2, agent))
                yi, wi, ai, zi = qbar.table.shape
                flat_w = qbar.table.reshape(yi, wi, ai * zi)
                flat_q = q_values(qbar, lam).reshape(yi, wi, ai * zi)
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

        def counted(model, l_next, risk, out, **scratch):
            calls.append(risk)
            return backup(model, l_next, risk, out, **scratch)

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
        ws = SolveWorkspace(model, batch)
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
        """Each call on a workspace refuses a copy of its policy, whose
        arrays the plan does not view, and a model of the same shape, whose
        P the plan would not back up with; nothing is written."""
        model = random_model(np.random.default_rng(8), horizon=2)
        other = random_model(np.random.default_rng(9), horizon=2)
        policy = random_policy_for(model, (2, 2), seed=9)
        ws = SolveWorkspace(model, policy)
        calls = [lambda m, p: sweep(m, p, 0.0, 0.5, workspace=ws),
                 lambda m, p: evaluate_exact(m, p, workspace=ws),
                 lambda m, p: forward_marginals(m, p, workspace=ws),
                 lambda m, p: backward(m, p, 0.5, workspace=ws)]
        for call in calls:
            twin = policy.copy()
            for m, p, what in ((model, twin, "policy"),
                               (other, policy, "model")):
                with pytest.raises(ValueError, match="workspace was built "
                                                     f"for another {what}"):
                    call(m, p)
            assert tables_bytes(twin) == tables_bytes(policy)
        assert ws.plan is None


    @pytest.mark.parametrize("obs_counts", [(2, 2), (3, 2)])
    def test_workspace_of_another_model_is_refused(self, obs_counts):
        """A model of the workspace's shape passed the size check, and the
        kept layout would back its stages up with the first model's P; one
        of another shape failed on an `out has shape` message."""
        model = random_model(np.random.default_rng(8), horizon=2)
        other = random_model(np.random.default_rng(9), horizon=2,
                             obs_counts=obs_counts)
        policy = random_policy_for(model, (2, 2), seed=9)
        batch = PolicyBatch.of(policy)
        ws = SolveWorkspace(model, batch)
        sweep(model, batch, 0.0, 0.5, workspace=ws)
        before = tables_bytes(policy)
        with pytest.raises(ValueError, match="workspace was built for "
                                             "another model"):
            sweep(other, batch, 0.0, 0.5, workspace=ws)
        with pytest.raises(ValueError, match="workspace was built for "
                                             "another model"):
            evaluate_exact(other, batch, workspace=ws)
        with pytest.raises(ValueError, match="workspace was built for "
                                             "another model"):
            forward_marginals(other, batch, workspace=ws)
        assert tables_bytes(policy) == before


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
        y_comp = agent_components(model.obs_counts)[agent]
        w_comp = agent_components(policy.agent_state_sizes)[agent]
        yi = model.obs_counts[agent]
        wi = policy.agent_state_sizes[agent]
        mass = np.zeros((yi, wi))
        np.add.at(mass, (y_comp[:, None], w_comp[None, :]),
                  traj[..., t - 1, :, :, :].sum(axis=0))
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
               dict(z_sizes=2), dict(lambda0="1"), dict(alpha=True),
               dict(tol="x")]
        for kv in bad:
            with pytest.raises(ValueError, match=next(iter(kv))):
                SolverConfig(**kv).validate()
        SolverConfig().validate()
        SolverConfig(restarts=np.int64(2), seed=np.int64(3),
                     z_sizes=[np.int64(1), 2], lambda0=1, alpha=np.float64(0.5),
                     tol=math.inf).validate()

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


class TestRscpi:
    def test_one_batched_evaluation_per_sweep(self, monkeypatch):
        calls = []
        run_sweep, run_eval = solver.sweep, solver.evaluate_exact

        def counted_sweep(model, policy, *args):
            calls.append("sweep")
            return run_sweep(model, policy, *args)

        def counted_eval(model, policy, **workspace):
            calls.append(("evaluate_exact", policy.size))
            return run_eval(model, policy, **workspace)

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

    def test_convergence_counts_below_the_neutral_threshold(self):
        """A tilt below is_neutral's 1e-9 threshold runs untilted, so it
        is checked for convergence too: at lambda0 = 1e-10 each restart
        stops while the schedule is still above 0."""
        model = matrix_game_model(MATRIX_PAYOFFS)
        config = SolverConfig(lambda0=1e-10, anneal_sweeps=10, alpha=1.0,
                              max_sweeps=30, restarts=2, seed=2,
                              z_sizes=(1, 1))
        result = rscpi(model, config)
        assert result.sweeps < config.anneal_sweeps
        assert all(0.0 < lam < 1e-9 for lam, _, _ in result.trace)

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
