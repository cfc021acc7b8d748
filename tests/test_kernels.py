"""The log-domain backup kernel against its scalar-loop and per-row forms
in oracles, the per-agent log-domain fold against the fold of the dense
joint table, both batched against per-restart calls, and the averaged local
value's per-agent reduction against its loop reference."""

from pathlib import Path

import numpy as np
import pytest

from _benchmarks import random_model, random_policy_for
from oracles import (averaged_local_q_loops, expand_joint_policy_gather,
                     fold_policy_log_loops, fold_policy_log_states,
                     tilted_q_log_loops, tilted_q_log_rows)
from rscpi import kernels
from rscpi.bench_cli import load_model
from rscpi.evaluation import (backward, dynamics_support, finite_risk,
                              fold_stage, stage_backup)
from rscpi.policy import PolicyBatch
from rscpi.risk import RiskParameter
from rscpi.solver import averaged_local_q

ROOT = Path(__file__).resolve().parents[1]


def kernel_inputs(seed, n_states=3, action_counts=(2, 2), obs_counts=(2, 2),
                  z_sizes=(2, 2), lam=0.7):
    """One consistent bundle of arguments for the kernels and the averaged
    local value."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_states=n_states, action_counts=action_counts,
                         obs_counts=obs_counts, horizon=3)
    policy = random_policy_for(model, z_sizes, seed + 1)
    S, A = model.state_count, model.joint_action_count
    Y, Z = model.joint_obs_count, int(np.prod(z_sizes))
    indptr, sp, yp, logp = dynamics_support(model)
    l_next = rng.uniform(-2.0, 2.0, size=(S, Y, Z))
    m = expand_joint_policy_gather(policy, 0)
    zeta = rng.dirichlet(np.ones(S * Y * Z)).reshape(S, Y, Z)
    zeta[zeta < 0.002] = 0.0  # genuine zero-mass cells
    zeta /= zeta.sum()
    q_red = rng.uniform(-3.0, 3.0, size=(S, A, Z))
    return dict(model=model, policy=policy, indptr=indptr, sp=sp, yp=yp,
                logp=logp, l_next=l_next, m=m, zeta=zeta, q_red=q_red,
                lam=lam, S=S, A=A, Y=Y, Z=Z)


def log_of(arr):
    return np.log(arr, where=arr > 0, out=np.full_like(arr, -np.inf))


def assert_matches_loops(b, lam, agent):
    """averaged_local_q's table and mass at t=1 equal the loop reference."""
    model, policy = b["model"], b["policy"]
    qbar = averaged_local_q(model, b["zeta"], policy, 1, b["l_next"], lam,
                            agent)
    q_red = np.empty((b["S"], b["A"], b["Z"]))
    with kernels.quiet_overflow():
        stage_backup(model, b["l_next"], finite_risk(lam, "test"), q_red)
    table, mass = averaged_local_q_loops(
        b["zeta"], expand_joint_policy_gather(policy, 0, skip_agent=agent),
        q_red, model.obs_counts, policy.agent_state_sizes,
        model.action_counts, agent, lam)
    np.testing.assert_allclose(qbar.table, table, rtol=0, atol=1e-12)
    np.testing.assert_allclose(qbar.mass, mass, rtol=0, atol=1e-12)


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_tilted_q_log(self, seed):
        b = kernel_inputs(seed)
        lam_r = b["lam"] * b["model"].r
        out_a = np.zeros((b["S"], b["A"], b["Z"]))
        out_b = np.zeros_like(out_a)
        tilted_q_log_loops(
            b["indptr"], b["sp"], b["yp"], b["logp"], lam_r, b["l_next"], out_a)
        kernels.tilted_q_log(
            b["indptr"], b["sp"], b["yp"], b["logp"], lam_r, b["l_next"], out_b)
        np.testing.assert_allclose(out_a, out_b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fold_policy_log(self, seed):
        b = kernel_inputs(seed)
        out_a = np.zeros((b["S"], b["Y"], b["Z"]))
        out_b = np.zeros_like(out_a)
        fold_policy_log_loops(log_of(b["m"]), b["q_red"], out_a)
        fold_stage(b["policy"], 1, b["q_red"], RiskParameter(b["lam"]),
                   out_b)
        np.testing.assert_allclose(out_a, out_b, rtol=0, atol=1e-12)

    # The averaged local value is one numpy reduction;
    # these pin it to the loop form in oracles, at lam = 0 and lam > 0.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_local_weights_log(self, seed):
        b = kernel_inputs(seed)
        for agent in (0, 1):
            assert_matches_loops(b, b["lam"], agent)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_local_weights_mean(self, seed):
        b = kernel_inputs(seed)
        for agent in (0, 1):
            assert_matches_loops(b, 0.0, agent)

    def test_asymmetric_agent_spaces(self):
        b = kernel_inputs(11, action_counts=(3, 2), obs_counts=(2, 3),
                          z_sizes=(1, 2))
        for lam in (0.0, 0.7):
            for agent in (0, 1):
                assert_matches_loops(b, lam, agent)

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_three_agents(self, lam):
        b = kernel_inputs(13, action_counts=(2, 3, 2), obs_counts=(2, 2, 3),
                          z_sizes=(2, 1, 2))
        for agent in (0, 1, 2):
            assert_matches_loops(b, lam, agent)

    def test_empty_support_row_gives_neg_inf(self):
        # a row with no successors must produce -inf, not garbage
        indptr = np.array([0, 0], dtype=np.int64)
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0)
        out_a = np.zeros((1, 1, 2))
        out_b = np.zeros((1, 1, 2))
        lam_r = np.zeros((1, 1))
        l_next = np.zeros((1, 1, 2))
        tilted_q_log_loops(
            indptr, empty_i, empty_i, empty_f, lam_r, l_next, out_a)
        kernels.tilted_q_log(
            indptr, empty_i, empty_i, empty_f, lam_r, l_next, out_b)
        assert np.all(out_a == -np.inf)
        assert np.all(out_b == -np.inf)


def tilted_args(b, l_next=None):
    """tilted_q_log's inputs, all but `out`, from a kernel_inputs bundle."""
    return (b["indptr"], b["sp"], b["yp"], b["logp"],
            b["lam"] * b["model"].r, b["l_next"] if l_next is None else l_next)


def bench_file_inputs(name, horizon, seed=0, z_sizes=(2, 2)):
    """kernel_inputs' kernel arguments on a bundled .dpomdp file, whose
    support rows hold between 1 and 8 successors."""
    model, _ = load_model(str(ROOT / "benchmarks" / name), horizon)
    rng = np.random.default_rng(seed)
    S, A = model.state_count, model.joint_action_count
    Y = model.joint_obs_count
    Z = int(np.prod(z_sizes))
    indptr, sp, yp, logp = dynamics_support(model)
    policy = random_policy_for(model, z_sizes, seed + 1)
    return dict(model=model, policy=policy, indptr=indptr, sp=sp, yp=yp,
                logp=logp, l_next=rng.uniform(-20.0, 20.0, size=(S, Y, Z)),
                m=expand_joint_policy_gather(policy, 0),
                q_red=rng.uniform(-20.0, 20.0, size=(S, A, Z)),
                lam=0.5, S=S, A=A, Y=Y, Z=Z)


def assert_matches_oracles(b):
    """tilted_q_log equals its per-row oracle bit for bit; the log-domain
    fold_stage agrees with the per-state fold of the dense joint table to
    1e-12."""
    S, A, Y, Z = b["S"], b["A"], b["Y"], b["Z"]
    got_q, want_q = np.empty((S, A, Z)), np.empty((S, A, Z))
    kernels.tilted_q_log(*tilted_args(b), got_q)
    tilted_q_log_rows(*tilted_args(b), want_q)
    assert np.array_equal(got_q, want_q)
    got_l, want_l = np.empty((S, Y, Z)), np.empty((S, Y, Z))
    fold_stage(b["policy"], 1, b["q_red"], RiskParameter(b["lam"]), got_l)
    fold_policy_log_states(log_of(b["m"]), b["q_red"], want_l)
    np.testing.assert_allclose(got_l, want_l, rtol=0, atol=1e-12)


class TestNumpyKernels:
    """The whole-array backup kernel adds each cell's terms in the order of
    its per-row form in oracles, so the two agree bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_equal_to_per_row_forms(self, seed):
        assert_matches_oracles(kernel_inputs(seed))

    @pytest.mark.parametrize("name,horizon", [("dectiger.dpomdp", 6),
                                              ("recycling.dpomdp", 100)])
    def test_equal_on_bundled_supports(self, name, horizon):
        b = bench_file_inputs(name, horizon)
        lengths = np.diff(b["indptr"])
        assert lengths.min() < lengths.max()  # rows are padded
        assert_matches_oracles(b)

    def test_sum_order_does_not_depend_on_z(self):
        # successors are added one at a time for every Z; summing along a
        # contiguous axis would switch to pairwise sums when Z = 1
        b = kernel_inputs(5, n_states=4, obs_counts=(3, 3))
        assert np.diff(b["indptr"]).min() >= 16
        l2 = b["l_next"][:, :, :2].copy()
        l1 = l2[:, :, :1].copy()
        out1 = np.empty((b["S"], b["A"], 1))
        out2 = np.empty((b["S"], b["A"], 2))
        kernels.tilted_q_log(*tilted_args(b, l1), out1)
        kernels.tilted_q_log(*tilted_args(b, l2), out2)
        assert np.array_equal(out1[:, :, 0], out2[:, :, 0])

    def test_padding_with_empty_rows(self):
        # S=2, A=3: empty rows between non-empty rows of lengths 3, 1 and 4,
        # and one at the end; pytest makes a log(0) RuntimeWarning an error
        rng = np.random.default_rng(3)
        lengths = np.array([3, 0, 1, 0, 4, 0])
        indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        nnz = int(indptr[-1])
        sp = rng.integers(0, 2, size=nnz).astype(np.int64)
        yp = rng.integers(0, 3, size=nnz).astype(np.int64)
        logp = np.log(rng.uniform(0.1, 1.0, size=nnz))
        lam_r = rng.uniform(-1.0, 1.0, size=(2, 3))
        l_next = rng.uniform(-5.0, 5.0, size=(2, 3, 2))
        args = (indptr, sp, yp, logp, lam_r, l_next)
        got, loop, rows = (np.empty((2, 3, 2)) for _ in range(3))
        kernels.tilted_q_log(*args, got)
        tilted_q_log_loops(*args, loop)
        tilted_q_log_rows(*args, rows)
        empty = (lengths == 0).reshape(2, 3)
        assert np.all(got[empty] == -np.inf)
        assert np.all(np.isfinite(got[~empty]))
        np.testing.assert_allclose(got, loop, rtol=0, atol=1e-12)
        assert np.array_equal(got, rows)

    def test_strided_out(self):
        # a reshape of these views copies, so writes through one would be lost
        def views(shape):
            S, A, Z = shape
            return [np.full((S, A, 2 * Z), np.nan)[:, :, ::2],
                    np.full((Z, A, S), np.nan).T]

        b = kernel_inputs(0)
        S, A, Y, Z = b["S"], b["A"], b["Y"], b["Z"]
        dense = np.empty((S, A, Z))
        kernels.tilted_q_log(*tilted_args(b), dense)
        for out in views((S, A, Z)):
            kernels.tilted_q_log(*tilted_args(b), out)
            assert np.array_equal(out, dense)
        risk = RiskParameter(b["lam"])
        dense = np.empty((S, Y, Z))
        fold_stage(b["policy"], 1, b["q_red"], risk, dense)
        for out in views((S, Y, Z)):
            fold_stage(b["policy"], 1, b["q_red"], risk, out)
            assert np.array_equal(out, dense)

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_strided_backward_out(self, lam):
        """backward(batch, out=) hands fold_stage strided (R, S, Y, Z)
        slices of out; every L_t lands as it does in a contiguous out."""
        b = kernel_inputs(0)
        model, R = b["model"], 3
        batch = PolicyBatch.stack(
            [random_policy_for(model, (2, 2), 300 + r) for r in range(R)], R)
        shape = (R, model.horizon, b["S"], b["Y"], b["Z"])
        dense = np.full(shape, np.nan)
        l1 = backward(model, batch, lam, out=dense)
        wide = np.full(shape[:-1] + (2 * b["Z"],), np.nan)
        for out in (wide[..., ::2], np.full(shape[::-1], np.nan).T):
            assert not out.flags.c_contiguous
            assert np.array_equal(backward(model, batch, lam, out=out), l1)
            assert np.array_equal(out, dense)


class TestBatchedKernels:
    """A leading restart axis gives each restart the bits of its own call."""

    def batch(self, seed, R=3):
        b = kernel_inputs(seed)
        rng = np.random.default_rng(seed + 100)
        S, A, Y, Z = b["S"], b["A"], b["Y"], b["Z"]
        policies = [random_policy_for(b["model"], (2, 2), seed + 200 + r)
                    for r in range(R)]
        return b, dict(l_next=rng.uniform(-2.0, 2.0, size=(R, S, Y, Z)),
                       policies=policies,
                       batch=PolicyBatch.stack(policies, R),
                       q_red=rng.uniform(-3.0, 3.0, size=(R, S, A, Z)))

    # "numpy": each restart's slice equals the one-restart call bit for
    # bit; "loop": it agrees with the scalar loops in oracles, the fold's
    # on the dense joint table
    @pytest.mark.parametrize("impls", ["numpy", "loop"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equal_to_per_restart_calls(self, impls, seed):
        b, x = self.batch(seed)
        risk = RiskParameter(b["lam"])
        if impls == "numpy":
            tilted = kernels.tilted_q_log
            same = np.array_equal

            def fold(r, out):
                fold_stage(x["policies"][r], 1, x["q_red"][r], risk, out)
        else:
            tilted = tilted_q_log_loops

            def fold(r, out):
                log_m = log_of(expand_joint_policy_gather(x["policies"][r],
                                                          0))
                fold_policy_log_loops(log_m, x["q_red"][r], out)

            def same(got, want):
                return np.allclose(got, want, rtol=0, atol=1e-12)
        R, S, A, Y, Z = 3, b["S"], b["A"], b["Y"], b["Z"]
        lam_r = b["lam"] * b["model"].r
        csr = (b["indptr"], b["sp"], b["yp"], b["logp"])
        got_q, got_l = np.empty((R, S, A, Z)), np.empty((R, S, Y, Z))
        kernels.tilted_q_log(*csr, lam_r, x["l_next"], got_q,
                             pad=kernels.pad_support(*csr))
        fold_stage(x["batch"], 1, x["q_red"], risk, got_l)
        for r in range(R):
            want_q, want_l = np.empty((S, A, Z)), np.empty((S, Y, Z))
            tilted(*csr, lam_r, x["l_next"][r], want_q)
            fold(r, want_l)
            assert same(got_q[r], want_q)
            assert same(got_l[r], want_l)
