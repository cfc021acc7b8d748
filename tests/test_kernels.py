"""P's value-padded support against the CSR support in oracles, the
log-domain backup kernel against its scalar-loop and per-row forms in
oracles, the per-agent log-domain fold against the fold of the dense
joint table, both batched against per-restart calls, and the averaged local
value's per-agent reduction against its loop reference."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from _benchmarks import random_model, random_policy_for
from oracles import (averaged_local_q_loops, csr_support,
                     expand_joint_policy_gather, fold_policy_log_loops,
                     fold_policy_log_states, stage_plan, tilted_q_log_loops,
                     tilted_q_log_rows, value_padded)
from rscpi import kernels
from rscpi.bench_cli import load_model
from rscpi.evaluation import StagePlan, _support, is_neutral
from rscpi.policy import PolicyBatch

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
    l_next = rng.uniform(-2.0, 2.0, size=(S, Y, Z))
    m = expand_joint_policy_gather(policy, 0)
    zeta = rng.dirichlet(np.ones(S * Y * Z)).reshape(S, Y, Z)
    zeta[zeta < 0.002] = 0.0  # genuine zero-mass cells
    zeta /= zeta.sum()
    q_red = rng.uniform(-3.0, 3.0, size=(S, A, Z))
    return dict(model=model, policy=policy, **supports(model),
                l_next=l_next, m=m, zeta=zeta, q_red=q_red, lam=lam, S=S, A=A,
                Y=Y, Z=Z)


def supports(model):
    """The model's support in the oracles' CSR form, and in the kernel's
    (succ, log p) form as the package builds it."""
    succ, _, logp = _support(model)
    return dict(csr=csr_support(model.P), padded=(succ, logp))


def log_of(arr):
    return np.log(arr, where=arr > 0, out=np.full_like(arr, -np.inf))


def fold(b, policy, q_red, lam):
    """Stage 1's rows of one policy folded into q_red on a solve's plan."""
    return stage_plan(b["model"], policy, lam, q_red=q_red).fold(1, 0)[0]


def assert_matches_loops(b, lam, agent):
    """The averaged local value's table and mass at t=1, on the bundle's
    zeta_1, equal the loop reference on the plan's q_red."""
    model, policy = b["model"], b["policy"]
    plan = stage_plan(model, policy, lam, b["l_next"])
    plan.zeta[:, 0] = b["zeta"]
    qbar = plan.local_q(1, agent)
    table, mass = averaged_local_q_loops(
        b["zeta"], expand_joint_policy_gather(policy, 0, skip_agent=agent),
        plan.q_red[0], model.obs_counts, policy.agent_state_sizes,
        model.action_counts, agent, lam)
    np.testing.assert_allclose(qbar.table[0], table, rtol=0, atol=1e-12)
    np.testing.assert_allclose(qbar.mass[0], mass, rtol=0, atol=1e-12)


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_tilted_q_log(self, seed):
        b = kernel_inputs(seed)
        lam_r = b["lam"] * b["model"].r
        out_a = np.zeros((b["S"], b["A"], b["Z"]))
        out_b = np.zeros_like(out_a)
        tilted_q_log_loops(*b["csr"], lam_r, b["l_next"], out_a)
        kernels.tilted_q_log(*b["padded"], lam_r, b["l_next"], out_b)
        np.testing.assert_allclose(out_a, out_b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fold_policy_log(self, seed):
        b = kernel_inputs(seed)
        out_a = np.zeros((b["S"], b["Y"], b["Z"]))
        fold_policy_log_loops(log_of(b["m"]), b["q_red"], out_a)
        out_b = fold(b, b["policy"], b["q_red"], b["lam"])
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
        # a row with no successors must produce -inf, not garbage; padded
        # to a width of 0 or 2, its column holds pad cells only
        indptr = np.array([0, 0], dtype=np.int64)
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0)
        out_a = np.zeros((1, 1, 2))
        lam_r = np.zeros((1, 1))
        l_next = np.zeros((1, 1, 2))
        tilted_q_log_loops(
            indptr, empty_i, empty_i, empty_f, lam_r, l_next, out_a)
        assert np.all(out_a == -np.inf)
        for width in (0, 2):
            out_b = np.zeros((1, 1, 2))
            kernels.tilted_q_log(np.zeros((width, 1), dtype=np.int64),
                                 np.full((width, 1), -np.inf), lam_r, l_next,
                                 out_b)
            assert np.all(out_b == -np.inf)


def tilted_args(b, form, l_next=None):
    """tilted_q_log's inputs, all but `out`, from a kernel_inputs bundle: the
    support in `form`, "padded" for the kernel or "csr" for the oracles."""
    return (*b[form], b["lam"] * b["model"].r,
            b["l_next"] if l_next is None else l_next)


def bench_file_inputs(name, horizon, seed=0, z_sizes=(2, 2)):
    """kernel_inputs' kernel arguments on a bundled .dpomdp file, whose
    support rows hold between 1 and 8 successors."""
    model, _ = load_model(str(ROOT / "benchmarks" / name), horizon)
    rng = np.random.default_rng(seed)
    S, A = model.state_count, model.joint_action_count
    Y = model.joint_obs_count
    Z = int(np.prod(z_sizes))
    policy = random_policy_for(model, z_sizes, seed + 1)
    return dict(model=model, policy=policy, **supports(model),
                l_next=rng.uniform(-20.0, 20.0, size=(S, Y, Z)),
                m=expand_joint_policy_gather(policy, 0),
                q_red=rng.uniform(-20.0, 20.0, size=(S, A, Z)),
                lam=0.5, S=S, A=A, Y=Y, Z=Z)


def assert_matches_oracles(b):
    """tilted_q_log equals its per-row oracle bit for bit; the log-domain
    fold agrees with the per-state fold of the dense joint table to
    1e-12."""
    S, A, Y, Z = b["S"], b["A"], b["Y"], b["Z"]
    got_q, want_q = np.empty((S, A, Z)), np.empty((S, A, Z))
    kernels.tilted_q_log(*tilted_args(b, "padded"), got_q)
    tilted_q_log_rows(*tilted_args(b, "csr"), want_q)
    assert np.array_equal(got_q, want_q)
    got_l = fold(b, b["policy"], b["q_red"], b["lam"])
    want_l = np.empty((S, Y, Z))
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
        lengths = np.diff(b["csr"][0])
        assert lengths.min() < lengths.max()  # rows are padded
        assert_matches_oracles(b)

    def test_sum_order_does_not_depend_on_z(self):
        # successors are added one at a time for every Z; summing along a
        # contiguous axis would switch to pairwise sums when Z = 1
        b = kernel_inputs(5, n_states=4, obs_counts=(3, 3))
        assert np.diff(b["csr"][0]).min() >= 16
        l2 = b["l_next"][:, :, :2].copy()
        l1 = l2[:, :, :1].copy()
        out1 = np.empty((b["S"], b["A"], 1))
        out2 = np.empty((b["S"], b["A"], 2))
        kernels.tilted_q_log(*tilted_args(b, "padded", l1), out1)
        kernels.tilted_q_log(*tilted_args(b, "padded", l2), out2)
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
        padded = value_padded(indptr, sp, yp, logp, 3)
        assert np.all(padded[1][:, lengths == 0] == -np.inf)   # all pad
        got, loop, rows = (np.empty((2, 3, 2)) for _ in range(3))
        kernels.tilted_q_log(*padded, lam_r, l_next, got)
        tilted_q_log_loops(*args, loop)
        tilted_q_log_rows(*args, rows)
        empty = (lengths == 0).reshape(2, 3)
        assert np.all(got[empty] == -np.inf)
        assert np.all(np.isfinite(got[~empty]))
        np.testing.assert_allclose(got, loop, rtol=0, atol=1e-12)
        assert np.array_equal(got, rows)

    def test_strided_out(self):
        # a reshape of these views copies, so writes through one would be lost
        b = kernel_inputs(0)
        S, A, Z = b["S"], b["A"], b["Z"]
        dense = np.empty((S, A, Z))
        kernels.tilted_q_log(*tilted_args(b, "padded"), dense)
        for out in (np.full((S, A, 2 * Z), np.nan)[:, :, ::2],
                    np.full((Z, A, S), np.nan).T):
            kernels.tilted_q_log(*tilted_args(b, "padded"), out)
            assert np.array_equal(out, dense)

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_strided_batched_fold_targets(self, lam):
        """A plan's fold writes strided (R, S, Y, Z) targets, such as one
        stage of an (R, T, S, Y, Z) stack, as it writes a dense one."""
        b = kernel_inputs(0)
        model, R = b["model"], 3
        batch = PolicyBatch.stack(
            [random_policy_for(model, (2, 2), 300 + r) for r in range(R)], R)
        q_red = np.random.default_rng(1).uniform(
            -1.0, 1.0, size=(R, b["S"], b["A"], b["Z"]))
        shape = (1, R, b["S"], b["Y"], b["Z"])

        def fold(targets):
            StagePlan(model, batch, not is_neutral(lam), q_red,
                      targets).fold(1, 0)
            return targets[0]

        dense = fold(np.full(shape, np.nan))
        wide = np.full(shape[:-1] + (2 * b["Z"],), np.nan)
        stack = np.full(shape[:2] + (model.horizon,) + shape[2:], np.nan)
        for targets in (wide[..., ::2], np.full(shape[::-1], np.nan).T,
                        stack[:, :, 0]):
            out = fold(targets)
            assert not out.flags.c_contiguous
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
        risk = b["lam"]
        if impls == "numpy":
            tilted, support = kernels.tilted_q_log, b["padded"]
            same = np.array_equal

            def fold_one(r, out):
                out[...] = fold(b, x["policies"][r], x["q_red"][r], risk)
        else:
            tilted, support = tilted_q_log_loops, b["csr"]

            def fold_one(r, out):
                log_m = log_of(expand_joint_policy_gather(x["policies"][r],
                                                          0))
                fold_policy_log_loops(log_m, x["q_red"][r], out)

            def same(got, want):
                return np.allclose(got, want, rtol=0, atol=1e-12)
        R, S, A, Y, Z = 3, b["S"], b["A"], b["Y"], b["Z"]
        lam_r = b["lam"] * b["model"].r
        got_q = np.empty((R, S, A, Z))
        kernels.tilted_q_log(*b["padded"], lam_r, x["l_next"], got_q)
        got_l = stage_plan(b["model"], x["batch"], risk,
                           q_red=x["q_red"]).fold(1, 0)
        for r in range(R):
            want_q, want_l = np.empty((S, A, Z)), np.empty((S, Y, Z))
            tilted(*support, lam_r, x["l_next"][r], want_q)
            fold_one(r, want_l)
            assert same(got_q[r], want_q)
            assert same(got_l[r], want_l)


def sparse_model(seed):
    """A random model with about half of P's cells zero, each row keeping
    at least its largest cell, so that its rows differ in length."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_states=3, horizon=2)
    S, A = model.state_count, model.joint_action_count
    flat = model.P.reshape(S * A, -1).copy()
    keep = rng.random(flat.shape) < 0.5
    keep[np.arange(S * A), flat.argmax(axis=1)] = True
    flat *= keep
    flat /= flat.sum(axis=1, keepdims=True)
    return dataclasses.replace(model, P=flat.reshape(model.P.shape))


class TestSupport:
    """`_support` against the CSR support in oracles: each real cell holds
    its successor, p and log p in np.nonzero order, each pad cell p = 0.0
    and log p = -inf behind a valid successor."""

    @pytest.mark.parametrize("source", ["dectiger.dpomdp",
                                        "recycling.dpomdp", 0, 1, 2, 3])
    def test_matches_the_csr_oracle(self, source):
        model = (sparse_model(source) if isinstance(source, int)
                 else load_model(str(ROOT / "benchmarks" / source), 3)[0])
        S, A = model.state_count, model.joint_action_count
        Y = model.joint_obs_count
        indptr, sp, yp, logp = csr_support(model.P)
        lengths = np.diff(indptr)
        assert lengths.min() < lengths.max()   # rows are padded
        succ, p, lp = _support(model)
        assert succ.shape == p.shape == lp.shape == (lengths.max(), S * A)
        assert np.all((0 <= succ) & (succ < S * Y))
        for j, (lo, hi) in enumerate(zip(indptr[:-1], indptr[1:])):
            n = hi - lo
            assert np.array_equal(succ[:n, j], sp[lo:hi] * Y + yp[lo:hi])
            assert np.array_equal(p[:n, j],
                                  model.P[j // A, j % A, sp[lo:hi], yp[lo:hi]])
            assert np.array_equal(lp[:n, j], logp[lo:hi])
            assert np.all(p[n:, j] == 0.0)
            assert np.all(lp[n:, j] == -np.inf)

    def test_built_once_per_model(self):
        model = sparse_model(0)
        assert _support(model) is _support(model)
