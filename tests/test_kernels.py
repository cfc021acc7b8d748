"""Backend agreement: loop (numba-compiled) kernels vs the numpy fallback,
and the averaged local value's per-agent reduction vs its loop reference."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _benchmarks import random_model, random_policy_for
from oracles import averaged_local_q_loops, expand_joint_policy_gather
from rscpi import kernels
from rscpi.evaluation import (dynamics_support, expand_joint_policy,
                              finite_risk, stage_backup)
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
    m = expand_joint_policy(policy, 0)
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
        kernels.LOOP_IMPLS["tilted_q_log"](
            b["indptr"], b["sp"], b["yp"], b["logp"], lam_r, b["l_next"], out_a)
        kernels.NUMPY_IMPLS["tilted_q_log"](
            b["indptr"], b["sp"], b["yp"], b["logp"], lam_r, b["l_next"], out_b)
        np.testing.assert_allclose(out_a, out_b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fold_policy_log(self, seed):
        b = kernel_inputs(seed)
        out_a = np.zeros((b["S"], b["Y"], b["Z"]))
        out_b = np.zeros_like(out_a)
        kernels.LOOP_IMPLS["fold_policy_log"](log_of(b["m"]), b["q_red"], out_a)
        kernels.NUMPY_IMPLS["fold_policy_log"](log_of(b["m"]), b["q_red"], out_b)
        np.testing.assert_allclose(out_a, out_b, rtol=0, atol=1e-12)

    # The averaged local value is one numpy reduction on both backends;
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

    def test_active_backend_matches_numpy(self):
        # whatever is bound at module level must agree with the fallback
        b = kernel_inputs(7)
        lam_r = b["lam"] * b["model"].r
        out_a = np.zeros((b["S"], b["A"], b["Z"]))
        out_b = np.zeros_like(out_a)
        kernels.tilted_q_log(b["indptr"], b["sp"], b["yp"], b["logp"],
                             lam_r, b["l_next"], out_a)
        kernels.NUMPY_IMPLS["tilted_q_log"](
            b["indptr"], b["sp"], b["yp"], b["logp"], lam_r, b["l_next"], out_b)
        np.testing.assert_allclose(out_a, out_b, rtol=0, atol=1e-12)

    def test_empty_support_row_gives_neg_inf(self):
        # a row with no successors must produce -inf, not garbage
        indptr = np.array([0, 0], dtype=np.int64)
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0)
        out_a = np.zeros((1, 1, 2))
        out_b = np.zeros((1, 1, 2))
        lam_r = np.zeros((1, 1))
        l_next = np.zeros((1, 1, 2))
        kernels.LOOP_IMPLS["tilted_q_log"](
            indptr, empty_i, empty_i, empty_f, lam_r, l_next, out_a)
        kernels.NUMPY_IMPLS["tilted_q_log"](
            indptr, empty_i, empty_i, empty_f, lam_r, l_next, out_b)
        assert np.all(out_a == -np.inf)
        assert np.all(out_b == -np.inf)


class TestBackendSelection:
    def test_backend_name_is_known(self):
        assert kernels.BACKEND in ("numba", "numpy")

    def test_env_forces_numpy(self):
        env = dict(os.environ, RSCPI_BACKEND="numpy")
        out = subprocess.run(
            [sys.executable, "-c",
             "import rscpi.kernels as k; print(k.BACKEND)"],
            capture_output=True, text=True, env=env)
        assert out.returncode == 0
        assert out.stdout.strip() == "numpy"

    def test_env_rejects_unknown_value(self):
        env = dict(os.environ, RSCPI_BACKEND="cuda")
        out = subprocess.run(
            [sys.executable, "-c", "import rscpi.kernels"],
            capture_output=True, text=True, env=env)
        assert out.returncode != 0
        assert "RSCPI_BACKEND" in out.stderr


class TestBenchScript:
    def test_numpy_small_smoke(self):
        # every kernel and sweep row of scripts/bench_backends.py still runs
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "bench_backends.py"),
             "--backends", "numpy", "--sizes", "small", "--repeats", "1",
             "--json"],
            capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 0, out.stderr
        assert "numpy" in json.loads(out.stdout)
