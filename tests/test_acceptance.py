"""Benchmark bands, update invariants, and scaling checks for the solver stack.

The grid walked here is the default (lambda0, alpha, K1) product; cells are
ordered best-first and every stochastic check early-stops once its band is
reached, with three fresh seed blocks in reserve.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from _benchmarks import (
    dectiger_model,
    fully_observed_model,
    random_model,
    random_policy_for,
    recycling_model,
)
from oracles import forward_sum_eval, risk_vi_reference, weighted_logmeanexp
from rscpi.evaluation import (
    backward,
    evaluate_exact,
    forward_marginals,
    rollout_monte_carlo,
)
from rscpi.model import matrix_game_model
from rscpi.policy import JointPolicy, mix_policies, point_mass_phi
from rscpi.risk import RiskParameter
from rscpi.solver import (
    SolverConfig,
    averaged_local_q,
    greedy_agent_update,
    rscpi,
    sweep,
)

MATRIX_PAYOFFS = [[2.0, -10.0], [-10.0, 6.0]]

GRID = sorted(
    (lam0, alpha, k1)
    for lam0 in (0.0, 0.1, 0.5, 1.0, 2.0)
    for alpha in (0.1, 0.3, 0.5, 1.0)
    for k1 in (10, 50)
)
CELL_INDEX = {cell: i for i, cell in enumerate(GRID)}
DECTIGER_BAND = {6: 10.37, 9: 15.50}

# filled by the Dec-Tiger grid test, read by the ablation test
BEST_FOUND = {}

MARS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "mars.dpomdp"


@pytest.fixture(scope="module")
def dectiger6():
    return dectiger_model(6)


@pytest.fixture(scope="module")
def dectiger9():
    return dectiger_model(9)


def _interior_matrix_policy(p1, p2):
    tables = []
    for p in (p1, p2):
        t = np.zeros((1, 1, 1, 2, 1))
        t[0, 0, 0, 0, 0] = p
        t[0, 0, 0, 1, 0] = 1.0 - p
        tables.append(t)
    return JointPolicy(horizon=1, agent_state_sizes=(1, 1), tables=tables,
                       phi=[point_mass_phi(1), point_mass_phi(1)])


def _atoms(policy):
    return (float(policy.tables[0][0, 0, 0, 0, 0]),
            float(policy.tables[1][0, 0, 0, 0, 0]))


def test_01_matrix_game_best_response_paths():
    t0 = time.perf_counter()
    model = matrix_game_model(MATRIX_PAYOFFS)
    zeta1 = np.ones((1, 1, 1))
    l_next = np.zeros((1, 1, 1))

    def step(policy, lam, agent):
        qbar = averaged_local_q(model, zeta1, policy, 1, l_next, lam, agent)
        picks = greedy_agent_update(qbar)
        policy.tables[agent][0] = mix_policies(policy.tables[agent][0],
                                               picks, 1.0)

    # (lam, start atoms, atoms after each agent's alpha=1 step, final value)
    paths = [
        (0.0, (0.9, 0.9), ((1.0, 0.9), (1.0, 1.0)), 2.0),
        (0.0, (0.1, 0.1), ((0.0, 0.1), (0.0, 0.0)), 6.0),
        (1.0, (0.9, 0.9), ((0.0, 0.9), (0.0, 0.0)), 6.0),
        (1.0, (0.1, 0.1), ((0.0, 0.1), (0.0, 0.0)), 6.0),
    ]
    for lam, start, waypoints, j_end in paths:
        policy = _interior_matrix_policy(*start)
        step(policy, lam, 0)
        assert _atoms(policy) == waypoints[0], (lam, start)
        step(policy, lam, 1)
        assert _atoms(policy) == waypoints[1], (lam, start)
        assert evaluate_exact(model, policy) == pytest.approx(j_end,
                                                              abs=1e-12)
        # one library sweep lands on the same endpoint
        replay = _interior_matrix_policy(*start)
        sweep(model, replay, lam, 1.0)
        assert _atoms(replay) == waypoints[1], (lam, start)
    assert time.perf_counter() - t0 < 1.0


def test_02_dectiger_grid_reaches_band(dectiger6, dectiger9):
    models = {6: dectiger6, 9: dectiger9}
    best = {6: -np.inf, 9: -np.inf}
    plain = [c for c in GRID if c[0] == 0.0]
    tilted = [c for c in GRID if c[0] > 0.0]
    # untilted cells carry nearly all of the hitting mass on this benchmark,
    # so walk them through every seed block before spending on tilted cells
    schedule = [(b, c) for b in range(4) for c in plain]
    schedule += [(b, c) for b in range(4) for c in tilted]

    def met(T):
        return best[T] >= DECTIGER_BAND[T]

    for block, cell in schedule:
        if met(6) and met(9):
            break
        lam0, alpha, k1 = cell
        for i in range(5):
            seed = 10000 * CELL_INDEX[cell] + 25 * block + 5 * i
            cfg = SolverConfig(lambda0=lam0, anneal_sweeps=k1, alpha=alpha,
                               max_sweeps=500, restarts=5, seed=seed,
                               z_sizes=(2, 2))
            for T in (6, 9):
                if not met(T):
                    best[T] = max(best[T], rscpi(models[T], cfg).j_exact)
            if met(6) and met(9):
                break
    BEST_FOUND.update(best)
    assert best[6] >= DECTIGER_BAND[6], best
    assert best[9] >= DECTIGER_BAND[9], best


def test_03_recycling_long_horizon_band():
    model = recycling_model(100)
    best = -np.inf
    for lam0, alpha in ((0.0, 1.0), (0.0, 0.5), (0.5, 1.0)):
        cfg = SolverConfig(lambda0=lam0, anneal_sweeps=10, alpha=alpha,
                           max_sweeps=60, restarts=3, seed=0, z_sizes=(2, 2))
        best = max(best, rscpi(model, cfg).j_exact)
        if best >= 308.40:
            break
    assert best >= 308.40, best


@pytest.mark.skipif(not MARS_PATH.exists(), reason=(
    "benchmarks/mars.dpomdp not bundled; place the standard Mars Rovers "
    "file there to enable this check"))
def test_04_mars_rovers_band():
    from rscpi.dpomdp_parser import compile_model, parse_dpomdp

    raw, diags = parse_dpomdp(MARS_PATH.read_text())
    assert raw is not None, [d.render("mars.dpomdp") for d in diags]
    model, cdiags = compile_model(raw, horizon=6)
    assert model is not None, [d.render("mars.dpomdp") for d in cdiags]
    best = -np.inf
    runs = ((b, cell, i) for b in range(4) for cell in GRID
            for i in range(5))
    for block, cell, i in runs:
        if best >= 18.55:
            break
        lam0, alpha, k1 = cell
        seed = 10000 * CELL_INDEX[cell] + 25 * block + 5 * i
        cfg = SolverConfig(lambda0=lam0, anneal_sweeps=k1, alpha=alpha,
                           max_sweeps=500, restarts=5, seed=seed,
                           z_sizes=(1, 1))
        best = max(best, rscpi(model, cfg).j_exact)
    assert best >= 18.55, best


def _uniform_policy(model, z_sizes):
    tables = [np.full((model.horizon, y, z, a, z), 1.0 / (a * z))
              for a, y, z in zip(model.action_counts, model.obs_counts,
                                 z_sizes)]
    return JointPolicy(horizon=model.horizon,
                       agent_state_sizes=tuple(z_sizes), tables=tables,
                       phi=[point_mass_phi(z) for z in z_sizes])


def test_05_ablations_collapse_to_always_listen(dectiger6):
    # greedy-only variants are deterministic from the flat start, which is
    # what makes the collapse reproducible; axes an ablation pins (alpha
    # under no-cpi, the whole schedule under no-rs) are run once per value
    bests = {}
    for name, no_rs, no_cpi in (("rs-only", False, True),
                                ("none", True, True)):
        best = -np.inf
        seen = set()
        for lam0, alpha, k1 in GRID:
            key = (0.0, 0) if no_rs else (lam0, k1)
            if key in seen:
                continue
            seen.add(key)
            cfg = SolverConfig(lambda0=lam0, anneal_sweeps=k1, alpha=alpha,
                               max_sweeps=200, restarts=1, seed=0,
                               z_sizes=(2, 2), disable_rs=no_rs,
                               disable_cpi=no_cpi)
            res = rscpi(dectiger6, cfg,
                        initial_policy=_uniform_policy(dectiger6, (2, 2)))
            best = max(best, res.j_exact)
        bests[name] = best
    reference = BEST_FOUND.get(6, DECTIGER_BAND[6])
    for name, val in bests.items():
        assert val == pytest.approx(-12.0, abs=0.01), (name, val)
        assert val < reference, (name, val, reference)


def _tilted_stack(model, policy, lam):
    """Every L_t of the backward recursion; row t - 1 holds L_t."""
    Z = int(np.prod(policy.agent_state_sizes))
    stack = np.empty((model.horizon, model.state_count,
                      model.joint_obs_count, Z))
    backward(model, policy, lam, out=stack)
    return stack


def _tail_objective(zeta_t, l_t, risk):
    if risk.is_neutral:
        return float(np.sum(zeta_t * l_t))
    return weighted_logmeanexp(zeta_t.ravel(), (l_t / risk.lam).ravel(),
                               risk.lam)


def test_06_conservative_update_never_degrades_tail():
    t0 = time.perf_counter()
    for k in range(200):
        rng = np.random.default_rng(1000 + k)
        horizon = int(rng.integers(2, 5))
        model = random_model(
            rng,
            n_states=int(rng.integers(2, 5)),
            action_counts=(int(rng.integers(2, 4)), int(rng.integers(2, 4))),
            obs_counts=(int(rng.integers(1, 3)), int(rng.integers(1, 3))),
            horizon=horizon,
        )
        z_sizes = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        policy = random_policy_for(model, z_sizes, seed=2000 + k)
        t = int(rng.integers(1, horizon + 1))
        agent = int(rng.integers(0, 2))
        risk = RiskParameter(float(rng.choice([0.0, 0.1, 0.5, 1.0, 2.0])))
        alpha = float(rng.choice([0.1, 0.3, 0.5, 1.0]))

        zeta_t = forward_marginals(model, policy).at(t)
        tilted = _tilted_stack(model, policy, risk)
        S, Y = model.state_count, model.joint_obs_count
        Z = int(np.prod(z_sizes))
        l_next = (tilted[t] if t < horizon
                  else np.zeros((S, Y, Z)))
        j_before = _tail_objective(zeta_t, tilted[t - 1], risk)

        qbar = averaged_local_q(model, zeta_t, policy, t, l_next, risk,
                                agent)
        tab = policy.tables[agent][t - 1]
        mixed = mix_policies(tab, greedy_agent_update(qbar), alpha)
        keep = ~qbar.reachable
        if keep.any():
            mixed[keep] = tab[keep]
        policy.tables[agent][t - 1] = mixed

        l_after = _tilted_stack(model, policy, risk)[t - 1]
        j_after = _tail_objective(zeta_t, l_after, risk)
        assert j_after >= j_before - 1e-9, (k, j_before, j_after)
    assert time.perf_counter() - t0 < 30.0


def test_07_greedy_fixpoint_is_a_no_op():
    t0 = time.perf_counter()
    for k in range(50):
        rng = np.random.default_rng(5000 + k)
        lam = 0.0 if k % 2 == 0 else 1.0
        horizon = int(rng.integers(2, 4))
        model = random_model(
            rng,
            n_states=int(rng.integers(2, 4)),
            action_counts=(int(rng.integers(2, 4)), 2),
            obs_counts=(int(rng.integers(1, 3)), int(rng.integers(1, 3))),
            horizon=horizon,
        )
        z_sizes = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        policy = random_policy_for(model, z_sizes, seed=6000 + k)

        prev = None
        converged = False
        for _ in range(40):
            sweep(model, policy, lam, 1.0)
            snap = [tbl.copy() for tbl in policy.tables]
            if prev is not None and all(
                    np.array_equal(a, b) for a, b in zip(prev, snap)):
                converged = True
                break
            prev = snap
        assert converged, (k, lam)

        traj = forward_marginals(model, policy)
        tilted = _tilted_stack(model, policy, lam)
        S, Y = model.state_count, model.joint_obs_count
        Z = int(np.prod(z_sizes))
        for t in range(1, horizon + 1):
            l_next = (tilted[t] if t < horizon
                      else np.zeros((S, Y, Z)))
            for agent in range(model.n_agents):
                qbar = averaged_local_q(model, traj.at(t), policy, t,
                                        l_next, lam, agent)
                tab = policy.tables[agent][t - 1]
                mixed = mix_policies(tab, greedy_agent_update(qbar), 1.0)
                ok = qbar.reachable
                assert np.array_equal(mixed[ok], tab[ok]), (k, t, agent)
    assert time.perf_counter() - t0 < 60.0


def test_08_exact_evaluation_cross_checks():
    for k in range(20):
        rng = np.random.default_rng(8000 + k)
        model = random_model(
            rng,
            n_states=int(rng.integers(2, 4)),
            action_counts=(2, int(rng.integers(2, 4))),
            obs_counts=(int(rng.integers(1, 3)), int(rng.integers(1, 3))),
            horizon=int(rng.integers(2, 4)),
            init_obs_mode=("dummy_observation" if k % 2 == 0
                           else "uniform_observation"),
        )
        z_sizes = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        policy = random_policy_for(model, z_sizes, seed=9000 + k)
        j = evaluate_exact(model, policy)
        assert j == pytest.approx(forward_sum_eval(model, policy), abs=1e-9)
        mean, stderr = rollout_monte_carlo(model, policy, episodes=100_000,
                                           seed=41 + k)
        assert abs(mean - j) <= 4.0 * stderr + 1e-12, (k, j, mean, stderr)


def test_09_fully_observed_sweep_matches_value_iteration():
    rng = np.random.default_rng(99)
    for trial in range(2):
        S, A, T = 3, 2, 4
        P = rng.dirichlet(np.ones(S), size=(S, A))
        r = rng.uniform(-1.0, 1.0, size=(S, A))
        start = rng.dirichlet(np.ones(S))
        model = fully_observed_model(P, r, start, T)
        for lam in (0.0, 0.5, 1.0):
            policy = random_policy_for(model, (1,), seed=7 + trial)
            j = sweep(model, policy, lam, 1.0)
            values, _, _ = risk_vi_reference(P.tolist(), r.tolist(), T, lam)
            ref = weighted_logmeanexp(start, values[0], lam)
            assert j == pytest.approx(ref, abs=1e-9), (trial, lam)


def test_10_memory_claim_linear_in_horizon():
    S, Y, Z = 2, 9, 4
    peaks = {}
    for T in (10, 20, 40):
        cfg = SolverConfig(lambda0=0.5, anneal_sweeps=2, alpha=1.0,
                           max_sweeps=4, restarts=1, seed=0, z_sizes=(2, 2))
        res = rscpi(dectiger_model(T), cfg)
        assert res.peak_floats == T * S * Y * Z + 2 * S * Y * Z
        peaks[T] = res.peak_floats
    # affine in T: the slope over 10->20 matches the slope over 20->40
    assert 2 * (peaks[20] - peaks[10]) == peaks[40] - peaks[20]


# Dec-Tiger rungs whose agent states can hold every observation history
# (|Z^i| >= |Y^i|^(T-2)), with the published optima of MAA* (Szer, Charpillet
# & Zilberstein, UAI 2005) and GMAA*-ICE (Oliehoek et al., JAIR 2013)
MEMORY_LADDER = [(3, (2, 2), 5.19), (4, (4, 4), 4.80)]


@pytest.mark.parametrize("horizon,z_sizes,band", MEMORY_LADDER)
def test_11_memory_ladder_reaches_published_optimum(horizon, z_sizes, band):
    """The best of seeds 0, 100, 200 and 300, 5 restarts each, untilted at
    alpha = 0.1, reaches the published optimum; it stops at the first seed
    that does."""
    model = dectiger_model(horizon)
    best = -np.inf
    for seed in (0, 100, 200, 300):
        cfg = SolverConfig(lambda0=0.0, alpha=0.1, max_sweeps=500,
                           restarts=5, seed=seed, z_sizes=z_sizes)
        best = max(best, rscpi(model, cfg).j_exact)
        if best >= band:
            break
    assert best >= band, best
