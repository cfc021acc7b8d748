"""Risk-seeking conservative policy iteration over agent-state policies.

A sweep is the evaluation's backward recursion with agent updates spliced
in. It walks t = T..1, holding the forward marginals zeta_t fixed; per stage
it runs one `stage_backup`, updates the agents against the averaged local
value of their stage action, then runs one `fold_stage` on the updated
policy to get L_t before moving to t-1. Tilted values are carried in the log
domain as L_t = lam * V_t for lam > 0 and as plain V_t at lam = 0, so the
same tensors stay finite for any reward scale.

Memory accounting: a solve registers exactly the marginal trajectory and the
two alternating value tensors. Everything else is transient scratch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .evaluation import (aggregate_initial, evaluate_exact,
                         expand_joint_policy, finite_risk, fold_stage,
                         forward_marginals, joint_components, log_policy,
                         stage_backup)
from .model import DecPomdpModel
from .policy import (DeterministicAgentSlice, JointPolicy, mix_policies,
                     random_policy)


@dataclass
class AveragedLocalQ:
    """Averaged stage value of one agent's (a^i, z^i) choice at (y^i, z^i_-).

    For lam > 0 `log_weights` holds log sum_cells zeta * copi * exp(lam Q);
    at lam = 0 `weights` holds the plain weighted sum. `mass` is the marginal
    probability of each (y^i, z^i_-) cell; cells with zero mass are
    unreachable and carry no information.
    """

    agent: int
    t: int
    table: np.ndarray       # (Y_i, Z_i, A_i, Z_i) weights, log or plain
    mass: np.ndarray        # (Y_i, Z_i)
    lam: float
    is_plain: bool

    @property
    def reachable(self) -> np.ndarray:
        return self.mass > 0.0

    def q_values(self) -> np.ndarray:
        """Normalized Q-bar with unreachable cells set to nan."""
        out = np.full(self.table.shape, np.nan)
        ok = self.reachable
        if self.is_plain:
            out[ok] = self.table[ok] / self.mass[ok][:, None, None]
        else:
            out[ok] = (self.table[ok]
                       - np.log(self.mass[ok])[:, None, None]) / self.lam
        return out


@dataclass
class SolverConfig:
    lambda0: float = 1.0
    anneal_sweeps: int = 10
    alpha: float = 0.3
    max_sweeps: int = 200
    tol: float = 1e-9
    restarts: int = 5
    seed: int = 0
    ordering: str = "sequential"
    disable_rs: bool = False
    disable_cpi: bool = False
    z_sizes: tuple = (2, 2)
    phi_mode: str = "point_mass"

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not 0.0 <= self.lambda0 < math.inf:
            raise ValueError(f"lambda0 must be finite and >= 0, "
                             f"got {self.lambda0}")
        if math.isnan(self.tol):
            raise ValueError("tol must not be nan")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.anneal_sweeps < 0:
            raise ValueError("anneal_sweeps must be >= 0")
        if self.max_sweeps < max(1, self.anneal_sweeps):
            raise ValueError("max_sweeps must cover the anneal schedule")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.ordering not in ("sequential", "per_agent"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if any(z < 1 for z in self.z_sizes):
            raise ValueError("agent-state sizes must be >= 1")

    def lam_at(self, k: int) -> float:
        """Annealed tilt for sweep k (1-based): lambda0 max(0, 1-(k-1)/K1)."""
        if self.disable_rs or self.lambda0 == 0.0 or self.anneal_sweeps == 0:
            return 0.0
        return self.lambda0 * max(0.0, 1.0 - (k - 1) / self.anneal_sweeps)


@dataclass
class SolveResult:
    policy: JointPolicy
    j_exact: float
    j_risk_final: float
    trace: list            # per sweep: (lam, J_risk, J_exact)
    sweeps: int
    wall_time_ms: float
    peak_floats: int
    seed: int


class FloatCounter:
    """Tracks live registered float64 counts and their peak."""

    def __init__(self):
        self._live = {}
        self.current = 0
        self.peak = 0

    def register(self, name: str, count: int):
        if name in self._live:
            raise KeyError(f"buffer {name!r} already registered")
        self._live[name] = int(count)
        self.current += int(count)
        self.peak = max(self.peak, self.current)

    def release(self, name: str):
        self.current -= self._live.pop(name)


class SolveWorkspace:
    """Registered work tensors plus unregistered scratch for one model/|Z|."""

    def __init__(self, model: DecPomdpModel, z_sizes, counter: FloatCounter = None):
        self.model = model
        self.z_sizes = tuple(int(z) for z in z_sizes)
        self.counter = counter or FloatCounter()
        S, Y = model.state_count, model.joint_obs_count
        A = model.joint_action_count
        Z = int(np.prod(self.z_sizes))
        T = model.horizon
        self.counter.register("marginals", T * S * Y * Z)
        self.zeta = np.zeros((T, S, Y, Z))
        self.counter.register("values", 2 * S * Y * Z)
        self.l_a = np.zeros((S, Y, Z))
        self.l_b = np.zeros((S, Y, Z))
        self.q_red = np.zeros((S, A, Z))
        self.y_comps = joint_components(model.obs_counts)
        self.w_comps = joint_components(self.z_sizes)
        self.a_comps = joint_components(model.action_counts)


def averaged_local_q(model: DecPomdpModel, zeta_t: np.ndarray,
                     policy: JointPolicy, t: int, l_next: np.ndarray,
                     lam, agent: int,
                     workspace: SolveWorkspace = None) -> AveragedLocalQ:
    """Average the stage's local values over zeta_t and the co-agents' rows.

    t is 1-based. l_next holds L_{t+1}; the stage is backed up into its
    reduced (s, a, z) form, which the kernels broadcast over (y, z_).
    """
    risk = finite_risk(lam, "averaged_local_q")
    S, A = model.state_count, model.joint_action_count
    q_red = np.empty((S, A, l_next.shape[2]))
    with kernels.quiet_overflow():
        stage_backup(model, l_next, risk, q_red)
        return _averaged_local_q(model, zeta_t, policy, t, q_red, risk,
                                 agent, workspace)


def _averaged_local_q(model, zeta_t, policy, t, q_red, risk, agent, ws):
    """averaged_local_q on the stage's backed-up q_red."""
    z_sizes = policy.agent_state_sizes
    if ws is not None:
        y_comps, w_comps, a_comps = ws.y_comps, ws.w_comps, ws.a_comps
    else:
        y_comps = joint_components(model.obs_counts)
        w_comps = joint_components(z_sizes)
        a_comps = joint_components(model.action_counts)
    copi = expand_joint_policy(policy, t - 1, skip_agent=agent)
    yi = model.obs_counts[agent]
    wi = z_sizes[agent]
    ai = model.action_counts[agent]
    table = np.zeros((yi, wi, ai, wi))
    mass = np.zeros((yi, wi))
    np.add.at(mass, (y_comps[agent][:, None], w_comps[agent][None, :]),
              zeta_t.sum(axis=0))
    comp = (y_comps[agent], w_comps[agent], a_comps[agent], w_comps[agent])
    if risk.is_neutral:
        kernels.local_weights_mean(zeta_t, copi, q_red, *comp, table)
    else:
        with np.errstate(divide="ignore"):
            log_zeta = np.log(zeta_t)
        scratch = np.full((yi, wi, ai, wi), -np.inf)
        kernels.local_weights_log(log_zeta, log_policy(copi), q_red, *comp,
                                  scratch, table)
    return AveragedLocalQ(agent=agent, t=t, table=table, mass=mass,
                          lam=risk.lam, is_plain=risk.is_neutral)


def greedy_agent_update(qbar: AveragedLocalQ,
                        incumbent: np.ndarray) -> DeterministicAgentSlice:
    """Argmax of the averaged weights per reachable (y^i, z^i_-) cell.

    Ties break to the smallest flat (a^i, z'^i) index. Unreachable cells copy
    the incumbent row's argmax so the mixed update leaves them unchanged.
    """
    yi, wi, ai, zi = qbar.table.shape
    flat = qbar.table.reshape(yi, wi, ai * zi)
    best = np.argmax(flat, axis=2)
    fallback = np.argmax(incumbent.reshape(yi, wi, ai * zi), axis=2)
    best = np.where(qbar.reachable, best, fallback)
    return DeterministicAgentSlice(agent=qbar.agent, t=qbar.t,
                                   actions=(best // zi).astype(np.int64),
                                   next_states=(best % zi).astype(np.int64))


def _update_agent_at(model, policy, t, zeta_t, q_red, risk, alpha, agent, ws):
    qbar = _averaged_local_q(model, zeta_t, policy, t, q_red, risk, agent, ws)
    tab = policy.tables[agent][t - 1]
    det = greedy_agent_update(qbar, tab)
    mixed = mix_policies(tab, det, alpha)
    if mixed is not tab:
        keep = ~qbar.reachable
        if keep.any():
            mixed[keep] = tab[keep]
        policy.tables[agent][t - 1] = mixed


def sweep(model: DecPomdpModel, policy: JointPolicy, lam, alpha: float,
          ordering: str = "sequential",
          workspace: SolveWorkspace = None) -> float:
    """One backward pass of agent updates per agent group; mutates the policy.

    `sequential` updates all agents at each stage in one pass; `per_agent`
    runs one pass per agent. Each pass recomputes the forward marginals from
    the incumbent policy before any stage is touched: zeta_t only depends on
    the rows at stages before t, which the T..t walk has not yet modified.
    Returns the risk objective read off the last pass's L_1.
    """
    risk = finite_risk(lam, "sweep")
    if ordering == "sequential":
        groups = [range(model.n_agents)]
    elif ordering == "per_agent":
        groups = [[i] for i in range(model.n_agents)]
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    ws = workspace or SolveWorkspace(model, policy.agent_state_sizes)
    with kernels.quiet_overflow():
        for group in groups:
            forward_marginals(model, policy, out=ws.zeta)
            l_next, l_cur = ws.l_a, ws.l_b
            l_next[:] = 0.0
            for t in range(model.horizon, 0, -1):
                stage_backup(model, l_next, risk, ws.q_red)
                for i in group:
                    _update_agent_at(model, policy, t, ws.zeta[t - 1],
                                     ws.q_red, risk, alpha, i, ws)
                fold_stage(policy, t, ws.q_red, risk, l_cur)
                l_next, l_cur = l_cur, l_next
    return aggregate_initial(model, policy, l_next, risk)


def rscpi(model: DecPomdpModel, config: SolverConfig,
          initial_policy: JointPolicy = None) -> SolveResult:
    """Annealed risk-seeking CPI with random restarts.

    Each restart r draws its initial policy from seed + r (restart 0 may be
    overridden with initial_policy) and runs sweeps under the annealed tilt.
    Convergence is only checked once the tilt has reached zero: stop when
    the sweep's risk objective improves by less than tol. The best restart
    is chosen by exact value, ties keeping the earliest (lowest) seed.
    """
    config.validate()
    if len(config.z_sizes) != model.n_agents:
        raise ValueError(f"z_sizes lists {len(config.z_sizes)} agent-state "
                         f"sizes for {model.n_agents} agents")
    t0 = time.perf_counter()
    ws = SolveWorkspace(model, config.z_sizes)
    best = None
    for r in range(config.restarts):
        seed_r = config.seed + r
        if r == 0 and initial_policy is not None:
            policy = initial_policy.copy()
        else:
            policy = random_policy(model.action_counts, model.obs_counts,
                                   config.z_sizes, model.horizon, seed_r,
                                   phi_mode=config.phi_mode)
        trace = []
        prev = None
        for k in range(1, config.max_sweeps + 1):
            lam_k = config.lam_at(k)
            alpha_k = 1.0 if config.disable_cpi else config.alpha
            j_risk = sweep(model, policy, lam_k, alpha_k, config.ordering, ws)
            j = evaluate_exact(model, policy)
            trace.append((lam_k, j_risk, j))
            if lam_k == 0.0:
                if prev is not None and j_risk - prev < config.tol:
                    break
                prev = j_risk
        j_final = trace[-1][2]
        if best is None or j_final > best.j_exact:
            best = SolveResult(policy=policy.copy(), j_exact=j_final,
                               j_risk_final=trace[-1][1], trace=trace,
                               sweeps=len(trace), wall_time_ms=0.0,
                               peak_floats=ws.counter.peak, seed=seed_r)
    best.wall_time_ms = (time.perf_counter() - t0) * 1e3
    best.peak_floats = ws.counter.peak
    return best
