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
                         forward_marginals, log_policy, stage_backup)
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


def averaged_local_q(model: DecPomdpModel, zeta_t: np.ndarray,
                     policy: JointPolicy, t: int, l_next: np.ndarray,
                     lam, agent: int) -> AveragedLocalQ:
    """Average the stage's local values over zeta_t and the co-agents' rows.

    t is 1-based. l_next holds L_{t+1}; the stage is backed up into its
    reduced (s, a, z) form, which is broadcast over (y, z_).
    """
    risk = finite_risk(lam, "averaged_local_q")
    S, A = model.state_count, model.joint_action_count
    q_red = np.empty((S, A, l_next.shape[2]))
    with kernels.quiet_overflow():
        stage_backup(model, l_next, risk, q_red)
        return _averaged_local_q(model, zeta_t, policy, t, q_red, risk, agent)


def _agent_last(x: np.ndarray, agent: int, n: int) -> np.ndarray:
    """x with agent's axis of every per-agent group moved to the end.

    x has one leading axis, then groups of n per-agent axes (Y_1..Y_N,
    W_1..W_N, ...). The co-agents' axes keep their order, so the axes in
    front flatten in the row-major order of the flat joint cells.
    """
    groups = range(1, x.ndim, n)
    co = [g + j for g in groups for j in range(n) if j != agent]
    return x.transpose([0] + co + [g + agent for g in groups])


def _averaged_local_q(model, zeta_t, policy, t, q_red, risk, agent):
    """averaged_local_q on the stage's backed-up q_red.

    zeta_t, the co-policy and q_red are viewed on per-agent axes (S, Y_1..,
    W_1.., A_1.., Z_1..) with agent i's axes last, so every (y^i, w^i, a^i,
    z^i) cell is one column of the (rows, cells) product. A column sum adds
    the rows one at a time in flat joint order; lam > 0 shifts each column
    by its own max before the exp.
    """
    n = model.n_agents
    y_sizes, a_sizes = model.obs_counts, model.action_counts
    w_sizes = policy.agent_state_sizes
    ones = (1,) * (2 * n)
    shape = (y_sizes[agent], w_sizes[agent], a_sizes[agent], w_sizes[agent])
    cells = math.prod(shape)
    zeta = _agent_last(zeta_t.reshape(-1, *y_sizes, *w_sizes, *ones),
                       agent, n)
    copi = expand_joint_policy(policy, t - 1, skip_agent=agent)
    copi = _agent_last(copi.reshape(1, *y_sizes, *w_sizes, *a_sizes,
                                    *w_sizes), agent, n)
    q = _agent_last(q_red.reshape(-1, *ones, *a_sizes, *w_sizes), agent, n)
    if risk.is_neutral:
        vals = np.multiply(zeta, copi, order="C")
        vals *= q
        table = vals.reshape(-1, cells).sum(axis=0)
    else:
        with np.errstate(divide="ignore"):
            vals = np.add(np.log(zeta), log_policy(copi), order="C")
        vals += q
        vals = vals.reshape(-1, cells)
        top = vals.max(axis=0)
        ok = np.isfinite(top)
        vals -= np.where(ok, top, 0.0)
        acc = np.exp(vals, out=vals).sum(axis=0)
        table = np.full(cells, -np.inf)
        table[ok] = top[ok] + np.log(acc[ok])
    mass = _agent_last(zeta_t.sum(axis=0).reshape(1, *y_sizes, *w_sizes),
                       agent, n)
    mass = np.ascontiguousarray(mass).reshape(-1, shape[0] * shape[1])
    return AveragedLocalQ(agent=agent, t=t, table=table.reshape(shape),
                          mass=mass.sum(axis=0).reshape(shape[:2]),
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


def _update_agent_at(model, policy, t, zeta_t, q_red, risk, alpha, agent):
    qbar = _averaged_local_q(model, zeta_t, policy, t, q_red, risk, agent)
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
                                     ws.q_red, risk, alpha, i)
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
