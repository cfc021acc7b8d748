"""Risk-seeking conservative policy iteration over agent-state policies.

A sweep is the evaluation's backward recursion with agent updates spliced
in. It walks t = T..1, holding the forward marginals zeta_t fixed; per stage
it runs one `stage_backup`, updates the agents against the averaged local
value of their stage action, then runs one `fold_stage` on the updated
policy to get L_t before moving to t-1. Tilted values are carried in the log
domain as L_t = lam * V_t for lam > 0 and as plain V_t at lam = 0, so the
same tensors stay finite for any reward scale. No step forms the joint
policy table: the averaged local value takes only the co-agents' rows.

`rscpi` runs its R restarts in lockstep: one `sweep` call per sweep index
advances all of them on a `PolicyBatch`, every tensor of the sweep carrying
a leading restart axis, and each restart's rows come out bit for bit as if
swept alone. A restart that has converged is masked, not dropped: its rows
are no longer written, so it stays frozen while the others go on.

Memory accounting: `peak_floats` is the size of the marginal trajectory and
the two alternating value tensors, one of each per restart:
R * (T*S*Y*Z + 2*S*Y*Z) floats. Everything else is transient scratch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .evaluation import (aggregate_initial, check_stage, evaluate_exact,
                         finite_risk, fold_stage, forward_marginals,
                         logsumexp, stage_backup)
from .model import DecPomdpModel, is_int
from .policy import (PHI_MODES, JointPolicy, PolicyBatch, mix_policies,
                     random_policy)


@dataclass
class AveragedLocalQ:
    """Averaged stage value of one agent's (a^i, z^i) choice at (y^i, z^i_-).

    For lam > 0 `table` holds log sum_cells zeta * copi * exp(lam Q); at
    lam = 0 the plain weighted sum. `mass` is the marginal probability of
    each (y^i, z^i_-) cell; cells with zero mass are unreachable and carry
    no information. For a batch both carry a leading restart axis.
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
        kinds = [
            (("anneal_sweeps", "max_sweeps", "restarts", "seed"),
             "an integer", is_int),
            (("lambda0", "alpha", "tol"), "a number",
             lambda v: is_int(v) or isinstance(v, (float, np.floating))),
            (("disable_rs", "disable_cpi"), "a bool",
             lambda v: isinstance(v, (bool, np.bool_))),
            (("z_sizes",), "a sequence of integers",
             lambda v: isinstance(v, (tuple, list)) and all(map(is_int, v))),
        ]
        for names, what, ok in kinds:
            for name in names:
                value = getattr(self, name)
                if not ok(value):
                    raise ValueError(f"{name} must be {what}, got {value!r}")
        if self.phi_mode not in PHI_MODES:
            raise ValueError(f"unknown phi_mode {self.phi_mode!r}; choose "
                             f"from {PHI_MODES}")
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.ordering not in ("sequential", "per_agent"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if any(z < 1 for z in self.z_sizes):
            raise ValueError("z_sizes entries (agent-state sizes) must be >= 1")

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


class SolveWorkspace:
    """The work tensors of a sweep for one model/|Z|.

    Every tensor has a leading axis of `restarts`: the marginal trajectory
    (R, T, S, Y, Z), the two alternating value tensors (R, S, Y, Z) and
    q_red (R, S, A, Z), which is scratch. `peak_floats` counts the first
    three, R * (T*S*Y*Z + 2*S*Y*Z) floats.
    """

    def __init__(self, model: DecPomdpModel, z_sizes, restarts: int = 1):
        self.model = model
        self.z_sizes = tuple(int(z) for z in z_sizes)
        self.restarts = int(restarts)
        S, Y = model.state_count, model.joint_obs_count
        A = model.joint_action_count
        Z = int(np.prod(self.z_sizes))
        T = model.horizon
        R = self.restarts
        self.zeta = np.zeros((R, T, S, Y, Z))
        self.l_a = np.zeros((R, S, Y, Z))
        self.l_b = np.zeros((R, S, Y, Z))
        self.q_red = np.zeros((R, S, A, Z))
        self.peak_floats = self.zeta.size + self.l_a.size + self.l_b.size


def averaged_local_q(model: DecPomdpModel, zeta_t: np.ndarray,
                     policy: JointPolicy, t: int, l_next: np.ndarray,
                     lam, agent: int) -> AveragedLocalQ:
    """Average the stage's local values over zeta_t and the co-agents' rows.

    t is 1-based. l_next holds L_{t+1}; the stage is backed up into its
    reduced (s, a, z) form, which is broadcast over (y, z_). For a
    PolicyBatch, zeta_t and l_next carry its leading restart axis, and so
    does the result. Raises ValueError when t is outside 1..T or agent
    outside 0..N-1.
    """
    risk = finite_risk(lam, "averaged_local_q")
    check_stage(t, policy.horizon)
    if not 0 <= agent < model.n_agents:
        raise ValueError(f"agent={agent} outside 0..{model.n_agents - 1}")
    batch = _as_batch(policy)
    if batch is not policy:
        zeta_t, l_next = zeta_t[None], l_next[None]
    S, A = model.state_count, model.joint_action_count
    q_red = np.empty((batch.size, S, A, l_next.shape[-1]))
    with kernels.quiet_overflow():
        stage_backup(model, l_next, risk, q_red)
        qbar = _averaged_local_q(model, zeta_t, batch, t, q_red, risk, agent)
    if batch is not policy:
        qbar.table, qbar.mass = qbar.table[0], qbar.mass[0]
    return qbar


def _as_batch(policy) -> PolicyBatch:
    return policy if isinstance(policy, PolicyBatch) else PolicyBatch.of(policy)


def _agent_last(x: np.ndarray, agent: int, n: int) -> np.ndarray:
    """x with its restart axis and agent's axis of every group moved last.

    x has a leading restart axis, one more leading axis, then groups of n
    per-agent axes (Y_1..Y_N, W_1..W_N, ...). The result is a contiguous
    copy holding the second leading axis, the co-agents' axes in their
    order, the restart axis, then agent's axes: the axes in front of the
    restart axis flatten in the row-major order of the flat joint cells.
    """
    groups = range(2, x.ndim, n)
    co = [g + j for g in groups for j in range(n) if j != agent]
    return np.ascontiguousarray(
        x.transpose([1] + co + [0] + [g + agent for g in groups]))


def _co_policy(batch: PolicyBatch, t: int, agent: int) -> np.ndarray:
    """The co-agents' stage-t rows as one (R, co Y, co W, co A, co Z) table.

    Each co-agent's table is broadcast on its own axes and the factors are
    multiplied in agent order, so every cell is the product that the flat
    joint table holds. With one co-agent that is its own table, as a view.
    """
    co = [tab[:, t - 1] for j, tab in enumerate(batch.tables) if j != agent]
    if not co:
        return np.ones((batch.size, 1))
    copi = None
    for pos, tab in enumerate(co):
        shape = [1] * (4 * len(co))
        shape[pos::len(co)] = tab.shape[1:]
        factor = tab.reshape(len(tab), *shape)
        copi = factor if copi is None else copi * factor
    return copi


def _averaged_local_q(model, zeta_t, batch, t, q_red, risk, agent):
    """averaged_local_q of a batch on the stage's backed-up q_red.

    zeta_t (R, S, Y, Z) varies along (s, y, w), the co-agents' policy along
    their own (y, w, a, z) axes, q_red (R, S, A, Z) along (s, a, z). The
    co-agents' (y, w) axes meet only the first two, so they are summed out
    first: b[s, co (a, z), restart, y^i w^i] = sum_{co (y, w)} zeta * copi.
    Then each (restart, y^i, w^i, a^i, z^i) column sums b * q over its
    (s, co (a, z)) rows. Both are elementwise products and axis sums, which
    add one row at a time whatever R is, so a batch gives each restart its
    lone bits, and columns that differ only in z'^i get the same operations.
    b adds probabilities only, so it is summed in the plain domain at every
    lam; lam > 0 takes the second sum over log b + q as a logsumexp, every
    output cell shifted by its own max before the exp. A product
    zeta * copi below the smallest subnormal (~5e-324) drops out of b, as
    it already does inside zeta_{t+1}, which the forward step also forms
    in the plain domain.
    """
    n = model.n_agents
    R, S = zeta_t.shape[:2]
    y_sizes, a_sizes = model.obs_counts, model.action_counts
    w_sizes = batch.agent_state_sizes
    yw = y_sizes[agent] * w_sizes[agent]
    az = a_sizes[agent] * w_sizes[agent]
    co_yw = zeta_t.shape[2] * zeta_t.shape[3] // yw
    co_az = q_red.shape[2] * q_red.shape[3] // az
    zeta = _agent_last(zeta_t.reshape(R, S, *y_sizes, *w_sizes), agent, n)
    zeta = zeta.reshape(S, co_yw, 1, R, yw)
    copi = _co_policy(batch, t, agent)
    copi = copi.reshape(R, co_yw, co_az).transpose(1, 2, 0)[..., None]
    q = _agent_last(q_red.reshape(R, S, *a_sizes, *w_sizes), agent, n)
    q = q.reshape(S, co_az, R, 1, az)
    cells = R * yw * az
    b = np.multiply(zeta, copi).sum(axis=1)
    if risk.is_neutral:
        table = np.multiply(b[..., None], q).reshape(-1, cells).sum(axis=0)
    else:
        with np.errstate(divide="ignore"):
            vals = np.add(np.log(b)[..., None], q).reshape(-1, cells)
            table = logsumexp(vals, axis=0)
    mass = zeta.reshape(S, co_yw, R * yw).sum(axis=0).sum(axis=0)
    shape = (R, y_sizes[agent], w_sizes[agent], a_sizes[agent],
             w_sizes[agent])
    return AveragedLocalQ(agent=agent, t=t, table=table.reshape(shape),
                          mass=mass.reshape(shape[:3]),
                          lam=risk.lam, is_plain=risk.is_neutral)


def greedy_agent_update(qbar: AveragedLocalQ) -> np.ndarray:
    """Argmax of the averaged weights per (y^i, z^i_-) cell, as the flat
    index a^i * Z_i + z'^i of its (A_i, Z_i) axes.

    Ties break to the smallest flat index. An unreachable cell's pick means
    nothing: the sweep writes only reachable rows. A leading restart axis of
    the table carries through.
    """
    *lead, yi, wi, ai, zi = qbar.table.shape
    return np.argmax(qbar.table.reshape(*lead, yi, wi, ai * zi), axis=-1)


def _update_agent_at(model, batch, t, zeta_t, q_red, risk, alpha, agent,
                     live):
    """Mix the greedy rows of agent at stage t into the live restarts' rows
    of reachable cells; every other row keeps its bytes."""
    qbar = _averaged_local_q(model, zeta_t, batch, t, q_red, risk, agent)
    tab = batch.tables[agent][:, t - 1]
    mixed = mix_policies(tab, greedy_agent_update(qbar), alpha)
    if mixed is not tab:
        write = qbar.reachable & live[:, None, None]
        np.copyto(tab, mixed, where=write[..., None, None])


def sweep(model: DecPomdpModel, policy, lam, alpha: float,
          ordering: str = "sequential", workspace: SolveWorkspace = None,
          live=None):
    """One backward pass of agent updates per agent group; mutates the policy.

    `policy` is a JointPolicy, swept as a batch of one, or a PolicyBatch,
    whose restarts are swept in lockstep; `live` (default all) masks the
    restarts whose rows are updated. `sequential` updates all agents at each
    stage in one pass; `per_agent` runs one pass per agent. Each pass
    recomputes the forward marginals from the incumbent policy before any
    stage is touched: zeta_t only depends on the rows at stages before t,
    which the T..t walk has not yet modified. Returns the risk objective
    read off the last pass's L_1: a float for a JointPolicy, an array with
    one entry per restart for a PolicyBatch.
    """
    risk = finite_risk(lam, "sweep")
    if ordering == "sequential":
        groups = [range(model.n_agents)]
    elif ordering == "per_agent":
        groups = [[i] for i in range(model.n_agents)]
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    batch = _as_batch(policy)
    ws = workspace or SolveWorkspace(model, batch.agent_state_sizes,
                                     restarts=batch.size)
    if (ws.restarts, ws.z_sizes) != (batch.size, batch.agent_state_sizes):
        raise ValueError(f"workspace holds {ws.restarts} restarts of "
                         f"agent-state sizes {ws.z_sizes}, the batch "
                         f"{batch.size} of {batch.agent_state_sizes}")
    live = (np.ones(batch.size, dtype=bool) if live is None
            else np.asarray(live, dtype=bool))
    if live.shape != (batch.size,):
        raise ValueError(f"live has shape {live.shape}, expected "
                         f"({batch.size},), one flag per restart")
    with kernels.quiet_overflow():
        for group in groups:
            forward_marginals(model, batch, out=ws.zeta)
            l_next, l_cur = ws.l_a, ws.l_b
            l_next[:] = 0.0
            for t in range(model.horizon, 0, -1):
                stage_backup(model, l_next, risk, ws.q_red)
                for i in group:
                    _update_agent_at(model, batch, t, ws.zeta[:, t - 1],
                                     ws.q_red, risk, alpha, i, live)
                fold_stage(batch, t, ws.q_red, risk, l_cur)
                l_next, l_cur = l_cur, l_next
    return aggregate_initial(model, policy,
                             l_next if batch is policy else l_next[0], risk)


def _check_initial_policy(model: DecPomdpModel, z_sizes, policy: JointPolicy):
    """Raise ValueError naming the first field of policy that does not fit
    the model and the configured agent-state sizes."""
    fields = [("horizon", policy.horizon, model.horizon),
              ("n_agents", policy.n_agents, model.n_agents),
              ("action_counts", policy.action_counts(), model.action_counts),
              ("obs_counts", policy.obs_counts(), model.obs_counts),
              ("agent_state_sizes", policy.agent_state_sizes,
               tuple(int(z) for z in z_sizes))]
    for name, got, want in fields:
        if got != want:
            raise ValueError(f"initial_policy {name} is {got}, "
                             f"the solve needs {want}")


def rscpi(model: DecPomdpModel, config: SolverConfig,
          initial_policy: JointPolicy = None) -> SolveResult:
    """Annealed risk-seeking CPI with random restarts run in lockstep.

    Restart r draws its initial policy from seed + r (restart 0 may be
    overridden with initial_policy). Sweep k advances every running restart
    by one `sweep` under the annealed tilt, then one `evaluate_exact` of the
    whole batch values each exactly; a masked restart's rows are unchanged,
    so its value is only read while it runs.
    Convergence is only checked once the tilt has reached zero: a restart
    stops when its sweep's risk objective improves by less than tol, and is
    masked out of the sweeps that follow. The best restart is chosen by
    exact value, ties keeping the earliest (lowest) seed.
    """
    config.validate()
    if len(config.z_sizes) != model.n_agents:
        raise ValueError(f"z_sizes lists {len(config.z_sizes)} agent-state "
                         f"sizes for {model.n_agents} agents")
    if initial_policy is not None:
        _check_initial_policy(model, config.z_sizes, initial_policy)
    t0 = time.perf_counter()
    R = config.restarts
    ws = SolveWorkspace(model, config.z_sizes, restarts=R)

    def draw(r):
        if r == 0 and initial_policy is not None:
            return initial_policy
        return random_policy(model.action_counts, model.obs_counts,
                             config.z_sizes, model.horizon, config.seed + r,
                             phi_mode=config.phi_mode)

    batch = PolicyBatch.stack((draw(r) for r in range(R)), R)
    alpha = 1.0 if config.disable_cpi else config.alpha
    live = np.ones(R, dtype=bool)
    traces = [[] for _ in range(R)]
    prev = [None] * R
    for k in range(1, config.max_sweeps + 1):
        lam_k = config.lam_at(k)
        j_risk = sweep(model, batch, lam_k, alpha, config.ordering, ws, live)
        j_exact = evaluate_exact(model, batch)
        for r in np.flatnonzero(live):
            traces[r].append((lam_k, float(j_risk[r]), float(j_exact[r])))
            if lam_k == 0.0:
                if prev[r] is not None and j_risk[r] - prev[r] < config.tol:
                    live[r] = False
                prev[r] = j_risk[r]
        if not live.any():
            break
    best = max(range(R), key=lambda r: traces[r][-1][2])   # earliest of ties
    trace = traces[best]
    return SolveResult(policy=batch.policies[best].copy(),
                       j_exact=trace[-1][2], j_risk_final=trace[-1][1],
                       trace=trace, sweeps=len(trace),
                       wall_time_ms=(time.perf_counter() - t0) * 1e3,
                       peak_floats=ws.peak_floats, seed=config.seed + best)
