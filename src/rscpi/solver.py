"""Risk-seeking conservative policy iteration over agent-state policies.

Policy improvement: each agent in turn takes a conservative step toward its
greedy response to the averaged local value of its stage action, under the
annealed tilt. A sweep walks t = T..1, holding the forward marginals zeta_t
fixed; per stage it backs the stage up (`evaluation.stage_backup`), updates
the agents against their averaged local values, then folds the updated
policy's stage rows into L_t before moving to t-1. Each sweep and exact
evaluation of a solve runs on its `evaluation.SolveWorkspace`, whose stage
layout they share while the regime (tilted or not) holds.

`rscpi` runs its R restarts in lockstep: one `sweep` call per sweep index
advances all of them on a `PolicyBatch`, every tensor of the sweep carrying
a leading restart axis, and each restart's rows come out bit for bit as if
swept alone. A restart that has converged is masked, not dropped: its rows
are no longer written, so it stays frozen while the others go on.
`SolveResult.peak_floats` is the workspace's `peak_floats`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .evaluation import (AveragedLocalQ, SolveWorkspace, StagePlan,
                         aggregate_initial, check_fit, evaluate_exact,
                         finite_risk, forward_marginals, is_neutral,
                         stage_backup)
from .model import DecPomdpModel, is_int
from .policy import JointPolicy, PolicyBatch, mix_policies, random_policy


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
    z_sizes: tuple = (2, 2)

    def __post_init__(self):
        self.validate()

    def validate(self):
        kinds = [
            (("anneal_sweeps", "max_sweeps", "restarts", "seed"),
             "an integer", is_int),
            (("lambda0", "alpha", "tol"), "a number",
             lambda v: is_int(v) or isinstance(v, (float, np.floating))),
            (("z_sizes",), "a sequence of integers",
             lambda v: isinstance(v, (tuple, list)) and all(map(is_int, v))),
        ]
        for names, what, ok in kinds:
            for name in names:
                value = getattr(self, name)
                if not ok(value):
                    raise ValueError(f"{name} must be {what}, got {value!r}")
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
        if self.lambda0 == 0.0 or self.anneal_sweeps == 0:
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


def greedy_agent_update(qbar: AveragedLocalQ) -> np.ndarray:
    """Argmax of the averaged weights per (y^i, z^i_-) cell, as the flat
    index a^i * Z_i + z'^i of its (A_i, Z_i) axes.

    Ties break to the smallest flat index. An unreachable cell's pick means
    nothing: the sweep writes only reachable rows. A leading restart axis of
    the table carries through.
    """
    *lead, yi, wi, ai, zi = qbar.table.shape
    return qbar.table.reshape(*lead, yi, wi, ai * zi).argmax(axis=-1)


def _update_agent_at(plan: StagePlan, t: int, agent: int, alpha: float,
                     live: np.ndarray):
    """Mix the greedy rows of agent at stage t into the live restarts' rows
    of reachable cells; every other row keeps its bytes."""
    qbar = plan.local_q(t, agent)
    tab = plan.batch.tables[agent][:, t - 1]
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
    which the T..t walk has not yet modified. The passes run on the
    workspace's `layout`. Returns the risk objective read off the last
    pass's L_1: a float for a JointPolicy, one per restart for a batch.
    A workspace built for another model or policy object is refused.
    """
    lam = finite_risk(lam, "sweep")
    if ordering == "sequential":
        groups = [range(model.n_agents)]
    elif ordering == "per_agent":
        groups = [[i] for i in range(model.n_agents)]
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    ws = SolveWorkspace.of(model, policy, workspace)
    batch = ws.batch
    ws.layout(not is_neutral(lam))
    live = (np.ones(batch.size, dtype=bool) if live is None
            else np.asarray(live, dtype=bool))
    if live.shape != (batch.size,):
        raise ValueError(f"live has shape {live.shape}, expected "
                         f"({batch.size},), one flag per restart")
    with kernels.quiet_overflow():
        for group in groups:
            l_next = _sweep_pass(ws, group, lam, alpha, live)
    return aggregate_initial(model, policy,
                             l_next if batch is policy else l_next[0], lam)


def _sweep_pass(ws: SolveWorkspace, agents, lam, alpha, live) -> np.ndarray:
    """One T..1 pass updating `agents` at every stage on the workspace's
    plan, its forward step first; returns L_1."""
    plan, model = ws.plan, ws.model
    forward_marginals(model, ws.policy, workspace=ws)
    l_next = plan.targets[0]
    l_next[...] = 0.0
    for t in range(model.horizon, 0, -1):
        stage_backup(model, l_next, lam, plan.q_red, scratch=plan.scratch)
        for i in agents:
            _update_agent_at(plan, t, i, alpha, live)
        # L_{T+1} = 0 sits in l[0], so L_t lands there for even t
        l_next = plan.fold(t, t % 2)
    return l_next


def rscpi(model: DecPomdpModel, config: SolverConfig,
          initial_policy: JointPolicy = None) -> SolveResult:
    """Annealed risk-seeking CPI with random restarts run in lockstep.

    Restart r draws its initial policy from seed + r (restart 0 may be
    overridden with initial_policy). Sweep k advances every running restart
    by one `sweep` under the annealed tilt, then one `evaluate_exact` of the
    whole batch values each exactly; a masked restart's rows are unchanged,
    so its value is only read while it runs. Both steps run on the solve's
    workspace and share its stage layout (`SolveWorkspace.layout`).
    Convergence is only checked once the tilt counts as zero, by the rule
    `evaluation.is_neutral` under which a sweep runs untilted: a restart
    stops when its sweep's risk objective improves by less than tol, and is
    masked out of the sweeps that follow. The best restart is chosen by
    exact value, ties keeping the earliest (lowest) seed.
    """
    config.validate()
    if len(config.z_sizes) != model.n_agents:
        raise ValueError(f"z_sizes lists {len(config.z_sizes)} agent-state "
                         f"sizes for {model.n_agents} agents")
    if initial_policy is not None:
        check_fit(model, initial_policy, config.z_sizes, "initial_policy")
    t0 = time.perf_counter()
    R = config.restarts

    def draw(r):
        if r == 0 and initial_policy is not None:
            return initial_policy
        return random_policy(model.action_counts, model.obs_counts,
                             config.z_sizes, model.horizon, config.seed + r)

    batch = PolicyBatch.stack((draw(r) for r in range(R)), R)
    ws = SolveWorkspace(model, batch)
    live = np.ones(R, dtype=bool)
    running = list(range(R))
    traces = [[] for _ in range(R)]
    prev = [None] * R
    for k in range(1, config.max_sweeps + 1):
        lam_k = config.lam_at(k)
        untilted = is_neutral(lam_k)
        j_risk = sweep(model, batch, lam_k, config.alpha, config.ordering, ws,
                       live)
        j_exact = evaluate_exact(model, batch, workspace=ws)
        # Python floats and lists keep the bookkeeping between steps cheap
        j_risk, j_exact = j_risk.tolist(), j_exact.tolist()
        for r in running:
            traces[r].append((lam_k, j_risk[r], j_exact[r]))
            if untilted:
                if prev[r] is not None and j_risk[r] - prev[r] < config.tol:
                    live[r] = False
                prev[r] = j_risk[r]
        running = [r for r in running if live[r]]
        if not running:
            break
    ws.plan = None   # free the layout before the best policy is copied
    best = max(range(R), key=lambda r: traces[r][-1][2])   # earliest of ties
    trace = traces[best]
    return SolveResult(policy=batch.policies[best].copy(),
                       j_exact=trace[-1][2], j_risk_final=trace[-1][1],
                       trace=trace, sweeps=len(trace),
                       wall_time_ms=(time.perf_counter() - t0) * 1e3,
                       peak_floats=ws.peak_floats, seed=config.seed + best)
