"""Risk-seeking conservative policy iteration over agent-state policies.

A sweep is the evaluation's backward recursion with agent updates spliced
in. It walks t = T..1, holding the forward marginals zeta_t fixed; per stage
it runs one `stage_backup`, updates the agents against the averaged local
value of their stage action, then folds the updated policy's stage rows
into L_t before moving to t-1. Tilted values are carried in the log
domain as L_t = lam * V_t for lam > 0 and as plain V_t at lam = 0, so the
same tensors stay finite for any reward scale. No step forms the joint
policy table: the averaged local value takes only the co-agents' rows.

`rscpi` runs its R restarts in lockstep: one `sweep` call per sweep index
advances all of them on a `PolicyBatch`, every tensor of the sweep carrying
a leading restart axis, and each restart's rows come out bit for bit as if
swept alone. A restart that has converged is masked, not dropped: its rows
are no longer written, so it stays frozen while the others go on.

A solve lays its stages out once, in a `SweepPlan` its workspace keeps
(`SolveWorkspace.layout`): one flat float64 scratch arena holds the forward
step's buffers, the stage backup's intermediate, the fold's buffers and
each agent's `_LocalQLayout`, phases that never run at once sharing its
memory, and the plan holds the strided views of the arena and of the
workspace's zeta, q_red and value tensors. The solve's sweeps and exact
evaluations share the plan while the regime (tilted or not) holds; a stage
forms only the views of its policy rows, the forward step its own views,
and nothing of the plan depends on T.

Memory accounting: `peak_floats` is the size of the marginal trajectory and
the two alternating value tensors, one of each per restart:
R * (T*S*Y*Z + 2*S*Y*Z) floats. Everything else is scratch, the plan's
arena included.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .evaluation import (StagePlan, _as_batch, _check_dims,
                         _forward_shapes, _reserve, aggregate_initial,
                         check_stage, evaluate_exact, finite_risk,
                         forward_marginals, logsumexp, stage_backup)
from .model import DecPomdpModel, is_int
from .policy import (PHI_MODES, JointPolicy, PolicyBatch, mix_policies,
                     random_policy)
from .risk import RiskParameter


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
    """The work tensors of a solve for one model/|Z|, kept across its steps.

    Every tensor has a restart axis of `restarts`: the marginal trajectory
    `zeta` (R, T, S, Y, Z), the two alternating value tensors stacked in
    `l` (2, R, S, Y, Z) and `q_red` (R, S, A, Z), which is scratch.
    `peak_floats` counts the first two, R * (T*S*Y*Z + 2*S*Y*Z) floats.
    Sweeps and exact evaluations on the workspace share the stage layout
    `layout` keeps in `plan`, whose arena `peak_floats` does not count.
    """

    def __init__(self, model: DecPomdpModel, z_sizes, restarts: int = 1):
        self.model = model
        self.z_sizes = tuple(int(z) for z in z_sizes)
        self.restarts = int(restarts)
        S, Y = model.state_count, model.joint_obs_count
        A = model.joint_action_count
        Z = math.prod(self.z_sizes)
        T = model.horizon
        R = self.restarts
        self.zeta = np.zeros((R, T, S, Y, Z))
        self.l = np.zeros((2, R, S, Y, Z))
        self.q_red = np.zeros((R, S, A, Z))
        self.peak_floats = self.zeta.size + self.l.size
        self.plan = None

    def layout(self, model: DecPomdpModel, batch: PolicyBatch,
               risk: RiskParameter) -> "SweepPlan":
        """The `SweepPlan` of `batch` here, its `risk` bound to risk.

        The kept plan is reused while it serves this batch in risk's regime
        (`RiskParameter.is_neutral`), else dropped before the next one is
        laid out, so that one arena lives at a time. Raises ValueError for
        a workspace of another model or one that does not fit the batch.
        """
        if model is not self.model:
            raise ValueError("workspace was built for another model")
        plan = self.plan
        if (plan is None or plan.batch is not batch
                or plan.risk.is_neutral != risk.is_neutral):
            plan = self.plan = None   # free the old arena first
            if (self.restarts, self.z_sizes) != (batch.size,
                                                 batch.agent_state_sizes):
                raise ValueError(
                    f"workspace holds {self.restarts} restarts of "
                    f"agent-state sizes {self.z_sizes}, the batch "
                    f"{batch.size} of {batch.agent_state_sizes}")
            _check_dims(model, batch)
            plan = self.plan = SweepPlan(model, batch, risk, self)
        plan.risk = risk
        return plan


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
    ws = SolveWorkspace(model, batch.agent_state_sizes, restarts=batch.size)
    ws.zeta[:, t - 1] = zeta_t
    plan = ws.layout(model, batch, risk)
    with kernels.quiet_overflow():
        stage_backup(model, l_next, risk, ws.q_red, scratch=plan.scratch)
        qbar = _averaged_local_q(plan, t, agent)
    if batch is not policy:
        qbar.table, qbar.mass = qbar.table[0], qbar.mass[0]
    return qbar


class _LocalQLayout:
    """`_averaged_local_q`'s operands for one agent, laid out once.

    zeta_t and q_red are copied with the restart axis and the agent's axes
    of every group moved last, (S, co-agents' axes, R, agent's axes), so
    that the axes in front of the restart axis flatten in the row-major
    order of the flat joint cells. The co-agents' stage rows form one
    (co Y, co W, co A, co Z, R) table: with one co-agent its own rows as a
    view, with more their product in agent order, every cell the product
    that the flat joint table holds. `spec` lists the scratch buffers that
    `bind` takes.
    """

    __slots__ = ("spec", "zeta_in", "q_in", "co_rows", "zeta", "q",
                 "product", "copi", "work", "part", "b", "table", "mass")

    def __init__(self, model, batch, ws, agent):
        n, R, T = model.n_agents, batch.size, model.horizon
        S = model.state_count
        y_sizes, a_sizes = model.obs_counts, model.action_counts
        w_sizes = batch.agent_state_sizes
        co = [j for j in range(n) if j != agent]
        co_y = tuple(y_sizes[j] for j in co)
        co_w = tuple(w_sizes[j] for j in co)
        co_a = tuple(a_sizes[j] for j in co)
        own, az = (R, y_sizes[agent], w_sizes[agent]), (a_sizes[agent],
                                                       w_sizes[agent])
        co_yw, co_az = math.prod(co_y + co_w), math.prod(co_a + co_w)
        b = (S, co_az) + own + (1, 1)
        # buffers that never live at once share one region: zeta_t's copy
        # is spread over the first product before q_red is copied in; the
        # partial mass is summed into the mass before b is summed out of
        # the first product, and the table after b has entered the second
        # product, which reuses the first's region
        self.spec = [
            [(S,) + co_y + co_w + own, (S, co_yw, 1) + own + (1, 1),
             (S,) + co_a + co_w + (R,) + az, (S, co_az, R, 1, 1) + az],
            [co_y + co_w + co_a + co_w + (R,), (co_yw, co_az, R, 1, 1, 1, 1)]
            if len(co) > 1 else None,
            [(S, co_yw) + b[1:], (S, co_az) + own + az],
            [(co_yw, 1) + own + (1, 1), b, own + az], own]
        # (R, T, S, Y.., W..) -> (T, S, co Y.., co W.., R, y^i, w^i)
        self.zeta_in = ws.zeta.reshape(
            (R, T, S) + y_sizes + w_sizes, copy=False).transpose(
            1, 2, *[3 + j for j in co], *[3 + n + j for j in co], 0,
            3 + agent, 3 + n + agent)
        # (R, S, A.., Z..) -> (S, co A.., co Z.., R, a^i, z^i)
        self.q_in = ws.q_red.reshape(
            (R, S) + a_sizes + w_sizes, copy=False).transpose(
            1, *[2 + j for j in co], *[2 + n + j for j in co], 0, 2 + agent,
            2 + n + agent)
        if len(co) == 1:
            rows = batch.tables[co[0]].reshape(R, T, co_yw, co_az,
                                               copy=False)
            self.co_rows = (rows.transpose(1, 2, 3, 0)[..., None, None,
                                                       None, None],)
        elif not co:
            self.co_rows = (np.broadcast_to(1.0, (T, 1, 1, R, 1, 1, 1, 1)),)
        else:
            # each co-agent's rows on its own axes of the product
            m, co_rows = len(co), []
            for pos, j in enumerate(co):
                shape = [1] * (4 * m)
                shape[pos::m] = batch.tables[j].shape[2:]
                rows = batch.tables[j].reshape((R, T, *shape), copy=False)
                co_rows.append(rows.transpose(1, *range(2, 2 + 4 * m), 0))
            self.co_rows = tuple(co_rows)

    def bind(self, bufs):
        """Take the buffers cut from the plan's arena, as `spec` lists."""
        ((zeta, zeta_factor, q, q_factor), copi, self.work,
         (self.part, self.b, self.table), self.mass) = bufs
        self.zeta, self.q = (zeta, zeta_factor), (q, q_factor)
        self.product, self.copi = copi or (None, None)
        self.spec = None


class SweepPlan(StagePlan):
    """A solve's `StagePlan` on its workspace's tensors: q_red, the two
    alternating value tensors as its targets, and zeta for the averaged
    local value. Its `arena` holds the stage backup's `scratch`, the fold's
    buffers, each agent's `_LocalQLayout` in `local` and room for the
    buffers `forward_marginals` cuts from it per call, none of them in use
    at once."""

    __slots__ = ("local", "model", "zeta")

    def __init__(self, model: DecPomdpModel, batch: PolicyBatch,
                 risk: RiskParameter, ws: SolveWorkspace):
        local = [_LocalQLayout(model, batch, ws, i)
                 for i in range(model.n_agents)]
        super().__init__(batch, risk, ws.q_red, ws.l,
                         *(lay.spec for lay in local),
                         [_reserve(_forward_shapes(model, batch.size,
                                                   batch.agent_state_sizes))],
                         model=model)
        # the last phase only reserves the forward step's room
        for lay, bufs in zip(local, self.extra):
            lay.bind(bufs)
        self.extra = None
        self.local = local
        self.model, self.zeta = model, ws.zeta


def _averaged_local_q(plan: SweepPlan, t: int, agent: int) -> AveragedLocalQ:
    """averaged_local_q of the plan's batch at stage t, on the workspace's
    zeta_t and backed-up q_red.

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
    lay, risk = plan.local[agent], plan.risk
    zeta, zeta_factor = lay.zeta
    q, q_factor = lay.q
    first, second = lay.work
    np.copyto(zeta, lay.zeta_in[t - 1])
    np.add.reduce(zeta_factor, axis=0, out=lay.part)
    np.add.reduce(lay.part, axis=(0, 1, 5, 6), out=lay.mass)
    rows = lay.co_rows
    if len(rows) == 1:
        copi = rows[0][t - 1]
    else:
        np.multiply(rows[0][t - 1], rows[1][t - 1], out=lay.product)
        for factor in rows[2:]:
            np.multiply(lay.product, factor[t - 1], out=lay.product)
        copi = lay.copi
    # each product starts as a broadcast copy of one factor: a ufunc
    # buffers every broadcast operand, a copy buffers none (products and
    # sums commute, so the bits are those of zeta * copi and log b + q)
    np.copyto(first, copi)
    np.multiply(first, zeta_factor, out=first)
    np.add.reduce(first, axis=1, out=lay.b)
    np.copyto(q, lay.q_in)
    np.copyto(second, q_factor)
    if risk.is_neutral:
        np.multiply(second, lay.b, out=second)
        np.add.reduce(second, axis=(0, 1), out=lay.table)
    else:
        with np.errstate(divide="ignore"):
            np.log(lay.b, out=lay.b)
            np.add(second, lay.b, out=second)
            logsumexp(second, axis=(0, 1), out=lay.table)
    return AveragedLocalQ(agent=agent, t=t, table=lay.table, mass=lay.mass,
                          lam=risk.lam, is_plain=risk.is_neutral)


def greedy_agent_update(qbar: AveragedLocalQ) -> np.ndarray:
    """Argmax of the averaged weights per (y^i, z^i_-) cell, as the flat
    index a^i * Z_i + z'^i of its (A_i, Z_i) axes.

    Ties break to the smallest flat index. An unreachable cell's pick means
    nothing: the sweep writes only reachable rows. A leading restart axis of
    the table carries through.
    """
    *lead, yi, wi, ai, zi = qbar.table.shape
    return qbar.table.reshape(*lead, yi, wi, ai * zi).argmax(axis=-1)


def _update_agent_at(plan: SweepPlan, t: int, agent: int, alpha: float,
                     live: np.ndarray):
    """Mix the greedy rows of agent at stage t into the live restarts' rows
    of reachable cells; every other row keeps its bytes."""
    qbar = _averaged_local_q(plan, t, agent)
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
    plan = ws.layout(model, batch, risk)
    live = (np.ones(batch.size, dtype=bool) if live is None
            else np.asarray(live, dtype=bool))
    if live.shape != (batch.size,):
        raise ValueError(f"live has shape {live.shape}, expected "
                         f"({batch.size},), one flag per restart")
    with kernels.quiet_overflow():
        for group in groups:
            l_next = _sweep_pass(plan, group, alpha, live)
    return aggregate_initial(model, policy,
                             l_next if batch is policy else l_next[0], risk)


def _sweep_pass(plan: SweepPlan, agents, alpha, live) -> np.ndarray:
    """One T..1 pass updating `agents` at every stage; returns L_1. The
    forward step cuts its buffers from the plan's arena, in a phase of
    their own: it returns before any stage writes."""
    model = plan.model
    forward_marginals(model, plan.batch, out=plan.zeta, scratch=plan.arena)
    l_next = plan.targets[0]
    l_next[...] = 0.0
    for t in range(model.horizon, 0, -1):
        stage_backup(model, l_next, plan.risk, plan.q_red,
                     scratch=plan.scratch)
        for i in agents:
            _update_agent_at(plan, t, i, alpha, live)
        # L_{T+1} = 0 sits in l[0], so L_t lands there for even t
        l_next = plan.fold(t, t % 2)
    return l_next


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
    so its value is only read while it runs. Both steps run on the solve's
    workspace and share its stage layout (`SolveWorkspace.layout`).
    Convergence is only checked once the tilt counts as zero, by the rule
    `RiskParameter.is_neutral` under which a sweep runs untilted: a restart
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
    running = list(range(R))
    traces = [[] for _ in range(R)]
    prev = [None] * R
    for k in range(1, config.max_sweeps + 1):
        lam_k = config.lam_at(k)
        untilted = RiskParameter(lam_k).is_neutral
        j_risk = sweep(model, batch, lam_k, alpha, config.ordering, ws, live)
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
