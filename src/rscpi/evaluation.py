"""Policy evaluation: forward marginals, the backward recursion, and a seeded
Monte-Carlo rollout cross-check.

The backward recursion walks t = T..1 over the chain on (state, joint
observation, joint agent state). Each stage is one `stage_backup`, which
reduces L_{t+1} to q_red[s, a, z], and one `fold_stage`, which folds the
stage's policy rows into L_t. Values are carried in the log domain as
L_t = lam * V_t for lam > 0 and as plain V_t at lam = 0. Exact evaluation,
risk-seeking evaluation and the solver's sweep all run on these two steps.

The fold and the forward marginals never form the joint policy table
M_t = prod_i pi^i_t, of prod_i |Y^i| |Z^i|^2 |A^i| floats: they contract one
agent at a time, by a batched matmul at lam = 0 and a logsumexp at lam > 0.

Every layout of a stage depends only on the model's sizes, the agent-state
sizes, the restart count and the agent: its pair and unpair permutations,
its reshape targets and its matmul operands. So the stages are laid out
once, the fold in a `StagePlan`: `_scratch` cuts one flat float64 arena
into the buffers the stages write, phases that never run at once sharing
its memory, and the strided views of those buffers and of the tensors the
recursion reads and writes are formed with it. A stage forms only the views
of its policy rows (stage t - 1 of a table) and runs `np.copyto`,
`np.matmul(out=)` and ufuncs with `out=` on the prepared operands. The
arena's size does not depend on T; `solver.SolveWorkspace.peak_floats` does
not count it. A lone `forward_marginals` or `backward` call lays its stages
out for itself; a solve keeps one layout on its `solver.SolveWorkspace`,
which its forward steps (`scratch=`) and exact evaluations share.

The forward marginals, both steps, `backward`, `evaluate_exact` and
`evaluate_risk` also take a `PolicyBatch`: its leading restart axis leads
every tensor they read and write, and each restart's slice gets the bits
it would get alone. A `JointPolicy` runs as a batch of one.

The Monte-Carlo rollout builds the CDF of every distribution it draws from
once per call and samples chunks of episodes from them; its results are
reproducible per (seed, chunk).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import DecPomdpModel, JointIndexer, is_int
from .policy import JointPolicy, PolicyBatch
from .risk import RiskParameter

MARGINAL_ATOL = 1e-8


class NumericError(RuntimeError):
    """A value tensor left the finite range (reported with stage and cell)."""


def joint_phi(policy: JointPolicy) -> np.ndarray:
    """Flat joint distribution over (z^1_0, ..., z^N_0), behind any leading
    restart axis of the policy."""
    lead = policy.phi[0].shape[:-1]
    out = np.ones(lead + (1,))
    for p in policy.phi:
        out = (out[..., :, None] * p[..., None, :]).reshape(lead + (-1,))
    return out


def joint_components(sizes):
    """Per-agent component lookup arrays for a flat joint index."""
    idx = JointIndexer(sizes)
    return [idx.component(i) for i in range(len(idx.sizes))]


@dataclass
class MarginalTrajectory:
    """zeta_t(s, y, z_) for t = 1..T, stored as one (T, S, Y, Z) tensor
    ((R, T, S, Y, Z) for a batch of R restarts)."""

    values: np.ndarray

    @property
    def horizon(self) -> int:
        return self.values.shape[-4]

    def at(self, t: int) -> np.ndarray:
        """1-based time index, matching the recursion's t = 1..T."""
        if not 1 <= t <= self.horizon:
            raise IndexError(f"t={t} outside 1..{self.horizon}")
        return self.values[..., t - 1, :, :, :]


def _check_dims(model: DecPomdpModel, policy: JointPolicy):
    if policy.horizon != model.horizon:
        raise ValueError(
            f"policy horizon {policy.horizon} != model horizon {model.horizon}"
        )
    if policy.n_agents != model.n_agents:
        raise ValueError("agent count mismatch")
    if policy.action_counts() != model.action_counts:
        raise ValueError("action space mismatch")
    if policy.obs_counts() != model.obs_counts:
        raise ValueError("observation space mismatch")


def _as_batch(policy) -> PolicyBatch:
    """policy itself if a PolicyBatch, else a batch of one viewing it."""
    if isinstance(policy, PolicyBatch):
        return policy
    return PolicyBatch.of(policy)


def _scratch(*phases, arena=None):
    """C-ordered float64 buffers of the given shapes, cut from one flat
    arena: `arena` when given, else a new one.

    Each phase lists the buffers in use together: a shape, a list of shapes
    that view one region in turn, or None for no buffer. Every phase starts
    at the arena's start, so phases that never run at once share its memory
    and the arena is as large as the largest phase; equal phases share their
    buffers too. Each buffer starts on a 16-byte boundary of the arena, as
    numpy's own allocations do. Returns one list of buffers per phase, a
    list of views for each list of shapes.
    """
    specs, top = [], 0
    for k, phase in enumerate(phases):
        if phase in phases[:k]:
            specs.append(None)
            continue
        at, spec = 0, []
        for entry in phase:
            if entry is None:
                spec.append(None)
                continue
            shapes = entry if type(entry) is list else [entry]
            sizes = list(map(math.prod, shapes))
            n = max(sizes)
            spec.append((at, n, shapes, sizes))
            at += n + (n & 1)
        specs.append(spec)
        top = max(top, at)
    arena = np.empty(top) if arena is None else arena
    if arena.size < top:
        raise ValueError(f"scratch holds {arena.size} floats, needs {top}")
    out = []
    for phase, spec in zip(phases, specs):
        if spec is None:
            out.append(out[phases.index(phase)])
            continue
        bufs = []
        for item, entry in zip(spec, phase):
            if item is None:
                bufs.append(None)
                continue
            at, n, shapes, sizes = item
            region = arena[at:at + n]
            views = [(region if size == n else region[:size]).reshape(shape)
                     for shape, size in zip(shapes, sizes)]
            bufs.append(views if type(entry) is list else views[0])
        out.append(bufs)
    return out


def _reserve(shapes) -> tuple:
    """The shape of one flat buffer as long as `_scratch` lays `shapes` out
    in one phase: a phase of it reserves their room without their views."""
    return (sum(n + (n & 1) for n in map(math.prod, shapes)),)


def _paired_view(x: np.ndarray, firsts, seconds) -> np.ndarray:
    """lead + (S, F, G), F and G flat over the agents' F_i and G_i, viewed as
    lead + (S, F_1, G_1, ..., F_N, G_N). Only splits and permutes axes, so
    it views any strided x; the reshape raises rather than copy."""
    n, k = len(firsts), x.ndim - 2
    x = x.reshape(x.shape[:k] + (*firsts, *seconds), copy=False)
    return x.transpose(*range(k),
                       *(k + j for i in range(n) for j in (i, n + i)))


def _stage_rows(batch: PolicyBatch) -> list:
    """Each agent's table as (T, R, Y_i W_i, A_i Z_i): indexing stage t - 1
    views the stage's rows as one matrix per restart."""
    return [tab.reshape(tab.shape[:2] + (-1, math.prod(tab.shape[-2:])),
                        copy=False).swapaxes(0, 1)
            for tab in batch.tables]


class _Contraction:
    """One stage's agent-by-agent contraction, its operands laid out once.

    The first of its buffers, x (R, S, K_1, ..., K_N), is contracted with
    each agent's stage-t rows m_i (R, J_i, K_i), agent N first, into the
    last, out (R, S, J_1 ... J_N).
    Step i is sum_k m_i[j, k] x[..., k, ...], one batched matmul, or with
    logs=True the logsumexp over k of log m_i[j, k] + x[..., k, ...], whose
    terms put k right behind the restart axis, so that a restart's cells
    reduce alike whatever R is. The fold takes m_i as the rows (A_i Z_i into
    Y_i W_i); the forward step (forward=True) takes them transposed.
    """

    __slots__ = ("steps", "logs")

    @staticmethod
    def shapes(R, S, ks, js, logs):
        """The scratch buffers the constructor takes, in order: x, then
        each step's buffers, the last one `out`."""
        shapes = [(R, S) + tuple(ks)]
        for i in reversed(range(len(ks))):
            pre, post = S * math.prod(ks[:i]), math.prod(js[i + 1:])
            if logs:
                shapes += [(R, js[i], ks[i]), (R, ks[i], pre, js[i], post)]
            shapes.append((R, pre, js[i], post))
        return shapes

    def __init__(self, batch, ks, js, logs, bufs, forward=False):
        x = bufs[0]
        bufs = iter(bufs[1:])
        self.logs = logs
        self.steps = []
        R, S = x.shape[:2]
        for i, rows in reversed(list(enumerate(_stage_rows(batch)))):
            k, j = ks[i], js[i]
            pre, post = S * math.prod(ks[:i]), math.prod(js[i + 1:])
            x4 = x.reshape(R, pre, k, post)
            if logs:
                log_m, terms, x = next(bufs), next(bufs), next(bufs)
                self.steps.append((rows, log_m, terms, x, (
                    log_m.swapaxes(-1, -2)[..., :, None, :, None],
                    x4.swapaxes(-2, -3)[..., None, :])))
                continue
            x = next(bufs)
            m = rows if forward else rows.swapaxes(-1, -2)  # (T, R, k, j)
            if post == 1:
                self.steps.append((None, m, x4[..., 0], x[..., 0]))
            else:
                self.steps.append((m.swapaxes(-1, -2)[:, :, None], None,
                                   x4, x))

    def __call__(self, t: int):
        """Contract x with the stage-t (1-based) rows into out."""
        if self.logs:
            with np.errstate(divide="ignore"):
                for rows, log_m, terms, out, (m_terms, x_terms) in self.steps:
                    np.log(rows[t - 1], out=log_m)
                    np.copyto(terms, m_terms)   # see _averaged_local_q
                    np.add(terms, x_terms, out=terms)
                    logsumexp(terms, axis=1, out=out)
            return
        for left, right, x, out in self.steps:
            if right is None:
                np.matmul(left[t - 1], x, out=out)
            else:
                np.matmul(x, right[t - 1], out=out)


def _check_out(out, shape):
    """Refuse an `out` of another shape or dtype before anything is
    written: a float32 one would round every stage, an integer one would
    truncate it."""
    if out is None:
        return
    if out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    if out.dtype != np.float64:
        raise ValueError(f"out has dtype {out.dtype}, expected float64")


def _forward_shapes(model: DecPomdpModel, R: int, w_sizes) -> list:
    """The buffers `forward_marginals` cuts for R restarts of agent-state
    sizes w_sizes: the contraction's, occupancy, next marginal, mass."""
    S, Y = model.state_count, model.joint_obs_count
    A, Z = model.joint_action_count, math.prod(w_sizes)
    ks = [y * w for y, w in zip(model.obs_counts, w_sizes)]
    js = [a * w for a, w in zip(model.action_counts, w_sizes)]
    return (_Contraction.shapes(R, S, ks, js, False)
            + [(R, S, A, Z), (R, Z, S * Y), (R,)])


def forward_marginals(model: DecPomdpModel, policy: JointPolicy,
                      out=None, scratch=None) -> MarginalTrajectory:
    """Forward recursion for zeta_t(s, y, z_), t = 1..T.

    zeta_1 = zeta1 (x) phi; each later step trades each agent's (y^i, w^i)
    axes of the occupancy for its (a^i, z^i) under the previous policy rows
    and pushes the result through the joint dynamics. Each tensor is
    renormalized when its mass drifts within 1e-8 of 1, and errors beyond.
    The step's operands are laid out once per call, in `_forward_shapes`
    buffers cut from `scratch`, a flat float64 arena, or a new arena.
    """
    _check_dims(model, policy)
    S, Y = model.state_count, model.joint_obs_count
    A = model.joint_action_count
    y_sizes, a_sizes = model.obs_counts, model.action_counts
    w_sizes = policy.agent_state_sizes
    Z = math.prod(w_sizes)
    T = model.horizon
    phi = joint_phi(policy)
    _check_out(out, phi.shape[:-1] + (T, S, Y, Z))
    batch = _as_batch(policy)
    R = batch.size
    bufs, = _scratch(_forward_shapes(model, R, w_sizes), arena=scratch)
    zetas = out if out is not None else np.zeros(phi.shape[:-1] + (T, S, Y, Z))
    zetas[..., 0, :, :, :] = model.zeta1[:, :, None] * phi[..., None, None, :]
    by_stage = (zetas if batch is policy else zetas[None]).swapaxes(0, 1)
    ks = [y * w for y, w in zip(y_sizes, w_sizes)]
    js = [a * w for a, w in zip(a_sizes, w_sizes)]
    *steps, occ, nxt, total = bufs
    contract = _Contraction(batch, ks, js, False, steps, forward=True)
    pair_in = _paired_view(by_stage, y_sizes, w_sizes)
    pair_out = steps[0].reshape((R, S) + sum(zip(y_sizes, w_sizes), ()))
    n = len(w_sizes)
    unpair_in = steps[-1].reshape((R, S) + sum(zip(a_sizes, w_sizes), ()))
    unpair_in = unpair_in.transpose(0, 1, *range(2, 2 + 2 * n, 2),
                                    *range(3, 2 + 2 * n, 2))
    unpair_out = occ.reshape((R, S) + a_sizes + w_sizes)
    occ_t = occ.reshape(R, S * A, Z).swapaxes(-1, -2)
    p_flat = model.P.reshape(S * A, S * Y)
    nxt_t = nxt.swapaxes(-1, -2).reshape(R, S, Y, Z)
    total_b = total[:, None, None, None]
    for t in range(1, T):
        np.copyto(pair_out, pair_in[t - 1])
        contract(t)
        np.copyto(unpair_out, unpair_in)
        np.matmul(occ_t, p_flat, out=nxt)
        cur = by_stage[t]
        np.copyto(cur, nxt_t)
        np.add.reduce(cur, axis=(1, 2, 3), out=total)
        off = np.abs(total - 1.0) > MARGINAL_ATOL
        if off.any():
            raise ValueError(
                f"marginal at t={t + 1} sums to {total[off].flat[0]:.12g}; "
                "dynamics or policy rows are not normalized"
            )
        np.divide(cur, total_b, out=cur)
    return MarginalTrajectory(values=zetas)


def check_stage(t: int, horizon: int):
    """Refuse a 1-based stage index outside 1..horizon: t = 0 would index
    the last stage's rows through t - 1 = -1."""
    if not 1 <= t <= horizon:
        raise ValueError(f"t={t} outside 1..{horizon}")


def finite_risk(lam, what: str) -> RiskParameter:
    """lam as a RiskParameter; `what` names the caller in the error."""
    risk = lam if isinstance(lam, RiskParameter) else RiskParameter(float(lam))
    if not 0.0 <= risk.lam < math.inf:
        raise ValueError(f"{what} requires finite lam >= 0")
    return risk


def dynamics_support(model: DecPomdpModel):
    """CSR-style support of P over flat (s*A + a) rows; cached on the model.

    Returns (indptr, s', y', log p): the successors of row s*A + a sit at
    positions indptr[s*A + a] : indptr[s*A + a + 1].
    """
    return _support(model)[0]


def _support(model: DecPomdpModel):
    """dynamics_support and its `kernels.pad_support` form, built once per
    model."""
    cached = getattr(model, "_support", None)
    if cached is not None:
        return cached
    S, A, Y = model.state_count, model.joint_action_count, model.joint_obs_count
    flat = model.P.reshape(S * A, S * Y)
    rows, cols = np.nonzero(flat)
    indptr = np.zeros(S * A + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    support = (indptr, (cols // Y).astype(np.int64),
               (cols % Y).astype(np.int64), np.log(flat[rows, cols]))
    model._support = (support, kernels.pad_support(*support, Y))
    return model._support


def logsumexp(vals: np.ndarray, axis: int, out=None) -> np.ndarray:
    """log sum exp of vals along axis, overwriting vals, into out (a new
    array when None). Each output cell is shifted by its own max. A -inf
    max gives -inf (a log of 0); a +inf or nan max stays non-finite through
    any later sum, for the caller's finiteness check."""
    top = vals.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)
    vals -= shift
    acc = np.exp(vals, out=vals).sum(axis=axis)
    return np.add(shift.reshape(acc.shape), np.log(acc), out=out)


def _backup_scratch(model: DecPomdpModel, R: int, Z: int,
                    risk: RiskParameter) -> tuple:
    """Shape of `stage_backup`'s scratch for R restarts: the expectation
    (R, S*A, Z) at lam = 0, the gathered successors (W, S*A, R, Z) of the
    padded support at lam > 0."""
    SA = model.state_count * model.joint_action_count
    if risk.is_neutral:
        return (R, SA, Z)
    return (_support(model)[1][0].shape[0], SA, R, Z)


def stage_backup(model: DecPomdpModel, l_next: np.ndarray,
                 risk: RiskParameter, out: np.ndarray,
                 scratch: np.ndarray = None) -> np.ndarray:
    """Reduced local value q_red[s, a, z] of a stage under L_{t+1}.

    lam = 0: r(s, a) + sum_{s', y'} P(s', y' | s, a) V_{t+1}(s', y', z).
    lam > 0: lam r(s, a) + log sum_{s', y'} P(s', y' | s, a) exp L_{t+1}.
    A leading restart axis of l_next leads out too. `scratch`, of the shape
    `_backup_scratch` gives, holds the intermediate; None allocates it.
    """
    S, Y, Z = l_next.shape[-3:]
    lead = l_next.shape[:-3]
    A = model.r.shape[1]
    if risk.is_neutral:
        p_flat = model.P.reshape(S * A, S * Y)
        ev = np.matmul(p_flat, l_next.reshape(lead + (S * Y, Z)), out=scratch)
        np.add(model.r[:, :, None], ev.reshape(lead + (S, A, Z)), out=out)
    else:
        support, padded = _support(model)
        kernels.tilted_q_log(*support, risk.lam * model.r, l_next, out,
                             pad=padded, scratch=scratch)
    return out


class StagePlan:
    """The operands of a backward recursion's folds, laid out once.

    A plan serves one policy batch, one regime of `risk` (tilted or not),
    the q_red tensor (R, S, A, Z) that `stage_backup` fills and a stack
    `targets` (K, R, S, Y, Z) of the value tensors L_t is folded into. It
    cuts one scratch `arena` into the fold's buffers, the stage backup's
    `scratch` when it is given the `model` whose stages it backs up, and
    the buffers of `phases`, which it leaves in `extra` (see `_scratch`).
    The plan holds views of its arrays and of the policy's tables, none per
    stage, so its size does not depend on T; a stage forms only its rows'
    views. `batched=False` names a caller without a restart axis in its
    errors.
    """

    __slots__ = ("contract", "q_in", "q_out", "folded", "targets", "paired",
                 "batch", "risk", "q_red", "batched", "extra", "scratch",
                 "arena")

    def __init__(self, batch: PolicyBatch, risk: RiskParameter,
                 q_red: np.ndarray, targets: np.ndarray, *phases,
                 model: DecPomdpModel = None, batched: bool = True):
        R, S, _, Z = q_red.shape
        sizes = [tab.shape[2:] for tab in batch.tables]   # (Y, W, A, Z)
        a_w = tuple(d for _, w, a, _ in sizes for d in (a, w))
        y_w = tuple(d for y, w, _, _ in sizes for d in (y, w))
        ks = [a * w for _, w, a, _ in sizes]
        js = [y * w for y, w, _, _ in sizes]
        logs = not risk.is_neutral
        backup = [None if model is None
                  else _backup_scratch(model, R, Z, risk)]
        fold, (self.scratch,), *self.extra = _scratch(
            _Contraction.shapes(R, S, ks, js, logs), backup, *phases)
        self.arena = fold[0].base   # every buffer views the one arena
        self.contract = _Contraction(batch, ks, js, logs, fold)
        self.q_in = _paired_view(q_red, a_w[::2], a_w[1::2])
        self.q_out = fold[0].reshape((R, S) + a_w)
        self.folded = fold[-1].reshape((R, S) + y_w)
        self.targets = targets
        self.paired = _paired_view(targets, y_w[::2], y_w[1::2])
        self.batch, self.risk, self.q_red = batch, risk, q_red
        self.batched = batched

    def fold(self, t: int, k: int) -> np.ndarray:
        """`fold_stage` of stage t (1-based) from q_red into targets[k].

        The contraction leaves the agents' (y^i, w^i) axes paired; they are
        copied once into a paired view of the target, which may be strided.
        Raises NumericError at the first non-finite cell.
        """
        np.copyto(self.q_out, self.q_in)
        self.contract(t)
        np.copyto(self.paired[k], self.folded)
        out = self.targets[k]
        if not np.isfinite(out).all():
            r, s, y, w = (int(c) for c in np.argwhere(~np.isfinite(out))[0])
            where = f" of restart {r}" if self.batched else ""
            raise NumericError(
                f"nonfinite tilted value at t={t}, cell={(s, y, w)}{where}"
            )
        return out


def fold_stage(policy: JointPolicy, t: int, q_red: np.ndarray,
               risk: RiskParameter, out: np.ndarray) -> np.ndarray:
    """L_t[s, y, w] = the stage-t (1-based) policy rows folded into q_red.

    lam = 0: sum_{a, z} prod_i pi^i_t(a^i, z^i | y^i, w^i) q_red[s, a, z],
    taken one agent at a time; lam > 0: the same sum in the log domain. A
    batch's restart axis leads q_red and out, which may be strided. One
    `StagePlan.fold` on a plan of this call; raises NumericError at the
    first non-finite cell, and ValueError when t is outside 1..T.
    """
    check_stage(t, policy.horizon)
    batch = _as_batch(policy)
    if batch is not policy:
        q_red, out = q_red[None], out[None]
    plan = StagePlan(batch, risk, q_red, out[None], batched=batch is policy)
    plan.fold(t, 0)
    return out if batch is policy else out[0]


def backward(model: DecPomdpModel, policy: JointPolicy, lam,
             out: np.ndarray = None) -> np.ndarray:
    """The backward recursion t = T..1; returns L_1.

    With a (T, S, Y, Z) `out`, L_t is kept in out[t - 1] for every t. For a
    PolicyBatch of R restarts, L_1 and `out` carry a leading restart axis:
    (R, S, Y, Z) and (R, T, S, Y, Z). The stages run on one `StagePlan`.
    """
    risk = finite_risk(lam, "tilted recursion")
    _check_dims(model, policy)
    S, Y = model.state_count, model.joint_obs_count
    A, T = model.joint_action_count, model.horizon
    Z = math.prod(policy.agent_state_sizes)
    batch = _as_batch(policy)
    lead = () if batch is not policy else (batch.size,)
    _check_out(out, lead + (T, S, Y, Z))
    R = batch.size
    q_red = np.empty((R, S, A, Z))
    if out is None:
        # L_t alternates between two tensors, L_{T+1} = 0 in the first
        targets = np.zeros((2, R, S, Y, Z))
        l_next = targets[0]
    else:
        targets = (out if batch is policy else out[None]).swapaxes(0, 1)
        l_next = np.zeros((R, S, Y, Z))
    plan = StagePlan(batch, risk, q_red, targets, model=model,
                     batched=batch is policy)
    l_next = _recurse(model, plan, l_next, alternate=out is None)
    return l_next if batch is policy else l_next[0]


def _recurse(model: DecPomdpModel, plan: StagePlan, l_next: np.ndarray,
            alternate: bool = True) -> np.ndarray:
    """Stages t = T..1 on the plan from L_{T+1} = l_next; returns L_1, L_t
    folded into targets[t % 2] if `alternate`, else into targets[t - 1]."""
    with kernels.quiet_overflow():
        for t in range(model.horizon, 0, -1):
            stage_backup(model, l_next, plan.risk, plan.q_red,
                         scratch=plan.scratch)
            l_next = plan.fold(t, t % 2 if alternate else t - 1)
    return l_next


def evaluate_exact(model: DecPomdpModel, policy: JointPolicy,
                   workspace=None):
    """Risk-neutral J: the lam = 0 backward recursion, then the expectation
    over zeta1 (x) phi. A float for a JointPolicy, one value per restart for
    a PolicyBatch. Raises NumericError when a value overflows. With a
    `solver.SolveWorkspace`, it recurses on the workspace's layout.
    """
    risk = RiskParameter(0.0)
    if workspace is None:
        l1 = backward(model, policy, risk)
    else:
        batch = _as_batch(policy)
        plan = workspace.layout(model, batch, risk)
        l_next = plan.targets[0]
        l_next[...] = 0.0
        l1 = _recurse(model, plan, l_next)
        if batch is not policy:
            l1 = l1[0]
    return aggregate_initial(model, policy, l1, risk)


def evaluate_risk(model: DecPomdpModel, policy: JointPolicy, lam):
    """Risk-seeking objective via the backward tilted-value recursion.

    Aggregates the t=1 tilted values through the certainty-equivalent wrapper
    (1/lam) log sum zeta1 phi exp(lam V_1); plain expectation at lam ~ 0.
    A float for a JointPolicy, one value per restart for a PolicyBatch.
    """
    risk = finite_risk(lam, "risk-seeking evaluation")
    return aggregate_initial(model, policy, backward(model, policy, risk),
                             risk)


def aggregate_initial(model: DecPomdpModel, policy: JointPolicy,
                      l1: np.ndarray, risk: RiskParameter):
    """Fold L_1 with zeta1 (x) phi into the scalar objective.

    A PolicyBatch folds all restarts in one call, into an array with one
    value per restart, each restart getting the bits it gets alone; a
    JointPolicy is the batch of one, its value a float.
    """
    phi = joint_phi(policy)
    if isinstance(policy, PolicyBatch):
        return _aggregate(model.zeta1, phi, l1, risk)
    return float(_aggregate(model.zeta1, phi[None], l1[None], risk)[0])


def _aggregate(zeta1, phi, l1, risk: RiskParameter) -> np.ndarray:
    """The objective of each restart from its joint phi (R, Z) and L_1
    (R, S, Y, Z)."""
    if risk.is_neutral:
        if zeta1.size == 2 and len(phi) > 1:
            # numpy's einsum sums a batch of two-cell zeta1 in another order
            # than it sums one restart's
            return np.concatenate([_aggregate(zeta1, p[None], x[None], risk)
                                   for p, x in zip(phi, l1)])
        return np.einsum("sy,rz,rsyz->r", zeta1, phi, l1)
    with np.errstate(divide="ignore"):
        x = np.log(zeta1)[None, :, :, None] + np.log(phi)[:, None, None, :]
    x += l1
    x = x.reshape(len(x), -1)
    m = x.max(axis=1, keepdims=True)
    x -= m
    acc = np.exp(x, out=x).sum(axis=1)
    return (m[:, 0] + np.log(acc)) / risk.lam


def rollout_monte_carlo(model: DecPomdpModel, policy: JointPolicy,
                        episodes: int, seed: int, chunk: int = 4096):
    """Seeded simulation of the generative process; returns (mean, stderr).

    Every draw is from a row of zeta1, a phi^i, an agent's table at
    (t, y^i, w^i) or P at (s, a). Their CDFs are built once per call with
    the category axis leading, and each step gathers one column per episode.
    The draws depend on the seed and on the chunk size.
    """
    _check_dims(model, policy)
    for name, value, low in (("episodes", episodes, 1), ("chunk", chunk, 1),
                             ("seed", seed, 0)):
        if not is_int(value, low):
            raise ValueError(f"{name} must be an integer >= {low}, "
                             f"got {value!r}")
    rng = np.random.default_rng(int(seed))
    Y, A = model.joint_obs_count, model.joint_action_count
    y_comps = joint_components(model.obs_counts)
    y_sizes, a_sizes = model.obs_counts, model.action_counts
    z_sizes = policy.agent_state_sizes
    zeta_cdf = _cdf_columns(model.zeta1.reshape(1, -1))
    phi_cdfs = [_cdf_columns(p.reshape(1, -1)) for p in policy.phi]
    tab_cdfs = [_cdf_columns(tab.reshape(-1, a * z))
                for tab, a, z in zip(policy.tables, a_sizes, z_sizes)]
    p_cdf = _cdf_columns(model.P.reshape(model.state_count * A, -1))
    totals = np.zeros(episodes)
    done = 0
    while done < episodes:
        e = min(chunk, episodes - done)
        sy = _draw(rng, zeta_cdf, e)
        s, y = sy // Y, sy % Y
        w = [_draw(rng, cdf, e) for cdf in phi_cdfs]
        reward = np.zeros(e)
        for t in range(model.horizon):
            a = np.zeros(e, dtype=np.int64)
            for i, cdf in enumerate(tab_cdfs):
                row = (t * y_sizes[i] + y_comps[i][y]) * z_sizes[i] + w[i]
                pick = _draw(rng, np.take(cdf, row, axis=1), e)
                a = a * a_sizes[i] + pick // z_sizes[i]
                w[i] = pick % z_sizes[i]
            reward += model.r[s, a]
            if t + 1 < model.horizon:
                nxt = _draw(rng, np.take(p_cdf, s * A + a, axis=1), e)
                s, y = nxt // Y, nxt % Y
        totals[done:done + e] = reward
        done += e
    mean = float(totals.mean())
    if episodes == 1:
        return mean, 0.0
    stderr = float(totals.std(ddof=1) / np.sqrt(episodes))
    return mean, stderr


def _cdf_columns(rows) -> np.ndarray:
    """(K, n) running sums of the n rows of a (n, K) probability matrix.

    cumsum adds left to right, so a column equals the cumsum of its row
    taken on its own, bit for bit.
    """
    return np.ascontiguousarray(np.cumsum(rows, axis=1).T)


def _draw(rng, cdf, n) -> np.ndarray:
    """One categorical draw per column of a (K, n) CDF; a (K, 1) CDF is
    shared by all n draws.

    The draw is the number of CDF entries below u, counted in the smallest
    integer type that holds K, whose column sum numpy vectorizes.
    """
    u = rng.random(n) * cdf[-1]
    k = cdf.shape[0]
    below = (u > cdf).sum(axis=0, dtype=np.min_scalar_type(k))
    return np.minimum(below, k - 1).astype(np.intp)
