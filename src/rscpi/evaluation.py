"""Policy evaluation: forward marginals, the backward recursion, the
averaged local value, and a seeded Monte-Carlo rollout cross-check.

The backward recursion walks t = T..1 over the chain on (state, joint
observation, joint agent state). Each stage is one `stage_backup`, which
reduces L_{t+1} to q_red[s, a, z], and one `StagePlan.fold`, which folds
the stage's policy rows into L_t. Values are carried in the log domain as
L_t = lam * V_t for lam > 0 and as plain V_t at lam = 0, so the same tensors
stay finite for any reward scale. `backward` is the one recursion: exact
evaluation and risk-seeking evaluation read its L_1. A sweep of policy
iteration runs the same two steps with its agent updates
(`StagePlan.local_q`) between them.

The fold and the forward marginals never form the joint policy table
M_t = prod_i pi^i_t, of prod_i |Y^i| |Z^i|^2 |A^i| floats: they contract one
agent at a time, by a batched matmul at lam = 0 and a logsumexp at lam > 0.
The averaged local value takes only the co-agents' rows.

Stage layout. Every layout of a stage depends only on the model's sizes,
the agent-state sizes, the restart count and the agent: its pair and unpair
permutations, its reshape targets and its matmul operands. So a recursion
lays its stages out once, in a `StagePlan`: `_scratch` cuts one flat
float64 arena into the buffers the stages write, phases that never run at
once sharing its memory, and the plan holds the strided views of those
buffers and of the tensors the recursion reads and writes. The arena holds
the fold's buffers and the stage backup's intermediates; a plan given the
marginals `zeta` also holds each agent's averaged local value
(`_LocalQLayout`) and the forward step into zeta (`StagePlan.forward`). A
stage forms only the views of its policy rows (stage t - 1 of a table) and
runs `np.copyto`, `np.matmul(out=)` and ufuncs with `out=` on the prepared
operands. Nothing of a plan depends on T. A `SolveWorkspace` is built for
one model and one policy object and keeps their plan (`layout`), which
their forward steps, sweeps and exact evaluations share while the regime
(tilted or not) holds. A lone `forward_marginals` call runs on a workspace
of its own; a lone `backward` call lays out a plan without the marginals.

The forward marginals, both steps, `backward`, `evaluate_exact` and
`evaluate_risk` also take a `PolicyBatch`: its leading restart axis leads
every tensor they read and write, and each restart's slice gets the bits
it would get alone. A `JointPolicy` runs as a batch of one.

The stage backup is one matmul in both regimes, P's flat table in Fortran
order (`DecPomdpModel.P_flat`) times L_{t+1}, at lam > 0 its shifted exp.
P's sparse support is built once per model, in one form (`_support`): each
row's successors padded to the longest row's W by cells whose p = 0.0 and
log p = -inf, so that they drop out of every sum by their value. Its
successors and log p serve only the cells of a tilted backup whose shifted
sum underflows (`kernels.tilted_q_log`); the rollout reads its successors
and p.

The Monte-Carlo rollout builds the CDF of every distribution it draws from
once per call and samples episodes from them in chunks of ROLLOUT_CHUNK;
its results are reproducible per seed. It draws each successor from the W
cells of P's support, not from all S * Y, and reads each index a step
needs, the next state's row and the agents' columns, from tables built
once per call. A draw never lands on a zero-probability category.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import DecPomdpModel, is_int
from .policy import JointPolicy, PolicyBatch

ZERO_THRESHOLD = 1e-9
MARGINAL_ATOL = 1e-8
ROLLOUT_CHUNK = 4096   # episodes `rollout_monte_carlo` draws at a time


def is_neutral(lam) -> bool:
    """Whether the tilt lam takes the plain expectation.

    The certainty equivalent of a random return X under lam is
    (1/lam) * log E[exp(lam X)]; lam > 0 weights high outcomes (risk
    seeking), and lam -> 0 recovers the plain expectation. Below
    ZERO_THRESHOLD every recursion takes the plain expectation; a nan lam
    takes the tilted path.
    """
    return abs(lam) < ZERO_THRESHOLD


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


def check_fit(model: DecPomdpModel, policy: JointPolicy, z_sizes=None,
              name: str = "policy"):
    """Raise ValueError naming the first field of policy (or of a
    PolicyBatch) that does not fit the model: its horizon, agent count,
    action counts and observation counts, then its agent-state sizes when
    z_sizes is given."""
    fields = [("horizon", policy.horizon, model.horizon),
              ("n_agents", policy.n_agents, model.n_agents),
              ("action_counts", policy.action_counts(), model.action_counts),
              ("obs_counts", policy.obs_counts(), model.obs_counts)]
    if z_sizes is not None:
        fields.append(("agent_state_sizes", policy.agent_state_sizes,
                       tuple(int(z) for z in z_sizes)))
    for field, got, want in fields:
        if got != want:
            raise ValueError(f"{name} {field} is {got}, expected {want}")


def _scratch(*phases):
    """C-ordered float64 buffers of the given shapes, cut from one new flat
    arena.

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
    arena = np.empty(top)
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
                    np.copyto(terms, m_terms)   # see StagePlan.local_q
                    np.add(terms, x_terms, out=terms)
                    logsumexp(terms, axis=1, out=out)
            return
        for left, right, x, out in self.steps:
            if right is None:
                np.matmul(left[t - 1], x, out=out)
            else:
                np.matmul(x, right[t - 1], out=out)


def finite_risk(lam, what: str) -> float:
    """lam as a float, refused unless finite and >= 0; `what` names the
    caller in the error."""
    lam = float(lam)
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"{what} requires finite lam >= 0")
    return lam


def _support(model: DecPomdpModel):
    """P's support padded by value, (succ, p, log p), built once per model.

    Each is (W, S*A), W the longest row's length: column s*A + a lists the
    successors of row (s, a), each as s' * Y + y', in `np.nonzero` order,
    with their p and log p. A shorter row is padded with p = 0.0 and
    log p = -inf, so a pad cell drops out of a sum or a logsumexp by its
    value. Its successor repeats the row's last, so a non-finite value
    gathered there already spoils the row through that last cell.
    """
    cached = getattr(model, "_support", None)
    if cached is not None:
        return cached
    S, A, Y = model.state_count, model.joint_action_count, model.joint_obs_count
    flat = model.P.reshape(S * A, S * Y)
    rows, cols = np.nonzero(flat)
    lengths = np.bincount(rows, minlength=S * A)
    ends = np.cumsum(lengths)
    k = np.arange(lengths.max(initial=0))[:, None]
    succ = cols[np.minimum(ends - lengths + k, ends - 1)]
    p = np.where(k < lengths, flat[np.arange(S * A), succ], 0.0)
    with np.errstate(divide="ignore"):
        model._support = (succ, p, np.log(p))
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


def stage_backup(model: DecPomdpModel, l_next: np.ndarray, lam: float,
                 out: np.ndarray, scratch=None) -> np.ndarray:
    """Reduced local value q_red[s, a, z] of a stage under L_{t+1}.

    lam = 0: r(s, a) + sum_{s', y'} P(s', y' | s, a) V_{t+1}(s', y', z).
    lam > 0: lam r(s, a) + log sum_{s', y'} P(s', y' | s, a) exp L_{t+1}.
    Both are one matmul, `model.P_flat` times L_{t+1} (or its shifted exp,
    `kernels.tilted_q_log`) as (S*Y, Z), so that columns of L_{t+1} that
    are equal give equal columns of q_red. A leading restart axis of l_next
    leads out too. `scratch` holds the intermediates for R restarts: the
    matmul's (R, S*A, Z), after the shifted exp's (R, S*Y, Z) at lam > 0;
    None allocates them.
    """
    S, Y, Z = l_next.shape[-3:]
    lead = l_next.shape[:-3]
    A = model.r.shape[1]
    if not is_neutral(lam):
        succ, _, logp = _support(model)
        return kernels.tilted_q_log(model.P_flat, (succ, logp), lam * model.r,
                                    l_next, out, scratch=scratch)
    ev = np.matmul(model.P_flat, l_next.reshape(lead + (S * Y, Z)),
                   out=None if scratch is None else scratch[-1])
    np.add(model.r[:, :, None], ev.reshape(lead + (S, A, Z)), out=out)
    return out


@dataclass
class AveragedLocalQ:
    """Averaged stage value of one agent's (a^i, z^i) choice at (y^i, z^i_-).

    For lam > 0 `table` holds log sum_cells zeta * copi * exp(lam Q); at
    lam = 0 the plain weighted sum. `mass` is the marginal probability of
    each (y^i, z^i_-) cell; cells with zero mass are unreachable and carry
    no information. For a batch both carry a leading restart axis.
    """

    table: np.ndarray       # (Y_i, Z_i, A_i, Z_i) weights, log or plain
    mass: np.ndarray        # (Y_i, Z_i)

    @property
    def reachable(self) -> np.ndarray:
        return self.mass > 0.0


class _LocalQLayout:
    """`StagePlan.local_q`'s operands for one agent, laid out once.

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

    def __init__(self, model, batch, zeta, q_red, agent):
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
        self.zeta_in = zeta.reshape(
            (R, T, S) + y_sizes + w_sizes, copy=False).transpose(
            1, 2, *[3 + j for j in co], *[3 + n + j for j in co], 0,
            3 + agent, 3 + n + agent)
        # (R, S, A.., Z..) -> (S, co A.., co Z.., R, a^i, z^i)
        self.q_in = q_red.reshape(
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


class StagePlan:
    """The operands of a backward recursion's stages, laid out once.

    A plan serves one model, one policy batch, one regime (`tilted` or
    not), the q_red tensor (R, S, A, Z) that `stage_backup` fills and a
    stack `targets` (K, R, S, Y, Z) of the value tensors L_t is folded
    into. It cuts one scratch arena into the fold's buffers and the stage
    backup's `scratch`. Given also the marginals `zeta` (R, T, S, Y, Z), it
    lays out each agent's averaged local value in `local` and the forward
    step that `forward` runs into zeta, always untilted; none of these
    phases are in use at once. The plan holds views of its arrays and of
    the policy's tables, none per stage, so its size does not depend on T;
    a stage forms only its rows' views. Its errors name the restart when
    there is more than one.
    """

    __slots__ = ("contract", "q_in", "q_out", "folded", "targets", "paired",
                 "batch", "tilted", "q_red", "scratch", "local",
                 "model", "zeta", "forward_ops")

    def __init__(self, model: DecPomdpModel, batch: PolicyBatch,
                 tilted: bool, q_red: np.ndarray, targets: np.ndarray,
                 zeta: np.ndarray = None):
        R, S, A, Z = q_red.shape
        Y = targets.shape[-2]
        sizes = [tab.shape[2:] for tab in batch.tables]   # (Y, W, A, Z)
        a_w = tuple(d for _, w, a, _ in sizes for d in (a, w))
        y_w = tuple(d for y, w, _, _ in sizes for d in (y, w))
        ks = [a * w for _, w, a, _ in sizes]
        js = [y * w for y, w, _, _ in sizes]
        backup = [(R, S * Y, Z)] * tilted + [(R, S * A, Z)]  # see stage_backup
        local, phases = [], []
        if zeta is not None:
            local = [_LocalQLayout(model, batch, zeta, q_red, i)
                     for i in range(model.n_agents)]
            # the forward step's: contraction, occupancy, next marginal, mass
            phases = [lay.spec for lay in local] + [
                _Contraction.shapes(R, S, js, ks, False)
                + [(R, S, A, Z), (R, Z, S * Y), (R, 1, 1, 1)]]
        fold, self.scratch, *bufs = _scratch(
            _Contraction.shapes(R, S, ks, js, tilted), backup, *phases)
        for lay, lay_bufs in zip(local, bufs):
            lay.bind(lay_bufs)
        self.forward_ops = None
        if zeta is not None:
            *steps, occ, nxt, total = bufs[-1]
            self.forward_ops = (
                _paired_view(zeta.swapaxes(0, 1), y_w[::2], y_w[1::2]),
                steps[0].reshape((R, S) + y_w),
                _Contraction(batch, js, ks, False, steps, forward=True),
                _paired_view(occ, a_w[::2], a_w[1::2]),
                steps[-1].reshape((R, S) + a_w),
                occ.reshape(R, S * A, Z).swapaxes(-1, -2), nxt, total)
        self.contract = _Contraction(batch, ks, js, tilted, fold)
        self.q_in = _paired_view(q_red, a_w[::2], a_w[1::2])
        self.q_out = fold[0].reshape((R, S) + a_w)
        self.folded = fold[-1].reshape((R, S) + y_w)
        self.targets = targets
        self.paired = _paired_view(targets, y_w[::2], y_w[1::2])
        self.batch, self.tilted, self.q_red = batch, tilted, q_red
        self.local, self.model, self.zeta = local, model, zeta

    def forward(self) -> np.ndarray:
        """`forward_marginals` of the plan's batch into `zeta`, returned.

        Each step copies zeta_t's agents' (y^i, w^i) axes paired into the
        contraction, which trades them for (a^i, z^i) under the stage's
        rows, copies the occupancy back unpaired and pushes it through P.
        It runs untilted in either regime and returns before a sweep's
        first stage writes the arena.
        """
        (pair_in, pair_out, contract, unpair_out, unpair_in, occ, nxt,
         total) = self.forward_ops
        model, zeta = self.model, self.zeta
        R, _, S, Y, Z = zeta.shape
        # two plain reshapes per call: each view a plan holds stays under
        # every stage's peak
        p_flat = model.P.reshape(S * model.joint_action_count, S * Y)
        nxt_t = nxt.swapaxes(-1, -2).reshape(R, S, Y, Z)
        phi = joint_phi(self.batch)
        zeta[:, 0] = model.zeta1[:, :, None] * phi[:, None, None, :]
        for t in range(1, model.horizon):
            np.copyto(pair_out, pair_in[t - 1])
            contract(t)
            np.copyto(unpair_out, unpair_in)
            np.matmul(occ, p_flat, out=nxt)
            cur = zeta[:, t]
            np.copyto(cur, nxt_t)
            np.add.reduce(cur, axis=(1, 2, 3), out=total, keepdims=True)
            off = np.abs(total - 1.0) > MARGINAL_ATOL
            if off.any():
                raise ValueError(
                    f"marginal at t={t + 1} sums to {total[off].flat[0]:.12g}"
                    "; dynamics or policy rows are not normalized"
                )
            np.divide(cur, total, out=cur)
        return zeta

    def fold(self, t: int, k: int) -> np.ndarray:
        """L_t[s, y, w] = the stage-t (1-based) policy rows folded into
        q_red, written into targets[k] and returned.

        Untilted: sum_{a, z} prod_i pi^i_t(a^i, z^i | y^i, w^i)
        q_red[s, a, z], taken one agent at a time; tilted: the same sum in
        the log domain.
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
            where = f" of restart {r}" if len(out) > 1 else ""
            raise NumericError(
                f"nonfinite tilted value at t={t}, cell={(s, y, w)}{where}"
            )
        return out

    def local_q(self, t: int, agent: int) -> AveragedLocalQ:
        """The averaged local value of agent at stage t (1-based): the
        stage's backed-up q_red averaged over zeta_t and the co-agents'
        rows, with the restart axis of the plan's batch.

        zeta_t (R, S, Y, Z) varies along (s, y, w), the co-agents' policy
        along their own (y, w, a, z) axes, q_red (R, S, A, Z) along
        (s, a, z). The co-agents' (y, w) axes meet only the first two, so
        they are summed out first:
        b[s, co (a, z), restart, y^i w^i] = sum_{co (y, w)} zeta * copi.
        Then each (restart, y^i, w^i, a^i, z^i) column sums b * q over its
        (s, co (a, z)) rows. Both are elementwise products and axis sums,
        which add one row at a time whatever R is, so a batch gives each
        restart its lone bits, and columns that differ only in z'^i get the
        same operations. b adds probabilities only, so it is summed in the
        plain domain at every lam; lam > 0 takes the second sum over
        log b + q as a logsumexp, every output cell shifted by its own max
        before the exp. A product zeta * copi below the smallest subnormal
        (~5e-324) drops out of b, as it already does inside zeta_{t+1},
        which the forward step also forms in the plain domain.
        """
        lay = self.local[agent]
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
        if self.tilted:
            with np.errstate(divide="ignore"):
                np.log(lay.b, out=lay.b)
                np.add(second, lay.b, out=second)
                logsumexp(second, axis=(0, 1), out=lay.table)
        else:
            np.multiply(second, lay.b, out=second)
            np.add.reduce(second, axis=(0, 1), out=lay.table)
        return AveragedLocalQ(table=lay.table, mass=lay.mass)


class SolveWorkspace:
    """The work tensors and the stage plan of one policy on one model, kept
    across a solve's steps.

    It is built for one `model` and one `policy` object, a JointPolicy or
    a PolicyBatch of R restarts, which `batch` views as a batch (of one for
    a JointPolicy). Every tensor has that restart axis: the marginal
    trajectory `zeta` (R, T, S, Y, Z), the two alternating value tensors
    stacked in `l` (2, R, S, Y, Z) and `q_red` (R, S, A, Z), which is
    scratch. `peak_floats` counts the first two, R * (T*S*Y*Z + 2*S*Y*Z)
    floats. Forward steps, sweeps and exact evaluations on the workspace
    share the `StagePlan` that `layout` keeps in `plan`, whose arena
    `peak_floats` does not count: the plan lays each of them out once, the
    forward step in either regime. They refuse a workspace built for
    another model or another policy object (`SolveWorkspace.of`).
    """

    def __init__(self, model: DecPomdpModel, policy: JointPolicy):
        check_fit(model, policy)
        self.model, self.policy = model, policy
        self.batch = batch = PolicyBatch.of(policy)
        S, Y = model.state_count, model.joint_obs_count
        A, T = model.joint_action_count, model.horizon
        R, Z = batch.size, math.prod(batch.agent_state_sizes)
        self.zeta = np.zeros((R, T, S, Y, Z))
        self.l = np.zeros((2, R, S, Y, Z))
        self.q_red = np.zeros((R, S, A, Z))
        self.peak_floats = self.zeta.size + self.l.size
        self.plan = None

    @classmethod
    def of(cls, model: DecPomdpModel, policy: JointPolicy,
           workspace: "SolveWorkspace" = None) -> "SolveWorkspace":
        """`workspace`, refused with ValueError unless it was built for
        this model and this policy object; a new one when None."""
        if workspace is None:
            return cls(model, policy)
        if workspace.model is not model:
            raise ValueError("workspace was built for another model")
        if workspace.policy is not policy:
            raise ValueError("workspace was built for another policy")
        return workspace

    def layout(self, tilted: bool = None) -> StagePlan:
        """The `StagePlan` of the policy on these tensors, in the regime
        `tilted`.

        The kept plan is reused in that regime, or in either regime when
        tilted is None. Otherwise it is dropped before the next one is laid
        out (untilted when tilted is None), so that one arena lives at a
        time.
        """
        plan = self.plan
        if plan is None or tilted is not None and plan.tilted != tilted:
            plan = self.plan = None   # free the old arena first
            plan = self.plan = StagePlan(self.model, self.batch,
                                         bool(tilted), self.q_red, self.l,
                                         zeta=self.zeta)
        return plan


def forward_marginals(model: DecPomdpModel, policy: JointPolicy,
                      workspace: SolveWorkspace = None) -> np.ndarray:
    """Forward recursion for zeta_t(s, y, z_), t = 1..T, returned as one
    (T, S, Y, Z) tensor ((R, T, S, Y, Z) for a batch of R restarts) whose
    index t - 1 holds zeta_t.

    zeta_1 = zeta1 (x) phi; each later step trades each agent's (y^i, w^i)
    axes of the occupancy for its (a^i, z^i) under the previous policy rows
    and pushes the result through the joint dynamics. Each tensor is
    renormalized when its mass drifts within 1e-8 of 1, and errors beyond.
    The steps run as `StagePlan.forward`, on the plan that the workspace's
    `layout` keeps, in either regime, and into its `zeta`; with no
    workspace, on one built for this call.
    """
    zeta = SolveWorkspace.of(model, policy, workspace).layout().forward()
    return zeta if isinstance(policy, PolicyBatch) else zeta[0]


def backward(model: DecPomdpModel, policy: JointPolicy, lam,
             workspace: SolveWorkspace = None) -> np.ndarray:
    """The backward recursion t = T..1 from L_{T+1} = 0; returns L_1.

    For a PolicyBatch of R restarts, L_1 carries a leading restart axis,
    (R, S, Y, Z). The stages run on one `StagePlan`: the workspace's
    `layout` when a `SolveWorkspace` is given, else a plan of this call
    without the marginals. L_t alternates between the plan's two targets,
    L_t in targets[t % 2].
    """
    lam = finite_risk(lam, "tilted recursion")
    tilted = not is_neutral(lam)
    if workspace is None:
        check_fit(model, policy)
        batch = PolicyBatch.of(policy)
        S, Y = model.state_count, model.joint_obs_count
        A, R = model.joint_action_count, batch.size
        Z = math.prod(batch.agent_state_sizes)
        plan = StagePlan(model, batch, tilted, np.empty((R, S, A, Z)),
                         np.empty((2, R, S, Y, Z)))
    else:
        plan = SolveWorkspace.of(model, policy, workspace).layout(tilted)
    l_next = plan.targets[0]
    l_next[...] = 0.0
    with kernels.quiet_overflow():
        for t in range(model.horizon, 0, -1):
            stage_backup(model, l_next, lam, plan.q_red,
                         scratch=plan.scratch)
            l_next = plan.fold(t, t % 2)
    return l_next if plan.batch is policy else l_next[0]


def evaluate_exact(model: DecPomdpModel, policy: JointPolicy,
                   workspace: SolveWorkspace = None):
    """Risk-neutral J: the lam = 0 backward recursion, then the expectation
    over zeta1 (x) phi. A float for a JointPolicy, one value per restart for
    a PolicyBatch. Raises NumericError when a value overflows. With a
    `SolveWorkspace`, it recurses on the workspace's layout.
    """
    return aggregate_initial(model, policy,
                             backward(model, policy, 0.0, workspace), 0.0)


def evaluate_risk(model: DecPomdpModel, policy: JointPolicy, lam):
    """Risk-seeking objective via the backward tilted-value recursion.

    Aggregates the t=1 tilted values through the certainty-equivalent wrapper
    (1/lam) log sum zeta1 phi exp(lam V_1); plain expectation at lam ~ 0.
    A float for a JointPolicy, one value per restart for a PolicyBatch.
    """
    lam = finite_risk(lam, "risk-seeking evaluation")
    return aggregate_initial(model, policy, backward(model, policy, lam),
                             lam)


def aggregate_initial(model: DecPomdpModel, policy: JointPolicy,
                      l1: np.ndarray, lam: float):
    """Fold L_1 with zeta1 (x) phi into the scalar objective.

    A PolicyBatch folds all restarts in one call, into an array with one
    value per restart, each restart getting the bits it gets alone; a
    JointPolicy is the batch of one, its value a float.
    """
    phi = joint_phi(policy)
    if isinstance(policy, PolicyBatch):
        return _aggregate(model.zeta1, phi, l1, lam)
    return float(_aggregate(model.zeta1, phi[None], l1[None], lam)[0])


def _aggregate(zeta1, phi, l1, lam: float) -> np.ndarray:
    """The objective of each restart from its joint phi (R, Z) and L_1
    (R, S, Y, Z)."""
    if is_neutral(lam):
        if zeta1.size == 2 and len(phi) > 1:
            # numpy's einsum sums a batch of two-cell zeta1 in another order
            # than it sums one restart's
            return np.concatenate([_aggregate(zeta1, p[None], x[None], lam)
                                   for p, x in zip(phi, l1)])
        return np.einsum("sy,rz,rsyz->r", zeta1, phi, l1)
    with np.errstate(divide="ignore"):
        x = np.log(zeta1)[None, :, :, None] + np.log(phi)[:, None, None, :]
    x += l1
    return logsumexp(x.reshape(len(x), -1), axis=1) / lam


def rollout_monte_carlo(model: DecPomdpModel, policy: JointPolicy,
                        episodes: int, seed: int):
    """Seeded simulation of the generative process; returns (mean, stderr).

    Every draw is from a row of zeta1, a phi^i, an agent's table at
    (t, y^i, w^i) or P at (s, a). Their CDFs are built once per call with
    the category axis leading, and each step gathers one column per episode.
    P is drawn on its support (`_support`), W successors a row, and
    the positions drawn, like every other index a step needs, are read from
    tables built once per call. The draws depend on the seed and on
    ROLLOUT_CHUNK. A PolicyBatch is refused: its phi would be read as one
    distribution.
    """
    if isinstance(policy, PolicyBatch):
        raise ValueError("rollout_monte_carlo simulates one JointPolicy, "
                         "not a PolicyBatch; roll out each of its policies")
    check_fit(model, policy)
    for name, value, low in (("episodes", episodes, 1), ("seed", seed, 0)):
        if not is_int(value, low):
            raise ValueError(f"{name} must be an integer >= {low}, "
                             f"got {value!r}")
    rng = np.random.default_rng(int(seed))
    S, Y = model.state_count, model.joint_obs_count
    A, T = model.joint_action_count, model.horizon
    SA = S * A
    y_comps = np.unravel_index(np.arange(Y), model.obs_counts)
    a_sizes, z_sizes = model.action_counts, policy.agent_state_sizes
    zeta_cdf = _cdf_columns(model.zeta1.reshape(1, -1))
    phi_cdfs = [_cdf_columns(p.reshape(1, -1)) for p in policy.phi]
    # stage t's (A_i Z_i, Y_i Z_i) CDF, its columns at y^i Z_i + w^i
    tab_cdfs = [np.ascontiguousarray(_cdf_columns(tab.reshape(-1, a * z))
                                     .reshape(a * z, T, -1).swapaxes(0, 1))
                for tab, a, z in zip(policy.tables, a_sizes, z_sizes)]
    # a pick's share of the flat joint action, and its next agent state
    a_share = [np.arange(a * z) // z * math.prod(a_sizes[i + 1:])
               for i, (a, z) in enumerate(zip(a_sizes, z_sizes))]
    w_next = [np.arange(a * z) % z for a, z in zip(a_sizes, z_sizes)]
    # P on its support, pad cells 0.0: the running sums equal P's own at
    # every successor, so the count below u picks the same successor
    succ, p, _ = _support(model)
    p_cdf = _cdf_columns(p.T)
    # s A and each agent's y^i Z_i at a flat (s, y), then at a support cell
    # k SA + row, k the drawn position
    sy0, sy1 = np.arange(S * Y), succ.reshape(-1)
    s_a0, s_a1 = sy0 // Y * A, sy1 // Y * A
    y_z0 = [c[sy0 % Y] * z for c, z in zip(y_comps, z_sizes)]
    y_z1 = [c[sy1 % Y] * z for c, z in zip(y_comps, z_sizes)]
    r_flat = model.r.reshape(-1)
    totals = np.zeros(episodes)
    done = 0
    while done < episodes:
        e = min(ROLLOUT_CHUNK, episodes - done)
        sy = _draw(rng, zeta_cdf, e)
        s_a, y_z = s_a0[sy], [tab[sy] for tab in y_z0]
        w = [_draw(rng, cdf, e) for cdf in phi_cdfs]
        reward = np.zeros(e)
        for t in range(T):
            row = s_a
            for i, cdf in enumerate(tab_cdfs):
                pick = _draw(rng, np.take(cdf[t], y_z[i] + w[i], axis=1), e)
                row = row + a_share[i][pick]
                w[i] = w_next[i][pick]
            reward += r_flat[row]
            if t + 1 < T:
                cell = _draw(rng, np.take(p_cdf, row, axis=1), e) * SA + row
                s_a, y_z = s_a1[cell], [tab[cell] for tab in y_z1]
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
    taken on its own, bit for bit. The zero sums ahead of a row's first
    positive cell, its last cell aside, are stored as -1.0, below every u
    that `_draw` scales, so that u = 0.0 lands on that first positive cell.
    """
    cdf = np.cumsum(rows, axis=1)
    head = cdf[:, :-1]
    head[head == 0.0] = -1.0
    return np.ascontiguousarray(cdf.T)


def _draw(rng, cdf, n) -> np.ndarray:
    """One categorical draw per column of a (K, n) CDF; a (K, 1) CDF is
    shared by all n draws.

    The draw is the number of CDF entries below u = rng.random(n) times the
    column's last entry, counted in the smallest integer type that holds K,
    whose column sum numpy vectorizes: category k takes u in
    (cdf[k - 1], cdf[k]], and a zero-probability category none, as
    `_cdf_columns` stores the zero sums ahead of a column's first positive
    entry below 0. As rng.random(n) < 1, u never exceeds the last entry, so
    the count is at most K - 1.
    """
    u = rng.random(n) * cdf[-1]
    below = (u > cdf).sum(axis=0, dtype=np.min_scalar_type(cdf.shape[0]))
    return below.astype(np.intp)
