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

The forward marginals, both steps, `backward`, `evaluate_exact` and
`evaluate_risk` also take a `PolicyBatch`: its leading restart axis leads
every tensor they read and write, and each restart's slice gets the bits
it would get alone.

The Monte-Carlo rollout builds the CDF of every distribution it draws from
once per call and samples chunks of episodes from them; its results are
reproducible per (seed, chunk).
"""

from __future__ import annotations

import itertools
import math
import operator
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


def _agent_rows(policy: JointPolicy, t: int) -> list:
    """Each agent's stage-t (0-based) table as a (Y_i W_i, A_i Z_i) matrix,
    behind a batch's restart axis."""
    return [tab[..., t, :, :, :, :].reshape(*tab.shape[:-5], -1,
                                            math.prod(tab.shape[-2:]))
            for tab in policy.tables]


def _paired_view(x: np.ndarray, firsts, seconds) -> np.ndarray:
    """lead + (S, F, G), F and G flat over the agents' F_i and G_i, viewed as
    lead + (S, F_1, G_1, ..., F_N, G_N). Only splits and permutes axes, so
    it views any strided x; the reshape raises rather than copy."""
    n, k = len(firsts), x.ndim - 2
    x = x.reshape(x.shape[:k] + (*firsts, *seconds), copy=False)
    return x.transpose(*range(k),
                       *(k + j for i in range(n) for j in (i, n + i)))


def _pair_axes(x: np.ndarray, firsts, seconds) -> np.ndarray:
    """lead + (S, F, G) as lead + (S, F_1 G_1, ..., F_N G_N), a copy;
    `_unpair_axes` inverts it."""
    x = _paired_view(x, firsts, seconds)
    k = x.ndim - 2 * len(firsts)
    return x.reshape(x.shape[:k] + tuple(map(operator.mul, firsts, seconds)))


def _unpair_axes(x: np.ndarray, firsts, seconds) -> np.ndarray:
    n, k = len(firsts), x.ndim - len(firsts)
    x = x.reshape(x.shape[:k] + tuple(itertools.chain(*zip(firsts, seconds))))
    x = x.transpose(*range(k), *range(k, k + 2 * n, 2),
                    *range(k + 1, k + 2 * n, 2))
    return x.reshape(x.shape[:k] + (math.prod(firsts), math.prod(seconds)))


def _contract_agents(x: np.ndarray, mats: list, logs: bool) -> np.ndarray:
    """x of shape lead + (S, K_1, ..., K_N) contracted with mats[i] of
    shape lead + (J_i, K_i), agent N first, into lead + (S, J_1, ..., J_N).

    Step i is sum_k mats[i][j, k] x[..., k, ...], one batched matmul, or
    with logs=True the logsumexp over k of mats[i][j, k] + x[..., k, ...].
    Its terms put k right behind the lead axes, so that a restart's cells
    reduce alike whatever the batch size.
    """
    lead = mats[0].shape[:-2]
    sizes = list(x.shape[len(lead) + 1:])
    for i in reversed(range(len(mats))):
        m = mats[i]
        k, post = sizes[i], math.prod(sizes[i + 1:])
        x = x.reshape(lead + (-1, k, post))
        if logs:
            terms = np.add(np.swapaxes(m, -1, -2)[..., :, None, :, None],
                           np.swapaxes(x, -2, -3)[..., None, :], order="C")
            x = logsumexp(terms, axis=-4)
        elif post == 1:
            x = x[..., 0] @ np.swapaxes(m, -1, -2)
        else:
            x = m[..., None, :, :] @ x
        sizes[i] = m.shape[-2]
    return x.reshape(x.shape[:len(lead)] + (-1,) + tuple(sizes))


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


def forward_marginals(model: DecPomdpModel, policy: JointPolicy,
                      out=None) -> MarginalTrajectory:
    """Forward recursion for zeta_t(s, y, z_), t = 1..T.

    zeta_1 = zeta1 (x) phi; each later step trades each agent's (y^i, w^i)
    axes of the occupancy for its (a^i, z^i) under the previous policy rows
    and pushes the result through the joint dynamics. Each tensor is
    renormalized when its mass drifts within 1e-8 of 1, and errors beyond.
    """
    _check_dims(model, policy)
    S, Y = model.state_count, model.joint_obs_count
    A = model.joint_action_count
    Z = int(np.prod(policy.agent_state_sizes))
    T = model.horizon
    phi = joint_phi(policy)
    lead = phi.shape[:-1]
    _check_out(out, lead + (T, S, Y, Z))
    zetas = out if out is not None else np.zeros(lead + (T, S, Y, Z))
    zetas[..., 0, :, :, :] = model.zeta1[:, :, None] * phi[..., None, None, :]
    p_flat = model.P.reshape(S * A, S * Y)
    for t in range(1, T):
        rows = [np.swapaxes(m, -1, -2) for m in _agent_rows(policy, t - 1)]
        occ = _pair_axes(zetas[..., t - 1, :, :, :], model.obs_counts,
                         policy.agent_state_sizes)
        occ = _unpair_axes(_contract_agents(occ, rows, logs=False),
                           model.action_counts, policy.agent_state_sizes)
        nxt = np.swapaxes(occ.reshape(lead + (S * A, Z)), -1, -2) @ p_flat
        cur = zetas[..., t, :, :, :]
        cur[...] = np.swapaxes(nxt, -1, -2).reshape(lead + (S, Y, Z))
        total = cur.sum(axis=(-3, -2, -1))
        off = np.abs(total - 1.0) > MARGINAL_ATOL
        if off.any():
            raise ValueError(
                f"marginal at t={t + 1} sums to {total[off].flat[0]:.12g}; "
                "dynamics or policy rows are not normalized"
            )
        cur /= total[..., None, None, None]
    return MarginalTrajectory(values=zetas)


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
    model._support = (support, kernels.pad_support(*support))
    return model._support


def logsumexp(vals: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp of vals along axis, overwriting vals. Each output cell is
    shifted by its own max. A -inf max gives -inf (a log of 0); a +inf or
    nan max stays non-finite through any later sum, for the caller's
    finiteness check."""
    top = vals.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)
    vals -= shift
    acc = np.exp(vals, out=vals).sum(axis=axis)
    return shift.reshape(acc.shape) + np.log(acc)


def stage_backup(model: DecPomdpModel, l_next: np.ndarray,
                 risk: RiskParameter, out: np.ndarray) -> np.ndarray:
    """Reduced local value q_red[s, a, z] of a stage under L_{t+1}.

    lam = 0: r(s, a) + sum_{s', y'} P(s', y' | s, a) V_{t+1}(s', y', z).
    lam > 0: lam r(s, a) + log sum_{s', y'} P(s', y' | s, a) exp L_{t+1}.
    A leading restart axis of l_next leads out too.
    """
    S, Y, Z = l_next.shape[-3:]
    lead = l_next.shape[:-3]
    A = model.r.shape[1]
    if risk.is_neutral:
        p_flat = model.P.reshape(S * A, S * Y)
        ev = (p_flat @ l_next.reshape(lead + (S * Y, Z)))
        np.add(model.r[:, :, None], ev.reshape(lead + (S, A, Z)), out=out)
    else:
        support, padded = _support(model)
        kernels.tilted_q_log(*support, risk.lam * model.r, l_next, out,
                             pad=padded)
    return out


def fold_stage(policy: JointPolicy, t: int, q_red: np.ndarray,
               risk: RiskParameter, out: np.ndarray) -> np.ndarray:
    """L_t[s, y, w] = the stage-t (1-based) policy rows folded into q_red.

    lam = 0: sum_{a, z} prod_i pi^i_t(a^i, z^i | y^i, w^i) q_red[s, a, z],
    taken one agent at a time; lam > 0: the same sum in the log domain. A
    batch's restart axis leads q_red and out. The contraction leaves the
    agents' (y^i, w^i) axes paired; it is copied once into out through a
    paired view of out, which may be strided. Raises NumericError at the
    first non-finite cell.
    """
    w_sizes = policy.agent_state_sizes
    rows = _agent_rows(policy, t - 1)
    x = _pair_axes(q_red, policy.action_counts(), w_sizes)
    if risk.is_neutral:
        x = _contract_agents(x, rows, logs=False)
    else:
        with np.errstate(divide="ignore"):
            x = _contract_agents(x, [np.log(m) for m in rows], logs=True)
    paired = _paired_view(out, policy.obs_counts(), w_sizes)
    paired[...] = x.reshape(paired.shape)
    if not np.isfinite(out).all():
        *restart, s, y, w = (int(c) for c in np.argwhere(~np.isfinite(out))[0])
        where = f" of restart {restart[0]}" if restart else ""
        raise NumericError(
            f"nonfinite tilted value at t={t}, cell={(s, y, w)}{where}"
        )
    return out


def backward(model: DecPomdpModel, policy: JointPolicy, lam,
             out: np.ndarray = None) -> np.ndarray:
    """The backward recursion t = T..1; returns L_1.

    With a (T, S, Y, Z) `out`, L_t is kept in out[t - 1] for every t. For a
    PolicyBatch of R restarts, L_1 and `out` carry a leading restart axis:
    (R, S, Y, Z) and (R, T, S, Y, Z).
    """
    risk = finite_risk(lam, "tilted recursion")
    _check_dims(model, policy)
    S, Y = model.state_count, model.joint_obs_count
    A = model.joint_action_count
    Z = int(np.prod(policy.agent_state_sizes))
    lead = (policy.size,) if isinstance(policy, PolicyBatch) else ()
    _check_out(out, lead + (model.horizon, S, Y, Z))
    q_red = np.empty(lead + (S, A, Z))
    l_next, l_cur = np.zeros(lead + (S, Y, Z)), np.empty(lead + (S, Y, Z))
    with kernels.quiet_overflow():
        for t in range(model.horizon, 0, -1):
            stage_backup(model, l_next, risk, q_red)
            if out is not None:
                l_cur = out[..., t - 1, :, :, :]
            fold_stage(policy, t, q_red, risk, l_cur)
            l_next, l_cur = l_cur, l_next
    return l_next


def evaluate_exact(model: DecPomdpModel, policy: JointPolicy):
    """Risk-neutral J: the lam = 0 backward recursion, then the expectation
    over zeta1 (x) phi. A float for a JointPolicy, one value per restart for
    a PolicyBatch. Raises NumericError when a value overflows."""
    risk = RiskParameter(0.0)
    return aggregate_initial(model, policy, backward(model, policy, risk),
                             risk)


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

    A PolicyBatch folds each restart alone on its slice of L_1 and its row
    of the batch's joint phi, into an array with one value per restart.
    """
    phi = joint_phi(policy)
    if isinstance(policy, PolicyBatch):
        return np.array([_aggregate(model.zeta1, p, l, risk)
                         for p, l in zip(phi, l1)])
    return _aggregate(model.zeta1, phi, l1, risk)


def _aggregate(zeta1, phi, l1, risk: RiskParameter) -> float:
    if risk.is_neutral:
        return float(np.einsum("sy,z,syz->", zeta1, phi, l1))
    with np.errstate(divide="ignore"):
        logw = np.log(zeta1)[:, :, None] + np.log(phi)[None, None, :]
    x = logw + l1
    m = x.max()
    return float((m + np.log(np.exp(x - m).sum())) / risk.lam)


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
