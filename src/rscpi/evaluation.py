"""Exact policy evaluation: forward marginals, the induced Markov chain over
(state, joint observation, joint agent state), risk-seeking evaluation, and a
seeded Monte-Carlo rollout cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DecPomdpModel, JointIndexer
from .policy import JointPolicy
from .risk import RiskParameter

MARGINAL_ATOL = 1e-8


def joint_phi(policy: JointPolicy) -> np.ndarray:
    """Flat joint distribution over (z^1_0, ..., z^N_0)."""
    out = np.ones(1)
    for p in policy.phi:
        out = np.multiply.outer(out, p).reshape(-1)
    return out


def joint_components(sizes):
    """Per-agent component lookup arrays for a flat joint index."""
    idx = JointIndexer(sizes)
    return [idx.component(i) for i in range(len(idx.sizes))]


def expand_joint_policy(policy: JointPolicy, t: int, skip_agent=None) -> np.ndarray:
    """Joint policy table M[y, w, a, z] = prod_i pi^i_t(a^i, z^i | y^i, w^i).

    Flat joint axes in row-major agent order. skip_agent omits that agent's
    factor (used for the co-policy of a single-agent update). The product is
    taken on per-agent axes (Y_1..Y_N, W_1..W_N, A_1..A_N, Z_1..Z_N), each
    agent's row broadcast along the others', then flattened.
    """
    n = policy.n_agents
    y_sizes, a_sizes = policy.obs_counts(), policy.action_counts()
    w_sizes = policy.agent_state_sizes
    out = np.ones(y_sizes + w_sizes + a_sizes + w_sizes)
    for i, tab in enumerate(policy.tables):
        if i == skip_agent:
            continue
        shape = [1] * (4 * n)
        shape[i::n] = tab.shape[1:]
        out *= tab[t].reshape(shape)
    nw = math.prod(w_sizes)
    return out.reshape(math.prod(y_sizes), nw, math.prod(a_sizes), nw)


@dataclass
class MarginalTrajectory:
    """zeta_t(s, y, z_) for t = 1..T, stored as one (T, S, Y, Z) tensor."""

    values: np.ndarray

    @property
    def horizon(self) -> int:
        return self.values.shape[0]

    def at(self, t: int) -> np.ndarray:
        """1-based time index, matching the recursion's t = 1..T."""
        if not 1 <= t <= self.horizon:
            raise IndexError(f"t={t} outside 1..{self.horizon}")
        return self.values[t - 1]


@dataclass
class EvalWorkspace:
    """Reusable backward-evaluation scratch: the value pair and one-step terms."""

    v_cur: np.ndarray    # (S, Y, Z)
    v_next: np.ndarray   # (S, Y, Z)

    @classmethod
    def for_dims(cls, S, Y, Z):
        return cls(v_cur=np.zeros((S, Y, Z)), v_next=np.zeros((S, Y, Z)))


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


def forward_marginals(model: DecPomdpModel, policy: JointPolicy,
                      out=None) -> MarginalTrajectory:
    """Forward recursion for zeta_t(s, y, z_), t = 1..T.

    zeta_1 = zeta1 (x) phi; each later step folds the previous policy row into
    the occupancy and pushes it through the joint dynamics. Each tensor is
    renormalized when its mass drifts within 1e-8 of 1, and errors beyond.
    """
    _check_dims(model, policy)
    S, Y = model.state_count, model.joint_obs_count
    A = model.joint_action_count
    Z = int(np.prod(policy.agent_state_sizes))
    T = model.horizon
    zetas = out if out is not None else np.zeros((T, S, Y, Z))
    phi = joint_phi(policy)
    zetas[0] = model.zeta1[:, :, None] * phi[None, None, :]
    p_flat = model.P.reshape(S * A, S * Y)
    for t in range(1, T):
        m = expand_joint_policy(policy, t - 1)
        occ = (zetas[t - 1].reshape(S, Y * Z) @ m.reshape(Y * Z, A * Z))
        occ = occ.reshape(S, A, Z)
        nxt = occ.reshape(S * A, Z).T @ p_flat
        zetas[t] = nxt.T.reshape(S, Y, Z)
        total = zetas[t].sum()
        if abs(total - 1.0) > MARGINAL_ATOL:
            raise ValueError(
                f"marginal at t={t + 1} sums to {total:.12g}; "
                "dynamics or policy rows are not normalized"
            )
        zetas[t] /= total
    return MarginalTrajectory(values=zetas)


def evaluate_exact(model: DecPomdpModel, policy: JointPolicy,
                   workspace: EvalWorkspace = None) -> float:
    """Risk-neutral J via the induced Markov chain over (s, y, z).

    Backward accumulation of the chain's value function with the one-step
    reward r_bar and kernel P_bar of the joint policy, then the expectation
    over zeta1 (x) phi.
    """
    _check_dims(model, policy)
    S, Y = model.state_count, model.joint_obs_count
    A = model.joint_action_count
    Z = int(np.prod(policy.agent_state_sizes))
    ws = workspace or EvalWorkspace.for_dims(S, Y, Z)
    v_cur, v_next = ws.v_cur, ws.v_next
    v_next[:] = 0.0
    p_flat = model.P.reshape(S * A, S * Y)
    for t in range(model.horizon - 1, -1, -1):
        m = expand_joint_policy(policy, t)
        # ev[s, a, z] = sum_{s', y'} P(s', y' | s, a) V_{t+1}(s', y', z)
        ev = (p_flat @ v_next.reshape(S * Y, Z)).reshape(S, A, Z)
        tot = model.r[:, :, None] + ev
        # V_t(s, y, w) = sum_{a, z} M_t[y, w, a, z] (r(s, a) + ev[s, a, z])
        v_cur[:] = (
            m.reshape(Y * Z, A * Z) @ tot.reshape(S, A * Z).T
        ).T.reshape(S, Y, Z)
        v_cur, v_next = v_next, v_cur
    phi = joint_phi(policy)
    j = np.einsum("sy,z,syz->", model.zeta1, phi, v_next)
    return float(j)


def evaluate_risk(model: DecPomdpModel, policy: JointPolicy, lam) -> float:
    """Risk-seeking objective via the backward tilted-value recursion.

    Aggregates the t=1 tilted values through the certainty-equivalent wrapper
    (1/lam) log sum zeta1 phi exp(lam V_1); plain expectation at lam ~ 0.
    """
    risk = lam if isinstance(lam, RiskParameter) else RiskParameter(float(lam))
    if risk.lam < 0:
        raise ValueError("risk-seeking evaluation requires lam >= 0")
    from . import solver

    tilted = solver.backward_tilted_values(model, policy, risk)
    l1 = tilted[0].values
    return aggregate_initial(model, policy, l1, risk)


def aggregate_initial(model: DecPomdpModel, policy: JointPolicy,
                      l1: np.ndarray, risk: RiskParameter) -> float:
    """Fold L_1 with zeta1 (x) phi into the scalar objective."""
    phi = joint_phi(policy)
    if risk.is_neutral:
        return float(np.einsum("sy,z,syz->", model.zeta1, phi, l1))
    with np.errstate(divide="ignore"):
        logw = np.log(model.zeta1)[:, :, None] + np.log(phi)[None, None, :]
    x = logw + l1
    m = x.max()
    return float((m + np.log(np.exp(x - m).sum())) / risk.lam)


def rollout_monte_carlo(model: DecPomdpModel, policy: JointPolicy,
                        episodes: int, seed: int, chunk: int = 4096):
    """Seeded simulation of the generative process; returns (mean, stderr)."""
    _check_dims(model, policy)
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = np.random.default_rng(int(seed))
    S, Y = model.state_count, model.joint_obs_count
    n = policy.n_agents
    y_comps = joint_components(model.obs_counts)
    a_sizes = model.action_counts
    z_sizes = policy.agent_state_sizes
    totals = np.zeros(episodes)
    zeta_flat = model.zeta1.reshape(-1)
    done = 0
    while done < episodes:
        e = min(chunk, episodes - done)
        sy = _sample_rows(rng, np.broadcast_to(zeta_flat, (e, zeta_flat.size)))
        s, y = sy // Y, sy % Y
        w = [_sample_rows(rng, np.broadcast_to(policy.phi[i], (e, z_sizes[i])))
             for i in range(n)]
        reward = np.zeros(e)
        for t in range(model.horizon):
            a_parts, z_parts = [], []
            for i in range(n):
                rows = policy.tables[i][t, y_comps[i][y], w[i]].reshape(e, -1)
                pick = _sample_rows(rng, rows)
                a_parts.append(pick // z_sizes[i])
                z_parts.append(pick % z_sizes[i])
            a = np.zeros(e, dtype=np.int64)
            for i in range(n):
                a = a * a_sizes[i] + a_parts[i]
            reward += model.r[s, a]
            w = z_parts
            if t + 1 < model.horizon:
                rows = model.P[s, a].reshape(e, -1)
                nxt = _sample_rows(rng, rows)
                s, y = nxt // Y, nxt % Y
        totals[done:done + e] = reward
        done += e
    mean = float(totals.mean())
    if episodes == 1:
        return mean, 0.0
    stderr = float(totals.std(ddof=1) / np.sqrt(episodes))
    return mean, stderr


def _sample_rows(rng, rows) -> np.ndarray:
    """One categorical draw per row of a (n, k) probability matrix."""
    cdf = np.cumsum(rows, axis=1)
    u = rng.random(rows.shape[0]) * cdf[:, -1]
    return np.minimum((u[:, None] > cdf).sum(axis=1), rows.shape[1] - 1)
