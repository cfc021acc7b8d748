"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: direct summation, exhaustive path
enumeration, and plain-python recursions. No code is shared with the
package; agreement between these and the fast implementations is the point
of the tests that import them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

NEG_INF = -math.inf


def logmeanexp_direct(weights, values, lam):
    """(1/lam) log sum (w_k / W) exp(lam v_k) by direct summation."""
    total = float(sum(weights))
    if lam == 0.0:
        return sum(w * v for w, v in zip(weights, values)) / total
    acc = sum(w * math.exp(lam * v) for w, v in zip(weights, values))
    return math.log(acc / total) / lam


def weighted_logmeanexp(weights, values, lam):
    """(1/lam) * log sum_k (w_k / sum w) * exp(lam * v_k), max-shift stabilized.

    Only entries with positive weight participate; for |lam| below 1e-9, the
    package's risk-neutral threshold, this is the plain weighted mean (the
    exact algebraic limit).
    """
    import numpy as np

    w = np.asarray(weights, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if w.shape != v.shape:
        raise ValueError("weights and values must have the same shape")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = w.sum()
    if total <= 0.0:
        raise ValueError("all-zero weights: conditional expectation undefined")
    support = w > 0
    wv = w[support] / total
    vv = v[support]
    if abs(lam) < 1e-9:
        return float(wv @ vv)
    # Shift by the extreme value in the direction of lam so every exponent is
    # nonpositive (max for lam > 0, min for the risk-averse lam < 0 case).
    m = vv.max() if lam > 0 else vv.min()
    return float(m + np.log(np.sum(wv * np.exp(lam * (vv - m)))) / lam)


def _flat(parts, sizes):
    out = 0
    for p, n in zip(parts, sizes):
        out = out * n + p
    return out


def enum_paths(model, policy):
    """Exhaustive enumeration of (probability, total reward) pairs.

    Walks the full generative tree of the process: initial (s, y) ~ zeta1
    and z0 ~ phi, then per step the factorized policy choice and the joint
    dynamics. Exponential in T; callers keep the model tiny.
    """
    n = model.n_agents
    S, Y = model.state_count, model.joint_obs_count
    a_sizes = list(model.action_counts)
    y_sizes = list(model.obs_counts)
    z_sizes = list(policy.agent_state_sizes)
    T = model.horizon
    results = []

    def step(t, s, y, z, prob, reward):
        y_parts = _decode(y, y_sizes)
        for az in itertools.product(*[
                itertools.product(range(a_sizes[i]), range(z_sizes[i]))
                for i in range(n)]):
            p_pi = 1.0
            for i in range(n):
                ai, zi = az[i]
                p_pi *= float(policy.tables[i][t - 1, y_parts[i], z[i], ai, zi])
            if p_pi == 0.0:
                continue
            a_flat = _flat([az[i][0] for i in range(n)], a_sizes)
            z_next = tuple(az[i][1] for i in range(n))
            rr = reward + float(model.r[s, a_flat])
            if t == T:
                results.append((prob * p_pi, rr))
                continue
            for sp in range(S):
                for yp in range(Y):
                    p_dyn = float(model.P[s, a_flat, sp, yp])
                    if p_dyn > 0.0:
                        step(t + 1, sp, yp, z_next, prob * p_pi * p_dyn, rr)

    for z0 in itertools.product(*[range(k) for k in z_sizes]):
        p_phi = 1.0
        for i in range(n):
            p_phi *= float(policy.phi[i][z0[i]])
        if p_phi == 0.0:
            continue
        for s in range(S):
            for y in range(Y):
                p0 = float(model.zeta1[s, y]) * p_phi
                if p0 > 0.0:
                    step(1, s, y, z0, p0, 0.0)
    return results


def _decode(flat, sizes):
    parts = []
    for size in reversed(sizes):
        parts.append(flat % size)
        flat //= size
    return list(reversed(parts))


def evaluate_enum(model, policy):
    """J by exhaustive path enumeration."""
    return sum(p * r for p, r in enum_paths(model, policy))


def evaluate_risk_enum(model, policy, lam):
    """(1/lam) log E[exp(lam * total reward)] by exhaustive enumeration."""
    paths = enum_paths(model, policy)
    if lam == 0.0:
        return sum(p * r for p, r in paths)
    return math.log(sum(p * math.exp(lam * r) for p, r in paths)) / lam


def marginal_enum(model, policy, t):
    """zeta_t(s, y, z_prev) as a dict, by enumerating length-(t-1) prefixes."""
    n = model.n_agents
    S, Y = model.state_count, model.joint_obs_count
    a_sizes = list(model.action_counts)
    y_sizes = list(model.obs_counts)
    z_sizes = list(policy.agent_state_sizes)
    out = {}

    def advance(step_t, s, y, z, prob):
        if step_t == t:
            key = (s, y, _flat(z, z_sizes))
            out[key] = out.get(key, 0.0) + prob
            return
        y_parts = _decode(y, y_sizes)
        for az in itertools.product(*[
                itertools.product(range(a_sizes[i]), range(z_sizes[i]))
                for i in range(n)]):
            p_pi = 1.0
            for i in range(n):
                ai, zi = az[i]
                p_pi *= float(policy.tables[i][step_t - 1, y_parts[i], z[i],
                                               ai, zi])
            if p_pi == 0.0:
                continue
            a_flat = _flat([az[i][0] for i in range(n)], a_sizes)
            z_next = tuple(az[i][1] for i in range(n))
            for sp in range(S):
                for yp in range(Y):
                    p_dyn = float(model.P[s, a_flat, sp, yp])
                    if p_dyn > 0.0:
                        advance(step_t + 1, sp, yp, z_next,
                                prob * p_pi * p_dyn)

    for z0 in itertools.product(*[range(k) for k in z_sizes]):
        p_phi = 1.0
        for i in range(n):
            p_phi *= float(policy.phi[i][z0[i]])
        if p_phi == 0.0:
            continue
        for s in range(S):
            for y in range(Y):
                p0 = float(model.zeta1[s, y]) * p_phi
                if p0 > 0.0:
                    advance(1, s, y, z0, p0)
    return out


def forward_sum_eval(model, policy):
    """J as sum over t of E_{zeta_t, pi_t}[r], with its own forward recursion."""
    import numpy as np
    from rscpi.evaluation import joint_phi

    zeta = np.einsum("sy,z->syz", model.zeta1, joint_phi(policy))
    total = 0.0
    for t in range(1, model.horizon + 1):
        m = expand_joint_policy_gather(policy, t - 1)
        occ = np.einsum("syw,ywaz->saz", zeta, m)
        total += float(np.einsum("saz,sa->", occ, model.r))
        if t < model.horizon:
            zeta = np.einsum("saz,sapq->pqz", occ, model.P)
    return total


def risk_vi_reference(P, r, T, lam):
    """Plain-python risk value iteration; returns (V list, Q list, psi list).

    V[t][s] for t = 0..T (V[T] = 0), Q[t][s][a], psi[t][s]; direct
    exponentiation without any shift, so callers keep values moderate.
    """
    S = len(P)
    A = len(P[0])
    V = [[0.0] * S for _ in range(T + 1)]
    Q = [[[0.0] * A for _ in range(S)] for _ in range(T)]
    psi = [[0] * S for _ in range(T)]
    for t in range(T - 1, -1, -1):
        for s in range(S):
            for a in range(A):
                if lam == 0.0:
                    exp_next = sum(P[s][a][sp] * V[t + 1][sp]
                                   for sp in range(S))
                    Q[t][s][a] = r[s][a] + exp_next
                else:
                    acc = sum(P[s][a][sp] * math.exp(lam * V[t + 1][sp])
                              for sp in range(S))
                    Q[t][s][a] = r[s][a] + math.log(acc) / lam
            best = 0
            for a in range(1, A):
                if Q[t][s][a] > Q[t][s][best]:
                    best = a
            psi[t][s] = best
            V[t][s] = Q[t][s][best]
    return V, Q, psi


def expand_joint_policy_gather(policy, t, skip_agent=None):
    """Joint policy table by per-agent fancy-index gathers over flat axes.

    The dense (Y, W, A, W) product of the agents' rows, built the direct
    way: for every flat joint index, look up each agent's component and
    multiply the gathered factors in agent order into a table of ones.
    """
    import numpy as np

    comps = agent_components
    y_sizes = [tab.shape[1] for tab in policy.tables]
    a_sizes = [tab.shape[3] for tab in policy.tables]
    w_sizes = list(policy.agent_state_sizes)
    y_c, w_c, a_c = comps(y_sizes), comps(w_sizes), comps(a_sizes)
    ny, nw, na = y_c[0].size, w_c[0].size, a_c[0].size
    out = np.ones((ny, nw, na, nw))
    for i, tab in enumerate(policy.tables):
        if i == skip_agent:
            continue
        out *= tab[t][
            y_c[i][:, None, None, None],
            w_c[i][None, :, None, None],
            a_c[i][None, None, :, None],
            w_c[i][None, None, None, :],
        ]
    return out


def co_policy_gather(batch, t, agent):
    """The co-agents' joint table of a batch at stage t (1-based), as
    (R, co_yw, co_az) in the co-agents' flat joint order.

    `expand_joint_policy_gather` with agent's factor skipped, at agent's
    component 0 of every axis, for each restart.
    """
    import numpy as np

    n = batch.n_agents
    tabs = []
    for policy in batch.policies:
        full = expand_joint_policy_gather(policy, t - 1, skip_agent=agent)
        sizes = [tab.shape[k] for k in (1, 2, 3, 4) for tab in policy.tables]
        full = full.reshape(sizes)
        keep = tuple(0 if i % n == agent else slice(None)
                     for i in range(4 * n))
        tabs.append(full[keep])
    co_yw = math.prod(t.shape[1] * t.shape[2] for j, t in
                      enumerate(batch.policies[0].tables) if j != agent)
    return np.stack(tabs).reshape(batch.size, co_yw, -1)


def fold_stage_joint(policy, t, q_red, lam):
    """L_t[s, y, w] of one policy by the dense joint table: the plain sum
    over (a, z) at lam = 0, `fold_policy_log_states` at lam > 0."""
    import numpy as np

    m = expand_joint_policy_gather(policy, t - 1)
    if lam == 0.0:
        return np.einsum("ywaz,saz->syw", m, q_red)
    out = np.empty((q_red.shape[0],) + m.shape[:2])
    with np.errstate(divide="ignore"):
        return fold_policy_log_states(np.log(m), q_red, out)


def forward_marginals_joint(model, policy):
    """zeta_t for t = 1..T of one policy as a (T, S, Y, Z) array, each step
    through the dense joint table and P without renormalizing."""
    import numpy as np
    from rscpi.evaluation import joint_phi

    zeta = np.einsum("sy,z->syz", model.zeta1, joint_phi(policy))
    out = [zeta]
    for t in range(1, model.horizon):
        occ = np.einsum("syw,ywaz->saz", out[-1],
                        expand_joint_policy_gather(policy, t - 1))
        out.append(np.einsum("saz,sapq->pqz", occ, model.P))
    return np.stack(out)


def as_table(picks, action_count, z_size):
    """Point-mass policy table (Y_i, Z_i, A_i, Z_i) of (Y_i, Z_i) flat
    greedy picks a * Z_i + z'."""
    import numpy as np

    ny, nw = picks.shape
    tab = np.zeros((ny, nw, action_count * z_size))
    yy, ww = np.meshgrid(np.arange(ny), np.arange(nw), indexing="ij")
    tab[yy, ww, picks] = 1.0
    return tab.reshape(ny, nw, action_count, z_size)


@dataclass
class DeterministicAgentSlice:
    """Greedy decision rule for one (agent, time): (y, w) -> (action, next state)."""

    agent: int
    t: int
    actions: np.ndarray       # (Y_i, Z_i) int, or (R, Y_i, Z_i) for a batch
    next_states: np.ndarray   # same shape as actions


def greedy_agent_update(qbar, incumbent) -> DeterministicAgentSlice:
    """Argmax of the averaged weights per reachable (y^i, z^i_-) cell.

    Ties break to the smallest flat (a^i, z'^i) index. Unreachable cells copy
    the incumbent row's argmax so the mixed update leaves them unchanged.
    A leading restart axis of the table and the incumbent carries through.
    """
    import numpy as np

    *lead, yi, wi, ai, zi = qbar.table.shape
    best = np.argmax(qbar.table.reshape(*lead, yi, wi, ai * zi), axis=-1)
    fallback = np.argmax(incumbent.reshape(*lead, yi, wi, ai * zi), axis=-1)
    best = np.where(qbar.reachable, best, fallback)
    return DeterministicAgentSlice(agent=qbar.agent, t=qbar.t,
                                   actions=(best // zi).astype(np.int64),
                                   next_states=(best % zi).astype(np.int64))


def mix_policies(old_slice, new: DeterministicAgentSlice,
                 alpha: float):
    """Conservative update (1 - alpha) * old + alpha * point_mass(new), rowwise.

    alpha = 0 returns the old slice unchanged (bitwise); otherwise alpha is
    added in place at each row's greedy cell, and rows are renormalized after
    mixing to absorb floating-point drift. Leading axes in front of
    (Y_i, Z_i, A_i, Z_i), such as a restart axis, are mixed row by row.
    """
    import numpy as np

    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        return old_slice
    mixed = (1.0 - alpha) * old_slice
    rows = np.indices(new.actions.shape, sparse=True)
    mixed[(*rows, new.actions, new.next_states)] += alpha
    sums = mixed.sum(axis=(-2, -1), keepdims=True)
    return mixed / sums


def update_agent_at_incumbent(model, batch, t, zeta_t, q_red, risk, alpha,
                              agent, live):
    """The solver's `_update_agent_at` on the (incumbent-fallback greedy,
    DeterministicAgentSlice mix) pair above; returns the averaged local
    value it updated against."""
    import numpy as np
    from rscpi import solver

    qbar = solver._averaged_local_q(model, zeta_t, batch, t, q_red, risk,
                                    agent)
    tab = batch.tables[agent][:, t - 1]
    mixed = mix_policies(tab, greedy_agent_update(qbar, tab), alpha)
    if mixed is not tab:
        write = qbar.reachable & live[:, None, None]
        np.copyto(tab, mixed, where=write[..., None, None])
    return qbar


def action_indexer(model):
    """The mixed-radix indexer of a model's flat joint actions."""
    from rscpi.model import JointIndexer

    return JointIndexer(model.action_counts)


def agent_components(sizes):
    """Per-agent component of every flat joint index, row-major agent order."""
    import numpy as np

    return [g.reshape(-1) for g in np.indices(tuple(sizes))]


def local_weights_log(log_zeta, log_copi, q_red, y_comp, w_comp, a_comp,
                      z_comp, out_max, out):
    """out[yi, wi, ai, zi] = LSE over all (s, y, w, a, z) whose agent-i
    components match, of log_zeta[s, y, w] + log_copi[y, w, a, z] +
    q_red[s, a, z]; one max shift per output cell."""
    import numpy as np

    NEG_INF = -np.inf
    S = log_zeta.shape[0]
    Y, W = log_zeta.shape[1], log_zeta.shape[2]
    A, Z = q_red.shape[1], q_red.shape[2]
    out_max[:] = NEG_INF
    for s in range(S):
        for y in range(Y):
            for w in range(W):
                base = log_zeta[s, y, w]
                if base == NEG_INF:
                    continue
                yi = y_comp[y]
                wi = w_comp[w]
                for a in range(A):
                    for z in range(Z):
                        v = base + log_copi[y, w, a, z] + q_red[s, a, z]
                        if v > out_max[yi, wi, a_comp[a], z_comp[z]]:
                            out_max[yi, wi, a_comp[a], z_comp[z]] = v
    out[:] = 0.0
    for s in range(S):
        for y in range(Y):
            for w in range(W):
                base = log_zeta[s, y, w]
                if base == NEG_INF:
                    continue
                yi = y_comp[y]
                wi = w_comp[w]
                for a in range(A):
                    for z in range(Z):
                        m = out_max[yi, wi, a_comp[a], z_comp[z]]
                        if m > NEG_INF:
                            v = base + log_copi[y, w, a, z] + q_red[s, a, z]
                            out[yi, wi, a_comp[a], z_comp[z]] += np.exp(v - m)
    for yi in range(out.shape[0]):
        for wi in range(out.shape[1]):
            for ai in range(out.shape[2]):
                for zi in range(out.shape[3]):
                    m = out_max[yi, wi, ai, zi]
                    if m == NEG_INF:
                        out[yi, wi, ai, zi] = NEG_INF
                    else:
                        out[yi, wi, ai, zi] = m + np.log(out[yi, wi, ai, zi])
    return out


def local_weights_mean(zeta, copi, q_red, y_comp, w_comp, a_comp, z_comp, out):
    """out[yi, wi, ai, zi] = sum of zeta[s, y, w] * copi[y, w, a, z] *
    q_red[s, a, z] over all (s, y, w, a, z) whose agent-i components match."""
    S = zeta.shape[0]
    Y, W = zeta.shape[1], zeta.shape[2]
    A, Z = q_red.shape[1], q_red.shape[2]
    out[:] = 0.0
    for s in range(S):
        for y in range(Y):
            for w in range(W):
                base = zeta[s, y, w]
                if base == 0.0:
                    continue
                yi = y_comp[y]
                wi = w_comp[w]
                for a in range(A):
                    for z in range(Z):
                        out[yi, wi, a_comp[a], z_comp[z]] += (
                            base * copi[y, w, a, z] * q_red[s, a, z]
                        )
    return out


def averaged_local_q_loops(zeta, copi, q_red, y_sizes, w_sizes, a_sizes,
                           agent, lam):
    """(table, mass) of agent's averaged local value by the loops above.

    copi is the (Y, W, A, W) co-policy table without agent's factor; the
    table is log-domain for lam > 0 and a plain weighted sum at lam = 0.
    mass[yi, wi] sums zeta over every (s, y, w) with agent's components.
    """
    import numpy as np

    y_comp = agent_components(y_sizes)[agent]
    w_comp = agent_components(w_sizes)[agent]
    a_comp = agent_components(a_sizes)[agent]
    shape = (y_sizes[agent], w_sizes[agent], a_sizes[agent], w_sizes[agent])
    table = np.zeros(shape)
    comp = (y_comp, w_comp, a_comp, w_comp)
    if lam == 0.0:
        local_weights_mean(zeta, copi, q_red, *comp, table)
    else:
        def log_of(x):
            return np.log(x, where=x > 0, out=np.full_like(x, -np.inf))

        local_weights_log(log_of(zeta), log_of(copi), q_red, *comp,
                          np.full(shape, -np.inf), table)
    mass = np.zeros(shape[:2])
    for s in range(zeta.shape[0]):
        for y in range(zeta.shape[1]):
            for w in range(zeta.shape[2]):
                mass[y_comp[y], w_comp[w]] += zeta[s, y, w]
    return table, mass


def averaged_local_q_flat(model, zeta_t, batch, t, q_red, risk, agent):
    """solver._averaged_local_q by the full product, a drop-in replacement.

    Every (s, co-agents' y, w, a, z) cell is one row of a (rows, cells)
    product and every (restart, y^i, w^i, a^i, z^i) cell one column; a
    column sum adds the rows one at a time in flat joint order, whatever R
    is. It holds S * co_yw * co_az * R * yw * az floats at once, where the
    package sums the co-agents' (y, w) axes out before q is broadcast in.
    lam > 0 adds logs instead and shifts each column by its own max before
    the exp.
    """
    import numpy as np

    from rscpi.solver import AveragedLocalQ, _agent_last

    n = model.n_agents
    R, S = zeta_t.shape[:2]
    y_sizes, a_sizes = model.obs_counts, model.action_counts
    w_sizes = batch.agent_state_sizes
    yw = y_sizes[agent] * w_sizes[agent]
    az = a_sizes[agent] * w_sizes[agent]
    co_yw = zeta_t.shape[2] * zeta_t.shape[3] // yw
    co_az = q_red.shape[2] * q_red.shape[3] // az
    zeta = _agent_last(zeta_t.reshape(R, S, *y_sizes, *w_sizes), agent, n)
    zeta = zeta.reshape(S, co_yw, 1, R, yw, 1)
    copi = co_policy_gather(batch, t, agent)
    copi = copi.reshape(R, co_yw, co_az).transpose(1, 2, 0)[..., None, None]
    q = _agent_last(q_red.reshape(R, S, *a_sizes, *w_sizes), agent, n)
    q = q.reshape(S, 1, co_az, R, 1, az)
    cells = R * yw * az
    if risk.is_neutral:
        vals = np.multiply(zeta * copi, q).reshape(-1, cells)
        table = vals.sum(axis=0)
    else:
        with np.errstate(divide="ignore"):
            vals = np.add(np.log(zeta) + np.log(copi), q)
        vals = vals.reshape(-1, cells)
        top = vals.max(axis=0)
        ok = np.isfinite(top)
        vals -= np.where(ok, top, 0.0)
        acc = np.exp(vals, out=vals).sum(axis=0)
        table = np.full(cells, -np.inf)
        table[ok] = top[ok] + np.log(acc[ok])
    mass = zeta.reshape(S, co_yw, R * yw).sum(axis=0).sum(axis=0)
    shape = (R, y_sizes[agent], w_sizes[agent], a_sizes[agent],
             w_sizes[agent])
    return AveragedLocalQ(agent=agent, t=t, table=table.reshape(shape),
                          mass=mass.reshape(shape[:3]),
                          lam=risk.lam, is_plain=risk.is_neutral)


def tilted_q_log_rows(indptr, sp_idx, yp_idx, logp, lam_r, L_next, out):
    """kernels.tilted_q_log one (s, a) support row at a time.

    Each row's successors are summed down axis 0 of a C-ordered (n, Z)
    array, one successor after another; this is the order the whole-array
    kernel must keep for Z > 1.
    """
    import numpy as np

    S, A, Z = out.shape
    for s in range(S):
        for a in range(A):
            lo, hi = indptr[s * A + a], indptr[s * A + a + 1]
            vals = logp[lo:hi, None] + L_next[sp_idx[lo:hi], yp_idx[lo:hi], :]
            if vals.shape[0] == 0:
                out[s, a, :] = -np.inf
                continue
            m = vals.max(axis=0)
            safe = np.where(np.isfinite(m), m, 0.0)
            acc = np.exp(vals - safe[None, :]).sum(axis=0)
            out[s, a, :] = np.where(
                np.isfinite(m), lam_r[s, a] + m + np.log(acc), -np.inf
            )
    return out


def fold_policy_log_states(log_m, q_red, out):
    """`fold_policy_log_loops` one state s at a time, vectorized over the
    joint (a, z) cells."""
    import numpy as np

    S = q_red.shape[0]
    Y, W = log_m.shape[0], log_m.shape[1]
    flat_m = log_m.reshape(Y, W, -1)
    for s in range(S):
        vals = flat_m + q_red[s].reshape(-1)[None, None, :]
        m = vals.max(axis=2)
        safe = np.where(np.isfinite(m), m, 0.0)
        acc = np.exp(vals - safe[:, :, None]).sum(axis=2)
        out[s] = np.where(np.isfinite(m), m + np.log(acc), -np.inf)
    return out


def tilted_q_log_loops(indptr, sp_idx, yp_idx, logp, lam_r, L_next, out):
    """kernels.tilted_q_log as scalar loops over the CSR rows, one restart.

    out[s, a, z] = lam_r[s, a] + LSE_k( logp[k] + L_next[sp[k], yp[k], z] )
    """
    import numpy as np

    S, A, Z = out.shape
    for s in range(S):
        for a in range(A):
            lo = indptr[s * A + a]
            hi = indptr[s * A + a + 1]
            for z in range(Z):
                m = NEG_INF
                for k in range(lo, hi):
                    v = logp[k] + L_next[sp_idx[k], yp_idx[k], z]
                    if v > m:
                        m = v
                if m == NEG_INF:
                    out[s, a, z] = NEG_INF
                    continue
                acc = 0.0
                for k in range(lo, hi):
                    acc += np.exp(logp[k] + L_next[sp_idx[k], yp_idx[k], z] - m)
                out[s, a, z] = lam_r[s, a] + m + np.log(acc)
    return out


def fold_policy_log_loops(log_m, q_red, out):
    """The log-domain fold of a dense joint table as scalar loops, one
    restart.

    out[s, y, w] = LSE_{a,z}( log_m[y, w, a, z] + q_red[s, a, z] )
    """
    import numpy as np

    S, Y, W = out.shape
    A, Z = q_red.shape[1], q_red.shape[2]
    for s in range(S):
        for y in range(Y):
            for w in range(W):
                m = NEG_INF
                for a in range(A):
                    for z in range(Z):
                        v = log_m[y, w, a, z] + q_red[s, a, z]
                        if v > m:
                            m = v
                if m == NEG_INF:
                    out[s, y, w] = NEG_INF
                    continue
                acc = 0.0
                for a in range(A):
                    for z in range(Z):
                        acc += np.exp(log_m[y, w, a, z] + q_red[s, a, z] - m)
                out[s, y, w] = m + np.log(acc)
    return out


def rollout_monte_carlo_rows(model, policy, episodes, seed, chunk=4096):
    """Monte-Carlo rollout that gathers probability rows and cumsums them at
    every step; returns (mean, stderr).

    Draws the same uniforms in the same order as the package's rollout, so
    the two agree bit for bit for every (seed, chunk).
    """
    import numpy as np

    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = np.random.default_rng(int(seed))
    S, Y = model.state_count, model.joint_obs_count
    n = policy.n_agents
    y_comps = agent_components(model.obs_counts)
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


def _sample_rows(rng, rows):
    """One categorical draw per row of a (n, k) probability matrix."""
    import numpy as np

    cdf = np.cumsum(rows, axis=1)
    u = rng.random(rows.shape[0]) * cdf[:, -1]
    return np.minimum((u[:, None] > cdf).sum(axis=1), rows.shape[1] - 1)
