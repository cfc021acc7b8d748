"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: direct summation, exhaustive path
enumeration, and plain-python recursions. No code is shared with the
package; agreement between these and the fast implementations is the point
of the tests that import them.
"""

import itertools
import math


def logmeanexp_direct(weights, values, lam):
    """(1/lam) log sum (w_k / W) exp(lam v_k) by direct summation."""
    total = float(sum(weights))
    if lam == 0.0:
        return sum(w * v for w, v in zip(weights, values)) / total
    acc = sum(w * math.exp(lam * v) for w, v in zip(weights, values))
    return math.log(acc / total) / lam


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
    from rscpi.evaluation import expand_joint_policy, joint_phi

    S, Y = model.state_count, model.joint_obs_count
    zeta = np.einsum("sy,z->syz", model.zeta1, joint_phi(policy))
    total = 0.0
    for t in range(1, model.horizon + 1):
        m = expand_joint_policy(policy, t - 1)
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


def risk_policy_eval_reference(P, r, T, lam, psi):
    """Plain-python risk policy evaluation for a deterministic psi[t][s]."""
    S = len(P)
    V = [[0.0] * S for _ in range(T + 1)]
    for t in range(T - 1, -1, -1):
        for s in range(S):
            a = psi[t][s]
            if lam == 0.0:
                V[t][s] = r[s][a] + sum(P[s][a][sp] * V[t + 1][sp]
                                        for sp in range(S))
            else:
                acc = sum(P[s][a][sp] * math.exp(lam * V[t + 1][sp])
                          for sp in range(S))
                V[t][s] = r[s][a] + math.log(acc) / lam
    return V


def expand_joint_policy_gather(policy, t, skip_agent=None):
    """Joint policy table by per-agent fancy-index gathers over flat axes.

    The dense (Y, W, A, W) product of the agents' rows, built the direct
    way: for every flat joint index, look up each agent's component and
    multiply the gathered factors in agent order into a table of ones.
    """
    import numpy as np

    def comps(sizes):
        grid = np.indices(tuple(sizes))
        return [g.reshape(-1) for g in grid]

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
