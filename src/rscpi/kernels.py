"""Hot numeric kernels with two interchangeable backends.

Set RSCPI_BACKEND=numpy to force the pure-numpy implementations; the default
is the numba JIT path when numba is importable. Both backends implement the
same functions with identical semantics (tests assert agreement):

    tilted_q_log / tilted_q_mean      backward Q backup over the sparse support
    fold_policy_log / fold_policy_mean   fold a joint policy row into L_t
    local_weights_log / local_weights_mean   per-agent averaged-Q contraction

Log-domain variants ("_log") carry lambda-scaled values (L = lambda*V) and use
per-output-cell max-shifted logsumexp; a single global shift is unsafe because
lambda*V spans far beyond exp()'s range on long horizons. "_mean" variants are
the exact risk-neutral (lambda = 0) forms in plain expectation space.

Dynamics enter as a CSR-style support: for flat row (s, a), the nonzero
successors (s', y') live at positions indptr[s*A + a] : indptr[s*A + a + 1].
"""

from __future__ import annotations

import os

import numpy as np

NEG_INF = -np.inf


def _tilted_q_log(indptr, sp_idx, yp_idx, logp, lam_r, L_next, out):
    # out[s, a, z] = lam_r[s, a] + LSE_k( logp[k] + L_next[sp[k], yp[k], z] )
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


def _tilted_q_mean(indptr, sp_idx, yp_idx, p, r, V_next, out):
    # out[s, a, z] = r[s, a] + sum_k p[k] * V_next[sp[k], yp[k], z]
    S, A, Z = out.shape
    for s in range(S):
        for a in range(A):
            lo = indptr[s * A + a]
            hi = indptr[s * A + a + 1]
            for z in range(Z):
                acc = 0.0
                for k in range(lo, hi):
                    acc += p[k] * V_next[sp_idx[k], yp_idx[k], z]
                out[s, a, z] = r[s, a] + acc
    return out


def _fold_policy_log(log_m, q_red, out):
    # out[s, y, w] = LSE_{a,z}( log_m[y, w, a, z] + q_red[s, a, z] )
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


def _fold_policy_mean(m_tab, q_red, out):
    # out[s, y, w] = sum_{a,z} m_tab[y, w, a, z] * q_red[s, a, z]
    S, Y, W = out.shape
    A, Z = q_red.shape[1], q_red.shape[2]
    for s in range(S):
        for y in range(Y):
            for w in range(W):
                acc = 0.0
                for a in range(A):
                    for z in range(Z):
                        acc += m_tab[y, w, a, z] * q_red[s, a, z]
                out[s, y, w] = acc
    return out


def _local_weights_log(log_zeta, log_copi, q_red, y_comp, w_comp, a_comp, z_comp,
                       out_max, out):
    # out[yi, wi, ai, zi] = LSE over all (s, y, w, a, z) whose agent-i components
    # match, of log_zeta[s, y, w] + log_copi[y, w, a, z] + q_red[s, a, z].
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


def _local_weights_mean(zeta, copi, q_red, y_comp, w_comp, a_comp, z_comp, out):
    # out[yi, wi, ai, zi] = sum of zeta[s, y, w] * copi[y, w, a, z] * q_red[s, a, z]
    # over all (s, y, w, a, z) whose agent-i components match.
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


# Pure-numpy backend: same contracts, vectorized where the loop nest would be
# python-slow, with explicit -inf guards around the max-shift. The log-domain
# forms silence overflow and inf - inf: an overflowing cell comes out as
# +inf or nan, which the caller's finiteness check reports as a NumericError.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
def _np_tilted_q_log(indptr, sp_idx, yp_idx, logp, lam_r, L_next, out):
    S, A, Z = out.shape
    for s in range(S):
        for a in range(A):
            lo, hi = indptr[s * A + a], indptr[s * A + a + 1]
            vals = logp[lo:hi, None] + L_next[sp_idx[lo:hi], yp_idx[lo:hi], :]
            if vals.shape[0] == 0:
                out[s, a, :] = NEG_INF
                continue
            m = vals.max(axis=0)
            safe = np.where(np.isfinite(m), m, 0.0)
            acc = np.exp(vals - safe[None, :]).sum(axis=0)
            out[s, a, :] = np.where(
                np.isfinite(m), lam_r[s, a] + m + np.log(acc), NEG_INF
            )
    return out


def _np_tilted_q_mean(indptr, sp_idx, yp_idx, p, r, V_next, out):
    S, A, Z = out.shape
    for s in range(S):
        for a in range(A):
            lo, hi = indptr[s * A + a], indptr[s * A + a + 1]
            out[s, a, :] = r[s, a] + p[lo:hi] @ V_next[sp_idx[lo:hi], yp_idx[lo:hi], :]
    return out


@_quiet_overflow
def _np_fold_policy_log(log_m, q_red, out):
    S = q_red.shape[0]
    Y, W = log_m.shape[0], log_m.shape[1]
    flat_m = log_m.reshape(Y, W, -1)
    for s in range(S):
        vals = flat_m + q_red[s].reshape(-1)[None, None, :]
        m = vals.max(axis=2)
        safe = np.where(np.isfinite(m), m, 0.0)
        acc = np.exp(vals - safe[:, :, None]).sum(axis=2)
        out[s] = np.where(np.isfinite(m), m + np.log(acc), NEG_INF)
    return out


def _np_fold_policy_mean(m_tab, q_red, out):
    out[:] = np.einsum("ywaz,saz->syw", m_tab, q_red)
    return out


def _joint_to_agent_cols(y_comp, w_comp, a_comp, z_comp, out_shape):
    # Flat output index of (y_comp[y], w_comp[w], a_comp[a], z_comp[z]) for every
    # joint (y, w, a, z) cell, in the row-major order of the joint tensor.
    nwi, nai, nzi = out_shape[1], out_shape[2], out_shape[3]
    yw = y_comp[:, None] * nwi + w_comp[None, :]
    ywa = yw[:, :, None] * nai + a_comp[None, None, :]
    ywaz = ywa[:, :, :, None] * nzi + z_comp[None, None, None, :]
    return ywaz.reshape(-1)


@_quiet_overflow
def _np_local_weights_log(log_zeta, log_copi, q_red, y_comp, w_comp, a_comp, z_comp,
                          out_max, out):
    vals = (
        log_zeta[:, :, :, None, None]
        + log_copi[None, :, :, :, :]
        + q_red[:, None, None, :, :]
    )
    cols = np.tile(_joint_to_agent_cols(y_comp, w_comp, a_comp, z_comp, out.shape),
                   vals.shape[0])
    flat_vals = vals.reshape(-1)
    fm = out_max.reshape(-1)
    fm[:] = NEG_INF
    np.maximum.at(fm, cols, flat_vals)
    safe = np.where(np.isfinite(fm), fm, 0.0)
    acc = np.zeros(out.size)
    np.add.at(acc, cols, np.exp(flat_vals - safe[cols]))
    res = np.full(out.size, NEG_INF)
    ok = np.isfinite(fm)
    res[ok] = fm[ok] + np.log(acc[ok])
    out.reshape(-1)[:] = res
    return out


def _np_local_weights_mean(zeta, copi, q_red, y_comp, w_comp, a_comp, z_comp, out):
    vals = (
        zeta[:, :, :, None, None]
        * copi[None, :, :, :, :]
        * q_red[:, None, None, :, :]
    )
    cols = np.tile(_joint_to_agent_cols(y_comp, w_comp, a_comp, z_comp, out.shape),
                   vals.shape[0])
    out[:] = 0.0
    np.add.at(out.reshape(-1), cols, vals.reshape(-1))
    return out


def _pick_backend():
    choice = os.environ.get("RSCPI_BACKEND", "").strip().lower()
    if choice not in ("", "numba", "numpy"):
        raise ValueError(f"RSCPI_BACKEND must be 'numba' or 'numpy', got {choice!r}")
    if choice == "numpy":
        return "numpy", None
    try:
        from numba import njit
    except ImportError:
        if choice == "numba":
            raise
        return "numpy", None
    return "numba", njit


BACKEND, _njit = _pick_backend()

if BACKEND == "numba":
    _jit = _njit(cache=True, fastmath=False)
    tilted_q_log = _jit(_tilted_q_log)
    tilted_q_mean = _jit(_tilted_q_mean)
    fold_policy_log = _jit(_fold_policy_log)
    fold_policy_mean = _jit(_fold_policy_mean)
    local_weights_log = _jit(_local_weights_log)
    local_weights_mean = _jit(_local_weights_mean)
else:
    tilted_q_log = _np_tilted_q_log
    tilted_q_mean = _np_tilted_q_mean
    fold_policy_log = _np_fold_policy_log
    fold_policy_mean = _np_fold_policy_mean
    local_weights_log = _np_local_weights_log
    local_weights_mean = _np_local_weights_mean

NUMPY_IMPLS = {
    "tilted_q_log": _np_tilted_q_log,
    "tilted_q_mean": _np_tilted_q_mean,
    "fold_policy_log": _np_fold_policy_log,
    "fold_policy_mean": _np_fold_policy_mean,
    "local_weights_log": _np_local_weights_log,
    "local_weights_mean": _np_local_weights_mean,
}

LOOP_IMPLS = {
    "tilted_q_log": _tilted_q_log,
    "tilted_q_mean": _tilted_q_mean,
    "fold_policy_log": _fold_policy_log,
    "fold_policy_mean": _fold_policy_mean,
    "local_weights_log": _local_weights_log,
    "local_weights_mean": _local_weights_mean,
}
