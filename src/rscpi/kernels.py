"""Hot numeric kernels with two interchangeable backends.

Set RSCPI_BACKEND=numpy to force the pure-numpy implementations; the default
is the numba JIT path when numba is importable. Both backends implement the
same two functions with identical semantics (tests assert agreement):

    tilted_q_log         backward Q backup over the sparse support
    fold_policy_log      fold a joint policy row into L_t

Both carry lambda-scaled values (L = lambda*V) and use per-output-cell
max-shifted logsumexp; a single global shift is unsafe because lambda*V
spans far beyond exp()'s range on long horizons. The lambda = 0 stage backup
and fold (`evaluation.stage_backup`, `evaluation.fold_stage`) and the averaged
local value (`solver._averaged_local_q`) are plain numpy on both backends.
The averaged local value sums the co-agents' (y, w) axes out of zeta * copi
before the backup is broadcast in; at lambda > 0 both of its sums are
logsumexps with the same per-output-cell shift.

Dynamics enter as a CSR-style support: for flat row (s, a), the nonzero
successors (s', y') live at positions indptr[s*A + a] : indptr[s*A + a + 1].
The numpy backup runs on that support padded to one row length
(`pad_support`); callers that back up many stages build the padding once and
pass it as `pad=`.

Both kernels also take a batch: a leading restart axis on L_next and out, or
on log_m, q_red and out. Each restart's slice comes out bit for bit as it
would alone.
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


def quiet_overflow():
    """The floating-point state the kernels' callers run them under.

    Overflow and inf - inf are silenced: an overflowing cell comes out as
    +inf or nan, which the caller's finiteness check reports as a
    NumericError. Callers enter it once per recursion, not once per call.
    """
    return np.errstate(over="ignore", invalid="ignore")


def pad_support(indptr, sp_idx, yp_idx, logp):
    """The CSR support padded to its longest row, successors leading.

    Returns (s', y', log p, pad), each of shape (W, S*A) for W the longest
    row's length: column s*A + a holds that row's successors, then copies of
    the last support entry wherever `pad` is True.
    """
    lengths = np.diff(indptr)
    cols = np.arange(lengths.max(initial=0))[:, None]
    pos = np.minimum(indptr[:-1] + cols, len(logp) - 1)
    return sp_idx[pos], yp_idx[pos], logp[pos], cols >= lengths


# Pure-numpy backend: the same contracts as whole-array operations, on any
# leading restart axes in front of (S, Y, Z) or (S, A, Z). The backup gathers
# the padded support (pad cells get -inf, so exp adds an exact 0.0) with the
# successors leading and every other axis behind them, so it sums one
# successor at a time as the loops do; reduceat would not.
def _np_tilted_q_log(indptr, sp_idx, yp_idx, logp, lam_r, L_next, out,
                     pad=None):
    sp, yp, lp, padded = pad or pad_support(indptr, sp_idx, yp_idx, logp)
    nb = L_next.ndim - 3
    batch = tuple(range(nb))
    vals = np.moveaxis(L_next, batch, tuple(range(2, 2 + nb)))[sp, yp]
    vals += lp.reshape(lp.shape + (1,) * (nb + 1))
    vals[padded] = NEG_INF
    m = vals.max(axis=0, initial=NEG_INF)
    ok = np.isfinite(m)
    vals -= np.where(ok, m, 0.0)
    acc = np.exp(vals, out=vals).sum(axis=0)
    np.log(acc, out=acc, where=ok)
    res = np.where(ok, lam_r.reshape((-1,) + (1,) * (nb + 1)) + m + acc,
                   NEG_INF)
    res = res.reshape(lam_r.shape + res.shape[1:])
    out[...] = np.moveaxis(res, tuple(range(2, 2 + nb)), batch)
    return out


def _np_fold_policy_log(log_m, q_red, out):
    S, Y, W = out.shape[-3:]
    lead = out.shape[:-3]
    vals = (log_m.reshape(lead + (1, Y, W, -1))
            + q_red.reshape(lead + (S, 1, 1, -1)))
    m = vals.max(axis=-1)
    ok = np.isfinite(m)
    vals -= np.where(ok, m, 0.0)[..., None]
    acc = np.exp(vals, out=vals).sum(axis=-1)
    np.log(acc, out=acc, where=ok)
    out[...] = np.where(ok, m + acc, NEG_INF)
    return out


def _per_restart(kernel, batched):
    """Run a loop kernel on each restart of a batch.

    The last `batched` arguments carry the restart axis in front; a call
    whose `out` has none goes straight through. The loop kernels walk the
    CSR rows, so a padded support is not used.
    """
    def run(*args, pad=None):
        head, tail = args[:-batched], args[-batched:]
        out = tail[-1]
        if out.ndim == 3:
            return kernel(*args)
        for r in range(out.shape[0]):
            kernel(*head, *(x[r] for x in tail))
        return out

    return run


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
    tilted_q_log = _per_restart(_jit(_tilted_q_log), 2)
    fold_policy_log = _per_restart(_jit(_fold_policy_log), 3)
else:
    tilted_q_log = _np_tilted_q_log
    fold_policy_log = _np_fold_policy_log

NUMPY_IMPLS = {
    "tilted_q_log": _np_tilted_q_log,
    "fold_policy_log": _np_fold_policy_log,
}

LOOP_IMPLS = {
    "tilted_q_log": _tilted_q_log,
    "fold_policy_log": _fold_policy_log,
}
