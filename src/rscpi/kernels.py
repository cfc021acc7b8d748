"""The log-domain kernel of the tilted (lambda > 0) recursion.

    tilted_q_log         backward Q backup over the sparse support

It carries lambda-scaled values (L = lambda*V) and uses a per-output-cell
max-shifted logsumexp; a single global shift is unsafe because lambda*V
spans far beyond exp()'s range on long horizons. Its largest intermediate,
the gathered successors, lands in a `scratch=` buffer when one is given.

Dynamics enter as a CSR-style support: for flat row (s, a), the nonzero
successors (s', y') live at positions indptr[s*A + a] : indptr[s*A + a + 1].
The backup runs on that support padded to one row length, with each
successor as one flat index s' * Y + y' (`pad_support`); callers that back
up many stages build the padding once and pass it as `pad=`.

The kernel also takes a batch: a leading restart axis on L_next and out.
Each restart's slice comes out bit for bit as it would alone.
"""

from __future__ import annotations

import numpy as np

# perfbench/run.py reads this name and refuses to time a package that does
# not report the numpy kernels.
BACKEND = "numpy"
NEG_INF = -np.inf


def quiet_overflow():
    """The floating-point state the kernels' callers run them under.

    Overflow and inf - inf are silenced: an overflowing cell comes out as
    +inf or nan, which the caller's finiteness check reports as a
    NumericError. Callers enter it once per recursion, not once per call.
    """
    return np.errstate(over="ignore", invalid="ignore")


def pad_support(indptr, sp_idx, yp_idx, logp, obs_count):
    """The CSR support padded to its longest row, successors leading.

    Returns (s' * obs_count + y', log p, pad), each of shape (W, S*A) for W
    the longest row's length: column s*A + a holds that row's successors,
    then copies of the last support entry wherever `pad` is True.
    """
    lengths = np.diff(indptr)
    cols = np.arange(lengths.max(initial=0))[:, None]
    pos = np.minimum(indptr[:-1] + cols, len(logp) - 1)
    return sp_idx[pos] * obs_count + yp_idx[pos], logp[pos], cols >= lengths


def tilted_q_log(indptr, sp_idx, yp_idx, logp, lam_r, L_next, out,
                 pad=None, scratch=None):
    """out[s, a, z] = lam_r[s, a] + LSE_k(logp[k] + L_next[s'_k, y'_k, z]).

    Works on any leading restart axes in front of (S, Y, Z) and (S, A, Z).
    The padded support is gathered with the successors leading and every
    other axis behind them (pad cells get -inf, so exp adds an exact 0.0),
    so each cell sums one successor at a time in support order; reduceat
    would not. The gather lands in `scratch`, of shape (W, S*A) + the
    restart axes + (Z,), or in a new array when it is None.
    """
    S, Y = L_next.shape[-3:-1]
    succ, lp, padded = pad or pad_support(indptr, sp_idx, yp_idx, logp, Y)
    nb = L_next.ndim - 3
    # (R.., S, Y, Z) -> (S Y, R.., Z), then (S, A, R.., Z) -> (R.., S, A, Z)
    restarts_in = (nb, nb + 1) + tuple(range(nb)) + (nb + 2,)
    restarts_out = tuple(range(2, 2 + nb)) + (0, 1, 2 + nb)
    rows = L_next.transpose(restarts_in).reshape((S * Y,) + L_next.shape[:nb]
                                                 + L_next.shape[-1:])
    vals = np.take(rows, succ, axis=0, out=scratch, mode="clip")
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
    out[...] = res.transpose(restarts_out)
    return out
