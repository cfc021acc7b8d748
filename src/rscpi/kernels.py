"""The log-domain kernel of the tilted (lambda > 0) recursion.

    tilted_q_log         backward Q backup over the sparse support

It carries lambda-scaled values (L = lambda*V) and uses a per-output-cell
max-shifted logsumexp; a single global shift is unsafe because lambda*V
spans far beyond exp()'s range on long horizons. Its largest intermediate,
the gathered successors, lands in a `scratch=` buffer when one is given.

Dynamics enter as P's support padded by value (`evaluation._support`): the
successors of flat row s*A + a, each the flat index s' * Y + y', fill
column s*A + a of a (W, S*A) array, and log p the same cells of another,
with log p = -inf in the pad cells behind a shorter row. A pad cell's term
is then -inf whatever finite value it gathers, so its exp adds an exact 0.0.

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


def tilted_q_log(succ, logp, lam_r, L_next, out, scratch=None):
    """out[s, a, z] = lam_r[s, a] + LSE_k(logp[k, j] + L_next[succ[k, j], z])
    for j = s*A + a, with L_next's (S, Y) axes read as one flat s' * Y + y'.

    Works on any leading restart axes in front of (S, Y, Z) and (S, A, Z).
    The support is gathered with the successors leading and every other
    axis behind them, so each cell sums one successor at a time in support
    order; reduceat would not. The gather lands in `scratch`, of shape
    (W, S*A) + the restart axes + (Z,), or in a new array when it is None.
    """
    S, Y = L_next.shape[-3:-1]
    nb = L_next.ndim - 3
    # (R.., S, Y, Z) -> (S Y, R.., Z), then (S, A, R.., Z) -> (R.., S, A, Z)
    restarts_in = (nb, nb + 1) + tuple(range(nb)) + (nb + 2,)
    restarts_out = tuple(range(2, 2 + nb)) + (0, 1, 2 + nb)
    rows = L_next.transpose(restarts_in).reshape((S * Y,) + L_next.shape[:nb]
                                                 + L_next.shape[-1:])
    vals = np.take(rows, succ, axis=0, out=scratch, mode="clip")
    vals += logp.reshape(logp.shape + (1,) * (nb + 1))
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
