"""The log-domain kernel of the tilted (lambda > 0) stage backup.

    tilted_q_log         log sum P exp(L) as one shifted matmul

It carries lambda-scaled values (L = lambda*V). With m the max of L_{t+1}
over the successors (s', y') of each (restart, z), the backup
log sum_{s', y'} P(s', y' | s, a) exp L_{t+1}(s', y', z) is
m + log(P @ exp(L_{t+1} - m)): every exp lies in [0, 1], however far
lambda*V spans beyond exp()'s range on long horizons. E = exp(L - m) keeps
L's (S*Y, Z) layout and P enters in Fortran order (`DecPomdpModel.P_flat`),
as in the lam = 0 backup (`evaluation.stage_backup`): in that form columns
of L that are equal give equal bits under OpenBLAS at every shape tried,
which P in C order does not at some shapes with Z >= 9.

A cell whose shifted sum falls below UNDERFLOW has lost bits to underflow:
each of its terms sits far below the (restart, z) max. Those cells alone
are recomputed by `_tilted_q_gather`, a per-cell max-shifted logsumexp over
P's support padded by value (`evaluation._support`): the successors of flat
row s*A + a, each the flat index s' * Y + y', fill column s*A + a of a
(W, S*A) array, and log p the same cells of another, with log p = -inf in
the pad cells behind a shorter row. A pad cell's term is then -inf whatever
finite value it gathers, so its exp adds an exact 0.0. A row with no
successors comes out -inf.

Both take a batch: leading restart axes on L_next and out. Each restart's
slice comes out bit for bit as it would alone.
"""

from __future__ import annotations

import numpy as np

# perfbench/run.py reads this name and refuses to time a package that does
# not report the numpy kernels.
BACKEND = "numpy"
NEG_INF = -np.inf
# a shifted sum below this has lost bits to underflow: a term that the
# product flushed to a subnormal or 0 counts for more than eps of it
UNDERFLOW = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def quiet_overflow():
    """The floating-point state the kernels' callers run them under.

    Overflow and inf - inf are silenced: an overflowing cell comes out as
    +inf or nan, which the caller's finiteness check reports as a
    NumericError. Callers enter it once per recursion, not once per call.
    """
    return np.errstate(over="ignore", invalid="ignore")


def tilted_q_log(p_flat, support, lam_r, L_next, out, scratch=None):
    """out[s, a, z] = lam_r[s, a] + log sum_k p_flat[j, k] exp(L_next[k, z])
    for j = s*A + a, L_next's (S, Y) axes read as one flat k = s' * Y + y'.

    p_flat is P's flat (S*A, S*Y) table in Fortran order; `support` the
    padded (succ, log p) of the same P, read only for underflowing cells.
    Works on any leading restart axes in front of (S, Y, Z) and (S, A, Z).
    `scratch` is the pair of buffers E (.., S*Y, Z) and the product
    (.., S*A, Z), with the same leading axes; None allocates them.
    Each (restart, z) column is shifted by its own max m; a non-finite m
    shifts by 0, so a nan or +inf in L_next stays non-finite in out.
    """
    S, Y, Z = L_next.shape[-3:]
    lead = L_next.shape[:-3]
    A = lam_r.shape[1]
    if scratch is None:
        scratch = np.empty(lead + (S * Y, Z)), np.empty(lead + (S * A, Z))
    e, prod = scratch
    rows = L_next.reshape(lead + (S * Y, Z))
    m = rows.max(axis=-2, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    np.subtract(rows, m, out=e)
    np.exp(e, out=e)
    np.matmul(p_flat, e, out=prod)
    low = prod < UNDERFLOW
    # an underflowing cell is recomputed below; until then its log is
    # taken at UNDERFLOW, which needs no divide-by-zero warning
    np.maximum(prod, UNDERFLOW, out=prod)
    np.log(prod, out=prod)
    np.add(lam_r[:, :, None], m.reshape(lead + (1, 1, Z)), out=out)
    out += prod.reshape(lead + (S, A, Z))
    if low.any():
        _recompute_underflow(low, support, lam_r, L_next, out)
    return out


def _recompute_underflow(low, support, lam_r, L_next, out):
    """Overwrite the cells of out that `low` (.., S*A, Z) flags with their
    `_tilted_q_gather` value. The gather runs on the support rows j that
    hold a flagged cell, for every restart and z."""
    succ, logp = support
    A = lam_r.shape[1]
    cols = np.flatnonzero(low.any(axis=tuple(range(low.ndim - 2)) + (-1,)))
    sub = np.empty(low.shape[:-2] + (1, len(cols), low.shape[-1]))
    _tilted_q_gather(succ[:, cols], logp[:, cols],
                     lam_r.reshape(1, -1)[:, cols], L_next, sub)
    s, a = np.divmod(cols, A)
    cells = out[..., s, a, :]
    np.copyto(cells, sub[..., 0, :, :], where=low[..., cols, :])
    out[..., s, a, :] = cells


def _tilted_q_gather(succ, logp, lam_r, L_next, out):
    """out[s, a, z] = lam_r[s, a] + LSE_k(logp[k, j] + L_next[succ[k, j], z])
    for j = s*A + a, with L_next's (S, Y) axes read as one flat s' * Y + y'.

    Works on any leading restart axes in front of (S, Y, Z) and (S, A, Z).
    The support is gathered with the successors leading and every other
    axis behind them, and each cell sums one successor at a time in support
    order, whatever the shape. The gather, of shape (W, S*A) + the restart
    axes + (Z,), is a new array.
    """
    S, Y = L_next.shape[-3:-1]
    nb = L_next.ndim - 3
    # (R.., S, Y, Z) -> (S Y, R.., Z), then (S, A, R.., Z) -> (R.., S, A, Z)
    restarts_in = (nb, nb + 1) + tuple(range(nb)) + (nb + 2,)
    restarts_out = tuple(range(2, 2 + nb)) + (0, 1, 2 + nb)
    rows = L_next.transpose(restarts_in).reshape((S * Y,) + L_next.shape[:nb]
                                                 + L_next.shape[-1:])
    vals = np.take(rows, succ, axis=0, mode="clip")
    vals += logp.reshape(logp.shape + (1,) * (nb + 1))
    m = vals.max(axis=0, initial=NEG_INF)
    ok = np.isfinite(m)
    vals -= np.where(ok, m, 0.0)
    # one successor at a time: a sum along axis 0 turns pairwise when the
    # other axes hold one cell, as a lone restart's single row at Z = 1 does
    acc = np.zeros(vals.shape[1:])
    for term in np.exp(vals, out=vals):
        acc += term
    np.log(acc, out=acc, where=ok)
    res = np.where(ok, lam_r.reshape((-1,) + (1,) * (nb + 1)) + m + acc,
                   NEG_INF)
    res = res.reshape(lam_r.shape + res.shape[1:])
    out[...] = res.transpose(restarts_out)
    return out
