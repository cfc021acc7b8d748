"""Agent-state stochastic policies: random init, conservative mixing, dumps.

A joint policy holds, per agent i, a table of shape (T, Y_i, Z_i, A_i, Z_i):

    tables[i][t, y, w, a, z] = pi^i_t(a, z | y, w)

where w is the incoming agent state and z the outgoing one. Rows (the last two
axes together) are probability distributions. phi[i] is agent i's distribution
over the initial agent state z_0. A `PolicyBatch` stacks R joint policies
of one shape on a leading restart axis, so that the solver can sweep them in
lockstep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .model import is_int

ROW_ATOL = 1e-9


@dataclass
class JointPolicy:
    horizon: int
    agent_state_sizes: tuple
    tables: list                 # per agent: (T, Y_i, Z_i, A_i, Z_i)
    phi: list = field(default_factory=list)   # per agent: (Z_i,)

    def __post_init__(self):
        self.agent_state_sizes = tuple(int(z) for z in self.agent_state_sizes)
        self.tables = [np.ascontiguousarray(t, dtype=np.float64) for t in self.tables]
        if not self.phi:
            self.phi = [point_mass_phi(z) for z in self.agent_state_sizes]
        self.phi = [np.ascontiguousarray(p, dtype=np.float64) for p in self.phi]
        self.validate()

    @property
    def n_agents(self) -> int:
        return len(self.tables)

    def action_counts(self):
        return tuple(t.shape[-2] for t in self.tables)

    def obs_counts(self):
        return tuple(t.shape[-4] for t in self.tables)

    def validate(self):
        if len(self.phi) != len(self.tables):
            raise ValueError("phi and tables must cover the same agents")
        if len(self.agent_state_sizes) != len(self.tables):
            raise ValueError(
                f"agent_state_sizes lists {len(self.agent_state_sizes)} "
                f"sizes for {len(self.tables)} tables")
        for i, tab in enumerate(self.tables):
            if tab.ndim != 5 or tab.shape[0] != self.horizon:
                raise ValueError(f"agent {i} table has shape {tab.shape}")
            zi = self.agent_state_sizes[i]
            if tab.shape[2] != zi or tab.shape[4] != zi:
                raise ValueError(f"agent {i} table disagrees with |Z^{i}|={zi}")
            if not np.all(np.isfinite(tab)):
                raise ValueError(f"agent {i} table has non-finite entries")
            if np.any(tab < 0):
                raise ValueError(f"agent {i} table has negative entries")
            with np.errstate(over="ignore"):  # huge entries: inf, not 1
                sums = tab.sum(axis=(3, 4))
            if np.any(np.abs(sums - 1.0) > ROW_ATOL):
                bad = np.argwhere(np.abs(sums - 1.0) > ROW_ATOL)[0]
                raise ValueError(
                    f"agent {i} row {tuple(bad)} sums to "
                    f"{sums[tuple(bad)]:.12g}, expected 1"
                )
            ph = self.phi[i]
            with np.errstate(over="ignore"):
                phi_ok = abs(ph.sum() - 1.0) <= ROW_ATOL
            if ph.shape != (zi,) or not phi_ok or np.any(ph < 0):
                raise ValueError(f"agent {i} phi invalid")

    def copy(self) -> "JointPolicy":
        return JointPolicy(
            horizon=self.horizon,
            agent_state_sizes=self.agent_state_sizes,
            tables=[t.copy() for t in self.tables],
            phi=[p.copy() for p in self.phi],
        )


class PolicyBatch:
    """R joint policies of one shape, stacked on a leading restart axis.

    tables[i] has shape (R, T, Y_i, Z_i, A_i, Z_i) and phi[i] (R, Z_i).
    policies[r] is a JointPolicy viewing restart r's slices, so a write to
    the batch shows in it and the other way round.
    """

    def __init__(self, tables, phi, policies=None):
        self.tables = tables
        self.phi = phi
        self.horizon = tables[0].shape[1]
        self.agent_state_sizes = tuple(t.shape[3] for t in tables)
        self._policies = policies

    @classmethod
    def of(cls, policy) -> "PolicyBatch":
        """policy itself if a PolicyBatch, else a batch of one that views
        the JointPolicy's arrays; nothing is copied."""
        if isinstance(policy, PolicyBatch):
            return policy
        return cls([t[None] for t in policy.tables],
                   [p[None] for p in policy.phi], [policy])

    @classmethod
    def stack(cls, policies, count: int) -> "PolicyBatch":
        """Copy `count` policies of one shape into a new batch.

        `policies` may be a generator: each policy is copied in as it comes,
        so they need not all be alive at once.
        """
        tables = phi = None
        for r, policy in enumerate(policies):
            if tables is None:
                tables = [np.empty((count,) + t.shape) for t in policy.tables]
                phi = [np.empty((count,) + p.shape) for p in policy.phi]
            if r >= count:
                raise ValueError(f"more than {count} policies to stack")
            for dst, src in zip(tables + phi, policy.tables + policy.phi):
                if dst.shape[1:] != src.shape:
                    raise ValueError(f"policy {r} has an array of shape "
                                     f"{src.shape}, the batch {dst.shape[1:]}")
                dst[r] = src
        if tables is None or r + 1 != count:
            raise ValueError(f"expected {count} policies to stack")
        return cls(tables, phi)

    @property
    def policies(self) -> list:
        """The per-restart JointPolicy views, built on first use."""
        if self._policies is None:
            self._policies = [
                JointPolicy(horizon=self.horizon,
                            agent_state_sizes=self.agent_state_sizes,
                            tables=[t[r] for t in self.tables],
                            phi=[p[r] for p in self.phi])
                for r in range(self.size)]
        return self._policies

    @property
    def size(self) -> int:
        return self.tables[0].shape[0]

    @property
    def n_agents(self) -> int:
        return len(self.tables)

    def action_counts(self):
        return tuple(t.shape[-2] for t in self.tables)

    def obs_counts(self):
        return tuple(t.shape[-4] for t in self.tables)


def point_mass_phi(z_size: int) -> np.ndarray:
    phi = np.zeros(int(z_size))
    phi[0] = 1.0
    return phi


def random_policy(action_counts, obs_counts, z_sizes, horizon,
                  seed) -> JointPolicy:
    """Independent flat-Dirichlet rows; bitwise deterministic per (dims, seed).

    Draw order is fixed: agents outer, time steps inner, rows in C order.
    Every agent starts in agent state 0: a phi of more mass folds into the
    t = 1 rows at incoming state 0 with the same return distribution.
    """
    rng = np.random.default_rng(int(seed))
    tables = []
    for ai, yi, zi in zip(action_counts, obs_counts, z_sizes):
        k = ai * zi
        rows = rng.dirichlet(np.ones(k), size=(horizon, yi, zi))
        tables.append(rows.reshape(horizon, yi, zi, ai, zi))
    return JointPolicy(horizon=horizon, agent_state_sizes=tuple(z_sizes),
                       tables=tables)


def mix_policies(old_slice: np.ndarray, picks: np.ndarray,
                 alpha: float) -> np.ndarray:
    """Conservative update (1 - alpha) * old + alpha * point_mass(picks).

    old_slice is (..., Y_i, Z_i, A_i, Z_i) and picks (..., Y_i, Z_i): each
    row's greedy cell as the flat index a * Z_i + z' of its (A_i, Z_i) axes.
    alpha = 0 returns the old slice unchanged (bitwise); otherwise
    (1 - alpha) * old is built C-ordered, alpha is added at each row's pick
    in one scatter on its (rows, A_i Z_i) view, and the rows are
    renormalized in place to absorb floating-point drift. Leading axes, such
    as a restart axis, are mixed row by row; old_slice is never written.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        return old_slice
    mixed = np.multiply(1.0 - alpha, old_slice, order="C")
    rows = mixed.reshape(-1, mixed.shape[-2] * mixed.shape[-1], copy=False)
    rows[np.arange(len(rows)), picks.reshape(-1)] += alpha
    mixed /= mixed.sum(axis=(-2, -1), keepdims=True)
    return mixed


def policy_to_json(policy: JointPolicy) -> str:
    doc = {
        "horizon": policy.horizon,
        "agent_state_sizes": list(policy.agent_state_sizes),
        "tables": [t.tolist() for t in policy.tables],
        "phi": [p.tolist() for p in policy.phi],
    }
    return json.dumps(doc)


def policy_from_json(text: str) -> JointPolicy:
    """Inverse of policy_to_json; a malformed document raises ValueError
    naming the offending field."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"policy JSON must be an object, "
                         f"not {type(doc).__name__}")
    horizon = _json_field(doc, "horizon")
    if not is_int(horizon, 1):
        raise ValueError("policy field 'horizon' must be a positive integer")
    sizes = _json_field(doc, "agent_state_sizes")
    if not isinstance(sizes, list) or not all(is_int(z, 1) for z in sizes):
        raise ValueError("policy field 'agent_state_sizes' must be a list "
                         "of positive integers")
    arrays = {}
    for name in ("tables", "phi"):
        items = _json_field(doc, name)
        if not isinstance(items, list) or len(items) != len(sizes):
            raise ValueError(f"policy field {name!r} must be a list with one "
                             f"entry per agent ({len(sizes)})")
        try:
            arrays[name] = [np.asarray(x, dtype=np.float64) for x in items]
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"policy field {name!r} holds an entry that is "
                             "not a numeric array") from None
    return JointPolicy(horizon=horizon, agent_state_sizes=tuple(sizes),
                       tables=arrays["tables"], phi=arrays["phi"])


def _json_field(doc: dict, name: str):
    if name not in doc:
        raise ValueError(f"policy JSON lacks the field {name!r}")
    return doc[name]


def dump_policy(policy: JointPolicy, model=None) -> str:
    """Human-readable dump: one table per time step.

    Rows are observation symbols, one column block per agent state; each cell
    shows the most probable (action, next agent state), annotated with its
    probability when below 0.999.
    """
    act_names, obs_names = _resolve_names(policy, model)
    lines = []
    for t in range(policy.horizon):
        lines.append(f"t={t + 1}")
        for i, tab in enumerate(policy.tables):
            zi = policy.agent_state_sizes[i]
            lines.append(f"  agent {i + 1}")
            header = ["obs".ljust(14)] + [f"z={w}".ljust(18) for w in range(zi)]
            lines.append("    " + "".join(header))
            for y in range(tab.shape[1]):
                cells = [str(obs_names[i][y]).ljust(14)]
                for w in range(zi):
                    row = tab[t, y, w]
                    flat = int(np.argmax(row))
                    a, z = divmod(flat, zi)
                    p = row.reshape(-1)[flat]
                    cell = f"{act_names[i][a]}/z{z}"
                    if p < 0.999:
                        cell += f" ({p:.2f})"
                    cells.append(cell.ljust(18))
                lines.append("    " + "".join(cells))
    return "\n".join(lines) + "\n"


def _resolve_names(policy, model):
    n = policy.n_agents
    acts = policy.action_counts()
    obs = policy.obs_counts()
    act_names = [[f"a{k}" for k in range(acts[i])] for i in range(n)]
    obs_names = [[f"y{k}" for k in range(obs[i])] for i in range(n)]
    if model is not None:
        if model.action_names:
            act_names = [list(model.action_names[i]) for i in range(n)]
        if model.obs_names:
            obs_names = [list(model.obs_names[i]) for i in range(n)]
    return act_names, obs_names
