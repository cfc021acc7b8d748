"""Agent-state stochastic policies: random init, conservative mixing, dumps.

A joint policy holds, per agent i, a table of shape (T, Y_i, Z_i, A_i, Z_i):

    tables[i][t, y, w, a, z] = pi^i_t(a, z | y, w)

where w is the incoming agent state and z the outgoing one. Rows (the last two
axes together) are probability distributions. phi[i] is agent i's distribution
over the initial agent state z_0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

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
        return tuple(t.shape[3] for t in self.tables)

    def obs_counts(self):
        return tuple(t.shape[1] for t in self.tables)

    def validate(self):
        if len(self.phi) != len(self.tables):
            raise ValueError("phi and tables must cover the same agents")
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
            sums = tab.sum(axis=(3, 4))
            if np.any(np.abs(sums - 1.0) > ROW_ATOL):
                bad = np.argwhere(np.abs(sums - 1.0) > ROW_ATOL)[0]
                raise ValueError(
                    f"agent {i} row {tuple(bad)} sums to "
                    f"{sums[tuple(bad)]:.12g}, expected 1"
                )
            ph = self.phi[i]
            if (ph.shape != (zi,) or not abs(ph.sum() - 1.0) <= ROW_ATOL
                    or np.any(ph < 0)):
                raise ValueError(f"agent {i} phi invalid")

    def copy(self) -> "JointPolicy":
        return JointPolicy(
            horizon=self.horizon,
            agent_state_sizes=self.agent_state_sizes,
            tables=[t.copy() for t in self.tables],
            phi=[p.copy() for p in self.phi],
        )


def point_mass_phi(z_size: int, index: int = 0) -> np.ndarray:
    phi = np.zeros(int(z_size))
    phi[index] = 1.0
    return phi


def uniform_phi(z_size: int) -> np.ndarray:
    return np.full(int(z_size), 1.0 / int(z_size))


@dataclass
class DeterministicAgentSlice:
    """Greedy decision rule for one (agent, time): (y, w) -> (action, next state)."""

    agent: int
    t: int
    actions: np.ndarray       # (Y_i, Z_i) int
    next_states: np.ndarray   # (Y_i, Z_i) int

    def as_table(self, action_count: int, z_size: int) -> np.ndarray:
        """Point-mass policy table of shape (Y_i, Z_i, A_i, Z_i)."""
        ny, nw = self.actions.shape
        tab = np.zeros((ny, nw, action_count, z_size))
        yy, ww = np.meshgrid(np.arange(ny), np.arange(nw), indexing="ij")
        tab[yy, ww, self.actions, self.next_states] = 1.0
        return tab


def random_policy(action_counts, obs_counts, z_sizes, horizon, seed,
                  phi_mode="point_mass") -> JointPolicy:
    """Independent flat-Dirichlet rows; bitwise deterministic per (dims, seed).

    Draw order is fixed: agents outer, time steps inner, rows in C order.
    """
    rng = np.random.default_rng(int(seed))
    tables = []
    for ai, yi, zi in zip(action_counts, obs_counts, z_sizes):
        k = ai * zi
        rows = rng.dirichlet(np.ones(k), size=(horizon, yi, zi))
        tables.append(rows.reshape(horizon, yi, zi, ai, zi))
    phi = [point_mass_phi(z) if phi_mode == "point_mass" else uniform_phi(z)
           for z in z_sizes]
    return JointPolicy(horizon=horizon, agent_state_sizes=tuple(z_sizes),
                       tables=tables, phi=phi)


def mix_policies(old_slice: np.ndarray, new: DeterministicAgentSlice,
                 alpha: float) -> np.ndarray:
    """Conservative update (1 - alpha) * old + alpha * point_mass(new), rowwise.

    alpha = 0 returns the old slice unchanged (bitwise); otherwise alpha is
    added in place at each row's greedy cell, and rows are renormalized after
    mixing to absorb floating-point drift.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        return old_slice
    ny, nw = new.actions.shape
    mixed = (1.0 - alpha) * old_slice
    mixed[np.arange(ny)[:, None], np.arange(nw)[None, :],
          new.actions, new.next_states] += alpha
    sums = mixed.sum(axis=(2, 3), keepdims=True)
    return mixed / sums


def policy_to_json(policy: JointPolicy) -> str:
    doc = {
        "horizon": policy.horizon,
        "agent_state_sizes": list(policy.agent_state_sizes),
        "tables": [t.tolist() for t in policy.tables],
        "phi": [p.tolist() for p in policy.phi],
    }
    return json.dumps(doc)


def policy_from_json(text: str) -> JointPolicy:
    doc = json.loads(text)
    return JointPolicy(
        horizon=int(doc["horizon"]),
        agent_state_sizes=tuple(doc["agent_state_sizes"]),
        tables=[np.asarray(t, dtype=np.float64) for t in doc["tables"]],
        phi=[np.asarray(p, dtype=np.float64) for p in doc["phi"]],
    )


def dump_policy(policy: JointPolicy, model=None, names=None) -> str:
    """Human-readable dump: one table per time step.

    Rows are observation symbols, one column block per agent state; each cell
    shows the most probable (action, next agent state), annotated with its
    probability when below 0.999.
    """
    act_names, obs_names = _resolve_names(policy, model, names)
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


def _resolve_names(policy, model, names):
    if names is not None:
        return names
    n = policy.n_agents
    acts = policy.action_counts()
    obs = policy.obs_counts()
    act_names = [[f"a{k}" for k in range(acts[i])] for i in range(n)]
    obs_names = [[f"y{k}" for k in range(obs[i])] for i in range(n)]
    if model is not None:
        if getattr(model, "action_names", None):
            act_names = [list(model.action_names[i]) for i in range(n)]
        if getattr(model, "obs_names", None):
            obs_names = [list(model.obs_names[i]) for i in range(n)]
    return act_names, obs_names
