"""Core Dec-POMDP data model and joint-space indexing.

Axis conventions used everywhere in this package (dense, float64, row-major):

    P      (S, A, S', Y')   joint dynamics P(s', y' | s, a)
    r      (S, A)           expected immediate reward
    zeta1  (S, Y)           initial joint distribution over (state, observation)

where A = prod |A^i| and Y = prod |Y^i| are flat joint indices in row-major
agent order (agent 1 is the most significant digit). JointIndexer converts
between joint tuples and flat indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_ATOL = 1e-9


def is_int(value, lo=None) -> bool:
    """An integer, numpy's included, but not a bool, and >= lo if given."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool)
            and (lo is None or bool(value >= lo)))


class JointIndexer:
    """Mixed-radix bijection between per-agent index tuples and flat indices."""

    def __init__(self, sizes):
        self.sizes = tuple(int(n) for n in sizes)
        if any(n <= 0 for n in self.sizes):
            raise ValueError("all sizes must be positive")
        self.size = 1
        for n in self.sizes:
            self.size *= n

    def encode(self, parts) -> int:
        parts = tuple(parts)
        if len(parts) != len(self.sizes):
            raise ValueError("wrong tuple length")
        flat = 0
        for p, n in zip(parts, self.sizes):
            if not 0 <= p < n:
                raise ValueError(f"component {p} out of range [0, {n})")
            flat = flat * n + p
        return flat

    def decode(self, flat: int):
        if not 0 <= flat < self.size:
            raise ValueError(f"flat index {flat} out of range [0, {self.size})")
        parts = []
        for n in reversed(self.sizes):
            parts.append(flat % n)
            flat //= n
        return tuple(reversed(parts))

    def component(self, i: int) -> np.ndarray:
        """Array c with c[flat] = agent i's component of the decoded tuple."""
        grid = np.indices(self.sizes)[i]
        return grid.reshape(-1).astype(np.int64)


@dataclass
class DecPomdpModel:
    """Finite-horizon Dec-POMDP <N, S, A, Y, P, r, zeta1, T>."""

    n_agents: int
    state_count: int
    action_counts: tuple
    obs_counts: tuple
    P: np.ndarray          # (S, A, S', Y')
    r: np.ndarray          # (S, A)
    zeta1: np.ndarray      # (S, Y)
    horizon: int
    state_names: list = field(default_factory=list)
    action_names: list = field(default_factory=list)   # per agent
    obs_names: list = field(default_factory=list)      # per agent
    init_obs_mode: str = "dummy_observation"
    discount: float = 1.0   # recorded from the source file, unused by the solver

    def __post_init__(self):
        self.action_counts = tuple(int(n) for n in self.action_counts)
        self.obs_counts = tuple(int(n) for n in self.obs_counts)
        self.P = np.ascontiguousarray(self.P, dtype=np.float64)
        self.r = np.ascontiguousarray(self.r, dtype=np.float64)
        self.zeta1 = np.ascontiguousarray(self.zeta1, dtype=np.float64)
        self.validate()

    @property
    def joint_action_count(self) -> int:
        return int(np.prod(self.action_counts))

    @property
    def joint_obs_count(self) -> int:
        return int(np.prod(self.obs_counts))

    def validate(self):
        S, A, Y = self.state_count, self.joint_action_count, self.joint_obs_count
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.P.shape != (S, A, S, Y):
            raise ValueError(f"P has shape {self.P.shape}, expected {(S, A, S, Y)}")
        if self.r.shape != (S, A):
            raise ValueError(f"r has shape {self.r.shape}, expected {(S, A)}")
        if self.zeta1.shape != (S, Y):
            raise ValueError(f"zeta1 has shape {self.zeta1.shape}, expected {(S, Y)}")
        if not np.all(np.isfinite(self.r)):
            raise ValueError("rewards must be finite")
        if not (np.all(np.isfinite(self.P)) and np.all(np.isfinite(self.zeta1))):
            raise ValueError("probabilities must be finite")
        if np.any(self.P < 0) or np.any(self.zeta1 < 0):
            raise ValueError("probabilities must be nonnegative")
        row_sums = self.P.sum(axis=(2, 3))
        bad = np.abs(row_sums - 1.0) > PROB_ATOL
        if np.any(bad):
            s, a = np.argwhere(bad)[0]
            raise ValueError(
                f"P(.|s={s},a={a}) sums to {row_sums[s, a]:.12g}, expected 1"
            )
        z_sum = self.zeta1.sum()
        if abs(z_sum - 1.0) > PROB_ATOL:
            raise ValueError(f"zeta1 sums to {z_sum:.12g}, expected 1")


def make_initial_distribution(start, obs_counts, mode="dummy_observation"):
    """Build zeta1 from a start distribution over states.

    dummy_observation (default): each agent's observation alphabet is augmented
    with one distinguished null symbol (appended as the last index); all initial
    mass sits on the all-null joint observation, so agents act at t=1 with no
    environment information. Returns (zeta1, augmented obs_counts).

    uniform_observation: no augmentation; zeta1(s, y) = start(s) / prod |Y^i|.
    """
    start = np.asarray(start, dtype=np.float64)
    if start.ndim != 1 or start.size == 0:
        raise ValueError("start must be a nonempty vector")
    if abs(start.sum() - 1.0) > 1e-6 or np.any(start < 0):
        raise ValueError(f"start distribution sums to {start.sum():.12g}")
    obs_counts = tuple(int(n) for n in obs_counts)
    S = start.size
    if mode == "dummy_observation":
        new_counts = tuple(n + 1 for n in obs_counts)
        Y = int(np.prod(new_counts))
        zeta1 = np.zeros((S, Y))
        y_null = JointIndexer(new_counts).encode(tuple(n - 1 for n in new_counts))
        zeta1[:, y_null] = start
        return zeta1, new_counts
    if mode == "uniform_observation":
        Y = int(np.prod(obs_counts))
        zeta1 = np.repeat(start[:, None], Y, axis=1) / Y
        return zeta1, obs_counts
    raise ValueError(f"unknown initial-observation mode {mode!r}")


def pad_dynamics_for_dummy(P, obs_counts):
    """Re-embed P (S, A, S', Y') into the dummy-augmented joint observation space.

    The null symbols are never emitted after t=1: padded cells stay zero.
    """
    S, A, S2, Y = P.shape
    obs_counts = tuple(int(n) for n in obs_counts)
    new_counts = tuple(n + 1 for n in obs_counts)
    src = P.reshape((S, A, S2) + obs_counts)
    out = np.zeros((S, A, S2) + new_counts)
    sl = (slice(None), slice(None), slice(None)) + tuple(slice(0, n) for n in obs_counts)
    out[sl] = src
    return out.reshape(S, A, S2, int(np.prod(new_counts)))


def matrix_game_model(payoffs, horizon=1) -> DecPomdpModel:
    """Single-state, single-observation two-player game with shared payoffs.

    payoffs[a1][a2] is the joint reward; T=1, |S|=1, |Y^i|=1 by construction.
    """
    payoffs = np.asarray(payoffs, dtype=np.float64)
    if payoffs.ndim != 2:
        raise ValueError("payoffs must be a 2-D table")
    n1, n2 = payoffs.shape
    A = n1 * n2
    P = np.ones((1, A, 1, 1))
    r = payoffs.reshape(1, A)
    zeta1 = np.ones((1, 1))
    return DecPomdpModel(
        n_agents=2,
        state_count=1,
        action_counts=(n1, n2),
        obs_counts=(1, 1),
        P=P,
        r=r,
        zeta1=zeta1,
        horizon=horizon,
        init_obs_mode="uniform_observation",
    )
