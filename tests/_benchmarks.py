"""Benchmark fixture text and small random-model generators for tests.

Dec-Tiger is generated exactly (its parameters are standard). The recycling
model is generated from battery/reward parameters whose values were
identified against published planning values for this benchmark family; see
the acceptance tests for the checkpoints they must reproduce. Larger
benchmark files are user-placed under benchmarks/<name>.dpomdp.
"""

import numpy as np

from rscpi.dpomdp_parser import compile_model, parse_dpomdp
from rscpi.model import DecPomdpModel
from rscpi.policy import JointPolicy, point_mass_phi


def dectiger_text() -> str:
    """The two-agent tiger problem, full file text."""
    lines = [
        "agents: 2",
        "discount: 1.0",
        "values: reward",
        "states: tiger-left tiger-right",
        "actions:",
        "listen open-left open-right",
        "listen open-left open-right",
        "observations:",
        "hear-left hear-right",
        "hear-left hear-right",
        "start:",
        "0.5 0.5",
        "T: * :",
        "uniform",
        "T: listen listen :",
        "identity",
        "O: * :",
        "uniform",
        "O: listen listen : tiger-left : hear-left hear-left : 0.7225",
        "O: listen listen : tiger-left : hear-left hear-right : 0.1275",
        "O: listen listen : tiger-left : hear-right hear-left : 0.1275",
        "O: listen listen : tiger-left : hear-right hear-right : 0.0225",
        "O: listen listen : tiger-right : hear-right hear-right : 0.7225",
        "O: listen listen : tiger-right : hear-right hear-left : 0.1275",
        "O: listen listen : tiger-right : hear-left hear-right : 0.1275",
        "O: listen listen : tiger-right : hear-left hear-left : 0.0225",
        "R: listen listen : * : * : * : -2",
        "R: open-left open-left : tiger-right : * : * : 20",
        "R: open-right open-right : tiger-left : * : * : 20",
        "R: open-left open-left : tiger-left : * : * : -50",
        "R: open-right open-right : tiger-right : * : * : -50",
        "R: open-left open-right : * : * : * : -100",
        "R: open-right open-left : * : * : * : -100",
        "R: listen open-left : tiger-right : * : * : 9",
        "R: listen open-left : tiger-left : * : * : -101",
        "R: listen open-right : tiger-left : * : * : 9",
        "R: listen open-right : tiger-right : * : * : -101",
        "R: open-left listen : tiger-right : * : * : 9",
        "R: open-left listen : tiger-left : * : * : -101",
        "R: open-right listen : tiger-left : * : * : 9",
        "R: open-right listen : tiger-right : * : * : -101",
    ]
    return "\n".join(lines) + "\n"


def recycling_text(p_big=0.5, p_small=0.7, p_deplete=0.5,
                   r_big=5.0, r_small=2.0, r_rescue=-3.0,
                   big_needs_high=True, small_needs_high=True) -> str:
    """Two recycling robots with per-robot battery state {high, low}.

    Per-robot battery dynamics given its own action: searching big keeps a
    high battery high with probability p_big, small with p_small; searching
    with a low battery depletes it with probability p_deplete (the robot is
    rescued and returns to high, at r_rescue); recharge restores high.
    Rewards: r_big when both robots search big (optionally gated on both
    batteries high), r_small per robot searching small (optionally gated on
    its own battery), plus expected rescue penalties.
    """
    states = ["high-high", "high-low", "low-high", "low-low"]
    actions = ["searchbig", "searchsmall", "recharge"]

    def battery_row(action, level):
        # returns (P(high'), P(low')) for one robot
        if action == "recharge":
            return (1.0, 0.0)
        stay = p_big if action == "searchbig" else p_small
        if level == 0:     # high
            return (stay, 1.0 - stay)
        return (p_deplete, 1.0 - p_deplete)

    lines = [
        "agents: 2",
        "discount: 1.0",
        "values: reward",
        "states: " + " ".join(states),
        "actions:",
        " ".join(actions),
        " ".join(actions),
        "observations:",
        "obs-high obs-low",
        "obs-high obs-low",
        "start:",
        "1.0 0.0 0.0 0.0",
    ]
    for a1 in actions:
        for a2 in actions:
            for s in range(4):
                lv1, lv2 = s >> 1, s & 1
                row1 = battery_row(a1, lv1)
                row2 = battery_row(a2, lv2)
                probs = [row1[b1] * row2[b2]
                         for b1 in (0, 1) for b2 in (0, 1)]
                text = " ".join(repr(p) for p in probs)
                lines.append(f"T: {a1} {a2} : {states[s]} : {text}")
    # each robot observes its own new battery level, deterministically
    for sp in range(4):
        lv1, lv2 = sp >> 1, sp & 1
        obs = f"obs-{'high' if lv1 == 0 else 'low'} " \
              f"obs-{'high' if lv2 == 0 else 'low'}"
        lines.append(f"O: * : {states[sp]} : {obs} : 1.0")
    for a1 in actions:
        for a2 in actions:
            for s in range(4):
                lv1, lv2 = s >> 1, s & 1
                val = 0.0
                if a1 == "searchbig" and a2 == "searchbig":
                    if not big_needs_high or (lv1 == 0 and lv2 == 0):
                        val += r_big
                for a, lv in ((a1, lv1), (a2, lv2)):
                    if a == "searchsmall":
                        if not small_needs_high or lv == 0:
                            val += r_small
                    if a in ("searchbig", "searchsmall") and lv == 1:
                        val += r_rescue * p_deplete
                if val != 0.0:
                    lines.append(f"R: {a1} {a2} : {states[s]} : * : * : {val!r}")
    return "\n".join(lines) + "\n"


def load_text(text: str, horizon: int,
              init_obs_mode: str = "dummy_observation") -> DecPomdpModel:
    raw, diags = parse_dpomdp(text)
    assert raw is not None, [d.message for d in diags]
    return compile_model(raw, horizon, init_obs_mode)


def dectiger_model(horizon: int,
                   init_obs_mode: str = "dummy_observation") -> DecPomdpModel:
    return load_text(dectiger_text(), horizon, init_obs_mode)


def recycling_model(horizon: int, **params) -> DecPomdpModel:
    return load_text(recycling_text(**params), horizon)


def random_model(rng, n_states=3, action_counts=(2, 2), obs_counts=(2, 2),
                 horizon=3, init_obs_mode="dummy_observation",
                 reward_scale=1.0) -> DecPomdpModel:
    """Random dense Dec-POMDP with Dirichlet rows; obs augmented per mode."""
    n = len(action_counts)
    A = int(np.prod(action_counts))
    Y = int(np.prod(obs_counts))
    P = rng.dirichlet(np.ones(n_states * Y), size=(n_states, A))
    P = P.reshape(n_states, A, n_states, Y)
    r = reward_scale * rng.uniform(-1.0, 1.0, size=(n_states, A))
    start = rng.dirichlet(np.ones(n_states))
    from rscpi.model import make_initial_distribution, pad_dynamics_for_dummy
    zeta1, aug_counts = make_initial_distribution(start, obs_counts,
                                                  init_obs_mode)
    if init_obs_mode == "dummy_observation":
        P = pad_dynamics_for_dummy(P, obs_counts)
    return DecPomdpModel(
        n_agents=n, state_count=n_states, action_counts=tuple(action_counts),
        obs_counts=aug_counts, P=P, r=r, zeta1=zeta1, horizon=horizon,
        init_obs_mode=init_obs_mode)


def fully_observed_model(P, r, start, horizon) -> DecPomdpModel:
    """Embed a single-agent MDP: one agent whose observation is the state.

    zeta1 reveals the initial state (y = s), and every transition emits the
    successor state, so a reactive |Z|=1 policy sees the true state at every
    step.
    """
    P = np.asarray(P, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    start = np.asarray(start, dtype=np.float64)
    S, A = r.shape
    joint = np.zeros((S, A, S, S))
    for s in range(S):
        for a in range(A):
            for sp in range(S):
                joint[s, a, sp, sp] = P[s, a, sp]
    zeta1 = np.diag(start)
    return DecPomdpModel(
        n_agents=1, state_count=S, action_counts=(A,), obs_counts=(S,),
        P=joint, r=r, zeta1=zeta1, horizon=horizon,
        init_obs_mode="uniform_observation")


def random_policy_for(model, z_sizes, seed) -> JointPolicy:
    from rscpi.policy import random_policy
    return random_policy(model.action_counts, model.obs_counts, z_sizes,
                         model.horizon, seed)


def deterministic_policy(model, z_sizes, actions_fn=None) -> JointPolicy:
    """All-point-mass policy; actions_fn(i, t, y, w) -> (a, z') or action 0."""
    tables = []
    for i, (ai, yi, zi) in enumerate(zip(model.action_counts,
                                         model.obs_counts, z_sizes)):
        tab = np.zeros((model.horizon, yi, zi, ai, zi))
        for t in range(model.horizon):
            for y in range(yi):
                for w in range(zi):
                    a, z = (0, 0) if actions_fn is None else \
                        actions_fn(i, t, y, w)
                    tab[t, y, w, a, z] = 1.0
        tables.append(tab)
    return JointPolicy(horizon=model.horizon, agent_state_sizes=tuple(z_sizes),
                       tables=tables, phi=[point_mass_phi(z) for z in z_sizes])


def dectiger_block_policy(horizon: int) -> JointPolicy:
    """Listen twice, then open only on two consistent hearings; repeats.

    Both agents run the same three-step block: listen and reset memory,
    listen and store the heard side, then open the far door only when the
    stored and current observations agree (listen otherwise). Needs |Z|=2.
    Observation indices: 0 hear-left, 1 hear-right, 2 null; actions:
    0 listen, 1 open-left, 2 open-right.
    """
    assert horizon % 3 == 0
    tab = np.zeros((horizon, 3, 2, 3, 2))
    for t in range(horizon):
        phase = t % 3
        for y in range(3):
            for w in range(2):
                if phase == 0:
                    a, z = 0, 0
                elif phase == 1:
                    a, z = 0, (1 if y == 1 else 0)
                else:
                    if y == 0 and w == 0:
                        a, z = 2, 0
                    elif y == 1 and w == 1:
                        a, z = 1, 0
                    else:
                        a, z = 0, 0
                tab[t, y, w, a, z] = 1.0
    tables = [tab, tab.copy()]
    return JointPolicy(horizon=horizon, agent_state_sizes=(2, 2),
                       tables=tables, phi=[point_mass_phi(2)] * 2)


def recycling_reactive_policy(horizon: int, first_action: int) -> JointPolicy:
    """Reactive (|Z|=1) rule: search small at high battery, recharge at low.

    first_action is the opening move under the null observation; 0 (search
    big) is the coordinated optimum, 1 (search small) the stationary rule.
    Observation indices: 0 own-high, 1 own-low, 2 null.
    """
    tab = np.zeros((horizon, 3, 1, 3, 1))
    for t in range(horizon):
        for y in range(3):
            a = first_action if t == 0 else (2 if y == 1 else 1)
            tab[t, y, 0, a, 0] = 1.0
    tables = [tab, tab.copy()]
    return JointPolicy(horizon=horizon, agent_state_sizes=(1, 1),
                       tables=tables, phi=[point_mass_phi(1)] * 2)
