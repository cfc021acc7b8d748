"""Parser for the multi-agent `.dpomdp` benchmark text format.

Supported entry shapes: single-probability lines (`T: ja : s : s' : p`), a
row form (`T: ja : s :` with the |S| numbers inline or on the following
line), a matrix form (`T: ja :` followed by |S| lines), and the kernel
keywords `uniform` / `identity` (inline after the colon or on the next
line). `O:` takes the same shapes with a joint observation written as N
whitespace-separated tokens (or a single `*`). `R:` lines are single-valued
only: `R: ja : s : s' : y' : value`.

Pattern slots accept declared names, integer indices, and `*`. The parser
resolves and range-checks each pattern once and stores it as an index array
(joint actions and joint observations as flat mixed-radix indices, agent 1
the most significant digit); `compile_tables` only writes those cells.
Entries apply in strict file order with last-write-wins. `values: cost`
negates rewards. Comments start at `#`. The start distribution is
renormalized at parse time when it sums to within `START_ATOL` of 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (DecPomdpModel, JointIndexer, make_initial_distribution,
                    pad_dynamics_for_dummy)

ROW_EXACT = 1e-12      # keep row bits as parsed below this deviation
ROW_SILENT = 1e-6      # renormalize silently up to here
ROW_WARN = 1e-4        # renormalize with a warning up to here, error beyond
START_ATOL = 1e-6


@dataclass
class ParseDiagnostic:
    line_number: int
    severity: str            # "error" | "warning"
    message: str

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.line_number}: {self.severity}: {self.message}"


@dataclass
class KernelEntry:
    """One T: or O: statement, its patterns resolved to index arrays.

    Both kernels read as (joint action, row, column) tables: rows are s for
    T and s' for O, columns s' for T and the joint observation for O.
    """

    line: int
    ja: np.ndarray           # joint actions
    kind: str                # single | row | matrix | uniform | identity
    rows: np.ndarray         # rows set (every row for matrix and keywords)
    cols: np.ndarray = None  # columns set by the single form
    values: object = None    # float, (k,) row, or (rows, k) matrix


@dataclass
class RewardEntry:
    """One R: statement, its patterns resolved to index arrays."""

    line: int
    ja: np.ndarray
    s: np.ndarray
    sp: np.ndarray
    obs: np.ndarray
    value: float


@dataclass
class RawDpomdpFile:
    agent_count: int
    discount: float
    value_kind: str
    state_names: list
    action_names: list       # per agent
    observation_names: list  # per agent
    start_distribution: np.ndarray   # renormalized
    transition_entries: list = field(default_factory=list)
    observation_entries: list = field(default_factory=list)
    reward_entries: list = field(default_factory=list)


def parse_dpomdp(text: str):
    """Tokenize, validate and resolve every pattern to indices; returns
    (RawDpomdpFile or None, diagnostics)."""
    parser = _Parser(text)
    raw = parser.run()
    if any(d.severity == "error" for d in parser.diags):
        return None, parser.diags
    return raw, parser.diags


class _Parser:
    def __init__(self, text: str):
        self.lines = []
        for i, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if body:
                self.lines.append((i, body))
        self.pos = 0
        self.diags = []
        self.agent_count = None
        self.discount = 1.0
        self.value_kind = "reward"
        self.states = None
        self.actions = None
        self.observations = None
        self.start = None
        self.start_line = 0
        self.t_entries = []
        self.o_entries = []
        self.r_entries = []
        self.seen = set()

    def error(self, line, msg):
        self.diags.append(ParseDiagnostic(line, "error", msg))

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self):
        item = self.lines[self.pos]
        self.pos += 1
        return item

    def run(self):
        handlers = {
            "agents": self._on_agents, "discount": self._on_discount,
            "values": self._on_values, "states": self._on_states,
            "actions": self._on_actions, "observations": self._on_observations,
            "start": self._on_start, "T": self._on_t, "O": self._on_o,
            "R": self._on_r,
        }
        while self.pos < len(self.lines):
            lineno, body = self.take()
            if ":" not in body:
                self.error(lineno, f"unknown keyword '{body.split()[0]}'")
                continue
            head, rest = body.split(":", 1)
            key = head.strip()
            handler = handlers.get(key)
            if handler is None:
                self.error(lineno, f"unknown keyword '{key}'")
                continue
            if key in ("agents", "discount", "values", "states", "actions",
                       "observations", "start"):
                if key in self.seen:
                    self.error(lineno, f"duplicate preamble key '{key}'")
                    continue
                self.seen.add(key)
            handler(lineno, rest)
        return self._finish()

    # ---- preamble -------------------------------------------------------

    def _on_agents(self, lineno, rest):
        toks = rest.split()
        if len(toks) == 1 and toks[0].isdigit():
            self.agent_count = int(toks[0])
        elif toks:
            self.agent_count = len(toks)
        if not self.agent_count:
            self.error(lineno, "agents must declare a positive count")
            self.agent_count = None

    def _on_discount(self, lineno, rest):
        val = self._float(lineno, rest.strip(), "discount")
        if val is None:
            return
        if not 0.0 <= val <= 1.0:
            self.error(lineno, f"discount {val:g} outside [0, 1]")
            return
        self.discount = val

    def _on_values(self, lineno, rest):
        kind = rest.strip()
        if kind not in ("reward", "cost"):
            self.error(lineno, f"values must be 'reward' or 'cost', got '{kind}'")
            return
        self.value_kind = kind

    def _on_states(self, lineno, rest):
        self.states = self._name_list(lineno, rest, "s")

    def _name_list(self, lineno, rest, prefix):
        toks = rest.split()
        if len(toks) == 1 and toks[0].isdigit():
            n = int(toks[0])
            if n < 1:
                self.error(lineno, "count must be positive")
                return None
            return [f"{prefix}{k}" for k in range(n)]
        if not toks:
            self.error(lineno, "empty declaration")
            return None
        if len(set(toks)) != len(toks):
            self.error(lineno, "duplicate name in declaration")
            return None
        return list(toks)

    def _per_agent_lists(self, lineno, rest, prefix):
        if self.agent_count is None:
            self.error(lineno, "declaration requires 'agents' first")
            return None
        out = []
        rest = rest.strip()
        if rest:
            out.append(self._name_list(lineno, rest, prefix))
        while len(out) < self.agent_count:
            item = self.peek()
            if item is None:
                self.error(lineno, "missing per-agent declaration line")
                return None
            ln, body = self.take()
            out.append(self._name_list(ln, body, prefix))
        return None if any(x is None for x in out) else out

    def _on_actions(self, lineno, rest):
        self.actions = self._per_agent_lists(lineno, rest, "a")

    def _on_observations(self, lineno, rest):
        self.observations = self._per_agent_lists(lineno, rest, "o")

    def _on_start(self, lineno, rest):
        if self.states is None:
            self.error(lineno, "start requires 'states' first")
            return
        self.start_line = lineno
        toks = rest.split()
        if not toks:
            item = self.peek()
            if item is None:
                self.error(lineno, "start has no distribution")
                return
            lineno, body = self.take()
            self.start_line = lineno
            toks = body.split()
        if toks == ["uniform"]:
            self.start = np.full(len(self.states), 1.0 / len(self.states))
            return
        if len(toks) == 1 and not _is_number(toks[0]):
            idx = self._slot(lineno, toks[0], self.states, "state")
            if idx is None:
                return
            vec = np.zeros(len(self.states))
            vec[idx[0]] = 1.0
            self.start = vec
            return
        vec = self._float_row(lineno, toks, len(self.states))
        if vec is None:
            return
        total = vec.sum()
        if np.any(vec < 0) or abs(total - 1.0) > START_ATOL:
            self.error(lineno, f"start distribution sums to {total:.12g}")
            return
        self.start = vec

    # ---- entries --------------------------------------------------------

    def _ready_for_entries(self, lineno, kind):
        missing = [name for name, val in (("states", self.states),
                                          ("actions", self.actions),
                                          ("observations", self.observations))
                   if val is None]
        if missing:
            self.error(lineno, f"{kind} entry before {missing[0]} declaration")
            return False
        return True

    def _joint_tokens(self, lineno, part, names_per_agent, what):
        """Resolve a joint pattern to flat joint indices, or None on error."""
        toks = part.split()
        if toks == ["*"]:
            return np.arange(int(np.prod([len(x) for x in names_per_agent])))
        if len(toks) != self.agent_count:
            self.error(lineno, f"{what} pattern has {len(toks)} tokens, "
                               f"expected {self.agent_count}")
            return None
        flat = np.zeros(1, dtype=np.int64)
        for tok, names in zip(toks, names_per_agent):
            idx = self._slot(lineno, tok, names, what)
            if idx is None:
                return None
            flat = (flat[:, None] * len(names) + idx).reshape(-1)
        return flat

    def _slot(self, lineno, tok, names, what):
        """Resolve one pattern token to an index array, or None on error."""
        if tok == "*":
            return np.arange(len(names))
        if _is_int(tok):
            idx = int(tok)
            if not 0 <= idx < len(names):
                self.error(lineno, f"{what} index {idx} out of range "
                                   f"[0, {len(names)})")
                return None
            return np.array([idx])
        try:
            return np.array([names.index(tok)])
        except ValueError:
            self.error(lineno, f"undeclared name '{tok}'")
            return None

    def _float(self, lineno, tok, what="probability"):
        try:
            val = float(tok)
        except ValueError:
            val = np.nan
        if not np.isfinite(val):
            self.error(lineno, f"malformed {what} '{tok}'")
            return None
        return val

    def _float_row(self, lineno, toks, expect):
        if len(toks) != expect:
            self.error(lineno, f"expected {expect} numbers, got {len(toks)}")
            return None
        vals = [self._float(lineno, t) for t in toks]
        if any(v is None for v in vals):
            return None
        return np.array(vals, dtype=np.float64)

    def _take_matrix(self, lineno, rows, cols):
        out = np.zeros((rows, cols))
        for k in range(rows):
            item = self.peek()
            if item is None:
                self.error(lineno, f"matrix form needs {rows} rows")
                return None
            ln, body = self.take()
            row = self._float_row(ln, body.split(), cols)
            if row is None:
                return None
            out[k] = row
        return out

    def _kernel_entry(self, lineno, rest, cols, obs_form):
        """Shared T:/O: statement parser; the row slot is a state."""
        parts = [p.strip() for p in rest.split(":")]
        ja = self._joint_tokens(lineno, parts[0], self.actions, "joint action")
        if ja is None:
            return None
        n_parts = len(parts)
        if n_parts >= 4:
            # O resolves its joint observation before the arity check
            col = self._joint_tokens(lineno, parts[2], self.observations,
                                     "joint observation") if obs_form else None
            if n_parts != 4:
                self.error(lineno, "malformed entry")
                return None
            if obs_form:
                if col is None:
                    return None
                p = self._float(lineno, parts[3])
                row = None if p is None else self._slot(
                    lineno, parts[1], self.states, "state")
            else:
                row = self._slot(lineno, parts[1], self.states, "state")
                col = None if row is None else self._slot(
                    lineno, parts[2], self.states, "state")
                p = None if col is None else self._float(lineno, parts[3])
            if row is None or p is None:
                return None
            return KernelEntry(lineno, ja, "single", row, col, p)
        if n_parts == 3:
            rows = self._slot(lineno, parts[1], self.states, "state")
            if rows is None:
                return None
            if parts[2]:
                row = self._float_row(lineno, parts[2].split(), cols)
            else:
                item = self.peek()
                if item is None:
                    self.error(lineno, "row form needs a following line")
                    return None
                ln, body = self.take()
                row = self._float_row(ln, body.split(), cols)
            if row is None:
                return None
            return KernelEntry(lineno, ja, "row", rows, values=row)
        # matrix or keyword: `T: ja : kw`, `T: ja :` + lines, `T: ja` + lines
        every_row = np.arange(len(self.states))
        kw = parts[1] if n_parts == 2 and parts[1] else None
        if kw is None:
            item = self.peek()
            if item is not None and item[1] in ("uniform", "identity"):
                kw = self.take()[1]
        if kw is not None:
            if kw not in ("uniform", "identity"):
                self.error(lineno, f"malformed entry '{kw}'")
                return None
            return KernelEntry(lineno, ja, kw, every_row)
        mat = self._take_matrix(lineno, len(self.states), cols)
        if mat is None:
            return None
        return KernelEntry(lineno, ja, "matrix", every_row, values=mat)

    def _on_t(self, lineno, rest):
        if not self._ready_for_entries(lineno, "T"):
            return
        entry = self._kernel_entry(lineno, rest, len(self.states),
                                   obs_form=False)
        if entry is not None:
            self.t_entries.append(entry)

    def _on_o(self, lineno, rest):
        if not self._ready_for_entries(lineno, "O"):
            return
        cols = int(np.prod([len(x) for x in self.observations]))
        entry = self._kernel_entry(lineno, rest, cols, obs_form=True)
        if entry is not None:
            self.o_entries.append(entry)

    def _on_r(self, lineno, rest):
        if not self._ready_for_entries(lineno, "R"):
            return
        parts = [p.strip() for p in rest.split(":")]
        if len(parts) != 5:
            self.error(lineno, "reward entries must be single-valued: "
                               "R: ja : s : s' : y' : value")
            return
        ja = self._joint_tokens(lineno, parts[0], self.actions, "joint action")
        obs = self._joint_tokens(lineno, parts[3], self.observations,
                                 "joint observation")
        if ja is None or obs is None:
            return
        s = self._slot(lineno, parts[1], self.states, "state")
        sp = None if s is None else self._slot(lineno, parts[2], self.states,
                                               "state")
        if sp is None:
            return
        val = self._float(lineno, parts[4], "reward")
        if val is None:
            return
        self.r_entries.append(RewardEntry(lineno, ja, s, sp, obs, val))

    def _finish(self):
        for key, val in (("agents", self.agent_count), ("states", self.states),
                         ("actions", self.actions),
                         ("observations", self.observations)):
            if val is None:
                self.error(0, f"missing '{key}' declaration")
        if any(d.severity == "error" for d in self.diags):
            return None
        start = self.start
        if start is None:
            start = np.full(len(self.states), 1.0 / len(self.states))
        total = start.sum()
        if abs(total - 1.0) > ROW_EXACT:
            start = start / total
        return RawDpomdpFile(
            agent_count=self.agent_count, discount=self.discount,
            value_kind=self.value_kind, state_names=self.states,
            action_names=self.actions, observation_names=self.observations,
            start_distribution=start,
            transition_entries=self.t_entries,
            observation_entries=self.o_entries,
            reward_entries=self.r_entries,
        )


def _is_int(tok: str) -> bool:
    return tok.isdigit() or (tok.startswith("-") and tok[1:].isdigit())


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def compile_tables(raw: RawDpomdpFile):
    """Write the entries, in file order, into dense T (S,A,S'), O (A,S',Y)
    and R (A,S,S',Y).

    Returns (T, O, R, diagnostics); rows are renormalized per the tolerance
    ladder, errors leave the tables unusable (caller checks diagnostics).
    """
    diags = []
    S = len(raw.state_names)
    A = int(np.prod([len(x) for x in raw.action_names]))
    Y = int(np.prod([len(x) for x in raw.observation_names]))
    T = np.zeros((S, A, S))
    O = np.zeros((A, S, Y))
    R = np.zeros((A, S, S, Y))
    t_line = np.zeros((S, A), dtype=np.int64)
    o_line = np.zeros((A, S), dtype=np.int64)
    # T filled through its (A, S, S') view, so both are (ja, row, col) tables
    for e in raw.transition_entries:
        _fill(T.transpose(1, 0, 2), t_line.T, e, diags)
    for e in raw.observation_entries:
        _fill(O, o_line, e, diags)
    for e in raw.reward_entries:
        R[np.ix_(e.ja, e.s, e.sp, e.obs)] = e.value
    if raw.value_kind == "cost":
        R = -R
    _normalize_rows(T, t_line, "T", lambda i, j: f"(s={i}, a={j})", diags)
    _normalize_rows(O, o_line, "O", lambda i, j: f"(a={i}, s'={j})", diags)
    return T, O, R, diags


def _fill(table, lines, e, diags):
    """Write one T:/O: entry into a (joint action, row, column) table and
    stamp its line on every row it sets."""
    rows, cols = table.shape[1:]
    if e.kind == "identity" and rows != cols:   # only O can be non-square
        diags.append(ParseDiagnostic(
            e.line, "error",
            f"identity observation kernel needs |Y|={cols} equal to |S|={rows}"))
        return
    if e.kind == "uniform":
        values = 1.0 / cols
    elif e.kind == "identity":
        values = np.eye(rows)
    else:
        values = e.values
    cells = np.ix_(e.ja, e.rows)
    lines[cells] = e.line
    if e.cols is not None:
        cells = np.ix_(e.ja, e.rows, e.cols)
    table[cells] = values


def _normalize_rows(table, lines, label, describe, diags):
    rows = table.reshape(-1, table.shape[-1])
    lines_flat = lines.reshape(-1)
    sums = rows.sum(axis=1)
    dev = np.abs(sums - 1.0)
    negative = (rows < 0).any(axis=1)
    for k in np.nonzero((dev > ROW_EXACT) | negative)[0]:
        idx = np.unravel_index(k, lines.shape)
        where = describe(*idx)
        if negative[k]:
            diags.append(ParseDiagnostic(
                int(lines_flat[k]), "error",
                f"{label} row {where} has a negative probability"))
        elif dev[k] > ROW_WARN:
            diags.append(ParseDiagnostic(
                int(lines_flat[k]), "error",
                f"{label} row {where} sums to {sums[k]:.12g}"))
        elif dev[k] > ROW_SILENT:
            diags.append(ParseDiagnostic(
                int(lines_flat[k]), "warning",
                f"{label} row {where} sums to {sums[k]:.12g}; renormalized"))
            rows[k] /= sums[k]
        else:
            rows[k] /= sums[k]


def compile_model(raw: RawDpomdpFile, horizon: int,
                  init_obs_mode: str = "dummy_observation"):
    """Materialize a DecPomdpModel; returns (model or None, diagnostics)."""
    T, O, R, diags = compile_tables(raw)
    if any(d.severity == "error" for d in diags):
        return None, diags
    if raw.discount != 1.0:
        diags.append(ParseDiagnostic(
            0, "warning",
            f"discount {raw.discount:g} recorded but ignored; "
            "the objective is undiscounted"))
    r = np.einsum("sap,apy,aspy->sa", T, O, R)
    P = np.einsum("sap,apy->sapy", T, O)
    obs_counts = tuple(len(x) for x in raw.observation_names)
    zeta1, aug_counts = make_initial_distribution(
        raw.start_distribution, obs_counts, init_obs_mode)
    obs_names = [list(x) for x in raw.observation_names]
    if init_obs_mode == "dummy_observation":
        P = pad_dynamics_for_dummy(P, obs_counts)
        for names in obs_names:
            names.append("null")
    model = DecPomdpModel(
        n_agents=raw.agent_count,
        state_count=len(raw.state_names),
        action_counts=tuple(len(x) for x in raw.action_names),
        obs_counts=aug_counts,
        P=P,
        r=r,
        zeta1=zeta1,
        horizon=horizon,
        state_names=list(raw.state_names),
        action_names=[list(x) for x in raw.action_names],
        obs_names=obs_names,
        init_obs_mode=init_obs_mode,
        discount=raw.discount,
    )
    return model, diags


def serialize_canonical(raw: RawDpomdpFile) -> str:
    """Expand to single-entry form with exact float text (round-trips bitwise)."""
    T, O, R, diags = compile_tables(raw)
    if any(d.severity == "error" for d in diags):
        raise ValueError("cannot serialize a file with table errors")
    n = raw.agent_count
    obs = JointIndexer(len(x) for x in raw.observation_names)
    act = JointIndexer(len(x) for x in raw.action_names)
    out = [f"agents: {n}", f"discount: {raw.discount!r}", "values: reward",
           "states: " + " ".join(raw.state_names), "actions:"]
    out += [" ".join(names) for names in raw.action_names]
    out.append("observations:")
    out += [" ".join(names) for names in raw.observation_names]
    out.append("start:")
    out.append(" ".join(repr(float(v)) for v in raw.start_distribution))
    for (s, a, sp) in zip(*np.nonzero(T)):
        ja = " ".join(str(c) for c in act.decode(a))
        out.append(f"T: {ja} : {s} : {sp} : {float(T[s, a, sp])!r}")
    for (a, sp, y) in zip(*np.nonzero(O)):
        ja = " ".join(str(c) for c in act.decode(a))
        jo = " ".join(str(c) for c in obs.decode(y))
        out.append(f"O: {ja} : {sp} : {jo} : {float(O[a, sp, y])!r}")
    for (a, s, sp, y) in zip(*np.nonzero(R)):
        ja = " ".join(str(c) for c in act.decode(a))
        jo = " ".join(str(c) for c in obs.decode(y))
        out.append(f"R: {ja} : {s} : {sp} : {jo} : {float(R[a, s, sp, y])!r}")
    return "\n".join(out) + "\n"


def render_diagnostics(diags, filename: str) -> str:
    return "\n".join(d.render(filename) for d in diags)
