"""Parser for the multi-agent `.dpomdp` benchmark text format.

Supported entry shapes: single-probability lines (`T: ja : s : s' : p`), a
row form (`T: ja : s :` with the |S| numbers inline or on the following
line), a matrix form (`T: ja :` followed by |S| lines), and the kernel
keywords `uniform` / `identity` (inline after the colon or on the next
line). `O:` takes the same shapes with a joint observation written as N
whitespace-separated tokens (or a single `*`). `R:` lines are single-valued
only: `R: ja : s : s' : y' : value`.

Pattern slots accept declared names, integer indices, and `*`. The parser
resolves and range-checks each pattern once (joint actions and joint
observations as flat mixed-radix indices, agent 1 the most significant
digit) and writes the entry's cells straight into the dense T, O and R, in
strict file order with last-write-wins. Once the file is read, `values:
cost` negates rewards and the T and O rows go through the tolerance ladder.
Comments start at `#`. The start distribution is renormalized at parse
time when it sums to within `START_ATOL` of 1. A declared count above
`MAX_COUNT`, and sizes whose R table or null-padded P table is above
`MAX_TABLE_CELLS`, are refused before their names or tables are built; a
digit token's length is checked before `int()` reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (DecPomdpModel, make_initial_distribution,
                    pad_dynamics_for_dummy)

ROW_EXACT = 1e-12      # keep row bits as parsed below this deviation
ROW_SILENT = 1e-6      # renormalize silently up to here
ROW_WARN = 1e-4        # renormalize with a warning up to here, error beyond
START_ATOL = 1e-6
MAX_TABLE_CELLS = 2**28   # 2 GiB of float64; Mars rovers' R is ~1.5e8 cells
MAX_COUNT = math.isqrt(MAX_TABLE_CELLS)   # 16384, so that S^2 fits


@dataclass
class ParseDiagnostic:
    line_number: int
    severity: str            # "error" | "warning"
    message: str

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.line_number}: {self.severity}: {self.message}"


@dataclass
class RawDpomdpFile:
    agent_count: int
    discount: float
    state_names: list
    action_names: list       # per agent
    observation_names: list  # per agent
    start_distribution: np.ndarray   # renormalized
    T: np.ndarray            # (S, A, S'), rows normalized
    O: np.ndarray            # (A, S', Y), rows normalized
    R: np.ndarray            # (A, S, S', Y), costs negated


def parse_dpomdp(text: str):
    """Tokenize, validate and write every entry into the dense tables;
    returns (RawDpomdpFile, or None on any error, diagnostics)."""
    parser = _Parser(text)
    return parser.run(), parser.diags


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
        self.T = None            # the tables, allocated by the first entry
        self.seen = set()

    def error(self, line, msg):
        self.diags.append(ParseDiagnostic(line, "error", msg))

    def warn(self, line, msg):
        self.diags.append(ParseDiagnostic(line, "warning", msg))

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
        names = self._name_list(lineno, rest, "agent")
        self.agent_count = None if names is None else len(names)

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
        if len(toks) == 1 and toks[0].isdecimal():
            n = _bounded_int(toks[0], MAX_COUNT)
            if n is None:
                self.error(lineno, f"count {_shown(toks[0])} is above the "
                                   f"limit of {MAX_COUNT}")
                return None
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
        toks = rest.split()
        if not toks:
            item = self.peek()
            if item is None:
                self.error(lineno, "start has no distribution")
                return
            lineno, body = self.take()
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
        if self.T is None:   # the declarations can no longer change
            return self._allocate_tables(lineno)
        return True

    def _allocate_tables(self, lineno):
        """Zero T (S,A,S'), O (A,S',Y), R (A,S,S',Y) and the line that last
        set each T row (s, a) and O row (a, s'); or refuse, at lineno, an R
        or a P padded by one null observation per agent (as `compile_model`
        pads it) above MAX_TABLE_CELLS and skip the rest, which needs the
        tables."""
        S = len(self.states)
        A = math.prod(len(x) for x in self.actions)
        Y = math.prod(len(x) for x in self.observations)
        padded = math.prod(len(x) + 1 for x in self.observations)
        for table, cells in (("an R", A * S * S * Y),
                             ("a padded P", A * S * S * padded)):
            if cells > MAX_TABLE_CELLS:
                shown = (cells if cells.bit_length() <= 64
                         else f"over 2**{cells.bit_length() - 1}")
                self.error(lineno, f"the declared sizes need {table} table "
                                   f"of {shown} cells, above the limit of "
                                   f"{MAX_TABLE_CELLS}")
                self.pos = len(self.lines)
                return False
        self.T = np.zeros((S, A, S))
        self.O = np.zeros((A, S, Y))
        self.R = np.zeros((A, S, S, Y))
        self.t_line = np.zeros((S, A), dtype=np.int64)
        self.o_line = np.zeros((A, S), dtype=np.int64)
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
        if tok.removeprefix("-").isdecimal():
            idx = _bounded_int(tok, len(names))
            if idx is None or not 0 <= idx < len(names):
                self.error(lineno, f"{what} index {_shown(tok)} out of range "
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

    def _kernel_entry(self, lineno, rest, table, lines, obs_form):
        """Shared T:/O: statement: writes its cells into a (joint action,
        row, column) table, the row slot a state, and stamps its line on
        every row it sets."""
        parts = [p.strip() for p in rest.split(":")]
        ja = self._joint_tokens(lineno, parts[0], self.actions, "joint action")
        if ja is None:
            return
        n_rows, cols = table.shape[1:]
        n_parts = len(parts)
        if n_parts >= 4:
            # O resolves its joint observation before the arity check
            col = self._joint_tokens(lineno, parts[2], self.observations,
                                     "joint observation") if obs_form else None
            if n_parts != 4:
                self.error(lineno, "malformed entry")
                return
            if obs_form:
                if col is None:
                    return
                p = self._float(lineno, parts[3])
                row = None if p is None else self._slot(
                    lineno, parts[1], self.states, "state")
            else:
                row = self._slot(lineno, parts[1], self.states, "state")
                col = None if row is None else self._slot(
                    lineno, parts[2], self.states, "state")
                p = None if col is None else self._float(lineno, parts[3])
            if row is None or p is None:
                return
            lines[np.ix_(ja, row)] = lineno
            table[np.ix_(ja, row, col)] = p
            return
        if n_parts == 3:
            rows = self._slot(lineno, parts[1], self.states, "state")
            if rows is None:
                return
            if parts[2]:
                values = self._float_row(lineno, parts[2].split(), cols)
            else:
                item = self.peek()
                if item is None:
                    self.error(lineno, "row form needs a following line")
                    return
                ln, body = self.take()
                values = self._float_row(ln, body.split(), cols)
            if values is None:
                return
            cells = np.ix_(ja, rows)
        else:
            # matrix or keyword: `T: ja : kw`, `T: ja :` + lines, `T: ja` + lines
            kw = parts[1] if n_parts == 2 and parts[1] else None
            if kw is None:
                item = self.peek()
                if item is not None and item[1] in ("uniform", "identity"):
                    kw = self.take()[1]
            if kw == "uniform":
                values = 1.0 / cols
            elif kw == "identity":
                if n_rows != cols:   # only O can be non-square
                    self.error(lineno, f"identity observation kernel needs "
                                       f"|Y|={cols} equal to |S|={n_rows}")
                    return
                values = np.eye(n_rows)
            elif kw is not None:
                self.error(lineno, f"malformed entry '{kw}'")
                return
            else:
                values = self._take_matrix(lineno, n_rows, cols)
                if values is None:
                    return
            cells = ja   # every row
        lines[cells] = lineno
        table[cells] = values

    def _on_t(self, lineno, rest):
        if self._ready_for_entries(lineno, "T"):
            # T written through its (A, S, S') view, so both kernels are
            # (joint action, row, column) tables
            self._kernel_entry(lineno, rest, self.T.transpose(1, 0, 2),
                               self.t_line.T, obs_form=False)

    def _on_o(self, lineno, rest):
        if self._ready_for_entries(lineno, "O"):
            self._kernel_entry(lineno, rest, self.O, self.o_line,
                               obs_form=True)

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
        self.R[np.ix_(ja, s, sp, obs)] = val + 0.0   # -0.0 as +0.0

    def _failed(self):
        return any(d.severity == "error" for d in self.diags)

    def _finish(self):
        for key, val in (("agents", self.agent_count), ("states", self.states),
                         ("actions", self.actions),
                         ("observations", self.observations)):
            if val is None:
                self.error(0, f"missing '{key}' declaration")
        if self._failed():
            return None
        if self.T is None and not self._allocate_tables(0):   # no entries
            return None
        if self.value_kind == "cost":
            # unset cells stay +0.0, as a re-parse holds them
            self.R = 0.0 - self.R
        self._normalize_rows(self.T, self.t_line, "T",
                             lambda i, j: f"(s={i}, a={j})")
        self._normalize_rows(self.O, self.o_line, "O",
                             lambda i, j: f"(a={i}, s'={j})")
        if self._failed():
            return None
        if self.discount != 1.0:
            self.warn(0, f"discount {self.discount:g} recorded but ignored; "
                         "the objective is undiscounted")
        start = self.start
        if start is None:
            start = np.full(len(self.states), 1.0 / len(self.states))
        total = start.sum()
        if abs(total - 1.0) > ROW_EXACT:
            start = start / total
        return RawDpomdpFile(
            agent_count=self.agent_count, discount=self.discount,
            state_names=self.states, action_names=self.actions,
            observation_names=self.observations, start_distribution=start,
            T=self.T, O=self.O, R=self.R,
        )

    def _normalize_rows(self, table, lines, label, describe):
        """The tolerance ladder on every row of a table whose last axis is
        the row's, `lines` holding the line that last set each row."""
        rows = table.reshape(-1, table.shape[-1])
        sums = rows.sum(axis=1)
        dev = np.abs(sums - 1.0)
        negative = (rows < 0).any(axis=1)
        for k in np.nonzero((dev > ROW_EXACT) | negative)[0]:
            idx = np.unravel_index(k, lines.shape)
            line = int(lines[idx])
            where = f"{label} row {describe(*idx)}"
            if negative[k]:
                self.error(line, f"{where} has a negative probability")
            elif dev[k] > ROW_WARN:
                self.error(line, f"{where} sums to {sums[k]:.12g}")
            else:
                if dev[k] > ROW_SILENT:
                    self.warn(line,
                              f"{where} sums to {sums[k]:.12g}; renormalized")
                rows[k] /= sums[k]


def _bounded_int(tok: str, bound: int):
    """The value of a decimal integer token if its magnitude is at most
    bound, else None; its digits are counted first, as int() refuses over
    4300."""
    digits = tok.lstrip("-").lstrip("0")
    if len(digits) > len(str(bound)) or int(digits or "0") > bound:
        return None
    return int(tok)


def _shown(tok: str) -> str:
    """A token as a diagnostic quotes it, a long one by its length."""
    return tok if len(tok) <= 20 else f"of {len(tok)} digits"


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def compile_model(raw: RawDpomdpFile, horizon: int,
                  init_obs_mode: str = "dummy_observation") -> DecPomdpModel:
    """Materialize the DecPomdpModel of a parsed file's tables."""
    r = np.einsum("sap,apy,aspy->sa", raw.T, raw.O, raw.R)
    P = np.einsum("sap,apy->sapy", raw.T, raw.O)
    obs_counts = tuple(len(x) for x in raw.observation_names)
    zeta1, aug_counts = make_initial_distribution(
        raw.start_distribution, obs_counts, init_obs_mode)
    obs_names = [list(x) for x in raw.observation_names]
    if init_obs_mode == "dummy_observation":
        P = pad_dynamics_for_dummy(P, obs_counts)
        for names in obs_names:
            names.append("null")
    return DecPomdpModel(
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


def render_diagnostics(diags, filename: str) -> str:
    return "\n".join(d.render(filename) for d in diags)
