"""Wrappers that time rscpi's public functions from outside the package.

`SpanTracer` gives the per-layer numbers: each wrapped function records one
span per call (name, start, end, index of the enclosing span). Spans stay
in memory until the run ends; `summary()` derives per-function call counts
and self time (duration minus the time covered by direct child spans), and
`write()` dumps the raw spans as JSON lines.

`StepTimer` is the light instrument of the end-to-end runs: it wraps only
the top-level steps an operation is made of (a solve's sweeps and exact
evaluations; the calls of the policy-eval sequence), a few thousand calls
per operation, and records each step's wall and CPU time.

A function is wrapped at every name its callers look it up by. The solver
binds `forward_marginals`, `evaluate_exact`, `expand_joint_policy` and
`mix_policies` at import time, so those are patched on `rscpi.solver` as
well as on their home modules; kernels are looked up on `rscpi.kernels` at
call time; `evaluate_risk` reaches `backward_tilted_values` through the
`rscpi.solver` module. `uninstall()` restores every original binding.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from collections import defaultdict

# (metric prefix "<module>.<function>", modules whose global name is
# patched; the first one defines the function)
TRACED = [
    ("solver.rscpi", ["solver"]),
    ("solver.sweep", ["solver"]),
    ("solver.averaged_local_q", ["solver"]),
    ("solver.greedy_agent_update", ["solver"]),
    ("solver.backward_tilted_values", ["solver"]),
    ("evaluation.expand_joint_policy", ["evaluation", "solver"]),
    ("evaluation.forward_marginals", ["evaluation", "solver"]),
    ("evaluation.evaluate_exact", ["evaluation", "solver"]),
    ("evaluation.evaluate_risk", ["evaluation"]),
    ("evaluation.rollout_monte_carlo", ["evaluation"]),
    ("kernels.tilted_q_mean", ["kernels"]),
    ("kernels.tilted_q_log", ["kernels"]),
    ("kernels.fold_policy_mean", ["kernels"]),
    ("kernels.fold_policy_log", ["kernels"]),
    ("kernels.local_weights_mean", ["kernels"]),
    ("kernels.local_weights_log", ["kernels"]),
    ("policy.mix_policies", ["policy", "solver"]),
    ("policy.policy_from_json", ["policy"]),
    ("dpomdp_parser.parse_dpomdp", ["dpomdp_parser", "bench_cli"]),
    ("dpomdp_parser.compile_model", ["dpomdp_parser", "bench_cli"]),
    ("bench_cli.load_model", ["bench_cli"]),
]

# Top-level steps of each kind of operation, patched where the operation
# looks them up: rscpi() calls sweep and evaluate_exact through the solver
# module; the policy-eval sequence calls the rest through their home modules.
STEPS = {
    "solve": [("solver.sweep", ["solver"]),
              ("evaluation.evaluate_exact", ["solver"])],
    "eval": [("policy.policy_from_json", ["policy"]),
             ("evaluation.evaluate_exact", ["evaluation"]),
             ("evaluation.evaluate_risk", ["evaluation"]),
             ("evaluation.rollout_monte_carlo", ["evaluation"])],
}


def _cells_tilted_q(args):
    # one term per (support entry, agent state): nnz(P) * Z
    return len(args[1]) * args[5].shape[2]


def _cells_fold_policy(args):
    # one term per (s, y, w, a, z): S * |M|
    return args[1].shape[0] * args[0].size


def _cells_local_weights(args):
    # one term per (s, y, w, a, z): S * |copi|
    return args[0].shape[0] * args[1].size


# Computed element counts, derived from argument shapes (not measured);
# they read 0 if a kernel's arguments no longer match.
CELLS = {
    "kernels.tilted_q_mean": _cells_tilted_q,
    "kernels.tilted_q_log": _cells_tilted_q,
    "kernels.fold_policy_mean": _cells_fold_policy,
    "kernels.fold_policy_log": _cells_fold_policy,
    "kernels.local_weights_mean": _cells_local_weights,
    "kernels.local_weights_log": _cells_local_weights,
}


class _Patcher:
    """Replaces module attributes with wrappers and puts them back."""

    def __init__(self):
        self._patched = []       # (module, attribute, original)

    def _install(self, package, specs):
        # A function that a later version renames or no longer binds at a
        # lookup site is skipped there: its time then counts toward its
        # caller, and its metrics read 0.
        for name, lookups in specs:
            attr = name.split(".", 1)[1]
            fn = getattr(getattr(package, lookups[0], None), attr, None)
            if not callable(fn):
                continue
            wrapped = self._wrap(name, fn)
            for mod_name in lookups:
                mod = getattr(package, mod_name, None)
                if getattr(mod, attr, None) is fn:
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def _wrap(self, name, fn):
        raise NotImplementedError

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


class SpanTracer(_Patcher):
    """Collects spans from every function in TRACED; one per traced run."""

    def __init__(self):
        super().__init__()
        self.spans = []          # (name, start, end, parent index or -1)
        self.cells = defaultdict(int)
        self._stack = []

    def install(self, package):
        self._install(package, TRACED)

    def _wrap(self, name, fn):
        spans, stack, cells = self.spans, self._stack, self.cells
        count_cells = CELLS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if count_cells is not None:
                try:
                    cells[name] += count_cells(args)
                except (IndexError, AttributeError):
                    pass    # arguments changed shape: the count stays 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def summary(self) -> dict:
        """calls, self_s (and cells for kernels) for every name in TRACED."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name, _ in TRACED:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            if name in CELLS:
                out[f"{name}.cells"] = self.cells[name]
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child[idx]
        return out

    def write(self, path):
        """Write the raw spans, one JSON list per line, times relative."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, start - t0, end - t0,
                                     parent]) + "\n")


class WindowClosed(Exception):
    """Raised at the first step that would start after the deadline."""


class StepTimer(_Patcher):
    """Wall and CPU time of each top-level step of an operation.

    Sweeps are labelled `solver.sweep[tilted]` (lambda > 0, log-domain
    kernels) or `solver.sweep[plain]`, because the two cost differently.
    Once `deadline` (a perf_counter value) has passed, the next step raises
    WindowClosed instead of running, which ends the operation in flight.

    The process is pinned to each allowed CPU in turn, moving at the first
    step after every TURN_S seconds. On a VM whose virtual CPUs slow down
    independently, a process left on one CPU can spend a whole run on the
    slow one; taking turns gives every kind of step samples from each CPU.
    Moving once a second keeps the cost of a cold cache out of almost all
    samples; moving before every step made the fastest evaluate_exact of
    dectiger-t6 27% slower on a 2-vCPU VM. `uninstall()` restores the
    affinity.
    """

    TURN_S = 1.0

    def __init__(self):
        super().__init__()
        self.steps = []          # (label, wall_s, cpu_s)
        self.deadline = None
        self._affinity = (os.sched_getaffinity(0)
                          if hasattr(os, "sched_getaffinity") else set())
        self._turns = itertools.cycle(sorted(self._affinity))
        self._next_turn = 0.0

    def install(self, package, kind):
        self._install(package, STEPS[kind])

    def uninstall(self):
        super().uninstall()
        if len(self._affinity) > 1:
            os.sched_setaffinity(0, self._affinity)

    def take(self) -> list:
        """The steps recorded since the last take()."""
        steps, self.steps = self.steps, []
        return steps

    def _wrap(self, name, fn):
        wall, cpu = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            label = name
            if name == "solver.sweep":
                lam = args[2] if len(args) > 2 else kwargs.get("lam", 0.0)
                lam = getattr(lam, "lam", lam)
                label += "[tilted]" if lam > 0 else "[plain]"
            if len(self._affinity) > 1 and wall() >= self._next_turn:
                os.sched_setaffinity(0, {next(self._turns)})
                self._next_turn = wall() + self.TURN_S
            w0, c0 = wall(), cpu()
            if self.deadline is not None and w0 > self.deadline:
                raise WindowClosed
            try:
                return fn(*args, **kwargs)
            finally:
                self.steps.append((label, wall() - w0, cpu() - c0))

        return timed
