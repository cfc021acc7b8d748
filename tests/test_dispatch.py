"""The dispatch budget: calls of rscpi's own functions per sweep.

Wall time on a shared machine is noisy; the number of Python-level calls a
sweep makes into `src/rscpi` is not. A sweep's count is the difference
between a solve of 2k sweeps and one of k, divided by k, with tol = -inf so
that every sweep runs, after a warm-up solve on the same model. It is
linear in the horizon T, so two horizons give its per-stage and fixed
parts. The budgets are upper bounds: a change that lowers a count tightens
its budget, and one that raises it says why.
"""

import functools
import math
import os
import sys

import pytest

import rscpi
from _benchmarks import dectiger_model, recycling_model

SRC = os.path.dirname(rscpi.__file__) + os.sep
# calls per sweep, (per stage, fixed), untilted and tilted
BUDGET = {False: (19, 31), True: (25, 219)}
MODELS = {"dectiger": dectiger_model, "recycling": recycling_model}


def rscpi_calls(run) -> int:
    """The calls of functions whose code lives in src/rscpi while run()
    runs, under a profile function of this thread."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


@functools.lru_cache(maxsize=None)
def per_sweep(model_name, horizon, z_sizes, restarts, tilted, k=2) -> float:
    """rscpi calls per sweep of a solve, every sweep tilted (lambda0 = 0.5,
    annealed over all of them) or none."""
    model = MODELS[model_name](horizon=horizon)

    def solve(sweeps):
        config = rscpi.SolverConfig(
            lambda0=0.5 if tilted else 0.0,
            anneal_sweeps=sweeps if tilted else 0, alpha=0.3,
            max_sweeps=sweeps, tol=-math.inf, restarts=restarts, seed=0,
            z_sizes=z_sizes)
        return lambda: rscpi.rscpi(model, config)

    solve(1)()   # warm-up: what a model caches is built here
    return (rscpi_calls(solve(2 * k)) - rscpi_calls(solve(k))) / k


@pytest.mark.parametrize("tilted", [False, True])
def test_sweep_stays_within_its_budget(tilted):
    short, long = (per_sweep("dectiger", T, (2, 2), 1, tilted)
                   for T in (3, 6))
    stage = (long - short) / 3
    fixed = short - 3 * stage
    assert (stage, fixed) == (int(stage), int(fixed))
    per_stage, per_sweep_fixed = BUDGET[tilted]
    assert stage <= per_stage and fixed <= per_sweep_fixed, (stage, fixed)


@pytest.mark.parametrize("tilted", [False, True])
@pytest.mark.parametrize("case", [("recycling", (2, 2), 1),
                                  ("dectiger", (3, 3), 1),
                                  ("dectiger", (2, 2), 3)])
def test_count_does_not_depend_on_the_model_z_or_r(case, tilted):
    name, z_sizes, restarts = case
    assert (per_sweep(name, 3, z_sizes, restarts, tilted)
            == per_sweep("dectiger", 3, (2, 2), 1, tilted))
