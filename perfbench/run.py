#!/usr/bin/env python3
"""rscpi benchmark: four closed-loop workloads on the public solve/eval API.

One caller, one operation at a time, no worker pool. Each run builds its
inputs from --seed, repeats the workload's operation for --seconds,
checks every result, and prints one JSON line last:

    python3 perfbench/run.py --workload dectiger-t6 --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all

--trace 0 reports the end-to-end metrics; --trace 1 adds one traced
operation and reports the per-layer metrics instead. See perfbench/README.md
for why each workload exists and for the seed commit's baseline numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

from tracer import STEPS, SpanTracer, StepTimer, WindowClosed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODELS = ROOT / "benchmarks"
OUT = HERE / "out"

DEFAULT_SEED = 0
# set-up probes per run, half before the timed window and half after it;
# setup_s is their minimum
SETUP_PROBES = 16
# the top-level steps must cover at least this share of each operation's
# wall time, or op_s would rest on the time between steps
MIN_STEP_SHARE = 0.9
# relative tolerance of the default-seed reference values: a reordered sum
# may move the last digits; a different policy moves them far more
REF_RTOL = 1e-9
# slack for invariants that hold exactly in real arithmetic
INV_TOL = 1e-9
MC_EPISODES = 20000
RISK_LAMBDAS = [0.125 * k for k in range(1, 9)]


@dataclass(frozen=True)
class SolveSpec:
    """A solve workload: model source, horizon and solver config."""

    model: str           # .dpomdp file under benchmarks/, or "synthetic"
    horizon: int
    config: dict


SOLVES = {
    "dectiger-t6": SolveSpec("dectiger.dpomdp", 6, dict(
        lambda0=0.0, alpha=0.1, anneal_sweeps=10, max_sweeps=500,
        restarts=5, z_sizes=(2, 2))),
    "recycling-t100": SolveSpec("recycling.dpomdp", 100, dict(
        lambda0=0.5, alpha=1.0, anneal_sweeps=10, max_sweeps=60,
        restarts=3, z_sizes=(2, 2))),
    "synthetic-large": SolveSpec("synthetic", 10, dict(
        lambda0=1.0, alpha=0.3, anneal_sweeps=10, max_sweeps=40,
        restarts=1, z_sizes=(3, 3))),
}
EVAL_MODEL = ("recycling.dpomdp", 100)
EVAL_Z_SIZES = (2, 2)
WORKLOADS = list(SOLVES) + ["policy-eval"]

# Values on DEFAULT_SEED, measured at the commit that added this benchmark.
REFERENCE = {
    "dectiger-t6": dict(j_exact=10.381624991849044, sweeps=270),
    "recycling-t100": dict(j_exact=294.06861131479604, sweeps=12),
    "synthetic-large": dict(j_exact=2.5505292356543268, sweeps=40),
    "policy-eval": dict(j_exact=70.07004605154344,
                        j_risk_half=157.702256073962, mc_mean=69.91735,
                        mc_stderr=0.1347468692950387),
}


class BenchError(Exception):
    """The checkout cannot run the benchmark (missing sources or inputs)."""


# -- loading the program ------------------------------------------------------

def load_package():
    """Import rscpi from this checkout's src/ on the numpy backend."""
    if not (SRC / "rscpi" / "__init__.py").is_file():
        raise BenchError(f"no rscpi sources under {SRC}")
    os.environ["RSCPI_BACKEND"] = "numpy"
    sys.path.insert(0, str(SRC))
    import rscpi
    import rscpi.bench_cli
    import rscpi.kernels
    if Path(rscpi.__file__).resolve().parent != (SRC / "rscpi").resolve():
        raise BenchError(f"imported rscpi from {rscpi.__file__}, not {SRC}")
    if rscpi.kernels.BACKEND != "numpy":
        raise BenchError(f"kernel backend is {rscpi.kernels.BACKEND!r}")
    return rscpi


def synthetic_large(rscpi, seed):
    """The `large` synthetic model: S=8, A_i=Y_i=4, dense random dynamics.

    A copy of the generator in scripts/bench_backends.py. The reference
    gate pins the model on seed 0 only, so a change to that script would
    go unnoticed on every other seed while it changed the measured inputs.
    """
    import numpy as np

    n_states, action_counts, obs_counts = 8, (4, 4), (4, 4)
    rng = np.random.default_rng(seed)
    A = int(np.prod(action_counts))
    Y = int(np.prod(obs_counts))
    P = rng.dirichlet(np.ones(n_states * Y), size=(n_states, A))
    P = P.reshape(n_states, A, n_states, Y)
    r = rng.uniform(-1.0, 1.0, size=(n_states, A))
    zeta1 = rng.dirichlet(np.ones(n_states * Y)).reshape(n_states, Y)
    return rscpi.model.DecPomdpModel(
        n_agents=2, state_count=n_states, action_counts=action_counts,
        obs_counts=obs_counts, P=P, r=r, zeta1=zeta1,
        horizon=SOLVES["synthetic-large"].horizon,
        init_obs_mode="uniform_observation")


def load_file_model(rscpi, name, horizon):
    path = MODELS / name
    if not path.is_file():
        raise BenchError(f"missing model file {path}")
    model, _ = rscpi.bench_cli.load_model(str(path), horizon)
    return model


def build_inputs(rscpi, workload, seed):
    """Everything the program receives: the model and config, or the
    model and the policy JSON text."""
    if workload == "policy-eval":
        model = load_file_model(rscpi, *EVAL_MODEL)
        policy = rscpi.policy.random_policy(
            model.action_counts, model.obs_counts, EVAL_Z_SIZES,
            model.horizon, seed)
        return dict(model=model,
                    policy_json=rscpi.policy.policy_to_json(policy))
    spec = SOLVES[workload]
    if spec.model == "synthetic":
        model = synthetic_large(rscpi, seed)
    else:
        model = load_file_model(rscpi, spec.model, spec.horizon)
    config = rscpi.solver.SolverConfig(seed=seed, **spec.config)
    return dict(model=model, config=config)


# -- the timed operation ------------------------------------------------------

def run_op(rscpi, workload, inputs, seed):
    """One closed-loop operation through the public API."""
    if workload != "policy-eval":
        return rscpi.solver.rscpi(inputs["model"], inputs["config"])
    ev = rscpi.evaluation
    model = inputs["model"]
    policy = rscpi.policy.policy_from_json(inputs["policy_json"])
    j_exact = ev.evaluate_exact(model, policy)
    j_risk = [ev.evaluate_risk(model, policy, lam) for lam in RISK_LAMBDAS]
    mc_mean, mc_stderr = ev.rollout_monte_carlo(model, policy, MC_EPISODES,
                                                seed + 1)
    return dict(policy=policy, j_exact=j_exact, j_risk=j_risk,
                mc_mean=mc_mean, mc_stderr=mc_stderr)


def memory_inputs(workload, inputs):
    """Inputs of the memory pass. tracemalloc slows the numpy solver about
    4x, so solves run one restart of two sweeps: a tilted one at lambda0,
    then a plain one. That keeps every per-sweep temporary in the peak."""
    if workload == "policy-eval":
        return inputs
    config = replace(inputs["config"], restarts=1, anneal_sweeps=1,
                     max_sweeps=2)
    return dict(inputs, config=config)


# -- correctness gate ---------------------------------------------------------

def _close(a, b, rtol):
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol)


def _row_problems(policy):
    import numpy as np

    out = []
    for i, tab in enumerate(policy.tables):
        sums = tab.sum(axis=(3, 4))
        if np.any(tab < 0) or np.any(np.abs(sums - 1.0) > INV_TOL):
            out.append(f"agent {i} policy rows do not sum to 1")
        if abs(policy.phi[i].sum() - 1.0) > INV_TOL:
            out.append(f"agent {i} phi does not sum to 1")
    return out


def check_solve(rscpi, workload, inputs, result, use_reference):
    problems = _row_problems(result.policy)
    j = rscpi.evaluation.evaluate_exact(inputs["model"], result.policy)
    if not _close(j, result.j_exact, INV_TOL):
        problems.append(f"evaluate_exact gives {j!r}, solve reports "
                        f"{result.j_exact!r}")
    tail = [j_risk for lam, j_risk, _ in result.trace if lam == 0.0]
    for prev, cur in zip(tail, tail[1:]):
        if cur < prev - INV_TOL * max(1.0, abs(prev)):
            problems.append(f"J_risk fell from {prev!r} to {cur!r} on the "
                            "lambda=0 tail")
            break
    if use_reference:
        ref = REFERENCE[workload]
        if not _close(result.j_exact, ref["j_exact"], REF_RTOL):
            problems.append(f"j_exact {result.j_exact!r} != reference "
                            f"{ref['j_exact']!r}")
        if result.sweeps != ref["sweeps"]:
            problems.append(f"sweeps {result.sweeps} != reference "
                            f"{ref['sweeps']}")
    return problems


def check_eval(rscpi, workload, inputs, out, use_reference):
    problems = _row_problems(out["policy"])
    j, risks = out["j_exact"], out["j_risk"]
    if abs(out["mc_mean"] - j) > 4.0 * out["mc_stderr"]:
        problems.append(f"MC mean {out['mc_mean']!r} is more than 4 stderr "
                        f"({out['mc_stderr']!r}) from J_exact {j!r}")
    for lo, hi in zip([j] + risks, risks):
        if hi < lo - INV_TOL * max(1.0, abs(lo)):
            problems.append(f"J_risk not nondecreasing in lambda: {risks}")
            break
    if use_reference:
        ref = REFERENCE[workload]
        pairs = [("j_exact", j), ("j_risk_half", risks[3]),
                 ("mc_mean", out["mc_mean"]), ("mc_stderr", out["mc_stderr"])]
        for key, value in pairs:
            if not _close(value, ref[key], REF_RTOL):
                problems.append(f"{key} {value!r} != reference {ref[key]!r}")
    return problems


def check(rscpi, workload, inputs, out, use_reference):
    fn = check_eval if workload == "policy-eval" else check_solve
    return fn(rscpi, workload, inputs, out, use_reference)


# -- measurement --------------------------------------------------------------

@dataclass
class Op:
    wall_s: float
    cpu_s: float
    steps: list          # (label, wall_s, cpu_s) of each top-level step
    problems: list


def call_op(rscpi, workload, inputs, seed):
    """Run one operation; returns (output or None, problems, wall, cpu)."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        out, problems = run_op(rscpi, workload, inputs, seed), []
    except WindowClosed:
        raise
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc()
        out, problems = None, [f"{type(exc).__name__}: {exc}"]
    return out, problems, time.perf_counter() - w0, time.process_time() - c0


def measure_op(rscpi, workload, inputs, seed, use_reference, timer=None):
    """Time one operation, then check its result outside the timed region."""
    if timer is not None:
        timer.take()
    out, problems, wall, cpu = call_op(rscpi, workload, inputs, seed)
    steps = timer.take() if timer is not None else []
    if out is not None:
        problems = check(rscpi, workload, inputs, out, use_reference)
    return Op(wall, cpu, steps, problems), out


def timed_window(rscpi, workload, inputs, seed, seconds):
    """Repeat the operation back to back for `seconds`.

    The first operation always completes. After the window closes, the
    operation in flight stops at its next step; the steps it finished are
    kept as timing samples, and it is neither checked nor counted.
    Returns the completed operations and the steps of the stopped one.
    """
    ops = []
    end = time.perf_counter() + seconds
    use_reference = seed == DEFAULT_SEED
    timer = StepTimer()
    timer.install(rscpi, step_kind(workload))
    try:
        while time.perf_counter() < end:
            op, _ = measure_op(rscpi, workload, inputs, seed, use_reference,
                               timer)
            ops.append(op)
            timer.deadline = end
    except WindowClosed:
        pass
    finally:
        timer.uninstall()
    return ops, timer.take()


def step_kind(workload):
    return "eval" if workload == "policy-eval" else "solve"


def step_counts(workload, ops):
    """How often one operation makes each kind of step.

    op_s is only an estimate of an operation's time while every operation
    makes the same steps, each step the StepTimer wraps is among them, and
    the steps cover almost all of the operation. A program whose operations
    are built differently (a step renamed, no longer called, or called a
    varying number of times) stops the run with an error rather than being
    timed by another estimator than its parent.
    """
    counts = Counter(step[0] for step in ops[0].steps)
    missing = [name for name, _ in STEPS[step_kind(workload)]
               if not any(label.split("[")[0] == name for label in counts)]
    if missing:
        raise BenchError(f"operations make no {', '.join(missing)} step; "
                         "op_s needs a new step structure and baseline")
    for op in ops:
        if Counter(step[0] for step in op.steps) != counts:
            raise BenchError(f"operations differ in their steps: "
                             f"{dict(counts)} against "
                             f"{dict(Counter(s[0] for s in op.steps))}")
        covered = sum(step[1] for step in op.steps)
        if covered < MIN_STEP_SHARE * op.wall_s:
            raise BenchError(f"steps cover {covered:.3f} s of a "
                             f"{op.wall_s:.3f} s operation, under "
                             f"{MIN_STEP_SHARE:.0%}")
    return counts


def op_time(ops, partial, counts, clock):
    """Time of one operation, min-of-N over its steps.

    A shared VM can run at down to half speed for stretches of 10 s and
    more, so a whole operation (8-15 s for a solve on the 2-vCPU VM of the
    README's baselines) is rarely timed at one speed.
    Every operation of a run makes the same steps (`counts`, checked by
    step_counts), so each kind of step is timed over all operations of the
    run: the estimate is the sum, over kinds, of how often one operation
    makes that step times its fastest time, plus the fastest time an
    operation spent between steps. `clock` is 1 for wall time, 2 for CPU
    time.
    """
    pooled = defaultdict(list)
    for step in partial:
        pooled[step[0]].append(step[clock])
    between = []
    for op in ops:
        for step in op.steps:
            pooled[step[0]].append(step[clock])
        total = op.wall_s if clock == 1 else op.cpu_s
        between.append(total - sum(step[clock] for step in op.steps))
    return (sum(n * min(pooled[label]) for label, n in counts.items())
            + min(between))


def memory_pass(rscpi, workload, inputs, seed):
    """tracemalloc peak of one operation, with timing and tracing off."""
    import tracemalloc

    mem_inputs = memory_inputs(workload, inputs)
    tracemalloc.start()
    try:
        out, problems, wall, cpu = call_op(rscpi, workload, mem_inputs, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if out is not None:
        problems = check(rscpi, workload, mem_inputs, out, False)
    return Op(wall, cpu, [], problems), peak / 1e6


def setup_probe(workload, seed):
    """Child mode: time importing rscpi and building the inputs."""
    t0 = time.perf_counter()
    rscpi = load_package()
    build_inputs(rscpi, workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload, seed, count):
    """Set-up times of `count` fresh interpreters.

    The interpreters take turns on the allowed CPUs, for the reason the
    StepTimer does: the virtual CPUs slow down independently.
    """
    allowed = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
               else set())
    turns = sorted(allowed) if len(allowed) > 1 else [None]
    times = []
    try:
        for i in range(count):
            cpu = turns[i % len(turns)]
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})   # inherited by the child
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--setup-probe", "--workload", workload, "--seed", str(seed)],
                capture_output=True, text=True, timeout=120, cwd=ROOT)
            if proc.returncode != 0:
                raise BenchError(f"set-up probe failed:\n{proc.stderr}")
            times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                         ["setup_s"])
    finally:
        if len(allowed) > 1:
            os.sched_setaffinity(0, allowed)
    return times


def traced_op(rscpi, workload, seed):
    """Build the inputs and run one operation with every layer wrapped."""
    tracer = SpanTracer()
    tracer.install(rscpi)
    try:
        inputs = build_inputs(rscpi, workload, seed)
        op, out = measure_op(rscpi, workload, inputs, seed,
                             seed == DEFAULT_SEED)
    finally:
        tracer.uninstall()
    return tracer, op, out


# -- environment stamp --------------------------------------------------------

def environment(rscpi):
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "rscpi").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return dict(backend=rscpi.kernels.BACKEND, numpy=np.__version__,
                python=platform.python_version(), nproc=os.cpu_count(),
                commit=commit, src_sha256=digest.hexdigest()[:16])


# -- one run ------------------------------------------------------------------

def run(workload, seed, seconds, trace):
    """Measure one workload; returns (result line, detail record)."""
    setup = []
    if not trace:
        # half the set-up probes before the timed window and half after,
        # so that their minimum has two chances at a fast stretch
        setup += measure_setup(workload, seed, SETUP_PROBES // 2)
    rscpi = load_package()
    inputs = build_inputs(rscpi, workload, seed)
    ops, partial = timed_window(rscpi, workload, inputs, seed, seconds)
    checked = list(ops)
    # a failed operation is counted below; it gives no timing samples
    timed = [o for o in ops if not o.problems] or ops
    counts = step_counts(workload, timed)
    op_s = op_time(timed, partial, counts, 1)
    # the fastest whole operation, next to the per-step estimate: a
    # regression confined to some steps of a kind shows here first
    whole_s = min(o.wall_s for o in timed)
    detail = dict(workload=workload, seed=seed, seconds=seconds,
                  trace=int(trace), env=environment(rscpi), op_s=op_s,
                  op_whole_min_s=whole_s, step_counts=dict(counts),
                  step_share=min(sum(st[1] for st in o.steps) / o.wall_s
                                 for o in timed),
                  wall_s=[o.wall_s for o in ops],
                  cpu_s=[o.cpu_s for o in ops],
                  steps=[o.steps for o in ops] + [partial])
    if trace:
        tracer, op, out = traced_op(rscpi, workload, seed)
        checked.append(op)
        metrics = layer_metrics(tracer, op, out, op_s, whole_s)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-s{seed}.jsonl")
        detail["traced_wall_s"] = op.wall_s
    else:
        # after the window, so that one-time allocations of lazy caches
        # are not part of the peak
        mem_op, peak_mb = memory_pass(rscpi, workload, inputs, seed)
        checked.append(mem_op)
        setup += measure_setup(workload, seed, SETUP_PROBES - len(setup))
        metrics = {"op_s": op_s,
                   "op_cpu_s": op_time(timed, partial, counts, 2),
                   "setup_s": min(setup),
                   "peak_alloc_mb": peak_mb}
        detail.update(setup_s=setup, peak_alloc_mb=peak_mb)
    problems = [p for o in checked for p in o.problems]
    detail["problems"] = problems
    failed = sum(1 for o in checked if o.problems)
    units = declared_units(trace)
    if set(units) != set(metrics):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    line = dict(correct=failed == 0, attempted=len(checked), failed=failed,
                metrics={k: {"value": metrics[k], "unit": u}
                         for k, u in units.items()})
    return line, detail


def layer_metrics(tracer, op, out, op_s, whole_s):
    """Per-layer metrics of the traced operation, and the untraced window's
    per-step estimate next to its fastest whole operation."""
    metrics = tracer.summary()
    metrics["op.estimate_s"] = op_s
    metrics["op.whole_min_s"] = whole_s
    solved = out is not None and not isinstance(out, dict)
    metrics["solver.sweeps"] = out.sweeps if solved else 0
    metrics["solver.peak_floats"] = out.peak_floats if solved else 0
    metrics["solver.sweeps_per_s"] = (
        metrics["solver.sweep.calls"] / op_s if solved else 0.0)
    metrics["j_exact"] = 0.0 if out is None else float(
        out.j_exact if solved else out["j_exact"])
    # the traced operation's wall time against the untraced estimate
    metrics["tracing.overhead_s"] = op.wall_s - op_s
    return metrics


def declared_units(trace):
    """{metric: unit} of the mode's metrics, as BENCHMARK.json lists them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


# -- entry points -------------------------------------------------------------

def run_all(seed, seconds, trace):
    """Run every workload in a fresh interpreter and tabulate the metrics."""
    totals = dict(correct=True, attempted=0, failed=0, metrics={})
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"{workload} failed:\n{proc.stderr}")
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        totals["correct"] &= line["correct"]
        totals["attempted"] += line["attempted"]
        totals["failed"] += line["failed"]
        for name, metric in line["metrics"].items():
            print(f"{workload:16s} {name:42s} {metric['value']:14.6g} "
                  f"{metric['unit']}")
            totals["metrics"][f"{workload}/{name}"] = metric
        print(f"{workload:16s} correct={line['correct']} "
              f"attempted={line['attempted']} failed={line['failed']}")
    return totals


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if args.workload == "all":
            line = run_all(args.seed, args.seconds, args.trace)
        else:
            line, detail = run(args.workload, args.seed, args.seconds,
                               bool(args.trace))
            OUT.mkdir(exist_ok=True)
            name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
            (OUT / name).write_text(json.dumps(detail, indent=1))
            print(json.dumps({key: detail[key] for key in (
                "env", "op_whole_min_s", "step_counts")}))
            for problem in detail["problems"]:
                print(f"check failed: {problem}")
    except (BenchError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
