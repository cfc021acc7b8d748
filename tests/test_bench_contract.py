"""What perfbench/run.py needs of the package, checked with its own tracer.

The benchmark imports `rscpi.kernels`, requires `kernels.BACKEND == "numpy"`,
and times each operation as the top-level steps listed in its tracer's
STEPS. It stops with exit code 2 when an operation makes no step of a
listed kind or when two operations make different steps, so a change that
breaks either fails here first.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import rscpi
import rscpi.bench_cli
from _benchmarks import dectiger_model, random_policy_for
from rscpi import kernels

ROOT = Path(__file__).resolve().parents[1]
REMOVED = ["DeterministicAgentSlice", "FiniteMdp", "certainty_equivalent",
           "risk_policy_evaluation_mdp", "risk_value_iteration",
           "weighted_logmeanexp"]
# per-layer rows of the benchmark that a solve must keep reaching
SOLVE_LAYERS = ["solver.sweep", "solver.greedy_agent_update",
                "policy.mix_policies", "evaluation.forward_marginals",
                "evaluation.evaluate_exact", "kernels.tilted_q_log"]
# per-layer rows of the benchmark's set-up, which loads the bundled files
SETUP_LAYERS = ["bench_cli.load_model", "dpomdp_parser.parse_dpomdp",
                "dpomdp_parser.compile_model"]


def load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def solve_op():
    # lam 0.5, 0.25, then 0: two tilted sweeps and one plain one
    config = rscpi.SolverConfig(lambda0=0.5, anneal_sweeps=2, alpha=0.3,
                                max_sweeps=3, restarts=2, seed=0,
                                z_sizes=(2, 2))
    result = rscpi.rscpi(dectiger_model(horizon=3), config)
    assert result.sweeps == 3


def eval_op():
    # the benchmark's policy-eval sequence, on a small model
    model = dectiger_model(horizon=3)
    text = rscpi.policy_to_json(random_policy_for(model, (2, 2), seed=1))
    ev = rscpi.evaluation
    policy = rscpi.policy.policy_from_json(text)
    ev.evaluate_exact(model, policy)
    for lam in (0.5, 1.0):
        ev.evaluate_risk(model, policy, lam)
    ev.rollout_monte_carlo(model, policy, 200, 1)


def step_counts(kind, op, repeats=2):
    """The step labels of each of `repeats` runs of op, under a StepTimer
    installed as the benchmark installs it."""
    tracer = load_tracer()
    timer = tracer.StepTimer()
    timer.install(rscpi, kind)
    try:
        counts = []
        for _ in range(repeats):
            op()
            counts.append(Counter(label for label, _, _ in timer.take()))
    finally:
        timer.uninstall()
    return tracer.STEPS[kind], counts


class TestBenchmarkContract:
    def test_numpy_kernels(self):
        assert kernels.BACKEND == "numpy"

    def test_solve_makes_every_step_kind(self):
        steps, (first, second) = step_counts("solve", solve_op)
        for name, _ in steps:
            assert any(label.split("[")[0] == name for label in first), name
        assert first["solver.sweep[tilted]"] == 2
        assert first["solver.sweep[plain]"] == 1
        assert first == second

    def test_eval_makes_every_step_kind(self):
        steps, (first, second) = step_counts("eval", eval_op)
        assert set(first) == {name for name, _ in steps}
        assert first == second

    def test_span_tracer_sees_every_solve_layer(self):
        """A rename or a changed lookup site would silently zero one of the
        benchmark's per-layer rows."""
        tracer = load_tracer().SpanTracer()
        tracer.install(rscpi)
        try:
            # lam 0.5, then 0: one tilted sweep and one plain one
            config = rscpi.SolverConfig(lambda0=0.5, anneal_sweeps=1,
                                        alpha=0.3, max_sweeps=2, restarts=2,
                                        seed=0, z_sizes=(2, 2))
            rscpi.rscpi(dectiger_model(horizon=3), config)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        for name in SOLVE_LAYERS:
            assert summary[f"{name}.calls"] > 0, name

    def test_span_tracer_sees_every_setup_layer(self):
        """The set-up loads each model as the benchmark does, through
        `rscpi.bench_cli.load_model`; a front-end rename would zero its
        per-layer rows."""
        tracer = load_tracer().SpanTracer()
        tracer.install(rscpi)
        try:
            rscpi.bench_cli.load_model(
                str(ROOT / "benchmarks" / "dectiger.dpomdp"), 3)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        for name in SETUP_LAYERS:
            assert summary[f"{name}.calls"] > 0, name

    def test_public_names(self):
        for name in rscpi.__all__:
            assert getattr(rscpi, name) is not None, name
        for name in REMOVED:
            assert name not in rscpi.__all__
            assert not hasattr(rscpi, name)
            assert not hasattr(rscpi.risk, name)
