"""What perfbench/run.py needs of the package, checked with its own tracer.

The benchmark imports `rscpi.kernels`, requires `kernels.BACKEND == "numpy"`,
and times each operation as the top-level steps listed in its tracer's
STEPS. It stops with exit code 2 when an operation makes no step of a
listed kind or when two operations make different steps, so a change that
breaks either fails here first.
"""

import dataclasses
import importlib.util
import inspect
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rscpi
import rscpi.bench_cli
from _benchmarks import dectiger_model, random_policy_for
from rscpi import kernels

ROOT = Path(__file__).resolve().parents[1]
REMOVED = ["DeterministicAgentSlice", "FiniteMdp", "JointIndexer",
           "KernelEntry", "PHI_MODES", "RewardEntry", "RiskParameter",
           "averaged_local_q", "certainty_equivalent", "check_stage",
           "compile_tables", "fold_stage", "joint_components",
           "risk_policy_evaluation_mdp", "risk_value_iteration",
           "serialize_canonical", "uniform_phi", "weighted_logmeanexp"]
WORKLOADS = ["dectiger-t6", "recycling-t100", "synthetic-large",
             "policy-eval"]
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


def load_bench(monkeypatch):
    """perfbench/run.py as a module, its `from tracer import ...` served by
    the tracer loaded above, so that nothing is added to sys.path. Both are
    registered only for the test: its dataclasses look their module up."""
    monkeypatch.setitem(sys.modules, "tracer", load_tracer())
    path = ROOT / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    return bench


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

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_setup_probe_runs_in_a_fresh_interpreter(self, workload):
        """The benchmark times its set-up in child interpreters and stops
        with exit code 2 ("set-up probe failed") when one exits nonzero or
        prints no setup_s."""
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--setup-probe",
             "--workload", workload, "--seed", "0"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["setup_s"] > 0

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_seed_zero_passes_the_reference_gate(self, monkeypatch,
                                                 workload):
        """The benchmark refuses a run whose seed-0 J leaves its reference
        by more than 1e-9 or whose sweep count moves at all; a change to
        the numerics that would be refused fails here first."""
        bench = load_bench(monkeypatch)
        inputs = bench.build_inputs(rscpi, workload, 0)
        out = bench.run_op(rscpi, workload, inputs, 0)
        assert bench.check(rscpi, workload, inputs, out,
                           use_reference=True) == []

    @pytest.mark.parametrize("seed", [1, 2])
    def test_synthetic_large_off_the_reference_seed(self, monkeypatch, seed):
        """synthetic-large is the only workload with one restart, agent-state
        sizes (3, 3) and four actions and observations per agent, and seeds
        other than 0 run without the reference gate. Two operations under
        the StepTimer make equal steps of every kind and pass the gate's
        invariants, or the benchmark would stop the run with exit code 2."""
        bench = load_bench(monkeypatch)
        inputs = bench.build_inputs(rscpi, "synthetic-large", seed)
        outs = []
        steps, (first, second) = step_counts("solve", lambda: outs.append(
            bench.run_op(rscpi, "synthetic-large", inputs, seed)))
        assert first == second
        for name, _ in steps:
            assert any(label.split("[")[0] == name for label in first), name
        for out in outs:
            assert bench.check(rscpi, "synthetic-large", inputs, out,
                               use_reference=False) == []

    @pytest.mark.parametrize("seed", [1, 2])
    def test_policy_eval_off_the_reference_seed(self, monkeypatch, seed):
        """Seeds other than 0 evaluate another random policy and roll it
        out from seed + 1, without the reference gate. Two operations under
        the StepTimer make equal steps, one of each eval kind but eight
        evaluate_risk, and each passes the gate's invariants: the
        Monte-Carlo mean within 4 stderr of J_exact and J_risk nondecreasing
        in lambda. Otherwise the benchmark would stop with exit code 2."""
        bench = load_bench(monkeypatch)
        inputs = bench.build_inputs(rscpi, "policy-eval", seed)
        outs = []
        steps, (first, second) = step_counts("eval", lambda: outs.append(
            bench.run_op(rscpi, "policy-eval", inputs, seed)))
        assert first == second
        assert first == {name: 1 for name, _ in steps} | {
            "evaluation.evaluate_risk": len(bench.RISK_LAMBDAS)}
        for out in outs:
            assert bench.check(rscpi, "policy-eval", inputs, out,
                               use_reference=False) == []

    def test_public_names(self):
        for name in rscpi.__all__:
            assert getattr(rscpi, name) is not None, name
        for name in REMOVED:
            assert name not in rscpi.__all__
            assert not hasattr(rscpi, name)
            assert not hasattr(rscpi.evaluation, name)
            assert not hasattr(rscpi.dpomdp_parser, name)
            assert not hasattr(rscpi.model, name)
            assert not hasattr(rscpi.policy, name)
            assert not hasattr(rscpi.solver, name)
        # options with one value in use are constants
        fields = {f.name for f in dataclasses.fields(rscpi.SolverConfig)}
        assert "phi_mode" not in fields
        assert "chunk" not in inspect.signature(
            rscpi.evaluation.rollout_monte_carlo).parameters
