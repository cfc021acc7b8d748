"""Golden records: the results of the benchmark workloads and of a few more
solves, pinned bit for bit in tests/golden/records.json.

    python3 tests/golden.py --check    # exit 1 on any difference
    python3 tests/golden.py --write    # rewrite the records
    python3 tests/golden.py --digest 0-5   # one sha256, workload seeds 0-5

A solve's record holds every trace entry, J_exact, the final J_risk, the
sweep count and the winning seed, each float as `float.hex`, and a sha256 of
the returned policy's table and phi bytes. A `policy-eval` record holds J,
the eight J_risk and the Monte-Carlo mean and stderr. The benchmark's
workloads are built and run through perfbench/run.py's own `build_inputs`
and `run_op`, so they are defined in one place.

The bits of a float sum can depend on numpy's SIMD dispatch and on the BLAS
kernel behind `np.matmul`, so the file also holds the stamp of the machine
that wrote it. Under another stamp `--check` exits 2 without comparing: a
looser comparison would let a moved bit pass.

`--digest SEEDS` compares two checkouts on one machine: it computes every
record, the benchmark workloads at SEEDS (`a-b`, inclusive, or one seed)
instead of 0-1, and prints the machine stamp and one sha256 over the
records. It writes no file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = HERE / "golden" / "records.json"
BENCH_SEEDS = (0, 1)
# Dec-Tiger T=6 under the `dectiger-t6` config, its agents updated in turn
PER_AGENT = dict(lambda0=0.0, alpha=0.1, anneal_sweeps=10, max_sweeps=500,
                 restarts=5, z_sizes=(2, 2), ordering="per_agent")
THREE_AGENTS = dict(lambda0=0.5, alpha=0.3, anneal_sweeps=3, max_sweeps=30,
                    restarts=2, z_sizes=(2, 1, 2))


def stamp() -> dict:
    """What the bits depend on beyond the source: numpy, its BLAS, the SIMD
    extensions its runtime dispatches to, Python and the CPU model."""
    import numpy as np
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"numpy": np.__version__,
            "blas": blas.get("openblas configuration",
                             f"{blas.get('name')} {blas.get('version')}"),
            "simd": [f for f in __cpu_dispatch__ if __cpu_features__[f]],
            "python": platform.python_version(), "cpu": cpu}


def load_bench():
    """perfbench/run.py as a module, loaded as tests/test_bench_contract.py
    loads it: its `from tracer import ...` is served by perfbench/tracer.py,
    and both are registered in sys.modules only while run.py executes (its
    dataclasses look their module up)."""
    names = ("tracer", "perfbench_run")
    saved = {name: sys.modules.get(name) for name in names}
    try:
        modules = []
        for name, file in zip(names, ("tracer.py", "run.py")):
            spec = importlib.util.spec_from_file_location(
                name, ROOT / "perfbench" / file)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            modules.append(module)
        return modules[1]
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def policy_digest(policy) -> str:
    import numpy as np

    h = hashlib.sha256()
    for arr in (*policy.tables, *policy.phi):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def solve_record(result) -> dict:
    return {"trace": [[float(x).hex() for x in entry]
                      for entry in result.trace],
            "j_exact": float(result.j_exact).hex(),
            "j_risk_final": float(result.j_risk_final).hex(),
            "sweeps": result.sweeps, "seed": result.seed,
            "policy_sha256": policy_digest(result.policy)}


def eval_record(out) -> dict:
    return {"j_exact": float(out["j_exact"]).hex(),
            "j_risk": [float(x).hex() for x in out["j_risk"]],
            "mc_mean": float(out["mc_mean"]).hex(),
            "mc_stderr": float(out["mc_stderr"]).hex()}


def bench_record(workload: str, seed: int) -> dict:
    import rscpi
    import rscpi.bench_cli   # run.py reads its load_model

    bench = load_bench()
    out = bench.run_op(rscpi, workload,
                       bench.build_inputs(rscpi, workload, seed), seed)
    return eval_record(out) if workload == "policy-eval" else solve_record(out)


def dectiger_record(lambda0: float) -> dict:
    from _benchmarks import dectiger_model
    from rscpi import SolverConfig, rscpi

    config = SolverConfig(**dict(PER_AGENT, lambda0=lambda0))
    return solve_record(rscpi(dectiger_model(6), config))


def three_agent_record() -> dict:
    import numpy as np
    from _benchmarks import random_model
    from rscpi import SolverConfig, rscpi

    model = random_model(np.random.default_rng(7), n_states=3,
                         action_counts=(2, 2, 2), obs_counts=(2, 2, 2),
                         horizon=4)
    return solve_record(rscpi(model, SolverConfig(**THREE_AGENTS)))


def recipes(seeds=BENCH_SEEDS) -> dict:
    """Record name -> a call that computes the record, the benchmark
    workloads at `seeds`."""
    workloads = ("dectiger-t6", "recycling-t100", "synthetic-large",
                 "policy-eval")
    out = {f"{w}/seed{s}": (lambda w=w, s=s: bench_record(w, s))
           for w in workloads for s in seeds}
    out["dectiger-t6-per-agent"] = lambda: dectiger_record(0.0)
    out["dectiger-t6-per-agent/lambda0=0.5"] = lambda: dectiger_record(0.5)
    out["three-agents"] = three_agent_record
    return out


NAMES = list(recipes())


def load() -> dict:
    with open(RECORDS) as f:
        return json.load(f)


def differences(name: str, want: dict, got: dict) -> list:
    """One line per field of record `name` whose value moved; for a list of
    the recorded length, its first entry that moved."""
    out = []
    for key in sorted(set(want) | set(got)):
        w, g = want.get(key), got.get(key)
        if w == g:
            continue
        if isinstance(w, list) and isinstance(g, list) and len(w) == len(g):
            i = next(i for i, (a, b) in enumerate(zip(w, g)) if a != b)
            key, w, g = f"{key}[{i}]", w[i], g[i]
        out.append(f"{name}: {key} is {g!r}, recorded {w!r}")
    return out


def parse_seeds(text: str) -> tuple:
    """The seeds `a-b` (inclusive) or `a`."""
    lo, _, hi = text.partition("-")
    return tuple(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--digest", metavar="SEEDS", type=parse_seeds)
    args = parser.parse_args(argv)
    here = stamp()
    if args.digest is not None:
        records = {name: make() for name, make in recipes(args.digest).items()}
        text = json.dumps(records, sort_keys=True, separators=(",", ":"))
        print(json.dumps(here))
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  {len(records)} "
              f"records, workload seeds {args.digest[0]}-{args.digest[-1]}")
        return 0
    if args.write:
        records = {name: make() for name, make in recipes().items()}
        RECORDS.parent.mkdir(exist_ok=True)
        with open(RECORDS, "w") as f:
            json.dump({"stamp": here, "records": records}, f, indent=1)
            f.write("\n")
        print(f"wrote {len(records)} records to {RECORDS}")
        return 0
    stored = load()
    if stored["stamp"] != here:
        print(f"records written under {stored['stamp']}, this machine is "
              f"{here}: not compared")
        return 2
    problems = []
    for name, make in recipes().items():
        want = stored["records"].get(name)
        problems += ([f"{name}: no record"] if want is None
                     else differences(name, want, make()))
    problems += [f"{name}: recorded, not computed"
                 for name in stored["records"] if name not in NAMES]
    print("\n".join(problems) or f"{len(NAMES)} records match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    sys.exit(main())
