#!/usr/bin/env python3
"""Time the numba kernels against the pure-numpy fallback.

The backend is fixed at import time by RSCPI_BACKEND, so each one runs in
its own subprocess and the parent merges the timings into one table. Rows
cover the two hot kernels plus full solver sweeps on two synthetic models;
numbers are best-of-R wall times after a warmup call (which also absorbs
JIT compilation).

    python3 scripts/bench_backends.py
    python3 scripts/bench_backends.py --repeats 9 --sizes large --json
"""

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

SIZES = {
    "small": dict(n_states=2, action_counts=(3, 3), obs_counts=(3, 3),
                  z_sizes=(2, 2), horizon=20),
    "large": dict(n_states=8, action_counts=(4, 4), obs_counts=(4, 4),
                  z_sizes=(3, 3), horizon=10),
}


def synthetic_model(n_states, action_counts, obs_counts, horizon, seed=0):
    from rscpi.model import DecPomdpModel

    rng = np.random.default_rng(seed)
    A = int(np.prod(action_counts))
    Y = int(np.prod(obs_counts))
    P = rng.dirichlet(np.ones(n_states * Y), size=(n_states, A))
    P = P.reshape(n_states, A, n_states, Y)
    r = rng.uniform(-1.0, 1.0, size=(n_states, A))
    zeta1 = rng.dirichlet(np.ones(n_states * Y)).reshape(n_states, Y)
    return DecPomdpModel(
        n_agents=len(action_counts), state_count=n_states,
        action_counts=tuple(action_counts), obs_counts=tuple(obs_counts),
        P=P, r=r, zeta1=zeta1, horizon=horizon,
        init_obs_mode="uniform_observation")


def best_time(fn, repeats):
    fn()
    t0 = time.perf_counter()
    fn()
    probe = time.perf_counter() - t0
    # scale the inner loop so one measurement is ~20 ms of work
    inner = max(1, int(0.02 / max(probe, 1e-7)))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def build_cases(size_key, seed=0):
    from rscpi import kernels
    from rscpi.evaluation import dynamics_support, expand_joint_policy
    from rscpi.policy import random_policy
    from rscpi.solver import SolveWorkspace, sweep

    dims = SIZES[size_key]
    z_sizes = dims["z_sizes"]
    model = synthetic_model(dims["n_states"], dims["action_counts"],
                            dims["obs_counts"], dims["horizon"], seed)
    policy = random_policy(model.action_counts, model.obs_counts, z_sizes,
                           model.horizon, seed)
    S, Y = model.state_count, model.joint_obs_count
    A = model.joint_action_count
    W = int(np.prod(z_sizes))
    indptr, sp, yp, logp = dynamics_support(model)
    rng = np.random.default_rng(seed + 1)
    lam = 0.7
    l_next = rng.normal(size=(S, Y, W))
    lam_r = lam * model.r
    q_red = rng.normal(size=(S, A, W))
    q_out = np.zeros((S, A, W))
    l_out = np.zeros((S, Y, W))
    with np.errstate(divide="ignore"):
        log_m = np.log(expand_joint_policy(policy, 0))

    pad = kernels.pad_support(indptr, sp, yp, logp)   # built once per model
    cases = [
        ("tilted_q_log", lambda: kernels.tilted_q_log(
            indptr, sp, yp, logp, lam_r, l_next, q_out, pad=pad)),
        ("fold_policy_log", lambda: kernels.fold_policy_log(
            log_m, q_red, l_out)),
    ]

    ws = SolveWorkspace(model, z_sizes)
    work = policy.copy()
    cases.append(("sweep lam=0", lambda: sweep(model, work, 0.0, 0.3,
                                               workspace=ws)))
    cases.append(("sweep lam=1", lambda: sweep(model, work, 1.0, 0.3,
                                               workspace=ws)))
    return cases


def run_worker(args):
    from rscpi import kernels

    if kernels.BACKEND != args.backend:
        print(json.dumps({"backend": args.backend,
                          "error": f"selected backend is {kernels.BACKEND!r}"}))
        return 3
    results = {}
    for size in args.sizes:
        for name, fn in build_cases(size):
            results[f"{name} [{size}]"] = best_time(fn, args.repeats)
    print(json.dumps({"backend": args.backend, "results": results}))
    return 0


def fmt_seconds(s):
    if s < 1e-3:
        return f"{s * 1e6:9.1f} us"
    if s < 1.0:
        return f"{s * 1e3:9.2f} ms"
    return f"{s:9.3f} s "


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--sizes", default="small,large",
                    help="comma list from: " + ", ".join(SIZES))
    ap.add_argument("--backends", default="numba,numpy")
    ap.add_argument("--json", action="store_true",
                    help="print the merged timings as JSON")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--backend", default="", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    args.sizes = [s.strip() for s in args.sizes.split(",") if s.strip()]
    for s in args.sizes:
        if s not in SIZES:
            ap.error(f"unknown size {s!r}")
    if args.worker:
        return run_worker(args)

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    merged = {}
    for backend in backends:
        env = dict(os.environ, RSCPI_BACKEND=backend)
        cmd = [sys.executable, os.path.abspath(__file__), "--worker",
               "--backend", backend, "--repeats", str(args.repeats),
               "--sizes", ",".join(args.sizes)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            print(f"{backend}: worker failed\n{proc.stderr}", file=sys.stderr)
            continue
        if "error" in payload:
            print(f"{backend}: {payload['error']}", file=sys.stderr)
            continue
        merged[backend] = payload["results"]

    if not merged:
        print("no backend produced timings", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(merged, indent=2))
        return 0

    names = list(next(iter(merged.values())))
    width = max(len(n) for n in names) + 2
    header = "case".ljust(width) + "".join(b.rjust(13) for b in merged)
    if len(merged) == 2:
        header += "ratio".rjust(10)
    print(header)
    print("-" * len(header))
    for name in names:
        row = name.ljust(width)
        vals = [merged[b].get(name) for b in merged]
        row += "".join(fmt_seconds(v).rjust(13) if v is not None else
                       "n/a".rjust(13) for v in vals)
        if len(vals) == 2 and all(v is not None for v in vals) and vals[0] > 0:
            row += f"{vals[1] / vals[0]:8.1f}x "
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
