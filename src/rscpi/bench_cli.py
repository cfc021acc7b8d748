"""Benchmark harness: solve, sweep, eval, and report subcommands.

Outputs a flat runs.csv (one schema for every table), policy.json/policy.txt
per solve, and a Markdown report with one table per environment plus a
runtime/memory section. Exit codes: 0 success, 2 input or config error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dpomdp_parser import parse_dpomdp, compile_model, render_diagnostics
from .evaluation import (NumericError, evaluate_exact, evaluate_risk,
                         is_neutral, rollout_monte_carlo)
from .model import is_int, matrix_game_model
from .policy import dump_policy, policy_from_json, policy_to_json
from .solver import SolverConfig, rscpi

CSV_COLUMNS = ["env", "T", "z_sizes", "lambda0", "alpha", "anneal_sweeps",
               "seed", "ablation", "sweeps", "J_exact", "J_risk_final",
               "wall_time_ms", "peak_floats", "init_obs_mode"]

# the columns of runs.csv that `render_report` reads, with their types; a
# CSV without one of them, or a row whose value is missing or does not
# convert, is a ValueError
REPORT_COLUMNS = {"env": str, "T": int, "z_sizes": str, "ablation": str,
                  "J_exact": float, "wall_time_ms": float, "peak_floats": int}

# (risk seeking, conservative step) -> the ablation label of a solve, in
# report-column order: no risk seeking is an untilted first sweep (lambda0
# = 0 or anneal_sweeps = 0), no conservative step alpha = 1
ABLATIONS = {(False, True): "cpi-only", (True, False): "rs-only",
             (False, False): "none", (True, True): "rs-cpi"}

# --init-obs / config "init_obs" name -> make_initial_distribution mode
INIT_OBS_MODES = {"dummy": "dummy_observation",
                  "uniform": "uniform_observation"}

MATRIX_GAME_PAYOFFS = [[2.0, -10.0], [-10.0, 6.0]]


@dataclass
class RunRecord:
    env: str
    horizon: int
    z_sizes: tuple
    lambda0: float
    alpha: float
    anneal_sweeps: int
    seed: int
    ablation: str
    sweeps: int
    j_exact: float
    j_risk_final: float
    wall_time_ms: float
    peak_floats: int
    init_obs_mode: str

    def to_row(self) -> list:
        return [self.env, str(self.horizon),
                ",".join(str(z) for z in self.z_sizes),
                f"{self.lambda0:g}", f"{self.alpha:g}",
                str(self.anneal_sweeps), str(self.seed), self.ablation,
                str(self.sweeps), f"{self.j_exact:.17g}",
                f"{self.j_risk_final:.17g}", f"{self.wall_time_ms:.3f}",
                str(self.peak_floats), self.init_obs_mode]


@dataclass
class RunConfigFile:
    model: str
    horizons: list
    agent_states: list
    lambda0: list
    alpha: list
    anneal_sweeps: list
    seeds: list
    out: str = "."
    max_sweeps: int = 200
    restarts: int = 1
    init_obs: str = "dummy"
    workers: int = 1

    @classmethod
    def from_json(cls, doc: dict) -> "RunConfigFile":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(doc) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        cfg = cls(**doc)
        for name in ("horizons", "agent_states", "lambda0", "alpha",
                     "anneal_sweeps", "seeds"):
            val = getattr(cfg, name)
            if not isinstance(val, list) or not val:
                raise ValueError(f"config field '{name}' must be a nonempty list")
        rules = [
            (("model", "out", "init_obs"), "a string",
             lambda v: isinstance(v, str)),
            (("max_sweeps", "restarts", "workers"), "an integer >= 1",
             lambda v: is_int(v, 1)),
            (("horizons",), "a list of integers >= 1",
             lambda v: all(is_int(x, 1) for x in v)),
            (("anneal_sweeps", "seeds"), "a list of integers >= 0",
             lambda v: all(is_int(x, 0) for x in v)),
            (("agent_states",), "a list of integers >= 1 or of lists of them",
             lambda v: all(is_int(x, 1) or isinstance(x, list)
                           and all(is_int(z, 1) for z in x) for x in v)),
            (("lambda0", "alpha"), "a list of finite numbers",
             lambda v: all(_is_finite(x) for x in v)),
        ]
        for names, what, ok in rules:
            for name in names:
                if not ok(getattr(cfg, name)):
                    raise ValueError(f"config field '{name}' must be {what}")
        if cfg.init_obs not in INIT_OBS_MODES:
            raise ValueError("init_obs must be "
                             + " or ".join(f"'{k}'" for k in INIT_OBS_MODES))
        return cfg


def _is_finite(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond float range
        return False


def load_model(path: str, horizon: int, init_obs: str = "dummy"):
    """Load a .dpomdp file or the reserved 'matrix-game' fixture name.

    Returns (model, env_name); every ValueError it raises is a rendered
    diagnostic that names the file, a bad horizon's included.
    """
    if not is_int(horizon, 1):
        raise ValueError(f"{path}:0: error: horizon must be an integer "
                         f">= 1, got {horizon!r}")
    if path == "matrix-game":
        model = matrix_game_model(MATRIX_GAME_PAYOFFS, horizon=horizon)
        return model, "matrix-game"
    if not os.path.exists(path):
        raise ValueError(f"{path}: error: model file not found")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: error: {exc}") from None
    raw, diags = parse_dpomdp(text)
    warnings = [d for d in diags if d.severity == "warning"]
    if warnings:
        print(render_diagnostics(warnings, path), file=sys.stderr)
    if raw is None:
        raise ValueError(render_diagnostics(
            [d for d in diags if d.severity == "error"], path))
    model = compile_model(raw, horizon, INIT_OBS_MODES[init_obs])
    env = os.path.splitext(os.path.basename(path))[0]
    return model, env


def _parse_z_sizes(text: str, n_agents: int) -> tuple:
    try:
        parts = [int(p) for p in str(text).split(",")]
    except ValueError:
        raise ValueError("--agent-states must be one integer or a comma "
                         f"list of integers, got {text!r}") from None
    if len(parts) == 1:
        parts = parts * n_agents
    if len(parts) != n_agents:
        raise ValueError(f"--agent-states lists {len(parts)} sizes "
                         f"for {n_agents} agents")
    return tuple(parts)


def _append_rows(out_dir: str, rows: list):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "runs.csv")
    fresh = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    return path


def run_single(model, env: str, z_sizes, lambda0, alpha, anneal_sweeps,
               seed, max_sweeps=200, restarts=1):
    """One rscpi solve wrapped into a RunRecord (plus the SolveResult).

    The record's ablation is read off the config solved: risk seeking when
    its first sweep is tilted, a conservative step when alpha < 1.
    """
    config = SolverConfig(
        lambda0=float(lambda0), anneal_sweeps=int(anneal_sweeps),
        alpha=float(alpha), max_sweeps=int(max_sweeps),
        restarts=int(restarts), seed=int(seed), z_sizes=tuple(z_sizes),
    )
    result = rscpi(model, config)
    record = RunRecord(
        env=env, horizon=model.horizon, z_sizes=config.z_sizes,
        lambda0=config.lambda0, alpha=config.alpha,
        anneal_sweeps=config.anneal_sweeps, seed=config.seed,
        ablation=ABLATIONS[(not is_neutral(config.lam_at(1)),
                            config.alpha < 1.0)],
        sweeps=result.sweeps, j_exact=result.j_exact,
        j_risk_final=result.j_risk_final, wall_time_ms=result.wall_time_ms,
        peak_floats=result.peak_floats, init_obs_mode=model.init_obs_mode,
    )
    return record, result


def cmd_solve(args) -> int:
    try:
        model, env = load_model(args.model, args.horizon, args.init_obs)
    except ValueError as exc:   # load_model's diagnostics name the file
        print(exc, file=sys.stderr)
        return 2
    try:
        z_sizes = _parse_z_sizes(args.agent_states, model.n_agents)
        record, result = run_single(
            model, env, z_sizes, args.lambda0, args.alpha,
            args.anneal_sweeps, args.seed, max_sweeps=args.max_sweeps,
            restarts=args.restarts)
        line = _json_line({
            "env": env, "J_exact": result.j_exact,
            "J_risk_final": result.j_risk_final, "sweeps": result.sweeps,
            "wall_time_ms": result.wall_time_ms,
            "peak_floats": result.peak_floats, "seed": result.seed,
        })
    except (ValueError, NumericError) as exc:
        print(f"{args.model}:0: error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericError) else 2
    # the directory is made only once the solve has run
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "policy.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(policy_to_json(result.policy))
        with open(os.path.join(args.out, "policy.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(dump_policy(result.policy, model))
        _append_rows(args.out, [record.to_row()])
    except OSError as exc:
        print(f"{args.out}:0: error: {exc}", file=sys.stderr)
        return 2
    print(line)
    return 0


def _json_line(doc: dict) -> str:
    """Strict JSON: a non-finite value is a numeric failure, not NaN text."""
    try:
        return json.dumps(doc, allow_nan=False)
    except ValueError:
        raise NumericError(f"non-finite result {doc!r}") from None


def _sweep_task(task: dict):
    """Worker body: one grid cell. Returns (row, error-or-None)."""
    try:
        z_sizes = task["z"]
        if isinstance(z_sizes, int):
            z_sizes = (z_sizes,) * task["model"].n_agents
        record, _ = run_single(
            task["model"], task["env"], tuple(z_sizes), task["lambda0"],
            task["alpha"], task["anneal"], task["seed"],
            max_sweeps=task["max_sweeps"], restarts=task["restarts"])
        return record.to_row(), None
    except (ValueError, NumericError) as exc:
        return None, f"{task['path']}:0: error: {exc}"


def cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = RunConfigFile.from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        print(f"{args.config}:0: error: {exc}", file=sys.stderr)
        return 2
    try:   # each horizon's model is loaded once, before any cell runs
        loaded = {T: load_model(cfg.model, T, cfg.init_obs)
                  for T in dict.fromkeys(cfg.horizons)}
    except ValueError as exc:   # load_model's diagnostics name the file
        print(exc, file=sys.stderr)
        return 2
    tasks = [
        {"path": cfg.model, "model": loaded[T][0], "env": loaded[T][1],
         "z": z, "lambda0": l0, "alpha": a, "anneal": k1, "seed": seed,
         "max_sweeps": cfg.max_sweeps, "restarts": cfg.restarts}
        for T in cfg.horizons for z in cfg.agent_states
        for l0 in cfg.lambda0 for a in cfg.alpha
        for k1 in cfg.anneal_sweeps for seed in cfg.seeds
    ]
    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_task, tasks))
    else:
        outcomes = [_sweep_task(t) for t in tasks]
    rows, failures = [], 0
    for row, err in outcomes:
        if row is None:
            failures += 1
            print(err, file=sys.stderr)
        else:
            rows.append(row)
    if not rows:
        print("error: every grid cell failed", file=sys.stderr)
        return 2
    try:
        path = _append_rows(cfg.out, rows)
        report = render_report(path)
        with open(os.path.join(cfg.out, "report.md"), "w",
                  encoding="utf-8") as fh:
            fh.write(report)
    except OSError as exc:
        print(f"{cfg.out}:0: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"rows": len(rows), "failed": failures,
                      "csv": path}))
    return 0


def cmd_eval(args) -> int:
    try:
        model, _ = load_model(args.model, args.horizon, args.init_obs)
    except ValueError as exc:   # load_model's diagnostics name the file
        print(exc, file=sys.stderr)
        return 2
    try:
        with open(args.policy, "r", encoding="utf-8") as fh:
            policy = policy_from_json(fh.read())
        out = {"J_exact": evaluate_exact(model, policy)}
        if args.risk_lambda is not None:
            out["J_risk"] = evaluate_risk(model, policy, args.risk_lambda)
        if args.mc:
            mean, stderr = rollout_monte_carlo(model, policy, args.mc,
                                               args.seed)
            out["mc_mean"] = mean
            out["mc_stderr"] = stderr
        line = _json_line(out)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(line)
    return 0


def _report_rows(csv_path: str) -> list:
    """The rows of runs.csv, each holding its REPORT_COLUMNS values as
    their types."""
    with open(csv_path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        lines = [(reader.line_num, r) for r in reader]
    if not lines:
        raise ValueError("runs.csv has no data rows")
    missing = [c for c in REPORT_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise ValueError(f"{csv_path} lacks the column(s) "
                         f"{', '.join(missing)} of runs.csv")
    rows = []
    for line, raw in lines:
        row = {}
        for col, kind in REPORT_COLUMNS.items():
            value = raw[col]
            if value is None:   # the row is shorter than its header
                raise ValueError(f"{csv_path}:{line}: row lacks column {col}")
            try:
                row[col] = kind(value)
            except ValueError:
                raise ValueError(f"{csv_path}:{line}: column {col} holds "
                                 f"{value!r}, expected {kind.__name__}"
                                 ) from None
        rows.append(row)
    return rows


def render_report(csv_path: str) -> str:
    """Markdown tables: per environment, rows = T, columns = ablation x |Z|."""
    by_env = {}
    for r in _report_rows(csv_path):
        by_env.setdefault(r["env"], []).append(r)
    lines = ["# Benchmark report", ""]
    order = list(ABLATIONS.values())
    for env in sorted(by_env):
        body = by_env[env]
        lines.append(f"## {env}")
        lines.append("")
        horizons = sorted({r["T"] for r in body})
        combos = sorted(
            {(r["ablation"], r["z_sizes"]) for r in body},
            key=lambda c: (order.index(c[0]) if c[0] in order else 99, c[1]))
        header = ["T"] + [f"{ab} |Z|={z}" for ab, z in combos]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for T in horizons:
            cells = [str(T)]
            for ab, z in combos:
                vals = [r["J_exact"] for r in body
                        if r["T"] == T and r["ablation"] == ab
                        and r["z_sizes"] == z and np.isfinite(r["J_exact"])]
                cells.append(f"{max(vals):.2f}" if vals else "-")
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
        lines.append("### Runtime and memory")
        lines.append("")
        lines.append("| T | wall_time_ms (mean ± std) | peak_floats |")
        lines.append("|---|---|---|")
        for T in horizons:
            wt = np.array([r["wall_time_ms"] for r in body if r["T"] == T])
            pf = sorted({r["peak_floats"] for r in body if r["T"] == T})
            std = wt.std(ddof=1) if wt.size > 1 else 0.0
            pf_text = ", ".join(str(p) for p in pf)
            lines.append(f"| {T} | {wt.mean():.1f} ± {std:.1f} | {pf_text} |")
        lines.append("")
    return "\n".join(lines)


def cmd_report(args) -> int:
    try:
        text = render_report(args.csv)
        if args.out_file:
            with open(args.out_file, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out_file:
        print(text)
    return 0


def _add_model_flags(p):
    p.add_argument("--model", required=True,
                   help=".dpomdp path or the 'matrix-game' fixture")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--init-obs", choices=list(INIT_OBS_MODES),
                   default="dummy")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rscpi-bench",
                                 description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run one solve and write its artifacts")
    _add_model_flags(sp)
    sp.add_argument("--agent-states", default="2",
                    help="comma list per agent, or one shared size")
    sp.add_argument("--lambda0", type=float, default=1.0)
    sp.add_argument("--alpha", type=float, default=0.3)
    sp.add_argument("--anneal-sweeps", type=int, default=10)
    sp.add_argument("--max-sweeps", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--restarts", type=int, default=5)
    sp.add_argument("--out", default=".")
    sp.set_defaults(func=cmd_solve)

    sw = sub.add_parser("sweep", help="run a JSON-configured grid")
    sw.add_argument("config", help="JSON run configuration file")
    sw.set_defaults(func=cmd_sweep)

    ev = sub.add_parser("eval", help="evaluate a saved policy")
    _add_model_flags(ev)
    ev.add_argument("--policy", required=True, help="policy.json path")
    ev.add_argument("--risk-lambda", type=float, default=None)
    ev.add_argument("--mc", type=int, default=0,
                    help="Monte-Carlo episodes (0 disables)")
    ev.add_argument("--seed", type=int, default=0)
    ev.set_defaults(func=cmd_eval)

    rp = sub.add_parser("report", help="render Markdown tables from runs.csv")
    rp.add_argument("csv")
    rp.add_argument("--out-file", default=None)
    rp.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
