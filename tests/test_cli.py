"""End-to-end subcommand tests driven through bench_cli.main."""

import csv
import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _benchmarks import dectiger_block_policy, dectiger_text
from rscpi import bench_cli
from rscpi.bench_cli import (ABLATIONS, CSV_COLUMNS, RunConfigFile, RunRecord,
                             load_model, main, render_report)
from rscpi.policy import JointPolicy, policy_to_json

MATRIX_UNIFORM = JointPolicy(
    horizon=1, agent_state_sizes=(1, 1),
    tables=[np.full((1, 1, 1, 2, 1), 0.5), np.full((1, 1, 1, 2, 1), 0.5)])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse one JSON document, refusing the NaN/Infinity extensions."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


HUGE_REWARD_MODEL = "\n".join([
    "agents: 2", "discount: 1.0", "values: reward", "states: 2",
    "actions:", "2", "2", "observations:", "2", "1",
    "start: uniform", "T: * : uniform", "O: * : uniform",
    "R: * : * : * : * : 9e307",
]) + "\n"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_sweep_config():
    """The JSON document of the README's sweep section."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### sweep"):]
    start = section.index("```json\n") + len("```json\n")
    return json.loads(section[start:section.index("```", start)])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def solve_matrix(capsys, out_dir, *extra):
    return run_cli(capsys, "solve", "--model", "matrix-game",
                   "--horizon", "1", "--agent-states", "1",
                   "--lambda0", "1", "--alpha", "1", "--anneal-sweeps", "1",
                   "--out", str(out_dir), *extra)


class TestSolve:
    def test_matrix_game_artifacts_and_stdout(self, capsys, tmp_path):
        code, out, _ = solve_matrix(capsys, tmp_path)
        assert code == 0
        doc = strict_json(out)
        assert doc["env"] == "matrix-game"
        assert doc["J_exact"] == 6.0
        assert set(doc) == {"env", "J_exact", "J_risk_final", "sweeps",
                            "wall_time_ms", "peak_floats", "seed"}
        assert (tmp_path / "policy.json").exists()
        assert (tmp_path / "policy.txt").exists()
        rows = read_rows(tmp_path / "runs.csv")
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 2
        row = dict(zip(CSV_COLUMNS, rows[1]))
        assert row["env"] == "matrix-game"
        assert row["J_exact"] == "6"
        assert row["ablation"] == "rs-only"   # --alpha 1: no conservative step
        assert row["z_sizes"] == "1,1"

    def test_seventeen_digit_round_trip(self, capsys, tmp_path):
        text = dectiger_text()
        path = tmp_path / "dectiger.dpomdp"
        path.write_text(text)
        code, out, _ = run_cli(
            capsys, "solve", "--model", str(path), "--horizon", "3",
            "--agent-states", "2", "--lambda0", "0", "--alpha", "1",
            "--anneal-sweeps", "0", "--max-sweeps", "40", "--restarts", "2",
            "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        row = dict(zip(CSV_COLUMNS, read_rows(tmp_path / "runs.csv")[1]))
        assert float(row["J_exact"]) == doc["J_exact"]
        assert float(row["J_risk_final"]) == doc["J_risk_final"]
        assert row["env"] == "dectiger"
        assert row["init_obs_mode"] == "dummy_observation"

    def test_missing_model_file_exits_2_without_artifacts(self, capsys,
                                                          tmp_path):
        code, out, err = run_cli(
            capsys, "solve", "--model", str(tmp_path / "nope.dpomdp"),
            "--horizon", "2", "--out", str(tmp_path / "out"))
        assert code == 2
        assert "model file not found" in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_out_below_a_file_exits_2(self, capsys, tmp_path):
        """An --out that cannot be made is a diagnostic and exit 2, not a
        traceback after the solve."""
        blocker = tmp_path / "taken"
        blocker.write_text("")
        code, out, err = solve_matrix(capsys, blocker / "out")
        assert code == 2 and out == ""
        assert err.startswith(f"{blocker / 'out'}:0: error:")
        assert len(err.splitlines()) == 1
        assert blocker.read_text() == ""

    def test_broken_model_file_exits_2_with_diagnostics(self, capsys,
                                                        tmp_path):
        path = tmp_path / "bad.dpomdp"
        path.write_text("agents: 2\nstates: 2\nT: blah\n")
        code, _, err = run_cli(capsys, "solve", "--model", str(path),
                               "--horizon", "2", "--out", str(tmp_path))
        assert code == 2
        assert f"{path}:" in err and "error:" in err

    def test_numeric_overflow_exits_3(self, capsys, tmp_path):
        path = tmp_path / "huge.dpomdp"
        path.write_text(HUGE_REWARD_MODEL)
        code, _, err = run_cli(
            capsys, "solve", "--model", str(path), "--horizon", "3",
            "--agent-states", "1", "--lambda0", "1", "--alpha", "1",
            "--anneal-sweeps", "1", "--restarts", "1",
            "--out", str(tmp_path))
        assert code == 3
        assert f"{path}:0: error: nonfinite tilted value" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_lambda0_exits_2(self, capsys, tmp_path, value):
        code, out, err = run_cli(
            capsys, "solve", "--model", "matrix-game", "--horizon", "1",
            "--agent-states", "1", "--lambda0", value,
            "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert "lambda0 must be finite" in err
        assert not (tmp_path / "runs.csv").exists()

    @pytest.mark.parametrize("text", ["abc", "2,,2"])
    def test_malformed_agent_states_exits_2(self, capsys, tmp_path, text):
        code, out, err = run_cli(
            capsys, "solve", "--model", "matrix-game", "--horizon", "1",
            "--agent-states", text, "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.strip() == ("--agent-states must be one integer or a "
                               f"comma list of integers, got {text!r}")

    def test_bad_agent_states_arity_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "solve", "--model", "matrix-game", "--horizon", "1",
            "--agent-states", "2,3,4", "--out", str(tmp_path))
        assert code == 2
        assert "--agent-states lists 3 sizes for 2 agents" in err

    def test_missing_horizon_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--model", "matrix-game"])
        assert exc.value.code == 2

    def test_determinism_modulo_wall_time(self, capsys, tmp_path):
        solve_matrix(capsys, tmp_path / "a", "--seed", "7")
        solve_matrix(capsys, tmp_path / "b", "--seed", "7")
        row_a = read_rows(tmp_path / "a" / "runs.csv")[1]
        row_b = read_rows(tmp_path / "b" / "runs.csv")[1]
        wt = CSV_COLUMNS.index("wall_time_ms")
        assert row_a[:wt] == row_b[:wt]
        assert row_a[wt + 1:] == row_b[wt + 1:]

    def test_runs_csv_appends_without_second_header(self, capsys, tmp_path):
        solve_matrix(capsys, tmp_path)
        solve_matrix(capsys, tmp_path, "--seed", "1")
        rows = read_rows(tmp_path / "runs.csv")
        assert len(rows) == 3
        assert sum(1 for r in rows if r == CSV_COLUMNS) == 1

    @pytest.mark.parametrize("lambda0,alpha,anneal,label", [
        ("1", "0.3", "1", "rs-cpi"), ("0", "0.3", "1", "cpi-only"),
        ("1", "0.3", "0", "cpi-only"), ("1", "1", "1", "rs-only"),
        ("0", "1", "1", "none")],
        ids=["rs-cpi", "cpi-only", "cpi-only-unannealed", "rs-only", "none"])
    def test_row_labels_the_values_solved(self, capsys, tmp_path, lambda0,
                                          alpha, anneal, label):
        """The ablation is read off the config solved: risk seeking when
        the first sweep is tilted, a conservative step when alpha < 1."""
        code, _, _ = solve_matrix(capsys, tmp_path, "--lambda0", lambda0,
                                  "--alpha", alpha, "--anneal-sweeps", anneal)
        assert code == 0
        row = dict(zip(CSV_COLUMNS, read_rows(tmp_path / "runs.csv")[1]))
        assert row["ablation"] == label
        assert (row["lambda0"], row["alpha"], row["anneal_sweeps"]) == (
            lambda0, alpha, anneal)

    def test_help_lists_no_ablation_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--alpha" in out
        assert "--no-rs" not in out and "--no-cpi" not in out

    def test_ablation_flag_does_not_excuse_a_bad_value(self, capsys,
                                                      tmp_path):
        code, out, err = run_cli(
            capsys, "solve", "--model", "matrix-game", "--horizon", "1",
            "--agent-states", "1", "--lambda0", "-1",
            "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert "lambda0 must be finite and >= 0" in err


class TestEval:
    def write_policy(self, tmp_path, policy):
        path = tmp_path / "policy.json"
        path.write_text(policy_to_json(policy))
        return path

    def test_exact_value_of_uniform_policy(self, capsys, tmp_path):
        path = self.write_policy(tmp_path, MATRIX_UNIFORM)
        code, out, _ = run_cli(capsys, "eval", "--model", "matrix-game",
                               "--horizon", "1", "--policy", str(path))
        assert code == 0
        assert strict_json(out) == {"J_exact": -3.0}

    def test_risk_lambda_zero_matches_exact(self, capsys, tmp_path):
        path = self.write_policy(tmp_path, MATRIX_UNIFORM)
        code, out, _ = run_cli(capsys, "eval", "--model", "matrix-game",
                               "--horizon", "1", "--policy", str(path),
                               "--risk-lambda", "0")
        doc = json.loads(out)
        assert code == 0
        assert doc["J_risk"] == pytest.approx(doc["J_exact"], abs=1e-12)

    def test_risk_lambda_one_is_the_tilted_value(self, capsys, tmp_path):
        path = self.write_policy(tmp_path, MATRIX_UNIFORM)
        _, out, _ = run_cli(capsys, "eval", "--model", "matrix-game",
                            "--horizon", "1", "--policy", str(path),
                            "--risk-lambda", "1")
        want = math.log(0.25 * (math.exp(2) + 2 * math.exp(-10)
                                + math.exp(6)))
        assert json.loads(out)["J_risk"] == pytest.approx(want, abs=1e-12)

    def test_monte_carlo_agrees_with_exact(self, capsys, tmp_path):
        path = self.write_policy(tmp_path, MATRIX_UNIFORM)
        _, out, _ = run_cli(capsys, "eval", "--model", "matrix-game",
                            "--horizon", "1", "--policy", str(path),
                            "--mc", "20000", "--seed", "1")
        doc = json.loads(out)
        assert doc["mc_stderr"] > 0
        assert abs(doc["mc_mean"] - doc["J_exact"]) < 4 * doc["mc_stderr"]

    @pytest.mark.parametrize("flags, name", [
        (["--mc", "-5"], "episodes"),
        (["--mc", "100", "--seed", "-1"], "seed")])
    def test_bad_monte_carlo_argument_exits_2(self, capsys, tmp_path, flags,
                                              name):
        path = self.write_policy(tmp_path, MATRIX_UNIFORM)
        code, out, err = run_cli(capsys, "eval", "--model", "matrix-game",
                                 "--horizon", "1", "--policy", str(path),
                                 *flags)
        assert code == 2 and out == ""
        assert name in err

    def test_dectiger_block_policy_end_to_end(self, capsys, tmp_path):
        model_path = tmp_path / "dectiger.dpomdp"
        model_path.write_text(dectiger_text())
        path = self.write_policy(tmp_path, dectiger_block_policy(3))
        code, out, _ = run_cli(capsys, "eval", "--model", str(model_path),
                               "--horizon", "3", "--policy", str(path))
        assert code == 0
        assert json.loads(out)["J_exact"] == pytest.approx(5.1908125,
                                                           abs=1e-9)

    def test_nan_policy_cell_exits_2(self, capsys, tmp_path):
        doc = json.loads(policy_to_json(MATRIX_UNIFORM))
        doc["tables"][1][0][0][0][0][0] = math.nan
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "eval", "--model", "matrix-game",
                                 "--horizon", "1", "--policy", str(path),
                                 "--mc", "100")
        assert code == 2 and out == ""
        assert "agent 1 table has non-finite entries" in err

    def test_nonfinite_risk_lambda_exits_2(self, capsys, tmp_path):
        path = self.write_policy(tmp_path, MATRIX_UNIFORM)
        code, out, err = run_cli(capsys, "eval", "--model", "matrix-game",
                                 "--horizon", "1", "--policy", str(path),
                                 "--risk-lambda", "nan")
        assert code == 2 and out == ""
        assert "finite lam" in err

    def test_overflowing_value_exits_3_not_nan_json(self, capsys, tmp_path):
        model_path = tmp_path / "huge.dpomdp"
        model_path.write_text(HUGE_REWARD_MODEL)
        model, _ = load_model(str(model_path), 3)
        tables = [np.full((3, y, 1, a, 1), 1.0 / a)
                  for y, a in zip(model.obs_counts, model.action_counts)]
        path = self.write_policy(tmp_path, JointPolicy(
            horizon=3, agent_state_sizes=(1, 1), tables=tables))
        code, out, err = run_cli(capsys, "eval", "--model", str(model_path),
                                 "--horizon", "3", "--policy", str(path))
        assert code == 3 and out == ""
        assert "nonfinite tilted value at t=" in err

    def test_missing_policy_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "eval", "--model", "matrix-game",
                               "--horizon", "1",
                               "--policy", str(tmp_path / "none.json"))
        assert code == 2 and "error:" in err

    def test_corrupt_policy_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{}")
        code, _, err = run_cli(capsys, "eval", "--model", "matrix-game",
                               "--horizon", "1", "--policy", str(path))
        assert code == 2 and "error:" in err


def json_values(integers):
    """Arbitrary JSON documents whose integers come from `integers`."""
    def containers(inner):
        return (st.lists(inner, max_size=4)
                | st.dictionaries(st.text(), inner, max_size=4))

    return st.recursive(
        st.none() | st.booleans() | integers
        | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
        containers, max_leaves=12)


JSON_VALUES = json_values(st.integers())


def matrix_doc_with(field, value):
    """The uniform matrix-game policy document, one field replaced by value
    (field None: the whole document)."""
    doc = json.loads(policy_to_json(MATRIX_UNIFORM))
    if field is None:
        return json.dumps(value)
    doc[field] = value
    return json.dumps(doc)


class TestEvalPolicyFuzz:
    @given(text=st.builds(
        matrix_doc_with,
        st.sampled_from([None, "horizon", "agent_state_sizes", "tables",
                         "phi"]),
        JSON_VALUES))
    @example(text="[]")
    @example(text='"x"')
    @example(text='{"horizon": 1, "agent_state_sizes": null, "tables": [], '
                  '"phi": []}')
    @example(text=matrix_doc_with("tables", 5))
    @example(text=matrix_doc_with("phi", 3))
    @example(text=matrix_doc_with("horizon", 1).replace(
        '"horizon": 1,', '"horizon": 1e999,'))
    @settings(max_examples=150, deadline=None)
    def test_malformed_policy_exits_2_with_a_diagnostic(self, text):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "policy.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["eval", "--model", "matrix-game", "--horizon",
                             "1", "--policy", path])
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == "" and "error:" in err.getvalue()
        else:
            strict_json(out.getvalue())


class TestSweep:
    def write_config(self, tmp_path, **overrides):
        doc = {
            "model": "matrix-game", "horizons": [1], "agent_states": [1],
            "lambda0": [0.0, 1.0], "alpha": [0.1, 1.0], "anneal_sweeps": [1],
            "seeds": [0, 1],
            "out": str(tmp_path), "max_sweeps": 20, "restarts": 1,
        }
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_grid_writes_csv_and_report(self, capsys, tmp_path):
        path = self.write_config(tmp_path)
        code, out, _ = run_cli(capsys, "sweep", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == 8 and doc["failed"] == 0
        rows = read_rows(tmp_path / "runs.csv")
        assert len(rows) == 9
        report = (tmp_path / "report.md").read_text()
        assert "## matrix-game" in report
        assert "### Runtime and memory" in report
        # every ablation gets a column, in the fixed order
        header = next(l for l in report.splitlines()
                      if l.startswith("| T |") and "|Z|" in l)
        assert header == ("| T | " + " | ".join(
            f"{ab} |Z|=1,1" for ab in ABLATIONS.values()) + " |")

    def test_parallel_workers_produce_all_rows(self, capsys, tmp_path):
        path = self.write_config(tmp_path, workers=2, lambda0=[1.0],
                                 seeds=[0, 1])
        code, out, _ = run_cli(capsys, "sweep", str(path))
        assert code == 0
        assert json.loads(out)["rows"] == 4

    def test_readme_example(self, capsys, tmp_path):
        """The README's grid is a config the CLI takes as written; run on
        the matrix game, its cells are 8 distinct solves whose report has
        every ablation column, in the fixed order."""
        doc = readme_sweep_config()
        RunConfigFile.from_json(doc)
        doc.update(model="matrix-game", out=str(tmp_path))
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "sweep", str(path))
        assert code == 0 and json.loads(out)["rows"] == 8
        rows = [dict(zip(CSV_COLUMNS, r))
                for r in read_rows(tmp_path / "runs.csv")[1:]]
        assert len({(r["lambda0"], r["alpha"], r["anneal_sweeps"],
                     r["seed"]) for r in rows}) == 8
        header = next(l for l in (tmp_path / "report.md").read_text()
                      .splitlines() if l.startswith("| T |") and "|Z|" in l)
        assert header == ("| T | " + " | ".join(
            f"{ab} |Z|=2,2" for ab in ABLATIONS.values()) + " |")

    def test_empty_seed_list_exits_2(self, capsys, tmp_path):
        path = self.write_config(tmp_path, seeds=[])
        code, _, err = run_cli(capsys, "sweep", str(path))
        assert code == 2
        assert "config field 'seeds' must be a nonempty list" in err

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        path = self.write_config(tmp_path, typo_key=1)
        code, _, err = run_cli(capsys, "sweep", str(path))
        assert code == 2 and "unknown config keys: ['typo_key']" in err

    def test_unknown_ablation_exits_2(self, capsys, tmp_path):
        # the ablations are values of lambda0 and alpha, not an axis
        path = self.write_config(tmp_path, ablations=["rs-cpi"])
        code, out, err = run_cli(capsys, "sweep", str(path))
        assert code == 2 and out == ""
        assert "unknown config keys: ['ablations']" in err
        assert not (tmp_path / "runs.csv").exists()

    def test_missing_config_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", str(tmp_path / "none.json"))
        assert code == 2 and "error:" in err

    def test_all_cells_failing_exits_2(self, capsys, tmp_path):
        path = self.write_config(tmp_path,
                                 model=str(tmp_path / "ghost.dpomdp"))
        code, _, err = run_cli(capsys, "sweep", str(path))
        assert code == 2
        assert "every grid cell failed" in err
        assert not (tmp_path / "runs.csv").exists()

    def test_failed_cell_location_printed_once(self, capsys, tmp_path):
        # load_model's message already starts with "<path>: error:"
        path = self.write_config(tmp_path, model=".", lambda0=[0.0],
                                 seeds=[0], alpha=[1.0])
        code, _, err = run_cli(capsys, "sweep", str(path))
        assert code == 2
        cell, last = err.splitlines()
        assert cell.startswith(".: error: ") and cell.count("error:") == 1
        assert last == "error: every grid cell failed"

    def test_solver_error_gets_the_model_prefix(self, capsys, tmp_path):
        path = self.write_config(tmp_path, alpha=[1.5], lambda0=[0.0],
                                 seeds=[0])
        code, _, err = run_cli(capsys, "sweep", str(path))
        assert code == 2
        assert err.splitlines()[0] == (
            "matrix-game:0: error: alpha must lie in (0, 1]")

    @pytest.mark.parametrize("field,value", [
        ("horizons", ["x"]), ("agent_states", ["a"]), ("workers", "2"),
        ("restarts", None), ("seeds", [0.5]), ("lambda0", [True]),
        ("max_sweeps", 1.5), ("model", 3)])
    def test_mistyped_field_exits_2(self, capsys, tmp_path, field, value):
        path = self.write_config(tmp_path, **{field: value})
        code, out, err = run_cli(capsys, "sweep", str(path))
        assert code == 2 and out == ""
        assert f"error: config field '{field}' must be" in err

    def test_out_on_a_file_exits_2(self, capsys, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        path = self.write_config(tmp_path, out=str(blocker), seeds=[0],
                                 lambda0=[1.0], alpha=[1.0])
        code, out, err = run_cli(capsys, "sweep", str(path))
        assert code == 2 and out == ""
        assert f"{blocker}:0: error:" in err

    def test_workers_capped_at_grid_cells(self, capsys, tmp_path,
                                          monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-cell grid started a process pool")

        monkeypatch.setattr(bench_cli, "ProcessPoolExecutor", refuse)
        path = self.write_config(tmp_path, workers=10 ** 9, lambda0=[1.0],
                                 seeds=[0], alpha=[1.0])
        code, out, _ = run_cli(capsys, "sweep", str(path))
        assert code == 0 and json.loads(out)["rows"] == 1


# Small integers keep every well-typed cell a millisecond solve: the fuzz
# is after type and shape errors, not after how long a large grid runs.
CONFIG_VALUES = json_values(st.integers(-2, 4))

CONFIG_FIELDS = ["model", "horizons", "agent_states", "lambda0", "alpha",
                 "anneal_sweeps", "seeds", "max_sweeps",
                 "restarts", "init_obs", "workers"]


def sweep_doc_with(field, value):
    """A valid one-cell matrix-game sweep config (its "out" left to the
    caller), one field replaced by value (field None: the whole document)."""
    if field is None:
        return value
    doc = {"model": "matrix-game", "horizons": [1], "agent_states": [1],
           "lambda0": [0.0], "alpha": [1.0], "anneal_sweeps": [1],
           "seeds": [0], "max_sweeps": 20,
           "restarts": 1}
    doc[field] = value
    return doc


class TestSweepConfigFuzz:
    # "out" is fuzzed with non-strings only: a string is a well-typed
    # directory, and the run would write into it.
    @given(doc=st.builds(sweep_doc_with,
                         st.sampled_from([None] + CONFIG_FIELDS),
                         CONFIG_VALUES)
           | st.builds(sweep_doc_with, st.just("out"),
                       CONFIG_VALUES.filter(lambda v: not isinstance(v, str))))
    @example(doc=sweep_doc_with("horizons", ["x"]))
    @example(doc=sweep_doc_with("agent_states", ["a"]))
    @example(doc=sweep_doc_with("workers", "2"))
    @example(doc=sweep_doc_with("restarts", None))
    @example(doc=sweep_doc_with("seeds", [0.5]))
    @example(doc=sweep_doc_with("model", "."))
    @settings(max_examples=150, deadline=None)
    def test_malformed_config_exits_2_with_a_diagnostic(self, doc):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if isinstance(doc, dict):
                doc.setdefault("out", tmp)
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["sweep", path])
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == "" and "error:" in err.getvalue()
        else:
            strict_json(out.getvalue())


class TestReport:
    def write_csv(self, tmp_path, rows):
        path = tmp_path / "runs.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(rows)
        return path

    def record_row(self, **kv):
        base = dict(env="matrix-game", horizon=1, z_sizes=(1, 1),
                    lambda0=1.0, alpha=1.0, anneal_sweeps=1, seed=0,
                    ablation="rs-cpi", sweeps=3, j_exact=6.0,
                    j_risk_final=6.0, wall_time_ms=1.5, peak_floats=7,
                    init_obs_mode="dummy_observation")
        base.update(kv)
        return RunRecord(**base).to_row()

    def test_cell_reports_best_value_over_seeds(self, tmp_path):
        path = self.write_csv(tmp_path, [
            self.record_row(seed=0, j_exact=2.0),
            self.record_row(seed=1, j_exact=6.0),
        ])
        text = render_report(str(path))
        assert "| 1 | 6.00 |" in text

    def test_empty_csv_exits_2(self, capsys, tmp_path):
        path = self.write_csv(tmp_path, [])
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 2 and "runs.csv has no data rows" in err

    def test_out_file_written(self, capsys, tmp_path):
        path = self.write_csv(tmp_path, [self.record_row()])
        out_file = tmp_path / "report.md"
        code, out, _ = run_cli(capsys, "report", str(path),
                               "--out-file", str(out_file))
        assert code == 0 and out == ""
        assert out_file.read_text().startswith("# Benchmark report")

    def test_out_file_below_a_file_exits_2(self, capsys, tmp_path):
        path = self.write_csv(tmp_path, [self.record_row()])
        out_file = path / "report.md"   # runs.csv is a regular file
        code, out, err = run_cli(capsys, "report", str(path),
                                 "--out-file", str(out_file))
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(out_file) in err
        assert len(err.splitlines()) == 1

    def test_stdout_by_default(self, capsys, tmp_path):
        path = self.write_csv(tmp_path, [self.record_row()])
        code, out, _ = run_cli(capsys, "report", str(path))
        assert code == 0
        assert out.startswith("# Benchmark report")

    def test_runtime_section_shape(self, tmp_path):
        path = self.write_csv(tmp_path, [
            self.record_row(seed=0, wall_time_ms=1.0),
            self.record_row(seed=1, wall_time_ms=3.0),
        ])
        text = render_report(str(path))
        assert "| T | wall_time_ms (mean ± std) | peak_floats |" in text
        assert "| 1 | 2.0 ± 1.4 | 7 |" in text


class TestRowFormatting:
    def test_to_row_formats(self):
        row = RunRecord(
            env="e", horizon=6, z_sizes=(2, 2), lambda0=0.5, alpha=0.3,
            anneal_sweeps=10, seed=4, ablation="rs-cpi", sweeps=12,
            j_exact=10.381625, j_risk_final=10.381625,
            wall_time_ms=12.3456, peak_floats=3168,
            init_obs_mode="dummy_observation").to_row()
        doc = dict(zip(CSV_COLUMNS, row))
        assert doc["z_sizes"] == "2,2"
        assert doc["J_exact"] == "10.381625"
        assert doc["wall_time_ms"] == "12.346"
        assert float(doc["J_exact"]) == 10.381625

    def test_load_model_reserved_name(self):
        model, env = load_model("matrix-game", horizon=1)
        assert env == "matrix-game"
        assert model.state_count == 1
        assert model.action_counts == (2, 2)
