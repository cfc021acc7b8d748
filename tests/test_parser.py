"""Grammar, table expansion, diagnostics, and canonical serialization."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _benchmarks import dectiger_text, recycling_text
from rscpi.bench_cli import load_model, main
from rscpi.dpomdp_parser import (MAX_COUNT, MAX_TABLE_CELLS, ParseDiagnostic,
                                 compile_model, parse_dpomdp,
                                 render_diagnostics)
from rscpi.model import DecPomdpModel


def full_file(*extra, discount="1.0", values="reward", start="0.5 0.5"):
    """Valid 2-state, (2,2)-action, (2,1)-observation file; extras go last."""
    lines = [
        "agents: 2",
        f"discount: {discount}",
        f"values: {values}",
        "states: 2",
        "actions:",
        "2",
        "2",
        "observations:",
        "2",
        "1",
        f"start: {start}",
        "T: * : uniform",
        "O: * : uniform",
        "R: * : * : * : * : 1.0",
    ]
    lines.extend(extra)
    return "\n".join(lines) + "\n"


def parse_ok(text):
    raw, diags = parse_dpomdp(text)
    assert raw is not None, [d.message for d in diags]
    return raw


def tables(raw):
    return raw.T, raw.O, raw.R


def tables_ok(text):
    return tables(parse_ok(text))


def parse_errors(text):
    """The error messages of a file the parser refuses."""
    raw, diags = parse_dpomdp(text)
    assert raw is None
    return messages(diags, "error")


def serialize_canonical(raw) -> str:
    """A parsed file in single-entry form with exact float text, the round
    trip's tool: its re-parse holds the same table bytes."""
    T, O, R = tables(raw)
    n = raw.agent_count
    act = tuple(len(x) for x in raw.action_names)
    obs = tuple(len(x) for x in raw.observation_names)

    def joint(flat, sizes):
        return " ".join(str(c) for c in np.unravel_index(flat, sizes))

    out = [f"agents: {n}", f"discount: {raw.discount!r}", "values: reward",
           "states: " + " ".join(raw.state_names), "actions:"]
    out += [" ".join(names) for names in raw.action_names]
    out.append("observations:")
    out += [" ".join(names) for names in raw.observation_names]
    out.append("start:")
    out.append(" ".join(repr(float(v)) for v in raw.start_distribution))
    for (s, a, sp) in zip(*np.nonzero(T)):
        ja = joint(a, act)
        out.append(f"T: {ja} : {s} : {sp} : {float(T[s, a, sp])!r}")
    for (a, sp, y) in zip(*np.nonzero(O)):
        ja, jo = joint(a, act), joint(y, obs)
        out.append(f"O: {ja} : {sp} : {jo} : {float(O[a, sp, y])!r}")
    for (a, s, sp, y) in zip(*np.nonzero(R)):
        ja, jo = joint(a, act), joint(y, obs)
        out.append(f"R: {ja} : {s} : {sp} : {jo} : {float(R[a, s, sp, y])!r}")
    return "\n".join(out) + "\n"


def messages(diags, severity=None):
    return [d.message for d in diags
            if severity is None or d.severity == severity]


class TestPreamble:
    def test_minimal_file_shape(self):
        raw = parse_ok(full_file())
        assert raw.agent_count == 2
        assert raw.state_names == ["s0", "s1"]
        assert raw.action_names == [["a0", "a1"], ["a0", "a1"]]
        assert raw.observation_names == [["o0", "o1"], ["o0"]]
        np.testing.assert_array_equal(raw.start_distribution, [0.5, 0.5])

    def test_agents_by_name_list(self):
        text = full_file().replace("agents: 2", "agents: alice bob")
        assert parse_ok(text).agent_count == 2

    def test_named_declarations(self):
        text = dectiger_text()
        raw = parse_ok(text)
        assert raw.state_names == ["tiger-left", "tiger-right"]
        assert raw.action_names[1] == ["listen", "open-left", "open-right"]

    def test_start_uniform_and_point_mass(self):
        raw = parse_ok(full_file().replace("start: 0.5 0.5",
                                           "start: uniform"))
        np.testing.assert_array_equal(raw.start_distribution, [0.5, 0.5])
        raw = parse_ok(full_file().replace("start: 0.5 0.5", "start: s1"))
        np.testing.assert_array_equal(raw.start_distribution, [0.0, 1.0])

    def test_start_off_by_too_much_is_an_error(self):
        raw, diags = parse_dpomdp(full_file(start="0.49 0.49"))
        assert raw is None
        assert "start distribution sums to 0.98" in messages(diags, "error")

    def test_start_small_deviation_renormalized_at_parse(self):
        raw = parse_ok(full_file(start="0.5 0.5000001"))
        given = np.array([0.5, 0.5000001])
        np.testing.assert_array_equal(raw.start_distribution,
                                      given / given.sum())
        model = compile_model(raw, horizon=2)
        assert model.zeta1.sum() == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_preamble_key(self):
        _, diags = parse_dpomdp(full_file("states: 2"))
        assert any("duplicate preamble key 'states'" in m
                   for m in messages(diags, "error"))

    def test_unknown_keyword(self):
        _, diags = parse_dpomdp(full_file("Q: * : uniform"))
        assert any("unknown keyword 'Q'" in m
                   for m in messages(diags, "error"))

    def test_missing_declarations_reported(self):
        raw, diags = parse_dpomdp("agents: 2\nstates: 2\n")
        assert raw is None
        msgs = messages(diags, "error")
        assert "missing 'actions' declaration" in msgs
        assert "missing 'observations' declaration" in msgs

    def test_discount_out_of_range(self):
        _, diags = parse_dpomdp(full_file(discount="1.5"))
        assert any("outside [0, 1]" in m for m in messages(diags, "error"))

    def test_values_must_be_reward_or_cost(self):
        _, diags = parse_dpomdp(full_file(values="points"))
        assert any("values must be" in m for m in messages(diags, "error"))

    def test_entry_before_declaration(self):
        lines = ["agents: 2", "states: 2", "T: * : uniform"]
        _, diags = parse_dpomdp("\n".join(lines))
        assert any("T entry before actions declaration" in m
                   for m in messages(diags, "error"))


class TestEntryForms:
    def test_identity_keyword_builds_identity_per_joint_action(self):
        T, _, _ = tables_ok(full_file("T: * : identity"))
        for a in range(4):
            np.testing.assert_array_equal(T[:, a, :], np.eye(2))

    def test_keyword_on_following_line(self):
        T, _, _ = tables_ok(full_file("T: * :", "identity"))
        np.testing.assert_array_equal(T[:, 0, :], np.eye(2))

    def test_row_form_inline_and_continuation_agree(self):
        a = tables_ok(full_file("T: 0 0 : 0 : 0.3 0.7"))[0]
        b = tables_ok(full_file("T: 0 0 : 0 :", "0.3 0.7"))[0]
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a[0, 0], [0.3, 0.7])

    def test_matrix_form(self):
        T, _, _ = tables_ok(full_file("T: 1 1", "0.2 0.8", "0.9 0.1"))
        np.testing.assert_array_equal(T[:, 3, :], [[0.2, 0.8], [0.9, 0.1]])
        np.testing.assert_array_equal(T[:, 0, :], 0.5)  # others keep uniform

    def test_wildcard_matches_explicit_enumeration(self):
        wild = full_file("T: * : 0 : 0.3 0.7", "T: * : 1 : 0.6 0.4")
        parts = [f"T: {a1} {a2} : {s} : {row}"
                 for a1 in (0, 1) for a2 in (0, 1)
                 for s, row in ((0, "0.3 0.7"), (1, "0.6 0.4"))]
        explicit = full_file(*parts)
        np.testing.assert_array_equal(tables_ok(wild)[0],
                                      tables_ok(explicit)[0])

    def test_last_write_wins_in_file_order(self):
        T, _, _ = tables_ok(full_file("T: 0 0 : 0 : 0.0 1.0"))
        np.testing.assert_array_equal(T[0, 0], [0.0, 1.0])
        np.testing.assert_array_equal(T[1, 0], [0.5, 0.5])
        # reversed order: the blanket uniform wins everywhere
        T2, _, _ = tables_ok(full_file("T: 0 0 : 0 : 0.0 1.0",
                                       "T: * : uniform"))
        np.testing.assert_array_equal(T2, 0.5)

    def test_names_and_integer_indices_are_interchangeable(self):
        named = "\n".join([
            "agents: 2", "discount: 1.0", "values: reward",
            "states: left right", "actions:", "go stay", "only",
            "observations:", "h t", "z", "start: uniform",
            "T: go only : left : 0.2 0.8", "T: go only : right : 0.7 0.3",
            "T: stay only : uniform",
            "O: * : left : h z : 0.9", "O: * : left : t z : 0.1",
            "O: * : right : t z : 1.0",
            "R: go only : left : * : * : 3.5",
        ]) + "\n"
        indexed = "\n".join([
            "agents: 2", "discount: 1.0", "values: reward",
            "states: left right", "actions:", "go stay", "only",
            "observations:", "h t", "z", "start: uniform",
            "T: 0 0 : 0 : 0.2 0.8", "T: 0 0 : 1 : 0.7 0.3",
            "T: 1 0 : uniform",
            "O: * : 0 : 0 0 : 0.9", "O: * : 0 : 1 0 : 0.1",
            "O: * : 1 : 1 0 : 1.0",
            "R: 0 0 : 0 : * : * : 3.5",
        ]) + "\n"
        for a, b in zip(tables_ok(named), tables_ok(indexed)):
            np.testing.assert_array_equal(a, b)

    def test_single_entries_target_one_cell(self):
        _, O, _ = tables_ok(full_file("O: 0 1 : 0 : 0 0 : 0.25",
                                      "O: 0 1 : 0 : 1 0 : 0.75"))
        np.testing.assert_array_equal(O[1, 0], [0.25, 0.75])
        np.testing.assert_array_equal(O[0, 0], 0.5)

    def test_three_agent_wildcards_hit_mixed_radix_cells(self):
        """Per-agent `*` in T:, O: and R: patterns, with agent 1 the most
        significant digit of every joint index."""
        text = "\n".join([
            "agents: 3", "discount: 1.0", "values: reward", "states: 2",
            "actions:", "2", "3", "2", "observations:", "1", "2", "3",
            "start: uniform", "T: * : uniform", "O: * : uniform",
            "T: 1 * 0 : 0 : 0.25 0.75",
            "O: * 2 1 : 1 : * * * : 0", "O: * 2 1 : 1 : 0 * 2 : 0.5",
            "R: 0 * 1 : * : 1 : 0 1 * : 7.5",
        ]) + "\n"
        T, O, R = tables_ok(text)
        act, obs = (2, 3, 2), (1, 2, 3)
        want_T = np.full((2, 12, 2), 0.5)
        want_O = np.full((12, 2, 6), 1.0 / 6.0)
        want_R = np.zeros((12, 2, 2, 6))
        for k in range(3):
            want_T[0, np.ravel_multi_index((1, k, 0), act)] = [0.25, 0.75]
            for m in range(3):
                want_R[np.ravel_multi_index((0, k, 1), act), :, 1,
                       np.ravel_multi_index((0, 1, m), obs)] = 7.5
        for j in range(2):
            a = np.ravel_multi_index((j, 2, 1), act)
            want_O[a, 1] = 0.0
            for k in range(2):
                want_O[a, 1, np.ravel_multi_index((0, k, 2), obs)] = 0.5
        np.testing.assert_array_equal(T, want_T)
        np.testing.assert_array_equal(O, want_O)
        np.testing.assert_array_equal(R, want_R)

    def test_comments_and_blank_lines_ignored(self):
        text = full_file("# trailing comment block",
                         "T: 0 0 : 0 : 0.3 0.7  # explain",
                         "", "   ")
        T, _, _ = tables_ok(text)
        np.testing.assert_array_equal(T[0, 0], [0.3, 0.7])


class TestEntryErrors:
    def test_joint_action_arity(self):
        _, diags = parse_dpomdp(full_file("T: 0 : 0 : 0.3 0.7"))
        assert any("pattern has 1 tokens, expected 2" in m
                   for m in messages(diags, "error"))

    def test_undeclared_name(self):
        _, diags = parse_dpomdp(full_file("T: bogus 0 : 0 : 0.3 0.7"))
        assert any("undeclared name 'bogus'" in m
                   for m in messages(diags, "error"))

    def test_index_out_of_range(self):
        _, diags = parse_dpomdp(full_file("T: 9 0 : 0 : 0.3 0.7"))
        assert any("index 9 out of range" in m
                   for m in messages(diags, "error"))

    def test_malformed_probability(self):
        _, diags = parse_dpomdp(full_file("T: 0 0 : 0 : 1 : 0.5x"))
        assert any("malformed probability '0.5x'" in m
                   for m in messages(diags, "error"))

    def test_malformed_reward(self):
        _, diags = parse_dpomdp(full_file("R: 0 0 : 0 : 1 : 0 0 : nan"))
        assert "malformed reward 'nan'" in messages(diags, "error")

    def test_malformed_discount(self):
        _, diags = parse_dpomdp(full_file(discount="abc"))
        assert "malformed discount 'abc'" in messages(diags, "error")

    def test_reward_requires_single_value_form(self):
        _, diags = parse_dpomdp(full_file("R: 0 0 : 0 : 0.5 0.5"))
        assert any("single-valued" in m for m in messages(diags, "error"))

    def test_wrong_row_width(self):
        _, diags = parse_dpomdp(full_file("T: 0 0 : 0 : 0.2 0.3 0.5"))
        assert any("expected 2 numbers, got 3" in m
                   for m in messages(diags, "error"))

    def test_identity_observation_needs_square(self):
        # widen the joint observation space to 4 > |S| = 2
        text = full_file("O: * : identity").replace(
            "observations:\n2\n1", "observations:\n2\n2")
        assert any("identity observation kernel" in m
                   for m in parse_errors(text))

    def test_negative_probability_row(self):
        errors = parse_errors(full_file("T: 0 0 : 0 : -0.5 1.5"))
        assert any("negative probability" in m for m in errors)

    def test_missing_coverage_is_a_sum_error(self):
        lines = full_file().splitlines()
        lines.remove("T: * : uniform")
        errors = parse_errors("\n".join(lines) + "\n")
        assert any("T row" in m and "sums to 0" in m for m in errors)

    def test_entry_and_preamble_errors_reported_together(self):
        """An entry's own error reports with the file's other errors: the
        identity shape error and a later duplicate key, in line order."""
        text = full_file("O: * : identity", "states: 2").replace(
            "observations:\n2\n1", "observations:\n2\n2")
        raw, diags = parse_dpomdp(text)
        assert raw is None
        assert [(d.line_number, d.severity) for d in diags] == [
            (15, "error"), (16, "error")]
        assert diags[0].message.startswith("identity observation kernel")
        assert diags[1].message == "duplicate preamble key 'states'"


# 10^4 states pass the count checks (10^8 cells <= MAX_TABLE_CELLS), but the
# (2, 2) actions and observations give R 4 * 10^8 * 4 cells
OVERSIZED = "\n".join([
    "agents: 2", "states: 10000", "actions:", "2", "2", "observations:",
    "2", "2", "T: * : uniform", "O: * : uniform",
]) + "\n"

# one state, action and observation per agent: R has one cell, but the
# null observations pad P to 2**30; line 65 holds the first entry
AGENTS_30 = "\n".join(["agents: 30", "states: 1", "actions:", *["1"] * 30,
                       "observations:", *["1"] * 30, "T: * : uniform",
                       "O: * : uniform"]) + "\n"


class TestSizeLimits:
    """A declared size is refused before its names or tables are built;
    no test here allocates a large array."""

    def test_huge_states_count_refused_at_its_line(self):
        raw, diags = parse_dpomdp("agents: 2\nstates: 100000000000\n")
        assert raw is None
        assert [(d.line_number, d.message) for d in diags][0] == (
            2, "count 100000000000 is above the limit of 16384")

    def test_states_limit_is_the_square_root(self):
        assert 16384 ** 2 == MAX_TABLE_CELLS
        _, diags = parse_dpomdp("agents: 1\nstates: 16384\n")
        assert all(d.line_number != 2 for d in diags)
        _, diags = parse_dpomdp("agents: 1\nstates: 16385\n")
        assert diags[0].line_number == 2

    def test_huge_per_agent_count_refused_at_its_line(self):
        raw, diags = parse_dpomdp(
            f"agents: 2\nactions:\n2\n{MAX_TABLE_CELLS + 1}\n")
        assert raw is None
        assert diags[0].line_number == 4
        assert diags[0].message.startswith(
            f"count {MAX_TABLE_CELLS + 1} is above the limit")

    def test_table_size_refused_once_at_the_first_entry(self):
        raw, diags = parse_dpomdp(OVERSIZED)
        assert raw is None
        assert [(d.line_number, d.message) for d in diags] == [
            (9, "the declared sizes need an R table of 1600000000 cells, "
                f"above the limit of {MAX_TABLE_CELLS}")]

    def test_table_size_refused_without_entries(self):
        raw, diags = parse_dpomdp(OVERSIZED.split("T:")[0])
        assert raw is None
        assert [d.line_number for d in diags] == [0]
        assert "1600000000 cells" in diags[0].message

    def test_load_model_raises_and_solve_exits_2(self, capsys, tmp_path):
        path = tmp_path / "big.dpomdp"
        path.write_text(OVERSIZED)
        with pytest.raises(ValueError) as exc:
            load_model(str(path), 2)
        assert str(exc.value).startswith(f"{path}:9: error: ")
        code = main(["solve", "--model", str(path), "--horizon", "2",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"{path}:9: error: the declared sizes need")
        assert not (tmp_path / "out").exists()

    def test_padded_p_table_refused(self, capsys, tmp_path):
        """R has one cell, but the null observations pad P to 2**30."""
        path = tmp_path / "agents30.dpomdp"
        path.write_text(AGENTS_30)
        raw, diags = parse_dpomdp(AGENTS_30)
        assert raw is None
        assert [(d.line_number, d.message) for d in diags] == [
            (65, "the declared sizes need a padded P table of 1073741824 "
                 f"cells, above the limit of {MAX_TABLE_CELLS}")]
        code = main(["solve", "--model", str(path), "--horizon", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"{path}:65: error: the declared sizes need a padded P table")

    def test_every_count_has_the_states_limit(self):
        assert MAX_COUNT == 16384
        _, diags = parse_dpomdp("agents: 2\nactions:\n2\n16384\n")
        assert all(d.line_number != 4 for d in diags)
        raw, diags = parse_dpomdp("agents: 2\nactions:\n2\n16385\n")
        assert raw is None
        assert (diags[0].line_number, diags[0].message) == (
            4, "count 16385 is above the limit of 16384")
        _, diags = parse_dpomdp("agents: 16385\n")
        assert (diags[0].line_number, diags[0].message) == (
            1, "count 16385 is above the limit of 16384")

    @pytest.mark.parametrize("text, line, message", [
        ("agents: {}\n", 1, "count of 5000 digits is above the limit"),
        ("agents: 2\nstates: {}\n", 2,
         "count of 5000 digits is above the limit"),
        ("agents: 1\nstates: 2\nactions: 1\nobservations: 1\n"
         "T: 0 : {} : uniform\n", 5, "state index of 5000 digits out of range"),
    ], ids=["agents", "states", "index"])
    def test_long_digit_token_located(self, text, line, message, capsys,
                                      tmp_path):
        """int() refuses over 4300 digits; the length is checked first."""
        path = tmp_path / "long.dpomdp"
        path.write_text(text.format("9" * 5000))
        _, diags = parse_dpomdp(path.read_text())
        assert diags[0].line_number == line
        assert diags[0].message.startswith(message)
        code = main(["solve", "--model", str(path), "--horizon", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"{path}:{line}: error: ")

    def test_unicode_digits_are_not_counts(self):
        """'²' is a digit to str.isdigit() but not to int()."""
        raw, diags = parse_dpomdp("agents: 2\nstates: 2\nactions: 1\n1\n"
                                  "observations: 1\n1\nT: 0 0 : ² : uniform\n")
        assert raw is None
        assert (diags[0].line_number, diags[0].message) == (
            7, "undeclared name '²'")


class TestNormalizationLadder:
    def test_tiny_deviation_renormalizes_silently(self):
        raw, diags = parse_dpomdp(full_file("T: 0 0 : 0 : 0.6 0.4000005"))
        T = raw.T
        assert diags == []
        assert T[0, 0].sum() == pytest.approx(1.0, abs=1e-12)
        assert T[0, 0, 0] == pytest.approx(0.6 / 1.0000005, abs=1e-15)

    def test_moderate_deviation_warns_and_renormalizes(self):
        raw, diags = parse_dpomdp(full_file("T: 0 0 : 0 : 0.6 0.40005"))
        T = raw.T
        warnings = messages(diags, "warning")
        assert len(warnings) == 1
        assert "T row (s=0, a=0) sums to 1.00005; renormalized" in warnings[0]
        assert T[0, 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_deviation_is_an_error(self):
        raw, diags = parse_dpomdp(full_file("T: 0 0 : 0 : 0.6 0.405"))
        assert any("T row (s=0, a=0) sums to 1.005" in m
                   for m in messages(diags, "error"))
        assert raw is None   # nothing to compile

    def test_load_model_prints_the_warning_and_raises_the_error(
            self, capsys, tmp_path):
        path = tmp_path / "ladder.dpomdp"
        path.write_text(full_file("T: 0 0 : 0 : 0.6 0.40005",
                                  "T: 0 1 : 0 : 0.6 0.405"))
        with pytest.raises(ValueError) as exc:
            load_model(str(path), 2)
        assert str(exc.value) == (
            f"{path}:16: error: T row (s=0, a=1) sums to 1.005")
        assert capsys.readouterr().err == (
            f"{path}:15: warning: T row (s=0, a=0) sums to 1.00005; "
            "renormalized\n")

    def test_exact_rows_kept_bitwise(self):
        row = np.array([0.3, 0.7])
        T = parse_ok(full_file("T: 0 0 : 0 : 0.3 0.7")).T
        assert np.array_equal(T[0, 0], row)


class TestCompileModel:
    def test_dectiger_dummy_mode_dimensions(self):
        raw = parse_ok(dectiger_text())
        model = compile_model(raw, horizon=3)
        assert model.obs_counts == (3, 3)
        assert model.obs_names[0][-1] == "null"
        assert model.P.shape == (2, 9, 2, 9)
        np.testing.assert_allclose(model.zeta1.sum(axis=1), [0.5, 0.5],
                                   atol=1e-12)

    def test_dectiger_uniform_mode_dimensions(self):
        raw = parse_ok(dectiger_text())
        model = compile_model(raw, horizon=3,
                              init_obs_mode="uniform_observation")
        assert model.obs_counts == (2, 2)
        assert model.P.shape == (2, 9, 2, 4)

    def test_joint_rows_normalized(self):
        for text in (dectiger_text(), recycling_text(), full_file()):
            model = compile_model(parse_ok(text), horizon=2)
            np.testing.assert_allclose(model.P.sum(axis=(2, 3)), 1.0,
                                       atol=1e-9)

    def test_dectiger_rewards(self):
        raw = parse_ok(dectiger_text())
        model = compile_model(raw, horizon=3)
        listen = np.ravel_multi_index((0, 0), (3, 3))
        both_left = np.ravel_multi_index((1, 1), (3, 3))
        np.testing.assert_allclose(model.r[:, listen], -2.0, atol=1e-12)
        assert model.r[0, both_left] == pytest.approx(-50.0, abs=1e-12)
        assert model.r[1, both_left] == pytest.approx(20.0, abs=1e-12)

    def test_observation_dependent_reward_averages(self):
        lines = [
            "agents: 2", "discount: 1.0", "values: reward", "states: 1",
            "actions:", "1", "1", "observations:", "2", "1", "start: 1.0",
            "T: 0 0 : 0 : 1.0",
            "O: 0 0 : 0 : 0 0 : 0.3", "O: 0 0 : 0 : 1 0 : 0.7",
            "R: 0 0 : 0 : 0 : 0 0 : 10", "R: 0 0 : 0 : 0 : 1 0 : -10",
        ]
        model = compile_model(parse_ok("\n".join(lines)), horizon=1,
                              init_obs_mode="uniform_observation")
        assert model.r[0, 0] == pytest.approx(0.3 * 10 - 0.7 * 10, abs=1e-12)

    def test_reward_matches_triple_sum_oracle(self):
        rng = np.random.default_rng(0)
        S = 3
        T_rows = rng.dirichlet(np.ones(S), size=S)
        O_rows = rng.dirichlet(np.ones(2), size=S)
        R_vals = rng.uniform(-5, 5, size=(S, S, 2))
        lines = ["agents: 2", "discount: 1.0", "values: reward",
                 f"states: {S}", "actions:", "1", "1",
                 "observations:", "2", "1", "start: uniform"]
        for s in range(S):
            row = " ".join(repr(float(v)) for v in T_rows[s])
            lines.append(f"T: 0 0 : {s} : {row}")
        for sp in range(S):
            lines.append(f"O: 0 0 : {sp} : 0 0 : {float(O_rows[sp, 0])!r}")
            lines.append(f"O: 0 0 : {sp} : 1 0 : {float(O_rows[sp, 1])!r}")
        for s in range(S):
            for sp in range(S):
                for y in range(2):
                    lines.append(f"R: 0 0 : {s} : {sp} : {y} 0 : "
                                 f"{float(R_vals[s, sp, y])!r}")
        model = compile_model(parse_ok("\n".join(lines)), horizon=1,
                              init_obs_mode="uniform_observation")
        for s in range(S):
            want = sum(T_rows[s, sp] * O_rows[sp, y] * R_vals[s, sp, y]
                       for sp in range(S) for y in range(2))
            assert model.r[s, 0] == pytest.approx(want, abs=1e-12)
            for sp in range(S):
                for y in range(2):
                    assert model.P[s, 0, sp, y] == pytest.approx(
                        T_rows[s, sp] * O_rows[sp, y], abs=1e-15)

    def test_cost_files_negate_rewards(self):
        model = compile_model(parse_ok(full_file(values="cost")), horizon=1)
        np.testing.assert_allclose(model.r, -1.0, atol=1e-12)

    def test_discount_recorded_but_ignored_with_warning(self):
        raw, diags = parse_dpomdp(full_file(discount="0.9"))
        assert compile_model(raw, horizon=2).discount == 0.9
        assert any("discount 0.9 recorded but ignored" in m
                   for m in messages(diags, "warning"))

    def test_dummy_null_never_emitted(self):
        model = compile_model(parse_ok(dectiger_text()), horizon=2)
        y1, y2 = np.unravel_index(np.arange(9), (3, 3))
        null = (y1 == 2) | (y2 == 2)   # either agent on its appended null
        assert np.all(model.P[..., null] == 0.0)

    def test_recycling_reward_spot_checks(self):
        model = compile_model(parse_ok(recycling_text()), horizon=2)
        a00, a11, a22 = np.ravel_multi_index(([0, 1, 2], [0, 1, 2]), (3, 3))
        hh, ll = 0, 3
        assert model.r[hh, a00] == pytest.approx(5.0)
        assert model.r[hh, a11] == pytest.approx(4.0)
        assert model.r[ll, a00] == pytest.approx(-3.0)
        assert model.r[hh, a22] == pytest.approx(0.0)


class TestSerializeCanonical:
    @pytest.mark.parametrize("text", [
        dectiger_text(), recycling_text(), full_file(),
        full_file(values="cost"),
        full_file("R: 0 1 : 0 : 1 : 0 0 : -0.0"),
    ], ids=["dectiger", "recycling", "small", "cost", "negative-zero"])
    def test_round_trip_is_bitwise_and_a_fixpoint(self, text):
        """An explicit -0.0 reward is stored as +0.0: the canonical text
        writes only nonzero cells, so a re-parse holds +0.0 there."""
        raw1 = parse_ok(text)
        canon = serialize_canonical(raw1)
        raw2 = parse_ok(canon)
        for a, b in zip(tables(raw1), tables(raw2)):
            assert a.tobytes() == b.tobytes()
        assert serialize_canonical(raw2) == canon

    def test_cost_round_trip_is_equal_byte_for_byte(self):
        """Negating a cost file must leave its unset reward cells +0.0, as
        the canonical text, which writes only nonzero cells, parses them."""
        text = full_file(values="cost").replace(
            "R: * : * : * : * : 1.0", "R: 0 1 : * : 1 : * : 2.5")
        raw1 = parse_ok(text)
        raw2 = parse_ok(serialize_canonical(raw1))
        R1, R2 = raw1.R, raw2.R
        assert np.count_nonzero(R1) == 4   # one joint action, s and y free
        assert R1.tobytes() == R2.tobytes()
        assert not np.signbit(R1[R1 == 0.0]).any()

    def test_start_preserved(self):
        raw1 = parse_ok(full_file(start="0.25 0.75"))
        raw2 = parse_ok(serialize_canonical(raw1))
        np.testing.assert_array_equal(raw2.start_distribution, [0.25, 0.75])

    def test_refuses_broken_tables(self):
        """A file whose tables break the ladder parses to nothing, so there
        is nothing to serialize."""
        errors = parse_errors(full_file("T: 0 0 : 0 : 0.6 0.405"))
        assert any("sums to 1.005" in m for m in errors)


class TestDiagnostics:
    def test_render_format(self):
        d = ParseDiagnostic(5, "error", "undeclared name 'bogus'")
        assert d.render("tiger.dpomdp") == \
            "tiger.dpomdp:5: error: undeclared name 'bogus'"

    def test_line_numbers_count_comments_and_blanks(self):
        lines = [
            "agents: 2",            # 1
            "# a comment",          # 2
            "",                     # 3
            "states: 2",            # 4
            "actions:",             # 5
            "2",                    # 6
            "2",                    # 7
            "observations:",        # 8
            "1",                    # 9
            "1",                    # 10
            "T: bogus 0 : 0 : 0.5 0.5",  # 11
        ]
        _, diags = parse_dpomdp("\n".join(lines))
        hit = [d for d in diags if "bogus" in d.message]
        assert hit and hit[0].line_number == 11

    def test_render_diagnostics_joins_lines(self):
        diags = [ParseDiagnostic(1, "warning", "w"),
                 ParseDiagnostic(2, "error", "e")]
        out = render_diagnostics(diags, "m.dpomdp")
        assert out == "m.dpomdp:1: warning: w\nm.dpomdp:2: error: e"


MODELS = Path(__file__).resolve().parents[1] / "benchmarks"
BUNDLED = {name: (MODELS / name).read_text(encoding="utf-8")
           for name in ("dectiger.dpomdp", "recycling.dpomdp")}
FUZZ_TOKENS = ["nan", "inf", "-inf", "1e400", "-1e400", "-1", "0", "1", "2",
               "0.5", "1e-320", "-0.0", "*", ":", "uniform", "identity",
               "agents:", "states:", "start:", "T:", "x", "1.0.0", "9" * 30]
FUZZ_LINES = ["agents: 0", "agents: -1", "agents: 3", "agents: nan",
              "states: 0", "states: 1e400", "discount: nan", "values: cost",
              "values: maybe", "start: nan nan", "start: -1 2",
              "start: exclude 0", "T: * : uniform", "O: * : identity",
              "R: * : * : * : * : 1e400", "R: * : * : * : * : nan",
              "T: * : * : * : -1", "O: * : * : * : 2", "actions:",
              "observations:", "start:", ":", "*", "0.5 0.5 0.5"]


@st.composite
def mutated_bundled_file(draw):
    """A bundled .dpomdp file with a few lines or tokens replaced, inserted,
    deleted or doubled."""
    lines = BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))].splitlines()
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["token", "line", "insert", "delete",
                                     "double"]))
        if not lines:
            lines.append(draw(st.sampled_from(FUZZ_LINES)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        if kind == "token" and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
        elif kind == "line":
            lines[i] = draw(st.sampled_from(FUZZ_LINES))
        elif kind == "insert":
            lines.insert(i, draw(st.sampled_from(FUZZ_LINES)))
        elif kind == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


class TestMutatedFilesFuzz:
    """Malformed model text yields diagnostics, never an exception; a file
    that parses compiles, and round-trips bitwise."""

    @given(text=mutated_bundled_file())
    @example(text=BUNDLED["dectiger.dpomdp"].replace("agents: 2",
                                                     "agents: 0"))
    @example(text=BUNDLED["dectiger.dpomdp"].replace("0.7225", "nan"))
    @example(text=BUNDLED["recycling.dpomdp"].replace("1.0 0.0 0.0 0.0",
                                                      "1e400 0 0 0"))
    @example(text=BUNDLED["recycling.dpomdp"].replace("0.25", "-1", 1))
    @settings(max_examples=80, deadline=None)
    def test_mutated_bundled_file_gives_diagnostics(self, text):
        raw, diags = parse_dpomdp(text)
        assert all(isinstance(d, ParseDiagnostic) for d in diags)
        assert (raw is None) == any(d.severity == "error" for d in diags)
        if raw is not None:
            for horizon in (1, 3):
                assert isinstance(compile_model(raw, horizon), DecPomdpModel)
            canon = serialize_canonical(raw)
            raw2 = parse_ok(canon)
            for a, b in zip(tables(raw), tables(raw2)):
                assert np.array_equal(a, b)
            assert serialize_canonical(raw2) == canon
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.dpomdp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                load_model(path, 3)
            except ValueError as exc:
                assert "error:" in str(exc)
