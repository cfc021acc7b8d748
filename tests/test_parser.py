"""Grammar, table expansion, diagnostics, and canonical serialization."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _benchmarks import dectiger_text, recycling_text
from rscpi.bench_cli import load_model
from rscpi.dpomdp_parser import (ParseDiagnostic, compile_model,
                                 compile_tables, parse_dpomdp,
                                 render_diagnostics, serialize_canonical)
from rscpi.model import JointIndexer


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


def tables_ok(text):
    T, O, R, diags = compile_tables(parse_ok(text))
    assert not any(d.severity == "error" for d in diags), \
        [d.message for d in diags]
    return T, O, R


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
        model, _ = compile_model(raw, horizon=2)
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
        act = JointIndexer((2, 3, 2))
        obs = JointIndexer((1, 2, 3))
        want_T = np.full((2, 12, 2), 0.5)
        want_O = np.full((12, 2, 6), 1.0 / 6.0)
        want_R = np.zeros((12, 2, 2, 6))
        for k in range(3):
            want_T[0, act.encode((1, k, 0))] = [0.25, 0.75]
            for m in range(3):
                want_R[act.encode((0, k, 1)), :, 1,
                       obs.encode((0, 1, m))] = 7.5
        for j in range(2):
            a = act.encode((j, 2, 1))
            want_O[a, 1] = 0.0
            for k in range(2):
                want_O[a, 1, obs.encode((0, k, 2))] = 0.5
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
        raw = parse_ok(text)
        _, _, _, diags = compile_tables(raw)
        assert any("identity observation kernel" in m
                   for m in messages(diags, "error"))

    def test_negative_probability_row(self):
        raw = parse_ok(full_file("T: 0 0 : 0 : -0.5 1.5"))
        _, _, _, diags = compile_tables(raw)
        assert any("negative probability" in m
                   for m in messages(diags, "error"))

    def test_missing_coverage_is_a_sum_error(self):
        lines = full_file().splitlines()
        lines.remove("T: * : uniform")
        raw = parse_ok("\n".join(lines) + "\n")
        _, _, _, diags = compile_tables(raw)
        assert any("T row" in m and "sums to 0" in m
                   for m in messages(diags, "error"))


class TestNormalizationLadder:
    def test_tiny_deviation_renormalizes_silently(self):
        raw = parse_ok(full_file("T: 0 0 : 0 : 0.6 0.4000005"))
        T, _, _, diags = compile_tables(raw)
        assert diags == []
        assert T[0, 0].sum() == pytest.approx(1.0, abs=1e-12)
        assert T[0, 0, 0] == pytest.approx(0.6 / 1.0000005, abs=1e-15)

    def test_moderate_deviation_warns_and_renormalizes(self):
        raw = parse_ok(full_file("T: 0 0 : 0 : 0.6 0.40005"))
        T, _, _, diags = compile_tables(raw)
        warnings = messages(diags, "warning")
        assert len(warnings) == 1
        assert "T row (s=0, a=0) sums to 1.00005; renormalized" in warnings[0]
        assert T[0, 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_deviation_is_an_error(self):
        raw = parse_ok(full_file("T: 0 0 : 0 : 0.6 0.405"))
        _, _, _, diags = compile_tables(raw)
        assert any("T row (s=0, a=0) sums to 1.005" in m
                   for m in messages(diags, "error"))
        model, _ = compile_model(raw, horizon=2)
        assert model is None

    def test_exact_rows_kept_bitwise(self):
        row = np.array([0.3, 0.7])
        raw = parse_ok(full_file("T: 0 0 : 0 : 0.3 0.7"))
        T, _, _, _ = compile_tables(raw)
        assert np.array_equal(T[0, 0], row)


class TestCompileModel:
    def test_dectiger_dummy_mode_dimensions(self):
        raw = parse_ok(dectiger_text())
        model, diags = compile_model(raw, horizon=3)
        assert messages(diags, "error") == []
        assert model.obs_counts == (3, 3)
        assert model.obs_names[0][-1] == "null"
        assert model.P.shape == (2, 9, 2, 9)
        np.testing.assert_allclose(model.zeta1.sum(axis=1), [0.5, 0.5],
                                   atol=1e-12)

    def test_dectiger_uniform_mode_dimensions(self):
        raw = parse_ok(dectiger_text())
        model, _ = compile_model(raw, horizon=3,
                                 init_obs_mode="uniform_observation")
        assert model.obs_counts == (2, 2)
        assert model.P.shape == (2, 9, 2, 4)

    def test_joint_rows_normalized(self):
        for text in (dectiger_text(), recycling_text(), full_file()):
            model, _ = compile_model(parse_ok(text), horizon=2)
            np.testing.assert_allclose(model.P.sum(axis=(2, 3)), 1.0,
                                       atol=1e-9)

    def test_dectiger_rewards(self):
        raw = parse_ok(dectiger_text())
        model, _ = compile_model(raw, horizon=3)
        ix = JointIndexer((3, 3))
        listen = ix.encode((0, 0))
        both_left = ix.encode((1, 1))
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
        model, _ = compile_model(parse_ok("\n".join(lines)), horizon=1,
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
        model, _ = compile_model(parse_ok("\n".join(lines)), horizon=1,
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
        model, _ = compile_model(parse_ok(full_file(values="cost")),
                                 horizon=1)
        np.testing.assert_allclose(model.r, -1.0, atol=1e-12)

    def test_discount_recorded_but_ignored_with_warning(self):
        model, diags = compile_model(parse_ok(full_file(discount="0.9")),
                                     horizon=2)
        assert model.discount == 0.9
        assert any("discount 0.9 recorded but ignored" in m
                   for m in messages(diags, "warning"))

    def test_dummy_null_never_emitted(self):
        model, _ = compile_model(parse_ok(dectiger_text()), horizon=2)
        ix = JointIndexer((3, 3))
        for y in range(9):
            if 2 in ix.decode(y):
                assert np.all(model.P[:, :, :, y] == 0.0)

    def test_recycling_reward_spot_checks(self):
        model, _ = compile_model(parse_ok(recycling_text()), horizon=2)
        ix = JointIndexer((3, 3))
        hh, ll = 0, 3
        assert model.r[hh, ix.encode((0, 0))] == pytest.approx(5.0)
        assert model.r[hh, ix.encode((1, 1))] == pytest.approx(4.0)
        assert model.r[ll, ix.encode((0, 0))] == pytest.approx(-3.0)
        assert model.r[hh, ix.encode((2, 2))] == pytest.approx(0.0)


class TestSerializeCanonical:
    @pytest.mark.parametrize("text", [
        dectiger_text(), recycling_text(), full_file(),
        full_file(values="cost"),
    ], ids=["dectiger", "recycling", "small", "cost"])
    def test_round_trip_is_bitwise_and_a_fixpoint(self, text):
        raw1 = parse_ok(text)
        canon = serialize_canonical(raw1)
        raw2 = parse_ok(canon)
        t1 = compile_tables(raw1)[:3]
        t2 = compile_tables(raw2)[:3]
        for a, b in zip(t1, t2):
            assert np.array_equal(a, b)
        assert serialize_canonical(raw2) == canon

    def test_start_preserved(self):
        raw1 = parse_ok(full_file(start="0.25 0.75"))
        raw2 = parse_ok(serialize_canonical(raw1))
        np.testing.assert_array_equal(raw2.start_distribution, [0.25, 0.75])

    def test_refuses_broken_tables(self):
        raw = parse_ok(full_file("T: 0 0 : 0 : 0.6 0.405"))
        with pytest.raises(ValueError, match="cannot serialize"):
            serialize_canonical(raw)


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
    that parses and serializes round-trips bitwise."""

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
                model, cdiags = compile_model(raw, horizon)
                assert all(isinstance(d, ParseDiagnostic) for d in cdiags)
                if model is None:
                    assert any(d.severity == "error" for d in cdiags)
            try:
                canon = serialize_canonical(raw)
            except ValueError:
                canon = None
            if canon is not None:
                raw2 = parse_ok(canon)
                for a, b in zip(compile_tables(raw)[:3],
                                compile_tables(raw2)[:3]):
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
