"""Command-line behavior: formats, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from fockport import RESOURCE_KINDS, SpinJ, SpinProjection, wigner_d_column
from fockport.cli import main

SPEC_TEXT = """\
resource_kind = j0
n = 10
alpha = 1.0
q_list = 9,10
beta_start_deg = 80
beta_stop_deg = 90
beta_step_deg = 2.5
parity_correction = true
# trailing comment
"""

SPEC_JSON = {
    "resource_kind": "j0",
    "n": 10,
    "alpha": 1.0,
    "q_list": [9, 10],
    "beta_start_deg": 80,
    "beta_stop_deg": 90,
    "beta_step_deg": 2.5,
    "parity_correction": True,
}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRotate:
    def test_balanced_basis_rotation(self, capsys):
        code, out, _ = run_cli(
            capsys, ["rotate", "--n", "4", "--m", "0", "--beta-deg", "90"]
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["m_prime", "re", "im", "modulus", "phase"]
        assert [row[0] for row in rows] == ["-2", "-1", "0", "1", "2"]
        col = wigner_d_column(SpinJ(4), SpinProjection(0), math.pi / 2)
        for row, want in zip(rows, col.values):
            assert float(row[3]) == pytest.approx(abs(want), abs=1e-11)

    def test_half_integer_m_prime_labels(self, capsys):
        code, out, _ = run_cli(
            capsys, ["rotate", "--n", "3", "--m", "1", "--beta-deg", "30"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == ["-1.5", "-0.5", "0.5", "1.5"]

    def test_input_state_file(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
        code, out, _ = run_cli(
            capsys,
            ["rotate", "--n", "2", "--input-state-file", str(path), "--beta-deg", "45"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        total = sum(float(row[3]) ** 2 for row in rows)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_wrong_length_state_file(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps([[1.0, 0.0]]))
        code, _, err = run_cli(
            capsys,
            ["rotate", "--n", "2", "--input-state-file", str(path), "--beta-deg", "45"],
        )
        assert code == 3
        assert "amplitude pairs" in err

    @pytest.mark.parametrize(
        "content",
        [
            '[[1, "a"], [0, 0], [0, 0]]',      # non-numeric value
            '[[1, 0], [0], [0, 0]]',           # not a pair
            '[[1, 0, 0], [0, 0], [0, 0]]',
            '[1, 0, 0]',                       # bare numbers
            '[[true, 0], [0, 0], [0, 0]]',     # booleans are not numbers
            '[[null, 0], [0, 0], [0, 0]]',
            '[[NaN, 0], [0, 0], [0, 0]]',      # non-finite values
            '[[1, Infinity], [0, 0], [0, 0]]',
            '[[1e999, 0], [0, 0], [0, 0]]',
            '[[1%s, 0], [0, 0], [0, 0]]' % ("0" * 400),  # integer beyond the float range
            '{"re": [1, 0, 0]}',               # not a list
        ],
    )
    def test_malformed_state_file_is_domain_error(self, capsys, tmp_path, content):
        path = tmp_path / "state.json"
        path.write_text(content)
        code, out, err = run_cli(
            capsys,
            ["rotate", "--n", "2", "--input-state-file", str(path), "--beta-deg", "45"],
        )
        assert code == 3
        assert out == ""
        assert "state file" in err

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "-0.5", "180.5", "400"])
    def test_beta_outside_half_turn_is_domain_error(self, capsys, beta):
        code, out, err = run_cli(
            capsys, ["rotate", "--n", "4", "--m", "0", f"--beta-deg={beta}"]
        )
        assert code == 3
        assert out == ""
        assert "[0, 180]" in err

    def test_overflowing_tiny_beta_is_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, ["rotate", "--n", "10", "--m", "4", "--beta-deg", "1e-198"]
        )
        assert code == 3
        assert out == ""
        assert "beta = " in err

    @pytest.mark.parametrize("beta", ["0", "180"])
    def test_half_turn_endpoints_accepted(self, capsys, beta):
        code, out, _ = run_cli(capsys, ["rotate", "--n", "4", "--m", "2", "--beta-deg", beta])
        assert code == 0
        moduli = [float(row[3]) for row in parse_csv(out)[1]]
        want = [0, 0, 0, 1, 0] if beta == "0" else [0, 1, 0, 0, 0]
        assert moduli == pytest.approx(want, abs=1e-12)

    def test_m_and_file_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("[]")
        code, _, _ = run_cli(
            capsys,
            ["rotate", "--n", "2", "--m", "0", "--input-state-file", str(path),
             "--beta-deg", "45"],
        )
        assert code == 2

    def test_source_required(self, capsys):
        code, _, _ = run_cli(capsys, ["rotate", "--n", "2", "--beta-deg", "45"])
        assert code == 2

    @pytest.mark.parametrize("m", ["7", "1"])
    def test_bad_projection_is_domain_error(self, capsys, m):
        code, _, err = run_cli(
            capsys, ["rotate", "--n", "4", "--m", m, "--beta-deg", "45"]
        )
        assert code == 3
        assert "fockport: error:" in err


class TestTeleport:
    def test_single_outcome_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["teleport", "--resource", "j0", "--n", "20", "--beta-deg", "85.5",
             "--alpha", "3", "--q", "19", "--parity-correction"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        q, fid, bound, prob = rows[0]
        assert q == "19"
        assert float(fid) == pytest.approx(0.99270429402264, rel=1e-10)
        assert float(prob) == pytest.approx(0.031987566738232366, rel=1e-10)
        assert float(bound) <= 1.0 + 1e-12

    def test_unreachable_outcome_is_empty_not_error(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["teleport", "--resource", "ideal", "--n", "6", "--alpha", "1",
             "--q", "40"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][1] == ""  # no fidelity for impossible q
        assert float(rows[0][3]) == 0.0

    def test_all_q_appends_average(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["teleport", "--resource", "j0", "--n", "8", "--beta-deg", "81",
             "--alpha", "1", "--all-q", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        rows = payload["rows"]
        assert len(rows) == 8 + 14 + 2  # q = 0..N+k_max plus the average row
        assert rows[-1]["q"] == "average"
        probs = [r["probability"] for r in rows[:-1]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_negative_n_for_ideal_resource_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, ["teleport", "--resource", "ideal", "--n", "-1",
                                          "--q", "0"])
        assert code == 3
        assert out == ""
        assert "N must be >= 0" in err

    def test_ideal_resource_needs_no_beta(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["teleport", "--resource", "ideal", "--n", "6", "--alpha", "1",
             "--q", "3"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        # flat resource meets the partial-mass bound exactly
        assert float(rows[0][1]) == pytest.approx(float(rows[0][2]), rel=1e-12)

    def test_missing_beta_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["teleport", "--resource", "j0", "--n", "20", "--alpha", "1", "--q", "1"],
        )
        assert code == 2
        assert "--beta-deg" in err

    def test_parity_mismatch_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["teleport", "--resource", "2pt", "--n", "20", "--beta-deg", "90",
             "--q", "0"],
        )
        assert code == 3
        assert "odd" in err

    @pytest.mark.parametrize("kind,n", [("j0", 4), ("2pt", 5), ("3pt", 4), ("4pt", 5),
                                        ("ideal", 4), ("relative-phase-input", 4)])
    def test_every_resource_kind_accepted(self, capsys, kind, n):
        code, out, _ = run_cli(
            capsys,
            ["teleport", "--resource", kind, "--n", str(n), "--beta-deg", "80",
             "--alpha", "1", "--q", "3"],
        )
        assert code == 0
        assert parse_csv(out)[1][0][0] == "3"

    def test_resource_choices_follow_sweep_kinds(self, capsys):
        code, _, err = run_cli(
            capsys, ["teleport", "--resource", "bogus", "--n", "4", "--q", "1"])
        assert code == 2
        assert all(kind in err for kind in RESOURCE_KINDS)

    def test_relative_phase_input_needs_beta(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["teleport", "--resource", "relative-phase-input", "--n", "4", "--q", "1"],
        )
        assert code == 2
        assert "--beta-deg" in err

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_is_domain_error(self, capsys, alpha):
        code, out, err = run_cli(
            capsys,
            ["teleport", "--resource", "j0", "--n", "20", "--beta-deg", "85.5",
             f"--alpha={alpha}", "--all-q"],
        )
        assert code == 3
        assert out == ""
        assert "alpha must be finite" in err
        assert "converge" not in err

    @pytest.mark.parametrize("resource", ["j0", "ideal"])
    @pytest.mark.parametrize("beta", ["nan", "400", "-1"])
    def test_beta_outside_half_turn_is_domain_error(self, capsys, resource, beta):
        code, out, err = run_cli(
            capsys,
            ["teleport", "--resource", resource, "--n", "4", f"--beta-deg={beta}", "--q", "2"],
        )
        assert code == 3
        assert out == ""
        assert "[0, 180]" in err

    def test_q_and_all_q_are_exclusive(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["teleport", "--resource", "ideal", "--n", "4", "--q", "1", "--all-q"],
        )
        assert code == 2


class TestFigure:
    def test_figure_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, ["figure", "--id", "3"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["beta_deg", "n", "modulus", "phase"]
        assert len(rows) == 42

    def test_unknown_id_rejected_by_parser(self, capsys):
        code, _, _ = run_cli(capsys, ["figure", "--id", "9"])
        assert code == 2


class TestSweep:
    def test_key_value_and_json_specs_agree(self, capsys, tmp_path):
        kv = tmp_path / "spec.txt"
        kv.write_text(SPEC_TEXT)
        js = tmp_path / "spec.json"
        js.write_text(json.dumps(SPEC_JSON))
        code1, out1, _ = run_cli(capsys, ["sweep", "--spec-file", str(kv)])
        code2, out2, _ = run_cli(capsys, ["sweep", "--spec-file", str(js)])
        assert code1 == code2 == 0
        assert out1 == out2
        _, rows = parse_csv(out1)
        assert len(rows) == 5 * 2  # five grid points, two outcomes

    def test_byte_determinism(self, capsys, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text(SPEC_TEXT)
        _, first, _ = run_cli(capsys, ["sweep", "--spec-file", str(path), "--format", "json"])
        _, second, _ = run_cli(capsys, ["sweep", "--spec-file", str(path), "--format", "json"])
        assert first == second

    def test_empty_spec_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, _, err = run_cli(capsys, ["sweep", "--spec-file", str(path)])
        assert code == 2
        assert "empty" in err

    def test_missing_required_key(self, capsys, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("n = 10\n")
        code, _, err = run_cli(capsys, ["sweep", "--spec-file", str(path)])
        assert code == 2
        assert "resource_kind" in err

    def test_invalid_spec_values(self, capsys, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("resource_kind = j0\nn = 9\n")
        code, _, err = run_cli(capsys, ["sweep", "--spec-file", str(path)])
        assert code == 2
        assert "invalid sweep spec" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        # a stray key must not silently fall back to defaults
        path = tmp_path / "spec.txt"
        path.write_text("resource_kind = j0\nn = 20\nq = 19\n")
        code, _, err = run_cli(capsys, ["sweep", "--spec-file", str(path)])
        assert code == 2
        assert "unknown spec keys: q" in err
        assert "q_list" in err

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_is_domain_error(self, capsys, tmp_path, alpha):
        path = tmp_path / "spec.txt"
        path.write_text(f"resource_kind = j0\nn = 10\nalpha = {alpha}\n")
        code, out, err = run_cli(capsys, ["sweep", "--spec-file", str(path)])
        assert code == 3
        assert out == ""
        assert "alpha must be finite" in err

    @pytest.mark.parametrize(
        "line, needle",
        [
            ("beta_start_deg = -5", "beta_start_deg"),
            ("beta_start_deg = nan", "beta_start_deg"),
            ("beta_stop_deg = 200", "beta_stop_deg"),
            ("beta_stop_deg = inf", "beta_stop_deg"),
            ("beta_step_deg = 1e-7", "exceeds"),
            ("beta_step_deg = 1e-320", "exceeds"),
        ],
    )
    def test_out_of_range_grid_is_domain_error(self, capsys, tmp_path, line, needle):
        path = tmp_path / "spec.txt"
        path.write_text(f"resource_kind = j0\nn = 10\n{line}\n")
        code, out, err = run_cli(capsys, ["sweep", "--spec-file", str(path)])
        assert code == 3
        assert out == ""
        assert needle in err

    def test_unknown_boolean_spelling_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("resource_kind = j0\nn = 10\nparity_correction = ture\n")
        code, out, err = run_cli(capsys, ["sweep", "--spec-file", str(path)])
        assert code == 2
        assert out == ""
        assert "parity_correction" in err

    @pytest.mark.parametrize("spelling, value", [("TRUE", True), ("on", True), ("1", True),
                                                 ("no", False), ("Off", False), ("0", False)])
    def test_boolean_spellings(self, capsys, tmp_path, spelling, value):
        path = tmp_path / "spec.txt"
        path.write_text(f"resource_kind = j0\nn = 10\nparity_correction = {spelling}\n")
        code, out, _ = run_cli(capsys, ["sweep", "--spec-file", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["meta"]["spec"]["parity_correction"] is value

    @pytest.mark.parametrize("key, value", [
        ("n", [10]), ("n", 10.5), ("n", True), ("n", None),
        ("beta_start_deg", None), ("beta_stop_deg", [90]), ("beta_step_deg", "fine"),
        pytest.param("beta_start_deg", 10 ** 400, id="beta_start_deg-huge-int"),
        ("alpha", None), ("alpha", {"re": 1}),
        ("q_list", 19), ("q_list", [1.5]), ("q_list", [True]),
        ("parity_correction", [1]), ("parity_correction", 2), ("parity_correction", None),
    ])
    def test_wrongly_typed_json_value_is_usage_error(self, capsys, tmp_path, key, value):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**SPEC_JSON, key: value}))
        code, out, err = run_cli(capsys, ["sweep", "--spec-file", str(path)])
        assert code == 2
        assert out == ""
        assert f"{key}: expected" in err

    @pytest.mark.parametrize("value, want", [(True, True), (False, False), ("Yes", True),
                                             (1, True), (0, False)])
    def test_json_boolean_values(self, capsys, tmp_path, value, want):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**SPEC_JSON, "parity_correction": value}))
        code, out, _ = run_cli(capsys, ["sweep", "--spec-file", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["meta"]["spec"]["parity_correction"] is want

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, ["sweep", "--spec-file", str(path)])
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, ["sweep", "--spec-file", str(tmp_path / "nope.txt")]
        )
        assert code == 2


class TestOutputHandling:
    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys,
            ["rotate", "--n", "4", "--m", "0", "--beta-deg", "60",
             "--output", str(path)],
        )
        assert code == 0
        assert out == ""
        header, rows = parse_csv(path.read_text())
        assert header[0] == "m_prime"
        assert len(rows) == 5

    def test_csv_and_json_hold_identical_numbers(self, capsys):
        argv = ["teleport", "--resource", "j0", "--n", "10", "--beta-deg", "81",
                "--alpha", "1", "--all-q"]
        _, csv_text, _ = run_cli(capsys, argv)
        _, json_text, _ = run_cli(capsys, argv + ["--format", "json"])
        _, csv_rows = parse_csv(csv_text)
        json_rows = json.loads(json_text)["rows"]
        for crow, jrow in zip(csv_rows, json_rows):
            for text, value in zip(crow[1:], (jrow["fidelity"], jrow["bound"],
                                              jrow["probability"])):
                if text == "":
                    assert value is None
                else:
                    assert float(text) == value  # same %g path, bit-identical

    def test_precision_flag(self, capsys):
        argv = ["rotate", "--n", "2", "--m", "0", "--beta-deg", "33.3"]
        _, full, _ = run_cli(capsys, argv)
        _, short, _ = run_cli(capsys, argv + ["--precision", "3"])
        assert full != short
        _, rows = parse_csv(short)
        for row in rows:
            for cell in row[1:]:
                assert "%.3g" % float(cell) == cell

    @pytest.mark.parametrize("precision", ["-3", "0", "18", "x", "1.5"])
    def test_precision_out_of_range_is_usage_error(self, capsys, precision):
        code, out, err = run_cli(
            capsys, ["rotate", "--n", "2", "--m", "0", "--beta-deg", "30",
                     "--precision", precision]
        )
        assert code == 2
        assert out == ""
        assert "1..17" in err

    @pytest.mark.parametrize("precision", ["1", "17"])
    def test_precision_bounds_accepted(self, capsys, precision):
        code, _, _ = run_cli(
            capsys, ["rotate", "--n", "2", "--m", "0", "--beta-deg", "30",
                     "--precision", precision]
        )
        assert code == 0

    def test_timestamp_only_when_requested(self, capsys):
        argv = ["figure", "--id", "3", "--format", "json"]
        _, plain, _ = run_cli(capsys, argv)
        _, stamped, _ = run_cli(capsys, argv + ["--timestamp"])
        assert "timestamp" not in json.loads(plain)["meta"]
        assert "timestamp" in json.loads(stamped)["meta"]

    def test_json_meta_echoes_request(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["teleport", "--resource", "ideal", "--n", "4", "--q", "2",
             "--format", "json"],
        )
        meta = json.loads(out)["meta"]
        assert meta["kind"] == "teleport"
        assert meta["resource"] == "ideal"
        assert meta["n"] == 4


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, ["--version"])
        assert code == 0
        assert out.startswith("fockport ")

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, [])
        assert code == 2
