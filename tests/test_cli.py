"""Command-line behavior: formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fockport
from fockport import (RESOURCE_KINDS, SpinJ, SpinProjection, average_fidelity,
                      coherent_coefficients, evaluate_all, resource_for_kind, wigner_d_column)
from fockport.cli import main
from fockport.errors import _shown

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
            '[[0, 0], [0, 0], [0, 0]]',        # the zero vector
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
        assert "N must be a non-negative integer" in err

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

    def test_alpha_past_exp_underflow(self, capsys):
        # e^{-alpha^2} underflows to 0 at alpha = 27.5; the target is still built
        code, out, err = run_cli(
            capsys,
            ["teleport", "--resource", "j0", "--n", "20", "--beta-deg", "85",
             "--alpha", "27.5", "--q", "10"],
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith("10,")

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("parity", [False, True])
    @pytest.mark.parametrize("kind, n, beta_deg", [
        ("j0", 20, "85.5"), ("2pt", 21, "90"), ("3pt", 20, "80"), ("4pt", 21, "70"),
        ("ideal", 6, "90"), ("relative-phase-input", 12, "60")])
    def test_all_q_rows_are_the_library_rows(self, capsys, kind, n, beta_deg, parity, fmt):
        # 17 digits round-trip every float, so the printed rows must equal the library's exactly
        argv = ["teleport", "--resource", kind, "--n", str(n), "--beta-deg", beta_deg,
                "--alpha", "3", "--all-q", "--precision", "17", "--format", fmt]
        code, out, _ = run_cli(capsys, argv + ["--parity-correction"] * parity)
        assert code == 0
        if fmt == "csv":
            cells = parse_csv(out)[1]
            rows = [(q if q == "average" else int(q),) + tuple(float(c) if c else None
                                                               for c in rest)
                    for q, *rest in cells]
        else:
            rows = [(r["q"], r["fidelity"], r["bound"], r["probability"])
                    for r in json.loads(out)["rows"]]
        target = coherent_coefficients(3.0)
        resource = resource_for_kind(kind, n, math.radians(float(beta_deg)))
        want = [(r.q, r.fidelity, r.bound, r.probability)
                for r in evaluate_all(target, resource, parity)]
        assert rows[:-1] == want
        assert rows[-1] == ("average", average_fidelity(target, resource, parity), None, None)


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

    @pytest.mark.parametrize("text, needle", [
        ("resource_kind j0\nn = 10\n", "expected key=value"),
        ("# resource_kind = j0\n\n# n = 10\n", "no key=value pairs"),
    ])
    def test_spec_without_pairs_is_usage_error(self, capsys, tmp_path, text, needle):
        path = tmp_path / "spec.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, ["sweep", "--spec-file", str(path)])
        assert code == 2
        assert out == ""
        assert needle in err

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

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
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

    def test_consecutive_calls_match_calls_alone(self, capsys, monkeypatch, tmp_path):
        # main() reuses one parser per process: a call must print what it prints alone
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to this width
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT)
        argvs = [
            ["teleport", "--resource", "j0", "--n", "20", "--beta-deg", "85.5", "--alpha", "3",
             "--all-q", "--format", "json", "--parity-correction", "--precision", "7"],
            ["teleport", "--resource", "2pt", "--n", "21", "--alpha", "1", "--q", "3"],
            ["teleport", "--resource", "ideal", "--n", "6", "--q", "3"],
            ["rotate", "--n", "4", "--beta-deg", "90"],
            ["sweep", "--spec-file", str(spec)],
        ]
        together = [run_cli(capsys, argv) for argv in argvs]
        src = str(Path(fockport.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        alone = [subprocess.Popen([sys.executable, "-m", "fockport.cli", *argv], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                 for argv in argvs]
        for argv, got, proc in zip(argvs, together, alone):
            out, err = proc.communicate(timeout=60)
            assert got == (proc.returncode, out, err), argv
        assert [code for code, _, _ in together] == [0, 2, 0, 2, 0]


_NUMPY_MA_CHILD = """
import contextlib, io, sys
from fockport import cli
loaded = set(sys.modules)
spec, state = sys.argv[1:]
runs = [["figure", "--id", str(i)] for i in range(1, 8)] + [
    ["teleport", "--resource", "j0", "--n", "20", "--beta-deg", "85.5", "--alpha", "3", "--all-q"],
    ["teleport", "--resource", "3pt", "--n", "40", "--beta-deg", "80", "--alpha", "2", "--all-q",
     "--format", "json"],
    ["sweep", "--spec-file", spec],
    ["rotate", "--n", "20", "--input-state-file", state, "--beta-deg", "30"],
    ["rotate", "--n", "2000", "--m", "4", "--beta-deg", "30"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
from fockport.sweep import find_beta_q_numeric
find_beta_q_numeric(40, objective="entropy")
find_beta_q_numeric(41, "2pt", "min_fidelity_target")
print("numpy.ma" in sys.modules)
print(sorted(name for name in set(sys.modules) - loaded
             if name.partition(".")[0] in ("numpy", "fockport")))
"""


def test_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique and np.union1d import numpy.ma on first use: 16-17 ms of every cold start.
    # No command or angle search loads a numpy or fockport module that importing
    # fockport.cli did not: a lazy import would land in some command's time, not setup's.
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC_TEXT)
    state = tmp_path / "state.json"
    state.write_text(json.dumps([[1, 0]] * 21))
    src = str(Path(fockport.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_MA_CHILD, str(spec), str(state)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "False\n[]\n"


_CLI_IMPORT_CHILD = """
import json, sys
import numpy
loaded = set(sys.modules)
import fockport.cli
print(json.dumps(sorted(set(sys.modules) - loaded)))
"""


def test_cli_import_loads_only_fockport_and_the_standard_library():
    # cold start pays for every module import fockport.cli loads past numpy itself:
    # a new top-level import (scipy, numpy.polynomial, ...) is named here
    src = str(Path(fockport.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _CLI_IMPORT_CHILD],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    added = json.loads(proc.stdout)
    assert [name for name in added if name.partition(".")[0] == "numpy"] == []
    assert [name for name in added if name.partition(".")[0] == "fockport"] == [
        "fockport", "fockport._version", "fockport.cli", "fockport.errors",
        "fockport.quasi_epr", "fockport.states", "fockport.su2", "fockport.sweep",
        "fockport.teleport"]
    assert [name for name in added if name.partition(".")[0] not in sys.stdlib_module_names
            and name.partition(".")[0] != "fockport"] == []


@pytest.mark.parametrize("text", ["x" * 100000 + "\n",
                                  "n = " + "1" * 100000 + ".5\nresource_kind = j0\n"],
                         ids=["no-equals", "long-number"])
def test_long_spec_values_give_short_usage_errors(capsys, tmp_path, text):
    path = tmp_path / "spec.txt"
    path.write_text(text)
    code, _, err = run_cli(capsys, ["sweep", "--spec-file", str(path)])
    assert code == 2
    assert len(err) <= 300, err[:400]


@pytest.mark.parametrize("command, content, kind", [
    (["rotate", "--n", "2", "--beta-deg", "10", "--input-state-file"],
     "[" * 100000 + "]" * 100000, "state file"),
    (["sweep", "--spec-file"], '{"n": ' * 100000 + "1" + "}" * 100000, "spec file"),
], ids=["state-file", "spec-file"])
def test_deeply_nested_json_is_usage_error(capsys, tmp_path, command, content, kind):
    path = tmp_path / "nested.json"
    path.write_text(content)
    code, out, err = run_cli(capsys, [*command, str(path)])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and kind in err, err


@pytest.mark.parametrize("spec", [{f"key{i}": 1 for i in range(20000)}, {"k" * 100000: 1}],
                         ids=["many-keys", "long-key"])
def test_unknown_spec_keys_give_short_usage_errors(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"resource_kind": "j0", "n": 10, **spec}))
    code, _, err = run_cli(capsys, ["sweep", "--spec-file", str(path)])
    assert code == 2
    assert "unknown spec keys: " in err and "q_list" in err
    assert len(err.encode()) < 500, err[:600]


@pytest.mark.parametrize("command, kind", [
    (["rotate", "--n", "2", "--beta-deg", "10", "--input-state-file"], "state file"),
    (["sweep", "--spec-file"], "spec file"),
], ids=["state-file", "spec-file"])
@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe"], ids=["not-json", "not-utf8"])
def test_unparsable_file_is_usage_error_naming_it(capsys, tmp_path, command, kind, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, [*command, str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"fockport: error: {kind} {_shown(str(path))} cannot be parsed: "), err
    assert err.count("\n") == 1, err


def test_files_are_read_as_utf8_under_a_non_utf8_locale(capsys, tmp_path):
    # under LC_ALL=C without UTF-8 mode the locale encoding is ASCII; spec and state files
    # are UTF-8 whatever the locale, and bytes that are not UTF-8 stay a usage error
    spec = tmp_path / "beta.spec"
    spec.write_text("# sweep over β\n" + SPEC_TEXT, encoding="utf-8")
    bad = tmp_path / "bad.spec"
    bad.write_bytes(b"\xff\xfe")
    src = str(Path(fockport.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONIOENCODING", None)
    runs = [subprocess.run([sys.executable, "-m", "fockport.cli", "sweep", "--spec-file", str(path)],
                           env=env, capture_output=True, text=True, timeout=60)
            for path in (spec, bad)]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout == run_cli(capsys, ["sweep", "--spec-file", str(spec)])[1]
    assert runs[1].returncode == 2
    assert runs[1].stderr.startswith(f"fockport: error: spec file {_shown(str(bad))} cannot be "
                                     "parsed: 'utf-8' codec can't decode byte 0xff"), runs[1].stderr


@pytest.mark.parametrize("figure_id, lines_read", [(4, 1), (3, 0)],
                         ids=["closed-after-first-line", "closed-before-output"])
def test_closed_stdout_ends_quietly_with_exit_1(figure_id, lines_read):
    # `fockport figure --id 4 | head -n 1`: figure 4 writes far more than a pipe holds, so a
    # write fails; figure 3 fits in the buffer, so only the last flush can fail
    src = str(Path(fockport.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "fockport.cli", "figure", "--id",
                             str(figure_id)], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        first = [proc.stdout.readline() for _ in range(lines_read)]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert first == ["N,beta_deg,n,modulus\n"][:lines_read]
    assert err == ""


def _late_overflow_spec(path, stop_deg):
    # j0 at N = 140000 runs one angle per block: beta = 0 is the identity, the next angle
    # overflows the kernel
    path.write_text("resource_kind = j0\nn = 140000\nbeta_start_deg = 0\n"
                    f"beta_stop_deg = {stop_deg}\nbeta_step_deg = 1e-98\nalpha = 1\n"
                    f"q_list = {','.join(map(str, range(1100)))}\n")
    return str(path)


def test_error_after_rows_keeps_the_rows_written_and_exits_3(capsys, tmp_path):
    # the first angle's 1100 rows fill one writer block of 1024 rows, which is written; the
    # error falls while the next block is read, so its 76 rows of the first angle are lost
    whole = run_cli(capsys, ["sweep", "--spec-file", _late_overflow_spec(tmp_path / "a", 0)])
    assert whole[0] == 0 and whole[2] == ""
    spec = _late_overflow_spec(tmp_path / "b", 1e-97)
    code, out, err = run_cli(capsys, ["sweep", "--spec-file", spec])
    assert code == 3
    assert err == ("fockport: error: beta = 1.7453292519943294e-100 is too close to a multiple "
                   "of pi: the column recurrence overflows at twice_j = 140000\n")
    assert out.splitlines(keepends=True) == whole[1].splitlines(keepends=True)[:1 + 1024]
    path = tmp_path / "rows.csv"
    assert run_cli(capsys, ["sweep", "--spec-file", spec, "--output", str(path)])[:2] == (3, "")
    assert path.read_text() == out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_error_before_the_first_row_leaves_the_output_file_untouched(capsys, tmp_path, fmt):
    spec = tmp_path / "tiny.spec"  # the first angle overflows the kernel
    spec.write_text("resource_kind = j0\nn = 200\nbeta_start_deg = 1e-98\n"
                    "beta_stop_deg = 10\nalpha = 1.0\nq_list = 100\n")
    path = tmp_path / "rows.csv"
    path.write_text("kept\n")
    code, out, err = run_cli(capsys, ["sweep", "--spec-file", str(spec), "--format", fmt,
                                      "--output", str(path)])
    assert (code, out) == (3, "")
    assert "too close to a multiple of pi" in err
    assert path.read_text() == "kept\n"
