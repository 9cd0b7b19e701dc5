"""Byte-stable CLI output: default-precision datasets hash to pinned SHA-256 values.

The figure CSV digests are the ones the benchmark checks (perfbench/data);
the figure JSON digests pin the second format of the same datasets, and the
teleport digests pin the README's `--all-q` example.  The dense rotate
(N = 300) and relative-phase-input sweep (N = 60) digests reach sizes the
figures do not: every column of a rotation runs through the kernel at once.
A change in any hash means the printed numbers changed, not just the speed.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fockport.cli import main

FIGURE_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "data" / "figure_digests.json")
    .read_text())

README_TELEPORT = ["teleport", "--resource", "j0", "--n", "20", "--beta-deg", "85.5",
                   "--alpha", "3", "--all-q"]
README_TELEPORT_DIGESTS = {
    "csv": "cbdd6e8c9900763e896006963b7a746629fca5b1c35d6ec24720429eb59ecf5b",
    "json": "3047a791b7f5d8ff334ce3f893f15f3a94d7fdae158bc41e19bf0b9818932458",
}


def stdout_digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_figure_is_pinned():
    assert sorted(FIGURE_DIGESTS) == [str(i) for i in range(1, 8)]


@pytest.mark.parametrize("figure_id", range(1, 8))
def test_figure_csv_digest(capsys, figure_id):
    digest = stdout_digest(capsys, ["figure", "--id", str(figure_id)])
    assert digest == FIGURE_DIGESTS[str(figure_id)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_readme_all_q_digest(capsys, fmt):
    digest = stdout_digest(capsys, README_TELEPORT + ["--format", fmt])
    assert digest == README_TELEPORT_DIGESTS[fmt]


DENSE_ROTATE_DIGEST = "7b243eafd6a0d6788113ce5840c5bfc9ad5a65d696cae24a34de38a224cbfe74"
RELATIVE_PHASE_SWEEP_DIGEST = "9da0ddba37982a9759d1027e138cb1c07f1f174087c0088d32c38934163d451f"


def test_dense_rotate_digest(capsys, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(np.random.default_rng(20261018).normal(size=(301, 2)).tolist()))
    argv = ["rotate", "--n", "300", "--input-state-file", str(state), "--beta-deg", "67.5"]
    assert stdout_digest(capsys, argv) == DENSE_ROTATE_DIGEST


def test_relative_phase_sweep_digest(capsys, tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("resource_kind = relative-phase-input\nn = 60\nbeta_start_deg = 45\n"
                    "beta_stop_deg = 90\nbeta_step_deg = 1.5\nalpha = 2\nq_list = all\n"
                    "parity_correction = true\n")
    assert stdout_digest(capsys, ["sweep", "--spec-file", str(spec)]) == RELATIVE_PHASE_SWEEP_DIGEST


FIGURE_JSON_DIGESTS = {
    ("1", "12"): "a4c822e8903818d8f404a5417b54e2b4111ba9d7050db2b0b5f47aac50d54a3d",
    ("2", "12"): "32f099ee8b113d6c5c974c29b851dbb8fffd0bee1e980fa9a52530f1ce160651",
    ("3", "12"): "c6c6c78f8f31135a52f872c1c1346c52d798ffc01867b1d230516e7fb4277617",
    ("4", "12"): "e15646a7b1184d330053eb9ac3375a7ca27726287c5be02eb58aa3c91e0c7368",
    ("5", "12"): "18d532a48ef05e73e9a49eedd197c7dce9270b4fc13eac61ff48cf3be6b9773a",
    ("6", "12"): "ad19157fd86365bfe848c24cf85766557c009a12c7d489405df703d64d7213b0",
    ("7", "12"): "7f105b4856b57af507ab2d1ce4225f5e835e177f0d79a92ee7709aafb88bbc30",
    ("6", "17"): "6c0150fba13bf48890821620453d456c619dcba7366a132c7a085198a28c9eb4",
}
FIGURE_6_CSV_17_DIGEST = "2d716ebac9680584979eceb490f1ef0dd6e9583c02d028ddae70da02a0e95175"


@pytest.mark.parametrize("figure_id,precision", sorted(FIGURE_JSON_DIGESTS))
def test_figure_json_digest(capsys, figure_id, precision):
    argv = ["figure", "--id", figure_id, "--format", "json", "--precision", precision]
    assert stdout_digest(capsys, argv) == FIGURE_JSON_DIGESTS[figure_id, precision]


def test_figure_6_full_precision_csv_digest(capsys):
    argv = ["figure", "--id", "6", "--precision", "17"]
    assert stdout_digest(capsys, argv) == FIGURE_6_CSV_17_DIGEST
