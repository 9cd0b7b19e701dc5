"""Byte-stable CLI output: default-precision datasets hash to pinned SHA-256 values.

The figure digests are the ones the benchmark checks (perfbench/data);
the teleport digests pin the README's `--all-q` example.  The dense rotate
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
