"""Seeded fuzz of the CLI boundary: perturbed argv and sweep spec files.

Every run must end in a documented way: exit 0 with finite output, 2 (usage
error) or 3 (domain error).  No exception may escape main, and no successful
run may print NaN.  Photon numbers stay small so that every case is cheap.
"""

import json
import random
import re

from fockport.cli import main

SEED = 20261018
CASES = 400

POOL = {
    "--n": ["-1", "0", "1", "2", "7", "10", "20", "21", "x", "1e3", "", "3.5"],
    "--m": ["-10", "-4", "0", "1", "4", "10", "11", "x"],
    "--beta-deg": ["0", "-0", "90", "85.5", "180", "180.5", "-1", "nan", "inf",
                   "1e-30", "1e-198", "1e-300", "5e-324", "x"],
    "--alpha": ["0", "1", "3", "-1", "nan", "inf", "1e-300", "27.5", "x"],
    "--q": ["-1", "0", "9", "19", "100000000000", "x"],
    "--resource": ["j0", "2pt", "3pt", "4pt", "ideal", "relative-phase-input", "epr"],
    "--precision": ["0", "1", "12", "17", "18", "x"],
    "--format": ["csv", "json", "xml"],
    "--id": ["0", "3", "7", "8", "x"],
}

TEMPLATES = [
    ["rotate", "--n", "10", "--m", "4", "--beta-deg", "90"],
    ["teleport", "--resource", "j0", "--n", "10", "--beta-deg", "85", "--alpha", "1",
     "--q", "9"],
    ["teleport", "--resource", "2pt", "--n", "7", "--beta-deg", "80", "--alpha", "1",
     "--all-q", "--parity-correction"],
    ["figure", "--id", "3"],
]

SPEC_BASE = {"resource_kind": "j0", "n": 10, "alpha": 1.0, "q_list": [9],
             "beta_start_deg": 80, "beta_stop_deg": 90, "beta_step_deg": 5,
             "parity_correction": True}

SPEC_VALUES = [None, True, False, 0, 1, 2, -1, 10, 21, 1.5, 1e-198, 90, 200, "x", "",
               "nan", "inf", "all", "9,10", "on", "ture", [], [10], [1.5], [True],
               {"a": 1}, 10 ** 400, "relative-phase-input", "ideal"]


def perturb_argv(rng):
    argv = list(rng.choice(TEMPLATES))
    for _ in range(rng.randint(1, 3)):
        action = rng.random()
        flags = [i for i, tok in enumerate(argv) if tok in POOL]
        if action < 0.7 and flags:
            i = rng.choice(flags)
            argv[i + 1] = rng.choice(POOL[argv[i]])
        elif action < 0.85 and flags:
            i = rng.choice(flags)
            del argv[i:i + 2]
        else:
            flag = rng.choice(sorted(POOL))
            argv += [flag, rng.choice(POOL[flag])]
    return argv


def perturb_spec(rng):
    spec = dict(SPEC_BASE)
    for _ in range(rng.randint(1, 3)):
        key = rng.choice(sorted(SPEC_BASE) + ["q"])
        if rng.random() < 0.15:
            spec.pop(key, None)
        else:
            spec[key] = rng.choice(SPEC_VALUES)
    if rng.random() < 0.5:
        return json.dumps(spec)
    return "".join(f"{key} = {value}\n" for key, value in spec.items()
                   if not isinstance(value, (list, dict)))


def test_cli_boundary_fuzz(capsys, tmp_path):
    rng = random.Random(SEED)
    spec_path = tmp_path / "spec"
    for case in range(CASES):
        if rng.random() < 0.4:
            spec_path.write_text(perturb_spec(rng))
            argv = ["sweep", "--spec-file", str(spec_path)]
            label = spec_path.read_text()
        else:
            argv = perturb_argv(rng)
            label = " ".join(argv)
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 2, 3), f"case {case}: exit {code} for {label!r}"
        if code == 0:
            assert not re.search(r"\bnan\b", out, re.IGNORECASE), f"case {case}: NaN for {label!r}"
