"""Seeded fuzz of the CLI boundary: perturbed argv and sweep spec files.

Every run must end in a documented way: exit 0 with finite output, 2 (usage
error) or 3 (domain error).  No exception may escape main, and no successful
run may print NaN.  Photon numbers stay small so that every case is cheap;
huge ones run in a child process under an address-space limit.
"""

import json
import os
import random
import re
import subprocess
import sys

import fockport
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


# Photon numbers far past the cap, just past it, and negative.  Each case must
# end in a one-line error before any state vector is allocated: exit 3, or 2 for
# a sweep spec that fails validation.  The cases run in a child process whose
# address space is capped, so that a missed check fails with numpy's memory
# error instead of allocating gigabytes here.
HUGE_N = ["100000000", "1000000000", "1000000000000", "1000002"]
NEGATIVE_N = ["-1", "-1000000000000"]

_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from fockport.cli import main
for argv in json.loads(sys.argv[1]):
    print(main(argv), flush=True)
"""


def _boundary_cases(tmp_path):
    """(argv, exit code, text the error must hold) for huge and negative --n, --m and spec n."""
    cases = [(["rotate", "--n", "10", "--m", m, "--beta-deg", "45"], 3, "exceeds j")
             for m in ("1000000000000", "-1000000000000")]
    for i, n in enumerate(HUGE_N + NEGATIVE_N):
        huge = n in HUGE_N
        cases.append((["rotate", "--n", n, "--m", "0", "--beta-deg", "45"], 3,
                       "exceeds the cap" if huge else "non-negative"))
        for kind in ("ideal", "j0", "relative-phase-input"):
            cases.append((["teleport", "--resource", kind, "--n", n, "--beta-deg", "85",
                           "--alpha", "1", "--q", "3"], 3, "exceeds the cap" if huge else "N"))
        spec = tmp_path / f"spec{i}.json"
        spec.write_text(json.dumps(dict(SPEC_BASE, n=int(n))))
        cases.append((["sweep", "--spec-file", str(spec)], 3 if huge else 2,
                       "exceeds the cap" if huge else "positive integer"))
    return cases


def test_huge_and_negative_photon_numbers(tmp_path):
    src = os.path.dirname(os.path.dirname(fockport.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cases = _boundary_cases(tmp_path)
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps([c[0] for c in cases])],
                          env=env, capture_output=True, text=True, timeout=120)
    codes = proc.stdout.split()
    errors = proc.stderr.splitlines()
    assert len(codes) == len(errors) == len(cases), proc.stderr[-2000:]
    for (argv, code, text), got, error in zip(cases, codes, errors):
        label = " ".join(argv)
        assert got == str(code), f"exit {got} for {label}: {error}"
        assert error.startswith("fockport: error: ") and text in error, (label, error)
