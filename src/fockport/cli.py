"""Command-line front end: rotate / teleport / figure / sweep.

Angles are taken in degrees on the command line and converted once at this
boundary; all library internals work in radians.  Output is CSV (header
row, LF endings) or a single JSON document {"meta": ..., "rows": ...};
both carry the same numeric values at the configured precision.

Exit codes: 0 success, 2 usage error, 3 domain/numeric error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from ._version import __version__
from .errors import DomainError
from .states import coherent_coefficients
from .su2 import SpinJ, SpinProjection, SpinState, basis_state, rotate_about_x
from .sweep import (RESOURCE_KINDS, BetaGrid, SweepResult, SweepSpec,
                    figure_dataset, resource_for_kind, run_sweep, stamp)
from .teleport import _mean_fidelity, evaluate_all, evaluate_outcome


def _fmt(value, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return "%.*g" % (precision, value)
    return str(value)


def _json_value(value, precision: int):
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    # round through the same %g formatting as CSV so both formats agree
    return float("%.*g" % (precision, float(value)))


def write_csv(stream, columns, rows, precision: int):
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v, precision) for v in row) + "\n")


def write_json(stream, meta, columns, rows, precision: int):
    payload = {
        "meta": meta,
        "rows": [
            {col: _json_value(v, precision) for col, v in zip(columns, row)}
            for row in rows
        ],
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _emit(args, result: SweepResult) -> int:
    if getattr(args, "timestamp", False):
        result = stamp(result)
    out = open(args.output, "w", newline="") if args.output != "-" else sys.stdout
    try:
        if args.format == "csv":
            write_csv(out, result.columns, result.rows, args.precision)
        else:
            write_json(out, result.meta, result.columns, result.rows, args.precision)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _phase(z: complex) -> float:
    # deterministic branch (-pi, pi], zero amplitude reported as 0.0
    if z == 0:
        return 0.0
    p = math.atan2(z.imag, z.real)
    if p <= -math.pi + 1e-12:
        p = math.pi
    return p


def _angle_deg(value: float, name: str) -> float:
    """A beam-splitter angle given in degrees; must lie in [0, 180]."""
    if not 0.0 <= value <= 180.0:
        raise DomainError(f"{name} must lie in [0, 180] degrees, got {value}")
    return value


def _amplitude(entry) -> complex:
    """One [re, im] entry of a state file as a finite complex number."""
    if (isinstance(entry, list) and len(entry) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)):
        try:
            z = complex(float(entry[0]), float(entry[1]))
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if cmath.isfinite(z):
                return z
    raise DomainError(f"state file entries must be [re, im] pairs of finite numbers, "
                      f"got {entry!r}")


def _load_state_file(path: str, n_total: int) -> SpinState:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise DomainError("state file must hold a JSON list of [re, im] pairs")
    amps = np.array([_amplitude(entry) for entry in data], dtype=complex)
    if len(amps) != n_total + 1:
        raise DomainError(f"state file must hold {n_total + 1} amplitude pairs, got {len(amps)}")
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise DomainError("state file holds the zero vector")
    return SpinState(SpinJ(n_total), amps / norm)


def cmd_rotate(args) -> int:
    j = SpinJ(args.n)
    if args.input_state_file is not None:
        state = _load_state_file(args.input_state_file, args.n)
    else:
        state = basis_state(j, SpinProjection(args.m))
    rotated = rotate_about_x(state, math.radians(_angle_deg(args.beta_deg, "--beta-deg")))
    rows = []
    for i, amp in enumerate(rotated.amplitudes):
        m_prime = (2 * i - args.n) / 2.0
        rows.append((m_prime, float(amp.real), float(amp.imag),
                     float(abs(amp)), _phase(complex(amp))))
    meta = {"kind": "rotate", "n": args.n, "beta_deg": args.beta_deg, "version": __version__}
    return _emit(args, SweepResult(("m_prime", "re", "im", "modulus", "phase"), rows, meta))


def cmd_teleport(args) -> int:
    beta_deg = args.beta_deg
    if beta_deg is None:
        beta_deg = 90.0  # ignored by the ideal resource
    _angle_deg(beta_deg, "--beta-deg")
    resource = resource_for_kind(args.resource, args.n, math.radians(beta_deg))
    target = coherent_coefficients(args.alpha)
    if args.all_q:
        outcomes = evaluate_all(target, resource, args.parity_correction)
    else:
        outcomes = [evaluate_outcome(target, resource, args.q, args.parity_correction)]
    rows = [(res.q, res.fidelity, res.bound, res.probability) for res in outcomes]
    if args.all_q:
        rows.append(("average", _mean_fidelity(outcomes), None, None))
    meta = {"kind": "teleport", "resource": args.resource, "n": args.n,
            "beta_deg": beta_deg, "alpha": args.alpha,
            "parity_correction": bool(args.parity_correction), "version": __version__}
    return _emit(args, SweepResult(("q", "fidelity", "bound", "probability"), rows, meta))


def cmd_figure(args) -> int:
    return _emit(args, figure_dataset(args.id))


def _parse_spec_text(text: str) -> dict:
    text = text.strip()
    if not text:
        raise ValueError("spec file is empty")
    if text.startswith("{"):
        return json.loads(text)
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad spec line (expected key=value): {line!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    if not values:
        raise ValueError("spec file holds no key=value pairs")
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}

_SWEEP_KEYS = ("resource_kind", "n", "beta_start_deg", "beta_stop_deg",
               "beta_step_deg", "alpha", "q_list", "parity_correction")


def _spec_from_mapping(raw: dict) -> SweepSpec:
    unknown = sorted(set(raw) - set(_SWEEP_KEYS))
    if unknown:
        raise ValueError(
            "unknown spec keys: %s (valid keys: %s)"
            % (", ".join(unknown), ", ".join(_SWEEP_KEYS))
        )

    def get(key, default=None):
        return raw.get(key, default)

    kind = get("resource_kind")
    if kind is None:
        raise ValueError("resource_kind: missing")
    n = get("n")
    if n is None:
        raise ValueError("n: missing")
    q_raw = get("q_list", "all")
    if isinstance(q_raw, str) and q_raw != "all":
        q_list = [int(tok) for tok in q_raw.split(",") if tok.strip()]
    else:
        q_list = q_raw
    corr = get("parity_correction", False)
    if isinstance(corr, str):
        if corr.lower() not in _BOOLEANS:
            raise ValueError(f"parity_correction: expected one of {', '.join(_BOOLEANS)}, "
                             f"got {corr!r}")
        corr = _BOOLEANS[corr.lower()]
    grid = BetaGrid(
        math.radians(_angle_deg(float(get("beta_start_deg", 45.0)), "beta_start_deg")),
        math.radians(_angle_deg(float(get("beta_stop_deg", 90.0)), "beta_stop_deg")),
        math.radians(float(get("beta_step_deg", 0.5))))
    return SweepSpec(str(kind), int(n), grid, float(get("alpha", 0.0)), q_list, bool(corr))


def cmd_sweep(args) -> int:
    with open(args.spec_file) as fh:
        text = fh.read()
    spec = _spec_from_mapping(_parse_spec_text(text))
    return _emit(args, run_sweep(spec))


def _precision(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= 17:
        raise argparse.ArgumentTypeError(f"must be an integer in 1..17, got {text!r}")
    return value


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--precision", type=_precision, default=12,
                     help="significant digits for floating output, 1..17")
    sub.add_argument("--output", default="-", help="output file, '-' for stdout")
    sub.add_argument("--timestamp", action="store_true",
                     help="add a UTC timestamp to JSON metadata (off for byte-stable output)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockport",
        description="Beam-splitter entangled Fock states and number-phase teleportation fidelity")
    parser.add_argument("--version", action="version", version=f"fockport {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    rot = subs.add_parser("rotate", help="rotate a fixed-N state through a beam splitter")
    rot.add_argument("--n", type=int, required=True, help="total photon number N")
    src = rot.add_mutually_exclusive_group(required=True)
    src.add_argument("--m", type=int,
                     help="doubled spin projection 2m of the input basis state")
    src.add_argument("--input-state-file",
                     help="JSON file with N+1 [re, im] amplitude pairs")
    rot.add_argument("--beta-deg", type=float, required=True, help="angle in [0, 180]")
    _add_output_flags(rot)
    rot.set_defaults(func=cmd_rotate)

    tel = subs.add_parser("teleport", help="conditional teleportation fidelity per outcome q")
    tel.add_argument("--resource", choices=RESOURCE_KINDS, required=True)
    tel.add_argument("--n", type=int, required=True, help="resource photon number N")
    tel.add_argument("--beta-deg", type=float, default=None, help="angle in [0, 180]")
    tel.add_argument("--alpha", type=float, default=0.0)
    which = tel.add_mutually_exclusive_group(required=True)
    which.add_argument("--q", type=int)
    which.add_argument("--all-q", action="store_true")
    tel.add_argument("--parity-correction", action="store_true")
    _add_output_flags(tel)
    tel.set_defaults(func=cmd_teleport)

    fig = subs.add_parser("figure", help="emit a canned dataset (ids 1..7)")
    fig.add_argument("--id", type=int, choices=range(1, 8), required=True)
    _add_output_flags(fig)
    fig.set_defaults(func=cmd_figure)

    swp = subs.add_parser("sweep", help="run a sweep described by a spec file")
    swp.add_argument("--spec-file", required=True,
                     help="JSON or key=value file with resource_kind, n, beta_*_deg, alpha, q_list")
    _add_output_flags(swp)
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "command", None) == "teleport" and args.beta_deg is None \
                and args.resource != "ideal":
            parser.error(f"--beta-deg is required for resource {args.resource!r}")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DomainError as exc:
        print(f"fockport: error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"fockport: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
