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
import functools
import itertools
import json
import math
import operator
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from ._version import __version__
from .errors import DomainError
from .quasi_epr import phase_distribution, resource_from_state
from .states import coherent_coefficients
from .su2 import SpinJ, SpinProjection, SpinState, basis_state, rotate_about_x
from .sweep import (RESOURCE_KINDS, BetaGrid, SweepResult, SweepSpec,
                    figure_dataset, resource_for_kind, run_sweep, stamp)
from .teleport import _mean_fidelity, evaluate_all, evaluate_outcome


# %g text of a non-finite float -> what json writes for it
_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


class _RowRenderer:
    """Renders table rows a block at a time through one % template per tuple of cell types.

    CSV (no keys): a line of %d for integers, %.{precision}g for floats, %s for
    any other cell and nothing for None.  JSON (the column names as keys): an
    object in json's indent=2 layout with None as null and each other cell as
    text converted once: integers as %d, strings escaped as json escapes them,
    any other cell rounded through %.{precision}g and written as json writes it.

    A block of up to BLOCK_ROWS rows is written by one %.  Its template is the
    row template of each run of rows with one tuple of cell types, repeated
    once per row of the run; a block whose rows differ in length is split
    into runs of one length first.  The cell types are read per column, and
    per row only where a run starts.
    """

    BLOCK_ROWS = 1024

    def __init__(self, precision: int, keys=None):
        self.g = "%%.%dg" % precision
        self.keys = keys
        self.sep = "" if keys is None else ",\n    "
        self.templates = {}

    def blocks(self, rows):
        """The text of the rows, one string per block, rows joined by the format's separator."""
        rows = iter(rows)
        while block := list(map(tuple, itertools.islice(rows, self.BLOCK_ROWS))):
            yield self._render(block)

    def _render(self, block: list) -> str:
        """The text of a non-empty list of row tuples, by one %."""
        lengths = list(map(len, block))
        if lengths.count(lengths[0]) != len(block):
            runs = _runs(len(block), [lengths])
            return self.sep.join([self._render(block[a:b]) for a, b in runs])
        columns = list(zip(*block))
        types = [list(map(type, column)) for column in columns]
        mixed = [kinds for kinds in types if kinds.count(kinds[0]) != len(kinds)]
        templates, args = [], []
        for a, b in _runs(len(block), mixed):
            key = tuple(map(type, block[a]))
            if key not in self.templates:
                self.templates[key] = self._build(key)
            template, fill = self.templates[key]
            templates.append(self.sep.join(itertools.repeat(template, b - a)))
            if fill is not None:
                args.append(fill(columns if b - a == len(block) else [c[a:b] for c in columns]))
        rows = block if self.keys is None else itertools.chain.from_iterable(args)
        return self.sep.join(templates) % tuple(itertools.chain.from_iterable(rows))

    def _number(self, value) -> str:
        text = self.g % value
        return _JSON_NON_FINITE.get(text) or repr(float(text))

    def _build(self, types):
        """(template, fill): fill maps a run's columns to its rows of arguments; None for CSV."""
        kinds = [None if t is type(None) else int if issubclass(t, (int, np.integer)) else
                 float if issubclass(t, float) else str if issubclass(t, str) else object
                 for t in types]
        if self.keys is None:
            slots = {None: "%.0s", int: "%d", float: self.g, str: "%s", object: "%s"}
            return ",".join(slots[kind] for kind in kinds) + "\n", None
        kinds = kinds[:len(self.keys)]
        to_text = {int: "%d".__mod__, str: encode_basestring_ascii,
                   float: self._number, object: self._number}
        items = [encode_basestring_ascii(key).replace("%", "%%") + (": %s" if kind else ": null")
                 for key, kind in zip(self.keys, kinds)]
        template = "{\n      " + ",\n      ".join(items) + "\n    }" if items else "{}"
        cells = [(i, to_text[kind]) for i, kind in enumerate(kinds) if kind]

        def fill(columns):
            return zip(*[map(convert, columns[i]) for i, convert in cells])

        return template, fill


def _runs(count: int, keys: list):
    """(start, stop) of each run of rows over which every list in keys holds one value."""
    cuts = {0, count}
    for values in keys:
        cuts.update(itertools.compress(itertools.count(1), map(operator.ne, values, values[1:])))
    cuts = sorted(cuts)
    return zip(cuts, cuts[1:])


def write_csv(stream, columns, rows, precision: int):
    stream.write(",".join(columns) + "\n")
    for text in _RowRenderer(precision).blocks(rows):
        stream.write(text)


def write_json(stream, meta, columns, rows, precision: int):
    # the layout of json.dump({"meta": meta, "rows": [...]}, indent=2), a block of rows at a time
    stream.write('{\n  "meta": %s,\n  "rows": [' % json.dumps(meta, indent=2).replace("\n", "\n  "))
    sep = "\n    "
    for text in _RowRenderer(precision, columns).blocks(rows):
        stream.write(sep + text)
        sep = ",\n    "
    stream.write("]\n}\n" if sep == "\n    " else "\n  ]\n}\n")


def _emit(args, result: SweepResult) -> int:
    if args.timestamp:
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
    amps = rotated.amplitudes
    m_primes = (2 * np.arange(args.n + 1) - args.n) / 2.0
    # deterministic branch (-pi, pi]; only an exactly zero amplitude reports phase 0.0
    phases = phase_distribution(resource_from_state(rotated), zero_tol=math.ulp(0.0))
    rows = list(zip(m_primes.tolist(), amps.real.tolist(), amps.imag.tolist(),
                    np.abs(amps).tolist(), phases.tolist()))
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


def _spec_number(value, key: str, integer: bool = False):
    """A spec value as a number: a JSON number or, from a key = value file, its text."""
    types = (str, int) if integer else (str, int, float)
    if isinstance(value, types) and not isinstance(value, bool):
        try:
            return int(value) if integer else float(value)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{key}: expected {'an integer' if integer else 'a number'}, got {value!r}")


def _spec_from_mapping(raw: dict) -> SweepSpec:
    unknown = sorted(set(raw) - set(_SWEEP_KEYS))
    if unknown:
        raise ValueError(
            "unknown spec keys: %s (valid keys: %s)"
            % (", ".join(unknown), ", ".join(_SWEEP_KEYS))
        )
    kind = raw.get("resource_kind")
    if kind is None:
        raise ValueError("resource_kind: missing")
    q_list = raw.get("q_list", "all")
    if q_list != "all":
        if isinstance(q_list, str):
            q_list = [tok for tok in q_list.split(",") if tok.strip()]
        if not isinstance(q_list, list):
            raise ValueError(f"q_list: expected 'all' or a list of integers, got {q_list!r}")
        q_list = [_spec_number(q, "q_list", integer=True) for q in q_list]
    corr = _BOOLEANS.get(str(raw.get("parity_correction", False)).lower())
    if corr is None:
        raise ValueError(f"parity_correction: expected a JSON boolean or one of "
                         f"{', '.join(_BOOLEANS)}, got {raw['parity_correction']!r}")
    start = _spec_number(raw.get("beta_start_deg", 45.0), "beta_start_deg")
    stop = _spec_number(raw.get("beta_stop_deg", 90.0), "beta_stop_deg")
    step = _spec_number(raw.get("beta_step_deg", 0.5), "beta_step_deg")
    grid = BetaGrid(math.radians(_angle_deg(start, "beta_start_deg")),
                    math.radians(_angle_deg(stop, "beta_stop_deg")), math.radians(step))
    return SweepSpec(str(kind), _spec_number(raw.get("n"), "n", integer=True), grid,
                     _spec_number(raw.get("alpha", 0.0), "alpha"), q_list, corr)


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "teleport" and args.beta_deg is None \
                and args.resource != "ideal":
            parser.error(f"--beta-deg is required for resource {args.resource!r}")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DomainError as exc:
        print(f"fockport: error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"fockport: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
