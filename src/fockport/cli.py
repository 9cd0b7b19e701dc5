"""Command-line front end: rotate / teleport / figure / sweep.

Angles are taken in degrees on the command line and converted once at this
boundary; all library internals work in radians.  Output is CSV (header
row, LF endings) or a single JSON document {"meta": ..., "rows": ...};
both carry the same numeric values at the configured precision.

Exit codes: 0 success, 1 stdout closed early (`| head`), 2 usage error, 3 domain/numeric error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import operator
import os
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from ._version import __version__
from .errors import DomainError, _check_real, _shown
from .quasi_epr import phase_distribution, resource_from_state
from .states import coherent_coefficients
from .su2 import SpinJ, SpinProjection, SpinState, basis_state, rotate_about_x
from .sweep import (RESOURCE_KINDS, BetaGrid, SweepResult, SweepSpec, _figure_table,
                    _sweep_table, resource_for_kind, stamp)
from .teleport import _evaluate, _mean_fidelity


# %g text of a non-finite float -> what json writes for it
_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _height(block) -> int:
    """The rows of a column block (a sequence per column)."""
    return len(block[0])


@functools.cache
def _kind(t: type):
    """How a cell of type t is written: None, int, float, str or object."""
    return (None if t is type(None) else int if issubclass(t, (int, np.integer)) else
            float if issubclass(t, float) else str if issubclass(t, str) else object)


def _nullable(convert, null: str):
    """convert for a column that also holds None cells, written as null."""
    def texts(column):
        found = iter(convert([cell for cell in column if cell is not None]))
        return [null if cell is None else next(found) for cell in column]
    return texts


class _RowRenderer:
    """Renders column blocks, cut into blocks of rows, through one % template per run of rows.

    CSV: a line of %d for integers, %.{precision}g for floats, %s for any other
    cell and nothing for None.  JSON (the column names as keys): an object in
    json's indent=2 layout with None as null and each other cell as text
    converted once: integers as %d, strings escaped as json escapes them, any
    other cell rounded through %.{precision}g and written as json writes it.

    A block of BLOCK_ROWS rows (the last may hold fewer) is cut from the column
    blocks it is given, across their edges, and written by one % over its cells
    (CSV) or their texts (JSON) in row order, filled a column at a time by slice
    assignment.  A column block holds a column per name, all of one length
    (else ValueError), each of one kind of cell or one kind and None (else
    TypeError).  The kinds are read a column at a time (a range holds
    integers), and the part of a column block that falls in a block of rows is
    one run of rows, written through one row template.  A column that holds
    one object over a run of two or more rows is formatted once into that
    run's template and takes no arguments.  Only a column whose first and last
    cells in the run are one object is read in full, and by identity:
    0.0 == -0.0, yet the two are written apart.
    """

    BLOCK_ROWS = 1024

    def __init__(self, precision: int, names, as_json: bool = False):
        self.g = "%%.%dg" % precision
        self.floats, self.short = self.g + ",", precision <= 15
        self.names, self.json = names, as_json
        self.sep = ",\n    " if as_json else ""
        self.templates = {}

    def blocks(self, blocks):
        """The text of the column blocks' rows, a string per block of rows joined by sep."""
        pieces, size = [], 0
        for block in blocks:
            height, start = _height(block), 0
            # checked whole: the runs cut from the block would cut a longer column to length
            if len(block) != len(self.names):
                raise ValueError(f"a block of {len(block)} columns under {len(self.names)} names")
            for name, column in zip(self.names, block):
                if len(column) != height:
                    raise ValueError(f"column {name!r} holds {len(column)} cells, not {height}")
            while start < height:
                stop = min(height, start + self.BLOCK_ROWS - size)
                pieces.append([column[start:stop] for column in block])
                size, start = size + stop - start, stop
                if size == self.BLOCK_ROWS:
                    yield self._render(pieces)
                    pieces, size = [], 0
        if pieces:
            yield self._render(pieces)

    def _render(self, pieces: list) -> str:
        """The text of a block of rows given as column blocks, by one %."""
        templates, args = [], []
        for columns in pieces:
            self._run(columns, _height(columns), templates, args)
        return self.sep.join(templates) % tuple(args)

    def _run(self, columns, rows: int, templates: list, args: list):
        """Appends the template and % arguments of a run of rows given as a column block."""
        key, constant = [], {}
        for c, column in enumerate(columns):
            first = column[0]
            if type(column) is range:
                kinds = {int}
            elif first is not None and rows > 1 and first is column[-1] and all(
                    map(operator.is_, column, itertools.repeat(first))):
                kinds, constant[c] = {_kind(type(first))}, first
            else:
                kinds = set(map(_kind, set(map(type, column))))
            nullable = len(kinds) == 2 and None in kinds
            if len(kinds) > 1 + nullable:  # else a float would be written through %d
                raise TypeError(f"column {c} of a block holds cells of more than one kind")
            key.append(((kinds - {None} or kinds).pop(), nullable))
        key = tuple(key)
        if key not in self.templates:
            self.templates[key] = self._build(key)
        template, pieces, converts = self.templates[key]
        if constant:
            template = self._row([(pieces[c] % tuple(converts[c]((constant[c],)))).replace(
                "%", "%%") if c in constant else p for c, p in enumerate(pieces)])
        templates.append(self.sep.join(itertools.repeat(template, rows)))
        live = [f(columns[c]) for c, f in converts.items() if c not in constant]
        start = len(args)  # the arguments of the columns, interleaved into row order
        args += itertools.repeat(None, rows * len(live))
        for c, cells in enumerate(live):
            args[start + c::len(live)] = cells

    def _number(self, value) -> str:
        text = self.g % value
        return _JSON_NON_FINITE.get(text) or repr(float(text))

    def _numbers(self, column) -> list:
        """_number of each float of a column, by one % where every text is its own repr.

        A %g text of at most 15 digits is the shortest for its double unless that is subnormal,
        and repr writes it as %g does but for e+ and the .0 of an integral text.  A column whose
        text holds e+, inf, nan or e-3dd (every subnormal's), or of 16-17 digits, goes cell by cell.
        """
        if self.short:
            text = self.floats * len(column) % tuple(column)
            if not ("e+" in text or "n" in text or re.search(r"e-3\d\d", text)):
                return [t if "." in t or "e" in t else t + ".0" for t in text[:-1].split(",")]
        return list(map(self._number, column))

    def _row(self, pieces) -> str:
        """The row template of the texts of its cells."""
        if not self.json:
            return ",".join(pieces) + "\n"
        return "{\n      " + ",\n      ".join(pieces) + "\n    }" if pieces else "{}"

    def _build(self, key):
        """(row template, the text of each cell in it, {column: map from the column's cells to
        its arguments} for each column that takes arguments), given (kind, holds None too) per
        column.  CSV passes the cells of a column of one kind as they are."""
        if not self.json:
            slots = {None: "", int: "%d", float: self.g, str: "%s", object: "%s"}
            to_text = {int: "%d".__mod__, float: self.g.__mod__, str: str, object: str}
            pieces = ["%s" if nullable else slots[kind] for kind, nullable in key]
            converts = {c: _nullable(functools.partial(map, to_text[kind]), "") if nullable else
                        lambda column: column for c, (kind, nullable) in enumerate(key) if kind}
            return self._row(pieces), pieces, converts
        to_text = {int: functools.partial(map, "%d".__mod__),
                   str: functools.partial(map, encode_basestring_ascii),
                   float: self._numbers, object: functools.partial(map, self._number)}
        pieces = [encode_basestring_ascii(name).replace("%", "%%") + (": %s" if kind else ": null")
                  for name, (kind, _) in zip(self.names, key)]
        converts = {c: _nullable(to_text[kind], "null") if nullable else to_text[kind]
                    for c, (kind, nullable) in enumerate(key) if kind}
        return self._row(pieces), pieces, converts


def write_csv(stream, columns, blocks, precision: int):
    """Writes column blocks as CSV: the column names, then a line per row."""
    stream.write(",".join(columns) + "\n")
    for text in _RowRenderer(precision, columns).blocks(blocks):
        stream.write(text)


def write_json(stream, meta, columns, blocks, precision: int):
    """Writes column blocks as one JSON document {"meta": meta, "rows": [an object per row]}."""
    # the layout of json.dump({"meta": meta, "rows": [...]}, indent=2), a block of rows at a time
    stream.write('{\n  "meta": %s,\n  "rows": [' % json.dumps(meta, indent=2).replace("\n", "\n  "))
    sep = "\n    "
    for text in _RowRenderer(precision, columns, as_json=True).blocks(blocks):
        stream.write(sep + text)
        sep = ",\n    "
    stream.write("]\n}\n" if sep == "\n    " else "\n  ]\n}\n")


def _emit(args, result: SweepResult) -> int:
    if args.timestamp:
        result = stamp(result)
    # the first row is computed before any output: an error up to it leaves --output as it was
    blocks = iter(result.rows)
    blocks = itertools.chain(list(itertools.islice(filter(_height, blocks), 1)), blocks)
    out = open(args.output, "w", newline="") if args.output != "-" else sys.stdout
    try:
        if args.format == "json":
            write_json(out, result.meta, result.columns, blocks, args.precision)
        else:
            write_csv(out, result.columns, blocks, args.precision)
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
    if isinstance(entry, list) and len(entry) == 2:
        try:
            return complex(*(_check_real(v, "amplitude") for v in entry))
        except DomainError:
            pass
    raise DomainError(f"state file entries must be [re, im] pairs of finite numbers, "
                      f"got {_shown(entry)}")


def _parsed(path: str, kind: str, parse):
    """parse(text of the file at path); text that is not UTF-8 or not parsable is a usage error
    that names the file's kind and path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(fh.read())
        except RecursionError:
            raise ValueError(f"{kind} {_shown(path)} is JSON nested too deeply to parse") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{kind} {_shown(path)} cannot be parsed: {exc}") from None


def _load_state_file(path: str, n_total: int) -> SpinState:
    data = _parsed(path, "state file", json.loads)
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
    m_primes = rotated.twice_m_values() / 2.0
    # deterministic branch (-pi, pi]; only an exactly zero amplitude reports phase 0.0
    phases = phase_distribution(resource_from_state(rotated), zero_tol=math.ulp(0.0))
    block = [m_primes.tolist(), amps.real.tolist(), amps.imag.tolist(), np.abs(amps).tolist(),
             phases.tolist()]
    meta = {"kind": "rotate", "n": args.n, "beta_deg": args.beta_deg, "version": __version__}
    return _emit(args, SweepResult(("m_prime", "re", "im", "modulus", "phase"), [block], meta))


def cmd_teleport(args) -> int:
    beta_deg = 90.0 if args.beta_deg is None else args.beta_deg  # 90 for ideal, which ignores it
    _angle_deg(beta_deg, "--beta-deg")
    resource = resource_for_kind(args.resource, args.n, math.radians(beta_deg))
    target = coherent_coefficients(args.alpha)
    qs = range(resource.N + target.k_max + 1) if args.all_q else (args.q,)
    blocks = [_evaluate(target, resource.s, qs, args.parity_correction)]
    if args.all_q:  # a block of its own: each column of the q rows holds one kind
        blocks.append([["average"], [_mean_fidelity(blocks[0])], [None], [None]])
    meta = {"kind": "teleport", "resource": args.resource, "n": args.n,
            "beta_deg": beta_deg, "alpha": args.alpha,
            "parity_correction": bool(args.parity_correction), "version": __version__}
    return _emit(args, SweepResult(("q", "fidelity", "bound", "probability"), blocks, meta))


def cmd_figure(args) -> int:
    return _emit(args, _figure_table(args.id))


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
            raise ValueError(f"bad spec line (expected key=value): {_shown(line)}")
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
    raise ValueError(f"{key}: expected {'an integer' if integer else 'a number'}, "
                     f"got {_shown(value)}")


def _spec_from_mapping(raw: dict) -> SweepSpec:
    unknown = sorted(set(raw) - set(_SWEEP_KEYS))
    if unknown:  # a few names, each cut to 40 characters, and the count of the rest
        names = ", ".join(key if len(key) <= 40 else key[:37] + "..." for key in unknown[:5])
        more = f" and {len(unknown) - 5} more" if len(unknown) > 5 else ""
        raise ValueError(f"unknown spec keys: {names}{more} (valid keys: {', '.join(_SWEEP_KEYS)})")
    kind = raw.get("resource_kind")
    if kind is None:
        raise ValueError("resource_kind: missing")
    q_list = raw.get("q_list", "all")
    if q_list != "all":
        if isinstance(q_list, str):
            q_list = [tok for tok in q_list.split(",") if tok.strip()]
        if not isinstance(q_list, list):
            raise ValueError(f"q_list: expected 'all' or a list of integers, got {_shown(q_list)}")
        q_list = [_spec_number(q, "q_list", integer=True) for q in q_list]
    corr = _BOOLEANS.get(str(raw.get("parity_correction", False)).lower())
    if corr is None:
        raise ValueError(f"parity_correction: expected a JSON boolean or one of "
                         f"{', '.join(_BOOLEANS)}, got {_shown(raw['parity_correction'])}")
    start = _spec_number(raw.get("beta_start_deg", 45.0), "beta_start_deg")
    stop = _spec_number(raw.get("beta_stop_deg", 90.0), "beta_stop_deg")
    step = _spec_number(raw.get("beta_step_deg", 0.5), "beta_step_deg")
    grid = BetaGrid(math.radians(_angle_deg(start, "beta_start_deg")),
                    math.radians(_angle_deg(stop, "beta_stop_deg")), math.radians(step))
    # a non-finite or negative alpha is a domain error (exit 3) as in teleport, not a spec error
    alpha = _check_real(_spec_number(raw.get("alpha", 0.0), "alpha"), "alpha", 0)
    return SweepSpec(str(kind), _spec_number(raw.get("n"), "n", integer=True), grid, alpha,
                     q_list, corr)


def cmd_sweep(args) -> int:
    spec = _spec_from_mapping(_parsed(args.spec_file, "spec file", _parse_spec_text))
    return _emit(args, _sweep_table(spec))


def _precision(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= 17:
        raise argparse.ArgumentTypeError(f"must be an integer in 1..17, got {_shown(text)}")
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
    """build_parser() once per process; parsing leaves no state in it.

    What is alive by now (numpy, fockport, the parser: ~21,000 objects) lives as long
    as the process, so gc.freeze() keeps full collections from walking it again; such
    a collection took 6-10 ms, in whichever command it fell, and takes 0.03 ms after.
    """
    parser = build_parser()
    gc.freeze()
    return parser


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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter shutdown
        return code
    except SystemExit as exc:
        return int(exc.code or 0)
    except BrokenPipeError:  # the reader left, as `| head` does; shutdown flushes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DomainError as exc:
        print(f"fockport: error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"fockport: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
