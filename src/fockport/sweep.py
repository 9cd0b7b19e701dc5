"""Deterministic grid sweeps over (beta, q) and canned figure datasets.

All angles of a grid go through the column kernel and the teleport q loop
together, a block of angles at a time so memory stays bounded; rows are
emitted in canonical (beta ascending, q ascending) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from ._version import __version__
from .errors import (DomainError, ImpossibleOutcomeError, SizeCapError, _check_count,
                     _check_real, _check_unit_norm, _is_integer, _shown)
from .quasi_epr import (FilterOrder, QuasiEprResource, _qualities, beta_q, filtered_input,
                        ideal_resource, phase_distribution)
from .states import (RelativePhaseSpec, coherent_coefficients,
                     relative_phase_state)
from .su2 import LANE_BUDGET, _rotated
from .teleport import _evaluate, high_fidelity_region

_DEFAULT_STEP = math.radians(0.5)

# Largest beta grid a sweep or angle search may build: a 0.01 degree step
# across the whole [0, 180] degree range.
MAX_GRID_POINTS = 18001

RESOURCE_KINDS = ("j0", "2pt", "3pt", "4pt", "ideal", "relative-phase-input")

_SWEEP_COLUMNS = ("beta_deg", "q", "fidelity", "bound", "probability",
                  "min_modulus", "zero_count", "flatness", "entropy")

# rows of a column block of a sweep, in whole angles: at least one, else as many as fit
_BLOCK_ROWS = 1024

# filter level (doubled) behind each beam-splitter resource kind
_KIND_LEVEL = {"j0": 0, "2pt": 1, "3pt": 2, "4pt": 3}


@dataclass(frozen=True)
class BetaGrid:
    """Inclusive arithmetic grid over beta, in radians."""

    start: float
    stop: float
    step: float = _DEFAULT_STEP

    def values(self) -> np.ndarray:
        start, stop, step = (_check_real(getattr(self, f), f) for f in ("start", "stop", "step"))
        if step <= 0.0 or stop < start:
            return np.array([])
        points = (stop - start) / step + 1e-9
        if not points < MAX_GRID_POINTS:
            raise SizeCapError(f"beta grid exceeds {MAX_GRID_POINTS} points")
        return start + step * np.arange(int(math.floor(points)) + 1)


@dataclass(frozen=True)
class SweepSpec:
    """Full description of one sweep: resource, grid, target, outcomes."""

    resource_kind: str
    N: int
    beta_grid: BetaGrid
    alpha: float = 0.0
    q_list: object = "all"
    parity_correction: bool = False

    def validate(self):
        errors = []
        if self.resource_kind not in RESOURCE_KINDS:
            errors.append(f"resource_kind: unknown kind {_shown(self.resource_kind)}")
        if not _is_integer(self.N) or self.N < 1:
            errors.append(f"N: must be a positive integer, got {_shown(self.N)}")
        elif self.resource_kind in _KIND_LEVEL and self.N % 2 != _KIND_LEVEL[self.resource_kind] % 2:
            need = "odd" if _KIND_LEVEL[self.resource_kind] % 2 else "even"
            errors.append(f"N: resource {self.resource_kind!r} requires {need} N, got {self.N}")
        try:
            if len(self.beta_grid.values()) == 0:
                errors.append("beta_grid: empty grid: step must be > 0 and start <= stop")
        except SizeCapError:
            raise
        except DomainError as exc:
            errors.append(f"beta_grid: {exc}")
        try:
            _check_real(self.alpha, "alpha", 0)
        except DomainError as exc:
            errors.append(str(exc))
        if not (isinstance(self.q_list, str) and self.q_list == "all"):
            # a generator would be used up here; an array compares elementwise to "all"
            qs = self.q_list if isinstance(self.q_list, (list, tuple, range)) else [None]
            if not all(map(_is_integer, qs)):
                errors.append("q_list: must be 'all' or a list of integers, "
                              f"got {_shown(self.q_list)}")
            elif any(q < 0 for q in qs):
                errors.append("q_list: entries must be non-negative")
        if not isinstance(self.parity_correction, (bool, np.bool_)):
            errors.append("parity_correction: must be a bool, "
                          f"got {_shown(self.parity_correction)}")
        if errors:
            raise ValueError("invalid sweep spec: " + "; ".join(errors))

    def echo(self) -> dict:
        return {
            "resource_kind": self.resource_kind,
            "N": int(self.N),
            "beta_start_deg": math.degrees(self.beta_grid.start),
            "beta_stop_deg": math.degrees(self.beta_grid.stop),
            "beta_step_deg": math.degrees(self.beta_grid.step),
            "alpha": float(self.alpha),
            "q_list": self.q_list if self.q_list == "all" else [int(q) for q in self.q_list],
            "parity_correction": bool(self.parity_correction),
        }


@dataclass(frozen=True)
class SweepResult:
    """Ordered table plus reproducibility metadata: rows holds row tuples from run_sweep and
    figure_dataset, and inside the CLI column blocks, as the grid paths compute them."""

    columns: tuple
    rows: list
    meta: dict


def resources_for_kind(kind: str, N: int, betas) -> list:
    """The resources behind a sweep kind at every angle of a grid.

    The input state is built once and the angles are rotated a block at a time.
    """
    return [QuasiEprResource(N, s) for _, rows in _grid_blocks(kind, N, list(betas)) for s in rows]


def resource_for_kind(kind: str, N: int, beta: float):
    """Build the resource behind a sweep kind at one grid point."""
    return resources_for_kind(kind, N, [beta])[0]


def _grid_blocks(kind: str, N: int, betas):
    """(angles, resource amplitudes at them) a block of angles at a time, to bound memory.

    The input state is built once; a block is one (angles, N+1) array of unit-norm rows.
    """
    if kind == "ideal":
        flat = ideal_resource(N).s  # does not depend on beta, yet bad angles are refused
        betas = [_check_real(beta, "beta") for beta in betas]
    elif kind == "relative-phase-input":
        state = relative_phase_state(RelativePhaseSpec(N, 0))
    elif kind in _KIND_LEVEL:
        state = filtered_input(N, FilterOrder(_KIND_LEVEL[kind]))
    else:
        raise DomainError(f"unknown resource kind {_shown(kind)}")
    block = max(1, LANE_BUDGET // (int(N) + 1))  # a numpy unsigned N would wrap in N + 1
    for lo in range(0, len(betas), block):
        angles = betas[lo:lo + block]
        rows = np.tile(flat, (len(angles), 1)) if kind == "ideal" else _rotated(state, angles)
        _check_unit_norm(rows, "resource")
        yield angles, rows


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate fidelity/bound/probability and quality metrics over the grid.

    Row layout: (beta_deg, q, fidelity, bound, probability, min_modulus,
    zero_count, flatness, entropy), beta ascending then q ascending; row
    count = grid size x outcome count; unreachable outcomes carry fidelity
    None and probability 0.
    """
    return _listed(_sweep_table(spec))


def _listed(table: SweepResult) -> SweepResult:
    """A table with its column blocks listed as row tuples."""
    return replace(table, rows=[row for block in table.rows for row in zip(*block)])


def _sweep_table(spec: SweepSpec) -> SweepResult:
    """run_sweep's result with its rows as column blocks, computed as they are read."""
    spec.validate()
    meta = {"kind": "sweep", "spec": spec.echo(), "version": __version__}
    return SweepResult(_SWEEP_COLUMNS, _sweep_blocks(spec), meta)


def _sweep_blocks(spec: SweepSpec, qualities: bool = True):
    """The valid spec's rows as column blocks of whole angles, a block of angles at a time;
    without qualities, only their first five columns, and no quality is computed."""
    N = int(spec.N)  # a numpy unsigned N would wrap in N + k_max
    target = coherent_coefficients(spec.alpha)
    qs = range(N + target.k_max + 1) if spec.q_list == "all" else spec.q_list
    for angles, block in _grid_blocks(spec.resource_kind, N, spec.beta_grid.values()):
        # per q: F over the angles, the bound, P over the angles
        qs, fs, bounds, ps = _evaluate(target, block, qs, spec.parity_correction)
        # angles per column block; len(qs) is read once the grid has checked N
        step = max(1, _BLOCK_ROWS // max(1, len(qs)))
        per_angle = [list(map(math.degrees, angles))]  # beta_deg, then the qualities
        if qualities:
            per_angle += map(_qualities(block).get, _SWEEP_COLUMNS[5:])
        for lo in range(0, len(angles), step):
            part = slice(lo, lo + step)
            deg, *tail = (_repeated(cells[part], len(qs)) for cells in per_angle)
            k = len(angles[part])
            yield [deg, qs * k, _interleaved([f[part] for f in fs]), bounds * k,
                   _interleaved([p[part] for p in ps]), *tail]
        del fs, ps, per_angle  # before the next block is computed: one block's outcomes at a time


def _interleaved(parts: list) -> list:
    """The cells of equally long parts taken in turn: the first of each part, then the second."""
    cells = [None] * (len(parts) * len(parts[0])) if parts else []
    for i, part in enumerate(parts):
        cells[i::len(parts)] = part
    return cells


def _repeated(cells: list, n: int) -> list:
    """Each cell n times in turn."""
    return [cells[0]] * n if len(cells) == 1 else _interleaved([cells] * n)


def find_beta_q_numeric(N: int, resource_kind: str = "j0",
                        objective: str = "min_modulus",
                        step: float = _DEFAULT_STEP) -> float:
    """Grid argmax of an EPR-quality objective over beta in (0, pi/2].

    Objectives: "min_modulus" (default; maximize the smallest amplitude
    modulus), "entropy" (maximize modulus entropy), "min_fidelity_target"
    (maximize the worst conditional fidelity over the high-fidelity window
    of a unit-alpha target, correction on).  Ties break toward smaller
    beta.  The default follows the flatness reading of "best quasi-EPR
    state": it tracks (pi/2)(1-1/N) to within one grid step for N >= 10.
    The ideal resource does not depend on beta, so it has no best angle.
    """
    N = _check_count(N, "N", 1)
    if resource_kind == "ideal":
        raise DomainError("the ideal resource does not depend on beta; it has no best angle")
    if objective not in ("min_modulus", "entropy", "min_fidelity_target"):
        raise DomainError(f"unknown objective {_shown(objective)}")
    betas = BetaGrid(0.0, math.pi / 2, step).values()[1:]
    if len(betas) == 0:
        raise DomainError(f"step = {step} leaves no angle in (0, pi/2]" if step > 0.0
                          else f"step must be > 0, got {step}")
    if objective == "min_fidelity_target":
        target = coherent_coefficients(1.0)
        region = high_fidelity_region(1.0, N)
        if region is None:
            raise DomainError(f"no high-fidelity window at N = {N}")
        q_lo, q_hi = region

    scores = []
    for _, block in _grid_blocks(resource_kind, N, betas):
        if objective == "min_fidelity_target":
            scores += _worst_fidelities(target, block, range(q_lo, q_hi + 1))
        else:
            scores += _qualities(block)[objective]
    return float(betas[int(np.argmax(scores))])


def _worst_fidelities(target, s, qs) -> list:
    """Smallest fidelity(target, ., q, True) over qs for each resource row of the stack s."""
    fs = np.array(_evaluate(target, s, qs, True)[1], dtype=float)  # q by row; a None reads nan
    impossible = np.isnan(fs)
    if impossible.any():  # named at the first resource row with one
        q = qs[impossible[:, impossible.any(axis=0).argmax()].argmax()]
        raise ImpossibleOutcomeError(f"outcome q = {q} has zero probability")
    return fs.min(axis=0).tolist()


def _modulus_blocks(kind: str, N: int, betas, with_phase: bool = False):
    """The (beta_deg, n, modulus[, phase]) columns of the resource, a block of angles at a time;
    n is a range at one angle, as figure 4 has at N = 20000."""
    for angles, block in _grid_blocks(kind, N, betas):
        n = range(N + 1) if len(angles) == 1 else list(range(N + 1)) * len(angles)
        columns = [_repeated(list(map(math.degrees, angles)), N + 1), n,
                   np.abs(block).ravel().tolist()]
        if with_phase:
            columns.append([phase for s in block for phase in
                            phase_distribution(QuasiEprResource(N, s)).tolist()])
        yield columns


_QUARTER_TURN = BetaGrid(0.0, math.pi / 2).values()
_UPPER_HALF = BetaGrid(math.pi / 4, math.pi / 2)

# figure id -> (resource kind, N, angles, with phases); rows are moduli vs beta
_MODULUS_FIGURES = {
    1: ("relative-phase-input", 20, _QUARTER_TURN, False),
    2: ("j0", 20, _QUARTER_TURN, False),
    3: ("j0", 20, (math.radians(85.5), math.radians(90.0)), True),
    5: ("2pt", 21, _QUARTER_TURN, False),
}
# figure id -> sweep whose first five columns are the dataset
_SWEEP_FIGURES = {
    6: SweepSpec("2pt", 21, _UPPER_HALF, alpha=3.0),
    7: SweepSpec("j0", 20, _UPPER_HALF, alpha=3.0, q_list=(19,), parity_correction=True),
}
_LARGE_N = (200, 2000, 20000)  # figure 4, each at beta_q(N)


def figure_dataset(figure_id: int) -> SweepResult:
    """Dataset behind one of the seven canned figures.

    1: rotated relative-phase input, N=20, moduli vs beta in [0, 90] deg.
    2: rotated level-0 input, N=20, moduli vs beta.
    3: level-0 input, N=20, moduli and phases at 85.5 and 90 deg.
    4: level-0 input at beta_q(N) for N in {200, 2000, 20000}, moduli.
    5: rotated 2pt input, N=21, moduli vs beta.
    6: fidelity/bound/probability vs (beta, q), 2pt, N=21, alpha=3.
    7: fidelity/bound/probability vs beta at q=19, level-0, N=20, alpha=3,
       parity correction on.
    """
    return _listed(_figure_table(figure_id))


def _figure_table(figure_id: int) -> SweepResult:
    """figure_dataset's result with its rows as column blocks, computed as they are read."""
    figure_id = _check_count(figure_id, "figure_id", 1)
    meta = {"kind": "figure", "figure": figure_id}
    if figure_id in _MODULUS_FIGURES:
        kind, N, betas, with_phase = _MODULUS_FIGURES[figure_id]
        columns = ("beta_deg", "n", "modulus") + (("phase",) if with_phase else ())
        meta.update(resource_kind=kind, N=N)
        blocks = _modulus_blocks(kind, N, betas, with_phase)
    elif figure_id == 4:
        columns = ("N", "beta_deg", "n", "modulus")
        meta.update(resource_kind="j0")
        blocks = ([[N] * (N + 1), *block] for N in _LARGE_N
                  for block in _modulus_blocks("j0", N, [beta_q(N)]))
    elif figure_id in _SWEEP_FIGURES:
        spec = _SWEEP_FIGURES[figure_id]
        columns = _SWEEP_COLUMNS[:5]
        meta.update(spec=spec.echo())
        blocks = _sweep_blocks(spec, qualities=False)
    else:
        raise DomainError(f"unknown figure id {figure_id}")
    meta.update(version=__version__)
    return SweepResult(columns, blocks, meta)


def stamp(result: SweepResult) -> SweepResult:
    """Copy of a result with a UTC timestamp added to the metadata.

    Off by default so that identical specs produce identical bytes.
    """
    meta = dict(result.meta)
    meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return SweepResult(result.columns, result.rows, meta)
