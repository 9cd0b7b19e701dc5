"""Deterministic grid sweeps over (beta, q) and canned figure datasets.

All angles of a grid go through the column kernel together (a block of
angles at a time, so memory stays bounded); rows are emitted in canonical
(beta ascending, q ascending) order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from ._version import __version__
from .errors import DomainError, ImpossibleOutcomeError, SizeCapError
from .quasi_epr import (FilterOrder, beta_q, filtered_input, ideal_resource,
                        make_resources, phase_distribution, quality)
from .states import (RelativePhaseSpec, coherent_coefficients,
                     relative_phase_state)
from .su2 import LANE_BUDGET
from .teleport import _check_photon_number, _evaluate, high_fidelity_region

_DEFAULT_STEP = math.radians(0.5)

# Largest beta grid a sweep or angle search may build: a 0.01 degree step
# across the whole [0, 180] degree range.
MAX_GRID_POINTS = 18001

RESOURCE_KINDS = ("j0", "2pt", "3pt", "4pt", "ideal", "relative-phase-input")

# filter level (doubled) behind each beam-splitter resource kind
_KIND_LEVEL = {"j0": 0, "2pt": 1, "3pt": 2, "4pt": 3}


@dataclass(frozen=True)
class BetaGrid:
    """Inclusive arithmetic grid over beta, in radians."""

    start: float
    stop: float
    step: float = _DEFAULT_STEP

    def values(self) -> np.ndarray:
        if self.step <= 0.0 or self.stop < self.start:
            return np.array([])
        points = (self.stop - self.start) / self.step + 1e-9
        if not points < MAX_GRID_POINTS:
            raise SizeCapError(f"beta grid exceeds {MAX_GRID_POINTS} points")
        return self.start + self.step * np.arange(int(math.floor(points)) + 1)


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
            errors.append(f"resource_kind: unknown kind {self.resource_kind!r}")
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            errors.append(f"N: must be a positive integer, got {self.N!r}")
        elif self.resource_kind in _KIND_LEVEL and self.N % 2 != _KIND_LEVEL[self.resource_kind] % 2:
            need = "odd" if _KIND_LEVEL[self.resource_kind] % 2 else "even"
            errors.append(f"N: resource {self.resource_kind!r} requires {need} N, got {self.N}")
        grid = self.beta_grid
        if not all(math.isfinite(v) for v in (grid.start, grid.stop, grid.step)):
            errors.append("beta_grid: start, stop and step must be finite")
        elif grid.step <= 0.0:
            errors.append(f"beta_grid: step must be > 0, got {grid.step}")
        elif len(grid.values()) == 0:
            errors.append("beta_grid: empty grid")
        if self.alpha < 0:
            errors.append(f"alpha: must be >= 0, got {self.alpha}")
        if self.q_list != "all":
            try:
                qs = [int(q) for q in self.q_list]
            except (TypeError, ValueError):
                errors.append(f"q_list: must be 'all' or a list of integers, got {self.q_list!r}")
            else:
                if any(q < 0 for q in qs):
                    errors.append("q_list: entries must be non-negative")
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
    """Ordered table of sweep rows plus reproducibility metadata."""

    columns: tuple
    rows: list
    meta: dict


def resources_for_kind(kind: str, N: int, betas) -> list:
    """The resources behind a sweep kind at every angle of a grid.

    The input state is built once and every angle is rotated in one kernel
    pass.
    """
    if kind == "ideal":
        return [ideal_resource(N) for _ in betas]
    if kind == "relative-phase-input":
        return make_resources(relative_phase_state(RelativePhaseSpec(N, 0)), betas)
    if kind in _KIND_LEVEL:
        return make_resources(filtered_input(N, FilterOrder(_KIND_LEVEL[kind])), betas)
    raise DomainError(f"unknown resource kind {kind!r}")


def resource_for_kind(kind: str, N: int, beta: float):
    """Build the resource behind a sweep kind at one grid point."""
    return resources_for_kind(kind, N, [beta])[0]


def _grid_resources(kind: str, N: int, betas):
    """resources_for_kind over a grid, a block of angles at a time to bound memory."""
    block = max(1, LANE_BUDGET // (N + 1))
    for lo in range(0, len(betas), block):
        yield from resources_for_kind(kind, N, betas[lo:lo + block])


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate fidelity/bound/probability and quality metrics over the grid.

    Row layout: (beta_deg, q, fidelity, bound, probability, min_modulus,
    zero_count, flatness, entropy), beta ascending then q ascending; row
    count = grid size x outcome count; unreachable outcomes carry fidelity
    None and probability 0.
    """
    spec.validate()
    target = coherent_coefficients(spec.alpha)
    qs = (range(spec.N + target.k_max + 1) if spec.q_list == "all" else
          [int(q) for q in spec.q_list])
    betas = spec.beta_grid.values()
    rows = []
    for beta, resource in zip(betas, _grid_resources(spec.resource_kind, spec.N, betas)):
        rep = quality(resource)
        rows.extend((math.degrees(beta), res.q, res.fidelity, res.bound, res.probability,
                     rep.min_modulus, rep.zero_count, rep.flatness, rep.entropy)
                    for res in _evaluate(target, resource, qs, spec.parity_correction))
    columns = ("beta_deg", "q", "fidelity", "bound", "probability",
               "min_modulus", "zero_count", "flatness", "entropy")
    meta = {"kind": "sweep", "spec": spec.echo(), "version": __version__}
    return SweepResult(columns, rows, meta)


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
    _check_photon_number(N)
    if resource_kind == "ideal":
        raise DomainError("the ideal resource does not depend on beta; it has no best angle")
    if objective not in ("min_modulus", "entropy", "min_fidelity_target"):
        raise DomainError(f"unknown objective {objective!r}")
    if not step > 0.0:
        raise DomainError(f"step must be > 0, got {step}")
    points = (math.pi / 2) / step + 1e-9
    if not points < MAX_GRID_POINTS:
        raise SizeCapError(f"beta grid exceeds {MAX_GRID_POINTS} points")
    if points < 1.0:
        raise DomainError(f"step = {step} leaves no angle in (0, pi/2]")
    betas = step * np.arange(1, math.floor(points) + 1)
    if objective == "min_fidelity_target":
        target = coherent_coefficients(1.0)
        region = high_fidelity_region(1.0, N)
        if region is None:
            raise DomainError(f"no high-fidelity window at N = {N}")
        q_lo, q_hi = region

    scores = np.empty(len(betas))
    for i, resource in enumerate(_grid_resources(resource_kind, N, betas)):
        if objective == "min_modulus":
            scores[i] = quality(resource).min_modulus
        elif objective == "entropy":
            scores[i] = quality(resource).entropy
        else:
            scores[i] = _worst_fidelity(target, resource, range(q_lo, q_hi + 1))
    return float(betas[int(np.argmax(scores))])


def _worst_fidelity(target, resource, qs) -> float:
    """Smallest fidelity(target, resource, q, True) over qs, in one pass over the windows."""
    fidelities = [row.fidelity for row in _evaluate(target, resource, qs, True)]
    if None in fidelities:
        q = qs[fidelities.index(None)]
        raise ImpossibleOutcomeError(f"outcome q = {q} has zero probability")
    return min(fidelities)


def _modulus_rows(kind: str, N: int, betas, with_phase: bool = False):
    rows = []
    for beta, resource in zip(betas, _grid_resources(kind, N, betas)):
        cells = [np.abs(resource.s).tolist()]
        if with_phase:
            cells.append(phase_distribution(resource).tolist())
        rows.extend(zip(itertools.repeat(math.degrees(beta)), range(N + 1), *cells))
    return rows


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
    meta = {"kind": "figure", "figure": figure_id}
    if figure_id in _MODULUS_FIGURES:
        kind, N, betas, with_phase = _MODULUS_FIGURES[figure_id]
        columns = ("beta_deg", "n", "modulus") + (("phase",) if with_phase else ())
        meta.update(resource_kind=kind, N=N)
        rows = _modulus_rows(kind, N, betas, with_phase)
    elif figure_id == 4:
        columns = ("N", "beta_deg", "n", "modulus")
        meta.update(resource_kind="j0")
        rows = [(N,) + row for N in _LARGE_N for row in _modulus_rows("j0", N, [beta_q(N)])]
    elif figure_id in _SWEEP_FIGURES:
        spec = _SWEEP_FIGURES[figure_id]
        columns = ("beta_deg", "q", "fidelity", "bound", "probability")
        meta.update(spec=spec.echo())
        rows = [row[:5] for row in run_sweep(spec).rows]
    else:
        raise DomainError(f"unknown figure id {figure_id}")
    meta.update(version=__version__)
    return SweepResult(columns, rows, meta)


def stamp(result: SweepResult) -> SweepResult:
    """Copy of a result with a UTC timestamp added to the metadata.

    Off by default so that identical specs produce identical bytes.
    """
    meta = dict(result.meta)
    meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return SweepResult(result.columns, result.rows, meta)
