"""Quantum-filtered inputs, beam-splitter outputs, and EPR-closeness metrics.

A filtered input keeps only the lowest-|m| components of the back-rotated
relative-phase state; sending it through a beam splitter at angle beta
produces a two-mode output whose amplitudes s_n (n = photon number in the
first mode) approximate the flat profile of an ideal EPR-like state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_count, _check_real, _set_vector
from .su2 import (SpinJ, SpinProjection, SpinState, _check_projection, _column_blocks, _rotated,
                  basis_state)

_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class FilterOrder:
    """Filter level mu in {0, 1/2, 1, 3/2}, stored doubled for exactness.

    Levels 0 and 1 exist for even N (integer m), 1/2 and 3/2 for odd N.
    """

    twice_level: int

    def __post_init__(self):
        object.__setattr__(self, "twice_level", _check_count(self.twice_level, "twice_level", None))
        if self.twice_level not in (0, 1, 2, 3):
            raise DomainError(f"twice_level must be one of 0..3, got {self.twice_level}")

    @property
    def level(self) -> float:
        return self.twice_level / 2.0

    @property
    def component_count(self) -> int:
        return self.twice_level + 1


@dataclass(frozen=True)
class QuasiEprResource:
    """Entanglement-channel amplitudes s_n over n = 0..N, unit norm."""

    N: int
    s: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "N", _check_count(self.N, "N", 0))
        _set_vector(self, "s", "resource s", complex, self.N + 1)


@dataclass(frozen=True)
class EprQualityReport:
    """Flatness metrics of a resource amplitude profile."""

    min_modulus: float
    zero_count: int
    flatness: float
    entropy: float
    normalized_entropy: float


def f_coefficient(j: SpinJ, m_out: SpinProjection, beta: float = math.pi / 2,
                  phi0: float = 0.0) -> complex:
    """f^j_{m'} = sum_m e^{i m (phi0 + pi/2)} d^j_{m'm}(beta)."""
    _check_projection(j, m_out, "m_out")
    return _f_coefficients(j.twice_j, np.array([m_out.twice_m]), _check_real(beta, "beta"), phi0)[0]


def _f_coefficients(tj: int, tmps: np.ndarray, beta: float, phi0: float) -> list:
    """f^j_{m'} for each doubled m' of tmps, by one kernel call while the rows of their
    closure under m' -> -m' fit in su2.LANE_BUDGET (four up to twice_j = 32767), else by
    one per block of them.

    Row k of the columns is d^j_{m, m'_k} over m; d^j_{m'm} = (-1)^{m'-m} d^j_{mm'}.
    """
    cols = np.concatenate([c[0] for _, _, c in _column_blocks(tj, tmps, [beta])])
    tms = np.arange(tj + 1) * 2 - tj
    signs = (-1.0) ** (((tmps[:, None] - tms) // 2) % 2)
    chi = _check_real(phi0, "phi0", times=tj / 2.0) + math.pi / 2.0
    phases = np.exp(1j * chi * (tms / 2.0))
    return [complex(np.sum(row)) for row in phases * signs * cols]


def filtered_input(N: int, order: FilterOrder) -> SpinState:
    """Low-|m| filtered input state of total photon number N.

    Level 0 is |j 0>; level 1/2 the equal pair (|j 1/2> + |j -1/2>)/sqrt 2;
    levels 1 and 3/2 weight the kept components by the f-coefficients at
    beta = pi/2, phi0 = 0 and renormalize.
    """
    N = _check_count(N, "N", 0)
    if N < order.twice_level:
        raise DomainError(f"N = {N} too small for filter level {order.level}")
    if N % 2 != order.twice_level % 2:
        raise DomainError(
            f"filter level {order.level} requires N {'odd' if order.twice_level % 2 else 'even'},"
            f" got N = {N}")
    j = SpinJ(N)
    if order.twice_level == 0:
        return basis_state(j, SpinProjection(0))
    if order.twice_level == 1:
        amps = np.zeros(N + 1, dtype=complex)
        amps[(N - 1) // 2] = 1.0 / math.sqrt(2.0)
        amps[(N + 1) // 2] = 1.0 / math.sqrt(2.0)
        return SpinState(j, amps)
    # f-weighted combinations over m = -mu..mu in integer steps
    kept = np.arange(-order.twice_level, order.twice_level + 1, 2)
    amps = np.zeros(N + 1, dtype=complex)
    amps[(kept + N) // 2] = _f_coefficients(N, kept, math.pi / 2.0, 0.0)
    amps /= np.linalg.norm(amps)
    return SpinState(j, amps)


def beta_q(N: int) -> float:
    """Best beam-splitter angle (pi/2)(1 - 1/N) for the level-0 input."""
    N = _check_count(N, "N", 1)
    return (math.pi / 2.0) * (1.0 - 1 / N)  # int / int: N may lie beyond the float range


def make_resources(input_state: SpinState, betas) -> list:
    """make_resource at every angle of a grid, all through one kernel pass."""
    return [QuasiEprResource(input_state.j.twice_j, row) for row in _rotated(input_state, betas)]


def make_resource(input_state: SpinState, beta: float) -> QuasiEprResource:
    """Rotate a filtered input through the beam splitter; index output by n.

    The output amplitude at spin projection m' is reinterpreted as s_n with
    n = j + m' (photon number of the first mode).
    """
    return make_resources(input_state, [beta])[0]


def ideal_resource(N: int) -> QuasiEprResource:
    """Perfectly flat resource s_n = 1/sqrt(N+1)."""
    N = _check_count(N, "N", 0)
    SpinJ(N)  # the photon-number cap, before the amplitudes are allocated
    return QuasiEprResource(N, np.full(N + 1, 1.0 / math.sqrt(N + 1), dtype=complex))


def resource_from_state(state: SpinState) -> QuasiEprResource:
    """Treat an arbitrary fixed-N two-mode state directly as a resource."""
    return QuasiEprResource(state.j.twice_j, state.amplitudes)


def _qualities(rows: np.ndarray) -> list:
    """quality of each row of a (B, N+1) unit-norm stack, with the bits of a one-row call."""
    mods = np.abs(rows)
    p = mods ** 2
    p /= p.sum(axis=-1, keepdims=True)
    # each entropy sums its own row's nonzero p alone: a sum's tree depends on its length.
    # A reduceat segment that starts at a 0.0 has the bits of a reduce over the rest, so
    # one flat array holds per row a 0.0, then that row's p log p terms for p > 0.
    live = p > 0.0
    sizes = np.count_nonzero(live, axis=-1) + 1
    starts = np.cumsum(sizes) - sizes
    flat = np.zeros(starts[-1] + sizes[-1])
    is_term = np.ones(len(flat), dtype=bool)
    is_term[starts] = False
    nz = p[live]
    flat[is_term] = nz * np.log(nz)
    # the sums are negated, not the terms: a lone p = 1 gives -(0.0 + 0.0) = -0.0
    entropies = (-np.add.reduceat(flat, starts)).tolist()
    log_dim = math.log(rows.shape[-1])
    zeros = np.count_nonzero(mods < _ZERO_TOL, axis=-1).tolist()
    return [EprQualityReport(lo, z, hi - lo, h, h / log_dim if log_dim > 0.0 else 1.0)
            for lo, hi, z, h in zip(mods.min(-1).tolist(), mods.max(-1).tolist(), zeros, entropies)]


def quality(resource: QuasiEprResource) -> EprQualityReport:
    """Flatness report: min modulus, zero count, max-min spread, entropy."""
    return _qualities(resource.s[None])[0]


def phase_distribution(resource: QuasiEprResource, zero_tol: float = _ZERO_TOL) -> np.ndarray:
    """Per-component phases arg(s_n) in (-pi, pi]; moduli below zero_tol give 0.0.

    Values within 1e-12 of -pi are mapped to +pi so the branch is
    reproducible across platforms.  zero_tol = math.ulp(0.0), the smallest
    positive float, zeroes exact zeros only.
    """
    phases = np.angle(resource.s)
    phases[np.abs(resource.s) < _check_real(zero_tol, "zero_tol")] = 0.0
    phases[phases <= -math.pi + 1e-12] = math.pi
    return phases
