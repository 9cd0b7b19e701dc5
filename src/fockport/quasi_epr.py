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

from .errors import DomainError
from .su2 import (SpinJ, SpinProjection, SpinState, basis_state, rotate_about_x_grid,
                  wigner_d_column)

_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class FilterOrder:
    """Filter level mu in {0, 1/2, 1, 3/2}, stored doubled for exactness.

    Levels 0 and 1 exist for even N (integer m), 1/2 and 3/2 for odd N.
    """

    twice_level: int

    def __post_init__(self):
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
        s = np.asarray(self.s, dtype=complex)
        object.__setattr__(self, "s", s)
        if s.shape != (self.N + 1,):
            raise DomainError(f"s must have length {self.N + 1}, got {s.shape}")
        norm = float(np.linalg.norm(s))
        if not abs(norm - 1.0) <= 1e-10:
            raise DomainError(f"resource norm {norm} deviates from 1 by more than 1e-10")


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
    """f^j_{m'} = sum_m e^{i m (phi0 + pi/2)} d^j_{m'm}(beta).

    Computed from a single column via d^j_{m'm} = (-1)^{m'-m} d^j_{mm'}.
    """
    tj = j.twice_j
    tmp = m_out.twice_m
    col = wigner_d_column(j, m_out, beta).values  # col[i] = d^j_{m_i, m'}
    tms = np.arange(tj + 1) * 2 - tj
    signs = (-1.0) ** (((tmp - tms) // 2) % 2)
    chi = phi0 + math.pi / 2.0
    phases = np.exp(1j * chi * (tms / 2.0))
    return complex(np.sum(phases * signs * col))


def filtered_input(N: int, order: FilterOrder) -> SpinState:
    """Low-|m| filtered input state of total photon number N.

    Level 0 is |j 0>; level 1/2 the equal pair (|j 1/2> + |j -1/2>)/sqrt 2;
    levels 1 and 3/2 weight the kept components by the f-coefficients at
    beta = pi/2, phi0 = 0 and renormalize.
    """
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
    kept = range(-order.twice_level, order.twice_level + 1, 2)
    amps = np.zeros(N + 1, dtype=complex)
    for tm in kept:
        amps[(tm + N) // 2] = f_coefficient(j, SpinProjection(tm))
    amps /= np.linalg.norm(amps)
    return SpinState(j, amps)


def beta_q(N: int) -> float:
    """Best beam-splitter angle (pi/2)(1 - 1/N) for the level-0 input."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    return (math.pi / 2.0) * (1.0 - 1.0 / N)


def make_resources(input_state: SpinState, betas) -> list:
    """make_resource at every angle of a grid, all through one kernel pass."""
    return [QuasiEprResource(input_state.j.twice_j, rotated.amplitudes.copy())
            for rotated in rotate_about_x_grid(input_state, betas)]


def make_resource(input_state: SpinState, beta: float) -> QuasiEprResource:
    """Rotate a filtered input through the beam splitter; index output by n.

    The output amplitude at spin projection m' is reinterpreted as s_n with
    n = j + m' (photon number of the first mode).
    """
    return make_resources(input_state, [beta])[0]


def ideal_resource(N: int) -> QuasiEprResource:
    """Perfectly flat resource s_n = 1/sqrt(N+1)."""
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    return QuasiEprResource(N, np.full(N + 1, 1.0 / math.sqrt(N + 1), dtype=complex))


def resource_from_state(state: SpinState) -> QuasiEprResource:
    """Treat an arbitrary fixed-N two-mode state directly as a resource."""
    return QuasiEprResource(state.j.twice_j, state.amplitudes.copy())


def quality(resource: QuasiEprResource) -> EprQualityReport:
    """Flatness report: min modulus, zero count, max-min spread, entropy."""
    mods = np.abs(resource.s)
    p = mods ** 2
    p = p / p.sum()
    nz = p > 0.0
    entropy = float(-(p[nz] * np.log(p[nz])).sum())
    log_dim = math.log(resource.N + 1)
    normalized = entropy / log_dim if log_dim > 0.0 else 1.0
    return EprQualityReport(
        min_modulus=float(mods.min()),
        zero_count=int(np.count_nonzero(mods < _ZERO_TOL)),
        flatness=float(mods.max() - mods.min()),
        entropy=entropy,
        normalized_entropy=normalized,
    )


def phase_distribution(resource: QuasiEprResource) -> np.ndarray:
    """Per-component phases arg(s_n) in (-pi, pi]; zero amplitudes give 0.0.

    Values within 1e-12 of -pi are mapped to +pi so the branch is
    reproducible across platforms.
    """
    phases = np.angle(resource.s)
    phases[np.abs(resource.s) < _ZERO_TOL] = 0.0
    phases[phases <= -math.pi + 1e-12] = math.pi
    return phases
