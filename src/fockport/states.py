"""Two-mode Fock indexing, relative-phase eigenstates, and coherent targets.

The photon pair (n_a, n_b) maps to spin labels j = (n_a+n_b)/2 and
m = (n_a-n_b)/2; a state of fixed total photon number N is a spin-N/2
state whose amplitude index n runs over |n>|N-n>.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .su2 import SpinJ, SpinProjection, SpinState, _check_projection


@dataclass(frozen=True)
class TwoModeIndex:
    """Photon numbers (n_a, n_b) of the two modes."""

    n_a: int
    n_b: int

    def __post_init__(self):
        if self.n_a < 0 or self.n_b < 0:
            raise DomainError(f"photon numbers must be non-negative, got ({self.n_a}, {self.n_b})")

    @property
    def total(self) -> int:
        return self.n_a + self.n_b


def two_mode_to_spin(idx: TwoModeIndex) -> tuple[SpinJ, SpinProjection]:
    """(n_a, n_b) -> (j, m) with j = (n_a+n_b)/2, m = (n_a-n_b)/2."""
    return SpinJ(idx.n_a + idx.n_b), SpinProjection(idx.n_a - idx.n_b)


def spin_to_two_mode(j: SpinJ, m: SpinProjection) -> TwoModeIndex:
    """(j, m) -> (n_a, n_b); requires |m| <= j with matching parity."""
    _check_projection(j, m)
    return TwoModeIndex((j.twice_j + m.twice_m) // 2, (j.twice_j - m.twice_m) // 2)


@dataclass(frozen=True)
class RelativePhaseSpec:
    """Relative-phase eigenstate label: phi_r = phi0 + 2 pi r / (N+1)."""

    N: int
    r: int
    phi0: float = 0.0

    def __post_init__(self):
        if self.N < 0:
            raise DomainError(f"N must be non-negative, got {self.N}")
        if not 0 <= self.r <= self.N:
            raise DomainError(f"r must lie in [0, {self.N}], got {self.r}")

    @property
    def phi(self) -> float:
        return self.phi0 + 2.0 * math.pi * self.r / (self.N + 1)


def relative_phase_state(spec: RelativePhaseSpec) -> SpinState:
    """Equal-modulus state sum_n e^{i n phi_r} |n>|N-n> / sqrt(N+1)."""
    j = SpinJ(spec.N)  # the photon-number cap, before the amplitudes are allocated
    amps = np.exp(1j * spec.phi * np.arange(spec.N + 1)) / math.sqrt(spec.N + 1)
    return SpinState(j, amps)


@dataclass(frozen=True)
class GeneralPhaseSpec:
    """Arbitrary-phase flat-modulus state: amplitudes e^{i theta_n} / sqrt(N+1)."""

    N: int
    thetas: tuple

    def __post_init__(self):
        thetas = tuple(float(t) for t in self.thetas)
        object.__setattr__(self, "thetas", thetas)
        if self.N < 0:
            raise DomainError(f"N must be non-negative, got {self.N}")
        if len(thetas) != self.N + 1:
            raise DomainError(f"thetas must have length {self.N + 1}, got {len(thetas)}")


def general_phase_state(spec: GeneralPhaseSpec) -> SpinState:
    """Flat-modulus state with per-component phases theta_n."""
    amps = np.exp(1j * np.asarray(spec.thetas)) / math.sqrt(spec.N + 1)
    return SpinState(SpinJ(spec.N), amps)


@dataclass(frozen=True)
class CoherentTarget:
    """Truncated coherent-state coefficients c_k = e^{-a^2/2} a^k / sqrt(k!).

    coeffs is renormalized after truncation so that sum |c_k|^2 = 1 exactly;
    the discarded tail mass is below the construction tolerance.
    """

    alpha: float
    k_max: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if c.shape != (self.k_max + 1,):
            raise DomainError(f"coeffs must have length {self.k_max + 1}, got {c.shape}")

    def coefficient(self, k: int) -> float:
        """c_k, zero beyond the truncation."""
        if k < 0:
            raise DomainError(f"k must be non-negative, got {k}")
        return float(self.coeffs[k]) if k <= self.k_max else 0.0

    def weights(self) -> np.ndarray:
        """|c_k|^2 over k = 0..k_max."""
        return self.coeffs ** 2


def coherent_coefficients(alpha: float, tail_tol: float = 1e-12) -> CoherentTarget:
    """Coherent-state coefficient vector truncated at tail mass < tail_tol."""
    if not math.isfinite(alpha) or alpha < 0:
        raise DomainError(f"alpha must be finite and non-negative, got {alpha}")
    if not tail_tol > 0.0:  # no truncation leaves a tail of zero mass
        raise DomainError(f"tail_tol must be positive, got {tail_tol}")
    if alpha == 0.0:
        return CoherentTarget(0.0, 0, np.array([1.0]))
    # Poisson weights p_k = e^{-a^2} a^{2k} / k!; cut at the first k_max >= a^2
    # whose tail is below tail_tol, then renormalize the kept mass to exactly 1
    mean = alpha * alpha
    if mean > 10000:  # k_max >= mean
        raise DomainError(f"alpha = {alpha} needs more than 10000 coherent terms")
    k = 0
    p = math.exp(-mean)
    while p < sys.float_info.min:
        # e^{-a^2} is subnormal or zero (a above ~26.6): start the sum at the
        # first weight that is a normal float, found in log space; each weight
        # skipped is below 1e-307
        k += 1
        p = math.exp(k * math.log(mean) - mean - math.lgamma(k + 1.0))
    # a log-space start passes its rounding (7e-12 relative at alpha = 80) to
    # every weight, so judge the tail, summed from its small end, against the
    # summed mass; weights below 1e-6 tail_tol past the mode are dropped
    weights = [p]
    while k < mean or weights[-1] > 1e-6 * tail_tol:
        k += 1
        weights.append(weights[-1] * mean / k)
    total, tail = sum(weights), 0.0
    while k - 1 >= mean and tail + weights[-1] < tail_tol * total:
        tail += weights.pop()
        k -= 1
    k_max = k
    ks = np.arange(k_max + 1)
    log_c = -mean / 2.0 + ks * math.log(alpha) - 0.5 * np.array(
        [math.lgamma(k + 1.0) for k in range(k_max + 1)])
    c = np.exp(log_c)
    c /= np.linalg.norm(c)
    return CoherentTarget(alpha, k_max, c)
