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

from .errors import DomainError, _check_count, _check_real, _set_vector
from .su2 import SpinJ, SpinProjection, SpinState, _check_projection


@dataclass(frozen=True)
class TwoModeIndex:
    """Photon numbers (n_a, n_b) of the two modes."""

    n_a: int
    n_b: int

    def __post_init__(self):
        for name in ("n_a", "n_b"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, 0))

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
        object.__setattr__(self, "N", _check_count(self.N, "N", 0))
        if not 0 <= _check_count(self.r, "r", None) <= self.N:
            raise DomainError(f"r must lie in [0, {self.N}], got {self.r}")
        _check_real(self.phi0, "phi0", times=self.N)

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
        object.__setattr__(self, "thetas", tuple(_check_real(t, "theta") for t in self.thetas))
        object.__setattr__(self, "N", _check_count(self.N, "N", 0))
        if len(self.thetas) != self.N + 1:
            raise DomainError(f"thetas must have length {self.N + 1}, got {len(self.thetas)}")


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
        object.__setattr__(self, "k_max", _check_count(self.k_max, "k_max", 0))
        _set_vector(self, "coeffs", "coeffs of the target", float, self.k_max + 1)
        _check_real(self.alpha, "alpha", 0)

    def coefficient(self, k: int) -> float:
        """c_k, zero beyond the truncation."""
        k = _check_count(k, "k", 0)
        return float(self.coeffs[k]) if k <= self.k_max else 0.0

    def weights(self) -> np.ndarray:
        """|c_k|^2 over k = 0..k_max."""
        return self.coeffs ** 2


def _first_normal_weight(mean: float) -> tuple:
    """(k, p_k) for the first Poisson weight p_k = e^{-mean} mean^k / k! that is a normal float.

    e^{-mean} is subnormal or zero for mean above ~708.4 (alpha above ~26.6); the
    sum then starts at a weight found in log space, and each weight skipped is
    below 1e-307.  The log weight rises with k up to the mode, so a bisection
    below it lands on the first such k, as a scan up from k = 0 does.
    """
    def weight(k):
        return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1.0))

    p = math.exp(-mean)
    if p >= sys.float_info.min:
        return 0, p
    lo, hi = 0, math.ceil(mean)  # p_lo is below the normal range, p_hi near the mode
    while hi - lo > 1:
        k = (lo + hi) // 2
        lo, hi = (k, hi) if weight(k) < sys.float_info.min else (lo, k)
    return hi, weight(hi)


def coherent_coefficients(alpha: float, tail_tol: float = 1e-12) -> CoherentTarget:
    """Coherent-state coefficient vector truncated at tail mass < tail_tol."""
    alpha = _check_real(alpha, "alpha", 0)
    if not _check_real(tail_tol, "tail_tol") > 0.0:  # no truncation leaves a tail of zero mass
        raise DomainError(f"tail_tol must be positive, got {tail_tol}")
    if alpha == 0.0:
        return CoherentTarget(0.0, 0, np.array([1.0]))
    # Poisson weights p_k = e^{-a^2} a^{2k} / k!; cut at the first k_max >= a^2
    # whose tail is below tail_tol, then renormalize the kept mass to exactly 1
    mean = alpha * alpha
    if mean > 10000:  # k_max >= mean
        raise DomainError(f"alpha = {alpha} needs more than 10000 coherent terms")
    k, p = _first_normal_weight(mean)
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
