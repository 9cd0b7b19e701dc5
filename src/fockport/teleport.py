"""Number-sum / relative-phase teleportation: conditional states and fidelity.

Alice holds the target mode and one half of a two-mode resource with
amplitudes s_n; she measures the photon-number sum q and a relative phase
phi^{(q)}_s.  Bob's mode collapses onto amplitudes c_k s_{q-k} at Fock
index k+N-q; a number shift and phase shift (plus, for resources with a
curved phase profile, a quadratic parity correction) reconstruct the
target.  The conditional fidelity F(q) and its partial-mass bound are
evaluated directly from the collapsed amplitudes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ImpossibleOutcomeError
from .quasi_epr import QuasiEprResource
from .states import CoherentTarget
from .su2 import _check_unit_norm

_ALIGN_TOL = 1e-12


@dataclass(frozen=True)
class MeasurementOutcome:
    """Number-sum result q and phase index s selecting phi^{(q)}_s."""

    q: int
    s_index: int
    phi0: float = 0.0

    def __post_init__(self):
        if self.q < 0:
            raise DomainError(f"q must be non-negative, got {self.q}")
        if not 0 <= self.s_index <= self.q:
            raise DomainError(f"s_index must lie in [0, {self.q}], got {self.s_index}")

    @property
    def phase(self) -> float:
        """phi^{(q)}_s = phi0 + 2 pi s / (q+1)."""
        return self.phi0 + 2.0 * math.pi * self.s_index / (self.q + 1)


@dataclass(frozen=True)
class BobState:
    """Bob's collapsed mode: amplitudes over k = k0..q at Fock index k+N-q."""

    N: int
    q: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.q - self.k0 + 1,):
            raise DomainError(
                f"amplitudes must cover k = {self.k0}..{self.q}, got length {amps.shape[0]}")
        _check_unit_norm(amps, "BobState")

    @property
    def k0(self) -> int:
        return max(0, self.q - self.N)

    def k_values(self) -> np.ndarray:
        return np.arange(self.k0, self.q + 1)

    def fock_indices(self) -> np.ndarray:
        return self.k_values() + self.N - self.q


@dataclass(frozen=True)
class SingleModeState:
    """Normalized single-mode state; amplitudes[k] at Fock level k."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        _check_unit_norm(amps, "state")


@dataclass(frozen=True)
class TeleportOutcome:
    """Per-q record: fidelity (None when the outcome is unreachable), bound, probability."""

    q: int
    fidelity: float | None
    bound: float
    probability: float


def _evaluate(target: CoherentTarget, resource: QuasiEprResource, qs,
              apply_parity_correction: bool):
    """Yield the TeleportOutcome of each q in qs; P and F sum over k = k0..q in order.

    c_k^2 over k = 0..N+k_max (zero-padded) and s_n, |s_n|^2 reversed are built
    once, so q's window is the slice [k0:q+1] of the first against [N-q+k0:] of
    the others (s_{q-k}).  Consecutive q with the same bound window (k0, min(q,
    k_max)) share one bound sum.
    """
    N, k_max = resource.N, target.k_max
    c2 = np.concatenate((target.coeffs, np.zeros(N))) ** 2
    s_rev = np.ascontiguousarray(resource.s[::-1])
    s2_rev = np.abs(s_rev) ** 2
    # parity phase table over k = 0..N+k_max for q % 2, built when first needed
    factors = functools.cache(lambda odd: _parity_factors(np.arange(N + k_max + 1), odd))
    add = np.add.reduce
    window = bound = None
    for q in qs:
        if q < 0:
            raise DomainError(f"q must be non-negative, got {q}")
        if q > N + k_max:
            yield TeleportOutcome(q, None, 0.0, 0.0)
            continue
        k0 = max(0, q - N)
        w = c2[k0:q + 1]
        lo = N - q + k0
        p = float(add(w * s2_rev[lo:]))
        num_vec = w * s_rev[lo:]
        if apply_parity_correction:
            num_vec *= factors(q % 2)[k0:q + 1]
        f = None if p <= 0.0 else float(abs(add(num_vec)) ** 2 / p)
        hi = min(q, k_max)
        if window != (k0, hi):
            window = (k0, hi)
            bound = float(add(w[:hi - k0 + 1]))
        yield TeleportOutcome(q, f, bound, p)


def evaluate_all(target: CoherentTarget, resource: QuasiEprResource,
                 apply_parity_correction: bool = False) -> list[TeleportOutcome]:
    """evaluate_outcome for every q = 0..N+k_max, in q order, in one pass.

    Each row is bit-identical to evaluate_outcome at its q; the arrays the
    windows are sliced from are built once instead of once per q.
    """
    qs = range(resource.N + target.k_max + 1)
    return list(_evaluate(target, resource, qs, apply_parity_correction))


def outcome_probability(target: CoherentTarget, resource: QuasiEprResource, q: int) -> float:
    """P(q) = sum_k |c_k|^2 |s_{q-k}|^2 over the reachable k window."""
    return next(_evaluate(target, resource, (q,), False)).probability


def post_measurement_state(target: CoherentTarget, resource: QuasiEprResource,
                           outcome: MeasurementOutcome,
                           measurement_phase: float | None = None) -> BobState:
    """Bob's mode after Alice measures (q, phi^{(q)}_s).

    Amplitudes are C(q) e^{-i k phi} c_k s_{q-k} at Fock index k+N-q with
    C(q) = P(q)^{-1/2}.  measurement_phase overrides phi^{(q)}_s, e.g. with
    phi - offset to measure a resource phase offset on Alice's side.
    """
    q = outcome.q
    weight = outcome_probability(target, resource, q)
    if weight <= 0.0:
        raise ImpossibleOutcomeError(f"outcome q = {q} has zero probability")
    ks = np.arange(max(0, q - resource.N), q + 1)
    ck = np.concatenate((target.coeffs, np.zeros(q + 1)))[ks]
    phi = outcome.phase if measurement_phase is None else measurement_phase
    amps = np.exp(-1j * phi * ks) * ck * resource.s[q - ks] / math.sqrt(weight)
    return BobState(resource.N, q, amps)


def reconstruct(bob: BobState, resource_phase_offset: float,
                outcome: MeasurementOutcome,
                measurement_phase: float | None = None) -> SingleModeState:
    """Number shift to Fock index k plus phase shift e^{i k (phi_s + offset)}.

    For a resource whose phases are linear in n with slope
    resource_phase_offset, the output is flat-phase: C(q) sum c_k t_{q-k} |k>
    up to a global phase.
    """
    phi = outcome.phase if measurement_phase is None else measurement_phase
    ks = bob.k_values()
    shifted = bob.amplitudes * np.exp(1j * (phi + resource_phase_offset) * ks)
    amps = np.zeros(bob.q + 1, dtype=complex)
    amps[bob.k0:] = shifted
    return SingleModeState(amps)


def parity_phase_correction(state: SingleModeState, q: int) -> SingleModeState:
    """Apply e^{i (-1)^q (pi/2) k^2} at each Fock level k; exactly norm-preserving."""
    factors = _parity_factors(np.arange(len(state.amplitudes)), q)
    return SingleModeState(state.amplitudes * factors)


def _parity_factors(ks: np.ndarray, q: int) -> np.ndarray:
    powers = (ks * ks) % 4
    return 1j ** powers if q % 2 == 0 else (-1j) ** powers


def fidelity(target: CoherentTarget, resource: QuasiEprResource, q: int,
             apply_parity_correction: bool = False) -> float:
    """Conditional fidelity F(q) = |sum |c_k|^2 s_{q-k}|^2 / sum |c_k|^2 |s_{q-k}|^2.

    With the correction flag the numerator's s_{q-k} gains the quadratic
    phase e^{i (-1)^q (pi/2) k^2}; moduli (and hence the denominator and
    the bound) are unchanged.
    """
    f = None if q < 0 else next(
        _evaluate(target, resource, (q,), apply_parity_correction)).fidelity
    if f is None:
        raise ImpossibleOutcomeError(f"outcome q = {q} has zero probability")
    return f


def fidelity_bound(target: CoherentTarget, q: int, N: int) -> float:
    """Partial target mass sum_{k0..q} |c_k|^2; F(q) never exceeds it."""
    if q < 0:
        raise DomainError(f"q must be non-negative, got {q}")
    k0 = max(0, q - N)
    hi = min(q, target.k_max)
    if hi < k0:
        return 0.0
    return float(np.sum(target.weights()[k0:hi + 1]))


def average_fidelity(target: CoherentTarget, resource: QuasiEprResource,
                     apply_parity_correction: bool = False) -> float:
    """P-weighted mean of F(q) over all reachable outcomes q = 0..N+k_max."""
    return _mean_fidelity(evaluate_all(target, resource, apply_parity_correction))


def _mean_fidelity(outcomes) -> float:
    """Sum of P(q) F(q) over the reachable rows, accumulated in row order."""
    total = 0.0
    for row in outcomes:
        if row.fidelity is not None:
            total += row.probability * row.fidelity
    return total


def _check_photon_number(N) -> None:
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise DomainError(f"N must be a positive integer, got {N!r}")


def high_fidelity_region(alpha: float, N: int) -> tuple[int, int] | None:
    """Integer window [ceil(a^2+a), floor(N-a^2+a)] where the bound stays near 1.

    Returns None when the bounds cross (no high-fidelity outcomes exist).
    """
    _check_photon_number(N)
    if not math.isfinite(alpha) or alpha < 0:
        raise DomainError(f"alpha must be finite and non-negative, got {alpha}")
    lo = math.ceil(alpha * alpha + alpha)
    hi = math.floor(N - alpha * alpha + alpha)
    if lo > hi:
        return None
    return max(lo, 0), hi


def evaluate_outcome(target: CoherentTarget, resource: QuasiEprResource, q: int,
                     apply_parity_correction: bool = False) -> TeleportOutcome:
    """Bundle F(q), its bound, and P(q); unreachable q yields fidelity None."""
    return next(_evaluate(target, resource, (q,), apply_parity_correction))
