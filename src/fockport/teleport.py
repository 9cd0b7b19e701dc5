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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, ImpossibleOutcomeError, _check_count, _check_real, _is_integer,
                     _set_vector)
from .quasi_epr import QuasiEprResource
from .states import CoherentTarget


@dataclass(frozen=True)
class MeasurementOutcome:
    """Number-sum result q and phase index s selecting phi^{(q)}_s."""

    q: int
    s_index: int
    phi0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", _check_count(self.q, "q", 0))
        if not 0 <= _check_count(self.s_index, "s_index", None) <= self.q:
            raise DomainError(f"s_index must lie in [0, {self.q}], got {self.s_index}")
        _check_real(self.phi0, "phi0", times=self.q)

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
        for name in ("N", "q"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, 0))
        _set_vector(self, "amplitudes", "amplitudes of BobState", complex, self.q - self.k0 + 1)

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
        _set_vector(self, "amplitudes", "amplitudes of the state", complex, None)


@dataclass(frozen=True)
class TeleportOutcome:
    """Per-q record: fidelity (None when the outcome is unreachable), bound, probability."""

    q: int
    fidelity: float | None
    bound: float
    probability: float


_BATCH = 1 << 14  # entries (q x row length x resource rows) one batch of q sums at a time


def _evaluate(target: CoherentTarget, s: np.ndarray, qs, apply_parity_correction: bool):
    """The table over qs as four lists: the checked q, F, the bound and P, in the order of qs.

    s is one resource's s_n or a (B, N+1) stack of them, for which F and P hold a list over
    the rows per q.  F is None where P is 0.  P and F sum over k = k0..q in order.  q's
    window pairs c_k^2, zero past k_max, with s_{q-k}, the reversed s from N-q+k0 on.  A
    batch of q is summed by one np.add.reduceat per sum, over an array with a row per q
    (0.0, the window, junk) and a column per resource row.  reduceat copies a segment's
    first entry and adds numpy's pairwise sum of the rest, and np.add.reduce adds that same
    sum to 0.0, so a segment from the 0.0 to the window's end has the bits of np.add.reduce
    over the window alone; the segments over the junk are dropped.  Only the products up to
    k_max are formed; past them a window keeps its zeros.  A q past N + k_max is summed as
    N + k_max + 1, whose window lies wholly past k_max, so its bound and P are 0.0.  Every q
    of qs (a range, list or tuple) is checked before any is summed.
    """
    N, k_max = s.shape[-1] - 1, target.k_max
    qs = [q if type(q) is int and q >= 0 else _check_count(q, "q", 0) for q in qs]
    stack = s.reshape(-1, N + 1)
    B, J = len(stack), min(N, k_max) + 1  # J: products in the longest window
    # c_k^2 (to an even length) and, a column per resource row, s_{N-i} and |s_{N-i}|^2, zero-
    # padded and read J entries from every start: c2[k0] is c_k^2 over k0..k0+J-1 to k_max + 1
    c2 = np.concatenate((target.coeffs, np.zeros(J + (k_max + J + 1) % 2))) ** 2
    s_rev = np.zeros((N + J, B), s.dtype)
    s_rev[:N + 1] = stack.T[::-1]
    s2_rev = _starts(np.abs(s_rev) ** 2, J)
    s_rev = _starts(s_rev, J)
    if apply_parity_correction:
        # c_k^2 times the parity phase for q % 2 = 0, 1 (columns), pairing k = 2i, 2i+1; a
        # phase of 1 or +-i multiplies exactly, so its place in the product does not change F
        c2_phase = _starts((c2.reshape(-1, 2, 1) * _PARITY_PHASES).reshape(-1, 2), J)
    c2 = _starts(c2, J)
    size = N + 2  # a row: 0.0, then the longest window
    cap = max(1, _BATCH // (B * size))
    # a row of P and of the numerator per q of a batch (a column per resource row); every
    # batch writes all of columns 1..J of its rows, so past them every window stays zero
    real = np.zeros((min(cap, len(qs)) * size, B))
    cplx = np.zeros(real.shape, s_rev.dtype)
    products = [a.reshape(-1, size, B)[:, 1:J + 1] for a in (real, cplx)]
    starts = np.arange(0, len(real), size).repeat(2)
    fs, bounds, ps = [], [], []
    for first in range(0, len(qs), cap):
        q = np.array([min(q, N + k_max + 1) for q in qs[first:first + cap]])
        shift = q - N
        k0 = np.maximum(shift, 0)
        lo = k0 - shift  # s_{q-k0} in s_rev
        cut = np.maximum(q - k_max, 0)  # the window's k past k_max
        # each row's start and its window's end, in turn, first the bound's, k = k0..q-cut;
        # a sum runs up to the last window's end, which so needs no index of its own
        ends = starts[:2 * len(q)].copy()
        ends[1::2] += N + 2 - lo - cut
        products[0][:len(q)] = c2[k0, :, None]
        bounds += np.add.reduceat(real[:ends[-1], 0], ends[:-1])[::2].tolist()
        products[0][:len(q)] *= s2_rev[lo]
        ends[1::2] += cut
        p = np.add.reduceat(real[:ends[-1]], ends[:-1], axis=0)[::2].ravel().tolist()
        w = c2_phase[k0, :, q & 1] if apply_parity_correction else c2[k0]
        np.multiply(w[:, :, None], s_rev[lo], out=products[1][:len(q)])
        num = np.add.reduceat(cplx[:ends[-1]], ends[:-1], axis=0)[::2]
        # F = |num|^2 / P; Python's complex abs and float ** use libm's hypot and pow
        fs += [None if pb <= 0.0 else abs(z) ** 2 / pb for z, pb in zip(num.ravel().tolist(), p)]
        ps += p
    if s.ndim > 1:  # F and P as a list over the resource rows per q
        fs, ps = ([x[i:i + B] for i in range(0, len(x), B)] for x in (fs, ps))
    return qs, fs, bounds, ps


def _starts(a: np.ndarray, width: int) -> np.ndarray:
    """A view of the contiguous a whose [i] is a[i:i + width]."""
    shape = (len(a) - width + 1, width) + a.shape[1:]
    return np.ndarray(shape, a.dtype, a, 0, a.strides[:1] + a.strides)


def evaluate_all(target: CoherentTarget, resource: QuasiEprResource,
                 apply_parity_correction: bool = False) -> list[TeleportOutcome]:
    """evaluate_outcome for every q = 0..N+k_max, in q order, in one pass.

    Each row is bit-identical to evaluate_outcome at its q; the arrays the
    windows are read from are built once, and a batch of q is summed at once.
    """
    qs = range(resource.N + target.k_max + 1)
    return list(map(TeleportOutcome, *_evaluate(target, resource.s, qs, apply_parity_correction)))


def outcome_probability(target: CoherentTarget, resource: QuasiEprResource, q: int) -> float:
    """P(q) = sum_k |c_k|^2 |s_{q-k}|^2 over the reachable k window."""
    return _evaluate(target, resource.s, (q,), False)[3][0]


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
    phi = _check_real(phi, "measurement_phase", times=q)
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
    offset = _check_real(resource_phase_offset, "resource_phase_offset")
    phase = _check_real(_check_real(phi, "measurement_phase") + offset,
                        "measurement_phase + resource_phase_offset", times=bob.q)
    amps = np.zeros(bob.q + 1, dtype=complex)
    amps[bob.k0:] = bob.amplitudes * np.exp(1j * phase * bob.k_values())
    return SingleModeState(amps)


def parity_phase_correction(state: SingleModeState, q: int) -> SingleModeState:
    """Apply e^{i (-1)^q (pi/2) k^2} at each Fock level k; exactly norm-preserving."""
    factors = _parity_factors(np.arange(len(state.amplitudes)), _check_count(q, "q", 0))
    return SingleModeState(state.amplitudes * factors)


def _parity_factors(ks: np.ndarray, q: int) -> np.ndarray:
    powers = (ks * ks) % 4
    return 1j ** powers if q % 2 == 0 else (-1j) ** powers


# _parity_factors at k % 2 = 0, 1 (rows; it depends on k through k^2 % 4) for q % 2 = 0, 1
_PARITY_PHASES = np.stack([_parity_factors(np.arange(2), odd) for odd in (0, 1)], axis=1)


def fidelity(target: CoherentTarget, resource: QuasiEprResource, q: int,
             apply_parity_correction: bool = False) -> float:
    """Conditional fidelity F(q) = |sum |c_k|^2 s_{q-k}|^2 / sum |c_k|^2 |s_{q-k}|^2.

    With the correction flag the numerator's s_{q-k} gains the quadratic
    phase e^{i (-1)^q (pi/2) k^2}; moduli (and hence the denominator and
    the bound) are unchanged.
    """
    # a negative photon-number sum is an impossible outcome, not a bad argument
    f = None if _is_integer(q) and q < 0 else _evaluate(
        target, resource.s, (q,), apply_parity_correction)[1][0]
    if f is None:
        raise ImpossibleOutcomeError(f"outcome q = {q} has zero probability")
    return f


def fidelity_bound(target: CoherentTarget, q: int, N: int) -> float:
    """Partial target mass sum_{k0..q} |c_k|^2; F(q) never exceeds it."""
    q, N = _check_count(q, "q", 0), _check_count(N, "N", 1)
    k0 = max(0, q - N)
    return float(np.sum(target.weights()[k0:min(q, target.k_max) + 1]))


def average_fidelity(target: CoherentTarget, resource: QuasiEprResource,
                     apply_parity_correction: bool = False) -> float:
    """P-weighted mean of F(q) over all reachable outcomes q = 0..N+k_max."""
    qs = range(resource.N + target.k_max + 1)
    return _mean_fidelity(_evaluate(target, resource.s, qs, apply_parity_correction))


def _mean_fidelity(table) -> float:
    """Sum of P(q) F(q) over the reachable q of a (q, F, bound, P) table, accumulated in q order."""
    total = 0.0
    for f, p in zip(table[1], table[3]):
        if f is not None:
            total += p * f
    return total


def high_fidelity_region(alpha: float, N: int) -> tuple[int, int] | None:
    """Integer window [ceil(a^2+a), floor(N-a^2+a)] where the bound stays near 1.

    Returns None when the bounds cross (no high-fidelity outcomes exist).
    """
    N = _check_count(N, "N", 1)
    alpha = _check_real(alpha, "alpha", 0)
    if alpha * alpha > N:  # the bounds cross; a^2 may even overflow to inf
        return None
    lo = math.ceil(alpha * alpha + alpha)
    hi = N - math.ceil(alpha * alpha - alpha)  # N stays an int: it may lie beyond the float range
    if lo > hi:
        return None
    return max(lo, 0), hi


def evaluate_outcome(target: CoherentTarget, resource: QuasiEprResource, q: int,
                     apply_parity_correction: bool = False) -> TeleportOutcome:
    """Bundle F(q), its bound, and P(q); unreachable q yields fidelity None."""
    return next(map(TeleportOutcome, *_evaluate(target, resource.s, (q,), apply_parity_correction)))
