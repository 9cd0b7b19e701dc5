"""SU(2) rotation kernel for two-mode Fock states in the spin picture.

A two-mode state with fixed total photon number N lives in the spin-j
representation with j = N/2.  A beam splitter acts as a rotation whose
matrix elements are Wigner d-functions d^j_{m'm}(beta); this module
provides exact small-j elements, a stable O(N) column algorithm good to
twice_j = 20000, and the rotation/phase-shift operators built on them.

All angular momenta are stored doubled (twice_j, twice_m) so that
half-integer values are exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeCapError

_NORM_TOL = 1e-10
_FLUSH = 1e-300  # amplitudes below this modulus are flushed to exact zero

# rescaling threshold for the two-sided recurrence working pair
_BIG = 1e250
_LOGBIG = math.log(_BIG)


@dataclass(frozen=True)
class SpinJ:
    """Total spin j, stored as the integer twice_j = 2j."""

    twice_j: int

    def __post_init__(self):
        if not isinstance(self.twice_j, (int, np.integer)) or self.twice_j < 0:
            raise DomainError(f"twice_j must be a non-negative integer, got {self.twice_j!r}")

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def dim(self) -> int:
        return self.twice_j + 1


@dataclass(frozen=True)
class SpinProjection:
    """Projection m along z, stored as the integer twice_m = 2m."""

    twice_m: int

    def __post_init__(self):
        if not isinstance(self.twice_m, (int, np.integer)):
            raise DomainError(f"twice_m must be an integer, got {self.twice_m!r}")

    @property
    def m(self) -> float:
        return self.twice_m / 2.0


def _check_projection(j: SpinJ, m: SpinProjection, name: str = "m"):
    if abs(m.twice_m) > j.twice_j:
        raise DomainError(f"|{name}| = {abs(m.m)} exceeds j = {j.j}")
    if (m.twice_m - j.twice_j) % 2 != 0:
        raise DomainError(f"{name} and j must both be integer or both half-integer")


@dataclass(frozen=True)
class SpinState:
    """Normalized state in the |j m> basis; amplitudes[i] belongs to m = -j + i."""

    j: SpinJ
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.j.dim,):
            raise DomainError(f"amplitude vector must have length {self.j.dim}, got {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > _NORM_TOL:
            raise DomainError(f"state norm {norm} deviates from 1 by more than {_NORM_TOL}")

    def twice_m_values(self) -> np.ndarray:
        return np.arange(self.j.dim) * 2 - self.j.twice_j

    def amplitude(self, m: SpinProjection) -> complex:
        _check_projection(self.j, m)
        return complex(self.amplitudes[(m.twice_m + self.j.twice_j) // 2])


def basis_state(j: SpinJ, m: SpinProjection) -> SpinState:
    """The basis vector |j m>."""
    _check_projection(j, m)
    amps = np.zeros(j.dim, dtype=complex)
    amps[(m.twice_m + j.twice_j) // 2] = 1.0
    return SpinState(j, amps)


@dataclass(frozen=True)
class WignerColumn:
    """Column d^j_{m', source_m}(beta) for all m' = -j..j (real by convention)."""

    j: SpinJ
    source_m: SpinProjection
    beta: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.j.dim,):
            raise DomainError(f"column must have length {self.j.dim}, got {vals.shape}")

    def value(self, m_out: SpinProjection) -> float:
        _check_projection(self.j, m_out, "m_out")
        return float(self.values[(m_out.twice_m + self.j.twice_j) // 2])


@dataclass(frozen=True)
class BeamSplitterAngle:
    """Beam-splitter rotation angle beta in [0, pi]; beta = 2*arccos(sqrt R)."""

    beta: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= math.pi:
            raise DomainError(f"beta must lie in [0, pi], got {self.beta}")

    @classmethod
    def from_reflectivity(cls, reflectivity: float) -> "BeamSplitterAngle":
        if not 0.0 <= reflectivity <= 1.0:
            raise DomainError(f"reflectivity must lie in [0, 1], got {reflectivity}")
        return cls(2.0 * math.acos(math.sqrt(reflectivity)))

    @property
    def reflectivity(self) -> float:
        return math.cos(self.beta / 2.0) ** 2

    @property
    def transmittivity(self) -> float:
        return 1.0 - self.reflectivity

    @classmethod
    def balanced(cls) -> "BeamSplitterAngle":
        return cls(math.pi / 2.0)


def wigner_d_element(j: SpinJ, m_out: SpinProjection, m_in: SpinProjection, beta: float) -> float:
    """d^j_{m_out,m_in}(beta) by the finite Wigner sum.

    Factorial products are kept as exact integers and each term carries a
    single correctly rounded sqrt, so the only loss is the alternating-sum
    cancellation itself (negligible up to twice_j ~ 60; use wigner_d_column
    for large j).
    """
    _check_projection(j, m_out, "m_out")
    _check_projection(j, m_in, "m_in")
    tj = j.twice_j
    tmp, tm = m_out.twice_m, m_in.twice_m
    a = (tj + tmp) // 2  # j + m'
    b = (tj - tmp) // 2  # j - m'
    c = (tj + tm) // 2   # j + m
    d = (tj - tm) // 2   # j - m
    P = math.factorial(a) * math.factorial(b) * math.factorial(c) * math.factorial(d)
    r = (tmp - tm) // 2  # m' - m, always an integer
    kmin = max(0, -r)
    kmax = min(c, b)
    ch = math.cos(beta / 2.0)
    sh = math.sin(beta / 2.0)
    terms = []
    for k in range(kmin, kmax + 1):
        D = (math.factorial(c - k) * math.factorial(k)
             * math.factorial(b - k) * math.factorial(k + r))
        mag = math.sqrt(P / (D * D))
        sign = -1.0 if (r + k) % 2 else 1.0
        terms.append(sign * mag * ch ** (tj - 2 * k - r) * sh ** (2 * k + r))
    return math.fsum(terms)


def _column_recurrence(tj: int, tm: int, beta: float) -> np.ndarray:
    """Stable d^j_{.,m}(beta) column via the three-term recurrence in m'.

    Runs one pass up from m' = -j and one down from m' = +j, each seeded
    with the closed-form endpoint value in sign/log-magnitude form, glues
    the two branches at the classically allowed band centre, and fixes the
    overall scale with the unit-column-norm constraint.  O(N) time, stable
    to twice_j = 20000 and beyond.
    """
    n = tj + 1
    j = tj / 2.0
    m = tm / 2.0
    sb = math.sin(beta)
    cb = math.cos(beta)
    mp = np.arange(n, dtype=float) - j
    # recurrence: A[i] v[i+1] = B[i] v[i] - A[i-1] v[i-1]
    A = sb * np.sqrt((j - mp[:-1]) * (j + mp[:-1] + 1.0))
    B = 2.0 * (m - mp * cb)

    ch = math.cos(beta / 2.0)
    sh = math.sin(beta / 2.0)
    sgn_ch = 1.0 if ch >= 0 else -1.0
    sgn_sh = 1.0 if sh >= 0 else -1.0
    # endpoint signs of d_{-j,m} = C ch^{j-m} sh^{j+m} and
    # d_{+j,m} = (-1)^{j-m} C ch^{j+m} sh^{j-m}, C > 0
    sgn_bot = sgn_ch ** ((tj - tm) // 2) * sgn_sh ** ((tj + tm) // 2)
    sgn_top = ((-1.0) ** ((tj - tm) // 2)
               * sgn_ch ** ((tj + tm) // 2) * sgn_sh ** ((tj - tm) // 2))

    # upward pass from m' = -j
    w_u = np.empty(n)
    e_u = np.empty(n)
    w_u[0] = sgn_bot
    e_u[0] = 0.0
    prev, cur, cur_e = 0.0, sgn_bot, 0.0
    for i in range(n - 1):
        nxt = (B[i] * cur - (A[i - 1] * prev if i > 0 else 0.0)) / A[i]
        mag = abs(nxt)
        if mag > _BIG:
            nxt /= _BIG
            cur /= _BIG
            cur_e += _LOGBIG
            w_u[i] = cur
            e_u[i] = cur_e
        elif mag != 0.0 and mag < 1.0 / _BIG:
            nxt *= _BIG
            cur *= _BIG
            cur_e -= _LOGBIG
            w_u[i] = cur
            e_u[i] = cur_e
        w_u[i + 1] = nxt
        e_u[i + 1] = cur_e
        prev, cur = cur, nxt

    # downward pass from m' = +j
    w_d = np.empty(n)
    e_d = np.empty(n)
    w_d[n - 1] = sgn_top
    e_d[n - 1] = 0.0
    prev, cur, cur_e = 0.0, sgn_top, 0.0
    for i in range(n - 1, 0, -1):
        nxt = (B[i] * cur - (A[i] * prev if i < n - 1 else 0.0)) / A[i - 1]
        mag = abs(nxt)
        if mag > _BIG:
            nxt /= _BIG
            cur /= _BIG
            cur_e += _LOGBIG
            w_d[i] = cur
            e_d[i] = cur_e
        elif mag != 0.0 and mag < 1.0 / _BIG:
            nxt *= _BIG
            cur *= _BIG
            cur_e -= _LOGBIG
            w_d[i] = cur
            e_d[i] = cur_e
        w_d[i - 1] = nxt
        e_d[i - 1] = cur_e
        prev, cur = cur, nxt

    with np.errstate(divide="ignore"):
        lu = np.log(np.abs(w_u), out=np.full(n, -np.inf), where=(w_u != 0)) + e_u
        ld = np.log(np.abs(w_d), out=np.full(n, -np.inf), where=(w_d != 0)) + e_d

    # glue the branches at the centre of the classically allowed band
    # m' ~ m cos(beta), refined within a small window by joint magnitude
    centre = int(round(j + m * cb))
    centre = min(max(centre, 0), n - 1)
    lo = max(0, centre - 20)
    hi = min(n - 1, centre + 20)
    window = np.arange(lo, hi + 1)
    p = int(window[np.argmax(lu[window] + ld[window])])

    offset = lu[p] - ld[p]
    sign_match = np.sign(w_u[p]) * np.sign(w_d[p])
    llog = np.concatenate([lu[: p + 1], ld[p + 1:] + offset])
    sgn = np.concatenate([np.sign(w_u[: p + 1]), np.sign(w_d[p + 1:]) * sign_match])
    peak = llog.max()
    lognorm = peak + 0.5 * math.log(float(np.exp(2.0 * (llog - peak)).sum()))
    out = sgn * np.exp(llog - lognorm)
    out[np.abs(out) < _FLUSH] = 0.0
    return out


def wigner_d_column(j: SpinJ, m_in: SpinProjection, beta: float) -> WignerColumn:
    """Full column d^j_{m',m_in}(beta) over m' = -j..j, stable at large j."""
    _check_projection(j, m_in, "m_in")
    tj, tm = j.twice_j, m_in.twice_m
    if tj == 0:
        return WignerColumn(j, m_in, beta, np.array([1.0]))
    if math.sin(beta) == 0.0:
        values = np.zeros(j.dim)
        if math.cos(beta) > 0.0:
            # beta = 0 mod 2pi; full winding contributes (-1)^{2j k}
            k = round(beta / (2.0 * math.pi))
            values[(tj + tm) // 2] = (-1.0) ** (tj * k)
        else:
            # beta = pi mod 2pi: m -> -m with phase (-1)^{j-m}
            k = round((beta - math.pi) / (2.0 * math.pi))
            values[(tj - tm) // 2] = (-1.0) ** ((tj - tm) // 2) * (-1.0) ** (tj * k)
        return WignerColumn(j, m_in, beta, values)
    return WignerColumn(j, m_in, beta, _column_recurrence(tj, tm, beta))


def brute_force_rotation(j: SpinJ, beta: float) -> np.ndarray:
    """Dense beam-splitter rotation matrix by eigendecomposition of J_x.

    Independent oracle for rotate_about_x: builds the tridiagonal J_x with
    <j,m+-1|J_x|j,m> = 1/2 sqrt(j(j+1)-m(m+-1)), diagonalizes it, and
    exponentiates.  Matrix entry [i', i] equals i^{m-m'} d^j_{m'm}(beta).
    Capped at twice_j = 40 where dense diagonalization is cheap and sharp.
    """
    if j.twice_j > 40:
        raise SizeCapError(f"brute_force_rotation is capped at twice_j = 40, got {j.twice_j}")
    n = j.dim
    jj = j.j
    mv = np.arange(n, dtype=float) - jj
    off = 0.5 * np.sqrt(jj * (jj + 1.0) - mv[:-1] * (mv[:-1] + 1.0))
    jx = np.zeros((n, n))
    ii = np.arange(n - 1)
    jx[ii, ii + 1] = off
    jx[ii + 1, ii] = off
    evals, evecs = np.linalg.eigh(jx)
    return (evecs * np.exp(1j * beta * evals)) @ evecs.T


def rotate_about_x(state: SpinState, beta: float) -> SpinState:
    """Beam-splitter rotation: out[m'] = sum_m i^{m-m'} d^j_{m'm}(beta) in[m]."""
    j = state.j
    n = j.dim
    out = np.zeros(n, dtype=complex)
    tms = state.twice_m_values()
    for i, amp in enumerate(state.amplitudes):
        if amp == 0.0:
            continue
        tm = int(tms[i])
        col = wigner_d_column(j, SpinProjection(tm), beta).values
        # i^{m-m'} = e^{i pi (m-m')/2}; m-m' is an integer so this is exact
        k = (tm - tms) // 2
        out += amp * (1j ** np.mod(k, 4)) * col
    out[np.abs(out) < _FLUSH] = 0.0
    norm = np.linalg.norm(out)
    return SpinState(j, out / norm)


def phase_shift(state: SpinState, theta: float) -> SpinState:
    """Relative phase shift: amplitude at projection m gains e^{i theta m}."""
    phases = np.exp(1j * theta * (state.twice_m_values() / 2.0))
    return SpinState(state.j, state.amplitudes * phases)
