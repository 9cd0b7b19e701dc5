"""SU(2) rotation kernel for two-mode Fock states in the spin picture.

A two-mode state with fixed total photon number N lives in the spin-j
representation with j = N/2.  A beam splitter acts as a rotation whose
matrix elements are Wigner d-functions d^j_{m'm}(beta); this module
provides exact small-j elements, a stable O(N) column algorithm good to
twice_j = 20000, and the rotation/phase-shift operators built on them.
The column algorithm runs every (m, beta) column of a rotation or of an
angle grid as one lane of a single batched recurrence.

All angular momenta are stored doubled (twice_j, twice_m) so that
half-integer values are exact integers.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeCapError

_NORM_TOL = 1e-10
_FLUSH = 1e-300  # amplitudes below this modulus are flushed to exact zero

# rescaling threshold for the two-sided recurrence working pair
_BIG = 1e250
_LOGBIG = math.log(_BIG)
_TINY = 1.0 / _BIG

# The column kernel advances a batch of lanes, one lane per (twice_m, beta)
# column of a fixed twice_j.  LANE_BUDGET caps lanes x column length per
# kernel call.  Below _SCALAR_LANES lanes each lane runs alone in Python
# floats: one numpy call per step costs more than that until about 16 lanes
# (measured crossover: 10 lanes at twice_j = 20, 14-16 at 100-20000).
LANE_BUDGET = 1 << 15
_SCALAR_LANES = 16
_GLUE_HALF_WIDTH = 20  # branches are glued within this many entries of the band centre


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
        if not abs(norm - 1.0) <= _NORM_TOL:
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


def _recurrence_batched(A: np.ndarray, B: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Run v[i+1] = (B[i] v[i] - A[i] v[i-1]) / A[i+1] over all lanes at once.

    A and B hold one row per lane; A[:, 0] is zero, so the first step is
    B[0] v[0] - 0.0 as in the scalar loop.  Each lane keeps its own
    rescaling: a rescale at step i overwrites the consumed B[lane, i] with
    +inf (divided by _BIG) or -inf (multiplied).  Returns the values w.
    """
    lanes, n = B.shape
    w = np.empty((lanes, n))
    w[:, 0] = seeds
    prev = np.zeros(lanes)
    tmp = np.empty(lanes)
    mag = np.empty(lanes)
    for i in range(n - 1):
        cur, nxt = w[:, i], w[:, i + 1]
        np.multiply(B[:, i], cur, out=nxt)
        np.subtract(nxt, np.multiply(A[:, i], prev, out=tmp), out=nxt)
        np.divide(nxt, A[:, i + 1], out=nxt)
        prev = cur
        np.abs(nxt, out=mag)
        if np.maximum.reduce(mag) <= _BIG and np.minimum.reduce(mag) >= _TINY:
            continue
        big = mag > _BIG
        small = (mag != 0.0) & (mag < _TINY)
        nxt[big] /= _BIG
        cur[big] /= _BIG
        nxt[small] *= _BIG
        cur[small] *= _BIG
        B[big, i] = math.inf
        B[small, i] = -math.inf
    return w


def _recurrence_scalar(A, B, seed: float) -> array:
    """One lane of _recurrence_batched in Python floats; same operations, same order."""
    w = array("d", [seed])
    prev, cur = 0.0, seed
    for a_prev, a, b in zip(A, A[1:], B):
        nxt = (b * cur - a_prev * prev) / a
        mag = abs(nxt)
        if mag > _BIG:
            nxt /= _BIG
            cur /= _BIG
            w[-1], B[len(w) - 1] = cur, math.inf
        elif mag != 0.0 and mag < _TINY:
            nxt *= _BIG
            cur *= _BIG
            w[-1], B[len(w) - 1] = cur, -math.inf
        w.append(nxt)
        prev, cur = cur, nxt
    return w


def _recurrence(A: np.ndarray, B: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Every lane through the batched kernel, or one by one when lanes are few."""
    if len(seeds) >= _SCALAR_LANES:
        return _recurrence_batched(A, B, seeds)
    w = np.empty(B.shape)
    for lane, seed in enumerate(seeds.tolist()):
        w[lane] = np.frombuffer(_recurrence_scalar(memoryview(A[lane]), memoryview(B[lane]), seed))
    return w


def _glue(sgn: np.ndarray, logmag: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """Join each lane's up and down branch, fix the unit norm, flush tiny values.

    Rows [0, L) of sgn and logmag hold the up branches, rows [L, 2L) the
    down branches in reversed order; both are overwritten.  The branches
    meet at the largest joint magnitude within _GLUE_HALF_WIDTH entries of
    the lane's band centre.
    """
    lanes = len(centre)
    n = sgn.shape[1]
    su, lu = sgn[:lanes], logmag[:lanes]
    sd, ld = sgn[lanes:, ::-1], logmag[lanes:, ::-1]
    lane = np.arange(lanes)
    offsets = np.arange(-_GLUE_HALF_WIDTH, _GLUE_HALF_WIDTH + 1)
    window = np.minimum(np.maximum(centre[:, None] + offsets, 0), n - 1)
    joint = lu[lane[:, None], window]
    joint += ld[lane[:, None], window]
    p = window[lane, np.argmax(joint, axis=1)]
    ld += (lu[lane, p] - ld[lane, p])[:, None]
    sd *= (su[lane, p] * sd[lane, p])[:, None]
    upper = np.arange(n) > p[:, None]
    np.copyto(lu, ld, where=upper)
    np.copyto(su, sd, where=upper)
    peak = lu.max(axis=1)
    out = lu - peak[:, None]
    out *= 2.0
    sums = np.exp(out, out=out).sum(axis=1)
    lognorm = peak + 0.5 * np.array([math.log(s) for s in sums.tolist()])
    np.subtract(lu, lognorm[:, None], out=out)
    np.exp(out, out=out)
    np.multiply(su, out, out=out)
    out[np.abs(out) < _FLUSH] = 0.0
    return out


def _recurrence_columns(tj: int, tms: np.ndarray, betas) -> np.ndarray:
    """Stable d^j_{.,m}(beta) columns, one lane per (beta, m) pair, beta-major.

    Each lane runs the three-term recurrence in m' up from m' = -j and down
    from m' = +j, each seeded with the closed-form endpoint sign, glues the
    two branches at the classically allowed band centre m' ~ m cos(beta),
    and fixes the overall scale with the unit-column-norm constraint.  Both
    directions are lanes of one recurrence: the down branch runs on reversed
    coefficients.  Returns (lane, m') values; O(N) work per lane, stable to
    twice_j = 20000 and beyond.
    """
    n = tj + 1
    j = tj / 2.0
    lanes = len(betas) * len(tms)
    trig = np.array([(math.sin(b), math.cos(b), math.cos(b / 2.0), math.sin(b / 2.0))
                     for b in betas])
    sb, cb, ch, sh = np.repeat(trig, len(tms), axis=0).T
    tm = np.tile(tms, len(betas))
    m = tm / 2.0
    mp = np.arange(n, dtype=float) - j

    # recurrence: A[i] v[i+1] = B[i] v[i] - A[i-1] v[i-1], one row per lane.
    # Rows [0, L) run up from m' = -j; rows [L, 2L) run down from m' = +j on
    # the reversed coefficients.  Column 0 of A is the zero before v[0].
    A = np.zeros((2 * lanes, n))
    A[:lanes, 1:] = sb[:, None] * np.sqrt((j - mp[:-1]) * (j + mp[:-1] + 1.0))
    A[lanes:, 1:] = A[:lanes, :0:-1]
    B = np.empty((2 * lanes, n))
    B[:lanes] = 2.0 * (m[:, None] - mp * cb[:, None])
    B[lanes:] = B[:lanes, ::-1]

    # endpoint signs of d_{-j,m} = C ch^{j-m} sh^{j+m} and
    # d_{+j,m} = (-1)^{j-m} C ch^{j+m} sh^{j-m}, C > 0
    odd_lo = (tj - tm) // 2 % 2 == 1
    odd_hi = (tj + tm) // 2 % 2 == 1
    sgn_ch = np.where(ch >= 0, 1.0, -1.0)
    sgn_sh = np.where(sh >= 0, 1.0, -1.0)
    sgn_bot = np.where(odd_lo, sgn_ch, 1.0) * np.where(odd_hi, sgn_sh, 1.0)
    sgn_top = (np.where(odd_lo, -1.0, 1.0) * np.where(odd_hi, sgn_ch, 1.0)
               * np.where(odd_lo, sgn_sh, 1.0))

    w = _recurrence(A, B, np.concatenate([sgn_bot, sgn_top]))
    del A  # free the coefficients before the tail allocates
    # sign/log-magnitude form.  B is finite except where a step rescaled;
    # entry i carries the +-_LOGBIG shifts of steps 0..i, summed in step order
    logmag = np.abs(w)
    with np.errstate(divide="ignore"):
        np.log(logmag, out=logmag)
    rescaled = np.isinf(B)
    if rescaled.any():
        np.copysign(_LOGBIG, B, out=B)
        B[~rescaled] = 0.0
        logmag += np.cumsum(B, axis=1, out=B)
    del B, rescaled
    centre = np.minimum(np.maximum(np.rint(j + m * cb), 0), n - 1).astype(np.intp)
    with np.errstate(invalid="ignore"):  # an overflowed lane is refused below
        out = _glue(np.sign(w, out=w), logmag, centre)
    if not np.isfinite(out).all():
        beta = betas[np.argmin(np.isfinite(out).all(axis=1)) // len(tms)]
        raise DomainError(f"beta = {beta!r} is too close to a multiple of pi: the column "
                          f"recurrence overflows at twice_j = {tj}")
    return out


def _check_angles(betas) -> list:
    """Angles as floats; NaN and infinities are refused here, overflowing columns by the kernel."""
    betas = [float(b) for b in betas]
    for beta in betas:
        if not math.isfinite(beta):
            raise DomainError(f"beta must be finite, got {beta}")
    return betas


def _columns(tj: int, tms, betas) -> np.ndarray:
    """d^j_{m',m}(beta) for every beta and m: array indexed [beta, m, m']."""
    tms = np.asarray(tms, dtype=np.int64)
    shape = (len(betas), len(tms), tj + 1)
    turning = [b for b, beta in enumerate(betas) if math.sin(beta) != 0.0]
    if len(turning) == len(betas):
        return _recurrence_columns(tj, tms, betas).reshape(shape)
    out = np.zeros(shape)
    if turning:
        cols = _recurrence_columns(tj, tms, [betas[b] for b in turning])
        out[turning] = cols.reshape((len(turning),) + shape[1:])
    rows = np.arange(len(tms))
    for b, beta in enumerate(betas):
        if math.sin(beta) != 0.0:
            continue
        if math.cos(beta) > 0.0:
            # beta = 0 mod 2pi; full winding contributes (-1)^{2j k}
            k = round(beta / (2.0 * math.pi))
            out[b, rows, (tj + tms) // 2] = (-1.0) ** (tj * k)
        else:
            # beta = pi mod 2pi: m -> -m with phase (-1)^{j-m}
            k = round((beta - math.pi) / (2.0 * math.pi))
            out[b, rows, (tj - tms) // 2] = (np.where((tj - tms) // 2 % 2 == 1, -1.0, 1.0)
                                              * (-1.0) ** (tj * k))
    return out


def _column_blocks(tj: int, tms: np.ndarray, betas: list):
    """Yield (beta slice, m slice, columns) covering every (beta, m) pair in order.

    A block is a run of whole betas when one beta's columns fit in
    LANE_BUDGET lane-elements, else a run of m values at one beta, so the
    kernel's working set stays bounded whatever the grid.  A lane costs its
    column length, or the glue window when that is longer.
    """
    cap = max(1, LANE_BUDGET // max(tj + 1, 2 * _GLUE_HALF_WIDTH + 1))
    m_step = min(len(tms), cap)
    b_step = max(1, cap // len(tms))
    for b in range(0, len(betas), b_step):
        for m in range(0, len(tms), m_step):
            yield (slice(b, b + b_step), slice(m, m + m_step),
                   _columns(tj, tms[m:m + m_step], betas[b:b + b_step]))


def wigner_d_column(j: SpinJ, m_in: SpinProjection, beta: float) -> WignerColumn:
    """Full column d^j_{m',m_in}(beta) over m' = -j..j, stable at large j."""
    _check_projection(j, m_in, "m_in")
    (beta,) = _check_angles([beta])
    return WignerColumn(j, m_in, beta, _columns(j.twice_j, [m_in.twice_m], [beta])[0, 0])


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


def rotate_about_x_grid(state: SpinState, betas) -> list:
    """rotate_about_x at every angle of a grid, all columns through one kernel."""
    betas = _check_angles(betas)
    j = state.j
    tms = state.twice_m_values()
    nonzero = np.flatnonzero(state.amplitudes != 0.0)
    out = np.zeros((len(betas), j.dim), dtype=complex)
    for b, ms, cols in _column_blocks(j.twice_j, tms[nonzero], betas):
        for col, i in zip(cols.transpose(1, 0, 2), nonzero[ms]):
            # i^{m-m'} = e^{i pi (m-m')/2}; m-m' is an integer so this is exact
            k = (tms[i] - tms) // 2
            out[b] += state.amplitudes[i] * (1j ** np.mod(k, 4)) * col
    out[np.abs(out) < _FLUSH] = 0.0
    return [SpinState(j, row / np.linalg.norm(row)) for row in out]


def rotate_about_x(state: SpinState, beta: float) -> SpinState:
    """Beam-splitter rotation: out[m'] = sum_m i^{m-m'} d^j_{m'm}(beta) in[m]."""
    return rotate_about_x_grid(state, [beta])[0]


def phase_shift(state: SpinState, theta: float) -> SpinState:
    """Relative phase shift: amplitude at projection m gains e^{i theta m}."""
    phases = np.exp(1j * theta * (state.twice_m_values() / 2.0))
    return SpinState(state.j, state.amplitudes * phases)
