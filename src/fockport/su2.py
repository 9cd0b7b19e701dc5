"""SU(2) rotation kernel for two-mode Fock states in the spin picture.

A two-mode state with fixed total photon number N lives in the spin-j
representation with j = N/2.  A beam splitter acts as a rotation whose
matrix elements are Wigner d-functions d^j_{m'm}(beta); this module
provides exact small-j elements, a stable O(N) column algorithm (tested
bit for bit against a reference recurrence at twice_j = 100000, capped at
MAX_TWICE_J = 1,000,000) and the rotation/phase-shift operators on them.
The column algorithm runs every (m, beta) column of a rotation or of an
angle grid as one lane of a single batched recurrence.

All angular momenta are stored doubled (twice_j, twice_m) so that
half-integer values are exact integers.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeCapError, _check_count, _check_real, _set_vector

_FLUSH = 1e-300  # amplitudes below this modulus are flushed to exact zero

# rescaling threshold for the two-sided recurrence working pair
_BIG = 1e250
_LOGBIG = math.log(_BIG)
_TINY = 1.0 / _BIG

# The column kernel advances a batch of recurrence rows, one row per twice_m
# and beta, for the (twice_m, beta) columns of a fixed twice_j; a column's lane
# reads the rows of m and -m.  LANE_BUDGET caps lanes x column length per
# kernel call.  Below _SCALAR_LANES rows each row runs alone in Python
# floats, to its glue windows.  From 16 rows one numpy call per step wins
# below column length ~1000 and loses above (batched vs every lane alone,
# 2 CPUs: dense rotation N = 300 24 vs 55 ms, N = 2000 3.0 vs 1.7 s).
LANE_BUDGET = 1 << 15
_SCALAR_LANES = 16
_GLUE_HALF_WIDTH = 20  # branches are glued within this many entries of the band centre

# Largest photon number N = twice_j that SpinJ accepts, checked before any
# state vector is allocated.  A basis-state rotation at the cap peaks at about
# 340 MB; far beyond it numpy cannot allocate the dense vectors at all.
MAX_TWICE_J = 1_000_000


@dataclass(frozen=True)
class SpinJ:
    """Total spin j, stored as the integer twice_j = 2j."""

    twice_j: int

    def __post_init__(self):
        object.__setattr__(self, "twice_j", _check_count(self.twice_j, "twice_j", 0))
        if self.twice_j > MAX_TWICE_J:
            raise SizeCapError(f"photon number N = twice_j = {self.twice_j} exceeds the cap "
                               f"{MAX_TWICE_J}")

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
        object.__setattr__(self, "twice_m", _check_count(self.twice_m, "twice_m", None))

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
        _set_vector(self, "amplitudes", "amplitudes of the state", complex, self.j.dim)

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
        _set_vector(self, "values", "values of the column", float, self.j.dim, unit=False)
        _check_real(self.beta, "beta")

    def value(self, m_out: SpinProjection) -> float:
        _check_projection(self.j, m_out, "m_out")
        return float(self.values[(m_out.twice_m + self.j.twice_j) // 2])


@dataclass(frozen=True)
class BeamSplitterAngle:
    """Beam-splitter rotation angle beta in [0, pi]; beta = 2*arccos(sqrt R)."""

    beta: float

    def __post_init__(self):
        if not 0.0 <= _check_real(self.beta, "beta") <= math.pi:
            raise DomainError(f"beta must lie in [0, pi], got {self.beta}")

    @classmethod
    def from_reflectivity(cls, reflectivity: float) -> "BeamSplitterAngle":
        if not 0.0 <= _check_real(reflectivity, "reflectivity") <= 1.0:
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
    cancellation itself.  That loss is below 1e-10 up to twice_j = 60 and
    grows fast past it (4e-4 at twice_j = 100; |d| > 1 by 150; the terms
    overflow a float past ~520), so the sum is capped at twice_j = 60: use
    wigner_d_column for large j.
    """
    if j.twice_j > 60:
        raise SizeCapError(f"wigner_d_element is capped at twice_j = 60, got {j.twice_j}")
    _check_projection(j, m_out, "m_out")
    _check_projection(j, m_in, "m_in")
    beta = _check_real(beta, "beta")
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed lane is refused later
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
    push, big, tiny = w.append, _BIG, _TINY
    prev, cur = 0.0, seed
    for a_prev, a, b in zip(A, A[1:], B):
        nxt = (b * cur - a_prev * prev) / a
        if not tiny <= abs(nxt) <= big:  # also 0.0 and NaN, which are not rescaled
            mag = abs(nxt)
            if mag > big:
                nxt /= big
                cur /= big
                w[-1], B[len(w) - 1] = cur, math.inf
            elif 0.0 < mag:
                nxt *= big
                cur *= big
                w[-1], B[len(w) - 1] = cur, -math.inf
        push(nxt)
        prev, cur = cur, nxt
    return w


def _recurrence(A: np.ndarray, B: np.ndarray, seeds: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Every lane through the batched kernel, or when lanes are few each alone to its stop."""
    if len(seeds) >= _SCALAR_LANES:
        return _recurrence_batched(A, B, seeds)
    w = np.zeros(B.shape)  # a lane's row past its stop stays zero
    for lane, (seed, stop) in enumerate(zip(seeds.tolist(), stops.tolist())):
        w[lane, :stop] = np.frombuffer(
            _recurrence_scalar(memoryview(A[lane, :stop]), memoryview(B[lane, :stop]), seed))
    return w


def _glue(sgn: np.ndarray, logmag: np.ndarray, lanes, centre: np.ndarray, out: np.ndarray):
    """Join each lane's up and down branch, fix the unit norm, flush tiny values, into out.

    sgn and logmag hold one up branch per beta and m of an m list that holds -m with
    each m, ascending, indexed [beta, m, m']; lanes picks the lanes' m, centre holds
    their band centres [beta, lane].  A lane's down branch is the row of -m read
    backwards, its k-th step from m' = +j carrying the sign (-1)^k.  The branches
    meet at the largest joint magnitude within _GLUE_HALF_WIDTH entries of the centre.
    """
    n = sgn.shape[2]
    su, lu = sgn[:, lanes], logmag[:, lanes]
    sd, ld = sgn[:, ::-1, ::-1][:, lanes], logmag[:, ::-1, ::-1][:, lanes]
    b = np.arange(len(centre))[:, None, None]
    lane = np.arange(centre.shape[1])[:, None]
    offsets = np.arange(-_GLUE_HALF_WIDTH, _GLUE_HALF_WIDTH + 1)
    window = np.minimum(np.maximum(centre[..., None] + offsets, 0), n - 1)
    joint = lu[b, lane, window]
    joint += ld[b, lane, window]
    p = window[b, lane, np.argmax(joint, axis=2)[..., None]]
    upper = np.arange(n) > p
    np.copyto(out, lu)
    np.add(ld, lu[b, lane, p] - ld[b, lane, p], out=out, where=upper)
    peak = out.max(axis=2, keepdims=True)
    scaled = out - peak
    scaled *= 2.0
    sums = np.exp(scaled, out=scaled).sum(axis=2).ravel().tolist()
    np.subtract(out, peak + 0.5 * np.array([math.log(s) for s in sums]).reshape(p.shape),
                out=out)
    np.exp(out, out=out)
    # the down branch's sign: (-1)^k at m' = j - k, made to agree with the up branch at p
    sign = scaled
    np.copyto(sign, sd)
    sign[..., -2::-2] *= -1.0
    sign *= su[b, lane, p] * sign[b, lane, p]
    np.copyto(sign, su, where=~upper)
    out *= sign
    out[np.abs(out, out=sign) < _FLUSH] = 0.0


def _recurrence_columns(tj: int, tms: np.ndarray, betas, out: np.ndarray):
    """Write stable d^j_{.,m}(beta) columns into out[beta, m, m'].

    Each lane (m, beta) runs the three-term recurrence in m' up from m' = -j,
    seeded with the closed-form endpoint sign, and down from m' = +j; it glues
    the two branches at the classically allowed band centre m' ~ m cos(beta),
    where the glue also gives the down branch its sign, and fixes the overall
    scale with the unit-column-norm constraint.  The down recurrence of (m, beta)
    has the up coefficients of (-m, beta) reversed, with B negated, so its k-th
    value is (-1)^k times the up branch of (-m, beta), bit for bit.  Each beta
    therefore runs one up row per m of the symmetric closure of tms, and lane m
    reads its down branch from the row of -m.  Run alone, a row stops one entry
    past the glue window of each lane that reads it; batched rows run in full.
    """
    n = tj + 1
    j = tj / 2.0
    # the closure, ascending: row k's mirror -m is row -1 - k of the same beta
    ms = sorted({*tms.tolist(), *(-tms).tolist()})
    at = {tm: k for k, tm in enumerate(ms)}
    lanes = [at[tm] for tm in tms.tolist()]
    if lanes == list(range(lanes[0], lanes[0] + len(lanes))):
        lanes = slice(lanes[0], lanes[0] + len(lanes))  # rows read as views, not copies
    trig = np.array([(math.sin(b), math.cos(b), math.cos(b / 2.0), math.sin(b / 2.0))
                     for b in betas])
    sb, cb, ch, sh = np.repeat(trig, len(ms), axis=0).T
    tm = np.array(ms * len(betas))
    m = tm / 2.0

    # a row runs one entry past the glue window centre +- _GLUE_HALF_WIDTH of lane m
    # and, read backwards, of lane -m: the step computing that entry can still
    # rescale the last one the glue reads
    centre = np.minimum(np.maximum(np.rint(j + m * cb), 0), n - 1).astype(np.intp)
    centre = centre.reshape(len(betas), len(ms))
    reach = np.maximum(centre, n - 1 - centre[:, ::-1])
    stops = np.minimum(reach + _GLUE_HALF_WIDTH + 2, n).ravel()
    # rows run alone are built and transformed only as far as the longest of them runs
    rows = len(tm)
    width = int(stops.max()) if rows < _SCALAR_LANES else n
    mp = np.arange(width, dtype=float) - j

    # recurrence: A[i] v[i+1] = B[i] v[i] - A[i-1] v[i-1], one row per (beta, m)
    # from m' = -j.  Column 0 of A is the zero before v[0].
    A = np.zeros((rows, width))
    np.multiply(sb[:, None], np.sqrt((j - mp[:-1]) * (j + mp[:-1] + 1.0)), out=A[:, 1:])
    B = np.multiply(mp, cb[:, None])
    np.subtract(m[:, None], B, out=B)
    B *= 2.0

    # endpoint sign of d_{-j,m} = C ch^{j-m} sh^{j+m}, C > 0
    odd_lo = (tj - tm) // 2 % 2 == 1
    odd_hi = (tj + tm) // 2 % 2 == 1
    sgn_ch = np.where(ch >= 0, 1.0, -1.0)
    sgn_sh = np.where(sh >= 0, 1.0, -1.0)
    sgn_bot = np.where(odd_lo, sgn_ch, 1.0) * np.where(odd_hi, sgn_sh, 1.0)

    w = _recurrence(A, B, sgn_bot, stops)
    del A  # free the coefficients before the tail allocates
    # sign/log-magnitude form.  B is finite except where a step rescaled;
    # entry i carries the +-_LOGBIG shifts of steps 0..i, summed in step order.
    # Past width both stay zero: the glue reads no row past its stop
    logmag = np.zeros((rows, n))
    head = logmag[:, :width]
    with np.errstate(divide="ignore"):
        np.log(np.abs(w, out=head), out=head)
    rescaled = np.isinf(B)
    if rescaled.any():
        np.copysign(_LOGBIG, B, out=B)
        B[~rescaled] = 0.0
        head += np.cumsum(B, axis=1, out=B)
    del B, rescaled
    sgn = w if width == n else np.zeros((rows, n))
    np.sign(w, out=sgn[:, :width])
    del w
    shape = (len(betas), len(ms), n)
    with np.errstate(invalid="ignore"):  # an overflowed lane is refused below
        _glue(sgn.reshape(shape), logmag.reshape(shape), lanes, centre[:, lanes], out)
    if not np.isfinite(out).all():
        beta = betas[np.argmin(np.isfinite(out).all(axis=(1, 2)))]
        raise DomainError(f"beta = {beta!r} is too close to a multiple of pi: the column "
                          f"recurrence overflows at twice_j = {tj}")


def _columns(tj: int, tms, betas) -> np.ndarray:
    """d^j_{m',m}(beta) for every beta and m: array indexed [beta, m, m']."""
    tms = np.asarray(tms, dtype=np.int64)
    out = np.empty((len(betas), len(tms), tj + 1))
    # beta = +-0.0 is the only finite double with sin(beta) = 0: d(0) is the identity
    start = 0
    for turning, run in itertools.groupby(betas, key=lambda beta: beta != 0.0):
        stop = start + len(list(run))
        if turning:
            _recurrence_columns(tj, tms, betas[start:stop], out[start:stop])
        else:
            out[start:stop] = 0.0
            out[start:stop, np.arange(len(tms)), (tj + tms) // 2] = 1.0
        start = stop
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
    beta = _check_real(beta, "beta")
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
    return (evecs * np.exp(1j * _check_real(beta, "beta", times=jj) * evals)) @ evecs.T


def _rotated(state: SpinState, betas) -> np.ndarray:
    """rotate_about_x_grid's amplitudes: one unit-norm row per angle, in one array."""
    betas = [_check_real(beta, "beta") for beta in betas]  # the kernel refuses overflowing columns
    tms = state.twice_m_values()
    nonzero = np.flatnonzero(state.amplitudes != 0.0)
    out = np.zeros((len(betas), state.j.dim), dtype=complex)
    for b, ms, cols in _column_blocks(state.j.twice_j, tms[nonzero], betas):
        for col, i in zip(cols.transpose(1, 0, 2), nonzero[ms]):
            # i^{m-m'} = e^{i pi (m-m')/2}; m-m' is an integer so this is exact
            k = (tms[i] - tms) // 2
            out[b] += state.amplitudes[i] * (1j ** np.mod(k, 4)) * col
    out[np.abs(out) < _FLUSH] = 0.0
    for row in out:
        row /= np.linalg.norm(row)
    return out


def rotate_about_x_grid(state: SpinState, betas) -> list:
    """rotate_about_x at every angle of a grid, all columns through one kernel."""
    return [SpinState(state.j, row) for row in _rotated(state, betas)]


def rotate_about_x(state: SpinState, beta: float) -> SpinState:
    """Beam-splitter rotation: out[m'] = sum_m i^{m-m'} d^j_{m'm}(beta) in[m]."""
    return rotate_about_x_grid(state, [beta])[0]


def phase_shift(state: SpinState, theta: float) -> SpinState:
    """Relative phase shift: amplitude at projection m gains e^{i theta m}."""
    theta = _check_real(theta, "theta", times=state.j.j)  # the largest |m| is j
    phases = np.exp(1j * theta * (state.twice_m_values() / 2.0))
    return SpinState(state.j, state.amplitudes * phases)
