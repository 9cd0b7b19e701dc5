"""The two-branch column kernel that the mirrored kernel replaced, kept as an oracle.

su2._recurrence_columns used to run every lane (m, beta) twice through
su2._recurrence: once up from m' = -j and once down from m' = +j on reversed
coefficients.  It now runs one up row per m of the closure of the lane set
under m -> -m and reads each down branch from the row of -m.  The functions
below are the old kernel, verbatim apart from their su2 references, and
mismatches() compares the two bit for bit.  tests/test_su2.py runs it in child
processes, under numpy's default SIMD dispatch and without AVX-512:

    PYTHONPATH=src:tests python -c "import two_branch_kernel as k; print(k.mismatches())"
"""

import math

import numpy as np

from fockport import su2
from fockport.errors import DomainError
from fockport.su2 import _FLUSH, _GLUE_HALF_WIDTH, _LOGBIG, _recurrence


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

    Each lane runs the three-term recurrence in m' up from m' = -j, seeded
    with the closed-form endpoint sign, and down from m' = +j, seeded with 1;
    it glues the two branches at the classically allowed band centre
    m' ~ m cos(beta), where the glue also gives the down branch its sign,
    and fixes the overall scale with the unit-column-norm constraint.  Both
    directions are lanes of one recurrence: the down branch runs on reversed
    coefficients.  Returns (lane, m') values.  Run alone, a lane's branches
    stop one entry past the glue window, about n + 41 steps for the pair
    instead of 2n; batched lanes run both branches in full.
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

    # endpoint sign of d_{-j,m} = C ch^{j-m} sh^{j+m}, C > 0
    odd_lo = (tj - tm) // 2 % 2 == 1
    odd_hi = (tj + tm) // 2 % 2 == 1
    sgn_ch = np.where(ch >= 0, 1.0, -1.0)
    sgn_sh = np.where(sh >= 0, 1.0, -1.0)
    sgn_bot = np.where(odd_lo, sgn_ch, 1.0) * np.where(odd_hi, sgn_sh, 1.0)

    # a lane runs one entry past the glue window centre +- _GLUE_HALF_WIDTH: the
    # step computing that entry can still rescale the last one the glue reads
    centre = np.minimum(np.maximum(np.rint(j + m * cb), 0), n - 1).astype(np.intp)
    stops = np.concatenate([np.minimum(centre + _GLUE_HALF_WIDTH + 2, n),
                            n - np.maximum(centre - _GLUE_HALF_WIDTH - 1, 0)])
    w = _recurrence(A, B, np.concatenate([sgn_bot, np.ones(lanes)]), stops)
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
    with np.errstate(invalid="ignore"):  # an overflowed lane is refused below
        out = _glue(np.sign(w, out=w), logmag, centre)
    if not np.isfinite(out).all():
        beta = betas[np.argmin(np.isfinite(out).all(axis=1)) // len(tms)]
        raise DomainError(f"beta = {beta!r} is too close to a multiple of pi: the column "
                          f"recurrence overflows at twice_j = {tj}")
    return out


def _columns(tj: int, tms, betas) -> np.ndarray:
    """d^j_{m',m}(beta) for every beta and m: array indexed [beta, m, m']."""
    tms = np.asarray(tms, dtype=np.int64)
    shape = (len(betas), len(tms), tj + 1)
    # beta = +-0.0 is the only finite double with sin(beta) = 0: d(0) is the identity
    turning = [b for b, beta in enumerate(betas) if beta != 0.0]
    out = np.zeros(shape)
    out[:, np.arange(len(tms)), (tj + tms) // 2] = 1.0
    if turning:
        cols = _recurrence_columns(tj, tms, [betas[b] for b in turning])
        out[turning] = cols.reshape((len(turning),) + shape[1:])
    return out


PI = math.pi

# (twice_j, twice_ms, betas): m = 0 alone, symmetric, unpartnered and non-contiguous
# lane sets, half-integer j, angles near 0 and pi, windings and zero angles
CASES = [
    (20, [0], [0.3, PI / 2, 2.9]),
    (2000, [0], [1e-3, (PI / 2) * (1 - 1 / 2000), PI - 1e-3]),
    (20000, [0], [(PI / 2) * (1 - 1 / 20000)]),
    (20, [-4, -2, 0, 2, 4], [0.3, PI / 2, 2.9, PI]),
    (40, list(range(-40, 41, 2)), [1e-5, 0.7, PI - 1e-5]),
    (21, list(range(-21, 22, 2)), [0.05, 1.7]),
    (20, [-20, -4, 0, 6, 20], [0.3, PI / 2, 2.9]),
    (60, [-3 * 2, 2], [0.4, 2.2]),
    (40, [2], [0.7]),
    (8, [-8, 0, 8], [0.0, -0.0, 1.1, 2 * PI, -PI, 7.5, -3.0]),
    (7, [-7, 3], [0.0, 2 * PI, 0.4]),
    (1, [-1, 1], [0.7]),
    (1, [1], [PI]),
    (21, [-1, 1], [PI / 2]),
    (2001, [-2001, 1, 1999], [0.1, 1.5]),
    (2001, [1999], [PI - 1e-3]),
    # edge m at large twice_j: the rows rescale both ways and flush
    (2000, [-2000, -1998, 0, 1996, 2000], [0.02, 0.3, 3.1]),
    (2000, [-2000, 2000], [1e-3, PI - 1e-3]),
    (100000, [2], [1.234]),
    (100000, [-99998], [0.02]),
    (99999, [30001], [2.8]),
]
# one recurrence step scales by ~1/sin(beta): these overflow and are refused
OVERFLOWING = [
    (10, [4], [1e-100]),
    (2000, [0], [1e-60]),
    (1, [1], [1e-322]),
    (10, [-4, 4], [0.3, 1e-100, 1e-5]),
]


def _outcome(columns, tj, tms, betas):
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # batched lanes that overflow
            return columns(tj, tms, betas).tobytes()
    except DomainError as err:
        return f"DomainError: {err}"


def mismatches() -> list:
    """(case, path) for every case where the two kernels differ in bits or in refusal."""
    bad = []
    default = su2._SCALAR_LANES
    try:
        for tj, tms, betas in CASES + OVERFLOWING:
            # every lane alone, then every lane batched (kept to short columns)
            for path, scalar_lanes in (("scalar", 10**9), ("batched", 0)):
                if path == "batched" and tj > 2001:
                    continue
                su2._SCALAR_LANES = scalar_lanes
                want = _outcome(_columns, tj, tms, betas)
                if (tj, tms, betas) in OVERFLOWING and not want.startswith("DomainError"):
                    bad.append(((tj, tms, betas), path, "no overflow"))
                if _outcome(su2._columns, tj, tms, betas) != want:
                    bad.append(((tj, tms, betas), path))
    finally:
        su2._SCALAR_LANES = default
    return bad
