"""Shared oracles and helpers for the test suite.

The dense-matrix oracles here recompute rotation matrices by brute force
(scipy expm, mpmath finite sums) so that the library's recurrence and
finite-sum kernels are checked against independent implementations.
"""

import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
scipy_linalg = pytest.importorskip("scipy.linalg")


def ladder_up(twice_j):
    """Matrix of J+ in the |j m> basis with m ascending."""
    j = twice_j / 2.0
    dim = twice_j + 1
    ms = np.arange(-twice_j, twice_j + 1, 2) / 2.0
    jp = np.zeros((dim, dim))
    for i in range(dim - 1):
        m = ms[i]
        jp[i + 1, i] = math.sqrt((j - m) * (j + m + 1))
    return jp


def dmat_expm(twice_j, beta):
    """Rotation matrix about y via dense exponentiation.

    Entry [i_out, i_in] equals the d-matrix element between projections
    m_out = i_out - j and m_in = i_in - j.  Real up to roundoff.
    """
    jp = ladder_up(twice_j)
    jy = (jp - jp.T) / 2j
    return scipy_linalg.expm(-1j * beta * jy).real


def rot_expm(twice_j, beta):
    """Dense matrix of the x-axis rotation used by rotate_about_x."""
    jp = ladder_up(twice_j)
    jx = (jp + jp.T) / 2.0
    return scipy_linalg.expm(1j * beta * jx)


def mp_d(twice_j, twice_m_out, twice_m_in, beta, dps=60):
    """High-precision d-matrix element from the finite Jacobi-type sum."""
    with mpmath.workdps(dps):
        j = mpmath.mpf(twice_j) / 2
        mo = mpmath.mpf(twice_m_out) / 2
        mi = mpmath.mpf(twice_m_in) / 2
        b = mpmath.mpf(beta)
        c = mpmath.cos(b / 2)
        s = mpmath.sin(b / 2)
        pref = mpmath.sqrt(
            mpmath.factorial(j + mo)
            * mpmath.factorial(j - mo)
            * mpmath.factorial(j + mi)
            * mpmath.factorial(j - mi)
        )
        k_lo = int(max(0, mi - mo))
        k_hi = int(min(j + mi, j - mo))
        total = mpmath.mpf(0)
        for k in range(k_lo, k_hi + 1):
            den = (
                mpmath.factorial(j + mi - k)
                * mpmath.factorial(k)
                * mpmath.factorial(mo - mi + k)
                * mpmath.factorial(j - mo - k)
            )
            total += (
                (-1) ** (mo - mi + k)
                * c ** (2 * j + mi - mo - 2 * k)
                * s ** (mo - mi + 2 * k)
                / den
            )
        return float(pref * total)


def mp_recurrence_column(twice_j, twice_m, beta, dps=40):
    """d^j_{m',m}(beta) for every m' by the kernel's two-branch recurrence in mpmath.

    Each branch starts from its exact endpoint, up from m' = -j and down from
    m' = +j, and stops at the band centre m' ~ m cos(beta), where the down
    branch is scaled to meet the up branch; the column is then normalised.
    mpmath's exponent range needs no rescales.  Returns (column, the scale),
    a scale that is 1 up to the working precision when both endpoints are right.
    """
    n = twice_j + 1
    with mpmath.workdps(dps):
        j = mpmath.mpf(twice_j) / 2
        m = mpmath.mpf(twice_m) / 2
        b = mpmath.mpf(beta)
        sb, cb = mpmath.sin(b), mpmath.cos(b)
        ch, sh = mpmath.cos(b / 2), mpmath.sin(b / 2)
        # A[i] v[i+1] = B[i] v[i] - A[i-1] v[i-1] at m' = -j + i; A[n - 1] = 0
        A = [sb * mpmath.sqrt((twice_j - i) * (i + 1)) for i in range(n)]
        B = [2 * (m - (i - j) * cb) for i in range(n)]
        lo, hi = (twice_j - twice_m) // 2, (twice_j + twice_m) // 2
        scale = mpmath.sqrt(mpmath.binomial(twice_j, hi))
        up = [scale * ch ** lo * sh ** hi]  # d_{-j,m}
        down = [scale * ch ** hi * (-sh) ** lo]  # d_{+j,m}, entry n - 1
        centre = min(max(round(twice_j / 2 + twice_m / 2 * math.cos(beta)), 0), n - 1)
        before = mpmath.mpf(0)
        for i in range(centre):
            up.append((B[i] * up[i] - (A[i - 1] * before if i else 0)) / A[i])
            before = up[i]
        after = mpmath.mpf(0)
        for i in range(n - 1, centre, -1):
            down.append((B[i] * down[-1] - A[i] * after) / A[i - 1])
            after = down[-2]
        ratio = up[centre] / down[-1]
        column = up + [v * ratio for v in down[-2::-1]]
        norm = mpmath.sqrt(mpmath.fsum(v * v for v in column))
        return [v / norm for v in column], ratio


def align_phase(reference, state):
    """Rotate state by a global phase so it best matches reference."""
    inner = np.vdot(state, reference)
    if abs(inner) == 0.0:
        return state
    return state * (inner / abs(inner))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def random_state_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)
