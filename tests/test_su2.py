"""Rotation kernel tests: element sums, column recurrence, dense oracles."""

import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockport import (
    MAX_TWICE_J,
    BeamSplitterAngle,
    DomainError,
    SizeCapError,
    SpinJ,
    SpinProjection,
    SpinState,
    WignerColumn,
    basis_state,
    brute_force_rotation,
    phase_shift,
    rotate_about_x,
    rotate_about_x_grid,
    wigner_d_column,
    wigner_d_element,
)
from fockport import errors, su2

from conftest import dmat_expm, mp_d, random_state_vector, rot_expm

PI = math.pi

_BIG = 1e250
_LOGBIG = math.log(_BIG)


def reference_column(tj, tm, beta):
    """The one-column scalar recurrence the batched kernel replaced, kept verbatim.

    Two mirrored loops over numpy scalars, up from m' = -j and down from
    m' = +j; the batched kernel must reproduce it bit for bit.
    """
    n = tj + 1
    j = tj / 2.0
    m = tm / 2.0
    sb = math.sin(beta)
    cb = math.cos(beta)
    mp = np.arange(n, dtype=float) - j
    A = sb * np.sqrt((j - mp[:-1]) * (j + mp[:-1] + 1.0))
    B = 2.0 * (m - mp * cb)
    ch = math.cos(beta / 2.0)
    sh = math.sin(beta / 2.0)
    sgn_ch = 1.0 if ch >= 0 else -1.0
    sgn_sh = 1.0 if sh >= 0 else -1.0
    sgn_bot = sgn_ch ** ((tj - tm) // 2) * sgn_sh ** ((tj + tm) // 2)
    sgn_top = ((-1.0) ** ((tj - tm) // 2)
               * sgn_ch ** ((tj + tm) // 2) * sgn_sh ** ((tj - tm) // 2))

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
    out[np.abs(out) < 1e-300] = 0.0
    return out


def rescale_exponents(record):
    """Exponent after each step of one lane, a running total of its B record's +-inf marks."""
    exponents, total = np.zeros(len(record)), 0.0
    for i, mark in enumerate(record):
        if math.isinf(mark):
            total += math.copysign(_LOGBIG, mark)
        exponents[i] = total
    return exponents


def reference_d_column(tj, tm, beta):
    """The one-column wigner_d_column: closed forms, else reference_column."""
    if tj == 0:
        return np.array([1.0])
    if math.sin(beta) == 0.0:
        values = np.zeros(tj + 1)
        if math.cos(beta) > 0.0:
            k = round(beta / (2.0 * math.pi))
            values[(tj + tm) // 2] = (-1.0) ** (tj * k)
        else:
            k = round((beta - math.pi) / (2.0 * math.pi))
            values[(tj - tm) // 2] = (-1.0) ** ((tj - tm) // 2) * (-1.0) ** (tj * k)
        return values
    return reference_column(tj, tm, beta)


def reference_rotate(state, beta):
    """The one-column-at-a-time rotation, summing columns in m order."""
    j = state.j
    out = np.zeros(j.dim, dtype=complex)
    tms = state.twice_m_values()
    for i, amp in enumerate(state.amplitudes):
        if amp == 0.0:
            continue
        tm = int(tms[i])
        col = reference_d_column(j.twice_j, tm, beta)
        k = (tm - tms) // 2
        out += amp * (1j ** np.mod(k, 4)) * col
    out[np.abs(out) < 1e-300] = 0.0
    return out / np.linalg.norm(out)


def same_bits(got, want):
    """Equal including signed zeros: the arrays hold identical bytes."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestTypes:
    def test_spin_j_basics(self):
        j = SpinJ(5)
        assert j.j == 2.5
        assert j.dim == 6

    @pytest.mark.parametrize("twice_j", [-1, -4])
    def test_spin_j_rejects_negative(self, twice_j):
        with pytest.raises(DomainError):
            SpinJ(twice_j)

    def test_photon_number_cap(self):
        # the largest sizes in use (columns at twice_j = 200000) stay well inside
        assert SpinJ(MAX_TWICE_J).dim == MAX_TWICE_J + 1 > 200000
        for twice_j in (MAX_TWICE_J + 1, 10 ** 9, np.int64(10 ** 12)):
            with pytest.raises(SizeCapError, match="exceeds the cap"):
                SpinJ(twice_j)

    def test_projection_value(self):
        assert SpinProjection(-3).m == -1.5
        with pytest.raises(DomainError, match="twice_m must be an integer"):
            SpinProjection(1.5)

    def test_state_requires_norm(self):
        j = SpinJ(2)
        with pytest.raises(DomainError):
            SpinState(j, np.array([1.0, 1.0, 1.0]))

    def test_state_rejects_nan_amplitudes(self):
        with pytest.raises(DomainError, match="norm"):
            SpinState(SpinJ(1), np.array([math.nan, 0.0]))

    @pytest.mark.parametrize("scale, accepted", [(1.0, True), (1 + 5e-11, True), (1 - 5e-11, True),
                                                 (1 + 2e-10, False), (1 - 2e-10, False),
                                                 (0.0, False)])
    def test_unit_norm_tolerance_without_blas(self, scale, accepted, monkeypatch):
        # a strided view of a long vector, checked without np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", None)
        dim = 20001
        storage = np.zeros(2 * dim, dtype=complex)
        storage[::2] = np.exp(0.37j * np.arange(dim)) * (scale / math.sqrt(dim))
        if accepted:
            SpinState(SpinJ(dim - 1), storage[::2])
        else:
            with pytest.raises(DomainError, match="state norm"):
                SpinState(SpinJ(dim - 1), storage[::2])

    def test_unit_norm_check_takes_each_row_of_a_stack(self):
        rows = np.exp(0.3j * np.arange(28)).reshape(4, 7) / math.sqrt(7)
        errors._check_unit_norm(rows, "resource")  # every row has unit norm, the stack norm 2
        rows[2] = [0.0, 1.5j, 0.0, 0.0, 0.0, 0.0, 0.0]
        rows[3] = math.nan
        with pytest.raises(DomainError, match=r"^resource norm 1\.5 deviates"):
            errors._check_unit_norm(rows, "resource")

    def test_state_requires_matching_length(self):
        with pytest.raises(DomainError):
            SpinState(SpinJ(2), np.array([1.0, 0.0]))

    def test_state_accessors(self):
        state = basis_state(SpinJ(4), SpinProjection(2))
        assert list(state.twice_m_values()) == [-4, -2, 0, 2, 4]
        assert state.amplitude(SpinProjection(2)) == 1.0
        assert state.amplitude(SpinProjection(0)) == 0.0

    def test_basis_state_rejects_bad_projection(self):
        with pytest.raises(DomainError):
            basis_state(SpinJ(4), SpinProjection(3))  # parity mismatch
        with pytest.raises(DomainError):
            basis_state(SpinJ(4), SpinProjection(6))  # |m| > j

    @pytest.mark.parametrize("beta", [-0.1, PI + 0.1])
    def test_angle_range(self, beta):
        with pytest.raises(DomainError):
            BeamSplitterAngle(beta)

    def test_angle_reflectivity_round_trip(self):
        angle = BeamSplitterAngle.from_reflectivity(0.3)
        assert angle.reflectivity == pytest.approx(0.3, abs=1e-14)
        assert angle.transmittivity == pytest.approx(0.7, abs=1e-14)
        assert BeamSplitterAngle.balanced().beta == pytest.approx(PI / 2)
        with pytest.raises(DomainError, match="reflectivity"):
            BeamSplitterAngle.from_reflectivity(1.5)

    def test_column_value_lookup(self):
        col = wigner_d_column(SpinJ(4), SpinProjection(0), 0.7)
        assert col.value(SpinProjection(-4)) == col.values[0]
        with pytest.raises(DomainError):
            col.value(SpinProjection(5))
        with pytest.raises(DomainError, match="column must have length 5"):
            WignerColumn(SpinJ(4), SpinProjection(0), 0.7, col.values[:-1])


class TestElement:
    # element vs 60-digit arithmetic across sizes, including half-integers
    @pytest.mark.parametrize(
        "twice_j, twice_m_out, twice_m_in, beta, tol",
        [
            (2, 2, 0, 0.7, 1e-14),
            (4, 2, -2, 1.1, 1e-14),
            (5, 3, 1, 0.4, 1e-14),
            (7, -5, 3, 2.2, 1e-14),
            (20, 0, 0, PI / 2, 1e-13),
            (41, 7, -3, 1.9, 1e-10),
            (60, 0, 4, 2.6, 1e-10),
        ],
    )
    def test_matches_high_precision_sum(
        self, twice_j, twice_m_out, twice_m_in, beta, tol
    ):
        got = wigner_d_element(
            SpinJ(twice_j),
            SpinProjection(twice_m_out),
            SpinProjection(twice_m_in),
            beta,
        )
        want = mp_d(twice_j, twice_m_out, twice_m_in, beta)
        assert got == pytest.approx(want, abs=tol)

    def test_recurrence_outlives_the_direct_sum(self):
        # the direct factorial sum cancels catastrophically near twice_j ~ 100;
        # the recurrence column stays accurate there
        want = mp_d(120, 10, -6, 0.9)
        col = wigner_d_column(SpinJ(120), SpinProjection(-6), 0.9)
        assert col.values[(10 + 120) // 2] == pytest.approx(want, abs=1e-13)

    def test_central_element_exact_rational(self):
        # d^10_{00}(pi/2) = -63/256
        got = wigner_d_element(SpinJ(20), SpinProjection(0), SpinProjection(0), PI / 2)
        assert got == pytest.approx(-63.0 / 256.0, abs=1e-13)

    @pytest.mark.parametrize("twice_j", [1, 2, 5, 8])
    def test_transpose_symmetry(self, twice_j, rng):
        beta = 1.3
        tms = range(-twice_j, twice_j + 1, 2)
        for tmo in tms:
            for tmi in tms:
                a = wigner_d_element(
                    SpinJ(twice_j), SpinProjection(tmo), SpinProjection(tmi), beta
                )
                b = wigner_d_element(
                    SpinJ(twice_j), SpinProjection(tmi), SpinProjection(tmo), beta
                )
                sign = -1.0 if ((tmo - tmi) // 2) % 2 else 1.0
                assert a == pytest.approx(sign * b, abs=1e-13)

    def test_element_sum_is_capped_where_it_stays_sharp(self):
        # every (m', m) pair up to the cap matches the column kernel to 1e-9; past it the
        # sum once lost digits (4e-4 at twice_j = 100) and overflowed a float (from 522)
        for twice_j in (59, 60):
            tms = range(-twice_j, twice_j + 1, 2)
            for beta, tm in itertools.product((0.7, 2.6), tms):
                col = wigner_d_column(SpinJ(twice_j), SpinProjection(tm), beta).values
                got = [wigner_d_element(SpinJ(twice_j), SpinProjection(tmo), SpinProjection(tm),
                                        beta) for tmo in tms]
                np.testing.assert_allclose(got, col, rtol=0, atol=1e-9)
        for twice_j in (61, 62, 522, 2001):
            m = SpinProjection(twice_j % 2)
            with pytest.raises(SizeCapError, match="capped at twice_j = 60"):
                wigner_d_element(SpinJ(twice_j), m, m, 0.7)

    def test_counts_are_stored_as_ints(self):
        # an unsigned twice_j once wrapped in dim = twice_j + 1
        assert SpinJ(np.uint8(255)).dim == 256
        assert type(SpinProjection(np.int8(-3)).twice_m) is int

    def test_rejects_mismatched_projection(self):
        with pytest.raises(DomainError):
            wigner_d_element(SpinJ(4), SpinProjection(1), SpinProjection(0), 0.5)


class TestColumn:
    @pytest.mark.parametrize("twice_j", [1, 2, 3, 4, 7, 10])
    @pytest.mark.parametrize("beta", [0.3, 1.2, PI / 2, 2.8])
    def test_matches_dense_exponential(self, twice_j, beta):
        dense = dmat_expm(twice_j, beta)
        for i_in in range(twice_j + 1):
            tm = -twice_j + 2 * i_in
            col = wigner_d_column(SpinJ(twice_j), SpinProjection(tm), beta)
            np.testing.assert_allclose(col.values, dense[:, i_in], atol=1e-12)

    @pytest.mark.parametrize("twice_j", [6, 13, 25])
    def test_matches_element_sum(self, twice_j):
        beta = 0.9
        tm = (-twice_j) % 2 + 2  # small legal projection
        col = wigner_d_column(SpinJ(twice_j), SpinProjection(tm), beta)
        for i, tmo in enumerate(range(-twice_j, twice_j + 1, 2)):
            want = wigner_d_element(
                SpinJ(twice_j), SpinProjection(tmo), SpinProjection(tm), beta
            )
            assert col.values[i] == pytest.approx(want, abs=1e-12)

    def test_frozen_integer_j_column(self):
        col = wigner_d_column(SpinJ(4), SpinProjection(0), 0.7)
        np.testing.assert_allclose(
            col.values,
            [
                0.25414462120485937,
                0.6034622514087964,
                0.3774753571751808,
                -0.6034622514087964,
                0.25414462120485937,
            ],
            atol=1e-14,
        )

    def test_frozen_offset_column(self):
        col = wigner_d_column(SpinJ(4), SpinProjection(2), 0.7)
        np.testing.assert_allclose(
            col.values,
            [
                0.07574641112173044,
                0.2974375221921236,
                0.6034622514087964,
                0.4674046650923648,
                -0.5684712761159605,
            ],
            atol=1e-14,
        )

    def test_balanced_small_column(self):
        col = wigner_d_column(SpinJ(2), SpinProjection(0), PI / 2)
        root_half = math.sqrt(0.5)
        assert col.values[0] == pytest.approx(root_half, abs=1e-14)
        assert abs(col.values[1]) < 1e-12
        assert col.values[2] == pytest.approx(-root_half, abs=1e-14)

    def test_spin_zero(self):
        col = wigner_d_column(SpinJ(0), SpinProjection(0), 1.234)
        np.testing.assert_array_equal(col.values, [1.0])

    @pytest.mark.parametrize("twice_j, tm", [(4, 2), (5, -3), (8, 0)])
    def test_zero_angle_is_identity(self, twice_j, tm):
        expected = np.zeros(twice_j + 1)
        expected[(tm + twice_j) // 2] = 1.0
        for beta in (0.0, -0.0):
            col = wigner_d_column(SpinJ(twice_j), SpinProjection(tm), beta)
            assert same_bits(col.values, expected)

    @pytest.mark.parametrize("twice_j, tm", [(4, 2), (5, -3), (8, 0)])
    def test_pi_angle_is_signed_flip(self, twice_j, tm):
        col = wigner_d_column(SpinJ(twice_j), SpinProjection(tm), PI)
        expected = np.zeros(twice_j + 1)
        sign = -1.0 if ((twice_j - tm) // 2) % 2 else 1.0
        expected[(-tm + twice_j) // 2] = sign
        np.testing.assert_allclose(col.values, expected, atol=1e-12)

    def test_two_pi_winding_sign(self):
        # half-integer j picks up a minus sign on a full turn
        col = wigner_d_column(SpinJ(3), SpinProjection(1), 2 * PI)
        expected = np.zeros(4)
        expected[2] = -1.0
        np.testing.assert_allclose(col.values, expected, atol=1e-12)

    @pytest.mark.parametrize("twice_j", [8, 20, 40, 200])
    def test_balanced_parity_zeros(self, twice_j):
        # from m_in = 0, outputs with odd (j + m_out) vanish at pi/2
        col = wigner_d_column(SpinJ(twice_j), SpinProjection(0), PI / 2)
        for n in range(twice_j + 1):
            if n % 2 == 1:
                assert abs(col.values[n]) < 1e-12

    @pytest.mark.parametrize("twice_j", [200, 2000, 20000])
    def test_large_j_normalization(self, twice_j):
        beta = (PI / 2) * (1.0 - 1.0 / twice_j)
        col = wigner_d_column(SpinJ(twice_j), SpinProjection(0), beta)
        assert np.linalg.norm(col.values) == pytest.approx(1.0, abs=1e-8)
        assert np.all(np.isfinite(col.values))

    @pytest.mark.parametrize("twice_j", [30, 31])
    def test_column_orthonormality(self, twice_j):
        beta = 1.7
        cols = np.column_stack(
            [
                wigner_d_column(SpinJ(twice_j), SpinProjection(tm), beta).values
                for tm in range(-twice_j, twice_j + 1, 2)
            ]
        )
        gram = cols.T @ cols
        np.testing.assert_allclose(gram, np.eye(twice_j + 1), atol=1e-11)


class TestRotation:
    def test_brute_force_size_cap(self):
        with pytest.raises(SizeCapError):
            brute_force_rotation(SpinJ(41), 0.5)

    @pytest.mark.parametrize("twice_j", [1, 2, 9, 40])
    def test_brute_force_matches_dense_oracle(self, twice_j):
        beta = 1.1
        got = brute_force_rotation(SpinJ(twice_j), beta)
        want = rot_expm(twice_j, beta)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("twice_j", [2, 7, 24, 40])
    @pytest.mark.parametrize("beta", [0.4, PI / 2, 2.9])
    def test_rotate_matches_brute_force(self, twice_j, beta, rng):
        j = SpinJ(twice_j)
        amps = random_state_vector(rng, twice_j + 1)
        state = SpinState(j, amps)
        fast = rotate_about_x(state, beta)
        dense = brute_force_rotation(j, beta) @ amps
        np.testing.assert_allclose(fast.amplitudes, dense, atol=1e-9)

    @pytest.mark.parametrize("twice_j", [3, 16, 101])
    def test_rotation_preserves_norm(self, twice_j, rng):
        state = SpinState(SpinJ(twice_j), random_state_vector(rng, twice_j + 1))
        out = rotate_about_x(state, 2.2)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_zero_angle_identity(self, rng):
        state = SpinState(SpinJ(9), random_state_vector(rng, 10))
        out = rotate_about_x(state, 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-14)

    @pytest.mark.parametrize("parts", [(PI / 2, PI / 2), (0.6, 0.6), (0.3, 1.8)])
    def test_rotations_compose_additively(self, parts, rng):
        state = SpinState(SpinJ(11), random_state_vector(rng, 12))
        stepped = rotate_about_x(rotate_about_x(state, parts[0]), parts[1])
        direct = rotate_about_x(state, parts[0] + parts[1])
        np.testing.assert_allclose(stepped.amplitudes, direct.amplitudes, atol=1e-12)

    def test_phase_shift_applies_linear_phase(self, rng):
        j = SpinJ(6)
        amps = random_state_vector(rng, 7)
        out = phase_shift(SpinState(j, amps), 0.31)
        ms = np.arange(-6, 7, 2) / 2.0
        np.testing.assert_allclose(
            out.amplitudes, amps * np.exp(1j * 0.31 * ms), atol=1e-14
        )

    def test_phase_shift_commutes_with_itself(self, rng):
        state = SpinState(SpinJ(5), random_state_vector(rng, 6))
        a = phase_shift(phase_shift(state, 0.2), 0.5)
        b = phase_shift(state, 0.7)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-14)


class TestBatchedKernel:
    """The lane-batched kernel and the per-lane scalar path against reference_column."""

    @pytest.mark.parametrize(
        "twice_j, twice_ms, betas",
        [
            # lanes mixing m and beta, including the balanced splitter
            (20, [-20, -4, 0, 6, 20], [0.3, PI / 2, 2.9]),
            # half-integer j, beta = pi goes through the recurrence
            (21, [-21, -1, 1, 21], [0.05, 1.7, PI]),
            # closed-form lanes (sin beta = 0) next to recurrence lanes and windings
            (8, [-8, 0, 8], [0.0, -0.0, 1.1, 2 * PI, -PI, 7.5, -3.0]),
            (7, [-7, 3], [0.0, 2 * PI, 0.4]),
            # edge m at large twice_j: the recurrence rescales and flushes
            (2000, [-2000, -1998, 0, 1996, 2000], [0.02, 0.3, 3.1]),
            (2001, [-2001, 1, 1999], [0.1, 1.5]),
            (1, [-1, 1], [0.7]),
        ],
    )
    @pytest.mark.parametrize("scalar_lanes", [0, 10**9], ids=["batched", "scalar"])
    def test_columns_match_reference(self, monkeypatch, twice_j, twice_ms, betas,
                                     scalar_lanes):
        monkeypatch.setattr(su2, "_SCALAR_LANES", scalar_lanes)
        got = su2._columns(twice_j, twice_ms, betas)
        want = np.array([[reference_d_column(twice_j, tm, b) for tm in twice_ms]
                         for b in betas])
        assert same_bits(got, want)

    def test_public_column_matches_reference(self):
        for twice_j, tm, beta in [(100000, 2, 1.234), (20000, 0, (PI / 2) * (1 - 1 / 20000)),
                                  (5000, -4000, 2.5), (3, 1, 2 * PI), (0, 0, 0.4)]:
            col = wigner_d_column(SpinJ(twice_j), SpinProjection(tm), beta)
            assert same_bits(col.values, reference_d_column(twice_j, tm, beta))

    def test_rescaling_lanes_are_exercised(self, monkeypatch):
        marks = []
        recurrence = su2._recurrence

        def spy(A, B, seeds, stops):
            w = recurrence(A, B, seeds, stops)
            marks.append(np.isinf(B).sum())
            return w

        monkeypatch.setattr(su2, "_recurrence", spy)
        for scalar_lanes in (0, 10**9):  # batched, then truncated scalar lanes
            monkeypatch.setattr(su2, "_SCALAR_LANES", scalar_lanes)
            marks.clear()
            su2._columns(2000, [-2000, 0, 2000], [0.02, 0.3])
            assert sum(marks)

    def test_truncated_scalar_lanes_rescale_both_ways(self, rng):
        # Columns seeded with +-1 only ever mark +inf; seeds below 1/_BIG and
        # steep coefficients make truncated lanes rescale both ways.
        n = 400
        seeds = np.array([1e-260, -1e-270, 1.0, 1e-300, -3.0])
        A = rng.uniform(0.5, 2.0, (len(seeds), n))
        A[:, 0] = 0.0
        B = rng.uniform(-50.0, 50.0, (len(seeds), n))
        full, cut = B.copy(), B.copy()
        want = su2._recurrence(A, full, seeds, np.full(len(seeds), n))
        # lane 0 stops just before a step that rescales its last entry
        first_mark = int(np.flatnonzero(np.isinf(full[0]))[0])
        stops = np.array([first_mark + 1, 300, 41, 1, n])
        w = su2._recurrence(A, cut, seeds, stops)
        assert np.isposinf(cut).any() and np.isneginf(cut).any()
        assert w[0, first_mark] != want[0, first_mark]
        for lane, stop in enumerate(stops):
            # entries before the last are final; the last may miss the next step's rescale
            assert same_bits(w[lane, :stop - 1], want[lane, :stop - 1])
            assert same_bits(cut[lane, :stop - 1], full[lane, :stop - 1])
            assert not w[lane, stop:].any()
            assert same_bits(cut[lane, stop - 1:], B[lane, stop - 1:])

    @pytest.mark.parametrize(
        "twice_j, twice_ms, betas",
        [
            # centres at 0 and at n - 1: m = +-j with beta near 0 and near pi
            (2000, [-2000, 2000], [1e-3, 0.02, PI - 1e-3]),
            # n = 21 and 22, where every stop is n; n = 41 (the glue window) and 42
            (20, [-20, 0, 20], [0.3, 2.9]),
            (21, [-21, 1, 21], [0.3, 2.9]),
            (40, [-40, -2, 40], [0.3, PI / 2]),
            (41, [-41, 1, 41], [0.3, 2.9]),
            # half-integer j
            (2001, [-2001, 1, 1999], [0.1, 1.5]),
            (100000, [2], [1.234]),
            # 1598 rescales with full branches, 799 once the up branch stops at the window
            (100000, [-99998], [0.02]),
            # no lane reaches an end: rows of unequal length, all short of n
            (2001, [-3, 401, 1001], [0.7, 1.9]),
        ],
    )
    def test_scalar_lanes_never_read_past_their_stop(self, monkeypatch, twice_j, twice_ms,
                                                       betas):
        shapes = []
        recurrence = su2._recurrence

        def spy(A, B, seeds, stops):
            assert len(seeds) < su2._SCALAR_LANES
            shapes.append((A.shape, B.shape, (len(seeds), max(stops))))
            for lane, stop in enumerate(stops.tolist()):
                A[lane, stop:] = math.nan
                B[lane, stop:] = math.nan
            return recurrence(A, B, seeds, stops)

        monkeypatch.setattr(su2, "_recurrence", spy)
        got = su2._columns(twice_j, twice_ms, betas)
        want = np.array([[reference_d_column(twice_j, tm, b) for tm in twice_ms]
                         for b in betas])
        assert same_bits(got, want)
        # rows run alone get coefficients only as far as the longest of them runs
        assert shapes and all(a == b == wide for a, b, wide in shapes)

    def test_both_rescale_directions_agree(self, rng):
        # seeds below 1/_BIG force upward rescales, steep coefficients downward ones
        n = 400
        seeds = np.array([1e-260, -1e-270, 1.0, 1e-300, -3.0])
        A = rng.uniform(0.5, 2.0, (len(seeds), n))
        A[:, 0] = 0.0
        B = rng.uniform(-50.0, 50.0, (len(seeds), n))
        record = B.copy()
        w = su2._recurrence_batched(A, record, seeds)
        exponents = np.array([rescale_exponents(row) for row in record])
        assert (exponents < 0).any()
        assert (exponents > 0).any()
        for lane, seed in enumerate(seeds):
            lane_record = B[lane].copy()
            values = su2._recurrence_scalar(
                memoryview(A[lane]), memoryview(lane_record), float(seed))
            assert same_bits(np.frombuffer(values), w[lane])
            assert same_bits(lane_record, record[lane])
            assert same_bits(rescale_exponents(lane_record), exponents[lane])

    @pytest.mark.parametrize("budget", [60, 500, 5000])
    def test_blocks_crossing_the_budget_match_reference(self, monkeypatch, rng, budget):
        # small budgets split the grid into runs of betas and runs of m
        monkeypatch.setattr(su2, "LANE_BUDGET", budget)
        state = SpinState(SpinJ(30), random_state_vector(rng, 31))
        betas = [0.0, 0.4, PI / 2, 2.2, PI]
        got = rotate_about_x_grid(state, betas)
        for rotated, beta in zip(got, betas):
            assert same_bits(rotated.amplitudes, reference_rotate(state, beta))

    def test_dense_rotation_matches_reference(self, rng):
        # N = 300 holds more lane-elements than one kernel block
        state = SpinState(SpinJ(300), random_state_vector(rng, 301))
        assert 301 * 301 > su2.LANE_BUDGET
        assert same_bits(rotate_about_x(state, 1.3).amplitudes, reference_rotate(state, 1.3))

    @pytest.mark.parametrize("twice_j", [4, 21, 120])
    def test_sparse_rotation_grid_matches_reference(self, twice_j):
        tms = [(-twice_j) % 2 + 2 * k for k in (-1, 0, 1)]
        amps = np.zeros(twice_j + 1, dtype=complex)
        for tm, a in zip(tms, (0.3 + 0.1j, 0.8, -0.5j)):
            amps[(tm + twice_j) // 2] = a
        state = SpinState(SpinJ(twice_j), amps / np.linalg.norm(amps))
        betas = list(np.linspace(0.0, PI / 2, 37))
        for rotated, beta in zip(rotate_about_x_grid(state, betas), betas):
            assert same_bits(rotated.amplitudes, reference_rotate(state, beta))
            assert same_bits(rotate_about_x(state, beta).amplitudes, rotated.amplitudes)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_is_domain_error(self, beta):
        with pytest.raises(DomainError, match="finite"):
            wigner_d_column(SpinJ(4), SpinProjection(0), beta)
        with pytest.raises(DomainError, match="finite"):
            rotate_about_x(basis_state(SpinJ(4), SpinProjection(0)), beta)
        with pytest.raises(DomainError, match="finite"):
            rotate_about_x_grid(basis_state(SpinJ(4), SpinProjection(0)), [0.3, beta])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("twice_j, twice_m, beta",
                             [(10, 4, 1e-100), (2000, 0, 1e-60), (1, 1, 1e-322)])
    def test_overflowing_tiny_beta_is_domain_error(self, twice_j, twice_m, beta):
        # one recurrence step scales by ~1/sin(beta) and overflows past any rescale
        named = re.escape(f"beta = {beta!r}")
        with pytest.raises(DomainError, match=named):
            wigner_d_column(SpinJ(twice_j), SpinProjection(twice_m), beta)
        with pytest.raises(DomainError, match=named):
            rotate_about_x_grid(basis_state(SpinJ(twice_j), SpinProjection(twice_m)),
                                [0.3, beta, 1e-5])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_batched_lanes_are_domain_error(self):
        # 11 m at two angles run batched; numpy's overflow warnings must not escape first
        state = SpinState(SpinJ(10), np.ones(11) / math.sqrt(11))
        with pytest.raises(DomainError, match=re.escape("beta = 1e-100")):
            rotate_about_x_grid(state, [0.3, 1e-100])

    def test_long_column_allocates_only_what_its_branches_reach(self):
        # each branch of m = 1233 runs about half of the 100000 entries
        wigner_d_column(SpinJ(99999), SpinProjection(1233), 1.234)  # warm numpy up
        tracemalloc.start()
        try:
            wigner_d_column(SpinJ(99999), SpinProjection(1233), 1.234)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.0e6, peak

    def test_empty_grid(self):
        assert rotate_about_x_grid(basis_state(SpinJ(4), SpinProjection(0)), []) == []

    @pytest.mark.parametrize("twice_j, twice_ms, betas, rows, steps", [
        # symmetric lane sets run one row per lane; m = 0 alone runs about n/2 + 22 steps
        (20, [-4, -2, 0, 2, 4], [0.3, 2.9], 10, None),
        (20000, [0], [(PI / 2) * (1 - 1 / 20000)], 1, [10022]),
        (2001, [-1, 1], [1.5], 2, None),
        # an unpartnered lane runs its mirror row to where its down branch stopped
        (100000, [2], [1.234], 2, [50022, 50022]),
        (100000, [-99998], [0.02], 2, None),
        (2001, [1999, -3], [0.1], 4, None),
        # j + m cos(beta) rounds to 64 but j - m cos(beta) to 63, not 128 - 64: row -2
        # stops at 86 for the down branch of m = 1, row 2 at 87 for that of m = -1,
        # whichever lane is asked for (the two-branch kernel ran 86 + 86 steps for m = 1)
        (128, [2], [1.0471975511965896], 2, [86, 87]),
        (128, [-2], [1.0471975511965896], 2, [86, 87]),
    ])
    def test_each_beta_runs_one_up_row_per_m_of_the_closure(self, monkeypatch, twice_j, twice_ms,
                                                             betas, rows, steps):
        calls = []
        recurrence = su2._recurrence

        def spy(A, B, seeds, stops):
            calls.append((len(seeds), stops.tolist()))
            return recurrence(A, B, seeds, stops)

        monkeypatch.setattr(su2, "_recurrence", spy)
        got = su2._columns(twice_j, twice_ms, betas)
        (count, stops), = calls
        assert count == rows
        if steps is not None:
            assert stops == steps
        # the two-branch kernel stopped a lane's up branch one entry past the top of its
        # glue window and its down branch one past the bottom; a row is the up branch
        # of m and the down branch of -m and stops at the later of the two
        j, n = twice_j / 2.0, twice_j + 1

        def centre(tm, beta):
            return min(max(round(j + tm / 2.0 * math.cos(beta)), 0), n - 1)

        closure = sorted({*twice_ms, *(-tm for tm in twice_ms)})
        for stop, (beta, tm) in zip(stops, itertools.product(betas, closure), strict=True):
            up = centre(tm, beta) + 22
            down = n - max(centre(-tm, beta) - 21, 0)
            assert stop == min(max(up, down), n)
        want = np.array([[reference_d_column(twice_j, tm, b) for tm in twice_ms] for b in betas])
        assert same_bits(got, want)

    @pytest.mark.parametrize("cpu_features", [None, "X86_V4 AVX512_ICL AVX512_SPR"],
                             ids=["default", "no-avx512"])
    def test_mirrored_kernel_has_the_bits_of_the_two_branch_kernel(self, cpu_features):
        # tests/two_branch_kernel.py keeps the kernel that ran both branches of every lane
        tests = os.path.dirname(__file__)
        src = os.path.dirname(os.path.dirname(su2.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
        if cpu_features:
            env["NPY_DISABLE_CPU_FEATURES"] = cpu_features  # unknown names are ignored
        proc = subprocess.run(
            [sys.executable, "-c", "import two_branch_kernel as k; print(k.mismatches())"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.stdout.strip() == "[]", proc.stdout + proc.stderr[-2000:]


def dense_d(twice_j, beta):
    """d^j(beta) from every column at once: entry [m', m]."""
    return su2._columns(twice_j, np.arange(-twice_j, twice_j + 1, 2), [beta])[0].T


class TestLargeNIdentities:
    """Identities that hold where the mpmath and expm oracles cannot reach."""

    @settings(max_examples=6, deadline=None)
    @given(twice_j=st.integers(100, 500), beta=st.floats(0.05, PI - 0.05))
    def test_unitarity(self, twice_j, beta):
        d = dense_d(twice_j, beta)
        np.testing.assert_allclose(d.T @ d, np.eye(twice_j + 1), atol=1e-10)

    @settings(max_examples=6, deadline=None)
    @given(twice_j=st.integers(100, 500), beta=st.floats(0.05, PI - 0.05))
    def test_transpose_symmetry(self, twice_j, beta):
        d = dense_d(twice_j, beta)
        k = np.arange(twice_j + 1)
        sign = np.where((k[:, None] - k[None, :]) % 2, -1.0, 1.0)
        np.testing.assert_allclose(d, sign * d.T, atol=1e-11)

    @settings(max_examples=6, deadline=None)
    @given(twice_j=st.integers(100, 400), b1=st.floats(0.05, 1.5), b2=st.floats(0.05, 1.5))
    def test_composition(self, twice_j, b1, b2):
        np.testing.assert_allclose(dense_d(twice_j, b1) @ dense_d(twice_j, b2),
                                   dense_d(twice_j, b1 + b2), atol=1e-10)
