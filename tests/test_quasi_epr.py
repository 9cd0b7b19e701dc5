"""Filtered inputs, beam-splitter resources, flatness metrics."""

import cmath
import math

import numpy as np
import pytest

from fockport import (
    DomainError,
    FilterOrder,
    QuasiEprResource,
    SpinJ,
    SpinProjection,
    beta_q,
    f_coefficient,
    filtered_input,
    ideal_resource,
    make_resource,
    phase_distribution,
    quality,
    resource_from_state,
    relative_phase_state,
    RelativePhaseSpec,
    wigner_d_element,
)
from fockport import sweep
from fockport.quasi_epr import _qualities

PI = math.pi


def ipow(x):
    # principal branch i**x for possibly half-integer x
    return cmath.exp(1j * PI * x / 2.0)


class TestFilterOrder:
    @pytest.mark.parametrize("twice_level", [0, 1, 2, 3])
    def test_levels(self, twice_level):
        order = FilterOrder(twice_level)
        assert order.level == twice_level / 2.0
        assert order.component_count == twice_level + 1

    @pytest.mark.parametrize("twice_level", [-1, 4, 7])
    def test_rejects_out_of_range(self, twice_level):
        with pytest.raises(DomainError):
            FilterOrder(twice_level)


class TestFilteredInput:
    def test_level_zero_is_central_basis_state(self):
        state = filtered_input(8, FilterOrder(0))
        expected = np.zeros(9)
        expected[4] = 1.0
        np.testing.assert_array_equal(state.amplitudes, expected)

    def test_level_half_is_equal_pair(self):
        state = filtered_input(9, FilterOrder(1))
        expected = np.zeros(10)
        expected[4] = expected[5] = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    @pytest.mark.parametrize("twice_level, support", [(2, 3), (3, 4)])
    def test_higher_levels_have_small_support(self, twice_level, support):
        N = 20 if twice_level % 2 == 0 else 21
        state = filtered_input(N, FilterOrder(twice_level))
        nonzero = np.flatnonzero(np.abs(state.amplitudes) > 1e-15)
        assert len(nonzero) == support
        lo = (N - twice_level) // 2
        np.testing.assert_array_equal(nonzero, np.arange(lo, lo + support))
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("N, twice_level", [(20, 1), (20, 3), (21, 0), (21, 2)])
    def test_parity_mismatch_rejected(self, N, twice_level):
        with pytest.raises(DomainError):
            filtered_input(N, FilterOrder(twice_level))

    def test_too_small_n_rejected(self):
        with pytest.raises(DomainError):
            filtered_input(1, FilterOrder(3))

    # levels 1 and 3/2 take their f-coefficients from one kernel call; each must have the bits
    # of f_coefficient at its own m
    @pytest.mark.parametrize("N", [6, 7, 8, 9, 10, 126, 127, 128, 129, 130, 2001, 20000])
    def test_higher_levels_are_the_per_m_f_coefficients(self, N):
        twice_level = 3 if N % 2 else 2
        amps = np.zeros(N + 1, dtype=complex)
        for tm in range(-twice_level, twice_level + 1, 2):
            amps[(tm + N) // 2] = f_coefficient(SpinJ(N), SpinProjection(tm))
        amps /= np.linalg.norm(amps)
        got = filtered_input(N, FilterOrder(twice_level)).amplitudes
        assert got.tobytes() == amps.tobytes()


class TestFCoefficient:
    def test_frozen_central_values(self):
        j = SpinJ(20)
        f0 = f_coefficient(j, SpinProjection(0))
        f1 = f_coefficient(j, SpinProjection(2))
        assert f0.real == pytest.approx(-3.245831403536756, abs=1e-12)
        assert abs(f0.imag) < 1e-12
        assert f1.imag == pytest.approx(-2.2227289420650274, abs=1e-12)
        assert abs(f1.real) < 1e-12

    @pytest.mark.parametrize("twice_j, twice_m_out, beta, phi0, want", [
        (21, -3, 1.1, 0.4, 0.8741469436406387 + 0.5829875119332595j),
        (200, 4, 2.3, -1.25, 0.5495440496822896 + 0.6228085668440325j),
    ])
    def test_frozen_bits_off_the_default_angles(self, twice_j, twice_m_out, beta, phi0, want):
        got = f_coefficient(SpinJ(twice_j), SpinProjection(twice_m_out), beta, phi0)
        assert (got.real, got.imag) == (want.real, want.imag)

    @pytest.mark.parametrize("twice_j", [4, 9, 20])
    def test_total_weight_is_dimension(self, twice_j):
        # rows of a rotation acting on a unit-modulus phase vector
        j = SpinJ(twice_j)
        total = sum(
            abs(f_coefficient(j, SpinProjection(tm))) ** 2
            for tm in range(-twice_j, twice_j + 1, 2)
        )
        assert total == pytest.approx(twice_j + 1, rel=1e-12)

    @pytest.mark.parametrize("twice_j, twice_m_out", [(4, 0), (4, 2), (5, -1), (6, 4)])
    @pytest.mark.parametrize("beta, phi0", [(PI / 2, 0.0), (1.1, 0.4)])
    def test_matches_direct_double_sum(self, twice_j, twice_m_out, beta, phi0):
        j = SpinJ(twice_j)
        got = f_coefficient(j, SpinProjection(twice_m_out), beta, phi0)
        chi = phi0 + PI / 2.0
        want = sum(
            cmath.exp(1j * chi * (tm / 2.0))
            * wigner_d_element(
                j, SpinProjection(twice_m_out), SpinProjection(tm), beta
            )
            for tm in range(-twice_j, twice_j + 1, 2)
        )
        assert got == pytest.approx(want, abs=1e-12)


class TestBetaQ:
    @pytest.mark.parametrize(
        "N, degrees", [(1, 0.0), (2, 45.0), (10, 81.0), (20, 85.5), (40, 87.75)]
    )
    def test_formula(self, N, degrees):
        assert math.degrees(beta_q(N)) == pytest.approx(degrees, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            beta_q(0)


class TestMakeResource:
    def test_frozen_small_resource(self):
        resource = make_resource(filtered_input(4, FilterOrder(0)), beta_q(4))
        np.testing.assert_allclose(
            resource.s,
            [
                -0.5226925668281723,
                0.4330127018922193j,
                -0.2803300858899106,
                0.4330127018922193j,
                -0.5226925668281723,
            ],
            atol=1e-12,
        )

    @pytest.mark.parametrize("N", [4, 10, 21])
    @pytest.mark.parametrize("beta_deg", [30.0, 67.5, 90.0])
    def test_unit_norm(self, N, beta_deg):
        order = FilterOrder(N % 2)
        resource = make_resource(filtered_input(N, order), math.radians(beta_deg))
        assert np.linalg.norm(resource.s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("N", [6, 20])
    @pytest.mark.parametrize("beta", [0.7, PI / 2, 1.49])
    def test_level_zero_closed_form(self, N, beta):
        # s_n = i^{N/2 - n} d^{N/2}_{n - N/2, 0}(beta)
        resource = make_resource(filtered_input(N, FilterOrder(0)), beta)
        j = SpinJ(N)
        for n in range(N + 1):
            want = ipow(N // 2 - n) * wigner_d_element(
                j, SpinProjection(2 * n - N), SpinProjection(0), beta
            )
            assert resource.s[n] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("N", [5, 21])
    def test_level_half_closed_form(self, N):
        beta = 1.2
        resource = make_resource(filtered_input(N, FilterOrder(1)), beta)
        j = SpinJ(N)
        for n in range(N + 1):
            tmo = 2 * n - N
            bracket = ipow(0.5 - tmo / 2.0) * wigner_d_element(
                j, SpinProjection(tmo), SpinProjection(1), beta
            ) + ipow(-0.5 - tmo / 2.0) * wigner_d_element(
                j, SpinProjection(tmo), SpinProjection(-1), beta
            )
            assert resource.s[n] == pytest.approx(bracket / math.sqrt(2.0), abs=1e-12)

    def test_ideal_resource_is_flat(self):
        resource = ideal_resource(12)
        np.testing.assert_allclose(resource.s, np.full(13, 1 / math.sqrt(13)))

    def test_resource_from_state_preserves_amplitudes(self):
        state = relative_phase_state(RelativePhaseSpec(7, 3))
        resource = resource_from_state(state)
        assert resource.N == 7
        np.testing.assert_array_equal(resource.s, state.amplitudes)

    def test_resource_norm_validation(self):
        with pytest.raises(DomainError):
            QuasiEprResource(2, np.array([1.0, 1.0, 1.0]))
        with pytest.raises(DomainError, match="s must have length 3"):
            QuasiEprResource(2, np.array([1.0, 0.0]))

    def test_resource_rejects_nan_amplitudes(self):
        with pytest.raises(DomainError, match="norm"):
            QuasiEprResource(1, np.array([math.nan, 0.0]))


class TestQuality:
    def test_frozen_level_one_report(self):
        resource = make_resource(filtered_input(20, FilterOrder(2)), beta_q(20))
        report = quality(resource)
        assert report.min_modulus == pytest.approx(0.009029434965493341, rel=1e-9)
        assert report.flatness == pytest.approx(0.6663033836090856, rel=1e-9)
        assert report.entropy == pytest.approx(1.9596948713167155, rel=1e-9)
        assert report.zero_count == 0

    def test_frozen_level_three_halves_report(self):
        resource = make_resource(filtered_input(21, FilterOrder(3)), beta_q(21))
        report = quality(resource)
        assert report.min_modulus == pytest.approx(0.0039615404649099295, rel=1e-9)
        assert report.flatness == pytest.approx(0.7200856028092869, rel=1e-9)
        assert report.entropy == pytest.approx(1.6983994377467424, rel=1e-9)

    def test_frozen_large_n_report(self):
        resource = make_resource(filtered_input(200, FilterOrder(0)), beta_q(200))
        report = quality(resource)
        assert report.min_modulus == pytest.approx(0.02628545027269127, rel=1e-9)
        assert report.flatness == pytest.approx(0.2103618813219272, rel=1e-9)
        assert report.zero_count == 0

    @pytest.mark.parametrize("N", [4, 10, 20])
    def test_balanced_zero_count(self, N):
        # every other amplitude vanishes at pi/2 for the level-0 input
        resource = make_resource(filtered_input(N, FilterOrder(0)), PI / 2)
        assert quality(resource).zero_count == N // 2
        for n in range(1, N + 1, 2):
            assert abs(resource.s[n]) < 1e-12

    @pytest.mark.parametrize("N", [10, 20, 40])
    def test_best_angle_removes_zeros(self, N):
        resource = make_resource(filtered_input(N, FilterOrder(0)), beta_q(N))
        assert quality(resource).zero_count == 0

    @pytest.mark.parametrize("N", [10, 20, 40])
    def test_best_angle_beats_balanced_entropy(self, N):
        order = FilterOrder(0)
        at_best = quality(make_resource(filtered_input(N, order), beta_q(N)))
        at_balanced = quality(make_resource(filtered_input(N, order), PI / 2))
        assert at_best.entropy > at_balanced.entropy

    @pytest.mark.parametrize("N", [11, 21, 41])
    def test_level_half_balanced_floor(self, N):
        # the pair input keeps the balanced-splitter profile off zero; over
        # the central window |n - N/2| <= N/4 the moduli stay above half
        # the flat value
        resource = make_resource(filtered_input(N, FilterOrder(1)), PI / 2)
        assert quality(resource).zero_count == 0
        n = np.arange(N + 1)
        central = np.abs(resource.s[np.abs(n - N / 2.0) <= N / 4.0])
        assert central.min() > 0.5 / math.sqrt(N + 1)

    def test_ideal_resource_maximizes_entropy(self):
        report = quality(ideal_resource(15))
        assert report.normalized_entropy == pytest.approx(1.0, abs=1e-14)
        assert report.flatness == pytest.approx(0.0, abs=1e-15)


def reference_quality(s):
    """quality as a one-row computation: the block pass must give each row these bits."""
    mods = np.abs(s)
    p = mods ** 2
    p = p / p.sum()
    nz = p > 0.0
    entropy = float(-(p[nz] * np.log(p[nz])).sum())
    log_dim = math.log(len(s))
    return (float(mods.min()).hex(), int(np.count_nonzero(mods < 1e-12)),
            float(mods.max() - mods.min()).hex(), entropy.hex(),
            (entropy / log_dim if log_dim > 0.0 else 1.0).hex())


def grid(kind, N, betas):
    """The resource amplitudes of a sweep kind at every angle, as one stack."""
    return np.concatenate([rows for _, rows in sweep._grid_blocks(kind, N, betas)])


def report_bits(report):
    return (report.min_modulus.hex(), report.zero_count, report.flatness.hex(),
            report.entropy.hex(), report.normalized_entropy.hex())


class TestBlockQualities:
    """_qualities scores a block of rows; each row keeps the bits of quality on its own."""

    @staticmethod
    def assert_rows_match(N, block):
        reports = _qualities(block)
        assert len(reports) == len(block)
        for s, report in zip(block, reports):
            assert report_bits(report) == report_bits(quality(QuasiEprResource(N, s)))
            assert report_bits(report) == reference_quality(s)
        return reports

    @pytest.mark.parametrize("kind, N", [("j0", 20), ("2pt", 21), ("3pt", 20), ("4pt", 21),
                                         ("3pt", 40), ("4pt", 41), ("relative-phase-input", 12),
                                         ("ideal", 6)])
    def test_every_kind_over_a_grid(self, kind, N):
        betas = [0.0, 0.4, beta_q(N), 1.2, PI / 2, 2.5, PI]
        reports = self.assert_rows_match(N, grid(kind, N, betas))
        if kind in ("3pt", "4pt"):
            # at beta = 0 the filter's few components sit among exact zeros
            assert reports[0].zero_count == N + 1 - (3 if kind == "3pt" else 4)

    def test_flushed_zeros_at_large_n(self):
        reports = self.assert_rows_match(20000, grid("j0", 20000, [beta_q(20000), PI / 2]))
        assert reports[1].zero_count > 0

    def test_block_of_mixed_rows(self, rng):
        # one reduceat over the block: segments of every length, subnormal p, a lone p = 1
        n = 41
        block = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        block[1, ::3] = 0.0  # flushed zeros
        block[2, 4:] *= 1e-160  # p below the smallest normal float, yet above zero
        block[3] = 0.0
        block[3, 7] = -1j  # a single nonzero p
        block[4, rng.random(n) < 0.9] = 0.0
        block[4, 0] = 1.0
        block /= np.linalg.norm(block, axis=-1, keepdims=True)
        p = np.abs(block[2]) ** 2
        assert 0.0 < p[4:].max() < np.finfo(float).tiny
        reports = self.assert_rows_match(n - 1, block)
        assert math.copysign(1.0, reports[3].entropy) == -1.0  # -(0.0), not a sum of -0.0

    def test_single_photon_number(self):
        for s in ([1.0], [-1j], [math.sqrt(0.5) * (1 + 1j)]):
            report, = self.assert_rows_match(0, np.array([s], dtype=complex))
            assert report.normalized_entropy == 1.0


class TestPhaseDistribution:
    def test_balanced_level_zero_phases_are_uniform(self):
        resource = make_resource(filtered_input(20, FilterOrder(0)), PI / 2)
        phases = phase_distribution(resource)
        even = phases[::2]
        np.testing.assert_allclose(even, np.full(11, PI), atol=1e-12)
        # zeroed components report phase 0 by convention
        np.testing.assert_array_equal(phases[1::2], np.zeros(10))

    def test_range_convention(self):
        resource = resource_from_state(
            relative_phase_state(RelativePhaseSpec(5, 3, phi0=0.1))
        )
        phases = phase_distribution(resource)
        assert np.all(phases > -PI)
        assert np.all(phases <= PI)

    def test_zero_tolerance(self):
        # signed exact zeros and a 1e-13 amplitude (phase -pi/2), as rotate and resources see them
        amps = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                         -1e-13j, 1.0])
        resource = QuasiEprResource(4, amps)
        assert phase_distribution(resource).tolist() == [0.0] * 5
        exact = phase_distribution(resource, zero_tol=math.ulp(0.0))
        assert exact.tolist() == [0.0, 0.0, 0.0, -PI / 2, 0.0]
        assert math.copysign(1.0, exact[1]) == 1.0

    def test_nonuniform_phases_away_from_balanced(self):
        resource = make_resource(filtered_input(20, FilterOrder(0)), beta_q(20))
        phases = phase_distribution(resource)
        assert np.ptp(phases) > 1.0

    def test_balanced_pair_phases_are_affine_in_n(self):
        # odd-N pair input at the balanced angle: all components are live and
        # the phase staircase is a straight line once unwrapped
        resource = make_resource(filtered_input(21, FilterOrder(1)), PI / 2)
        phases = np.unwrap(phase_distribution(resource))
        n = np.arange(22)
        slope, intercept = np.polyfit(n, phases, 1)
        residual = phases - (slope * n + intercept)
        assert np.abs(residual).max() < 1e-9
