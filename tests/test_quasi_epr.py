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


class TestFCoefficient:
    def test_frozen_central_values(self):
        j = SpinJ(20)
        f0 = f_coefficient(j, SpinProjection(0))
        f1 = f_coefficient(j, SpinProjection(2))
        assert f0.real == pytest.approx(-3.245831403536756, abs=1e-12)
        assert abs(f0.imag) < 1e-12
        assert f1.imag == pytest.approx(-2.2227289420650274, abs=1e-12)
        assert abs(f1.real) < 1e-12

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
