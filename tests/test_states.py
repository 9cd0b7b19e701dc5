"""Two-mode indexing, relative-phase states, coherent targets."""

import math

import numpy as np
import pytest

from fockport import (
    CoherentTarget,
    DomainError,
    GeneralPhaseSpec,
    RelativePhaseSpec,
    SpinJ,
    SpinProjection,
    TwoModeIndex,
    beta_q,
    coherent_coefficients,
    evaluate_all,
    general_phase_state,
    phase_shift,
    relative_phase_state,
    resource_for_kind,
    spin_to_two_mode,
    two_mode_to_spin,
)

from conftest import align_phase, mpmath


class TestIndexing:
    @pytest.mark.parametrize(
        "n_a, n_b, twice_j, twice_m",
        [(0, 0, 0, 0), (3, 0, 3, 3), (0, 5, 5, -5), (4, 2, 6, 2), (7, 7, 14, 0)],
    )
    def test_two_mode_to_spin(self, n_a, n_b, twice_j, twice_m):
        j, m = two_mode_to_spin(TwoModeIndex(n_a, n_b))
        assert (j.twice_j, m.twice_m) == (twice_j, twice_m)

    @pytest.mark.parametrize("n_a, n_b", [(0, 0), (1, 4), (9, 2)])
    def test_round_trip(self, n_a, n_b):
        idx = TwoModeIndex(n_a, n_b)
        back = spin_to_two_mode(*two_mode_to_spin(idx))
        assert (back.n_a, back.n_b) == (n_a, n_b)
        assert back.total == n_a + n_b

    def test_negative_photon_numbers_rejected(self):
        with pytest.raises(DomainError):
            TwoModeIndex(-1, 2)

    def test_projection_out_of_range(self):
        with pytest.raises(DomainError):
            spin_to_two_mode(SpinJ(4), SpinProjection(6))

    def test_parity_mismatch(self):
        with pytest.raises(DomainError):
            spin_to_two_mode(SpinJ(4), SpinProjection(1))


class TestRelativePhase:
    def test_spec_validates_r(self):
        with pytest.raises(DomainError):
            RelativePhaseSpec(5, 6)
        with pytest.raises(DomainError):
            RelativePhaseSpec(5, -1)
        with pytest.raises(DomainError, match="N must be non-negative"):
            RelativePhaseSpec(-1, 0)

    def test_phi_spacing(self):
        spec = RelativePhaseSpec(9, 3, phi0=0.25)
        assert spec.phi == pytest.approx(0.25 + 2 * math.pi * 3 / 10)

    @pytest.mark.parametrize("N, r", [(0, 0), (4, 0), (4, 2), (9, 9)])
    def test_flat_modulus_and_norm(self, N, r):
        state = relative_phase_state(RelativePhaseSpec(N, r))
        np.testing.assert_allclose(
            np.abs(state.amplitudes), np.full(N + 1, 1 / math.sqrt(N + 1)), atol=1e-14
        )

    def test_basis_is_orthonormal(self):
        N = 6
        vectors = [
            relative_phase_state(RelativePhaseSpec(N, r)).amplitudes
            for r in range(N + 1)
        ]
        gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
        np.testing.assert_allclose(gram, np.eye(N + 1), atol=1e-10)

    def test_r_state_is_phase_shift_of_r0(self):
        # shifting one mode by the phase step advances r by one, up to a
        # global phase (the shift acts on m = n - N/2, not on n itself)
        N = 8
        step = 2 * math.pi / (N + 1)
        shifted = phase_shift(relative_phase_state(RelativePhaseSpec(N, 0)), step)
        want = relative_phase_state(RelativePhaseSpec(N, 1)).amplitudes
        np.testing.assert_allclose(
            align_phase(want, shifted.amplitudes), want, atol=1e-12
        )

    def test_general_phase_matches_relative_phase(self):
        N = 5
        phi = 2 * math.pi * 2 / (N + 1)
        spec = GeneralPhaseSpec(N, tuple(phi * n for n in range(N + 1)))
        got = general_phase_state(spec).amplitudes
        want = relative_phase_state(RelativePhaseSpec(N, 2)).amplitudes
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_general_phase_length_check(self):
        with pytest.raises(DomainError):
            GeneralPhaseSpec(4, (0.0, 0.0))
        with pytest.raises(DomainError, match="N must be non-negative"):
            GeneralPhaseSpec(-1, ())


class TestCoherentTarget:
    def test_zero_alpha_is_vacuum(self):
        target = coherent_coefficients(0.0)
        assert target.k_max == 0
        np.testing.assert_array_equal(target.coeffs, [1.0])

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            coherent_coefficients(-0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(DomainError, match="finite"):
            coherent_coefficients(alpha)

    @pytest.mark.parametrize("alpha, k_max", [(1.0, 14), (3.0, 37)])
    def test_frozen_truncation_depth(self, alpha, k_max):
        assert coherent_coefficients(alpha).k_max == k_max

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_unit_norm(self, alpha):
        target = coherent_coefficients(alpha)
        assert target.weights().sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.7, 1.5, 3.0])
    def test_poisson_ratio(self, alpha):
        # renormalization preserves the ratio c_k / c_{k-1} = alpha / sqrt(k)
        c = coherent_coefficients(alpha).coeffs
        for k in range(1, min(len(c), 12)):
            assert c[k] / c[k - 1] == pytest.approx(alpha / math.sqrt(k), rel=1e-12)

    def test_weight_peak_near_mean(self):
        # alpha^2 = 9: Poisson weights tie exactly at k = 8 and k = 9
        w = coherent_coefficients(3.0).weights()
        assert np.argmax(w) in (8, 9)
        assert w[8] == pytest.approx(w[9], rel=1e-12)

    def test_tail_tolerance_controls_depth(self):
        loose = coherent_coefficients(2.0, tail_tol=1e-6)
        tight = coherent_coefficients(2.0, tail_tol=1e-14)
        assert loose.k_max < tight.k_max
        # below the float spacing near 1 the tail, summed from its small end,
        # still reaches the tolerance at the mpmath cut
        assert coherent_coefficients(5.0, tail_tol=1e-17).k_max == 78 > tight.k_max
        assert exact_tail(5.0, 78) < 1e-17 <= exact_tail(5.0, 77)

    def test_coefficient_lookup(self):
        target = coherent_coefficients(1.0)
        assert target.coefficient(target.k_max + 5) == 0.0
        assert target.coefficient(0) == target.coeffs[0]
        with pytest.raises(DomainError):
            target.coefficient(-1)

    def test_length_validation(self):
        with pytest.raises(DomainError):
            CoherentTarget(1.0, 3, np.array([1.0, 0.0]))


def lgamma_coefficients(alpha, k_max):
    """c_k = e^{-a^2/2} a^k / sqrt(k!) over k = 0..k_max, by lgamma, renormalized."""
    ks = np.arange(k_max + 1)
    log_c = -alpha * alpha / 2.0 + ks * math.log(alpha) - 0.5 * np.array(
        [math.lgamma(kk + 1.0) for kk in ks])
    c = np.exp(log_c)
    c /= np.linalg.norm(c)
    return c


def exact_tail(alpha, k):
    """Poisson mass beyond k at mean alpha^2, by mpmath's regularized incomplete gamma."""
    with mpmath.workdps(30):
        return mpmath.gammainc(k + 1, 0, mpmath.mpf(alpha * alpha), regularized=True)


def poisson_tail(alpha, k_max):
    """Poisson mass beyond k_max, summed in log space."""
    mean = alpha * alpha
    ks = np.arange(k_max + 1, k_max + 2000)
    log_p = ks * math.log(mean) - mean - np.array([math.lgamma(k + 1.0) for k in ks])
    return float(np.exp(log_p).sum())


class TestCoherentLargeAlpha:
    # e^{-alpha^2} stays a normal float up to alpha ~ 26.6, where the weights
    # start at k = 0; a float 1 - cum cut one term off the exact one at 75 of
    # 26,599 alpha on a 0.001 grid below 26.6, such as 2.565, 6.845 and 25.24
    @pytest.mark.parametrize("tail_tol", [1e-12, 1e-6])
    def test_normal_start_cuts_at_exact_tail(self, tail_tol):
        for alpha in ([1e-200, 1e-3, 2.565, 6.845, 25.24]
                      + list(np.arange(0.05, 26.6, 0.11)) + [26.61]):
            alpha = float(alpha)
            target = coherent_coefficients(alpha, tail_tol)
            k_max = target.k_max
            # the first k_max >= alpha^2 whose tail is below tail_tol
            assert k_max >= alpha * alpha, alpha
            assert exact_tail(alpha, k_max) < tail_tol, alpha
            assert k_max - 1 < alpha * alpha or exact_tail(alpha, k_max - 1) >= tail_tol, alpha
            assert target.coeffs.tobytes() == lgamma_coefficients(alpha, k_max).tobytes(), alpha

    @pytest.mark.parametrize("alpha", [26.7, 27.25, 27.5, 30.0, 60.0])
    def test_past_exp_underflow(self, alpha):
        target = coherent_coefficients(alpha)
        assert target.k_max >= alpha * alpha
        assert target.weights().sum() == pytest.approx(1.0, abs=1e-14)
        assert poisson_tail(alpha, target.k_max) < 1.5e-12
        assert poisson_tail(alpha, target.k_max - 1) > 0.5e-12
        resource = resource_for_kind("j0", 20, beta_q(20))
        for row in evaluate_all(target, resource, True):
            if row.fidelity is not None:
                assert row.fidelity <= row.bound + 1e-12

    def test_dense_grid_up_to_98(self):
        # the weights found in log space carry a relative error of ~1e-11; judged
        # against 1, their tail never fell below 1e-12 for about one alpha in five
        # from 49.55 up, and the truncation failed to converge
        for alpha in list(np.linspace(26.0, 98.0, 289)) + [100.0]:
            alpha = float(alpha)
            target = coherent_coefficients(alpha)
            assert target.k_max >= alpha * alpha, alpha
            assert target.weights().sum() == pytest.approx(1.0, abs=1e-14), alpha
            assert poisson_tail(alpha, target.k_max) < 1e-12, alpha
        with pytest.raises(DomainError, match="10000 coherent terms"):
            coherent_coefficients(100.001)

    @pytest.mark.parametrize("tail_tol", [0.0, -1.0, math.nan])
    def test_tail_tol_must_be_positive(self, tail_tol):
        with pytest.raises(DomainError, match="tail_tol"):
            coherent_coefficients(40.0, tail_tol)

    @pytest.mark.parametrize("alpha", [49.55, 80.0, 90.0])
    def test_against_mpmath(self, alpha):
        target = coherent_coefficients(alpha)
        with mpmath.workdps(40):
            mean = mpmath.mpf(alpha) ** 2
            weight = mpmath.exp(-mean) * mean ** target.k_max / mpmath.factorial(target.k_max)
            tail, term, k = mpmath.mpf(0), weight, target.k_max
            while term > mpmath.mpf(10) ** -30:
                k += 1
                term *= mean / k
                tail += term
            # the cut is the first k_max >= alpha^2 whose tail is below 1e-12
            assert tail < 1e-12 and tail + weight >= 1e-12
            kept = 1 - tail
            for k in (int(mean) - 5 * int(alpha), int(mean), target.k_max):
                exact = mpmath.sqrt(mpmath.exp(-mean) * mean ** k / mpmath.factorial(k) / kept)
                assert target.coeffs[k] == pytest.approx(float(exact), rel=1e-9), k
