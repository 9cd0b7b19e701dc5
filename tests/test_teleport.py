"""Conditional collapse, reconstruction, fidelity, and bounds."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fockport import (
    BobState,
    DomainError,
    FilterOrder,
    GeneralPhaseSpec,
    ImpossibleOutcomeError,
    MeasurementOutcome,
    SingleModeState,
    SpinJ,
    SpinState,
    TeleportOutcome,
    average_fidelity,
    beta_q,
    coherent_coefficients,
    evaluate_all,
    evaluate_outcome,
    fidelity,
    fidelity_bound,
    filtered_input,
    general_phase_state,
    high_fidelity_region,
    ideal_resource,
    make_resource,
    outcome_probability,
    parity_phase_correction,
    post_measurement_state,
    reconstruct,
    resource_for_kind,
    resource_from_state,
)

from fockport.sweep import BetaGrid, SweepSpec, resources_for_kind, run_sweep
from fockport.teleport import _BATCH, _evaluate, _parity_factors

PI = math.pi


@pytest.fixture(scope="module")
def small_resource():
    # level-0 input, N = 4, at its best angle
    return make_resource(filtered_input(4, FilterOrder(0)), beta_q(4))


@pytest.fixture(scope="module")
def unit_target():
    return coherent_coefficients(1.0)


def truncated_target(target, q, N):
    """Target coefficients restricted to the reachable window, renormalized."""
    k0 = max(0, q - N)
    hi = min(q, target.k_max)
    ref = np.zeros(q + 1)
    ref[k0:hi + 1] = target.coeffs[k0:hi + 1]
    return ref / np.linalg.norm(ref)


class TestOutcomeTypes:
    def test_phase_values(self):
        outcome = MeasurementOutcome(3, 2, phi0=0.5)
        assert outcome.phase == pytest.approx(0.5 + 2 * PI * 2 / 4)

    def test_validation(self):
        with pytest.raises(DomainError):
            MeasurementOutcome(-1, 0)
        with pytest.raises(DomainError):
            MeasurementOutcome(3, 4)

    def test_outcome_stores_q_as_an_int(self, unit_target, small_resource):
        # an unsigned q once wrapped in q - N inside post_measurement_state
        outcome = MeasurementOutcome(np.uint8(3), 0)
        assert type(outcome.q) is int
        got = post_measurement_state(unit_target, small_resource, outcome).amplitudes
        want = post_measurement_state(unit_target, small_resource,
                                      MeasurementOutcome(3, 0)).amplitudes
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("q, s_index, phi0, name", [
        (2.5, 0, 0.0, "q"), (True, 0, 0.0, "q"), (3, 1.5, 0.0, "s_index"),
        (3, True, 0.0, "s_index"), (3, 0, math.inf, "phi0"), (3, 0, math.nan, "phi0"),
        (3, 0, "0", "phi0"),
    ])
    def test_outcome_refuses_non_numbers_by_name(self, q, s_index, phi0, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            MeasurementOutcome(q, s_index, phi0)

    def test_bob_state_indexing(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        bob = BobState(4, 3, amps)
        assert bob.k0 == 0
        np.testing.assert_array_equal(bob.k_values(), [0, 1, 2, 3])
        np.testing.assert_array_equal(bob.fock_indices(), [1, 2, 3, 4])

    def test_bob_state_window_clips_at_n(self):
        amps = np.zeros(5, dtype=complex)
        amps[1] = 1.0
        bob = BobState(4, 6, amps)  # q > N pushes the window to k = 2..6
        assert bob.k0 == 2
        np.testing.assert_array_equal(bob.fock_indices(), [0, 1, 2, 3, 4])

    def test_bob_state_length_check(self):
        with pytest.raises(DomainError):
            BobState(4, 3, np.array([1.0, 0.0]))

    def test_single_mode_norm_check(self):
        with pytest.raises(DomainError):
            SingleModeState(np.array([0.5, 0.5]))

    def test_bob_state_rejects_nan_amplitudes(self):
        with pytest.raises(DomainError, match="norm"):
            BobState(1, 1, np.array([math.nan, 0.0]))

    def test_single_mode_rejects_nan_amplitudes(self):
        with pytest.raises(DomainError, match="norm"):
            SingleModeState(np.array([math.nan, 0.0]))


class TestProbability:
    def test_frozen_value(self, unit_target, small_resource):
        assert outcome_probability(unit_target, small_resource, 3) == pytest.approx(
            0.14912712130259287, rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
    def test_distribution_sums_to_one(self, alpha, small_resource):
        target = coherent_coefficients(alpha)
        total = sum(
            outcome_probability(target, small_resource, q)
            for q in range(small_resource.N + target.k_max + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_target_reads_resource_weights(self, small_resource):
        target = coherent_coefficients(0.0)
        for q in range(5):
            assert outcome_probability(target, small_resource, q) == pytest.approx(
                abs(small_resource.s[q]) ** 2, rel=1e-12
            )

    def test_beyond_support_is_zero(self, unit_target, small_resource):
        q = small_resource.N + unit_target.k_max + 1
        assert outcome_probability(unit_target, small_resource, q) == 0.0

    def test_negative_q_rejected(self, unit_target, small_resource):
        with pytest.raises(DomainError):
            outcome_probability(unit_target, small_resource, -1)

    def test_mean_is_target_mean_plus_resource_center(self):
        # the outcome index adds an independent photon count to the resource
        # index, so the distribution mean splits even though the shape is
        # bimodal (edge-heavy pair moduli convolved with a Poisson hump)
        resource = make_resource(filtered_input(21, FilterOrder(1)), math.pi / 2)
        target = coherent_coefficients(3.0)
        q_values = np.arange(21 + target.k_max + 1)
        probs = np.array(
            [outcome_probability(target, resource, q) for q in q_values]
        )
        assert float(q_values @ probs) == pytest.approx(9.0 + 10.5, abs=1e-9)
        assert int(probs.argmax()) == 28


class TestPostMeasurement:
    def test_frozen_amplitudes(self, unit_target, small_resource):
        bob = post_measurement_state(unit_target, small_resource, MeasurementOutcome(3, 0))
        np.testing.assert_allclose(
            bob.amplitudes,
            [
                0.6801036055273319j,
                -0.4402954044464189,
                0.4809058720805907j,
                -0.3351545669834094,
            ],
            atol=1e-12,
        )

    def test_phase_index_applies_linear_phase(self, unit_target, small_resource):
        # s = 2 at q = 3 multiplies component k by e^{-i pi k}
        base = post_measurement_state(unit_target, small_resource, MeasurementOutcome(3, 0))
        shifted = post_measurement_state(unit_target, small_resource, MeasurementOutcome(3, 2))
        signs = (-1.0) ** np.arange(4)
        np.testing.assert_allclose(shifted.amplitudes, base.amplitudes * signs, atol=1e-12)

    def test_impossible_outcome_raises(self, small_resource):
        # vacuum target forces k = 0, unreachable once q exceeds N
        with pytest.raises(ImpossibleOutcomeError):
            post_measurement_state(
                coherent_coefficients(0.0), small_resource, MeasurementOutcome(6, 0)
            )

    def test_measurement_phase_override(self, unit_target, small_resource):
        outcome = MeasurementOutcome(3, 1)
        overridden = post_measurement_state(
            unit_target, small_resource, outcome, measurement_phase=outcome.phase
        )
        default = post_measurement_state(unit_target, small_resource, outcome)
        np.testing.assert_allclose(overridden.amplitudes, default.amplitudes, atol=1e-15)


class TestReconstruct:
    @pytest.mark.parametrize("q", [3, 5, 8, 11])
    @pytest.mark.parametrize("s_index", [0, 1])
    def test_ideal_resource_reconstructs_target(self, q, s_index):
        target = coherent_coefficients(1.0)
        resource = ideal_resource(8)
        outcome = MeasurementOutcome(q, min(s_index, q))
        out = reconstruct(
            post_measurement_state(target, resource, outcome), 0.0, outcome
        )
        ref = truncated_target(target, q, 8)
        assert abs(np.vdot(ref, out.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_alice_shift_equals_bob_shift(self):
        # measuring the offset-shifted phase equals shifting at reconstruction
        resource = make_resource(filtered_input(20, FilterOrder(0)), math.radians(85.5))
        target = coherent_coefficients(2.0)
        outcome = MeasurementOutcome(13, 4)
        offset = 0.77
        alice = reconstruct(
            post_measurement_state(
                target, resource, outcome,
                measurement_phase=outcome.phase - offset,
            ),
            0.0,
            outcome,
        )
        bob = reconstruct(
            post_measurement_state(target, resource, outcome), offset, outcome
        )
        np.testing.assert_allclose(alice.amplitudes, bob.amplitudes, atol=1e-12)

    def test_linear_phase_resource_flattens(self):
        # a resource with phases slope*n reconstructs the bare target when
        # the slope is supplied as the reconstruction offset
        slope = 0.31
        N = 20
        state = general_phase_state(
            GeneralPhaseSpec(N, tuple(slope * n for n in range(N + 1)))
        )
        resource = resource_from_state(state)
        target = coherent_coefficients(2.0)
        outcome = MeasurementOutcome(10, 3)
        out = reconstruct(
            post_measurement_state(target, resource, outcome), slope, outcome
        )
        ref = truncated_target(target, 10, N)
        assert abs(np.vdot(ref, out.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", [7, 12, 16])
    def test_quadratic_resource_needs_parity_correction(self, q):
        # phases (pi/2) n^2: reconstruction alone caps near 1/2 overlap, the
        # parity correction plus a pi linear offset restores it exactly
        N = 20
        state = general_phase_state(
            GeneralPhaseSpec(N, tuple((PI / 2) * n * n for n in range(N + 1)))
        )
        resource = resource_from_state(state)
        target = coherent_coefficients(2.0)
        outcome = MeasurementOutcome(q, 2)
        out = reconstruct(
            post_measurement_state(target, resource, outcome), PI, outcome
        )
        ref = truncated_target(target, q, N)
        bare = abs(np.vdot(ref, out.amplitudes)) ** 2
        fixed = abs(np.vdot(ref, parity_phase_correction(out, q).amplitudes)) ** 2
        assert bare < 0.55
        assert fixed == pytest.approx(1.0, abs=1e-10)


class TestParityCorrection:
    def test_norm_preserved_exactly(self, rng):
        amps = rng.normal(size=9) + 1j * rng.normal(size=9)
        amps /= np.linalg.norm(amps)
        state = SingleModeState(amps)
        out = parity_phase_correction(state, 4)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(
            np.linalg.norm(amps), abs=1e-15
        )

    def test_opposite_parities_cancel(self, rng):
        amps = rng.normal(size=7) + 1j * rng.normal(size=7)
        amps /= np.linalg.norm(amps)
        state = SingleModeState(amps)
        round_trip = parity_phase_correction(parity_phase_correction(state, 2), 3)
        np.testing.assert_allclose(round_trip.amplitudes, amps, atol=1e-15)

    def test_period_four_in_k(self):
        amps = np.zeros(6, dtype=complex)
        amps[1] = amps[5] = 1 / math.sqrt(2)
        out = parity_phase_correction(SingleModeState(amps), 0)
        # k = 1 and k = 5 share k^2 mod 4 = 1, so both pick up +i
        assert out.amplitudes[1] == pytest.approx(1j / math.sqrt(2), abs=1e-15)
        assert out.amplitudes[5] == pytest.approx(1j / math.sqrt(2), abs=1e-15)


class TestFidelity:
    def test_frozen_pair_input_value(self):
        resource = make_resource(filtered_input(21, FilterOrder(1)), PI / 2)
        target = coherent_coefficients(3.0)
        assert fidelity(target, resource, 14) == pytest.approx(
            0.8436777197001655, rel=1e-10
        )

    def test_frozen_peak_value(self):
        resource = make_resource(filtered_input(20, FilterOrder(0)), math.radians(85.5))
        target = coherent_coefficients(3.0)
        assert fidelity(target, resource, 19, True) == pytest.approx(
            0.99270429402264, rel=1e-10
        )
        assert outcome_probability(target, resource, 19) == pytest.approx(
            0.031987566738232366, rel=1e-10
        )

    def test_frozen_average(self):
        resource = make_resource(filtered_input(20, FilterOrder(0)), math.radians(85.5))
        target = coherent_coefficients(3.0)
        assert average_fidelity(target, resource, True) == pytest.approx(
            0.7014263745384236, rel=1e-10
        )

    def test_frozen_average_balanced_pair(self):
        resource = make_resource(filtered_input(21, FilterOrder(1)), math.pi / 2)
        target = coherent_coefficients(3.0)
        value = average_fidelity(target, resource)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(0.6634836945033811, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("correction", [False, True])
    def test_never_exceeds_bound(self, alpha, correction):
        resource = make_resource(filtered_input(10, FilterOrder(0)), beta_q(10))
        target = coherent_coefficients(alpha)
        for q in range(10 + target.k_max + 1):
            if outcome_probability(target, resource, q) <= 0.0:
                continue
            f = fidelity(target, resource, q, correction)
            assert f <= fidelity_bound(target, q, 10) + 1e-12

    def test_ideal_resource_meets_bound(self):
        resource = ideal_resource(12)
        target = coherent_coefficients(1.5)
        for q in range(12 + target.k_max + 1):
            f = fidelity(target, resource, q)
            assert f == pytest.approx(fidelity_bound(target, q, 12), abs=1e-12)

    def test_unreachable_q_raises(self, unit_target, small_resource):
        with pytest.raises(ImpossibleOutcomeError):
            fidelity(unit_target, small_resource, 100)

    def test_average_is_probability_weighted(self, unit_target, small_resource):
        direct = sum(
            outcome_probability(unit_target, small_resource, q)
            * fidelity(unit_target, small_resource, q)
            for q in range(4 + unit_target.k_max + 1)
            if outcome_probability(unit_target, small_resource, q) > 0
        )
        assert average_fidelity(unit_target, small_resource) == pytest.approx(
            direct, rel=1e-12
        )


class TestBound:
    def test_nondecreasing_up_to_n(self, unit_target):
        values = [fidelity_bound(unit_target, q, 25) for q in range(26)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_full_mass_window(self, unit_target):
        # once q covers the whole truncation and stays below N the mass is 1
        for q in range(unit_target.k_max, 26):
            assert fidelity_bound(unit_target, q, 25) == pytest.approx(1.0, abs=1e-12)

    def test_empty_window_is_zero(self, unit_target):
        assert fidelity_bound(unit_target, unit_target.k_max + 26, 25) == 0.0

    def test_negative_q_rejected(self, unit_target):
        with pytest.raises(DomainError):
            fidelity_bound(unit_target, -2, 10)


class TestRegion:
    def test_frozen_window(self):
        assert high_fidelity_region(2.0, 20) == (6, 18)

    def test_vanishes_for_small_n(self):
        assert high_fidelity_region(3.0, 10) is None

    def test_zero_alpha_spans_everything(self):
        assert high_fidelity_region(0.0, 9) == (0, 9)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
    def test_bad_alpha_is_domain_error(self, alpha):
        with pytest.raises(DomainError, match="alpha must be finite and non-negative"):
            high_fidelity_region(alpha, 20)

    @pytest.mark.parametrize("N", [math.nan, 10.5, "20", 0, -1])
    def test_bad_n_is_domain_error(self, N):
        with pytest.raises(DomainError, match="N must be a positive integer"):
            high_fidelity_region(1.0, N)


class TestEvaluateOutcome:
    def test_reachable_bundle(self, unit_target, small_resource):
        outcome = evaluate_outcome(unit_target, small_resource, 3)
        assert outcome.q == 3
        assert outcome.fidelity == pytest.approx(
            fidelity(unit_target, small_resource, 3), rel=1e-12
        )
        assert outcome.probability == pytest.approx(0.14912712130259287, rel=1e-12)
        assert outcome.bound == pytest.approx(
            fidelity_bound(unit_target, 3, 4), rel=1e-12
        )

    def test_unreachable_bundle(self, unit_target, small_resource):
        outcome = evaluate_outcome(unit_target, small_resource, 60)
        assert outcome.fidelity is None
        assert outcome.probability == 0.0
        assert outcome.bound == 0.0


def reference_window(target, resource, q):
    """Per-k window of the original per-q implementation: (ks, c_k, s_{q-k})."""
    ks = np.arange(max(0, q - resource.N), q + 1)
    ck = np.array([target.coefficient(int(k)) for k in ks])
    return ks, ck, resource.s[q - ks]


def reference_outcome(target, resource, q, parity):
    """(F, bound, P) exactly as the original per-q loop computed them."""
    k0, hi = max(0, q - resource.N), min(q, target.k_max)
    bound = float(np.sum(target.weights()[k0:hi + 1])) if hi >= k0 else 0.0
    if q > resource.N + target.k_max:
        return None, bound, 0.0
    ks, ck, sv = reference_window(target, resource, q)
    w = ck ** 2
    p = float(np.sum(w * np.abs(sv) ** 2))
    if p <= 0.0:
        return None, bound, 0.0
    num_vec = w * sv
    if parity:
        powers = (ks * ks) % 4
        num_vec = num_vec * (1j ** powers if q % 2 == 0 else (-1j) ** powers)
    return float(abs(np.sum(num_vec)) ** 2 / p), bound, p


# every filter kind at each N in {1, 5, 20, 21, 150} its parity allows
EXACT_CASES = [("j0", 20, 85.5), ("j0", 150, 85.5), ("j0", 20, 90.0),
               ("2pt", 1, 80.0), ("2pt", 5, 80.0), ("2pt", 21, 90.0),
               ("3pt", 20, 85.5), ("3pt", 150, 89.0), ("4pt", 5, 80.0), ("4pt", 21, 85.5),
               ("ideal", 1, 0.0), ("ideal", 5, 0.0), ("ideal", 20, 0.0),
               ("ideal", 21, 0.0), ("ideal", 150, 0.0)]


@pytest.mark.parametrize("parity", [False, True])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 3.0, 8.0])
@pytest.mark.parametrize("kind,n,beta_deg", EXACT_CASES)
class TestExactness:
    """The one-pass and single-q paths reproduce the per-k window bit for bit."""

    def test_every_outcome_matches_reference(self, kind, n, beta_deg, alpha, parity):
        resource = resource_for_kind(kind, n, math.radians(beta_deg))
        target = coherent_coefficients(alpha)
        rows = evaluate_all(target, resource, parity)
        assert [row.q for row in rows] == list(range(n + target.k_max + 1))
        for row in rows:
            f, bound, p = reference_outcome(target, resource, row.q, parity)
            assert (row.fidelity, row.bound, row.probability) == (f, bound, p)
            assert evaluate_outcome(target, resource, row.q, parity) == row
            assert outcome_probability(target, resource, row.q) == p
            assert fidelity_bound(target, row.q, n) == bound
            if f is not None:
                assert fidelity(target, resource, row.q, parity) == f

    def test_average_is_row_order_sum(self, kind, n, beta_deg, alpha, parity):
        resource = resource_for_kind(kind, n, math.radians(beta_deg))
        target = coherent_coefficients(alpha)
        total = 0.0
        for q in range(n + target.k_max + 1):
            f, _, p = reference_outcome(target, resource, q, parity)
            if f is not None:
                total += p * f
        assert average_fidelity(target, resource, parity) == total


class TestExactnessCoverage:
    def test_cases_reach_every_window_shape(self):
        # windows below the truncation, beyond it, and clipped at N all occur
        shapes = set()
        for kind, n, _ in EXACT_CASES:
            for alpha in (0.0, 0.5, 3.0, 8.0):
                k_max = coherent_coefficients(alpha).k_max
                for q in range(n + k_max + 1):
                    shapes.add((q < k_max, q > k_max, q > n))
        assert {(True, False, False), (False, True, False), (True, False, True),
                (False, True, True)} <= shapes

    @pytest.mark.parametrize("parity", [False, True])
    def test_zero_amplitudes_make_in_range_outcomes_unreachable(self, parity):
        # s_1 = s_3 = 0, so a vacuum target cannot produce q = 1 or q = 3
        amps = np.array([1.0, 0.0, 1.0, 0.0, 1.0]) / math.sqrt(3.0)
        resource = resource_from_state(SpinState(SpinJ(4), amps))
        target = coherent_coefficients(0.0)
        rows = evaluate_all(target, resource, parity)
        assert [row.q for row in rows if row.fidelity is None] == [1, 3]
        for row in rows:
            assert (row.fidelity, row.bound, row.probability) == reference_outcome(
                target, resource, row.q, parity)
        with pytest.raises(ImpossibleOutcomeError):
            fidelity(target, resource, 3, parity)
        assert evaluate_outcome(target, resource, 3, parity) == TeleportOutcome(3, None, 1.0, 0.0)


class TestExactnessLongWindowsAndSweeps:
    @pytest.mark.parametrize("parity", [False, True])
    def test_windows_past_the_pairwise_block_match_reference(self, parity):
        # numpy sums more than 128 elements pairwise in blocks; most windows here do
        resource = resource_for_kind("j0", 600, math.radians(89.85))
        target = coherent_coefficients(8.0)
        rows = evaluate_all(target, resource, parity)
        assert sum(row.q - max(0, row.q - 600) >= 128 for row in rows) > 500
        for row in rows:
            assert (row.fidelity, row.bound, row.probability) == reference_outcome(
                target, resource, row.q, parity)

    @pytest.mark.parametrize("parity", [False, True])
    @pytest.mark.parametrize("kind,n", [("j0", 40), ("2pt", 41), ("relative-phase-input", 30)])
    def test_sweep_with_q_list_matches_reference(self, kind, n, parity):
        q_list = [0, 3, 17, n, n + 30, 9, 9]
        spec = SweepSpec(kind, n, BetaGrid(math.radians(45), math.radians(90), math.radians(2.5)),
                         alpha=2.0, q_list=q_list, parity_correction=parity)
        rows = run_sweep(spec).rows
        betas = spec.beta_grid.values()
        assert len(rows) == len(betas) * len(q_list)
        target = coherent_coefficients(2.0)
        for i, beta in enumerate(betas):
            resource = resource_for_kind(kind, n, beta)
            for row, q in zip(rows[i * len(q_list):], q_list):
                assert row[:2] == (math.degrees(beta), q)
                assert row[2:5] == reference_outcome(target, resource, q, parity)


class TestEdgeBehaviour:
    @pytest.mark.parametrize("q", [2.5, 3.0, np.float64(3), True, False, np.bool_(True), "3",
                                   None, math.nan])
    def test_q_that_is_not_an_integer_is_refused(self, unit_target, small_resource, q):
        # these once raised TypeError from the slicing inside the q loop
        for call in (lambda: fidelity(unit_target, small_resource, q),
                     lambda: fidelity(unit_target, small_resource, q, True),
                     lambda: evaluate_outcome(unit_target, small_resource, q),
                     lambda: outcome_probability(unit_target, small_resource, q),
                     lambda: fidelity_bound(unit_target, q, small_resource.N)):
            message = f"q must be a non-negative integer, got {q!r}"
            with pytest.raises(DomainError, match=re.escape(message)):
                call()

    @pytest.mark.parametrize("N", [-5, 0, True, 4.0, np.float64(4), "4", None])
    def test_fidelity_bound_refuses_a_bad_n(self, unit_target, N):
        with pytest.raises(DomainError, match="N must be a positive integer"):
            fidelity_bound(unit_target, 3, N)

    @pytest.mark.parametrize("q", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_q_is_accepted(self, unit_target, small_resource, q):
        # an unsigned q once wrapped in q - N: k0 = 255 here
        assert evaluate_outcome(unit_target, small_resource, q) == evaluate_outcome(
            unit_target, small_resource, 3)
        assert fidelity_bound(unit_target, q, np.int64(4)) == fidelity_bound(unit_target, 3, 4)
        assert fidelity(unit_target, small_resource, q) == fidelity(unit_target, small_resource, 3)

    def test_probability_past_support_and_negative(self, unit_target, small_resource):
        last = small_resource.N + unit_target.k_max
        assert outcome_probability(unit_target, small_resource, last + 1) == 0.0
        assert outcome_probability(unit_target, small_resource, last + 1000) == 0.0
        with pytest.raises(DomainError):
            outcome_probability(unit_target, small_resource, -1)

    @pytest.mark.parametrize("q", [-1, 100])
    def test_fidelity_outside_support_is_impossible(self, unit_target, small_resource, q):
        with pytest.raises(ImpossibleOutcomeError):
            fidelity(unit_target, small_resource, q)

    def test_evaluate_outcome_edges(self, unit_target, small_resource):
        last = small_resource.N + unit_target.k_max
        assert evaluate_outcome(unit_target, small_resource, last + 1) == TeleportOutcome(
            last + 1, None, 0.0, 0.0)
        with pytest.raises(DomainError):
            evaluate_outcome(unit_target, small_resource, -1)

    def test_evaluate_all_ends_at_last_reachable_q(self, unit_target, small_resource):
        rows = evaluate_all(unit_target, small_resource)
        assert rows[-1].q == small_resource.N + unit_target.k_max
        assert rows[-1].probability > 0.0


def per_q_rows(target, s, qs, parity):
    """The q loop before batching, as an oracle: one np.add.reduce per sum and q."""
    N, k_max = s.shape[-1] - 1, target.k_max
    rows = None if s.ndim == 1 else len(s)
    c2 = np.concatenate((target.coeffs, np.zeros(N))) ** 2
    s_rev = np.ascontiguousarray(s[..., ::-1])
    s2_rev = np.abs(s_rev) ** 2
    ks = np.arange(N + k_max + 1)
    for q in map(int, qs):
        if q > N + k_max:
            yield (q, None, 0.0, 0.0) if rows is None else (q, [None] * rows, 0.0, [0.0] * rows)
            continue
        k0 = max(0, q - N)
        w, lo = c2[k0:q + 1], N - q + k0
        p = np.add.reduce(w * s2_rev[..., lo:], -1)
        if parity:
            w = (c2 * _parity_factors(ks, q % 2))[k0:q + 1]
        num = np.add.reduce(w * s_rev[..., lo:], -1)
        bound = float(np.add.reduce(c2[k0:min(q, k_max) + 1]))
        if rows is None:
            p = float(p)
            yield q, None if p <= 0.0 else float(abs(num) ** 2 / p), bound, p
        else:
            p = p.tolist()
            f = [None if pb <= 0.0 else abs(z) ** 2 / pb for z, pb in zip(num.tolist(), p)]
            yield q, f, bound, p


def q_lists(N, k_max, B, rng):
    """All q and one past them, an unordered list with repeats and unreachable q, numpy
    integers, and lists one short of, at and one past the batch size."""
    last = N + k_max
    cap = max(1, _BATCH // (B * (N + 2)))
    yield range(last + 2)
    yield [last + 1, 5, 0, last, 5, 10 ** 30, 2 * last, 1, 0]
    yield [np.int64(last), np.uint8(min(last, 255)), np.int32(0)]
    for length in (cap - 1, cap, cap + 1):
        yield [int(q) for q in rng.integers(0, last + 3, length)]


# windows on both sides of 8 and 128 entries (numpy's pairwise blocks), k_max above and
# below N (alpha 0.5, 3 and 12 give k_max 9, 37 and 236)
ORACLE_CASES = [("j0", 8), ("2pt", 7), ("2pt", 9), ("3pt", 128), ("4pt", 129), ("ideal", 127),
                ("relative-phase-input", 20), ("j0", 300)]


@pytest.mark.parametrize("parity", [False, True])
@pytest.mark.parametrize("alpha", [0.5, 3.0, 12.0])
@pytest.mark.parametrize("kind,n", ORACLE_CASES)
def test_batched_rows_match_the_per_q_loop(kind, n, alpha, parity):
    target = coherent_coefficients(alpha)
    stack = np.array([r.s for r in resources_for_kind(kind, n, np.radians([30.0, 85.5, 90.0]))])
    rng = np.random.default_rng(n)
    for s in (stack[1], stack):
        for qs in q_lists(n, target.k_max, 1 if s.ndim == 1 else len(s), rng):
            got = list(zip(*_evaluate(target, s, qs, parity)))
            assert repr(got) == repr(list(per_q_rows(target, s, qs, parity)))


def test_oracle_cases_cover_the_window_shapes():
    lengths = {min(q, n) + 1 for _, n in ORACLE_CASES for q in range(2 * n)}
    assert {7, 8, 9, 127, 128, 129} <= lengths
    k_max = [coherent_coefficients(alpha).k_max for alpha in (0.5, 3.0, 12.0)]
    pairs = [(k, n) for _, n in ORACLE_CASES for k in k_max]
    assert any(k < n for k, n in pairs) and any(k > n for k, n in pairs)


def test_a_bad_q_anywhere_raises(unit_target, small_resource):
    # first, second, or after two whole batches of good q: the table comes whole or not at all
    good = list(range(2 * max(1, _BATCH // (small_resource.N + 2)) + 1))
    for bad in (-1, 2.0, None):
        for where in (0, 1, len(good)):
            qs = good[:where] + [bad] + good[where:]
            with pytest.raises(DomainError, match=f"q must be a non-negative integer, got {bad}"):
                _evaluate(unit_target, small_resource.s, qs, False)


_REDUCEAT_CHECK = """
import numpy as np
rng = np.random.default_rng(1)
bad = []
for dtype in (np.float64, np.complex128):
    for n in range(1, 2101):
        x = rng.standard_normal((3, n)).astype(dtype)
        if dtype is np.complex128:
            x.imag = rng.standard_normal((3, n))
        x[2, rng.random(n) < 0.5] *= 0.0  # mixed signed zeros among the values
        if n % 7 == 0:
            x[1] = -0.0
        rows = np.zeros((3, n + 3), dtype)  # a zero, the window, junk
        rows[:, 1:n + 1] = x
        rows[:, n + 1:] = 7.0
        flat = np.add.reduceat(rows[0], [0, n + 1])[0]
        along = np.add.reduceat(rows, [0, n + 1], axis=-1)[:, 0]
        if flat.tobytes() != np.add.reduce(x[0]).tobytes():
            bad.append((dtype.__name__, n, "1-D"))
        if along.tobytes() != np.add.reduce(x, -1).tobytes():
            bad.append((dtype.__name__, n, "axis -1"))
print(bad[:10])
"""


@pytest.mark.parametrize("cpu_features", [None, "X86_V4 AVX512_ICL AVX512_SPR"],
                         ids=["default", "no-avx512"])
def test_reduceat_from_a_leading_zero_has_the_bits_of_reduce(cpu_features):
    # _evaluate's exactness rests on this property of numpy: reduceat copies a segment's
    # first entry, a zero, and adds numpy's pairwise sum of the rest; reduce adds that same
    # sum to its identity, 0.0.  A numpy for which this fails must fail here, by name.
    env = dict(os.environ)
    if cpu_features:
        env["NPY_DISABLE_CPU_FEATURES"] = cpu_features  # unknown names are ignored
    out = subprocess.run([sys.executable, "-c", _REDUCEAT_CHECK], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]", f"numpy {np.__version__}: {out}"
