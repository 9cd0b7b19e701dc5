"""Conditional collapse, reconstruction, fidelity, and bounds."""

import math

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
    shifted_phase_operator_note,
)

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
        descriptor = shifted_phase_operator_note(offset)
        alice = reconstruct(
            post_measurement_state(
                target, resource, outcome,
                measurement_phase=descriptor.measurement_phase(outcome),
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


class TestEdgeBehaviour:
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
