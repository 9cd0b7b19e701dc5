"""Grid sweeps: determinism, row layout, angle search, figure datasets."""

import math

import numpy as np
import pytest

from fockport import (
    MAX_GRID_POINTS,
    BetaGrid,
    DomainError,
    FilterOrder,
    ImpossibleOutcomeError,
    QuasiEprResource,
    RESOURCE_KINDS,
    RelativePhaseSpec,
    SizeCapError,
    SweepSpec,
    beta_q,
    coherent_coefficients,
    fidelity,
    figure_dataset,
    filtered_input,
    find_beta_q_numeric,
    make_resource,
    make_resources,
    relative_phase_state,
    resource_for_kind,
    resources_for_kind,
    run_sweep,
)
from fockport.sweep import _worst_fidelity, stamp

PI = math.pi


class TestBetaGrid:
    def test_inclusive_count(self):
        grid = BetaGrid(math.radians(45.0), math.radians(90.0), math.radians(0.5))
        values = grid.values()
        assert len(values) == 91
        assert values[0] == pytest.approx(math.radians(45.0))
        assert values[-1] == pytest.approx(math.radians(90.0))

    def test_single_point(self):
        grid = BetaGrid(1.0, 1.0, 0.1)
        np.testing.assert_allclose(grid.values(), [1.0])

    def test_empty_when_reversed(self):
        assert len(BetaGrid(2.0, 1.0, 0.1).values()) == 0

    def test_largest_grid_is_a_hundredth_of_a_degree_over_half_a_turn(self):
        grid = BetaGrid(0.0, PI, math.radians(0.01))
        assert len(grid.values()) == MAX_GRID_POINTS

    @pytest.mark.parametrize("step", [math.radians(1e-7), 1e-300, 5e-324])
    def test_oversized_grid_is_refused(self, step):
        with pytest.raises(SizeCapError):
            BetaGrid(0.0, PI, step).values()


class TestSweepSpec:
    def good_spec(self, **overrides):
        base = dict(
            resource_kind="j0",
            N=10,
            beta_grid=BetaGrid(PI / 4, PI / 2),
            alpha=1.0,
            q_list=[9, 10],
            parity_correction=True,
        )
        base.update(overrides)
        return SweepSpec(**base)

    def test_valid_spec_passes(self):
        self.good_spec().validate()

    @pytest.mark.parametrize(
        "overrides, needle",
        [
            (dict(resource_kind="bogus"), "resource_kind"),
            (dict(N=0), "N"),
            (dict(N=11), "N"),  # j0 needs even N
            (dict(resource_kind="2pt", N=10), "N"),
            (dict(beta_grid=BetaGrid(1.0, 2.0, -0.1)), "beta_grid"),
            (dict(beta_grid=BetaGrid(2.0, 1.0, 0.1)), "beta_grid"),
            (dict(alpha=-1.0), "alpha"),
            (dict(q_list=[3, -1]), "q_list"),
            (dict(q_list=object()), "q_list"),
            (dict(beta_grid=BetaGrid(1.0, 2.0, math.nan)), "beta_grid"),
            (dict(beta_grid=BetaGrid(math.nan, 2.0, 0.1)), "beta_grid"),
            (dict(beta_grid=BetaGrid(1.0, math.inf, 0.1)), "beta_grid"),
        ],
    )
    def test_invalid_specs_name_the_field(self, overrides, needle):
        with pytest.raises(ValueError, match="invalid sweep spec") as err:
            self.good_spec(**overrides).validate()
        assert needle in str(err.value)

    def test_errors_aggregate(self):
        with pytest.raises(ValueError) as err:
            self.good_spec(resource_kind="bogus", alpha=-2.0).validate()
        message = str(err.value)
        assert "resource_kind" in message and "alpha" in message

    def test_echo_reports_degrees(self):
        echo = self.good_spec().echo()
        assert echo["beta_start_deg"] == pytest.approx(45.0)
        assert echo["beta_stop_deg"] == pytest.approx(90.0)
        assert echo["beta_step_deg"] == pytest.approx(0.5)
        assert echo["q_list"] == [9, 10]


class TestResourceForKind:
    def test_ideal_is_flat(self):
        resource = resource_for_kind("ideal", 6, 1.0)
        np.testing.assert_allclose(resource.s, np.full(7, 1 / math.sqrt(7)))

    def test_relative_phase_input_matches_direct_build(self):
        got = resource_for_kind("relative-phase-input", 8, 0.9)
        want = make_resource(relative_phase_state(RelativePhaseSpec(8, 0)), 0.9)
        np.testing.assert_allclose(got.s, want.s, atol=1e-15)

    @pytest.mark.parametrize("kind, level", [("j0", 0), ("2pt", 1), ("3pt", 2), ("4pt", 3)])
    def test_filtered_kinds(self, kind, level):
        N = 10 if level % 2 == 0 else 11
        got = resource_for_kind(kind, N, 1.1)
        want = make_resource(filtered_input(N, FilterOrder(level)), 1.1)
        np.testing.assert_allclose(got.s, want.s, atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            resource_for_kind("nope", 4, 1.0)
        with pytest.raises(DomainError):
            resources_for_kind("nope", 4, [])

    @pytest.mark.parametrize("kind, N", [("j0", 20), ("2pt", 21), ("3pt", 20), ("4pt", 21),
                                         ("relative-phase-input", 12), ("ideal", 6)])
    def test_grid_matches_one_angle_at_a_time(self, kind, N):
        betas = [0.0, 0.3, PI / 2, 2.0, PI]
        grid = resources_for_kind(kind, N, betas)
        assert len(grid) == len(betas)
        for resource, beta in zip(grid, betas):
            single = resource_for_kind(kind, N, beta)
            assert resource.s.tobytes() == single.s.tobytes()

    def test_make_resources_matches_make_resource(self):
        state = filtered_input(21, FilterOrder(3))
        betas = [0.2, 1.0, 1.4]
        for resource, beta in zip(make_resources(state, betas), betas):
            assert resource.s.tobytes() == make_resource(state, beta).s.tobytes()

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_non_finite_beta_is_domain_error(self, beta):
        with pytest.raises(DomainError, match="finite"):
            resources_for_kind("j0", 10, [0.5, beta])
        with pytest.raises(DomainError, match="finite"):
            make_resource(filtered_input(10, FilterOrder(0)), beta)

    def test_kind_registry(self):
        assert set(RESOURCE_KINDS) == {
            "j0", "2pt", "3pt", "4pt", "ideal", "relative-phase-input"
        }


class TestRunSweep:
    def small_spec(self, **overrides):
        base = dict(
            resource_kind="j0",
            N=10,
            beta_grid=BetaGrid(math.radians(80.0), math.radians(90.0), math.radians(2.5)),
            alpha=1.0,
            q_list=[9, 10, 11],
            parity_correction=True,
        )
        base.update(overrides)
        return SweepSpec(**base)

    def test_row_count_and_order(self):
        result = run_sweep(self.small_spec())
        assert len(result.rows) == 5 * 3
        degs = [row[0] for row in result.rows]
        assert degs == sorted(degs)
        assert [row[1] for row in result.rows[:3]] == [9, 10, 11]

    def test_all_outcomes_row_count(self):
        spec = self.small_spec(q_list="all")
        result = run_sweep(spec)
        # q runs over 0..N+k_max; alpha=1 truncates at k_max=14
        assert len(result.rows) == 5 * (10 + 14 + 1)

    def test_identical_rows_across_runs(self):
        spec = self.small_spec(q_list="all")
        first = run_sweep(spec)
        second = run_sweep(spec)
        assert first.rows == second.rows
        assert first.meta == second.meta

    def test_unreachable_rows_have_none_fidelity(self):
        spec = self.small_spec(alpha=0.0, q_list=[10, 11])
        result = run_sweep(spec)
        by_q = {(round(row[0], 3), row[1]): row for row in result.rows}
        unreachable = by_q[(80.0, 11)]
        assert unreachable[2] is None
        assert unreachable[4] == 0.0

    def test_rows_match_direct_evaluation(self):
        from fockport import coherent_coefficients, evaluate_outcome, quality

        spec = self.small_spec()
        result = run_sweep(spec)
        target = coherent_coefficients(1.0)
        beta = math.radians(82.5)
        resource = resource_for_kind("j0", 10, beta)
        rep = quality(resource)
        row = [r for r in result.rows if round(r[0], 3) == 82.5 and r[1] == 9][0]
        res = evaluate_outcome(target, resource, 9, True)
        assert row[2] == pytest.approx(res.fidelity, rel=1e-12)
        assert row[3] == pytest.approx(res.bound, rel=1e-12)
        assert row[4] == pytest.approx(res.probability, rel=1e-12)
        assert row[5] == pytest.approx(rep.min_modulus, rel=1e-12)
        assert row[6] == rep.zero_count
        assert row[8] == pytest.approx(rep.entropy, rel=1e-12)

    def test_invalid_spec_raises_before_work(self):
        with pytest.raises(ValueError):
            run_sweep(self.small_spec(N=9))

    def test_meta_carries_spec_echo(self):
        result = run_sweep(self.small_spec())
        assert result.meta["kind"] == "sweep"
        assert result.meta["spec"]["resource_kind"] == "j0"
        assert "version" in result.meta


class TestFindBetaQ:
    @pytest.mark.parametrize("N, expected_deg", [(10, 81.0), (20, 85.0), (40, 87.5)])
    def test_tracks_formula_within_one_step(self, N, expected_deg):
        found = math.degrees(find_beta_q_numeric(N))
        assert found == pytest.approx(expected_deg, abs=1e-9)
        assert abs(found - math.degrees(beta_q(N))) <= 0.5 + 1e-9

    def test_small_n_regression(self):
        # the flatness objective peaks above the formula angle at N=2
        assert math.degrees(find_beta_q_numeric(2)) == pytest.approx(54.5, abs=1e-9)

    def test_entropy_objective(self):
        found = math.degrees(find_beta_q_numeric(20, objective="entropy"))
        assert found == pytest.approx(84.5, abs=1e-9)

    def test_fidelity_objective(self):
        found = math.degrees(
            find_beta_q_numeric(10, objective="min_fidelity_target")
        )
        assert found == pytest.approx(79.5, abs=1e-9)

    def test_unknown_objective(self):
        with pytest.raises(DomainError):
            find_beta_q_numeric(10, objective="sharpness")

    @pytest.mark.parametrize("kind, N", [("j0", 20), ("2pt", 21), ("3pt", 40), ("4pt", 41),
                                         ("j0", 60), ("2pt", 61)])
    def test_fidelity_scores_equal_the_per_q_loop(self, kind, N):
        target = coherent_coefficients(1.0)
        qs = range(2, N + 1)  # the unit-alpha high-fidelity window
        for resource in resources_for_kind(kind, N, [0.3, 1.2, beta_q(N), PI / 2]):
            want = min(fidelity(target, resource, q, True) for q in qs)
            assert _worst_fidelity(target, resource, qs) == want

    def test_fidelity_score_refuses_an_impossible_outcome(self):
        target = coherent_coefficients(1.0)
        s = np.zeros(41)
        s[0] = 1.0  # P(q) = 0 for every q past the target's k_max
        with pytest.raises(ImpossibleOutcomeError, match=f"q = {target.k_max + 1} "):
            _worst_fidelity(target, QuasiEprResource(40, s), range(2, 41))

    @pytest.mark.parametrize("step, error", [(0.0, DomainError), (-0.1, DomainError),
                                             (math.nan, DomainError), (1e-9, SizeCapError)])
    def test_bad_step_is_refused(self, step, error):
        with pytest.raises(error):
            find_beta_q_numeric(10, step=step)

    def test_coarse_step_still_lands_near_formula(self):
        found = math.degrees(find_beta_q_numeric(20, step=math.radians(2.5)))
        assert abs(found - 85.5) <= 2.5 + 1e-9


class TestFigureDatasets:
    @pytest.mark.parametrize(
        "figure_id, columns, row_count",
        [
            (1, ("beta_deg", "n", "modulus"), 181 * 21),
            (2, ("beta_deg", "n", "modulus"), 181 * 21),
            (3, ("beta_deg", "n", "modulus", "phase"), 2 * 21),
            (5, ("beta_deg", "n", "modulus"), 181 * 22),
            (6, ("beta_deg", "q", "fidelity", "bound", "probability"), 91 * 59),
            (7, ("beta_deg", "q", "fidelity", "bound", "probability"), 91),
        ],
    )
    def test_shapes(self, figure_id, columns, row_count):
        result = figure_dataset(figure_id)
        assert result.columns == columns
        assert len(result.rows) == row_count
        assert result.meta["figure"] == figure_id

    def test_large_n_dataset_shape(self):
        result = figure_dataset(4)
        assert result.columns == ("N", "beta_deg", "n", "modulus")
        assert len(result.rows) == 201 + 2001 + 20001

    def test_balanced_moduli_match_resource(self):
        result = figure_dataset(3)
        balanced = [row for row in result.rows if row[0] == pytest.approx(90.0)]
        resource = resource_for_kind("j0", 20, PI / 2)
        for row in balanced:
            assert row[2] == pytest.approx(abs(resource.s[row[1]]), abs=1e-12)
            if row[1] % 2 == 0:
                assert row[3] == pytest.approx(PI, abs=1e-12)

    def test_peak_row_frozen_value(self):
        result = figure_dataset(7)
        peak = max(result.rows, key=lambda row: row[2])
        assert peak[0] == pytest.approx(85.5)
        assert peak[2] == pytest.approx(0.99270429402264, rel=1e-10)

    def test_unknown_figure(self):
        with pytest.raises(DomainError):
            figure_dataset(8)

    def test_stamp_adds_timestamp_copy(self):
        result = figure_dataset(3)
        stamped = stamp(result)
        assert "timestamp" in stamped.meta
        assert "timestamp" not in result.meta
        assert stamped.rows == result.rows
