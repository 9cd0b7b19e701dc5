"""Grid sweeps: determinism, row layout, angle search, figure datasets."""

import json
import math
import os
import tracemalloc

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
    evaluate_outcome,
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
from fockport import cli, sweep
from fockport.sweep import _worst_fidelities, stamp

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
            (dict(q_list=[2.5, True]), "q_list"),  # once run as q = 2 and q = 1
            (dict(q_list=[True]), "q_list"),
            (dict(q_list=[9.0]), "q_list"),
            (dict(q_list=["9"]), "q_list"),
            (dict(q_list="9"), "q_list"),
            (dict(parity_correction="no"), "parity_correction"),  # once ran with the correction
            (dict(parity_correction=1), "parity_correction"),
            (dict(parity_correction=None), "parity_correction"),
            (dict(resource_kind="2pt", N=True), "N: must be a positive integer"),
            (dict(q_list=(q for q in [9, 10])), "q_list"),  # once used up: a sweep of 0 rows
            (dict(q_list=np.array([9, 10])), "q_list"),  # once numpy's "truth value" error
            (dict(alpha="1"), "alpha"),  # once a TypeError from <
            (dict(alpha=True), "alpha"),
            (dict(alpha=math.nan), "alpha"),
            (dict(beta_grid=BetaGrid("1", 2.0, 0.1)), "beta_grid"),
            (dict(beta_grid=BetaGrid(1.0, 2.0, True)), "beta_grid"),
        ],
    )
    def test_invalid_specs_name_the_field(self, overrides, needle):
        with pytest.raises(ValueError, match="invalid sweep spec") as err:
            self.good_spec(**overrides).validate()
        assert needle in str(err.value)

    def test_numpy_integers_and_bools_pass(self):
        self.good_spec(N=np.int64(10), q_list=(np.int64(9), 10, np.uint8(3)),
                       parity_correction=np.bool_(False)).validate()
        self.good_spec(q_list=range(3, 12)).validate()
        self.good_spec(q_list=(9, 10)).validate()
        self.good_spec(q_list="all").validate()

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

    @pytest.mark.parametrize("kind, N", [("j0", 20), ("2pt", 21), ("3pt", 20), ("4pt", 21),
                                         ("relative-phase-input", 12), ("ideal", 6)])
    def test_grid_of_several_blocks_matches_one_angle_at_a_time(self, monkeypatch, kind, N):
        betas = [0.0, 0.3, 0.9, PI / 2, 2.0, 2.6, PI]
        monkeypatch.setattr(sweep, "LANE_BUDGET", 3 * (N + 1))
        assert [len(angles) for angles, _ in sweep._grid_blocks(kind, N, betas)] == [3, 3, 1]
        grid = resources_for_kind(kind, N, betas)
        assert [r.s.tobytes() for r in grid] == [
            resource_for_kind(kind, N, beta).s.tobytes() for beta in betas]

    @pytest.mark.parametrize("run", [lambda: figure_dataset(2),
                                     lambda: find_beta_q_numeric(20, "j0", "min_fidelity_target")])
    def test_rows_off_unit_norm_never_reach_a_table_or_score(self, monkeypatch, run):
        # the modulus rows and the fidelity scores read the block without building a resource
        rotated = sweep._rotated
        monkeypatch.setattr(sweep, "_rotated", lambda state, angles: 2 * rotated(state, angles))
        with pytest.raises(DomainError, match="^resource norm "):
            run()

    def test_make_resources_matches_make_resource(self):
        state = filtered_input(21, FilterOrder(3))
        betas = [0.2, 1.0, 1.4]
        for resource, beta in zip(make_resources(state, betas), betas):
            assert resource.s.tobytes() == make_resource(state, beta).s.tobytes()

    @pytest.mark.parametrize("beta", [math.nan, math.inf, "x"])
    def test_non_finite_beta_is_domain_error(self, beta):
        # the ideal resource does not depend on beta, but refuses a bad one like every kind
        for kind in ("j0", "ideal"):
            with pytest.raises(DomainError, match="beta must be finite"):
                resources_for_kind(kind, 10, [0.5, beta])
            with pytest.raises(DomainError, match="beta must be finite"):
                resource_for_kind(kind, 10, beta)
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


def _hex(value):
    return None if value is None else value.hex()


def _hex_rows(rows):
    return [[_hex(v) if isinstance(v, float) else v for v in row] for row in rows]


# every resource kind at an N its filter level allows
GRID_KINDS = [("j0", 20), ("2pt", 21), ("3pt", 40), ("4pt", 41), ("ideal", 12),
              ("relative-phase-input", 30)]


class TestGridPathMatchesPerAnglePath:
    """run_sweep evaluates a block of angles per q loop; each cell must keep its bits."""

    @staticmethod
    def assert_rows_match(spec):
        rows = run_sweep(spec).rows
        target = coherent_coefficients(spec.alpha)
        qs = (range(spec.N + target.k_max + 1) if spec.q_list == "all" else spec.q_list)
        betas = spec.beta_grid.values()
        assert len(rows) == len(betas) * len(qs)
        cells = iter(rows)
        for beta in betas:
            resource = resource_for_kind(spec.resource_kind, spec.N, beta)
            for q in qs:
                row = next(cells)
                want = evaluate_outcome(target, resource, q, spec.parity_correction)
                assert row[:2] == (math.degrees(beta), q)
                assert [_hex(v) for v in row[2:5]] == [
                    _hex(want.fidelity), _hex(want.bound), _hex(want.probability)], (beta, q)

    @pytest.mark.parametrize("parity", [False, True])
    @pytest.mark.parametrize("kind, N", GRID_KINDS)
    def test_all_q(self, kind, N, parity):
        grid = BetaGrid(math.radians(3.0), math.radians(177.0), math.radians(8.7))
        self.assert_rows_match(SweepSpec(kind, N, grid, alpha=2.5, q_list="all",
                                         parity_correction=parity))

    @pytest.mark.parametrize("parity", [False, True])
    @pytest.mark.parametrize("kind, N", GRID_KINDS)
    def test_q_list_past_the_support(self, kind, N, parity):
        # N + k_max at alpha = 1 is N + 14: the last two entries are unreachable
        grid = BetaGrid(math.radians(40.0), math.radians(90.0), math.radians(2.5))
        q_list = [N, 0, 3, 7, 7, N + 14, N + 15, 10 ** 6]
        self.assert_rows_match(SweepSpec(kind, N, grid, alpha=1.0, q_list=q_list,
                                         parity_correction=parity))

    def test_long_windows_past_the_pairwise_block(self):
        # numpy sums windows of more than 128 terms pairwise in blocks
        grid = BetaGrid(math.radians(85.0), math.radians(90.0), math.radians(0.5))
        self.assert_rows_match(SweepSpec("j0", 300, grid, alpha=6.0, q_list=list(range(0, 345, 7)),
                                         parity_correction=True))


class TestSmallBlocks:
    """A small LANE_BUDGET splits one grid into several blocks; nothing may change."""

    @pytest.mark.parametrize("parity", [False, True])
    @pytest.mark.parametrize("kind, N", GRID_KINDS)
    def test_sweep_rows_unchanged(self, monkeypatch, kind, N, parity):
        spec = SweepSpec(kind, N, BetaGrid(math.radians(45.0), math.radians(90.0),
                                           math.radians(1.5)), alpha=2.0, q_list="all",
                         parity_correction=parity)
        whole = run_sweep(spec).rows
        monkeypatch.setattr(sweep, "LANE_BUDGET", 7 * (N + 1) + 3)  # 31 angles: 7+7+7+7+3
        blocks = [angles for angles, _ in sweep._grid_blocks(kind, N, spec.beta_grid.values())]
        assert [len(angles) for angles in blocks] == [7, 7, 7, 7, 3]
        assert _hex_rows(run_sweep(spec).rows) == _hex_rows(whole)

    @pytest.mark.parametrize("kind, N", [("j0", 20), ("2pt", 21), ("3pt", 40), ("4pt", 41)])
    def test_fidelity_angle_unchanged(self, monkeypatch, kind, N):
        whole = find_beta_q_numeric(N, kind, "min_fidelity_target")
        monkeypatch.setattr(sweep, "LANE_BUDGET", 11 * (N + 1))
        assert find_beta_q_numeric(N, kind, "min_fidelity_target") == whole

    @pytest.mark.parametrize("order, bad_q", [((0, 1, 2), 15), ((0, 2, 1), 2)])
    def test_impossible_outcome_names_the_first_bad_row(self, order, bad_q):
        # P(q) = 0 past k_max = 14 for s = e_0 and below q = N for s = e_N; the first such row
        # in the stack is the one named
        target = coherent_coefficients(1.0)
        flat, first, last = np.full(41, 41 ** -0.5), np.zeros(41), np.zeros(41)
        first[0] = last[40] = 1.0
        stack = np.stack([(flat, first, last)[i] for i in order]).astype(complex)
        with pytest.raises(ImpossibleOutcomeError, match=f"q = {bad_q} "):
            _worst_fidelities(target, stack, range(2, 41))


@pytest.fixture
def resources_built(monkeypatch):
    """Every QuasiEprResource built while the test runs, by N."""
    built = []
    post_init = QuasiEprResource.__post_init__

    def spy(self):
        built.append(self.N)
        post_init(self)

    monkeypatch.setattr(QuasiEprResource, "__post_init__", spy)
    return built


class TestNoResourcePerRow:
    """Grid metrics read the rows of a block: no resource object per angle."""

    @pytest.mark.parametrize("kind, N", GRID_KINDS)
    def test_sweep(self, monkeypatch, resources_built, kind, N):
        monkeypatch.setattr(sweep, "LANE_BUDGET", 4 * (N + 1))  # several blocks
        spec = SweepSpec(kind, N, BetaGrid(0.0, PI, math.radians(15.0)), alpha=1.0)
        assert len(run_sweep(spec).rows) > 0
        # the ideal kind builds its one flat row once per grid
        assert resources_built == ([N] if kind == "ideal" else [])

    @pytest.mark.parametrize("objective", ["min_modulus", "entropy"])
    @pytest.mark.parametrize("kind, N", [("j0", 20), ("4pt", 21), ("relative-phase-input", 12)])
    def test_quality_search(self, resources_built, objective, kind, N):
        find_beta_q_numeric(N, kind, objective)
        assert resources_built == []

    @pytest.mark.parametrize("figure_id", [1, 2, 3, 4, 5, 6, 7])
    def test_figures(self, resources_built, figure_id):
        figure_dataset(figure_id)
        # figure 3's two phase rows are the only ones read through a resource
        assert resources_built == ([20, 20] if figure_id == 3 else [])


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
        resources = resources_for_kind(kind, N, [0.3, 1.2, beta_q(N), PI / 2])
        want = [min(fidelity(target, resource, q, True) for q in qs) for resource in resources]
        assert _worst_fidelities(target, np.stack([r.s for r in resources]), qs) == want

    def test_fidelity_score_refuses_an_impossible_outcome(self):
        target = coherent_coefficients(1.0)
        s = np.zeros(41)
        s[0] = 1.0  # P(q) = 0 for every q past the target's k_max
        with pytest.raises(ImpossibleOutcomeError, match=f"q = {target.k_max + 1} "):
            _worst_fidelities(target, QuasiEprResource(40, s).s[None], range(2, 41))

    @pytest.mark.parametrize("step, error", [(0.0, DomainError), (-0.1, DomainError),
                                             (math.nan, DomainError), (1e-9, SizeCapError),
                                             (2.0, DomainError), (4.0, DomainError)])
    def test_bad_step_is_refused(self, step, error):
        with pytest.raises(error):
            find_beta_q_numeric(10, step=step)

    @pytest.mark.parametrize("step, message", [
        (0.0, "step must be > 0, got 0.0"), (-0.1, "step must be > 0, got -0.1"),
        (math.nan, "step must be finite, got nan"),
        (1e-9, "beta grid exceeds 18001 points"),
        (2.0, r"step = 2.0 leaves no angle in \(0, pi/2\]")])
    def test_bad_step_names_the_fault(self, step, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            find_beta_q_numeric(10, step=step)

    @pytest.mark.parametrize("N, kind", [(10.5, "j0"), (math.nan, "j0"), ("10", "j0"), (0, "j0"),
                                         (-4, "j0"), (10, "ideal")])
    def test_bad_n_or_flat_kind_is_refused(self, N, kind):
        # every angle would tie, and the first grid angle would pass for an optimum
        with pytest.raises(DomainError):
            find_beta_q_numeric(N, resource_kind=kind)

    def test_coarse_step_stays_inside_quarter_turn(self):
        # (pi/2) / 1.0 rounds up to two points, but only one lies in (0, pi/2]
        assert find_beta_q_numeric(10, step=1.0) == 1.0

    def test_fidelity_objective_needs_a_window(self):
        with pytest.raises(DomainError, match="no high-fidelity window at N = 1"):
            find_beta_q_numeric(1, objective="min_fidelity_target")

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


def _streamed_rows(monkeypatch, argv):
    """The rows that cli.main(argv) hands its CSV writer, as the writer reads them."""
    rows = []
    monkeypatch.setattr(cli, "write_csv", lambda stream, columns, table, precision:
                        rows.extend(table))
    assert cli.main(argv) == 0
    return rows


def _spec(path, **raw):
    """(the argv of a sweep of the spec file holding raw, the SweepSpec the CLI reads from it)."""
    path.write_text(json.dumps(raw))
    return ["sweep", "--spec-file", str(path)], cli._spec_from_mapping(raw)


class TestStreamedRows:
    """The CLI computes sweep and figure rows as it writes them; the library lists the same."""

    @pytest.mark.parametrize("figure_id", range(1, 8))
    def test_figure_rows(self, monkeypatch, figure_id):
        streamed = _streamed_rows(monkeypatch, ["figure", "--id", str(figure_id)])
        assert _hex_rows(streamed) == _hex_rows(figure_dataset(figure_id).rows)

    @pytest.mark.parametrize("kind, N", GRID_KINDS)
    @pytest.mark.parametrize("q_list, parity", [("all", False), ([0, 7, 3, 60], True)])
    def test_sweep_rows_over_several_blocks(self, monkeypatch, tmp_path, kind, N, q_list,
                                            parity):
        monkeypatch.setattr(sweep, "LANE_BUDGET", 4 * (N + 1))  # 17 angles: 4+4+4+4+1
        argv, spec = _spec(tmp_path / "spec.json", resource_kind=kind, n=N, beta_start_deg=10,
                           beta_stop_deg=90, beta_step_deg=5, alpha=1.5, q_list=q_list,
                           parity_correction=parity)
        assert _hex_rows(_streamed_rows(monkeypatch, argv)) == _hex_rows(run_sweep(spec).rows)

    def test_traced_peak_does_not_grow_with_blocks(self, monkeypatch, tmp_path):
        # blocks of 100 angles at N = 200 (652 by default; traced runs are ~15x slower)
        # and 215 outcomes.  Measured traced peaks: 2.76 MB at 101 angles (one full block)
        # and 3.05 MB at 201 (two; the rest is the writer's part-filled block of rows); 4.32
        # MB at 201 when a block's outcomes live on while the next is computed; 4.26 and
        # 7.90 MB when the table is built whole before it is written
        monkeypatch.setattr(sweep, "LANE_BUDGET", 100 * 201)

        def argv(angles):
            return _spec(tmp_path / f"{angles}.json", resource_kind="j0", n=200,
                         beta_start_deg=0, beta_stop_deg=0.05 * (angles - 1),
                         beta_step_deg=0.05, alpha=1)[0] + ["--output", os.devnull]

        assert cli.main(argv(101)) == 0  # untraced: fills what a first run caches
        peaks = []
        for angles in (101, 201):
            tracemalloc.start()
            try:
                assert cli.main(argv(angles)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.3 * peaks[0], peaks


@pytest.mark.parametrize("call, error", [
    (lambda: run_sweep(SweepSpec("j0", 10, BetaGrid(0.1, 0.2, 0.1), 1.0, [0.5] * 100000)),
     ValueError),
    (lambda: run_sweep(SweepSpec("x" * 100000, [3] * 100000, BetaGrid(0.1, 0.2, 0.1), 1.0,
                                 "all", "y" * 100000)), ValueError),
    (lambda: resources_for_kind("z" * 100000, 10, [0.1]), DomainError),
    (lambda: find_beta_q_numeric(10, "j0", "y" * 100000), DomainError),
], ids=["q_list", "kind-N-parity", "kind", "objective"])
def test_refusals_of_long_values_are_short(call, error):
    with pytest.raises(error) as info:
        call()
    assert len(str(info.value)) <= 300, str(info.value)[:400]
