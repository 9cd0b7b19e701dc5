"""Property test of the library boundary: every numeric argument of fockport.__all__.

Each public name that takes a number is called with one numeric argument
replaced by a drawn value and every other argument valid.  The draws are
ints, huge ints, floats with NaN and infinities, bools, None, strings and
numpy scalars.  A call must end in a finite result or a DomainError; a sweep
spec may also be refused by its ValueError("invalid sweep spec: ...").  A
bool, None, a string or a non-finite float is always refused, and so is a
non-integer where a count is needed.  Draws are derandomized so that every
run sees the same cases, and every argument also meets every edge value of
the draws in a plain grid.  Photon numbers near or beyond the cap run in a
child process under an address-space limit.  Each array field of a public
record is given a table of bad arrays, each refused by the field's name.
"""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fockport
from fockport import (MAX_TWICE_J, BeamSplitterAngle, BetaGrid, BobState, CoherentTarget,
                      DomainError, FilterOrder, GeneralPhaseSpec, MeasurementOutcome,
                      QuasiEprResource, RelativePhaseSpec, SingleModeState, SpinJ,
                      SpinProjection, SpinState, SweepSpec, TwoModeIndex, WignerColumn, basis_state,
                      beta_q, brute_force_rotation, coherent_coefficients, evaluate_outcome,
                      f_coefficient, fidelity, fidelity_bound, figure_dataset,
                      filtered_input, find_beta_q_numeric, general_phase_state,
                      high_fidelity_region, ideal_resource, make_resource, make_resources,
                      outcome_probability, parity_phase_correction, phase_distribution,
                      phase_shift, post_measurement_state, reconstruct,
                      relative_phase_state, resource_for_kind, resources_for_kind,
                      rotate_about_x, rotate_about_x_grid, run_sweep, wigner_d_column,
                      wigner_d_element)

J4, M0 = SpinJ(4), SpinProjection(0)
STATE = basis_state(J4, M0)
TARGET = coherent_coefficients(1.0)
RESOURCE = ideal_resource(6)
OUTCOME = MeasurementOutcome(3, 1)
BOB = post_measurement_state(TARGET, RESOURCE, OUTCOME)
VACUUM = SingleModeState(np.array([1.0, 0.0]))
GRID = BetaGrid(1.0, 1.1, 0.1)


def central_element(twice_j):
    """d^j_{mm}(0.7) at the central m, where the terms of the finite sum are largest."""
    j = SpinJ(twice_j)
    m = SpinProjection(j.twice_j % 2)
    return wigner_d_element(j, m, m, 0.7)


def sweep(**fields):
    spec = dict(resource_kind="j0", N=10, beta_grid=GRID, alpha=1.0, q_list=[9])
    spec.update(fields)
    return run_sweep(SweepSpec(**spec))


# public name -> argument -> (kind, call with that argument replaced).  "count"
# arguments take integers only, "real" ones finite reals, "real?" also None.
CALLS = {
    "SpinJ": {"twice_j": ("count", SpinJ)},
    "SpinProjection": {"twice_m": ("count", SpinProjection)},
    "WignerColumn": {"beta": ("real", lambda x: WignerColumn(J4, M0, x, np.zeros(5)))},
    "BeamSplitterAngle": {"beta": ("real", BeamSplitterAngle),
                          "reflectivity": ("real", BeamSplitterAngle.from_reflectivity)},
    "wigner_d_element": {"j": ("count", central_element),
                         "beta": ("real", lambda x: wigner_d_element(J4, M0, M0, x))},
    "wigner_d_column": {"beta": ("real", lambda x: wigner_d_column(J4, M0, x))},
    "brute_force_rotation": {"beta": ("real", lambda x: brute_force_rotation(J4, x))},
    "rotate_about_x": {"beta": ("real", lambda x: rotate_about_x(STATE, x))},
    "rotate_about_x_grid": {"betas": ("real", lambda x: rotate_about_x_grid(STATE, [0.3, x]))},
    "phase_shift": {"theta": ("real", lambda x: phase_shift(STATE, x))},
    "TwoModeIndex": {"n_a": ("count", lambda x: TwoModeIndex(x, 2)),
                     "n_b": ("count", lambda x: TwoModeIndex(2, x))},
    "RelativePhaseSpec": {
        "N": ("count", lambda x: relative_phase_state(RelativePhaseSpec(x, 0))),
        "r": ("count", lambda x: relative_phase_state(RelativePhaseSpec(64, x))),
        "phi0": ("real", lambda x: relative_phase_state(RelativePhaseSpec(4, 1, x)))},
    "GeneralPhaseSpec": {
        "N": ("count", lambda x: general_phase_state(GeneralPhaseSpec(x, (0.0,) * 5))),
        "thetas": ("real", lambda x: general_phase_state(GeneralPhaseSpec(2, (0.1, x, 0.2))))},
    "CoherentTarget": {"alpha": ("real", lambda x: CoherentTarget(x, 0, [1.0])),
                       "k_max": ("count", lambda x: CoherentTarget(1.0, x, [1.0])),
                       "coefficient": ("count", TARGET.coefficient)},
    "coherent_coefficients": {"alpha": ("real", coherent_coefficients),
                              "tail_tol": ("real", lambda x: coherent_coefficients(1.0, x))},
    "FilterOrder": {"twice_level": ("count", FilterOrder)},
    "QuasiEprResource": {"N": ("count", lambda x: QuasiEprResource(x, np.array([1.0, 0.0])))},
    "f_coefficient": {"beta": ("real", lambda x: f_coefficient(J4, M0, x)),
                      "phi0": ("real", lambda x: f_coefficient(J4, M0, 1.0, x))},
    "filtered_input": {"N": ("count", lambda x: filtered_input(x, FilterOrder(0)))},
    "beta_q": {"N": ("count", beta_q)},
    "make_resource": {"beta": ("real", lambda x: make_resource(STATE, x))},
    "make_resources": {"betas": ("real", lambda x: make_resources(STATE, [x]))},
    "ideal_resource": {"N": ("count", ideal_resource)},
    "phase_distribution": {"zero_tol": ("real", lambda x: phase_distribution(RESOURCE, x))},
    "MeasurementOutcome": {
        "q": ("count", lambda x: post_measurement_state(TARGET, RESOURCE,
                                                        MeasurementOutcome(x, 0))),
        "s_index": ("count", lambda x: MeasurementOutcome(64, x).phase),
        "phi0": ("real", lambda x: post_measurement_state(TARGET, RESOURCE,
                                                          MeasurementOutcome(3, 0, x)))},
    "BobState": {"N": ("count", lambda x: BobState(x, 0, [1.0])),
                 "q": ("count", lambda x: BobState(0, x, [1.0]))},
    "post_measurement_state": {"measurement_phase": (
        "real?", lambda x: post_measurement_state(TARGET, RESOURCE, OUTCOME, x))},
    "reconstruct": {"resource_phase_offset": ("real", lambda x: reconstruct(BOB, x, OUTCOME)),
                    "measurement_phase": ("real?", lambda x: reconstruct(BOB, 0.0, OUTCOME, x))},
    "parity_phase_correction": {"q": ("count", lambda x: parity_phase_correction(VACUUM, x))},
    "fidelity": {"q": ("count", lambda x: fidelity(TARGET, RESOURCE, x))},
    "fidelity_bound": {"q": ("count", lambda x: fidelity_bound(TARGET, x, 6)),
                       "N": ("count", lambda x: fidelity_bound(TARGET, 3, x))},
    "outcome_probability": {"q": ("count", lambda x: outcome_probability(TARGET, RESOURCE, x))},
    "high_fidelity_region": {"alpha": ("real", lambda x: high_fidelity_region(x, 20)),
                             "N": ("count", lambda x: high_fidelity_region(1.0, x))},
    "evaluate_outcome": {"q": ("count", lambda x: evaluate_outcome(TARGET, RESOURCE, x))},
    "BetaGrid": {"start": ("real", lambda x: BetaGrid(x, 1.0, 0.1).values()),
                 "stop": ("real", lambda x: BetaGrid(0.5, x, 0.1).values()),
                 "step": ("real", lambda x: BetaGrid(0.5, 1.0, x).values())},
    "SweepSpec": {"N": ("count", lambda x: sweep(resource_kind="ideal", N=x)),
                  "alpha": ("real", lambda x: sweep(alpha=x)),
                  "q_list": ("count", lambda x: sweep(resource_kind="ideal", q_list=[x]))},
    "find_beta_q_numeric": {"N": ("count", lambda x: find_beta_q_numeric(x, step=0.2)),
                            "step": ("real", lambda x: find_beta_q_numeric(4, step=x))},
    "resource_for_kind": {"N": ("count", lambda x: resource_for_kind("j0", x, 1.0)),
                          "beta": ("real", lambda x: resource_for_kind("j0", 4, x)),
                          "beta-ideal": ("real", lambda x: resource_for_kind("ideal", 4, x))},
    "resources_for_kind": {
        "N": ("count", lambda x: resources_for_kind("relative-phase-input", x, [1.0])),
        "betas": ("real", lambda x: resources_for_kind("2pt", 5, [x])),
        "betas-ideal": ("real", lambda x: resources_for_kind("ideal", 4, [0.3, x]))},
    "figure_dataset": {"figure_id": ("count", figure_dataset)},
}

# public names with no numeric argument of their own: constants, exception
# types, result records, and functions of states, resources and flags only
NO_NUMBERS = {
    "__version__", "DomainError", "ImpossibleOutcomeError", "SizeCapError", "MAX_TWICE_J",
    "MAX_GRID_POINTS", "RESOURCE_KINDS", "SpinState", "SingleModeState", "basis_state",
    "two_mode_to_spin", "spin_to_two_mode", "relative_phase_state", "general_phase_state",
    "EprQualityReport", "TeleportOutcome", "SweepResult", "resource_from_state", "quality",
    "average_fidelity", "evaluate_all", "run_sweep",
}

assert set(fockport.__all__) == set(CALLS) | NO_NUMBERS and not set(CALLS) & NO_NUMBERS, \
    "every public name is in CALLS or in NO_NUMBERS"
SLOTS = sorted((name, arg) for name, args in CALLS.items() for arg in args)

HUGE = [MAX_TWICE_J + 1, 10 ** 12, -10 ** 12, 10 ** 400, -10 ** 400]
NUMPY = [np.int64(3), np.uint8(3), np.uint8(255), np.int32(-1), np.uint64(2 ** 64 - 1),
         np.float64(2.5), np.float64(math.nan), np.float32(math.inf),
         np.bool_(True), np.bool_(False)]
NUMBERS = st.one_of(
    st.integers(-3, 64),
    st.sampled_from(HUGE),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.sampled_from(NUMPY),
)


def finite(value) -> bool:
    """True if every number inside value (arrays, records, rows) is finite."""
    if isinstance(value, (float, complex, np.number)) and not isinstance(value, np.integer):
        return bool(np.isfinite(value))
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return all(map(finite, value))
    return True


def must_refuse(kind: str, value) -> bool:
    """Whether the boundary rule refuses value outright for an argument of this kind."""
    if value is None:
        return kind != "real?"
    if isinstance(value, (bool, np.bool_, str)):
        return True
    if isinstance(value, (float, np.floating)):
        return kind == "count" or not math.isfinite(value)
    return False


def check(name: str, arg: str, value) -> None:
    kind, call = CALLS[name][arg]
    label = f"{name}({arg}={value!r})"
    try:
        result = call(value)
    except DomainError:
        return
    except ValueError as exc:
        if name == "SweepSpec" and str(exc).startswith("invalid sweep spec: "):
            return
        raise AssertionError(f"{label} raised {exc!r}") from exc
    assert not must_refuse(kind, value), f"{label} was accepted: {result!r:.200}"
    assert finite(result), f"{label} returned a non-finite result: {result!r:.200}"


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(slot=st.sampled_from(SLOTS), value=NUMBERS)
# every case below once ended in something other than a refusal or a finite result
@example(slot=("SpinJ", "twice_j"), value=True)  # j = 1/2
@example(slot=("beta_q", "N"), value=True)  # 0.0
@example(slot=("beta_q", "N"), value=2.5)
@example(slot=("QuasiEprResource", "N"), value=True)
@example(slot=("MeasurementOutcome", "q"), value=np.uint8(3))  # q - N wrapped
@example(slot=("MeasurementOutcome", "q"), value=2.5)
@example(slot=("MeasurementOutcome", "q"), value=True)
@example(slot=("MeasurementOutcome", "s_index"), value=1.5)
@example(slot=("MeasurementOutcome", "phi0"), value=math.inf)
@example(slot=("phase_shift", "theta"), value=math.inf)
@example(slot=("coherent_coefficients", "alpha"), value="1")
@example(slot=("RelativePhaseSpec", "phi0"), value=math.inf)
@example(slot=("BetaGrid", "step"), value=math.inf)
@example(slot=("CoherentTarget", "coefficient"), value=2.5)
@example(slot=("parity_phase_correction", "q"), value=2.5)
@example(slot=("FilterOrder", "twice_level"), value=True)
@example(slot=("figure_dataset", "figure_id"), value=True)  # figure 1
@example(slot=("wigner_d_element", "j"), value=522)  # OverflowError in the sum
@example(slot=("wigner_d_element", "j"), value=2001)
@example(slot=("SweepSpec", "alpha"), value="1")
@example(slot=("SweepSpec", "alpha"), value=True)
@example(slot=("SweepSpec", "N"), value=np.uint8(255))  # N + k_max wrapped
@example(slot=("high_fidelity_region", "alpha"), value=1e200)  # OverflowError from ceil(inf)
@example(slot=("BeamSplitterAngle", "beta"), value=np.float32(1.5))
@example(slot=("BeamSplitterAngle", "beta"), value=np.float32(math.inf))
@example(slot=("resource_for_kind", "beta-ideal"), value="x")  # the flat rows ignored the angle
@example(slot=("resources_for_kind", "betas-ideal"), value=math.nan)
@example(slot=("beta_q", "N"), value=10 ** 400)  # OverflowError: an int beyond the float range
@example(slot=("high_fidelity_region", "N"), value=10 ** 400)
@example(slot=("MeasurementOutcome", "q"), value=10 ** 400)  # as the index that phi0 multiplies
def test_numeric_arguments_are_refused_or_give_finite_results(slot, value):
    check(*slot, value)


@pytest.mark.parametrize("call, name", [
    (lambda: RelativePhaseSpec(4, 0, phi0=math.inf), "phi0"),  # once a RuntimeWarning
    (lambda: BetaGrid(0.1, 1, math.inf).values(), "step"),  # once a RuntimeWarning
    (lambda: TARGET.coefficient(2.5), "k"),  # once an IndexError
    (lambda: parity_phase_correction(VACUUM, 2.5), "q"),
    (lambda: FilterOrder(True), "twice_level"),
    (lambda: figure_dataset(True), "figure_id"),  # once figure 1
    (lambda: SpinJ(True), "twice_j"),  # once j = 1/2
    (lambda: beta_q(2.5), "N"),
    (lambda: phase_shift(STATE, -math.inf), "theta"),
    (lambda: coherent_coefficients("1"), "alpha"),  # once a TypeError
    # a finite phase whose product with the largest index overflows: once numpy's RuntimeWarning
    (lambda: phase_shift(STATE, 1e308), "theta"),  # |m| <= j = 2
    (lambda: relative_phase_state(RelativePhaseSpec(4, 1, 1e308)), "phi0"),
    (lambda: f_coefficient(J4, M0, phi0=1e308), "phi0"),
    (lambda: post_measurement_state(TARGET, RESOURCE, MeasurementOutcome(3, 0, 1e308)), "phi0"),
    (lambda: post_measurement_state(TARGET, RESOURCE, OUTCOME, -1e308), "measurement_phase"),
    (lambda: reconstruct(BOB, 1e308, OUTCOME), r"measurement_phase \+ resource_phase_offset"),
    (lambda: brute_force_rotation(J4, 1e308), "beta"),  # the eigenvalues of J_x reach j = 2
], ids=["phi0", "step", "k", "q", "twice_level", "figure_id", "twice_j", "N", "theta", "alpha",
        "theta-overflow", "phi0-relative-phase-overflow", "phi0-f-overflow",
        "phi0-outcome-overflow", "measurement_phase-overflow", "offset-overflow",
        "beta-brute-force-overflow"])
def test_refusals_name_the_argument(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be "):
        call()


@pytest.mark.parametrize("call", [
    lambda: phase_shift(STATE, 8.9e307).amplitudes,
    lambda: relative_phase_state(RelativePhaseSpec(4, 1, -4.4e307)).amplitudes,
    lambda: f_coefficient(J4, M0, phi0=8.9e307),
    lambda: post_measurement_state(TARGET, RESOURCE, MeasurementOutcome(3, 0, 5.9e307)).amplitudes,
    lambda: reconstruct(BOB, 5.9e307, OUTCOME).amplitudes,
    lambda: brute_force_rotation(J4, 8.9e307),
], ids=["theta", "phi0-relative-phase", "phi0-f", "phi0-outcome", "offset", "beta-brute-force"])
def test_phases_whose_products_stay_finite_are_accepted(call):
    # phase x largest index is just below the float range: refusing it would be too strict
    assert np.isfinite(call()).all()


# Every array field of a public record: field -> (name that starts its refusals, build with
# that array, a valid array, tags).  The tags say which checks apply: "real" (else complex),
# "unit" norm (else only finite: WignerColumn takes np.zeros(5) in CALLS), "fixed" length.
FIELDS = {
    "SpinState.amplitudes": ("amplitudes of the state", lambda a: SpinState(J4, a),
                             STATE.amplitudes, {"unit", "fixed"}),
    "WignerColumn.values": ("values of the column", lambda a: WignerColumn(J4, M0, 0.7, a),
                            wigner_d_column(J4, M0, 0.7).values, {"real", "fixed"}),
    "QuasiEprResource.s": ("resource s", lambda a: QuasiEprResource(6, a), RESOURCE.s,
                           {"unit", "fixed"}),
    "CoherentTarget.coeffs": ("coeffs of the target",
                              lambda a: CoherentTarget(1.0, TARGET.k_max, a), TARGET.coeffs,
                              {"real", "unit", "fixed"}),
    "BobState.amplitudes": ("amplitudes of BobState", lambda a: BobState(BOB.N, BOB.q, a),
                            BOB.amplitudes, {"unit", "fixed"}),
    "SingleModeState.amplitudes": ("amplitudes of the state", SingleModeState,
                                   VACUUM.amplitudes, {"unit"}),
}


def with_entry(v, i, x):
    """A copy of v with entry i set to x."""
    w = np.array(v)
    w[i] = x
    return w


# bad value -> (build it from a valid array, the tag a field needs for it to be bad, if any)
BAD_ARRAYS = {
    "nan-entry": (lambda v: with_entry(v, 0, math.nan), None),
    "inf-entry": (lambda v: with_entry(v, -1, -math.inf), None),
    "empty": (lambda v: v[:0], None),
    "longer": (lambda v: np.append(v, 0.0), "fixed"),
    "2-d": (lambda v: v[np.newaxis], None),
    "2-d-list": (lambda v: [[x] for x in v.tolist()], None),
    "0-d": (lambda v: v[0], None),
    "string": (lambda v: "ab", None),
    "numbers-as-text": (lambda v: v.astype(str), None),
    "bools": (lambda v: v != 0, None),
    "dict": (lambda v: {}, None),
    "ragged": (lambda v: [v[:1].tolist(), v.tolist()], None),
    "integer-beyond-float": (lambda v: [10 ** 400] * len(v), None),
    "complex": (lambda v: v * np.exp(0.3j), "real"),
    "complex-list": (lambda v: [v[0] * 1j] + v[1:].tolist(), "real"),
    "off-norm": (lambda v: v * 1.5, "unit"),
}


@pytest.mark.parametrize("field, bad", [
    (field, bad) for field, (_, _, _, tags) in FIELDS.items()
    for bad, (_, needs) in BAD_ARRAYS.items() if needs is None or needs in tags])
def test_array_fields_refuse_bad_arrays_by_name(field, bad):
    name, build, valid, _ = FIELDS[field]
    with pytest.raises(DomainError, match=f"^{name} "):
        build(BAD_ARRAYS[bad][0](valid))


@pytest.mark.parametrize("field", FIELDS)
def test_array_fields_accept_valid_arrays(field):
    _, build, valid, tags = FIELDS[field]
    # an array, a list, a strided view and a list of ints; a column need not have unit norm
    values = [valid, valid.tolist(), np.repeat(valid, 2)[::2], [0] * (len(valid) - 1) + [1]]
    values += [] if "unit" in tags else [np.zeros(len(valid)), 1.5 * valid]
    for value in values:
        stored = getattr(build(value), field.split(".")[1])
        assert stored.dtype == (float if "real" in tags else complex)
        assert stored.shape == valid.shape
        np.testing.assert_array_equal(stored, value)


@pytest.mark.parametrize("call, name", [
    (lambda: MeasurementOutcome(10 ** 400, 0), "phi0"),  # once printed all 401 digits of q
    (lambda: MeasurementOutcome(10 ** 5000, 0), "phi0"),  # once a ValueError: too long to print
    (lambda: coherent_coefficients(-10 ** 5000), "alpha"),
], ids=["index-10**400", "index-10**5000", "value--10**5000"])
def test_refusals_of_integers_beyond_the_float_range_are_short(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be finite") as info:
        call()
    assert len(str(info.value)) <= 100, str(info.value)[:200]


@pytest.mark.parametrize("call, name", [
    (lambda: coherent_coefficients([0.0] * 100000), "alpha"),  # once 500,043 characters
    (lambda: coherent_coefficients("x" * 100000), "alpha"),  # once 100,045
    (lambda: MeasurementOutcome([0] * 100000, 0), "q"),
    (lambda: MeasurementOutcome(3, 0, [[0.0] * 1000] * 1000), "phi0"),
], ids=["list", "string", "count-list", "nested-list"])
def test_refusals_of_long_values_are_short(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be") as info:
        call()
    assert len(str(info.value)) <= 300, str(info.value)[:400]


# Every slot meets every edge value of NUMBERS, whatever the draws above pair.
# Integers beyond the photon-number cap run in the capped child below.
EDGES = HUGE + NUMPY + [math.nan, math.inf, -math.inf, True, None, "x"]


def beyond_cap(value) -> bool:
    return isinstance(value, (int, np.integer)) and abs(int(value)) > MAX_TWICE_J


@pytest.mark.parametrize("value", [v for v in EDGES if not beyond_cap(v)], ids=repr)
@pytest.mark.parametrize("slot", SLOTS, ids="-".join)
def test_every_slot_meets_every_edge_value(slot, value):
    check(*slot, value)


# Photon numbers at and just past the cap for every argument that sizes an
# allocation, and every slot with each edge value beyond the cap.  They run
# in a child process whose address space is capped, so that a missed check
# fails with numpy's memory error instead of allocating gigabytes here.
ALLOCATING = [("SpinJ", "twice_j"), ("ideal_resource", "N"), ("RelativePhaseSpec", "N"),
              ("filtered_input", "N"), ("TwoModeIndex", "n_a"), ("wigner_d_element", "j")]
NEAR_CAP = [(name, arg, n) for name, arg in ALLOCATING
            for n in (MAX_TWICE_J, MAX_TWICE_J + 1, 2 * MAX_TWICE_J)]
EDGES_BEYOND_CAP = [(name, arg, v) for name, arg in SLOTS for v in EDGES if beyond_cap(v)]

_CHILD = """
import resource, sys, warnings
warnings.simplefilter("error", RuntimeWarning)
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.path.insert(0, sys.argv[2])
import test_boundary
for name, arg, value in getattr(test_boundary, sys.argv[1]):
    test_boundary.check(name, arg, value)
print("ok")
"""


def check_capped(cases: str) -> None:
    """Run check over the cases, a list named in this module, in the capped child."""
    src = os.path.dirname(os.path.dirname(fockport.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, cases, os.path.dirname(__file__)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["ok"], proc.stderr[-2000:]


def test_photon_numbers_near_the_cap():
    check_capped("NEAR_CAP")


def test_every_slot_meets_every_edge_value_beyond_the_cap():
    check_capped("EDGES_BEYOND_CAP")
