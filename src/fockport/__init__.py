"""fockport: beam-splitter entangled Fock states and number-phase teleportation.

Builds two-mode photon-number states in the equivalent spin picture,
rotates them through beam splitters with a Wigner-d kernel (tested bit for
bit against a reference recurrence at twice_j = 100000; MAX_TWICE_J is
1,000,000), quantifies how close the outputs come to ideal EPR-like flat
states, and evaluates conditional teleportation fidelity.
"""

from ._version import __version__
from .errors import DomainError, ImpossibleOutcomeError, SizeCapError
from .su2 import (MAX_TWICE_J, BeamSplitterAngle, SpinJ, SpinProjection, SpinState,
                  WignerColumn, basis_state, brute_force_rotation, phase_shift,
                  rotate_about_x, rotate_about_x_grid, wigner_d_column,
                  wigner_d_element)
from .states import (CoherentTarget, GeneralPhaseSpec, RelativePhaseSpec,
                     TwoModeIndex, coherent_coefficients, general_phase_state,
                     relative_phase_state, spin_to_two_mode, two_mode_to_spin)
from .quasi_epr import (EprQualityReport, FilterOrder, QuasiEprResource,
                        beta_q, f_coefficient, filtered_input, ideal_resource,
                        make_resource, make_resources, phase_distribution,
                        quality, resource_from_state)
from .teleport import (BobState, MeasurementOutcome, SingleModeState,
                       TeleportOutcome, average_fidelity, evaluate_all,
                       evaluate_outcome, fidelity, fidelity_bound,
                       high_fidelity_region, outcome_probability,
                       parity_phase_correction, post_measurement_state, reconstruct)
from .sweep import (MAX_GRID_POINTS, RESOURCE_KINDS, BetaGrid, SweepResult,
                    SweepSpec, figure_dataset, find_beta_q_numeric,
                    resource_for_kind, resources_for_kind, run_sweep)

__all__ = [
    "__version__",
    "DomainError", "ImpossibleOutcomeError", "SizeCapError",
    "MAX_TWICE_J", "SpinJ", "SpinProjection", "SpinState", "WignerColumn", "BeamSplitterAngle",
    "basis_state", "wigner_d_element", "wigner_d_column", "brute_force_rotation",
    "rotate_about_x", "rotate_about_x_grid", "phase_shift",
    "TwoModeIndex", "two_mode_to_spin", "spin_to_two_mode",
    "RelativePhaseSpec", "relative_phase_state",
    "GeneralPhaseSpec", "general_phase_state",
    "CoherentTarget", "coherent_coefficients",
    "FilterOrder", "QuasiEprResource", "EprQualityReport",
    "f_coefficient", "filtered_input", "beta_q", "make_resource", "make_resources",
    "ideal_resource", "resource_from_state", "quality", "phase_distribution",
    "MeasurementOutcome", "BobState", "SingleModeState", "TeleportOutcome",
    "post_measurement_state", "reconstruct", "parity_phase_correction",
    "fidelity", "fidelity_bound", "outcome_probability", "average_fidelity",
    "high_fidelity_region", "evaluate_outcome", "evaluate_all",
    "MAX_GRID_POINTS", "RESOURCE_KINDS", "BetaGrid", "SweepSpec", "SweepResult",
    "run_sweep", "find_beta_q_numeric", "resource_for_kind", "resources_for_kind",
    "figure_dataset",
]
