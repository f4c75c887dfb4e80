"""Exterior-algebra kernel for SU(3) structures on R^6 and a numerical
verification suite for the nearly Kahler six-sphere."""

from su3forms.forms import (
    EXACT,
    FLOAT,
    AlgebraError,
    DecompositionError,
    DegreeError,
    Form,
    ModeError,
    contract,
    evaluate,
    hodge_star,
    inner,
    wedge,
)
from su3forms.structure import (
    Endo,
    alpha_map,
    complex_structure,
    decompose_anti_endo,
    decompose_three_form,
    decompose_two_form,
    endo_act,
    form_to_sym_minus,
    lefschetz_contract,
    omega,
    psi_minus,
    psi_plus,
    type_project,
    volume_form,
)
from su3forms.deformation import (
    DeformationParams,
    InconsistentJetError,
    SU3Jet,
    check_jet_consistency,
    jet_to_params,
    params_to_jet,
)
from su3forms.report import CheckResult, VerificationReport
from su3forms.identities import run_algebra_suite

#: the S^6 suites need numpy, which the flat kernel and its identity suite do
#: not; they are imported on first use, so algebra-only use never loads numpy
_SPHERE_SUITES = (
    "verify_cl_identities",
    "verify_gray",
    "verify_linearized",
    "verify_linearized_basis",
    "verify_spectral",
)


def __getattr__(name: str):
    if name in _SPHERE_SUITES:
        from su3forms import suites

        return getattr(suites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EXACT",
    "FLOAT",
    "AlgebraError",
    "CheckResult",
    "DecompositionError",
    "DeformationParams",
    "DegreeError",
    "Endo",
    "Form",
    "InconsistentJetError",
    "ModeError",
    "SU3Jet",
    "VerificationReport",
    "alpha_map",
    "check_jet_consistency",
    "complex_structure",
    "contract",
    "decompose_anti_endo",
    "decompose_three_form",
    "decompose_two_form",
    "endo_act",
    "evaluate",
    "form_to_sym_minus",
    "hodge_star",
    "inner",
    "jet_to_params",
    "lefschetz_contract",
    "omega",
    "params_to_jet",
    "psi_minus",
    "psi_plus",
    "run_algebra_suite",
    "type_project",
    "verify_cl_identities",
    "verify_gray",
    "verify_linearized",
    "verify_linearized_basis",
    "verify_spectral",
    "volume_form",
    "wedge",
]

__version__ = "0.1.0"
