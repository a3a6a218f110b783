"""Renyi and min-entropy uncertainty bounds for POVMs assigned to complex
projective t-designs, with design verification, Landau-Pollak caps and
entropic steering checks.

The package namespace holds the supported API, listed in __all__; every
other function lives in its submodule."""

__version__ = "0.1.0"

from .bounds import (AuditBatch, BoundCurves, audit_state, audit_states,
                     bound_curves, bound_prior, bound_prop1, bound_prop2,
                     landau_pollak_cap, state_independent_bound,
                     state_independent_cap)
from .designs import (AssignmentError, DesignLoadError, DesignStrengthError,
                      PovmAssignment, QuantumDesign, VerificationReport,
                      assign_povms, builtin_design, check_strength,
                      load_design, mub_grouping, save_design, verify_design)
from .entropy import conditional_renyi_arimoto, renyi_entropies
from .quantum import (check_density, density_spectra, random_densities,
                      random_density)
from .steering import (SteeringResult, matched_alice_povms,
                       steering_check_maxprob, steering_check_renyi)
from .upsilon import (UncertifiedRootError, UpsilonResult, upsilon,
                      upsilon_array)

__all__ = [
    "AuditBatch", "BoundCurves", "audit_state", "audit_states",
    "bound_curves", "bound_prior", "bound_prop1", "bound_prop2",
    "landau_pollak_cap", "state_independent_bound",
    "state_independent_cap", "AssignmentError", "DesignLoadError",
    "DesignStrengthError", "PovmAssignment", "QuantumDesign",
    "VerificationReport", "assign_povms", "builtin_design", "check_strength",
    "load_design", "mub_grouping", "save_design", "verify_design",
    "conditional_renyi_arimoto", "renyi_entropies", "check_density",
    "density_spectra", "random_densities", "random_density", "SteeringResult",
    "matched_alice_povms", "steering_check_maxprob", "steering_check_renyi",
    "UncertifiedRootError", "UpsilonResult", "upsilon", "upsilon_array",
]
