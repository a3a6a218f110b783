"""Renyi and min-entropy uncertainty bounds for POVMs assigned to complex
projective t-designs, with design verification, Landau-Pollak caps and
entropic steering checks."""

__version__ = "0.1.0"

from .bounds import (AlphaBounds, AuditBatch, BoundCurves, BoundReport,
                     audit_state, audit_states, bound_curves, bound_prior,
                     bound_prop1, bound_prop1_nr, bound_prop2,
                     landau_pollak_cap, mub_min_bound,
                     state_independent_bound, state_independent_cap)
from .designs import (AssignmentError, DesignLoadError, DesignStrengthError,
                      PovmAssignment, QuantumDesign, VerificationReport,
                      all_outcome_probabilities, assign_povms, builtin_design,
                      frame_potential, load_design, mub_grouping,
                      outcome_probabilities, outcome_probability_batch,
                      save_design, verify_design)
from .entropy import (conditional_renyi_arimoto, min_entropy, renyi_entropies,
                      renyi_entropy, shannon_entropy)
from .moments import beta_parameters, beta_range, sym_moment, sym_moment_direct
from .quantum import (bloch_to_state, check_density, check_state,
                      density_from_state, maximally_mixed, partial_trace,
                      power_moments, random_densities, random_density,
                      random_pure_state, sym_dim_inv, sym_projector,
                      tensor_power)
from .steering import (ConditionalEnsemble, SteeringResult,
                       conditioned_ensemble, matched_alice_povms,
                       steering_check_maxprob, steering_check_renyi)
from .upsilon import (UncertifiedRootError, UpsilonResult, admissible_range,
                      chi, upsilon, upsilon_array, upsilon_nr1,
                      upsilon_nr1_array)
