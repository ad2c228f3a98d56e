"""Quantum and Gaussian discord of two-mode Gaussian states.

The package computes discord through two independent routes (a closed form
for states decomposable into an EPR state plus a local Gaussian channel, and
an exact minimisation over rank-one Gaussian measurements, over u at phi = 0
and at the angle phi* of the state's normal form), decomposes states
into EPR-plus-channel form, simulates Gaussian measurement conditioning
(remote state preparation), and samples the decomposition family over the
correlation plane.

The names below are re-exported lazily (PEP 562): ``gdiscord.X`` imports
X's module on the first read, so importing the package loads none of them.
"""

import importlib

_EXPORTS = {
    "channels": (
        "CanonicalForm", "ChannelClass", "GaussianChannelParams", "apply_to_mode_A",
        "classify", "min_output_entropy", "pathological_form_matrices",
    ),
    "discord": (
        "DiscordReport", "conditional_entropy_measured", "discord_routes",
        "gaussian_discord_closed_form", "gaussian_discord_numeric",
    ),
    "entropy": ("entropy_two_mode", "h", "thermal_entropy_fock"),
    "errors": (
        "DomainError", "GDiscordError", "InvalidChannelParams", "NumericalFailure",
        "OutOfFamily", "ValidationError",
    ),
    "family": (
        "FamilyParams", "FamilySample", "eta_from_a", "family_cm_from_params", "membership",
        "occupancy_grid", "sample_family", "tau_bounds",
    ),
    "remote_prep": (
        "ConditionalState", "GaussianMeasurement", "condition_on_outcome", "conditional_cm",
        "conditional_mean_map", "conditioning_on_mode_A", "epr_squeezing_range",
    ),
    "symplectic": (
        "BonaFideDiagnosis", "NormalFormCM", "Reduction", "SymplecticSpectrum",
        "embed_normal_form", "epr_cm", "normal_form_from_cm", "reduce_cm", "rotation_matrix",
        "squeezed_thermal_bound", "squeezer_matrix", "symplectic_spectrum",
        "symplectic_spectrum_eigen", "validate_bona_fide",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "1.0.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
