"""Quantum and Gaussian discord of two-mode Gaussian states.

The package computes discord through two independent routes (a closed form
for states decomposable into an EPR state plus a local Gaussian channel, and
a numerical scan over rank-one Gaussian measurements), decomposes states
into EPR-plus-channel form, simulates Gaussian measurement conditioning
(remote state preparation), and samples the decomposition family over the
correlation plane.
"""

from .channels import (
    CanonicalForm,
    ChannelClass,
    GaussianChannelParams,
    apply_to_mode_A,
    classify,
    min_output_entropy,
    pathological_form_matrices,
)
from .discord import (
    DiscordReport,
    MinimizeResult,
    conditional_entropy_measured,
    gaussian_discord_closed_form,
    gaussian_discord_numeric,
    matched_measurement,
    minimize_conditional_entropy,
)
from .entropy import (
    entropy_single_mode,
    entropy_two_mode,
    h,
    thermal_entropy_fock,
)
from .errors import (
    DomainError,
    GDiscordError,
    InvalidChannelParams,
    NotSqueezedThermalForm,
    NumericalFailure,
    OutOfFamily,
    ValidationError,
)
from .family import (
    FamilyParams,
    FamilySample,
    decompose_squeezed_thermal,
    eta_from_a,
    family_cm_from_params,
    membership,
    occupancy_grid,
    sample_family,
    tau_bounds,
)
from .remote_prep import (
    ConditionalState,
    GaussianMeasurement,
    condition_on_outcome,
    conditional_cm,
    conditional_mean_map,
    conditioning_on_mode_A,
    epr_squeezing_range,
)
from .symplectic import (
    BonaFideDiagnosis,
    NormalFormCM,
    Reduction,
    SymplecticSpectrum,
    assemble_cm,
    block_a,
    block_b,
    block_c,
    embed_normal_form,
    epr_cm,
    normal_form_from_cm,
    reduce_cm,
    rotation_matrix,
    squeezed_thermal_bound,
    squeezer_matrix,
    symplectic_spectrum,
    symplectic_spectrum_eigen,
    validate_bona_fide,
)

__version__ = "1.0.0"
