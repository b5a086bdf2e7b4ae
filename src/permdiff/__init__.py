"""Score-based diffusion for unordered point clouds.

Clouds are modeled up to point relabeling: kernels, posteriors over
permutations, symmetrized scores, forward/reverse noising dynamics, a small
equivariant score network, and an experiment harness, all cross-validated
against brute-force enumeration at small N.
"""

from .cloud import (
    ENUMERATION_CAP,
    Permutation,
    PointCloud,
    apply,
    canonicalize,
    orbit_distance,
)
from .errors import (
    CapacityError,
    DomainError,
    ParseError,
    PermdiffError,
    ShapeMismatchError,
    TrainingDiverged,
)
from .heat_kernel import (
    euclid_log_heat_kernel,
    initial_condition_check,
    quotient_kernel_semigroup_residual,
    quotient_log_heat_kernel_exact,
)
from .ou_sde import (
    NoiseSchedule,
    OuTransition,
    Trajectory,
    forward_sample,
    forward_trajectory,
    identity_exchange_trace,
    ou_transition,
    quotient_marginal_log_density,
    quotient_transition_log_density,
    reverse_integrate,
)
from .perm_mcmc import (
    McmcConfig,
    McmcDiagnostics,
    PermDistribution,
    cost_matrix,
    log_weight,
    mcmc_sample,
    posterior_exact,
)
from .quotient_score import (
    ElboReport,
    elbo,
    ou_conditional_score_exact,
    ou_conditional_score_mcmc,
    per_perm_score,
    symmetrized_score_exact,
    symmetrized_score_mcmc,
)
from .score_model import (
    Checkpoint,
    EquivariantNet,
    TrainConfig,
    dsm_loss,
    sample_from_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ENUMERATION_CAP",
    "CapacityError",
    "Checkpoint",
    "DomainError",
    "ElboReport",
    "EquivariantNet",
    "McmcConfig",
    "McmcDiagnostics",
    "NoiseSchedule",
    "OuTransition",
    "ParseError",
    "PermDistribution",
    "PermdiffError",
    "Permutation",
    "PointCloud",
    "ShapeMismatchError",
    "TrainConfig",
    "TrainingDiverged",
    "Trajectory",
    "apply",
    "canonicalize",
    "cost_matrix",
    "dsm_loss",
    "elbo",
    "euclid_log_heat_kernel",
    "forward_sample",
    "forward_trajectory",
    "identity_exchange_trace",
    "initial_condition_check",
    "log_weight",
    "mcmc_sample",
    "orbit_distance",
    "ou_conditional_score_exact",
    "ou_conditional_score_mcmc",
    "ou_transition",
    "per_perm_score",
    "posterior_exact",
    "quotient_kernel_semigroup_residual",
    "quotient_log_heat_kernel_exact",
    "quotient_marginal_log_density",
    "quotient_transition_log_density",
    "reverse_integrate",
    "sample_from_model",
    "symmetrized_score_exact",
    "symmetrized_score_mcmc",
    "train",
]
