"""Single-sample Ising interaction estimation over a known matrix span."""

from .core import (
    IsingSpec,
    conditional_prob_plus,
    frobenius_norm,
    infinity_norm,
    interaction_edges,
    local_field,
    trace_inner,
    validate_interaction,
)
from .basis import (
    MatrixBasis,
    combine,
    gram_schmidt,
    min_singular_value,
    project,
)
from .sampler import (
    ExactDistribution,
    GlauberConfig,
    component_sample,
    enumerate_distribution,
    exact_sample,
    glauber_sample,
    glauber_sample_many,
    log_partition,
    make_rng,
)
from .mple import (
    EstimationResult,
    MpleConfig,
    directional_derivative,
    directional_second_derivative,
    fit,
    grad_beta,
    neg_log_pl,
)
from .conditioning import SubsetCover, best_subset_for_weights, build_cover, verify_cover
from .oneparam import fit_scalar, phi_prime
from .metrics import (
    conditional_variance_floor,
    linear_variance_exact,
    tv_chi_exact,
)

__version__ = "0.1.0"
