"""Window-exhaustive verification of triangular matrix inversion pairs.

A pair of lower-triangular matrices F, G is a matrix inversion when
``sum_{k<=i<=n} F(n,i) G(i,k) = delta_{n,k}``.  This library builds such
pairs from two-index kernels ``(alpha, beta)`` and from four-sequence node
data, checks the defining orthogonality and the triple/quintuple sum
identities exhaustively over finite index windows (exactly over rationals,
or within a tolerance over floats), reconstructs ``beta`` by two competing
recursions and exhibits their divergence, and ships the concrete q-series,
theta-function, and elliptic-divisibility-sequence families.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateParams,
    DomainError,
    DuplicateNodes,
    IndexOutOfTable,
    MissingBeta,
    NonConvergent,
    PivotDegenerate,
    VerificationError,
    ZeroBeta,
    ZeroDenominator,
    ZeroDiagonal,
    ZeroDivisor,
)
from .numerics import (
    DEFAULT_POLICY,
    Scalar,
    TruncationPolicy,
    elliptic_pochhammer,
    is_exact,
    magnitude,
    partial_theta,
    partial_theta_slope_quotient,
    partial_theta_slope_series,
    prod_range,
    q_pochhammer,
    q_pochhammer_infinite,
    theta,
    weierstrass_addition_residual,
)
from .kernels import (
    Kernel,
    NodeSequences,
    TriangularPair,
    VerificationReport,
    f_entry,
    g_entry,
    kernel_to_nodes,
    max_antisymmetry_residual,
    node_entries,
    pair_from_entries,
    pair_from_kernel,
    pair_from_nodes,
    verify_inversion,
)
from .identities import (
    anchored_tsi_residual,
    divided_difference,
    divided_difference_sum,
    max_anchored_tsi_residual,
    max_qsi_residual,
    max_tsi_residual,
    qsi_residual,
    tsi_residual,
)
from .recursions import (
    BetaSeed,
    beta_closed_tsi,
    beta_from_inversion,
    beta_step_tsi,
    beta_table_inversion,
    beta_table_tsi,
    counterexample_discrepancies,
    counterexample_reference,
    f_weight,
    g_weight,
)
from .families import (
    FAMILIES,
    EdsSequence,
    FactorSequences,
    affine_sequence,
    bilinear_kernel,
    binomial_closed_entries,
    binomial_kernel,
    constant_sequence,
    eds_closed_entries,
    eds_generate,
    eds_kernel,
    eds_property_residual,
    elliptic_sum_closed_entries,
    elliptic_sum_kernel,
    gasper_closed_entries,
    gasper_kernel,
    max_closed_form_residual,
    max_eds_property_residual,
    max_recurrence_residual,
    partial_theta_kernel,
    product_ratio_kernel,
    schlosser_closed_entries,
    schlosser_kernel,
    warnaar_kernel,
)
