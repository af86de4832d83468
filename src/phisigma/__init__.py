"""Value sets of Euler's phi and the sum-of-divisors sigma.

Exact enumeration of the two value sets and their intersection,
the structure constants rho, C, D of the value-counting problem,
the fundamental simplex and its volume, S-normal prime anatomy,
smooth-number counts, and the nine-condition preimage classifier.
"""

from .anatomy import (
    NormalityReport,
    SmoothCount,
    big_omega_range,
    check_poisson_tail,
    check_pplus_lower,
    is_s_normal,
    largest_prime_factor,
    omega_tail_census,
    poisson_tail_bound,
    psi_smooth_count,
    sieve_bound_census,
)
from .classifier import (
    AfConditionsReport,
    AfParams,
    CaptureCensus,
    af_params,
    capture_census,
    classify,
)
from .constants import (
    StructureConstants,
    eval_F,
    eval_F_prime,
    l0_of,
    q_function,
    series_coefficient,
    solve_rho,
    structure_constants,
    y_predictor,
)
from .errors import (
    BudgetExceededError,
    DomainError,
    PhiSigmaError,
    ResourceError,
)
from .sieve import (
    FactorSieve,
    Factorization,
    build_factor_sieve,
    factorize,
    phi_of,
    primes_up_to,
    segment_map,
    sigma_of,
)
from .structure import (
    RenormalizedVector,
    SimplexSpec,
    VolumeEstimate,
    check_comparison_lemma,
    default_xi,
    r_l_sum,
    renormalize,
    sample_simplex,
    simplex_contains,
    simplex_volume_exact,
    simplex_volume_mc,
    unit_spec,
)
from .value_sets import (
    ValueBitmap,
    ValuesTableRow,
    build_value_bitmap,
    count_values,
    intersect_count,
    phi_preimage_bound,
    values_table,
    values_table_csv,
)

__version__ = "0.1.0"
