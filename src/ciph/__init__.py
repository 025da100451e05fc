"""Conservative-irreversible 4-tensors: condition checks, bracket-product
factorization, and drift dynamics with energy/entropy balance audits."""

from .brackets import BracketMatrix, SkewCheck, bracket_eval, is_skew, product_tensor
from .dynamics import (
    BalanceReport,
    IphsModel,
    Trajectory,
    audit_balances,
    builtin_model,
    drift_rhs,
    full_rhs,
    heat_exchanger_model,
    integrate,
    observable_rate,
    quadratic_linear_model,
)
from .errors import (
    CiphError,
    DimensionMismatch,
    DimensionTooLarge,
    EmptyDirectionSet,
    FormatError,
    NegativeCoefficient,
    NonFiniteValue,
    NonpositiveGamma,
    TrajectoryTooShort,
)
from .fields import CallableField, PolynomialField
from .splitter import (
    NEGATIVE_GAMMA,
    NOT_PROPORTIONAL,
    NOT_RANK_ONE,
    NOT_SKEW,
    SPLIT,
    RankOneFactor,
    SplitResult,
    flatten_pairs,
    rank_one_factor,
    split_product,
    split_tensor,
    unflatten_pairs,
)
from .tensor import (
    DEFAULT_TOL,
    DIRECTION_SEED,
    ConditionReport,
    Tensor4,
    Witness,
    check_cyclic_b,
    check_psd_c,
    check_quasi_poisson,
    check_raw_iii,
    check_sym_a,
    default_directions,
    evaluate_E,
    evaluate_e,
    linear_combine,
    symmetrize_34,
)
from .verify import (
    OracleReport,
    PsdOracleReport,
    exhaustive_condition_check,
    exhaustive_psd_check,
    fd_gradient,
    random_cons_irrev,
    random_polynomial,
    random_skew,
)

__version__ = "0.1.0"
