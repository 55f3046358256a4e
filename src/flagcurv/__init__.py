"""Flag curvature of invariant (alpha+beta)^2/alpha Finsler metrics.

Everything is computed at the Lie-algebra level: a homogeneous space G/H
enters as structure constants with a basis-adapted reductive split, a
bi-invariant form g0, a metric endomorphism phi, and a drift vector X.
"""

from .algebra import (
    LieAlgebraSpec,
    bracket,
    check_reductive,
    derived_subalgebra,
    jacobi_defect,
)
from .berwald import (
    ObstructionReport,
    ad_skew_check,
    is_perfect,
    obstruction_report,
    parallel_obstruction_space,
    sectional_along_X_sign,
)
from .config import ProblemConfig, build_problem, config_from_dict, parse_config
from .errors import (
    FlagError,
    FlagcurvError,
    InputError,
    NumericError,
    PreconditionError,
    ValidationError,
)
from .finsler import (
    FinslerData,
    F_eval,
    denominator_identity,
    g_Y_closed,
    g_Y_fd,
    g_Y_matrix,
    numerator_identity_check,
    validate_finsler,
)
from .flagcurvature import (
    Contractions,
    CurvatureReport,
    ScanSummary,
    flag_curvature,
    flag_curvature_biinvariant,
    puttmann_URYY,
    sample_flag,
    scan_flags,
)
from .geometry import HomogeneousGeometry, make_geometry
from .metrics import (
    Flag,
    InnerProduct,
    check_ad_h_invariance,
    check_bi_invariance,
    check_naturally_reductive,
    orthonormalize_flag,
)
from .riemann import (
    ConnectionTable,
    curvature_oracle,
    koszul_connection,
    nat_reductive_R,
    sectional,
)

__version__ = "0.1.0"
