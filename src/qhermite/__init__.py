"""Generalized discrete q-Hermite II polynomials and their q-calculus toolkit.

Evaluation of the two-variable family (definition sum, basic-hypergeometric
form, q-Laguerre form, three-term recurrence), the supporting q-machinery
(q-Pochhammer symbols, Hahn q-addition, r-phi-s series, q-exponentials and
q-trigonometric functions, Jackson's second q-Bessel function), a residual
harness for every structural identity the family satisfies, and bilateral
Jackson quadrature for the orthogonality relation.
"""

from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    EvaluationError,
    ExactBackendError,
    PoleError,
    QHermiteError,
    RepresentationDomainError,
)
from .qcore import (
    QParams,
    Truncation,
    gen_q_shifted_factorial,
    hahn_add_power,
    q_pochhammer,
)
from .qseries import (
    PhiSpec,
    SeriesValue,
    euler_e,
    gen_E,
    phi,
    phi_rs,
    q_bessel2,
    q_cos_alpha,
    q_sin_alpha,
)
from .polyfam import (
    RecurrenceState,
    discrete_q_hermite2,
    gdqh2,
    gdqh2_recurrence_ladder,
    gdqh2_recurrence_step,
    gdqh2_recurrence_values,
    mu_hermite,
    q_laguerre,
    rosenblum_hermite,
    stieltjes_wigert,
)
from .identities import (
    DEFAULT_GRID,
    IDENTITY_IDS,
    IdentityGrid,
    IdentityReport,
    check_bessel_forms,
    check_connection,
    check_even_odd_gf,
    check_generating_function,
    check_inversion,
    check_recurrence,
    check_representations,
    default_identity_tol,
    hermite_scaled_deviation,
    residuals,
    run_identity_suite,
    stieltjes_wigert_limit,
    summarize_reports,
)
from .quadrature import (
    orthogonality_check,
    orthogonality_gram,
    orthogonality_rhs,
    orthogonality_weight,
)

__version__ = "0.1.0"
