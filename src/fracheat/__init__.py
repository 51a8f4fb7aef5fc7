"""Solver library for the skewed fractional heat equation u_t = (d/dx)^alpha u
on (0,1) with absorbing boundaries, built around an order-alpha finite
difference scheme with a shifted-Grunwald baseline and a convergence harness.
"""

from .errors import ConvergenceError, DomainError, FracheatError, NumericalError
from .evolution import (
    EigenfunctionIC,
    EvolutionConfig,
    GaussianIC,
    PowerLawIC,
    evolve,
    factorize,
    initial_grid,
    iter_states,
    resolvent_apply,
    step,
)
from .harness import (
    ErrorReport,
    ErrorRow,
    eigen_decay_study,
    error_norms,
    figure1_comparison,
    observed_order,
    operator_consistency_study,
)
from .interp import PowerInterpolant, from_grid
from .operators import (
    GridFunction,
    OperatorMatrix,
    apply,
    build_operator,
    closed_form_inverse,
    exactness_residual,
)
from .reference import (
    EigenPair,
    continuous_inverse_apply,
    eigenfunction_u_c,
    gaussian_ic,
    principal_eigenvalue,
)
from .specfun import gamma, mittag_leffler_e_alpha0, polylog
from .weights import (
    QMatrixReport,
    Scheme,
    WeightSequence,
    generating_residual,
    grunwald_weights,
    new_weights,
    qmatrix_report,
    resubstitution_residual,
)

__version__ = "0.1.0"
