"""Accelerated first-order solvers for bilinearly coupled saddle point
problems, with a total variation deblurring application layer.

Two solver families are provided: a linearized method that takes
gradient steps on the primal block, and an exact proximal method for
nonsmooth primal terms. Each ships the published step-size schedules
whose primal-dual gap decays at 1/k, or at 1/k^2 when one block is
strongly convex, together with the matching guarantee curves so runs can
be checked against the theory.

The names imported here are the package's public API, the list in
README.md's "Public API" section; every other name in the submodules is
internal.
"""

from .errors import (
    ConfigurationError,
    ContractViolationError,
    DivergenceError,
    DpdError,
    NumericalFailureError,
    UnsupportedPointError,
)
from .linops import (
    ImageGrid,
    Kernel2D,
    LinearOperator,
    make_average_kernel,
    make_convolution_operator,
    make_difference_operator,
    make_motion_kernel,
    make_stacked_operator,
)
from .model import (
    DualProxOracle,
    IterationSnapshot,
    PrimalOracle,
    SaddleProblem,
    SolverConsts,
    kkt_residual,
    lagrangian,
)
from .prox import (
    project_ball2_pairs,
    project_box,
    prox_linear_plus_box,
    prox_quadratic_primal,
    prox_smoothed_tv_dual,
)
from .solver import (
    RunResult,
    SolverState,
)
from .ldpd import (
    LdpdParams,
    LdpdRegime,
    init_ldpd_state,
    ldpd_schedule,
    ldpd_step,
    run_ldpd,
)
from .edpd import (
    EdpdParams,
    EdpdRegime,
    edpd_schedule,
    edpd_step,
    init_edpd_state,
    run_edpd,
)
from .diagnostics import (
    GapReference,
    HistoryRecord,
    HistoryRecorder,
    RateCheckResult,
    dual_distance_rate_check,
    fit_loglog_slope,
    primal_dual_gap,
    read_history_csv,
    snr_db,
    theoretical_bound,
    write_history_csv,
)
from .bench import (
    QuadraticSaddle,
    make_ball_capped_saddle,
    make_quadratic_saddle,
)
from .imaging import (
    GaussianDeblurSpec,
    SaltPepperDeblurSpec,
    add_gaussian_noise,
    add_salt_pepper,
    build_gaussian_problem,
    build_saltpepper_problem,
    continuation_mu_g,
    make_phantom,
    read_dpdf,
    read_pgm,
    write_dpdf,
    write_pgm,
)

__version__ = "0.1.0"
