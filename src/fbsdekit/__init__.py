"""Regression Monte Carlo solvers for coupled forward-backward SDEs.

The package implements a Markovian (Picard-type) iteration for FBSDEs
whose forward drift depends on both the value process Y and its gradient
process Z.  Per time step, the backward pass fits a quadratic decoupling
field for Y by least squares; the Z field is either obtained by
differentiating that field and multiplying by the diffusion (the
``differentiation`` method) or fit by an independent second regression
(the ``direct`` baseline, which fails under Z-coupling).  Reference
solutions, strong error metrics, convergence-rate fits, and evaluators
for the convergence constants of the underlying contraction analysis are
included, plus the ``fbsde`` experiment CLI.

The OpenMP/BLAS thread pools run one thread: ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS`` and ``NUMEXPR_NUM_THREADS``
are set to 1 here, before anything imports numpy, overriding inherited
values.  The least-squares solves are small and many, and pin numpy's
bundled OpenBLAS (its Linux wheels from PyPI) to one thread anyway, so a
larger pool would only cost its start at import and its restart after
every fork.  A library user who imports ``fbsdekit`` before numpy gets a
one-thread BLAS too; one who imports numpy first keeps the pool it
started, and the solves still pin it, so results do not depend on its
size.  With another BLAS they are reproducible per thread count.

The reference and the coarsening read the Brownian store in windows of
at most 2^16 values.  A walk of 2^19 normals or more, where ``os.fork``
exists and a second core is usable, forks one producer process that draws
the windows ahead while this process steps.  ``FBSDE_THREADS`` has that
one role: unset or above 1 lets a walk fork, and ``FBSDE_THREADS=1``
keeps the draws in process.  The windows are the same bits either way, so
no output depends on it.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

from .brownian import (
    BrownianStore,
    PathBatch,
    TimeGrid,
    coarsen_increments,
    make_time_grid,
    sample_fine_increments,
)
from .diagnostics import (
    AssumptionConstants,
    DiagnosticsReport,
    check_conditions,
    parse_constants,
)
from .errors import (
    FBSDEError,
    InvalidArgument,
    NumericalFailure,
    RankDeficiencyError,
    UnsupportedProblem,
)
from .fields import (
    QuadraticField,
    eval_u,
    eval_v_diff,
    features,
    grad_u,
)
from .problems import (
    ClosedForm,
    ProblemSpec,
    decoupled_test_problem,
    example1_problem,
    example2_problem,
)
from .reference import ErrorReport, compute_errors, fit_rate, simulate_reference
from .regression import fit_step_differentiation, fit_step_direct, solve_linear_lsq
from .solver import (
    IterationResult,
    SolverConfig,
    backward_pass,
    forward_simulate,
    run_markovian_iteration,
)

__version__ = "0.1.0"
