"""Longitudinal dielectric response of quantum Maxwellian collisional plasma."""

__version__ = "0.1.0"

from .special_functions import (  # noqa: F401
    dawson,
    faddeeva_w,
    lambda0,
    plasma_t,
    t_derivatives,
    t_diff_and_lambda0,
    t_diff_over_q,
)
from .dielectric import (  # noqa: F401
    ModelKind,
    PlasmaParams,
    QueryPoint,
    conductivity,
    epsilon_classical,
    epsilon_drude,
    epsilon_lindhard,
    epsilon_mermin,
    epsilon_quantum,
    epsilon_static,
    evaluate,
)
from .dispersion import (  # noqa: F401
    BranchLossError,
    ConvergenceError,
    DispersionRoot,
    NonPhysicalRootError,
    gamma_asymptotic,
    omega_asymptotic,
    solve_root,
    trace_branch,
)
from .scan import (  # noqa: F401
    ScanSpec,
    ScanTable,
    figure_preset,
    run_scan,
    write_output,
)
