"""Monte Carlo stochastic-flow solver for advection-diffusion equations.

Simulates the label-to-position flow of an Ito SDE whose generator matches a
variable-coefficient advection-diffusion operator, tracks the flow Jacobian and
exponential weights along paths, inverts stored flow snapshots, and verifies the
resulting Feynman-Kac field estimates against finite-difference reference solves
and statistical identities (conservation, martingale constancy, convexity
inequalities, entropy decay).
"""

__version__ = "0.1.0"

from .brownian import BrownianDriver, auxiliary_rng
from .coefficients import CoefficientSet, assemble
from .convex import ConvexH, get_convex, non_convex_control
from .engine import (
    BatchResult,
    run_chunks,
    simulate_paths,
)
from .errors import (
    BlowUp,
    ConfigError,
    DimensionMismatch,
    DomainError,
    ExprError,
    InsufficientRealizations,
    NonPositiveDensity,
    PositivityViolation,
    SignalTooNoisy,
    SupportEscape,
)
from .fields import FieldExpr, differentiate, eval_batch, evaluate, parse_field
from .grids import Box, grid_axes, mesh_points, multilinear_interp, trapezoid_weights
from .inverse import (
    ChartStack,
    chart_from_batch,
    feynman_kac_psi_stack,
    invert_batch,
    roundtrip_error,
)
from .oracle import (
    EntropyReport,
    GridField,
    OracleSeries,
    PhiSeries,
    assemble_generator,
    entropy_series,
    grid_field_from_expr,
    solve_adjoint,
    solve_forward,
)
from .estimators import (
    McField,
    PsiSamples,
    collect_psi_samples,
    entropy_decay_check,
    jensen_check,
)
from .config import (
    ScenarioConfig,
    bundled_scenario_path,
    bundled_scenarios,
    load_config,
    loads_config,
)
from .checks import (
    CheckResult,
    RunReport,
    convergence_study,
    run_scenario,
)
