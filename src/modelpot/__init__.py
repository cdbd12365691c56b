"""Numerical toolkit for rotationally symmetric model manifolds:
integral classification criteria, radial exhaustion profiles via Picard
iteration (in one constant-flux pass for a zero potential), and discrete
obstacle-problem constructions of small supersolutions."""

from .core import (
    DomainError,
    ModelManifold,
    NumericError,
    PhiOperator,
    PotentialB,
    QuadratureError,
    linear_power_potential,
    load_manifold_csv,
    log_sphere_volume,
    manifold_from_tag,
    operator_from_tag,
    p_laplacian_operator,
    perturbed_operator,
    phi_inverse,
    plateau_potential,
    potential_from_tag,
    sphere_volume,
    superlinear_potential,
    tabulated_manifold,
    volume_ratio,
    zero_potential,
)
from .criteria import (
    Classification,
    ConsistencyError,
    DivergenceVerdict,
    KellerOssermanResult,
    OperatorTypeTag,
    PropertyTag,
    Verdict,
    classify_KL,
    classify_operator_type,
    classify_parabolic,
    keller_osserman,
    test_L1_at_infinity,
    v_pa,
    v_st,
)
from .obstacle import (
    ConstraintError,
    DiscreteFunction,
    DiscreteProblem,
    KhasminskiiReport,
    ObstacleSpec,
    SweepLimitError,
    is_supersolution,
    khasminskii_construct,
    make_problem,
    residual_complementarity,
    solve_dirichlet,
    solve_obstacle,
)
from .radial import (
    BLOWUP,
    COMPLETE,
    CauchyParams,
    EvansFailure,
    EvansResult,
    NoExhaustion,
    PicardNoConvergence,
    RadialSolution,
    choose_mu,
    constant_flux_profile,
    evans_for_triple,
    solve_cauchy,
    solve_on_interval,
)

__version__ = "0.1.0"
