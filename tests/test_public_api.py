"""The package exports what a command, a statement of the paper or an
independent cross-check needs, and nothing else: adding or dropping a name
is an edit of this list."""

import types

import modelpot

PUBLIC = {
    # the typed errors of every command
    "DomainError", "NumericError", "QuadratureError", "ConsistencyError",
    "ConstraintError", "SweepLimitError", "PicardNoConvergence",
    "EvansFailure", "NoExhaustion",
    # the data of every command: manifolds, operators and potentials
    "ModelManifold", "PhiOperator", "PotentialB", "manifold_from_tag",
    "operator_from_tag", "potential_from_tag", "tabulated_manifold",
    "load_manifold_csv", "p_laplacian_operator", "perturbed_operator",
    "zero_potential", "linear_power_potential", "plateau_potential",
    "superlinear_potential", "log_sphere_volume", "phi_inverse",
    # classify: the integral criteria and the divergence test
    "Classification", "DivergenceVerdict", "KellerOssermanResult",
    "PropertyTag", "Verdict", "classify_KL", "classify_parabolic",
    "keller_osserman", "test_L1_at_infinity",
    # the paper's comparison profiles, which the c-sweep cross-check reads
    "v_pa", "v_st",
    # evans and the radial problem
    "BLOWUP", "COMPLETE", "CauchyParams", "EvansResult", "RadialSolution",
    "evans_for_triple", "solve_cauchy", "solve_on_interval",
    # khasminskii and obstacle
    "DiscreteFunction", "DiscreteProblem", "KhasminskiiReport",
    "ObstacleSpec", "is_supersolution", "khasminskii_construct",
    "make_problem", "solve_obstacle",
    # v_st's volume ratio and the Dirichlet solve: no command calls them,
    # and the benchmark's tracer wraps both by name, so they go with its
    # next change (ROADMAP items 3 and 6)
    "volume_ratio", "solve_dirichlet",
}


def test_the_public_names_are_pinned():
    exported = {name for name, value in vars(modelpot).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC
