"""Exact analyzer for Pfaffian systems of disk germs in hypersurfaces."""

from .exact import GaussianRational, Rational, gaussian, rat
from .expr import (
    Polynomial,
    parse_expression,
    print_polynomial,
)
from .geometry import (
    FirstJetPoint,
    GammaBetaData,
    HypersurfaceProblem,
    StructureMatrix,
    complex_standard,
    compute_gamma_beta,
    full_jet,
    make_structure_from_pair,
    structure_from_entries,
)
from .involutivity import (
    DVectors,
    TableauReport,
    compute_D_vectors,
    tableau_report,
)
from .torsion import (
    ComplexTorsionData,
    StructureEquationData,
    TorsionVerdict,
    complex_B_coefficients,
    dim6_definiteness,
    pseudo_ellipsoid_check,
    structure_equation_coefficients,
    torsion_absorbable,
)
from .integral_element import (
    FlagSpec,
    kahler_regularity,
    ordinary_element_search,
)
from .jets import (
    JetConstraintSystem,
    Linearization,
    StratumReport,
    conjugate_involution,
    involution_loop,
    linearize,
    make_system,
    prolong_constraints,
    reduce_redundant,
    stratum_analyze,
)

__version__ = "0.1.0"
