"""Exact analyzer for Pfaffian systems of disk germs in hypersurfaces.

``import diskeds`` loads no submodule: each name the package exports is
imported from its module on first access (PEP 562).  ``diskeds.cli``
loads the loader, and each command loads its own module when it is
dispatched, so a one-shot call pays only for the command it runs.
"""

# module -> the names the package exports from it
_EXPORTS = {
    "exact": ("GaussianRational", "Rational", "gaussian", "rat"),
    "expr": ("Polynomial", "parse_expression", "print_polynomial"),
    "geometry": ("FirstJetPoint", "GammaBetaData", "HypersurfaceProblem",
                 "StructureMatrix", "complex_standard", "compute_gamma_beta",
                 "full_jet", "make_structure_from_pair", "structure_from_entries"),
    "involutivity": ("DVectors", "TableauReport", "compute_D_vectors", "tableau_report"),
    "torsion": ("ComplexTorsionData", "StructureEquationData", "TorsionVerdict",
                "complex_B_coefficients", "dim6_definiteness", "pseudo_ellipsoid_check",
                "structure_equation_coefficients", "torsion_absorbable"),
    "integral_element": ("FlagSpec", "kahler_regularity", "ordinary_element_search"),
    "jets": ("JetConstraintSystem", "Linearization", "StratumReport",
             "conjugate_involution", "involution_loop", "linearize", "make_system",
             "prolong_constraints", "reduce_redundant", "stratum_analyze"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
