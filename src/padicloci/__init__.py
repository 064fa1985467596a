"""Exact p-adic analytic tools for torsion loci on split tori.

The layers build on each other: exact p-adic and unramified scalars
with Teichmuller lifts and exp/log kernels, zero counting for rigid
analytic series on polydiscs, conic orbit certificates for weighted
homothety actions, binomial systems solved into torsion cosets with a
certificate pipeline, and twisted cohomology of small free complexes
with jumping-locus scans.  Everything is integer and fraction arithmetic;
nothing here rounds.

Importing the package loads no submodule: each public name below, and
each submodule, is imported on first access (PEP 562), so a CLI process
compiles only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# the public names, by defining module
_EXPORTS = {
    "complexes": (
        "JumpingLocusSample",
        "TwistedComplex",
        "circle_complex",
        "fitting_locus",
        "scan_torsion",
        "shape_check",
        "specialize",
        "surface_complex",
        "torus_complex",
        "wedge_complex",
    ),
    "conic": ("AnalyticLocus", "WeightedAction", "conic_certificate"),
    "cosets": (
        "BinomialSystem",
        "TorsionCoset",
        "enumerate_torsion",
        "sigma_stable",
        "solve_binomial",
        "torsion_certificate_pipeline",
    ),
    "cyclotomic": ("CycNumber", "cyclotomic_poly"),
    "laurent": ("LaurentPoly", "laurent_det"),
    "padic": (
        "DomainError",
        "PadicScalar",
        "PrecisionError",
        "UnramifiedScalar",
        "coset_eq",
        "embed_root_of_unity",
        "exp_domain_bound",
        "modulus_poly",
        "multiplicative_generator",
        "padic_exp",
        "padic_log",
        "scalar_from_json",
        "teichmuller",
    ),
    "series": (
        "AnalyticSeries",
        "NewtonPolygon",
        "PolyDisc",
        "check_scaling_unit",
        "newton_polygon",
        "restrict_to_orbit",
        "strassmann_count",
        "vanish_certificate",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# groups is empty; perfbench/tracing.py still looks it up by name
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "groups", "intlinalg", "linalg"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module("." + _HOME[name], __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
