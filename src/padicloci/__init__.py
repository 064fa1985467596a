"""Exact p-adic analytic tools for torsion loci on split tori.

The layers build on each other: exact p-adic and unramified scalars
with Teichmuller lifts and exp/log kernels, zero counting for rigid
analytic series on polydiscs, conic orbit certificates for weighted
homothety actions, character groups with their logarithm coordinates,
binomial systems solved into torsion cosets with a certificate
pipeline, and twisted cohomology of small free complexes with
jumping-locus scans.  Everything is integer and fraction arithmetic;
nothing here rounds.
"""

from .complexes import (
    JumpingLocusSample,
    TwistedComplex,
    circle_complex,
    fitting_locus,
    scan_torsion,
    shape_check,
    specialize,
    surface_complex,
    torus_complex,
    wedge_complex,
)
from .conic import (
    AnalyticLocus,
    WeightedAction,
    conic_certificate,
    linearity_check,
    orbit_differential_at_zero,
    tangent_space_at_zero,
    weighted_degree,
)
from .cosets import (
    BinomialSystem,
    TorsionCoset,
    enumerate_torsion,
    sigma_stable,
    solve_binomial,
    torsion_certificate_pipeline,
    transform_coset,
)
from .cyclotomic import CycNumber, cyclotomic_poly, euler_phi
from .groups import (
    ContinuousCharacter,
    FgAbGroup,
    char_exp,
    char_log,
    char_pow,
    decompose_teichmuller,
    offset_coordinates,
    smith_decompose,
)
from .laurent import LaurentPoly, laurent_det
from .padic import (
    DomainError,
    PadicScalar,
    PrecisionError,
    ResidueElement,
    UnramifiedScalar,
    coset_eq,
    embed_root_of_unity,
    exp_domain_bound,
    modulus_poly,
    multiplicative_generator,
    padic_exp,
    padic_log,
    residue_field_elements,
    scalar_from_json,
    teichmuller,
)
from .series import (
    AnalyticSeries,
    NewtonPolygon,
    PolyDisc,
    check_scaling_unit,
    newton_polygon,
    restrict_to_orbit,
    strassmann_count,
    vanish_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticLocus",
    "AnalyticSeries",
    "BinomialSystem",
    "ContinuousCharacter",
    "CycNumber",
    "DomainError",
    "FgAbGroup",
    "JumpingLocusSample",
    "LaurentPoly",
    "NewtonPolygon",
    "PadicScalar",
    "PolyDisc",
    "PrecisionError",
    "ResidueElement",
    "TorsionCoset",
    "TwistedComplex",
    "UnramifiedScalar",
    "WeightedAction",
    "char_exp",
    "char_log",
    "char_pow",
    "check_scaling_unit",
    "circle_complex",
    "conic_certificate",
    "coset_eq",
    "cyclotomic_poly",
    "decompose_teichmuller",
    "embed_root_of_unity",
    "enumerate_torsion",
    "euler_phi",
    "exp_domain_bound",
    "fitting_locus",
    "laurent_det",
    "linearity_check",
    "modulus_poly",
    "multiplicative_generator",
    "newton_polygon",
    "offset_coordinates",
    "orbit_differential_at_zero",
    "padic_exp",
    "padic_log",
    "residue_field_elements",
    "restrict_to_orbit",
    "scalar_from_json",
    "scan_torsion",
    "shape_check",
    "sigma_stable",
    "smith_decompose",
    "solve_binomial",
    "specialize",
    "strassmann_count",
    "surface_complex",
    "tangent_space_at_zero",
    "teichmuller",
    "torsion_certificate_pipeline",
    "torus_complex",
    "transform_coset",
    "vanish_certificate",
    "wedge_complex",
    "weighted_degree",
]
