"""Analytic loci from Laurent polynomials with rational coefficients.

The library builds its loci from p-adic scalars; tests state their
equations as `LaurentPoly` and realize each rational coefficient here as
one scalar at a fixed relative precision.
"""

from padicloci.conic import AnalyticLocus
from padicloci.padic import PadicScalar
from padicloci.series import AnalyticSeries


def rational_locus(disc, polys, prec):
    """The locus on disc cut out by polys, prec digits per coefficient."""
    series = []
    for q in polys:
        terms = {
            e: PadicScalar.from_fraction(disc.p, c.rational_value(), prec)
            for e, c in q.terms.items()
        }
        series.append(AnalyticSeries(disc, terms))
    return AnalyticLocus(disc, series)
