"""Free entropy, free Hausdorff dimension, and entropy sandwich bounds.

For a selfadjoint variable with spectral measure mu = sigma + nu (atom
weights c_i), everything here is closed-form arithmetic on top of the
logarithmic energy E:

* chi = E + 3/4 + (1/2) log(2 pi), with any atom forcing -inf through
  its diagonal self-pair.
* alpha = 1 - sum c_i^2, the free Hausdorff dimension.
* The free Hausdorff entropy of exponent alpha is not computable, but it
  is sandwiched: E - alpha log 2 - (1/2) log(288 e) + 3/4 from below and
  E + log 16 + 1/4 from above; the gap is a constant depending only on
  alpha.
* For n free variables the same sandwich holds with constants K1, K2
  around the summed energies; the one-variable sandwich is its n = 1 case.

All constants are evaluated from closed forms in double precision, never
from truncated decimal literals.
"""

from __future__ import annotations

import math

from ._record import Record
from .energy import offdiag_energy
from .measures import SpectralMeasure

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Sequence

__all__ = [
    "EntropyBounds",
    "FamilyBounds",
    "free_hausdorff_dimension",
    "dimension_truncation_bound",
    "chi",
    "h1_identity",
    "hausdorff_entropy_bounds",
    "free_family_bounds",
    "family_constants",
    "sandwich_width",
    "CHI_SHIFT",
    "FORMULAS",
]

CHI_SHIFT = 0.75 + 0.5 * math.log(2.0 * math.pi)
DIM_ONE_SHIFT = 0.5 * (math.log(2.0) - 1.0 - math.log(math.pi))

# formula provenance strings for machine-readable reports
FORMULAS = {
    "alpha": "alpha = 1 - sum(c_i^2)",
    "chi": "chi = E + 3/4 + (1/2) log(2 pi)",
    "h1": "H^1 = chi + (1/2) log(2 / (pi e))",
    "upper": "upper = E + log 16 + 1/4",
    "lower": "lower = E - alpha log 2 - (1/2) log(288 e) + 3/4",
    "k1": "K1 = -(n/2) log(288 e) + 3n/4 - beta log 2",
    "k2": "K2 = n log(16 sqrt(n)) + n/4",
    "width": "upper - lower = log 16 + 1/4 + alpha log 2 + (1/2) log(288 e) - 3/4",
}


class EntropyBounds(Record):
    """Two-sided bounds on the free Hausdorff entropy of exponent alpha.

    ``alpha`` is the measure's free Hausdorff dimension, ``energy`` the
    full off-diagonal energy result the bounds are built from.  Both
    endpoints are -inf when the energy is.
    """

    __slots__ = ("alpha", "energy", "lower", "upper")


class FamilyBounds(Record):
    """Entropy sandwich for a free family of n variables.

    ``alphas`` are the per-variable dimensions, ``beta`` their sum; the
    bounds are sum(E_i) + K1 and sum(E_i) + K2.
    """

    __slots__ = ("alphas", "beta", "k1", "k2", "lower", "upper", "energies")


def free_hausdorff_dimension(measure: SpectralMeasure) -> float:
    """alpha = 1 - sum of squared atom weights (1 for diffuse measures).

    Only explicitly represented atoms count; mass in a truncated family
    tail shifts the true value down by at most
    ``dimension_truncation_bound(measure)``.
    """
    return 1.0 - math.fsum(a.weight * a.weight for a in measure.atoms)


def dimension_truncation_bound(measure: SpectralMeasure) -> float:
    """Upper bound on the dimension mass missed by tail truncation.

    The dropped atoms' squared weights sum to at most the squared tail
    mass, so the true dimension lies within [alpha - bound, alpha].
    """
    return measure.truncated_tail ** 2


def chi(measure: SpectralMeasure) -> float:
    """Free entropy: full-plane log energy plus 3/4 + (1/2) log(2 pi).

    Any atomic mass (including a truncated family tail) makes the
    diagonal contribute weight^2 * log 0, so the result is -inf without
    computing an energy.  An atomless measure's energy is closed form
    with status "ok", so chi needs no status of its own.
    """
    if measure.atoms or measure.truncated_tail > 0.0:
        return -math.inf
    return offdiag_energy(measure).value + CHI_SHIFT


def h1_identity(measure: SpectralMeasure) -> float:
    """Exact dimension-one entropy: chi + (1/2) log(2 / (pi e)).

    For atomless measures this is the exact free Hausdorff entropy at
    exponent 1 and must fall inside the sandwich of
    ``hausdorff_entropy_bounds``; with atoms it is -inf like chi.
    """
    return chi(measure) + DIM_ONE_SHIFT


def sandwich_width(alpha: float) -> float:
    """upper - lower = K2 - K1 of the one-variable family of ``alpha``."""
    k1, k2 = family_constants((alpha,))
    return k2 - k1


def hausdorff_entropy_bounds(measure: SpectralMeasure) -> EntropyBounds:
    """Sandwich the exponent-alpha free Hausdorff entropy: a family of 1."""
    family = free_family_bounds([measure])
    return EntropyBounds(alpha=family.beta, energy=family.energies[0],
                         lower=family.lower, upper=family.upper)


def family_constants(alphas: Sequence[float]) -> tuple[float, float]:
    """(K1, K2) for a family with the given per-variable dimensions."""
    n = len(alphas)
    beta = math.fsum(alphas)
    k1 = -0.5 * n * (math.log(288.0) + 1.0) + 0.75 * n - beta * math.log(2.0)
    k2 = n * math.log(16.0 * math.sqrt(n)) + 0.25 * n
    return k1, k2


def free_family_bounds(measures: Iterable[SpectralMeasure]) -> FamilyBounds:
    """Entropy sandwich for n jointly free variables.

    Freeness is the caller's assertion; the computation only needs the
    marginal measures.  ``hausdorff_entropy_bounds`` is its n = 1 case,
    so the two agree to the bit.
    """
    measures = list(measures)
    if not measures:
        raise ValueError("free_family_bounds needs at least one measure")
    alphas = tuple(free_hausdorff_dimension(m) for m in measures)
    energies = tuple(offdiag_energy(m) for m in measures)
    k1, k2 = family_constants(alphas)
    e_sum = math.fsum(r.value for r in energies)
    return FamilyBounds(alphas=alphas, beta=math.fsum(alphas),
                        energies=energies, k1=k1, k2=k2,
                        lower=e_sum + k1, upper=e_sum + k2)
