"""Fermat-quotient calculus over several primes.

The package computes with the operators delta_p a = (a - a^p)/p attached to a
finite family of odd primes: their commutation calculus, jet rings of
delta-polynomials, formal group logarithms for the multiplicative group and
for elliptic curves, the delta-characters built from Euler-factor symbols,
and the p-adic evaluation of those characters (whose kernels cut out torsion).
"""

__version__ = "0.1.0"

from .exact_arith import (  # noqa: F401
    DomainError,
    ExactDivisionError,
    NonUnitError,
    NotPLocalError,
    PrimeSet,
    fraction_mod,
    is_p_local,
    is_prime,
    rational_reconstruct,
    vp,
)
from .cyclotomic import hensel_quadratic_root, padic_log  # noqa: F401
from .characters import (  # noqa: F401
    Character,
    SymbolPoly,
    build_elliptic_character,
    build_ga_character,
    build_gm_character,
    character_from_json_dict,
    check_additivity,
    continuation_criterion,
    decompose_over_fundamental,
    honda_integrality_check,
    symbol_of_character,
)
from .evaluation import (  # noqa: F401
    AdelePoint,
    EvaluationResult,
    continuation_witness,
    evaluate,
    gm_closed_form,
    torsion_test,
)
