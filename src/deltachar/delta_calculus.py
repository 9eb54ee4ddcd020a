"""Fermat-quotient operators and their commutation calculus.

For an odd prime p the operator delta_p a = (a - a^p)/p measures the failure
of Fermat's little theorem; phi_p(a) = a^p + p delta_p(a) is the attached
Frobenius lift (the identity on rationals).  Two such operators at different
primes do not commute on a general ring; their commutator is controlled by a
universal integer polynomial in three variables, built here from the binomial
carry polynomial C_p(X, Y) = (X^p + Y^p - (X+Y)^p)/p.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact_arith import (DomainError, ExactDivisionError, Rational, _rational,
                          ensure_p_local, is_prime)
from .polys import MPoly


def fermat_quotient(a: Rational, p: int) -> Fraction:
    """delta_p a = (a - a^p)/p on rationals integral at p."""
    a = ensure_p_local(a, (p,))
    return (a - a ** p) / p


def iterated_delta(a: Rational, primes, exponents) -> Fraction:
    """Apply the normally ordered word delta_{p_1}^{e_1} ... delta_{p_d}^{e_d}.

    The operators at different primes do not commute (their commutator is the
    polynomial below), so the order is part of the contract: the word is read
    as composition, i.e. delta at the *last* prime of the family acts first
    and delta at the first prime acts last.
    """
    if len(primes) != len(exponents):
        raise DomainError("exponent vector does not match the prime set")
    x = Fraction(_rational(a))
    for p, e in reversed(list(zip(primes, exponents))):
        for _ in range(e):
            x = fermat_quotient(x, p)
    return x


@lru_cache(maxsize=None)
def cp_polynomial(p: int) -> MPoly:
    """C_p(X, Y) = (X^p + Y^p - (X+Y)^p)/p, an integer polynomial.

    This is the additivity defect of delta_p: delta_p(a+b) - delta_p(a)
    - delta_p(b) = C_p(a, b) in any ring carrying the operator.
    """
    if not is_prime(p):
        raise DomainError("%d is not prime" % p)
    coeffs = {}
    for k in range(1, p):
        c = -(math.comb(p, k) // p)
        if math.comb(p, k) % p != 0:
            raise ExactDivisionError("binomial(%d, %d) not divisible by %d" % (p, k, p))
        coeffs[(("X", k), ("Y", p - k))] = Fraction(c)
    return MPoly(coeffs)


@lru_cache(maxsize=None)
def commutator_polynomial(p1: int, p2: int) -> MPoly:
    """The universal commutator polynomial for delta_{p1} and delta_{p2}.

    An integer polynomial C in X0, X1, X2 such that in every ring with
    commuting Frobenius lifts at p1 and p2,

        delta_{p1} delta_{p2} a - delta_{p2} delta_{p1} a
            = C(a, delta_{p1} a, delta_{p2} a).

    It is assembled from the carry polynomial evaluated on Frobenius images:

        C = C_{p2}(X0^{p1}, p1 X1)/p1 - C_{p1}(X0^{p2}, p2 X2)/p2
            - (delta_{p1} p2 / p2) X2^{p1} + (delta_{p2} p1 / p1) X1^{p2}

    and all divisions are exact, so the result has integer coefficients.
    """
    if p1 == p2:
        raise DomainError("commutator needs two distinct primes")
    for p in (p1, p2):
        if p == 2 or not is_prime(p):
            raise DomainError("%d is not an odd prime" % p)
    x0 = MPoly.variable("X0")
    x1 = MPoly.variable("X1")
    x2 = MPoly.variable("X2")
    first = cp_polynomial(p2).substitute({"X": x0 ** p1, "Y": p1 * x1}) / p1
    second = cp_polynomial(p1).substitute({"X": x0 ** p2, "Y": p2 * x2}) / p2
    c = (first - second
         - (fermat_quotient(p2, p1) / p2) * x2 ** p1
         + (fermat_quotient(p1, p2) / p1) * x1 ** p2)
    if not c.is_integral():
        raise ExactDivisionError(
            "commutator polynomial for (%d, %d) is not integral" % (p1, p2))
    return c
