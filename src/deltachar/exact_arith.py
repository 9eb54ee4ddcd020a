"""Exact arithmetic substrate: localized rationals and their p-adic residues.

Everything in this package computes with exact integers and rationals for as
long as possible; reduction modulo a prime power happens once, at the end of a
computation.  This module provides the shared pieces: prime sets, p-adic
valuations and locality checks, reduction of a rational mod p**precision,
the precision budget of every logarithm series, and rational reconstruction
from residues at several primes.  Z_p itself is cyclotomic.PadicCyclotomic
at m = 1, which also holds the p-adic logarithm and quadratic Hensel lifting
(this module cannot import cyclotomic).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rational = Union[int, Fraction]


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class NotPLocalError(DomainError):
    """A rational has one of the working primes in its denominator."""


class NonUnitError(DomainError):
    """Inversion was requested for a non-unit."""


class ExactDivisionError(ArithmeticError):
    """Division that was promised to be exact left a remainder."""


def _json_int(value) -> int:
    """An integer JSON field (an int or a string of one), never a float or bool."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DomainError("%r is not an integer" % (value,))
    return int(value)


def _json_fraction(row, field: str) -> Fraction:
    """A JSON row's "num" and "den" integer fields as a Fraction; a zero
    denominator is a DomainError that names the field the row is in."""
    num, den = _json_int(row["num"]), _json_int(row["den"])
    if not den:
        raise DomainError("a %s term has denominator 0" % field)
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# primality / prime sets
# ---------------------------------------------------------------------------

# Deterministic Miller-Rabin witnesses: valid for all n < 3.3 * 10^24
# (Sorenson & Webster), which comfortably covers the 64-bit range we promise.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**64."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeSet(tuple):
    """A strictly increasing tuple of distinct odd primes.

    The whole calculus runs relative to such a family; 2 is excluded so that
    the standard uniformizer conventions for elliptic curves stay invertible.
    """

    def __new__(cls, primes: Iterable[int]) -> "PrimeSet":
        ps = tuple(primes)
        if not ps:
            raise DomainError("a prime set must contain at least one prime")
        for p in ps:
            # type, not int(): a float or bool prime would be truncated
            if type(p) is not int:
                raise DomainError("%r is not an integer" % (p,))
            if p == 2:
                raise DomainError("2 is not admitted in a prime set")
            if not is_prime(p):
                raise DomainError("%d is not prime" % p)
        if any(a >= b for a, b in zip(ps, ps[1:])):
            raise DomainError("primes must be strictly increasing")
        return super().__new__(cls, ps)

    def index_of(self, p: int) -> int:
        try:
            return self.index(p)
        except ValueError:
            raise DomainError("%d is not in the prime set %s" % (p, self))


# ---------------------------------------------------------------------------
# valuations and locality
# ---------------------------------------------------------------------------

def vp(x: Rational, p: int) -> Union[int, float]:
    """p-adic valuation of an int or Fraction; vp(0) = +infinity."""
    if type(x) is int:
        n, d = x, 1
    else:
        x = _rational(x)
        n, d = x.numerator, x.denominator
    if not n:
        return math.inf
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def is_p_local(x: Rational, primes: Iterable[int]) -> bool:
    """True when no prime of the family divides the denominator of x."""
    d = _rational(x).denominator
    return all(d % p != 0 for p in primes)


def ensure_p_local(x: Rational, primes: Iterable[int]) -> Fraction:
    x = Fraction(_rational(x))
    if not is_p_local(x, primes):
        raise NotPLocalError("%s is not integral at the primes %s" % (x, tuple(primes)))
    return x


def smooth_exponents(n: int, primes: Sequence[int]) -> Optional[tuple]:
    """Exponent vector of n over the prime set, or None if n is not smooth.

    smooth_exponents(45, (3, 5)) == (2, 1); smooth_exponents(7, (3, 5)) is None.
    """
    if n < 1:
        return None
    exps = []
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        exps.append(e)
    return tuple(exps) if n == 1 else None


# ---------------------------------------------------------------------------
# p-adic residues and logarithm budgets
# ---------------------------------------------------------------------------

def _is_rational(x) -> bool:
    """Whether x is an int or a Fraction; a bool, float or str is not."""
    return type(x) is int or isinstance(x, Fraction)


def _rational(x) -> Rational:
    """x itself when _is_rational(x), else a DomainError."""
    if not _is_rational(x):
        raise DomainError("%r is neither an int nor a Fraction" % (x,))
    return x


def fraction_mod(x: Rational, p: int, precision: int) -> int:
    """Reduce a p-integral int or Fraction modulo p**precision."""
    _rational(x)
    modulus = p ** precision
    if x.denominator % p == 0:
        raise NotPLocalError("%s has %d in its denominator" % (x, p))
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def _ilog(n: int, p: int) -> int:
    """floor(log_p(n)) for n >= 1."""
    v = 0
    while n >= p:
        n //= p
        v += 1
    return v


def log_prefix(K: int, v: int, p: int) -> int:
    """The largest n >= 0 with n v - floor(log_p n) < K (v >= 1): how many
    leading terms of a logarithm-type series at valuation v can be nonzero
    mod p^K.

    Term j, c_j T^j with v_p(c_j) >= -v_p(j) >= -floor(log_p j), has
    valuation at least f(j) = j v - floor(log_p j) at T of valuation v.
    f never decreases: j + 1 <= p j, so floor(log_p) grows by at most 1
    from j to j + 1 while j v grows by v >= 1.  The j with f(j) < K are
    thus 1..n, every later term vanishes mod p^K, and f(j) <= j v makes
    floor((K - 1)/v) a lower bound to count up from.
    """
    n = (K - 1) // v
    while (n + 1) * v - _ilog(n + 1, p) < K:
        n += 1
    return n


def log_budget(precision: int, primes: Sequence[int]) -> int:
    """The order of a logarithm that gives (1/p) l(x) mod p**precision at
    each prime from x mod p**(precision + 1).

    For a logarithm l = sum c_n x^n (v_p(c_n) >= -v_p(n)) and v_p(x) >= 1,
    term n has valuation >= n - floor(log_p n), nondecreasing in n and in p,
    as in Mazur-Stein-Tate (2006).  The order is `log_prefix` at v = 1,
    K = precision + 1 and the smallest prime, so later terms vanish mod
    p**(precision + 1) at every prime.  The divisions by n spend no digit
    of x: l(x) mod p^K depends only on x mod p^K
    (`evaluation._series_value`).
    """
    return log_prefix(precision + 1, 1, min(primes))


# ---------------------------------------------------------------------------
# rational reconstruction
# ---------------------------------------------------------------------------

def rational_reconstruct(components, bound: int) -> Optional[Fraction]:
    """Recover a small rational from its residues at several primes.

    The components are cyclotomic.PadicCyclotomic values, one per prime; a
    component with a nonzero zeta part is not rational, and gives None.
    Combines their constant coefficients by CRT to a single residue r mod M,
    then walks the extended-Euclid remainder sequence of (M, r); each step
    yields a pair (n, d) with n = d*r (mod M).  Among the pairs with
    |n| <= bound, 0 < |d| <= bound, gcd(n, d) = 1 and d a unit at every
    component prime, the one of smallest height max(|n|, |d|) is returned;
    None if there is none.  The bound is first lowered to isqrt((M-1)/2):
    two such pairs give n*d' = n'*d (mod M) with |n*d' - n'*d| <=
    2*bound^2 < M, so they are equal and a fraction below it is unique
    (Wang, Guy and Davenport, 1982), while by Thue's lemma nearly every
    residue has a pair of height about sqrt(M).
    """
    if bound < 1:
        raise DomainError("bound must be positive")
    seen = set()
    modulus = 1
    value = 0
    for c in components:
        if c.p in seen:
            raise DomainError("duplicate prime %d in components" % c.p)
        seen.add(c.p)
        if any(c.coeffs[1:]):
            return None
        m = c.modulus
        # CRT: value mod modulus, c.coeffs[0] mod m
        g = pow(modulus, -1, m)
        value = value + modulus * ((c.coeffs[0] - value) * g % m)
        modulus *= m
    value %= modulus
    if value == 0:
        return Fraction(0)
    bound = min(bound, math.isqrt((modulus - 1) // 2))

    primes = [c.p for c in components]
    best = None
    r0, r1 = modulus, value
    t0, t1 = 0, 1
    while r1 != 0:
        n, d = r1, t1
        if d < 0:
            n, d = -n, -d
        if (d != 0 and abs(n) <= bound and d <= bound and math.gcd(n, d) == 1
                and all(d % p for p in primes)):
            height = max(abs(n), d)
            if best is None or height < best[0]:
                best = (height, Fraction(n, d))
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return None if best is None else best[1]
