"""Cyclotomic integers with Frobenius lifts and their Fermat-quotient operators.

Z[zeta_m] is presented as Z[x]/(Phi_m(x)) on the power basis; for a prime p
coprime to m the Galois substitution zeta -> zeta^p is a Frobenius lift
(it reduces to the p-power map mod p), so delta_p a = (sigma_p a - a^p)/p
stays inside the ring.  Lifts at different primes commute, which makes the
ring a natural home for the whole operator family at once.

One dense kernel acts on integer lists: Q(zeta_m) (CyclotomicElement) is an
integer vector over one denominator, Z_p[zeta_m] (PadicCyclotomic) a vector
of residues mod p**precision, and Z_p is PadicCyclotomic at m = 1, with
`padic_log` and the small root of x^2 - a x + p (`hensel_quadratic_root`).
Both multiply by folding the product's top slots with the rows x^k mod
Phi_m (`_power_rows`, which also give the Galois action) and invert
through the Galois group: a * adj(a) = N(a), adj(a) the product of the
conjugates sigma_j(a), j != 1, and N(a) an integer.  Over Z_p, a is a
unit exactly when N(a) is, also when p splits: Z_p[zeta_m] is then a
product of local rings, and N(a) is the product of the local norms.
A power series with integer coefficients is summed at an element on the
same kernel, by baby-step giant-step (`_series_mod`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .delta_calculus import commutator_polynomial, cp_polynomial
from .exact_arith import (
    DomainError,
    ExactDivisionError,
    NonUnitError,
    NotPLocalError,
    PrimeSet,
    Rational,
    _is_rational,
    _rational,
    fraction_mod,
    log_prefix,
    vp,
)

# ---------------------------------------------------------------------------
# dense univariate polynomial helpers (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _trim(c: List) -> List:
    while c and not c[-1]:
        c.pop()
    return c


def _poly_divmod_monic(a: Sequence, b: Sequence) -> Tuple[List, List]:
    """Divide by a monic polynomial; exact in any coefficient ring."""
    a = list(a)
    db = len(b) - 1
    if b[-1] != 1:
        raise DomainError("divisor must be monic")
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - db - 1, -1, -1):
        coef = a[i + db]
        if coef:
            q[i] = coef
            for j in range(db + 1):
                a[i + j] -= coef * b[j]
    return _trim(q), _trim(a[:db])


def _mulmod(a, b, phi, modulus=None):
    """a*b mod phi = Phi_m, on lists of length d = deg(phi), reduced mod
    `modulus` when it is given: the schoolbook product in 2d - 1 slots
    (d(d+1)/2 products when a is b), slot k >= d folded down with the row
    x^k = x^(k mod m) of `_power_rows`, then one `% modulus` per slot."""
    d = len(a)
    if d == 1:
        c = a[0] * b[0]
        return [c if modulus is None else c % modulus]
    prod = [0] * (2 * d - 1)
    if a is b:
        for i, ai in enumerate(a):
            if ai:
                prod[2 * i] += ai * ai
                ai += ai
                for j, aj in enumerate(a[i + 1:], 2 * i + 1):
                    prod[j] += ai * aj
    else:
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    prod[j] += ai * bj
    rows = _power_rows(phi)
    for k in range(d, 2 * d - 1):
        c = prod[k]
        if c:
            for i, r in rows[k % len(rows)]:
                prod[i] += c * r
    del prod[d:]
    return prod if modulus is None else [c % modulus for c in prod]


def _powmod(a, k, phi, modulus=None):
    """a**k mod phi, with the same coefficient rules as _mulmod: a new list,
    from the top bit of k down, bit_length + popcount - 2 _mulmod calls
    (bit_length - 1 of them squarings); at degree 1 the builtin pow."""
    if k == 0:
        return [1] + [0] * (len(a) - 1)
    if len(a) == 1:
        return [a[0] ** k if modulus is None else pow(a[0], k, modulus)]
    result = list(a) if modulus is None else [c % modulus for c in a]
    for bit in bin(k)[3:]:
        result = _mulmod(result, result, phi, modulus)
        if bit == "1":
            result = _mulmod(result, a, phi, modulus)
    return result


def _series_mod(ints, x, phi, modulus):
    """sum_{j>=1} ints[j-1] * x^j mod (phi, modulus), by baby-step giant-step
    (Paterson-Stockmeyer 1973): about 2 sqrt(n) multiply-reduces for n terms.

    `ints` are integers (the series coefficients, already reduced) and `x` is
    a coefficient list of length deg(phi).  x^1..x^k, k = isqrt(n), are
    formed once; each block of k terms is a sum of int multiples of them,
    reduced once, and Horner runs over the blocks with x^k.  An x with no
    zeta-part (every x at m = 1, and a rational point's parameter at any
    level) keeps the sum in Z: Horner runs on its constant coefficient in
    plain ints, and the result is padded back to deg(phi).
    """
    if not any(x[1:]):
        acc, x0 = 0, x[0]
        for c in reversed(ints):
            acc = (acc + c) * x0 % modulus
        return [acc] + [0] * (len(x) - 1)
    n = len(ints)
    k = math.isqrt(n) or 1
    powers = [None, x]                  # powers[r] = x^r
    for r in range(2, k + 1):
        powers.append(_mulmod(powers[r // 2], powers[r - r // 2], phi, modulus))
    acc = [0] * len(x)
    for i in reversed(range(0, n, k)):
        if i + k < n:
            acc = _mulmod(acc, powers[k], phi, modulus)
        for c, power in zip(ints[i:i + k], powers[1:]):
            acc = [s + c * e for s, e in zip(acc, power)]
        acc = [s % modulus for s in acc]
    return acc


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def euler_phi(m: int) -> int:
    if m < 1:
        raise DomainError("euler_phi needs a positive integer")
    result = m
    n, d = m, 2
    while d * d <= n:
        if n % d == 0:
            result -= result // d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        result -= result // n
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> Tuple[int, ...]:
    """Coefficients of Phi_m, computed by exact division of x^m - 1.

    x^m - 1 = prod_{d | m} Phi_d, so Phi_m is (x^m - 1) divided by the product
    of the proper-divisor factors; everything stays in Z[x] because each
    divisor is monic.
    """
    if m < 1:
        raise DomainError("cyclotomic index must be positive")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            q, r = _poly_divmod_monic(num, list(cyclotomic_polynomial(d)))
            if r:
                raise DomainError("cyclotomic division left a remainder at m=%d" % m)
            num = q
    return tuple(num)


class CyclotomicConfig:
    """The ambient data: index m, working primes, and Phi_m."""

    __slots__ = ("m", "primes", "phi", "degree")

    def __init__(self, m: int, primes: Sequence[int]):
        if m < 1:
            raise DomainError("m must be positive")
        self.m = m
        self.primes = PrimeSet(primes)
        for p in self.primes:
            if math.gcd(p, m) != 1:
                raise DomainError("prime %d divides the cyclotomic index %d" % (p, m))
        self.phi = cyclotomic_polynomial(m)
        self.degree = len(self.phi) - 1
        if self.degree != euler_phi(m):
            raise DomainError("degree mismatch for Phi_%d" % m)

    def __eq__(self, other):
        return (isinstance(other, CyclotomicConfig)
                and self.m == other.m and self.primes == other.primes)

    def __repr__(self):
        return "CyclotomicConfig(m=%d, primes=%s)" % (self.m, tuple(self.primes))


@lru_cache(maxsize=None)
def _power_rows(phi: Tuple[int, ...]) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """x^k mod phi = Phi_m for 0 <= k < m, as the (index, coefficient) pairs
    of its nonzero coefficients: x has order m, so the rows stop at the first
    k > 0 with x^k = 1, and row k mod m is x^k for every k >= 0."""
    deg = len(phi) - 1
    rows, cur = [], [1]
    while not rows or cur != [1]:
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        cur = [0] + cur
        if len(cur) > deg:
            _, cur = _poly_divmod_monic(cur, phi)
    return tuple(rows)


def _galois_image(config: CyclotomicConfig, coeffs: Sequence, j: int) -> list:
    """Power-basis coefficients of a(zeta^j), where a = sum_k coeffs[k] zeta^k."""
    if math.gcd(j, config.m) != 1:
        raise DomainError("%d is not coprime to %d" % (j, config.m))
    m = config.m
    rows = _power_rows(config.phi)
    out = [0] * config.degree
    for k, c in enumerate(coeffs):
        if c:
            for idx, r in rows[j * k % m]:
                out[idx] += c * r
    return out


def _norm_adjugate(config: CyclotomicConfig, coeffs: Sequence, modulus=None):
    """(adj, N) with a * adj = N, for a = sum_k coeffs[k] zeta^k.

    adj is the product of the conjugates sigma_j(a) over 1 < j < m coprime
    to m, so a * adj is the product over the whole Galois group: the norm N,
    an integer.  Exact, or with coefficients mod `modulus`.
    """
    adj = [1] + [0] * (config.degree - 1)
    for j in range(2, config.m):
        if math.gcd(j, config.m) == 1:
            adj = _mulmod(adj, _galois_image(config, coeffs, j), config.phi,
                          modulus)
    return adj, _mulmod(list(coeffs), adj, config.phi, modulus)[0]


def _unit_inverse(config: CyclotomicConfig, coeffs: Sequence, p: int,
                  precision: int) -> list:
    """The inverse of a in Z_p[zeta_m]/p^precision, as adj * N^-1."""
    modulus = p ** precision
    adj, norm = _norm_adjugate(config, coeffs, modulus)
    if norm % p == 0:
        raise NonUnitError("element is not a unit mod %d" % p)
    r = pow(norm, -1, modulus)
    return [c * r % modulus for c in adj]


def _element(config: CyclotomicConfig, num: Sequence[int], den: int
             ) -> "CyclotomicElement":
    """num/den in canonical form: den > 0 and gcd(den, *num) = 1."""
    g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
    x = object.__new__(CyclotomicElement)
    x.config, x.num, x.den = config, tuple([n // g for n in num]), den // g
    return x


class CyclotomicElement:
    """An element of Q(zeta_m): integer power-basis coefficients `num` over
    one positive denominator `den`, with gcd(den, *num) = 1 (zero is 0/1)."""

    __slots__ = ("config", "num", "den")

    def __init__(self, config: CyclotomicConfig, coeffs: Sequence):
        cs = [_rational(c) for c in coeffs]
        if len(cs) > config.degree:
            raise DomainError("too many coefficients for degree %d" % config.degree)
        # the lcm of reduced denominators leaves gcd(den, *num) = 1
        self.config, self.den = config, math.lcm(*[c.denominator for c in cs])
        self.num = tuple([c.numerator * (self.den // c.denominator) for c in cs]
                         + [0] * (config.degree - len(cs)))

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zeta(cls, config: CyclotomicConfig) -> "CyclotomicElement":
        """x mod Phi_m (so zeta_1 = 1 and zeta_2 = -1)."""
        return cls(config, _galois_image(config, (0, 1), 1))

    @classmethod
    def from_rational(cls, config: CyclotomicConfig, a) -> "CyclotomicElement":
        return cls(config, [a])

    # -- ring ops ---------------------------------------------------------
    def _coerce(self, other):
        """other in this field, or NotImplemented for an unsupported type."""
        if isinstance(other, CyclotomicElement):
            if other.config.m != self.config.m:
                raise DomainError("mixed cyclotomic indices %d, %d"
                                  % (self.config.m, other.config.m))
            return other
        if _is_rational(other):
            return CyclotomicElement.from_rational(self.config, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b = self.den, o.den
        return _element(self.config,
                        [x * b + y * a for x, y in zip(self.num, o.num)], a * b)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.config, [-x for x in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o + (-self)

    def __mul__(self, other):
        if _is_rational(other):
            return _element(self.config, [x * other.numerator for x in self.num],
                            self.den * other.denominator)
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return _element(self.config, _mulmod(self.num, o.num, self.config.phi),
                        self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_rational(other):
            return self * (1 / Fraction(other))
        o = self._coerce(other)
        return o if o is NotImplemented else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return _element(self.config, _powmod(self.num, k, self.config.phi),
                        self.den ** k)

    def __eq__(self, other):
        if _is_rational(other):
            other = CyclotomicElement.from_rational(self.config, other)
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        return (self.config.m == other.config.m and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.config.m, self.num, self.den))

    def is_zero(self) -> bool:
        return not any(self.num)

    def inverse(self) -> "CyclotomicElement":
        """den * adj(num) / N(num), from num * adj(num) = N(num) != 0."""
        if self.is_zero():
            raise NonUnitError("0 is not invertible")
        adj, norm = _norm_adjugate(self.config, self.num)
        return _element(self.config, [c * self.den for c in adj], norm)

    # -- Frobenius / delta structure ---------------------------------------
    def galois(self, j: int) -> "CyclotomicElement":
        """The automorphism zeta -> zeta^j for j coprime to m."""
        return _element(self.config, _galois_image(self.config, self.num, j),
                        self.den)

    def frobenius(self, p: int) -> "CyclotomicElement":
        """The Frobenius lift at p (Galois action zeta -> zeta^p)."""
        return self.galois(p)

    def is_p_local(self, primes=None) -> bool:
        ps = self.config.primes if primes is None else tuple(primes)
        return all(self.den % p for p in ps)

    def delta(self, p: int) -> "CyclotomicElement":
        """delta_p a = (frobenius_p(a) - a^p)/p; stays p-integral when a is."""
        if not self.is_p_local((p,)):
            raise NotPLocalError("element is not integral at %d" % p)
        return (self.frobenius(p) - self ** p) / p

    def __repr__(self):
        return "CyclotomicElement(m=%d, %s)" % (self.config.m, list(self.coeffs))


# ---------------------------------------------------------------------------
# p-adic model
# ---------------------------------------------------------------------------

class PadicCyclotomic:
    """Z_p[zeta_m] truncated at p**precision, on the power basis mod Phi_m.

    p must be coprime to m, so p is unramified and an element is divisible by
    p exactly when all its basis coefficients are.  Coefficients are ints or
    p-integral Fractions, reduced mod p**precision on construction; any other
    type is refused.
    """

    __slots__ = ("config", "p", "precision", "coeffs")

    def __init__(self, config: CyclotomicConfig, p: int, precision: int,
                 coeffs: Sequence):
        if math.gcd(p, config.m) != 1:
            raise DomainError("prime %d divides the cyclotomic index" % p)
        if precision < 1:
            raise DomainError("precision must be at least 1")
        self.config = config
        self.p = p
        self.precision = precision
        modulus = p ** precision
        cs = [c % modulus if type(c) is int else fraction_mod(c, p, precision)
              for c in coeffs]
        if len(cs) > config.degree:
            raise DomainError("too many coefficients")
        cs += [0] * (config.degree - len(cs))
        self.coeffs = tuple(cs)

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_cyclotomic(cls, x: CyclotomicElement, p: int, precision: int
                        ) -> "PadicCyclotomic":
        """x mod p**precision, by one inverse of its denominator."""
        if x.den % p == 0:
            raise NotPLocalError("%r has %d in its denominator" % (x, p))
        r = pow(x.den, -1, p ** precision)
        return cls(x.config, p, precision, [n * r for n in x.num])

    @classmethod
    def from_rational(cls, config: CyclotomicConfig, a, p: int, precision: int
                      ) -> "PadicCyclotomic":
        return cls(config, p, precision, [a])

    @classmethod
    def zero(cls, config, p, precision):
        return cls(config, p, precision, [])

    @classmethod
    def one(cls, config, p, precision):
        return cls(config, p, precision, [1])

    @property
    def modulus(self) -> int:
        return self.p ** self.precision

    @property
    def residue(self) -> int:
        """The value in [0, p**precision) of an element of Z_p (degree 1)."""
        if self.config.degree != 1:
            raise DomainError("an element of degree %d has no single residue"
                              % self.config.degree)
        return self.coeffs[0]

    # -- ring ops -----------------------------------------------------------
    def _align(self, other):
        """other in this ring, or NotImplemented for an unsupported type."""
        if _is_rational(other):
            return PadicCyclotomic.from_rational(self.config, other, self.p,
                                                 self.precision)
        if not isinstance(other, PadicCyclotomic):
            return NotImplemented
        if other.p != self.p or other.config.m != self.config.m:
            raise DomainError("mixed p-adic cyclotomic rings")
        return other

    def __add__(self, other):
        o = self._align(other)
        if o is NotImplemented:
            return o
        return PadicCyclotomic(self.config, self.p, min(self.precision, o.precision),
                               [x + y for x, y in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return PadicCyclotomic(self.config, self.p, self.precision,
                               [-x for x in self.coeffs])

    def __sub__(self, other):
        o = self._align(other)
        if o is NotImplemented:
            return o
        return PadicCyclotomic(self.config, self.p, min(self.precision, o.precision),
                               [x - y for x, y in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._align(other)
        return o if o is NotImplemented else o - self

    def __mul__(self, other):
        if type(other) is int:
            return PadicCyclotomic(self.config, self.p, self.precision,
                                   [x * other for x in self.coeffs])
        if isinstance(other, Fraction):
            return self.times_rational(other)
        o = self._align(other)
        if o is NotImplemented:
            return o
        return PadicCyclotomic(self.config, self.p, min(self.precision, o.precision),
                               _mulmod(self.coeffs, o.coeffs, self.config.phi))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return PadicCyclotomic(self.config, self.p, self.precision,
                               _powmod(self.coeffs, k, self.config.phi,
                                       self.modulus))

    def __eq__(self, other):
        if _is_rational(other):
            other = PadicCyclotomic.from_rational(
                self.config, other, self.p, self.precision)
        if not isinstance(other, PadicCyclotomic):
            return NotImplemented
        if other.p != self.p or other.config.m != self.config.m:
            return False
        q = self.p ** min(self.precision, other.precision)
        return all(x % q == y % q for x, y in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def times_rational(self, c) -> "PadicCyclotomic":
        r = fraction_mod(c, self.p, self.precision)
        return PadicCyclotomic(self.config, self.p, self.precision,
                               [x * r for x in self.coeffs])

    # -- p-adic structure ----------------------------------------------------
    def min_valuation(self):
        """min coefficient valuation; infinity when indistinguishable from 0."""
        if self.is_zero():
            return math.inf
        return min(vp(math.gcd(*self.coeffs), self.p), self.precision)

    def divide_by_prime_power(self, s: int) -> "PadicCyclotomic":
        if s == 0:
            return self
        ps = self.p ** s
        if any(c % ps for c in self.coeffs):
            raise DomainError("element is not divisible by %d^%d" % (self.p, s))
        if self.precision - s < 1:
            raise DomainError("no precision left")
        return PadicCyclotomic(self.config, self.p, self.precision - s,
                               [c // ps for c in self.coeffs])

    def reduce_to(self, precision: int) -> "PadicCyclotomic":
        if precision > self.precision:
            raise DomainError("cannot gain precision")
        return PadicCyclotomic(self.config, self.p, precision, self.coeffs)

    def is_unit(self) -> bool:
        """Whether the norm N(a) is prime to p."""
        return _norm_adjugate(self.config, self.coeffs, self.p)[1] % self.p != 0

    def inverse(self) -> "PadicCyclotomic":
        """adj(a) * N(a)^-1, from a * adj(a) = N(a); a must be a unit.

        N(a) is a unit exactly when a is, whether p is inert or splits.
        """
        return PadicCyclotomic(self.config, self.p, self.precision,
                               _unit_inverse(self.config, self.coeffs, self.p,
                                             self.precision))

    def __truediv__(self, other):
        if _is_rational(other):
            return self.times_rational(1 / Fraction(other))
        o = self._align(other)
        return o if o is NotImplemented else self * o.inverse()

    # -- Frobenius / delta ---------------------------------------------------
    def frobenius(self, p: int = None) -> "PadicCyclotomic":
        """Galois substitution zeta -> zeta^q; defaults to the ring prime.
        The identity when q = 1 mod m (every q at m = 1)."""
        q = self.p if p is None else p
        if q % self.config.m == 1 % self.config.m:
            return self
        return PadicCyclotomic(self.config, self.p, self.precision,
                               _galois_image(self.config, self.coeffs, q))

    def delta(self) -> "PadicCyclotomic":
        """delta_p at the ring prime; costs one digit of precision."""
        return (self.frobenius() - self ** self.p).divide_by_prime_power(1)

    def __repr__(self):
        return ("PadicCyclotomic(m=%d, %d^%d: %s)"
                % (self.config.m, self.p, self.precision, list(self.coeffs)))


def _zp(p: int, precision: int, value: Rational) -> PadicCyclotomic:
    """value in Z_p mod p**precision: a PadicCyclotomic at m = 1."""
    return PadicCyclotomic(CyclotomicConfig(1, (p,)), p, precision, [value])


def padic_log(u: PadicCyclotomic) -> PadicCyclotomic:
    """Logarithm of a 1-unit of Z_p: log(u) = sum (-1)^(n-1) (u-1)^n / n.

    Requires u = 1 (mod p).  Partial sums are accumulated as exact rationals
    (so division by n is exact) and reduced once at the end; the tail is cut
    where every remaining term vanishes modulo p**(precision + 1)
    (`log_prefix` at valuation 1).
    """
    p, prec = u.p, u.precision
    if u.residue % p != 1 % p:
        raise DomainError("padic_log needs a 1-unit, got %r" % u)
    t = u.residue - 1
    if t == 0:
        return PadicCyclotomic.zero(u.config, p, prec)
    total = Fraction(0)
    tn = 1
    for n in range(1, log_prefix(prec + 1, 1, p) + 1):
        tn *= t
        total += Fraction((-1) ** (n - 1) * tn, n)
    return PadicCyclotomic(u.config, p, prec, [total])


def hensel_quadratic_root(a: Rational, p: int, precision: int) -> PadicCyclotomic:
    """The root of x^2 - a x + p lying in p Z_p, to the requested precision.

    Requires a to be a p-unit (then the two roots split as one unit root and
    one root divisible by p, and Newton iteration from x = 0 converges).
    """
    a0 = fraction_mod(a, p, precision)
    if a0 % p == 0:
        raise NonUnitError("x^2 - %s x + %d has no simple root at x = 0 (mod %d)"
                           % (a, p, p))
    x = 0
    prec = 1
    while prec < precision:
        prec = min(2 * prec, precision)
        modulus = p ** prec
        fx = (x * x - a0 * x + p) % modulus
        dfx = (2 * x - a0) % modulus
        x = (x - fx * pow(dfx, -1, modulus)) % modulus
    if x % p != 0:
        raise ExactDivisionError("Newton iteration left the small root branch")
    return _zp(p, precision, x)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

def _delta_of(x, p):
    if isinstance(x, CyclotomicElement):
        return x.delta(p)
    from .delta_calculus import fermat_quotient
    return fermat_quotient(x, p)


def check_delta_ring_axioms(pairs, primes) -> Dict:
    """Verify the defining identities of the operator family on sample pairs.

    For every pair (a, b) and primes p != q of the family this checks, with
    exact arithmetic:

      sum rule        delta_p(a+b) = delta_p a + delta_p b + C_p(a, b)
      product rule    delta_p(ab)  = a^p delta_p b + b^p delta_p a
                                     + p delta_p a delta_p b
      commutation     delta_p delta_q a - delta_q delta_p a
                                   = C_{p,q}(a, delta_p a, delta_q a)

    Returns a report dict; failures (if any) are collected, not raised.
    """
    primes = PrimeSet(primes)
    failures = []
    checked = 0
    for a, b in pairs:
        for p in primes:
            da, db = _delta_of(a, p), _delta_of(b, p)
            lhs = _delta_of(a + b, p)
            rhs = da + db + cp_polynomial(p).evaluate({"X": a, "Y": b})
            if lhs != rhs:
                failures.append(("sum", p, a, b))
            lhs = _delta_of(a * b, p)
            rhs = a ** p * db + b ** p * da + p * da * db
            if lhs != rhs:
                failures.append(("product", p, a, b))
            checked += 2
        for i, p in enumerate(primes):
            for q in primes[i + 1:]:
                da, dq = _delta_of(a, p), _delta_of(a, q)
                lhs = _delta_of(dq, p) - _delta_of(da, q)
                rhs = commutator_polynomial(p, q).evaluate(
                    {"X0": a, "X1": da, "X2": dq})
                if lhs != rhs:
                    failures.append(("commutation", (p, q), a, None))
                checked += 1
    return {"samples": checked, "failures": failures, "ok": not failures}
