"""Weierstrass curves: group law, point counts, L-series coefficients.

Curves are given by y^2 + c1 xy + c3 y = x^3 + c2 x^2 + c4 x + c6 with
rational coefficients.  Point arithmetic on `CurvePoint` is exact and generic
over the coordinate field — rationals or cyclotomic elements.  The evaluation
pipeline does not use it to reach the kernel of reduction: it scales a point
by the point count of its residue field in E(Z_p[zeta_m]/p^K) with
`_scaled_parameter`, whose cost does not grow with the height of the
scaled point; the exact group law stays as the reference it is tested
against.  That scaling has one copy of the projective formulas: a rational
point runs them on plain ints mod p^K, a point over Q(zeta_m) on coefficient
lists in each local factor, and both give the same residues.  Counting over
F_p completes the square (legitimate for odd p) and looks each value up in a
table of square roots mod p; the test suite recounts by brute enumeration.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Union

from .cyclotomic import (
    CyclotomicConfig,
    CyclotomicElement,
    PadicCyclotomic,
    _galois_image,
    _mulmod,
    _powmod,
    _unit_inverse,
    euler_phi,
)
from .exact_arith import (
    DomainError,
    _is_rational,
    _rational,
    fraction_mod,
    is_prime,
    vp,
)

Coord = Union[Fraction, CyclotomicElement]

NAMED_CURVES = {
    "11a": (0, -1, 1, 0, 0),
    "37a": (0, 0, 1, -1, 0),
}


class SingularCurveError(DomainError):
    """The Weierstrass equation defines a singular (non-elliptic) curve."""


class BadReductionError(DomainError):
    """An operation required good (or ordinary) reduction at p."""


class WeierstrassCurve:
    """An elliptic curve y^2 + c1 xy + c3 y = x^3 + c2 x^2 + c4 x + c6 over Q."""

    __slots__ = ("c1", "c2", "c3", "c4", "c6", "_b", "_discriminant",
                 "_denominators", "_ap")

    def __init__(self, c1, c2, c3, c4, c6):
        c1, c2, c3, c4, c6 = (Fraction(_rational(c))
                              for c in (c1, c2, c3, c4, c6))
        self.c1, self.c2, self.c3, self.c4, self.c6 = c1, c2, c3, c4, c6
        b2, b4, b6 = c1 * c1 + 4 * c2, 2 * c4 + c1 * c3, c3 * c3 + 4 * c6
        b8 = c1 * c1 * c6 + 4 * c2 * c6 - c1 * c3 * c4 + c2 * c3 * c3 - c4 * c4
        self._b = (b2, b4, b6, b8)
        self._discriminant = (-b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6
                              + 9 * b2 * b4 * b6)
        if self._discriminant == 0:
            raise SingularCurveError("discriminant vanishes")
        self._denominators = math.prod(c.denominator for c in self.coefficients())
        self._ap = {}               # a_p by validated prime (count_points_ap)

    @classmethod
    def from_label(cls, label: str) -> "WeierstrassCurve":
        if label not in NAMED_CURVES:
            raise DomainError("unknown curve label %r (have %s)"
                              % (label, sorted(NAMED_CURVES)))
        return cls(*NAMED_CURVES[label])

    def coefficients(self):
        return (self.c1, self.c2, self.c3, self.c4, self.c6)

    def b_invariants(self):
        """(b2, b4, b6, b8), computed once in __init__."""
        return self._b

    def discriminant(self) -> Fraction:
        return self._discriminant

    def __eq__(self, other):
        return (isinstance(other, WeierstrassCurve)
                and self.coefficients() == other.coefficients())

    def __repr__(self):
        return "WeierstrassCurve%s" % (tuple(map(str, self.coefficients())),)

    # -- reduction ---------------------------------------------------------
    def has_integral_reduction(self, p: int) -> bool:
        """Whether the prime p divides no coefficient denominator."""
        return self._denominators % p != 0

    def is_good(self, p: int) -> bool:
        if not self.has_integral_reduction(p):
            raise DomainError("curve is not p-integral at %d" % p)
        return vp(self._discriminant, p) == 0

    # -- points -------------------------------------------------------------
    def infinity(self) -> "CurvePoint":
        return CurvePoint(self, None, None)

    def point(self, x, y) -> "CurvePoint":
        return CurvePoint(self, x, y)

    def equation_value(self, x: Coord, y: Coord):
        c1, c2, c3, c4, c6 = self.coefficients()
        return (y * y + c1 * x * y + c3 * y
                - (x ** 3 + c2 * x * x + c4 * x + c6))


class CurvePoint:
    """A point on a Weierstrass curve; coordinates exact, both in Q or both
    in one Q(zeta_m)."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: WeierstrassCurve, x, y):
        self.curve = curve
        if x is None:
            self.x = self.y = None
            return
        if _is_rational(x) and _is_rational(y):
            x, y = Fraction(x), Fraction(y)
        elif not all(_is_rational(c) or isinstance(c, CyclotomicElement)
                     for c in (x, y)):
            raise DomainError("coordinates (%r, %r) are not exact" % (x, y))
        elif _is_rational(x):
            # both in one field: scaling and evaluation read it from x
            x = CyclotomicElement.from_rational(y.config, x)
        elif _is_rational(y):
            y = CyclotomicElement.from_rational(x.config, y)
        self.x, self.y = x, y
        if curve.equation_value(x, y) != 0:
            raise DomainError("(%s, %s) does not satisfy the curve equation" % (x, y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, CurvePoint) or self.curve != other.curve:
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y

    __hash__ = None

    def __neg__(self):
        if self.is_infinity:
            return self
        c = self.curve
        return CurvePoint(c, self.x, -self.y - c.c1 * self.x - c.c3)

    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.curve != other.curve:
            raise DomainError("points on different curves")
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        c = self.curve
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if x1 == x2:
            if y2 == -y1 - c.c1 * x1 - c.c3:
                return c.infinity()
            # tangent line (the vertical case was just handled)
            den = 2 * y1 + c.c1 * x1 + c.c3
            lam = (3 * x1 * x1 + 2 * c.c2 * x1 + c.c4 - c.c1 * y1) / den
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam + c.c1 * lam - c.c2 - x1 - x2
        y3 = lam * (x1 - x3) - y1 - c.c1 * x3 - c.c3
        return CurvePoint(c, x3, y3)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k: int) -> "CurvePoint":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (-k) * (-self)
        result = self.curve.infinity()
        base = self
        while k:
            if k & 1:
                result = result + base
            base = base + base
            k >>= 1
        return result

    def __repr__(self):
        if self.is_infinity:
            return "CurvePoint(infinity)"
        return "CurvePoint(%s, %s)" % (self.x, self.y)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def _affine_count(coefficients, p: int) -> int:
    """Number of affine F_p-points on the (possibly singular) reduction of
    the curve with these coefficients."""
    c1, c2, c3, c4, c6 = (fraction_mod(c, p, 1) for c in coefficients)
    if p == 2:
        return sum(1 for x in range(2) for y in range(2)
                   if (y * y + c1 * x * y + c3 * y
                       - x ** 3 - c2 * x * x - c4 * x - c6) % 2 == 0)
    # complete the square: (2y + c1 x + c3)^2 = d(x) = 4x^3 + d2 x^2 +
    # d1 x + d0, and y -> 2y + c1 x + c3 is a bijection, so each x has as
    # many points as d(x) has square roots mod p
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    d2, d1, d0 = c1 * c1 + 4 * c2, 2 * c1 * c3 + 4 * c4, c3 * c3 + 4 * c6
    return sum(roots[(((4 * x + d2) * x + d1) * x + d0) % p] for x in range(p))


def count_points_ap(curve: WeierstrassCurve, p: int) -> int:
    """The L-series coefficient a_p = p - #(affine F_p-points of the reduction).

    That is p + 1 - #E(F_p) at a good prime and p - #E_ns(F_p) (E_ns the
    smooth locus with infinity; 1, 0, -1 for split/additive/non-split) at a
    bad one, as `_count_points_ap` proves.  Validated and stored once per
    (curve object, p); `_count_points_ap` shares counts between objects.
    """
    ap = curve._ap.get(p)
    if ap is None:
        if not is_prime(p):
            raise DomainError("%d is not prime" % p)
        if not curve.has_integral_reduction(p):
            raise DomainError("curve is not p-integral at %d" % p)
        ap = curve._ap[p] = _count_points_ap(curve.coefficients(), p)
    return ap


@lru_cache(maxsize=1024)
def _count_points_ap(coefficients, p: int) -> int:
    """p - #(affine F_p-points), memoized: a_p at every prime.

    At a good prime infinity is the one point of E(F_p) off the affine
    chart.  At a bad prime the reduction is a singular Weierstrass cubic
    (AEC III.1.4), irreducible (a factor y - g(x) would need
    g^2 + (c1 x + c3) g = f of degree 3, but the left side has degree at
    most 2 or even), so a line through two singular points would meet it
    four times.  Its singular point is thus unique, hence rational, and
    affine (infinity is smooth); E_ns (AEC III.2.5) trades it for infinity.
    """
    return p - _affine_count(coefficients, p)


def frobenius_trace_power(ap: int, p: int, f: int) -> int:
    """alpha^f + beta^f for the Frobenius roots of x^2 - ap x + p."""
    s_prev, s = 2, ap
    if f == 0:
        return 2
    for _ in range(f - 1):
        s_prev, s = s, ap * s - p * s_prev
    return s


def _frobenius_orbit(p: int, m: int):
    """p^i mod m for 0 <= i < f, where f (the residue degree) is the order of p."""
    orbit = [1 % m]
    while p * orbit[-1] % m != orbit[0]:
        orbit.append(p * orbit[-1] % m)
    return orbit


def _residue_field_count(curve: WeierstrassCurve, p: int, m: int):
    """(#E(F_{p^f}), f), f the order of p mod m: the count at one place above p.

    #E(F_{p^f}) = p^f + 1 - (alpha^f + beta^f), from a_p; p is good and
    prime to m.
    """
    f = len(_frobenius_orbit(p, m))
    ap = count_points_ap(curve, p)
    return p ** f + 1 - frobenius_trace_power(ap, p, f), f


def reduction_group_order(curve: WeierstrassCurve, p: int, m: int = 1) -> int:
    """Order of the points of E over (Z[zeta_m]/p), a product of F_{p^f} fields.

    f is the multiplicative order of p mod m and there are phi(m)/f factors,
    each contributing #E(F_{p^f}).
    """
    if math.gcd(p, m) != 1:
        raise DomainError("%d is not coprime to %d" % (p, m))
    if not curve.is_good(p):
        raise BadReductionError("bad reduction at %d" % p)
    count, f = _residue_field_count(curve, p, m)
    return count ** (euler_phi(m) // f)


def torsion_multiple(curve: WeierstrassCurve, m: int = 1) -> int:
    """A multiple g of the order of every torsion point of E(Q(zeta_m)).

    g is the gcd of #E(F_{l^f}) at the first three good odd primes l prime
    to m.  Such an l is unramified in Q(zeta_m), so e = 1 < l - 1, and
    reduction at a place above l is injective on the whole torsion subgroup
    (AEC VII.3.1, with IV.6.1 for the l-part); that subgroup therefore
    embeds in E(F_{l^f}) for each l.  A point Q is torsion exactly when
    g*Q = O.
    """
    g, found, l = 0, 0, 3
    while found < 3:
        if (m % l and is_prime(l) and curve.has_integral_reduction(l)
                and curve.is_good(l)):
            g = math.gcd(g, _residue_field_count(curve, l, m)[0])
            found += 1
        l += 2
    return g


def lseries_coefficients(curve: WeierstrassCurve, bound: int) -> Dict[int, int]:
    """a_n for 1 <= n <= bound, by one sieve to the bound.

    A smallest-prime-factor table marks the primes.  At each prime p the
    powers follow from a_p: a_{p^{k+1}} = a_p a_{p^k} - p a_{p^{k-1}} at a
    good prime, a_{p^k} = a_p^k at a bad one (p dividing the discriminant).
    Every other n is p^k m with p its smallest prime factor and m > 1 prime
    to p, both smaller than n, so a_n = a_{p^k} a_m is set once, in order.
    """
    if bound < 1:
        raise DomainError("bound must be positive")
    spf = list(range(bound + 1))
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == p:
            for n in range(p * p, bound + 1, p):
                if spf[n] == n:
                    spf[n] = p
    a = [0, 1] + [None] * (bound - 1)
    for n in range(2, bound + 1):
        p = spf[n]
        if p == n:
            ap = a[p] = count_points_ap(curve, p)
            good = curve.is_good(p)
            pk = p
            while pk * p <= bound:
                a[pk * p] = ap * a[pk] - (p * a[pk // p] if good else 0)
                pk *= p
        elif a[n] is None:
            pk, m = p, n // p
            while m % p == 0:
                pk, m = pk * p, m // p
            a[n] = a[pk] * a[m]
    return {n: a[n] for n in range(1, bound + 1)}


# ---------------------------------------------------------------------------
# the formal parameter of a point in the kernel of reduction
# ---------------------------------------------------------------------------

def _num_den(x: Coord):
    """(integer coefficients, denominator) of x, with no common factor."""
    if isinstance(x, CyclotomicElement):
        return x.num, x.den
    x = Fraction(x)
    return (x.numerator,), x.denominator


def to_formal_parameter(Q: CurvePoint, p: int) -> Coord:
    """t = x/(2y) for a point reducing to the identity mod p (exact value).

    Such a point has x, y with negative p-valuation, and t lands in p A_(p);
    the divisibility is verified coefficientwise (p is unramified in the
    cyclotomic coordinate fields we admit).  Raises when the point does not
    reduce to the identity at every prime above p.
    """
    if Q.is_infinity:
        return Fraction(0)
    if Q.y == 0 or (2 * Q.y + Q.curve.c1 * Q.x + Q.curve.c3) == 0:
        raise DomainError("a 2-torsion point never reduces to the identity (p odd)")
    t = Q.x / (2 * Q.y)
    num, den = _num_den(t)
    if den % p and not any(n % p for n in num):
        return t
    if _num_den(Q.x)[1] % p:
        raise DomainError("point does not reduce to the identity mod %d" % p)
    raise DomainError("point has mixed reduction above %d" % p)


# ---------------------------------------------------------------------------
# scaling into the kernel of reduction over Z_p[zeta_m]/p^K
# ---------------------------------------------------------------------------

class _Coeffs:
    """An element of Z[zeta_m] as a power-basis coefficient list.

    It has the operations the group law of `_FactorCurve` uses, with ints
    and with each other: + and - coefficientwise, * by an int or (mod phi)
    by another element, and % and // by an int on every coefficient.  It is
    true when some coefficient is nonzero.
    """

    __slots__ = ("c", "phi")

    def __init__(self, c, phi):
        self.c, self.phi = c, phi

    def __add__(self, other):
        return _Coeffs([a + b for a, b in zip(self.c, other.c)], self.phi)

    def __sub__(self, other):
        return _Coeffs([a - b for a, b in zip(self.c, other.c)], self.phi)

    def __mul__(self, other):
        if type(other) is int:
            return _Coeffs([other * a for a in self.c], self.phi)
        return _Coeffs(_mulmod(self.c, other.c, self.phi), self.phi)

    __rmul__ = __mul__

    def __mod__(self, n: int):
        return _Coeffs([a % n for a in self.c], self.phi)

    def __floordiv__(self, n: int):
        return _Coeffs([a // n for a in self.c], self.phi)

    def __bool__(self):
        return any(self.c)


def _factor_idempotents(config: CyclotomicConfig, p: int):
    """The primitive idempotents of Z[zeta_m]/p, one per prime above p.

    They lie in the subring fixed by zeta -> zeta^p, which is F_p^g and is
    spanned by the orbit sums of the power basis; for such a b,
    e * (1 - (b - c)^(p-1)) keeps the factors of e on which b = c.
    """
    n, phi = config.degree, config.phi
    orbit = _frobenius_orbit(p, config.m)
    one = _Coeffs([1] + [0] * (n - 1), phi)
    idempotents = [one]
    for k in range(1, n):
        if len(idempotents) == n // len(orbit):
            break
        basis = [0] * n
        basis[k] = 1
        b = [sum(col) % p for col in
             zip(*(_galois_image(config, basis, d) for d in orbit))]
        split = []
        for e in idempotents:
            for c in range(p):
                miss = _powmod([(b[0] - c) % p] + b[1:], p - 1, phi, p)
                f = e * (one - _Coeffs(miss, phi)) % p
                if f:
                    split.append(f)
        idempotents = split
    return idempotents


def _lift_idempotent(e: _Coeffs, p: int, precision: int) -> _Coeffs:
    """The idempotent mod p**precision above e (Newton: e -> 3e^2 - 2e^3)."""
    k = 1
    while k < precision:
        k = min(2 * k, precision)
        e2 = e * e % p ** k
        e = (3 * e2 - 2 * e2 * e) % p ** k
    return e


class _PrecisionExhausted(Exception):
    """A group-law step lost every digit it was given."""


class _FactorCurve:
    """y^2 = x^3 + A x^2 + B x + C over one local factor of Z_p[zeta_m]/p^k.

    The factor is e*R for a primitive idempotent e of R = Z_p[zeta_m]/p^k.
    Its elements are plain ints when R is Z/p^k (a rational point, e = 1)
    and `_Coeffs` lists of R otherwise (a point over Q(zeta_m)); the
    formulas below are written once, with + - * % // and truth, and serve
    both.  An element is divisible by p^j in the factor exactly when all its
    coefficients are.  Points are projective triples, primitive in the
    factor and taken up to units, so they name the points of E(e*R), whose
    group law is followed exactly: a triple with X = Z = 0 is the identity
    and proportional triples are one point.  Products are reduced mod p^k
    only in `primitive`, which every formula output goes through.  A triple
    that shares a factor p^j is divided by it at the cost of j digits of k;
    one with no digit left raises _PrecisionExhausted.  C never enters the
    formulas.
    """

    __slots__ = ("A", "B", "p", "k", "mod")

    def __init__(self, A: int, B: int, p: int, k: int):
        self.A, self.B, self.p = A, B, p
        self.k, self.mod = k, p ** k

    def primitive(self, triple):
        """The triple divided by its common p-power; None when it is 0 mod p^k."""
        p, mod = self.p, self.mod
        X, Y, Z = triple = [a % mod for a in triple]
        if X % p or Y % p or Z % p:
            return triple
        e = 1
        while e < self.k and not any(a % p ** (e + 1) for a in triple):
            e += 1
        if e == self.k:
            return None
        self.k -= e
        self.mod = p ** self.k
        return [a // p ** e for a in triple]

    def double(self, P):
        X, Y, Z = P
        if not (X % self.mod or Z % self.mod):
            return P
        s = Y * Z
        ys = Y * s
        w = 3 * X * X + 2 * self.A * X * Z + self.B * Z * Z
        h = w * w - 4 * ys * (self.A * Z + 2 * X)
        doubled = self.primitive((2 * h * s,
                                  w * (4 * X * ys - h) - 8 * ys * ys,
                                  8 * s * s * s))
        if doubled is None:
            raise _PrecisionExhausted
        return doubled

    def add(self, P, Q):
        X1, Y1, Z1 = P
        X2, Y2, Z2 = Q
        mod = self.mod
        if not (X1 % mod or Z1 % mod):
            return Q
        if not (X2 % mod or Z2 % mod):
            return P
        x1z2, x2z1, y1z2, z1z2 = X1 * Z2, X2 * Z1, Y1 * Z2, Z1 * Z2
        u = Y2 * Z1 - y1z2
        v = x2z1 - x1z2
        v2 = v * v
        v3 = v2 * v
        w = u * u * z1z2 - v2 * (x1z2 + x2z1 + self.A * z1z2)
        total = self.primitive((v * w, u * (v2 * x1z2 - w) - v3 * y1z2,
                                v3 * z1z2))
        if total is not None:
            return total
        if not (u % mod or v % mod or (X1 * Y2 - X2 * Y1) % mod):
            return self.double(P)
        raise _PrecisionExhausted

    def multiply(self, P, k: int):
        result = None
        while k:
            if k & 1:
                result = P if result is None else self.add(result, P)
            k >>= 1
            if k:
                P = self.double(P)
        return result


def _completed_square(Q: CurvePoint):
    """(exact, ring, b2/4, b4/2, curve), what scaling Q needs at any prime;
    None for O.  `exact` holds x and y + (c1 x + c3)/2, Q on the model
    y^2 = x^3 + (b2/4) x^2 + (b4/2) x + b6/4, as (numerator, denominator)
    pairs, the numerator an int for a rational Q (ring None) and a `_Coeffs`
    list over Q's ring otherwise."""
    if Q.is_infinity:
        return None
    c = Q.curve
    b2, b4, _, _ = c.b_invariants()
    exact = [_num_den(a) for a in (Q.x, Q.y + (Q.x * c.c1 + c.c3) / 2)]
    if isinstance(Q.x, CyclotomicElement):
        ring = Q.x.config
        exact = [(_Coeffs(list(num), ring.phi), den) for num, den in exact]
    else:
        ring = None
        exact = [(num[0], den) for num, den in exact]
    return exact, ring, b2 / 4, b4 / 2, c


def _scaled_parameter(square, scale: int, p: int, precision: int,
                      config: CyclotomicConfig) -> PadicCyclotomic:
    """t = x/(2y) of scale*Q modulo p**precision, from the point's
    `_completed_square`; scale*Q must reduce to O.

    Equal to to_formal_parameter(scale * Q, p) reduced mod p**precision, but
    scale*Q is computed in E(Z_p[zeta_m]/p^K), one local factor at a time, on
    the model y^2 = x^3 + (b2/4) x^2 + (b4/2) x + b6/4 (p is odd).  A point
    with rational coordinates lies in E(Z_p): its one factor is Z/p^K and
    the group law runs on plain ints, whatever m is.  A point over Q(zeta_m)
    runs on `_Coeffs` lists in each factor e*R.  Both follow the same
    formulas on the same residues mod p^K, so the digits lost and the value
    do not depend on the element type.  Q enters each factor as a primitive
    projective triple; the digits that group-law steps lose are counted, and
    a factor whose t would keep fewer than `precision` digits is recomputed
    at a higher K.  The result lives in Q's cyclotomic ring, or in `config`
    for a rational Q.
    """
    if scale < 1:
        raise DomainError("scale must be positive")
    if square is None:
        return PadicCyclotomic.zero(config, p, precision)
    exact, ring, A, B, c = square
    # scaled by p^shift the coordinates are p-integral
    shift = max(vp(den, p) for _, den in exact)
    if ring is None:
        one, idempotents = 1, [1]
    else:
        config = ring
        one = _Coeffs([1] + [0] * (ring.degree - 1), ring.phi)
        idempotents = _factor_idempotents(ring, p)
    t = 0 * one
    for e0 in idempotents:
        K = precision
        while True:
            k = K + shift
            mod = p ** k
            e = e0 if ring is None else _lift_idempotent(e0, p, k)
            curve = _FactorCurve(fraction_mod(A, p, k), fraction_mod(B, p, k),
                                 p, k)
            scaled = []
            for a, den in exact:
                v = vp(den, p)
                scaled.append(e * a * (pow(den // p ** v, -1, mod)
                                       * p ** (shift - v)))
            scaled.append(e * p ** shift)                   # Z = 1
            base = curve.primitive(scaled)
            try:
                X, Y, Z = curve.multiply(base, scale)
            except _PrecisionExhausted:
                K *= 2
                continue
            if Z % p:
                raise DomainError("point does not reduce to the identity mod %d"
                                  % p)
            if curve.k >= precision:
                break
            K += precision - curve.k
        # 2y = 2Y - c1 X - c3 Z back on the given model, made a unit of R
        # off the factor
        denominator = (2 * Y - fraction_mod(c.c1, p, curve.k) * X
                       - fraction_mod(c.c3, p, curve.k) * Z + one - e)
        if ring is None:
            inverse = pow(denominator, -1, curve.mod)
        else:
            inverse = _Coeffs(_unit_inverse(ring, denominator.c, p, curve.k),
                              ring.phi)
        t = t + X * inverse
    return PadicCyclotomic(config, p, precision, [t] if ring is None else t.c)
