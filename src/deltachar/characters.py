"""Symbols, fundamental characters, decomposition, and integrality checks.

A "symbol" is an element of the monoid algebra over the P-smooth positive
integers: the basis element indexed by n stands for the composite Frobenius
operator of weight n, and indices multiply.  Symbols act on power series by
sending T^j to T^{jn} (see series_fgl.star_apply); the representing series of
a character is its symbol applied to the formal-group logarithm.  A builder
applies the symbol straight to the logarithm's integer pairs
(`series_fgl._log_terms`), so it forms no logarithm series.

Extraction goes the other way: {l(T^n)}_{n>=1} is triangular in the T-basis,
so the coefficients c_n of f = sum c_n l(T^n) are recovered by a divisor
recursion; f came from a character exactly when the support is P-smooth and
the c_n are P-local.

Every fundamental symbol is derived from one Euler factor per prime,
`euler_polynomial`: E_p = phi_p - p for G_m, phi_p^2 - a_p phi_p + p for a
curve.  The local operator at p is E_p/p, the Euler symbol at p is the
product of E_l/E_l(0) over the other primes, the fundamental symbol is their
product at any p, and decomposition divides by the same E_p.  A builder
forms the fundamental symbol as one product of |P| factors (`full_symbol`),
each a few integer (index, numerator, denominator) triples summed in one
pass (`_product`);
the Euler symbols of a prime set, formed by `_euler_symbols`, make its Dirac
rows, derived when first read (`Character.dirac`): evaluation never reads
them.  A character's twist rho is stored on it by the builders (rho = 1)
and by `decompose_over_fundamental`, the only derivation of rho, which
refuses a symbol that is not a multiple of the fundamental one.
Evaluation reads only the symbol and rho (`_rho`): it applies the symbol
itself to a point's formal logarithm, so no Euler factor is written
outside this module.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .cyclotomic import hensel_quadratic_root
from .elliptic import WeierstrassCurve, count_points_ap, lseries_coefficients
from .exact_arith import (
    DomainError,
    PrimeSet,
    Rational,
    _ilog,
    _is_rational,
    _json_int,
    _rational,
    smooth_exponents,
    vp,
)
from .polys import (_ZERO, _add_into, _combine, _convolve, _coprime_to,
                    _scale, _sum_terms)
from .series_fgl import (FormalGroupLaw, TruncSeries, _log_terms, _star_terms,
                         additive_group, elliptic_group, gm_group, star_apply)


class SymbolPoly:
    """Finitely supported map n -> coefficient on the index monoid (n, *)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Dict[int, Rational]] = None):
        clean: Dict[int, Fraction] = {}
        for n, c in (coeffs or {}).items():
            if type(n) is not int or n < 1:
                raise DomainError("symbol index %r must be a positive integer" % (n,))
            c = Fraction(_rational(c))
            if c:
                clean[n] = c
        self.coeffs = clean

    @classmethod
    def _from_clean(cls, coeffs: Dict[int, Fraction]) -> "SymbolPoly":
        """Store a clean kernel dict as it is (no coercion, no zero scan)."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def one(cls) -> "SymbolPoly":
        return cls({1: 1})

    @classmethod
    def phi(cls, n: int, coefficient: Rational = 1) -> "SymbolPoly":
        return cls({n: coefficient})

    def coefficient(self, n: int) -> Fraction:
        return self.coeffs.get(n, _ZERO)

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def augmentation(self) -> Fraction:
        """The sum of all coefficients (image under phi_n -> 1)."""
        return sum(self.coeffs.values(), _ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_p_local(self, primes: Iterable[int]) -> bool:
        return _coprime_to(self.coeffs, primes)

    def __add__(self, other):
        return SymbolPoly._from_clean(_combine(self.coeffs,
                                               _as_symbol(other).coeffs))

    __radd__ = __add__

    def __neg__(self):
        return SymbolPoly._from_clean(_scale(self.coeffs, -1))

    def __sub__(self, other):
        return self + (-_as_symbol(other))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if _is_rational(other):
            return SymbolPoly._from_clean(_scale(self.coeffs, other))
        return SymbolPoly._from_clean(
            _convolve(self.coeffs, _as_symbol(other).coeffs, operator.mul))

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (1 / Fraction(_rational(c)))

    def __eq__(self, other):
        if isinstance(other, SymbolPoly) or _is_rational(other):
            return self.coeffs == _as_symbol(other).coeffs
        return NotImplemented

    __hash__ = None

    def star(self, series: TruncSeries) -> TruncSeries:
        """Apply the symbol to a series: the index-n term sends T^j to T^{jn}."""
        return star_apply(self.coeffs, series)

    def to_json_list(self) -> List[dict]:
        return [{"n": n, "num": str(c.numerator), "den": str(c.denominator)}
                for n, c in sorted(self.coeffs.items())]

    def __repr__(self):
        if not self.coeffs:
            return "SymbolPoly(0)"
        bits = []
        for n, c in sorted(self.coeffs.items()):
            if n == 1:
                bits.append(str(c))
            elif c == 1:
                bits.append("phi_%d" % n)
            else:
                bits.append("%s*phi_%d" % (c, n))
        return "SymbolPoly(%s)" % " + ".join(bits)


def _as_symbol(x) -> SymbolPoly:
    """x itself, or an int or Fraction as a constant symbol; the constructor
    refuses anything else (a bool or float too) with a DomainError."""
    if isinstance(x, SymbolPoly):
        return x
    return SymbolPoly({1: x})


# ---------------------------------------------------------------------------
# the Euler factor and the symbols derived from it
# ---------------------------------------------------------------------------

def euler_polynomial(p: int, ap: Optional[int] = None) -> SymbolPoly:
    """The Euler factor E_p, monic in phi_p: phi_p - p for G_m (ap None) and
    phi_p^2 - a_p phi_p + p for a curve; its constant term is (-1)^deg p."""
    return _product([_euler_terms(p, ap, 1)])


def _euler_terms(p: int, ap: Optional[int], d: Optional[int]) -> List[Tuple]:
    """E_p / d as (index, numerator, denominator) int triples, each
    denominator positive; d None divides by the constant term E_p(0)."""
    coeffs = ((p, 1), (1, -p)) if ap is None else ((p * p, 1), (p, -ap), (1, p))
    d = coeffs[-1][1] if d is None else d
    sign = -1 if d < 0 else 1
    return [(n, sign * c, sign * d) for n, c in coeffs if c]


def _product(factors: Iterable[List[Tuple]]) -> SymbolPoly:
    """The product of symbols given as `_euler_terms` triples, each index
    summed in ints by one `_sum_terms` pass; 1 for no factors."""
    terms = [(1, 1, 1)]
    for factor in factors:
        terms = [(n * k, a * b, d * e) for n, a, d in terms for k, b, e in factor]
    return SymbolPoly._from_clean(_sum_terms(terms))


def _ordinary_ap(curve: Optional[WeierstrassCurve], p: int) -> Optional[int]:
    """a_p of an ordinary good prime of the curve; None for G_m (no curve)."""
    if curve is None:
        return None
    ap = count_points_ap(curve, p)         # validates p and integrality
    if not curve.is_good(p):
        raise DomainError("bad reduction at %d" % p)
    if ap % p == 0:
        raise DomainError("supersingular reduction at %d (a_p = %d)" % (p, ap))
    return ap


def _euler_symbols(primes: PrimeSet, curve: Optional[WeierstrassCurve] = None
                   ) -> Tuple[List[Optional[int]], List[SymbolPoly]]:
    """The a_p of every prime (None for G_m) and, for each k, the Euler
    symbol prod E_l/E_l(0) over the primes but the k-th: 1 - phi_l/l
    (coefficients mu(n)/n) for G_m, 1 - a_l phi_l/l + phi_l^2/l for a
    curve; each E_l/E_l(0) is formed once, as triples."""
    aps = [_ordinary_ap(curve, p) for p in primes]
    factors = [_euler_terms(p, ap, None) for p, ap in zip(primes, aps)]
    return aps, [_product(f for j, f in enumerate(factors) if j != k)
                 for k in range(len(primes))]


def full_symbol(primes: PrimeSet,
                curve: Optional[WeierstrassCurve] = None) -> SymbolPoly:
    """The fundamental symbol, -prod(1 - phi_p/p) for G_m and
    prod(1 - a_p phi_p/p + phi_p^2/p) for a curve: E_p/p times the Euler
    symbol of the first prime p (`_euler_symbols`), and since E_p(0) is
    (-1)^deg p the same product at every other.  The |P| factors are
    multiplied as int triples (`_product`), so each coefficient becomes
    one Fraction; every prime's a_p is checked ordinary (`_ordinary_ap`)."""
    return _product(_euler_terms(p, _ordinary_ap(curve, p), None if k else p)
                    for k, p in enumerate(primes))


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

class DiracComponent:
    """Per-prime factorization datum: the local operator E_p/p of the Euler
    factor E_p (`euler_polynomial`) times the Euler symbol of the others."""

    __slots__ = ("prime", "ap", "euler_symbol", "ode_symbol")

    def __init__(self, prime: int, euler_symbol: SymbolPoly,
                 ap: Optional[int] = None):
        self.prime = prime
        self.ap = ap
        self.euler_symbol = euler_symbol
        self.ode_symbol = _product([_euler_terms(prime, ap, prime)])

    @property
    def kind(self) -> str:
        return "gm" if self.ap is None else "elliptic"

    def __repr__(self):
        return "DiracComponent(p=%d, %s)" % (self.prime, self.kind)


class Character:
    """A character: group descriptor, symbol, representing series, Dirac data.

    `order` is `symbol_order(symbol, primes)`, so a stored symbol is P-smooth.
    Evaluation reads the symbol and the private `_twist`, rho (see `_rho`),
    never the Dirac rows.  The builders store rho, and
    `decompose_over_fundamental` stores it from primes, curve and symbol,
    so these are not to be reassigned.  A built character derives its
    Dirac rows when `dirac` is first read; any other keeps the rows it was
    given (by hand or from JSON), if any.
    """

    __slots__ = ("group", "curve", "primes", "order", "symbol", "series",
                 "_dirac", "_twist")

    def __init__(self, group: str, primes: PrimeSet, symbol: SymbolPoly,
                 series: TruncSeries, curve: Optional[WeierstrassCurve] = None,
                 dirac: Optional[List[DiracComponent]] = None):
        if (group == "Elliptic") != (curve is not None):
            raise DomainError("a character has a curve exactly when its group"
                              " is Elliptic")
        self.group = group            # "Ga", "Gm", or "Elliptic"
        self.curve = curve
        self.primes = primes
        self.symbol = symbol
        self.series = series
        self._dirac = list(dirac or [])
        self.order = symbol_order(symbol, primes)
        self._twist = None

    @property
    def dirac(self) -> List[DiracComponent]:
        if self._dirac is None:
            aps, euler = _euler_symbols(self.primes, self.curve)
            self._dirac = [DiracComponent(p, e, ap)
                           for p, e, ap in zip(self.primes, euler, aps)]
        return self._dirac

    def to_json_dict(self) -> dict:
        out = {
            "group": self.group,
            "primes": list(self.primes),
            "order": list(self.order),
            "symbol": self.symbol.to_json_list(),
            "series": self.series.to_json_dict(),
        }
        if self.curve is not None:
            out["curve"] = [str(c) for c in self.curve.coefficients()]
        if self.dirac:
            out["dirac"] = [
                {"p": d.prime, "kind": d.kind, "ap": d.ap,
                 "euler": d.euler_symbol.to_json_list(),
                 "ode": d.ode_symbol.to_json_list()}
                for d in self.dirac
            ]
        return out

    def __repr__(self):
        return "Character(%s, P=%s, %r)" % (self.group, tuple(self.primes), self.symbol)


def _symbol_from_json(rows: Iterable[dict]) -> SymbolPoly:
    return SymbolPoly({_json_int(t["n"]): Fraction(_json_int(t["num"]),
                                                   _json_int(t["den"]))
                       for t in rows})


def character_from_json_dict(data: dict) -> Character:
    """Inverse of Character.to_json_dict; integer fields go through `_json_int`.

    What the symbol fixes is checked against it: the `order`, the series
    (symbol applied to the group logarithm at the series' own order), and
    the Dirac rows (one per prime of P in order, ode times euler the symbol).
    """
    primes = PrimeSet(_json_int(p) for p in data["primes"])
    curve = None
    if "curve" in data:
        # a JSON float is not parsed: WeierstrassCurve refuses it
        curve = WeierstrassCurve(*(Fraction(c) if isinstance(c, str) else c
                                   for c in data["curve"]))
    dirac = []
    for d in data.get("dirac", []):
        comp = DiracComponent(_json_int(d["p"]), _symbol_from_json(d["euler"]),
                              ap=None if d["ap"] is None else _json_int(d["ap"]))
        if comp.kind != d["kind"]:
            raise DomainError("Dirac row at %d: kind %r does not match ap %r"
                              % (comp.prime, d["kind"], d["ap"]))
        dirac.append(comp)
    order = tuple(_json_int(n) for n in data["order"])
    c = Character(data["group"], primes, _symbol_from_json(data["symbol"]),
                  TruncSeries.from_json_dict(data["series"]),
                  curve=curve, dirac=dirac)
    if order != c.order:
        raise DomainError("order %s is not the symbol's order %s"
                          % (list(order), list(c.order)))
    rows = [d.prime for d in dirac]
    if rows and rows != list(primes):
        raise DomainError("Dirac rows at %s are not one per prime of %s"
                          % (rows, list(primes)))
    for d in dirac:
        if d.ode_symbol * d.euler_symbol != c.symbol:
            raise DomainError("Dirac row at %d: ode times euler is not the"
                              " symbol" % d.prime)
    log = formal_group(c.group, c.series.order, curve).log
    if c.symbol.star(log) != c.series:
        raise DomainError("series is not the symbol applied to the logarithm"
                          " to order %d" % c.series.order)
    return c


def symbol_order(symbol: SymbolPoly, primes: PrimeSet) -> Tuple[int, ...]:
    """Componentwise maximal Frobenius exponent appearing in the support;
    a support that is not P-smooth is refused, naming its least index."""
    exps = [smooth_exponents(n, primes) for n in symbol.coeffs]
    if None in exps:
        raise DomainError("symbol support %d is not P-smooth" % min(
            n for n, e in zip(symbol.coeffs, exps) if e is None))
    return tuple(map(max, zip((0,) * len(primes), *exps)))


def formal_group(group: str, order: int,
                 curve: Optional[WeierstrassCurve] = None) -> FormalGroupLaw:
    """The formal group of "Ga", "Gm" or "Elliptic" (with its curve)."""
    if group == "Ga":
        return additive_group(order)
    if group == "Gm":
        return gm_group(order)
    if group == "Elliptic":
        if curve is None:
            raise DomainError("elliptic group needs a curve")
        return elliptic_group(curve, order)
    raise DomainError("unknown group %r" % (group,))


def build_ga_character(L: SymbolPoly, primes: PrimeSet) -> Character:
    """The additive character with symbol L: series L * T, to the order of
    the largest index plus one."""
    if not L.is_p_local(primes):
        raise DomainError("symbol coefficients are not P-local")
    series = L.star(TruncSeries.var(max(L.support(), default=1) + 1))
    return Character("Ga", primes, L, series)


def build_gm_character(primes: PrimeSet, n_t: int) -> Character:
    """The fundamental multiplicative character, series to order n_t."""
    return _fundamental_character(primes, n_t)


def build_elliptic_character(curve: WeierstrassCurve, primes: PrimeSet,
                             n_t: int) -> Character:
    """The fundamental character of an elliptic curve, series to order n_t."""
    return _fundamental_character(primes, n_t, curve)


def _fundamental_character(primes: PrimeSet, n_t: int,
                           curve: Optional[WeierstrassCurve] = None
                           ) -> Character:
    """full_symbol(primes, curve) applied to the group logarithm, with Dirac
    rows derived on first read; G_m when there is no curve.

    The logarithm enters as the integer pairs of `_log_terms`, which
    `_star_terms` multiplies into the symbol: no `FormalGroupLaw`, no
    logarithm series and no Fraction per logarithm term is formed.  The
    series' denominators are then checked prime to P."""
    if n_t < 2:
        raise DomainError("truncation order must be at least 2")
    symbol = full_symbol(primes, curve)     # validates ordinary reduction
    group = "Gm" if curve is None else "Elliptic"
    # b_2 = 0 when c1 = 0: a zero numerator makes no term
    log = [(j, num, den)
           for j, (num, den) in enumerate(_log_terms(curve, n_t), 1) if num]
    series = _star_terms(symbol.coeffs, log, n_t)
    if not series.denominators_coprime_to(primes):
        raise DomainError("integrality failure in the fundamental series (bug)")
    c = Character(group, primes, symbol, series, curve=curve)
    c._dirac = None
    c._twist = SymbolPoly.one()
    return c


# ---------------------------------------------------------------------------
# symbol extraction and additivity
# ---------------------------------------------------------------------------

def series_symbol_solve(f0: TruncSeries, log: TruncSeries) -> Dict[int, Fraction]:
    """Solve f0 = sum_n c_n log(T^n) for the c_n (triangular in T-degree).

    log(T^n) contributes b_{m/n} at T^m for n | m (b = log coefficients,
    b_1 = 1), so c_m = [T^m]f0 - sum_{n|m, n<m} c_n b_{m/n}.
    """
    if f0.nvars != 1:
        raise DomainError("expected a univariate series")
    if f0.constant_term():
        raise DomainError("a character series has no constant term")
    order = min(f0.order, log.order)
    b = {j: log.coefficient(j) for j in range(1, order + 1)}
    if b.get(1) != 1:
        raise DomainError("logarithm must be normalized with linear term 1")
    c: Dict[int, Fraction] = {}
    for m in range(1, order + 1):
        val = f0.coefficient(m)
        for n in list(c):
            if m % n == 0:
                val -= c[n] * b[m // n]
        if val:
            c[m] = val
    return c


def symbol_of_character(f0: TruncSeries, group: str, primes: PrimeSet,
                        curve: Optional[WeierstrassCurve] = None) -> SymbolPoly:
    """Recover the symbol of a character series; error when it is not one."""
    log = formal_group(group, f0.order, curve).log
    c = series_symbol_solve(f0, log)
    bad = [n for n in c if smooth_exponents(n, primes) is None]
    if bad:
        raise DomainError(
            "series is not a character: support %s is not P-smooth" % sorted(bad))
    return SymbolPoly(c)


def check_additivity(c: Character, depth: int) -> bool:
    """Does the series define a homomorphism to depth?

    Two parts: the symbol extraction must succeed with P-smooth support
    (jet-coordinate linearity), and the group logarithm must linearize the
    law through the requested total degree (exact check).
    """
    try:
        symbol_of_character(c.series.truncate(min(depth, c.series.order)),
                            c.group, c.primes, c.curve)
    except DomainError:
        return False
    group = formal_group(c.group, depth, c.curve)
    log, law = group.log, group.law()
    t1 = TruncSeries.var(depth, 0, 2)
    t2 = TruncSeries.var(depth, 1, 2)
    return log.compose([law]) == log.compose([t1]) + log.compose([t2])


# ---------------------------------------------------------------------------
# Euler-factor division and decomposition
# ---------------------------------------------------------------------------

def divide_by_euler_factor(L: SymbolPoly, p: int, ap: Optional[int] = None
                           ) -> Tuple[SymbolPoly, SymbolPoly]:
    """Long division by the Euler factor `euler_polynomial(p, ap)`.

    Returns (quotient, remainder); the remainder has phi_p-degree below the
    factor's degree.
    """
    tail = {n: -c for n, c in euler_polynomial(p, ap).coeffs.items()}
    top = max(tail)                        # phi_p^deg, coefficient 1
    del tail[top]                          # phi_p^deg = tail + E_p
    deg = vp(top, p)
    rem, quotient = dict(L.coeffs), {}
    # from the top phi_p-degree e down: the terms of degree e, divided by
    # phi_p^deg, join the quotient, and times `tail` (degree < e) stay in rem
    for e in range(max((vp(n, p) for n in rem), default=0), deg - 1, -1):
        lead = {n // top: rem.pop(n) for n in list(rem) if vp(n, p) == e}
        quotient.update(lead)
        _add_into(rem, _convolve(lead, tail, operator.mul).items())
    return SymbolPoly._from_clean(quotient), SymbolPoly._from_clean(rem)


def decompose_over_fundamental(c: Character) -> SymbolPoly:
    """Write the character as rho * (fundamental character); return rho.

    Divides the symbol by every Euler factor E_p; a nonzero remainder or a
    non-P-local quotient coefficient means the input is not a multiple of
    the fundamental character.  The fundamental symbol is E_p/p at the
    first prime times E_l/E_l(0) at the others (`full_symbol`), so the
    quotient is scaled by p and by each E_l(0).  On success rho is stored
    on c as `c._twist`.
    """
    if c.group not in ("Gm", "Elliptic"):
        raise DomainError("decomposition needs a Gm or elliptic character")
    aps = [_ordinary_ap(c.curve, p) for p in c.primes]
    rho, scale = c.symbol, 1
    for k, (p, ap) in enumerate(zip(c.primes, aps)):
        rho, rem = divide_by_euler_factor(rho, p, ap)
        if not rem.is_zero():
            raise DomainError("nonzero remainder at the Euler factor at %d: "
                              "not a multiple of the fundamental character" % p)
        scale *= p if k == 0 else euler_polynomial(p, ap).coeffs[1]
    rho = rho * scale
    if not rho.is_p_local(c.primes):
        raise DomainError("decomposition coefficients are not P-local")
    c._twist = rho
    return rho


def _rho(c: Character) -> SymbolPoly:
    """rho with c.symbol = rho * full_symbol(c.primes, c.curve): stored on c
    by `build_*` or `decompose_over_fundamental`, which runs here, once per
    character, when nothing is stored."""
    if c._twist is None:
        decompose_over_fundamental(c)
    return c._twist


def continuation_criterion(rho: SymbolPoly, torsion: bool) -> bool:
    """Global continuation: torsion point, or augmentation sum zero."""
    return bool(torsion) or rho.augmentation() == 0


# ---------------------------------------------------------------------------
# the unit-root congruence for elliptic L-series
# ---------------------------------------------------------------------------

def honda_integrality_check(curve: WeierstrassCurve, p: int, bound: int,
                            mutate: Optional[Dict[int, int]] = None) -> bool:
    """Sharp p-adic test of the L-series against the non-unit Frobenius root.

    With pi the root of x^2 - a_p x + p lying in pZ_p, every coefficient of
    (1/p)(phi_p - pi) * f_E must be p-integral; concretely
    v_p(p a_{m/p} - pi a_m) >= v_p(m) + 1 for all m <= bound.  For honest
    curve data the pure p-power constraints hold with equality, so this
    detects any single perturbed coefficient (`mutate` overrides entries of
    the a_n table for exactly that purpose).
    """
    ap = _ordinary_ap(curve, p)
    a = dict(lseries_coefficients(curve, bound))
    for n, value in (mutate or {}).items():
        a[n] = value
    precision = _ilog(bound, p) + 6
    pi = hensel_quadratic_root(ap, p, precision)
    modulus = p ** precision
    for m in range(1, bound + 1):
        s = vp(m, p)
        lhs = (p * a[m // p] if m % p == 0 else 0) - pi.residue * a[m]
        if s + 1 > precision:
            raise DomainError("precision exhausted")  # unreachable for sane bounds
        if lhs % modulus and vp(lhs % modulus, p) < s + 1:
            return False
    return True
