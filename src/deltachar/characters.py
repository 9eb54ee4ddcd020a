"""Symbols, fundamental characters, decomposition, and integrality checks.

A "symbol" is an element of the monoid algebra over the P-smooth positive
integers: the basis element indexed by n stands for the composite Frobenius
operator of weight n, and indices multiply.  Symbols act on power series by
sending T^j to T^{jn} (see series_fgl.star_apply); the representing series of
a character is its symbol applied to the formal-group logarithm.

Extraction goes the other way: {l(T^n)}_{n>=1} is triangular in the T-basis,
so the coefficients c_n of f = sum c_n l(T^n) are recovered by a divisor
recursion; f came from a character exactly when the support is P-smooth and
the c_n are P-local.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .elliptic import WeierstrassCurve, count_points_ap, lseries_coefficients
from .exact_arith import (
    DomainError,
    PrimeSet,
    Rational,
    _ilog,
    hensel_quadratic_root,
    smooth_exponents,
    vp,
)
from .series_fgl import TruncSeries, elliptic_group, elliptic_log, gm_group, gm_log, star_apply


class SymbolPoly:
    """Finitely supported map n -> coefficient on the index monoid (n, *)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Dict[int, Rational]] = None):
        clean: Dict[int, Fraction] = {}
        for n, c in (coeffs or {}).items():
            if n < 1:
                raise DomainError("symbol index %r must be a positive integer" % (n,))
            c = Fraction(c)
            if c:
                clean[int(n)] = c
        self.coeffs = clean

    @classmethod
    def one(cls) -> "SymbolPoly":
        return cls({1: 1})

    @classmethod
    def phi(cls, n: int, coefficient: Rational = 1) -> "SymbolPoly":
        return cls({n: coefficient})

    def coefficient(self, n: int) -> Fraction:
        return self.coeffs.get(n, Fraction(0))

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def augmentation(self) -> Fraction:
        """The sum of all coefficients (image under phi_n -> 1)."""
        return sum(self.coeffs.values(), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_p_local(self, primes: Iterable[int]) -> bool:
        ps = tuple(primes)
        return all(all(c.denominator % p for p in ps) for c in self.coeffs.values())

    def is_smooth(self, primes: PrimeSet) -> bool:
        return all(smooth_exponents(n, primes) is not None for n in self.coeffs)

    def __add__(self, other):
        o = _as_symbol(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for n, c in o.coeffs.items():
            out[n] = out.get(n, Fraction(0)) + c
        return SymbolPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return SymbolPoly({n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other):
        o = _as_symbol(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SymbolPoly({n: c * other for n, c in self.coeffs.items()})
        o = _as_symbol(other)
        if o is None:
            return NotImplemented
        out: Dict[int, Fraction] = {}
        for n, c in self.coeffs.items():
            for m, d in o.coeffs.items():
                out[n * m] = out.get(n * m, Fraction(0)) + c * d
        return SymbolPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (Fraction(1, 1) / Fraction(c))

    def __eq__(self, other):
        o = _as_symbol(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

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


def _as_symbol(x) -> Optional[SymbolPoly]:
    if isinstance(x, SymbolPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return SymbolPoly({1: x})
    return None


# ---------------------------------------------------------------------------
# Euler-factor symbols and the per-prime differential operators
# ---------------------------------------------------------------------------

def gm_ode_symbol(p: int) -> SymbolPoly:
    """The order-1 operator symbol (phi_p - p)/p of the multiplicative theory."""
    return SymbolPoly({p: Fraction(1, p), 1: -1})


def elliptic_ode_symbol(p: int, ap: int) -> SymbolPoly:
    """The order-2 operator symbol (phi_p^2 - a_p phi_p + p)/p."""
    return SymbolPoly({p * p: Fraction(1, p), p: Fraction(-ap, p), 1: 1})


def euler_symbol_gm(primes: PrimeSet, k: int) -> SymbolPoly:
    """prod_{l != k} (1 - phi_{p_l}/p_l); Moebius coefficients mu(n)/n."""
    _check_index(primes, k)
    out = SymbolPoly.one()
    for j, p in enumerate(primes):
        if j != k - 1:
            out = out * SymbolPoly({1: 1, p: Fraction(-1, p)})
    return out


def euler_symbol_ell(curve: WeierstrassCurve, primes: PrimeSet, k: int) -> SymbolPoly:
    """prod_{l != k} (1 - a_p phi_p/p + phi_p^2/p) with a_p from point counts."""
    _check_index(primes, k)
    out = SymbolPoly.one()
    for j, p in enumerate(primes):
        if j != k - 1:
            out = out * SymbolPoly({1: 1, p: Fraction(-_ordinary_ap(curve, p), p),
                                    p * p: Fraction(1, p)})
    return out


def _check_index(primes: PrimeSet, k: int):
    if not 1 <= k <= len(primes):
        raise DomainError("prime index %d out of range 1..%d" % (k, len(primes)))


def _ordinary_ap(curve: WeierstrassCurve, p: int) -> int:
    if not curve.is_good(p):
        raise DomainError("bad reduction at %d" % p)
    ap = count_points_ap(curve, p)
    if ap % p == 0:
        raise DomainError("supersingular reduction at %d (a_p = %d)" % (p, ap))
    return ap


def full_symbol_gm(primes: PrimeSet) -> SymbolPoly:
    """-prod_{p in P} (1 - phi_p/p), the symbol of the fundamental character."""
    out = SymbolPoly({1: -1})
    for p in primes:
        out = out * SymbolPoly({1: 1, p: Fraction(-1, p)})
    return out


def full_symbol_elliptic(curve: WeierstrassCurve, primes: PrimeSet) -> SymbolPoly:
    out = SymbolPoly.one()
    for p in primes:
        out = out * SymbolPoly({1: 1, p: Fraction(-_ordinary_ap(curve, p), p),
                                p * p: Fraction(1, p)})
    return out


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

class DiracComponent:
    """Per-prime factorization datum: a local operator times an Euler symbol."""

    __slots__ = ("prime", "kind", "ap", "euler_symbol", "ode_symbol")

    def __init__(self, prime: int, kind: str, euler_symbol: SymbolPoly,
                 ap: Optional[int] = None):
        self.prime = prime
        self.kind = kind              # "gm" or "elliptic"
        self.ap = ap
        self.euler_symbol = euler_symbol
        self.ode_symbol = (gm_ode_symbol(prime) if kind == "gm"
                           else elliptic_ode_symbol(prime, ap))

    def __repr__(self):
        return "DiracComponent(p=%d, %s)" % (self.prime, self.kind)


class Character:
    """A character: group descriptor, symbol, representing series, Dirac data."""

    __slots__ = ("group", "curve", "primes", "order", "symbol", "series", "dirac")

    def __init__(self, group: str, primes: PrimeSet, symbol: SymbolPoly,
                 series: TruncSeries, curve: Optional[WeierstrassCurve] = None,
                 dirac: Optional[List[DiracComponent]] = None,
                 order: Optional[Tuple[int, ...]] = None):
        self.group = group            # "Ga", "Gm", or "Elliptic"
        self.curve = curve
        self.primes = primes
        self.symbol = symbol
        self.series = series
        self.dirac = list(dirac or [])
        self.order = order if order is not None else symbol_order(symbol, primes)

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
    return SymbolPoly({int(t["n"]): Fraction(int(t["num"]), int(t["den"]))
                       for t in rows})


def character_from_json_dict(data: dict) -> Character:
    """Inverse of Character.to_json_dict."""
    primes = PrimeSet(data["primes"])
    curve = None
    if "curve" in data:
        curve = WeierstrassCurve(*(Fraction(c) for c in data["curve"]))
    elif data["group"] == "Elliptic":
        raise DomainError("an elliptic character needs a curve")
    dirac = [DiracComponent(int(d["p"]), d["kind"],
                            _symbol_from_json(d["euler"]),
                            ap=None if d["ap"] is None else int(d["ap"]))
             for d in data.get("dirac", [])]
    return Character(data["group"], primes, _symbol_from_json(data["symbol"]),
                     TruncSeries.from_json_dict(data["series"]),
                     curve=curve, dirac=dirac,
                     order=tuple(int(n) for n in data["order"]))


def symbol_order(symbol: SymbolPoly, primes: PrimeSet) -> Tuple[int, ...]:
    """Componentwise maximal Frobenius exponent appearing in the support."""
    order = [0] * len(primes)
    for n in symbol.support():
        exps = smooth_exponents(n, primes)
        if exps is None:
            raise DomainError("symbol support %d is not P-smooth" % n)
        order = [max(o, e) for o, e in zip(order, exps)]
    return tuple(order)


def group_log(group: str, order: int, curve: Optional[WeierstrassCurve] = None
              ) -> TruncSeries:
    if group == "Ga":
        return TruncSeries.var(order)
    if group == "Gm":
        return gm_log(order)
    if group == "Elliptic":
        if curve is None:
            raise DomainError("elliptic group needs a curve")
        return elliptic_log(curve, order)
    raise DomainError("unknown group %r" % (group,))


def group_law(group: str, order: int, curve: Optional[WeierstrassCurve] = None
              ) -> TruncSeries:
    if group == "Ga":
        return TruncSeries.var(order, 0, 2) + TruncSeries.var(order, 1, 2)
    if group == "Gm":
        return gm_group(order).law(order)
    if group == "Elliptic":
        if curve is None:
            raise DomainError("elliptic group needs a curve")
        return elliptic_group(curve, order).law(order)
    raise DomainError("unknown group %r" % (group,))


def build_ga_character(L: SymbolPoly, primes: PrimeSet,
                       order: Optional[int] = None) -> Character:
    """The additive character with symbol L: series L * T."""
    if not L.is_p_local(primes):
        raise DomainError("symbol coefficients are not P-local")
    if not L.is_smooth(primes):
        raise DomainError("symbol support is not P-smooth")
    n_t = order if order is not None else (max(L.support(), default=1) + 1)
    series = L.star(TruncSeries.var(n_t))
    return Character("Ga", primes, L, series)


def build_gm_character(primes: PrimeSet, n_t: int) -> Character:
    """The fundamental multiplicative character, series to order n_t."""
    if n_t < 2:
        raise DomainError("truncation order must be at least 2")
    symbol = full_symbol_gm(primes)
    series = symbol.star(gm_log(n_t))
    if not series.denominators_coprime_to(primes):
        raise DomainError("integrality failure in the fundamental series (bug)")
    dirac = [DiracComponent(p, "gm", euler_symbol_gm(primes, k + 1))
             for k, p in enumerate(primes)]
    return Character("Gm", primes, symbol, series, dirac=dirac,
                     order=(1,) * len(primes))


def build_elliptic_character(curve: WeierstrassCurve, primes: PrimeSet,
                             n_t: int) -> Character:
    """The fundamental character of an elliptic curve, series to order n_t."""
    if n_t < 2:
        raise DomainError("truncation order must be at least 2")
    symbol = full_symbol_elliptic(curve, primes)   # validates ordinary reduction
    series = symbol.star(elliptic_log(curve, n_t))
    if not series.denominators_coprime_to(primes):
        raise DomainError("integrality failure in the fundamental series (bug)")
    dirac = [DiracComponent(p, "elliptic", euler_symbol_ell(curve, primes, k + 1),
                            ap=count_points_ap(curve, p))
             for k, p in enumerate(primes)]
    return Character("Elliptic", primes, symbol, series, curve=curve,
                     dirac=dirac, order=(2,) * len(primes))


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
    log = group_log(group, f0.order, curve)
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
    log = group_log(c.group, depth, c.curve)
    law = group_law(c.group, depth, c.curve)
    t1 = TruncSeries.var(depth, 0, 2)
    t2 = TruncSeries.var(depth, 1, 2)
    return log.compose([law]) == log.compose([t1]) + log.compose([t2])


# ---------------------------------------------------------------------------
# Euler-factor division and decomposition
# ---------------------------------------------------------------------------

def _split_by_phi_power(L: SymbolPoly, p: int) -> Dict[int, Dict[int, Fraction]]:
    """View L as a polynomial in phi_p: exponent -> {p-free index: coeff}."""
    out: Dict[int, Dict[int, Fraction]] = {}
    for n, c in L.coeffs.items():
        e = vp(n, p)
        m = n // p ** e
        out.setdefault(e, {})[m] = c
    return out


def _join_phi_power(parts: Dict[int, Dict[int, Fraction]], p: int) -> SymbolPoly:
    out: Dict[int, Fraction] = {}
    for e, row in parts.items():
        for m, c in row.items():
            if c:
                out[m * p ** e] = out.get(m * p ** e, Fraction(0)) + c
    return SymbolPoly(out)


def divide_by_euler_factor(L: SymbolPoly, factor) -> Tuple[SymbolPoly, SymbolPoly]:
    """Long division by a monic-in-phi_p Euler factor.

    `factor` is ("gm", p) for phi_p - p, or ("ell", p, a_p) for
    phi_p^2 - a_p phi_p + p.  Returns (quotient, remainder); the remainder
    has phi_p-degree below the factor degree.
    """
    kind = factor[0]
    p = factor[1]
    if kind == "gm":
        deg, tail = 1, {0: Fraction(p)}          # phi_p - p: subtract p*phi^0
    elif kind == "ell":
        ap = factor[2]
        deg, tail = 2, {1: Fraction(ap), 0: Fraction(-p)}
    else:
        raise DomainError("unknown Euler factor kind %r" % (kind,))
    rows = _split_by_phi_power(L, p)
    quotient: Dict[int, Dict[int, Fraction]] = {}
    while rows and max(rows) >= deg:
        e = max(rows)
        lead = rows.pop(e)
        quotient[e - deg] = lead
        # subtract lead * (phi^e - tail): the phi^e term cancels, the lower
        # rows (which may be new) get lead * tail added back
        for off, scale in tail.items():
            target = rows.setdefault(e - deg + off, {})
            for m, c in lead.items():
                target[m] = target.get(m, Fraction(0)) + c * scale
    return _join_phi_power(quotient, p), _join_phi_power(rows, p)


def decompose_over_fundamental(c: Character) -> SymbolPoly:
    """Write the character as rho * (fundamental character); return rho.

    Divides the symbol by every Euler factor; a nonzero remainder or a
    non-P-local quotient coefficient means the input is not a multiple of
    the fundamental character.
    """
    if c.group == "Gm":
        # -prod(1 - phi_p/p) = (-1)^(d+1) prod(phi_p - p) / prod(p)
        scale = Fraction((-1) ** (len(c.primes) + 1) * math.prod(c.primes))
        factors = [("gm", p) for p in c.primes]
    elif c.group == "Elliptic":
        scale = Fraction(math.prod(c.primes))
        factors = [("ell", p, _ordinary_ap(c.curve, p)) for p in c.primes]
    else:
        raise DomainError("decomposition needs a Gm or elliptic character")
    rho = c.symbol
    for f in factors:
        rho, rem = divide_by_euler_factor(rho, f)
        if not rem.is_zero():
            raise DomainError("nonzero remainder at Euler factor %r: "
                              "not a multiple of the fundamental character" % (f,))
    rho = rho * scale
    if not rho.is_p_local(c.primes):
        raise DomainError("decomposition coefficients are not P-local")
    return rho


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
