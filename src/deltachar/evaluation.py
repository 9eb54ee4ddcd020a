"""Evaluate characters on points with p-adic cyclotomic components.

`evaluate` is the one evaluator: one loop over the primes of P, where the
group's local step maps the point into the kernel of reduction, and the
loop (`_symbol_values`) sums the group's formal logarithm there and applies
the character's own symbol to it (`_apply_symbol`).  A local step gives a
kernel image (x, e, cofactor): Lambda_p = l(x) cofactor / p^e, l the
logarithm of `series_fgl._log_terms`.  For G_m, x = u^((q-1) p^e) - 1,
q = p^f, f the order of p mod m, and cofactor the inverse of q - 1 mod
p^(precision+1+e), with scaling 1 (`_gm_log`); for a curve, x = t(N Q),
e = 0 and cofactor M/N, with scaling M, t the formal parameter of N Q
scaled p-adically in E(Z_p[zeta_m']/p^K) by `elliptic._scaled_parameter`.
For p prime to m, phi_n acts on Z_p[zeta_m] as the Galois element
sigma_(n mod m), so the value at p is (1/p) sum_r (p C_r)
sigma_r(Lambda_p), C_r the sum of the c_n with n = r mod m.  What is the
same at every prime is formed once per evaluation, not in the loop: the
logarithm's pairs, only when some value needs them; the C_r for each
level m of the values (`_class_sums`; a curve point over Q(zeta_m') gives
values at m', not at the adele's level); and a curve point's
completed-square coordinates (`elliptic._completed_square`).
No Euler factor is written here, and no Dirac row is read: E_p/p is a
factor of the symbol.  rho is read only as the gate that refuses a symbol
that is not a multiple of the fundamental one (`characters._rho`).

A curve point is scaled by N = #E(F_{p^f'}), the count of the residue field
of its own ring Z[zeta_m'] (m' = 1 for a rational point, f' the order of p
mod m'), not by the reported M = #E(F_{p^f})^(phi(m)/f) of the adele's
level m.  N kills the reduction of Q, and the formal logarithm is
additive on the kernel of reduction, l(k R) = k l(R) (AEC IV.5-6), so
psi(M Q) = (M/N) psi(N Q): the value at N Q is multiplied by the integer
M/N, which costs no digit.  The group law thus stops where N Q enters the
kernel, instead of doubling on inside it, where each step loses about
6 v(t) digits (the route of Mazur-Stein-Tate 2006).  Q's ring must lie in
Z[zeta_m] (m' | m), and a point outside it is refused; then f' divides f,
E(F_{p^f'}) is a subgroup of E(F_{p^f}), and #E(F_{p^f}) divides M, so
M/N is an integer.

Every Lambda_p has v_p >= 1 (l a logarithm, its n-th coefficient of
v_p >= -v_p(n), at x of v_p(x) >= e + 1), and a multiple of the
fundamental symbol has coefficients of v_p >= -1: the one division by p in
`_apply_symbol` is exact and spends the one digit a budget spends.
l(x) mod p^K depends only on x mod p^K, whatever p-powers the coefficients
divide by (proved in `_series_value`), so a curve's t gets N + 1 digits,
and a unit's x gets N + 1 + e, e of them for the division by p^e.  Term n
of l(x) has valuation at least n - floor(log_p n), nondecreasing in n, and
the order comes from that bound (`exact_arith.log_budget`): the series
stops at the last n with n - floor(log_p n) <= N at the smallest prime of
P, so later terms vanish mod p**(N+1) at every prime.  `_series_value`
reports every digit its argument and order fix and no more, so a short
budget fails the final reduction to N digits instead of giving wrong ones.

Each per-prime series is summed on integer residues by baby-step giant-step
(`cyclotomic._series_mod`; by Horner in plain ints when the argument has no
zeta-part), its integer pairs reduced once per (series, p) as far as they
can move a digit: no Fraction for a curve with an integral model, and
about N/(e+1) of G_m's ((-1)^(j-1), j) after the unit's descent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .characters import Character, SymbolPoly, _rho, euler_polynomial
from .cyclotomic import (
    CyclotomicConfig,
    CyclotomicElement,
    PadicCyclotomic,
    _powmod,
    _series_mod,
    _zp,
    padic_log,
)
from .elliptic import (
    CurvePoint,
    _completed_square,
    _frobenius_orbit,
    _residue_field_count,
    _scaled_parameter,
    count_points_ap,
    reduction_group_order,
    to_formal_parameter,
    torsion_multiple,
)
from .exact_arith import (
    DomainError,
    NonUnitError,
    PrimeSet,
    _ilog,
    fraction_mod,
    log_budget,
    log_prefix,
    rational_reconstruct,
    vp,
)
from .polys import _sum_terms
from .series_fgl import _log_terms

class AdelePoint:
    """A point given per prime, normally as reductions of one global value."""

    __slots__ = ("config", "primes", "precision", "components", "point")

    def __init__(self, config, primes, precision, components, point=None):
        self.config = config
        self.primes = primes
        self.precision = precision
        self.components = components
        self.point = point

    @classmethod
    def multiplicative(cls, value, primes: PrimeSet, precision: int,
                       m: int = 1) -> "AdelePoint":
        """Embed a global unit of Z_(P)[zeta_m] at every prime of P."""
        if isinstance(value, CyclotomicElement):
            m = value.config.m
        config = CyclotomicConfig(m, primes)
        exact = (value if isinstance(value, CyclotomicElement)
                 else CyclotomicElement.from_rational(config, value))
        work = precision + 1            # the division by p costs one digit
        components = []
        for p in primes:
            comp = PadicCyclotomic.from_cyclotomic(exact, p, work)
            if not comp.is_unit():
                raise NonUnitError("component at %d is not a unit" % p)
            components.append(comp)
        return cls(config, primes, precision, components, value)

    @classmethod
    def from_components(cls, components: Sequence[PadicCyclotomic],
                        primes: PrimeSet, precision: int) -> "AdelePoint":
        """Independent per-prime unit components (no global origin claimed),
        all at one level m."""
        if len(components) != len(primes):
            raise DomainError("one component per prime required")
        config = components[0].config
        for p, comp in zip(primes, components):
            if comp.p != p:
                raise DomainError("component prime mismatch at %d" % p)
            if comp.config.m != config.m:
                raise DomainError("component at %d lives at level %d, the"
                                  " first at %d" % (p, comp.config.m, config.m))
            if not comp.is_unit():
                raise NonUnitError("component at %d is not a unit" % p)
            if comp.precision < precision + 1:
                raise DomainError("component at %d has %d digits, precision %d"
                                  " needs %d" % (p, comp.precision, precision,
                                                 precision + 1))
        return cls(config, primes, precision, list(components), None)

    @classmethod
    def elliptic(cls, point: CurvePoint, primes: PrimeSet, precision: int,
                 m: int = 1) -> "AdelePoint":
        """A global curve point; components are derived at evaluation time.

        Curve evaluation embeds the point at each prime and scales it there,
        in E(Z_p[zeta_m]/p^K), so an elliptic adele carries its global point
        rather than per-prime components.
        """
        config = CyclotomicConfig(m, primes)
        return cls(config, primes, precision, None, point)


class EvaluationResult:
    """Per-prime values of a character, reported modulo p**precision."""

    __slots__ = ("primes", "values", "precision", "scalings")

    def __init__(self, primes: PrimeSet, values: List[PadicCyclotomic],
                 precision: int, scalings: List[int]):
        self.primes = primes
        self.values = values
        self.precision = precision
        self.scalings = scalings

    def component(self, p: int) -> PadicCyclotomic:
        return self.values[self.primes.index_of(p)]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def to_json_dict(self) -> dict:
        return {
            "precision": self.precision,
            "components": [
                {"p": p, "scaling": s, "coeffs": [str(c) for c in v.coeffs],
                 "zero": v.is_zero()}
                for p, s, v in zip(self.primes, self.scalings, self.values)
            ],
        }

    def __repr__(self):
        return ("EvaluationResult(%s)"
                % ", ".join("p=%d:%s" % (p, "0" if v.is_zero() else "nonzero")
                            for p, v in zip(self.primes, self.values)))


# ---------------------------------------------------------------------------
# per-prime operator values
# ---------------------------------------------------------------------------

def _gm_log(u: PadicCyclotomic, p: int, precision: int):
    """The unit u's kernel image (x, e, cofactor): x = u^((q-1) p^e) - 1 mod
    p**(precision+1+e), q = p^f, f the order of p mod m, so that
    log(u^(q-1))/(q-1) = l(x) / (p^e (q-1)), l = log(1 + T); the cofactor
    is the integer inverse of q - 1 mod p**(precision+1+e), which q - 1
    has, being prime to p, and which stands for 1/(q-1) at x's digits.

    Z_p[zeta_m]/p is a product of fields F_q, so u^(q-1) = 1 mod p, and
    u^((q-1) p^e) too (x -> x^p is injective there), exactly when u is a
    unit; a non-unit raises NonUnitError.

    - Digit gain.  For y = 1 mod p, y^p - 1 = (y - 1)(1 + y + ... + y^(p-1))
      and the second factor is p = 0 mod p, so each p-th power of a 1-unit
      gains a digit: x = 0 mod p^(e+1).  By the same gain, moving u by p^K
      (K = precision + 1) multiplies u^(q-1) by some 1 + p^K d and
      u^((q-1) p^e) by (1 + p^K d)^(p^e) = 1 mod p^(K+e), so u's first
      precision + 1 digits fix x mod p^(precision+1+e), and l(x) as well.
    - Choice of e.  The descent costs e c_p multiplies (c_p those of one
      y -> y^p in `_powmod`, squarings at half cost), the sum of its
      n = precision/(e+1) terms about 2 sqrt(n) (`_series_mod`); at m = 1,
      one builtin pow and n int steps.  e = isqrt(precision // c_p)
      balances e c_p against n, and a smaller e is slower at m = 1: at
      P = {3, 5, 7}, N = 160, the point 2, isqrt / 1.5 and / 2 took 0.330
      and 0.363 ms against 0.301 (best of 28 x 10, Python 3.11, 2 vCPUs).

    u^(q-1) costs about 2 f log2(p) multiplies, as scaling a curve point by
    #E(F_{p^f}) does: f <= 2 on every benchmark workload, and at p = 101,
    m = 81 (f = 54), precision 20, a value takes 0.32 s (Python 3.11, 2 vCPUs).
    """
    if u.p != p:
        raise DomainError("component lives at %d, not %d" % (u.p, p))
    if u.precision < precision + 1:
        raise DomainError("need precision %d, component has %d"
                          % (precision + 1, u.precision))
    config = u.config
    c_p = p.bit_length() + bin(p).count("1") - 2    # _mulmod calls in y^p
    e = math.isqrt(precision // c_p)
    q = p ** len(_frobenius_orbit(p, config.m))
    modulus = p ** (precision + 1 + e)
    x = _powmod(u.coeffs, (q - 1) * p ** e, config.phi, modulus)
    x[0] -= 1
    if any(c % p for c in x):
        raise NonUnitError("element is not a unit mod %d" % p)
    return (PadicCyclotomic(config, p, precision + 1 + e, x), e,
            pow(q - 1, -1, modulus))


def eval_gm_ode(u: PadicCyclotomic, p: int, precision: int) -> PadicCyclotomic:
    """(1/p) log((phi u)/u^p) modulo p**precision, the Gm operator: E_p/p on
    the logarithm of the unit's kernel image (`_gm_log`).  Input must carry
    one digit beyond `precision`, spent by the division by p; a non-unit
    raises NonUnitError.
    """
    return _symbol_values(lambda k, p: (_gm_log(u, p, precision), 1), None,
                          (p,), euler_polynomial(p) / p, precision)[0][0]


def _series_value(terms: Sequence[Tuple[int, int]], t: PadicCyclotomic,
                  v: int) -> PadicCyclotomic:
    """Sum a logarithm-type series at an element of positive valuation, to
    every digit that t and the series' order fix; v is v_p(t).

    The series is sum_j c_j T^j, j = 1..order, given as integer pairs
    (numerator, denominator) with c_j = numerator/denominator, not
    necessarily reduced, a positive denominator, and order = len(terms).
    It must be logarithm-type: v_p(c_j) >= -v_p(j); a pair that is not
    raises DomainError (only the pairs that are summed are read).  Let K be
    the precision of t and v = v_p(t) >= 1.

    - Any lift of t will do.  For t' = t + p^K d,
      c_j (t'^j - t^j) = sum_{i>=1} c_j C(j,i) t^(j-i) (p^K d)^i, and
      i C(j,i) = j C(j-1,i-1) gives v_p(c_j C(j,i)) >= -v_p(i), so the
      i-th term has valuation >= (j-i) v + i K - v_p(i)
      >= K + (j-1) v + (i-1)(K-v) - v_p(i) >= K + (j-1) v when v < K
      (v_p(i) <= i - 1).  So l(t) mod p^K depends only on t mod p^K, and
      all K digits are fixed.
    - The terms beyond the order are not known.  Term j has valuation at
      least j v - floor(log_p j), which never decreases with j, so they
      cannot change the first tail = (order+1) v - floor(log_p(order+1))
      digits.  The precision returned is min(K, tail).
    - The sum.  By the same bound only the n terms with
      j v - floor(log_p j) < K are read (`log_prefix`).
      s_j = max(0, -v_p(c_j)), found by splitting p off the denominator
      and cancelling it against the numerator, is at most
      S = floor(log_p n), so a_j = p^S c_j mod p^(K+S) is an integer,
      numerator * p^(S-s_j) * unit^-1 (unit the denominator's part prime
      to p; no Fraction is formed).
      `_series_mod` sums them at t's residues; the sum divides by p^S
      exactly (a_j t^j has valuation >= S - s_j + j v >= S), and the terms
      left out vanish mod p^(K+S).
    """
    p, K = t.p, t.precision
    if v < 1:
        raise DomainError("series evaluation needs valuation >= 1")
    if v >= K:
        return PadicCyclotomic.zero(t.config, p, K)
    order = len(terms)
    n = min(log_prefix(K, v, p), order)
    S = _ilog(n, p) if n else 0
    modulus = p ** (K + S)
    ints = []
    for j, (num, den) in enumerate(terms[:n], 1):
        s = 0
        while den % p == 0:
            den //= p
            s += 1
        while s and num % p == 0:
            num //= p
            s -= 1
        if s and j % p ** s:
            raise DomainError("T^%d has %d^%d in its denominator: not a"
                              " logarithm" % (j, p, s))
        ints.append(num * p ** (S - s) * pow(den, -1, modulus) % modulus)
    total = _series_mod(ints, t.coeffs, t.config.phi, modulus)
    tail = (order + 1) * v - _ilog(order + 1, p)
    return PadicCyclotomic(t.config, p, min(K, tail),
                           [c // p ** S for c in total])


def _ring_level(point: CurvePoint) -> int:
    """The m' of Q(zeta_m') holding the point's coordinates; 1 if rational."""
    return point.x.config.m if isinstance(point.x, CyclotomicElement) else 1


def _class_sums(sym: SymbolPoly, m: int) -> dict:
    """{r: C_r}, C_r the sum of the symbol's c_n with n = r mod m: phi_n
    acts on Z_p[zeta_m] as zeta -> zeta^n (n is prime to m, as a `Character`
    stores only P-smooth symbols), so these fix the symbol at every p.

    Each class is summed in ints by one `_sum_terms` pass and becomes one
    Fraction; a class that sums to 0 is left out, which `_apply_symbol`
    reads as adding nothing, as a zero C_r would."""
    return _sum_terms((n % m, c.numerator, c.denominator)
                      for n, c in sym.coeffs.items())


def _apply_symbol(classes: dict, value: PadicCyclotomic, shift: int,
                  cofactor) -> PadicCyclotomic:
    """(1/p^(1+shift)) sum_r (p C_r) sigma_r(cofactor value), the symbol on
    cofactor value / p^shift through its `_class_sums` at the value's level;
    value must have valuation >= 1 + shift, and cofactor be an integer.

    The p C_r are p-integral for a multiple of the fundamental symbol
    (E_p/p times P-local coefficients), so the sum divides by p^(1+shift)
    exactly; the integer cofactor commutes with every sigma_r.
    """
    if value.is_zero():
        return value.divide_by_prime_power(1 + shift)
    p = value.p
    total = [0] * value.config.degree
    for r, c in classes.items():
        k = fraction_mod(c * p, p, value.precision)
        total = [a + k * b for a, b in zip(total, value.frobenius(r).coeffs)]
    return PadicCyclotomic(value.config, p, value.precision,
                           [a * cofactor for a in total]
                           ).divide_by_prime_power(1 + shift)


# ---------------------------------------------------------------------------
# character evaluation
# ---------------------------------------------------------------------------

def elliptic_formal_value(curve, point: CurvePoint, p: int, precision: int
                          ) -> PadicCyclotomic:
    """(1/p)[l(t^(phi^2)) - a_p l(t^phi) + p l(t)] for a kernel point: E_p/p
    on the formal logarithm l(t).

    The point must reduce to the identity mod p; its parameter is embedded
    p-adically in its own ring, to precision + 1 digits.
    """
    config = CyclotomicConfig(_ring_level(point), (p,))
    t_exact = to_formal_parameter(point, p)
    if isinstance(t_exact, CyclotomicElement):
        t = PadicCyclotomic.from_cyclotomic(t_exact, p, precision + 1)
    else:
        t = PadicCyclotomic.from_rational(config, t_exact, p, precision + 1)
    euler = euler_polynomial(p, count_points_ap(curve, p)) / p
    return _symbol_values(lambda k, p: ((t, 0, 1), 1), curve, (p,), euler,
                          precision)[0][0]


def _unit_step(c: Character, q, precision: int):
    """The G_m local step: a component's kernel image (`_gm_log`)."""
    if not isinstance(q, AdelePoint):
        q = AdelePoint.multiplicative(q, c.primes, precision)
    if q.components is None:
        raise DomainError("a multiplicative character needs a unit point")
    return q, lambda k, p: (_gm_log(q.components[k], p, precision), 1)


def _curve_step(c: Character, q, precision: int):
    """The curve local step: the kernel image (t(N_k Q), 0, M_k/N_k), with
    scaling M_k.

    M_k is the order of the reduction group of E over Z[zeta_m]/p, so M_k Q
    is in the kernel of reduction; Q is scaled only by N_k, and the value
    multiplied by M_k/N_k (see the module docstring).  A point whose
    ring Z[zeta_m'] is not inside Z[zeta_m] is refused before any
    arithmetic.  t lives in Z_p[zeta_m'] (in Z_p[zeta_m] for a rational Q)
    and has precision + 1 digits, one for the symbol's division by p.  Q's
    completed-square coordinates are formed once per call
    (`elliptic._completed_square`).
    """
    point = q.point if isinstance(q, AdelePoint) else q
    if not isinstance(point, CurvePoint):
        raise DomainError("an elliptic character needs a curve point")
    level = _ring_level(point)
    if not isinstance(q, AdelePoint):
        q = AdelePoint.elliptic(point, c.primes, precision, level)
    config = q.config
    if point.curve.coefficients() != c.curve.coefficients():
        raise DomainError("point does not lie on the character's curve")
    if config.m % level:
        raise DomainError("the point lies over Q(zeta_%d), which is not inside"
                          " the adele's level Q(zeta_%d)" % (level, config.m))
    square = _completed_square(point)

    def step(k, p):
        scale = reduction_group_order(c.curve, p, config.m)
        count = _residue_field_count(c.curve, p, level)[0]
        t = _scaled_parameter(square, count, p, precision + 1, config)
        return (t, 0, scale // count), scale

    return q, step


def _symbol_values(step, curve, primes, symbol: SymbolPoly, precision: int):
    """(values, scalings): the symbol on l(x) cofactor / p^e at each prime,
    (x, e, cofactor) the kernel image step(k, p) gives with its scaling, l
    the logarithm of `_log_terms(curve, ...)`; the one place a logarithm is
    summed.  x has precision + 1 + e digits and `_series_value` reports all
    of them.  l(x) has the valuation of x (p odd, v(x) >= 1, l'(0) = 1), so
    the value is zero exactly when v(x) + v_p(cofactor) >= x.precision; the
    pairs are derived once, to the `log_budget` order, when a value is not.
    """
    values, scalings, sums, terms = [], [], {}, None
    for k, p in enumerate(primes):
        (x, e, cofactor), scaling = step(k, p)
        v = x.min_valuation()
        if v + vp(cofactor, p) >= x.precision:
            value = PadicCyclotomic.zero(x.config, p, x.precision)
        else:
            if terms is None:
                terms = _log_terms(curve, log_budget(precision, primes))
            value = _series_value(terms, x, v)
        m = x.config.m
        if m not in sums:
            sums[m] = _class_sums(symbol, m)
        values.append(_apply_symbol(sums[m], value, e, cofactor
                                    ).reduce_to(precision))
        scalings.append(scaling)
    return values, scalings


_LOCAL_STEPS = {"Gm": _unit_step, "Elliptic": _curve_step}


def evaluate(c: Character, q, precision: int) -> EvaluationResult:
    """The character's value at q, an `AdelePoint` or a global unit or
    curve point (embedded at every prime of P), one component per prime:
    c.symbol on the logarithm of each local step's kernel image
    (`_symbol_values`).  An `AdelePoint` must be given to at least
    `precision` digits."""
    if type(precision) is not int or precision < 1:
        raise DomainError("precision must be an integer >= 1, not %r"
                          % (precision,))
    if c.group not in _LOCAL_STEPS:
        raise DomainError("no evaluator for group %r" % (c.group,))
    q, step = _LOCAL_STEPS[c.group](c, q, precision)
    if q.primes != c.primes:
        raise DomainError("the point is given at primes %s, the character"
                          " at %s" % (tuple(q.primes), tuple(c.primes)))
    if q.precision < precision:
        raise DomainError("the point is given to precision %d, below the"
                          " requested %d" % (q.precision, precision))
    _rho(c)     # refuses a symbol that is no multiple of the fundamental one
    values, scalings = _symbol_values(step, c.curve, c.primes, c.symbol,
                                      precision)
    return EvaluationResult(c.primes, values, precision, scalings)


# ---------------------------------------------------------------------------
# torsion, closed form, continuation
# ---------------------------------------------------------------------------

def torsion_test(q) -> bool:
    """Is the global point torsion?  Exact for units and curve points alike.

    A unit of Q(zeta_m) is torsion when it is a root of unity, of order
    dividing lcm(2, m); a curve point over Q or Q(zeta_m) when g*Q = O for
    the multiple g of every torsion order from `torsion_multiple`.
    """
    if isinstance(q, AdelePoint):
        if q.point is None:
            raise DomainError("torsion test needs a global point")
        q = q.point
    if isinstance(q, CurvePoint):
        return (torsion_multiple(q.curve, _ring_level(q)) * q).is_infinity
    if isinstance(q, CyclotomicElement):
        e = math.lcm(2, q.config.m)
        return q ** e == CyclotomicElement.from_rational(q.config, 1)
    return Fraction(q) in (Fraction(1), Fraction(-1))


def unit_log(b, p: int, precision: int) -> PadicCyclotomic:
    """log of an arbitrary unit: log(b^(p-1))/(p-1) kills the torsion part."""
    one_unit = _zp(p, precision, Fraction(b) ** (p - 1))
    return padic_log(one_unit) * Fraction(1, p - 1)


def gm_closed_form(primes: PrimeSet, b, p: int, precision: int
                   ) -> PadicCyclotomic:
    """-prod_l (1 - 1/p_l) * log(b): the value on rationals, where phi is trivial.

    The factor has p in its denominator exactly once; log(b) has valuation
    >= 1, so the product is integral and computed by clearing p first.
    """
    factor = Fraction(-1)
    for l in primes:
        factor *= 1 - Fraction(1, l)
    s = vp(factor.denominator, p)
    base = unit_log(b, p, precision + s)
    return base.divide_by_prime_power(s).times_rational(factor * p ** s)


def continuation_witness(c: Character, point, precision: int,
                         bound: int) -> Optional[Fraction]:
    """Try to recognize the translation defects as one global rational.

    Evaluates the character at the point for every prime and runs rational
    reconstruction across the primes with the given height bound, which
    gives None when some value has a cyclotomic part beyond the constant
    coefficient.  None means no witness at this precision.
    """
    return rational_reconstruct(evaluate(c, point, precision).values, bound)
