"""Evaluate characters on points with p-adic cyclotomic components.

The evaluation strategy is uniform: reduce the point into the kernel of
reduction (multiplicative units are already there after the Fermat-quotient
step; curve points get scaled by the order of the reduction group, computed
p-adically in E(Z_p[zeta_m]/p^K) by `elliptic.scaled_formal_parameter`, which
returns the formal parameter of the scaled point), evaluate the per-prime
operator series, then apply the complementary symbol through Frobenius on
the value.

All inner series run with guard digits (ceil(N/2) + 4) and the result is
reported modulo p**N; the achieved precision is carried on the components
rather than assumed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .characters import (
    Character,
    SymbolPoly,
    decompose_over_fundamental,
    euler_symbol_ell,
    euler_symbol_gm,
    full_symbol_elliptic,
    full_symbol_gm,
)
from .cyclotomic import CyclotomicConfig, CyclotomicElement, PadicCyclotomic
from .elliptic import (
    CurvePoint,
    count_points_ap,
    reduction_group_order,
    scaled_formal_parameter,
    to_formal_parameter,
)
from .exact_arith import (
    DomainError,
    NonUnitError,
    PadicInt,
    PrimeSet,
    _ilog,
    padic_log,
    rational_reconstruct,
    smooth_exponents,
    vp,
)
from .series_fgl import TruncSeries, elliptic_log

GlobalValue = Union[int, Fraction, CyclotomicElement]


def guard_digits(n: int) -> int:
    return -(-n // 2) + 4


class AdelePoint:
    """A point given per prime, normally as reductions of one global value."""

    __slots__ = ("kind", "config", "primes", "precision", "components", "point")

    def __init__(self, kind, config, primes, precision, components, point=None):
        self.kind = kind
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
        work = precision + guard_digits(precision) + 2
        components = []
        for p in primes:
            if isinstance(value, CyclotomicElement):
                comp = PadicCyclotomic.from_cyclotomic(value, p, work)
            else:
                comp = PadicCyclotomic.from_rational(config, Fraction(value), p, work)
            if not comp.is_unit():
                raise NonUnitError("component at %d is not a unit" % p)
            components.append(comp)
        return cls("gm", config, primes, precision, components, value)

    @classmethod
    def from_components(cls, components: Sequence[PadicCyclotomic],
                        primes: PrimeSet, precision: int) -> "AdelePoint":
        """Independent per-prime unit components (no global origin claimed)."""
        if len(components) != len(primes):
            raise DomainError("one component per prime required")
        for p, comp in zip(primes, components):
            if comp.p != p:
                raise DomainError("component prime mismatch at %d" % p)
            if not comp.is_unit():
                raise NonUnitError("component at %d is not a unit" % p)
        return cls("gm", components[0].config, primes, precision,
                   list(components), None)

    @classmethod
    def elliptic(cls, point: CurvePoint, primes: PrimeSet, precision: int,
                 m: int = 1) -> "AdelePoint":
        """A global curve point; components are derived at evaluation time.

        Curve evaluation embeds the point at each prime and scales it there,
        in E(Z_p[zeta_m]/p^K), so an elliptic adele carries its global point
        rather than per-prime components.
        """
        config = CyclotomicConfig(m, primes)
        return cls("elliptic", config, primes, precision, None, point)

    def component(self, k: int) -> PadicCyclotomic:
        if self.components is None:
            raise DomainError("no precomputed components on an elliptic adele")
        return self.components[k]


class EvaluationResult:
    """Per-prime values of a character, reported modulo p**precision."""

    __slots__ = ("primes", "values", "precision", "scalings")

    def __init__(self, primes: PrimeSet, values: List[PadicCyclotomic],
                 precision: int, scalings: Optional[List[int]] = None):
        self.primes = primes
        self.values = values
        self.precision = precision
        self.scalings = scalings or [1] * len(values)

    def component(self, p: int) -> PadicCyclotomic:
        return self.values[tuple(self.primes).index(p)]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def nonzero_primes(self) -> Tuple[int, ...]:
        return tuple(p for p, v in zip(self.primes, self.values)
                     if not v.is_zero())

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

def eval_gm_ode(u: PadicCyclotomic, p: int, precision: int) -> PadicCyclotomic:
    """sum_n (-1)^(n-1) (p^(n-1)/n) (delta_p u / u^p)^n, modulo p**precision.

    This is (1/p) log of (phi u)/u^p; the series form keeps every partial
    sum p-integral.  Input must carry at least one digit beyond `precision`
    (the Fermat quotient costs it).  A non-unit raises NonUnitError from
    the division by u^p.
    """
    if u.p != p:
        raise DomainError("component lives at %d, not %d" % (u.p, p))
    if u.precision < precision + 1:
        raise DomainError("need precision %d, component has %d"
                          % (precision + 1, u.precision))
    w = u.delta() / (u ** p)
    total = PadicCyclotomic.zero(u.config, p, w.precision)
    power = None
    n = 1
    while n - 1 - _ilog(n, p) <= precision:
        power = w if power is None else power * w
        total = total + power.times_rational(
            Fraction((-1) ** (n - 1) * p ** (n - 1), n))
        n += 1
    return total.reduce_to(min(precision, total.precision))


def _series_value(series: TruncSeries, t: PadicCyclotomic) -> PadicCyclotomic:
    """Evaluate a univariate series at an element of positive valuation.

    Coefficients may carry powers of p in their denominators (logarithms do);
    each is cleared against the valuation of t**j before the modular multiply.
    """
    if t.min_valuation() < 1:
        raise DomainError("series evaluation needs valuation >= 1")
    total = PadicCyclotomic.zero(t.config, t.p, t.precision)
    power = PadicCyclotomic.one(t.config, t.p, t.precision)
    for j in range(1, series.order + 1):
        power = power * t
        c = series.coefficient(j)
        if not c:
            continue
        s = vp(c.denominator, t.p)
        term = power.divide_by_prime_power(s) if s else power
        total = total + term.times_rational(c * t.p ** s)
    return total


def _apply_symbol(sym: SymbolPoly, value: PadicCyclotomic,
                  primes: PrimeSet) -> PadicCyclotomic:
    """sum_n c_n phi_n(value): Frobenius word by the factorization of n."""
    total = PadicCyclotomic.zero(value.config, value.p, value.precision)
    for n, c in sym.coeffs.items():
        exps = smooth_exponents(n, primes)
        if exps is None:
            raise DomainError("symbol index %d is not P-smooth" % n)
        conj = value
        for p, e in zip(primes, exps):
            for _ in range(e):
                conj = conj.frobenius(p)
        total = total + conj.times_rational(c)
    return total


def _twist_symbol(c: Character) -> SymbolPoly:
    """The multiplier rho with symbol(c) = rho * fundamental symbol."""
    if c.group == "Gm" and c.symbol == full_symbol_gm(c.primes):
        return SymbolPoly.one()
    if c.group == "Elliptic" and c.symbol == full_symbol_elliptic(c.curve, c.primes):
        return SymbolPoly.one()
    return decompose_over_fundamental(c)


# ---------------------------------------------------------------------------
# character evaluation
# ---------------------------------------------------------------------------

def eval_gm_character(c: Character, q, precision: int) -> EvaluationResult:
    """Evaluate a multiplicative character componentwise on a unit adele."""
    if c.group != "Gm":
        raise DomainError("expected a multiplicative character")
    if not isinstance(q, AdelePoint):
        q = AdelePoint.multiplicative(q, c.primes, precision)
    rho = _twist_symbol(c)
    work = precision + guard_digits(precision)
    values = []
    for k, p in enumerate(c.primes):
        u = q.component(k)
        ode = eval_gm_ode(u, p, min(work, u.precision - 1))
        sym = rho * euler_symbol_gm(c.primes, k + 1)
        values.append(_apply_symbol(sym, ode, c.primes).reduce_to(precision))
    return EvaluationResult(c.primes, values, precision)


def elliptic_formal_value(curve, point: CurvePoint, p: int, precision: int,
                          config: Optional[CyclotomicConfig] = None
                          ) -> PadicCyclotomic:
    """(1/p)[l(t^(phi^2)) - a_p l(t^phi) + p l(t)] for a kernel point.

    The point must reduce to the identity mod p; its parameter is embedded
    p-adically and conjugated by the Frobenius lift.
    """
    if config is None:
        m = point.x.config.m if isinstance(point.x, CyclotomicElement) else 1
        config = CyclotomicConfig(m, (p,))
    work = _elliptic_work(precision)
    t_exact = to_formal_parameter(point, p)
    if isinstance(t_exact, CyclotomicElement):
        t = PadicCyclotomic.from_cyclotomic(t_exact, p, work)
    else:
        t = PadicCyclotomic.from_rational(config, t_exact, p, work)
    if t.is_zero():
        return PadicCyclotomic.zero(config, p, precision)
    return _formal_value(curve, t, precision, elliptic_log(curve, work + 8))


def _elliptic_work(precision: int) -> int:
    """Digits of t that the formal value at `precision` is computed from."""
    return precision + guard_digits(precision) + 1


def _formal_value(curve, t: PadicCyclotomic, precision: int,
                  log: TruncSeries) -> PadicCyclotomic:
    """The formal value at a nonzero parameter t, with the curve's logarithm."""
    p = t.p
    ap = count_points_ap(curve, p)
    t1 = t.frobenius()
    t2 = t1.frobenius()
    combo = (_series_value(log, t2)
             - _series_value(log, t1).times_rational(ap)
             + _series_value(log, t).times_rational(p))
    w = combo.divide_by_prime_power(1)
    return w.reduce_to(min(precision, w.precision))


def eval_elliptic_character(c: Character, q, precision: int) -> EvaluationResult:
    """Evaluate a curve character; reports M_k * psi(Q_k) with M_k recorded.

    M_k is the order of the reduction group, so M_k Q is in the kernel of
    reduction; the target is torsion-free, so zero-testing is unaffected by
    the known scaling.  M_k Q is never formed over Q(zeta_m): its formal
    parameter is computed modulo a power of p in E(Z_p[zeta_m]/p^K), and the
    curve's logarithm is built once for all primes.
    """
    if c.group != "Elliptic":
        raise DomainError("expected an elliptic character")
    if isinstance(q, AdelePoint):
        point, config = q.point, q.config
    else:
        point = q
        m = point.x.config.m if isinstance(point.x, CyclotomicElement) else 1
        config = CyclotomicConfig(m, c.primes)
    if point.curve.coefficients() != c.curve.coefficients():
        raise DomainError("point does not lie on the character's curve")
    rho = _twist_symbol(c)
    work = _elliptic_work(precision)
    log = None
    values, scalings = [], []
    for k, p in enumerate(c.primes):
        scale = reduction_group_order(c.curve, p, config.m)
        t = scaled_formal_parameter(point, scale, p, work, config)
        if t.is_zero():
            value = PadicCyclotomic.zero(config, p, precision)
        else:
            if log is None:
                log = elliptic_log(c.curve, work + 8)
            w = _formal_value(c.curve, t, precision, log)
            sym = rho * euler_symbol_ell(c.curve, c.primes, k + 1)
            value = _apply_symbol(sym, w, c.primes).reduce_to(precision)
        values.append(value)
        scalings.append(scale)
    return EvaluationResult(c.primes, values, precision, scalings)


def evaluate(c: Character, q, precision: int) -> EvaluationResult:
    if c.group == "Gm":
        return eval_gm_character(c, q, precision)
    if c.group == "Elliptic":
        return eval_elliptic_character(c, q, precision)
    raise DomainError("no evaluator for group %r" % (c.group,))


# ---------------------------------------------------------------------------
# torsion, closed form, continuation
# ---------------------------------------------------------------------------

def torsion_test(q, bound: int = 16) -> bool:
    """Is the global point torsion: root of unity, or killed by some k <= bound."""
    if isinstance(q, AdelePoint):
        if q.point is None:
            raise DomainError("torsion test needs a global point")
        q = q.point
    if isinstance(q, CurvePoint):
        return q.order(bound) is not None
    if isinstance(q, CyclotomicElement):
        e = math.lcm(2, q.config.m)
        return q ** e == CyclotomicElement.from_rational(q.config, 1)
    return Fraction(q) in (Fraction(1), Fraction(-1))


def unit_log(b, p: int, precision: int) -> PadicInt:
    """log of an arbitrary unit: log(b^(p-1))/(p-1) kills the torsion part."""
    one_unit = PadicInt(p, precision, Fraction(b) ** (p - 1))
    return padic_log(one_unit) * Fraction(1, p - 1)


def gm_closed_form(primes: PrimeSet, b, p: int, precision: int) -> PadicInt:
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

    Evaluates the character at the point for every prime, requires each value
    to be rational (no cyclotomic part beyond the constant coefficient), and
    runs rational reconstruction across the primes with the given height
    bound.  None means no witness at this precision.
    """
    result = evaluate(c, point, precision)
    residues = []
    for p, v in zip(c.primes, result.values):
        if any(coef % p ** v.precision for coef in v.coeffs[1:]):
            return None
        residues.append(PadicInt(p, v.precision, v.coeffs[0]))
    return rational_reconstruct(residues, bound)
