import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest

import deltachar.characters
import deltachar.evaluation
from deltachar.characters import (
    Character,
    DiracComponent,
    SymbolPoly,
    _euler_symbols,
    build_elliptic_character,
    build_ga_character,
    build_gm_character,
    character_from_json_dict,
    decompose_over_fundamental,
    euler_polynomial,
    formal_group,
    full_symbol,
)
from deltachar.cyclotomic import (
    CyclotomicConfig,
    CyclotomicElement,
    PadicCyclotomic,
    _zp,
    padic_log,
)
from deltachar.elliptic import (
    WeierstrassCurve,
    _FactorCurve,
    _PrecisionExhausted,
    _completed_square,
    _factor_idempotents,
    _residue_field_count,
    _scaled_parameter,
    count_points_ap,
    reduction_group_order,
)
from deltachar.evaluation import (
    AdelePoint,
    EvaluationResult,
    _gm_log,
    _series_value,
    eval_gm_ode,
    elliptic_formal_value,
    evaluate,
    continuation_witness,
    gm_closed_form,
    torsion_test,
    unit_log,
)
from deltachar.exact_arith import (
    DomainError,
    NonUnitError,
    PrimeSet,
    _ilog,
    log_budget,
    vp,
)
from deltachar.series_fgl import TruncSeries, _log_terms, elliptic_log, gm_log

P35 = PrimeSet((3, 5))
P57 = PrimeSet((5, 7))
CFG1 = CyclotomicConfig(1, P35)
CFG4 = CyclotomicConfig(4, P35)
Z4 = CyclotomicElement.zeta(CFG4)
E11 = WeierstrassCurve.from_label("11a")
E37 = WeierstrassCurve.from_label("37a")
E43 = WeierstrassCurve(0, 1, 1, 0, 0)


def nonzero_primes(result):
    """The primes at which an evaluation result is nonzero, in order."""
    return tuple(p for p, v in zip(result.primes, result.values)
                 if not v.is_zero())


def test_adele_construction():
    a = AdelePoint.multiplicative(2, P35, 10)
    assert [c.p for c in a.components] == [3, 5]
    assert a.components[0].precision == 11  # one digit for the division by p
    az = AdelePoint.multiplicative(Z4, P35, 10)
    assert az.config.m == 4
    with pytest.raises(NonUnitError):
        AdelePoint.multiplicative(3, P35, 10)
    with pytest.raises(NonUnitError):
        AdelePoint.multiplicative(1 - 2 * Z4, P35, 10)  # norm 5
    comps = [PadicCyclotomic.from_rational(CFG1, 2, 3, 20),
             PadicCyclotomic.from_rational(CFG1, 7, 5, 20)]
    mixed = AdelePoint.from_components(comps, P35, 10)
    assert mixed.point is None
    with pytest.raises(DomainError):
        AdelePoint.from_components(comps[:1], P35, 10)
    with pytest.raises(DomainError):
        AdelePoint.from_components(list(reversed(comps)), P35, 10)
    with pytest.raises(DomainError):
        AdelePoint.from_components(comps, P35, 20)


def test_adele_components_share_one_level():
    """Components at different levels are refused: 2 at p = 3 over Q and
    1 + zeta_4 at p = 5 over Q(i) do not make one adele, whichever comes
    first; at one level they do, and the adele takes that level."""
    two = PadicCyclotomic.from_rational(CFG1, 2, 3, 20)
    gauss = PadicCyclotomic.from_cyclotomic(1 + Z4, 5, 20)
    with pytest.raises(DomainError, match="level 4, the first at 1"):
        AdelePoint.from_components([two, gauss], P35, 10)
    with pytest.raises(DomainError, match="level 1, the first at 4"):
        AdelePoint.from_components(
            [PadicCyclotomic.from_rational(CFG4, 2, 3, 20),
             PadicCyclotomic.from_rational(CFG1, 2, 5, 20)], P35, 10)
    same = AdelePoint.from_components(
        [PadicCyclotomic.from_rational(CFG4, 2, 3, 20), gauss], P35, 10)
    assert same.config.m == 4


def test_gm_ode_values():
    one = PadicCyclotomic.from_rational(CFG1, 1, 3, 12)
    assert eval_gm_ode(one, 3, 10).is_zero()
    zeta = PadicCyclotomic.from_cyclotomic(Z4, 3, 12)
    assert eval_gm_ode(zeta, 3, 10).is_zero()
    two = PadicCyclotomic.from_rational(CFG1, 2, 3, 14)
    got = eval_gm_ode(two, 3, 12)
    assert not got.is_zero()
    # independent route: (1/3) log(phi(2)/2^3) = -(1/3) log 4 computed by
    # the plain p-adic logarithm on integers
    ref = padic_log(_zp(3, 13, 4)).divide_by_prime_power(1) * (-1)
    assert got.coeffs[0] % 3 ** 12 == ref.residue % 3 ** 12
    with pytest.raises(NonUnitError):
        eval_gm_ode(PadicCyclotomic.from_rational(CFG1, 3, 3, 12), 3, 10)
    with pytest.raises(DomainError):
        eval_gm_ode(two, 5, 10)
    with pytest.raises(DomainError):
        eval_gm_ode(two, 3, 14)  # no digit left for the division by p


# -- the series kernel against term-by-term evaluation ---------------------

def _pairs(series):
    """The (numerator, denominator) pairs `_series_value` takes, T^1..T^order."""
    return [(c.numerator, c.denominator)
            for c in map(series.coefficient, range(1, series.order + 1))]


def _series_reference(series, t):
    """Sum c_j t^j one term at a time, clearing p^s_j against t^j."""
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


def _gm_ode_reference(u, p, precision):
    """eval_gm_ode one term at a time, with the powers of w as objects."""
    w = u.delta() / (u ** p)
    total = PadicCyclotomic.zero(u.config, p, w.precision)
    power = None
    n = 1
    while n - 1 - _ilog(n, p) <= precision:
        power = w if power is None else power * w
        total = total + power.times_rational(F((-1) ** (n - 1) * p ** (n - 1), n))
        n += 1
    return total.reduce_to(min(precision, total.precision))


# -- the Dirac route: an independent reference for `evaluate` --------------

def _dirac_apply(sym, value):
    """sum_n c_n phi_n(value), one Galois image per term."""
    total = PadicCyclotomic.zero(value.config, value.p, value.precision)
    for n, c in sym.coeffs.items():
        total = total + value.frobenius(n).times_rational(c)
    return total


def _dirac_formal_value(curve, t, precision, log):
    """(1/p)[l(t)^(phi^2) - a_p l(t)^phi + p l(t)], l(t) summed once at t:
    E_p/p written out on the curve's logarithm."""
    p = t.p
    l0 = _series_value(log, t, t.min_valuation())
    l1 = l0.frobenius()
    w = (l1.frobenius() - l1 * count_points_ap(curve, p)
         + l0 * p).divide_by_prime_power(1)
    return w.reduce_to(min(precision, w.precision))


def _dirac_evaluate(c, q, precision, by_m=False):
    """`evaluate` through the Dirac rows: E_p/p on the point's value
    (`eval_gm_ode` at a unit; `_dirac_formal_value` at the scaled curve
    point, times M/N), then rho times the k-th Euler symbol
    (`_euler_symbols`) one term at a time, prime by prime.  With `by_m` a
    curve point is scaled by M itself, with no cofactor: the group law runs
    on from N Q to M Q inside the kernel of reduction, and the value at M Q
    is computed directly.  t gets
    N + 1 + floor(log_p order) digits, one more for each p-power a kept
    term divides by, not the N + 1 `evaluate` gives it: the padded route
    checks that the sharp digit count is enough, rather than following it."""
    rho = decompose_over_fundamental(c)
    euler = _euler_symbols(c.primes, c.curve)[1]
    if c.group == "Elliptic":
        point, config = q.point, q.config
        level = (point.x.config.m if isinstance(point.x, CyclotomicElement)
                 else 1)
        order = log_budget(precision, c.primes)
        digits = [precision + 1 + _ilog(order, p) for p in c.primes]
        log = _log_terms(c.curve, order)
    values, scalings = [], []
    for k, p in enumerate(c.primes):
        if c.group == "Gm":
            value, scale = eval_gm_ode(q.components[k], p, precision), 1
        else:
            scale = reduction_group_order(c.curve, p, config.m)
            count = (scale if by_m
                     else _residue_field_count(c.curve, p, level)[0])
            t = _scaled_parameter(_completed_square(point), count, p,
                                  digits[k], config)
            cofactor = scale // count
            if t.min_valuation() + vp(cofactor, p) >= t.precision:
                value = PadicCyclotomic.zero(t.config, p, precision)
            else:
                value = _dirac_formal_value(c.curve, t, precision,
                                            log) * cofactor
        if not value.is_zero():
            value = _dirac_apply(rho * euler[k], value)
        values.append(value.reduce_to(precision))
        scalings.append(scale)
    return EvaluationResult(c.primes, values, precision, scalings)


# (m, primes): split primes (p = 1 mod m) and inert or partly split ones
SERIES_RINGS = [(1, (3, 5)), (3, (7, 5)), (4, (5, 3)), (8, (17, 3)),
                (12, (13, 5))]


def _random_element(rng, config, p, precision, valuation):
    deg = config.degree
    coeffs = [p ** valuation * rng.randrange(p ** precision) for _ in range(deg)]
    coeffs[rng.randrange(deg)] = p ** valuation * rng.randrange(1, p)
    return PadicCyclotomic(config, p, precision, coeffs)


# logarithm-type pairs: G_m's, and curves' for integral and rational models,
# with c6 = 0 (the omega recurrence) and c6 != 0 (the w-recurrence)
LOG_SOURCES = [None, E37, WeierstrassCurve(0, -1, 1, -10, -20),
               WeierstrassCurve(F(1, 2), F(-1, 3), 1, F(2, 5), 0),
               WeierstrassCurve(F(1, 3), 2, F(-5, 7), 1, 3)]


def _series_of(terms):
    """The series of (numerator, denominator) pairs, T^1..T^len(terms)."""
    return TruncSeries(1, len(terms), {(j,): F(n, d)
                                       for j, (n, d) in enumerate(terms, 1)})


def _lift(rng, t, extra):
    """A random lift of t to `extra` more digits."""
    p, k = t.p, t.precision
    return PadicCyclotomic(t.config, p, k + extra,
                           [c + p ** k * rng.randrange(p ** extra)
                            for c in t.coeffs])


def test_series_value_matches_term_by_term():
    """`_series_value` reports min(K, tail) digits, K those of t and tail
    the first the terms past the order can move, and each of them is the
    same on random lifts of t, for the series as given and for the same
    logarithm to a higher order: the sharp count, with nothing spent on the
    divisions by j."""
    rng = random.Random(6301)
    for m, primes in SERIES_RINGS:
        config = CyclotomicConfig(m, PrimeSet(sorted(primes)))
        for p in primes:
            for curve in LOG_SOURCES:
                if curve is not None and not curve.has_integral_reduction(p):
                    continue
                for v in (1, 2, 3):
                    k = rng.randint(v + 4, 30)
                    order = rng.randint(1, 2 * k // v + 2)
                    terms = _log_terms(curve, order)
                    longer = _series_of(_log_terms(curve, max(order, k) + 3))
                    t = _random_element(rng, config, p, k, v)
                    got = _series_value(terms, t, t.min_valuation())
                    tail = (order + 1) * v - _ilog(order + 1, p)
                    assert got.precision == min(k, tail), (m, p, v, k, order)
                    for _ in range(4):
                        lift = _lift(rng, t, 12)
                        for series in (_series_of(terms), longer):
                            want = _series_reference(series, lift)
                            assert want.precision >= got.precision
                            assert got.coeffs == want.reduce_to(
                                got.precision).coeffs, (m, p, curve, v, k)
                    # unreduced pairs: a common factor, powers of p included,
                    # cancels before s_j is read, so the sum is the same
                    g = [rng.choice((1, 2, p, 2 * p * p)) for _ in terms]
                    loose = [(n * f, d * f) for (n, d), f in zip(terms, g)]
                    again = _series_value(loose, t, t.min_valuation())
                    assert (again.precision, again.coeffs) == (got.precision,
                                                               got.coeffs)


def test_series_value_on_elliptic_logs():
    # the logarithm's own coefficients b_n (-2)^(n-1)/n, and the formal value
    # against the three term-by-term sums at t, phi t and phi^2 t, which
    # lose a digit for each p-power a term divides by
    rng = random.Random(4409)
    curves = [E11, E37, WeierstrassCurve(0, 1, 1, 0, 0),
              WeierstrassCurve(F(1, 3), 2, F(-5, 7), 1, 3),
              WeierstrassCurve(F(1, 2), F(-1, 3), 1, F(2, 5), 0)]
    for curve in curves:
        for m, primes in SERIES_RINGS:
            config = CyclotomicConfig(m, PrimeSet(sorted(primes)))
            for p in primes:
                if not curve.has_integral_reduction(p) or not curve.is_good(p):
                    continue
                k = rng.randint(8, 40)
                log = elliptic_log(curve, k + 8)
                terms = _log_terms(curve, k + 8)
                assert [F(n, d) for n, d in terms] == [
                    log.coefficient(j) for j in range(1, k + 9)]
                t = _random_element(rng, config, p, k, rng.choice((1, 1, 2)))
                got = _series_value(terms, t, t.min_valuation())
                want = _series_reference(log, t)
                assert got.precision == k >= want.precision
                assert got.reduce_to(want.precision).coeffs == want.coeffs
                ap = count_points_ap(curve, p)
                t1 = t.frobenius()
                combo = (_series_reference(log, t1.frobenius())
                         - _series_reference(log, t1).times_rational(ap)
                         + want.times_rational(p)).divide_by_prime_power(1)
                value = _dirac_formal_value(curve, t, k, terms)
                assert value.precision == k - 1
                assert value.reduce_to(combo.precision).coeffs == combo.coeffs


def test_series_value_cut_below_budget():
    # at p = 13 and N = 12 the budget keeps T^13, whose coefficient has 13 in
    # its denominator, and t gets N + 1 digits, none for the division by 13;
    # a logarithm cut shorter reports fewer digits, and the digits it drops
    # are ones the cut gets wrong
    config = CyclotomicConfig(1, PrimeSet((13,)))
    order = log_budget(12, (13,))
    assert order == 13
    full = elliptic_log(E37, order)
    assert vp(full.coefficient(13), 13) == -1
    t = PadicCyclotomic(config, 13, 13, [13 * 5 + 13 ** 2 * 7])
    v = t.min_valuation()
    whole = _series_value(_log_terms(E37, order), t, v)
    assert whole.precision == 13
    for cut in range(1, order):
        short = _series_value(_log_terms(E37, cut), t, v)
        assert short.precision == cut + 1 - _ilog(cut + 1, 13) < 13
        assert short.coeffs == whole.reduce_to(short.precision).coeffs
    # summed to full precision, the cut at T^12 is wrong in the 13th digit
    wrong = _series_reference(elliptic_log(E37, 12), t)
    assert wrong.reduce_to(12) == whole.reduce_to(12)
    assert wrong.reduce_to(13) != whole


def test_series_value_domain_errors():
    config = CyclotomicConfig(4, P35)
    terms = _log_terms(None, 6)
    with pytest.raises(DomainError):
        unit = PadicCyclotomic(config, 3, 10, [1, 3])
        _series_value(terms, unit, unit.min_valuation())  # v < 1
    t = PadicCyclotomic(config, 3, 10, [3, 9])
    v = t.min_valuation()
    assert _series_value(terms, t, v) == _series_reference(_series_of(terms), t)
    zero = PadicCyclotomic.zero(config, 3, 10)
    zero = _series_value(terms, zero, zero.min_valuation())
    assert zero.is_zero() and zero.precision == 10
    assert _series_value([], t, v).precision == 1      # tail = v(t) = 1


def test_series_value_refuses_non_logarithms():
    """A pair with more of p in its denominator than its index has
    (v_p(c_j) < -v_p(j)) is refused, as its digits would depend on the lift
    of t; v_p(c_j) = -v_p(j) is a logarithm, and so is an unreduced pair
    whose numerator cancels the excess."""
    config = CyclotomicConfig(4, P35)
    t = PadicCyclotomic(config, 3, 10, [3, 9])
    ones = [(1, 1)] * 8
    for terms in ([(1, 3)], [(1, 1), (1, 9)], [(1, 1), (0, 1), (2, 9)],
                  ones + [(1, 27)], [(1, 1), (-1, 2), (1, 3), (1, 9)]):
        with pytest.raises(DomainError, match="not a logarithm"):
            _series_value(terms, t, t.min_valuation())
    for terms in (ones + [(1, 9)], [(1, 1), (1, 1), (3, 9)],
                  ones[:5] + [(3, 18)]):
        assert _series_value(terms, t, t.min_valuation()) == _series_reference(
            _series_of(terms), t)


def test_gm_ode_matches_term_by_term():
    rng = random.Random(1601)
    for m, primes in SERIES_RINGS:
        config = CyclotomicConfig(m, PrimeSet(sorted(primes)))
        for p in primes:
            for n in (1, 7, 40, 160):
                work = n + 1 + rng.randint(0, 3)
                coeffs = [rng.randrange(p ** work) for _ in range(config.degree)]
                u = PadicCyclotomic(config, p, work, coeffs)
                while not u.is_unit():
                    u = u + 1
                got = eval_gm_ode(u, p, n)
                want = _gm_ode_reference(u, p, n)
                assert (got.precision, got.coeffs) == (want.precision, want.coeffs)


# (m, primes): 13 splits at m = 4 and 12, 17 at m = 8 (p = 1 mod m); 3, 11
# and 29 are inert or partly split at m > 1
DESCENT_RINGS = [(1, (3, 29)), (4, (11, 13)), (8, (3, 17, 29)),
                 (12, (11, 13))]


def test_gm_ode_descent_matches_term_by_term():
    """The p-power descent against the direct series, as the descent depth
    k = isqrt(precision // c_p) steps through 0..4 (precision 1..40) and up
    to 8 (160), on units u = 1 mod p^j (z of valuation j - 1) and on
    components with more digits than precision + 1."""
    rng = random.Random(1613)
    for m, primes in DESCENT_RINGS:
        config = CyclotomicConfig(m, PrimeSet(primes))
        for p in primes:
            for n in list(range(1, 41)) + [160]:
                j = (0, 2, 3)[n % 3]
                work = n + 1 + n % 4
                coeffs = [p ** j * rng.randrange(p ** work)
                          for _ in range(config.degree)]
                coeffs[0] += 1 if j else 0
                u = PadicCyclotomic(config, p, work, coeffs)
                while not u.is_unit():
                    u = u + 1
                got = eval_gm_ode(u, p, n)
                want = _gm_ode_reference(u, p, n)
                assert (got.precision, got.coeffs) == (want.precision, want.coeffs)
    cfg4 = CyclotomicConfig(4, PrimeSet((11, 13)))
    with pytest.raises(NonUnitError):   # norm 13: a non-unit with unit coefficients
        eval_gm_ode(PadicCyclotomic(cfg4, 13, 30, [3, 2]), 13, 20)
    with pytest.raises(NonUnitError):
        eval_gm_ode(PadicCyclotomic(cfg4, 11, 30, [11, 22]), 11, 20)
    u = PadicCyclotomic(cfg4, 13, 30, [2, 1])
    with pytest.raises(DomainError):
        eval_gm_ode(u, 11, 20)
    with pytest.raises(DomainError):
        eval_gm_ode(u, 13, 30)  # no digit left for the division by p


def test_gm_log_cofactor_is_an_integer_inverse():
    # the cofactor stands for 1/(q - 1) at x's digits: an int, a p-adic unit,
    # inverse to q - 1 mod p^(precision + 1 + e), q the residue field order
    for m, primes in DESCENT_RINGS:
        config = CyclotomicConfig(m, PrimeSet(primes))
        for p in primes:
            q = p ** next(f for f in range(1, m + 1) if (p ** f - 1) % m == 0)
            for precision in (1, 12, 40):
                u = PadicCyclotomic(config, p, precision + 1,
                                    [2] if m == 1 else [3, 1])
                x, e, cofactor = _gm_log(u, p, precision)
                assert type(cofactor) is int and vp(cofactor, p) == 0
                assert x.precision == precision + 1 + e
                assert cofactor * (q - 1) % p ** x.precision == 1


def _random_rho(rng, primes):
    """A P-local symbol on three of 1, p, p', p p', p^2 (p, p' the least
    and largest prime of P), with augmentation 0 about a third of the time."""
    p, q = primes[0], primes[-1]
    dens = [d for d in (1, 2, 4, 11) if all(d % l for l in primes)]
    coeffs = {n: F(rng.randint(-3, 3), rng.choice(dens))
              for n in rng.sample([1, p, q, p * q, p * p], 3)}
    if rng.random() < 0.3:
        coeffs[1] = coeffs.get(1, 0) - sum(coeffs.values())
    return SymbolPoly(coeffs)


def _random_unit_components(rng, config, primes, digits):
    """Per-prime unit components with `digits` digits, drawn independently."""
    comps = []
    for p in primes:
        u = PadicCyclotomic(config, p, digits, [rng.randrange(p ** digits)
                                                for _ in range(config.degree)])
        while not u.is_unit():
            u = u + 1
        comps.append(u)
    return comps


def test_evaluate_matches_the_dirac_route():
    """`evaluate` applies the character's own symbol to the point's formal
    logarithm; the reference applies E_p/p to the point's value and then
    rho times the k-th Euler symbol one Galois image per term.  The two
    agree byte for byte, errors included, on random P-local rho at m in
    {1, 3, 4, 5, 8, 12} and precision in {1, 2, 5, 12, 40}: G_m rationals,
    roots of unity, nontorsion units and per-prime adeles, and points of
    11a, 37a and 43a, among them 43a's Q(i) point."""
    rng = random.Random(2511)
    gm_sets = ((3, 5), (5, 7), (3, 7), (7, 13), (3, 5, 7))
    curves = ((E11, ((3, 5), (3, 7), (5, 7)), ((0, 0), (1, -1))),
              (E37, ((5, 7), (5, 13), (7, 11)), ((0, 0), (1, 0))),
              (E43, ((3, 5), (5, 13), (3, 11), (11, 13)),
               ((0, 0), "i", None)))
    errors = zeros = gm_points = 0
    for m in (1, 3, 4, 5, 8, 12):
        primes = PrimeSet(rng.choice([ps for ps in gm_sets
                                      if all(m % p for p in ps)]))
        config = CyclotomicConfig(m, primes)
        z = CyclotomicElement.zeta(config)
        rho = _random_rho(rng, primes)
        sym = rho * full_symbol(primes)
        for n in (1, 2, 5, 12, 40):
            points = [F(2), F(-4, 11), -z ** rng.randrange(2 * m)]
            if m > 1:
                points.append(2 + 3 * z + z ** (m - 1))
            adeles = []
            for u in points:
                try:
                    adeles.append(AdelePoint.multiplicative(u, primes, n, m))
                except NonUnitError:
                    pass
            adeles.append(AdelePoint.from_components(
                _random_unit_components(rng, config, primes, n + 1), primes, n))
            gm_points += len(adeles)
            for a in adeles:
                # a symbol off the fundamental one by phi_p is refused
                for s in (sym, sym + SymbolPoly.phi(primes[0])):
                    c = Character("Gm", primes, s, s.star(gm_log(8)))
                    got = _outcome(lambda: evaluate(c, a, n))
                    assert got == _outcome(lambda: _dirac_evaluate(c, a, n)), (
                        m, tuple(primes), s, n)
                    errors += type(got) is tuple
        for curve, prime_sets, xys in curves:
            primes = PrimeSet(rng.choice([ps for ps in prime_sets
                                          if all(m % p for p in ps)]))
            built = build_elliptic_character(curve, primes, 8)
            rho = _random_rho(rng, primes)
            sym = rho * built.symbol
            series = sym.star(formal_group("Elliptic", 8, curve).log)
            for xy in xys:
                if xy == "i":
                    if m % 4:
                        continue
                    q = _gaussian_point_43a(primes)
                else:
                    q = curve.infinity() if xy is None else curve.point(*xy)
                for n in (1, 2, 5, 12, 40):
                    c = Character("Elliptic", primes, sym, series, curve)
                    a = AdelePoint.elliptic(q, primes, n, m)
                    got = _outcome(lambda: evaluate(c, a, n))
                    assert got == _outcome(lambda: _dirac_evaluate(c, a, n)), (
                        curve.coefficients(), xy, m, tuple(primes), rho, n)
                    errors += type(got) is tuple
                    zeros += type(got) is dict and all(
                        comp["zero"] for comp in got["components"])
    assert errors == gm_points > 100    # the one refusal per G_m point
    assert zeros > 50                   # torsion points and infinity


def test_twisted_gm_closed_form_at_m_1():
    # at m = 1 every phi_n acts trivially, so a twist rho multiplies the
    # fundamental character's value on a rational b by its augmentation
    for primes in ((3, 5), (5, 7), (3, 5, 7)):
        ps = PrimeSet(primes)
        lo, hi = primes[0], primes[-1]
        for rho in (SymbolPoly({1: 3, lo: -1, lo * hi: F(1, 2)}),
                    SymbolPoly({hi * hi: -2, lo: F(1, 4)})):
            aug = rho.augmentation()
            assert aug not in (0, 1)
            sym = rho * full_symbol(ps)
            c = Character("Gm", ps, sym, sym.star(gm_log(8)))
            for b in (F(2), F(-4, 11), F(13)):
                for n in (1, 5, 12, 30):
                    r = evaluate(c, b, n)
                    for p in primes:
                        want = gm_closed_form(ps, b, p, n).times_rational(aug)
                        got = r.component(p)
                        assert got.precision == want.precision == n
                        assert got.coeffs[0] == want.residue, (primes, rho, b)


def test_gm_kernel_at_torsion():
    c = build_gm_character(P35, 4)
    assert evaluate(c, 1, 15).is_zero()
    for point in (Z4, Z4 ** 3, -Z4, CyclotomicElement.from_rational(CFG4, -1)):
        for precision in (8, 15, 20):
            assert evaluate(c, point, precision).is_zero()


def test_gm_nontorsion_nonzero():
    c = build_gm_character(P35, 4)
    r = evaluate(c, 2, 15)
    assert nonzero_primes(r) == (3, 5)
    assert not torsion_test(F(2))
    # unit with a zeta part and unit norm: (2 + 3 zeta)(2 - 3 zeta) = 13
    r2 = evaluate(c, 2 + 3 * Z4, 12)
    assert nonzero_primes(r2) == (3, 5)


def test_gm_closed_form_on_rationals():
    c = build_gm_character(P35, 4)
    for b in (2, 7, F(4, 7)):
        r = evaluate(c, b, 15)
        for p in P35:
            want = gm_closed_form(P35, b, p, 15)
            assert r.component(p).coeffs[0] % p ** 15 == want.residue % p ** 15
    c3 = build_gm_character(PrimeSet((3, 5, 7)), 4)
    r = evaluate(c3, 2, 12)
    for p in (3, 5, 7):
        want = gm_closed_form(PrimeSet((3, 5, 7)), 2, p, 12)
        assert r.component(p).coeffs[0] % p ** 12 == want.residue % p ** 12


def test_gm_homomorphism_random_units():
    c = build_gm_character(P35, 4)
    rng = random.Random(411)
    units = []
    while len(units) < 6:
        u = rng.randint(-4, 4) + rng.randint(-4, 4) * Z4
        try:
            AdelePoint.multiplicative(u, P35, 10)
        except (NonUnitError, DomainError):
            continue
        units.append(u)
    for i in range(0, 6, 2):
        u, w = units[i], units[i + 1]
        vu = evaluate(c, u, 10)
        vw = evaluate(c, w, 10)
        vuw = evaluate(c, u * w, 10)
        for k in range(2):
            assert vu.values[k] + vw.values[k] == vuw.values[k]
    # power scaling: value(u^k) = k * value(u)
    u = units[0]
    vu = evaluate(c, u, 10)
    v3 = evaluate(c, u ** 3, 10)
    for k in range(2):
        assert vu.values[k].times_rational(3) == v3.values[k]


def test_twisted_character_evaluation():
    base = build_gm_character(P35, 4)
    rho = SymbolPoly({1: 1, 3: -1})
    sym = rho * full_symbol(P35)
    twisted = Character("Gm", P35, sym, sym.star(gm_log(50)))
    # phi acts trivially on rationals, so augmentation zero kills the value
    assert evaluate(twisted, 2, 15).is_zero()
    assert not evaluate(twisted, 2 + 3 * Z4, 12).is_zero()
    # a pure phi_3 twist acts by Frobenius on the value
    tw3 = SymbolPoly.phi(3) * full_symbol(P35)
    c3 = Character("Gm", P35, tw3, tw3.star(gm_log(50)))
    vb = evaluate(base, 2 + 3 * Z4, 12)
    v3 = evaluate(c3, 2 + 3 * Z4, 12)
    for k in range(2):
        assert v3.values[k] == vb.values[k].frobenius(3)


def _points_at_level(curve, m):
    """A nontorsion and a torsion point of level m: units of Q(zeta_m) for
    G_m; 43a's (0, 0) and 11a's (0, 0) on the curves."""
    if curve is None:
        if m == 1:
            return [2, -1]
        z = CyclotomicElement.zeta(CyclotomicConfig(m, P35))
        return [2 + 3 * z, z ** 3]
    return [curve.point(0, 0)]


def test_stored_bare_and_loaded_characters_evaluate_alike():
    """One character in three forms evaluates the same: with its Euler
    symbols stored (built, or decomposed as `decompose` does it), made by
    hand with nothing stored, and read back from its JSON."""
    for rho in (SymbolPoly.one(), SymbolPoly({1: 1, 3: -1}),
                SymbolPoly({1: 1, 3: 1})):
        for curve in (None, E11, E43):
            built = (build_gm_character(P35, 8) if curve is None
                     else build_elliptic_character(curve, P35, 8))
            group, sym = built.group, rho * built.symbol
            series = sym.star(formal_group(group, 8, curve).log)
            if rho == SymbolPoly.one():
                stored = built
            else:
                stored = Character(group, P35, sym, series, curve)
                decompose_over_fundamental(stored)
            bare = Character(group, P35, sym, series, curve)
            loaded = character_from_json_dict(
                json.loads(json.dumps(stored.to_json_dict())))
            assert bare._twist is None and loaded._twist is None
            for m in (1, 4, 8):
                for q in _points_at_level(curve, m):
                    q = (AdelePoint.multiplicative(q, P35, 8, m) if curve is None
                         else AdelePoint.elliptic(q, P35, 8, m))
                    got = [evaluate(c, q, 8).to_json_dict()
                           for c in (stored, bare, loaded)]
                    assert got[0] == got[1] == got[2], (group, rho, m)
            assert bare._twist == loaded._twist == rho


def test_bare_character_decomposes_once(monkeypatch):
    # the first evaluation stores rho, and the second reads it
    calls = []
    divide = deltachar.characters.divide_by_euler_factor

    def counted(*args):
        calls.append(args)
        return divide(*args)

    monkeypatch.setattr(deltachar.characters, "divide_by_euler_factor", counted)
    sym = SymbolPoly({1: 1, 3: -1}) * full_symbol(P35)
    c = Character("Gm", P35, sym, sym.star(gm_log(30)))
    assert evaluate(c, 2, 10).is_zero()
    assert not evaluate(c, 2 + 3 * Z4, 10).is_zero()
    assert len(calls) == len(P35)


def test_built_characters_evaluate_without_rebuilding_symbols(monkeypatch):
    def refuse(*args):
        raise AssertionError("a symbol was rebuilt during evaluation")

    gm = build_gm_character(PrimeSet((3, 5, 7)), 4)
    ell = build_elliptic_character(E37, P57, 8)
    for module in (deltachar.characters, deltachar.evaluation):
        for name in ("full_symbol", "_euler_symbols"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert not evaluate(gm, 2, 20).is_zero()
    assert not evaluate(ell, E37.point(0, 0), 12).is_zero()


def test_evaluate_reads_no_dirac_row(monkeypatch):
    """A built character derives its Dirac rows only when they are read:
    with `_euler_symbols` refusing after the build, `evaluate` still runs on
    G_m and on 11a, 37a and 43a at |P| = 1..3; afterwards `dirac` holds the
    products of E_l/E_l(0) over the other primes, formed here from
    `euler_polynomial`, and the JSON is byte-identical to that of the same
    character given those rows by hand."""
    rng = random.Random(2611)
    cases = [(None, (3, 5, 7, 11, 13), None),
             (E11, (3, 5, 7, 13), [(0, 0), (1, -1), None]),
             (E37, (5, 7, 11, 13), [(0, 0), (1, 0), (-1, 0)]),
             (E43, (3, 5, 11, 13), [(0, 0)])]
    derive = deltachar.characters._euler_symbols

    def refuse(*args):
        raise AssertionError("a Dirac row was derived during evaluation")

    for curve, primes, points in cases:
        for size in (1, 2, 3):
            ps = PrimeSet(sorted(rng.sample(primes, size)))
            m = rng.choice([m for m in (1, 4, 8) if all(m % p for p in ps)])
            n = rng.randint(4, 16)
            if curve is None:
                c = build_gm_character(ps, 6)
                u = rng.choice([2, F(4, 17), 1 + CyclotomicElement.zeta(
                    CyclotomicConfig(m, ps))])
                q = AdelePoint.multiplicative(u, ps, n, m)
            else:
                c = build_elliptic_character(curve, ps, 6)
                xy = rng.choice(points)
                point = curve.infinity() if xy is None else curve.point(*xy)
                q = AdelePoint.elliptic(point, ps, n, m)
            monkeypatch.setattr(deltachar.characters, "_euler_symbols", refuse)
            evaluate(c, q, n)
            monkeypatch.setattr(deltachar.characters, "_euler_symbols", derive)
            aps = [None if curve is None else count_points_ap(curve, p)
                   for p in ps]
            euler = [euler_polynomial(p, ap) for p, ap in zip(ps, aps)]
            rows = [DiracComponent(p, math.prod(
                        (e / e.coefficient(1) for j, e in enumerate(euler)
                         if j != k), start=SymbolPoly.one()), ap)
                    for k, (p, ap) in enumerate(zip(ps, aps))]
            assert [(d.prime, d.ap, d.euler_symbol, d.ode_symbol)
                    for d in c.dirac] == [(d.prime, d.ap, d.euler_symbol,
                                           d.ode_symbol) for d in rows]
            by_hand = Character(c.group, ps, c.symbol, c.series, curve,
                                dirac=rows)
            assert (json.dumps(c.to_json_dict())
                    == json.dumps(by_hand.to_json_dict())), (curve, ps)


def test_evaluate_forms_per_evaluation_data_once(monkeypatch):
    """One `evaluate` forms the symbol's class sums once and a curve point's
    completed-square data once, and gives the values of the Dirac route,
    which forms everything at each prime: 43a's (0, 0) at m = 1, 3, 4, 12,
    its Q(i) point at m = 4 and 12, and G_m units at m = 8 and 12.  P is
    {3, 5, 11}, or {5, 11, 13} where 3 divides m."""
    calls = {"_class_sums": 0, "_completed_square": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(deltachar.evaluation, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(deltachar.evaluation, name, counted)
    cases = []
    for m in (1, 3, 4, 12):
        cases.append(("43a (0, 0)", m, lambda ps: E43.point(0, 0)))
    for m in (4, 12):
        cases.append(("43a over Q(i)", m, _gaussian_point_43a))
    for m in (8, 12):
        cases.append(("unit 1 + zeta", m, lambda ps, m=m: 1 + (
            CyclotomicElement.zeta(CyclotomicConfig(m, ps)))))
    for label, m, make in cases:
        ps = PrimeSet((3, 5, 11) if m % 3 else (5, 11, 13))
        point = make(ps)
        if isinstance(point, CyclotomicElement):
            c = build_gm_character(ps, 6)
            q = AdelePoint.multiplicative(point, ps, 12)
        else:
            c = build_elliptic_character(E43, ps, 6)
            q = AdelePoint.elliptic(point, ps, 12, m)
        for name in calls:
            calls[name] = 0
        got = evaluate(c, q, 12)
        assert calls == {"_class_sums": 1,
                         "_completed_square": int(c.group == "Elliptic")}, (
            label, m)
        assert not got.is_zero(), (label, m)
        assert got.to_json_dict() == _dirac_evaluate(c, q, 12).to_json_dict(), (
            label, m)


def test_class_sums_match_term_by_term():
    """`_class_sums` sums each class n mod m in ints; it equals the sum of
    the symbol's Fraction coefficients taken one term at a time, less the
    classes that sum to 0, on built G_m and curve symbols and on twists of
    them at m = 1, 3, 4, 8, 12 (a twist by 1 - phi_3 has augmentation 0,
    so at m = 1 its one class is left out)."""
    rng = random.Random(3012)
    symbols = []
    for curve, pool in ((None, (3, 5, 7, 11)), (E11, (3, 5, 7, 13)),
                        (E37, (5, 7, 11, 13)), (E43, (3, 5, 11, 13))):
        for size in (1, 2, 3):
            primes = PrimeSet(sorted(rng.sample(pool, size)))
            base = deltachar.characters.full_symbol(primes, curve)
            rho = SymbolPoly({n: F(rng.randint(-6, 6), rng.choice((1, 2, 7)))
                              for n in (1, primes[0], primes[-1] ** 2)})
            symbols += [base, rho * base, (1 - SymbolPoly.phi(primes[0])) * base]
    dropped = 0
    for sym in symbols:
        for m in (1, 3, 4, 8, 12):
            ref = {}
            for n, c in sym.coeffs.items():
                ref[n % m] = ref.get(n % m, 0) + c
            got = deltachar.evaluation._class_sums(sym, m)
            assert got == {r: c for r, c in ref.items() if c}, (sym, m)
            assert all(type(c) is F for c in got.values())
            dropped += len(ref) - len(got)
    assert dropped


def test_independent_components():
    c = build_gm_character(P35, 4)
    comps = [PadicCyclotomic.from_rational(CFG1, 2, 3, 25),
             PadicCyclotomic.from_rational(CFG1, 7, 5, 25)]
    mixed = evaluate(c, AdelePoint.from_components(comps, P35, 12), 12)
    at2 = evaluate(c, 2, 12)
    at7 = evaluate(c, 7, 12)
    assert mixed.component(3) == at2.component(3)
    assert mixed.component(5) == at7.component(5)
    with pytest.raises(DomainError,
                       match=r"7 is not in the prime set \(3, 5\)"):
        mixed.component(7)


def test_elliptic_kernel_on_torsion():
    c = build_elliptic_character(E11, P35, 4)
    for xy in ((0, 0), (1, -1), (1, 0), (0, -1)):
        r = evaluate(c, E11.point(*xy), 12)
        assert r.is_zero()
        assert r.scalings == [5, 5]
    r = evaluate(c, E11.infinity(), 20)
    assert r.is_zero()
    # over a cyclotomic residue ring the scaling grows but torsion still dies
    a = AdelePoint.elliptic(E11.point(0, 0), P35, 12, m=4)
    r4 = evaluate(c, a, 12)
    assert r4.is_zero()
    assert r4.scalings == [15, 25]


def test_elliptic_nontorsion_nonzero():
    c = build_elliptic_character(E37, P57, 4)
    q = E37.point(0, 0)
    assert not torsion_test(q)
    r = evaluate(c, q, 12)
    assert nonzero_primes(r) == (5, 7)
    assert r.scalings == [reduction_group_order(E37, 5, 1),
                          reduction_group_order(E37, 7, 1)] == [8, 9]
    double = evaluate(c, 2 * q, 12)
    assert not double.is_zero()
    for k in range(2):
        assert double.values[k] == r.values[k].times_rational(2)


def test_elliptic_evaluation_with_c6_nonzero():
    # 11a1 and 57a1 have c6 != 0, so their logarithm comes from the
    # w-recurrence, not from the c6 = 0 recurrence for dz/sqrt(P)
    E11a1 = WeierstrassCurve(0, -1, 1, -10, -20)
    q = E11a1.point(5, 5)
    assert torsion_test(q)
    r = evaluate(build_elliptic_character(E11a1, PrimeSet((3, 7)), 4), q, 12)
    assert r.is_zero()
    E57 = WeierstrassCurve(0, -1, 1, -2, 2)
    c = build_elliptic_character(E57, P57, 4)
    q = E57.point(2, 1)
    assert not torsion_test(q)
    r = evaluate(c, q, 12)
    assert nonzero_primes(r) == (5, 7)
    double = evaluate(c, 2 * q, 12)
    for k in range(2):
        assert double.values[k] == r.values[k].times_rational(2)


def test_elliptic_frozen_over_gaussian_residue_rings():
    # 37a at (0,0) with m = 4: M = #E(F_29)^2 = 576 and #E(F_961) = 1008;
    # values frozen from exact scaling over Q(i)
    P = PrimeSet((29, 31))
    r = evaluate(build_elliptic_character(E37, P, 8),
                                AdelePoint.elliptic(E37.point(0, 0), P, 12, 4),
                                12)
    assert r.to_json_dict() == {"precision": 12, "components": [
        {"p": 29, "scaling": 576, "zero": False,
         "coeffs": ["190904975432913497", "0"]},
        {"p": 31, "scaling": 1008, "zero": False,
         "coeffs": ["563664406983239880", "0"]}]}


def test_elliptic_precision_monotone():
    # evaluate at N + k, reduced to N, equals evaluate at N
    rng = random.Random(20081)
    E43 = WeierstrassCurve(0, 1, 1, 0, 0)
    E389 = WeierstrassCurve(0, 1, 1, -2, 0)
    cases = [(E37, [(0, 0)], (5, 7, 11, 13)), (E43, [(0, 0)], (3, 5, 11, 13)),
             (E389, [(-1, 1), (0, 0)], (3, 5, 7, 11, 13))]
    for curve, gens, ordinary in cases:
        for _ in range(3):
            q = curve.infinity()
            for xy in gens:
                q = q + rng.randint(1, 2) * curve.point(*xy)
            primes = PrimeSet(sorted(rng.sample(ordinary, 2)))
            m = rng.choice((1, 4) if 3 in primes else (1, 3, 4))
            c = build_elliptic_character(curve, primes, 8)
            n = rng.randint(4, 48)
            base = evaluate(
                c, AdelePoint.elliptic(q, primes, n, m), n)
            assert not base.is_zero()
            for k in (1, 7):
                finer = evaluate(
                    c, AdelePoint.elliptic(q, primes, n + k, m), n + k)
                assert finer.scalings == base.scalings
                assert ([v.reduce_to(n).coeffs for v in finer.values]
                        == [v.coeffs for v in base.values])
                assert all(v.precision == n for v in base.values)


def test_elliptic_precision_at_primes_above_n():
    # primes larger than N, where the logarithm's T^p term (p in its
    # denominator) is still inside the budget: evaluate at N equals evaluate
    # at N + 7 reduced to N, at every prime pair, m in {1, 4}, N in {2, 5, 12}
    E43 = WeierstrassCurve(0, 1, 1, 0, 0)
    cases = [("37a", E37, (0, 0)), ("37a", E37, (1, 0)), ("43a", E43, (0, 0))]
    seen = set()
    for label, curve, xy in cases:
        ordinary = [p for p in (13, 17, 19, 23, 29, 31)
                    if curve.is_good(p) and count_points_ap(curve, p) % p]
        q = curve.point(*xy)
        for primes in itertools.combinations(ordinary, 2):
            ps = PrimeSet(primes)
            c = build_elliptic_character(curve, ps, 8)
            for m in (1, 4):
                for n in (2, 5, 12):
                    base = evaluate(c, AdelePoint.elliptic(q, ps, n, m), n)
                    finer = evaluate(c, AdelePoint.elliptic(q, ps, n + 7, m),
                                     n + 7)
                    assert not base.is_zero()
                    assert all(v.precision == n for v in base.values)
                    assert ([v.reduce_to(n).coeffs for v in finer.values]
                            == [v.coeffs for v in base.values]), (
                        xy, primes, m, n)
                    seen.add((label, xy, primes, m, n))
    assert ("37a", (0, 0), (13, 23), 4, 12) in seen


def _outcome(fn):
    try:
        return fn().to_json_dict()
    except DomainError as exc:
        return (type(exc).__name__, str(exc))


def _gaussian_point_43a(primes):
    # the Q(i) point of 43a from test_scaled_parameter_with_gaussian_coordinates
    config = CyclotomicConfig(4, primes)
    i = CyclotomicElement.zeta(config)
    x = F(-5, 4)
    return E43.point(CyclotomicElement.from_rational(config, x),
                     (i * F(3, 4) - E43.c1 * x - E43.c3) / 2)


def test_elliptic_cofactor_route_matches_scaling_by_m():
    # evaluate scales Q by the count N of its own residue field and
    # multiplies by M/N; the reference scales by M.  Both must agree to the
    # byte, errors included.
    def check(curve, q, primes, m, n):
        ps = PrimeSet(primes)
        c = build_elliptic_character(curve, ps, 8)
        a = AdelePoint.elliptic(q, ps, n, m)
        got = _outcome(lambda: evaluate(c, a, n))
        assert got == _outcome(lambda: _dirac_evaluate(c, a, n, by_m=True)), (
            q, primes, m, n)
        return got

    cofactors = 0
    for curve, xy, pairs in ((E37, (0, 0), ((5, 7), (13, 29), (11, 23))),
                             (E37, (1, 0), ((5, 7), (13, 29), (11, 23))),
                             (E43, (0, 0), ((3, 5), (13, 29), (5, 11)))):
        for primes in pairs:
            for m in (1, 3, 4, 8):
                if m == 3 and 3 in primes:
                    continue
                for n in (2, 5, 12):
                    got = check(curve, curve.point(*xy), primes, m, n)
                    # at small N a p in M/N can leave no digit nonzero
                    assert n < 12 or not any(comp["zero"]
                                             for comp in got["components"])
                    counts = [reduction_group_order(curve, p, 1) for p in primes]
                    cofactors += [comp["scaling"] for comp in got["components"]
                                  ] != counts
    assert cofactors > 50
    # Q(i) points, with Q's ring inside Z[zeta_m]; at m = 8, P = {5, 13},
    # N = 2, t(M 5Q) is 0 mod p^3 (5 divides M/N) while t(N 5Q) is not, and
    # that component must still be a zero, in Q's ring Z_5[i] as the
    # nonzero one at 13 is
    for primes in ((5, 11), (5, 13), (11, 13)):
        q = _gaussian_point_43a(PrimeSet(primes))
        for point in (q, q + E43.point(0, 0), 5 * q):
            for m in (4, 8, 12):
                for n in (2, 5, 12):
                    check(E43, point, primes, m, n)
    got = check(E43, 5 * _gaussian_point_43a(PrimeSet((5, 13))), (5, 13), 8, 2)
    assert got["components"][0]["coeffs"] == ["0"] * 2
    assert len(got["components"][1]["coeffs"]) == 2
    # 11a's torsion points: zero at every prime, over Z[i] as over Z
    for xy in ((0, 0), (1, -1), (1, 0), (0, -1)):
        got = check(E11, E11.point(*xy), (3, 5), 4, 12)
        assert all(comp["zero"] for comp in got["components"])
    # a Q(i) point with an m = 1 adele: Q(i) is not inside Q, so the point
    # is refused up front, at split primes as at inert ones
    q = _gaussian_point_43a(PrimeSet((5, 11, 13)))
    for primes in ((5, 13), (5, 11)):
        ps = PrimeSet(primes)
        with pytest.raises(DomainError, match=r"Q\(zeta_4\).*Q\(zeta_1\)"):
            evaluate(build_elliptic_character(E43, ps, 8),
                     AdelePoint.elliptic(q, ps, 12, 1), 12)


# the ell-scale benchmark table: (curve, point, primes, m), evaluated at N = 12
ELL_SCALE_ROWS = [
    (E37, (0, 0), (5, 7), 4), (E37, (0, 0), (11, 13), 4),
    (E37, (0, 0), (13, 23), 4), (E37, (0, 0), (23, 29), 3),
    (E37, (0, 0), (29, 31), 4), (E37, (1, 0), (5, 7), 4),
    (E37, (1, 0), (5, 11), 4), (E37, (1, 0), (11, 13), 3),
    (E37, (1, 0), (5, 13), 4), (E37, (1, 0), (11, 13), 4),
    (E43, (0, 0), (3, 5), 4), (E43, (0, 0), (11, 13), 4),
    (E43, (0, 0), (13, 23), 4), (E43, (0, 0), (13, 29), 3),
    (E43, (0, 0), (23, 29), 3),
]


def test_ell_scale_table_never_exhausts_precision(monkeypatch):
    # stopping at the count N keeps the group law out of the kernel of
    # reduction, where each doubling loses about 6 v(t) digits: no factor
    # run loses every digit, and few rerun for a deficit.  The table's
    # points are rational, so every run is a multiply on plain ints, and
    # each scaling makes at least one
    runs, exhausted = [], []
    multiply = _FactorCurve.multiply

    def counted(self, P, k):
        runs.append(k)
        try:
            return multiply(self, P, k)
        except _PrecisionExhausted:
            exhausted.append(k)
            raise

    monkeypatch.setattr(_FactorCurve, "multiply", counted)
    scalings = 0
    for curve, xy, primes, m in ELL_SCALE_ROWS:
        ps = PrimeSet(primes)
        r = evaluate(build_elliptic_character(curve, ps, 8),
                     AdelePoint.elliptic(curve.point(*xy), ps, 12, m), 12)
        assert not r.is_zero()
        scalings += len(primes)
    assert scalings == 30
    assert len(runs) >= scalings
    assert exhausted == []
    assert len(runs) <= 1.25 * scalings


def test_scaled_parameter_same_on_ints_and_coefficient_lists(monkeypatch):
    # a rational point runs the group law on ints in Z/p^K; the same point
    # with cyclotomic coordinates of zero zeta-part runs it on coefficient
    # lists in each factor e*R of Z_p[zeta_m]/p^K, split or inert: the two
    # must lose the same digits and give the same residues
    element_types = set()
    multiply = _FactorCurve.multiply

    def typed(self, P, k):
        element_types.add(type(P[0]))
        return multiply(self, P, k)

    monkeypatch.setattr(_FactorCurve, "multiply", typed)
    points = []
    for curve, xy, _, _ in ELL_SCALE_ROWS:
        if (curve, xy) not in points:
            points.append((curve, xy))
    factors = {}
    for m, primes in ((3, (5, 7, 13)), (4, (5, 7, 13)), (8, (5, 13))):
        for p in primes:
            config = CyclotomicConfig(m, (p,))
            factors[m, p] = len(_factor_idempotents(config, p))
            for curve, xy in points:
                q = curve.point(*xy)
                lifted = curve.point(*(CyclotomicElement.from_rational(config, a)
                                       for a in xy))
                for scale in (reduction_group_order(curve, p, 1),
                              reduction_group_order(curve, p, m)):
                    for precision in (1, 12, 24):
                        a = _scaled_parameter(_completed_square(q), scale, p,
                                              precision, config)
                        b = _scaled_parameter(_completed_square(lifted),
                                              scale, p, precision, config)
                        assert a.config == b.config
                        assert (a.precision, a.coeffs) == (b.precision,
                                                           b.coeffs), (
                            curve, xy, m, p, scale, precision)
                        assert precision == 1 or not a.is_zero()
    assert len(element_types) == 2 and int in element_types
    # 5 and 13 split at m = 4 and 8 and 7 is inert at m = 4, 5 at m = 3
    assert factors == {(3, 5): 1, (3, 7): 2, (3, 13): 2, (4, 5): 2,
                       (4, 7): 1, (4, 13): 2, (8, 5): 2, (8, 13): 2}


def test_gm_precision_monotone():
    # evaluate at N + k, reduced to N, equals evaluate at N, on rational
    # units, roots of unity and cyclotomic units at m in {1, 4, 8}
    rng = random.Random(20082)
    for m in (1, 4, 8):
        for primes in ((3, 5), (5, 7, 11)):
            ps = PrimeSet(primes)
            c = build_gm_character(ps, 4)
            config = CyclotomicConfig(m, ps)
            zeta = CyclotomicElement.zeta(config)
            rationals = [F(a, b) for a, b in ((2, 1), (-4, 7), (13, 2))
                         if all(a % p and b % p for p in primes)]
            roots = [-zeta ** rng.randrange(m)]
            units = []
            while m > 1 and len(units) < 2:
                u = sum((rng.randint(-3, 3) * zeta ** j for j in range(1, 3)),
                        CyclotomicElement.from_rational(config, rng.randint(-3, 3)))
                try:
                    AdelePoint.multiplicative(u, ps, 2, m)
                except NonUnitError:
                    continue
                if not torsion_test(u):
                    units.append(u)
            for value in rationals + roots + units:
                n = 60 if value is roots[0] else rng.randint(2, 60)
                base = evaluate(c, AdelePoint.multiplicative(value, ps, n, m), n)
                assert all(v.precision == n for v in base.values)
                assert base.is_zero() == (value is roots[0])
                for k in (1, 7):
                    finer = evaluate(
                        c, AdelePoint.multiplicative(value, ps, n + k, m), n + k)
                    assert ([v.reduce_to(n).coeffs for v in finer.values]
                            == [v.coeffs for v in base.values])


def test_elliptic_formal_group_homomorphism():
    scale = reduction_group_order(E37, 5, 1)
    q = E37.point(0, 0)
    r1, r2 = scale * q, (2 * scale) * q
    w1 = elliptic_formal_value(E37, r1, 5, 10)
    w2 = elliptic_formal_value(E37, r2, 5, 10)
    assert w1 + w2 == elliptic_formal_value(E37, r1 + r2, 5, 10)
    w3 = elliptic_formal_value(E37, (3 * scale) * q, 5, 10)
    assert w1.times_rational(3) == w3
    with pytest.raises(DomainError):
        elliptic_formal_value(E37, q, 5, 10)  # not in the kernel


GRID_CASES = 416
GRID_DIGEST = ("78588d5794b45888e9d327feac5f77dd"
               "061bdb06fe2aab7644e86e452c6074f4")


def _evaluation_grid():
    """(label, thunk) for every case the evaluation digest pins: G_m at
    m in {1, 4, 8, 12} on rational, root-of-unity and nontorsion units and a
    per-prime adele, with rho = 1 and a twisted rho; 11a, 37a and 43a on
    torsion points, infinity, nontorsion points and 43a's Q(i) point at
    m in {1, 3, 4, 8}; each at precision 1, 5 and 12."""
    P5_13 = PrimeSet((5, 13))
    cases = []
    twists = (SymbolPoly.one(), SymbolPoly({1: 2, 5: -1, 7: 1}))
    for rho in twists:
        built = build_gm_character(P57, 8)
        c = (built if rho == SymbolPoly.one()
             else Character("Gm", P57, rho * built.symbol, built.series))
        for m in (1, 4, 8, 12):
            config = CyclotomicConfig(m, P57)
            z = CyclotomicElement.zeta(config)
            units = [F(2), F(-4, 3), -z, z ** 3, 2 + 3 * z, 1 + z + z ** 2]
            for n in (1, 5, 12):
                for u in units:
                    cases.append((("gm", str(rho), m, str(u), n),
                                  lambda c=c, u=u, m=m, n=n: evaluate(
                                      c, AdelePoint.multiplicative(u, P57, n, m),
                                      n)))
                comps = [PadicCyclotomic.from_cyclotomic(2 + 3 * z, 5, n + 1),
                         PadicCyclotomic.from_rational(config, 3, 7, n + 1)]
                cases.append((("gm-components", str(rho), m, n),
                              lambda c=c, comps=comps, n=n: evaluate(
                                  c, AdelePoint.from_components(comps, P57, n),
                                  n)))
    curves = ((E11, P35, ((0, 0), (1, -1), None)),
              (E37, P57, ((0, 0), (1, 0), None)),
              (E43, P35, ((0, 0), None)),
              (E43, P5_13, ((0, 0), "i")))
    for curve, primes, points in curves:
        for rho in (SymbolPoly.one(), SymbolPoly({1: 1, primes[0]: 1})):
            built = build_elliptic_character(curve, primes, 8)
            c = (built if rho == SymbolPoly.one()
                 else Character("Elliptic", primes, rho * built.symbol,
                                built.series, curve))
            for xy in points:
                if xy is None:
                    q = curve.infinity()
                elif xy == "i":
                    q = _gaussian_point_43a(primes)
                else:
                    q = curve.point(*xy)
                for m in (1, 3, 4, 8):
                    for n in (1, 5, 12):
                        cases.append((("ell", curve.coefficients(), str(rho),
                                       str(xy), m, n),
                                      lambda c=c, q=q, primes=primes, m=m,
                                      n=n: evaluate(
                                          c, AdelePoint.elliptic(q, primes, n, m),
                                          n)))
            cases.append((("ell-bare", curve.coefficients(), str(rho)),
                          lambda c=c, q=q: evaluate(c, q, 5)))
    return cases


def test_evaluation_grid_digest():
    # every result, or the exception type and message, on a grid of G_m
    # and curve cases: the digest was taken when each group still had its
    # own evaluator, so the shared loop must reproduce it byte for byte
    outcomes = []
    for label, thunk in _evaluation_grid():
        try:
            got = thunk().to_json_dict()
        except (DomainError, ArithmeticError) as exc:
            got = [type(exc).__name__, str(exc)]
        outcomes.append([repr(label), got])
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert len(outcomes) == GRID_CASES
    assert digest == GRID_DIGEST


def test_evaluate_dispatch_and_errors():
    cg = build_gm_character(P35, 4)
    ce = build_elliptic_character(E11, P35, 4)
    assert nonzero_primes(evaluate(cg, 2, 10)) == (3, 5)
    assert evaluate(ce, E11.point(0, 0), 10).is_zero()
    # a point of the wrong kind or curve, or given at other primes, or a
    # group with no local step, is refused
    c37 = build_elliptic_character(E37, P57, 4)
    c57 = build_gm_character(P57, 4)
    cga = build_ga_character(SymbolPoly.one(), P35)
    for c, q in (
            (ce, 2),
            (cg, E11.point(0, 0)),
            (ce, E37.point(0, 0)),
            (cga, 2),
            (c37, 2),
            (c37, AdelePoint.multiplicative(2, P57, 10)),
            (c37, AdelePoint.elliptic(E37.point(0, 0), PrimeSet((3,)), 10)),
            (c37, AdelePoint.elliptic(E37.point(0, 0), PrimeSet((5, 7, 11)),
                                      10)),
            (c57, E37.point(0, 0)),
            (c57, AdelePoint.elliptic(E37.point(0, 0), P57, 10)),
            (c57, AdelePoint.multiplicative(2, PrimeSet((5,)), 10)),
            (c57, AdelePoint.multiplicative(2, PrimeSet((5, 7, 11)), 10)),
            (c37, AdelePoint.elliptic(E37.point(0, 0), P57, 3)),
            (c57, AdelePoint.multiplicative(2, P57, 3))):
        with pytest.raises(DomainError):
            evaluate(c, q, 10)
    # an adele is evaluated to at most its own precision, and the refusal
    # names both (not the digits of a component)
    with pytest.raises(DomainError, match="precision 3, below the requested 10"):
        evaluate(c57, AdelePoint.multiplicative(2, P57, 3), 10)
    with pytest.raises(DomainError, match="no evaluator for group 'Ga'"):
        evaluate(cga, 2, 10)
    # precision is a positive int, checked before any arithmetic
    for c, q in ((c57, 2), (c37, E37.point(0, 0))):
        for precision in (-3, 0, 2.0, True):
            with pytest.raises(DomainError, match="precision"):
                evaluate(c, q, precision)


def test_torsion_test():
    assert torsion_test(Z4) and torsion_test(-Z4) and torsion_test(F(-1))
    assert not torsion_test(F(2)) and not torsion_test(2 + 3 * Z4)
    assert torsion_test(E11.point(0, 0))
    assert not torsion_test(E37.point(0, 0))
    assert torsion_test(E37.infinity())
    assert torsion_test(AdelePoint.elliptic(E11.point(1, -1), P35, 10, 4))
    # over Q(i): (i, 0) on y^2 = x^3 + x is 2-torsion, and so is its sum
    # with (0, 0); 37a's generator stays nontorsion with coordinates in Q(i)
    zero = CyclotomicElement.from_rational(CFG4, 0)
    curve = WeierstrassCurve(0, 0, 0, 1, 0)
    two = curve.point(Z4, zero)
    assert torsion_test(two) and torsion_test(two + curve.point(zero, zero))
    assert torsion_test(E11.point(zero, zero))
    q = E37.point(zero, zero)
    assert not torsion_test(q) and not torsion_test(q + q)


def test_precision_audit():
    c = build_gm_character(P35, 4)
    r = evaluate(c, 2, 15)
    assert all(v.precision == 15 for v in r.values)
    low = evaluate(c, 2, 6)
    for k, p in enumerate(P35):
        assert low.values[k].coeffs[0] % p ** 6 == r.values[k].coeffs[0] % p ** 6


def test_continuation_witness():
    c = build_gm_character(P35, 4)
    assert continuation_witness(c, Z4, 15, 10 ** 6) == 0
    rho = SymbolPoly({1: 1, 3: -1})
    sym = rho * full_symbol(P35)
    twisted = Character("Gm", P35, sym, sym.star(gm_log(50)))
    assert continuation_witness(twisted, 2, 15, 10 ** 6) == 0
    assert continuation_witness(c, 2, 15, 10 ** 6) is None
    ce = build_elliptic_character(E11, P35, 4)
    assert continuation_witness(ce, E11.point(0, 0), 12, 10 ** 6) == 0
    # at 15^10 < 2*(10^6)^2 every residue has some fraction of height at
    # most 10^6; the bound is lowered to isqrt((15^10 - 1)/2), below which
    # a fraction is unique, and the nontorsion point 2 has no witness
    c12 = build_gm_character(P35, 12)
    for prec in (10, 12, 15):
        assert continuation_witness(c12, 2, prec, 10 ** 6) is None
    assert continuation_witness(c12, -1, 10, 10 ** 6) == 0


def test_unit_log_normalization():
    # log(b^(p-1))/(p-1) agrees with the direct series on 1-units
    for p, b in ((3, 4), (5, 6), (7, 8)):
        direct = padic_log(_zp(p, 12, b))
        assert unit_log(b, p, 12) == direct
