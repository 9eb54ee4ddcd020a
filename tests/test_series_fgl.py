import math
import random
from fractions import Fraction

import pytest

from deltachar.characters import _formal_law
from deltachar.exact_arith import DomainError
from deltachar.series_fgl import (
    TruncSeries,
    _curve_coefficients,
    _differential,
    _weierstrass_w,
    elliptic_log,
    gm_log,
    star_apply,
    weierstrass_v_series,
)


class Curve:
    """Minimal stand-in with Weierstrass coefficients."""

    def __init__(self, c1, c2, c3, c4, c6):
        self.c1, self.c2, self.c3, self.c4, self.c6 = c1, c2, c3, c4, c6


CURVE_11A = Curve(0, -1, 1, 0, 0)
CURVE_37A = Curve(0, 0, 1, -1, 0)
CURVE_53A = Curve(1, -1, 1, 0, 0)
CURVE_389A = Curve(0, 1, 1, -2, 0)
CURVE_RATIONAL = Curve(Fraction(1, 3), 2, Fraction(-5, 7), 1, 3)
CURVE_11A1 = Curve(0, -1, 1, -10, -20)
CURVE_RATIONAL_C6_0 = Curve(Fraction(1, 2), Fraction(-1, 3), 1, Fraction(2, 5), 0)


def T(order, index=0, nvars=1):
    return TruncSeries.var(order, index, nvars)


# ---------------------------------------------------------------------------
# core series algebra
# ---------------------------------------------------------------------------

def test_series_arithmetic_and_truncation():
    t = T(5)
    f = 1 + t + t * t
    g = f * f
    assert g.coefficient(2) == 3
    assert g.order == 5
    h = f.truncate(2) * f
    assert h.order == 2
    assert (f - f) == 0
    assert bool(f - f) is False


def test_series_rejects_non_integer_exponents():
    # a float or bool exponent is refused, never truncated to an integer
    for exps in ((1.5,), (True,), (1.0,), ("1",), (-1,), (1, 2)):
        with pytest.raises(DomainError):
            TruncSeries(1, 3, {exps: 1})
    assert TruncSeries(1, 3, {(2,): 1}).coefficient(2) == 1


def test_series_reciprocal_geometric():
    t = T(8)
    inv = (1 - t).reciprocal()
    assert all(inv.coefficient(n) == 1 for n in range(9))
    with pytest.raises(DomainError):
        t.reciprocal()


def test_series_compose_univariate():
    t = T(6)
    f = t + t ** 2
    g = 2 * t + t ** 3
    fg = f.compose([g])
    expected = g + g * g
    assert fg == expected
    with pytest.raises(DomainError):
        f.compose([1 + t])


def _inverse_oracle(f: TruncSeries) -> TruncSeries:
    """Term-by-term undetermined-coefficient inversion (independent route)."""
    order = f.order
    c1 = f.coefficient(1)
    g = TruncSeries(1, order, {(1,): 1 / c1})
    t = T(order)
    for n in range(2, order + 1):
        err = (f.compose([g]) - t).coefficient(n)
        g = g - TruncSeries(1, order, {(n,): err / c1})
    return g


def test_compositional_inverse_matches_oracle():
    f = gm_log(10)
    newton = f.compositional_inverse()
    oracle = _inverse_oracle(f)
    assert newton == oracle
    assert f.compose([newton]) == T(10)
    assert newton.compose([f]) == T(10)
    # exp(T) - 1 has coefficients 1/n!
    fact = 1
    for n in range(1, 11):
        fact *= n
        assert newton.coefficient(n) == Fraction(1, fact)


def test_series_json_round_trip_deterministic():
    f = TruncSeries(2, 3, {(1, 0): Fraction(-1, 2), (0, 1): 3, (1, 2): Fraction(7, 5)})
    d = f.to_json_dict()
    assert d["vars"] == 2 and d["order"] == 3
    assert [t["exp"] for t in d["terms"]] == [[0, 1], [1, 0], [1, 2]]
    assert all(isinstance(t["num"], str) for t in d["terms"])
    assert TruncSeries.from_json_dict(d) == f


def test_star_apply():
    l = gm_log(9)
    starred = star_apply({3: Fraction(1)}, l)
    # phi_3 * l = l(T^3)
    assert starred.coefficient(3) == 1
    assert starred.coefficient(6) == Fraction(-1, 2)
    assert starred.coefficient(9) == Fraction(1, 3)
    assert starred.coefficient(1) == 0
    combo = star_apply({1: 1, 3: Fraction(-1, 3)}, l)
    assert combo.coefficient(3) == Fraction(1, 3) - Fraction(1, 3)


# ---------------------------------------------------------------------------
# multiplicative and additive groups
# ---------------------------------------------------------------------------

def test_gm_log_additivity_exact():
    l = gm_log(12)
    law = _formal_law("Gm", l)
    lhs = l.compose([law])
    rhs = l.compose([T(12, 0, 2)]) + l.compose([T(12, 1, 2)])
    assert lhs == rhs


def test_gm_exp_log_round_trip():
    log = gm_log(14)
    exp = log.compositional_inverse()
    assert log.compose([exp]) == T(14)
    assert exp.compose([log]) == T(14)


def test_additive_group_is_plain_sum():
    assert _formal_law("Ga", T(6)) == T(6, 0, 2) + T(6, 1, 2)


# ---------------------------------------------------------------------------
# elliptic formal groups
# ---------------------------------------------------------------------------

def _standard_log_oracle(curve, order: int) -> TruncSeries:
    """Elliptic log through the classical z = -x/y parametrization.

    w(z) = z^3(1 + u) solves w = z^3 + c1 z w + c2 z^2 w + c3 w^2
    + c4 z w^2 + c6 w^3; the invariant differential in z integrates to the
    standard logarithm, and T = x/(2y) = -z/2 converts parameters, so
    l(T) = l_std(-2T)/(-2).  Entirely independent of the v-series route.
    """
    c1, c2, c3, c4, c6 = (Fraction(curve.c1), Fraction(curve.c2),
                          Fraction(curve.c3), Fraction(curve.c4),
                          Fraction(curve.c6))
    K = order + 3
    z = T(K)
    w = z ** 3
    for _ in range(order + 1):
        w = (z ** 3 + c1 * z * w + c2 * z * z * w + c3 * w * w
             + c4 * z * w * w + c6 * w ** 3)
    u = TruncSeries(1, order, {(k - 3,): c for (k,), c in w.coeffs.items() if k >= 3}) - 1
    zz = T(order)
    num = -2 * (1 + u) - zz * u.derivative().with_order(order)
    den = (1 + u) * (-2 + c1 * zz + c3 * zz ** 3 * (1 + u))
    omega = num * den.reciprocal()
    assert omega.constant_term() == 1
    lstd = TruncSeries(1, order, {(k + 1,): c / (k + 1)
                                  for (k,), c in omega.coeffs.items() if k + 1 <= order})
    # substitute z = -2T and divide by -2
    return TruncSeries(1, order, {(n,): c * Fraction((-2) ** (n - 1))
                                  for (n,), c in lstd.coeffs.items()})


@pytest.mark.parametrize(
    "curve", [CURVE_11A, CURVE_37A, CURVE_53A, CURVE_389A, CURVE_RATIONAL,
              CURVE_11A1, CURVE_RATIONAL_C6_0],
    ids=["11a", "37a", "53a", "389a", "rational", "11a1", "rational-c6-0"])
def test_elliptic_log_matches_standard_parametrization(curve):
    ours = elliptic_log(curve, 20)
    oracle = _standard_log_oracle(curve, 20)
    assert ours == oracle
    assert ours.coefficient(1) == 1


def _differential_by_w(curve, order):
    """Reference b_1..b_order by the w-recurrence, whatever c6 is:
    b = 1/(1 - e) with e = dF/dw read off the coefficients of w and w^2."""
    c1, c2, c3, c4, c6 = cs = _curve_coefficients(curve)
    w, w2 = _weierstrass_w(cs, order)
    e = [0] + [c1 * (j == 1) + c2 * (j == 2) + 2 * c3 * w[j] + 2 * c4 * w[j - 1]
               + 3 * c6 * w2[j] for j in range(1, order)]
    b = [0, 1]
    for k in range(2, order + 1):
        b.append(sum(e[j] * b[k - j] for j in range(1, k)))
    return b[1:order + 1]


def test_differential_recurrence_matches_w_recurrence():
    # c6 = 0 runs the four-term recurrence for omega = dz/sqrt(P); the
    # w-recurrence is the reference, to z^399 on integral models.  A rational
    # model is checked to the same order through the weights: c_i -> u^i c_i
    # takes b_n to u^(n-1) b_n, and with u the lcm of the denominators the
    # scaled model is integral; the weight rule itself is checked directly
    # in Fractions to a lower order.
    rng = random.Random(4733)
    order = 400
    integral = [CURVE_11A, CURVE_37A, CURVE_53A, CURVE_389A] + [
        Curve(rng.choice((-3, -1, 1, 2)), *(rng.randint(-9, 9) for _ in range(3)),
              0) for _ in range(2)]
    assert any(curve.c1 for curve in integral)
    for curve in integral:
        b = _differential(curve, order)
        assert all(type(x) is int for x in b)
        assert b == _differential_by_w(curve, order), curve.__dict__
    rational = [CURVE_RATIONAL_C6_0] + [
        Curve(*(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))
                for _ in range(4)), 0) for _ in range(2)]
    for curve in rational:
        cs = _curve_coefficients(curve)[:4]
        u = math.lcm(*(c.denominator for c in cs))
        scaled = Curve(*(c * u ** i for i, c in enumerate(cs, 1)), 0)
        want = [Fraction(x, u ** n) for n, x in
                enumerate(_differential_by_w(scaled, order))]
        b = _differential(curve, order)
        assert b == want, curve.__dict__
        assert b[:40] == _differential_by_w(curve, 40)
    # the short orders, where the recurrence reads its zero padding
    for curve in integral[:2] + rational[:1]:
        for n in range(5):
            assert _differential(curve, n) == _differential_by_w(curve, n)


@pytest.mark.parametrize("curve", [CURVE_11A, CURVE_37A], ids=["11a", "37a"])
def test_elliptic_log_is_group_logarithm(curve):
    log = elliptic_log(curve, 10)
    law = _formal_law("Elliptic", log)
    # law coefficients are integral away from 2
    assert law.denominators_coprime_to((3, 5, 7))
    assert law.coefficient((1, 0)) == 1 and law.coefficient((0, 1)) == 1
    lhs = log.compose([law])
    rhs = log.compose([T(10, 0, 2)]) + log.compose([T(10, 1, 2)])
    assert lhs == rhs


def test_weierstrass_v_series_solves_equation():
    v = weierstrass_v_series(CURVE_11A, 14)
    assert v.constant_term() == 1
    t = T(14)
    lhs = v * v * 1 + 8 * Fraction(CURVE_11A.c3) * t ** 3 * v
    rhs = (v ** 3 + 4 * Fraction(CURVE_11A.c2) * t * t * v * v)
    assert lhs == rhs  # c1 = c4 = c6 = 0 for 11a
    assert v.denominators_coprime_to((3, 5, 7))


def test_elliptic_law_unit_and_commutative():
    law = _formal_law("Elliptic", elliptic_log(CURVE_37A, 8))
    zero = TruncSeries.zero(2, 8)
    t1 = T(8, 0, 2)
    assert law.compose([t1, zero]) == t1
    flipped = TruncSeries(2, 8, {(b, a): c for (a, b), c in law.coeffs.items()})
    assert flipped == law


def test_elliptic_law_associative_small():
    law = _formal_law("Elliptic", elliptic_log(CURVE_11A, 6))
    t1, t2, t3 = (T(6, i, 3) for i in range(3))
    ab = law.compose([t1, t2])
    bc = law.compose([t2, t3])
    assert law.compose([ab, t3]) == law.compose([t1, bc])


def test_formal_add_helper():
    f, g = T(8), T(8)
    s = _formal_law("Gm", gm_log(8)).compose([f, g])
    # (1+T)(1+T) - 1 = 2T + T^2
    assert s == 2 * T(8) + T(8) ** 2
