import math
from fractions import Fraction

import pytest

from deltachar.cyclotomic import CyclotomicConfig, CyclotomicElement, PadicCyclotomic
from deltachar.elliptic import (
    BadReductionError,
    SingularCurveError,
    WeierstrassCurve,
    _completed_square,
    _count_points_ap,
    _scaled_parameter,
    count_points_ap,
    frobenius_trace_power,
    lseries_coefficients,
    reduction_group_order,
    to_formal_parameter,
    torsion_multiple,
)
from deltachar.exact_arith import DomainError, is_prime, vp

E11 = WeierstrassCurve.from_label("11a")
E37 = WeierstrassCurve.from_label("37a")


def _scaled(Q, scale, p, precision, config):
    """t = x/(2y) of scale*Q modulo p**precision (`_scaled_parameter`)."""
    return _scaled_parameter(_completed_square(Q), scale, p, precision, config)


def _is_ordinary(curve, p):
    """Good reduction with a_p not divisible by p."""
    return curve.is_good(p) and count_points_ap(curve, p) % p != 0


def brute_force_ap(curve, p):
    """Independent count: walk every (x, y) pair, no character sums."""
    c1, c2, c3, c4, c6 = (int(c) % p for c in curve.coefficients())
    affine = 0
    singular = 0
    for x in range(p):
        for y in range(p):
            lhs = (y * y + c1 * x * y + c3 * y) % p
            rhs = (x ** 3 + c2 * x * x + c4 * x + c6) % p
            if lhs != rhs:
                continue
            affine += 1
            dx = (c1 * y - 3 * x * x - 2 * c2 * x - c4) % p
            dy = (2 * y + c1 * x + c3) % p
            if dx == 0 and dy == 0:
                singular += 1
    disc_bad = vp(curve.discriminant(), p) > 0
    if not disc_bad:
        return p + 1 - (affine + 1)
    return p - (affine - singular + 1)


def test_named_curves_and_discriminants():
    assert E11.coefficients() == (0, -1, 1, 0, 0)
    assert E37.coefficients() == (0, 0, 1, -1, 0)
    assert E11.discriminant() == -11
    assert E37.discriminant() == 37
    assert E11.b_invariants() == (-4, 0, 1, -1)
    assert E37.b_invariants() == (0, -2, 1, -1)
    assert WeierstrassCurve(1, 2, 3, 4, 5).b_invariants() == (9, 11, 29, 35)
    # stored once by the constructor, not recomputed per call
    assert E37.b_invariants() is E37.b_invariants()


def test_singular_equation_rejected():
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 0, 0, 0, 0)  # y^2 = x^3 is a cusp
    with pytest.raises(DomainError):
        WeierstrassCurve.from_label("nope")


def test_counts_match_brute_force_both_routes():
    primes = [p for p in range(2, 62) if all(p % d for d in range(2, p))]
    # 43a, 53a, 389a, y^2 = x^3 + 5 and y^2 = x^3 + 3x; the last two reduce
    # additively at 2 and 3, and y^2 = x^3 + 5 at 5 as well
    others = ((0, 1, 1, 0, 0), (1, -1, 1, 0, 0), (0, 1, 1, -2, 0),
              (0, 0, 0, 0, 5), (0, 0, 0, 3, 0))
    for curve in (E11, E37, *(WeierstrassCurve(*c) for c in others)):
        for p in primes:
            assert count_points_ap(curve, p) == brute_force_ap(curve, p), (curve, p)


def test_frozen_ap_values():
    # leading terms of the weight-2 newforms for conductors 11 and 37
    assert [count_points_ap(E11, p) for p in (2, 3, 5, 7, 13)] == [-2, -1, 1, -2, 4]
    assert [count_points_ap(E37, p) for p in (2, 3, 5, 7, 11)] == [-2, -3, -2, -1, -5]


def test_bad_prime_counts_multiplicative_types():
    # 11a is split multiplicative at 11; 37a is non-split at 37 (the node's
    # tangent slopes satisfy v^2 = 15 u^2 and 15 is a non-residue mod 37)
    assert count_points_ap(E11, 11) == 1
    assert count_points_ap(E37, 37) == -1
    assert not E11.is_good(11)
    assert not E37.is_good(37)
    assert E11.is_good(3)


def test_hasse_bound_up_to_100():
    primes = [p for p in range(2, 101) if all(p % d for d in range(2, p))]
    for curve in (E11, E37):
        for p in primes:
            if vp(curve.discriminant(), p) > 0:
                continue
            assert count_points_ap(curve, p) ** 2 <= 4 * p


def test_ordinary_and_supersingular():
    assert _is_ordinary(E11, 3)
    assert _is_ordinary(E11, 5)
    assert not _is_ordinary(E37, 3)  # a_3 = -3
    assert _is_ordinary(E37, 5)
    with pytest.raises(DomainError):
        count_points_ap(E11, 4)


def test_ap_stored_per_curve_object_and_shared_by_coefficients():
    curve = WeierstrassCurve(0, 0, 1, -7, 6)
    misses = _count_points_ap.cache_info().misses
    ap = count_points_ap(curve, 1009)
    assert curve._ap == {1009: ap}
    assert count_points_ap(curve, 1009) == ap
    # a second object with the same coefficients reuses the count
    assert count_points_ap(WeierstrassCurve(0, 0, 1, -7, 6), 1009) == ap
    assert _count_points_ap.cache_info().misses == misses + 1
    # failed validation stores nothing and fails the same way again
    for _ in range(2):
        with pytest.raises(DomainError, match="1008 is not prime"):
            count_points_ap(curve, 1008)
    assert list(curve._ap) == [1009]


def test_integral_reduction_reads_the_denominators():
    curve = WeierstrassCurve(Fraction(1, 3), 2, Fraction(-5, 7), 1, Fraction(3, 49))
    for p in (3, 5, 7, 11, 13):
        want = all(c.denominator % p for c in curve.coefficients())
        assert curve.has_integral_reduction(p) == want
    for p in (3, 7):
        with pytest.raises(DomainError, match="curve is not p-integral at %d" % p):
            count_points_ap(curve, p)
        with pytest.raises(DomainError, match="curve is not p-integral at %d" % p):
            curve.is_good(p)
    assert E11.has_integral_reduction(11) and not E11.is_good(11)


def test_five_torsion_chain_on_11a():
    P = E11.point(0, 0)
    chain = [P]
    for _ in range(4):
        chain.append(chain[-1] + P)
    assert (chain[1].x, chain[1].y) == (1, -1)
    assert (chain[2].x, chain[2].y) == (1, 0)
    assert (chain[3].x, chain[3].y) == (0, -1)
    assert chain[4].is_infinity
    assert not any(Q.is_infinity for Q in chain[:4])
    assert (5 * P).is_infinity
    assert 2 * P == chain[1]
    assert -P == E11.point(0, -1)


def test_torsion_multiple_kills_exactly_the_torsion():
    # g = gcd #E(F_{l^f}) over the first three good odd primes l prime to m
    assert torsion_multiple(E11) == math.gcd(5, 5, 10) == 5
    assert torsion_multiple(E11, 4) == 5          # l = 3, 5, 7 with f = 2, 1, 2
    assert torsion_multiple(E11, 5) == 75         # l = 3, 7, 13 with f = 4
    assert torsion_multiple(E37) == 1
    P = E11.point(0, 0)
    assert (5 * P).is_infinity and not (3 * P).is_infinity
    Q = E37.point(0, 0)
    assert not (torsion_multiple(E37) * Q).is_infinity
    # y^2 = x^3 - x has all of E[2] = {O, (0,0), (1,0), (-1,0)} over Q, so
    # 4 divides g
    curve = WeierstrassCurve(0, 0, 0, -1, 0)
    assert torsion_multiple(curve) % 4 == 0
    for x in (0, 1, -1):
        assert (torsion_multiple(curve) * curve.point(x, 0)).is_infinity


def test_37a_generator_is_not_torsion():
    P = E37.point(0, 0)
    assert (P + P) == E37.point(1, 0)
    # double-and-add agrees with repeated addition, and never reaches O
    acc = E37.infinity()
    for k in range(1, 17):
        acc = acc + P
        assert acc == k * P and not acc.is_infinity
    assert 0 * P == E37.infinity()
    assert (-3) * P == -(3 * P)


def test_point_validation():
    with pytest.raises(DomainError):
        E11.point(2, 2)
    # 5 * (0,0) on 37a is the first non-integral multiple
    Q = E37.point(Fraction(1, 4), Fraction(-5, 8))
    assert 5 * E37.point(0, 0) == Q
    assert E37.equation_value(Q.x, Q.y) == 0


def test_curves_points_and_valuations_refuse_floats():
    """Only ints and Fractions are exact rationals: -1.1 would be stored as
    its binary expansion, and (0.0, 0.0) passes the equation in floats."""
    for bad in (-1.1, 2.5, True, "1"):
        for make in (lambda: WeierstrassCurve(0, 0, 1, bad, 0),
                     lambda: vp(bad, 5)):
            with pytest.raises(DomainError):
                make()
    z = CyclotomicElement.zeta(CyclotomicConfig(4, (3, 5)))
    for x, y in ((0.0, 0.0), (0, 0.0), (False, False), (z * 0, 0.0)):
        with pytest.raises(DomainError):
            E37.point(x, y)
    assert E37.point(z * 0, 0) == E37.point(0, 0)


def test_group_law_with_cyclotomic_coordinates():
    cfg = CyclotomicConfig(4, (3, 5))
    P = E37.point(0, 0)

    def embed(point):
        if point.is_infinity:
            return E37.infinity()
        return E37.point(CyclotomicElement.from_rational(cfg, point.x),
                         CyclotomicElement.from_rational(cfg, point.y))

    for k in (2, 3, 7):
        assert k * embed(P) == embed(k * P)
    assert -embed(P) == embed(-P)


def test_lseries_coefficients_multiplicative_and_recursive():
    for curve, frozen in ((E11, {1: 1, 2: -2, 3: -1, 4: 2, 5: 1, 6: 2, 7: -2}),
                          (E37, {1: 1, 2: -2, 3: -3, 4: 2, 5: -2, 6: 6, 7: -1, 9: 6})):
        a = lseries_coefficients(curve, 200)
        assert set(a) == set(range(1, 201))
        for n, val in frozen.items():
            assert a[n] == val, (curve, n)
        for m in range(2, 101):
            for n in range(2, 200 // m + 1):
                if math.gcd(m, n) == 1:
                    assert a[m * n] == a[m] * a[n]
        for p in (2, 3, 5):
            good = vp(curve.discriminant(), p) == 0
            pk = p * p
            while pk * p <= 200:
                expect = a[p] * a[pk] - (p * a[pk // p] if good else 0)
                assert a[pk * p] == expect
                pk *= p
    # bad-prime powers are plain powers
    a11 = lseries_coefficients(E11, 122)
    assert a11[121] == a11[11] ** 2 == 1


def lseries_reference(curve, bound):
    """a_n by the multiplicative closure: each prime power's a_{p^k}, from
    the recursion, times every a_n already known with p not dividing n."""
    a = {1: 1}
    for p in range(2, bound + 1):
        if not is_prime(p):
            continue
        ap = count_points_ap(curve, p)
        good = vp(curve.discriminant(), p) == 0
        powers = {1: 1, p: ap}
        pk_prev, pk = 1, p
        while pk * p <= bound:
            powers[pk * p] = ap * powers[pk] - (p * powers[pk_prev] if good else 0)
            pk_prev, pk = pk, pk * p
        for q, aq in powers.items():
            if q == 1:
                continue
            for n in list(a):
                if n * q <= bound and n % p != 0:
                    a[n * q] = a[n] * aq
    return {n: a[n] for n in sorted(a)}


def test_lseries_sieve_matches_the_multiplicative_closure():
    curves = (E11, E37, WeierstrassCurve(0, 1, 1, 0, 0),
              WeierstrassCurve(1, -1, 1, 0, 0), WeierstrassCurve(0, 1, 1, -2, 0))
    for curve in curves:
        for bound in (1, 2, 97, 1000):
            a = lseries_coefficients(curve, bound)
            assert a == lseries_reference(curve, bound), (curve, bound)
            assert list(a) == list(range(1, bound + 1))
    with pytest.raises(DomainError):
        lseries_coefficients(E11, 0)


def test_reduction_group_orders():
    # m = 1: order of E(F_p) straight from the a_p count
    for p in (3, 5, 7, 13):
        assert reduction_group_order(E11, p, 1) == p + 1 - count_points_ap(E11, p)
    # m = 4, p = 3: Z[i]/3 is the field with 9 elements
    cfg = CyclotomicConfig(4, (3,))
    elements = [PadicCyclotomic(cfg, 3, 1, (a, b)) for a in range(3) for b in range(3)]
    affine = 0
    for x in elements:
        for y in elements:
            e = y * y + y - x * x * x + x * x  # 11a: y^2 + y = x^3 - x^2
            if e.min_valuation() >= 1:
                affine += 1
    assert reduction_group_order(E11, 3, 4) == affine + 1 == 15
    # the 5-torsion point survives reduction, so 5 divides every good order
    for p, m in ((3, 1), (3, 4), (3, 5), (7, 1), (7, 4)):
        assert reduction_group_order(E11, p, m) % 5 == 0
    with pytest.raises(BadReductionError):
        reduction_group_order(E11, 11, 1)
    with pytest.raises(DomainError):
        reduction_group_order(E11, 3, 6)  # 3 | 6


def test_frobenius_trace_power():
    ap, p = -1, 3
    assert frobenius_trace_power(ap, p, 1) == -1
    assert frobenius_trace_power(ap, p, 2) == ap * ap - 2 * p
    # alpha^3 + beta^3 from the power-sum recursion, cross-checked numerically
    import cmath
    alpha = (ap + cmath.sqrt(complex(ap * ap - 4 * p))) / 2
    beta = (ap - cmath.sqrt(complex(ap * ap - 4 * p))) / 2
    for f in range(1, 8):
        exact = frobenius_trace_power(ap, p, f)
        assert abs(alpha ** f + beta ** f - exact) < 1e-6


def test_formal_parameter_of_kernel_points():
    # 7 = #E37(F_3), so 7 * (0,0) reduces to the identity mod 3
    P = E37.point(0, 0)
    Q = 7 * P
    t = to_formal_parameter(Q, 3)
    assert vp(t, 3) >= 1
    assert vp(Q.x, 3) == -2 * vp(t, 3)
    assert vp(Q.y, 3) == -3 * vp(t, 3)
    with pytest.raises(DomainError):
        to_formal_parameter(P, 3)  # (0,0) itself reduces to a finite point
    assert to_formal_parameter(E37.infinity(), 3) == 0
    # kernel points over a cyclotomic coordinate field
    cfg = CyclotomicConfig(4, (3,))
    R = E37.point(CyclotomicElement.from_rational(cfg, Q.x),
                  CyclotomicElement.from_rational(cfg, Q.y))
    v = to_formal_parameter(R, 3)
    assert min(vp(c, 3) for c in v.coeffs if c) >= 1


E43 = WeierstrassCurve(0, 1, 1, 0, 0)
SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _assert_matches_exact(Q, scale, p, precisions, config):
    """Compare with the reference: exact scale*Q over Q(zeta_m), then its
    parameter reduced mod p^N; returns the last value compared."""
    exact = to_formal_parameter(scale * Q, p)
    for precision in precisions:
        if isinstance(exact, CyclotomicElement):
            want = PadicCyclotomic.from_cyclotomic(exact, p, precision)
        else:
            want = PadicCyclotomic.from_rational(config, exact, p, precision)
        got = _scaled(Q, scale, p, precision, config)
        assert got.precision == precision
        assert got.coeffs == want.coeffs, (Q, scale, p, precision)
    return got


def test_scaled_parameter_matches_exact_scaling():
    # rational points in E(Z_p) scaled by the reduction-group order over
    # Z[zeta_m]/p, against the exact multiple; both 11a torsion points die
    points = [(E11, (0, 0)), (E11, (1, -1)), (E37, (0, 0)), (E37, (1, 0)),
              (E43, (0, 0))]
    checked = 0
    for curve, xy in points:
        Q = curve.point(*xy)
        torsion = curve is E11
        for p in SMALL_PRIMES:
            if not curve.is_good(p):
                continue
            for m in (1, 3, 4):
                if math.gcd(p, m) != 1:
                    continue
                scale = reduction_group_order(curve, p, m)
                if scale > 256:
                    continue
                t = _assert_matches_exact(Q, scale, p, (1, 9, 23),
                                          CyclotomicConfig(m, (p,)))
                assert t.is_zero() == torsion
                checked += 1
    assert checked > 50


def test_scaled_parameter_at_exact_degeneracies():
    # torsion points meet the exceptional cases of the group law exactly:
    # for the 5-torsion of 11a the scales 75, 575 and 625 reach a partial
    # sum equal to the base or to O, and on y^2 = x^3 - x the 2-torsion base
    # doubles to O and O doubles again
    for xy in ((0, 0), (1, -1)):
        Q = E11.point(*xy)
        for p, m in ((3, 5), (23, 3), (31, 3)):
            scale = reduction_group_order(E11, p, m)
            assert scale in (75, 575, 625)
            t = _assert_matches_exact(Q, scale, p, (1, 13),
                                      CyclotomicConfig(m, (p,)))
            assert t.is_zero()
    curve = WeierstrassCurve(0, 0, 0, -1, 0)
    for xy in ((0, 0), (1, 0), (-1, 0)):
        for p in (3, 5, 7):
            scale = reduction_group_order(curve, p, 1)
            t = _assert_matches_exact(curve.point(*xy), scale, p, (13,),
                                      CyclotomicConfig(1, (p,)))
            assert t.is_zero()


def test_scaled_parameter_of_a_kernel_point():
    # 7 = #E37(F_3): R = 7*(0,0) already reduces to O at 3
    R = 7 * E37.point(0, 0)
    for m in (1, 4):
        config = CyclotomicConfig(m, (3,))
        for scale in (1, 2, 7, reduction_group_order(E37, 3, m)):
            _assert_matches_exact(R, scale, 3, (17,), config)
    assert _scaled(E37.infinity(), 5, 3, 9,
                   CyclotomicConfig(1, (3,))).is_zero()


def test_scaled_parameter_with_gaussian_coordinates():
    # (x, Y') = (-5/4, 3/4) lies on the -1 twist of Y^2 = 4x^3 + b2 x^2 +
    # 2 b4 x + b6 for 43a, so (x, (iY' - a1 x - a3)/2) is a point over Q(i)
    # that is not defined over Q.  At p = 1 mod 4, Z_p[i] is Z_p x Z_p and
    # E(Z[i]/p) = E(F_p)^2, so #E(F_p) already kills the point; at p = 3
    # mod 4 it is one local ring and the scale is #E(F_(p^2)).
    config = CyclotomicConfig(4, SMALL_PRIMES)
    i = CyclotomicElement.zeta(config)
    x = Fraction(-5, 4)
    Q = E43.point(CyclotomicElement.from_rational(config, x),
                  (i * Fraction(3, 4) - E43.c1 * x - E43.c3) / 2)
    for p in (5, 13, 17, 29):                       # split
        scale = reduction_group_order(E43, p, 1)
        assert not _assert_matches_exact(Q, scale, p, (1, 12), config).is_zero()
        _assert_matches_exact(Q, 2 * scale, p, (12,), config)
    assert reduction_group_order(E43, 5, 4) == 100
    _assert_matches_exact(Q, 100, 5, (12,), config)
    # Q is conjugate to -Q, so both factors of a split prime see the same
    # group-law steps; R is conjugate to -Q + (0,0), and at 5 and 17 the
    # digits lost in one factor are not lost in the other
    R = Q + E43.point(0, 0)
    for p in (5, 17):
        _assert_matches_exact(R, reduction_group_order(E43, p, 1), p, (1, 12),
                              config)
    for p in (3, 7):                                # inert
        scale = reduction_group_order(E43, p, 4)
        assert scale <= 64
        _assert_matches_exact(Q, scale, p, (1, 12), config)
    # a rational x beside a Q(i) y is lifted into Q(i): the scaling reads
    # the point's field from x
    mixed = E43.point(x, Q.y)
    assert isinstance(mixed.x, CyclotomicElement) and mixed == Q
    assert isinstance(E43.point(0 * i, 0).y, CyclotomicElement)
    for p in (5, 7):
        _assert_matches_exact(mixed, reduction_group_order(E43, p, 4), p,
                              (12,), config)
    with pytest.raises(DomainError):
        _scaled(Q, 1, 5, 12, config)
    for p, scale in ((3, 3), (29, 18)):
        with pytest.raises(DomainError):
            to_formal_parameter(scale * Q, p)
        with pytest.raises(DomainError):
            _scaled(Q, scale, p, 12, config)


def test_scaled_parameter_rejects_points_outside_the_kernel():
    config = CyclotomicConfig(1, (5,))
    with pytest.raises(DomainError):
        _scaled(E37.point(0, 0), 1, 5, 10, config)
    with pytest.raises(DomainError):
        _scaled(E37.point(0, 0), 4, 5, 10, config)  # M = 8
    with pytest.raises(DomainError):
        _scaled(E37.point(0, 0), 0, 5, 10, config)
