import json
import math
import random
from fractions import Fraction as F

import pytest

from deltachar.characters import (
    Character,
    SymbolPoly,
    _euler_symbols,
    _log_pairs,
    build_elliptic_character,
    build_ga_character,
    build_gm_character,
    character_from_json_dict,
    check_additivity,
    continuation_criterion,
    decompose_over_fundamental,
    divide_by_euler_factor,
    euler_polynomial,
    full_symbol,
    honda_integrality_check,
    symbol_of_character,
    symbol_order,
)
from deltachar.elliptic import (WeierstrassCurve, count_points_ap,
                               lseries_coefficients)
from deltachar.exact_arith import DomainError, PrimeSet, vp
from deltachar.series_fgl import TruncSeries, elliptic_log, gm_log

P3 = PrimeSet((3,))
P35 = PrimeSet((3, 5))
P357 = PrimeSet((3, 5, 7))
E11 = WeierstrassCurve.from_label("11a")
E37 = WeierstrassCurve.from_label("37a")
E43 = WeierstrassCurve(0, 1, 1, 0, 0)
E389 = WeierstrassCurve(0, 1, 1, -2, 0)

GM35_SYMBOL = {1: F(-1), 3: F(1, 3), 5: F(1, 5), 15: F(-1, 15)}


def _euler_symbol(primes, k, curve=None):
    """prod E_l/E_l(0) over the primes but the k-th (1-based)."""
    return _euler_symbols(primes, curve)[1][k - 1]


def _is_ordinary(curve, p):
    """Good reduction with a_p not divisible by p."""
    return curve.is_good(p) and count_points_ap(curve, p) % p != 0


def smooth_values(primes, bound):
    out = [1]
    for p in primes:
        out = [n * p ** e for n in out for e in range(40) if n * p ** e <= bound]
    return sorted(out)


def test_symbol_ring_monoid_exhaustive():
    values = smooth_values(P35, 1000)
    for n in values:
        for m in values:
            assert SymbolPoly.phi(n) * SymbolPoly.phi(m) == SymbolPoly.phi(n * m)
    a = SymbolPoly({1: F(1, 2), 3: -2, 25: F(7, 4)})
    b = SymbolPoly({5: 1, 9: F(-1, 7)})
    c = SymbolPoly({1: 3, 15: F(2, 11)})
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert a * SymbolPoly.one() == a


def test_symbol_ring_basics():
    a = SymbolPoly({1: 2, 9: F(1, 2)})
    assert a.coefficient(9) == F(1, 2)
    assert a.coefficient(4) == 0
    assert a.support() == (1, 9)
    assert a.augmentation() == F(5, 2)
    assert (a / 2).coefficient(1) == 1
    assert 3 * a == a * 3
    assert a - 2 == SymbolPoly({9: F(1, 2)})
    assert a.is_p_local((3, 5)) and not (a / 3).is_p_local((3, 5))
    assert symbol_order(a, P35) == (2, 0)
    with pytest.raises(DomainError):
        symbol_order(SymbolPoly.phi(14), P35)
    with pytest.raises(DomainError):
        SymbolPoly({0: 1})


def test_euler_symbol_gm():
    assert _euler_symbol(P35, 2) == SymbolPoly({1: 1, 3: F(-1, 3)})
    assert _euler_symbol(P3, 1) == SymbolPoly.one()
    sym = _euler_symbol(P357, 3)
    assert sym == SymbolPoly({1: 1, 3: F(-1, 3), 5: F(-1, 5), 15: F(1, 15)})
    # Moebius oracle: the product over primes other than p_k expands with
    # coefficient mu(n)/n at each squarefree n built from those primes
    for n, mu in ((1, 1), (3, -1), (5, -1), (15, 1)):
        assert sym.coefficient(n) == F(mu, n)


def test_euler_symbol_elliptic():
    assert _euler_symbol(P35, 2, E11) == SymbolPoly({1: 1, 3: F(1, 3), 9: F(1, 3)})
    assert _euler_symbol(P35, 1, E11) == SymbolPoly({1: 1, 5: F(-1, 5), 25: F(1, 5)})
    assert _euler_symbol(P3, 1, E11) == SymbolPoly.one()
    with pytest.raises(DomainError):
        _euler_symbol(P35, 2, E37)  # supersingular at 3


def test_build_ga_character():
    assert build_ga_character(SymbolPoly.one(), P35).series == TruncSeries.var(2)
    t4 = TruncSeries.var(4)
    assert build_ga_character(SymbolPoly.phi(3), P35).series == t4 ** 3
    mixed = build_ga_character(SymbolPoly({3: 1, 1: -3}), P35)
    assert mixed.series == t4 ** 3 - 3 * t4
    assert mixed.order == (1, 0)
    with pytest.raises(DomainError):
        build_ga_character(SymbolPoly({3: F(1, 3)}), P35)
    with pytest.raises(DomainError):
        build_ga_character(SymbolPoly.phi(2), P35)


def test_build_gm_character_frozen():
    c = build_gm_character(P35, 4)
    assert c.symbol == SymbolPoly(GM35_SYMBOL)
    assert c.series.constant_term() == 0
    assert [c.series.coefficient(j) for j in (1, 2, 3)] == [F(-1), F(1, 2), F(0)]
    assert c.order == (1, 1)
    assert [d.prime for d in c.dirac] == [3, 5]
    with pytest.raises(DomainError):
        build_gm_character(P35, 1)


def test_gm_series_against_direct_expansion():
    # independent oracle: [T^m] of sum_n s_n log(1+T^n) is
    # sum over divisors n | m of s_n * (-1)^(m/n - 1) * n/m
    c = build_gm_character(P35, 60)
    for m in range(1, 61):
        direct = sum(
            (s * F((-1) ** (m // n - 1) * n, m) for n, s in GM35_SYMBOL.items()
             if m % n == 0),
            F(0),
        )
        assert c.series.coefficient(m) == direct


def test_gm_integrality_through_200():
    for primes in (P35, P357):
        c = build_gm_character(primes, 200)
        assert c.series.denominators_coprime_to(primes)


def test_elliptic_character_frozen():
    c = build_elliptic_character(E11, P35, 2)
    # only the n=1 symbol term reaches degree 1, so the linear coefficient
    # is 1, not the value of the Euler product at phi = 1
    assert c.series.coefficient(1) == 1
    assert c.series.constant_term() == 0
    assert c.order == (2, 2)
    assert [d.ap for d in c.dirac] == [-1, 1]
    with pytest.raises(DomainError):
        build_elliptic_character(E37, P35, 4)  # supersingular at 3
    with pytest.raises(DomainError):
        build_elliptic_character(E11, PrimeSet((3, 11)), 4)  # bad reduction


def test_elliptic_integrality_through_50():
    c = build_elliptic_character(E11, P35, 50)
    assert c.series.denominators_coprime_to(P35)


def test_dirac_consistency():
    for primes in (P35, P357):
        c = build_gm_character(primes, 4)
        for comp in c.dirac:
            assert comp.euler_symbol * comp.ode_symbol == c.symbol
            p = comp.prime
            assert comp.ode_symbol == SymbolPoly({p: F(1, p), 1: -1})
    ce = build_elliptic_character(E11, P35, 4)
    for comp in ce.dirac:
        assert comp.euler_symbol * comp.ode_symbol == ce.symbol
        p, ap = comp.prime, comp.ap
        assert comp.ode_symbol == SymbolPoly(
            {p * p: F(1, p), p: F(-ap, p), 1: 1})


def test_stored_euler_symbols_match_the_reference():
    """A built character stores rho = 1, and its Dirac rows hold, for every
    k, the product of E_l/E_l(0) over the primes but the k-th, formed here
    from `euler_polynomial` and `count_points_ap`; `_euler_symbols` gives the
    same, and ode x euler of the first row is the symbol and E_p/p times
    the first product, at |P| = 1..4 on G_m and four curves."""
    for curve in (None, E11, E37, E43, E389):
        ordinary = [p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                    if curve is None or _is_ordinary(curve, p)][:4]
        for size in range(1, 5):
            primes = PrimeSet(ordinary[:size])
            c = (build_gm_character(primes, 6) if curve is None
                 else build_elliptic_character(curve, primes, 6))
            euler = [euler_polynomial(l, None if curve is None
                                      else count_points_ap(curve, l))
                     for l in primes]
            reference = [math.prod((e / e.coefficient(1) for j, e
                                    in enumerate(euler) if j != k),
                                   start=SymbolPoly.one())
                         for k in range(size)]
            rho, stored = c._twist, [d.euler_symbol for d in c.dirac]
            assert rho == SymbolPoly.one()
            assert stored == reference, (curve, primes)
            assert [_euler_symbol(primes, k, curve)
                    for k in range(1, size + 1)] == stored
            assert [d.euler_symbol for d in c.dirac] == stored
            first = c.dirac[0]
            assert first.ode_symbol * first.euler_symbol == c.symbol == (
                euler[0] / primes[0] * reference[0]) == full_symbol(primes, curve)


def test_build_matches_the_route_through_the_logarithm_series():
    """The build forms its symbol and series from integer triples; on seeded
    G_m and curve characters (11a, 37a, 43a, and 11a1, where c6 != 0) at
    |P| = 1..3 and orders 2..400, one of them below the least prime,
    `full_symbol` is the product of `euler_polynomial` factors, each
    divided by its constant term and the first by p, the series is the
    symbol starred onto the group's logarithm series, and the order is 1
    (G_m) or 2 (a curve) at every prime."""
    rng = random.Random(3001)
    E11a1 = WeierstrassCurve(0, -1, 1, -10, -20)
    assert E11a1.c6
    cases = [(None, (3, 5, 7, 11, 13)), (E11, (3, 5, 7, 13)),
             (E37, (5, 7, 11, 13)), (E43, (3, 5, 11, 13)),
             (E11a1, (3, 5, 7, 13))]
    for curve, pool in cases:
        for size in (1, 2, 3):
            primes = PrimeSet(sorted(rng.sample(pool, size)))
            orders = (2, primes[0] - 1, rng.randint(3, 60), rng.choice(
                (100, 200, 400)))
            euler = [euler_polynomial(p, None if curve is None
                                      else count_points_ap(curve, p))
                     for p in primes]
            want = math.prod((e / e.coefficient(1) for e in euler[1:]),
                             start=euler[0] / primes[0])
            assert full_symbol(primes, curve) == want, (curve, primes)
            for n in orders:
                c = (build_gm_character(primes, n) if curve is None
                     else build_elliptic_character(curve, primes, n))
                log = (gm_log(n) if curve is None
                       else elliptic_log(curve, n))
                assert c.symbol == want
                assert c.series.order == n
                assert c.series.coeffs == c.symbol.star(log).coeffs, (
                    curve, primes, n)
                assert c.order == (1 if curve is None else 2,) * size


def test_log_pairs_per_group():
    """G_a's logarithm is T, G_m's and a curve's are their `_log_terms`
    without zero numerators, G_m ignores a curve it is passed, and an
    unknown group or a curveless elliptic one is refused."""
    assert _log_pairs("Ga", 6) == [(1, 1, 1)] == _log_pairs("Ga", 6, E11)
    gm = [(j, (-1) ** (j - 1), j) for j in range(1, 13)]
    assert _log_pairs("Gm", 12) == _log_pairs("Gm", 12, E11) == gm
    for curve in (E11, E37, WeierstrassCurve(0, -1, 1, -10, -20)):
        pairs = _log_pairs("Elliptic", 30, curve)
        assert all(num for _, num, _ in pairs)
        assert {(j,): F(num, den) for j, num, den in pairs} == (
            elliptic_log(curve, 30).coeffs)
    # 11a has c1 = 0, so b_2 = 0 and T^2 has no pair
    assert [j for j, _, _ in _log_pairs("Elliptic", 4, E11)] == [1, 3, 4]
    with pytest.raises(DomainError, match="^elliptic group needs a curve$"):
        _log_pairs("Elliptic", 6)
    with pytest.raises(DomainError, match="^unknown group 'Gx'$"):
        _log_pairs("Gx", 6, E11)


def test_check_additivity():
    assert check_additivity(build_gm_character(P35, 12), 10)
    t = TruncSeries.var(4)
    squared = Character("Ga", P35, SymbolPoly.one(), t * t)
    assert not check_additivity(squared, 2)
    assert check_additivity(build_elliptic_character(E11, P35, 10), 8)


def test_symbol_of_character():
    assert symbol_of_character(gm_log(10), "Gm", P35) == SymbolPoly.one()
    c = build_gm_character(P35, 20)
    assert symbol_of_character(c.series, "Gm", P35) == c.symbol
    twisted = SymbolPoly.phi(3).star(gm_log(12))
    assert symbol_of_character(twisted, "Gm", P35) == SymbolPoly.phi(3)
    # elliptic series of order 10 sees exactly the support below 11
    ce = build_elliptic_character(E11, P35, 10)
    partial = symbol_of_character(ce.series, "Elliptic", P35, E11)
    assert partial == SymbolPoly(
        {n: ce.symbol.coefficient(n) for n in ce.symbol.support() if n <= 10})
    with pytest.raises(DomainError):
        symbol_of_character(gm_log(10) * gm_log(10), "Gm", P35)
    with pytest.raises(DomainError):
        symbol_of_character(TruncSeries.var(4) ** 2, "Ga", P35)
    with pytest.raises(DomainError):
        symbol_of_character(TruncSeries.zero(1, 4) + 1, "Ga", P35)


def test_divide_by_euler_factor_frozen():
    L = SymbolPoly({1: 1, 3: F(-1, 3)}) * SymbolPoly({1: 1, 5: F(-1, 5)})
    q, r = divide_by_euler_factor(L, 3)
    assert q == SymbolPoly({1: F(-1, 3), 5: F(1, 15)})
    assert r.is_zero()
    q, r = divide_by_euler_factor(SymbolPoly.one(), 3)
    assert q.is_zero() and r == SymbolPoly.one()
    full = full_symbol(P35, E11)
    q, r = divide_by_euler_factor(full, 3, -1)
    assert r.is_zero()
    assert q == _euler_symbol(P35, 1, E11) / 3


def test_divide_by_euler_factor_reconstruction():
    rng = random.Random(1207)
    values = smooth_values(P35, 1000)
    gm3 = SymbolPoly({3: 1, 1: -3})
    ell3 = SymbolPoly({9: 1, 3: 1, 1: 3})  # phi^2 - a phi + p with a = -1
    for _ in range(40):
        support = rng.sample(values, rng.randint(1, 6))
        L = SymbolPoly({n: F(rng.randint(-8, 8), rng.randint(1, 4)) for n in support})
        q, r = divide_by_euler_factor(L, 3)
        assert q * gm3 + r == L
        assert all(vp(n, 3) == 0 for n in r.support())
        q, r = divide_by_euler_factor(L, 3, -1)
        assert q * ell3 + r == L
        assert all(vp(n, 3) <= 1 for n in r.support())


def test_decompose_self_and_twist():
    assert decompose_over_fundamental(build_gm_character(P35, 20)) == SymbolPoly.one()
    assert decompose_over_fundamental(build_gm_character(P357, 20)) == SymbolPoly.one()
    assert decompose_over_fundamental(
        build_elliptic_character(E11, P35, 20)) == SymbolPoly.one()
    base = full_symbol(P35)
    twisted = SymbolPoly.phi(3) * base
    c = Character("Gm", P35, twisted, twisted.star(gm_log(50)))
    assert decompose_over_fundamental(c) == SymbolPoly.phi(3)


def test_decompose_rejects_non_multiples():
    with pytest.raises(DomainError):
        decompose_over_fundamental(
            Character("Gm", P35, SymbolPoly.one(), gm_log(10)))
    shrunk = full_symbol(P35) / 3
    with pytest.raises(DomainError):
        decompose_over_fundamental(
            Character("Gm", P35, shrunk, shrunk.star(gm_log(20))))
    with pytest.raises(DomainError):
        decompose_over_fundamental(
            build_ga_character(SymbolPoly.one(), P35))


def test_decompose_round_trip_random():
    rng = random.Random(45120)
    values = [n for n in smooth_values(P35, 45)]
    gm_base = full_symbol(P35)
    ell_base = full_symbol(P35, E11)
    for trial in range(50):
        support = rng.sample(values, rng.randint(1, 5))
        rho = SymbolPoly({n: F(rng.randint(-9, 9), rng.choice([1, 1, 2, 4]))
                          for n in support})
        if rho.is_zero():
            rho = SymbolPoly.one()
        if trial % 2:
            c = Character("Gm", P35, rho * gm_base,
                          TruncSeries.zero(1, 2), dirac=None)
        else:
            c = Character("Elliptic", P35, rho * ell_base,
                          TruncSeries.zero(1, 2), curve=E11)
        assert decompose_over_fundamental(c) == rho
    # one full dual-route pass: series built, symbol re-extracted, decomposed
    rho = SymbolPoly({1: 2, 9: F(-1, 2), 45: 1})
    sym = rho * gm_base
    series = sym.star(gm_log(45 * 15))
    c = Character("Gm", P35, symbol_of_character(series, "Gm", P35), series)
    assert c.symbol == sym
    assert decompose_over_fundamental(c) == rho


def test_continuation_criterion():
    assert continuation_criterion(SymbolPoly.one(), True)
    assert not continuation_criterion(SymbolPoly.one(), False)
    assert continuation_criterion(SymbolPoly({1: 1, 3: -1}), False)


def test_honda_integrality():
    assert honda_integrality_check(E11, 3, 100)
    assert honda_integrality_check(E11, 5, 100)
    assert honda_integrality_check(E37, 5, 100)
    a7 = lseries_coefficients(E11, 7)[7]
    assert not honda_integrality_check(E11, 3, 100, mutate={7: a7 + 1})
    with pytest.raises(DomainError):
        honda_integrality_check(E37, 3, 50)  # supersingular
    with pytest.raises(DomainError):
        honda_integrality_check(E11, 11, 50)  # bad reduction


def test_remainder_rigidity_gm():
    # a nonzero remainder cannot represent a P-integral series: some
    # coefficient within T^(p^3) picks up a p in its denominator
    rng = random.Random(20260814)
    for p in (3, 5):
        log = gm_log(p ** 3)
        for _ in range(12):
            support = rng.sample(
                [n for n in range(1, p * p + 1) if n % p], rng.randint(1, 4))
            r = SymbolPoly({n: F(rng.choice([-2, -1, 1, 2]),
                                 rng.choice([1, 2] if p != 2 else [1]))
                            for n in support})
            f = r.star(log)
            assert any(f.coefficient(m) and vp(f.coefficient(m), p) < 0
                       for m in range(1, p ** 3 + 1))


def test_remainder_rigidity_elliptic():
    rng = random.Random(97)
    p = 3
    log = elliptic_log(E11, p ** 3)
    for _ in range(10):
        support = rng.sample(
            [n for n in range(1, 13) if vp(n, p) <= 1], rng.randint(1, 3))
        r = SymbolPoly({n: F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
                        for n in support})
        f = r.star(log)
        assert any(f.coefficient(m) and vp(f.coefficient(m), p) < 0
                   for m in range(1, p ** 3 + 1))


def test_character_json_shape():
    c = build_gm_character(P35, 4)
    d = c.to_json_dict()
    assert d["group"] == "Gm" and d["primes"] == [3, 5] and d["order"] == [1, 1]
    assert d["symbol"][0] == {"n": 1, "num": "-1", "den": "1"}
    assert [row["n"] for row in d["symbol"]] == [1, 3, 5, 15]
    assert "curve" not in d
    de = build_elliptic_character(E11, P35, 3).to_json_dict()
    assert de["curve"] == ["0", "-1", "1", "0", "0"]
    assert de["series"]["order"] == 3
    assert [row["p"] for row in de["dirac"]] == [3, 5]
    ga = build_ga_character(SymbolPoly({1: -3, 3: F(1, 2), 15: 2}), P35)
    assert [t["exp"] for t in ga.to_json_dict()["series"]["terms"]] == [
        [1], [3], [15]]
    # loader inverts the dict exactly, dirac data included
    for d in (c.to_json_dict(), de, ga.to_json_dict()):
        back = character_from_json_dict(json.loads(json.dumps(d)))
        assert back.to_json_dict() == d
        assert back.symbol == character_from_json_dict(d).symbol


def test_character_json_refuses_dirac_kind_mismatch():
    # a Dirac row's kind is derived from its ap: "gm" exactly when ap is null
    gm = build_gm_character(P35, 4).to_json_dict()
    ell = build_elliptic_character(E11, P35, 4).to_json_dict()
    ga = build_ga_character(SymbolPoly({1: -3, 3: F(1, 2), 15: 2}),
                            P35).to_json_dict()
    for base, key, value in ((gm, "kind", "elliptic"), (gm, "ap", 1),
                             (ell, "ap", None), (ell, "kind", "gm"),
                             (ell, "kind", "Elliptic")):
        data = json.loads(json.dumps(base))
        data["dirac"][1][key] = value
        with pytest.raises(DomainError):
            character_from_json_dict(data)
    # the order is the symbol's, and a support that is not P-smooth is
    # refused even when the JSON gives it an order
    outside = SymbolPoly.phi(7) * full_symbol(P35)
    for data in (dict(gm, symbol=outside.to_json_list(),
                      series=outside.star(gm_log(50)).to_json_dict()),
                 dict(gm, order=[2, 7])):
        with pytest.raises(DomainError):
            character_from_json_dict(data)
    # and a curve belongs to an elliptic character alone
    for data in (dict(gm, curve=ell["curve"]),
                 {k: v for k, v in ell.items() if k != "curve"}):
        with pytest.raises(DomainError):
            character_from_json_dict(data)
    # the Dirac rows and the series are derived from the symbol: a row off P
    # or out of order, a row whose ode times euler is not the symbol, and a
    # series that is not the symbol applied to the logarithm are refused
    first = dict(gm["series"], terms=[dict(gm["series"]["terms"][0], num="12345")]
                 + gm["series"]["terms"][1:])
    ga_terms = ga["series"]["terms"]
    ga_second = dict(ga["series"], terms=[ga_terms[0], dict(ga_terms[1], num="3")]
                     + ga_terms[2:])
    for base, change in ((gm, {"dirac": [gm["dirac"][0],
                                         dict(gm["dirac"][1], p=7)]}),
                         (gm, {"dirac": gm["dirac"][::-1]}),
                         (gm, {"dirac": gm["dirac"][:1]}),
                         (gm, {"dirac": [gm["dirac"][0], dict(
                             gm["dirac"][1],
                             euler=SymbolPoly({1: 7}).to_json_list())]}),
                         (ell, {"dirac": [dict(ell["dirac"][0],
                                               euler=gm["dirac"][0]["euler"]),
                                          ell["dirac"][1]]}),
                         (gm, {"series": first}),
                         (ga, {"series": ga_second}),
                         (gm, {"series": {"vars": 1, "order": 3, "terms": []}}),
                         (ell, {"series": gm["series"]})):
        with pytest.raises(DomainError):
            character_from_json_dict(dict(base, **change))


def test_character_json_zero_denominator_is_a_domain_error():
    """A zero "den" in a symbol row, a series term or a Dirac euler row is
    a DomainError that names the field, not a ZeroDivisionError."""
    gm = build_gm_character(P35, 4).to_json_dict()
    for field, row in (("symbol", lambda d: d["symbol"][1]),
                       ("series", lambda d: d["series"]["terms"][2]),
                       ("Dirac euler", lambda d: d["dirac"][0]["euler"][1])):
        data = json.loads(json.dumps(gm))
        row(data)["den"] = "0"
        with pytest.raises(DomainError, match="^a %s term has denominator 0$"
                           % field):
            character_from_json_dict(data)
