"""The three sparse algebras (MPoly, TruncSeries, SymbolPoly) against naive
dict references, on seeded random inputs, with their stored-form invariants:
every stored coefficient is a nonzero Fraction, and a series stores no
exponent above its order."""

import math
import random
from fractions import Fraction

import pytest

from deltachar.characters import SymbolPoly
from deltachar.exact_arith import DomainError, PrimeSet
from deltachar.jet_rings import DeltaPolynomial
from deltachar.polys import MPoly, _convolve, _coprime_to
from deltachar.series_fgl import TruncSeries, star_apply

VARS = ("a", "b", "c")


def rand_coeff(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5)))


def ref_add(x, y):
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def ref_mul(x, y, key_mul, keep=lambda k: True):
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            k = key_mul(k1, k2)
            if keep(k):
                out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def ref_star(symbol, f):
    """sum_n c_n phi_n applied to f term by term, in Fractions."""
    out = {}
    for n, cn in symbol.items():
        for (j,), c in f.coeffs.items():
            if j * n <= f.order:
                out[(j * n,)] = out.get((j * n,), 0) + cn * c
    return {k: c for k, c in out.items() if c}


def assert_clean(coeffs):
    for c in coeffs.values():
        assert type(c) is Fraction and c != 0


# ---------------------------------------------------------------------------
# MPoly
# ---------------------------------------------------------------------------

def mono_mul(m1, m2):
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def rand_mpoly(rng, terms=5):
    coeffs = {}
    for _ in range(rng.randint(0, terms)):
        mono = tuple(sorted((v, rng.randint(1, 3))
                            for v in rng.sample(VARS, rng.randint(0, 2))))
        coeffs[mono] = rand_coeff(rng)
    return MPoly(coeffs)


def mpoly_cases(seed, count=40):
    rng = random.Random(seed)
    return [(rand_mpoly(rng), rand_mpoly(rng), rand_mpoly(rng))
            for _ in range(count)]


def test_mpoly_matches_dict_reference():
    for a, b, _ in mpoly_cases(1):
        s, p = a + b, a * b
        assert s.coeffs == ref_add(a.coeffs, b.coeffs)
        assert p.coeffs == ref_mul(a.coeffs, b.coeffs, mono_mul)
        assert (a - b).coeffs == ref_add(a.coeffs, {k: -c for k, c in b.coeffs.items()})
        for r in (s, p, a - b, -a, a * 3, 3 * a, a * Fraction(-2, 7), a / 5,
                  a + 2, 2 - a, a ** 3):
            assert_clean(r.coeffs)


def test_mpoly_ring_laws():
    one = MPoly.const(1)
    for a, b, c in mpoly_cases(2):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a and a + MPoly() == a
        assert (a + (-a)).coeffs == {} and (a - a).coeffs == {}
        assert (a * 0).coeffs == {} and (a * MPoly()).coeffs == {}
        assert a ** 0 == one and a ** 3 == a * a * a
        assert (a / 3) * 3 == a and Fraction(1, 2) * a + a / 2 == a
    with pytest.raises(ValueError):
        MPoly.variable("a") ** -1


def test_mpoly_constructor_coerces_and_drops_zeros():
    p = MPoly({(): 0, (("a", 1),): 2, (("b", 1),): Fraction(0, 3)})
    assert p.coeffs == {(("a", 1),): Fraction(2)}
    assert type(p.coeffs[(("a", 1),)]) is Fraction
    assert p.coefficient((("b", 1),)) == 0 and p.constant_term() == 0


def test_mpoly_equals_rational_constants():
    # as SymbolPoly, TruncSeries and DeltaPolynomial do: an int or Fraction
    # is read as a constant, any other type declines and so reads unequal
    assert MPoly.const(2) == 2 and 2 == MPoly.const(2)
    assert MPoly.zero() == 0 and MPoly.const(Fraction(1, 3)) == Fraction(1, 3)
    assert MPoly.variable("x") != 0 and MPoly.const(2) != 3
    for bad in (True, 2.0, "2", None):
        assert MPoly.const(2) != bad and not MPoly.const(2) == bad
        assert MPoly.const(2).__eq__(bad) is NotImplemented


def test_mpoly_monomials_are_stored_canonically():
    # sorted, with a repeated variable merged, as products store them
    x, y = MPoly.variable("x"), MPoly.variable("y")
    p = MPoly({(("y", 1), ("x", 1)): 1})
    assert p == x * y and p.coefficient((("x", 1), ("y", 1))) == 1
    assert (p + x * y).coeffs == {(("x", 1), ("y", 1)): Fraction(2)}
    assert MPoly({(("x", 1), ("x", 2)): 1}) == x ** 3
    for exponent in (1.0, True, -1):
        with pytest.raises(DomainError):
            MPoly({(("x", exponent),): 1})


def test_mpoly_zero_exponents_are_dropped():
    assert MPoly({(("x", 0),): 3}) == MPoly.const(3)
    assert MPoly({(("x", 0),): 3}).constant_term() == 3
    assert MPoly({(("x", 0), ("y", 2)): 1}) == MPoly.variable("y") ** 2


def test_sparse_coefficients_and_divisors_are_exact():
    # a float is never read as its binary expansion, nor a bool as an int
    for bad in (0.1, True):
        for build in (lambda: SymbolPoly({1: bad}),
                      lambda: TruncSeries(1, 3, {(1,): bad}),
                      lambda: MPoly({(): bad}), lambda: MPoly.const(bad),
                      lambda: TruncSeries.const(bad, 1, 3),
                      lambda: SymbolPoly.one() / bad,
                      lambda: TruncSeries.var(3) / bad,
                      lambda: MPoly.variable("x") / bad):
            with pytest.raises(DomainError):
                build()


@pytest.mark.parametrize("expression", [
    "SymbolPoly.one() * True", "MPoly.variable('x') * True",
    "MPoly.variable('x') * 0.5", "TruncSeries.var(3) * 0.5",
    "TruncSeries.var(3) + 0.5", "SymbolPoly.one() * 0.5"])
def test_scalar_bool_or_float_is_refused(expression):
    # the scalar branches of the products and sums take an int or Fraction
    # only: a bool is not multiplied as 0 or 1, nor a float met by an
    # AttributeError or TypeError further on
    with pytest.raises(DomainError):
        eval(expression)


def test_scalar_refusals_reach_every_operator():
    x = DeltaPolynomial.variable(PrimeSet((3,)), "x")
    for bad in (True, 0.5, "1"):
        for expression in (lambda: SymbolPoly.one() + bad,
                           lambda: bad - SymbolPoly.one(),
                           lambda: bad * MPoly.variable("x"),
                           lambda: TruncSeries.var(3) - bad,
                           lambda: bad + TruncSeries.var(3),
                           lambda: x * bad, lambda: bad - x):
            with pytest.raises(DomainError):
                expression()
        # equality declines, and so reads False, rather than raising
        assert SymbolPoly.one() != bad and TruncSeries.var(3) != bad
        assert x != bad
    assert SymbolPoly.one() == 1 and TruncSeries.const(2, 1, 3) == 2
    assert 2 * x == x + x and x - 1 == -(1 - x)


def test_mpoly_substitute_against_evaluate():
    rng = random.Random(3)
    for a, b, c in mpoly_cases(3, 25):
        point = {v: rand_coeff(rng) for v in VARS}
        # full assignment by constants: a constant polynomial
        assert a.substitute(point) == MPoly.const(a.evaluate(point))
        # polynomials for some variables, the rest kept
        assign = {"a": b, "c": c + 1}
        sub = a.substitute(assign)
        assert_clean(sub.coeffs)
        inner = dict(point, a=b.evaluate(point), c=(c + 1).evaluate(point))
        assert sub.evaluate(point) == a.evaluate(inner)
        assert a.substitute({}) == a


def test_mpoly_map_variables():
    x, y = MPoly.variable("x"), MPoly.variable("y")
    f = 3 * x * y ** 2 + x - 2
    g = f.map_variables(lambda v: v.upper())
    assert g == 3 * MPoly.variable("X") * MPoly.variable("Y") ** 2 \
        + MPoly.variable("X") - 2
    with pytest.raises(ValueError, match="collided"):
        (x + y).map_variables(lambda v: "z")


def test_mpoly_p_locality_scan():
    x = MPoly.variable("x")
    assert (x / 7 + Fraction(1, 2)).denominators_coprime_to((3, 5))
    assert not (x / 15).denominators_coprime_to((3, 7))
    assert MPoly().denominators_coprime_to((3,))


def test_coprime_to_matches_the_per_prime_rule():
    """`_coprime_to` takes one gcd with the product of the primes; its
    verdict is that of testing every prime on every denominator, on seeded
    dicts with prime-power and mixed denominators and numerators beyond 64
    bits, and for the empty prime set, which every dict passes."""
    rng = random.Random(3030)
    pool = (3, 5, 7, 11, 13)
    verdicts = set()
    for _ in range(400):
        a = {}
        for k in range(rng.randint(0, 5)):
            den = math.prod(rng.choice(pool + (2, 17)) ** rng.randint(1, 4)
                            for _ in range(rng.randint(0, 3)))
            a[k] = Fraction(rng.choice((1, -1)) * rng.randint(1, 2 ** 90), den)
        primes = tuple(sorted(rng.sample(pool, rng.randint(0, 3))))
        want = all(c.denominator % p for c in a.values() for p in primes)
        assert _coprime_to(a, primes) == want, (a, primes)
        assert _coprime_to(a, ())
        verdicts.add(want)
    assert verdicts == {True, False}
    power = {1: Fraction(1, 3 ** 7), 2: Fraction(3 ** 80, 5)}
    assert not _coprime_to(power, (3,))
    assert _coprime_to(power, (7, 11)) and not _coprime_to(power, (5,))
    mixed = {1: Fraction(2 ** 70 + 3, 3 * 5 ** 2 * 7)}
    assert [_coprime_to(mixed, (p,)) for p in (3, 5, 7, 11)] == [
        False, False, False, True]
    assert _coprime_to({}, (3, 5)) and _coprime_to({}, ())


# ---------------------------------------------------------------------------
# TruncSeries
# ---------------------------------------------------------------------------

def exp_add(e1, e2):
    return tuple(x + y for x, y in zip(e1, e2))


def rand_series(rng, nvars, order):
    coeffs = {}
    for _ in range(rng.randint(0, 8)):
        e = tuple(rng.randint(0, order) for _ in range(nvars))
        coeffs[e] = rand_coeff(rng)
    return TruncSeries(nvars, order, coeffs)


def series_cases(seed, count=30):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nvars = rng.choice((1, 1, 2))
        out.append(tuple(rand_series(rng, nvars, rng.randint(0, 7))
                         for _ in range(3)))
    return out


def assert_series_clean(s):
    assert_clean(s.coeffs)
    for e in s.coeffs:
        assert len(e) == s.nvars and sum(e) <= s.order


def test_series_matches_dict_reference():
    for a, b, _ in series_cases(4):
        n = min(a.order, b.order)
        low = lambda e: sum(e) <= n  # noqa: E731
        s, p = a + b, a * b
        assert s.order == p.order == n
        assert s.coeffs == {e: c for e, c in ref_add(a.coeffs, b.coeffs).items()
                            if low(e)}
        assert p.coeffs == ref_mul(a.coeffs, b.coeffs, exp_add, low)
        for r in (s, p, b + a, a - b, -a, a * 2, a * Fraction(3, 4), a / 7,
                  a + 1, 1 - a, a ** 3, a.truncate(a.order // 2),
                  a.with_order(a.order + 3)):
            assert_series_clean(r)


def test_series_ring_laws():
    for a, b, c in series_cases(5):
        one = TruncSeries.const(1, a.nvars, a.order)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert (a + (-a)).coeffs == {} and (a - a).coeffs == {}
        assert (a * 0).coeffs == {}
        assert a ** 3 == a * a * a and a ** 0 == one


def test_series_add_keeps_lower_order():
    hi = TruncSeries(1, 6, {(k,): Fraction(k + 1) for k in range(7)})
    lo = TruncSeries(1, 2, {(1,): Fraction(-2)})
    for s in (hi + lo, lo + hi, hi - lo, lo - hi):
        assert s.order == 2
        assert_series_clean(s)
    assert (hi + lo).coeffs == {(0,): 1, (2,): 3}
    assert (lo - hi).coeffs == {(0,): -1, (1,): -4, (2,): -3}


def test_series_constructor_validates():
    s = TruncSeries(1, 3, {(0,): 0, (2,): 5, (5,): 1})
    assert s.coeffs == {(2,): Fraction(5)} and type(s.coeffs[(2,)]) is Fraction
    assert s.coefficient(1) == 0 and s.constant_term() == 0
    with pytest.raises(DomainError):
        TruncSeries(2, 3, {(1,): 1})
    with pytest.raises(DomainError):
        TruncSeries(1, 3, {(-1,): 1})
    with pytest.raises(DomainError):
        TruncSeries(1, -1)


def test_series_compose_against_naive_powers():
    rng = random.Random(6)
    for _ in range(20):
        nargs = rng.choice((1, 2))
        nvars = rng.choice((1, 2))
        order = rng.randint(1, 6)
        f = rand_series(rng, nargs, order)
        args = []
        for _ in range(nargs):
            g = rand_series(rng, nvars, rng.randint(1, 7))
            args.append(g - g.constant_term())
        got = f.compose(args)
        assert_series_clean(got)
        n = min([order] + [g.order for g in args])
        assert got.order == n
        want = TruncSeries.zero(nvars, n)
        for e, c in f.coeffs.items():
            term = TruncSeries.const(c, nvars, n)
            for g, k in zip(args, e):
                for _ in range(k):
                    term = term * g.truncate(n)
            want = want + term
        assert got == want and got.coeffs == want.coeffs
    with pytest.raises(DomainError, match="mixed variable counts"):
        TruncSeries.var(3, 0, 2).compose([TruncSeries.var(3), TruncSeries.var(3, 1, 2)])


def test_series_reciprocal_and_star():
    rng = random.Random(7)
    for _ in range(15):
        order = rng.randint(0, 12)
        f = rand_series(rng, 1, order) + rng.choice((1, -2, Fraction(3, 5)))
        if not f.constant_term():
            continue
        r = f.reciprocal()
        assert_series_clean(r)
        assert (f * r).coeffs == {(0,): 1} and r.order == order
        symbol = {n: rand_coeff(rng) for n in rng.sample(range(1, 6), 3)}
        got = star_apply(symbol, f)
        assert got.coeffs == ref_star(symbol, f)
        assert_series_clean(got)


# ---------------------------------------------------------------------------
# the kernel's integer sums against the naive Fraction double loop
# ---------------------------------------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def kernel_cases():
    """Pairs of univariate coefficient dicts, each aimed at one summing path."""
    u = lambda *cs: {(j,): Fraction(c) for j, c in enumerate(cs) if c}  # noqa: E731
    rng = random.Random(9)
    cases = [
        # [T^k] collects min(k, 10 - k) + 1 terms, pairwise-distinct
        # denominators P[i] P[6 + k - i]
        (u(*(Fraction(j + 1, PRIMES[j]) for j in range(6))),
         u(*(Fraction((-1) ** j, PRIMES[6 + j]) for j in range(6)))),
        # [T] cancels over equal denominators, [T^2] over distinct ones:
        # -136/2310 + 1/33 + 1/35 = 0
        (u(Fraction(1, 2), Fraction(1, 3)), u(Fraction(1, 5), Fraction(-2, 15))),
        (u(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)),
         u(Fraction(1, 5), Fraction(1, 11), Fraction(-136, 1155))),
        # integers only, (1 + T)(1 - T + 3T^2) = 1 + 2T^2 + 3T^3
        (u(1, 1), u(1, -1, 3)),
        (u(*(rng.randint(-9, 9) for _ in range(7))),
         u(*(rng.randint(-9, 9) for _ in range(7)))),
        # numerators and denominators beyond 64 bits
        (u(Fraction(2 ** 70 + 1, 3), Fraction(-3 ** 45, 2 ** 65 + 1)),
         u(Fraction(5 ** 30, 7), 2 ** 64 + 13, Fraction(-7 ** 40, 2 ** 64 + 13))),
    ]
    for _ in range(20):
        cases.append(tuple(
            u(*(Fraction(rng.choice((0, 1, -3, 2 ** 67 + 1)) * rng.randint(-5, 5),
                         rng.choice(PRIMES) * rng.choice((1, 1, 2 ** 66 + 1)))
                for _ in range(rng.randint(1, 8))))
            for _ in range(2)))
    return cases


def test_kernel_sums_match_naive_double_loop():
    cases = kernel_cases()
    for a, b in cases:
        top = max((j for (j,) in a), default=0) + max((j for (j,) in b), default=0)
        # every cut from 0 to past the top degree: each product of degree
        # d is kept at cut d and dropped at cut d - 1
        for cut in (None, *range(top + 2)):
            keep = (lambda e: True) if cut is None else (
                lambda e, cut=cut: e[0] <= cut)
            got = _convolve(a, b, exp_add, cut)
            assert got == ref_mul(a, b, exp_add, keep)
            assert_clean(got)
        # the star action reads a as the symbol sum_j a_j phi_(j+1)
        symbol = {j + 1: c for (j,), c in a.items()}
        for order in range(top + 2):
            f = TruncSeries(1, order, b)
            got = star_apply(symbol, f)
            assert got.coeffs == ref_star(symbol, f)
            assert_series_clean(got)
    assert (1,) not in _convolve(*cases[1], exp_add)
    assert (2,) not in _convolve(*cases[2], exp_add)
    # 1/7 + 1/10 - 17/70 = 0 at T^4: three distinct denominators cancel
    f = TruncSeries(1, 4, {(1,): Fraction(1, 3), (2,): Fraction(1, 5),
                           (4,): Fraction(1, 7)})
    got = star_apply({1: 1, 2: Fraction(1, 2), 4: Fraction(-51, 70)}, f)
    assert got.coeffs == {(1,): Fraction(1, 3), (2,): Fraction(1, 5) + Fraction(1, 6)}
    assert_series_clean(got)


def test_star_apply_reads_ints_and_fractions_and_refuses_the_rest():
    """Symbol values may be ints or Fractions, as the sparse constructors
    take them; a float or bool value is refused with a DomainError."""
    f = TruncSeries(1, 9, {(1,): 1, (2,): Fraction(-1, 2), (3,): Fraction(1, 3),
                           (5,): Fraction(2 ** 70, 7)})
    by_int = star_apply({1: 2, 3: -1}, f)
    by_fraction = star_apply({1: Fraction(2), 3: Fraction(-1)}, f)
    mixed = star_apply({1: 2, 3: Fraction(-1, 3)}, f)
    assert by_int.coeffs == by_fraction.coeffs == ref_star({1: 2, 3: -1}, f)
    assert mixed.coeffs == ref_star({1: 2, 3: Fraction(-1, 3)}, f)
    assert_series_clean(by_int)
    assert_series_clean(mixed)
    for bad in (0.5, 2.0, 0.0, True, False):
        with pytest.raises(DomainError):
            star_apply({1: 1, 3: bad}, f)
        with pytest.raises(DomainError):
            SymbolPoly({1: 1, 3: bad})


# ---------------------------------------------------------------------------
# SymbolPoly
# ---------------------------------------------------------------------------

def rand_symbol(rng):
    return SymbolPoly({n: rand_coeff(rng)
                       for n in rng.sample(range(1, 13), rng.randint(0, 4))})


def test_symbol_indices_must_be_ints():
    # type, not int(): 2.5 is not phi_2, nor True phi_1
    for n in (2.5, 2.0, True):
        with pytest.raises(DomainError):
            SymbolPoly({n: 1})


def test_symbols_match_dict_reference_and_ring_laws():
    rng = random.Random(8)
    for _ in range(40):
        a, b, c = rand_symbol(rng), rand_symbol(rng), rand_symbol(rng)
        s, p = a + b, a * b
        assert s.coeffs == ref_add(a.coeffs, b.coeffs)
        assert p.coeffs == ref_mul(a.coeffs, b.coeffs, lambda n, m: n * m)
        for r in (s, p, a - b, -a, a * 3, a * Fraction(2, 9), a / 4, a + 1,
                  1 - a):
            assert_clean(r.coeffs)
        assert a * b == b * a and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + (-a)).coeffs == {} and (a - a).is_zero()
        assert (a * 0).coeffs == {}
        assert a.is_p_local((3, 7)) == all(
            c.denominator % 3 and c.denominator % 7 for c in a.coeffs.values())
