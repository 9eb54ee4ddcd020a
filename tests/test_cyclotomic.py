import math
import random
from fractions import Fraction

import pytest

from deltachar.cyclotomic import (
    CyclotomicConfig,
    CyclotomicElement,
    PadicCyclotomic,
    _galois_image,
    _mulmod,
    _norm_adjugate,
    _powmod,
    _series_mod,
    check_delta_ring_axioms,
    cyclotomic_polynomial,
    euler_phi,
)
from deltachar.delta_calculus import fermat_quotient
from deltachar.exact_arith import DomainError, NonUnitError, NotPLocalError


def test_powmod_multiply_count(monkeypatch):
    # left to right over the bits of k: bit_length + popcount - 2 multiplies,
    # and a fresh reduced list even for k = 1
    import deltachar.cyclotomic as cyclotomic
    calls = []

    def counting(a, b, phi, modulus=None):
        calls.append(1)
        return _mulmod(a, b, phi, modulus)

    monkeypatch.setattr(cyclotomic, "_mulmod", counting)
    phi = cyclotomic_polynomial(8)
    a = [3, -1, 4, 1]
    want = [1, 0, 0, 0]
    for k in range(0, 40):
        del calls[:]
        got = _powmod(a, k, phi, 10 ** 9)
        assert got == [c % 10 ** 9 for c in want], k
        assert len(calls) == (k.bit_length() + bin(k).count("1") - 2
                              if k else 0), k
        assert got is not a
        want = _mulmod(want, a, phi)
    assert _powmod(a, 1, phi) == a and _powmod(a, 1, phi) is not a
    assert _powmod(a, 0, phi) == [1, 0, 0, 0]
    assert _powmod([7], 5, (-1, 1), 100) == [7 ** 5 % 100]


def test_euler_phi():
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(7) == (1,) * 7
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_105_has_minus_two():
    # the first index whose cyclotomic polynomial has a coefficient != 0, +-1
    phi = cyclotomic_polynomial(105)
    assert phi[7] == -2
    assert len(phi) - 1 == euler_phi(105) == 48


def test_product_of_cyclotomics_is_xm_minus_one():
    for m in (6, 10, 12, 30):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = list(cyclotomic_polynomial(d))
                new = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                prod = new
        expected = [-1] + [0] * (m - 1) + [1]
        assert prod == expected


def test_config_validation():
    CyclotomicConfig(4, [3, 5, 7])
    with pytest.raises(DomainError):
        CyclotomicConfig(6, [3])  # 3 divides 6
    with pytest.raises(DomainError):
        CyclotomicConfig(4, [2])  # 2 not admitted
    with pytest.raises(DomainError):
        CyclotomicConfig(0, [3])


def _cfg(m=4, primes=(3, 5)):
    return CyclotomicConfig(m, primes)


def test_zeta_powers():
    cfg = _cfg()
    z = CyclotomicElement.zeta(cfg)
    assert z * z == CyclotomicElement.from_rational(cfg, -1)
    assert z ** 4 == 1
    # m = 2: zeta is -1
    cfg2 = CyclotomicConfig(2, [3, 5])
    assert CyclotomicElement.zeta(cfg2) == -1
    # m = 1: zeta is 1
    cfg1 = CyclotomicConfig(1, [3, 5])
    assert CyclotomicElement.zeta(cfg1) == 1


def test_ring_arithmetic_against_complex_embedding():
    # multiply in Z[x]/Phi_8 and check against floating zeta_8 = exp(2 pi i/8)
    import cmath
    cfg = CyclotomicConfig(8, [3, 5])
    rng = random.Random(3)
    zc = cmath.exp(2j * cmath.pi / 8)
    for _ in range(40):
        a = CyclotomicElement(cfg, [rng.randint(-9, 9) for _ in range(4)])
        b = CyclotomicElement(cfg, [rng.randint(-9, 9) for _ in range(4)])
        prod = a * b
        fa = sum(float(c) * zc ** k for k, c in enumerate(a.coeffs))
        fb = sum(float(c) * zc ** k for k, c in enumerate(b.coeffs))
        fp = sum(float(c) * zc ** k for k, c in enumerate(prod.coeffs))
        assert abs(fa * fb - fp) < 1e-6


def test_frobenius_is_galois_action():
    cfg = _cfg()
    z = CyclotomicElement.zeta(cfg)
    assert z.frobenius(3) == -z  # zeta_4^3 = -zeta_4
    assert z.frobenius(5) == z   # 5 = 1 mod 4
    cfg7 = CyclotomicConfig(7, [3, 5])
    z7 = CyclotomicElement.zeta(cfg7)
    assert z7.frobenius(3) == z7 ** 3
    # composition: phi_3 phi_5 = phi_15
    rng = random.Random(17)
    a = CyclotomicElement(cfg7, [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 11]))
                                 for _ in range(6)])
    assert a.frobenius(3).frobenius(5) == a.galois(15)
    assert a.frobenius(5).frobenius(3) == a.galois(15)


def test_frobenius_reduces_to_p_power_map():
    cfg = CyclotomicConfig(8, [3, 5, 7])
    rng = random.Random(19)
    for p in (3, 5, 7):
        for _ in range(30):
            a = CyclotomicElement(cfg, [rng.randint(-20, 20) for _ in range(4)])
            diff = a.frobenius(p) - a ** p
            assert all(c.denominator == 1 and c.numerator % p == 0
                       for c in diff.coeffs)


def test_frobenius_rejects_ramified_prime():
    cfg = CyclotomicConfig(4, [3])
    z = CyclotomicElement.zeta(cfg)
    with pytest.raises(DomainError):
        z.galois(2)


def test_delta_examples():
    cfg = _cfg()
    z = CyclotomicElement.zeta(cfg)
    assert z.delta(3).is_zero()  # phi_3(zeta) = zeta^3 exactly
    one_plus = 1 + z
    assert one_plus.delta(3) == 1 - z
    # on rational constants delta is the Fermat quotient
    c = CyclotomicElement.from_rational(cfg, 2)
    assert c.delta(5) == fermat_quotient(2, 5)
    with pytest.raises(NotPLocalError):
        CyclotomicElement.from_rational(cfg, Fraction(1, 3)).delta(3)


def test_delta_stays_integral():
    cfg = CyclotomicConfig(4, [3, 5, 7])
    rng = random.Random(23)
    for _ in range(50):
        a = CyclotomicElement(cfg, [Fraction(rng.randint(-30, 30),
                                             rng.choice([1, 2, 4, 11]))
                                    for _ in range(2)])
        for p in (3, 5, 7):
            assert a.delta(p).is_p_local()


# (m, primes): for each m a prime that splits completely (p = 1 mod m) and
# one of larger residue degree (inert for m = 3, 4, 5; m = 8, 12 have none)
INVERSE_CASES = [(1, (3, 5)), (3, (7, 5)), (4, (5, 3)), (5, (11, 3)),
                 (8, (17, 3)), (12, (13, 5))]


def test_inverse():
    cfg = _cfg()
    z = CyclotomicElement.zeta(cfg)
    a = 1 + 2 * z
    assert a * a.inverse() == 1
    assert (a / a) == 1
    with pytest.raises(NonUnitError):
        CyclotomicElement.from_rational(cfg, 0).inverse()
    rng = random.Random(43)
    for m, primes in INVERSE_CASES:
        cfg = CyclotomicConfig(m, sorted(primes))
        for _ in range(10):
            a = CyclotomicElement(cfg, [Fraction(rng.randint(-9, 9),
                                                 rng.choice([1, 2, 7]))
                                        for _ in range(cfg.degree)])
            if a.is_zero():
                continue
            assert a * a.inverse() == 1
            assert a.inverse().inverse() == a
    # zeta - 2 has norm 5 in Q(i): its inverse is (-zeta - 2)/5
    cfg = CyclotomicConfig(4, [5])
    a = CyclotomicElement.zeta(cfg) - 2
    assert a.inverse() == CyclotomicElement(cfg, [Fraction(-2, 5), Fraction(-1, 5)])


def test_axiom_report_on_random_cyclotomic_pairs():
    cfg = CyclotomicConfig(4, [3, 5, 7])
    rng = random.Random(29)
    pairs = []
    for _ in range(20):
        a = CyclotomicElement(cfg, [Fraction(rng.randint(-15, 15),
                                             rng.choice([1, 2, 11]))
                                    for _ in range(2)])
        b = CyclotomicElement(cfg, [Fraction(rng.randint(-15, 15),
                                             rng.choice([1, 2, 11]))
                                    for _ in range(2)])
        pairs.append((a, b))
    report = check_delta_ring_axioms(pairs, (3, 5, 7))
    assert report["ok"], report["failures"]


# ---------------------------------------------------------------------------
# p-adic model
# ---------------------------------------------------------------------------

def test_padic_cyclotomic_matches_exact_reduction():
    cfg = _cfg()
    rng = random.Random(31)
    for _ in range(40):
        a = CyclotomicElement(cfg, [Fraction(rng.randint(-50, 50),
                                             rng.choice([1, 2, 7]))
                                    for _ in range(2)])
        b = CyclotomicElement(cfg, [Fraction(rng.randint(-50, 50),
                                             rng.choice([1, 2, 7]))
                                    for _ in range(2)])
        pa = PadicCyclotomic.from_cyclotomic(a, 5, 6)
        pb = PadicCyclotomic.from_cyclotomic(b, 5, 6)
        assert pa * pb == PadicCyclotomic.from_cyclotomic(a * b, 5, 6)
        assert pa + pb == PadicCyclotomic.from_cyclotomic(a + b, 5, 6)
        assert pa.frobenius() == PadicCyclotomic.from_cyclotomic(a.frobenius(5), 5, 6)


def test_padic_cyclotomic_delta_matches_exact():
    cfg = _cfg()
    rng = random.Random(37)
    for _ in range(30):
        a = CyclotomicElement(cfg, [rng.randint(-50, 50) for _ in range(2)])
        pa = PadicCyclotomic.from_cyclotomic(a, 3, 8)
        expected = PadicCyclotomic.from_cyclotomic(a.delta(3), 3, 7)
        assert pa.delta() == expected


def test_padic_cyclotomic_inverse():
    cfg = _cfg()
    rng = random.Random(41)
    for p in (3, 5):
        for _ in range(25):
            coeffs = [rng.randint(0, p ** 6 - 1) for _ in range(2)]
            a = PadicCyclotomic(cfg, p, 6, coeffs)
            if not a.is_unit():
                continue
            assert a * a.inverse() == 1
    a = PadicCyclotomic(cfg, 3, 6, [3, 3])
    assert not a.is_unit()
    with pytest.raises(NonUnitError):
        a.inverse()
    for m, primes in INVERSE_CASES:
        cfg = CyclotomicConfig(m, sorted(primes))
        for p in primes:
            # the units of Z[zeta_m]/p form a group of exponent p^f - 1
            f = next(f for f in range(1, m + 1) if (p ** f - 1) % m == 0)
            units = 0
            for _ in range(12):
                n = rng.randint(1, 20)
                a = PadicCyclotomic(cfg, p, n, [rng.randint(0, p ** n - 1)
                                                for _ in range(cfg.degree)])
                unit = a.reduce_to(1) ** (p ** f - 1) == 1
                assert a.is_unit() == unit
                if unit:
                    assert a * a.inverse() == 1
                    units += 1
                else:
                    with pytest.raises(NonUnitError):
                        a.inverse()
            assert units
            assert not PadicCyclotomic(cfg, p, 5, [p]).is_unit()
            assert PadicCyclotomic(cfg, p, 5, [1 + p]).inverse() == \
                PadicCyclotomic.from_rational(cfg, Fraction(1, 1 + p), p, 5)
    # zeta - 2 vanishes in only one of the two factors of Z_5[i]
    cfg = CyclotomicConfig(4, [5])
    a = PadicCyclotomic(cfg, 5, 8, [-2, 1])
    assert not a.is_unit()
    with pytest.raises(NonUnitError):
        a.inverse()
    assert not a.reduce_to(1).is_zero()


def test_padic_cyclotomic_valuation_and_division():
    cfg = _cfg()
    a = PadicCyclotomic(cfg, 3, 5, [18, 27])
    assert a.min_valuation() == 2
    b = a.divide_by_prime_power(2)
    assert b.precision == 3
    assert b.coeffs == (2, 3)
    with pytest.raises(DomainError):
        a.divide_by_prime_power(3)
    assert PadicCyclotomic.zero(cfg, 3, 5).min_valuation() == float("inf")


def test_padic_cyclotomic_m_equals_one():
    cfg = CyclotomicConfig(1, [3, 5])
    a = PadicCyclotomic.from_rational(cfg, Fraction(1, 2), 3, 4)
    assert a.coeffs == (41,)  # 1/2 = 41 mod 81
    assert a.frobenius() == a
    assert (a + a) == 1


def test_padic_cyclotomic_rejects_ramified():
    cfg = CyclotomicConfig(9, [5])
    with pytest.raises(DomainError):
        PadicCyclotomic.from_rational(cfg, 1, 3, 4)


def _schoolbook_mulmod(a, b, phi, modulus):
    """a*b mod the monic phi: the full product, then long division."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    d = len(phi) - 1
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        for j, f in enumerate(phi):
            prod[k - d + j] -= c * f
    return prod[:d] if modulus is None else [c % modulus for c in prod[:d]]


def test_mulmod_matches_schoolbook():
    # the folded product, and the square of one list (a is b), against the
    # product reduced by long division: exactly, with negative entries, and
    # mod p^K
    rng = random.Random(28)
    for m in list(range(1, 41)) + [100]:
        phi = cyclotomic_polynomial(m)
        d = len(phi) - 1
        for modulus in (None, 7 ** 30):
            bound = 10 ** 12 if modulus is None else modulus
            lo = -bound if modulus is None else 0
            for trial in range(3):
                a = [rng.randrange(lo, bound) for _ in range(d)]
                b = [rng.randrange(lo, bound) for _ in range(d)]
                if trial == 2:          # zero entries skip their row
                    a[rng.randrange(d)] = 0
                    b[-1] = 0
                want = _schoolbook_mulmod(a, b, phi, modulus)
                assert _mulmod(a, b, phi, modulus) == want, (m, modulus)
                square = _schoolbook_mulmod(a, a, phi, modulus)
                assert _mulmod(a, a, phi, modulus) == square, (m, modulus)


def test_series_mod_matches_power_sum():
    # the blocked sum against sum_j ints[j-1] * x^j with the powers built
    # one by one, at n on both sides of the block boundaries k^2
    rng = random.Random(7)
    for m in (1, 3, 4, 8, 12):
        phi = cyclotomic_polynomial(m)
        deg = len(phi) - 1
        for modulus in (5 ** 9, 7 ** 20, 13 ** 4):
            for n in (0, 1, 2, 3, 4, 8, 9, 10, 15, 16, 17, 63, 64, 65, 200):
                ints = [rng.randrange(-modulus, modulus) for _ in range(n)]
                # a general x, and one with no zeta-part (summed in ints)
                for x in ([rng.randrange(modulus) for _ in range(deg)],
                          [rng.randrange(modulus)] + [0] * (deg - 1)):
                    want = [0] * deg
                    power = [1] + [0] * (deg - 1)
                    for c in ints:
                        power = _mulmod(power, x, phi, modulus)
                        want = [(w + c * e) % modulus
                                for w, e in zip(want, power)]
                    assert _series_mod(ints, x, phi, modulus) == want


# ---------------------------------------------------------------------------
# the integer model against a Fraction-list reference
# ---------------------------------------------------------------------------

def _ref_inverse(cfg, a):
    adj, norm = _norm_adjugate(cfg, a)
    return [c / norm for c in adj]


def _ref_pow(cfg, a, k):
    return _powmod(list(a) if k >= 0 else _ref_inverse(cfg, a), abs(k), cfg.phi)


def _ref_delta(cfg, a, p):
    return [(f - q) / p for f, q in zip(_galois_image(cfg, a, p),
                                        _ref_pow(cfg, a, p))]


def _canonical(x):
    return x.den > 0 and math.gcd(x.den, *x.num) == 1


def test_integer_model_matches_fraction_lists():
    rng = random.Random(2024)
    for m in (1, 3, 4, 5, 8, 12):
        cfg = CyclotomicConfig(m, (7, 11))
        units = [j for j in range(1, m + 1) if math.gcd(j, m) == 1]
        for _ in range(6):
            fa, fb = ([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                       for _ in range(cfg.degree)] for _ in range(2))
            if not any(fb):
                fb[0] = Fraction(1, 5)
            a, b = CyclotomicElement(cfg, fa), CyclotomicElement(cfg, fb)
            r = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
            k = rng.randint(-3, 4)
            j = rng.choice(units)
            cases = [
                (a + b, [x + y for x, y in zip(fa, fb)]),
                (a - b, [x - y for x, y in zip(fa, fb)]),
                (r - a, [r - fa[0]] + [-x for x in fa[1:]]),
                (a * b, _mulmod(fa, fb, cfg.phi)),
                (a * r, [x * r for x in fa]),
                (a / r, [x / r for x in fa]),
                (a / b, _mulmod(fa, _ref_inverse(cfg, fb), cfg.phi)),
                (r / b, [r * x for x in _ref_inverse(cfg, fb)]),
                (b ** k, _ref_pow(cfg, fb, k)),
                (b.inverse(), _ref_inverse(cfg, fb)),
                (a.galois(j), _galois_image(cfg, fa, j)),
            ] + [(a.delta(p), _ref_delta(cfg, fa, p)) for p in (7, 11)]
            for got, want in cases:
                assert got.coeffs == tuple(want), (m, fa, fb)
                assert _canonical(got)
            for p in (2, 3, 5, 7):
                assert a.is_p_local((p,)) == all(x.denominator % p for x in fa)


def test_integer_model_canonical_form():
    cfg = CyclotomicConfig(4, (3, 5))
    half = CyclotomicElement(cfg, [Fraction(1, 2), Fraction(1, 2)])
    assert (half.num, half.den) == ((1, 1), 2)
    one_one = CyclotomicElement(cfg, [1, 1])
    assert half * 2 == one_one and hash(half * 2) == hash(one_one)
    assert (half * 2).den == 1
    zero = half - half
    assert zero.is_zero() and zero.num == (0, 0) and zero.den == 1
    assert zero == 0 and hash(zero) == hash(CyclotomicElement(cfg, []))
    assert all(type(c) is Fraction for c in half.coeffs)
    assert half.coeffs == (Fraction(1, 2), Fraction(1, 2))
    # a common factor that appears only after reduction mod Phi_4: (1+i)^2 = 2i
    assert (half ** 2).coeffs == (0, Fraction(1, 2))
    assert (half / Fraction(-3, 4) * Fraction(-3, 4)) == half
    with pytest.raises(ZeroDivisionError):
        half / 0
