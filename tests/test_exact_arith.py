import math
import operator
import random
from fractions import Fraction

import pytest

from deltachar.cyclotomic import (
    CyclotomicConfig,
    CyclotomicElement,
    PadicCyclotomic,
    _zp,
    hensel_quadratic_root,
    padic_log,
)
from deltachar.characters import build_elliptic_character, character_from_json_dict
from deltachar.delta_calculus import fermat_quotient, iterated_delta
from deltachar.elliptic import WeierstrassCurve
from deltachar.exact_arith import (
    DomainError,
    NonUnitError,
    NotPLocalError,
    PrimeSet,
    ensure_p_local,
    fraction_mod,
    is_p_local,
    is_prime,
    log_budget,
    log_prefix,
    rational_reconstruct,
    smooth_exponents,
    vp,
)


def test_prime_set_validation():
    assert tuple(PrimeSet([3, 5, 7])) == (3, 5, 7)
    with pytest.raises(DomainError):
        PrimeSet([2, 3])
    with pytest.raises(DomainError):
        PrimeSet([5, 3])
    with pytest.raises(DomainError):
        PrimeSet([3, 3])
    with pytest.raises(DomainError):
        PrimeSet([9])
    with pytest.raises(DomainError):
        PrimeSet([])


def test_vp_basic():
    assert vp(45, 3) == 2
    assert vp(Fraction(5, 9), 3) == -2
    assert vp(Fraction(-7, 10), 5) == -1
    assert vp(0, 3) == math.inf
    assert vp(-675, 5) == 2
    assert vp(Fraction(0), 3) == math.inf


def test_vp_multiplicative():
    rng = random.Random(11)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11])
        a = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
        b = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
        assert vp(a * b, p) == vp(a, p) + vp(b, p)
        if a + b != 0:
            assert vp(a + b, p) >= min(vp(a, p), vp(b, p))


def test_is_p_local():
    P = PrimeSet([3, 5])
    assert is_p_local(Fraction(7, 4), P)
    assert is_p_local(Fraction(9, 14), P)
    assert not is_p_local(Fraction(1, 3), P)
    assert not is_p_local(Fraction(2, 45), P)


def test_prime_set_refuses_non_integers():
    # type, not int(): 3.5 is not 3, nor True a prime
    for primes in ((3.5, 5), (3.0, 5), (True, 3), ("3", 5)):
        with pytest.raises(DomainError):
            PrimeSet(primes)


def test_floats_are_refused_at_every_door():
    # a float is never read as its binary expansion
    P = PrimeSet([3])
    for check in (lambda: is_p_local(0.1, P), lambda: ensure_p_local(0.1, P),
                  lambda: fermat_quotient(0.1, 3),
                  lambda: iterated_delta(0.5, P, (0,)),
                  lambda: iterated_delta(2.0, P, (1,))):
        with pytest.raises(DomainError):
            check()
    assert is_p_local(2, P) and fermat_quotient(Fraction(1, 2), 3) == Fraction(1, 8)
    data = build_elliptic_character(WeierstrassCurve.from_label("37a"),
                                    PrimeSet([5, 7]), 4).to_json_dict()
    assert character_from_json_dict(data).curve.c4 == -1
    data["curve"][3] = -1.1
    with pytest.raises(DomainError):
        character_from_json_dict(data)
    data["curve"][3] = -1
    assert character_from_json_dict(data).curve.c4 == -1


def smooth_numbers(primes, limit):
    """All integers <= limit whose prime factors lie in the given set, sorted."""
    found = {1}
    for p in primes:
        for n in sorted(found):
            m = n * p
            while m <= limit:
                found.add(m)
                m *= p
    return sorted(n for n in found if n <= limit)


def test_smooth_helpers():
    assert smooth_exponents(45, (3, 5)) == (2, 1)
    assert smooth_exponents(1, (3, 5)) == (0, 0)
    assert smooth_exponents(7, (3, 5)) is None
    assert smooth_exponents(0, (3, 5)) is None
    nums = smooth_numbers((3, 5), 50)
    assert nums == [1, 3, 5, 9, 15, 25, 27, 45]


def mobius(n: int) -> int:
    """Reference Moebius function, by trial factorization."""
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1 if d == 2 else 2
    if n > 1:
        result = -result
    return result


def test_mobius_values():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_mobius_divisor_sum():
    # sum_{d | n} mu(d) = [n == 1], checked up to 10^4
    acc = [0] * (10 ** 4 + 1)
    for d in range(1, 10 ** 4 + 1):
        md = mobius(d)
        if md:
            for n in range(d, 10 ** 4 + 1, d):
                acc[n] += md
    assert acc[1] == 1
    assert all(acc[n] == 0 for n in range(2, 10 ** 4 + 1))


def test_is_prime_small():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 45):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n], n


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(341550071728321)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 62 - 1)


# ---------------------------------------------------------------------------
# Z_p: PadicCyclotomic at m = 1
# ---------------------------------------------------------------------------

def test_padic_int_ring_ops():
    a = _zp(3, 5, 7)
    b = _zp(3, 5, Fraction(1, 2))
    assert (a + b).residue == (7 + fraction_mod(Fraction(1, 2), 3, 5)) % 3 ** 5
    assert (a * b).residue == 7 * fraction_mod(Fraction(1, 2), 3, 5) % 3 ** 5
    assert (a - a).is_zero()
    assert (a ** 3).residue == pow(7, 3, 3 ** 5)
    # precision aligns to the minimum
    c = _zp(3, 2, 1)
    assert (a + c).precision == 2


def test_padic_int_equality_is_precision_relative():
    assert _zp(3, 2, 4) == _zp(3, 5, 4)
    assert _zp(3, 2, 4) == _zp(3, 5, 13)  # 4 = 13 mod 9
    assert _zp(3, 3, 4) != _zp(3, 5, 13)


def test_padic_int_division():
    x = _zp(5, 4, 75)
    y = x.divide_by_prime_power(2)
    assert (y.precision, y.residue) == (2, 3)
    with pytest.raises(DomainError):
        _zp(5, 4, 7).divide_by_prime_power(1)
    u = _zp(7, 6, 3)
    assert (u * u.inverse()).residue == 1
    with pytest.raises(NonUnitError):
        _zp(7, 6, 14).inverse()


def test_padic_coefficients_reduce_fractions_and_refuse_other_types():
    z3 = CyclotomicConfig(1, (3,))
    half = PadicCyclotomic(z3, 3, 5, [Fraction(1, 2)])
    assert half.coeffs == (122,) and (2 * half).residue == 1
    assert PadicCyclotomic(z3, 3, 5, [-1]).coeffs == (242,)
    with pytest.raises(NotPLocalError):
        PadicCyclotomic(z3, 3, 5, [Fraction(1, 3)])
    for bad in (2.7, True, "1"):
        with pytest.raises(DomainError):
            PadicCyclotomic(z3, 3, 5, [bad])


def test_floats_bools_and_strings_are_refused_before_reduction():
    z3 = CyclotomicConfig(1, (3,))
    for bad in (2.7, 2.5, True, "1"):
        for make in (lambda: fraction_mod(bad, 3, 5),
                     lambda: PadicCyclotomic.from_rational(z3, bad, 3, 5),
                     lambda: hensel_quadratic_root(bad, 3, 4),
                     lambda: CyclotomicElement(z3, [bad]),
                     lambda: CyclotomicElement.from_rational(z3, bad)):
            with pytest.raises(DomainError):
                make()


def test_unsupported_operands_raise_type_error():
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for x in (_zp(3, 5, 2), CyclotomicElement.zeta(CyclotomicConfig(4, (3,)))):
        for bad in (2.5, "a", None):
            for op in ops:
                for args in ((x, bad), (bad, x)):
                    # Python's own message ("unsupported operand type(s)",
                    # or "can't multiply sequence" for a str), not an unpack
                    with pytest.raises(TypeError) as info:
                        op(*args)
                    assert "NotImplemented" not in str(info.value)
        assert x != 2.5 and x != "a"


def test_residue_needs_degree_one():
    assert _zp(5, 3, -1).residue == 124
    with pytest.raises(DomainError):
        PadicCyclotomic(CyclotomicConfig(4, (5,)), 5, 3, [1]).residue


def test_fraction_mod_rejects_bad_denominator():
    with pytest.raises(NotPLocalError):
        fraction_mod(Fraction(1, 3), 3, 4)


# ---------------------------------------------------------------------------
# p-adic logarithm
# ---------------------------------------------------------------------------

def _log_oracle(u: int, p: int, precision: int, terms: int = 40) -> int:
    """Independent fixed-length partial sum at high working precision."""
    t = u - 1
    s = Fraction(0)
    for n in range(1, terms + 1):
        s += Fraction((-1) ** (n - 1) * t ** n, n)
    big = p ** (precision + 10)
    r = s.numerator * pow(s.denominator, -1, big) % big
    return r % p ** precision


def test_padic_log_frozen_value():
    # log(4) in Z_3 at precision 3, frozen from the 40-term oracle.
    got = padic_log(_zp(3, 3, 4))
    assert got.residue == 21
    assert got.residue == _log_oracle(4, 3, 3)


def test_padic_log_is_homomorphism():
    rng = random.Random(23)
    for p in (3, 5, 7):
        for _ in range(25):
            a = 1 + p * rng.randint(1, p ** 6)
            b = 1 + p * rng.randint(1, p ** 6)
            N = 8
            la = padic_log(_zp(p, N, a))
            lb = padic_log(_zp(p, N, b))
            lab = padic_log(_zp(p, N, a * b))
            assert lab == la + lb


def test_padic_log_matches_oracle():
    rng = random.Random(29)
    for p in (3, 5):
        for _ in range(20):
            u = 1 + p * rng.randint(1, p ** 7)
            got = padic_log(_zp(p, 6, u))
            assert got.residue == _log_oracle(u, p, 6)


def _floor_log(n, p):
    return max(k for k in range(n.bit_length() + 1) if p ** k <= n)


def test_log_budget_meets_the_valuation_bound():
    # order is the last n with n - floor(log_p n) <= N at the smallest prime;
    # every later term has valuation >= n - v_q(n) >= N + 1 at every prime q
    for N in range(1, 90):
        for primes in ((3,), (13,), (5, 7), (13, 23), (3, 7, 11)):
            order = log_budget(N, primes)
            p = primes[0]
            assert (order - _floor_log(order, p) <= N
                    < order + 1 - _floor_log(order + 1, p))
            for q in primes:
                assert all(n - vp(n, q) >= N + 1
                           for n in range(order + 1, order + 2 * q * q))
    # padic_log stops on the same bound: log(1 + 7p) mod p^20 is the sum
    # through the order log_budget(19) gives
    for p in (3, 5):
        whole = padic_log(_zp(p, 20, 1 + 7 * p)).residue
        order = log_budget(19, (p,))
        s = sum(Fraction((-1) ** (n - 1) * (7 * p) ** n, n)
                for n in range(1, order + 1))
        assert fraction_mod(s, p, 20) == whole


def test_log_prefix_matches_a_scan():
    # the largest n with n v - floor(log_p n) < K, by scanning n = 1..2K + 2
    # (beyond it n v - floor(log_p n) >= n - n/2 > K)
    for p in (3, 5, 7, 13, 997):
        for v in range(1, 5):
            for K in range(1, 81):
                below = [n for n in range(1, 2 * K + 3)
                         if n * v - _floor_log(n, p) < K]
                assert log_prefix(K, v, p) == max(below, default=0), (p, v, K)
                assert below == list(range(1, len(below) + 1))


def test_padic_log_rejects_non_one_unit():
    with pytest.raises(DomainError):
        padic_log(_zp(3, 4, 2))


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------

def test_hensel_quadratic_root_frozen():
    # the root of x^2 + x + 3 = 0 with x = 0 (mod 3), i.e. a = -1, p = 3:
    # brute force over residues mod 27 gives 15.
    root = hensel_quadratic_root(-1, 3, 3)
    assert root.residue == 15
    brute = [x for x in range(27) if (x * x + x + 3) % 27 == 0 and x % 3 == 0]
    assert brute == [15]


def test_hensel_quadratic_root_properties():
    for (a, p, N) in [(-1, 3, 8), (1, 5, 10), (-2, 5, 12), (3, 7, 9), (-1, 11, 6)]:
        x = hensel_quadratic_root(a, p, N)
        assert (x.residue * x.residue - a * x.residue + p) % p ** N == 0
        assert x.residue % p == 0
        # the sibling root a - x is the unit one
        assert (a - x.residue) % p != 0


def test_hensel_rejects_supersingular_shape():
    with pytest.raises(NonUnitError):
        hensel_quadratic_root(6, 3, 5)


# ---------------------------------------------------------------------------
# rational reconstruction
# ---------------------------------------------------------------------------

def test_rational_reconstruct_frozen_examples():
    # 1/2 = 5 mod 9
    assert rational_reconstruct([_zp(3, 2, 5)], 10) == Fraction(1, 2)
    # -2 across two primes
    comps = [_zp(3, 10, -2), _zp(5, 10, -2)]
    assert rational_reconstruct(comps, 10 ** 3) == Fraction(-2)
    # no small rational is 1 mod 3 and 2 mod 5 within bound 1
    assert rational_reconstruct([_zp(3, 1, 1), _zp(5, 1, 2)], 1) is None


def test_rational_reconstruct_round_trip():
    rng = random.Random(37)
    for _ in range(200):
        num = rng.randint(-999, 999)
        den = rng.randint(1, 999)
        while den % 3 == 0 or den % 5 == 0 or den % 7 == 0:
            den = rng.randint(1, 999)
        x = Fraction(num, den)
        comps = [_zp(p, 12, x) for p in (3, 5, 7)]
        assert rational_reconstruct(comps, 1000) == x


def test_rational_reconstruct_zero_and_validation():
    assert rational_reconstruct([_zp(3, 4, 0), _zp(5, 4, 0)], 5) == 0
    with pytest.raises(DomainError):
        rational_reconstruct([_zp(3, 2, 1), _zp(3, 3, 1)], 5)
    with pytest.raises(DomainError):
        rational_reconstruct([_zp(3, 2, 1)], 0)


def test_rational_reconstruct_refuses_a_zeta_part():
    cfg = CyclotomicConfig(4, (3, 5))
    half = Fraction(-1, 2)
    five = _zp(5, 6, half)
    assert rational_reconstruct(
        [PadicCyclotomic(cfg, 3, 6, [half]), five], 100) == half
    assert rational_reconstruct(
        [PadicCyclotomic(cfg, 3, 6, [half, 3]), five], 100) is None
