import math
import random
from fractions import Fraction

import pytest

from deltachar.delta_calculus import (
    commutator_polynomial,
    cp_polynomial,
    fermat_quotient,
    iterated_delta,
)
from deltachar.exact_arith import DomainError, NotPLocalError
from deltachar.polys import MPoly


def test_fermat_quotient_values():
    assert fermat_quotient(2, 3) == -2
    assert fermat_quotient(2, 5) == -6
    assert fermat_quotient(3, 5) == -48
    assert fermat_quotient(Fraction(1, 2), 3) == Fraction(1, 8)
    with pytest.raises(NotPLocalError):
        fermat_quotient(Fraction(1, 3), 3)


def test_fermat_quotient_is_integer_on_integers():
    rng = random.Random(5)
    for _ in range(200):
        a = rng.randint(-500, 500)
        p = rng.choice([3, 5, 7, 11])
        q = fermat_quotient(a, p)
        assert q.denominator == 1
        assert a == a ** p + p * q  # phi_p(a) = a on integers


def test_cp_polynomial_small():
    # C_3 = -(X^2 Y + X Y^2)
    c3 = cp_polynomial(3)
    assert c3 == MPoly({(("X", 2), ("Y", 1)): -1, (("X", 1), ("Y", 2)): -1})
    # C_5 = -(X^4 Y + 2 X^3 Y^2 + 2 X^2 Y^3 + X Y^4)
    c5 = cp_polynomial(5)
    assert c5.coefficient((("X", 4), ("Y", 1))) == -1
    assert c5.coefficient((("X", 3), ("Y", 2))) == -2
    assert c5.coefficient((("X", 2), ("Y", 3))) == -2
    assert c5.coefficient((("X", 1), ("Y", 4))) == -1
    assert len(c5.coeffs) == 4


def test_cp_polynomial_defining_identity():
    # p * C_p(X, Y) + (X+Y)^p = X^p + Y^p as exact polynomials
    for p in (3, 5, 7, 13):
        x, y = MPoly.variable("X"), MPoly.variable("Y")
        assert p * cp_polynomial(p) + (x + y) ** p == x ** p + y ** p


def test_cp_polynomial_integral_up_to_97():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97):
        c = cp_polynomial(p)
        assert c.is_integral()
        assert all(sum(e for _, e in m) == p for m in c.coeffs)


def test_cp_matches_additivity_defect_on_integers():
    rng = random.Random(7)
    for _ in range(150):
        a, b = rng.randint(-60, 60), rng.randint(-60, 60)
        p = rng.choice([3, 5, 7])
        lhs = fermat_quotient(a + b, p) - fermat_quotient(a, p) - fermat_quotient(b, p)
        assert lhs == cp_polynomial(p).evaluate({"X": Fraction(a), "Y": Fraction(b)})


def test_product_rule_on_integers():
    rng = random.Random(9)
    for _ in range(150):
        a, b = rng.randint(-60, 60), rng.randint(-60, 60)
        p = rng.choice([3, 5, 7])
        da, db = fermat_quotient(a, p), fermat_quotient(b, p)
        assert fermat_quotient(a * b, p) == a ** p * db + b ** p * da + p * da * db


def test_commutator_polynomial_integral_and_deep():
    for p1, p2 in [(3, 5), (3, 7), (5, 7)]:
        c = commutator_polynomial(p1, p2)
        assert c.is_integral()
        # lies in the ideal (X0, X1, X2)^min(p1,p2): every monomial has
        # total degree at least min(p1, p2)
        assert all(sum(e for _, e in m) >= min(p1, p2) for m in c.coeffs)


def test_commutator_polynomial_antisymmetry():
    # C_{p2,p1}(X0, X2, X1) = -C_{p1,p2}(X0, X1, X2)
    for p1, p2 in [(3, 5), (3, 7), (5, 7)]:
        c12 = commutator_polynomial(p1, p2)
        c21 = commutator_polynomial(p2, p1)
        swapped = c21.map_variables(
            lambda v: {"X1": "X2", "X2": "X1"}.get(v, v))
        assert swapped == -c12


def commutator_defect(a, p1, p2):
    """C_{p1,p2}(a, delta_{p1} a, delta_{p2} a) evaluated on a rational."""
    return commutator_polynomial(p1, p2).evaluate({
        "X0": Fraction(a),
        "X1": fermat_quotient(a, p1),
        "X2": fermat_quotient(a, p2),
    })


def test_commutator_frozen_value():
    # delta_3 delta_5 (2) = 70, delta_5 delta_3 (2) = 6, difference 64
    assert iterated_delta(2, (3, 5), (1, 1)) == 70
    assert iterated_delta(2, (5, 3), (1, 1)) == 6
    c = commutator_polynomial(3, 5)
    assert c.evaluate({"X0": Fraction(2), "X1": Fraction(-2), "X2": Fraction(-6)}) == 64
    assert commutator_defect(2, 3, 5) == 64


def test_commutation_identity_on_random_integers():
    rng = random.Random(13)
    for p1, p2 in [(3, 5), (3, 7), (5, 7)]:
        for _ in range(60):
            a = rng.randint(-40, 40)
            lhs = (iterated_delta(a, (p1, p2), (1, 1))
                   - iterated_delta(a, (p2, p1), (1, 1)))
            assert lhs == commutator_defect(a, p1, p2)


def test_commutator_polynomial_rejects_bad_input():
    with pytest.raises(DomainError):
        commutator_polynomial(3, 3)
    with pytest.raises(DomainError):
        commutator_polynomial(2, 5)
    with pytest.raises(DomainError):
        commutator_polynomial(3, 9)


def test_mpoly_basics():
    x, y = MPoly.variable("x"), MPoly.variable("y")
    f = (x + y) ** 2
    assert f == x ** 2 + 2 * x * y + y ** 2
    assert max(sum(e for _, e in mono) for mono in f.coeffs) == 2
    assert f.substitute({"x": 2, "y": 3}) == MPoly.const(25)
    assert f.evaluate({"x": Fraction(2), "y": Fraction(3)}) == 25
    assert (f - f) == MPoly.zero()
    assert not (f - f)
    g = f.map_variables(lambda v: ("jet", v))
    assert g.variables() == {("jet", "x"), ("jet", "y")}
