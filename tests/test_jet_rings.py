import random
from fractions import Fraction

import pytest

from deltachar import jet_rings
from deltachar.delta_calculus import commutator_polynomial, fermat_quotient, iterated_delta
from deltachar.exact_arith import DomainError, NotPLocalError, PrimeSet
from deltachar.jet_rings import (
    DeltaPolynomial,
    JetPresentation,
    _delta_generator_as_phi,
    _phi_as_delta_generators,
    canonical_lift,
    generator_name,
    jet_generators,
    jet_localizer,
    multi_indices,
)
from deltachar.polys import MPoly

P35 = PrimeSet((3, 5))
P3 = PrimeSet((3,))


def test_multi_indices_order():
    assert multi_indices((1, 1)) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert multi_indices((2,)) == [(0,), (1,), (2,)]
    assert multi_indices((1, 0, 1)) == [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)]


def test_generator_names():
    assert generator_name("x", (0, 0), P35) == "x"
    assert generator_name("x", (1, 0), P35) == "d3(x)"
    assert generator_name("x", (0, 1), P35) == "d5(x)"
    assert generator_name("x", (1, 1), P35) == "d3(d5(x))"
    assert generator_name("x", (2, 1), P35) == "d3(d3(d5(x)))"


def test_apply_delta_on_generator_and_square():
    x = DeltaPolynomial.variable(P3, "x")
    dx = x.apply_delta(3)
    assert dx == DeltaPolynomial.delta_generator(P3, "x", (1,))

    # oracle: expand ((x^3 + 3t)^2 - x^6)/3 by hand in a fresh polynomial ring
    t = MPoly.variable("t")
    xv = MPoly.variable("x")
    oracle = ((xv ** 3 + 3 * t) ** 2 - xv ** 6) / 3
    assert oracle == 2 * xv ** 3 * t + 3 * t * t

    sq = x * x
    expansion = sq.apply_delta(3).delta_expansion()
    d0 = MPoly.variable(("delta", "x", (0,)))
    d1 = MPoly.variable(("delta", "x", (1,)))
    assert expansion == 2 * d0 ** 3 * d1 + 3 * d1 ** 2


def test_delta_of_constants_is_fermat_quotient():
    for c in (2, 7, Fraction(1, 2), Fraction(-4, 7)):
        f = DeltaPolynomial.constant(P35, c)
        for p in P35:
            out = f.apply_delta(p)
            assert out.poly == MPoly.const(fermat_quotient(c, p))
    with pytest.raises(NotPLocalError):
        DeltaPolynomial.constant(P35, Fraction(1, 3))


def test_base_polynomial_lift_requires_local_coefficients():
    xv = MPoly.variable("x")
    with pytest.raises(DomainError):
        DeltaPolynomial.from_base_polynomial(P3, xv / 3)
    f = DeltaPolynomial.from_base_polynomial(P3, xv ** 2 + xv / 2)
    assert f.is_p_local()


def _random_element(rng, primes, max_terms=3, allow_mixed=False):
    # keep the factor indices low: a 5th power of a wide polynomial is huge
    idxs = [(0, 0), (1, 0), (0, 1)]
    poly = MPoly()
    for j in range(rng.randrange(1, max_terms + 1)):
        mono = MPoly.const(Fraction(rng.randrange(-5, 6), rng.choice((1, 2))))
        for _ in range(rng.randrange(0, 3)):
            mono = mono * MPoly.variable(("delta", "x", rng.choice(idxs)))
        if allow_mixed and j == 0:
            mono = mono * MPoly.variable(("delta", "x", (1, 1)))
        poly = poly + mono
    return DeltaPolynomial.from_delta_generators(primes, poly)


def test_delta_stability_on_random_elements():
    rng = random.Random(7)
    for k in range(100):
        f = _random_element(rng, P35, allow_mixed=(k % 10 == 0))
        for p in P35:
            g = f.apply_delta(p)     # raises if a coefficient fails to be P-local
            assert g.is_p_local()


def _phi_coordinates(f):
    return f.poly.substitute({v: _delta_generator_as_phi(f.primes, v[1], v[2])
                              for v in f.poly.variables()})


def _delta_coordinates(primes, poly):
    return poly.substitute({v: _phi_as_delta_generators(primes, v[1], v[2])
                            for v in poly.variables()})


def _phi_shift_reference(poly, k):
    return poly.map_variables(
        lambda v: (v[0], v[1], v[2][:k] + (v[2][k] + 1,) + v[2][k + 1:]))


def test_operators_match_phi_coordinate_route():
    # reference: shift the whole element in the phi-coordinates, where phi_p
    # is an index bump, then expand it back into the delta-generators.  The
    # p-th power is taken after the expansion, a ring homomorphism, because
    # expanding (phi-form)^7 of d3(d5(x)) alone takes seconds.
    P357 = PrimeSet((3, 5, 7))
    rng = random.Random(4127)
    for primes, mixed, count in ((P35, (1, 1), 10), (P357, (1, 1, 0), 4)):
        d = len(primes)
        idxs = [(0,) * d] + [tuple(int(j == k) for j in range(d))
                             for k in range(d)]
        for n in range(count):
            poly = MPoly()
            for j in range(rng.randrange(1, 4)):
                mono = MPoly.const(Fraction(rng.randrange(-5, 6),
                                            rng.choice((1, 2))))
                for _ in range(rng.randrange(0, 3)):
                    mono = mono * MPoly.variable(("delta", "x", rng.choice(idxs)))
                if j == 0 and n % 2 == 0:
                    mono = mono * MPoly.variable(("delta", "x", mixed))
                poly = poly + mono
            f = DeltaPolynomial.from_delta_generators(primes, poly)
            phi_form = _phi_coordinates(f)
            assert _delta_coordinates(primes, phi_form) == f.poly
            for k, p in enumerate(primes):
                shifted = _delta_coordinates(
                    primes, _phi_shift_reference(phi_form, k))
                assert f.apply_phi(p).poly == shifted
                assert f.apply_delta(p).poly == (shifted - f.poly ** p) / p


def test_apply_delta_rejects_non_local_result(monkeypatch):
    # a Frobenius image without its factor p (phi_3(x) = x^3 + d3(x)) makes
    # delta_3(x) = d3(x)/3; the coefficient scan must catch it
    x = MPoly.variable(("delta", "x", (0,)))
    d1 = MPoly.variable(("delta", "x", (1,)))
    monkeypatch.setattr(jet_rings, "_phi_image", lambda primes, k, name, idx: x ** 3 + d1)
    f = DeltaPolynomial.variable(P3, "x")
    with pytest.raises(DomainError):
        f.apply_delta(3)
    # an input that is not P-local is not checked
    g = DeltaPolynomial.from_delta_generators(P3, x / 3)
    assert not g.is_p_local()
    assert not g.apply_delta(3).is_p_local()


def test_commutation_identity_on_jet_elements():
    # fixed representatives of degree <= 3: the identity is polynomial, so a
    # wide polynomial gains nothing but runtime (the C-substitution needs the
    # 12th power of f), and mixed products of the generators already appear
    C = commutator_polynomial(3, 5)
    x = MPoly.variable(("delta", "x", (0, 0)))
    d3x = MPoly.variable(("delta", "x", (1, 0)))
    d5x = MPoly.variable(("delta", "x", (0, 1)))
    fixed = [x, x * x, x / 2 + d3x, x * d5x, 2 + x + d3x * x,
             x * x - d5x, x + x * d5x]
    for g in fixed:
        f = DeltaPolynomial.from_delta_generators(P35, g)
        f3 = f.apply_delta(3)
        f5 = f.apply_delta(5)
        lhs = f5.apply_delta(3).poly - f3.apply_delta(5).poly
        rhs = C.substitute({"X0": f.poly, "X1": f3.poly, "X2": f5.poly})
        assert lhs == rhs


def test_coordinate_round_trips():
    for primes, orders in ((P3, [(1,), (2,), (3,)]),
                           (P35, [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])):
        for idx in orders:
            name = "x"
            d_in_phi = _delta_generator_as_phi(primes, name, idx)
            phi_in_d = _phi_as_delta_generators(primes, name, idx)
            assert phi_in_d.is_integral()
            # substituting one conversion into the other gives back a variable
            back = phi_in_d.substitute(
                {v: _delta_generator_as_phi(primes, v[1], v[2])
                 for v in phi_in_d.variables()})
            assert back == MPoly.variable(("phi", name, idx))
            forth = d_in_phi.substitute(
                {v: _phi_as_delta_generators(primes, v[1], v[2])
                 for v in d_in_phi.variables()})
            assert forth == MPoly.variable(("delta", name, idx))


def test_canonical_lift_values():
    assert canonical_lift(2, (1, 1), P35) == (2, -2, -6, 70)
    assert canonical_lift(0, (1, 1), P35) == (0, 0, 0, 0)
    assert canonical_lift(1, (1, 1), P35) == (1, 0, 0, 0)
    assert canonical_lift(Fraction(1, 2), (1, 0), P35) == \
        (Fraction(1, 2), Fraction(1, 8))
    with pytest.raises(NotPLocalError):
        canonical_lift(Fraction(1, 3), (1, 1), P35)


def test_jet_generators_names_and_relations():
    X = JetPresentation(P35, ("x",), (), (1, 1))
    names, relations = jet_generators(X)
    assert names == ["x", "d3(x)", "d5(x)", "d3(d5(x))"]
    assert relations == []

    xv = MPoly.variable("x")
    X2 = JetPresentation(P3, ("x",), (xv,), (1,))
    _, rels = jet_generators(X2)
    assert rels[0] == DeltaPolynomial.variable(P3, "x")
    assert rels[1] == DeltaPolynomial.delta_generator(P3, "x", (1,))

    X3 = JetPresentation(P3, ("x",), (xv * xv - xv,), (1,))
    _, rels3 = jet_generators(X3)
    lifted = DeltaPolynomial.from_base_polynomial(P3, xv * xv - xv)
    assert rels3[1] == lifted.apply_delta(3)


def test_specialization_commutes_with_delta():
    # evaluating the prolonged relation at the canonical lift of a point
    # equals the canonical lift of the evaluated relation
    xv = MPoly.variable("x")
    f = xv ** 2 - xv + 1
    a = 2
    lift = canonical_lift(a, (1, 1), P35)
    coords = dict(zip(multi_indices((1, 1)), lift))
    F = DeltaPolynomial.from_base_polynomial(P35, f)
    value_lift = canonical_lift(f.evaluate({"x": Fraction(a)}), (1, 1), P35)
    for pos, idx in enumerate(multi_indices((1, 1))):
        prolonged = F
        for k in range(len(idx) - 1, -1, -1):
            for _ in range(idx[k]):
                prolonged = prolonged.apply_delta(P35[k])
        got = prolonged.delta_expansion().evaluate(
            {("delta", "x", j): coords[j] for j in multi_indices((1, 1))})
        assert got == value_lift[pos]


def test_jet_localizer():
    xv = MPoly.variable("x")
    loc = jet_localizer(xv, (1,), P3)
    d0 = MPoly.variable(("delta", "x", (0,)))
    d1 = MPoly.variable(("delta", "x", (1,)))
    assert loc.delta_expansion() == d0 * (d0 ** 3 + 3 * d1)
    assert jet_localizer(MPoly.const(1), (1, 1), P35).poly == MPoly.const(1)
    assert jet_localizer(xv, (0,), P3) == DeltaPolynomial.variable(P3, "x")
    # iterating deltas on the localizer stays integral (localization lemma)
    assert loc.apply_delta(3).is_p_local()


def test_iterated_delta_matches_word_order():
    # d3(d5(2)) applies 5 first: delta_5(2) = -6, delta_3(-6) = 70
    assert iterated_delta(2, P35, (1, 1)) == 70
    assert fermat_quotient(fermat_quotient(2, 5), 3) == 70
    assert fermat_quotient(fermat_quotient(2, 3), 5) == 6
