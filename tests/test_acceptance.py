"""Acceptance gate: the headline guarantees, one test per criterion.

Each test prints one `criterion NN PASS/FAIL` line (visible with -s, or in
the captured output on failure); `pytest -v` additionally reports one
pass/fail line per criterion through the test names.  Everything here is
exact arithmetic — no tolerances anywhere, zero means zero.
"""
import io
import json
import random
import sys
from contextlib import contextmanager
from fractions import Fraction as F

from deltachar.characters import (
    Character,
    SymbolPoly,
    build_elliptic_character,
    build_gm_character,
    check_additivity,
    decompose_over_fundamental,
    formal_group,
    full_symbol,
    honda_integrality_check,
)
from deltachar.cli import main as cli_main
from deltachar.cyclotomic import (
    CyclotomicConfig,
    CyclotomicElement,
    check_delta_ring_axioms,
    hensel_quadratic_root,
)
from deltachar.delta_calculus import commutator_polynomial, fermat_quotient
from deltachar.elliptic import (
    WeierstrassCurve,
    count_points_ap,
    lseries_coefficients,
)
from deltachar.evaluation import continuation_witness, evaluate
from deltachar.exact_arith import PrimeSet
from deltachar.jet_rings import DeltaPolynomial, canonical_lift
from deltachar.polys import MPoly
from deltachar.series_fgl import TruncSeries, elliptic_log, gm_log

P35 = PrimeSet((3, 5))
P57 = PrimeSet((5, 7))
P357 = PrimeSet((3, 5, 7))
E11 = WeierstrassCurve.from_label("11a")
E37 = WeierstrassCurve.from_label("37a")


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print("criterion %2d FAIL  %s" % (number, label))
        raise
    print("criterion %2d PASS  %s" % (number, label))


def test_criterion_01_delta_ring_axioms():
    with criterion(1, "operator axioms, exact, primes 3/5/7"):
        rng = random.Random(101)
        ints = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(200)]
        report = check_delta_ring_axioms(list(zip(ints[::2], ints[1::2])),
                                         P357)
        assert report["ok"], report["failures"][:3]
        config = CyclotomicConfig(4, P357)
        z = CyclotomicElement.zeta(config)
        elems = [rng.randrange(-9, 10) + rng.randrange(-9, 10) * z
                 + F(rng.randrange(-9, 10), 2) * z
                 for _ in range(100)]
        report = check_delta_ring_axioms(list(zip(elems[::2], elems[1::2])),
                                         P357)
        assert report["ok"], report["failures"][:3]


def test_criterion_02_commutator_value():
    with criterion(2, "C_{3,5}(2,-2,-6) = 64 closes the commutator"):
        value = commutator_polynomial(3, 5).evaluate(
            {"X0": F(2), "X1": F(-2), "X2": F(-6)})
        assert value == 64
        d35 = fermat_quotient(fermat_quotient(2, 5), 3)   # 70
        d53 = fermat_quotient(fermat_quotient(2, 3), 5)   # 6
        assert d35 - d53 == value == 64


def test_criterion_03_gm_integrality_T200():
    with criterion(3, "multiplicative series P-local through T^200"):
        for primes in (P35, P357):
            series = build_gm_character(primes, 200).series
            assert series.denominators_coprime_to(primes)


def test_criterion_04_gm_additivity_depth12():
    with criterion(4, "multiplicative character additive to degree 12"):
        assert check_additivity(build_gm_character(P35, 13), 12)


def test_criterion_05_gm_kernel():
    with criterion(5, "roots of unity die mod p^20; 2 does not mod 3^15"):
        for m in (4, 7, 8):
            c = build_gm_character(P35, 4)
            zeta = CyclotomicElement.zeta(CyclotomicConfig(m, P35))
            result = evaluate(c, zeta, 20)
            assert result.is_zero(), m
        nonzero = evaluate(build_gm_character(P35, 4), 2, 15)
        assert not nonzero.component(3).is_zero()


def test_criterion_06_decomposition_round_trip():
    with criterion(6, "decompose(rho * fundamental) = rho, 50 samples"):
        rng = random.Random(66)
        full = full_symbol(P35)
        dummy = TruncSeries.zero(1, 2)
        smooth = [1, 3, 5, 9, 15, 25, 27, 45]
        for _ in range(50):
            support = rng.sample(smooth, rng.randint(1, 5))
            rho = SymbolPoly({n: F(rng.choice([-3, -2, -1, 1, 2, 3]),
                                   rng.choice([1, 2, 7])) for n in support})
            c = Character("Gm", P35, rho * full, dummy)
            assert decompose_over_fundamental(c) == rho


def test_criterion_07_continuation_criterion():
    with criterion(7, "witnesses: augmentation zero and torsion yes, 2 no"):
        c = build_gm_character(P35, 4)
        zeta = CyclotomicElement.zeta(CyclotomicConfig(4, P35))
        assert continuation_witness(c, zeta, 15, 10 ** 6) == 0
        sym = SymbolPoly({1: 1, 3: -1}) * full_symbol(P35)
        twisted = Character("Gm", P35, sym, sym.star(gm_log(50)))
        assert continuation_witness(twisted, 2, 15, 10 ** 6) == 0
        assert continuation_witness(c, 2, 15, 10 ** 6) is None


def test_criterion_08_elliptic_formal_group():
    with criterion(8, "curve logarithm linearizes the law; associativity"):
        for curve in (E11, E37):
            log = elliptic_log(curve, 10)
            law = formal_group("Elliptic", 10, curve).law()
            t1 = TruncSeries.var(10, 0, 2)
            t2 = TruncSeries.var(10, 1, 2)
            assert log.compose([law]) == log.compose([t1]) + log.compose([t2])
            law8 = formal_group("Elliptic", 8, curve).law()
            u1 = TruncSeries.var(8, 0, 3)
            u2 = TruncSeries.var(8, 1, 3)
            u3 = TruncSeries.var(8, 2, 3)
            left = law8.compose([law8.compose([u1, u2]), u3])
            right = law8.compose([u1, law8.compose([u2, u3])])
            assert left == right


def _affine_count_oracle(curve, p):
    # from-scratch double loop over F_p x F_p, independent of the library
    count = 0
    c1, c2, c3, c4, c6 = (int(c) % p for c in curve.coefficients())
    for x in range(p):
        for y in range(p):
            lhs = (y * y + c1 * x * y + c3 * y) % p
            rhs = (x ** 3 + c2 * x * x + c4 * x + c6) % p
            count += lhs == rhs
    return count


def test_criterion_09_point_counts():
    with criterion(9, "frozen a_p values and the Hasse bound to 100"):
        frozen = [(E11, 2, -2), (E11, 3, -1), (E11, 5, 1),
                  (E37, 5, -2), (E37, 7, -1)]
        for curve, p, expected in frozen:
            assert count_points_ap(curve, p) == expected
            assert p + 1 - (_affine_count_oracle(curve, p) + 1) == expected
        for curve in (E11, E37):
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
                if curve.is_good(p):
                    assert count_points_ap(curve, p) ** 2 <= 4 * p


def test_criterion_10_elliptic_integrality_T50():
    with criterion(10, "curve character series P-local through T^50"):
        series = build_elliptic_character(E11, P35, 50).series
        assert series.denominators_coprime_to(P35)


def test_criterion_11_elliptic_kernel():
    with criterion(11, "5-torsion (0,0) dies mod p^12 on 11a; not on 37a"):
        q = E11.point(0, 0)
        assert (5 * q).is_infinity       # exact global scalar multiplication
        assert all(not (k * q).is_infinity for k in range(1, 5))
        c = build_elliptic_character(E11, P35, 4)
        assert evaluate(c, q, 12).is_zero()
        c37 = build_elliptic_character(E37, P57, 4)
        result = evaluate(c37, E37.point(0, 0), 12)
        assert not result.component(5).is_zero()


def test_criterion_12_honda_congruences():
    with criterion(12, "unit-root congruences to T^100; mutation detected"):
        root = hensel_quadratic_root(-1, 3, 3)   # x^2 + x + 3, root in 3 Z_3
        assert root.residue % 27 == 15
        assert honda_integrality_check(E11, 3, 100)
        a7 = lseries_coefficients(E11, 100)[7]
        assert not honda_integrality_check(E11, 3, 100, mutate={7: a7 + 1})


def test_criterion_13_jet_integrality():
    with criterion(13, "delta keeps jets P-local; lift of 2 is (2,-2,-6,70)"):
        rng = random.Random(1313)
        idxs = [(0, 0), (1, 0), (0, 1)]
        for _ in range(100):
            poly = MPoly()
            for _ in range(rng.randrange(1, 4)):
                mono = MPoly.const(F(rng.randrange(-5, 6),
                                     rng.choice((1, 2))))
                for _ in range(rng.randrange(0, 3)):
                    mono = mono * MPoly.variable(
                        ("delta", "x", rng.choice(idxs)))
                poly = poly + mono
            f = DeltaPolynomial.from_delta_generators(P35, poly)
            for p in P35:
                assert f.apply_delta(p).is_p_local()
        x = DeltaPolynomial.variable(PrimeSet((3,)), "x")
        d0 = MPoly.variable(("delta", "x", (0,)))
        d1 = MPoly.variable(("delta", "x", (1,)))
        assert ((x * x).apply_delta(3).delta_expansion()
                == 2 * d0 ** 3 * d1 + 3 * d1 ** 2)
        assert canonical_lift(2, (1, 1), P35) == (2, -2, -6, 70)


def _cli_bytes(capsys, argv, stdin_text=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            rc = cli_main(list(argv))
        finally:
            sys.stdin = old
    else:
        rc = cli_main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_criterion_14_cli_determinism(capsys):
    with criterion(14, "every CLI command is byte-deterministic per seed"):
        rc, char_json = _cli_bytes(
            capsys, ("char", "gm", "--primes", "3,5", "--order", "50"))
        assert rc == 0
        runs = [
            (("char", "gm", "--primes", "3,5", "--order", "10"), None),
            (("char", "ga", "--symbol", "1 - phi_3", "--primes", "3,5"),
             None),
            (("char", "ell", "--curve", "11a", "--primes", "3,5",
              "--order", "6", "--format", "text"), None),
            (("eval", "gm", "--point", "2", "--primes", "3,5",
              "--prec", "10", "--kernel-test"), None),
            (("eval", "gm", "--point", "z", "--m", "4", "--primes", "3,5",
              "--format", "csv"), None),
            (("eval", "ell", "--curve", "11a", "--point", "0,0",
              "--primes", "3,5"), None),
            (("verify", "axioms", "--primes", "3,5,7", "--seed", "7",
              "--samples", "10"), None),
            (("verify", "additivity", "--group", "gm", "--primes", "3,5",
              "--depth", "8", "--seed", "7"), None),
            (("verify", "integrality", "--primes", "3,5", "--bound", "60",
              "--seed", "7"), None),
            (("verify", "honda", "--curve", "11a", "--prime", "3",
              "--seed", "7"), None),
            (("verify", "claim2", "--seed", "7", "--samples", "2"), None),
            (("verify", "jets", "--seed", "7", "--samples", "6"), None),
            (("decompose", "--point", "2", "--prec", "12"), char_json),
        ]
        for argv, stdin_text in runs:
            rc1, first = _cli_bytes(capsys, argv, stdin_text)
            rc2, second = _cli_bytes(capsys, argv, stdin_text)
            assert rc1 == rc2 == 0, argv
            assert first == second, argv
            assert first.strip(), argv


def test_acceptance_report_is_json_clean(capsys):
    # not a numbered criterion: the emitted JSON reports parse and re-dump
    # into themselves, so downstream tooling can rely on the bytes
    for argv in (("char", "gm", "--primes", "3,5", "--order", "10"),
                 ("eval", "gm", "--point", "2", "--primes", "3,5"),
                 ("verify", "jets", "--samples", "4")):
        rc = cli_main(list(argv))
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out
