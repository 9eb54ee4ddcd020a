"""Sparse exact multivariate polynomials, and the sparse-coefficient kernel.

The kernel (`_add_into`, `_combine`, `_scale`, `_sum_terms`, `_convolve`,
`_power`, `_coprime_to`) acts on {key: Fraction} dicts that store no zero; a
missing coefficient reads as the shared `_ZERO`.  `_coprime_to`, the
P-locality check of every sparse type, takes one gcd of each denominator
with the product of the primes.  `MPoly`,
`series_fgl.TruncSeries` and `characters.SymbolPoly` are built on it:
constructors take outside input (int or Fraction coefficients and divisors,
through `exact_arith._rational`; int indices and exponents; each MPoly
monomial put in the form `_mono_mul` gives), and `_from_clean` stores
kernel output as it is.  Products (`_convolve`, hence `_power`), the star
action (`series_fgl._star_terms`), the fundamental symbol
(`characters._product`) and evaluation's class sums hand their terms to
`_sum_terms` as integer (key, numerator, denominator) triples, so each
coefficient is summed in ints and becomes one Fraction, rather than paying
a Fraction multiply and add per pair of terms.

Monomials are stored as sorted tuples of (variable, exponent) pairs mapping to
Fraction coefficients; variables are arbitrary (mutually sortable) hashable
keys, which lets the jet-ring module use structured names like
("x", (1, 0)) without a registry.  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import Callable, Dict, Iterable, Optional, Tuple

from .exact_arith import DomainError, _is_rational, _rational

Monomial = Tuple[Tuple[object, int], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _add_into(out: Dict, terms: Iterable) -> Dict:
    """out += terms in place, for (key, coefficient) pairs."""
    get = out.get
    for key, c in terms:
        s = get(key, _ZERO) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _combine(a: Dict, b: Dict) -> Dict:
    return _add_into(dict(a), b.items())


def _scale(a: Dict, factor) -> Dict:
    return {k: c * factor for k, c in a.items()} if factor else {}


def _sum_terms(triples: Iterable) -> Dict:
    """sum n/d at each key, over (key, n, d) int triples with d > 0.

    A key's terms are summed over a common denominator in ints: equal
    denominators add numerators, others meet at their lcm, so a running
    denominator never exceeds the lcm of the key's inputs.  Each key becomes
    one normalized Fraction, and keys that sum to 0 are dropped.
    """
    nums: Dict = {}
    dens: Dict = {}
    for key, n, d in triples:
        e = dens.get(key)
        if e is None:
            nums[key] = n
            dens[key] = d
        elif e == d:
            nums[key] += n
        else:
            g = gcd(e, d)
            nums[key] = nums[key] * (d // g) + n * (e // g)
            dens[key] = e // g * d
    return {key: Fraction(n, dens[key]) for key, n in nums.items() if n}


def _graded(a: Dict, cut: Optional[int]) -> list:
    """(degree, key, numerator, denominator) per term; degree 0 without cut."""
    return [(0 if cut is None else sum(k), k, c.numerator, c.denominator)
            for k, c in a.items()]


def _convolve(a: Dict, b: Dict, key_mul: Callable,
              cut: Optional[int] = None) -> Dict:
    """sum a[k] b[l] at key_mul(k, l); with `cut`, keys are exponent tuples
    and pairs of total degree above `cut` are skipped."""
    top = 0 if cut is None else cut
    right = _graded(b, cut)
    return _sum_terms((key_mul(k1, k2), n1 * n2, d1 * d2)
                      for e1, k1, n1, d1 in _graded(a, cut)
                      for e2, k2, n2, d2 in right if e1 + e2 <= top)


def _power(a: Dict, k: int, key_mul: Callable, one: Dict,
           cut: Optional[int] = None) -> Dict:
    """a**k (k >= 0) by binary powering under `_convolve`."""
    result = dict(one)
    while k:
        if k & 1:
            result = _convolve(result, a, key_mul, cut)
        k >>= 1
        if k:
            a = _convolve(a, a, key_mul, cut)
    return result


def _coprime_to(a: Dict, primes: Iterable[int]) -> bool:
    """Whether every denominator is prime to each of the primes: one gcd
    with their product per coefficient (True for no primes)."""
    product = prod(primes)
    return all(gcd(c.denominator, product) == 1 for c in a.values())


def _monomial(mono: Iterable) -> Monomial:
    """The stored form of outside (variable, exponent) pairs, as `_mono_mul`
    gives it: sorted, repeated variables merged, zero exponents dropped."""
    exps: Dict = {}
    for v, e in mono:
        # type, not int(): a float or bool exponent would be truncated
        if type(e) is not int or e < 0:
            raise DomainError("bad exponent %r of %r" % (e, v))
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


class MPoly:
    """A polynomial over Q in named variables, held sparsely."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[Monomial, Fraction] = None):
        self.coeffs: Dict[Monomial, Fraction] = {}
        if coeffs:
            _add_into(self.coeffs, ((_monomial(mono), Fraction(_rational(c)))
                                    for mono, c in coeffs.items()))

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MPoly":
        return cls({(): c})

    @classmethod
    def variable(cls, name) -> "MPoly":
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def _from_clean(cls, coeffs: Dict[Monomial, Fraction]) -> "MPoly":
        """Store a clean kernel dict as it is (no coercion, no zero scan)."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    # -- ring structure -------------------------------------------------
    def __add__(self, other):
        return MPoly._from_clean(_combine(self.coeffs, self._coerce(other).coeffs))

    __radd__ = __add__

    def __neg__(self):
        return MPoly._from_clean(_scale(self.coeffs, -1))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if _is_rational(other):
            return MPoly._from_clean(_scale(self.coeffs, other))
        return MPoly._from_clean(_convolve(self.coeffs, self._coerce(other).coeffs,
                                           _mono_mul))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return MPoly._from_clean(_power(self.coeffs, k, _mono_mul, {(): _ONE}))

    def __truediv__(self, c):
        return MPoly._from_clean(_scale(self.coeffs, 1 / Fraction(_rational(c))))

    @staticmethod
    def _coerce(x) -> "MPoly":
        if isinstance(x, MPoly):
            return x
        return MPoly.const(x)

    def __eq__(self, other):
        if isinstance(other, MPoly) or _is_rational(other):
            return self.coeffs == self._coerce(other).coeffs
        return NotImplemented

    __hash__ = None

    def __bool__(self):
        return bool(self.coeffs)

    # -- structure ------------------------------------------------------
    def variables(self) -> set:
        out = set()
        for mono in self.coeffs:
            out.update(v for v, _ in mono)
        return out

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.coeffs.get(_monomial(mono), _ZERO)

    def constant_term(self) -> Fraction:
        return self.coeffs.get((), _ZERO)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def denominators_coprime_to(self, primes: Iterable[int]) -> bool:
        return _coprime_to(self.coeffs, primes)

    def terms(self):
        """Deterministic iteration: graded, then by monomial key."""
        return sorted(self.coeffs.items(),
                      key=lambda kv: (sum(e for _, e in kv[0]), kv[0]))

    # -- substitution ---------------------------------------------------
    def map_variables(self, fn: Callable) -> "MPoly":
        """Rename every variable through fn (must stay injective on support)."""
        out: Dict[Monomial, Fraction] = {}
        for mono, c in self.coeffs.items():
            new = tuple(sorted((fn(v), e) for v, e in mono))
            if new in out:
                raise ValueError("variable renaming collided on %r" % (new,))
            out[new] = c
        return MPoly._from_clean(out)

    def substitute(self, assignment: Dict) -> "MPoly":
        """Replace variables by polynomials/constants (missing ones stay)."""
        powers: Dict = {}   # (variable, exponent) -> cached power
        out: Dict[Monomial, Fraction] = {}
        for mono, c in self.coeffs.items():
            term = {tuple((v, e) for v, e in mono if v not in assignment): c}
            for v, e in mono:
                if v in assignment:
                    if (v, e) not in powers:
                        powers[(v, e)] = _power(MPoly._coerce(assignment[v]).coeffs,
                                                e, _mono_mul, {(): _ONE})
                    term = _convolve(term, powers[(v, e)], _mono_mul)
            _add_into(out, term.items())
        return MPoly._from_clean(out)

    def evaluate(self, assignment: Dict):
        """Evaluate with values from any commutative ring (needs +, *, **).

        Every variable must be assigned.  Fraction coefficients multiply the
        ring values from the left, so the ring should accept int/Fraction
        scalars in __rmul__.
        """
        powers: Dict = {}
        total = None
        for mono, c in self.coeffs.items():
            term = None
            for v, e in mono:
                if (v, e) not in powers:
                    powers[(v, e)] = assignment[v] ** e
                f = powers[(v, e)]
                term = f if term is None else term * f
            term = c if term is None else c * term
            total = term if total is None else total + term
        return 0 if total is None else total

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for mono, c in self.terms():
            vars_part = "*".join(
                "%s^%d" % (v, e) if e > 1 else str(v) for v, e in mono)
            if not vars_part:
                bits.append(str(c))
            elif c == 1:
                bits.append(vars_part)
            elif c == -1:
                bits.append("-" + vars_part)
            else:
                bits.append("%s*%s" % (c, vars_part))
        return " + ".join(bits).replace("+ -", "- ")
