"""Jet rings for a family of primes: delta-polynomials, prolongations, lifts.

An element is stored as a polynomial in the delta-generators
d^i x = delta_{p_1}^{i_1} ... delta_{p_d}^{i_d} x (`i` a multi-index, primes
ascending, so the smallest prime acts last), the normal order the commutation
relations fix.  It lies in the P-local jet ring exactly when its coefficients
are P-local, which apply_delta checks by a scan.  Frobenius lifts at
different primes commute, so phi_q delta_p = delta_p phi_q, and that relation
writes each image phi_p(d^i x) straight in the delta-generators by one
recursion, memoized in one table; the library has no phi-coordinates.
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import Dict, List, Sequence, Tuple

from .delta_calculus import iterated_delta
from .exact_arith import DomainError, PrimeSet, _is_rational, ensure_p_local
from .polys import MPoly

MultiIndex = Tuple[int, ...]

# variable key inside MPoly: ("delta", base variable name, multi-index)
_DEL = "delta"


def multi_indices(order: Sequence[int]) -> List[MultiIndex]:
    """All multi-indices i <= order componentwise, first component fastest."""
    ranges = [range(b + 1) for b in reversed(tuple(order))]
    return [tuple(reversed(t)) for t in _cartesian(*ranges)]


def _zero_index(d: int) -> MultiIndex:
    return (0,) * d


def _bump(idx: MultiIndex, k: int) -> MultiIndex:
    return idx[:k] + (idx[k] + 1,) + idx[k + 1:]


def generator_name(name: str, idx: MultiIndex, primes: PrimeSet) -> str:
    """Display form of d^i x, e.g. d3(d5(x)) for i=(1,1), P=(3,5)."""
    out = name
    for p, e in zip(reversed(primes), reversed(idx)):
        for _ in range(e):
            out = "d%d(%s)" % (p, out)
    return out


# ---------------------------------------------------------------------------
# Frobenius images of the delta-generators
# ---------------------------------------------------------------------------

_PHI_IMAGE: Dict[Tuple[PrimeSet, int, str, MultiIndex], MPoly] = {}


def _phi_image(primes: PrimeSet, k: int, name: str, idx: MultiIndex) -> MPoly:
    """phi_{p_k}(d^i x) in the delta-generators, j the outermost operator of
    d^i x (its first nonzero entry; |P| for x itself).  For k <= j it is
    (d^i x)^{p_k} + p_k d^{i+e_k} x.  For k > j, phi_{p_k} delta_{p_j} =
    delta_{p_j} phi_{p_k} makes it delta_{p_j}(phi_{p_k}(d^{i-e_j} x)), and
    phi_{p_j} of each generator of that inner image is the first case."""
    key = (primes, k, name, idx)
    if key not in _PHI_IMAGE:
        j = next((m for m, e in enumerate(idx) if e), len(idx))
        if k <= j:
            _PHI_IMAGE[key] = MPoly.variable((_DEL, name, idx)) ** primes[k] + \
                primes[k] * MPoly.variable((_DEL, name, _bump(idx, k)))
        else:
            inner = _phi_image(primes, k, name,
                               idx[:j] + (idx[j] - 1,) + idx[j + 1:])
            _PHI_IMAGE[key] = DeltaPolynomial(primes, inner).apply_delta(
                primes[j]).poly
    return _PHI_IMAGE[key]


# ---------------------------------------------------------------------------
# delta-polynomials
# ---------------------------------------------------------------------------

class DeltaPolynomial:
    """An element of the jet algebra over the primes P.

    `poly` is a polynomial in the delta-generators ("delta", name, i), and the
    element lies in the P-local delta-polynomial ring exactly when the
    denominators of its coefficients are prime to P.
    """

    __slots__ = ("primes", "poly")

    def __init__(self, primes: PrimeSet, poly: MPoly):
        self.primes = primes
        self.poly = poly

    # -- constructors --------------------------------------------------------
    @classmethod
    def variable(cls, primes: PrimeSet, name: str) -> "DeltaPolynomial":
        return cls(primes, MPoly.variable((_DEL, name, _zero_index(len(primes)))))

    @classmethod
    def constant(cls, primes: PrimeSet, value) -> "DeltaPolynomial":
        ensure_p_local(value, primes)
        return cls(primes, MPoly.const(value))

    @classmethod
    def from_base_polynomial(cls, primes: PrimeSet, poly: MPoly) -> "DeltaPolynomial":
        """Lift a polynomial in plain string variables to order-zero jets."""
        if not poly.denominators_coprime_to(primes):
            raise DomainError("coefficients are not P-local")
        idx = _zero_index(len(primes))
        return cls(primes, poly.map_variables(lambda v: (_DEL, v, idx)))

    @classmethod
    def from_delta_generators(cls, primes: PrimeSet, poly: MPoly) -> "DeltaPolynomial":
        """Interpret an MPoly in ("delta", name, idx) variables."""
        for var in poly.variables():
            if not (isinstance(var, tuple) and len(var) == 3 and var[0] == _DEL
                    and isinstance(var[2], tuple)):
                raise DomainError("%r is not a delta-generator key" % (var,))
            idx = var[2]
            if len(idx) != len(primes):
                raise DomainError("multi-index length %d != %d primes"
                                  % (len(idx), len(primes)))
            if not all(isinstance(e, int) and e >= 0 for e in idx):
                raise DomainError("multi-index %r is not of non-negative"
                                  " integers" % (idx,))
        return cls(primes, poly)

    # -- ring structure -------------------------------------------------------
    def _coerce(self, other) -> "DeltaPolynomial":
        """other in this ring: an int or Fraction as a constant, or a
        DeltaPolynomial over the same primes; anything else is a DomainError."""
        if _is_rational(other):
            return DeltaPolynomial.constant(self.primes, other)
        if not isinstance(other, DeltaPolynomial):
            raise DomainError("%r is neither a delta-polynomial, an int nor a"
                              " Fraction" % (other,))
        if other.primes != self.primes:
            raise DomainError("mixed prime families")
        return other

    def __add__(self, other):
        return DeltaPolynomial(self.primes, self.poly + self._coerce(other).poly)

    __radd__ = __add__

    def __neg__(self):
        return DeltaPolynomial(self.primes, -self.poly)

    def __sub__(self, other):
        return DeltaPolynomial(self.primes, self.poly - self._coerce(other).poly)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        return DeltaPolynomial(self.primes, self.poly * self._coerce(other).poly)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return DeltaPolynomial(self.primes, self.poly ** k)

    def __eq__(self, other):
        if isinstance(other, DeltaPolynomial) or _is_rational(other):
            return self.poly == self._coerce(other).poly
        return NotImplemented

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.poly.coeffs

    # -- presentations --------------------------------------------------------
    def delta_expansion(self) -> MPoly:
        """The element in the delta-generators d^i x (its stored form)."""
        return self.poly

    def is_p_local(self) -> bool:
        return self.poly.denominators_coprime_to(self.primes)

    def describe(self) -> str:
        """Human-readable delta-generator form."""
        return repr(self.poly.map_variables(
            lambda var: generator_name(var[1], var[2], self.primes)))

    def __repr__(self):
        return "DeltaPolynomial(%s)" % self.describe()

    # -- the operators ---------------------------------------------------------
    def apply_phi(self, p: int) -> "DeltaPolynomial":
        """The Frobenius lift attached to p (identity on coefficients)."""
        k = self.primes.index_of(p)
        return DeltaPolynomial(self.primes, self.poly.substitute(
            {var: _phi_image(self.primes, k, var[1], var[2])
             for var in self.poly.variables()}))

    def apply_delta(self, p: int) -> "DeltaPolynomial":
        """delta_p f = (phi_p f - f^p)/p, verified P-local when f is."""
        out = DeltaPolynomial(self.primes,
                              (self.apply_phi(p).poly - self.poly ** p) / p)
        if self.is_p_local() and not out.is_p_local():
            raise DomainError("delta produced a non-P-local coefficient")
        return out


# ---------------------------------------------------------------------------
# canonical lifts
# ---------------------------------------------------------------------------

def canonical_lift(a, order: Sequence[int], primes: PrimeSet):
    """The jet coordinates (d^i a) of a P-local rational point, i <= order."""
    ensure_p_local(a, primes)
    return tuple(iterated_delta(a, primes, idx) for idx in multi_indices(order))
