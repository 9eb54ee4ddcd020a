"""Jet rings for a family of primes: delta-polynomials, prolongations, lifts.

An element is stored as a polynomial in the delta-generators
d^i x = delta_{p_1}^{i_1} ... delta_{p_d}^{i_d} x (`i` a multi-index, primes
ascending, so the smallest prime acts last), the normal order the commutation
relations fix.  It lies in the P-local jet ring exactly when its coefficients
are P-local, which apply_delta checks by a scan.  The commuting coordinates
phi^i x, where a Frobenius lift just shifts the index, serve only as an
invertible triangular change of variables (memoized recursion); through it
each image phi_p(d^i x) is written in the delta-generators once and memoized.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _cartesian
from typing import Dict, List, Sequence, Tuple, Union

from .delta_calculus import iterated_delta
from .exact_arith import DomainError, PrimeSet, ensure_p_local
from .polys import MPoly

MultiIndex = Tuple[int, ...]

# variable keys inside MPoly: ("phi"|"delta", base variable name, multi-index)
_PHI = "phi"
_DEL = "delta"


def multi_indices(order: Sequence[int]) -> List[MultiIndex]:
    """All multi-indices i <= order componentwise, first component fastest."""
    ranges = [range(b + 1) for b in reversed(tuple(order))]
    return [tuple(reversed(t)) for t in _cartesian(*ranges)]


def _zero_index(d: int) -> MultiIndex:
    return (0,) * d


def _bump(idx: MultiIndex, k: int) -> MultiIndex:
    return idx[:k] + (idx[k] + 1,) + idx[k + 1:]


def _prime_power(primes: PrimeSet, idx: MultiIndex) -> int:
    out = 1
    for p, e in zip(primes, idx):
        out *= p ** e
    return out


def generator_name(name: str, idx: MultiIndex, primes: PrimeSet) -> str:
    """Display form of d^i x, e.g. d3(d5(x)) for i=(1,1), P=(3,5)."""
    out = name
    for p, e in zip(reversed(primes), reversed(idx)):
        for _ in range(e):
            out = "d%d(%s)" % (p, out)
    return out


# ---------------------------------------------------------------------------
# the triangular change of variables between phi- and delta-coordinates
# ---------------------------------------------------------------------------

_DELTA_IN_PHI: Dict[Tuple[PrimeSet, str, MultiIndex], MPoly] = {}
_PHI_IN_DELTA: Dict[Tuple[PrimeSet, str, MultiIndex], MPoly] = {}
_PHI_IMAGE: Dict[Tuple[PrimeSet, int, str, MultiIndex], MPoly] = {}


def _delta_generator_as_phi(primes: PrimeSet, name: str, idx: MultiIndex) -> MPoly:
    """d^i x written in the phi-coordinates (rational coefficients)."""
    key = (primes, name, idx)
    if key in _DELTA_IN_PHI:
        return _DELTA_IN_PHI[key]
    if not any(idx):
        out = MPoly.variable((_PHI, name, idx))
    else:
        k = next(j for j, e in enumerate(idx) if e)       # outermost operator
        lower = idx[:k] + (idx[k] - 1,) + idx[k + 1:]
        prev = _delta_generator_as_phi(primes, name, lower)
        out = (_phi_shift(prev, k) - prev ** primes[k]) / primes[k]
    _DELTA_IN_PHI[key] = out
    return out


def _phi_as_delta_generators(primes: PrimeSet, name: str, idx: MultiIndex) -> MPoly:
    """phi^i x written in the delta-generators (integral coefficients)."""
    key = (primes, name, idx)
    if key in _PHI_IN_DELTA:
        return _PHI_IN_DELTA[key]
    if not any(idx):
        out = MPoly.variable((_DEL, name, idx))
    else:
        # d^i x = phi^i x / p^i + (terms in phi^j x, j <= i, j != i)
        scale = _prime_power(primes, idx)
        rest = _delta_generator_as_phi(primes, name, idx) - \
            MPoly.variable((_PHI, name, idx)) / scale
        sub = {}
        for var in rest.variables():
            _, vname, vidx = var
            sub[var] = _phi_as_delta_generators(primes, vname, vidx)
        out = scale * (MPoly.variable((_DEL, name, idx)) - rest.substitute(sub))
    _PHI_IN_DELTA[key] = out
    return out


def _phi_shift(poly: MPoly, k: int) -> MPoly:
    return poly.map_variables(
        lambda var: (var[0], var[1], _bump(var[2], k)) if var[0] == _PHI else var)


def _phi_image(primes: PrimeSet, k: int, name: str, idx: MultiIndex) -> MPoly:
    """phi_{p_k}(d^i x) written in the delta-generators (integral coefficients)."""
    key = (primes, k, name, idx)
    if key not in _PHI_IMAGE:
        shifted = _phi_shift(_delta_generator_as_phi(primes, name, idx), k)
        _PHI_IMAGE[key] = shifted.substitute(
            {var: _phi_as_delta_generators(primes, var[1], var[2])
             for var in shifted.variables()})
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
    def delta_generator(cls, primes: PrimeSet, name: str,
                        idx: MultiIndex) -> "DeltaPolynomial":
        if len(idx) != len(primes):
            raise DomainError("multi-index length %d != %d primes"
                              % (len(idx), len(primes)))
        return cls(primes, MPoly.variable((_DEL, name, tuple(idx))))

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
        return cls(primes, poly)

    # -- ring structure -------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, DeltaPolynomial):
            if other.primes != self.primes:
                raise DomainError("mixed prime families")
            return other
        if isinstance(other, (int, Fraction)):
            return DeltaPolynomial.constant(self.primes, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DeltaPolynomial(self.primes, self.poly + o.poly)

    __radd__ = __add__

    def __neg__(self):
        return DeltaPolynomial(self.primes, -self.poly)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DeltaPolynomial(self.primes, self.poly - o.poly)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DeltaPolynomial(self.primes, self.poly * o.poly)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return DeltaPolynomial(self.primes, self.poly ** k)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.poly == o.poly

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
# presentations of jet rings, canonical lifts, localization multipliers
# ---------------------------------------------------------------------------

class JetPresentation:
    """An affine presentation: variables, relation polynomials, jet order."""

    __slots__ = ("primes", "variables", "relations", "order")

    def __init__(self, primes: PrimeSet, variables: Sequence[str],
                 relations: Sequence[MPoly], order: Sequence[int]):
        if len(order) != len(primes):
            raise DomainError("order length %d != %d primes"
                              % (len(order), len(primes)))
        if any(e < 0 for e in order):
            raise DomainError("negative jet order")
        self.primes = primes
        self.variables = tuple(variables)
        self.relations = tuple(relations)
        self.order = tuple(order)


def _iterated_delta_poly(f: DeltaPolynomial, idx: MultiIndex) -> DeltaPolynomial:
    """d^i f, primes ascending with the first prime applied last."""
    out = f
    for k in range(len(idx) - 1, -1, -1):
        for _ in range(idx[k]):
            out = out.apply_delta(f.primes[k])
    return out


def jet_generators(X: JetPresentation):
    """Generator names and prolonged relations of the order-r jet ring.

    Returns (generators, relations): `generators` lists the delta-generator
    names d^i x_j, and `relations` the delta-polynomials d^i f, both over all
    multi-indices i <= X.order in canonical order.
    """
    names = [generator_name(v, idx, X.primes)
             for idx in multi_indices(X.order) for v in X.variables]
    lifted = [DeltaPolynomial.from_base_polynomial(X.primes, f)
              for f in X.relations]
    relations = [_iterated_delta_poly(f, idx)
                 for idx in multi_indices(X.order) for f in lifted]
    return names, relations


def canonical_lift(a, order: Sequence[int], primes: PrimeSet):
    """The jet coordinates (d^i a) of a P-local rational point, i <= order."""
    ensure_p_local(a, primes)
    return tuple(iterated_delta(a, primes, idx) for idx in multi_indices(order))


def jet_localizer(f: Union[MPoly, DeltaPolynomial], order: Sequence[int],
                  primes: PrimeSet = None) -> DeltaPolynomial:
    """The multiplier prod_{i <= order} phi^i(f) that localizes jets at f != 0."""
    if isinstance(f, MPoly):
        f = DeltaPolynomial.from_base_polynomial(primes, f)
    out = DeltaPolynomial.constant(f.primes, 1)
    for idx in multi_indices(order):
        shifted = f
        for k, e in enumerate(idx):
            for _ in range(e):
                shifted = shifted.apply_phi(f.primes[k])
        out = out * shifted
    return out
