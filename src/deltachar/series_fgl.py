"""Truncated power series with exact coefficients, and group logarithms.

Series are sparse dicts {exponent tuple: Fraction} kept through a stated
total degree (`order`, inclusive), computed on the sparse-coefficient kernel
of `polys` (a product is `_convolve` cut at `order`).  A group logarithm is
its integer (numerator, denominator) pairs, one per power of T
(`_log_terms`): log(1 + T) for the multiplicative group, and for a
Weierstrass curve the logarithm of its formal group in the uniformizer
T = x/(2y); `gm_log` and `elliptic_log` make the pairs a series.  The
curve's logarithm integrates the invariant differential, whose coefficients
lie in Z[c1..c6]: for c6 = 0 they come from omega = dz/sqrt(P(z)), P a
quartic, by a four-term linear recurrence; otherwise from the coefficients
of w(z), with z = -x/y and w = -1/y (see `_differential`).  Fractions enter
only when the differential is integrated, and T = -z/2 normalizes the
result to l(T) = T + O(T^2).

The "star" action evaluates a symbol sum_n c_n phi_n on a series by
phi_n * l = l(T^n).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import cycle
from operator import add
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .exact_arith import (DomainError, Rational, _is_rational, _json_fraction,
                          _json_int, _rational)
from .polys import (_ONE, _ZERO, _add_into, _combine, _convolve, _coprime_to,
                    _power, _scale, _sum_terms)

Expt = Tuple[int, ...]


def _exp_add(e1: Expt, e2: Expt) -> Expt:
    return tuple(map(add, e1, e2))


class TruncSeries:
    """A power series known through total degree `order` (inclusive)."""

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars: int, order: int, coeffs: Optional[Mapping] = None):
        if nvars < 1 or order < 0:
            raise DomainError("bad series shape")
        self.nvars = nvars
        self.order = order
        self.coeffs: Dict[Expt, Fraction] = {}
        if coeffs:
            for exps, c in coeffs.items():
                exps = tuple(exps)
                # type, not int(): a float or bool exponent would be truncated
                if len(exps) != nvars or any(type(e) is not int or e < 0
                                             for e in exps):
                    raise DomainError("bad exponent %r" % (exps,))
                if sum(exps) > order:
                    continue
                c = Fraction(_rational(c))
                if c:
                    self.coeffs[exps] = c

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, nvars: int, order: int) -> "TruncSeries":
        return cls(nvars, order)

    @classmethod
    def const(cls, c, nvars: int, order: int) -> "TruncSeries":
        return cls(nvars, order, {(0,) * nvars: c})

    @classmethod
    def var(cls, order: int, index: int = 0, nvars: int = 1) -> "TruncSeries":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, order, {tuple(exps): Fraction(1)})

    @classmethod
    def _from_clean(cls, nvars: int, order: int, coeffs: Dict) -> "TruncSeries":
        """Store a clean kernel dict as it is; its degrees must be <= order."""
        out = object.__new__(cls)
        out.nvars, out.order, out.coeffs = nvars, order, coeffs
        return out

    def with_order(self, order: int) -> "TruncSeries":
        """The same coefficients read at `order`: those above it dropped.

        At a higher order the missing coefficients read as 0, which is only
        meaningful inside iterations that are about to correct the high part
        (Newton); not for honest data.
        """
        if order < 0:
            raise DomainError("bad series shape")
        coeffs = self.coeffs
        if order < self.order:
            coeffs = {e: c for e, c in coeffs.items() if sum(e) <= order}
        return TruncSeries._from_clean(self.nvars, order, coeffs)

    # -- ring ops -----------------------------------------------------------
    def _check(self, other: "TruncSeries") -> int:
        if not isinstance(other, TruncSeries):
            raise DomainError("%r is neither a series, an int nor a Fraction"
                              % (other,))
        if self.nvars != other.nvars:
            raise DomainError("mixed variable counts")
        return min(self.order, other.order)

    def __add__(self, other):
        if _is_rational(other):
            other = TruncSeries.const(other, self.nvars, self.order)
        n = self._check(other)   # the sum is known to the lower order only
        return TruncSeries._from_clean(self.nvars, n, _combine(
            self.with_order(n).coeffs, other.with_order(n).coeffs))

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._from_clean(self.nvars, self.order,
                                       _scale(self.coeffs, -1))

    def __sub__(self, other):
        if not _is_rational(other):
            self._check(other)   # -True would pass as the int -1
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_rational(other):
            return TruncSeries._from_clean(self.nvars, self.order,
                                           _scale(self.coeffs, other))
        n = self._check(other)
        return TruncSeries._from_clean(
            self.nvars, n, _convolve(self.coeffs, other.coeffs, _exp_add, n))

    __rmul__ = __mul__

    def __truediv__(self, c):
        return TruncSeries._from_clean(self.nvars, self.order,
                                       _scale(self.coeffs, 1 / Fraction(_rational(c))))

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative series power")
        return TruncSeries._from_clean(self.nvars, self.order, _power(
            self.coeffs, k, _exp_add, {(0,) * self.nvars: _ONE}, self.order))

    def __eq__(self, other):
        if _is_rational(other):
            other = TruncSeries.const(other, self.nvars, self.order)
        if not isinstance(other, TruncSeries) or self.nvars != other.nvars:
            return NotImplemented
        n = min(self.order, other.order)
        return self.with_order(n).coeffs == other.with_order(n).coeffs

    __hash__ = None

    def __bool__(self):
        return bool(self.coeffs)

    # -- accessors ------------------------------------------------------------
    def coefficient(self, *exps: int) -> Fraction:
        if len(exps) == 1 and isinstance(exps[0], (tuple, list)):
            exps = tuple(exps[0])
        return self.coeffs.get(tuple(exps), _ZERO)

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * self.nvars, _ZERO)

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise DomainError("cannot extend a truncated series")
        return self.with_order(order)

    def denominators_coprime_to(self, primes) -> bool:
        return _coprime_to(self.coeffs, primes)

    def terms(self) -> List[Tuple[Expt, Fraction]]:
        """Graded-lexicographic, deterministic."""
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def to_json_dict(self) -> dict:
        return {
            "vars": self.nvars,
            "order": self.order,
            "terms": [
                {"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
                for e, c in self.terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TruncSeries":
        coeffs = {tuple(_json_int(e) for e in t["exp"]):
                  _json_fraction(t, "series") for t in data["terms"]}
        return cls(_json_int(data["vars"]), _json_int(data["order"]), coeffs)

    # -- calculus ---------------------------------------------------------
    def derivative(self) -> "TruncSeries":
        if self.nvars != 1:
            raise DomainError("derivative is for univariate series")
        out = {}
        for (n,), c in self.coeffs.items():
            if n:
                out[(n - 1,)] = c * n
        return TruncSeries._from_clean(1, max(self.order - 1, 0), out)

    def reciprocal(self) -> "TruncSeries":
        """1/f for f with invertible constant term, by Newton doubling."""
        c0 = self.constant_term()
        if not c0:
            raise DomainError("series has no constant term to invert")
        r = TruncSeries.const(Fraction(1) / c0, self.nvars, 0)
        while r.order < self.order:
            n = min(2 * r.order + 1, self.order)
            r = r.with_order(n)
            r = r * (2 - self.truncate(n) * r)
        return r

    def compose(self, args: Sequence["TruncSeries"]) -> "TruncSeries":
        """Substitute args[i] for the i-th variable (constant terms must vanish)."""
        if len(args) != self.nvars:
            raise DomainError("need %d substitution arguments" % self.nvars)
        nvars = args[0].nvars
        if any(g.nvars != nvars for g in args):
            raise DomainError("mixed variable counts")
        if any(g.constant_term() for g in args):
            raise DomainError("substituted series must vanish at the origin")
        order = min([self.order] + [g.order for g in args])
        origin = (0,) * nvars
        powers = [[{origin: _ONE}] for _ in args]    # powers[i][e] = args[i]**e
        total: Dict[Expt, Fraction] = {}
        for exps, c in self.coeffs.items():
            if sum(exps) > order:
                continue
            term = {origin: c}
            for i, e in enumerate(exps):
                row = powers[i]
                while len(row) <= e:
                    row.append(_convolve(row[-1], args[i].coeffs, _exp_add, order))
                if e:
                    term = _convolve(term, row[e], _exp_add, order)
            _add_into(total, term.items())
        return TruncSeries._from_clean(nvars, order, total)

    def compositional_inverse(self) -> "TruncSeries":
        """g with f(g) = T, for univariate f = c1 T + ... with c1 != 0."""
        if self.nvars != 1:
            raise DomainError("inversion is for univariate series")
        if self.constant_term():
            raise DomainError("series must vanish at the origin")
        c1 = self.coefficient(1)
        if not c1:
            raise DomainError("series must have an invertible linear term")
        t = TruncSeries.var(self.order)
        g = TruncSeries(1, 1, {(1,): Fraction(1) / c1})
        while g.order < self.order:
            n = min(2 * g.order + 1, self.order)
            g = g.with_order(n)
            fg = self.truncate(n).compose([g])
            dfg = self.derivative().with_order(n - 1).compose([g.truncate(n - 1)])
            g = g - (fg - t.truncate(n)) * dfg.reciprocal().with_order(n)
        return g

    def __repr__(self):
        if not self.coeffs:
            return "TruncSeries(0 + O(deg %d))" % (self.order + 1)
        names = ("T",) if self.nvars == 1 else tuple(
            "T%d" % (i + 1) for i in range(self.nvars))
        bits = []
        for e, c in self.terms()[:12]:
            mono = "*".join("%s^%d" % (names[i], k) if k > 1 else names[i]
                            for i, k in enumerate(e) if k)
            bits.append("%s%s" % (c, "*" + mono if mono else ""))
        more = " + ..." if len(self.coeffs) > 12 else ""
        return "TruncSeries(%s%s + O(deg %d))" % (" + ".join(bits), more, self.order + 1)


# ---------------------------------------------------------------------------
# star action of Frobenius symbols
# ---------------------------------------------------------------------------

def star_apply(symbol: Mapping[int, Rational], f: TruncSeries) -> TruncSeries:
    """Apply sum_n c_n phi_n to a univariate series: phi_n * T^j = T^(jn).

    The symbol's values are ints or Fractions (a float or bool is refused);
    f's coefficients go to `_star_terms` as integer (j, numerator,
    denominator) triples.
    """
    if f.nvars != 1:
        raise DomainError("the star action is defined on univariate series")
    return _star_terms(symbol, [(j, c.numerator, c.denominator)
                                for (j,), c in sorted(f.coeffs.items())],
                       f.order)


def _star_terms(symbol: Mapping[int, Rational], terms: Sequence[Tuple],
                order: int) -> TruncSeries:
    """sum_n c_n phi_n on the series sum_j (a_j/d_j) T^j, to `order`.

    `terms` are the series' (j, a_j, d_j) integer triples in increasing j,
    d_j > 0 and a_j/d_j not necessarily reduced; each symbol value is read
    through `_rational`.  Only the j <= order/n meet c_n, and every product
    c_n a_j / d_j goes to `_sum_terms` as an integer triple, so each
    coefficient of the result is one Fraction built from an int sum.
    """
    if any(n < 1 for n in symbol):
        raise DomainError("symbol indices must be positive")
    left = [(n, q.numerator, q.denominator)
            for n, q in zip(symbol, map(_rational, symbol.values())) if q]
    js = [j for j, _, _ in terms]
    return TruncSeries._from_clean(1, order, _sum_terms(
        ((j * n,), cn * fn, cd * fd) for n, cn, cd in left
        for j, fn, fd in terms[:bisect_right(js, order // n)]))


# ---------------------------------------------------------------------------
# group logarithms
# ---------------------------------------------------------------------------

def gm_log(order: int) -> TruncSeries:
    """log(1 + T), from the pairs of `_log_terms`."""
    return _log_series(None, order)


def _curve_coefficients(curve) -> Tuple:
    """(c1, c2, c3, c4, c6), with integral values as ints so Z-curves stay in Z."""
    return tuple(c.numerator if c.denominator == 1 else c
                 for c in (curve.c1, curve.c2, curve.c3, curve.c4, curve.c6))


def _weierstrass_w(cs: Tuple, order: int) -> Tuple[list, list]:
    """[z^k] of w and w^2 for k <= order, where z = -x/y and w = -1/y.

    w is the fixed point of  w = z^3 + c1 z w + c2 z^2 w + c3 w^2 + c4 z w^2
    + c6 w^3  (Silverman, AEC IV.1).  As w = O(z^3), [z^k] of w^2 and w^3
    use only coefficients of w below k - 2, so each coefficient is a
    polynomial in the c_i with integer coefficients.
    """
    c1, c2, c3, c4, c6 = cs
    w, w2, w3 = [0] * (order + 1), [0] * (order + 1), [0] * (order + 1)
    for k in range(3, order + 1):
        w2[k] = sum(w[i] * w[k - i] for i in range(3, k - 2))
        w3[k] = sum(w[i] * w2[k - i] for i in range(3, k - 5))
        w[k] = ((k == 3) + c1 * w[k - 1] + c2 * w[k - 2] + c3 * w2[k]
                + c4 * w2[k - 1] + c6 * w3[k])
    return w, w2


def weierstrass_v_series(curve, order: int) -> TruncSeries:
    """The unit series v(T) with x = v/(4T^2), y = v/(8T^3) on the curve.

    As x = z/w and z = -2T, v = z^3/w(z) evaluated at z = -2T.
    """
    w, _ = _weierstrass_w(_curve_coefficients(curve), order + 3)
    u = TruncSeries(1, order, {(k,): w[k + 3] * (-2) ** k
                               for k in range(order + 1)})
    return u.reciprocal()


def _differential(curve, order: int) -> list:
    """[b_1, ..., b_order], omega = sum b_n z^(n-1) dz the invariant differential.

    Write the w(z) equation as w = F(z, w) with F = z^3 + c1 z w + c2 z^2 w
    + c3 w^2 + c4 z w^2 + c6 w^3, and e = dF/dw along w(z); then
    omega = dz/(1 - e) (AEC IV.1).  Each b_n is a polynomial in the c_i with
    integer coefficients: an int for an integral model, an exact Fraction
    for a rational one.  This is the only producer of the b_n.

    - c6 = 0: a linear recurrence.  With A = c3 + c4 z and
      B = 1 - c1 z - c2 z^2 the equation reads A w^2 - B w + z^3 = 0, and
      1 - e = B - 2 A w.  So (1 - e)^2 = B^2 - 4 A (B w - A w^2) = P with
          P = B^2 - 4 A z^3 = 1 - 2 c1 z + (c1^2 - 2 c2) z^2
              + (2 c1 c2 - 4 c3) z^3 + (c2^2 - 4 c4) z^4,
      and 1 - e is the root of P with constant term 1: omega = P^(-1/2) dz.
      Differentiating y^2 P = 1 gives 2 P y' + P' y = 0 for y = P^(-1/2).
      With P = sum_i p_i z^i (p_0 = 1) and y = sum_n y_n z^n, y_n = b_(n+1),
      the coefficient of z^(n-1) is sum_i p_i (2n - i) y_(n-i) = 0, that is
          2n y_n = -sum_{i=1..4} p_i (2n - i) y_(n-i),   y_0 = 1:
      four products a step.  For an integral model the right side is 2n
      times the integer y_n, so the floor division is exact; a rational
      model divides exactly in Fractions.  No float enters.
    - c6 != 0: the w-recurrence.  The coefficients of w, w^2 (and w^3) come
      from `_weierstrass_w`, e_j is read off them, and b = 1/(1 - e) as a
      series: b_1 = 1 and b_k = sum_{j>=1} e_j b_(k-j).
    """
    c1, c2, c3, c4, c6 = cs = _curve_coefficients(curve)
    if c6:
        w, w2 = _weierstrass_w(cs, order)
        e = [0] + [c1 * (j == 1) + c2 * (j == 2) + 2 * c3 * w[j]
                   + 2 * c4 * w[j - 1] + 3 * c6 * w2[j] for j in range(1, order)]
        b = [0, 1]
        for k in range(2, order + 1):
            b.append(sum(e[j] * b[k - j] for j in range(1, k)))
        return b[1:order + 1]
    p1, p2, p3, p4 = (-2 * c1, c1 * c1 - 2 * c2, 2 * c1 * c2 - 4 * c3,
                      c2 * c2 - 4 * c4)
    integral = all(type(c) is int for c in cs)
    y = [0, 0, 0, 1]                    # y_(-3), y_(-2), y_(-1), y_0
    for n in range(1, order):
        m = 2 * n
        s = -(p1 * (m - 1) * y[-1] + p2 * (m - 2) * y[-2]
              + p3 * (m - 3) * y[-3] + p4 * (m - 4) * y[-4])
        y.append(s // m if integral else Fraction(s, m))
    return y[3:order + 3]


def _log_terms(curve, order: int) -> List[Tuple[int, int]]:
    """A logarithm in T as integer pairs, one per j = 1..order.

    With no curve, G_m's log(1 + T), the pair for T^j is ((-1)^(j-1), j).
    A curve's l(z) = sum b_n z^n / n integrates omega, and T = -z/2 turns
    it into l(T) = sum_j b_j (-2)^(j-1) T^j / j; the pair for T^j is
    (numerator(b_j) (-2)^(j-1), denominator(b_j) j), not reduced.
    """
    if curve is None:
        return list(zip(cycle((1, -1)), range(1, order + 1)))
    return [(b.numerator * (-2) ** j, b.denominator * (j + 1))
            for j, b in enumerate(_differential(curve, order))]


def _log_series(curve, order: int) -> TruncSeries:
    """The pairs of `_log_terms`, each made one normalized Fraction."""
    if order < 0:
        raise DomainError("bad series shape")
    # the kernel stores no zero, and b_n can vanish (b_2 = 0 when c1 = 0)
    return TruncSeries._from_clean(1, order, {
        (j,): Fraction(num, den)
        for j, (num, den) in enumerate(_log_terms(curve, order), 1) if num})


def elliptic_log(curve, order: int) -> TruncSeries:
    """The logarithm of the curve's formal group in T = x/(2y), with l'(0)=1;
    only the division by j brings a denominator to an integral model."""
    return _log_series(curve, order)
