"""Command-line front end: build characters, evaluate points, run checks.

Four subcommands:

  char ga|gm|ell    build a character and print its symbol, Dirac data, series
  eval gm|ell       evaluate a fundamental character on a point, per prime
  verify SUITE      run a named property suite (seeded, machine-readable)
  decompose         read character JSON on stdin, factor it over the
                    fundamental one, report continuation verdicts per point

Flags override entries of an optional flat key=value config file; the only
environment variable honoured is DELTACHAR_OUTDIR, which prefixes a relative
--output path.  Output is byte-deterministic for fixed (argv, config, seed):
keys sorted, integers rendered as decimal strings, no timestamps.

Limits, checked before any arithmetic (a value outside them exits 1):
--order 2..5000, --prec 2..2000, --m 1..500, verify --bound at most 5000,
verify --depth 1..120, verify --samples 1..400, each at least ten times the
largest value tests and examples use; --primes at most 6 primes, each at
most 1000 (the fundamental symbol has up to 3^|P| terms), and for verify
claim2, which builds the Gm logarithm to order p^3, p^3 at most 5000.
`decompose` refuses character JSON whose series order is above the --order
limit (exit 2), since reading it builds the logarithm to that order.

Exit codes: 0 success, 1 usage or configuration error, 2 domain error
(supersingular or bad-reduction prime, invalid point, input that is not a
character), 3 property-suite failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .characters import (
    SymbolPoly,
    build_elliptic_character,
    build_ga_character,
    build_gm_character,
    character_from_json_dict,
    check_additivity,
    continuation_criterion,
    decompose_over_fundamental,
    honda_integrality_check,
)
from .cyclotomic import CyclotomicConfig, CyclotomicElement, check_delta_ring_axioms
from .elliptic import WeierstrassCurve, lseries_coefficients
from .evaluation import AdelePoint, continuation_witness, evaluate, torsion_test
from .exact_arith import DomainError, PrimeSet, _json_int, vp
from .jet_rings import DeltaPolynomial, canonical_lift
from .polys import MPoly
from .series_fgl import gm_log

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_PROPERTY = 3
_MAX_ORDER, _MAX_PREC, _MAX_M, _MAX_BOUND = 5000, 2000, 500, 5000
_MAX_DEPTH, _MAX_SAMPLES, _MAX_PRIMES, _MAX_PRIME = 120, 400, 6, 1000
# the values argparse would read as options (-7/5, -1,0, -z^2, -phi_3+1)
_SIGNED_VALUES = {"--point": r"-(\d|z)", "--symbol": r"-(\d|phi_)"}


class UsageError(Exception):
    """A command invocation that cannot be satisfied (missing flag etc.)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; the contract here
    # reserves 2 for domain errors, so route usage failures to 1
    def error(self, message):
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


# ---------------------------------------------------------------------------
# small parsers: symbols, points, curves
# ---------------------------------------------------------------------------
def parse_symbol(text: str) -> SymbolPoly:
    """Parse '−1 + 1/3*phi_3' style symbol text (the format_symbol inverse)."""
    s = text.replace(" ", "")
    if not s:
        raise DomainError("empty symbol")
    tokens = re.findall(r"[+-]?[^+-]+", s)
    if "".join(tokens) != s:
        raise DomainError("cannot parse symbol %r" % (text,))
    coeffs = {}
    for token in tokens:
        sign = -1 if token.startswith("-") else 1
        body = token.lstrip("+-")
        coeff_text, star, phi = body.partition("*")
        if not star and body.startswith("phi_"):
            coeff_text, phi = "1", body
        try:
            if phi and not phi.startswith("phi_"):
                raise ValueError
            n = int(phi[4:]) if phi else 1
            c = Fraction(coeff_text)
        except (ValueError, ZeroDivisionError):
            raise DomainError("cannot parse symbol term %r" % (token,))
        coeffs[n] = coeffs.get(n, 0) + sign * c
    return SymbolPoly(coeffs)


def _signed_sum(terms) -> str:
    """'a - b + c' from (coefficient, body of its absolute value) pairs."""
    text = ""
    for c, body in terms:
        if text:
            text += " - " if c < 0 else " + "
        elif c < 0:
            text = "-"
        text += body
    return text or "0"


def format_symbol(sym: SymbolPoly) -> str:
    terms = []
    for n, c in sorted(sym.coeffs.items()):
        if n == 1:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "phi_%d" % n
        else:
            body = "%s*phi_%d" % (abs(c), n)
        terms.append((c, body))
    return _signed_sum(terms)


def _fractions(parts, what: str, text: str):
    """The parts as Fractions; a DomainError names what the text was."""
    try:
        return [Fraction(part) for part in parts]
    except (ValueError, ZeroDivisionError):
        raise DomainError("cannot parse %s %r" % (what, text))


_ZETA_RE = re.compile(r"(-?)z(?:\^(\d+))?$")


def parse_unit_point(text: str, m: int, primes: PrimeSet):
    """A multiplicative point: a rational, or 'z^k' (needs --m >= 2)."""
    s = text.replace(" ", "")
    match = _ZETA_RE.match(s)
    if match:
        if m < 2:
            raise DomainError("a root-of-unity point needs --m at least 2")
        z = CyclotomicElement.zeta(CyclotomicConfig(m, primes))
        value = z ** int(match.group(2) or 1)
        return -value if match.group(1) else value
    return _fractions([s], "point", text)[0]


def parse_curve_point(text: str, curve: WeierstrassCurve):
    s = text.replace(" ", "")
    if s.lower() in ("inf", "o"):
        return curve.infinity()
    parts = s.split(",")
    if len(parts) != 2:
        raise DomainError("a curve point is 'x,y' or 'inf'")
    return curve.point(*_fractions(parts, "point", text))


_LABEL_RE = re.compile(r"\d+[a-z]\d*$")


def parse_curve(text: str) -> WeierstrassCurve:
    s = text.replace(" ", "")
    if _LABEL_RE.match(s):
        return WeierstrassCurve.from_label(s)
    parts = s.split(",")
    if len(parts) != 5:
        raise DomainError("a curve is a label like 11a or 'c1,c2,c3,c4,c6'")
    return WeierstrassCurve(*_fractions(parts, "curve", text))


# ---------------------------------------------------------------------------
# run configuration: defaults < config file < flags
# ---------------------------------------------------------------------------
_FILE_KEYS = ("primes", "curve", "m", "order", "prec", "output", "format",
              "seed")


def load_config_file(path: str) -> dict:
    table = {}
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key:
                raise DomainError("config line %r is not key=value" % line)
            if key not in _FILE_KEYS:
                raise DomainError("unknown config key %r" % key)
            table[key] = value
    return table


class RunConfig:
    """Validated knobs shared by every command."""

    __slots__ = ("primes", "curve", "m", "n_t", "n_p", "output", "format",
                 "seed")

    def __init__(self, primes, curve, m, n_t, n_p, output, format, seed):
        for name, value, low, top in (("series order", n_t, 2, _MAX_ORDER),
                                      ("precision", n_p, 2, _MAX_PREC),
                                      ("m", m, 1, _MAX_M),
                                      ("number of primes", len(primes), 1,
                                       _MAX_PRIMES),
                                      ("prime", max(primes), 3, _MAX_PRIME)):
            if not low <= value <= top:
                raise DomainError("%s %d is outside the limits %d..%d"
                                  % (name, value, low, top))
        if format not in ("json", "csv", "text"):
            raise DomainError("format must be json, csv, or text")
        for p in primes:
            if math.gcd(m, p) != 1:
                raise DomainError("m = %d is not coprime to %d" % (m, p))
        self.primes = primes
        self.curve = curve
        self.m = m
        self.n_t = n_t
        self.n_p = n_p
        self.output = output
        self.format = format
        self.seed = seed


def build_run_config(args) -> RunConfig:
    if args.command == "verify":
        if (args.bound or 0) > _MAX_BOUND:
            raise DomainError("--bound %d is above the limit %d"
                              % (args.bound, _MAX_BOUND))
        for flag, value, top in (("--depth", args.depth, _MAX_DEPTH),
                                 ("--samples", args.samples, _MAX_SAMPLES)):
            if not 1 <= value <= top:
                raise DomainError("%s %d is outside the limits 1..%d"
                                  % (flag, value, top))
    table = load_config_file(args.config) if args.config else {}

    def pick(name, default):
        value = getattr(args, name, None)
        if value is not None:
            return value
        return table.get(name, default)

    primes = PrimeSet(int(p) for p in str(pick("primes", "3,5")).split(","))
    if args.command == "verify" and args.suite == "claim2":
        for p in primes:
            if p ** 3 > _MAX_ORDER:
                raise DomainError("claim2 builds a series of order %d^3, above"
                                  " the --order limit %d" % (p, _MAX_ORDER))
    curve_text = pick("curve", None)
    curve = parse_curve(str(curve_text)) if curve_text is not None else None
    output = pick("output", None)
    if output is not None and not os.path.isabs(output):
        outdir = os.environ.get("DELTACHAR_OUTDIR")
        if outdir:
            output = os.path.join(outdir, output)
    return RunConfig(
        primes=primes,
        curve=curve,
        m=int(pick("m", 1)),
        n_t=int(pick("order", 8)),
        n_p=int(pick("prec", 12)),
        output=output,
        format=str(pick("format", "json")),
        seed=int(pick("seed", 0)),
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def _render(cfg: RunConfig, report: dict, header, rows, lines) -> None:
    """Write the report as JSON, or as CSV rows or text lines (built only
    then), to --output or stdout."""
    if cfg.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif cfg.format == "csv":
        sink = io.StringIO()
        csv.writer(sink, lineterminator="\n").writerows([header, *rows()])
        text = sink.getvalue()
    else:
        text = "\n".join(lines()) + "\n"
    if cfg.output:
        with open(cfg.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands: each cmd_* returns (report, csv header, rows(), lines())
# ---------------------------------------------------------------------------
def _fundamental(group: str, cfg: RunConfig, order: int, command: str):
    """The fundamental character of cfg's curve for "ell", else of G_m."""
    if group != "ell":
        return build_gm_character(cfg.primes, order)
    if cfg.curve is None:
        raise UsageError("%s needs --curve" % command)
    return build_elliptic_character(cfg.curve, cfg.primes, order)


def _parse_point(c, text: str, cfg: RunConfig):
    """A global point for the character c: on its curve, or a unit."""
    if c.group == "Elliptic":
        return parse_curve_point(text, c.curve)
    return parse_unit_point(text, cfg.m, c.primes)


def cmd_char(args, cfg: RunConfig):
    if args.group == "ga":
        if args.symbol is None:
            raise UsageError("char ga needs --symbol")
        c = build_ga_character(parse_symbol(args.symbol), cfg.primes)
    else:
        c = _fundamental(args.group, cfg, cfg.n_t, "char ell")
    report = c.to_json_dict()
    terms = report["series"]["terms"]

    def lines():
        yield "group: %s" % c.group
        yield "primes: %s" % ",".join(str(p) for p in c.primes)
        yield "order: %s" % ",".join(str(n) for n in c.order)
        yield "symbol: %s" % format_symbol(c.symbol)
        for d in c.dirac:
            yield "dirac p=%d kind=%s%s: (%s) * (%s)" % (
                d.prime, d.kind, "" if d.ap is None else " ap=%d" % d.ap,
                format_symbol(d.euler_symbol), format_symbol(d.ode_symbol))
        series = []
        for t in terms:
            a = Fraction(int(t["num"]), int(t["den"]))
            series.append((a, "%s*T^%s" % (abs(a), t["exp"][0])))
        yield "series: %s + O(T^%d)" % (_signed_sum(series),
                                        c.series.order + 1)

    def rows():
        for t in terms:
            yield [",".join(str(e) for e in t["exp"]), t["num"], t["den"]]

    return report, ("exp", "num", "den"), rows, lines


def cmd_eval(args, cfg: RunConfig):
    c = _fundamental(args.group, cfg, cfg.n_t, "eval ell")
    point = _parse_point(c, args.point, cfg)
    if args.group == "ell":
        point = AdelePoint.elliptic(point, cfg.primes, cfg.n_p, cfg.m)
    result = evaluate(c, point, cfg.n_p)
    report = {"group": c.group, "point": args.point,
              "primes": list(cfg.primes)}
    report.update(result.to_json_dict())
    if args.kernel_test:
        report["torsion"] = torsion_test(point)
        report["verdict"] = "zero" if result.is_zero() else "nonzero"
    components = report["components"]

    def lines():
        yield "%s at %s mod p^%d" % (c.group, args.point, cfg.n_p)
        for comp in components:
            value = "0" if comp["zero"] else "[%s]" % ", ".join(comp["coeffs"])
            yield "p=%d: %s (scaling %d)" % (comp["p"], value, comp["scaling"])
        if args.kernel_test:
            yield "torsion: %s" % report["torsion"]
            yield "verdict: %s" % report["verdict"]

    def rows():
        for comp in components:
            yield [comp["p"], comp["scaling"], comp["zero"],
                   ";".join(comp["coeffs"])]

    return report, ("p", "scaling", "zero", "coeffs"), rows, lines


def cmd_decompose(args, cfg: RunConfig):
    raw = Path(args.input).read_text() if args.input else sys.stdin.read()
    try:
        data = json.loads(raw)
        order = _json_int(data["series"]["order"])
        if order > _MAX_ORDER:
            raise DomainError("series order %d is above the --order limit %d"
                              % (order, _MAX_ORDER))
        c = character_from_json_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError("input is not character JSON: %s" % exc)
    rho = decompose_over_fundamental(c)     # stored: the points reuse it
    aug = rho.augmentation()
    report = {
        "group": c.group,
        "rho": rho.to_json_list(),
        "augmentation": str(aug),
        "continuable_along_nontorsion": aug == 0,
    }
    entries = []
    for text in args.point or []:
        point = _parse_point(c, text, cfg)
        torsion = torsion_test(point)
        continuable = continuation_criterion(rho, torsion)
        witness = continuation_witness(c, point, cfg.n_p, args.bound)
        if continuable:
            verdict = "continuable"
        elif witness is not None:
            verdict = "continuable (witness %s)" % witness
        else:
            verdict = "not continuable (finite-precision)"
        entries.append({"point": text, "torsion": torsion,
                        "criterion": continuable,
                        "witness": None if witness is None else str(witness),
                        "verdict": verdict})
    if entries:
        report["points"] = entries

    def lines():
        yield "rho: %s" % format_symbol(rho)
        yield "augmentation: %s" % aug
        yield "continuable along nontorsion points: %s" % (aug == 0)
        for e in entries:
            yield "point %s: %s" % (e["point"], e["verdict"])

    def rows():
        for e in entries:
            yield [e["point"], e["torsion"], e["criterion"],
                   e["witness"] or "", e["verdict"]]

    return report, ("point", "torsion", "criterion", "witness", "verdict"), \
        rows, lines


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------
def _random_cyclotomic(rng, config):
    return CyclotomicElement(config, [Fraction(rng.randrange(-9, 10),
                                               rng.choice((1, 2)))
                                      for _ in range(config.degree)])


def _suite_axioms(args, cfg, rng):
    samples = args.samples
    ints = [(rng.randrange(-50, 51), rng.randrange(-50, 51))
            for _ in range(samples)]
    int_report = check_delta_ring_axioms(ints, cfg.primes)
    config = CyclotomicConfig(cfg.m if cfg.m > 1 else 4, cfg.primes)
    elems = [(_random_cyclotomic(rng, config), _random_cyclotomic(rng, config))
             for _ in range(max(1, samples // 2))]
    cyc_report = check_delta_ring_axioms(elems, cfg.primes)
    return [
        ("integer-pairs", int_report["ok"],
         "%d identities" % int_report["samples"]),
        ("cyclotomic-pairs", cyc_report["ok"],
         "%d identities over Q(zeta_%d)" % (cyc_report["samples"], config.m)),
    ]


def _suite_additivity(args, cfg, rng):
    depth = args.depth
    if args.group == "ga":
        c = build_ga_character(SymbolPoly.one(), cfg.primes)
    else:
        c = _fundamental(args.group, cfg, depth + 1,
                         "verify additivity --group ell")
    ok = check_additivity(c, depth)
    return [("log-linearizes-law", ok, "depth %d" % depth)]


def _suite_integrality(args, cfg, rng):
    if args.group == "ga":
        raise UsageError("verify integrality takes --group gm or ell, not ga")
    bound = args.bound or (50 if args.group == "ell" else 120)
    series = _fundamental(args.group, cfg, bound,
                          "verify integrality --group ell").series
    ok = series.denominators_coprime_to(cfg.primes)
    return [("coefficients-P-local", ok, "through T^%d" % bound)]


def _suite_honda(args, cfg, rng):
    if cfg.curve is None:
        raise UsageError("verify honda needs --curve")
    p = args.prime if args.prime is not None else cfg.primes[0]
    bound = args.bound or 100
    index = 7 if p != 7 else 11
    if bound < index * p:
        raise DomainError("--bound must reach %d for the mutation control"
                          % (index * p))
    ok = honda_integrality_check(cfg.curve, p, bound)
    a = lseries_coefficients(cfg.curve, bound)[index]
    broken = not honda_integrality_check(cfg.curve, p, bound,
                                         mutate={index: a + 1})
    return [
        ("unit-root-congruences", ok, "p=%d through T^%d" % (p, bound)),
        ("mutation-detected", broken, "a_%d perturbed by 1" % index),
    ]


def _suite_claim2(args, cfg, rng):
    out = []
    trials = max(1, min(args.samples, 6))
    for p in cfg.primes:
        log = gm_log(p ** 3)
        ok = True
        for _ in range(trials):
            support = rng.sample(
                [n for n in range(1, p * p + 1) if n % p],
                rng.randint(1, 4))
            r = SymbolPoly({n: Fraction(rng.choice([-2, -1, 1, 2]),
                                        rng.choice([1, 2]))
                            for n in support})
            f = r.star(log)
            ok = ok and any(f.coefficient(k) and vp(f.coefficient(k), p) < 0
                            for k in range(1, p ** 3 + 1))
        out.append(("remainder-detected-p%d" % p, ok,
                    "%d random remainders" % trials))
    return out


def _random_delta_poly(rng, primes):
    idxs = [(0,) * len(primes)] + [tuple(1 if j == k else 0
                                         for j in range(len(primes)))
                                   for k in range(len(primes))]
    poly = MPoly()
    for _ in range(rng.randrange(1, 4)):
        mono = MPoly.const(Fraction(rng.randrange(-5, 6),
                                    rng.choice((1, 2))))
        for _ in range(rng.randrange(0, 3)):
            mono = mono * MPoly.variable(("delta", "x", rng.choice(idxs)))
        poly = poly + mono
    return DeltaPolynomial.from_delta_generators(primes, poly)


def _suite_jets(args, cfg, rng):
    stable = True
    for _ in range(max(1, args.samples // 2)):
        f = _random_delta_poly(rng, cfg.primes)
        for p in cfg.primes:
            stable = stable and f.apply_delta(p).is_p_local()
    x = DeltaPolynomial.variable(PrimeSet((3,)), "x")
    d0 = MPoly.variable(("delta", "x", (0,)))
    d1 = MPoly.variable(("delta", "x", (1,)))
    square = ((x * x).apply_delta(3).delta_expansion()
              == 2 * d0 ** 3 * d1 + 3 * d1 ** 2)
    lift_ok = canonical_lift(2, (1, 1), PrimeSet((3, 5))) == (2, -2, -6, 70)
    return [
        ("delta-stays-local", stable, "%d random elements"
         % max(1, args.samples // 2)),
        ("square-rule", square, "delta_3(x^2) expansion"),
        ("canonical-lift", lift_ok, "lift of 2 at order (1,1) for P={3,5}"),
    ]


_SUITES = {
    "axioms": _suite_axioms,
    "additivity": _suite_additivity,
    "integrality": _suite_integrality,
    "honda": _suite_honda,
    "claim2": _suite_claim2,
    "jets": _suite_jets,
}


def cmd_verify(args, cfg: RunConfig):
    rng = random.Random(cfg.seed)
    results = _SUITES[args.suite](args, cfg, rng)
    report = {
        "suite": args.suite,
        "seed": cfg.seed,
        "properties": [{"property": name, "pass": ok, "detail": detail}
                       for name, ok, detail in results],
        "ok": all(ok for _, ok, _ in results),
    }

    def lines():
        for name, ok, detail in results:
            yield "%s %s/%s (%s)" % ("PASS" if ok else "FAIL", args.suite,
                                     name, detail)
        yield "suite %s: %s" % (args.suite, "ok" if report["ok"] else "FAILED")

    return report, ("property", "pass", "detail"), lambda: results, lines


_COMMANDS = {"char": cmd_char, "eval": cmd_eval, "verify": cmd_verify,
             "decompose": cmd_decompose}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main`
    call in the process.

    Reuse is safe: argparse keeps no state of a parse on the parser, and
    each parse returns a fresh namespace.  The one `append` option
    (decompose --point) has the default None, so no list is shared between
    calls.  Help, usage and errors are written to sys.stdout or sys.stderr
    as they are at the time of the call.
    """
    parser = _Parser(prog="deltachar",
                     description="arithmetic delta-characters toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--primes", help="comma-separated odd primes")
    common.add_argument("--m", type=int, help="cyclotomic level (default 1)")
    common.add_argument("--order", type=int, help="series truncation order")
    common.add_argument("--prec", type=int, help="p-adic precision")
    common.add_argument("--curve", help="curve label (11a, 37a) or c1,..,c6")
    common.add_argument("--output", help="write the report to this path")
    common.add_argument("--format", choices=("json", "csv", "text"))
    common.add_argument("--seed", type=int, help="seed for random suites")

    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("char", parents=[common],
                        help="build a fundamental character")
    pc.add_argument("group", choices=("ga", "gm", "ell"))
    pc.add_argument("--symbol", help="symbol text for the additive group")

    pe = sub.add_parser("eval", parents=[common],
                        help="evaluate a character on a point")
    pe.add_argument("group", choices=("gm", "ell"))
    pe.add_argument("--point", required=True,
                    help="rational, z^k, or 'x,y' curve point")
    pe.add_argument("--kernel-test", action="store_true", dest="kernel_test",
                    help="report a torsion flag and a zero/nonzero verdict")

    pv = sub.add_parser("verify", parents=[common],
                        help="run a property suite")
    pv.add_argument("suite", choices=tuple(sorted(_SUITES)))
    pv.add_argument("--group", choices=("ga", "gm", "ell"), default="gm")
    pv.add_argument("--prime", type=int, help="single prime (honda)")
    pv.add_argument("--bound", type=int, help="scan bound")
    pv.add_argument("--depth", type=int, default=8)
    pv.add_argument("--samples", type=int, default=40)

    pd = sub.add_parser("decompose", parents=[common],
                        help="factor character JSON over the fundamental one")
    pd.add_argument("--point", action="append",
                    help="continuation verdict at this point (repeatable)")
    pd.add_argument("--input", help="read JSON here instead of stdin")
    pd.add_argument("--bound", type=int, default=10 ** 6,
                    help="height bound for rational reconstruction")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value such as -7/5 as an option: join it to its flag
    for i in range(len(argv) - 2, -1, -1):
        signed = _SIGNED_VALUES.get(argv[i])
        if signed and re.match(signed, argv[i + 1]):
            argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    try:
        cfg = build_run_config(args)
    except (DomainError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        report, header, rows, lines = _COMMANDS[args.command](args, cfg)
        _render(cfg, report, header, rows, lines)
    except (UsageError, DomainError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_DOMAIN
    # only a verify report carries "ok"
    return EXIT_OK if report.get("ok", True) else EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
