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
from .exact_arith import DomainError, PrimeSet, vp
from .jet_rings import DeltaPolynomial, canonical_lift
from .polys import MPoly
from .series_fgl import gm_log

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_PROPERTY = 3


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


def format_symbol(sym: SymbolPoly) -> str:
    if sym.is_zero():
        return "0"
    parts = []
    for n, c in sorted(sym.coeffs.items()):
        if n == 1:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "phi_%d" % n
        else:
            body = "%s*phi_%d" % (abs(c), n)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


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
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise DomainError("cannot parse point %r" % (text,))


def parse_curve_point(text: str, curve: WeierstrassCurve):
    s = text.replace(" ", "")
    if s.lower() in ("inf", "o"):
        return curve.infinity()
    parts = s.split(",")
    if len(parts) != 2:
        raise DomainError("a curve point is 'x,y' or 'inf'")
    try:
        x, y = Fraction(parts[0]), Fraction(parts[1])
    except (ValueError, ZeroDivisionError):
        raise DomainError("cannot parse point %r" % (text,))
    return curve.point(x, y)


_LABEL_RE = re.compile(r"\d+[a-z]\d*$")


def parse_curve(text: str) -> WeierstrassCurve:
    s = text.replace(" ", "")
    if _LABEL_RE.match(s):
        return WeierstrassCurve.from_label(s)
    parts = s.split(",")
    if len(parts) != 5:
        raise DomainError("a curve is a label like 11a or 'c1,c2,c3,c4,c6'")
    try:
        return WeierstrassCurve(*(Fraction(c) for c in parts))
    except (ValueError, ZeroDivisionError):
        raise DomainError("cannot parse curve %r" % (text,))


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
        if n_t < 2 or n_p < 2:
            raise DomainError("series order and precision must be >= 2")
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
    table = load_config_file(args.config) if args.config else {}

    def pick(name, default):
        value = getattr(args, name, None)
        if value is not None:
            return value
        return table.get(name, default)

    primes = PrimeSet(int(p) for p in str(pick("primes", "3,5")).split(","))
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
def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _csv_text(header, rows) -> str:
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return sink.getvalue().rstrip("\n")


def _emit(text: str, cfg: RunConfig) -> None:
    data = text if text.endswith("\n") else text + "\n"
    if cfg.output:
        with open(cfg.output, "w") as handle:
            handle.write(data)
    else:
        sys.stdout.write(data)


def _series_rows(series_dict):
    for term in series_dict["terms"]:
        yield [",".join(str(e) for e in term["exp"]), term["num"], term["den"]]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------
def cmd_char(args, cfg: RunConfig) -> str:
    if args.group == "ga":
        if args.symbol is None:
            raise UsageError("char ga needs --symbol")
        c = build_ga_character(parse_symbol(args.symbol), cfg.primes)
    elif args.group == "gm":
        c = build_gm_character(cfg.primes, cfg.n_t)
    else:
        if cfg.curve is None:
            raise UsageError("char ell needs --curve")
        c = build_elliptic_character(cfg.curve, cfg.primes, cfg.n_t)
    report = c.to_json_dict()
    if cfg.format == "json":
        return _dump_json(report)
    if cfg.format == "csv":
        return _csv_text(("exp", "num", "den"), _series_rows(report["series"]))
    lines = [
        "group: %s" % c.group,
        "primes: %s" % ",".join(str(p) for p in c.primes),
        "order: %s" % ",".join(str(n) for n in c.order),
        "symbol: %s" % format_symbol(c.symbol),
    ]
    for d in c.dirac:
        lines.append("dirac p=%d kind=%s%s: (%s) * (%s)" % (
            d.prime, d.kind, "" if d.ap is None else " ap=%d" % d.ap,
            format_symbol(d.euler_symbol), format_symbol(d.ode_symbol)))
    parts = []
    for t in report["series"]["terms"]:
        coeff = Fraction(int(t["num"]), int(t["den"]))
        body = "%s*T^%s" % (abs(coeff), t["exp"][0])
        sign = ("- " if coeff < 0 else "+ ") if parts else \
            ("-" if coeff < 0 else "")
        parts.append(sign + body)
    lines.append("series: %s + O(T^%d)" % (" ".join(parts) or "0",
                                           c.series.order + 1))
    return "\n".join(lines)


def cmd_eval(args, cfg: RunConfig) -> str:
    if args.group == "gm":
        c = build_gm_character(cfg.primes, cfg.n_t)
        point = parse_unit_point(args.point, cfg.m, cfg.primes)
    else:
        if cfg.curve is None:
            raise UsageError("eval ell needs --curve")
        c = build_elliptic_character(cfg.curve, cfg.primes, cfg.n_t)
        point = AdelePoint.elliptic(parse_curve_point(args.point, cfg.curve),
                                    cfg.primes, cfg.n_p, cfg.m)
    result = evaluate(c, point, cfg.n_p)
    report = {"group": c.group, "point": args.point,
              "primes": list(cfg.primes)}
    report.update(result.to_json_dict())
    if args.kernel_test:
        report["torsion"] = torsion_test(point)
        report["verdict"] = "zero" if result.is_zero() else "nonzero"
    if cfg.format == "json":
        return _dump_json(report)
    if cfg.format == "csv":
        return _csv_text(
            ("p", "scaling", "zero", "coeffs"),
            [[comp["p"], comp["scaling"], comp["zero"],
              ";".join(comp["coeffs"])]
             for comp in report["components"]])
    lines = ["%s at %s mod p^%d" % (c.group, args.point, cfg.n_p)]
    for comp in report["components"]:
        value = "0" if comp["zero"] else "[%s]" % ", ".join(comp["coeffs"])
        lines.append("p=%d: %s (scaling %d)" % (comp["p"], value,
                                                comp["scaling"]))
    if args.kernel_test:
        lines.append("torsion: %s" % report["torsion"])
        lines.append("verdict: %s" % report["verdict"])
    return "\n".join(lines)


def cmd_decompose(args, cfg: RunConfig) -> str:
    raw = Path(args.input).read_text() if args.input else sys.stdin.read()
    try:
        data = json.loads(raw)
        c = character_from_json_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError("input is not character JSON: %s" % exc)
    rho = decompose_over_fundamental(c)
    aug = rho.augmentation()
    report = {
        "group": c.group,
        "rho": rho.to_json_list(),
        "augmentation": str(aug),
        "continuable_along_nontorsion": aug == 0,
    }
    entries = []
    for text in args.point or []:
        if c.group == "Elliptic":
            point = parse_curve_point(text, c.curve)
        else:
            point = parse_unit_point(text, cfg.m, c.primes)
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
    if cfg.format == "json":
        return _dump_json(report)
    if cfg.format == "csv":
        return _csv_text(
            ("point", "torsion", "criterion", "witness", "verdict"),
            [[e["point"], e["torsion"], e["criterion"],
              "" if e["witness"] is None else e["witness"], e["verdict"]]
             for e in entries])
    lines = ["rho: %s" % format_symbol(rho),
             "augmentation: %s" % aug,
             "continuable along nontorsion points: %s" % (aug == 0)]
    for e in entries:
        lines.append("point %s: %s" % (e["point"], e["verdict"]))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------
def _random_cyclotomic(rng, config):
    z = CyclotomicElement.zeta(config)
    value = CyclotomicElement.from_rational(config, 0)
    for k in range(config.degree):
        value = value + Fraction(rng.randrange(-9, 10),
                                 rng.choice((1, 2))) * z ** k
    return value


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
    if args.group == "ell":
        if cfg.curve is None:
            raise UsageError("verify additivity --group ell needs --curve")
        c = build_elliptic_character(cfg.curve, cfg.primes, depth + 1)
    elif args.group == "ga":
        c = build_ga_character(SymbolPoly.one(), cfg.primes)
    else:
        c = build_gm_character(cfg.primes, depth + 1)
    ok = check_additivity(c, depth)
    return [("log-linearizes-law", ok, "depth %d" % depth)]


def _suite_integrality(args, cfg, rng):
    out = []
    bound = args.bound or (50 if args.group == "ell" else 120)
    if args.group == "ell":
        if cfg.curve is None:
            raise UsageError("verify integrality --group ell needs --curve")
        series = build_elliptic_character(cfg.curve, cfg.primes, bound).series
    else:
        series = build_gm_character(cfg.primes, bound).series
    ok = series.denominators_coprime_to(cfg.primes)
    out.append(("coefficients-P-local", ok, "through T^%d" % bound))
    return out


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
    if cfg.format == "json":
        text = _dump_json(report)
    elif cfg.format == "csv":
        text = _csv_text(("property", "pass", "detail"),
                         [[name, ok, detail] for name, ok, detail in results])
    else:
        lines = ["%s %s/%s (%s)" % ("PASS" if ok else "FAIL", args.suite,
                                    name, detail)
                 for name, ok, detail in results]
        lines.append("suite %s: %s" % (
            args.suite, "ok" if report["ok"] else "FAILED"))
        text = "\n".join(lines)
    return text, report["ok"]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
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
    args = build_parser().parse_args(argv)
    try:
        cfg = build_run_config(args)
    except (DomainError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "char":
            _emit(cmd_char(args, cfg), cfg)
        elif args.command == "eval":
            _emit(cmd_eval(args, cfg), cfg)
        elif args.command == "decompose":
            _emit(cmd_decompose(args, cfg), cfg)
        else:
            text, ok = cmd_verify(args, cfg)
            _emit(text, cfg)
            if not ok:
                return EXIT_PROPERTY
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
