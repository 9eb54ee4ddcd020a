"""The four closed-loop workloads: seeded inputs, the operation, its check.

One client issues one operation after the previous one completes.  Inputs
come in rounds drawn from the seed; a run always ends on a round boundary,
so each run measures whole rounds and the metrics do not depend on where
the clock ran out.  Rounds are stratified (every stratum once per round) so
that runs on different seeds measure the same mix.  Every expected verdict
(torsion or not, the closed form on rationals) is written in the tables
below, never computed by the code under test.

Why each workload, and why each exclusion:

ell-eval    `evaluate(build_elliptic_character(E, P, 8),
            AdelePoint.elliptic(Q, P, N), N)` with m = 1.  About 97% of the
            time is the Fraction `series_fgl.elliptic_log`, rebuilt for every
            prime, so this is the workload the integer-coefficient cached
            logarithm must move.  A round has one nontorsion op in each of
            eight N strata over 12..48 (every nontorsion point at least once,
            each point moving one stratum per round and stepping through its
            prime pairs) and both torsion points of 11a (one op in five),
            whose values must be zero.  Because N varies, a (curve,
            series order) pair seldom recurs across ops; it always recurs
            within an op, once per extra prime.
ell-scale   The same op at N = 12 with m in {3, 4}: the time is the exact
            global M*Q in `elliptic`, whose height grows like M^2, so this is
            the workload that scaling points p-adically must move.  A round
            is the whole table below; the seed orders it.  M is capped near
            1000: 389a at M ~ 560 takes 25 s and M ~ 1300 takes 16-450 s,
            which would leave a handful of ops per run.  389a is left out for
            the same reason.  37a at (1,0) has nine times the canonical
            height of (0,0), so its prime pairs stop at M = 256 (at M ~ 570
            one op takes 7 s); the M^2 growth still shows across the range
            kept.
gm-eval     Multiplicative characters on rational units, roots of unity and
            nontorsion cyclotomic units at every (P, m) level once per round,
            each level stepping through its (kind, N) pairs with N in 40, 80,
            160, plus three builds (one op in five)
            over stratified orders 100..400.  It never reaches the Fraction
            series Newton or the elliptic code, but it shares
            `PadicCyclotomic` and `evaluation._series_value` /
            `_apply_symbol` with the elliptic path: an elliptic optimisation
            should leave it flat, and a shared-code regression shows here.
cli-verify  In-process `deltachar.cli.main(argv)` with stdout captured, over
            the fixed command table of `_cli_table`, shuffled each round.  It
            is the only workload where `polys` / `jet_rings` (the `verify
            jets` tail) and the cli parse and render path do a large share
            of the work.  `verify jets` runs on P = {3, 5} only: on
            P = {3, 5, 7}, 10 samples take 9 s.
"""

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

import deltachar
import deltachar.cli
from deltachar.cyclotomic import CyclotomicConfig, CyclotomicElement
from deltachar.elliptic import WeierstrassCurve
from deltachar.evaluation import gm_closed_form
from deltachar.exact_arith import PrimeSet

CURVES = {
    "11a": (0, -1, 1, 0, 0),
    "37a": (0, 0, 1, -1, 0),
    "43a": (0, 1, 1, 0, 0),
    "53a": (1, -1, 1, 0, 0),
    "389a": (0, 1, 1, -2, 0),
}

# good ordinary primes <= 13 of each curve
ORDINARY = {
    "11a": (3, 5, 7, 13),
    "37a": (5, 7, 11, 13),
    "43a": (3, 5, 11, 13),
    "53a": (7, 13),
    "389a": (3, 5, 7, 11, 13),
}

ELL_EVAL_NONTORSION = [("37a", (0, 0)), ("37a", (1, 0)), ("43a", (0, 0)),
                       ("53a", (0, 0)), ("389a", (-1, 1)), ("389a", (0, 0)),
                       ("389a", (1, 0))]
ELL_EVAL_TORSION = [("11a", (0, 0)), ("11a", (1, -1))]
ELL_EVAL_N = (12, 48)
# nontorsion ops per round, one per N stratum: each point once plus one
# drawn at random; with the two torsion points, one op in five
ELL_EVAL_STRATA = len(ELL_EVAL_NONTORSION) + 1

# (curve, point, primes, m, reduction group orders M for reference)
ELL_SCALE = [
    ("37a", (0, 0), (5, 7), 4),       # M = [64, 63]
    ("37a", (0, 0), (11, 13), 4),     # M = [119, 256]
    ("37a", (0, 0), (13, 23), 4),     # M = [256, 572]
    ("37a", (0, 0), (23, 29), 3),     # M = [572, 864]
    ("37a", (0, 0), (29, 31), 4),     # M = [576, 1008]
    ("37a", (1, 0), (5, 7), 4),       # M = [64, 63]
    ("37a", (1, 0), (5, 11), 4),      # M = [64, 119]
    ("37a", (1, 0), (11, 13), 3),     # M = [119, 256]
    ("37a", (1, 0), (5, 13), 4),      # M = [64, 256]
    ("37a", (1, 0), (11, 13), 4),     # M = [119, 256]
    ("43a", (0, 0), (3, 5), 4),       # M = [12, 100]
    ("43a", (0, 0), (11, 13), 4),     # M = [135, 361]
    ("43a", (0, 0), (13, 23), 4),     # M = [361, 575]
    ("43a", (0, 0), (13, 29), 3),     # M = [361, 864]
    ("43a", (0, 0), (23, 29), 3),     # M = [575, 864]
]
ELL_SCALE_N = 12

# gm-eval: (primes, m) pairs with m coprime to P, and the points used there.
GM_LEVELS = [((3, 5), 1), ((3, 5), 4), ((3, 5), 8),
             ((5, 7), 1), ((5, 7), 3), ((5, 7), 4), ((5, 7), 8), ((5, 7), 12),
             ((3, 5, 7), 1), ((3, 5, 7), 4), ((3, 5, 7), 8)]
GM_RATIONALS = {(3, 5): ("2", "4/7"), (5, 7): ("2", "4/3"),
                (3, 5, 7): ("2", "11/4")}
# nontorsion cyclotomic units as coefficient lists on 1, z, z^2, ...
# (1 + z_3 = -z_3^2 is torsion, hence 2 + z_3 at m = 3)
GM_UNITS = {3: (2, 1), 4: (1, 1), 8: (1, 1), 12: (1, 1)}
GM_N = (40, 80, 160)
GM_BUILD_ORDER = (100, 400)
GM_BUILDS_PER_ROUND = 3      # one op in five: 11 evaluations + 3 builds

# cli-verify: (samples, seed) of the `verify jets` commands; see _cli_table
CLI_JETS = [(20, 11), (25, 23), (30, 37), (35, 41), (40, 53)]


class Op:
    """One operation: `run` is timed; `check` (untimed) returns an error
    message or None."""

    __slots__ = ("label", "run", "check", "out_bytes")

    def __init__(self, label, run, check, out_bytes=None):
        self.label = label
        self.run = run
        self.check = check
        self.out_bytes = out_bytes


# ---------------------------------------------------------------------------
# elliptic
# ---------------------------------------------------------------------------

def _ell_op(label, xy, primes, m, n, torsion):
    curve = WeierstrassCurve(*CURVES[label])
    point = curve.point(Fraction(xy[0]), Fraction(xy[1]))
    ps = PrimeSet(primes)

    def run():
        c = deltachar.build_elliptic_character(curve, ps, 8)
        q = deltachar.AdelePoint.elliptic(point, ps, n, m)
        return deltachar.evaluate(c, q, n)

    def check(result):
        zero = [p for p, v in zip(result.primes, result.values)
                if v.is_zero()]
        if torsion and len(zero) != len(ps):
            return "torsion point is nonzero at some prime of %s" % (primes,)
        if not torsion and zero:
            return "nontorsion point is zero at %s" % (zero,)
        return None

    desc = "%s%s P=%s m=%d N=%d" % (label, xy, primes, m, n)
    return Op(desc, run, check)


def ell_eval_rounds(rng, workdir):
    # point k of the seed-shuffled list takes N stratum (k + round) mod
    # STRATA, the last slot a point drawn at random, and each point steps
    # through its prime pairs in a seed-shuffled order: every run of whole
    # rounds then measures nearly the same (point, N, primes) mix, which
    # keeps the median from jumping between two clusters of op cost
    lo, hi = ELL_EVAL_N
    span = hi - lo + 1
    points = list(ELL_EVAL_NONTORSION)
    rng.shuffle(points)
    pairs = {}
    for label, xy in ELL_EVAL_NONTORSION + ELL_EVAL_TORSION:
        combos = list(itertools.combinations(ORDINARY[label], 2))
        rng.shuffle(combos)
        pairs[label, xy] = itertools.cycle(combos)
    for r in itertools.count():
        ops = []
        for k, (label, xy) in enumerate(
                points + [rng.choice(ELL_EVAL_NONTORSION)]):
            s = (k + r) % ELL_EVAL_STRATA
            n = rng.randint(lo + s * span // ELL_EVAL_STRATA,
                            lo + (s + 1) * span // ELL_EVAL_STRATA - 1)
            ops.append(_ell_op(label, xy, next(pairs[label, xy]), 1, n,
                               False))
        for label, xy in ELL_EVAL_TORSION:
            ops.append(_ell_op(label, xy, next(pairs[label, xy]), 1,
                               rng.randint(lo, hi), True))
        rng.shuffle(ops)
        yield ops


def ell_eval_warmup(workdir):
    return [_ell_op("37a", (0, 0), (5, 7), 1, 12, False)]


def ell_scale_rounds(rng, workdir):
    while True:
        ops = [_ell_op(label, xy, primes, m, ELL_SCALE_N, False)
               for label, xy, primes, m in ELL_SCALE]
        rng.shuffle(ops)
        yield ops


def ell_scale_warmup(workdir):
    return [_ell_op("37a", (0, 0), (5, 7), 4, ELL_SCALE_N, False)]


# ---------------------------------------------------------------------------
# multiplicative
# ---------------------------------------------------------------------------

def _gm_eval_op(primes, m, kind, text, n):
    ps = PrimeSet(primes)
    config = CyclotomicConfig(m, ps)
    if kind == "rational":
        point = Fraction(text)
    elif kind == "root":
        k, sign = text
        point = (CyclotomicElement.zeta(config) ** k if m > 1 else Fraction(1))
        point = -point if sign < 0 else point
    else:
        point = CyclotomicElement(config, [Fraction(c) for c in text])

    def run():
        c = deltachar.build_gm_character(ps, 4)
        q = deltachar.AdelePoint.multiplicative(point, ps, n, m)
        return deltachar.evaluate(c, q, n)

    def check(result):
        for p, v in zip(result.primes, result.values):
            mod = p ** n
            if kind == "rational":
                want = gm_closed_form(ps, point, p, n).residue % mod
                if v.coeffs[0] % mod != want or any(c % mod
                                                    for c in v.coeffs[1:]):
                    return "value at %d differs from the closed form" % p
            elif kind == "root" and not v.is_zero():
                return "root of unity is nonzero at %d" % p
            elif kind == "unit" and v.is_zero():
                return "nontorsion unit is zero at %d" % p
        return None

    return Op("gm %s %s P=%s m=%d N=%d" % (kind, text, primes, m, n),
              run, check)


def _gm_build_op(primes, order):
    ps = PrimeSet(primes)

    def run():
        return deltachar.build_gm_character(ps, order)

    def check(c):
        if not c.series.denominators_coprime_to(ps):
            return "series denominators are not prime to %s" % (primes,)
        return None

    return Op("gm build P=%s n=%d" % (primes, order), run, check)


def _gm_point(rng, primes, m, kind):
    if kind == "rational":
        return rng.choice(GM_RATIONALS[primes])
    if kind == "root":
        if m == 1:
            return (0, -1)           # the only nontrivial rational root
        return (rng.randrange(1, m), rng.choice((1, -1)))
    return GM_UNITS[m]


def gm_eval_rounds(rng, workdir):
    # each level steps through its (kind, N) pairs in an order the seed
    # shuffles, so that every run measures nearly the same mix: the costliest
    # ops (units at m = 8, 12 and N = 160) set the tail; build orders are
    # stratified over GM_BUILD_ORDER
    cycles = []
    for primes, m in GM_LEVELS:
        kinds = ["rational", "root"] + (["unit"] if m in GM_UNITS else [])
        pairs = [(kind, n) for kind in kinds for n in GM_N]
        rng.shuffle(pairs)
        cycles.append(itertools.cycle(pairs))
    lo, hi = GM_BUILD_ORDER
    while True:
        ops = []
        for (primes, m), cycle in zip(GM_LEVELS, cycles):
            kind, n = next(cycle)
            ops.append(_gm_eval_op(primes, m, kind,
                                   _gm_point(rng, primes, m, kind), n))
        width = (hi - lo + 1) // GM_BUILDS_PER_ROUND
        for k in range(GM_BUILDS_PER_ROUND):
            primes = rng.choice(sorted(GM_RATIONALS))
            order = rng.randint(lo + k * width, lo + (k + 1) * width - 1)
            ops.append(_gm_build_op(primes, order))
        rng.shuffle(ops)
        yield ops


def gm_eval_warmup(workdir):
    return [_gm_eval_op((3, 5), 1, "rational", "2", 40),
            _gm_build_op((3, 5), 100)]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = deltachar.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class _CliReference:
    """First stdout seen for each argv in this process."""

    def __init__(self):
        self.first = {}

    def op(self, argv, expect=None):
        argv = tuple(argv)

        def check(result):
            code, out, err = result
            if code != 0:
                return "exit %d: %s" % (code, err.strip()[:200])
            if self.first.setdefault(argv, out) != out:
                return "stdout differs from the first run of this argv"
            if expect is not None:
                return expect(out)
            return None

        return Op("cli " + " ".join(argv), lambda: _run_cli(argv), check,
                  out_bytes=lambda result: len(result[1].encode()))


def _expect_ok(out):
    return None if json.loads(out)["ok"] is True else "suite reported failure"


def _expect_verdict(torsion):
    def expect(out):
        report = json.loads(out)
        want = "zero" if torsion else "nonzero"
        if report["torsion"] is not torsion or report["verdict"] != want:
            return "kernel test says torsion=%s verdict=%s" % (
                report["torsion"], report["verdict"])
        return None
    return expect


def _expect_text_verdict(torsion):
    def expect(out):
        want = "verdict: %s" % ("zero" if torsion else "nonzero")
        return None if want in out.splitlines() else "text verdict missing"
    return expect


def _expect_torsion_flags(flags):
    def expect(out):
        got = [e["torsion"] for e in json.loads(out).get("points", [])]
        return None if got == flags else "torsion flags %s" % (got,)
    return expect


def _cli_files(workdir):
    return (os.path.join(workdir, "gm-char.json"),
            os.path.join(workdir, "ell-char.json"))


def _write_cli_inputs(workdir):
    gm_file, ell_file = _cli_files(workdir)
    for argv in (("char", "gm", "--primes", "3,5", "--order", "12",
                  "--output", gm_file),
                 ("char", "ell", "--curve", "37a", "--primes", "5,7",
                  "--order", "10", "--output", ell_file)):
        code, _, err = _run_cli(argv)
        if code != 0:
            raise RuntimeError("writing %s failed: %s" % (argv[-1], err))


def _cli_table(workdir):
    """The cli-verify commands and their expected reports.

    The table is fixed so that every argv recurs each round (its stdout must
    match the first run of the same argv) and so that runs on different seeds
    stay comparable: the cost of `verify jets` varies sevenfold between jets
    seeds.  The benchmark seed shuffles each round.  The number of commands
    is odd, so that the median latency falls among the copies of one
    command rather than between two commands of different cost.
    """
    gm_file, ell_file = _cli_files(workdir)
    jets = [(("verify", "jets", "--primes", "3,5", "--samples", str(samples),
              "--seed", str(seed)), _expect_ok)
            for samples, seed in CLI_JETS]
    return jets + [
        (("verify", "axioms", "--primes", "3,5", "--samples", "10",
          "--seed", "1"), _expect_ok),
        (("verify", "axioms", "--primes", "3,5,7", "--samples", "8",
          "--seed", "2"), _expect_ok),
        (("verify", "honda", "--curve", "37a", "--primes", "5,7",
          "--prime", "5", "--bound", "100"), _expect_ok),
        (("verify", "honda", "--curve", "37a", "--primes", "5,7",
          "--prime", "7", "--bound", "200"), _expect_ok),
        (("verify", "additivity", "--group", "gm", "--primes", "3,5",
          "--depth", "12"), _expect_ok),
        (("verify", "additivity", "--group", "ell", "--curve", "11a",
          "--primes", "3,5", "--depth", "8"), _expect_ok),
        (("char", "gm", "--primes", "3,5,7", "--order", "40"), None),
        (("char", "ell", "--curve", "37a", "--primes", "5,7", "--order", "12",
          "--format", "text"), None),
        (("eval", "ell", "--curve", "11a", "--primes", "3,5", "--prec", "12",
          "--point", "0,0", "--kernel-test"), _expect_verdict(True)),
        (("eval", "ell", "--curve", "11a", "--primes", "3,7", "--prec", "12",
          "--point", "1,-1", "--kernel-test", "--format", "text"),
         _expect_text_verdict(True)),
        (("eval", "ell", "--curve", "37a", "--primes", "5,7", "--prec", "12",
          "--point", "0,0", "--kernel-test"), _expect_verdict(False)),
        (("eval", "gm", "--primes", "3,5", "--prec", "20", "--point", "2",
          "--kernel-test"), _expect_verdict(False)),
        (("decompose", "--input", gm_file, "--prec", "10", "--point", "2",
          "--point", "-1"), _expect_torsion_flags([False, True])),
        (("decompose", "--input", ell_file, "--prec", "10", "--point", "1,0"),
         _expect_torsion_flags([False])),
    ]


def cli_verify_rounds(rng, workdir):
    ref = _CliReference()
    table = _cli_table(workdir)
    while True:
        ops = [ref.op(argv, expect) for argv, expect in table]
        rng.shuffle(ops)
        yield ops


def cli_verify_warmup(workdir):
    _write_cli_inputs(workdir)
    ref = _CliReference()
    return [ref.op(("char", "gm", "--primes", "3,5", "--order", "20")),
            ref.op(("verify", "additivity", "--group", "gm", "--primes",
                    "3,5", "--depth", "12"), _expect_ok)]


# name -> (warm-up factory, round generator, tail percentile).  A run on
# this tree keeps at least ten samples above the percentile; it is fixed so
# that a parent and a change are compared at the same percentile.  On the
# fixed tables it falls among the copies of one entry (ell-scale: the 12th
# of 15 entries by cost, cli-verify: the 18th of 19), not between two.
WORKLOADS = {
    "ell-eval": (ell_eval_warmup, ell_eval_rounds, 80),
    "ell-scale": (ell_scale_warmup, ell_scale_rounds, 77),
    "gm-eval": (gm_eval_warmup, gm_eval_rounds, 99),
    "cli-verify": (cli_verify_warmup, cli_verify_rounds, 92),
}


def round_stream(name, seed, workdir):
    """The seeded stream of rounds: same (name, seed), same inputs."""
    rng = random.Random("%s/%d" % (name, seed))
    return WORKLOADS[name][1](rng, workdir)
