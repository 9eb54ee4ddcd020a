import copy
import hashlib
import io
import json
import random
import sys
import warnings
from fractions import Fraction as F

import pytest

import deltachar.characters
import deltachar.cli
import deltachar.evaluation
from deltachar.characters import (
    Character,
    SymbolPoly,
    build_elliptic_character,
    build_gm_character,
    character_from_json_dict,
    euler_polynomial,
    full_symbol,
)
from deltachar.cli import (
    _MAX_BOUND,
    _MAX_DEPTH,
    _MAX_M,
    _MAX_ORDER,
    _MAX_PREC,
    _MAX_PRIMES,
    _MAX_SAMPLES,
    build_parser,
    format_symbol,
    main,
    parse_symbol,
)
from deltachar.elliptic import WeierstrassCurve
from deltachar.exact_arith import DomainError, PrimeSet
from deltachar.series_fgl import gm_log

P35 = PrimeSet((3, 5))


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    return rc, json.loads(out)


def test_parse_symbol():
    assert parse_symbol("1") == SymbolPoly.one()
    assert parse_symbol("-1 + 1/3*phi_3") == SymbolPoly({1: -1, 3: F(1, 3)})
    assert parse_symbol("phi_15 - phi_3") == SymbolPoly({15: 1, 3: -1})
    assert parse_symbol("2*phi_9+1/2") == SymbolPoly({9: 2, 1: F(1, 2)})
    for bad in ("", "phi3", "1 +", "x*phi_3", "phi_3*2"):
        with pytest.raises(DomainError):
            parse_symbol(bad)


def test_format_symbol_round_trip():
    rng = random.Random(3551)
    for _ in range(40):
        support = rng.sample([1, 3, 5, 9, 15, 25, 45], rng.randint(1, 4))
        sym = SymbolPoly({n: F(rng.choice([-2, -1, 1, 2, 3]),
                               rng.choice([1, 2, 3])) for n in support})
        assert parse_symbol(format_symbol(sym)) == sym
    assert format_symbol(SymbolPoly({})) == "0"


def test_char_gm_json(capsys):
    rc, doc = run_json(capsys, "char", "gm", "--primes", "3,5",
                       "--order", "10")
    assert rc == 0
    assert [r["n"] for r in doc["symbol"]] == [1, 3, 5, 15]
    linear = [t for t in doc["series"]["terms"] if t["exp"] == [1]]
    assert linear == [{"exp": [1], "num": "-1", "den": "1"}]
    # the printed JSON is exactly what the decompose parser consumes
    back = character_from_json_dict(doc)
    assert back.symbol == full_symbol(P35)
    assert back.to_json_dict() == doc


def test_char_ga_trivial_symbol(capsys):
    rc, doc = run_json(capsys, "char", "ga", "--symbol", "1",
                       "--primes", "3,5")
    assert rc == 0
    assert doc["series"]["terms"] == [{"exp": [1], "num": "1", "den": "1"}]


def test_char_ga_signed_symbol(capsys):
    # a --symbol value that starts with '-' is still the symbol's value
    for text in ("-1+3*phi_3", "-phi_3+1"):
        argv = ("char", "ga", "--primes", "3,5", "--format", "text")
        rc, joined = run(capsys, *argv, "--symbol=" + text)
        assert rc == 0 and "symbol: " in joined
        assert run(capsys, *argv, "--symbol", text) == (0, joined)


def test_char_exit_codes(capsys):
    assert main(["char", "ell", "--curve", "37a", "--primes", "3,5"]) == 2
    assert main(["char", "ell", "--curve", "11a", "--primes", "3,11"]) == 2
    assert main(["char", "ell", "--primes", "3,5"]) == 1      # missing curve
    assert main(["char", "ga", "--primes", "3,5"]) == 1       # missing symbol
    assert main(["char", "gm", "--primes", "3,4"]) == 1
    assert main(["char", "gm", "--primes", "3,5", "--order", "1"]) == 1
    assert main(["char", "gm", "--primes", "3,5", "--m", "6"]) == 1
    capsys.readouterr()


def test_eval_gm_reports(capsys):
    rc, doc = run_json(capsys, "eval", "gm", "--point", "2",
                       "--primes", "3,5", "--prec", "15", "--kernel-test")
    assert rc == 0
    assert doc["torsion"] is False and doc["verdict"] == "nonzero"
    assert [c["zero"] for c in doc["components"]] == [False, False]
    rc, doc = run_json(capsys, "eval", "gm", "--point", "z", "--m", "4",
                       "--primes", "3,5", "--kernel-test")
    assert rc == 0
    assert doc["torsion"] is True and doc["verdict"] == "zero"


def test_negative_zeta_point_joins_its_flag(capsys):
    # -z and -z^2 are values, not options: spaced or joined by '=', the
    # same report
    for power in ("-z", "-z^2"):
        argv = ("eval", "gm", "--primes", "3,5", "--m", "4", "--format", "text")
        rc, out = run(capsys, *argv, "--point", power)
        assert rc == 0 and "%s mod" % power in out
        assert run(capsys, *argv, "--point=" + power) == (rc, out)


def test_eval_ell_reports(capsys):
    rc, doc = run_json(capsys, "eval", "ell", "--curve", "11a", "--point",
                       "0,0", "--primes", "3,5", "--kernel-test")
    assert rc == 0
    assert doc["verdict"] == "zero" and doc["torsion"] is True
    assert [c["scaling"] for c in doc["components"]] == [5, 5]
    rc, doc = run_json(capsys, "eval", "ell", "--curve", "37a", "--point",
                       "0,0", "--primes", "5,7", "--kernel-test")
    assert rc == 0
    assert doc["verdict"] == "nonzero" and doc["torsion"] is False
    assert [c["scaling"] for c in doc["components"]] == [8, 9]
    # a value that starts with '-' and a digit is still the point's value
    argv = ("eval", "ell", "--curve", "37a", "--primes", "5,7", "--format",
            "text")
    rc, joined = run(capsys, *argv, "--point=-1,0")
    assert rc == 0 and joined.startswith("Elliptic at -1,0 mod p^12\n")
    assert run(capsys, *argv, "--point", "-1,0") == (0, joined)


def test_eval_invalid_points_exit2(capsys):
    assert main(["eval", "gm", "--point", "1/3", "--primes", "3,5"]) == 2
    assert main(["eval", "gm", "--point", "z", "--primes", "3,5"]) == 2
    assert main(["eval", "gm", "--point", "two", "--primes", "3,5"]) == 2
    assert main(["eval", "ell", "--curve", "11a", "--point", "1,1",
                 "--primes", "3,5"]) == 2
    assert main(["eval", "ell", "--curve", "11a", "--point", "nope",
                 "--primes", "3,5"]) == 2
    capsys.readouterr()


def _pipe(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))


def test_decompose_fundamental(capsys, monkeypatch):
    rc, out = run(capsys, "char", "gm", "--primes", "3,5", "--order", "50")
    assert rc == 0
    _pipe(monkeypatch, out)
    rc, doc = run_json(capsys, "decompose", "--point", "2", "--prec", "15")
    assert rc == 0
    assert doc["rho"] == [{"n": 1, "num": "1", "den": "1"}]
    assert doc["augmentation"] == "1"
    assert doc["continuable_along_nontorsion"] is False
    entry = doc["points"][0]
    assert entry["verdict"] == "not continuable (finite-precision)"
    assert entry["witness"] is None and entry["torsion"] is False
    # torsion points are always continuable, with witness zero
    _pipe(monkeypatch, out)
    rc, doc = run_json(capsys, "decompose", "--point", "z", "--m", "4",
                       "--prec", "15")
    assert doc["points"][0]["verdict"] == "continuable"
    assert doc["points"][0]["witness"] == "0"


def test_decompose_twisted_and_rejects(capsys, monkeypatch):
    sym = SymbolPoly({1: 1, 3: -1}) * full_symbol(P35)
    c = Character("Gm", P35, sym, sym.star(gm_log(50)))
    _pipe(monkeypatch, json.dumps(c.to_json_dict()))
    rc, doc = run_json(capsys, "decompose", "--point", "2", "--prec", "15")
    assert rc == 0
    assert doc["augmentation"] == "0"
    assert doc["continuable_along_nontorsion"] is True
    assert doc["points"][0] == {"point": "2", "torsion": False,
                                "criterion": True, "witness": "0",
                                "verdict": "continuable"}
    # a symbol that is not a multiple of the fundamental one: domain error
    ode = euler_polynomial(3) / 3
    bad = Character("Gm", P35, ode, ode.star(gm_log(20)))
    _pipe(monkeypatch, json.dumps(bad.to_json_dict()))
    assert main(["decompose"]) == 2
    _pipe(monkeypatch, "{not json")
    assert main(["decompose"]) == 2
    capsys.readouterr()
    # a malformed symbol index is an input error, not a traceback
    data = c.to_json_dict()
    data["symbol"][0]["n"] = "x"
    _pipe(monkeypatch, json.dumps(data))
    assert main(["decompose"]) == 2
    assert capsys.readouterr().err.startswith("error: input is not character JSON: ")
    # an elliptic character without its curve is an input error as well
    data = c.to_json_dict()
    data["group"] = "Elliptic"
    _pipe(monkeypatch, json.dumps(data))
    assert main(["decompose"]) == 2
    assert capsys.readouterr().err.startswith("error: input is not character JSON: ")
    # a support that is not P-smooth, or an order that is not the symbol's,
    # is not a character, with or without points
    gm = build_gm_character(P35, 8).to_json_dict()
    outside = SymbolPoly.phi(7) * full_symbol(P35)
    not_smooth = dict(gm, symbol=outside.to_json_list(),
                      series=outside.star(gm_log(50)).to_json_dict())
    # nor are Dirac rows or a series that the symbol does not give
    off_p = copy.deepcopy(gm)
    off_p["dirac"][1]["p"] = 7
    first = copy.deepcopy(gm)
    first["series"]["terms"][0]["num"] = "12345"
    empty = dict(gm, series={"vars": 1, "order": 3, "terms": []})
    for data, argv in ((not_smooth, ()), (not_smooth, ("--point", "1")),
                       (dict(gm, order=[2, 7]), ()), (off_p, ()), (first, ()),
                       (empty, ())):
        _pipe(monkeypatch, json.dumps(data))
        assert main(["decompose", *argv]) == 2, data["order"]
        assert capsys.readouterr().err.startswith(
            "error: input is not character JSON: ")
    # a series order above the --order limit is refused before the loader
    # builds the logarithm to that order
    _pipe(monkeypatch, json.dumps(dict(gm, series=dict(gm["series"], order=5001))))
    assert main(["decompose"]) == 2
    assert "above the --order limit 5000" in capsys.readouterr().err
    # integer fields refuse floats and booleans rather than truncating them,
    # and a zero denominator is an input error, not a ZeroDivisionError
    ell = build_elliptic_character(WeierstrassCurve.from_label("37a"),
                                   PrimeSet((5, 7)), 8).to_json_dict()
    for base, path, value in (
            (gm, ("primes",), [3.9, 5]),
            (gm, ("primes", 1), 5.0),
            (gm, ("order", 0), 1.0),
            (gm, ("symbol", 0, "n"), 1.5),
            (gm, ("symbol", 0, "n"), True),
            (gm, ("symbol", 0, "num"), -1.0),
            (gm, ("symbol", 0, "den"), "0"),
            (gm, ("series", "terms", 0, "den"), "0"),
            (gm, ("dirac", 1, "euler", 0, "den"), "0"),
            (gm, ("dirac", 0, "p"), 3.0),
            (gm, ("dirac", 1, "euler", 0, "n"), 1.5),
            (gm, ("series", "vars"), 1.0),
            (gm, ("series", "order"), 8.5),
            (gm, ("series", "terms", 0, "exp"), [1.5]),
            (ell, ("dirac", 0, "ap"), float(ell["dirac"][0]["ap"]))):
        data = copy.deepcopy(base)
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        _pipe(monkeypatch, json.dumps(data))
        assert main(["decompose"]) == 2, path
        assert capsys.readouterr().err.startswith(
            "error: input is not character JSON: "), path


FROZEN_CHAR_ELL_11A_3_5_7_TEXT = """group: Elliptic
primes: 3,5,7
order: 2,2,2
symbol: 1 + 1/3*phi_3 - 1/5*phi_5 + 2/7*phi_7 + 1/3*phi_9 - 1/15*phi_15 + 2/21*phi_21 + 1/5*phi_25 - 2/35*phi_35 - 1/15*phi_45 + 1/7*phi_49 + 2/21*phi_63 + 1/15*phi_75 - 2/105*phi_105 + 1/21*phi_147 + 2/35*phi_175 + 1/15*phi_225 - 1/35*phi_245 - 2/105*phi_315 + 1/21*phi_441 + 2/105*phi_525 - 1/105*phi_735 + 1/35*phi_1225 + 2/105*phi_1575 - 1/105*phi_2205 + 1/105*phi_3675 + 1/105*phi_11025
dirac p=3 kind=elliptic ap=-1: (1 - 1/5*phi_5 + 2/7*phi_7 + 1/5*phi_25 - 2/35*phi_35 + 1/7*phi_49 + 2/35*phi_175 - 1/35*phi_245 + 1/35*phi_1225) * (1 + 1/3*phi_3 + 1/3*phi_9)
dirac p=5 kind=elliptic ap=1: (1 + 1/3*phi_3 + 2/7*phi_7 + 1/3*phi_9 + 2/21*phi_21 + 1/7*phi_49 + 2/21*phi_63 + 1/21*phi_147 + 1/21*phi_441) * (1 - 1/5*phi_5 + 1/5*phi_25)
dirac p=7 kind=elliptic ap=-2: (1 + 1/3*phi_3 - 1/5*phi_5 + 1/3*phi_9 - 1/15*phi_15 + 1/5*phi_25 - 1/15*phi_45 + 1/15*phi_75 + 1/15*phi_225) * (1 + 2/7*phi_7 + 1/7*phi_49)
series: 1*T^1 - 1*T^3 - 4*T^4 + 3*T^5 + 32*T^6 + 46*T^7 - 192*T^8 - 825*T^9 + O(T^10)
"""

# sha256 of the stdout of `char gm --primes 3,5,7 --order 6` (JSON, 202 lines)
FROZEN_CHAR_GM_3_5_7_SHA256 = (
    "b16951f13dbe1c6290c86b4f60f73bf1f9164e92ee3b816125f0c395835f094d")


# sha256 of the stdout of commands whose arithmetic runs on the sparse
# kernel's products and star action, as printed when every pair of terms was
# multiplied and added in Fractions
FROZEN_KERNEL_STDOUT_SHA256 = {
    ("char", "gm", "--primes", "3,5,7", "--order", "400"):
        "59e34e007c21f97c20e4567e377a7f0a54cd7a6858c35761444dd78b6c2f92ca",
    ("char", "ell", "--curve", "37a", "--primes", "5,7,11", "--order", "60"):
        "dea4ce67fa8944370d93c2037bc5d1b9a13e5b51bc628838c36a595747dbacd0",
    ("verify", "jets", "--primes", "3,5", "--samples", "35", "--seed", "41"):
        "980a087380246a74f2a1f6eaa3425a368f2602ba4584c96c57ef886d9270862f",
    ("verify", "axioms", "--primes", "3,5,7", "--samples", "8", "--seed", "2"):
        "f0345f9d64f72164e42e7b8e23d359e1e88e3dc95f8ca18bca86ab3f05d424db",
}


def test_kernel_stdout_is_frozen(capsys):
    for argv, digest in FROZEN_KERNEL_STDOUT_SHA256.items():
        rc, out = run(capsys, *argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dirac_stdout_is_frozen(capsys, monkeypatch):
    # the Dirac rows (kind, ap, Euler symbol, local operator) and the
    # fundamental symbols, as printed when each was written out by hand
    rc, out = run(capsys, "char", "ell", "--curve", "11a", "--primes",
                  "3,5,7", "--order", "9", "--format", "text")
    assert (rc, out) == (0, FROZEN_CHAR_ELL_11A_3_5_7_TEXT)
    rc, out = run(capsys, "char", "gm", "--primes", "3,5,7", "--order", "6")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_CHAR_GM_3_5_7_SHA256
    doc = json.loads(out)
    assert [(d["p"], d["kind"], d["ap"]) for d in doc["dirac"]] == [
        (3, "gm", None), (5, "gm", None), (7, "gm", None)]
    assert doc["dirac"][2]["ode"] == [{"n": 1, "num": "-1", "den": "1"},
                                      {"n": 7, "num": "1", "den": "7"}]
    # (1 - phi_3) times -(1 - phi_3/3)(1 - phi_5/5), written out
    sym = SymbolPoly({1: -1, 3: F(4, 3), 5: F(1, 5), 9: F(-1, 3),
                      15: F(-4, 15), 45: F(1, 15)})
    twisted = Character("Gm", P35, sym, sym.star(gm_log(30)))
    _pipe(monkeypatch, json.dumps(twisted.to_json_dict()))
    assert run(capsys, "decompose", "--format", "text", "--point", "2",
               "--prec", "12") == (0, (
                   "rho: 1 - phi_3\n"
                   "augmentation: 0\n"
                   "continuable along nontorsion points: True\n"
                   "point 2: continuable\n"))


def test_decompose_runs_once_per_command(capsys, monkeypatch):
    # the points' evaluations reuse the rho the command decomposed
    calls = []
    decompose = deltachar.characters.decompose_over_fundamental

    def counted(c):
        calls.append(c)
        return decompose(c)

    for module in (deltachar.characters, deltachar.cli, deltachar.evaluation):
        if hasattr(module, "decompose_over_fundamental"):
            monkeypatch.setattr(module, "decompose_over_fundamental", counted)
    sym = SymbolPoly({1: 1, 3: -1}) * full_symbol(P35)
    c = Character("Gm", P35, sym, sym.star(gm_log(30)))
    _pipe(monkeypatch, json.dumps(c.to_json_dict()))
    rc, doc = run_json(capsys, "decompose", "--point", "2", "--point", "-1",
                       "--prec", "10")
    assert rc == 0 and [e["torsion"] for e in doc["points"]] == [False, True]
    assert len(calls) == 1


def test_decompose_input_file_matches_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "gm.json"
    assert main(["char", "gm", "--primes", "3,5", "--order", "30",
                 "--output", str(path)]) == 0
    argv = ["decompose", "--point", "2", "--prec", "10"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, from_file = run(capsys, *argv, "--input", str(path))
    assert rc == 0
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    _pipe(monkeypatch, path.read_text())
    rc, from_stdin = run(capsys, *argv)
    assert rc == 0 and from_file == from_stdin


def test_verify_suites_all_pass(capsys):
    for argv in (
        ["verify", "axioms", "--primes", "3,5,7", "--samples", "12"],
        ["verify", "additivity", "--group", "gm", "--primes", "3,5",
         "--depth", "10"],
        ["verify", "additivity", "--group", "ell", "--curve", "11a",
         "--depth", "6"],
        ["verify", "integrality", "--primes", "3,5", "--bound", "60"],
        ["verify", "honda", "--curve", "11a", "--prime", "3",
         "--bound", "100"],
        ["verify", "claim2", "--primes", "3,5", "--samples", "3"],
        ["verify", "jets", "--samples", "10"],
        ["verify", "jets", "--primes", "3,5,7"],
    ):
        rc, doc = run_json(capsys, *argv)
        assert rc == 0, argv
        assert doc["ok"] is True
        assert all(p["pass"] for p in doc["properties"])


def test_verify_failure_exits_3(capsys, monkeypatch):
    import deltachar.cli as cli
    monkeypatch.setitem(cli._SUITES, "axioms",
                        lambda args, cfg, rng: [("stub", False, "forced")])
    rc, doc = run_json(capsys, "verify", "axioms")
    assert rc == 3
    assert doc["ok"] is False


def test_verify_usage_errors(capsys):
    assert main(["verify", "honda", "--primes", "3,5"]) == 1  # no curve
    assert main(["verify", "honda", "--curve", "11a", "--bound", "10"]) == 2
    capsys.readouterr()


def test_config_file_merge_and_output(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nprimes = 3,5\nprec = 15\nformat = json\n")
    rc, doc = run_json(capsys, "eval", "gm", "--point", "2",
                       "--config", str(cfg))
    assert rc == 0 and doc["precision"] == 15
    # explicit flag beats the file
    rc, doc = run_json(capsys, "eval", "gm", "--point", "2",
                       "--config", str(cfg), "--prec", "6")
    assert doc["precision"] == 6
    # unknown keys and missing files are configuration errors
    bad = tmp_path / "bad.cfg"
    bad.write_text("colour = green\n")
    assert main(["char", "gm", "--config", str(bad)]) == 1
    assert main(["char", "gm", "--config", str(tmp_path / "absent.cfg")]) == 1
    capsys.readouterr()
    # --output goes under DELTACHAR_OUTDIR when relative
    monkeypatch.setenv("DELTACHAR_OUTDIR", str(tmp_path))
    rc = main(["char", "gm", "--primes", "3,5", "--order", "6",
               "--output", "psi.json"])
    assert rc == 0
    written = json.loads((tmp_path / "psi.json").read_text())
    assert written["group"] == "Gm"
    capsys.readouterr()


FROZEN_CSV_AND_TEXT = (
    (("char", "gm", "--primes", "3,5", "--order", "8", "--format", "csv"),
     "exp,num,den\n1,-1,1\n2,1,2\n4,1,4\n7,-1,7\n8,1,8\n"),
    (("char", "ga", "--symbol", "phi_3 - 1/2", "--primes", "3,5", "--order",
      "5", "--format", "text"),
     "group: Ga\nprimes: 3,5\norder: 1,0\nsymbol: -1/2 + phi_3\n"
     "series: -1/2*T^1 + 1*T^3 + O(T^5)\n"),
    (("eval", "ell", "--curve", "11a", "--point", "0,0", "--primes", "3,5",
      "--format", "csv"),
     "p,scaling,zero,coeffs\n3,5,True,0\n5,5,True,0\n"),
    (("eval", "ell", "--curve", "37a", "--primes", "5,7", "--point", "-1,0",
      "--format", "csv"),
     "p,scaling,zero,coeffs\n5,8,False,12496146\n7,9,False,5916545105\n"),
    (("eval", "gm", "--point", "2", "--primes", "3,5", "--prec", "20",
      "--kernel-test", "--format", "csv"),
     "p,scaling,zero,coeffs\n3,1,False,1903788655\n"
     "5,1,False,3100351148488\n"),
    (("eval", "gm", "--point", "2", "--primes", "3,5", "--prec", "20",
      "--kernel-test", "--format", "text"),
     "Gm at 2 mod p^20\np=3: [1903788655] (scaling 1)\n"
     "p=5: [3100351148488] (scaling 1)\ntorsion: False\nverdict: nonzero\n"),
    (("eval", "gm", "--point", "z", "--m", "4", "--primes", "3,5",
      "--format", "text", "--kernel-test"),
     "Gm at z mod p^12\np=3: 0 (scaling 1)\np=5: 0 (scaling 1)\n"
     "torsion: True\nverdict: zero\n"),
    (("verify", "jets", "--format", "text", "--samples", "6"),
     "PASS jets/delta-stays-local (3 random elements)\n"
     "PASS jets/square-rule (delta_3(x^2) expansion)\n"
     "PASS jets/canonical-lift (lift of 2 at order (1,1) for P={3,5})\n"
     "suite jets: ok\n"),
    (("verify", "jets", "--format", "csv", "--samples", "6"),
     "property,pass,detail\ndelta-stays-local,True,3 random elements\n"
     "square-rule,True,delta_3(x^2) expansion\n"
     'canonical-lift,True,"lift of 2 at order (1,1) for P={3,5}"\n'),
    (("verify", "honda", "--curve", "37a", "--primes", "5,7", "--prime", "5",
      "--bound", "100", "--format", "text"),
     "PASS honda/unit-root-congruences (p=5 through T^100)\n"
     "PASS honda/mutation-detected (a_7 perturbed by 1)\nsuite honda: ok\n"),
    (("verify", "additivity", "--group", "ell", "--curve", "11a", "--primes",
      "3,5", "--depth", "8", "--format", "csv"),
     "property,pass,detail\nlog-linearizes-law,True,depth 8\n"),
)

# decompose reads a character: (char argv, decompose argv, stdout)
FROZEN_DECOMPOSE_CSV_AND_TEXT = (
    (("char", "ell", "--curve", "37a", "--primes", "5,7", "--order", "10"),
     ("--prec", "10", "--point", "0,0", "--point", "inf", "--format", "csv"),
     "point,torsion,criterion,witness,verdict\n"
     '"0,0",False,False,,not continuable (finite-precision)\n'
     "inf,True,True,0,continuable\n"),
    (("char", "ell", "--curve", "37a", "--primes", "5,7", "--order", "10"),
     ("--prec", "10", "--point", "0,0", "--point", "inf", "--format", "text"),
     "rho: 1\naugmentation: 1\ncontinuable along nontorsion points: False\n"
     "point 0,0: not continuable (finite-precision)\n"
     "point inf: continuable\n"),
    (("char", "gm", "--primes", "3,5", "--order", "12"),
     ("--prec", "15", "--point", "2", "--point=-1", "--format", "csv"),
     "point,torsion,criterion,witness,verdict\n"
     "2,False,False,,not continuable (finite-precision)\n"
     "-1,True,True,0,continuable\n"),
    (("char", "gm", "--primes", "3,5", "--order", "12"),
     ("--format", "csv"),
     "point,torsion,criterion,witness,verdict\n"),
)


def test_csv_and_text_formats(capsys, monkeypatch):
    # every subcommand in the two formats no other test freezes
    for argv, want in FROZEN_CSV_AND_TEXT:
        assert run(capsys, *argv) == (0, want), argv
    for char_argv, argv, want in FROZEN_DECOMPOSE_CSV_AND_TEXT:
        rc, out = run(capsys, *char_argv)
        assert rc == 0
        _pipe(monkeypatch, out)
        assert run(capsys, "decompose", *argv) == (0, want), argv


def test_needs_curve_errors(capsys):
    # each command that builds a curve character names itself when the
    # curve is missing, and exits 1 before any arithmetic
    for argv, command in (
            (("char", "ell"), "char ell"),
            (("eval", "ell", "--point", "0,0"), "eval ell"),
            (("verify", "additivity", "--group", "ell"),
             "verify additivity --group ell"),
            (("verify", "integrality", "--group", "ell"),
             "verify integrality --group ell")):
        for fmt in ("json", "csv", "text"):
            assert main([*argv, "--primes", "3,5", "--format", fmt]) == 1
            out, err = capsys.readouterr()
            assert (out, err) == ("", "error: %s needs --curve\n" % command)


def test_integrality_rejects_ga(capsys):
    # the additive group has no fundamental series to scan; before any
    # arithmetic, the suite names itself and the group and exits 1
    for fmt in ("json", "csv", "text"):
        assert main(["verify", "integrality", "--group", "ga", "--primes",
                     "3,5", "--bound", "20", "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == (
            "", "error: verify integrality takes --group gm or ell, not ga\n")


AXIOMS_STDOUT = """{
  "ok": true,
  "properties": [
    {
      "detail": "%d identities",
      "pass": true,
      "property": "integer-pairs"
    },
    {
      "detail": "%d identities over Q(zeta_4)",
      "pass": true,
      "property": "cyclotomic-pairs"
    }
  ],
  "seed": %d,
  "suite": "axioms"
}
"""


def test_verify_axioms_stdout_is_frozen(capsys):
    # the two axioms commands of the benchmark's cli mix, as printed before
    # Q(zeta_m) moved to integer coefficients
    for primes, samples, seed, counts in (("3,5", 10, 1, (50, 25)),
                                          ("3,5,7", 8, 2, (72, 36))):
        rc, out = run(capsys, "verify", "axioms", "--primes", primes,
                      "--samples", str(samples), "--seed", str(seed))
        assert rc == 0 and out == AXIOMS_STDOUT % (counts + (seed,))


FROZEN_GM_3_5_7 = """{
  "components": [
    {
      "coeffs": [
        "19128165251276357476155452879442342719155618531721513946784772671928106467343"
      ],
      "p": 3,
      "scaling": 1,
      "zero": false
    },
    {
      "coeffs": [
        "3058479097211429269216348820014663667905798299704047729915580442872419879199448060521640214257746064821668477196"
      ],
      "p": 5,
      "scaling": 1,
      "zero": false
    },
    {
      "coeffs": [
        "1399340459566438812486354252266975936713535537458478834769255790369488811517748972957659290603514334709233743198895142218163588147613438"
      ],
      "p": 7,
      "scaling": 1,
      "zero": false
    }
  ],
  "group": "Gm",
  "point": "11/4",
  "precision": 160,
  "primes": [
    3,
    5,
    7
  ]
}
"""


FROZEN_GM_M8_Z3 = """{
  "components": [
    {
      "coeffs": [
        "0",
        "0",
        "0",
        "0"
      ],
      "p": 5,
      "scaling": 1,
      "zero": true
    },
    {
      "coeffs": [
        "0",
        "0",
        "0",
        "0"
      ],
      "p": 7,
      "scaling": 1,
      "zero": true
    }
  ],
  "group": "Gm",
  "point": "z^3",
  "precision": 120,
  "primes": [
    5,
    7
  ],
  "torsion": true,
  "verdict": "zero"
}
"""


FROZEN_GM_13_29_TEXT = """Gm at -7/5 mod p^300
p=13: [13438600439296407401066128786049657404955215590108256692206142320223390048226569002575860450534201168770285851400504633014376605810198290646890377302589006029883827196982101319693913183791352686607321201001161324667326966066943566438344725033903851911103671901739931819833767258186231409805227504259768345433920313005558315999755164314] (scaling 1)
p=29: [4779719500166233124539227164331088022166961433067242939537177202293039004479083295885210943643237642755227097237247100307403580960288438749350179712524181584570820978673020116836722347924440003549635889149592509658220362999697310361100457962288753622683845133920436614318389879192905916819488717556908357808649488584535917187381412908201730480728129325721627988274264144018360350006010190534752070289585270974185234163806417240417242974833] (scaling 1)
"""


def test_eval_gm_stdout_is_frozen(capsys):
    # high-precision Gm evaluations, where the log-series is summed after a
    # p-power descent, as printed when it was summed term by term
    for argv, want in (
            (("eval", "gm", "--primes", "3,5,7", "--prec", "160",
              "--point", "11/4"), FROZEN_GM_3_5_7),
            (("eval", "gm", "--primes", "5,7", "--m", "8", "--prec", "120",
              "--point", "z^3", "--kernel-test"), FROZEN_GM_M8_Z3),
            (("eval", "gm", "--primes", "13,29", "--m", "4", "--prec", "300",
              "--point=-7/5", "--format", "text"), FROZEN_GM_13_29_TEXT),
            (("eval", "gm", "--primes", "13,29", "--m", "4", "--prec", "300",
              "--point", "-7/5", "--format", "text"), FROZEN_GM_13_29_TEXT)):
        assert run(capsys, *argv) == (0, want)


def test_byte_determinism(capsys):
    for argv in (
        ("char", "gm", "--primes", "3,5", "--order", "10"),
        ("eval", "gm", "--point", "2", "--primes", "3,5", "--prec", "10"),
        ("verify", "axioms", "--seed", "5", "--samples", "10"),
        ("verify", "claim2", "--seed", "11", "--samples", "2"),
    ):
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second


FROZEN_EVAL_37A_29_31 = """{
  "components": [
    {
      "coeffs": [
        "111150352411299866"
      ],
      "p": 29,
      "scaling": 24,
      "zero": false
    },
    {
      "coeffs": [
        "132654126504908533"
      ],
      "p": 31,
      "scaling": 36,
      "zero": false
    }
  ],
  "group": "Elliptic",
  "point": "0,0",
  "precision": 12,
  "primes": [
    29,
    31
  ]
}
"""


def test_eval_ell_frozen_at_large_primes(capsys):
    # without --m the point is scaled over Z_p: by #E(F_29) = 24 and
    # #E(F_31) = 36
    argv = ("eval", "ell", "--curve", "37a", "--primes", "29,31",
            "--prec", "12", "--point", "0,0")
    assert run(capsys, *argv) == (0, FROZEN_EVAL_37A_29_31)
    assert run(capsys, *argv, "--format", "text") == (0, (
        "Elliptic at 0,0 mod p^12\n"
        "p=29: [111150352411299866] (scaling 24)\n"
        "p=31: [132654126504908533] (scaling 36)\n"))
    # with --m 4 it is scaled over Z_p[i]: by #E(F_29)^2 = 576 and
    # #E(F_961) = 1008, with the values that
    # test_elliptic_frozen_over_gaussian_residue_rings freezes
    rc, doc = run_json(capsys, *argv, "--m", "4")
    assert rc == 0
    assert doc["components"] == [
        {"p": 29, "scaling": 576, "zero": False,
         "coeffs": ["190904975432913497", "0"]},
        {"p": 31, "scaling": 1008, "zero": False,
         "coeffs": ["563664406983239880", "0"]}]
    assert run(capsys, *argv, "--m", "4", "--format", "text") == (0, (
        "Elliptic at 0,0 mod p^12\n"
        "p=29: [190904975432913497, 0] (scaling 576)\n"
        "p=31: [563664406983239880, 0] (scaling 1008)\n"))


def test_argparse_usage_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["char", "gb"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_shared_parser_keeps_no_state(capsys, monkeypatch, tmp_path):
    # one parser serves every call in the process; no call sees another's
    built = []

    class CountedParser(deltachar.cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(deltachar.cli, "_Parser", CountedParser)
    build_parser.cache_clear()
    try:
        first = ["eval", "ell", "--curve", "37a", "--primes", "5,7",
                 "--point", "0,0", "--kernel-test"]
        rc, out = run(capsys, *first)
        assert rc == 0 and '"verdict": "nonzero"' in out
        with pytest.raises(SystemExit) as exc:
            main(["char", "gb"])
        assert exc.value.code == 1 and "error:" in capsys.readouterr().err
        assert main(["eval", "gm", "--point", "1/3", "--primes", "3,5"]) == 2
        assert "error:" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--help"])
        assert exc.value.code == 0 and "--point" in capsys.readouterr().out
        path = tmp_path / "gm.json"
        assert main(["char", "gm", "--primes", "3,5", "--order", "12",
                     "--output", str(path)]) == 0
        for points in (["2"], ["-1", "1/2"]):
            argv = ["decompose", "--input", str(path), "--prec", "10"]
            for point in points:
                argv += ["--point", point]
            rc, doc = run_json(capsys, *argv)
            assert rc == 0 and [e["point"] for e in doc["points"]] == points
        assert run(capsys, *first) == (0, out)
    finally:
        build_parser.cache_clear()
    assert built.count("deltachar") == 1


def _fuzz_argv(rng, tmp_path):
    """A random command line with small values, now and then malformed."""
    def pick(good, bad):
        return rng.choice(bad if rng.random() < 0.1 else good)

    points = (["2", "-1", "1/2", "3", "z^1", "z^3", "0,0", "1,0", "1,-1"],
              ["0", "x", "1,2,3", "", "z^x"])
    flags = {
        "--primes": (["3,5", "5,7", "3", "3,5,7"],
                     ["2,3", "4", "5,3", "3,3", "x", ""]),
        "--m": (["1", "3", "4"], ["2", "0", "-1", "x", str(_MAX_M + 1)]),
        "--order": (["2", "4", "8"],
                    ["1", "0", "-3", "x", str(_MAX_ORDER + 1)]),
        "--prec": (["2", "4", "8"], ["1", "0", "-3", "x", str(_MAX_PREC + 1)]),
        "--curve": (["11a", "37a", "0,0,1,-1,0"],
                    ["0,0,0,0,0", "1,2", "x", "99z"]),
        "--format": (["json", "csv", "text"], ["xml"]),
        "--seed": (["0", "1"], ["x"]),
        "--output": ([str(tmp_path / "out.txt")],
                     [str(tmp_path / "no" / "out")]),
        "--config": ([str(tmp_path / "ok.cfg")],
                     [str(tmp_path / "missing.cfg"), str(tmp_path / "junk.cfg")]),
    }
    command = pick(["char", "eval", "verify", "decompose"], ["frobnicate", ""])
    argv = [command]
    if command == "char":
        argv.append(pick(["ga", "gm", "ell"], ["gb"]))
        if rng.random() < 0.3:
            argv += ["--symbol", pick(["1", "phi_3 - 1"], ["phi3", "x"])]
    elif command == "eval":
        argv += [pick(["gm", "ell"], ["ga"]), "--point", pick(*points)]
        if rng.random() < 0.3:
            argv.append("--kernel-test")
    elif command == "verify":
        argv += [pick(["axioms", "additivity", "integrality", "honda",
                       "claim2", "jets"], ["nope"]),
                 "--group", pick(["ga", "gm", "ell"], ["gx"]),
                 "--samples", pick(["1", "2"], ["0", "-1"]),
                 "--depth", pick(["2", "3"], ["0", "x"]),
                 "--bound", pick(["6", "20"], ["0", "-1", str(_MAX_BOUND + 1)])]
        if rng.random() < 0.5:
            argv += ["--prime", pick(["3", "5"], ["4", "-7"])]
    elif command == "decompose":
        for _ in range(rng.randint(0, 2)):
            argv += ["--point", pick(*points)]
        argv += ["--bound", pick(["1000"], ["1", "0"])]
    for flag in rng.sample(sorted(flags), rng.randint(0, 4)):
        argv += [flag, pick(*flags[flag])]
    if "--curve" not in argv and rng.random() < 0.8:
        argv += ["--curve", pick(*flags["--curve"])]
    # keep every run small: the defaults of --order and --prec are not
    for flag in ("--order", "--prec"):
        if flag not in argv:
            argv += [flag, "6"]
    return argv


def _fuzz_character_json(rng):
    """Character JSON, valid or broken in one random place."""
    sym = full_symbol(P35)
    c = Character("Gm", P35, sym, sym.star(gm_log(8)))
    data = c.to_json_dict()
    choice = rng.randrange(10)
    if choice == 0:
        return rng.choice(["{not json", "[]", "null", '"x"', "1", ""])
    if choice == 1:
        del data[rng.choice(sorted(data))]
    elif choice == 2:
        data[rng.choice(sorted(data))] = rng.choice([None, "x", 3, [], {}])
    elif choice == 3:
        data["group"] = rng.choice(["Elliptic", "Ga", "Gx"])
    elif choice == 4:
        data["symbol"][0][rng.choice(["n", "num", "den"])] = rng.choice(
            ["x", "0", "-1", None, "1/0"])
    elif choice == 5:
        data["primes"] = rng.choice([[5, 3], [2, 3], [9], [], "3,5"])
    elif choice == 6:
        data["curve"] = rng.choice([["0", "0", "0", "0", "0"], ["x"],
                                    ["0", "-1", "1", "0", "0"]])
    return json.dumps(data)


def test_cli_fuzz_exits_cleanly(capsys, monkeypatch, tmp_path):
    # every failure is one of the documented exit codes and never a traceback
    (tmp_path / "ok.cfg").write_text("primes = 5,7\n")
    (tmp_path / "junk.cfg").write_text("primes = x\nno equals sign\n")
    rng = random.Random(20080805)
    for _ in range(200):
        argv = _fuzz_argv(rng, tmp_path)
        _pipe(monkeypatch, _fuzz_character_json(rng))
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        err = capsys.readouterr().err
        assert rc in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
    # a value over its limit, from a flag or the config file, is a usage
    # error before any arithmetic starts
    (tmp_path / "big.cfg").write_text("prec = %d\n" % (_MAX_PREC + 1))
    many = ",".join(str(p) for p in
                    (3, 5, 7, 11, 13, 17, 19, 23)[:_MAX_PRIMES + 1])
    (tmp_path / "many.cfg").write_text("primes = %s\n" % many)
    for argv in (["char", "gm", "--order", str(_MAX_ORDER + 1)],
                 ["eval", "gm", "--point", "2", "--prec", str(_MAX_PREC + 1)],
                 ["eval", "gm", "--point", "2", "--config",
                  str(tmp_path / "big.cfg")],
                 ["eval", "gm", "--point", "2", "--m", str(_MAX_M + 1)],
                 ["verify", "integrality", "--bound", str(_MAX_BOUND + 1)],
                 ["verify", "honda", "--curve", "37a", "--primes", "5,7",
                  "--bound", str(_MAX_BOUND + 1)],
                 ["verify", "additivity", "--depth", str(_MAX_DEPTH + 1)],
                 ["verify", "additivity", "--depth", "0"],
                 ["verify", "jets", "--samples", str(_MAX_SAMPLES + 1)],
                 ["verify", "axioms", "--samples", "0"],
                 ["char", "gm", "--primes", many],
                 ["char", "gm", "--config", str(tmp_path / "many.cfg")],
                 ["eval", "gm", "--point", "2", "--primes", "3,1009"],
                 ["verify", "claim2", "--primes", "3,19"]):
        assert main(argv) == 1, argv
        assert "limit" in capsys.readouterr().err, argv
