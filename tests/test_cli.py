import io
import json
import random
import sys
from fractions import Fraction as F

import pytest

from deltachar.characters import (
    Character,
    SymbolPoly,
    character_from_json_dict,
    full_symbol_gm,
    gm_ode_symbol,
)
from deltachar.cli import format_symbol, main, parse_symbol
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
    assert back.symbol == full_symbol_gm(P35)
    assert back.to_json_dict() == doc


def test_char_ga_trivial_symbol(capsys):
    rc, doc = run_json(capsys, "char", "ga", "--symbol", "1",
                       "--primes", "3,5")
    assert rc == 0
    assert doc["series"]["terms"] == [{"exp": [1], "num": "1", "den": "1"}]


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
    sym = SymbolPoly({1: 1, 3: -1}) * full_symbol_gm(P35)
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
    ode = gm_ode_symbol(3)
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


def test_csv_and_text_formats(capsys):
    rc, out = run(capsys, "char", "gm", "--primes", "3,5", "--order", "8",
                  "--format", "csv")
    lines = out.strip().splitlines()
    assert rc == 0 and lines[0] == "exp,num,den"
    assert lines[1] == "1,-1,1"
    rc, out = run(capsys, "eval", "ell", "--curve", "11a", "--point", "0,0",
                  "--primes", "3,5", "--format", "csv")
    assert out.strip().splitlines()[0] == "p,scaling,zero,coeffs"
    rc, out = run(capsys, "eval", "gm", "--point", "z", "--m", "4",
                  "--primes", "3,5", "--format", "text", "--kernel-test")
    assert "verdict: zero" in out and "torsion: True" in out
    rc, out = run(capsys, "verify", "jets", "--format", "text",
                  "--samples", "6")
    assert out.strip().endswith("suite jets: ok")


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
    # `eval ell` evaluates the rational point over Q whatever --m says, so
    # the scalings are #E(F_29) = 24 and #E(F_31) = 36
    argv = ("eval", "ell", "--curve", "37a", "--primes", "29,31", "--m", "4",
            "--prec", "12", "--point", "0,0")
    assert run(capsys, *argv) == (0, FROZEN_EVAL_37A_29_31)
    assert run(capsys, *argv, "--format", "text") == (0, (
        "Elliptic at 0,0 mod p^12\n"
        "p=29: [111150352411299866] (scaling 24)\n"
        "p=31: [132654126504908533] (scaling 36)\n"))


def test_argparse_usage_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["char", "gb"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    capsys.readouterr()
