import io
import json
import random
import sys
import warnings
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
    # an elliptic character without its curve is an input error as well
    data = c.to_json_dict()
    data["group"] = "Elliptic"
    _pipe(monkeypatch, json.dumps(data))
    assert main(["decompose"]) == 2
    assert capsys.readouterr().err.startswith("error: input is not character JSON: ")


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


def _fuzz_argv(rng, tmp_path):
    """A random command line with small values, now and then malformed."""
    def pick(good, bad):
        return rng.choice(bad if rng.random() < 0.1 else good)

    points = (["2", "-1", "1/2", "3", "z^1", "z^3", "0,0", "1,0", "1,-1"],
              ["0", "x", "1,2,3", "", "z^x"])
    flags = {
        "--primes": (["3,5", "5,7", "3", "3,5,7"],
                     ["2,3", "4", "5,3", "3,3", "x", ""]),
        "--m": (["1", "3", "4"], ["2", "0", "-1", "x"]),
        "--order": (["2", "4", "8"], ["1", "0", "-3", "x"]),
        "--prec": (["2", "4", "8"], ["1", "0", "-3", "x"]),
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
                 "--bound", pick(["6", "20"], ["0", "-1"])]
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
    sym = full_symbol_gm(P35)
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
