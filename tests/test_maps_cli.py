"""Map-file wire format and the command-line front end."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from hermsym.cli import build_parser, dump_json, main
from hermsym.maps import identity_map, parse_map_file
from hermsym.spaces import build_space
from oracles import poly_json_reference


@pytest.fixture(scope="module")
def disc():
    return build_space("typeI:1,1")


def identity_payload(space):
    return {"maps": [[{"num": poly_json_reference(f.num),
                       "den": poly_json_reference(f.den)}
                      for f in identity_map(space).components]]}


def test_parse_map_file(disc):
    mf = parse_map_file(disc, identity_payload(disc))
    assert len(mf.maps) == 1 and mf.lambdas is None
    payload = identity_payload(disc)
    payload["lambdas"] = ["1/2"]
    mf = parse_map_file(disc, payload)
    assert mf.lambdas == [0.5]
    assert str(mf.lambdas_exact[0]) == "1/2"
    payload["lambdas"] = [0.25]
    mf = parse_map_file(disc, payload)
    assert mf.lambdas_exact is None


def test_parse_map_file_errors(disc):
    with pytest.raises(ValueError, match="components"):
        parse_map_file(disc, {"maps": [[]]})
    payload = identity_payload(disc)
    payload["lambdas"] = ["1/2", "1/2"]
    with pytest.raises(ValueError, match="count"):
        parse_map_file(disc, payload)
    payload = identity_payload(disc)
    payload["lambdas"] = ["-1/2"]
    with pytest.raises(ValueError, match="positive"):
        parse_map_file(disc, payload)


def test_dump_json_determinism():
    obj = {"b": 1.0 / 3.0, "a": [1, 2.5, "x"], "c": {"y": None, "z": True}}
    s1 = dump_json(obj)
    s2 = dump_json({"c": {"z": True, "y": None}, "a": [1, 2.5, "x"], "b": 1.0 / 3.0})
    assert s1 == s2
    assert "0.33333333333333331" in s1


def test_dump_json_nonfinite_round_trip():
    """NaN and the infinities come out as tokens json.loads reads back."""
    text = dump_json({"r": float("nan"), "s": [float("inf"), -float("inf")]})
    assert text == '{"r":NaN,"s":[Infinity,-Infinity]}'
    back = json.loads(text)
    assert math.isnan(back["r"]) and back["s"] == [math.inf, -math.inf]


def run_cli(capsys, args):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_cli_describe(capsys):
    code, out = run_cli(capsys, ["describe", "--space", "typeI:2,2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 4 and obj["N"] == 5 and obj["lambda"] == 4


def test_cli_rho(capsys):
    code, out = run_cli(capsys, ["rho", "--space", "typeIV:3"])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["rho"]["terms"]) == 13


def test_cli_einstein(capsys):
    code, out = run_cli(capsys, ["einstein", "--space", "typeIV:3", "--seed", "7"])
    assert code == 0
    obj = json.loads(out)
    assert obj["lambda"] == 3 and obj["einstein_residual"] < 1e-8


def test_cli_seed_required(capsys):
    code = main(["einstein", "--space", "typeIV:3"])
    assert code == 2


def test_cli_env_seed(capsys, monkeypatch):
    """The seed comes from ``--seed`` alone: with ``HSS_SEED`` set in the
    environment, a randomized command without ``--seed`` is still refused."""
    monkeypatch.setenv("HSS_SEED", "11")
    assert main(["einstein", "--space", "typeIV:3"]) == 2
    assert "pass --seed" in capsys.readouterr().err


def test_cli_determinism(capsys):
    _, out1 = run_cli(capsys, ["hyp2", "--space", "typeIII:2", "--seed", "5"])
    _, out2 = run_cli(capsys, ["hyp2", "--space", "typeIII:2", "--seed", "5"])
    assert out1 == out2


def test_cli_hyp_commands(capsys):
    code, out = run_cli(capsys, ["hyp1", "--space", "typeIII:2", "--seed", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] and obj["witness"]["betas"][0] == [0, 0]
    code, out = run_cli(capsys, ["hyp2", "--space", "typeII:4", "--seed", "3"])
    assert code == 0
    assert json.loads(out)["witness"]["transversality_rank"] == 2
    code, out = run_cli(capsys, ["hyp3", "--space", "typeIV:3", "--seed", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["evidence"] == "exact"
    assert obj["witness"]["oracle"]["status"] == "irreducible_certified"
    code, out = run_cli(capsys, ["hyp3", "--space", "e16", "--seed", "3"])
    assert code == 0
    assert json.loads(out)["evidence"] == "support-only"


def test_cli_volume_and_isometry(tmp_path, capsys, disc):
    path = tmp_path / "id.json"
    payload = identity_payload(disc)
    payload["lambdas"] = ["1"]
    path.write_text(json.dumps(payload))
    code, out = run_cli(capsys, ["volume-check", "--space", "typeI:1,1",
                                 "--maps", str(path), "--seed", "2"])
    assert code == 0
    assert json.loads(out)["residual"] < 1e-12
    code, out = run_cli(capsys, ["isometry-check", "--space", "typeI:1,1",
                                 "--maps", str(path), "--seed", "2"])
    assert code == 0


def test_cli_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json ]")
    code = main(["volume-check", "--space", "typeI:1,1",
                 "--maps", str(path), "--seed", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


MOEBIUS = Path(__file__).with_name("maps") / "moebius.json"


@pytest.mark.parametrize("command", ["volume-check", "isometry-check"])
def test_cli_refuses_a_repeated_exponent(command, tmp_path, capsys):
    """The shipped isometry with its constant 4/5 written as two terms at
    exponent [0], 3/5 and 1/5, is refused (exit 2) and the exponent named:
    keeping only the last term would read another map and fail the check."""
    payload = json.loads(MOEBIUS.read_text())
    num = payload["maps"][0][0]["num"]
    assert num["terms"][0] == {"exp": [0], "re": "4/5", "im": "0"}
    num["terms"][:1] = [{"exp": [0], "re": "3/5", "im": "0"},
                        {"exp": [0], "re": "1/5", "im": "0"}]
    path = tmp_path / "split.json"
    path.write_text(json.dumps(payload))
    assert main([command, "--space", "typeI:1,1", "--maps", str(path),
                 "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exponent [0] is repeated" in captured.err


def _decimal_spelling(text):
    """``text`` with each "a/b" string written as its decimal: "4/5" as
    "0.8", "-3/5" as "-0.6"."""
    def decimal(match):
        q = Fraction(match.group(1))
        d = Decimal(q.numerator) / Decimal(q.denominator)
        assert Fraction(d) == q, match.group(1)
        return f'"{d}"'
    return re.sub(r'"(-?[0-9]+/[0-9]+)"', decimal, text)


@pytest.mark.parametrize("name", ["moebius.json", "moebius_and_identity.json"])
@pytest.mark.parametrize("command", ["volume-check", "isometry-check"])
def test_decimal_coefficients_keep_the_report(name, command, tmp_path, capsys):
    """A shipped map file with its fractions written as decimals ("0.8" for
    "4/5", lambdas included) is the same map: the same exit code and
    stdout bytes."""
    original = MOEBIUS.with_name(name)
    text = original.read_text()
    spelled = tmp_path / name
    spelled.write_text(_decimal_spelling(text))
    assert '"0.8"' in spelled.read_text() and "/" not in spelled.read_text()
    runs = []
    for path in (original, spelled):
        code = main([command, "--space", "typeI:1,1", "--maps", str(path),
                     "--seed", "7"])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1] and runs[0][0] == 0


@pytest.mark.parametrize("data", [b"\xff\xfe", b"[" * 200_000,
                                  b"[" + b"1" * 5000 + b"]"],
                         ids=["not-utf8", "nested-200000", "int-5000-digits"])
def test_cli_refuses_unreadable_map_file(data, tmp_path, capsys):
    """A map file that is not UTF-8, nests past the JSON reader's depth or
    holds an integer past Python's digit limit is an input error (exit 2)
    that names the file, not an internal error."""
    path = tmp_path / "maps.json"
    path.write_bytes(data)
    assert main(["volume-check", "--space", "typeI:1,1", "--maps", str(path),
                 "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed JSON in ") and str(path) in err


def test_cli_table_output(capsys):
    code, out = run_cli(capsys, ["describe", "--space", "typeIV:3",
                                 "--output", "table"])
    assert code == 0
    assert "kind: typeIV" in out


def test_cli_usage_error(capsys):
    assert main(["describe", "--space", "typeV:9"]) == 2
    assert main(["nonsense"]) == 2


def test_cli_hyp1_determinism(capsys):
    _, out1 = run_cli(capsys, ["hyp1", "--space", "typeIV:3", "--seed", "9"])
    _, out2 = run_cli(capsys, ["hyp1", "--space", "typeIV:3", "--seed", "9"])
    assert out1 == out2
    import json as _json
    assert _json.loads(out1)["witness"] is not None


def test_hyp1_memory_does_not_grow_with_max_order(capsys):
    """A jet series ends at the largest weight its terms reach, and a
    quotient by a constant denominator where its numerator ends, so a huge
    --max-order prints the default run's bytes from tables of the same size."""
    _, want = run_cli(capsys, ["hyp1", "--space", "typeIV:3", "--seed", "7"])
    tracemalloc.start()
    try:
        _, got = run_cli(capsys, ["hyp1", "--space", "typeIV:3", "--seed", "7",
                                  "--max-order", "1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 2 ** 21


def test_cli_einstein_exceptional(capsys):
    code, out = run_cli(capsys, ["einstein", "--space", "e16", "--seed", "4",
                                 "--samples", "25"])
    assert code == 0
    obj = json.loads(out)
    assert obj["lambda"] == 12 and obj["einstein_residual"] < 1e-8


def _run_checkout(*args):
    """The CLI of this checkout in a child process, not an installed one."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hermsym.cli", *args],
                          capture_output=True, env=env)


def test_cli_cross_process_determinism():
    args = ("einstein", "--space", "typeIV:3", "--seed", "7")
    out1, out2 = (_run_checkout(*args) for _ in range(2))
    assert out1.returncode == out2.returncode == 0
    assert out1.stdout == out2.stdout and out1.stdout


def test_cli_map_with_vanishing_denominator(tmp_path, capsys, disc):
    payload = identity_payload(disc)
    payload["maps"][0][0]["den"] = {
        "vars": ["z1_1"], "terms": [{"exp": [1], "re": "1", "im": "0"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code = main(["volume-check", "--space", "typeI:1,1",
                 "--maps", str(path), "--seed", "2"])
    assert code == 2
    assert "denominator" in capsys.readouterr().err


def _term(payload):
    return payload["maps"][0][0]["num"]["terms"][0]


# each edit turns the identity payload of typeI:1,1 into a malformed one
MALFORMED = {
    "exp-too-long": lambda p: _term(p).update(exp=[1, 1]) or p,
    "exp-float": lambda p: _term(p).update(exp=[1.5]) or p,
    "exp-negative": lambda p: _term(p).update(exp=[-1]) or p,
    "term-without-re": lambda p: _term(p).pop("re") and p,
    "re-true": lambda p: _term(p).update(re=True) or p,
    "im-false": lambda p: _term(p).update(im=False) or p,
    "zero-den": lambda p: p["maps"][0][0].update(
        den={"vars": ["z1_1"], "terms": []}) or p,
    "payload-7": lambda p: 7,
    "map-5": lambda p: {"maps": [5]},
    "lambdas-5": lambda p: dict(p, lambdas=5),
    "lambdas-null": lambda p: dict(p, lambdas=[None]),
    "lambdas-huge": lambda p: dict(p, lambdas=[10 ** 400]),
    # JSON numbers that parse to a float infinity: written as text
    "re-1e400": lambda p: _term(p).update(re="RAW") or json.dumps(p).replace(
        '"RAW"', "1e400"),
    "re-Infinity": lambda p: _term(p).update(re=math.inf) or p,
}


@pytest.mark.parametrize("edit", list(MALFORMED.values()), ids=list(MALFORMED))
def test_cli_refuses_malformed_map_file(edit, tmp_path, capsys, disc):
    """A malformed map file is a usage error (exit 2), never an internal
    error or a silently truncated map."""
    path = tmp_path / "maps.json"
    payload = edit(identity_payload(disc))
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code = main(["volume-check", "--space", "typeI:1,1",
                 "--maps", str(path), "--seed", "7"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: "), err


def test_cli_refuses_maps_the_floats_cannot_evaluate(tmp_path, capsys, disc):
    """An exact map whose float values overflow, or whose denominator is
    0.0 in floats at every draw, is an input error (exit 2) naming the map
    file, not an internal error."""
    huge = identity_payload(disc)
    _term(huge).update(re="1e400")               # exact, beyond the float range
    tiny = identity_payload(disc)
    tiny["maps"][0][0]["den"] = {"vars": ["z1_1"], "terms": [
        {"exp": [0], "re": "1/1" + "0" * 400}]}  # exactly nonzero, 0.0 in floats
    for name, payload in (("huge", huge), ("tiny", tiny)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        for command in ("volume-check", "isometry-check"):
            assert main([command, "--space", "typeI:1,1", "--maps", str(path),
                         "--seed", "7"]) == 2, (name, command)
            captured = capsys.readouterr()
            assert captured.out == "", (name, command)
            assert captured.err.startswith("error: ") and str(path) in captured.err


@pytest.mark.parametrize("command", ["volume-check", "isometry-check"])
@pytest.mark.parametrize("scale", ["1e160", "1e200"])
def test_cli_refuses_maps_whose_residual_is_not_finite(command, scale,
                                                       tmp_path, capsys, disc):
    """z -> 10^200 z has finite float values, but the metric at its image
    overflows and the residual is NaN: an input error (exit 2), never a
    pass that drops the NaN from the maximum."""
    payload = identity_payload(disc)
    _term(payload).update(re=scale)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(payload))
    assert main([command, "--space", "typeI:1,1", "--maps", str(path),
                 "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot be evaluated in floats" in captured.err


@pytest.mark.parametrize("command", ["volume-check", "isometry-check"])
def test_map_that_overflows_writes_one_stderr_line(command, tmp_path, disc):
    """z -> 10^200 z overflows the metric at its image: the command writes
    the one ``error:`` line on stderr, and no numpy warning before it."""
    payload = identity_payload(disc)
    _term(payload).update(re="1e200")
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(payload))
    run = _run_checkout(command, "--space", "typeI:1,1", "--maps", str(path),
                        "--seed", "7")
    assert run.returncode == 2 and run.stdout == b""
    lines = run.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


# the options of each subcommand: a tolerance flag only where it is read
CLI_OPTIONS = {
    "describe": {"--space", "--seed", "--output"},
    "rho": {"--space", "--output"},
    "metric": {"--space", "--seed", "--output", "--points"},
    "einstein": {"--space", "--seed", "--output", "--samples", "--einstein-tol"},
    "hyp1": {"--space", "--seed", "--output", "--max-order", "--budget"},
    "hyp2": {"--space", "--seed", "--output"},
    "hyp3": {"--space", "--seed", "--output", "--prime", "--oracle-budget"},
    "volume-check": {"--space", "--seed", "--output", "--maps", "--samples",
                     "--float-tol"},
    "isometry-check": {"--space", "--seed", "--output", "--maps", "--samples",
                       "--float-tol"},
    "selftest": {"--seed", "--output", "--float-tol", "--einstein-tol"},
}


def test_cli_options_per_command(capsys):
    """The parser's option set, pinned per subcommand (43 options); a
    tolerance flag on a command that ignores it is a usage error."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    assert got == CLI_OPTIONS
    assert sum(map(len, got.values())) == 43
    for flag in ("--float-tol", "--einstein-tol"):
        assert main(["hyp1", "--space", "typeIV:3", "--seed", "7", flag,
                     "1e-3"]) == 2, flag
        assert capsys.readouterr().out == ""


def test_cli_refuses_bad_tolerances(capsys):
    """A tolerance is a finite number >= 0: NaN and negative values would
    fail every check and an infinite one pass every check, so each is a
    usage error.  0 is a tolerance (``test_cli_exit_codes``)."""
    for value in ("nan", "-1", "inf", "-inf", "1e400", "abc"):
        for argv in (["einstein", "--space", "typeIV:3", "--seed", "7",
                      f"--einstein-tol={value}"],
                     ["volume-check", "--space", "typeI:1,1", "--maps",
                      "unread.json", "--seed", "7", f"--float-tol={value}"],
                     ["selftest", f"--einstein-tol={value}"]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and "finite number >= 0" in captured.err, argv


def test_cli_exit_codes(capsys, monkeypatch):
    """0 pass, 1 check failure, 2 usage error, 3 internal error."""
    from hermsym.gauss import GaussRational
    from hermsym.segre import SegreFamily
    assert main(["hyp2", "--space", "typeIV:3", "--seed", "7"]) == 0
    assert main(["einstein", "--space", "typeIV:3", "--seed", "7",
                 "--einstein-tol", "0"]) == 1
    assert main(["hyp2", "--space", "typeIV:3"]) == 2
    capsys.readouterr()
    # an internal invariant breaks: no point lies on the family any more
    monkeypatch.setattr(SegreFamily, "rho_at",
                        lambda self, z, xi: GaussRational(1))
    assert main(["hyp1", "--space", "typeIV:3", "--seed", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert "special point is not on the family" in captured.err
    assert captured.err.count("\n") == 1
    # any other exception is an internal error too, never a check failure
    monkeypatch.undo()
    monkeypatch.setattr(SegreFamily, "first_jets",
                        lambda self, point: {}["missing"])
    assert main(["hyp2", "--space", "typeIV:3", "--seed", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: KeyError: 'missing'\n"

    def boom(self, point):
        raise ValueError("boom")
    # so is a ValueError raised inside the program: exit 2 is only for input
    monkeypatch.setattr(SegreFamily, "first_jets", boom)
    assert main(["hyp2", "--space", "typeIV:3", "--seed", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ValueError: boom\n"
    # the pencil recipe is the program's own: a pencil off the variety is
    # an internal error, not a usage error
    monkeypatch.undo()
    from hermsym import acceptance
    recipe = acceptance.transversality_recipe
    monkeypatch.setattr(acceptance, "transversality_recipe", lambda fam, seed: (
        {v: GaussRational(0) for v in fam.zvars},) + recipe(fam, seed)[1:])
    assert main(["hyp2", "--space", "typeIV:3", "--seed", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: OffVarietyError: ")
    # count flags out of range are usage errors
    for argv in (["hyp1", "--space", "typeIV:3", "--seed", "1", "--max-order", "-1"],
                 ["einstein", "--space", "typeIV:3", "--seed", "7", "--samples", "0"],
                 ["einstein", "--space", "typeIV:3", "--seed", "7", "--samples", "1"],
                 ["metric", "--space", "typeIV:3", "--seed", "7", "--points", "-1"],
                 ["metric", "--space", "typeIV:3", "--seed", "7", "--points", "0"],
                 ["hyp3", "--space", "typeIV:3", "--seed", "7", "--oracle-budget", "0"],
                 ["hyp1", "--space", "typeI:2,2", "--seed", "7", "--budget", "0"],
                 ["hyp1", "--space", "typeI:2,2", "--seed", "7", "--budget", "-5"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "must be >= " in captured.err, argv
    # a count or a prime that is not an integer is refused with the kind of
    # value expected, never with the name of a parsing function
    for argv in (["hyp1", "--space", "typeIV:3", "--seed", "7", "--budget", "abc"],
                 ["metric", "--space", "typeIV:3", "--seed", "7", "--points", "1.5"],
                 ["hyp1", "--space", "typeIV:3", "--seed", "7", "--max-order", "x"],
                 ["hyp3", "--space", "typeIV:3", "--seed", "7", "--oracle-budget", "x"],
                 ["einstein", "--space", "typeIV:3", "--seed", "7", "--samples", "x"],
                 ["hyp3", "--space", "typeIV:3", "--seed", "7", "--prime", "abc"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f"got {argv[-1]!r}" in captured.err, argv
        assert "parse" not in captured.err and "_prime" not in captured.err, argv
    # the oracle's int64 kernel needs p < 2**31; a larger prime is refused
    # before any primality trial
    for prime in (str(2 ** 31 - 1 + 12), str(10 ** 40 + 1)):
        assert main(["hyp3", "--space", "typeIV:3", "--seed", "7",
                     "--prime", prime]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be below 2**31" in captured.err
    # a space whose parameters are not integers is refused with the grammar
    for space in ("typeI:a,b", "typeI:"):
        assert main(["describe", "--space", space]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "typeI:p,q | typeII:n | typeIII:n" in captured.err, space
    # an exponent fit off the genus of the kind table is a check failure
    import dataclasses
    from hermsym import spaces
    monkeypatch.setitem(spaces.KINDS, "typeIV", dataclasses.replace(
        spaces.KINDS["typeIV"], genus=lambda n: n + 1))
    assert main(["einstein", "--space", "typeIV:3", "--seed", "7"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_hyp2_refuses_one_dimensional_cells(capsys):
    """A rank-2 pencil needs two cell coordinates."""
    for space in ("typeI:1,1", "typeII:2"):
        assert main(["hyp2", "--space", space, "--seed", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dimension >= 2" in captured.err


def test_hyp3_refuses_non_prime(capsys):
    """Modulo a composite the oracle meets zero divisors: refused up front."""
    for prime in ("15", "21", "6", "1", "0"):
        assert main(["hyp3", "--space", "typeIV:3", "--seed", "7",
                     "--prime", prime]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be a prime" in captured.err


def test_hyp3_honours_prime(capsys):
    """The conjugate point is chosen admissible modulo --prime, and a modular
    factor is reported as a refutation lead, not as a failed check."""
    assert main(["hyp3", "--space", "typeI:2,2", "--seed", "7",
                 "--prime", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["witness"]["oracle"]["status"] == "irreducible_certified"
    assert report["witness"]["oracle"]["prime"] == 3
    assert report["evidence"] == "exact" and report["passed"]
    # in characteristic 2 the quadric's sum of squares is a square
    assert main(["hyp3", "--space", "typeIV:3", "--seed", "7",
                 "--prime", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    oracle = report["witness"]["oracle"]
    assert oracle["status"] == "factor_found"
    assert report["evidence"] == "support-only" and report["passed"]
    # the lead is kept: its terms divide the reduced target modulo 2
    from hermsym.gauss import GaussRational
    from hermsym.modp import PolyModP, reduce_mod
    from hermsym.segre import SegreFamily
    from oracles import divide_modp
    space = build_space("typeIV:3")
    xi = {v: GaussRational(c["re"], c["im"]) for v, c in oracle["xi"].items()}
    target = reduce_mod(SegreFamily(space).specialize(xi), 2)
    terms = oracle["factor"]
    assert terms == sorted(terms) and all(r % 2 for _, r in terms)
    factor = PolyModP(space.vars, 2, {tuple(e): r for e, r in terms})
    assert 1 <= factor.degree() < target.degree()
    assert divide_modp(target, factor) is not None
    # a certified run carries no factor entry
    assert main(["hyp3", "--space", "typeIV:3", "--seed", "7"]) == 0
    assert "factor" not in json.loads(capsys.readouterr().out)["witness"]["oracle"]


def test_cli_refuses_zero_map_samples(capsys, tmp_path, disc):
    """A map check over zero samples would pass vacuously."""
    path = tmp_path / "maps.json"
    path.write_text(json.dumps(identity_payload(disc)))
    for command in ("volume-check", "isometry-check"):
        assert main([command, "--space", "typeI:1,1", "--maps", str(path),
                     "--seed", "7", "--samples", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_cli_commands_leave_rho_unexpanded(capsys, monkeypatch):
    """hyp1, hyp2, metric, describe and einstein evaluate the family from
    psi and never build its expansion, the z-groups (which the flattened
    ``SegreFamily.rho`` reads too)."""
    from hermsym.segre import SegreFamily

    def refuse(self):
        raise AssertionError("the expanded family polynomial was read")

    monkeypatch.setattr(SegreFamily, "z_groups", property(refuse))
    for argv in (["hyp1", "--space", "typeI:2,2", "--seed", "7"],
                 ["hyp2", "--space", "e16", "--seed", "7"],
                 ["metric", "--space", "typeIII:2", "--seed", "7"],
                 ["describe", "--space", "typeII:4", "--seed", "7"],
                 ["einstein", "--space", "typeIV:3", "--seed", "7"]):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_commands_read_the_exponent_from_the_kind_table(tmp_path, capsys,
                                                         monkeypatch, disc):
    """describe and volume-check take lambda from the per-kind table: with
    every binding of the float fit made to raise, their bytes are unchanged."""
    from hermsym.floats import EinsteinError
    path = tmp_path / "maps.json"
    path.write_text(json.dumps(identity_payload(disc)))
    jobs = [["describe", "--space", "typeII:4", "--seed", "7"],
            ["describe", "--space", "e16"],
            ["volume-check", "--space", "typeI:1,1", "--maps", str(path),
             "--seed", "7"]]
    before = [run_cli(capsys, argv) for argv in jobs]

    def refuse(*args, **kwargs):
        raise EinsteinError("the exponent was fitted")

    for name, module in list(sys.modules.items()):
        if name.startswith("hermsym") and hasattr(module, "einstein_fit"):
            monkeypatch.setattr(module, "einstein_fit", refuse)
    assert [run_cli(capsys, argv) for argv in jobs] == before
    assert all(code == 0 for code, _ in before)


# ---------------------------------------------------------------------------
# map files on typeI:1,1 as a property: valid maps with coefficients from
# 10^-300 to 10^300 and exponents 0..60, and mutations of them
# ---------------------------------------------------------------------------

MAP_COMMANDS = ("volume-check", "isometry-check")
FUZZ_RUNS = settings(max_examples=150, deadline=None, derandomize=True)

# the one component of z -> z and of the Moebius isometry of tests/maps
ISOMETRIES = [{"num": {"vars": ["z1_1"], "terms": [{"exp": [1], "re": "1"}]}},
              json.loads(MOEBIUS.read_text())["maps"][0][0]]
# a decimal coefficient m * 10^e, as text ("-3e-120") or as a JSON number
decimals = st.builds(lambda neg, m, e: f"{'-' if neg else ''}{m}e{e}",
                     st.booleans(), st.integers(1, 9), st.integers(-300, 300))
coefficients = st.one_of(decimals, decimals.map(float), st.just("0"),
                         st.builds("{}/{}".format, st.integers(-9, 9),
                                   st.integers(1, 9)))


@st.composite
def polynomials(draw, constant=None):
    """A polynomial in z1_1 of one to four terms; ``constant``, if given,
    is its coefficient at exponent 0."""
    exps = draw(st.lists(st.integers(0 if constant is None else 1, 60),
                         min_size=1, max_size=4, unique=True))
    terms = [{"exp": [k], "re": draw(coefficients), "im": draw(coefficients)}
             for k in exps]
    if constant is not None:
        terms.insert(draw(st.integers(0, len(terms))),
                     {"exp": [0], "re": constant})
    return {"vars": ["z1_1"], "terms": terms}


@st.composite
def components(draw):
    """A component z -> num / den with den(0) = 1 (or no den at all), or
    one of the shipped isometries of the disc."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(ISOMETRIES))
    comp = {"num": draw(polynomials())}
    if draw(st.booleans()):
        comp["den"] = draw(polynomials(constant="1"))
    return comp


@st.composite
def map_files(draw):
    """A well-formed map file of one to three maps on typeI:1,1."""
    maps = [[draw(components())] for _ in range(draw(st.integers(1, 3)))]
    payload = {"maps": maps}
    if draw(st.booleans()):
        payload["lambdas"] = [draw(st.builds("{}/{}".format, st.integers(1, 9),
                                             st.integers(1, 9))) for _ in maps]
    return json.loads(json.dumps(payload))     # shares no shipped isometry


# where a wrong type goes: the payload and each node on the way to a term
TERM = ("maps", 0, 0, "num", "terms", 0)
TYPE_PATHS = [(), ("maps",), ("maps", 0), ("maps", 0, 0), ("maps", 0, 0, "num"),
              ("maps", 0, 0, "num", "vars"), TERM[:-1], TERM, TERM + ("exp",),
              TERM + ("exp", 0), TERM + ("re",), TERM + ("im",),
              ("maps", 0, 0, "den"), ("lambdas",)]
WRONG_VALUES = [7, 1.5, "x", None, True, [], {}, [[]], {"maps": []}]
# bytes that are not UTF-8, and JSON numbers that are not finite floats
BAD_BYTES = [b"\xff", b"\xfe\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x80"]
NONFINITE = ["NaN", "Infinity", "-Infinity", "1e400", "-1e999"]


def _put(payload, path, value):
    if not path:
        return value
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


@st.composite
def mutated_files(draw):
    """A map file from ``map_files`` broken one way, as bytes."""
    payload = draw(map_files())
    term = payload["maps"][0][0]["num"]["terms"][0]
    how = draw(st.sampled_from(["type", "repeat", "huge-exp", "encoding",
                                "nesting", "nonfinite"]))
    if how == "type":
        payload = _put(payload, draw(st.sampled_from(TYPE_PATHS)),
                       draw(st.sampled_from(WRONG_VALUES)))
    elif how == "repeat":
        payload["maps"][0][0]["num"]["terms"].append(
            dict(term, re=draw(coefficients)))
    elif how == "huge-exp":
        term["exp"] = [draw(st.integers(61, 10 ** 40))]
    elif how == "nonfinite":
        term[draw(st.sampled_from(["re", "im"]))] = "RAW"
    text = json.dumps(payload)
    if how == "nonfinite":
        text = text.replace('"RAW"', draw(st.sampled_from(NONFINITE)))
    if how == "nesting":
        depth = draw(st.integers(1, 3000))
        text = "[" * depth + text + "]" * depth
    data = text.encode()
    if how == "encoding":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return data


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "maps.json"


def _exit_codes(path, data):
    """Exit codes of both map commands on the map file ``data``."""
    path.write_bytes(data)
    codes = []
    for command in MAP_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(main([command, "--space", "typeI:1,1", "--maps",
                               str(path), "--seed", "7"]))
    return codes


@FUZZ_RUNS
@given(st.one_of(map_files().map(lambda p: json.dumps(p).encode()),
                 mutated_files()))
def test_map_files_exit_0_1_or_2(fuzz_path, data):
    """Any map file, well-formed or broken, is a verdict (0, 1) or an input
    error (2), never an internal error (3)."""
    for code in _exit_codes(fuzz_path, data):
        assert code in (0, 1, 2)


@FUZZ_RUNS
@given(decimals, decimals)
def test_scaling_by_two_or_more_is_no_isometry(fuzz_path, re, im):
    """z -> c z with |c| >= 2 never passes isometry-check: it fails the
    check (1) or cannot be evaluated in floats (2)."""
    assume(Fraction(re) ** 2 + Fraction(im) ** 2 >= 4)
    payload = {"maps": [[{"num": {"vars": ["z1_1"], "terms": [
        {"exp": [1], "re": re, "im": im}]}}]]}
    assert _exit_codes(fuzz_path, json.dumps(payload).encode())[1] in (1, 2)


@FUZZ_RUNS
@given(map_files(), st.randoms(use_true_random=False))
def test_map_file_order_keeps_the_exit_code(fuzz_path, payload, rnd):
    """Permuting each polynomial's terms, and the maps together with their
    lambdas, keeps both commands' exit codes."""
    want = _exit_codes(fuzz_path, json.dumps(payload).encode())
    for (comp,) in payload["maps"]:
        for poly in (comp["num"], comp.get("den")):
            if poly is not None:
                rnd.shuffle(poly["terms"])
    order = list(range(len(payload["maps"])))
    rnd.shuffle(order)
    payload["maps"] = [payload["maps"][i] for i in order]
    if "lambdas" in payload:
        payload["lambdas"] = [payload["lambdas"][i] for i in order]
    assert _exit_codes(fuzz_path, json.dumps(payload).encode()) == want
