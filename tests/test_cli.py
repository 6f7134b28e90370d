"""End-to-end command tests, run in process against main(argv)."""

import dataclasses
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import designlab
from designlab import cli, lattices
from designlab._fixtures import fixture_text
from designlab.cli import main
from designlab.codes import (Verdict, d16_plus, golay_g24, hamming_e8,
                             shell_design_report, two_weight_design_check)
from designlab.errors import FixtureError
from designlab.lattices import (Lattice, _int_dtype, construction_a,
                                lattice_e8, shell_enum, shell_sizes_up_to,
                                theta_design_report, theta_fit_norm)
from designlab.modforms import FitResult, eta_quotient
from designlab.qseries import QSeries
from designlab.voa import modular_obstruction, strength_at

import parse_oracle


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(["--format", "json"] + argv)
    assert code == 0, text
    return json.loads(text)


def series_coeffs(payload):
    """Map logical exponent -> Fraction from a series payload."""
    s = payload["series"]
    e0 = Fraction(s["offset24"], 24)
    return {e0 + i: Fraction(c) for i, c in s["coeffs"]}


# -- eta ---------------------------------------------------------------

def test_eta_cube_power_eight():
    got = series_coeffs(run_json(["eta", "--spec", "3:8", "--prec", "13"]))
    assert got == {1: 1, 4: -8, 7: 20, 13: -70}


def test_eta_discriminant_head():
    got = series_coeffs(run_json(["eta", "--spec", "1:24", "--prec", "2"]))
    assert got == {1: 1, 2: -24, 3: 252}


def test_eta_empty_spec_is_one():
    got = series_coeffs(run_json(["eta", "--spec", "", "--prec", "5"]))
    assert got == {0: 1}


def test_eta_text_format():
    code, text = run(["eta", "--spec", "3:8", "--prec", "13"])
    assert code == 0
    assert "q - 8*q^(4) + 20*q^(7) - 70*q^(13)" in text


def test_eta_coefficients_past_the_int_str_limit():
    # r = -10^30: the coefficient of q^n grows like r^n / n!, so the top
    # coefficients have more digits than str(int) converts by default
    spec = "1:-1000000000000000000000000000000"
    payload = run_json(["eta", "--spec", spec, "--prec", "160"])
    coeffs = payload["series"]["coeffs"]
    assert len(coeffs) == 161
    assert coeffs[1] == [1, "1000000000000000000000000000000/1"]
    assert max(len(c) for _, c in coeffs) > 4300
    assert QSeries.from_json(json.dumps(payload["series"])) == \
        eta_quotient([(1, -10 ** 30)], 160)
    code, text = run(["eta", "--spec", spec, "--prec", "160"])
    assert code == 0
    assert "+ 1000000000000000000000000000000*q^(" in text


def pretty_from_coeffs(s, max_terms=10):
    """The text form of a series read off all its nonzero terms."""
    if s.is_zero():
        return "0"
    out = []
    coeffs = dict(s.nonzero_terms())
    for i in sorted(coeffs)[:max_terms]:
        c, e = coeffs[i], s.exponent(i)
        estr = "" if e == 0 else ("q" if e == 1 else f"q^({e})")
        body = f"{abs(c)}*{estr}" if estr and abs(c) != 1 else (estr or str(abs(c)))
        if out:
            out.append(f" {'-' if c < 0 else '+'} {body}")
        else:
            out.append(f"-{body}" if c < 0 else body)
    return "".join(out) + (" + ..." if len(coeffs) > max_terms else "")


def test_pretty_series_reads_only_its_head():
    series = [QSeries.zero(4), QSeries.one(3), eta_quotient([(3, 8)], 13),
              eta_quotient([(2, 8), (1, -4), (4, 2)], 40),
              QSeries(-5, 30, {0: Fraction(-1, 3), 7: 2, 30: Fraction(5, 2)}),
              QSeries.from_int_list(24, [1, 0, -1] * 4)]
    for s in series:
        for n in (1, 3, 10):
            assert cli._pretty_series(s, n) == pretty_from_coeffs(s, n)


def test_eta_bad_spec_rejected():
    code, _ = run(["eta", "--spec", "3;8", "--prec", "5"])
    assert code == 2
    code, _ = run(["eta", "--spec", "1:24", "--prec", "0"])
    assert code == 2
    code, _ = run(["eta", "--spec", "0:1", "--prec", "5"])
    assert code == 2


# -- hand parsers against the regex oracle ---------------------------

# digits as \d reads them (Unicode decimals: Arabic-Indic, fullwidth,
# mathematical) and characters it refuses (superscript, fraction)
DIGITS = "0123456789\u0663\uff19\U0001d7d8"
NOT_DIGITS = "\u00b2\u00bd"
# whitespace as \s reads it, and a zero-width space, which is not
SPACES = " \t\n\x1c\x85\xa0\u2003\u3000"
JUNK = "+_-:,x\u200b"


def _run_of(chars, size=4):
    return st.text(alphabet=chars, max_size=size)


_ETA_PART = st.builds(
    lambda *pieces: "".join(pieces), _run_of(SPACES),
    _run_of(DIGITS + NOT_DIGITS + "+_"), st.sampled_from([":", "", "::"]),
    st.sampled_from(["", "-", "--", "+", " "]),
    _run_of(DIGITS + NOT_DIGITS + "_"), _run_of(SPACES))
ETA_SPECS = st.one_of(st.lists(_ETA_PART, max_size=3).map(",".join),
                      _run_of(DIGITS + SPACES + JUNK, 10))
ZN_NAMES = st.builds(lambda head, body: head + body,
                     st.sampled_from(["Z", "z", "", "ZZ", " Z", "Y"]),
                     _run_of(DIGITS + NOT_DIGITS + SPACES + "+_-x", 5))
ZONAL_SPECS = st.builds(
    lambda head, degree, colon, direction: head + degree + colon + direction,
    st.sampled_from(["zonal:", "Zonal:", "zonal", "zonal: ", "one", ""]),
    _run_of(DIGITS + NOT_DIGITS + "+_ "), st.sampled_from([":", "", "::"]),
    _run_of(DIGITS + NOT_DIGITS + SPACES + JUNK, 8))
LONG = "9" * 5000       # past int()'s digit limit: refused the same way


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("refused", str(exc))


def test_digit_and_space_classes_are_the_regex_classes():
    # the hand parsers read \d as str.isdecimal and \s as str.strip does,
    # which holds on every code point
    digit, space = re.compile(r"\d"), re.compile(r"\s")
    for ch in map(chr, range(0x110000)):
        assert bool(digit.fullmatch(ch)) == ch.isdecimal(), hex(ord(ch))
        assert bool(space.fullmatch(ch)) == (ch.strip() == ""), hex(ord(ch))


@settings(max_examples=400, deadline=None)
@given(ETA_SPECS)
@example("3:8")
@example(" 3:8 ,\t2:-7\n")
@example("3:+8")
@example("+3:8")
@example("3:8_0")
@example("3_0:8")
@example("3 :8")
@example("3: 8")
@example("3:--8")
@example("\u0663:-\uff19")
@example("3:8,")
@example(",")
@example("")
@example(":8")
@example("3:")
@example(f"1:-{LONG}")
def test_eta_spec_parser_matches_the_regex(spec):
    assert _outcome(cli._parse_eta_spec, spec) == \
        _outcome(parse_oracle.eta_spec, spec)


@settings(max_examples=400, deadline=None)
@given(ZN_NAMES)
@example("Z8")
@example("z32")
@example("Z33")
@example("Z0")
@example("Z00032")
@example("Z")
@example("Z+8")
@example("Z_8")
@example("Z-1")
@example("Z 8")
@example("Z8 ")
@example("Z\u0663")
@example("Z\u00b2")
@example(f"Z{LONG}")
def test_zn_names_match_the_regex(name):
    # a Zn name is Zn, or refused by the 1 <= n <= 32 bound; any other
    # name here falls through to "unknown lattice"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "lattice_zn", lambda n: ("Z", n))
        mp.setattr(cli, "user_fixture_path", lambda name: None)
        got = _outcome(cli._resolve_lattice, name)
    want = _outcome(parse_oracle.zn_rank, name)
    if want is None:
        assert got[0] == "refused" and got[1].startswith("unknown lattice")
    else:
        assert got == (("Z", want) if isinstance(want, int) else want)


@settings(max_examples=400, deadline=None)
@given(ZONAL_SPECS)
@example("zonal:2:1,0")
@example("zonal:2:-1,0")
@example("zonal:2:1,,0")
@example("zonal:2:,")
@example("zonal:2:-,-")
@example("zonal:2:+1,0")
@example("zonal:2:1_0,0")
@example("zonal:2:1, 0")
@example("zonal: 2:1")
@example("zonal:2:")
@example("zonal::1")
@example("zonal:2:1:0")
@example("zonal:\u0662:\u0661,-\u0660")
@example("xzonal:2:1")
@example(f"zonal:{LONG}:1,0")
@example(f"zonal:2:{LONG},0")
def test_zonal_specs_match_the_regex(spec):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "zonal_harmonic_coords",
                   lambda lat, degree, direction: (degree, direction))
        mp.setattr(cli, "constant_poly", lambda rank: "one")
        got = _outcome(cli._parse_poly, lattice_e8(), spec)
    want = "one" if spec == "one" else _outcome(parse_oracle.zonal_spec, spec)
    assert got == want


# -- code-design -------------------------------------------------------

def test_command_runs_with_older_objects_frozen(monkeypatch):
    frozen = []
    eta = cli._TABLE["eta"]

    def spy(cfg, out):
        frozen.append(gc.get_freeze_count())
        return eta.handler(cfg, out)
    monkeypatch.setitem(cli._TABLE, "eta",
                        dataclasses.replace(eta, handler=spy))
    assert gc.get_freeze_count() == 0
    run_json(["eta", "--spec", "3:8", "--prec", "5"])
    assert frozen[-1] > 0 and gc.get_freeze_count() == 0
    # a caller's own frozen objects are left exactly as they were
    gc.freeze()
    try:
        own = gc.get_freeze_count()
        run_json(["eta", "--spec", "3:8", "--prec", "5"])
        assert frozen[-1] == own == gc.get_freeze_count()
    finally:
        gc.unfreeze()


def test_golay_octads_5_design():
    got = run_json(["code-design", "--code", "golay24",
                    "--weight", "8", "--t", "5"])
    assert got["schema"] == "v1"
    assert got["verdict"] == "design"
    assert got["lambda"] == 1
    assert got["blocks"] == 759


def test_hamming_weight4_not_4_design():
    got = run_json(["code-design", "--code", "hamming8",
                    "--weight", "4", "--t", "4"])
    assert got["verdict"] == "not a design"
    assert got["lambda"] is None
    w = got["witness"]
    assert w["count_a"] != w["count_b"]
    assert len(w["subset_a"]) == 4 and len(w["subset_b"]) == 4


@pytest.mark.parametrize("t, mode, lines", [
    (5, "Assmus-Mattson",
     "golay24 weight-12 family (2576 blocks): 5-design, lambda=48\n"),
    (6, "listing",
     "golay24 weight-12 family: not a 6-design\n"
     "  witness: (0, 1, 2, 3, 4, 6) covered 16 times, (0, 1, 2, 3, 4, 5) "
     "covered 18 times\n")])
def test_code_design_names_its_route(t, mode, lines):
    argv = ["code-design", "--code", "golay24", "--weight", "12", "--t",
            str(t)]
    got = run_json(argv)
    assert got.pop("mode") == mode
    assert (got["blocks"], got["verdict"]) == \
        (2576, "design" if t == 5 else "not a design")
    # the text names no route: the same lines whichever decided
    assert run(["--format", "text"] + argv) == (0, lines)


def test_golay_two_weight_odd_degrees():
    got = run_json(["code-design", "--code", "golay24", "--weights", "8,16",
                    "--Tset", "odd", "--max-degree", "5"])
    assert got["verdict"] == "pass"
    assert got["per_degree"] == {"1": True, "3": True, "5": True}
    assert got["weights"] == [8, 16]
    assert got["blocks"] == 1518
    # 5 is the default --max-degree
    assert run_json(["code-design", "--code", "golay24", "--weights", "8,16",
                     "--Tset", "odd"]) == got


@pytest.mark.parametrize("args, fields, modes", [
    ("golay24 --weights 8,16 --Tset odd --max-degree 5",
     {"T": [1, 3, 5], "blocks": 1518, "weights": [8, 16], "verdict": "pass",
      "per_degree": {"1": True, "3": True, "5": True}},
     ["complement"] * 3),
    ("golay24 --weights 12,12 --Tset 1,2,3 --max-degree 3",
     {"T": [1, 2, 3], "blocks": 2576, "weights": [12, 12], "verdict": "pass",
      "per_degree": {"1": True, "2": True, "3": True}},
     ["complement", "harmonic sums", "complement"]),
    ("d16plus --weights 4,12 --Tset 2,4 --max-degree 4",
     {"T": [2, 4], "blocks": 56, "weights": [4, 12], "verdict": "fail",
      "per_degree": {"2": False, "4": False}},
     ["harmonic sums"] * 2),
    # no all-ones word: the weight-2 shell is not closed under complement
    ("{path} --weights 2,2 --Tset 1,2 --max-degree 2",
     {"T": [1, 2], "blocks": 3, "weights": [2, 2], "verdict": "fail",
      "per_degree": {"1": False, "2": True}},
     ["harmonic sums"] * 2),
])
def test_code_design_modes(tmp_path, args, fields, modes):
    path = tmp_path / "c4.txt"
    path.write_text("1100\n0110\n")
    argv = args.format(path=path).split()
    got = run_json(["code-design", "--code"] + argv)
    assert got.pop("modes") == {str(j): m for j, m in zip(fields["T"], modes)}
    assert got == dict(fields, schema="v1", command="code-design",
                       code=argv[0])


@pytest.mark.parametrize("code, weights, status", [
    ("hamming8", "4,4", 2), ("golay24", "8,16", 1), ("{path}", "2,3", 2)])
def test_max_degree_far_past_n_is_refused_first(code, weights, status,
                                                tmp_path, monkeypatch,
                                                capsys):
    # --Tset odd stops at the first odd degree over n, which is refused as
    # before: C(24, 7) over the tableau cap for golay24, degree 9 > 8 for
    # hamming8, degree 7 > 5 for a length-5 code
    path = tmp_path / "c5.txt"
    path.write_text("11000\n01100\n")
    code = code.format(path=path)
    lengths = []
    check = cli.two_weight_design_check

    def spy(c, ell, degrees):
        lengths.append(len(degrees))
        return check(c, ell, degrees)

    monkeypatch.setattr(cli, "two_weight_design_check", spy)
    errors = []
    for max_degree in (30, 10 ** 12):
        start = time.perf_counter()
        assert run(["code-design", "--code", code, "--weights", weights,
                    "--Tset", "odd", "--max-degree", str(max_degree)]) \
            == (status, "")
        assert time.perf_counter() - start < 1.0
        errors.append(one_error(capsys))
    assert errors[0] == errors[1]
    assert errors[1]["type"] == ("usage" if status == 2
                                 else "CapExceededError")
    assert lengths[1] <= 13
    if code == "hamming8":
        assert errors[1]["message"] == "harmonic degree 9 must lie in 0..8"


def test_code_design_usage_errors():
    # both or neither of --t/--Tset
    assert run(["code-design", "--code", "golay24", "--weight", "8"])[0] == 2
    assert run(["code-design", "--code", "golay24", "--weight", "8",
                "--t", "2", "--Tset", "odd"])[0] == 2
    # non-complementary pair
    assert run(["code-design", "--code", "golay24", "--weights", "8,12",
                "--Tset", "odd"])[0] == 2
    # empty shell, and an empty shell pair (a negative weight included)
    assert run(["code-design", "--code", "golay24", "--weight", "6",
                "--t", "1"])[0] == 2
    for weights in ("4,20", "-6,30"):
        assert run(["code-design", "--code", "golay24",
                    f"--weights={weights}", "--Tset", "1,2",
                    "--max-degree", "2"])[0] == 2
    # unknown fixture is rejected before any computation
    assert run(["code-design", "--code", "nosuch", "--weight", "4",
                "--t", "1"])[0] == 2
    # negative strength
    assert run(["code-design", "--code", "hamming8", "--weight", "4",
                "--t", "-1"])[0] == 2
    # strength beyond the block length; up to it, a lambda = 0 design
    assert run(["code-design", "--code", "hamming8", "--weight", "4",
                "--t", "9"])[0] == 2
    assert run_json(["code-design", "--code", "hamming8", "--weight", "4",
                     "--t", "8"])["lambda"] == 0


def test_code_fixture_by_path(tmp_path):
    p = tmp_path / "rep2.txt"
    p.write_text("11\n")
    got = run_json(["code-design", "--code", str(p),
                    "--weight", "2", "--t", "1"])
    assert got["verdict"] == "design"
    assert got["lambda"] == 1


def test_code_fixture_via_env(tmp_path, monkeypatch):
    (tmp_path / "rep2.txt").write_text("11\n")
    monkeypatch.setenv("DESIGNLAB_FIXTURES", str(tmp_path))
    got = run_json(["code-design", "--code", "rep2",
                    "--weight", "2", "--t", "1"])
    assert got["lambda"] == 1


def test_fixture_dir_leaves_bundled_fixtures_alone(tmp_path, monkeypatch):
    (tmp_path / "rep2.txt").write_text("11\n")
    monkeypatch.setenv("DESIGNLAB_FIXTURES", str(tmp_path))
    bundled = Path(designlab.__file__).parent / "fixtures"
    assert fixture_text("codes", "golay24.txt") == \
        (bundled / "codes" / "golay24.txt").read_text()
    with pytest.raises(FixtureError, match="fixture not found"):
        fixture_text("codes", "rep2.txt")
    # the built-ins are cached per process: rebuild them under the variable
    golay_g24.cache_clear()
    lattice_e8.cache_clear()
    got = run_json(["code-design", "--code", "golay24",
                    "--weight", "8", "--t", "5"])
    assert got["lambda"] == 1
    assert run_json(["shell", "--lattice", "E8", "--norm", "2"])["count"] == 240
    assert run_json(["code-design", "--code", "rep2",
                     "--weight", "2", "--t", "1"])["lambda"] == 1


# -- lattice-design ----------------------------------------------------

def test_square_lattice_strength_3():
    got = run_json(["lattice-design", "--lattice", "Z2",
                    "--norm", "1", "--t", "4"])
    assert got["strength"] == 3
    assert got["size"] == 4
    assert got["per_degree"]["4"] is False


def test_hexagonal_strength_5_both_criteria():
    m = run_json(["lattice-design", "--lattice", "A2",
                  "--norm", "2", "--t", "6"])
    z = run_json(["lattice-design", "--lattice", "A2",
                  "--norm", "2", "--t", "6", "--criterion", "zonal"])
    assert m["strength"] == 5 and z["strength"] == 5
    assert z["per_degree"]["6"] is False


@pytest.mark.parametrize("norm", ["1", "4"])
def test_zero_sphere_criteria_agree(norm):
    # on S^0 the kernel s^2 - 1 has norm zero: every degree passes
    got = {c: run_json(["lattice-design", "--lattice", "Z1", "--norm", norm,
                        "--t", "6", "--criterion", c])
           for c in ("moment", "zonal")}
    for payload in got.values():
        assert payload["size"] == 2 and payload["strength"] == 6
    assert got["moment"]["per_degree"] == got["zonal"]["per_degree"] == \
        {str(j): True for j in range(1, 7)}


@pytest.mark.parametrize("argv", [
    ["lattice-design", "--lattice", "Z2", "--norm", "1", "--t",
     str(10 ** 12), "--criterion", "moment"],
    ["lattice-design", "--lattice", "Z2", "--norm", "1", "--t",
     str(10 ** 12), "--criterion", "zonal"],
    ["lattice-design", "--lattice", "E8", "--norm", "8", "--t",
     str(lattices.DEGREE_CAP + 1), "--criterion", "zonal"],
    ["theta", "--lattice", "Z1", "--prec", str(10 ** 12)],
    ["theta", "--lattice", "Z2", "--poly", "zonal:1000000000:1,0",
     "--prec", "4"],
    ["lattice-design", "--lattice", "Z12", "--norm", "8", "--t",
     str(10 ** 12), "--criterion", "moment"],
    # a Harm_k degree over the tableau cap, before any basis is summed
    ["code-design", "--code", "golay24", "--weights", "8,16", "--Tset",
     "1,2,3,4,5,6", "--max-degree", "6"],
    # the theta criterion rebuilds its forms through q^(norm/2)
    ["lattice-design", "--lattice", "E8", "--norm", "1e400", "--t", "8",
     "--criterion", "theta"],
    # 2^25 codewords, refused before the word array is built
    ["code-design", "--code", "{tall}", "--weight", "1", "--t", "1"],
    # the degree cap comes before the theta depth check and the search
    ["lattice-design", "--lattice", "E8", "--norm", "2", "--t",
     str(lattices.DEGREE_CAP + 1), "--criterion", "theta"],
    ["lattice-design", "--lattice", "E8", "--norm", "2", "--t",
     str(lattices.DEGREE_CAP + 1), "--criterion", "theta", "--prec-norm",
     "168"]])
def test_over_cap_degrees_and_precisions_are_refused_at_once(argv, monkeypatch,
                                                             tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("the ball was enumerated")

    monkeypatch.setattr(lattices, "_vectors_by_doubled_norm", refuse)
    tall = tmp_path / "tall.txt"            # the 25 x 25 identity
    tall.write_text("".join("0" * i + "1" + "0" * (24 - i) + "\n"
                            for i in range(25)))
    argv = [x.format(tall=tall) for x in argv]
    start = time.perf_counter()
    assert run(["--format", "json"] + argv) == (1, "")
    assert time.perf_counter() - start < 1.0
    assert one_error(capsys)["type"] == "CapExceededError"


def test_e8_theta_criterion_far_norm():
    got = run_json(["lattice-design", "--lattice", "E8", "--norm", "1000",
                    "--t", "7", "--criterion", "theta"])
    assert got["strength"] == 7
    assert got["modes"]["2"] == "cusp space zero"
    assert got["modes"]["7"] == "antipodal"


def test_e8_theta_criterion_detects_degree_8_failure():
    got = run_json(["lattice-design", "--lattice", "E8", "--norm", "10",
                    "--t", "8", "--criterion", "theta"])
    assert got["strength"] == 7
    assert got["per_degree"]["8"] is False
    assert got["modes"]["8"] == "nonzero fitted coefficient"


def test_theta_criterion_rejects_non_unimodular():
    assert run(["lattice-design", "--lattice", "A2", "--norm", "2",
                "--t", "4", "--criterion", "theta"])[0] == 2
    assert run(["lattice-design", "--lattice", "E8", "--norm", "3",
                "--t", "4", "--criterion", "theta"])[0] == 2


def test_lattice_usage_errors():
    assert run(["lattice-design", "--lattice", "Q9", "--norm", "2",
                "--t", "3"])[0] == 2
    assert run(["lattice-design", "--lattice", "Z2", "--norm", "-1",
                "--t", "3"])[0] == 2
    assert run(["lattice-design", "--lattice", "Z2", "--norm", "1",
                "--t", "0"])[0] == 2
    assert run(["lattice-design", "--lattice", "Z2", "--norm", "abc",
                "--t", "3"])[0] == 2
    assert run(["shell", "--lattice", "Z2", "--norm", "1/0"])[0] == 2
    assert run(["lattice-design", "--lattice", "E8", "--norm", "2",
                "--t", "8", "--criterion", "theta", "--prec-norm", "-4"])[0] == 2
    # too shallow to fit the degree-8 theta in the 2-dimensional M_12;
    # norm 4 is deep enough
    assert run(["lattice-design", "--lattice", "E8", "--norm", "2",
                "--t", "8", "--criterion", "theta", "--prec-norm", "2"])[0] == 2
    assert run(["lattice-design", "--lattice", "E8", "--norm", "2",
                "--t", "8", "--criterion", "theta", "--prec-norm", "4"])[0] == 0


@pytest.mark.parametrize("lattice, rank", [
    ("E8", 8), ("CA:d16plus", 16), ("CA:golay24", 24)])
def test_theta_depth_matches_the_per_degree_loop(lattice, rank, capsys):
    for t in range(1, 201):
        needed = max((theta_fit_norm(rank, j) for j in range(2, t + 1, 2)
                      if not modular_obstruction(rank, j).forced), default=0)
        status, _ = run(["lattice-design", "--lattice", lattice, "--norm",
                         "2", "--t", str(t), "--criterion", "theta",
                         "--prec-norm", "1"])
        if needed:
            assert status == 2, t
            assert one_error(capsys)["message"].endswith(
                f"; use at least {needed}"), t
        else:               # no degree is fitted: nothing to enumerate
            assert status == 0, t


def test_theta_depth_refusal_at_any_t_is_immediate(capsys):
    t = lattices.DEGREE_CAP         # the largest t the degree cap lets through
    start = time.perf_counter()
    assert run(["lattice-design", "--lattice", "E8", "--norm", "2", "--t",
                str(t), "--criterion", "theta"]) == (2, "")
    assert time.perf_counter() - start < 1.0
    # the deepest fit is at degree t: weight t + 4 = 8 (mod 12)
    assert one_error(capsys)["message"].endswith(
        f"use at least {2 * ((t + 4) // 12 + 1)}")


def integer_row_basis(rows):
    """A basis of the integer span of the rows, by gcd elimination per
    column."""
    rows, basis = [list(r) for r in rows], []
    for col in range(len(rows[0])):
        while True:
            live = sorted((r for r in rows if r[col]), key=lambda r: abs(r[col]))
            if len(live) < 2:
                break
            for r in live[1:]:
                q = r[col] // live[0][col]
                r[:] = [x - q * y for x, y in zip(r, live[0])]
        if live:
            basis.append(live[0])
            rows.remove(live[0])
    return basis


def leech_gram():
    """The Leech lattice from golay24, scaled by sqrt(8): spanned by 2c per
    code generator c, 4(e_0 - e_j), 8e_0 and (-3, 1^23); Gram B B^T / 8."""
    gens = [[2 * (c >> i & 1) for i in range(24)] for c in golay_g24().gens]
    gens += [[4 * (i == 0) - 4 * (i == j) for i in range(24)]
             for j in range(1, 24)]
    gens += [[8 * (i == 0) for i in range(24)], [-3] + [1] * 23]
    basis = integer_row_basis(gens)
    assert len(basis) == 24
    return [[Fraction(np.dot(a, b), 8) for b in basis] for a in basis]


def test_theta_criterion_passes_every_fitted_degree_of_the_leech_shell(
        tmp_path, capsys):
    # the passing-evidence mode: every fitted degree (4, 6, 8, 10) reads a
    # zero coefficient along all 5 directions of a rank-24 lattice
    gram = leech_gram()
    assert all(x.denominator == 1 for row in gram for x in row)
    leech = Lattice(gram, "leech")
    assert shell_sizes_up_to(leech, 4) == {4: 196560}
    modes = {j: "antipodal" for j in range(1, 12, 2)}
    modes[2] = "cusp space zero"
    modes.update({j: "fit along 5 directions" for j in (4, 6, 8, 10)})
    for norm in (4, 100):
        rep = theta_design_report(leech, norm, 11, 4)
        assert (rep.verdicts, rep.strength) == (
            {j: Verdict(True, m) for j, m in modes.items()}, 11), norm
    path = tmp_path / "leech.txt"
    path.write_text("".join(" ".join(str(x) for x in row) + "\n"
                            for row in gram))
    request = ["lattice-design", "--lattice", str(path), "--norm", "4",
               "--criterion", "theta", "--t"]
    got = run_json(request + ["11"])
    assert got["modes"] == {str(j): m for j, m in modes.items()}
    assert (got["strength"], got["prec_norm"], got["directions_tested"]) \
        == (11, 4, 5)
    # degree 12 is fitted from an enumeration to norm 6
    assert run(request + ["12"]) == (2, "")
    assert one_error(capsys)["message"].endswith("use at least 6")


# -- one verdict record per degree -------------------------------------

# each route the CLI formats: its reports, then each mode they may give,
# mapped to the verdicts seen in it (a pass and a failure wherever the route
# can fail), then whether ``strength`` is the prefix of the verdicts
VERDICT_ROUTES = {
    "moment": (lambda: [lattices.moment_design_test(
        shell_enum(lattice_e8(), 2), 8)],
        {"power moments": {True, False}}, True),
    "zonal": (lambda: [lattices.spherical_T_design_report(
        lattice_e8(), 2, range(1, 9))],
        {"kernel sums": {True, False}}, True),
    "theta": (lambda: [theta_design_report(lattice_e8(), 2, 8),
                       theta_design_report(Lattice(leech_gram()), 4, 11, 4)],
              {"antipodal": {True}, "cusp space zero": {True},
               "fit along 5 directions": {True},
               "nonzero fitted coefficient": {False}}, True),
    "two-weight": (lambda: [two_weight_design_check(golay_g24(), 8,
                                                    range(6)),
                            two_weight_design_check(d16_plus(), 4,
                                                    range(1, 6))],
                   {"constant": {True}, "complement": {True},
                    "harmonic sums": {True, False}}, False),
    "assmus-mattson": (lambda: [shell_design_report(hamming_e8(), 4, 3),
                                shell_design_report(golay_g24(), 8, 5)],
                       {"Assmus-Mattson": {True}}, False),
    "listing": (lambda: [shell_design_report(hamming_e8(), 4, t)
                         for t in (0, 4)],
                {"listing": {True, False}}, False),
    "witness-trace": (lambda: [strength_at(16, 4), strength_at(8, 1)],
                      {"witness trace": {True, False}}, False),
}


@pytest.mark.parametrize("route", VERDICT_ROUTES)
def test_every_report_holds_one_verdict_record_per_degree(route):
    build, modes, prefix = VERDICT_ROUTES[route]
    seen = {}
    for rep in build():
        for v in rep.verdicts.values():
            assert type(v) is Verdict
            # a record has no truth value, so a read of it as a bool fails
            with pytest.raises(TypeError, match=r"read \.holds"):
                bool(v)
            # a pass has no witness; a failure has the one its route
            # computes, where it computes one
            silent = v.mode in ("power moments", "nonzero fitted coefficient")
            assert (v.witness is None) == (v.holds or silent), v
            seen.setdefault(v.mode, set()).add(v.holds)
        if prefix:
            assert rep.strength == lattices.prefix_strength(rep.verdicts)
    assert seen == modes


def test_failed_theta_fit_is_a_runtime_error(monkeypatch, capsys):
    # membership is a theorem for even unimodular lattices, so a fit that
    # fails is a fault of the program, reported like any runtime failure
    monkeypatch.setattr(lattices, "fit_in_space",
                        lambda f, space: FitResult(False, None, 3))
    code, _ = run(["--format", "json", "lattice-design", "--lattice", "E8",
                   "--norm", "10", "--t", "8", "--criterion", "theta"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "InternalCheckError"


def test_cap_exceeded_is_runtime_error_not_usage(capsys):
    code, _ = run(["shell", "--lattice", "Z16", "--norm", "40"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "CapExceededError"



def one_error(capsys) -> dict:
    """The JSON error object of the single line a refused command wrote."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    payload = json.loads(lines[0])
    assert payload["schema"] == "v1"
    return payload["error"]


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["eta"], ["eta", "--prec", "abc"],
    ["voa-strength", "--c", "12", "--ell", "3"],
    ["voa-strength", "--c", "16"],
    ["voa-strength", "--c", "16", "--ell", "2", "--scan-to", "5"],
    # a sign "+" that int() alone would take
    ["--format", "json", "eta", "--spec", "3:+8", "--prec", "5"]])
def test_parser_refusals_follow_the_json_contract(argv, capsys):
    # parser refusals return 2 through main, never SystemExit
    assert run(argv) == (2, "")
    assert one_error(capsys)["type"] == "usage"


@pytest.mark.parametrize("argv, message", [
    (["code-design", "--code", "golay24", "--weight", "12", "--weights",
      "8,16", "--Tset", "odd", "--max-degree", "3"], "--Tset takes --weights"),
    (["lattice-design", "--lattice", "E8", "--norm", "2", "--t", "3",
      "--criterion", "zonal", "--prec-norm", "-5"], "--prec-norm applies"),
    (["code-design", "--code", "golay24", "--weight", "8", "--t", "2",
      "--max-degree", "9"], "--max-degree applies"),
    (["code-design", "--code", "golay24", "--t", "2"], "--t needs --weight"),
    (["code-design", "--code", "golay24", "--Tset", "1"],
     "--Tset needs --weights"),
    (["code-design", "--code", "golay24", "--weights", "8,16", "--Tset",
      "2,4", "--max-degree", "3"], "--Tset degrees must lie in 1..max")])
def test_options_the_mode_ignores_are_refused(argv, message, capsys):
    assert run(argv) == (2, "")
    error = one_error(capsys)
    assert error["type"] == "usage" and error["message"].startswith(message)


@pytest.mark.parametrize("argv", [
    ["theta", "--lattice", "Z2", "--poly", "zonal:2:0,0", "--prec", "4"],
    ["code-design", "--code", "hamming8", "--weights", "4,4", "--Tset", "9",
     "--max-degree", "9"],
    ["lattice-design", "--lattice", "{gram}", "--norm", "2", "--t", "2"],
    ["lattice-design", "--lattice", "CA:{code}", "--norm", "2", "--t", "2"],
    ["lattice-design", "--lattice", "E8", "--norm", "3", "--t", "2"],
    # a shell pair with no codewords
    ["code-design", "--code", "golay24", "--weights", "4,20", "--Tset", "1",
     "--max-degree", "1"],
    # a theta depth too shallow for the deepest fit
    ["lattice-design", "--lattice", "E8", "--norm", "2", "--t", "1000",
     "--criterion", "theta"],
    # a code of length 33
    ["code-design", "--code", "{wide}", "--weight", "1", "--t", "1"],
    # E8 has no vector of norm 1
    ["lattice-design", "--lattice", "E8", "--norm", "1", "--t", "2",
     "--criterion", "zonal"]])
def test_library_refusals_are_usage_errors(argv, tmp_path, capsys):
    # a ValueError raised by the library for a bad request exits 2
    gram, code = tmp_path / "gram.txt", tmp_path / "code.txt"
    gram.write_text("1 2\n2 1\n")         # not positive definite
    code.write_text("1100\n")              # not doubly even
    wide = tmp_path / "wide.txt"
    wide.write_text("1" * 33 + "\n")
    argv = [x.format(gram=gram, code=code, wide=wide) for x in argv]
    assert run(argv)[0] == 2
    assert one_error(capsys)["type"] == "usage"


@pytest.mark.parametrize("argv", [
    ["shell", "--norm", "1"],
    ["lattice-design", "--norm", "1", "--t", "3", "--criterion", "moment"],
    ["lattice-design", "--norm", "1", "--t", "3", "--criterion", "zonal"],
    ["theta", "--prec", "2"]])
@pytest.mark.parametrize("power", [62, 63, 64, 70])
def test_coordinates_past_int64_are_refused_not_wrapped(power, argv, tmp_path,
                                                        capsys):
    # Gram [[1, M], [M, M^2 + 1]] is Z^2 in the basis e1, e2 + M*e1: its
    # norm-1 shell is +-(1, 0), +-(-M, 1), whose coordinates fit int64 only
    # while M < 2^63; past that the map back through the LLL transform
    # must refuse them, not wrap (M, -1) into (-2^63, -1)
    m = 2 ** power
    gram = tmp_path / "gram.txt"
    gram.write_text(f"1 {m}\n{m} {m * m + 1}\n")
    status, text = run(["--format", "json", argv[0], "--lattice", str(gram)]
                       + argv[1:])
    if m >= 2 ** 63:
        assert (status, text) == (2, "")
        err = one_error(capsys)
        assert err["type"] == "usage" and "int64" in err["message"]
        return
    assert status == 0
    payload = json.loads(text)
    if argv[0] == "shell":
        assert payload["count"] == 4
        assert payload["vectors"] == [[-m, 1], [-1, 0], [1, 0], [m, -1]]
    elif argv[0] == "theta":            # 1 + 4q + 4q^2, the theta of Z^2
        assert payload["series"]["coeffs"] == [[0, "1/1"], [1, "4/1"],
                                               [2, "4/1"]]
    else:
        assert payload["strength"] == 3
        assert payload["per_degree"] == {"1": True, "2": True, "3": True}


@pytest.mark.parametrize("argv", [
    ["shell", "--lattice", "Z1", "--norm", str(10**30)],
    ["lattice-design", "--lattice", "E8", "--norm", "1e400", "--t", "3"],
    # the theta to norm 6 reads a shell of 1,050,240 vectors
    ["theta", "--lattice", "CA:d16plus", "--prec", "6"]])
def test_huge_norms_are_refused_by_the_cap(argv, capsys):
    assert run(["--format", "json"] + argv)[0] == 1
    assert one_error(capsys)["type"] == "CapExceededError"


@pytest.mark.parametrize("argv", [
    ["eta", "--spec", "1:-1", "--prec", str(10**11)],
    ["lattice-design", "--lattice", "E8", "--norm", "1e400", "--t", "8",
     "--criterion", "theta"],
    ["lattice-design", "--lattice", "E8", "--norm", "20000000", "--t", "8",
     "--criterion", "theta"]])
def test_series_precision_over_the_cap_is_refused(argv, capsys):
    # the theta criterion rebuilds its fitted forms through q^(norm/2)
    assert run(["--format", "json"] + argv)[0] == 1
    err = one_error(capsys)
    assert err["type"] == "CapExceededError"
    assert "series precision" in err["message"]


@pytest.mark.parametrize("lattice, text", [
    ("{path}", "1 0\n0 1/0\n"), ("{path}", ""), ("{path}", "\n \n"),
    ("CA:{path}", ""), ("CA:{path}", "\n \n")])
def test_unparsable_fixture_files_are_usage_errors(lattice, text, tmp_path,
                                                   capsys):
    path = tmp_path / "fixture.txt"
    path.write_text(text)
    argv = ["shell", "--lattice", lattice.format(path=path), "--norm", "1"]
    assert run(argv) == (2, "")
    assert one_error(capsys)["type"] == "usage"


# -- theta -------------------------------------------------------------

def test_theta_plain_e8():
    got = run_json(["theta", "--lattice", "E8", "--poly", "one",
                    "--prec", "8"])
    assert series_coeffs(got) == {0: 1, 2: 240, 4: 2160, 6: 6720, 8: 17520}


def test_theta_zonal_membership(monkeypatch):
    # the printed series is the one the membership check fitted: the theta
    # is summed once
    calls, theta = [], lattices.harmonic_theta

    def spy(*args):
        calls.append(args)
        return theta(*args)

    monkeypatch.setattr(lattices, "harmonic_theta", spy)
    monkeypatch.setattr(cli, "harmonic_theta", spy)
    got = run_json(["theta", "--lattice", "E8",
                    "--poly", "zonal:8:0,0,0,0,0,0,0,1",
                    "--prec", "8", "--membership"])
    assert len(calls) == 1
    assert got["series"] == theta(*calls[0]).to_dict()
    m = got["membership"]
    assert m["fit_ok"] is True
    assert m["weight"] == 12
    assert m["coords"] == ["0/1", "144/1"]


def test_theta_membership_refuses_bad_input_before_enumerating(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("the theta was enumerated")

    monkeypatch.setattr(lattices, "_vectors_by_doubled_norm",
                        enumerate_nothing)
    d16_dir = ",".join(["0"] * 15 + ["1"])
    for argv in (["--lattice", "A2", "--poly", "one", "--prec", "2"],
                 # the degree-4 fit in M_12 reads norms 0..4
                 ["--lattice", "CA:d16plus", "--poly", f"zonal:4:{d16_dir}",
                  "--prec", "2"],
                 ["--lattice", "E8", "--poly", "zonal:3:1,0,0,0,0,0,0,0",
                  "--prec", "8"]):
        assert run(["theta"] + argv + ["--membership"])[0] == 2, argv


@pytest.mark.parametrize("gram, precs", [
    ("\n".join(" ".join("1/2" if i == j else "0" for j in range(8))
               for i in range(8)), (1, 3, 20)),
    ("3/2", (1, 2))])
def test_theta_refuses_non_integral_lattices_first(gram, precs, tmp_path,
                                                  monkeypatch, capsys):
    # a diagonal entry of 2G is odd, so some norm is not an integer: the
    # lattice is refused whatever the depth, before any enumeration
    def enumerate_nothing(*args):
        raise AssertionError("the ball was enumerated")

    monkeypatch.setattr(lattices, "_vectors_by_doubled_norm",
                        enumerate_nothing)
    path = tmp_path / "gram.txt"
    path.write_text(gram + "\n")
    for prec in precs:
        assert run(["--format", "json", "theta", "--lattice", str(path),
                    "--prec", str(prec)]) == (2, "")
        err = one_error(capsys)
        assert err["type"] == "usage" and "integral" in err["message"]


def test_theta_direction_length_checked():
    assert run(["theta", "--lattice", "E8", "--poly", "zonal:2:1,0",
                "--prec", "4"])[0] == 2
    assert run(["theta", "--lattice", "E8", "--poly", "wavelet",
                "--prec", "4"])[0] == 2


# -- shell -------------------------------------------------------------

def test_shell_two_orbits():
    got = run_json(["shell", "--lattice", "Z2", "--norm", "25"])
    assert got["count"] == 12
    assert [5, 0] in got["vectors"] and [3, 4] in got["vectors"]


def test_shell_csv():
    code, text = run(["--format", "csv", "shell", "--lattice", "A2",
                      "--norm", "2"])
    assert code == 0
    rows = [tuple(int(x) for x in line.split(","))
            for line in text.strip().splitlines()]
    assert len(rows) == 6 and (1, 0) in rows and (-1, 1) in rows


def tuple_shell_output(fmt, lattice, norm):
    """The shell command's output built from the rows as Python lists,
    one json.dumps document or one print per row."""
    sh = shell_enum(cli._resolve_lattice(lattice), Fraction(norm))
    vectors = sh.rows.tolist()
    if fmt == "json":
        return json.dumps({"schema": "v1", "command": "shell",
                           "lattice": lattice, "norm": cli._frac(sh.norm),
                           "count": len(vectors), "vectors": vectors},
                          sort_keys=True) + "\n"
    lines = [",".join(str(x) for x in v) for v in vectors]
    if fmt == "csv":
        return "".join(line + "\n" for line in lines)
    text = [f"{lattice} norm {sh.norm}: {len(vectors)} vectors"]
    text += ["  " + line for line in lines[:5]]
    if len(vectors) > 5:
        text.append(f"  ... ({len(vectors) - 5} more; use --format csv for all)")
    return "".join(line + "\n" for line in text)


@pytest.mark.parametrize("lattice, norm", [
    ("Z1", "1"), ("Z2", "65"), ("E8", "0"), ("E8", "1/2"), ("A2", "14"),
    ("Z3", "7")])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("block", [cli._TOKEN_ROWS, 3])
def test_shell_output_matches_the_tuple_output(monkeypatch, block, fmt,
                                               lattice, norm):
    # a block of 3 rows formats most shells in several pieces
    monkeypatch.setattr(cli, "_TOKEN_ROWS", block)
    code, text = run(["--format", fmt, "shell", "--lattice", lattice,
                      "--norm", norm])
    assert code == 0
    assert text == tuple_shell_output(fmt, lattice, norm)


@st.composite
def int_rows(draw):
    """Integer arrays of rank 1-24 and 0-4 rows, in the narrowest dtype
    that holds their reach, as shells come from the search."""
    rank, count = draw(st.integers(1, 24)), draw(st.integers(0, 4))
    reach = draw(st.sampled_from([1, 9, 127, 1000, cli._TOKEN_SPAN, 2 ** 40]))
    values = draw(st.lists(st.integers(-reach, reach), min_size=rank * count,
                           max_size=rank * count))
    return np.array(values, dtype=_int_dtype(reach)).reshape(count, rank)


@settings(max_examples=300, deadline=None)
@given(int_rows())
@example(np.zeros((0, 5), dtype=np.int8))
@example(np.array([[-3, 0, 12, -45]], dtype=np.int8))
@example(np.array([[-2 ** 40, 5], [0, 2 ** 40]]))    # the one-by-one path
def test_row_writer_matches_json_dumps(rows):
    oracle = rows.tolist()
    assert "[" + "".join(cli._format_rows(rows, cli._JSON_ROWS)) + "]" == \
        json.dumps(oracle)
    assert "".join(cli._format_rows(rows, cli._CSV_ROWS)) == \
        "".join(",".join(map(str, row)) + "\n" for row in oracle)


def test_row_writer_span_boundary():
    # spans of _TOKEN_SPAN - 1 and _TOKEN_SPAN integers, either side of
    # the fallback, in one-row and many-row arrays
    for span in (cli._TOKEN_SPAN - 1, cli._TOKEN_SPAN):
        for rows in (np.array([[-span // 2, span - span // 2]]),
                     np.arange(-3, span - 2).reshape(-1, 1)[::-1]):
            assert "[" + "".join(cli._format_rows(rows, cli._JSON_ROWS)) \
                + "]" == json.dumps(rows.tolist())


def test_csv_rejected_elsewhere():
    assert run(["--format", "csv", "eta", "--spec", "", "--prec", "2"])[0] == 2


def test_workers_flag_is_a_usage_error(capsys):
    # enumeration runs in one process; the CLI has no worker count.  An
    # unknown option before the command is named, not its value read as
    # the command
    for argv, option in (
            (["--workers", "2", "shell", "--lattice", "E8", "--norm", "4"],
             "--workers"),
            (["--bogus", "7", "eta", "--prec", "5"], "--bogus"),
            (["--format", "json", "--workers", "2", "remark4", "--prec", "5"],
             "--workers")):
        assert run(argv) == (2, ""), argv
        error = one_error(capsys)
        assert error["type"] == "usage"
        assert error["message"] == f"designlab: unrecognized arguments: " \
                                   f"{option}"


def parse(argv):
    return cli.build_parser().parse_args(argv)


def test_parser_takes_unique_prefixes_and_inline_values():
    full = ["code-design", "--code", "golay24", "--weights", "8,16",
            "--Tset", "odd", "--max-degree", "3"]
    want = vars(parse(full))
    assert want["max_degree"] == 3 and want["fmt"] == "text"
    for argv in (
            full[:-2] + ["--max", "3"],             # a unique prefix
            full[:-2] + ["--max-degree=3"],
            full[:-2] + ["--max=3"],
            ["code-design", "--code=golay24", "--weights=8,16",
             "--Tset=odd", "--max-degree", "3"],
            ["code-design", "--co", "golay24", "--weights", "8,16",
             "--Ts", "odd", "--max-degree", "3"]):
        assert vars(parse(argv)) == want, argv
    assert parse(["--form=json", "remark4", "--prec", "5"]).fmt == "json"
    assert run_json(full[:-2] + ["--max", "3"]) == run_json(full)
    # an exact name wins over the longer names it begins
    assert parse(["code-design", "--code", "x", "--weight", "4",
                  "--t", "1"]).weight == 4


def test_parser_keeps_the_last_of_a_repeated_option():
    a = parse(["--format", "csv", "--format", "json", "voa-strength",
               "--c", "8", "--ell", "2", "--ell", "3", "--c", "16"])
    assert (a.fmt, a.c, a.ell, a.scan_to) == ("json", 16, 3, None)
    assert run_json(["voa-strength", "--c", "8", "--ell", "2", "--ell",
                     "3"])["ell"] == 3


@pytest.mark.parametrize("argv, message", [
    (["eta", "--prec"], "designlab eta: argument --prec: expected one "
                        "argument"),
    (["eta", "--prec", "--spec", "3:8"], "designlab eta: argument --prec: "
                                         "expected one argument"),
    (["eta", "--spec", "3:8"], "designlab eta: the following arguments are "
                               "required: --prec"),
    (["code-design", "--code", "golay24", "--we", "8", "--t", "5"],
     "designlab code-design: ambiguous option: --we could match --weight, "
     "--weights"),
    (["theta", "--lattice", "E8", "--prec", "2", "--membership=yes"],
     "designlab theta: argument --membership: ignored explicit argument "
     "'yes'"),
    (["eta", "--prec", "3", "extra"], "designlab: unrecognized arguments: "
                                      "extra"),
    (["eta", "--prec", "3", "--format", "json"],
     "designlab: unrecognized arguments: --format"),
    (["bogus"], "designlab: argument command: invalid choice: 'bogus'"),
    ([], "designlab: the following arguments are required: command"),
    # a superscript two is a digit to str.isdigit, not to int()
    (["eta", "--prec", "\u00b2"], "designlab eta: argument --prec: expected "
                                 "a positive integer, got '\u00b2'")])
def test_parser_refusals_name_their_cause(argv, message, capsys):
    assert run(argv) == (2, "")
    error = one_error(capsys)
    assert error["type"] == "usage" and error["message"].startswith(message)


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"], ["--format", "json", "--help"],
    ["eta", "-h"], ["code-design", "--code", "golay24", "--help"],
    ["voa-strength", "--c", "16", "-h"]])
def test_help_exits_0_with_usage_on_stdout(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv, out=io.StringIO())
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: designlab") and err == ""
    command = next((a for a in argv if a in cli._TABLE), None)
    # the help is read from the option table
    names = ([o.name for o in cli._TABLE[command].options] if command
             else list(cli._TABLE) + [o.name for o in cli._PROGRAM.options])
    assert all(name in out for name in names)


# the text a request prints, pinned byte for byte
PINNED_TEXT = {
    ("eta", "--spec", "3:8", "--prec", "13"):
        "eta quotient [3:8] to precision 13:\n"
        "  q - 8*q^(4) + 20*q^(7) - 70*q^(13)\n",
    ("eta", "--spec", "2:15,1:-7", "--prec", "5"):
        "eta quotient [2:15,1:-7] to precision 5:\n"
        "  q^(23/24) + 7*q^(47/24) + 20*q^(71/24) + 35*q^(95/24) "
        "+ 55*q^(119/24) + 77*q^(143/24)\n",
    ("theta", "--lattice", "E8", "--prec", "4", "--membership"):
        "theta of E8 with poly one, norms <= 4 (exponent = norm):\n"
        "  1 + 240*q^(2) + 2160*q^(4)\n"
        "  weight-4 membership: coords ['1']\n",
    ("theta", "--lattice", "E8", "--poly", "zonal:8:1,1,0,0,0,0,0,0",
     "--prec", "8"):
        "theta of E8 with poly zonal:8:1,1,0,0,0,0,0,0, norms <= 8 "
        "(exponent = norm):\n"
        "  -384*q^(2) + 9216*q^(4) - 96768*q^(6) + 565248*q^(8)\n",
    ("code-design", "--code", "golay24", "--weight", "8", "--t", "5"):
        "golay24 weight-8 family (759 blocks): 5-design, lambda=1\n",
    ("code-design", "--code", "hamming8", "--weight", "4", "--t", "4"):
        "hamming8 weight-4 family: not a 4-design\n"
        "  witness: (0, 1, 2, 4) covered 0 times, (1, 2, 4, 7) covered 1 "
        "times\n",
    ("code-design", "--code", "hamming8", "--weights", "4,4", "--Tset",
     "1,2,3", "--max-degree", "3"):
        "hamming8 weights (4, 4) union (14 blocks): pass at degrees "
        "[1, 2, 3]\n",
    ("lattice-design", "--lattice", "E8", "--norm", "4", "--t", "7",
     "--criterion", "moment"):
        "E8 norm 4 (2160 vectors, moment): strength 7\n",
    ("lattice-design", "--lattice", "E8", "--norm", "2", "--t", "8",
     "--criterion", "zonal"):
        "E8 norm 2 (240 vectors, zonal): strength 7, first failure at "
        "degree 8\n",
    ("lattice-design", "--lattice", "E8", "--norm", "2", "--t", "8",
     "--criterion", "theta"):
        "E8 norm 2 (theta criterion, enumeration to norm 8): strength 7\n"
        "  degree 2: pass (cusp space zero)\n"
        "  degree 4: pass (cusp space zero)\n"
        "  degree 6: pass (cusp space zero)\n"
        "  degree 8: FAIL (nonzero fitted coefficient)\n",
    ("voa-strength", "--c", "16", "--ell", "1"):
        "c=16 ell=1: coefficient 1 -> not a degree-4 design; strength 3\n",
    # passes at the contested degree: a zero coefficient, printed as 0
    ("voa-strength", "--c", "16", "--ell", "4"):
        "c=16 ell=4: coefficient 0 -> degree-4 design; strength 7\n",
    ("voa-strength", "--c", "16", "--scan-to", "20"):
        "c=16, ell=1..20: strengths {'3': 13, '7': 7}\n"
        "  design at the contested degree for ell in "
        "[4, 8, 12, 14, 16, 19, 20]\n",
    ("remark4", "--prec", "20"):
        "closed-form trace to exponent 20: no vanishing coefficients\n",
}


def test_requests_import_neither_argparse_nor_numpy_ma(tmp_path):
    # a plain np.unique imports numpy.ma in numpy 2.4, about 19 ms in a
    # fresh process; one request of each command, in one fresh interpreter.
    # No request compiles a regex (every module-level re call goes through
    # re._compile), none formats text under --format json, and the text
    # of eta and theta is the pinned text, built without a JSON series.
    # numpy loads with the first array request and compiles regexes as it
    # does, so the script imports it before it refuses re._compile
    script = tmp_path / "requests.py"
    script.write_text(
        "import io, re, sys\n"
        "from designlab import cli\n"
        "import numpy\n"
        "def refuse(what):\n"
        "    def refused(*args, **kwargs):\n"
        "        raise RuntimeError(what)\n"
        "    return refused\n"
        "re._compile = refuse('compiled a regex')\n"
        "pretty, cli._pretty_series = (cli._pretty_series,\n"
        "                              refuse('formatted text for json'))\n"
        "for argv in (['eta', '--spec', '3:8', '--prec', '13'],\n"
        "             ['code-design', '--code', 'golay24', '--weight', '8',\n"
        "              '--t', '5'],\n"
        "             ['code-design', '--code', 'd16plus', '--weights',\n"
        "              '4,12', '--Tset', '1,2', '--max-degree', '2'],\n"
        "             ['lattice-design', '--lattice', 'E8', '--norm', '4',\n"
        "              '--t', '7'],\n"
        "             ['lattice-design', '--lattice', 'E8', '--norm', '4',\n"
        "              '--t', '7', '--criterion', 'zonal'],\n"
        "             ['lattice-design', '--lattice', 'Z4', '--norm', '2',\n"
        "              '--t', '3'],\n"
        "             ['lattice-design', '--lattice', 'E8', '--norm', '2',\n"
        "              '--t', '8', '--criterion', 'theta'],\n"
        "             ['theta', '--lattice', 'E8', '--prec', '4',\n"
        "              '--membership'],\n"
        "             ['theta', '--lattice', 'E8', '--poly',\n"
        "              'zonal:8:1,1,0,0,0,0,0,0', '--prec', '8'],\n"
        "             ['voa-strength', '--c', '16', '--ell', '4'],\n"
        "             ['voa-strength', '--c', '16', '--scan-to', '20'],\n"
        "             ['remark4', '--prec', '20'],\n"
        "             ['shell', '--lattice', 'E8', '--norm', '2']):\n"
        "    status = cli.main(['--format', 'json', *argv], io.StringIO())\n"
        "    for name in ('numpy.ma', 'argparse'):\n"
        "        if status or name in sys.modules:\n"
        "            sys.exit(f'{argv}: status {status}, {name}')\n"
        "cli._pretty_series = pretty\n"
        "cli.QSeries.to_dict = refuse('built json for text')\n"
        f"for argv, want in {sorted(PINNED_TEXT.items())!r}:\n"
        "    out = io.StringIO()\n"
        "    status = cli.main(list(argv), out)\n"
        "    if status or out.getvalue() != want:\n"
        "        sys.exit(f'{argv}: status {status}, {out.getvalue()!r}')\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(designlab.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_series_commands_never_load_numpy():
    # the q-series commands run on exact integers: neither importing the
    # package and its CLI nor any eta, voa-strength or remark4 request, in
    # JSON or in text, loads numpy; the first lattice request does
    script = (
        "import io, sys\n"
        "import designlab, designlab.cli\n"
        "def check(where):\n"
        "    if 'numpy' in sys.modules:\n"
        "        sys.exit(f'numpy loaded by {where}')\n"
        "check('import')\n"
        "for argv in (['eta', '--spec', '1:-24', '--prec', '50'],\n"
        "             ['voa-strength', '--c', '24', '--ell', '5'],\n"
        "             ['voa-strength', '--c', '8', '--scan-to', '20'],\n"
        "             ['remark4', '--prec', '20']):\n"
        "    for fmt in ('json', 'text'):\n"
        "        status = designlab.cli.main(['--format', fmt, *argv],\n"
        "                                    io.StringIO())\n"
        "        if status:\n"
        "            sys.exit(f'{argv} {fmt}: status {status}')\n"
        "        check(f'{argv} {fmt}')\n"
        "out = io.StringIO()\n"
        "status = designlab.cli.main(['shell', '--lattice', 'E8', '--norm',\n"
        "                             '2'], out)\n"
        "if status or not out.getvalue().startswith('E8 norm 2: 240 vectors'):\n"
        "    sys.exit(f'shell: status {status}, {out.getvalue()[:80]!r}')\n"
        "if 'numpy' not in sys.modules:\n"
        "    sys.exit('shell ran without numpy')\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(designlab.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_cli_and_library_share_one_ball(monkeypatch):
    # the CLI once keyed the vector table with os.cpu_count() workers and
    # the library with 1, so the same ball was built twice; the table is
    # now held per lattice, so smaller norms are served from the same ball
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    table = lattices._vectors_by_doubled_norm
    table.cache_clear()
    assert run_json(["shell", "--lattice", "E8", "--norm", "8"])["count"] \
        == 17520
    e8 = lattice_e8()
    assert len(shell_enum(e8, 8)) == 17520
    assert lattices.shell_sizes_up_to(e8, 8)[8] == 17520
    assert lattices.harmonic_theta(e8, lattices.constant_poly(8), 8)[8] \
        == 17520
    assert run_json(["shell", "--lattice", "E8", "--norm", "2"])["count"] \
        == 240
    assert len(shell_enum(e8, 4)) == 2160
    assert table.cache_info()[:2] == (5, 1)
    # a lattice is its Gram matrix: the CLI's label "CA:d16plus" and the
    # library's unlabeled construction key one ball
    table.cache_clear()
    assert run_json(["shell", "--lattice", "CA:d16plus", "--norm", "2"]
                    )["count"] == 480
    assert len(shell_enum(construction_a(d16_plus()), 2)) == 480
    assert table.cache_info().misses == 1


# -- voa-strength and remark4 ------------------------------------------

def test_voa_strength_c16_ell4():
    got = run_json(["voa-strength", "--c", "16", "--ell", "4"])
    assert got["verdict"] == "design"
    assert got["contested_degree"] == 4
    assert got["coefficient"] == "0/1"
    assert got["strength"] == 7
    assert got["base_T"] == [1, 2, 3, 5, 6, 7]
    assert got["extra"]["8"] == [False, "-5760/1"]


def test_voa_strength_scan_streams_jsonl():
    code, text = run(["--format", "json", "voa-strength", "--c", "24",
                      "--scan-to", "5"])
    assert code == 0
    lines = [json.loads(line) for line in text.strip().splitlines()]
    assert len(lines) == 5
    assert [p["ell"] for p in lines] == [1, 2, 3, 4, 5]
    assert all(p["strength"] == 3 for p in lines)
    assert [p["coefficient"] for p in lines[:3]] == ["1/1", "240/1", "2160/1"]


def test_voa_strength_scan_documents_name_schema_and_command():
    code, text = run(["--format", "json", "voa-strength", "--c", "8",
                      "--scan-to", "5"])
    assert code == 0
    docs = [json.loads(line) for line in text.splitlines()]
    assert [d["ell"] for d in docs] == [1, 2, 3, 4, 5]
    assert all(d["schema"] == "v1" and d["command"] == "voa-strength"
               for d in docs)
    # a scan line is the document of its single ell
    assert docs[2] == run_json(["voa-strength", "--c", "8", "--ell", "3"])


def test_voa_strength_scan_text_summary():
    code, text = run(["voa-strength", "--c", "8", "--scan-to", "6"])
    assert code == 0
    assert "strengths {'7': 6}" in text


def test_voa_usage_errors():
    assert run(["voa-strength", "--c", "16"])[0] == 2
    assert run(["voa-strength", "--c", "16", "--ell", "2",
                "--scan-to", "5"])[0] == 2
    assert run(["voa-strength", "--c", "16", "--ell", "0"])[0] == 2


def test_remark4_no_vanishing():
    got = run_json(["remark4", "--prec", "60"])
    assert got["all_nonzero"] is True
    assert got["zero_indices"] == []
    assert got["leading_coefficients"][:5] == \
        ["1/1", "7/1", "20/1", "35/1", "55/1"]


def test_every_json_payload_carries_schema():
    for argv in (["eta", "--spec", "", "--prec", "2"],
                 ["shell", "--lattice", "Z2", "--norm", "1"],
                 ["remark4", "--prec", "5"]):
        assert run_json(argv)["schema"] == "v1"
