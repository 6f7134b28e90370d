"""Command-line front end: every verification as a reproducible command.

Text output is a human summary, built only under ``--format text``; JSON
(one document, or one object per line for scans) is the stable contract,
versioned by a "schema" field.  Exit status is 0 whenever the computation
completed: a "not a design" verdict is payload, not an error.  Every
failure is one JSON error line on stderr.  A bad request, refused by the
parser, by this module or by the library, is a ``ValueError`` and exits 2
with error type "usage"; a computation that fails raises a
``DesignLabError`` and exits 1 with the class name as type.
"""

from __future__ import annotations

import gc
import json
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

# unused here; loaded because bench/run.py and bench/spans.py read it
from . import _parallel
from ._fixtures import user_fixture_path
from .codes import (BinaryCode, code_from_text, d16_plus, golay_g24,
                    hamming_e8, shell_design_report, two_weight_design_check)
from .errors import DesignLabError
from .lattices import (Lattice, constant_poly, construction_a, gram_from_text,
                       harmonic_theta, lattice_a2, lattice_e8, lattice_zn,
                       moment_design_report, shell_enum,
                       spherical_T_design_report, theta_design_report,
                       theta_membership_check, zonal_harmonic_coords)
from .modforms import eta_quotient
from .qseries import QSeries, exact_str
from .voa import remark4_series, strength_at

SCHEMA = "v1"

_CODES = {"hamming8": hamming_e8, "golay24": golay_g24, "d16plus": d16_plus}


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _document(command: str, payload: dict) -> str:
    """One JSON document line: the payload, the schema and the command."""
    return json.dumps({"schema": SCHEMA, "command": command, **payload},
                      sort_keys=True)


def _frac(x) -> str:
    f = Fraction(x)
    return f"{exact_str(f.numerator)}/{exact_str(f.denominator)}"


def _pretty_series(s: QSeries, max_terms: int = 10) -> str:
    if s.is_zero():
        return "0"
    head = list(islice(s.nonzero_terms(), max_terms + 1))
    out = []
    for i, c in head[:max_terms]:
        e = s.exponent(i)
        mag = exact_str(abs(c))
        estr = "" if e == 0 else ("q" if e == 1 else f"q^({e})")
        body = f"{mag}*{estr}" if estr and mag != "1" else (estr or mag)
        sign = "-" if c < 0 else "+"
        out.append(f" {sign} {body}" if out else
                   (f"-{body}" if c < 0 else body))
    tail = " + ..." if len(head) > max_terms else ""
    return "".join(out) + tail


# integer row layouts for ``_format_rows``: (row start, value separator,
# row end, text between rows)
_JSON_ROWS = ("[", ", ", "]", ", ")
_CSV_ROWS = ("", ",", "\n", "")
_TOKEN_SPAN = 1 << 12       # widest value range formatted from a byte table
_TOKEN_ROWS = 1 << 14       # rows formatted at once


def _format_rows(rows: np.ndarray, layout: tuple[str, str, str, str]):
    """The rows of an integer array in decimal, laid out as ``layout``, as
    consecutive pieces of text: with ``_JSON_ROWS``, "[" + the joined
    pieces + "]" is ``json.dumps(rows.tolist())``.

    Every value v in [lo, hi] has a token in a byte table: its digits, the
    row start before them in the first column, and the separator (or, in
    the last column, the row end and the text between rows) after them,
    NUL-padded to one width.  Each block of ``_TOKEN_ROWS`` rows gathers
    its tokens, drops the padding and is yielded; the text after the last
    row is cut.  Values spanning ``_TOKEN_SPAN`` or more integers, or held
    as Python ints, are formatted one by one instead.
    """
    import numpy as np
    start, sep, end, between = layout
    if not len(rows):
        return
    lo, hi = int(rows.min()), int(rows.max())
    if rows.dtype == object or hi - lo >= _TOKEN_SPAN:
        yield between.join(start + sep.join(map(str, row)) + end
                           for row in rows.tolist())
        return
    n = rows.shape[1]
    # token kinds: 0 first column, 1 middle columns, 2 last column
    kind = np.minimum(np.arange(n), 1)
    kind[-1] = 2
    heads = (start, "", start if n == 1 else "")
    tails = (sep, sep, end + between)
    words = [(h + str(v) + t).encode()
             for h, t in zip(heads, tails) for v in range(lo, hi + 1)]
    width = max(map(len, words))
    table = np.array(words, dtype=f"S{width}").view(f"V{width}")
    offset = kind * (hi - lo + 1) - lo
    for a in range(0, len(rows), _TOKEN_ROWS):
        part = table[rows[a:a + _TOKEN_ROWS] + offset].tobytes()
        part = part.translate(None, b"\0")
        if a + _TOKEN_ROWS >= len(rows):
            part = part[:len(part) - len(between)]
        yield part.decode("ascii")


def _resolve_code(name: str) -> BinaryCode:
    if name in _CODES:
        return _CODES[name]()
    p = user_fixture_path(name)
    if p is None:
        raise ValueError(f"unknown code fixture {name!r} "
                         f"(known: {', '.join(sorted(_CODES))}, or a path)")
    return code_from_text(p.read_text(), name)


def _resolve_lattice(name: str) -> Lattice:
    if name[:1] in ("Z", "z") and name[1:].isdecimal():
        n = int(name[1:])
        if not 1 <= n <= 32:
            raise ValueError("Zn supports 1 <= n <= 32")
        return lattice_zn(n)
    if name.upper() == "A2":
        return lattice_a2()
    if name.upper() == "E8":
        return lattice_e8()
    if name.startswith("CA:"):
        return construction_a(_resolve_code(name[3:]), name)
    p = user_fixture_path(name)
    if p is None:
        raise ValueError(f"unknown lattice {name!r} "
                         "(known: Zn, A2, E8, CA:<code>, or a path)")
    return gram_from_text(p.read_text(), p.stem)


# the spec parsers take digits by ``str.isdecimal`` (any Unicode decimal
# digit, as ``int`` reads them), so "+", "_" and empty runs are refused

def _parse_eta_spec(spec: str) -> list[tuple[int, int]]:
    """Comma parts scale:power, whitespace around each, power maybe < 0."""
    out = []
    for part in spec.split(",") if spec else ():
        scale, colon, power = part.strip().partition(":")
        if not (colon and scale.isdecimal()
                and power.removeprefix("-").isdecimal()):
            raise ValueError(f"bad eta factor {part!r}; expected scale:power")
        out.append((int(scale), int(power)))
    return out


def _parse_poly(lat: Lattice, spec: str):
    """'one', or zonal:<degree>:<direction of digits, "-" and ",">."""
    if spec == "one":
        return constant_poly(lat.rank)
    degree, colon, direction = spec[6:].partition(":")
    if not (spec.startswith("zonal:") and colon and degree.isdecimal()
            and direction
            and all(ch in "-," or ch.isdecimal() for ch in direction)):
        raise ValueError("poly must be 'one' or 'zonal:<degree>:<i1,...,in>'")
    direction = _int_list(direction, "the zonal direction")
    return zonal_harmonic_coords(lat, int(degree), direction)


def _int_list(text: str, what: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} takes a comma list of integers, "
                         f"got {text!r}") from None


def _positive(text: str) -> int:
    """Option reader: an integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return int(text)


def _rational(text: str) -> Fraction:
    """Option reader: a rational number such as 2, 1/2 or 1e400."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a rational number, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------
# each command computes its answer and returns two functions, of which
# ``_run`` calls only the one for the format asked: its JSON documents
# (``_run`` adds "schema" and "command" to each) and its text lines

def cmd_eta(a, out):
    series = eta_quotient(_parse_eta_spec(a.spec), a.prec)
    return lambda: [{"spec": a.spec, "prec": a.prec,
                     "series": series.to_dict()}], lambda: [
        f"eta quotient [{a.spec or '1'}] to precision {a.prec}:",
        f"  {_pretty_series(series)}"]


def cmd_code_design(a, out):
    if a.t is not None and a.max_degree is not None:
        raise ValueError("--max-degree applies only to --Tset")
    if a.Tset is not None and a.weight is not None:
        raise ValueError("--Tset takes --weights w,n-w, not --weight")
    code = _resolve_code(a.code)
    if a.t is not None:
        if a.weight is None or a.weights is not None:
            raise ValueError("--t needs --weight (single shell)")
        rep = shell_design_report(code, a.weight, a.t)
        v = rep.verdicts[a.t]

        def documents():
            payload = {"code": a.code, "weights": [a.weight], "t": a.t,
                       "blocks": rep.blocks, "lambda": rep.lam,
                       "verdict": "design" if v.holds else "not a design",
                       "mode": v.mode}
            if not v.holds:
                s1, c1, s2, c2 = v.witness
                payload["witness"] = {"subset_a": list(s1), "count_a": c1,
                                      "subset_b": list(s2), "count_b": c2}
            return [payload]

        def text():
            family = f"{a.code} weight-{a.weight} family"
            if v.holds:
                return [f"{family} ({rep.blocks} blocks): {a.t}-design, "
                        f"lambda={rep.lam}"]
            s1, c1, s2, c2 = v.witness
            return [f"{family}: not a {a.t}-design", f"  witness: {s1} "
                    f"covered {c1} times, {s2} covered {c2} times"]
        return documents, text

    # harmonic mode: union of a shell and its complement-weight shell
    if a.weights is None:
        raise ValueError("--Tset needs --weights w,n-w (the shell pair)")
    pair = _int_list(a.weights, "--weights")
    if len(pair) != 2 or sorted(pair) != [min(pair), code.n - min(pair)]:
        raise ValueError(f"--weights must be a complementary pair w,{code.n}-w")
    max_degree = a.max_degree or 5
    if a.Tset == "odd":
        # the library refuses the first odd degree over n: stop there
        degrees = list(range(1, min(max_degree, code.n + 2) + 1, 2))
    else:
        degrees = sorted(set(_int_list(a.Tset, "--Tset")))
        if degrees[0] < 1 or degrees[-1] > max_degree:
            raise ValueError("--Tset degrees must lie in 1..max-degree")
    rep = two_weight_design_check(code, min(pair), degrees)
    verdict = "pass" if rep.passes(degrees) else "fail"
    return lambda: [{
        "code": a.code, "weights": list(rep.weights), "T": degrees,
        "blocks": rep.family_size,
        "per_degree": {str(j): rep.verdicts[j].holds for j in degrees},
        "modes": {str(j): v.mode for j, v in rep.verdicts.items()},
        "verdict": verdict}], lambda: [
        f"{a.code} weights {rep.weights} union ({rep.family_size} blocks): "
        f"{verdict} at degrees {degrees}"]


def cmd_lattice_design(a, out):
    if a.criterion != "theta" and a.prec_norm is not None:
        raise ValueError("--prec-norm applies only to --criterion theta")
    lat = _resolve_lattice(a.lattice)
    if a.criterion == "theta":
        rep = theta_design_report(lat, a.norm, a.t, a.prec_norm or 0)
    elif a.criterion == "moment":
        rep = moment_design_report(lat, a.norm, a.t)
    else:
        rep = spherical_T_design_report(lat, a.norm, range(1, a.t + 1))

    def documents():
        payload = {"lattice": a.lattice, "norm": _frac(a.norm),
                   "criterion": a.criterion, "strength": rep.strength,
                   "per_degree": {str(j): v.holds
                                  for j, v in rep.verdicts.items()}}
        if a.criterion == "theta":
            payload.update(prec_norm=rep.prec_norm,
                           directions_tested=rep.directions_tested,
                           modes={str(j): v.mode
                                  for j, v in rep.verdicts.items()})
        else:
            payload["size"] = rep.size
        return [payload]

    def text():
        if a.criterion == "theta":
            return [f"{a.lattice} norm {a.norm} (theta criterion, enumeration "
                    f"to norm {rep.prec_norm}): strength {rep.strength}"] + [
                f"  degree {j}: {'pass' if v.holds else 'FAIL'} ({v.mode})"
                for j, v in rep.verdicts.items() if j % 2 == 0]
        return [f"{a.lattice} norm {a.norm} ({rep.size} vectors, "
                f"{a.criterion}): strength {rep.strength}"
                + ("" if rep.strength >= a.t else
                   f", first failure at degree {rep.strength + 1}")]
    return documents, text


def cmd_theta(a, out):
    lat = _resolve_lattice(a.lattice)
    poly = _parse_poly(lat, a.poly)
    # the membership check refuses bad input before it enumerates
    rep = theta_membership_check(lat, poly, a.prec) if a.membership else None
    series = rep.series if rep else harmonic_theta(lat, poly, a.prec)

    def documents():
        payload = {"lattice": a.lattice, "poly": a.poly, "prec_norm": a.prec,
                   "series": series.to_dict()}
        if rep is not None:
            payload["membership"] = {
                "weight": rep.weight, "with_e6_factor": rep.with_e6_factor,
                "fit_ok": rep.fit_ok,
                "coords": [_frac(c) for c in rep.coords] if rep.coords
                else None,
                "mismatch_exponent": rep.mismatch_exponent}
        return [payload]

    def text():
        lines = [f"theta of {a.lattice} with poly {a.poly}, norms <= "
                 f"{a.prec} (exponent = norm):", f"  {_pretty_series(series)}"]
        if rep is not None:
            lines.append(f"  weight-{rep.weight} membership: "
                         + ("coords " + str([str(c) for c in rep.coords])
                            if rep.fit_ok else
                            f"FAILED at exponent {rep.mismatch_exponent}"))
        return lines
    return documents, text


def _strength_payload(rep) -> dict:
    # the first degree read is the contested one, any later ones are extra
    (contested, v), *extra = rep.verdicts.items()
    return {"central_charge": rep.central_charge, "ell": rep.ell,
            "base_T": sorted(rep.base_T), "contested_degree": contested,
            "coefficient": _frac(v.witness or 0),
            "verdict": "design" if v.holds else "not a design",
            "extra": {str(k): [x.holds, _frac(x.witness or 0)]
                      for k, x in extra},
            "strength": rep.strength}


def cmd_voa_strength(a, out):
    # the whole scan at the precision strength_at picks for its last ell
    ells = [a.ell] if a.ell is not None else range(1, a.scan_to + 1)
    prec = max(ells[-1] + 2, 16)
    reps = [strength_at(a.c, ell, prec=prec) for ell in ells]

    def text():
        if a.ell is not None:
            rep = reps[0]
            contested, v = next(iter(rep.verdicts.items()))
            tail = "" if v.holds else "not a "
            return [f"c={rep.central_charge} ell={rep.ell}: coefficient "
                    f"{v.witness or 0} -> {tail}degree-{contested} design; "
                    f"strength {rep.strength}"]
        strengths = dict(Counter(str(rep.strength) for rep in reps))
        notable = [rep.ell for rep in reps
                   if next(iter(rep.verdicts.values())).holds]
        lines = [f"c={a.c}, ell=1..{a.scan_to}: strengths {strengths}"]
        if notable:
            lines.append(f"  design at the contested degree for ell in "
                         f"{notable}")
        return lines
    return lambda: [_strength_payload(rep) for rep in reps], text


def cmd_remark4(a, out):
    rep = remark4_series(a.prec)
    head = range(1, min(a.prec, 10) + 1)
    return lambda: [{"prec": a.prec, "all_nonzero": rep.all_nonzero,
                     "zero_indices": list(rep.zero_indices),
                     "leading_coefficients": [_frac(rep.trace.coeff(i))
                                              for i in head]}], lambda: [
        f"closed-form trace to exponent {a.prec}: "
        + ("no vanishing coefficients" if rep.all_nonzero
           else f"zeros at {list(rep.zero_indices)}")]


def cmd_shell(a, out):
    lat = _resolve_lattice(a.lattice)
    sh = shell_enum(lat, a.norm)
    # csv and json are written here, block by block as the rows are
    # formatted, so ``_run`` is left no document to write
    if a.fmt == "csv":
        out.writelines(_format_rows(sh.rows, _CSV_ROWS))
    elif a.fmt == "json":
        # the line _document would give with the vectors in the payload:
        # "vectors" sorts after every other key
        head = _document("shell", {"lattice": a.lattice,
                                   "norm": _frac(a.norm), "count": len(sh)})
        out.write(head[:-1] + ', "vectors": [')
        out.writelines(_format_rows(sh.rows, _JSON_ROWS))
        out.write("]}\n")
    more = len(sh) - 5
    return list, lambda: (
        [f"{a.lattice} norm {a.norm}: {len(sh)} vectors"]
        + ["  " + ",".join(map(str, row)) for row in sh.rows[:5].tolist()]
        + [f"  ... ({more} more; use --format csv for all)"] * (more > 0))


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Opt:
    """One long option: ``read`` turns its text into the value (None for a
    flag, which takes no text and reads True), ``dest`` names the field
    (by default the name without dashes, "-" read as "_")."""
    name: str
    read: Callable | None = str
    required: bool = False
    default: object = None
    choices: tuple = ()
    help: str = ""
    dest: str = ""

    def __post_init__(self):
        if not self.dest:
            object.__setattr__(self, "dest",
                               self.name[2:].replace("-", "_"))

    def usage(self) -> str:
        if self.read is None:
            return self.name
        meta = ("{" + ",".join(map(str, self.choices)) + "}" if self.choices
                else self.dest.upper())
        return f"{self.name} {meta}"


@dataclass(frozen=True)
class _Command:
    """A command's help line, its options, the group of options of which
    exactly one must be given, and its handler (none for the program)."""
    help: str
    options: tuple[_Opt, ...]
    one_of: tuple[str, ...] = ()
    handler: Callable | None = None


# the options before the command, and each command's own
_PROGRAM = _Command(
    "Exact design-strength verification for code shells, lattice shells "
    "and graded traces.",
    (_Opt("--format", choices=("text", "json", "csv"), default="text",
          dest="fmt", help="output format (csv applies to 'shell' only)"),))
_TABLE = {
    "eta": _Command("expand an eta quotient", (
        _Opt("--spec", default="",
             help="comma list scale:power, e.g. '3:8' or '2:15,1:-7'"),
        _Opt("--prec", _positive, required=True)), handler=cmd_eta),
    "code-design": _Command("combinatorial design tests", (
        _Opt("--code", required=True),
        _Opt("--weight", _positive,
             help="single shell weight, for the --t mode"),
        _Opt("--weights",
             help="complementary pair w,n-w, for the --Tset mode"),
        _Opt("--t", int),
        _Opt("--Tset", help="'odd' or comma list of harmonic degrees"),
        _Opt("--max-degree", _positive,
             help="largest --Tset degree (default 5)")),
        one_of=("--t", "--Tset"), handler=cmd_code_design),
    "lattice-design": _Command("spherical design strength", (
        _Opt("--lattice", required=True),
        _Opt("--norm", _rational, required=True),
        _Opt("--t", _positive, required=True),
        _Opt("--criterion", choices=("moment", "zonal", "theta"),
             default="moment"),
        _Opt("--prec-norm", int,
             help="enumeration depth for the theta criterion")),
        handler=cmd_lattice_design),
    "theta": _Command("weighted theta series", (
        _Opt("--lattice", required=True),
        _Opt("--poly", default="one",
             help="'one' or 'zonal:<degree>:<i1,...,in>'"),
        _Opt("--prec", _positive, required=True,
             help="largest norm to enumerate"),
        _Opt("--membership", None, default=False,
             help="also fit the series in its predicted space")),
        handler=cmd_theta),
    "voa-strength": _Command("conformal design strength", (
        _Opt("--c", int, required=True, choices=(8, 16, 24)),
        _Opt("--ell", _positive),
        _Opt("--scan-to", _positive)),
        one_of=("--ell", "--scan-to"), handler=cmd_voa_strength),
    "remark4": _Command("closed-form trace vanishing scan", (
        _Opt("--prec", _positive, required=True),), handler=cmd_remark4),
    "shell": _Command("enumerate one shell (CSV exportable)", (
        _Opt("--lattice", required=True),
        _Opt("--norm", _rational, required=True)), handler=cmd_shell),
}


def _is_option(arg: str) -> bool:
    """Whether an argument names an option: it starts with "-" and is not
    a negative number."""
    return len(arg) > 1 and arg[0] == "-" and not arg[1].isdigit()


class _Parser:
    """Reads argv by the option tables: the program's options, one command,
    then that command's options.  A long option may be shortened to a
    prefix that names one option; its value is the next argument, or
    follows "="; a repeated option keeps its last value.  Every refusal
    raises ``ValueError``; ``-h`` or ``--help`` prints usage to stdout and
    exits 0 through ``SystemExit``."""

    def __init__(self, prog: str, program: _Command,
                 commands: dict[str, _Command]):
        self.prog, self.program, self.commands = prog, program, commands

    def parse_args(self, argv=None) -> SimpleNamespace:
        args = sys.argv[1:] if argv is None else list(argv)
        values = {"command": None}
        at = self._read(args, 0, None, values)
        if at == len(args):
            raise ValueError(f"{self.prog}: the following arguments are "
                             "required: command")
        command = args[at]
        if command not in self.commands:
            raise ValueError(
                f"{self.prog}: argument command: invalid choice: "
                f"{command!r} (choose from {', '.join(self.commands)})")
        values["command"] = command
        at = self._read(args, at + 1, command, values)
        if at < len(args):
            raise ValueError(f"{self.prog}: unrecognized arguments: "
                             f"{args[at]}")
        return SimpleNamespace(**values)

    def _read(self, args, at: int, command: str | None, values: dict) -> int:
        """Read the options of ``command`` (the program's for None) from
        args[at:] into ``values``, up to the first argument that is no
        option, and return its index."""
        cmd = self.commands[command] if command else self.program
        prog = f"{self.prog} {command}" if command else self.prog
        values.update((o.dest, o.default) for o in cmd.options)
        given = set()
        while at < len(args) and _is_option(args[at]):
            name, eq, text = args[at].partition("=")
            opt = self._match(name, command, prog)
            if opt.read is None:
                if eq:
                    raise ValueError(f"{prog}: argument {opt.name}: ignored "
                                     f"explicit argument {text!r}")
                value = True
            else:
                if not eq:
                    at += 1
                    if at == len(args) or _is_option(args[at]):
                        raise ValueError(f"{prog}: argument {opt.name}: "
                                         "expected one argument")
                    text = args[at]
                try:
                    value = opt.read(text)
                except ValueError as exc:
                    raise ValueError(
                        f"{prog}: argument {opt.name}: {exc}") from None
                if opt.choices and value not in opt.choices:
                    raise ValueError(
                        f"{prog}: argument {opt.name}: invalid choice: "
                        f"{text!r} (choose from "
                        f"{', '.join(map(str, opt.choices))})")
            values[opt.dest] = value
            given.add(opt.name)
            at += 1
        missing = [o.name for o in cmd.options
                   if o.required and o.name not in given]
        if missing:
            raise ValueError(f"{prog}: the following arguments are "
                             f"required: {', '.join(missing)}")
        chosen = [name for name in cmd.one_of if name in given]
        if cmd.one_of and not chosen:
            raise ValueError(f"{prog}: one of the arguments "
                             f"{' '.join(cmd.one_of)} is required")
        if len(chosen) > 1:
            raise ValueError(f"{prog}: argument {chosen[1]}: not allowed "
                             f"with argument {chosen[0]}")
        return at

    def _match(self, name: str, command: str | None, prog: str) -> _Opt:
        """The option a name gives, in full or as a prefix of one name;
        help exits here."""
        cmd = self.commands[command] if command else self.program
        options = {o.name: o for o in cmd.options}
        if name not in options and len(name) > 2:
            hits = [full for full in (*options, "--help")
                    if full.startswith(name)]
            if len(hits) > 1:
                raise ValueError(f"{prog}: ambiguous option: {name} could "
                                 f"match {', '.join(hits)}")
            name = hits[0] if hits else name
        if name in ("-h", "--help"):
            sys.stdout.write(self.help(command))
            raise SystemExit(0)
        if name not in options:
            raise ValueError(f"{self.prog}: unrecognized arguments: {name}")
        return options[name]

    def help(self, command: str | None = None) -> str:
        """The usage and the options of a command, or of the program."""
        cmd = self.commands[command] if command else self.program
        words = [self.prog, command or "", "[-h]"]
        for o in cmd.options:
            if o.name in cmd.one_of[:1]:
                words.append("(" + " | ".join(
                    p.usage() for p in cmd.options if p.name in cmd.one_of)
                    + ")")
            elif o.name not in cmd.one_of:
                words.append(o.usage() if o.required else f"[{o.usage()}]")
        lines = ["usage: " + " ".join(filter(None, words)), "", cmd.help, ""]
        if command is None:
            lines[0] += " {" + ",".join(self.commands) + "} ..."
            lines += ["commands:"] + _columns(
                [(name, c.help) for name, c in self.commands.items()]) + [""]
        rows = [("-h, --help", "show this help and exit")]
        rows += [(o.usage(), o.help) for o in cmd.options]
        return "\n".join(lines + ["options:"] + _columns(rows)) + "\n"


def _columns(rows) -> list[str]:
    """Help lines of two columns: each name, then its help text."""
    width = max(len(name) for name, _ in rows) + 2
    return [f"  {name:{width}}{text}".rstrip() for name, text in rows]


def build_parser() -> _Parser:
    """The command-line parser, read from the option tables (``_PROGRAM``,
    ``_TABLE``); a parse failure raises ``ValueError``."""
    return _Parser("designlab", _PROGRAM, _TABLE)


def main(argv=None, out=sys.stdout) -> int:
    """Run one command and return its exit status: 0 when the computation
    completed, 2 for a bad request (a ``ValueError``, the parser's refusals
    included), 1 when the computation failed (a ``DesignLabError``).  Either
    failure writes one JSON error line to stderr; only ``--help`` exits
    through ``SystemExit``.

    The objects that exist when the command starts (modules, fixtures,
    caches) stay frozen while it runs, so its cyclic garbage collections
    skip them.  In a process forked after import, a collection that walks
    them would copy every page that holds one.  Nothing is frozen when the
    caller has frozen objects itself.
    """
    freeze = not gc.get_freeze_count()
    if freeze:
        gc.freeze()
    try:
        return _run(argv, out)
    finally:
        if freeze:
            gc.unfreeze()


_PARSER = build_parser()


def _run(argv, out) -> int:
    try:
        a = _PARSER.parse_args(argv)
        if a.fmt == "csv" and a.command != "shell":
            raise ValueError("--format csv applies only to 'shell'")
        documents, text = _TABLE[a.command].handler(a, out)
        lines = (text() if a.fmt == "text" else
                 [_document(a.command, d) for d in documents()])
    except ValueError as exc:
        status, error = 2, {"type": "usage", "message": str(exc)}
    except DesignLabError as exc:
        status, error = 1, {"type": type(exc).__name__, "message": str(exc)}
    else:
        for line in lines:
            print(line, file=out)
        return 0
    print(json.dumps({"schema": SCHEMA, "error": error}), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
