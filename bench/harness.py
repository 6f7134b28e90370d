"""Running one request against designlab and checking its answer.

A request goes in through the public surface only: ``designlab.cli.main``
with an argv list and an in-memory ``out`` buffer, or one of the library
calls below, made the way the acceptance criteria make them.  Every name is
looked up on its module at call time, so a tracer that rebinds module
attributes sees the call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import signal
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# a field whose canonical JSON is longer than this is stored as a digest
_INLINE_LIMIT = 120


def load_designlab():
    """Import designlab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "designlab" / "cli.py").is_file():
        raise SystemExit(f"no designlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("designlab.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "designlab").resolve():
        raise SystemExit(f"designlab imported from {cli.__file__}, not {SRC}")
    return cli


def _mod(name: str):
    return sys.modules[f"designlab.{name}"]


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


# -- library calls ----------------------------------------------------------

def _certified(lattice, degree: int, reference, **kw) -> dict:
    cert = _mod("voa").certified_zonal_trace(lattice, degree, reference, **kw)
    return {"ratio": _frac(cert.ratio),
            "coefficients_checked": cert.coefficients_checked,
            "direction": list(cert.direction),
            "fit_coords": [_frac(c) for c in cert.fit_coords]}


def _antisymmetry(code_maker: str, k: int) -> dict:
    codes = _mod("codes")
    rep = codes.antisymmetry_check(getattr(codes, code_maker)(), k)
    return {"mode": rep.mode, "tested": rep.tested, "ok": rep.ok,
            "witness": list(rep.witness) if rep.witness else None}


def _plane_strengths(lat, t: int, min_norm: int) -> dict:
    lat_mod = _mod("lattices")
    return {_frac(norm): lat_mod.moment_design_test(
                lat_mod.shell_enum(lat, norm), t).strength
            for norm in lat_mod.shell_sizes_up_to(lat, 50) if norm >= min_norm}


LIBRARY = {
    "certified_e8_degree8": lambda: _certified(
        _mod("lattices").lattice_e8(), 8, _mod("voa").a_series(60)),
    "certified_d16plus_degree4": lambda: _certified(
        _mod("lattices").construction_a(_mod("codes").d16_plus()), 4,
        _mod("voa").b_series(60), prec_norm=4),
    "antisymmetry_hamming8_1": lambda: _antisymmetry("hamming_e8", 1),
    "antisymmetry_hamming8_3": lambda: _antisymmetry("hamming_e8", 3),
    "antisymmetry_golay24_1": lambda: _antisymmetry("golay_g24", 1),
    "antisymmetry_golay24_3": lambda: _antisymmetry("golay_g24", 3),
    "plane_strengths_z2": lambda: _plane_strengths(
        _mod("lattices").lattice_zn(2), 4, 0),
    "plane_strengths_a2": lambda: _plane_strengths(
        _mod("lattices").lattice_a2(), 6, 2),
}


# -- running one request ----------------------------------------------------

def execute(req) -> tuple[float, int, list, str | None, int]:
    """Run a request; return (seconds, exit code, output objects, error type,
    output characters).

    Only the call into designlab is timed.  A library call that raises a
    designlab error maps to exit 1, as the CLI would report it.
    """
    errors = _mod("errors")
    if isinstance(req, str):
        fn = LIBRARY[req.removeprefix("lib:")]
        t0 = perf_counter()
        try:
            payload = fn()
        except errors.DesignLabError as exc:
            return perf_counter() - t0, 1, [], type(exc).__name__, 0
        dt = perf_counter() - t0
        text = json.dumps(payload)
        return dt, 0, [json.loads(text)], None, len(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = sys.modules["designlab.cli"].main(["--format", "json", *req],
                                                     out=out)
        except SystemExit as exc:       # argparse refuses bad usage this way
            code = exc.code if isinstance(exc.code, int) else 2
        dt = perf_counter() - t0
    text = out.getvalue()
    objects = [json.loads(line) for line in text.splitlines() if line]
    error = None
    if code != 0:
        try:
            error = json.loads(err.getvalue().splitlines()[-1])["error"]["type"]
        except (IndexError, ValueError, KeyError, TypeError):
            error = "unparsed stderr"
    return dt, code, objects, error, len(text)


# -- expected answers -------------------------------------------------------

def _canon(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digest(value) -> str:
    return hashlib.sha256(_canon(value).encode()).hexdigest()[:24]


def answer_record(code: int, objects: list, error: str | None) -> dict:
    """The committed form of an answer: small fields verbatim, large ones
    (and every field of a multi-object answer) as digests."""
    if code != 0:
        return {"exit": code, "error": error}
    rec = {"exit": 0, "objects": len(objects), "values": {}, "digests": {}}
    if len(objects) == 1:
        for k, v in objects[0].items():
            if len(_canon(v)) <= _INLINE_LIMIT:
                rec["values"][k] = v
            else:
                rec["digests"][k] = _digest(v)
    else:
        for k in sorted(set().union(*objects)):
            rec["digests"][k] = _digest([o.get(k) for o in objects])
    return rec


def check_answer(expected: dict, code: int, objects: list,
                 error: str | None) -> str | None:
    """None when the answer matches; otherwise the reason it does not.

    Only the recorded fields are compared, so top-level keys a later
    version adds (such as a "stats" object) do not count as a difference.
    """
    if code != expected["exit"]:
        return f"exit {code} ({error}), expected {expected['exit']}"
    if code != 0:
        return None if error == expected["error"] else \
            f"error {error}, expected {expected['error']}"
    if len(objects) != expected["objects"]:
        return f"{len(objects)} output objects, expected {expected['objects']}"
    if len(objects) == 1:
        obj = objects[0]
        for k, v in expected["values"].items():
            if k not in obj or obj[k] != v:
                return f"field {k!r} differs"
        for k, d in expected["digests"].items():
            if k not in obj or _digest(obj[k]) != d:
                return f"field {k!r} differs"
        return None
    for k, d in expected["digests"].items():
        if _digest([o.get(k) for o in objects]) != d:
            return f"field {k!r} differs in some output object"
    return None


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


# -- forked children --------------------------------------------------------

class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout("request ran past its time limit")


def in_child(fn, timeout: int, scratch: Path):
    """Run ``fn()`` in a forked child; return its JSON-able result.

    The child starts with the parent's imports and nothing else: designlab
    caches are empty in a fresh fork because the parent never computes.
    The result travels through a file, so a child whose enumeration pool
    outlives it cannot hold a pipe open.  The child leads its own process
    group, which is killed once it has exited, so no pool worker survives.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        try:
            os.setpgid(0, 0)
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.alarm(timeout)
            try:
                result = fn()
            except BaseException:
                result = {"crash": traceback.format_exc()}
            signal.alarm(0)
            tmp = scratch / f"child-{os.getpid()}.tmp"
            tmp.write_text(json.dumps(result))
            tmp.rename(scratch / f"child-{os.getpid()}.json")
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)
    path = scratch / f"child-{pid}.json"
    if not path.is_file():
        return {"crash": "child exited without a result"}
    try:
        return json.loads(path.read_text())
    finally:
        path.unlink()
