"""One digest per CLI request of the benchmark pools, to compare two
checkouts byte for byte.

    python tools/output_digests.py SRC > digests.txt

SRC is the ``src`` directory of a checkout.  Its ``designlab.cli`` is
imported once, with numpy, and every CLI request of ``bench/pools.py``
(read by path from this checkout, in ``all_requests`` order, the library
calls left out) runs once per output format, ``--format json`` then
``--format text``, in a child forked from that process by
``bench/harness.py``'s ``in_child`` (also read by path), so each starts
with empty caches, as the benchmark runs requests.  Each output line is
``sha256 format request``: the hash of the child's exit status, stdout
and stderr; a child that crashes or runs past ``TIMEOUT`` seconds prints
``crashed`` in place of the hash, and the script then exits 1, so two
equally broken checkouts cannot pass as equal.  Two checkouts give the
same output on every request exactly when ``diff`` of their two runs is
empty and neither exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import sys
import tempfile
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
FORMATS = ("json", "text")
TIMEOUT = 90        # seconds per request, as bench/run.py allows a cold one


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = load_bench("harness")


def load_cli(src: Path):
    """``designlab.cli`` imported from ``src``, never from elsewhere."""
    sys.path.insert(0, str(src))
    cli = importlib.import_module("designlab.cli")
    if Path(cli.__file__).resolve().parent != (src / "designlab").resolve():
        raise SystemExit(f"designlab imported from {cli.__file__}, not {src}")
    return cli


def cli_requests() -> list[list[str]]:
    return [r for r in load_bench("pools").all_requests()
            if not isinstance(r, str)]


def output_digest(cli, argv: list[str]) -> str:
    """sha256 of exit status, stdout and stderr of ``cli.main(argv)``, each
    prefixed by its length.  An exception that escapes ``main`` counts as
    its type and message, with no traceback: paths differ by checkout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = repr(cli.main(argv, out=out))
        except SystemExit as exc:
            status = f"exit {exc.code!r}"
        except harness.RequestTimeout:
            raise
        except Exception as exc:
            status = "raised " + "".join(
                traceback.format_exception_only(type(exc), exc))
    h = hashlib.sha256()
    for part in (status, out.getvalue(), err.getvalue()):
        data = part.encode()
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", type=Path, help="a checkout's src directory")
    a = ap.parse_args(argv)
    cli = load_cli(a.src)
    import numpy  # noqa: F401  (loaded once, before the children fork)
    crashed = False
    with tempfile.TemporaryDirectory() as scratch:
        for req in cli_requests():
            for fmt in FORMATS:
                digest = harness.in_child(lambda: output_digest(
                    cli, ["--format", fmt, *req]), TIMEOUT, Path(scratch))
                if not isinstance(digest, str):
                    digest, crashed = "crashed", True
                print(digest, fmt, " ".join(req), flush=True)
    return int(crashed)


if __name__ == "__main__":
    sys.exit(main())
