"""Locate fixture files.  The built-in codes and lattices always load from
the package; ``DESIGNLAB_FIXTURES``, read only here, names a directory of
user fixtures for names given on the command line."""

from __future__ import annotations

import os
from pathlib import Path

from .errors import FixtureError

_BUNDLED = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_text(*parts: str) -> str:
    """The text of a bundled fixture file under the package's ``fixtures``
    directory, read by one ``open``."""
    path = os.path.join(_BUNDLED, *parts)
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        raise FixtureError(f"fixture not found: {path}") from None


def user_fixture_path(name: str) -> Path | None:
    """A user-given name as a file, or None: an existing path wins, then
    ``$DESIGNLAB_FIXTURES/name``, then ``$DESIGNLAB_FIXTURES/name.txt``."""
    p = Path(name)
    if p.is_file():
        return p
    root = os.environ.get("DESIGNLAB_FIXTURES")
    if root:
        for cand in (Path(root) / name, Path(root) / f"{name}.txt"):
            if cand.is_file():
                return cand
    return None
