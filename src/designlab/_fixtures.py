"""Locate fixture files.  The built-in codes and lattices always load from
the package; ``DESIGNLAB_FIXTURES``, read only here, names a directory of
user fixtures for names given on the command line."""

from __future__ import annotations

import os
from pathlib import Path

from .errors import FixtureError


def fixture_path(*parts: str) -> Path:
    """A bundled fixture file under the package's ``fixtures`` directory."""
    p = Path(__file__).parent.joinpath("fixtures", *parts)
    if not p.is_file():
        raise FixtureError(f"fixture not found: {p}")
    return p


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
