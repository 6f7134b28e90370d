"""Oracle for the command-line parsers: the three regular expressions that
once read eta specs, ``Zn`` names and ``zonal:`` polys in ``designlab.cli``,
kept here so that its hand parsers can be checked against them."""

import re

from designlab import cli

ETA_FACTOR = re.compile(r"\s*(\d+):(-?\d+)\s*")
ZN_NAME = re.compile(r"[Zz](\d+)")
ZONAL_SPEC = re.compile(r"zonal:(\d+):([-\d,]+)")


def eta_spec(spec: str) -> list[tuple[int, int]]:
    """The (scale, power) factors of an eta spec, or ValueError."""
    out = []
    for part in spec.split(",") if spec else ():
        m = ETA_FACTOR.fullmatch(part)
        if not m:
            raise ValueError(f"bad eta factor {part!r}; expected scale:power")
        out.append((int(m.group(1)), int(m.group(2))))
    return out


def zn_rank(name: str) -> int | None:
    """n for a name Z<n> or z<n>, None for any other name; ValueError for
    n outside 1..32."""
    m = ZN_NAME.fullmatch(name)
    if not m:
        return None
    n = int(m.group(1))
    if not 1 <= n <= 32:
        raise ValueError("Zn supports 1 <= n <= 32")
    return n


def zonal_spec(spec: str) -> tuple[int, list[int]]:
    """(degree, direction) of a zonal:<degree>:<direction> spec, or
    ValueError; the direction is read by ``cli._int_list``."""
    m = ZONAL_SPEC.fullmatch(spec)
    if not m:
        raise ValueError("poly must be 'one' or 'zonal:<degree>:<i1,...,in>'")
    direction = cli._int_list(m.group(2), "the zonal direction")
    return int(m.group(1)), direction
