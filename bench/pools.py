"""Finite request pools of the four workloads.

A request is either a CLI argv list (run as ``designlab --format json
<argv>``) or the name of a library call in ``LIBRARY_CALLS``, spelled
``lib:<name>``.  Every request of every pool has a committed expected answer
in ``expected.json``; a seed only chooses the order of the requests and,
in the session, which parameters an episode samples.

A cold workload is a list of groups.  One cycle runs every member of every
group ``repeat`` times, in an order the seed shuffles, so each cycle holds
the same requests and pays for every heavy one; since each request starts
in a fresh process, the order moves no figure.

The session workload is a list of episodes run back to back in one process.
An episode revisits one lattice, code or charge at new parameters, so later
requests of the episode reach the caches that earlier ones filled.
"""

from __future__ import annotations

import random

# -- series: q-series products, division and echelon fitting ------------------

ETA_POS = ["1:8", "1:16", "1:24", "3:8"]
ETA_NEG = ["2:15,1:-7", "1:-8", "1:-24", "2:8,1:-4,4:2"]
PREC_GRID = [20, 45, 100, 220, 500, 1000, 1500]


def _eta(specs, precs):
    return [["eta", "--spec", s, "--prec", str(p)] for s in specs for p in precs]


def _theta_design(t):
    return [["lattice-design", "--lattice", "E8", "--norm", str(n), "--t", str(t),
             "--criterion", "theta"] for n in (2, 4, 8, 16, 30, 100, 250, 1000)]


SERIES = [
    {"name": "eta_pos", "repeat": 2, "requests": _eta(ETA_POS, PREC_GRID)},
    {"name": "eta_neg_small", "repeat": 2,
     "requests": _eta(ETA_NEG, [20, 45, 100, 220])},
    {"name": "eta_neg_500", "repeat": 1, "requests": _eta(ETA_NEG, [500])},
    {"name": "eta_neg_1000", "repeat": 1, "requests": _eta(ETA_NEG, [1000])},
    # the two cheaper negative quotients; 1:-24 and 2:15,1:-7 at 1500 would
    # double the cycle on their own
    {"name": "eta_neg_1500", "repeat": 1,
     "requests": _eta(["1:-8", "2:8,1:-4,4:2"], [1500])},
    {"name": "remark4", "repeat": 1,
     "requests": [["remark4", "--prec", str(p)] for p in (50, 100, 200, 500, 1000)]},
    {"name": "voa_ell", "repeat": 1,
     "requests": [["voa-strength", "--c", str(c), "--ell", str(e)]
                  for c in (8, 16, 24)
                  for e in (1, 2, 3, 4, 5, 7, 10, 20, 50, 100, 200, 500, 1000)]},
    {"name": "voa_scan", "repeat": 2,
     "requests": [["voa-strength", "--c", str(c), "--scan-to", str(b)]
                  for c in (8, 16, 24) for b in (50, 100, 200, 500, 1000)]},
    {"name": "theta_t8", "repeat": 1, "requests": _theta_design(8)},
    {"name": "theta_t10", "repeat": 1, "requests": _theta_design(10)},
    {"name": "theta_t12", "repeat": 1, "requests": _theta_design(12)},
]

# -- shells: enumeration and the pair histogram ---------------------------------

_SMALL_SHELLS = ([("Z2", n) for n in (1, 2, 5, 25, 65)]
                 + [("Z3", n) for n in (1, 3, 5, 9, 11)]
                 + [("Z4", n) for n in (1, 2, 6, 9, 10)]
                 + [("Z6", n) for n in (2, 4, 7, 10)]
                 + [("Z8", n) for n in (2, 3, 4, 5)]
                 + [("Z10", n) for n in (2, 3, 4)]
                 + [("Z12", n) for n in (2, 3, 4)]
                 + [("A2", n) for n in (2, 6, 14, 26)]
                 + [("E8", n) for n in (2, 4)])

_MOMENT_ZONAL = ([("Z2", n, 4) for n in (1, 5, 25)]
                 + [("Z3", n, 4) for n in (3, 9)]
                 + [("Z4", n, 5) for n in (2, 6, 10)]
                 + [("Z6", n, 4) for n in (4, 7)]
                 + [("Z8", n, 4) for n in (2, 4)]
                 + [("A2", n, 6) for n in (2, 6, 14, 26)]
                 + [("E8", n, 8) for n in (2, 4)]
                 + [("CA:d16plus", 2, 7)])

SHELLS = [
    {"name": "shell", "repeat": 2,
     "requests": [["shell", "--lattice", l, "--norm", str(n)]
                  for l, n in _SMALL_SHELLS]},
    {"name": "moment", "repeat": 1,
     "requests": [["lattice-design", "--lattice", l, "--norm", str(n), "--t", str(t),
                   "--criterion", "moment"] for l, n, t in _MOMENT_ZONAL]},
    {"name": "zonal", "repeat": 1,
     "requests": [["lattice-design", "--lattice", l, "--norm", str(n), "--t", str(t),
                   "--criterion", "zonal"] for l, n, t in _MOMENT_ZONAL]},
    {"name": "theta", "repeat": 1,
     "requests": ([["theta", "--lattice", l, "--poly", "one", "--prec", str(p)]
                   for l, p in (("Z2", 20), ("Z4", 10), ("Z8", 4), ("A2", 20),
                                ("E8", 4), ("E8", 8))]
                  + [["theta", "--lattice", "E8", "--poly",
                      f"zonal:{k}:0,0,0,0,0,0,0,1", "--prec", "8"]
                     for k in (2, 4, 6, 8)]
                  + [["theta", "--lattice", "E8", "--poly",
                      "zonal:8:0,0,0,0,0,0,0,1", "--prec", "8", "--membership"],
                     ["theta", "--lattice", "Z4", "--poly", "zonal:4:1,1,0,0",
                      "--prec", "8"]])},
    {"name": "medium", "repeat": 1,
     "requests": [["theta", "--lattice", "CA:d16plus", "--poly", "one", "--prec", "4"],
                  ["lattice-design", "--lattice", "E8", "--norm", "6", "--t", "8",
                   "--criterion", "moment"],
                  ["shell", "--lattice", "Z12", "--norm", "5"]]},
    # The top tier.  The CA:d16plus refusal is the fail-fast-cap defect: it
    # builds every candidate (seconds, hundreds of MB) before it refuses.
    {"name": "heavy", "repeat": 1,
     "requests": [["lattice-design", "--lattice", "E8", "--norm", "8", "--t", "8",
                   "--criterion", "moment"],
                  ["shell", "--lattice", "Z12", "--norm", "8"],
                  ["shell", "--lattice", "CA:golay24", "--norm", "4"],
                  ["theta", "--lattice", "CA:d16plus", "--prec", "6"]]},
]

# -- codes: lambda counting, Harm_k bases and the harmonic sums ----------------

CODE_WEIGHTS = {"hamming8": (4, 8), "d16plus": (4, 8, 12, 16),
                "golay24": (8, 12, 16, 24)}
_HEAVY_BRUTE = {("golay24", 12, 5), ("golay24", 12, 6),
                ("golay24", 16, 5), ("golay24", 16, 6)}


def _brute(code, w, t):
    return ["code-design", "--code", code, "--weight", str(w), "--t", str(t)]


def _harm(code, w, n, tset, maxdeg):
    return ["code-design", "--code", code, "--weights", f"{w},{n - w}",
            "--Tset", tset, "--max-degree", str(maxdeg)]


CODES = [
    {"name": "brute", "repeat": 2,
     "requests": [_brute(c, w, t) for c, ws in CODE_WEIGHTS.items()
                  for w in ws for t in range(1, 7)
                  if (c, w, t) not in _HEAVY_BRUTE]},
    {"name": "brute_heavy", "repeat": 1,
     "requests": [_brute(c, w, t) for c, w, t in sorted(_HEAVY_BRUTE)]},
    {"name": "harmonic", "repeat": 1,
     "requests": [_harm("hamming8", 4, 8, "odd", 3),
                  _harm("hamming8", 4, 8, "1,2,3,4", 4),
                  _harm("hamming8", 4, 8, "2,4", 4),
                  _harm("d16plus", 4, 16, "odd", 3),
                  _harm("d16plus", 4, 16, "1,2,3", 3),
                  _harm("d16plus", 8, 16, "odd", 3),
                  _harm("d16plus", 8, 16, "1,2,3,4", 4),
                  _harm("golay24", 12, 24, "odd", 3),
                  _harm("golay24", 8, 24, "odd", 3),
                  _harm("golay24", 8, 24, "1,2,3", 3),
                  _harm("golay24", 12, 24, "1,2", 2),
                  _harm("golay24", 8, 24, "2", 2),
                  _harm("hamming8", 4, 8, "1", 1),
                  _harm("d16plus", 4, 16, "2,4", 4)]},
    # Degree 6 on golay24 is the fail-fast-cap defect: the cap refuses
    # Harm_6 only after Harm_1..Harm_5 are built and summed.
    {"name": "harmonic_heavy", "repeat": 1,
     "requests": [_harm("golay24", 8, 24, "odd", 5),
                  _harm("d16plus", 4, 16, "odd", 6),
                  _harm("golay24", 8, 24, "1,2,3,4,5,6", 6)]},
]

# -- session: one warm process, episodes that revisit one object --------------

# library calls made the way the acceptance criteria make them
LIBRARY_CALLS = ("certified_e8_degree8", "certified_d16plus_degree4",
                 "antisymmetry_hamming8_1", "antisymmetry_hamming8_3",
                 "antisymmetry_golay24_1", "antisymmetry_golay24_3",
                 "plane_strengths_z2", "plane_strengths_a2")

_SESSION_SHELLS = [("E8", 2, 8), ("E8", 4, 8), ("E8", 6, 8), ("Z4", 6, 5),
                   ("Z6", 7, 4), ("Z8", 4, 4), ("A2", 26, 6), ("CA:d16plus", 2, 7)]
SESSION_VOA_ELLS = range(1, 121)
_SESSION_CODES = [("golay24", 8), ("golay24", 12), ("d16plus", 8),
                  ("hamming8", 4)]


def _lattice_episode(lat, norm, t):
    design = ["lattice-design", "--lattice", lat, "--norm", str(norm), "--t", str(t)]
    steps = [design + ["--criterion", "moment"], design + ["--criterion", "zonal"],
             ["shell", "--lattice", lat, "--norm", str(norm)]]
    if lat == "E8":     # the theta fit enumerates E8 to norm 8 again
        steps.append(["lattice-design", "--lattice", lat, "--norm", str(norm),
                      "--t", "10", "--criterion", "theta"])
    return steps


def _code_episode(code, w):
    n = {"hamming8": 8, "d16plus": 16, "golay24": 24}[code]
    steps = [_brute(code, w, t) for t in range(1, 6)]
    if 2 * w <= n:
        steps += [_harm(code, w, n, "odd", 3), _harm(code, w, n, "odd", 5)]
    return steps


def session_pool() -> list[list]:
    """Every request the session can draw, for expected answers and tests."""
    out = [f"lib:{name}" for name in LIBRARY_CALLS]
    for spec in _SESSION_SHELLS:
        out += _lattice_episode(*spec)
    out += [["voa-strength", "--c", str(c), "--ell", str(e)]
            for c in (8, 16, 24) for e in SESSION_VOA_ELLS]
    for code, w in _SESSION_CODES:
        out += _code_episode(code, w)
    return out


def session_episodes(rng: random.Random) -> list[list]:
    """One session cycle: every episode once, parameters and order seeded."""
    episodes = [[f"lib:{name}"] for name in LIBRARY_CALLS]
    episodes += [_lattice_episode(*spec) for spec in _SESSION_SHELLS]
    for c in (8, 16, 24):
        # 24 distinct precisions per charge overflow the 8-entry witness-trace
        # cache.  One ell from each 24th of the range keeps the cost of every
        # run alike; four short episodes per charge spread these cheap
        # requests over the run instead of bunching them in a few moments.
        ells = [rng.choice(SESSION_VOA_ELLS[i:i + 5])
                for i in range(0, len(SESSION_VOA_ELLS), 5)]
        rng.shuffle(ells)
        for i in range(0, len(ells), 6):
            episodes.append([["voa-strength", "--c", str(c), "--ell", str(e)]
                             for e in ells[i:i + 6]])
    episodes += [_code_episode(code, w) for code, w in _SESSION_CODES]
    rng.shuffle(episodes)
    return episodes


COLD = {"series": SERIES, "shells": SHELLS, "codes": CODES}
WORKLOADS = ("series", "shells", "codes", "session")

# Seconds one cycle takes on the 2-core reference box.  A run measures the
# whole cycles that fit its --seconds (at least one), a count that depends on
# --seconds alone, so a faster or slower host measures the same requests.
CYCLE_SECONDS = {"series": 15, "shells": 30, "codes": 25, "session": 12}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def cold_cycle(groups, rng: random.Random) -> list[list]:
    """One cycle of a cold workload: every group's members, shuffled together."""
    out = [r for g in groups for r in g["requests"] * g["repeat"]]
    rng.shuffle(out)
    return out


def all_requests() -> list:
    """Every distinct request of every pool, in a fixed order."""
    reqs = [r for groups in COLD.values() for g in groups for r in g["requests"]]
    return list({request_key(r): r for r in reqs + session_pool()}.values())


def request_key(req) -> str:
    return req if isinstance(req, str) else " ".join(req)
