"""Regenerate ``expected.json``: the answer to every request of every pool.

    python3 bench/gen_expected.py

Each request runs in a fresh forked child, as the cold workloads run it.
Before anything is written, every verdict that has a second route is
checked against it, and generation stops on the first disagreement:

- a ``lattice-design --criterion moment`` verdict at degree k must equal the
  conjunction of the zonal verdicts of the same parity up to k (the rule of
  acceptance criterion 13);
- a brute-force ``code-design --weight w --t t`` verdict (t <= w) must agree
  with the harmonic sums of degrees 1..t; a degree whose Harm basis is over
  the size cap is undecided, and the route then only has to not contradict;
- a certified trace ratio must equal the zonal sum over the norm-2 shell
  along the certificate's direction, as criteria 9 and 10 check it.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import pools  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"


def _answer(req) -> dict:
    dt, code, objects, error, _ = harness.execute(req)
    return {"seconds": dt, "record": harness.answer_record(code, objects, error)}


def run_cold(req) -> dict:
    res = harness.in_child(lambda: _answer(req), 600, OUT)
    if "crash" in res:
        raise SystemExit(f"{pools.request_key(req)}: {res['crash']}")
    return res


class RouteMismatch(SystemExit):
    pass


def _opt(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def check_moment(argv, record, answers) -> None:
    """Moment verdicts against zonal verdicts under the parity rule."""
    zonal = argv[:argv.index("--criterion")] + ["--criterion", "zonal"]
    key = pools.request_key(zonal)
    if key not in answers:
        answers[key] = run_cold(zonal)
    zrec = answers[key]["record"]
    if record["exit"] != 0 or zrec["exit"] != 0:
        if record["exit"] != zrec["exit"]:
            raise RouteMismatch(f"{pools.request_key(argv)}: moment and zonal "
                                "routes disagree on refusing")
        return
    mom = record["values"]["per_degree"]
    zon = zrec["values"]["per_degree"]
    for k in range(1, int(_opt(argv, "--t")) + 1):
        same_parity = all(zon[str(j)] for j in range(2 - k % 2, k + 1, 2))
        if mom[str(k)] != same_parity:
            raise RouteMismatch(f"{pools.request_key(argv)}: moment verdict at "
                                f"degree {k} contradicts the zonal verdicts")


def check_brute(argv, record) -> str:
    """Brute-force lambda verdict against the harmonic sums."""
    codes = sys.modules["designlab.codes"]
    errors = sys.modules["designlab.errors"]
    w, t = int(_opt(argv, "--weight")), int(_opt(argv, "--t"))
    if t > w:
        return "vacuous"        # no t-subset lies in a block: lambda = 0
    code = {"hamming8": codes.hamming_e8, "golay24": codes.golay_g24,
            "d16plus": codes.d16_plus}[_opt(argv, "--code")]()
    family = codes.shell(code, w)
    verdicts = []
    for j in range(1, t + 1):
        try:
            verdicts.append(codes.delsarte_design_check(family, [j])[j][0])
        except errors.CapExceededError:
            break
    brute = record["values"]["verdict"] == "design"
    if brute and not all(verdicts):
        raise RouteMismatch(f"{pools.request_key(argv)}: counted design, "
                            "but a harmonic sum is nonzero")
    if not brute and len(verdicts) == t and all(verdicts):
        raise RouteMismatch(f"{pools.request_key(argv)}: counted non-design, "
                            "but every harmonic sum vanishes")
    return "checked" if len(verdicts) == t else f"checked to degree {len(verdicts)}"


def second_route(check) -> str:
    """Run a check in a child, so what it computes warms no later request."""
    res = harness.in_child(lambda: {"note": check()}, 600, OUT)
    if "crash" in res:
        raise RouteMismatch(res["crash"])
    return res["note"]


def check_library(name, record) -> str:
    lat_mod = sys.modules["designlab.lattices"]
    codes = sys.modules["designlab.codes"]
    vals = record["values"]
    if name.startswith("certified_"):
        lat, degree = ((lat_mod.lattice_e8(), 8) if "e8" in name else
                       (lat_mod.construction_a(codes.d16_plus()), 4))
        direct = lat_mod.zonal_shell_sum(lat, lat_mod.shell_enum(lat, 2), degree,
                                         tuple(vals["direction"]))
        if direct != Fraction(vals["ratio"]) or direct == 0:
            raise RouteMismatch(f"{name}: trace ratio differs from the shell sum")
        return "ratio = shell sum"
    elif name.startswith("antisymmetry_"):
        if not vals["ok"]:
            raise RouteMismatch(f"{name}: antisymmetry fails")
        return "antisymmetric"
    else:
        want = 3 if name.endswith("z2") else 5
        if set(vals.values()) != {want}:
            raise RouteMismatch(f"{name}: plane shell strengths are not {want}")
        return f"strength {want} on every shell"


def main() -> int:
    harness.load_designlab()
    OUT.mkdir(exist_ok=True)
    answers: dict[str, dict] = {}
    for req in pools.all_requests():
        key = pools.request_key(req)
        if key not in answers:
            answers[key] = run_cold(req)
        rec = answers[key]["record"]
        note = ""
        if isinstance(req, str):
            note = second_route(lambda: check_library(req.removeprefix("lib:"), rec))
        elif req[0] == "lattice-design" and "moment" in req:
            check_moment(req, rec, answers)
            note = "moment=zonal parity"
        elif req[0] == "code-design" and "--t" in req:
            note = "harmonic " + second_route(lambda: check_brute(req, rec))
        status = rec["exit"] if rec["exit"] == 0 else f"{rec['exit']} {rec['error']}"
        print(f"{answers[key]['seconds']:8.3f}s  exit {status}  {key}  {note}",
              file=sys.stderr, flush=True)
    wanted = {pools.request_key(r) for r in pools.all_requests()}
    lines = [f"{json.dumps(k)}: {json.dumps(answers[k]['record'], sort_keys=True)}"
             for k in sorted(wanted)]
    harness.EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} answers to {harness.EXPECTED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
