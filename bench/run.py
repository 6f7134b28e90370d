"""designlab benchmark: seeded closed-loop request streams, one client.

    python3 bench/run.py --workload series --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 15

A run draws the whole cycles of its workload (see ``pools.py``) that fit
``--seconds`` on the reference box, sending each request only after the
previous one returned.  In ``series``, ``shells`` and ``codes`` every request runs in a
child forked from this process, which has imported designlab and computed
nothing, so each request starts with empty caches as a CLI invocation does.
``session`` runs every request of the run in one forked child.  Every
answer is checked against ``expected.json``.

With ``--trace 0`` the last line of output reports the end-to-end metrics:
the median and the 90th percentile (Harrell-Davis) of request latency,
requests per second of run wall time, the share of requests answered
correctly (an expected refusal is correct), the peak resident set of any
request process, and the median set-up time of fresh interpreters (half
sampled before the requests, half after).
With ``--trace 1`` it reports the per-layer metrics (``spans.py``) and the
traced throughput, from which ``--all`` derives the tracing overhead.  The
run's details, with the commit, versions and request counts, are written to
``bench/out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import pools  # noqa: E402
import spans  # noqa: E402

OUT = BENCH / "out"
REQUEST_TIMEOUT = 90        # seconds a cold request may take before it fails
SESSION_TIMEOUT = 170       # seconds the whole session may take
SETUP_SAMPLES = 5          # taken before and again after the workload


def setup_samples() -> list[float]:
    """Seconds from a fresh interpreter to designlab.cli imported, a few
    times.  Host speed drifts over seconds, so the run takes one batch before
    its requests and one after, and reports the median of both."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import designlab.cli"
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(harness.SRC)], check=True)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def serve(req, rid: int, expected: dict, tracer) -> dict:
    """Run one request in this process and check its answer."""
    key = pools.request_key(req)
    if tracer:
        tracer.begin_request(rid)
    try:
        dt, code, objects, error, nbytes = harness.execute(req)
    except Exception as exc:        # an unexpected exception fails the request
        return {"key": key, "latency_s": 0.0, "failed": repr(exc)}
    if tracer:
        tracer.end_request()
        tracer.add("cli.output_bytes", nbytes)
    why = (harness.check_answer(expected[key], code, objects, error)
           if key in expected else "no expected answer")
    return {"key": key, "latency_s": dt, "failed": why}


def _trace_payload(tracer) -> dict:
    if not tracer:
        return {}
    return {"spans": tracer.spans, "counts": dict(tracer.counts),
            "peaks": dict(tracer.peaks)}


def run_cold(groups, seed: int, cycles: int, expected: dict, tracer) -> dict:
    rng = random.Random(seed)
    records, all_spans = [], []
    counts, peaks = {}, {}
    rss = 0.0
    t0 = time.perf_counter()
    for _ in range(cycles):
        for req in pools.cold_cycle(groups, rng):
            rid = len(records) + 1

            def one(req=req, rid=rid):
                res = serve(req, rid, expected, tracer)
                res["rss_mb"] = peak_rss_mb()
                res.update(_trace_payload(tracer))
                return res

            res = harness.in_child(one, REQUEST_TIMEOUT, OUT)
            if "crash" in res:
                res = {"key": pools.request_key(req), "latency_s": 0.0,
                       "failed": res["crash"], "rss_mb": 0.0}
            rss = max(rss, res.pop("rss_mb"))
            all_spans += res.pop("spans", [])
            for k, v in res.pop("counts", {}).items():
                counts[k] = counts.get(k, 0) + v
            for k, v in res.pop("peaks", {}).items():
                peaks[k] = max(peaks.get(k, 0), v)
            records.append(res)
    return {"records": records, "wall_s": time.perf_counter() - t0,
            "rss_mb": rss, "cycles": cycles, "spans": all_spans,
            "counts": counts, "peaks": peaks}


def run_session(seed: int, cycles: int, expected: dict, tracer) -> dict:
    def body():
        rng = random.Random(seed)
        records = []
        t0 = time.perf_counter()
        for _ in range(cycles):
            for episode in pools.session_episodes(rng):
                for req in episode:
                    records.append(serve(req, len(records) + 1, expected, tracer))
        return {"records": records, "wall_s": time.perf_counter() - t0,
                "rss_mb": peak_rss_mb(), "cycles": cycles,
                **_trace_payload(tracer)}

    res = harness.in_child(body, SESSION_TIMEOUT, OUT)
    if "crash" in res:
        raise SystemExit(f"session crashed:\n{res['crash']}")
    return res


# -- metrics ------------------------------------------------------------------

def p90_rank(n: int) -> int:
    """1-based nearest rank of the 90th percentile of n samples."""
    return math.ceil(0.9 * n)


def harrell_davis(values, p: float, cells: int = 200_000) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted average of all order statistics, so
    the estimate leans on the requests around rank pn rather than on the one
    that lands there, whose own timing noise would dominate a 90th
    percentile of about a hundred requests.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    mid = (np.arange(cells) + 0.5) / cells
    logpdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    mass = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(mass))) / mass.sum()
    edges = np.rint(np.arange(n + 1) / n * cells).astype(int)
    return float(np.diff(cdf[edges]) @ xs)


def end_to_end(run: dict, setup_s: float) -> dict:
    lat = sorted(r["latency_s"] for r in run["records"])
    n = len(lat)
    failed = sum(1 for r in run["records"] if r["failed"])
    return {"latency_p50_s": statistics.median(lat),
            "latency_p90_s": harrell_davis(lat, 0.9),
            "throughput_rps": n / run["wall_s"],
            "success_ratio": (n - failed) / n,
            "peak_rss_mb": run["rss_mb"],
            "setup_s": setup_s}


def per_layer(run: dict, names) -> dict:
    self_s = spans.self_times(run["spans"])
    counts, peaks = run["counts"], run["peaks"]
    out = {}
    for name in names:
        if name.endswith(".self_s"):
            out[name] = self_s.get(name.removesuffix(".self_s"), 0.0)
        elif name.endswith(".ok_ratio"):
            base = name.removesuffix(".ok_ratio")
            calls = counts.get(f"{base}.calls", 0)
            out[name] = counts.get(f"{base}.ok", 0) / calls if calls else 0.0
        elif name.endswith(".max_coeff_bits"):
            out[name] = peaks.get(name, 0)
        elif name == "trace.throughput_rps":
            out[name] = len(run["records"]) / run["wall_s"]
        else:
            out[name] = counts.get(name, 0)
    return out


# -- provenance ---------------------------------------------------------------

def provenance(seed: int) -> dict:
    commit = None               # a checkout without git metadata
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=harness.ROOT,
            capture_output=True, text=True, check=True).stdout.split()
        if Path(top).resolve() == harness.ROOT:
            commit = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((harness.SRC / "designlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(harness.SRC)).encode())
            digest.update(path.read_bytes())
    parallel = sys.modules["designlab._parallel"]
    default_workers = getattr(parallel, "default_workers", None)
    return {"commit": commit, "source_sha256": digest.hexdigest(), "seed": seed,
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cli_default_workers": default_workers() if default_workers else None}


# -- entry points -------------------------------------------------------------

def run_one(args) -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    harness.load_designlab()
    expected = harness.load_expected()
    OUT.mkdir(exist_ok=True)
    setup = [] if args.trace else setup_samples()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    cycles = pools.cycles_for(args.workload, args.seconds)
    try:
        if args.workload == "session":
            run = run_session(args.seed, cycles, expected, tracer)
        else:
            run = run_cold(pools.COLD[args.workload], args.seed, cycles,
                           expected, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    n = len(run["records"])
    failures = [r for r in run["records"] if r["failed"]]
    if args.trace:
        defs = spec["per_layer"]
        values = per_layer(run, [m["name"] for m in defs])
    else:
        defs = spec["end_to_end"]
        values = end_to_end(run, statistics.median(setup + setup_samples()))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in defs}
    meta = provenance(args.seed)
    meta.update({"workload": args.workload, "trace": args.trace,
                 "requests": n, "cycles": cycles,
                 "wall_s": run["wall_s"], "failed": len(failures),
                 "failed_ratio": len(failures) / n,
                 "p90_rank": p90_rank(n), "beyond_p90": n - p90_rank(n)})

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "requests": run["records"]}, indent=1))
    if args.trace:
        with gzip.open(OUT / f"{stem}-spans.jsonl.gz", "wt") as fh:
            for s in run["spans"]:
                fh.write(json.dumps(s) + "\n")

    for r in failures:
        print(f"FAILED {r['key']}: {r['failed']}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {n} requests in {cycles} "
          f"cycle(s), {run['wall_s']:.2f} s; p90 is rank {p90_rank(n)} with "
          f"{n - p90_rank(n)} beyond; failed_ratio {len(failures) / n:g} "
          f"({len(failures)}/{n})")
    print(json.dumps({k: meta[k] for k in ("commit", "source_sha256", "python",
                                           "numpy", "nproc",
                                           "cli_default_workers")}))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": n,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, with the tracing overhead."""
    rows = []
    for workload in pools.WORKLOADS:
        results = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        plain, traced = results
        print(f"== {workload}: attempted {plain['attempted']}, "
              f"failed_ratio {plain['failed'] / plain['attempted']:g}")
        for name, m in plain["metrics"].items():
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
        overhead = 1 - (traced["metrics"]["trace.throughput_rps"]["value"]
                        / plain["metrics"]["throughput_rps"]["value"])
        print(f"  {'tracing overhead':42s} {overhead:>14.3%} of throughput_rps")
        for name, m in traced["metrics"].items():
            if m["value"]:
                print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
        rows.append({"workload": workload, "untraced": plain, "traced": traced,
                     "tracing_overhead": overhead})
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-seed{args.seed}.json").write_text(json.dumps(rows, indent=1))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=pools.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload is required without --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
