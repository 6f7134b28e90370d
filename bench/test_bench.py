"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import pools  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

cli = harness.load_designlab()

# groups whose members take seconds; the smoke runs leave them out
_SLOW_GROUPS = {"eta_neg_500", "eta_neg_1000", "eta_neg_1500", "medium", "heavy",
                "brute_heavy", "harmonic_heavy"}


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def test_every_pool_request_parses():
    parser = cli.build_parser()
    for req in pools.all_requests():
        if isinstance(req, str):
            assert req.removeprefix("lib:") in harness.LIBRARY, req
        else:
            parser.parse_args(["--format", "json", *req])


def test_every_pool_request_has_an_expected_answer():
    expected = harness.load_expected()
    keys = {pools.request_key(r) for r in pools.all_requests()}
    assert keys == set(expected)


def test_check_ignores_added_keys_and_catches_changed_fields():
    obj = {"schema": "v1", "verdict": "design", "vectors": list(range(100))}
    rec = harness.answer_record(0, [obj], None)
    assert "vectors" in rec["digests"] and rec["values"]["verdict"] == "design"
    assert harness.check_answer(rec, 0, [dict(obj, stats={"t": 1})], None) is None
    assert harness.check_answer(rec, 0, [dict(obj, verdict="no")], None)
    assert harness.check_answer(rec, 0, [dict(obj, vectors=[1])], None)
    assert harness.check_answer(rec, 1, [], "CapExceededError")
    refusal = harness.answer_record(1, [], "CapExceededError")
    assert harness.check_answer(refusal, 1, [], "CapExceededError") is None
    assert harness.check_answer(refusal, 1, [], "ValueError")


def _tiny_groups(workload):
    return [{"name": g["name"], "repeat": 1, "requests": g["requests"][:1]}
            for g in pools.COLD[workload] if g["name"] not in _SLOW_GROUPS]


def _tiny_run(workload, tracer=None):
    expected = harness.load_expected()
    if workload == "session":
        return run.run_session(1, 1, expected, tracer)
    return run.run_cold(_tiny_groups(workload), 1, 1, expected, tracer)


@pytest.mark.parametrize("workload", ["series", "shells", "codes", "session"])
def test_tiny_smoke_run_has_no_failures(workload, out_dir, monkeypatch):
    monkeypatch.setattr(pools, "session_episodes", lambda rng: [
        ["lib:plane_strengths_z2", "lib:antisymmetry_hamming8_1"],
        [["voa-strength", "--c", "16", "--ell", str(e)] for e in (3, 9, 1)],
        [["code-design", "--code", "hamming8", "--weight", "4", "--t", str(t)]
         for t in (1, 2, 3)]])
    res = _tiny_run(workload)
    metrics = run.end_to_end(res, setup_s=1.0)
    assert [r for r in res["records"] if r["failed"]] == []
    assert metrics["success_ratio"] == 1.0
    assert list(out_dir.iterdir()) == []        # child results are cleaned up


@pytest.mark.parametrize("workload, idle", [("codes", ("qseries.", "lattices.")),
                                            ("series", ("codes.",))])
def test_traced_run_bypasses_the_other_layers(workload, idle, out_dir):
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = _tiny_run(workload, tracer)
    finally:
        tracer.uninstall()
    values = run.per_layer(res, [m["name"] for m in spec["per_layer"]])
    busy = [k for k, v in values.items()
            if k.endswith(".self_s") and v > 0 and not k.startswith(idle)]
    assert busy and "cli.main.self_s" in busy
    assert all(v == 0 for k, v in values.items()
               if k.endswith(".self_s") and k.startswith(idle))


def test_self_time_counts_overlapping_children_once():
    synthetic = [
        # request, id, parent, name, start, end
        [1, 1, 0, "outer", 0.0, 10.0],
        [1, 2, 1, "a", 1.0, 4.0],
        [1, 3, 1, "b", 3.0, 6.0],       # overlaps a on [3, 4]
        [1, 4, 1, "c", 8.0, 12.0],      # runs past its parent's end
        [1, 5, 2, "leaf", 2.0, 3.0],
        [2, 2, 0, "a", 0.0, 1.0],       # same ids in another request
    ]
    got = spans.self_times(synthetic)
    assert got["outer"] == pytest.approx(10 - 5 - 2)
    assert got["a"] == pytest.approx(2 + 1)
    assert got["b"] == pytest.approx(3)
    assert got["c"] == pytest.approx(4)
    assert got["leaf"] == pytest.approx(1)


def _designlab_attributes():
    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "designlab" or name.startswith("designlab."):
            for key, value in vars(mod).items():
                snap[(name, key)] = value
    for key, value in vars(sys.modules["designlab.qseries"].QSeries).items():
        snap[("QSeries", key)] = value
    return snap


def test_wrap_then_unwrap_restores_every_attribute():
    before = _designlab_attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sys.modules["designlab.cli"].shell_enum is not \
            before[("designlab.lattices", "shell_enum")]
        assert sys.modules["designlab.qseries"].QSeries.div is not \
            before[("QSeries", "div")]
    finally:
        tracer.uninstall()
    after = _designlab_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_matches_the_layer_map_and_pools():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    layer_map = json.loads((harness.ROOT / "bench" / "layers.json").read_text())
    mapped = [m for row in layer_map["layers"] for m in row["metrics"]]
    assert set(mapped) <= set(names) and len(mapped) == len(set(mapped))
    assert [w["name"] for w in spec["workloads"]] == list(pools.WORKLOADS)
    assert {"setup_s"} <= {m["name"] for m in spec["end_to_end"]}


def test_cycles_depend_only_on_the_seed():
    for groups in pools.COLD.values():
        a = pools.cold_cycle(groups, random.Random(7))
        assert a == pools.cold_cycle(groups, random.Random(7))
        assert len(a) == sum(len(g["requests"]) * g["repeat"]
                             for g in groups) >= 100
    assert pools.session_episodes(random.Random(3)) == \
        pools.session_episodes(random.Random(3))
