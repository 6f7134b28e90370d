"""Every benchmark request gives its committed answer.

``bench/run.py`` checks each answer against ``bench/expected.json`` while it
times the workloads; this runs every distinct request once, in one process,
so an answer that drifts fails here first.  The bench modules are loaded by
path, and designlab is whichever one the suite imports (the checkout or an
installed build).
"""

import importlib.util
from pathlib import Path

import designlab.cli  # noqa: F401  (harness.execute reads it off sys.modules)

BENCH = Path(__file__).resolve().parent.parent / "bench"

# the keys of each code-design answer, which bench/expected.json does not
# all record; a --t answer adds "witness" exactly when it is not a design
CODE_DESIGN_KEYS = {
    "--t": {"schema", "command", "code", "weights", "t", "blocks", "lambda",
            "verdict", "mode"},
    "--Tset": {"schema", "command", "code", "weights", "T", "blocks",
               "per_degree", "modes", "verdict"}}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_request_gives_its_expected_answer():
    harness, pools = _load("harness"), _load("pools")
    expected = harness.load_expected()
    mismatches, shapes = {}, set()
    for req in pools.all_requests():
        key = pools.request_key(req)
        _, code, objects, error, _ = harness.execute(req)
        why = harness.check_answer(expected[key], code, objects, error)
        if why is None and code == 0 and req[0] == "code-design":
            route = "--t" if "--t" in req else "--Tset"
            (doc,) = objects
            keys = set(CODE_DESIGN_KEYS[route])
            if doc["verdict"] == "not a design":
                keys.add("witness")
            if set(doc) != keys:
                why = f"payload keys {sorted(set(doc) ^ keys)} differ"
            shapes.add((route, "witness" in keys))
        if why is not None:
            mismatches[key] = why
    assert len(expected) == len(pools.all_requests()) == 651
    assert mismatches == {}
    # every payload shape was met
    assert shapes == {("--t", False), ("--t", True), ("--Tset", False)}
