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


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_request_gives_its_expected_answer():
    harness, pools = _load("harness"), _load("pools")
    expected = harness.load_expected()
    mismatches = {}
    for req in pools.all_requests():
        key = pools.request_key(req)
        _, code, objects, error, _ = harness.execute(req)
        why = harness.check_answer(expected[key], code, objects, error)
        if why is not None:
            mismatches[key] = why
    assert len(expected) == len(pools.all_requests()) == 651
    assert mismatches == {}
