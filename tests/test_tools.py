"""The output-digest script runs the benchmark's CLI requests in forked
children and prints one digest per request and format."""

import importlib.util
import re
from pathlib import Path

import designlab
import designlab.cli

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"


def test_output_digests_smoke(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    reqs = tool.cli_requests()[:3]
    monkeypatch.setattr(tool, "cli_requests", lambda: reqs)
    src = Path(designlab.__file__).resolve().parent.parent
    assert tool.main([str(src)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    for line, (req, fmt) in zip(lines, ((r, f) for r in reqs
                                        for f in tool.FORMATS)):
        digest, rest = line.split(" ", 1)
        assert re.fullmatch("[0-9a-f]{64}", digest)
        assert rest == f"{fmt} {' '.join(req)}"
        # the forked child hashes what the same call gives in this process
        assert digest == tool.output_digest(designlab.cli,
                                            ["--format", fmt, *req])
    # the two formats of one request differ, and so do two requests
    assert len({line.split()[0] for line in lines}) == 6
