"""The output-digest script runs the benchmark's CLI requests in forked
children and prints one digest per request and format."""

import importlib.util
import re
from pathlib import Path

import designlab
import designlab.cli

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_output_digests_smoke(monkeypatch, capsys):
    tool = load_tool()
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


def test_output_digests_exit_1_when_a_child_crashes(monkeypatch, capsys):
    tool = load_tool()
    reqs = tool.cli_requests()[:2]
    monkeypatch.setattr(tool, "cli_requests", lambda: reqs)
    real = tool.output_digest

    def crash_on_text(cli, argv):
        if argv[1] == "text":
            raise RuntimeError("a broken checkout")
        return real(cli, argv)

    monkeypatch.setattr(tool, "output_digest", crash_on_text)
    src = Path(designlab.__file__).resolve().parent.parent
    assert tool.main([str(src)]) == 1
    lines = capsys.readouterr().out.splitlines()
    # every request is still run and printed; only the crashed ones say so
    assert [line.split(" ", 1)[0] == "crashed" for line in lines] == \
        [False, True, False, True]
