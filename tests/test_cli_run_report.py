"""The run report's ``arguments`` of each experiment command.

``--profile PATH`` records the SOC, the kind's options and the runtime
flags of the run.  The dicts below were recorded from the per-command
handlers that the generated ones replaced, defaults included, so the
report a script reads back keeps its keys and values.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

_RUNTIME = {
    "jobs": 1, "cache": None, "resume": None, "verify": False,
    "policy": None, "allow_partial": False,
}

#: command -> (argv, the report's ``arguments``).
CASES = {
    "pareto": (
        ["pareto", "t5"],
        {"soc": "t5", "widths": [8, 16, 24, 32, 40, 48, 56, 64],
         "patterns": 0, "parts": 4, "seed": 1, **_RUNTIME},
    ),
    "scaling": (
        ["scaling", "--cores", "6", "--patterns", "100"],
        {"cores": [6], "wmax": 32, "patterns": 100, "parts": 4, "seed": 0,
         **_RUNTIME},
    ),
    "table": (
        ["table", "t5", "--patterns", "200", "--parts", "1", "2"],
        {"soc": "t5", "patterns": 200,
         "widths": [8, 16, 24, 32, 40, 48, 56, 64], "parts": [1, 2],
         "seed": 1, **_RUNTIME},
    ),
    "volume": (
        ["volume", "t5", "--patterns", "300", "--parts", "1", "4"],
        {"soc": "t5", "patterns": 300, "parts": [1, 4], "seed": 1,
         **_RUNTIME},
    ),
    "compare": (
        ["compare", "t5", "--wmax", "8", "--verify",
         "--policy", "retries=2", "--allow-partial"],
        {"soc": "t5", "wmax": 8, "patterns": 0, "parts": 4, "seed": 1,
         "sa_steps": 4000, **_RUNTIME, "verify": True,
         "policy": "retries=2", "allow_partial": True},
    ),
    "multisite": (
        ["multisite", "t5"],
        {"soc": "t5", "channels": 64, "patterns": 0, "parts": 4, "seed": 1,
         **_RUNTIME},
    ),
    "sensitivity": (
        ["sensitivity", "t5", "--patterns", "200"],
        {"soc": "t5", "wmax": 32, "patterns": 200, "parts": 4, "seed": 1,
         **_RUNTIME},
    ),
    "stability": (
        ["stability", "t5", "--patterns", "200", "--jobs", "2"],
        {"soc": "t5", "wmax": 24, "patterns": 200, "seeds": [1, 2, 3],
         **_RUNTIME, "jobs": 2},
    ),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_profile_arguments_are_pinned(capsys, tmp_path, command):
    argv, expected = CASES[command]
    path = tmp_path / "report.json"
    assert main(argv + ["--profile", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["command"] == command
    assert report["arguments"] == expected
