"""Golden equivalence: a job's rendered result over HTTP is
byte-identical to the standalone CLI command's stdout, for every plan
kind the service accepts."""

from __future__ import annotations

import re

import pytest

from repro.cli import main as cli_main
from repro.service import (
    OptimizationService,
    ServiceClient,
    ServiceConfig,
    build_plan,
)
from repro.soc.benchmarks import load_benchmark

#: kind -> (CLI argv, build_plan options) — knobs kept small but real,
#: and identical on both sides so fingerprints match too.
CASES = {
    "table": (
        ["table", "t5", "--patterns", "800", "--widths", "16", "24",
         "--parts", "1", "2"],
        {"patterns": 800, "widths": [16, 24], "parts": [1, 2]},
    ),
    "pareto": (
        ["pareto", "t5", "--widths", "16", "24", "32"],
        {"widths": [16, 24, 32]},
    ),
    "volume": (
        ["volume", "t5", "--patterns", "600", "--parts", "1", "2"],
        {"patterns": 600, "parts": [1, 2]},
    ),
    "compare": (
        ["compare", "t5", "--wmax", "16", "--sa-steps", "150"],
        {"wmax": 16, "sa_steps": 150},
    ),
    "multisite": (
        ["multisite", "t5", "--channels", "32"],
        {"channels": 32},
    ),
    "scaling": (
        ["scaling", "--cores", "6", "8", "--wmax", "16",
         "--patterns", "300", "--parts", "2"],
        {"cores": [6, 8], "wmax": 16, "patterns": 300, "parts": 2},
    ),
    "sensitivity": (
        ["sensitivity", "t5", "--patterns", "400", "--wmax", "16",
         "--parts", "2"],
        {"patterns": 400, "wmax": 16, "parts": 2},
    ),
    "stability": (
        ["stability", "t5", "--patterns", "400", "--wmax", "16",
         "--seeds", "1", "2"],
        {"patterns": 400, "wmax": 16, "seeds": [1, 2]},
    ),
    "optimize": (
        ["optimize", "t5", "--wmax", "16"],
        {"wmax": 16},
    ),
}


@pytest.fixture(scope="module")
def shared_service(tmp_path_factory):
    service = OptimizationService(
        ServiceConfig(state_dir=tmp_path_factory.mktemp("equivalence"))
    )
    service.start()
    yield service
    service.stop()


#: Kinds whose reports embed measured wall-seconds (two-decimal cells:
#: scaling's "compact s"/"optimize s", compare's "runtime") — mask just
#: those cells; every other byte must still match exactly.
_TIMED_KINDS = frozenset({"scaling", "compare"})
_SECONDS_CELL = re.compile(r"\b\d+\.\d{2}s?\b")


def _strip_elapsed(text: str, kind: str = "table") -> str:
    """Drop the wall-clock line and (for timed kinds) seconds cells."""
    if kind in _TIMED_KINDS:
        text = _SECONDS_CELL.sub("#", text)
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith("(elapsed")
    )


def _submit_rendered(
    service, kind: str, options: dict, soc_name: str = "t5"
) -> str:
    soc = load_benchmark(soc_name) if kind != "scaling" else None
    plan = build_plan(kind, soc, **options)
    client = ServiceClient(service.url, timeout=60.0)
    job_id = client.submit(plan)["job"]["id"]
    outcome = client.wait(job_id, timeout=600)
    assert outcome["job"]["state"] == "ok"
    return outcome["result"]["rendered"]


@pytest.mark.parametrize("kind", sorted(CASES))
@pytest.mark.deadline(600)
def test_http_result_matches_cli_stdout(
    shared_service, capsys, kind
):
    argv, options = CASES[kind]
    assert cli_main(argv) == 0
    cli_output = _strip_elapsed(capsys.readouterr().out, kind)
    rendered = _submit_rendered(shared_service, kind, options)
    assert _strip_elapsed(rendered, kind) == cli_output


@pytest.mark.deadline(600)
def test_evaluate_http_result_matches_cli_stdout(
    shared_service, capsys, tmp_path
):
    arch_path = tmp_path / "arch.json"
    assert (
        cli_main(
            ["optimize", "t5", "--wmax", "16",
             "--save-arch", str(arch_path)]
        )
        == 0
    )
    capsys.readouterr()  # discard the optimize output
    assert cli_main(["evaluate", "t5", "--arch", str(arch_path)]) == 0
    cli_output = capsys.readouterr().out.rstrip("\n")
    rendered = _submit_rendered(
        shared_service, "evaluate", {"arch": str(arch_path)}
    )
    assert rendered == cli_output


@pytest.mark.deadline(600)
def test_submitted_fingerprints_match_cli_plans(t5):
    """The submit-side plan builders produce exactly the plans the CLI
    commands build — same fingerprints, hence dedup across entry
    points."""
    from repro.experiments.table_runner import table_plan

    via_builder = build_plan(
        "table", t5, patterns=800, widths=[16, 24], parts=[1, 2]
    )
    via_cli_path = table_plan(
        t5, 800, widths=(16, 24), group_counts=(1, 2), seed=1,
    )
    assert via_builder.fingerprint() == via_cli_path.fingerprint()


@pytest.mark.slow
@pytest.mark.deadline(600)
def test_p34392_table_bit_identical_over_http(
    shared_service, capsys, p34392
):
    """The acceptance benchmark: a p34392 table served over HTTP is
    bit-identical to the local CLI run."""
    argv = [
        "table", "p34392", "--patterns", "2000",
        "--widths", "16", "32", "--parts", "1", "4",
    ]
    assert cli_main(argv) == 0
    cli_output = _strip_elapsed(capsys.readouterr().out)
    rendered = _submit_rendered(
        shared_service,
        "table",
        {"patterns": 2000, "widths": [16, 32], "parts": [1, 4]},
        soc_name="p34392",
    )
    assert _strip_elapsed(rendered) == cli_output
