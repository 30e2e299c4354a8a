"""``repro submit <kind>`` builds exactly the plan its local command runs.

Both sides are parsed by ``build_parser()``.  The local command's plan is
captured where it reaches the plan runner and the submitted one where it
reaches the service client, so no service is needed and no cell runs.
Equal fingerprints are what lets the service dedup a submission against a
local run of the same experiment.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser
from repro.cli import main as cli_main
from repro.experiments.runner import PlanRunner
from repro.experiments.single import optimize_plan
from repro.service import ServiceClient
from repro.soc.benchmarks import load_benchmark
from tests.service.test_equivalence import CASES

#: Flags that exercise ``--parts``/``--seed`` (``--seeds`` for stability)
#: on each kind that reads them, with SI patterns so the groups depend on
#: both.
_PARTS_SEED = {
    "table": ["--seed", "3"],
    "pareto": ["--patterns", "200", "--parts", "2", "--seed", "3"],
    "volume": ["--seed", "3"],
    "compare": ["--patterns", "200", "--parts", "2", "--seed", "3"],
    "multisite": ["--patterns", "200", "--parts", "2", "--seed", "3"],
    "scaling": ["--seed", "3"],
    "sensitivity": ["--seed", "3"],
    "stability": ["--seeds", "2", "3"],
    "optimize": ["--patterns", "200", "--parts", "2", "--seed", "3"],
}


class _Captured(Exception):
    def __init__(self, plan):
        super().__init__(plan.name)
        self.plan = plan


def _capture(monkeypatch, owner, method: str) -> None:
    def stop(self, plan, *args, **kwargs):
        raise _Captured(plan)

    monkeypatch.setattr(owner, method, stop)


def _local_plan(monkeypatch, argv: list[str]):
    if argv[0] == "optimize":
        # The optimize command prices its architecture inline; the plan
        # it stands for is the constructor over its parsed flags.
        args = build_parser().parse_args(argv)
        return optimize_plan(
            load_benchmark(args.soc),
            args.wmax,
            pattern_count=args.patterns,
            parts=args.parts,
            seed=args.seed,
        )
    _capture(monkeypatch, PlanRunner, "run")
    with pytest.raises(_Captured) as caught:
        cli_main(argv)
    return caught.value.plan


def _submitted_plan(monkeypatch, argv: list[str]):
    _capture(monkeypatch, ServiceClient, "submit")
    args = build_parser().parse_args(
        ["submit", *argv, "--url", "http://127.0.0.1:9"]
    )
    with pytest.raises(_Captured) as caught:
        args.func(args)
    return caught.value.plan


@pytest.mark.parametrize("extra", [False, True], ids=["case", "parts-seed"])
@pytest.mark.parametrize("kind", sorted(CASES))
def test_submitted_plan_matches_local_command(monkeypatch, kind, extra):
    argv = CASES[kind][0] + (_PARTS_SEED[kind] if extra else [])
    local = _local_plan(monkeypatch, argv)
    submitted = _submitted_plan(monkeypatch, argv)
    assert submitted.name == local.name == kind
    assert submitted.fingerprint() == local.fingerprint()


@pytest.mark.parametrize(
    "argv",
    [
        ["submit", "stability", "t5", "--seed", "3"],
        ["submit", "table", "t5", "--wmax", "8"],
        ["submit", "scaling", "--channels", "4"],
    ],
    ids=["stability-seed", "table-wmax", "scaling-channels"],
)
def test_submit_rejects_flags_its_kind_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(argv + ["--url", "http://127.0.0.1:9"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
