"""Submissions that still carry a retired engine selector.

The optimizer and vertical-compaction selectors are gone; plans
serialized by an older client may still name a non-default engine in
their params.  Such a plan keeps its own fingerprint, is accepted, runs
the one engine each layer has, and renders exactly what the default plan
renders.  The CLI-style builder, by contrast, rejects the retired
options up front.
"""

from __future__ import annotations

import pytest

from repro.experiments.compaction_study import volume_plan
from repro.experiments.plan import ExperimentPlan, plan_from_dict, plan_to_dict
from repro.experiments.single import optimize_plan
from repro.resilience.validation import ValidationError
from repro.service import ServiceClient, build_plan


def _rendered(service, plan: ExperimentPlan) -> str:
    client = ServiceClient(service.url, timeout=60.0)
    job_id = client.submit(plan)["job"]["id"]
    outcome = client.wait(job_id, timeout=300)
    assert outcome["job"]["state"] == "ok"
    return outcome["result"]["rendered"]


@pytest.mark.parametrize(
    "make,key,value",
    [
        (
            lambda soc: optimize_plan(soc, 16, pattern_count=300, parts=2),
            "optimizer_backend",
            "reference",
        ),
        (
            lambda soc: volume_plan(soc, 300, group_counts=(1, 2)),
            "backend",
            "bitset",
        ),
    ],
    ids=["optimize-reference", "volume-bitset"],
)
@pytest.mark.deadline(300)
def test_old_client_selector_renders_like_default(
    service_factory, d695, make, key, value
):
    default = make(d695)
    old = ExperimentPlan(default.name, {**default.params, key: value})
    assert old.fingerprint() != default.fingerprint()
    wire = plan_from_dict(plan_to_dict(old))
    assert wire.params[key] == value
    service = service_factory()
    assert _rendered(service, wire) == _rendered(service, default)


@pytest.mark.parametrize(
    "kind,options",
    [
        ("optimize", {"wmax": 8, "optimizer_backend": "bogus"}),
        ("volume", {"compaction_backend": "bogus"}),
    ],
)
def test_build_plan_rejects_retired_options(d695, kind, options):
    with pytest.raises(ValidationError, match="unknown submit option"):
        build_plan(kind, d695, **options)
