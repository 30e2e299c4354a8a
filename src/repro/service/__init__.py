"""The optimization service: a long-running HTTP job server.

``repro serve`` turns the one-shot experiment CLI into a service: plans
travel over HTTP as their :func:`~repro.experiments.plan.plan_to_dict`
payloads, dedup by content fingerprint, queue with priorities under
bounded backpressure, and execute on one warm runtime — a shared
persistent :class:`~repro.runtime.cache.EvaluationCache`, one shared
:class:`~repro.runtime.pool.WorkerPool`, and per-fingerprint
:class:`~repro.resilience.checkpoint.SweepCheckpoint` durability so a
restarted server resumes in-flight jobs bit-identically.

Layering:

* :mod:`repro.service.wire` — submission parsing / structured errors;
* :mod:`repro.service.queue` — the bounded priority queue;
* :mod:`repro.service.jobs` — durable job records, dedup registry;
* :mod:`repro.service.server` — the HTTP server + executor thread;
* :mod:`repro.service.client` — the stdlib client (``repro submit``).

``repro submit`` builds its plan with
:func:`~repro.experiments.plan.build_plan`, re-exported here, from the
options each plan kind declares.

See ``docs/service.md``.
"""

from repro.experiments.plan import build_plan
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobManager, JobStore
from repro.service.queue import JobQueue, QueueFullError
from repro.service.server import OptimizationService, ServiceConfig
from repro.service.wire import (
    JOB_STATES,
    TERMINAL_STATES,
    Submission,
    error_body,
    parse_submission,
)

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobManager",
    "JobQueue",
    "JobStore",
    "OptimizationService",
    "QueueFullError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "Submission",
    "build_plan",
    "error_body",
    "parse_submission",
]
