"""Sweep executor: serial, or warm workers at ``jobs > 1``.

Experiment sweeps decompose into independent *cells* — one optimizer or
grouping run per parameter combination.  :func:`run_cells` runs a list of
cell specs and returns the results **in input order**, so a parallel
sweep is indistinguishable from a serial one to the caller.  ``jobs`` is
the only parallelism choice:

* ``jobs <= 1`` (or a single cell) runs serially in-process;
* ``jobs > 1`` fans the cells out over the work-stealing
  :class:`repro.runtime.pool.WorkerPool` — a transient one, or the
  caller's already-warm ``pool`` spanning several sweep phases.  When
  worker processes cannot be started (e.g. a sandbox without process
  support) the sweep runs serially instead, disclosed by
  ``recovery.workers_serial_fallback``.

Fault handling, in order of escalation:

* a cell that raises or returns a result its validator rejects is
  retried serially under the current
  :class:`~repro.runtime.supervision.RunPolicy`'s retry budget (on the
  worker pool a hung cell, or one whose worker died, is taken over by
  the parent the same way — see :meth:`WorkerPool.run`);
* a cell that exhausts its budget → :class:`CellError` carrying the
  cell index, both failures chained (`retry failure from original
  failure`), and the spec.

Workers must be module-level callables and specs picklable; both are
standard :mod:`multiprocessing` constraints.

When a fault plan is active (:mod:`repro.resilience.faults`), the worker
is wrapped with the ``executor.cell`` injection site; with no plan the
wrap is an identity and the hot path is untouched.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro.runtime.instrumentation import incr
from repro.runtime.supervision import (
    CircuitOpenError,
    current_breaker,
    current_policy,
    degraded_backend,
    note_backend_failure,
)


class CellError(RuntimeError):
    """A sweep cell failed every attempt its retry budget allowed."""

    def __init__(self, index: int, spec, cause: BaseException) -> None:
        super().__init__(
            f"sweep cell {index} (spec {spec!r}) failed after exhausting "
            f"its retry budget: {cause!r}"
        )
        self.index = index
        self.spec = spec
        self.cause = cause


#: Accepted ``on_error`` modes of :func:`run_cells`.
ON_ERROR_MODES = ("raise", "return")


#: Public name for the structured failure the executor escalates to.
CellFailure = CellError


def run_cells(
    worker: Callable,
    specs: Sequence,
    jobs: int = 1,
    timeout: float | None = None,
    retry: bool = True,
    validate: Callable | None = None,
    pool=None,
    shard_keys: Sequence | None = None,
    warmup: Callable | None = None,
    on_error: str = "raise",
) -> list:
    """Run ``worker(spec)`` for every spec, possibly in parallel.

    Args:
        worker: Module-level callable applied to each spec.
        specs: The cell specs, one per cell.
        jobs: Worker process count; ``<= 1`` means serial in-process.
        timeout: Per-cell budget in seconds on the worker pool
            (``None`` = the policy's ``cell_timeout``).  A cell past it
            has its worker killed and is retried in the parent under the
            same budget.
        retry: Retry failed cells serially before giving up.  With
            ``retry=False`` the first failure is final.
        validate: Optional result validator; a result it raises on (or
            returns ``False`` for) is treated exactly like a raising
            cell — retried serially, then escalated to
            :class:`CellError`.  Guards against garbage/partial payloads
            from a sick worker process.
        pool: An already-warm :class:`repro.runtime.pool.WorkerPool` to
            run on; the caller owns its lifecycle, so one pool can span
            several sweep phases.
        shard_keys: Optional per-spec state keys for the worker pool —
            cells sharing a key land on the same worker and share its
            warm state.
        warmup: Optional per-worker warm-up hook for a transient pool.
        on_error: ``"raise"`` (default) escalates the first cell whose
            retry budget is exhausted as :class:`CellError`; ``"return"``
            places the :class:`CellError` *in the results list* at the
            cell's slot and keeps going — the PlanRunner's partial-run
            (poison quarantine) protocol.

    Returns:
        Results in the order of ``specs``.

    Raises:
        CellError: When a cell exhausts its retry budget (the budget is
            :func:`repro.runtime.supervision.current_policy`'s retry
            policy; ``retry=False`` means a single attempt) and
            ``on_error`` is ``"raise"``.
    """
    if on_error not in ON_ERROR_MODES:
        raise ValueError(
            f"unknown on_error mode {on_error!r}; expected one of "
            f"{', '.join(ON_ERROR_MODES)}"
        )
    specs = list(specs)
    if not specs:
        return []
    from repro.resilience.faults import wrap_worker

    worker = wrap_worker(worker)
    if pool is not None:
        incr("executor.backend.workers")
        return pool.run(
            worker, specs, timeout=timeout, retry=retry, validate=validate,
            shard_keys=shard_keys, on_error=on_error,
        )
    if (
        jobs > 1
        and len(specs) > 1
        # The degradation ladder retires the workers for the rest of
        # the process after repeated backend-level failure.
        and degraded_backend("workers") == "workers"
    ):
        from repro.runtime.pool import PoolUnavailable, run_cells_stolen

        try:
            result = run_cells_stolen(
                worker, specs, jobs=jobs, timeout=timeout, retry=retry,
                validate=validate, warmup=warmup, shard_keys=shard_keys,
                on_error=on_error,
            )
        except PoolUnavailable:
            note_workers_unavailable()
        else:
            incr("executor.backend.workers")
            return result
    return _run_serial(worker, specs, retry, validate, on_error)


def note_workers_unavailable() -> None:
    """Account a sweep that wanted workers but could not start them and
    runs serially instead."""
    incr("executor.serial_fallbacks")
    incr("recovery.workers_serial_fallback")
    note_backend_failure("workers")


def _invalid(validate: Callable | None, value) -> Exception | None:
    """The exception describing why ``value`` fails ``validate``, if any."""
    if validate is None:
        return None
    try:
        verdict = validate(value)
    except Exception as error:
        return error
    if verdict is False:
        return ValueError(f"worker returned invalid result {value!r}")
    return None


def _backoff(retry_policy, token, attempt: int) -> None:
    """Sleep the policy's deterministic backoff before retry ``attempt``."""
    delay = retry_policy.delay(token, attempt)
    if delay > 0:
        incr("executor.backoff_sleeps")
        time.sleep(delay)


def bounded_call(worker: Callable, spec, timeout: float | None):
    """Run ``worker(spec)`` under a wall-clock deadline.

    The parent-side serial retry of a *hung* cell must not inherit the
    hang: the call runs on a daemon thread and past ``timeout`` a
    :class:`TimeoutError` is raised.  The abandoned attempt keeps running
    on its thread until process exit; its result is discarded — the same
    at-worst-duplicated-work contract as a killed pool worker.
    """
    if timeout is None:
        return worker(spec)
    import threading

    outcome: list = []

    def target() -> None:
        try:
            outcome.append((True, worker(spec)))
        except BaseException as error:  # ship every failure to the caller
            outcome.append((False, error))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if not outcome:
        incr("executor.cell_timeouts")
        raise TimeoutError(f"serial retry exceeded {timeout}s")
    ok, value = outcome[0]
    if ok:
        return value
    raise value


def retry_cell(
    worker: Callable,
    spec,
    index: int,
    first_cause: BaseException,
    retry: bool,
    validate: Callable | None = None,
    timeout: float | None = None,
    on_error: str = "raise",
) -> object:
    """Serial retry attempts for a cell whose first attempt failed.

    Runs attempts 2..N of the current policy's retry budget (with its
    deterministic backoff between attempts) and returns the first good
    value.  When the budget is exhausted, the breaker is open, or
    ``retry`` is off, the cell has failed: :class:`CellError` is raised,
    or returned under ``on_error="return"``.  Either outcome is recorded
    on the breaker.  ``timeout`` bounds each retry attempt via
    :func:`bounded_call` (the parent-takeover deadline).
    """
    cause = first_cause
    breaker = current_breaker()
    if retry:
        retry_policy = current_policy().retry
        for attempt in range(2, retry_policy.max_attempts + 1):
            if breaker is not None and breaker.tripped:
                break
            incr("executor.cell_retries")
            _backoff(retry_policy, index, attempt - 1)
            try:
                value = bounded_call(worker, spec, timeout)
                problem = _invalid(validate, value)
                if problem is not None:
                    raise problem
            except Exception as error:
                # Chain the retry's failure onto the original so neither
                # traceback is lost in the escalation.
                if error.__cause__ is None and error is not cause:
                    error.__cause__ = cause
                cause = error
                continue
            incr("recovery.cell_retry_ok")
            if breaker is not None:
                breaker.record(True)
            return value
    if breaker is not None:
        breaker.record(False)
    failure = CellError(index, spec, cause)
    if on_error == "return":
        incr("executor.cells_failed")
        return failure
    raise failure from cause


def _run_serial(
    worker: Callable,
    specs: list,
    retry: bool,
    validate: Callable | None = None,
    on_error: str = "raise",
) -> list:
    breaker = current_breaker()
    results = []
    for index, spec in enumerate(specs):
        try:
            if breaker is not None and breaker.tripped:
                raise CircuitOpenError(
                    f"circuit breaker open ({breaker.describe()})"
                )
            value = worker(spec)
            problem = _invalid(validate, value)
            if problem is not None:
                incr("recovery.garbage_results")
                raise problem
        except Exception as error:
            value = retry_cell(
                worker, spec, index, error, retry, validate,
                on_error=on_error,
            )
        else:
            if breaker is not None:
                breaker.record(True)
        results.append(value)
    return results
