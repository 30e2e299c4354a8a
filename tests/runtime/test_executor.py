"""Tests of the sweep executor (serial, or warm workers at jobs > 1)."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.experiments.render import render_report
from repro.experiments.runner import PlanRunner
from repro.experiments.table_runner import table_plan
from repro.runtime.executor import CellError, run_cells
from repro.runtime.instrumentation import (
    Instrumentation,
    use_instrumentation,
)
from repro.runtime.pool import PoolUnavailable, WorkerPool


def _square(spec):
    return spec * spec


def _fail_on_three(spec):
    if spec == 3:
        raise ValueError("three is right out")
    return spec


_FLAKY_MARKER = "/tmp/repro-executor-flaky-{pid}-{spec}"


def _flaky_once(spec):
    """Fails the first time a given spec is seen by this process tree."""
    marker = _FLAKY_MARKER.format(pid=os.getppid(), spec=spec)
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("transient fault")
    return spec


def _slow(spec):
    time.sleep(spec)
    return spec


def _slow_in_worker(spec):
    """Sleeps ``spec`` seconds in a worker process only."""
    if multiprocessing.parent_process() is not None:
        time.sleep(spec)
    return spec


def _die_unless_pid(spec):
    """Hard-exits in any process other than the one whose pid is the spec
    — kills pool workers, succeeds on the parent's serial retry."""
    if os.getpid() != spec:
        os._exit(1)
    return spec


class TestSerial:
    def test_results_in_input_order(self):
        assert run_cells(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_empty_specs(self):
        assert run_cells(_square, [], jobs=4) == []

    def test_single_spec_stays_serial(self):
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            assert run_cells(_square, [7], jobs=4) == [49]
        assert "executor.cells_submitted" not in instrumentation.counters

    def test_serial_retries_transient_fault(self, tmp_path):
        specs = [1, 2]
        for spec in specs:
            marker = _FLAKY_MARKER.format(pid=os.getppid(), spec=spec)
            if os.path.exists(marker):
                os.remove(marker)
        assert run_cells(_flaky_once, specs, jobs=1) == specs

    def test_serial_hard_failure_raises_cell_error(self):
        with pytest.raises(CellError) as excinfo:
            run_cells(_fail_on_three, [1, 2, 3], jobs=1)
        assert excinfo.value.index == 2
        assert excinfo.value.spec == 3

    def test_retry_false_raises_immediately(self):
        with pytest.raises(CellError):
            run_cells(_fail_on_three, [3], jobs=1, retry=False)


class TestParallel:
    def test_matches_serial(self):
        specs = list(range(20))
        assert run_cells(_square, specs, jobs=4) == run_cells(
            _square, specs, jobs=1
        )

    def test_results_in_input_order(self):
        # Reverse-sorted sleep times: the first-submitted cell finishes
        # last, so out-of-order harvesting would be visible.
        specs = [0.2, 0.1, 0.0]
        assert run_cells(_slow, specs, jobs=3) == specs

    def test_failed_cell_retried_serially(self):
        # _fail_on_three fails deterministically, so the serial retry
        # fails too -> CellError with the original index.
        with pytest.raises(CellError) as excinfo:
            run_cells(_fail_on_three, [1, 2, 3, 4], jobs=2)
        assert excinfo.value.index == 2

    def test_killed_worker_falls_back_to_serial(self):
        # Workers hard-exit, so the whole pool is lost; every dead cell
        # must then be recovered by the parent's takeover, where the pid
        # matches and the worker function succeeds.
        parent = os.getpid()
        specs = [parent, parent]
        assert run_cells(_die_unless_pid, specs, jobs=2) == specs

    def test_timeout_triggers_serial_retry(self):
        # A 0.3s cell against a 0.1s budget: its worker is killed and the
        # parent retries it under the same budget, which it meets there
        # (the cell only sleeps in a worker).
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            results = run_cells(
                _slow_in_worker, [0.3, 0.0], jobs=2, timeout=0.1
            )
        assert results == [0.3, 0.0]
        assert instrumentation.counters["executor.cell_timeouts"] >= 1

    def test_jobs_picks_workers_for_parallel_sweeps(self):
        # Workers only when the sweep actually fans out.
        for jobs, cells, on_workers in ((2, 4, True), (1, 4, False),
                                        (2, 1, False)):
            instrumentation = Instrumentation()
            with use_instrumentation(instrumentation):
                results = run_cells(_square, list(range(cells)), jobs=jobs)
            assert results == [spec * spec for spec in range(cells)]
            counters = instrumentation.counters
            assert ("executor.backend.workers" in counters) is on_workers
            assert ("pool.workers_started" in counters) is on_workers

    def test_counters_account_for_submissions(self):
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            run_cells(_square, [1, 2, 3], jobs=2)
        assert instrumentation.counters["executor.cells_submitted"] == 3


def _recovery(counters) -> dict:
    return {
        name: value
        for name, value in counters.items()
        if name.startswith("recovery.")
    }


class TestSerialFallback:
    """A sandbox without process support: the workers cannot start, so
    the sweep finishes serially, bit-identical, disclosed once."""

    @pytest.fixture
    def starts(self, monkeypatch) -> list:
        starts: list = []

        def _unavailable(pool, *args, **kwargs):
            starts.append(args)
            raise PoolUnavailable("processes unavailable")

        monkeypatch.setattr(WorkerPool, "__init__", _unavailable)
        return starts

    def test_pool_creation_failure_degrades_to_serial(self, starts):
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            results = run_cells(_square, [1, 2, 3], jobs=4)
        assert results == [1, 4, 9]
        assert len(starts) == 1
        counters = instrumentation.counters
        assert counters["executor.serial_fallbacks"] == 1
        assert _recovery(counters) == {"recovery.workers_serial_fallback": 1}

    def test_plan_runner_goes_serial_once(self, starts, t5):
        # A table plan runs several waves; the failed start is not
        # retried on any of them.
        plan = table_plan(t5, 150, widths=(4, 8), group_counts=(1, 2))
        serial = PlanRunner(jobs=1).run(plan)
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            run = PlanRunner(jobs=2).run(plan)
        assert len(starts) == 1
        assert run.backend == "serial"
        assert render_report("table", run.report) == render_report(
            "table", serial.report
        )
        counters = instrumentation.counters
        assert _recovery(counters) == {"recovery.workers_serial_fallback": 1}


class TestErrorChaining:
    def test_cell_error_names_index_and_spec(self):
        with pytest.raises(CellError) as excinfo:
            run_cells(_fail_on_three, [7, 3], jobs=1)
        error = excinfo.value
        assert error.index == 1
        assert error.spec == 3
        assert "spec 3" in str(error)
        assert "retry budget" in str(error)

    def test_original_traceback_is_chained(self):
        # CellError from-chains the retry failure, which itself chains
        # the original failure: neither traceback is lost.
        with pytest.raises(CellError) as excinfo:
            run_cells(_fail_on_three, [3], jobs=1)
        retry_failure = excinfo.value.__cause__
        assert isinstance(retry_failure, ValueError)
        assert excinfo.value.cause is retry_failure
        original = retry_failure.__cause__
        assert isinstance(original, ValueError)
        assert original is not retry_failure

    def test_parallel_retry_chains_pool_failure(self):
        with pytest.raises(CellError) as excinfo:
            run_cells(_fail_on_three, [1, 2, 3, 4], jobs=2)
        retry_failure = excinfo.value.__cause__
        assert isinstance(retry_failure, ValueError)
        # the pool-side failure rides along as the retry's cause
        assert isinstance(retry_failure.__cause__, ValueError)
