"""Fault-tolerant parallel point runner for design-space campaigns.

``LabExecutor.map`` evaluates picklable work items through a
``ProcessPoolExecutor`` (or inline for ``jobs <= 1`` — the two paths are
behaviorally identical, which is what makes "same results at any --jobs"
testable). The executor is the fabric layer of million-point campaigns,
so it never lets one bad point — or one bad *worker* — cost the run:

* a worker **exception** is caught and recorded as a failed
  :class:`PointOutcome` (traceback preserved) while every other point
  completes;
* a worker **hard crash** (segfault, ``os._exit``) breaks the pool; the
  executor salvages every completed result, blames the crash on the
  oldest started point (``RPR-E001``), requeues the rest on a fresh
  pool, and gives up with ``RPR-E003`` rather than looping if pools keep
  breaking spontaneously;
* per-point **timeouts are deadline-based**: each point's clock starts
  when its worker actually begins (not when the future was submitted, and
  not when the driver happens to wait on it). A point past its deadline
  is marked ``status="timeout"`` (``RPR-E002``) and its stuck worker
  process is **hard-killed** — the pool slot is reclaimed and pool
  shutdown never blocks on an abandoned worker;
* with a :class:`repro.lab.retry.RetryPolicy`, transient failures
  (crash/timeout codes) are **retried** with exponential backoff and
  deterministic jitter, bounded by the policy's circuit breaker; the
  final :class:`PointOutcome` journals how many attempts ran;
* **KeyboardInterrupt** propagates — resumability is the store's job
  (:mod:`repro.lab.store`), not the executor's.

Results always come back in submission order regardless of completion
order, so parallel campaigns are deterministic given deterministic
workers. :mod:`repro.lab.chaos` hooks into the worker shim, which is how
the crash/hang half of the chaos suite exercises everything above.
"""

from __future__ import annotations

import heapq
import os
import shutil
import signal
import tempfile
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.diagnostics.bridge import diagnostics_from_exception
from repro.diagnostics.core import Diagnostic
from repro.lab.chaos import active_chaos

__all__ = ["ExecStats", "PointOutcome", "LabExecutor"]


@dataclass
class PointOutcome:
    """The fate of one work item."""

    index: int
    status: str                 # 'ok' | 'failed' | 'timeout'
    value: object = None        # worker return value when status == 'ok'
    error: str = ""             # one-line error summary otherwise
    detail: str = ""            # traceback text for failed points
    #: structured diagnostic dicts for non-ok points (see
    #: :mod:`repro.diagnostics`) — what result records and failure
    #: bundles journal instead of the traceback strings above
    diagnostics: list = field(default_factory=list)
    #: how many executions this point took (1 = no retries); journaled
    #: into result records by the sweep/campaign/difftest drivers
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ExecStats:
    """What the fabric did beyond plain execution, for manifests."""

    retries: int = 0
    timeouts: int = 0
    worker_kills: int = 0
    pool_breaks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_kills": self.worker_kills,
            "pool_breaks": self.pool_breaks,
        }


def _harness_diagnostics(code: str, message: str) -> list:
    """A coded diagnostic for failures with no exception object (a worker
    that segfaulted, a point that timed out)."""
    return [Diagnostic(code=code, severity="error", message=message).to_dict()]


def _outcome_from_exc(index: int, exc: BaseException) -> PointOutcome:
    return PointOutcome(
        index=index,
        status="failed",
        error=f"{type(exc).__name__}: {exc}",
        detail="".join(traceback.format_exception(exc)),
        diagnostics=diagnostics_from_exception(exc),
    )


def _worker_shim(fn, item, trace_path, token):
    """Worker-side wrapper around ``fn``.

    Publishes the worker's pid to ``trace_path`` the moment execution
    starts — that file's mtime is the point's deadline clock and its
    content is what the driver ``SIGKILL``s when the point hangs — and
    gives :mod:`repro.lab.chaos` its injection seam (a chaos-armed run
    may crash or hang right here, exactly like a faulty worker would).
    """
    if trace_path:
        try:
            with open(trace_path, "w") as fh:
                fh.write(str(os.getpid()))
        except OSError:
            pass
    try:
        chaos = active_chaos()
        if chaos is not None:
            chaos.injure_worker(token)
        return fn(item)
    finally:
        if trace_path:
            try:
                os.unlink(trace_path)
            except OSError:
                pass


@dataclass
class _Task:
    """One scheduled execution of one point (retries clone it)."""

    index: int
    item: object
    attempt: int = 1
    uid: int = 0                  # unique per submission (trace filename)
    started: float | None = None  # wall-clock worker start, once observed


class _MapState:
    """Book-keeping for one ``map`` call's pool path. Each point has at
    most one task across ``ready``, ``delayed`` and ``inflight``, and
    none once it is resolved."""

    def __init__(self, n_items: int) -> None:
        self.n_items = n_items
        self.ready: deque[_Task] = deque()
        self.delayed: list[tuple[float, int, _Task]] = []  # heap
        self.inflight: dict[object, _Task] = {}
        self.resolved: dict[int, PointOutcome] = {}
        self.expected_break = False
        self.seq = 0

    def next_uid(self) -> int:
        self.seq += 1
        return self.seq

    @property
    def done(self) -> bool:
        return len(self.resolved) >= self.n_items


class LabExecutor:
    """Runs ``fn(item)`` over many items with crash isolation.

    ``jobs <= 1`` runs inline (no subprocesses, no pickling round-trip);
    ``jobs > 1`` uses a process pool. ``timeout`` bounds the wall time a
    point may *run* (measured from worker start); ``retry`` is an
    optional :class:`repro.lab.retry.RetryPolicy`.
    """

    #: how many times a spontaneously broken pool is replaced before the
    #: remaining points are marked failed (deliberate stuck-worker kills
    #: do not count against this)
    MAX_POOL_RESTARTS = 2

    #: event-loop wait quantum when deadlines need polling
    QUANTUM = 0.05

    def __init__(self, jobs: int = 1, timeout: float | None = None,
                 mp_context=None, retry=None) -> None:
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.mp_context = mp_context
        self.retry = retry
        self.stats = ExecStats()
        self._trace_dir: str | None = None

    def map(
        self,
        fn: Callable,
        items: Sequence,
        on_result: Callable[[PointOutcome], None] | None = None,
    ) -> list[PointOutcome]:
        """Evaluate ``fn`` over ``items``; one PointOutcome per item, in
        order. ``on_result`` is invoked once per point as it resolves."""
        items = list(items)
        self.stats = ExecStats()
        if self.jobs == 1 or len(items) <= 1:
            return self._map_inline(fn, items, on_result)
        return self._map_pool(fn, items, on_result)

    # ---- inline path ----------------------------------------------------

    def _map_inline(self, fn, items, on_result) -> list[PointOutcome]:
        outcomes = []
        for index, item in enumerate(items):
            attempt = 1
            while True:
                try:
                    outcome = PointOutcome(index=index, status="ok",
                                           value=fn(item))
                except KeyboardInterrupt:
                    raise
                except BaseException as exc:  # crash isolation
                    outcome = _outcome_from_exc(index, exc)
                outcome.attempts = attempt
                if (not outcome.ok and self.retry is not None
                        and self.retry.should_retry(outcome, attempt)):
                    self.stats.retries += 1
                    attempt += 1
                    time.sleep(self.retry.delay(attempt, repr(item)))
                    continue
                break
            if self.retry is not None:
                self.retry.observe(outcome.ok)
            outcomes.append(outcome)
            if on_result is not None:
                on_result(outcome)
        return outcomes

    # ---- pool path ------------------------------------------------------

    def _map_pool(self, fn, items, on_result) -> list[PointOutcome]:
        state = _MapState(len(items))
        for index, item in enumerate(items):
            state.ready.append(_Task(index=index, item=item,
                                     uid=state.next_uid()))
        if self.timeout is not None:
            self._trace_dir = tempfile.mkdtemp(prefix="labexec-")

        def emit(oc: PointOutcome) -> None:
            state.resolved[oc.index] = oc
            if on_result is not None:
                on_result(oc)

        pool = None
        restarts = 0
        try:
            while not state.done:
                now = time.monotonic()
                while state.delayed and state.delayed[0][0] <= now:
                    _, _, task = heapq.heappop(state.delayed)
                    state.ready.append(task)
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=min(self.jobs, max(1, len(items))),
                        mp_context=self.mp_context,
                    )
                broken = not self._submit_ready(pool, fn, state)
                if not broken and state.inflight:
                    done, _ = wait(list(state.inflight),
                                   timeout=self._quantum(state),
                                   return_when=FIRST_COMPLETED)
                    for fut in done:
                        broken |= self._collect(fut, state, emit)
                    broken |= self._reap_deadlines(state, emit)
                elif not broken and not state.inflight:
                    if state.delayed:
                        pause = state.delayed[0][0] - time.monotonic()
                        if pause > 0:
                            time.sleep(min(pause, 1.0))
                    elif not state.ready:
                        break  # nothing anywhere: all resolved
                broken = broken or self._pool_broken(pool)
                if broken:
                    deliberate = state.expected_break
                    self._handle_break(state, emit)
                    self._drain_pool(pool, state)
                    pool = None
                    if not deliberate:
                        self.stats.pool_breaks += 1
                        restarts += 1
                        if restarts > self.MAX_POOL_RESTARTS:
                            self._give_up(state, emit)
                            break
        finally:
            self._drain_pool(pool, state)
            if self._trace_dir is not None:
                shutil.rmtree(self._trace_dir, ignore_errors=True)
                self._trace_dir = None
        return [state.resolved[i] for i in sorted(state.resolved)]

    # ---- submission -----------------------------------------------------

    def _trace_path(self, task: _Task) -> str | None:
        if self._trace_dir is None:
            return None
        return os.path.join(self._trace_dir, f"t{task.uid}.pid")

    def _submit_ready(self, pool, fn, state) -> bool:
        """Submit every ready task; False when the pool refused (broken)."""
        while state.ready:
            task = state.ready.popleft()
            try:
                fut = pool.submit(_worker_shim, fn, task.item,
                                  self._trace_path(task), repr(task.item))
            except BrokenExecutor:
                state.ready.appendleft(task)
                return False
            except RuntimeError:
                # pool is shutting down underneath us (interpreter exit)
                state.ready.appendleft(task)
                return False
            state.inflight[fut] = task
        return True

    def _quantum(self, state) -> float | None:
        candidates = []
        if self.timeout is not None:
            candidates.append(self.QUANTUM)
        if state.delayed:
            candidates.append(
                max(0.0, state.delayed[0][0] - time.monotonic()))
        return min(candidates) if candidates else None

    # ---- completion -----------------------------------------------------

    def _collect(self, fut, state, emit) -> bool:
        """Fold one completed future into the state; True on pool break."""
        task = state.inflight.pop(fut, None)
        if task is None:
            return False
        try:
            value = fut.result(timeout=0)
        except KeyboardInterrupt:
            raise
        except BrokenExecutor:
            # the whole pool died; _handle_break assigns blame with the
            # full picture, so just put the task back in contention
            state.inflight[fut] = task
            return True
        except BaseException as exc:
            self._finalize(task, _outcome_from_exc(task.index, exc),
                           state, emit)
            return False
        self._finalize(task, PointOutcome(index=task.index, status="ok",
                                          value=value), state, emit)
        return False

    def _finalize(self, task: _Task, outcome: PointOutcome, state,
                  emit) -> None:
        """Retry-or-emit decision for one finished execution."""
        outcome.attempts = task.attempt
        if (not outcome.ok and self.retry is not None
                and self.retry.should_retry(outcome, task.attempt)):
            self.stats.retries += 1
            clone = replace(task, attempt=task.attempt + 1,
                            started=None, uid=state.next_uid())
            delay = self.retry.delay(clone.attempt, repr(task.item))
            heapq.heappush(state.delayed,
                           (time.monotonic() + delay, clone.uid, clone))
            return
        if self.retry is not None:
            self.retry.observe(outcome.ok)
        emit(outcome)

    # ---- deadlines and stuck-worker kills -------------------------------

    def _task_started(self, task: _Task) -> float | None:
        """Wall-clock time the worker began this task (pid-file mtime)."""
        if task.started is not None:
            return task.started
        path = self._trace_path(task)
        if path is None:
            return None
        try:
            task.started = os.stat(path).st_mtime
        except OSError:
            return None
        return task.started

    def _kill_task_worker(self, task: _Task) -> bool:
        """SIGKILL the worker running ``task``; True when a kill was sent."""
        path = self._trace_path(task)
        if path is None:
            return False
        try:
            with open(path) as fh:
                pid = int(fh.read().strip() or "0")
        except (OSError, ValueError):
            return False
        if pid <= 0:
            return False
        try:
            os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            return False
        self.stats.worker_kills += 1
        return True

    def _reap_deadlines(self, state, emit) -> bool:
        """Time out points that have *run* past the deadline; kill their
        workers. Returns True when a kill will break the pool."""
        if self.timeout is None:
            return False
        now = time.time()
        broke = False
        for fut, task in list(state.inflight.items()):
            if fut.done():
                continue
            started = self._task_started(task)
            if started is None or now - started < self.timeout:
                continue
            state.inflight.pop(fut)
            self.stats.timeouts += 1
            if not fut.cancel():
                if self._kill_task_worker(task):
                    state.expected_break = True
                    broke = True
            self._finalize(task, PointOutcome(
                index=task.index, status="timeout",
                error=f"timed out after {self.timeout}s",
                diagnostics=_harness_diagnostics(
                    "RPR-E002", f"timed out after {self.timeout}s"),
            ), state, emit)
        return broke

    # ---- pool breaks ----------------------------------------------------

    @staticmethod
    def _pool_broken(pool) -> bool:
        return bool(getattr(pool, "_broken", False))

    def _handle_break(self, state, emit) -> None:
        """Salvage a broken pool: keep completed results, blame the crash
        (when spontaneous) on the oldest started task, requeue the rest."""
        candidates: list[_Task] = []
        for fut, task in list(state.inflight.items()):
            if fut.done() and not fut.cancelled():
                try:
                    value = fut.result(timeout=0)
                except KeyboardInterrupt:
                    raise
                except BrokenExecutor:
                    candidates.append(task)
                    continue
                except BaseException as exc:
                    self._finalize(task, _outcome_from_exc(task.index, exc),
                                   state, emit)
                    continue
                self._finalize(task, PointOutcome(
                    index=task.index, status="ok", value=value), state, emit)
                continue
            fut.cancel()
            candidates.append(task)
        state.inflight.clear()
        ordered = sorted(candidates, key=lambda t: t.index)
        blame: _Task | None = None
        if not state.expected_break and ordered:
            started = [t for t in ordered
                       if self._task_started(t) is not None]
            blame = (started or ordered)[0]
            msg = ("worker crashed: the process pool broke while this "
                   "point was running")
            self._finalize(blame, PointOutcome(
                index=blame.index, status="failed",
                error=msg,
                diagnostics=_harness_diagnostics("RPR-E001", msg),
            ), state, emit)
        for task in ordered:
            if task is blame:
                continue
            state.ready.append(replace(task, started=None,
                                       uid=state.next_uid()))
        state.expected_break = False

    def _give_up(self, state, emit) -> None:
        """Pools keep breaking spontaneously: fail the stragglers."""
        leftovers = list(state.ready) + [t for _, _, t in state.delayed]
        state.ready.clear()
        state.delayed.clear()
        msg = "worker pool broke repeatedly; giving up"
        for task in leftovers:
            oc = PointOutcome(
                index=task.index, status="failed", error=msg,
                diagnostics=_harness_diagnostics("RPR-E003", msg),
            )
            oc.attempts = task.attempt
            if self.retry is not None:
                self.retry.observe(False)
            emit(oc)

    # ---- teardown -------------------------------------------------------

    def _drain_pool(self, pool, state=None) -> None:
        """Dispose of a pool without ever blocking on a stuck worker."""
        if pool is None:
            return
        # snapshot first: shutdown() clears _processes even with wait=False
        processes = getattr(pool, "_processes", None) or {}
        procs = [processes[k] for k in list(processes)]
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for p in procs:
            try:
                p.terminate()
            except Exception:
                pass
        deadline = time.monotonic() + 5.0
        for p in procs:
            try:
                p.join(max(0.0, deadline - time.monotonic()))
                if p.is_alive():
                    p.kill()
                    p.join(1.0)
            except Exception:
                pass
