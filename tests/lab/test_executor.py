"""LabExecutor: inline/pool equivalence, crash isolation, ordering."""

import os

import pytest

from repro.lab.executor import LabExecutor, PointOutcome
from tests.helpers import owned_hang


# -- module-level workers (must be picklable for the pool path) -----------

def square(x):
    return x * x


def flaky(x):
    if x == 3:
        raise ValueError(f"bad point {x}")
    return x + 100


def hard_crash(x):
    if x == 2:
        os._exit(13)  # simulates a segfaulting worker
    return x


def slow(args):
    """Point 1 hangs on the test's pipe until its worker is killed."""
    x, hang = args
    if x == 1:
        os.read(hang, 1)
    return x


# -------------------------------------------------------------------------

def test_inline_map_preserves_order_and_values():
    outcomes = LabExecutor(jobs=1).map(square, [3, 1, 2])
    assert [oc.value for oc in outcomes] == [9, 1, 4]
    assert [oc.index for oc in outcomes] == [0, 1, 2]
    assert all(oc.ok for oc in outcomes)


def test_pool_matches_inline_results():
    """Same results at any --jobs: the determinism contract."""
    items = list(range(8))
    inline = LabExecutor(jobs=1).map(square, items)
    pooled = LabExecutor(jobs=4).map(square, items)
    assert [oc.value for oc in inline] == [oc.value for oc in pooled]
    assert [oc.index for oc in pooled] == list(range(8))


def test_worker_exception_is_isolated_inline():
    outcomes = LabExecutor(jobs=1).map(flaky, [1, 3, 5])
    assert [oc.status for oc in outcomes] == ["ok", "failed", "ok"]
    failed = outcomes[1]
    assert "ValueError: bad point 3" in failed.error
    assert "Traceback" in failed.detail
    assert outcomes[2].value == 105  # later points still ran


def test_worker_exception_is_isolated_in_pool():
    outcomes = LabExecutor(jobs=2).map(flaky, [1, 3, 5, 7])
    assert [oc.status for oc in outcomes] == ["ok", "failed", "ok", "ok"]
    assert [oc.value for oc in outcomes if oc.ok] == [101, 105, 107]


def test_hard_worker_crash_does_not_kill_the_sweep():
    """An os._exit worker breaks the pool; the executor must survive,
    mark the crashing point failed, and finish the rest."""
    outcomes = LabExecutor(jobs=2).map(hard_crash, [0, 1, 2, 3, 4])
    assert len(outcomes) == 5
    statuses = {oc.index: oc.status for oc in outcomes}
    assert statuses[2] == "failed" or "crash" in outcomes[2].error.lower() \
        or not outcomes[2].ok
    assert not outcomes[2].ok
    # every non-crashing point either completed or was explicitly marked
    assert all(oc.status in ("ok", "failed") for oc in outcomes)
    # the majority of points still produced values
    assert sum(1 for oc in outcomes if oc.ok) >= 3


def test_timeout_marks_point_not_sweep():
    ex = LabExecutor(jobs=2, timeout=1.0)
    with owned_hang() as hang:
        outcomes = ex.map(slow, [(x, hang) for x in range(3)])
    statuses = [oc.status for oc in outcomes]
    assert statuses[1] == "timeout"
    assert "timed out" in outcomes[1].error
    assert statuses[0] == "ok"


def test_on_result_callback_sees_every_point():
    seen = []
    LabExecutor(jobs=1).map(square, [1, 2, 3],
                            on_result=lambda oc: seen.append(oc.index))
    assert sorted(seen) == [0, 1, 2]


def test_single_item_runs_inline_even_with_jobs():
    # avoids pool startup cost for trivial maps; lambda would not pickle,
    # proving the inline path was taken
    outcomes = LabExecutor(jobs=8).map(lambda x: x + 1, [41])
    assert outcomes == [PointOutcome(index=0, status="ok", value=42)]


def test_single_item_with_timeout_runs_in_the_pool():
    # only a worker process can be killed at its deadline
    ex = LabExecutor(jobs=2, timeout=1.0)
    with owned_hang() as hang:
        [outcome] = ex.map(slow, [(1, hang)])
    assert outcome.status == "timeout"
    assert ex.stats.timeouts == 1


def test_jobs_floor_is_one():
    assert LabExecutor(jobs=0).jobs == 1
    assert LabExecutor(jobs=-3).jobs == 1


@pytest.mark.parametrize("jobs", [1, 3])
def test_empty_items(jobs):
    assert LabExecutor(jobs=jobs).map(square, []) == []


# ---- campaign-fabric behaviors (retry, kill) ------------------------------

def crash_once(args):
    """Crash hard on the first execution of the marked item, succeed
    after: the marker file is the cross-process attempt ledger."""
    value, marker = args
    if value == 2 and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("fired")
        os._exit(13)
    return value * 10


def write_pid_then_hang(args):
    value, pid_file, hang = args
    if value == 1:
        with open(pid_file, "w") as fh:
            fh.write(str(os.getpid()))
        os.read(hang, 1)
    return value


def straggle_once(args):
    """Hang only on the first execution of the marked item, so a retry
    returns promptly."""
    value, marker, hang = args
    if value == 1:
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            return value + 100   # second execution: fast
        os.read(hang, 1)
    return value + 100


def test_timed_out_worker_is_hard_killed(tmp_path):
    """Regression for the stuck-worker leak: a point past its deadline
    must be RPR-E002-coded, its worker process SIGKILLed, and shutdown
    must not block on the abandoned worker."""
    import time as _time

    pid_file = str(tmp_path / "stuck.pid")
    ex = LabExecutor(jobs=2, timeout=1.0)
    t0 = _time.monotonic()
    with owned_hang() as hang:
        outcomes = ex.map(write_pid_then_hang,
                          [(i, pid_file, hang) for i in range(3)])
        wall = _time.monotonic() - t0
    # a blocking pool shutdown would wait for the hang's 60 s release
    assert wall < 30
    assert [oc.status for oc in outcomes] == ["ok", "timeout", "ok"]
    codes = {d.get("code") for d in outcomes[1].diagnostics}
    assert "RPR-E002" in codes
    assert ex.stats.timeouts == 1
    assert ex.stats.worker_kills == 1
    # the stuck worker is actually dead, not orphaned
    pid = int(open(pid_file).read())
    deadline = _time.monotonic() + 10
    while _time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            break
        _time.sleep(0.1)
    else:
        raise AssertionError(f"stuck worker {pid} still alive")


def test_crash_retry_recovers_in_pool(tmp_path):
    from repro.lab.retry import RetryPolicy

    marker = str(tmp_path / "crashed.marker")
    policy = RetryPolicy(max_attempts=3, base_delay=0.01, breaker=None)
    ex = LabExecutor(jobs=2, retry=policy)
    outcomes = ex.map(crash_once, [(i, marker) for i in range(5)])
    assert [oc.status for oc in outcomes] == ["ok"] * 5
    assert outcomes[2].value == 20
    # Pool-break blame is a heuristic: when another point is still in
    # flight at crash time it may absorb the retry instead of point 2.
    # What IS deterministic: exactly one crash, one journaled retry.
    assert sorted(oc.attempts for oc in outcomes) == [1, 1, 1, 1, 2]
    assert ex.stats.retries >= 1


def test_timeout_retry_recovers_inline(tmp_path):
    from repro.lab.retry import RetryPolicy

    marker = str(tmp_path / "slow.marker")
    policy = RetryPolicy(max_attempts=2, base_delay=0.01, breaker=None)
    ex = LabExecutor(jobs=2, timeout=2.0, retry=policy)
    with owned_hang() as hang:
        outcomes = ex.map(straggle_once,
                          [(i, marker, hang) for i in range(3)])
    assert [oc.status for oc in outcomes] == ["ok"] * 3
    assert outcomes[1].attempts == 2
    assert ex.stats.timeouts == 1


def test_permanent_failures_are_not_retried():
    from repro.lab.retry import RetryPolicy

    policy = RetryPolicy(max_attempts=3, base_delay=0.01, breaker=None)
    ex = LabExecutor(jobs=1, retry=policy)
    outcomes = ex.map(flaky, [1, 3, 5])
    assert [oc.status for oc in outcomes] == ["ok", "failed", "ok"]
    # ValueError carries a non-transient diagnostic: exactly one attempt
    assert outcomes[1].attempts == 1
    assert ex.stats.retries == 0
