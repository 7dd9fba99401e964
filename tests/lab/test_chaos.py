"""Chaos harness: the fabric survives its own failure modes.

The contract under test: a campaign interrupted by injected worker
crashes, hangs and torn journal writes converges — via retry, timeout
kills and resume — to the *same canonical results* as an uninterrupted
run.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.errors import ReproError
from repro.lab.chaos import (
    CRASH_EXIT,
    TORN_EXIT,
    ChaosMonkey,
    ChaosSpec,
    active_chaos,
)
from repro.lab.executor import LabExecutor
from repro.lab.retry import RetryPolicy
from repro.lab.shard import merge_runs
from repro.lab.store import ResultStore

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def plus_one(x):
    return x + 1


# ---- spec and selection --------------------------------------------------

def test_spec_env_round_trip():
    spec = ChaosSpec(seed=7, crash=0.5, only=("seed-3",),
                     state_dir="/tmp/x")
    assert ChaosSpec.from_env(spec.to_env()) == spec
    assert active_chaos() is None or os.environ.get("REPRO_CHAOS")


def test_malformed_spec_fails_loudly(monkeypatch):
    """A spec that no longer parses (here a retired fault kind) must
    raise, not silently disarm the run and let a chaos test pass
    without injecting anything."""
    for value in ('{"daemon_kill": 1.0}', "not json", "[1]"):
        monkeypatch.setenv("REPRO_CHAOS", value)
        with pytest.raises(ReproError) as exc:
            active_chaos()
        assert exc.value.code == "RPR-E005"


def test_selection_is_deterministic_and_rate_gated():
    monkey = ChaosMonkey(ChaosSpec(seed=1))
    rolls = [monkey._selected("crash", 0.5, f"t{i}") for i in range(100)]
    assert rolls == [monkey._selected("crash", 0.5, f"t{i}")
                     for i in range(100)]
    assert 20 < sum(rolls) < 80          # a rate, not all-or-nothing
    assert not any(monkey._selected("crash", 0.0, f"t{i}")
                   for i in range(20))
    assert all(monkey._selected("crash", 1.0, f"t{i}") for i in range(20))


def test_only_filter_restricts_tokens():
    monkey = ChaosMonkey(ChaosSpec(crash=1.0, only=("seed-3",)))
    assert monkey._selected("crash", 1.0, "seed-3")
    assert not monkey._selected("crash", 1.0, "seed-4")


def test_ledger_fires_each_fault_once(tmp_path):
    spec = ChaosSpec(crash=1.0, state_dir=str(tmp_path / "ledger"))
    monkey = ChaosMonkey(spec)
    assert monkey.should_fire("crash", 1.0, "tok")
    assert not monkey.should_fire("crash", 1.0, "tok")   # claimed
    assert monkey.should_fire("crash", 1.0, "other")
    # a different monkey over the same ledger (a resumed run) sees the claim
    assert not ChaosMonkey(spec).should_fire("crash", 1.0, "tok")


# ---- crash and hang injection through the executor -----------------------

def test_injected_crash_is_retried_to_success(tmp_path, monkeypatch):
    spec = ChaosSpec(crash=1.0, state_dir=str(tmp_path / "ledger"),
                     only=("2",))
    monkeypatch.setenv("REPRO_CHAOS", spec.to_env())
    ex = LabExecutor(jobs=2, retry=RetryPolicy(max_attempts=3,
                                               base_delay=0.01,
                                               breaker=None))
    outcomes = ex.map(plus_one, [0, 1, 2, 3, 4])
    assert [oc.status for oc in outcomes] == ["ok"] * 5
    assert [oc.value for oc in outcomes] == [1, 2, 3, 4, 5]
    assert ex.stats.pool_breaks >= 1
    assert ex.stats.retries >= 1
    assert max(oc.attempts for oc in outcomes) >= 2


def test_injected_hang_is_killed_and_retried(tmp_path, monkeypatch):
    spec = ChaosSpec(hang=1.0, hang_s=600.0,
                     state_dir=str(tmp_path / "ledger"), only=("3",))
    monkeypatch.setenv("REPRO_CHAOS", spec.to_env())
    ex = LabExecutor(jobs=2, timeout=1.5,
                     retry=RetryPolicy(max_attempts=3, base_delay=0.01,
                                       breaker=None))
    outcomes = ex.map(plus_one, [0, 1, 2, 3])
    assert [oc.status for oc in outcomes] == ["ok"] * 4
    assert ex.stats.timeouts >= 1
    assert ex.stats.worker_kills >= 1
    assert outcomes[3].attempts >= 2


# ---- torn writes, driver kills, resume-to-identical ----------------------

SWEEP_SCRIPT = textwrap.dedent("""
    import sys
    sys.path.insert(0, {src!r})
    from repro.lab.sweep import AppSpec, SweepSpec, run_sweep
    spec = SweepSpec.cross("chaos",
                           [AppSpec.make("loopback", n=2)],
                           levels=("none", "optimized"))
    run_sweep(spec, jobs=1, store_root={store!r}, cache_root={cache!r})
""")


def run_sweep_subprocess(store, cache, env_extra=None):
    env = dict(os.environ)
    env.pop("REPRO_CHAOS", None)
    env.update(env_extra or {})
    script = SWEEP_SCRIPT.format(src=os.path.abspath(SRC),
                                 store=str(store), cache=str(cache))
    return subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_torn_write_kill_resume_converges_to_clean_run(tmp_path):
    """The satellite scenario end to end: chaos kills the driver between
    append and fsync, the journal is torn, the re-run warns, resumes and
    finishes — and the merged canonical results are byte-identical to a
    run that was never interrupted."""
    chaos = ChaosSpec(torn_write=1.0, torn_style="partial",
                      state_dir=str(tmp_path / "ledger"),
                      only=("loopback(n=2)/none",))
    env = {"REPRO_CHAOS": chaos.to_env()}
    store, cache = tmp_path / "runs", tmp_path / "cache"

    first = run_sweep_subprocess(store, cache, env)
    assert first.returncode == TORN_EXIT, first.stderr

    # the journal really took damage
    run_ids = ResultStore(store).run_ids()
    assert len(run_ids) == 1
    run = ResultStore(store).open_run(run_ids[0])
    run.records()
    assert run.stats.corrupt == 1

    # re-run with chaos still armed: the ledger says the torn-write fault
    # already fired, so the sweep resumes and completes, warning on stderr
    second = run_sweep_subprocess(store, cache, env)
    assert second.returncode == 0, second.stderr
    assert "torn/corrupt journal line" in second.stderr

    clean = run_sweep_subprocess(tmp_path / "clean-runs", cache)
    assert clean.returncode == 0, clean.stderr

    chaotic = merge_runs(store, run_ids[0])
    pristine = merge_runs(tmp_path / "clean-runs", run_ids[0])
    assert chaotic.run.results_path.read_bytes() == \
        pristine.run.results_path.read_bytes()
    assert chaotic.run.manifest_path.read_bytes() == \
        pristine.run.manifest_path.read_bytes()
    assert chaotic.counters == {"ok": 2}


def test_afterwrite_kill_loses_nothing_on_resume(tmp_path):
    """torn_style='afterwrite' kills after the line is flushed: the
    record survives, so the resumed run skips the point entirely."""
    chaos = ChaosSpec(torn_write=1.0, torn_style="afterwrite",
                      state_dir=str(tmp_path / "ledger"),
                      only=("loopback(n=2)/none",))
    env = {"REPRO_CHAOS": chaos.to_env()}
    store, cache = tmp_path / "runs", tmp_path / "cache"

    first = run_sweep_subprocess(store, cache, env)
    assert first.returncode == TORN_EXIT
    run_ids = ResultStore(store).run_ids()
    run = ResultStore(store).open_run(run_ids[0])
    recs = run.records()
    assert run.stats.corrupt == 0
    assert [r["point_id"] for r in recs] == ["loopback(n=2)/none"]

    second = run_sweep_subprocess(store, cache, env)
    assert second.returncode == 0
    manifest = json.loads(run.manifest_path.read_text())
    assert manifest["counters"]["skipped_resume"] == 1


def test_crash_exit_codes_are_distinct():
    assert CRASH_EXIT != TORN_EXIT
    assert CRASH_EXIT != 0 and TORN_EXIT != 0
