"""Lane-vs-scalar identity of ``execute_batch`` and ``batch_lanes``.

``execute_batch(image, lane_faults)`` runs one scalar simulation per
lane, so lane i must reproduce *everything* observable about
``execute(image, faults=lane_faults[i])`` — outputs, cycle/stall
counters, assertion failures and abort sites, watchdog classification,
quarantine lists and fault event logs. These tests pin that contract on
the paper's example applications across lane counts, assertion levels
and injected runtime faults, and pin the campaign's ``batch_lanes``
grouping to the scalar matrix.
"""

import pytest

from repro.apps.edge_detect import build_edge_app
from repro.apps.loopback import build_loopback, expected_output
from repro.apps.tripledes import build_tdes_app
from repro.core.synth import synthesize
from repro.faults.runtime import (
    ChannelBitFlip,
    RegisterUpset,
    StuckAtBit,
)
from repro.runtime.hwexec import execute, execute_batch
from repro.runtime.watchdog import WatchdogConfig

TEXT = b"In-circuit!"
LEVELS = ("none", "unoptimized", "optimized")

APPS = {
    "loopback": lambda: build_loopback(3, data=list(range(1, 17))),
    "edge": lambda: build_edge_app(width=16, height=8),
    "tripledes": lambda: build_tdes_app(TEXT),
}

_images: dict = {}


def image_for(app_name: str, level: str):
    key = (app_name, level)
    if key not in _images:
        _images[key] = synthesize(APPS[app_name](), assertions=level)
    return _images[key]


def full_signature(res) -> dict:
    """Everything a lane must reproduce from the scalar run."""
    return {
        "completed": res.completed,
        "cycles": res.cycles,
        "reason": res.reason,
        "outputs": {k: list(v) for k, v in sorted(res.outputs.items())},
        "stderr": list(res.stderr),
        "failures": sorted((name, site.ordinal, site.expr_text)
                           for name, site in res.failures),
        "aborted_by": repr(res.aborted_by),
        "first_failure_cycle": res.first_failure_cycle,
        "quarantined": sorted(res.quarantined),
        "watchdog": repr(res.watchdog),
        "process_stats": dict(sorted(res.process_stats.items())),
        "fault_events": list(res.fault_events),
    }


#: per-lane runtime faults on the 3-stage loopback; lane 2 flips the first
#: feed word 1 -> 0, which trips the stage assertion when it is present
LANE_FAULTS = [
    (),
    (ChannelBitFlip(target="link0", word_index=3, bit=5),),
    (ChannelBitFlip(target="feed", word_index=0, bit=0),),
    (RegisterUpset(target="stage1", cycle=20, reg_index=1, bit=2),),
    (StuckAtBit(target="link1", bit=0, stuck_value=1),),
]


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_lane_count_sweep_loopback(n):
    image = image_for("loopback", "optimized")
    lane_faults = [LANE_FAULTS[i % len(LANE_FAULTS)] for i in range(n)]
    batch = execute_batch(image, lane_faults)
    assert len(batch) == n
    for i, res in enumerate(batch):
        ref = execute(image, faults=lane_faults[i])
        assert full_signature(res) == full_signature(ref), f"lane {i}"
    # sanity on content, not just self-consistency: the clean lane loops
    # back its feed, the zeroed-word lane aborts on the stage assertion
    assert batch[0].outputs["drain"] == expected_output(range(1, 17))
    if n > 2:
        assert not batch[2].completed and batch[2].failures


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_example_apps_all_levels(app_name, level):
    image = image_for(app_name, level)
    batch = execute_batch(image, [(), ()])
    ref = full_signature(execute(image))
    for i, res in enumerate(batch):
        assert full_signature(res) == ref, f"lane {i}"
        assert res.completed
    for st in batch[0].process_stats.values():
        assert st["backend"] == "compiled"


@pytest.mark.parametrize("level", ["none", "optimized"])
def test_per_lane_fault_injection(level):
    """Each lane gets its own fault set; classifications, event logs and
    watchdog reasons must match a scalar run of the same fault."""
    image = image_for("loopback", level)
    batch = execute_batch(image, LANE_FAULTS)
    for i, faults in enumerate(LANE_FAULTS):
        ref = execute(image, faults=faults)
        assert full_signature(batch[i]) == full_signature(ref), f"lane {i}"
    # the clean lane is unaffected by its faulted siblings
    assert batch[0].completed
    assert batch[0].outputs["drain"] == expected_output(range(1, 17))


def test_watchdog_reason_per_lane():
    """A lane that blows its cycle budget is classified per lane, with
    the same watchdog report a scalar run under the same config gets."""
    image = image_for("loopback", "optimized")
    cfg = WatchdogConfig(max_cycles=40, idle_limit=64)
    batch = execute_batch(image, LANE_FAULTS, watchdog=cfg)
    for i, faults in enumerate(LANE_FAULTS):
        ref = execute(image, faults=faults, watchdog=cfg)
        assert batch[i].reason == ref.reason, f"lane {i}"
        assert full_signature(batch[i]) == full_signature(ref), f"lane {i}"
    # the fault-free lane blows the 40-cycle budget while its zeroed-word
    # sibling aborts on the assertion first — per lane, not batch-wide
    assert batch[0].reason == "timeout" and batch[0].watchdog is not None
    assert batch[2].reason == "aborted" and batch[2].watchdog is None


def test_interp_backend_uses_lanewise_fallback():
    """``sim_backend="interp"`` reaches every lane's scalar run."""
    image = image_for("loopback", "optimized")
    batch = execute_batch(image, [(), ()], sim_backend="interp")
    ref = full_signature(execute(image, sim_backend="interp"))
    for res in batch:
        assert full_signature(res) == ref
        for st in res.process_stats.values():
            assert st["backend"] == "interp"


# ---- consumers --------------------------------------------------------------


def test_campaign_batched_matches_scalar(tmp_path):
    """``batch_lanes`` groups cells by image and runs them in-process; the
    outcomes must equal a ``jobs=1`` scalar campaign's, outcome for
    outcome — with each level's group split across several
    ``execute_batch`` calls (2 lanes) and run in one (8 lanes)."""
    from repro.faults.campaign import run_campaign

    kw = dict(levels=("none", "optimized"), seed=0, count=6)
    scalar = run_campaign("loopback", cache_root=str(tmp_path / "c1"), **kw)
    for lanes in (2, 8):
        batched = run_campaign("loopback", batch_lanes=lanes,
                               cache_root=str(tmp_path / f"c{lanes}"), **kw)
        assert batched.outcomes == scalar.outcomes, lanes
        assert batched.matrix() == scalar.matrix(), lanes
        assert not batched.harness_errors
