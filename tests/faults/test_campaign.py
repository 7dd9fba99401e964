"""Campaign engine: determinism, classification taxonomy, paper fidelity."""

import pytest

from repro.errors import CampaignError
from repro.faults import ReadForWrite
from repro.faults.campaign import (
    ASSERTION_DETECTED,
    BENIGN,
    CLASSIFICATIONS,
    SILENT_CORRUPTION,
    WATCHDOG_DETECTED,
    Scenario,
    builtin_targets,
    generate_scenarios,
    run_campaign,
)
from repro.lab.shard import ShardSpec, merge_runs


def loopback_campaign(**kw):
    kw.setdefault("seed", 7)
    kw.setdefault("count", 8)
    return run_campaign("loopback", **kw)


def test_builtin_targets_cover_the_papers_apps():
    assert set(builtin_targets()) == {"loopback", "edge", "tripledes"}


def test_unknown_target_raises_campaign_error():
    with pytest.raises(CampaignError, match="unknown campaign target"):
        run_campaign("fft", count=1)


def test_scenario_generation_is_deterministic():
    app = builtin_targets()["loopback"].build()
    a = generate_scenarios(app, seed=3, count=10)
    b = generate_scenarios(app, seed=3, count=10)
    assert [(s.name, s.description) for s in a] == \
           [(s.name, s.description) for s in b]
    c = generate_scenarios(app, seed=4, count=10)
    assert [s.description for s in a] != [s.description for s in c]


def test_same_seed_reproduces_identical_matrix():
    a = loopback_campaign(count=4)
    b = loopback_campaign(count=4)
    assert a.matrix() == b.matrix()
    assert a.outcomes == b.outcomes


def test_every_run_is_classified():
    res = loopback_campaign()
    assert len(res.outcomes) == len(res.scenarios) * len(res.levels)
    for oc in res.outcomes:
        assert oc.classification in CLASSIFICATIONS


def test_read_for_write_matches_paper_signature():
    """The paper's DES bug class: invisible without assertions, caught
    by the synthesized checkers once assertions are enabled."""
    scenarios = [Scenario(
        "rfw", "store to stage0.buf emitted as read",
        ir_faults={"stage0": (ReadForWrite(array="buf"),)},
    )]
    res = run_campaign(
        "loopback", levels=("none", "unoptimized", "optimized"),
        scenarios=scenarios,
    )
    assert res.outcome("rfw", "none").classification == SILENT_CORRUPTION
    assert res.outcome("rfw", "unoptimized").classification == ASSERTION_DETECTED
    assert res.outcome("rfw", "optimized").classification == ASSERTION_DETECTED
    assert res.outcome("rfw", "optimized").detection_latency is not None


def test_detection_rate_and_summary_agree():
    res = loopback_campaign()
    for lv in res.levels:
        counts = res.summary(lv)
        assert sum(counts.values()) == len(res.scenarios)
        harmful = sum(counts.values()) - counts[BENIGN]
        detected = counts[ASSERTION_DETECTED] + counts[WATCHDOG_DETECTED]
        if harmful:
            assert res.detection_rate(lv) == pytest.approx(detected / harmful)


def test_render_includes_matrix_and_legend():
    res = loopback_campaign(count=4)
    text = res.render()
    assert "FAULT CAMPAIGN loopback" in text
    for sc in res.scenarios:
        assert sc.name in text
    assert "detection rate" in text


def test_campaign_cli_smoke(capsys):
    from repro.cli import main

    rc = main([
        "campaign", "--app", "loopback", "--seed", "1", "--count", "3",
        "--levels", "optimized",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FAULT CAMPAIGN loopback" in out
    assert "detection rate" in out


def test_parallel_campaign_reproduces_serial_matrix_exactly(tmp_path):
    """Satellite requirement: --jobs N with the same seed must reproduce
    the detection matrix exactly — outcome for outcome, not just summary
    counts — with or without the synthesis cache."""
    serial = loopback_campaign(count=4)
    pooled = loopback_campaign(count=4, jobs=2,
                               cache_root=str(tmp_path / "cache"))
    assert pooled.matrix() == serial.matrix()
    assert pooled.outcomes == serial.outcomes
    assert pooled.render() == serial.render()
    # warm cache, still identical
    warm = loopback_campaign(count=4, jobs=2,
                             cache_root=str(tmp_path / "cache"))
    assert warm.outcomes == serial.outcomes


def test_sharded_campaign_merge_is_byte_identical(tmp_path):
    """The three K/3 slices of a campaign, merged, are the unsharded
    campaign's merged bytes: results and coverage matrix alike."""
    sharded, whole = str(tmp_path / "sharded"), str(tmp_path / "whole")
    levels = ("none", "optimized")
    for k in (1, 2, 3):
        run = run_campaign("loopback", levels=levels, seed=7, count=4,
                           store_root=sharded,
                           shard=ShardSpec.parse(f"{k}/3"))
    unsharded = run_campaign("loopback", levels=levels, seed=7, count=4,
                             store_root=whole)
    merged = merge_runs(sharded, run.run_id)
    solo = merge_runs(whole, unsharded.run_id)
    assert len(merged.sources) == 3
    assert len(merged.records) == 4 * len(levels)
    assert merged.run.results_path.read_bytes() == \
        solo.run.results_path.read_bytes()
    assert merged.matrix_path is not None
    assert merged.matrix_path.read_bytes() == solo.matrix_path.read_bytes()


def test_campaign_cli_jobs_and_cache_flags(tmp_path, capsys):
    from repro.cli import main

    args = ["campaign", "--app", "loopback", "--seed", "1", "--count", "2",
            "--levels", "optimized", "--cache", str(tmp_path / "c")]
    assert main(args + ["--jobs", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    pooled_out = capsys.readouterr().out
    assert pooled_out == serial_out
