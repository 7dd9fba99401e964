"""Campaign engine: determinism, classification taxonomy, paper fidelity."""

import pytest

from repro.errors import CampaignError
from repro.faults import DropWord, NarrowCompare, ReadForWrite
from repro.faults.campaign import (
    ASSERTION_DETECTED,
    BENIGN,
    CLASSIFICATIONS,
    HARNESS_ERROR,
    SILENT_CORRUPTION,
    WATCHDOG_DETECTED,
    CampaignTarget,
    Scenario,
    builtin_targets,
    generate_scenarios,
    run_campaign,
)
from repro.lab.shard import ShardSpec, merge_runs
from repro.runtime.taskgraph import Application
from repro.runtime.watchdog import WatchdogConfig


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


def test_a_cell_whose_run_raises_fails_only_its_chunk():
    """Cells of one image group run ``batch_lanes`` per call; a run that
    raises (here a fault aimed at a stream the app does not have) makes
    harness errors of its own chunk's cells and of no other cell."""
    good = generate_scenarios(builtin_targets()["loopback"].build(),
                              seed=7, count=2)
    bad = Scenario("bad", "drop on a missing stream",
                   runtime_faults=(DropWord(target="nope", word_index=0),))
    scenarios = [good[0], bad, good[1]]
    for lanes, failed in ((1, ["bad"]), (2, [good[0].name, "bad"])):
        result = run_campaign("loopback", levels=("optimized",),
                              scenarios=scenarios, batch_lanes=lanes)
        errors = result.harness_errors
        assert [oc.scenario for oc in errors] == failed, lanes
        for oc in errors:
            assert oc.classification == HARNESS_ERROR
            # the run's own diagnostic keeps its code, then RPR-G010
            assert [d["code"] for d in oc.diagnostics] == \
                ["RPR-F002", "RPR-G010"]
            assert oc.reason.startswith("FaultError")
        measured = [oc for oc in result.outcomes if oc not in errors]
        assert all(oc.classification in CLASSIFICATIONS for oc in measured)


def test_a_hung_cell_times_out_alone_across_workers(monkeypatch):
    """Across worker processes ``timeout`` bounds one chunk of
    ``batch_lanes`` cells, not a whole image group: with every cell in
    one group, a cell whose run hangs is killed as a timed-out harness
    error and the other cells of the group are still measured."""
    import os
    import time

    import repro.faults.campaign as campaign
    from tests.helpers import owned_hang

    real = campaign.execute

    def execute(image, watchdog=None, faults=()):
        if any(getattr(f, "target", None) == "hang" for f in faults):
            os.read(pipe, 1)  # the worker hangs until it is killed
            faults = ()
        return real(image, watchdog=watchdog, faults=faults)

    # forked workers inherit the patched module attribute
    monkeypatch.setattr(campaign, "execute", execute)
    good = [sc for sc in generate_scenarios(
        builtin_targets()["loopback"].build(), seed=7, count=8)
        if not sc.ir_faults][:2]
    hang = Scenario("hang", "a run that never returns",
                    runtime_faults=(DropWord(target="hang", word_index=0),))
    scenarios = [good[0], hang, good[1]]
    t0 = time.monotonic()
    with owned_hang() as pipe:
        result = run_campaign("loopback", levels=("optimized",),
                              scenarios=scenarios, jobs=2, timeout=3.0)
        assert time.monotonic() - t0 < 25
    first, hung, last = result.outcomes
    assert hung.classification == HARNESS_ERROR
    assert "RPR-E002" in {d["code"] for d in hung.diagnostics}
    serial = run_campaign("loopback", levels=("optimized",),
                          scenarios=good)
    assert [first, last] == serial.outcomes


def test_campaign_cli_jobs_and_cache_flags(tmp_path, capsys):
    from repro.cli import main

    args = ["campaign", "--app", "loopback", "--seed", "1", "--count", "2",
            "--levels", "optimized", "--cache", str(tmp_path / "c")]
    assert main(args + ["--jobs", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    pooled_out = capsys.readouterr().out
    assert pooled_out == serial_out


# the comparison is on line 6; a blank line after the assert moves it to 7
UNSHIFTED = """void p(co_stream input, co_stream output) {
  uint32 x;
  uint32 y;
  while (co_stream_read(input, &x)) {
    assert(x != 7);
    y = x < 256;
    co_stream_write(output, y);
  }
  co_stream_close(output);
}
"""
SHIFTED = UNSHIFTED.replace("assert(x != 7);\n", "assert(x != 7);\n\n")


def one_process_target(source: str) -> CampaignTarget:
    def build() -> Application:
        app = Application("shift")
        app.add_c_process(source, name="p", filename="shift.c")
        app.feed("in", "p.input", data=[1, 2, 3, 200])
        app.sink("out", "p.output")
        return app

    return CampaignTarget("shift", build, WatchdogConfig(max_cycles=20_000))


def test_a_cache_never_serves_an_image_built_from_another_source(tmp_path):
    """Two sources that differ only by a blank line lower to the same
    canonical IR text, coords aside. A comparison fault selected by line
    hits the shifted source (8-bit ``200 < 256`` is false) and nothing in
    the unshifted one, so the unshifted run must report ``not-injected``
    even after the shifted run filled the cache, as it does uncached."""
    narrow = [Scenario("narrow", "compare on line 7 narrowed to 8 bits",
                       ir_faults={"p": (NarrowCompare(width=8, line=7),)})]
    root = str(tmp_path / "cache")

    def classify(source: str, cache_root: str | None) -> tuple[str, str]:
        result = run_campaign(one_process_target(source),
                              levels=("optimized",), scenarios=narrow,
                              cache_root=cache_root)
        [oc] = result.outcomes
        return oc.classification, oc.reason

    assert classify(UNSHIFTED, None) == (BENIGN, "not-injected")
    assert classify(SHIFTED, root)[0] == SILENT_CORRUPTION
    assert classify(UNSHIFTED, root) == (BENIGN, "not-injected")
    # the campaign leaves only per-process artifacts: no whole image
    objects = [p.name for p in (tmp_path / "cache" / "objects").iterdir()]
    assert objects and all(name.startswith("p") for name in objects)
