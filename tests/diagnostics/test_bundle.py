"""Failure bundles: round-trip, validation, bit-identical replay."""

import json

import pytest

from repro.diagnostics.bundle import (
    bundle_name,
    read_bundle,
    replay_bundle,
    write_bundle,
)
from repro.diagnostics.engine import synth_diagnostics
from repro.errors import ReproError

GOTO_SRC = """
void p(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    if (x > 10) goto done;
    co_stream_write(output, x);
  }
done:
  co_stream_close(output);
}
"""


def test_bundle_name_is_filesystem_safe():
    assert bundle_name("loopback(n=2)/optimized") == "loopback_n_2_optimized"
    assert bundle_name("///") == "point"


def test_write_read_round_trip(tmp_path):
    diags = [{"code": "RPR-L010", "severity": "error", "message": "no goto"}]
    path = write_bundle(tmp_path / "b", "synth", diags,
                        context={"filename": "t.c"}, source="void p() {}")
    bundle = read_bundle(path)
    assert bundle.kind == "synth"
    assert bundle.context == {"filename": "t.c"}
    assert bundle.diagnostics == diags
    assert bundle.source == "void p() {}"
    # the stored JSON is the canonical spelling replay compares against
    stored = (path / "diagnostics.json").read_text()
    assert stored == bundle.diagnostics_json()
    assert json.loads(stored) == {"diagnostics": diags}


def test_write_rejects_unknown_kind(tmp_path):
    with pytest.raises(ReproError) as exc_info:
        write_bundle(tmp_path / "b", "mystery", [])
    assert exc_info.value.code == "RPR-E010"


def test_read_rejects_non_bundles_and_bad_schemas(tmp_path):
    with pytest.raises(ReproError) as exc_info:
        read_bundle(tmp_path)
    assert exc_info.value.code == "RPR-E011"

    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text(
        json.dumps({"schema": 99, "kind": "synth"}))
    with pytest.raises(ReproError) as exc_info:
        read_bundle(bad)
    assert exc_info.value.code == "RPR-E012"

    weird = tmp_path / "weird"
    weird.mkdir()
    (weird / "manifest.json").write_text(
        json.dumps({"schema": 1, "kind": "mystery"}))
    with pytest.raises(ReproError) as exc_info:
        read_bundle(weird)
    assert exc_info.value.code == "RPR-E013"


def test_synth_bundle_replays_bit_identically(tmp_path):
    _check, diags = synth_diagnostics(GOTO_SRC, filename="goto.c")
    assert diags
    path = write_bundle(tmp_path / "b", "synth", diags,
                        context={"filename": "goto.c"}, source=GOTO_SRC)
    result = replay_bundle(path)
    assert result.ok
    assert result.expected == result.actual
    assert [d["code"] for d in result.diagnostics] == ["RPR-L010", "RPR-L010"]


def test_tampered_diagnostics_fail_to_reproduce(tmp_path):
    _check, diags = synth_diagnostics(GOTO_SRC, filename="goto.c")
    diags[0]["message"] = "something else entirely"
    path = write_bundle(tmp_path / "b", "synth", diags,
                        context={"filename": "goto.c"}, source=GOTO_SRC)
    result = replay_bundle(path)
    assert not result.ok


def test_sweep_point_bundle_replays_bit_identically(tmp_path):
    from repro.diagnostics.bridge import diagnostics_from_exception
    from repro.lab.sweep import (
        AppSpec,
        SweepPoint,
        evaluate_point,
        point_bundle_context,
    )

    point = SweepPoint(
        point_id="csource/optimized",
        app=AppSpec.make("csource", source=GOTO_SRC, filename="goto.c"),
        level="optimized",
    )
    # mirror run_sweep's failure path: evaluate, capture, bundle
    with pytest.raises(ReproError) as exc_info:
        evaluate_point((point, tmp_path / "cache"))
    diags = diagnostics_from_exception(exc_info.value)
    context, source = point_bundle_context(point)
    assert source == GOTO_SRC  # pulled out of params into source.c
    assert "source" not in dict(context["point"]["app_params"])
    path = write_bundle(tmp_path / "b", "sweep", diags,
                        context=context, source=source)
    result = replay_bundle(path)
    assert result.ok
    assert result.diagnostics[0]["code"] == "RPR-L010"


def test_difftest_divergence_bundle_replays_bit_identically(tmp_path):
    from repro.difftest.oracle import divergence_diagnostics, run_difftest
    from repro.faults.ir import NarrowCompare

    src = """
void dt(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    if (x > 70000) { co_stream_write(output, (uint32)(1)); }
    else { co_stream_write(output, (uint32)(0)); }
  }
  co_stream_close(output);
}
"""
    feed = [5, 131072]  # 131072 truncates to 0 at 16 bits
    report = run_difftest(src, feed, filename="seed0.c",
                          faults=(NarrowCompare(width=16),))
    assert not report.ok
    diags = divergence_diagnostics(report.divergence)
    assert [d["code"] for d in diags] == ["RPR-Y100"]
    path = write_bundle(
        tmp_path / "b", "difftest", diags,
        context={"feed": feed, "filename": "seed0.c",
                 "faults": [["NarrowCompare", {"width": 16}]],
                 "max_cycles": 200_000},
        source=src,
    )
    result = replay_bundle(path)
    assert result.ok
    # the recipe rebuilt the fault and reproduced the same divergence
    assert result.diagnostics == diags


def test_difftest_bundle_with_unknown_fault_is_rejected(tmp_path):
    path = write_bundle(tmp_path / "b", "difftest", [],
                        context={"feed": [1], "faults": [["NoSuchFault", {}]]},
                        source="void dt(co_stream input, co_stream output) {}")
    with pytest.raises(ReproError) as exc_info:
        replay_bundle(path)
    assert exc_info.value.code == "RPR-E016"


def test_campaign_cell_bundle_replays_bit_identically(tmp_path):
    """A campaign bundle names a builtin target, seed, scenario and
    level; replay regenerates that one cell and runs it as a one-cell
    image group. A cell that measures cleanly replays to no
    diagnostics."""
    from repro.faults.campaign import builtin_targets, generate_scenarios

    app = builtin_targets()["loopback"].build()
    scenario = generate_scenarios(app, seed=7, count=3)[1]
    path = write_bundle(
        tmp_path / "b", "campaign", [],
        context={"target": "loopback", "seed": 7, "count": 3,
                 "scenario": scenario.name, "level": "optimized",
                 "nabort": False, "options": None},
    )
    result = replay_bundle(path)
    assert result.ok
    assert result.diagnostics == []


def test_sweep_failure_writes_replayable_bundle_end_to_end(tmp_path):
    from repro.lab.sweep import AppSpec, SweepSpec, run_sweep

    spec = SweepSpec.cross(
        "bundle-e2e",
        [AppSpec.make("csource", source=GOTO_SRC, filename="goto.c"),
         AppSpec.make("loopback", n=2)],
        levels=("optimized",),
    )
    # jobs=2: the failing point's error crosses the process-pool pickle
    # boundary, which chains a synthetic _RemoteTraceback cause onto it —
    # the bridge must not journal that, or replay stops being bit-identical
    result = run_sweep(spec, jobs=2, store_root=tmp_path / "runs",
                       cache_root=tmp_path / "cache", progress=False)
    assert result.manifest["counters"]["failed"] == 1
    assert result.manifest["counters"]["done"] == 1  # loopback survived
    (bundle_path,) = result.manifest["bundles"]
    replay = replay_bundle(bundle_path)
    assert replay.ok
    # the journaled record points at the same bundle and diagnostics
    failed = [r for r in result.records.values()
              if r.get("status") != "ok"]
    assert failed[0]["bundle"] == bundle_path
    assert failed[0]["diagnostics"] == replay.diagnostics
