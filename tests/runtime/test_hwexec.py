"""Unit tests for hardware execution (board, collectors, notifier)."""

import pytest

from repro.core.synth import SynthesisOptions, synthesize
from repro.runtime.hwexec import execute
from repro.runtime.swsim import software_sim
from repro.runtime.taskgraph import Application

SRC = """
void p(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    assert(x < 100);
    co_stream_write(output, x * 2);
  }
  co_stream_close(output);
}
"""


def make_app(data, nprocs=1):
    app = Application("t")
    prev = None
    for i in range(nprocs):
        app.add_c_process(SRC.replace("void p(", f"void p{i}("), name=f"p{i}")
        if prev is None:
            app.feed("in", f"p{i}.input", data=data)
        else:
            app.connect(f"l{i}", f"{prev}.output", f"p{i}.input")
        prev = f"p{i}"
    app.sink("out", f"{prev}.output")
    return app


def test_execute_matches_software_sim_outputs():
    app = make_app([1, 2, 3, 4])
    sw = software_sim(app)
    for level in ("none", "unoptimized", "optimized"):
        hw = execute(synthesize(app, assertions=level))
        assert hw.completed, level
        assert hw.outputs["out"] == sw.outputs["out"], level


def test_multiprocess_chain_over_board():
    app = make_app([5, 6], nprocs=3)
    hw = execute(synthesize(app, assertions="optimized"))
    assert hw.completed
    assert hw.outputs["out"] == [40, 48]


def test_failure_aborts_at_every_level():
    for level in ("unoptimized", "optimized"):
        hw = execute(synthesize(make_app([1, 500, 3]), assertions=level))
        assert hw.aborted, level
        assert "Assertion failed: x < 100" in hw.stderr[0]


def test_optimized_without_share_reports_failures_too():
    hw = execute(
        synthesize(make_app([500]), assertions="optimized",
                   options=SynthesisOptions(share=False))
    )
    assert hw.aborted
    assert "x < 100" in hw.stderr[0]


def test_nabort_collects_all_failures():
    hw = execute(synthesize(make_app([500, 1, 600]), assertions="optimized",
                            nabort=True))
    assert hw.completed and not hw.aborted
    assert len(hw.failures) >= 2
    assert hw.outputs["out"] == [1000, 2, 1200]


def test_level_none_never_fails():
    hw = execute(synthesize(make_app([500]), assertions="none"))
    assert hw.completed and not hw.failures
    assert hw.outputs["out"] == [1000]


def test_hang_detection_with_traces():
    src = """
void stuck(co_stream input, co_stream output) {
  uint32 x;
  co_stream_read(input, &x);
  co_stream_read(input, &x);
  co_stream_write(output, x);
  co_stream_close(output);
}
"""
    app = Application("t")
    app.add_c_process(src, name="stuck")
    # feeder supplies one word and never closes more: after EOS the second
    # read returns immediately, so to force a hang we use an internal
    # producer that stalls forever
    producer = """
void prod(co_stream input, co_stream output) {
  uint32 x;
  co_stream_read(input, &x);
  co_stream_write(output, x);
  while (x == x) { x = x; }
}
"""
    app2 = Application("t2")
    app2.add_c_process(producer, name="prod")
    app2.add_c_process(src, name="stuck")
    app2.feed("seed", "prod.input", data=[7])
    app2.connect("mid", "prod.output", "stuck.input")
    app2.sink("out", "stuck.output")
    hw = execute(synthesize(app2, assertions="none"), max_cycles=5000,
                 idle_limit=16)
    assert hw.hung
    assert any("stuck" in str(t) for t in hw.traces)


def test_process_stats_recorded():
    hw = execute(synthesize(make_app([1, 2]), assertions="optimized"))
    assert "p0" in hw.process_stats
    stats = hw.process_stats["p0"]
    assert stats["cycles"] > 0
    assert stats["stalls"] >= 0
    # the checker process pipelines one initiation per tapped assertion
    chk = hw.process_stats["p0__chk0"]
    assert chk["iterations"] >= 2


def test_board_single_word_per_cycle():
    # feeding N words takes at least N cycles over the multiplexed link
    n = 50
    hw = execute(synthesize(make_app(list(range(1, n + 1))), assertions="none"))
    assert hw.cycles >= n
    assert len(hw.outputs["out"]) == n


def test_empty_feed_closes_stream():
    hw = execute(synthesize(make_app([]), assertions="optimized"))
    assert hw.completed
    assert hw.outputs["out"] == []


def test_bitmask_decode_handles_more_than_32_assertions():
    # regression: the notifier used to scan a hard-coded 32-bit range, so
    # assertions packed above bit 31 of a wide shared word were dropped
    from repro.apps.loopback import build_loopback

    app = build_loopback(40, data=[0, 5])  # 0 violates `> 0` in all stages
    image = synthesize(app, assertions="optimized", nabort=True,
                       options=SynthesisOptions(share_word_width=64))
    decode = image.assert_decode["__collect0_out"]
    assert decode.mode == "bitmask"
    assert max(decode.table) == 39  # 40 assertions share one word

    # unit level: a word with only high bits set must still decode
    high_word = (1 << 39) | (1 << 32)
    hits = image.decode_failure("__collect0_out", high_word)
    assert len(hits) == 2

    # end to end: every stage's failure reaches the CPU notifier
    hw = execute(image)
    assert hw.completed
    assert len(hw.failures) == 40
    assert {site.ordinal for _, site in hw.failures} == {0}
    assert len({proc for proc, _ in hw.failures}) == 40


def test_nabort_failure_words_drain_after_processes_finish():
    # the data path finishes quickly; sticky failure words must still be
    # in flight through collectors and the multiplexed link, and the drain
    # condition has to wait for them rather than cut the run short
    data = [500] * 6  # every word violates x < 100 in every stage
    hw = execute(synthesize(make_app(data, nprocs=3), assertions="optimized",
                            nabort=True))
    assert hw.completed and not hw.aborted
    assert hw.reason == "completed"
    assert hw.outputs["out"] == [v * 8 for v in data]
    # one sticky failure per (stage, violating word) batch at minimum:
    # each of the 3 stages must have reported its assertion at least once
    assert {proc for proc, _ in hw.failures} == {"p0", "p1", "p2"}
    assert hw.first_failure_cycle is not None
    assert hw.first_failure_cycle <= hw.cycles


def test_timeout_and_deadlock_reasons_distinguishable():
    # same spinning-producer app as test_hang_detection_with_traces: the
    # spin is *active*, so a tight cycle budget ends in `timeout`, never
    # the idle-counter `deadlock`
    producer = """
void prod(co_stream input, co_stream output) {
  uint32 x;
  co_stream_read(input, &x);
  while (x == x) { x = x; }
}
"""
    app = Application("t3")
    app.add_c_process(producer, name="prod")
    app.feed("seed", "prod.input", data=[7])
    app.sink("out", "prod.output")
    hw = execute(synthesize(app, assertions="none"), max_cycles=3000,
                 idle_limit=16)
    assert hw.hung
    assert hw.reason == "timeout"
    assert hw.watchdog is not None and hw.watchdog.reason == "timeout"


def test_traced_execute_batch_counts_each_lane_once():
    """A traced campaign must not count a lane's cycles twice: the lanes
    land in ``runtime.execute_batch.lane_cycles`` only, because
    ``execute_batch`` does not go through the public ``execute``."""
    from perfbench import tracer as tracing
    from repro.runtime import hwexec

    image = synthesize(make_app([1, 2, 3]), assertions="optimized")
    t = tracing.Tracer()
    uninstall = tracing.install(t)
    try:
        lanes = hwexec.execute_batch(image, [(), ()])
    finally:
        uninstall()
    assert t.calls("runtime.execute_batch") == 1
    assert t.calls("runtime.execute") == 0
    assert t.counters["runtime.execute_batch.lane_cycles"] == \
        sum(r.cycles for r in lanes) > 0
    assert "runtime.execute.sim_cycles" not in t.counters


# ---- pinned HwResult bytes ---------------------------------------------------

_PIN_NOCLOSE = """
void p(co_stream input, co_stream output) {
  uint32 x;
  co_stream_read(input, &x);
}
"""

_PIN_PASS = """
void q(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    co_stream_write(output, x);
  }
  co_stream_close(output);
}
"""

_PIN_SPIN = """
void p(co_stream input, co_stream output) {
  uint32 x;
  uint32 flag;
  flag = 0;
  co_stream_read(input, &x);
  while (flag == 0) {
    x = x + 1;
  }
  co_stream_write(output, x);
  co_stream_close(output);
}
"""


def _pin_two_stage(first_src):
    app = Application("pin")
    app.add_c_process(first_src, name="p")
    app.add_c_process(_PIN_PASS, name="q")
    app.feed("in", "p.input", data=[7])
    app.connect("mid", "p.output", "q.input")
    app.sink("out", "q.output")
    return app


def _pin_case(case):
    """(image, execute kwargs) of one pinned run."""
    from repro.apps.edge_detect import build_edge_app
    from repro.apps.loopback import build_loopback
    from repro.faults.runtime import (
        DropWord,
        DuplicateWord,
        RegisterUpset,
        StreamStall,
    )
    from repro.runtime.watchdog import WatchdogConfig

    app_name, level, ending = case.split("/")
    kwargs = {}
    nabort = False
    if app_name == "loopback3":
        app = build_loopback(3, data=[0, 4, 9, 0] if ending in ("abort", "nabort")
                             else None)
        nabort = ending == "nabort"
    elif app_name == "edge16x8":
        app = build_edge_app(16, 8, header=(8, 8) if ending == "abort"
                             else None)
    elif app_name == "deadlock":
        app = _pin_two_stage(_PIN_NOCLOSE)
    elif app_name == "livelock":
        app = _pin_two_stage(_PIN_SPIN)
        kwargs["watchdog"] = WatchdogConfig(
            max_cycles=50_000, livelock_window=1_000,
            quarantine=ending == "quarantine")
        nabort = ending == "quarantine"
    elif app_name == "twolinks":
        # two feeders and two sinks contend for the one board link
        app = Application("pin")
        for name in ("q", "r"):
            # each input word leaves as three, so the sinks back-pressure
            app.add_c_process(_PIN_PASS.replace("void q(", f"void {name}(")
                              .replace("co_stream_write(output, x);",
                                       "co_stream_write(output, x);" * 3),
                              name=name)
            app.feed(f"{name}_in", f"{name}.input",
                     data=list(range(1, 41)) if name == "q" else [7] * 25)
            app.sink(f"{name}_out", f"{name}.output")
    else:  # timeout: the cycle budget runs out mid-progress
        app = Application("pin")
        app.add_c_process(_PIN_PASS, name="q")
        app.feed("in", "q.input", data=list(range(1, 200)))
        app.sink("out", "q.output")
        kwargs["max_cycles"] = 40
    kwargs["faults"] = {
        "upset": (RegisterUpset(target="stage1", cycle=20, reg_index=1,
                                bit=2),),
        "stall": (StreamStall(target="pixels_in", start_cycle=5,
                              duration=30),),
        "drop": (DropWord(target="link0", word_index=3),),
        "dup": (DuplicateWord(target="pixels_in", word_index=17),),
    }.get(ending, ())
    return synthesize(app, assertions=level, nabort=nabort), kwargs


#: sha256 of every HwResult field (traces and watchdog report included),
#: recorded before the co-simulation loop's per-cycle bookkeeping was
#: hoisted out of the cycle loop
_PINNED_HWRESULTS = {
    "deadlock/none/deadlock":
        "dcd4287015a5589da81a6234ac02601b766d0fea021b1a8e89d0cfc3159d5667",
    "edge16x8/none/completed":
        "5919ba2698ecb0fab8bfaedc28c75e0f05f71e34cdb647a8ff24c88f836507ca",
    "edge16x8/none/dup":
        "33d651e1c73557eac90c11e7a235f22077ef7c739e8daf62ac14fdb13429ff49",
    "edge16x8/optimized/abort":
        "683c89cbac82babb13469658461124ac4ab8310a6f1febc45f0a2216329ed372",
    "edge16x8/optimized/completed":
        "e0a14096e394e55b23897d062da644ef828f8028959d9e103d6d1dc68e9c5564",
    "edge16x8/optimized/stall":
        "72633092304a0e5768f4a6cdaf3033f22f840b34a6b95732fda9b4f0b87cffed",
    "livelock/none/livelock":
        "09becc97a40f6594058ab0a09aef65ebce3cbdd49adba4d5680d95c609c4b23e",
    "livelock/unoptimized/quarantine":
        "c6d6696bac1b9e70f48f32a4efc7d88253e453f881995724a445d39d577a5b17",
    "loopback3/none/completed":
        "1ba1f4d291b6edb2117527e6acbaee2d4d3b11760e4e329906af103287aae2c4",
    "loopback3/none/drop":
        "77434b5f811fd55dff462e7a8bf05ff1542031aad08089b2b9098ed47626c9f7",
    "loopback3/optimized/abort":
        "bcb126f5535f5aea8ab95319d775fb87d4e166b003a74d1ab91c6211cb4db9a0",
    "loopback3/optimized/completed":
        "181a72e00167c5f49a131a497a80e6bc1a10661702c40d9f4d9bee3511f6758a",
    "loopback3/optimized/nabort":
        "d7f2a749ac442e67cbbdcfe28bdfa765ca0f47916c31442d0120f3c31a8a6791",
    "loopback3/optimized/upset":
        "b569b8898334c727d2cf003b6f4941faa686db3b18e3bc50ffa2885c77b8b389",
    "timeout/none/timeout":
        "1e063d0939ecb4415ea94e946786136fae87e6bcfbf37ba8b4a1922fe2800142",
    "twolinks/none/completed":
        "51368e5b3bd0ba7aad3e768c5fc5d2271e41cdad691e6cc58721c8700fe7911b",
}


@pytest.mark.parametrize("case", sorted(_PINNED_HWRESULTS))
def test_hwresult_bytes_are_pinned(case):
    import dataclasses
    import hashlib
    import json

    image, kwargs = _pin_case(case)
    res = execute(image, **kwargs)
    blob = json.dumps(dataclasses.asdict(res), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        _PINNED_HWRESULTS[case], (case, res.reason, res.cycles)
