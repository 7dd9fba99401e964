"""Unit tests for hardware execution (board, collectors, notifier)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


#: computes alone for a while after its first word, then passes the rest
_PIN_GRIND = """
void c(co_stream input, co_stream output) {
  uint32 x;
  uint32 acc;
  uint32 i;
  acc = 0;
  co_stream_read(input, &x);
  i = 0;
  while (i < 300) {
    acc = acc + x;
    i = i + 1;
  }
  co_stream_write(output, acc);
  while (co_stream_read(input, &x)) {
    co_stream_write(output, x + acc);
  }
  co_stream_close(output);
}
"""

#: wakes its neighbours (a close, an assertion tap) with no stream word
#: moving, then computes alone
_PIN_WAKE = """
void p(co_stream input, co_stream output) {
  uint32 x;
  uint32 i;
  co_stream_read(input, &x);
  for (i = 0; i < 50; i++) {
    x = x + 1;
  }
  co_stream_close(output);
  for (i = 0; i < 50; i++) {
    x = x + 1;
  }
  assert(x < 20);
  for (i = 0; i < 400; i++) {
    x = x + i;
  }
}
"""


def _pin_two_stage(first_src, second_src=_PIN_PASS, data=(7,)):
    app = Application("pin")
    app.add_c_process(first_src, name="p")
    app.add_c_process(second_src, name="q")
    app.feed("in", "p.input", data=list(data))
    app.connect("mid", "p.output", "q.input")
    app.sink("out", "q.output")
    return app


def _pin_wake():
    # q ticks before p, so p's close reaches it a cycle later
    app = Application("pin")
    app.add_c_process(_PIN_PASS, name="q")
    app.add_c_process(_PIN_WAKE, name="p")
    app.feed("in", "p.input", data=[7])
    app.connect("mid", "p.output", "q.input")
    app.sink("out", "q.output")
    return app


def _pin_case(case):
    """(image, execute kwargs) of one pinned run."""
    from repro.apps.edge_detect import build_edge_app
    from repro.apps.loopback import build_loopback
    from repro.apps.tripledes import build_tdes_app
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
        # at optimized the checker parks under the whole firing window
        app = _pin_two_stage(_PIN_SPIN.replace(
            "co_stream_read(input, &x);",
            "co_stream_read(input, &x);\n  assert(x < 100);")
            if level == "optimized" else _PIN_SPIN)
        kwargs["watchdog"] = WatchdogConfig(
            max_cycles=50_000, livelock_window=1_000,
            quarantine=ending == "quarantine")
        nabort = ending == "quarantine"
    elif app_name == "tdes":
        app = build_tdes_app(text=b"Sixteen bytes!!!")
        if ending == "timeout":  # the budget runs out inside a DES round
            kwargs["max_cycles"] = 5_000
        elif ending == "livelock":  # fires while the checkers are parked
            kwargs["watchdog"] = WatchdogConfig(livelock_window=5_000)
    elif app_name == "wake":
        app = _pin_wake()
    elif app_name == "grind":
        # q computes alone while p sits parked writing into ``mid``: with
        # 24 words ``mid`` is full, with 4 only the stall window parks p
        app = _pin_two_stage(_PIN_PASS.replace("void q(", "void p("),
                             _PIN_GRIND,
                             data=range(1, 25 if ending == "full" else 5))
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
        "upset_main": (RegisterUpset(target="tdes_decrypt", cycle=10_000,
                                     reg_index=43, bit=5),),
        "upset_checker": (RegisterUpset(target="tdes_decrypt__chk0",
                                        cycle=12_000, reg_index=0, bit=0),),
        "full": (StreamStall(target="mid", start_cycle=300, duration=200),),
        "window": (StreamStall(target="mid", start_cycle=4, duration=300),),
    }.get(ending, ())
    return synthesize(app, assertions=level, nabort=nabort), kwargs


#: sha256 of every HwResult field (traces and watchdog report included),
#: recorded before the co-simulation loop's per-cycle bookkeeping was
#: hoisted out of the cycle loop; the ``tdes``, ``grind``, ``wake`` and
#: optimized livelock cases pin the edges of the quiet-cycle fast path
#: and were recorded before it existed
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
    "tdes/optimized/timeout":
        "506422506905d3e8a2d4055d32bc46ae9d72659cc5419fbb1b04fc6f0a6560b9",
    "tdes/optimized/upset_main":
        "83d28ccec786928f4312f8014772895ebc9486e1fefd170a9254d1768433e1f2",
    "tdes/optimized/upset_checker":
        "1cf93af0a497f2c5ff09241ca73b77be05fdc172b3d0bf5cbd1258d4bf534ab5",
    "tdes/optimized/livelock":
        "60f6479ccadcc8e6f694b231663a9efd1530bc97aab685d4d74a23dee5f471c5",
    "livelock/optimized/livelock":
        "bc29f4c578d7f61d9cd3f014f6e9030b939250d8f1ddf9016179d803f18d911f",
    "wake/none/completed":
        "431ef6dd44b0798ae512cd49a622c0f99ee7b412beb8232170428279b842612d",
    "wake/optimized/abort":
        "0806831b7ba238f38fd461cd7df7cc911380aa878a8966c95aeaaad11f8ff518",
    "grind/none/full":
        "71ac7064a396c8c51238fcbf4b1471b8e916520ff3a563d456acb2f29c8790fe",
    "grind/none/window":
        "2ca8537b7d315ca97f9a37583d381d2746208f3abf159466ffbd5b12d187505a",
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


# ---- the quiet-cycle fast path -----------------------------------------------
#
# ``_execute`` runs a lone computing process's channel-free steps in one
# loop (``CompiledProcessExec.run_quiet``) and catches the rest of the
# system up in bulk. The interpreter backend never takes that path, so it
# is the oracle: both backends must give the same HwResult.

_ORACLE_TEXT = b"quiet"  # one DES block


def _oracle_app(name):
    from repro.apps.edge_detect import build_edge_app
    from repro.apps.loopback import build_loopback
    from repro.apps.tripledes import build_tdes_app

    if name == "loopback":
        return build_loopback(3, data=list(range(1, 9)))
    if name == "edge":
        return build_edge_app(16, 8)
    if name == "tdes":
        return build_tdes_app(text=_ORACLE_TEXT)
    if name == "wake":
        return _pin_wake()
    return _pin_two_stage(_PIN_SPIN)


_ORACLE_IMAGES: dict = {}


def _oracle_image(name, level, nabort):
    key = (name, level, nabort)
    if key not in _ORACLE_IMAGES:
        _ORACLE_IMAGES[key] = synthesize(_oracle_app(name), assertions=level,
                                         nabort=nabort)
    return _ORACLE_IMAGES[key]


def _spread(*tops):
    """Integers over several magnitudes, drawn mostly from the first; a
    plain range crowds its low end."""
    return st.sampled_from(tops).flatmap(
        lambda top: st.integers(max(1, top // 4), top))


@st.composite
def _oracle_runs(draw):
    from repro.faults.runtime import (
        ChannelBitFlip,
        DropWord,
        DuplicateWord,
        RegisterUpset,
        StreamStall,
        StuckAtBit,
    )
    from repro.runtime.watchdog import WatchdogConfig

    name = draw(st.sampled_from(("tdes", "spin", "wake", "loopback", "edge")))
    level = draw(st.sampled_from(("none", "unoptimized", "optimized")))
    nabort = draw(st.booleans())
    image = _oracle_image(name, level, nabort)
    streams = sorted(sd.name for sd in image.app.streams.values()
                     if sd.role is None)
    procs = sorted(pd.name for pd in image.app.fpga_processes())
    max_cycles = draw(_spread(30_000, 2_000, 200))
    cycle = _spread(20_000, 5_000, 400, 16)
    word = st.integers(0, 8)
    bit = st.integers(0, 63)
    stream = st.sampled_from(streams)
    kinds = {
        "bitflip": st.builds(ChannelBitFlip, target=stream, word_index=word,
                             bit=bit),
        "stuckat": st.builds(StuckAtBit, target=stream, bit=bit,
                             stuck_value=st.integers(0, 1), from_word=word),
        "drop": st.builds(DropWord, target=stream, word_index=word),
        "duplicate": st.builds(DuplicateWord, target=stream,
                               word_index=word),
        "stall": st.builds(StreamStall, target=stream, start_cycle=cycle,
                           duration=cycle),
        "upset": st.builds(RegisterUpset, target=st.sampled_from(procs),
                           cycle=cycle, reg_index=st.integers(0, 127),
                           bit=bit),
    }
    faults = draw(st.lists(st.sampled_from(sorted(kinds)).flatmap(
        kinds.__getitem__), min_size=1, max_size=2))
    watchdog = WatchdogConfig(
        max_cycles=max_cycles,
        idle_limit=draw(st.integers(4, 64)),
        livelock_window=draw(_spread(30_000, 8_000, 1_000, 50)),
        quarantine=draw(st.booleans()),
    )
    return image, watchdog, faults


def _comparable(res):
    import dataclasses

    fields = dataclasses.asdict(res)
    for stats in fields["process_stats"].values():
        del stats["backend"]
    return fields


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_oracle_runs())
def test_compiled_fast_path_equals_interpreter(run):
    image, watchdog, faults = run
    compiled = execute(image, watchdog=watchdog, faults=faults,
                       sim_backend="compiled")
    interp = execute(image, watchdog=watchdog, faults=faults,
                     sim_backend="interp")
    assert _comparable(compiled) == _comparable(interp)


def _golden_tdes_image():
    from repro.apps.tripledes import build_tdes_app

    return synthesize(build_tdes_app(text=b"Sixteen bytes!!!"),
                      assertions="optimized")


def test_clocked_fault_subclass_sees_every_cycle():
    """An unknown fault with an ``on_cycle`` hook forbids every stretch."""
    from repro.faults.runtime import RuntimeFault

    class Clock(RuntimeFault):
        def reset(self):
            super().reset()
            self.seen = []

        def on_cycle(self, now, execs):
            self.seen.append(now)

    image = _golden_tdes_image()
    clock = Clock()
    res = execute(image, faults=(clock,), sim_backend="compiled")
    assert res.completed
    assert clock.seen == list(range(1, res.cycles + 1))
    assert _comparable(res) == _comparable(execute(image))


def test_fast_path_engages_on_golden_tdes(monkeypatch):
    """Quiet cycles must not come back to the per-cycle loop: on the golden
    Triple-DES run the compiled processes tick on under 1% of cycles."""
    from repro.simc.schedgen import CompiledProcessExec

    image = _golden_tdes_image()
    ticks = 0
    tick = CompiledProcessExec.tick

    def counted(self):
        nonlocal ticks
        ticks += 1
        return tick(self)

    monkeypatch.setattr(CompiledProcessExec, "tick", counted)
    res = execute(image, sim_backend="compiled")
    assert res.completed
    slots = len(image.app.fpga_processes()) * res.cycles
    assert 0 < ticks < 0.01 * slots, (ticks, res.cycles)
