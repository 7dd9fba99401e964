"""Runtime fault layer: channel/register faults and the injector."""

import pytest

from repro.core.synth import synthesize
from repro.errors import FaultError
from repro.faults import (
    ChannelBitFlip,
    DropWord,
    DuplicateWord,
    NarrowCompare,
    RegisterUpset,
    RuntimeFault,
    RuntimeFaultInjector,
    StreamStall,
    StuckAtBit,
    apply_faults,
)
from repro.hls.cyclemodel import Channel
from repro.runtime.hwexec import execute
from repro.runtime.swsim import software_sim
from repro.runtime.taskgraph import Application

SRC = """
void p(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    co_stream_write(output, x + 1);
  }
  co_stream_close(output);
}
"""


def make_app(data):
    app = Application("rt")
    app.add_c_process(SRC, name="p")
    app.feed("in", "p.input", data=data)
    app.sink("out", "p.output")
    return app


def run_with(faults, data=(1, 2, 3, 4), **kw):
    app = make_app(list(data))
    image = synthesize(app, assertions="none")
    return execute(image, faults=faults, **kw)


# ---- channel fault mechanics (unit level) ----------------------------------


def attach(ch, fault):
    inj = RuntimeFaultInjector([fault])
    inj.attach({ch.name: ch})
    return inj


def test_bitflip_hits_exactly_one_word():
    ch = Channel("c", width=8, depth=8)
    attach(ch, ChannelBitFlip(target="c", word_index=1, bit=0))
    for v in (4, 4, 4):
        ch.push(v)
    assert list(ch.queue) == [4, 5, 4]


def test_bitflip_wraps_bit_to_channel_width():
    ch = Channel("c", width=8, depth=8)
    attach(ch, ChannelBitFlip(target="c", word_index=0, bit=8))
    ch.push(0)
    assert list(ch.queue) == [1]  # bit 8 % width 8 == bit 0


def test_stuck_at_one_forces_every_word_from_word():
    ch = Channel("c", width=8, depth=8)
    attach(ch, StuckAtBit(target="c", bit=1, stuck_value=1, from_word=1))
    for v in (0, 0, 4):
        ch.push(v)
    assert list(ch.queue) == [0, 2, 6]


def test_stuck_at_zero_clears_bit():
    ch = Channel("c", width=8, depth=8)
    attach(ch, StuckAtBit(target="c", bit=0, stuck_value=0))
    for v in (1, 2, 3):
        ch.push(v)
    assert list(ch.queue) == [0, 2, 2]


def test_drop_and_duplicate_word():
    ch = Channel("c", width=8, depth=8)
    attach(ch, DropWord(target="c", word_index=1))
    for v in (1, 2, 3):
        ch.push(v)
    assert list(ch.queue) == [1, 3]

    ch2 = Channel("d", width=8, depth=8)
    attach(ch2, DuplicateWord(target="d", word_index=0))
    ch2.push(7)
    ch2.push(8)
    assert list(ch2.queue) == [7, 7, 8]


def test_stream_stall_blocks_push_during_window_only():
    ch = Channel("c", width=8, depth=8)
    inj = attach(ch, StreamStall(target="c", start_cycle=2, duration=3))
    assert ch.can_push()          # cycle 0: before the window
    inj.tick(); inj.tick()        # now == 2
    assert not ch.can_push()
    inj.tick(); inj.tick()        # now == 4 (last stalled cycle)
    assert not ch.can_push()
    inj.tick()                    # now == 5: window over
    assert ch.can_push()


def test_channel_faults_ignore_non_scalar_words():
    ch = Channel("c", width=8, depth=8)
    attach(ch, ChannelBitFlip(target="c", word_index=0, bit=0))
    ch.push(("tap", 1, 2))
    assert list(ch.queue) == [("tap", 1, 2)]


def test_fault_reset_rearms_word_counter():
    fault = ChannelBitFlip(target="c", word_index=0, bit=0)
    ch = Channel("c", width=8, depth=8)
    attach(ch, fault)
    ch.push(2)
    assert list(ch.queue) == [3]
    ch2 = Channel("c", width=8, depth=8)
    attach(ch2, fault)  # re-attach resets `seen` and events
    ch2.push(2)
    assert list(ch2.queue) == [3]
    assert len(fault.events) == 1


def test_injector_detach_removes_only_its_own_faults():
    ch = Channel("c", width=8, depth=8)
    mine = ChannelBitFlip(target="c", word_index=0, bit=0)
    other = ChannelBitFlip(target="c", word_index=0, bit=0)  # equal params
    ch.faults.append(other)
    inj = RuntimeFaultInjector([mine])
    inj.attach({"c": ch})
    assert ch.faults == [other, mine]
    inj.detach()
    # identity-based removal: the equal-but-distinct fault must survive
    assert ch.faults == [other]


class _CycleProbe(RuntimeFault):
    """A test-local fault that overrides ``on_cycle``."""

    def reset(self) -> None:
        super().reset()
        self.seen = []

    def on_cycle(self, now, execs):
        self.seen.append(now)


class _FakeExec:
    done = False

    def __init__(self):
        self.upsets = []

    def upset_register(self, reg_index, bit):
        self.upsets.append((reg_index, bit))
        return "r", bit


def test_injector_calls_on_cycle_on_the_faults_that_override_it():
    probe = _CycleProbe()
    upset = RegisterUpset(target="p", cycle=2, reg_index=1, bit=3)
    stall = StreamStall(target="c", start_cycle=1, duration=1)
    pe = _FakeExec()
    inj = RuntimeFaultInjector([stall, probe, upset])
    inj.attach({"c": Channel("c")}, {"p": pe})
    for _ in range(3):
        inj.tick()
    assert probe.seen == [1, 2, 3]
    assert pe.upsets == [(1, 3)]
    assert upset.events == ["cycle 2: p.r bit 3 flipped"]


def test_stall_only_injector_still_advances_the_channel_clock():
    ch = Channel("c", width=8, depth=8)
    inj = attach(ch, StreamStall(target="c", start_cycle=2, duration=1))
    inj.tick()
    assert inj.cycle == 1 and ch.can_push()
    inj.tick()
    assert inj.cycle == 2 and not ch.can_push()
    inj.tick()
    assert inj.cycle == 3 and ch.can_push()


def test_overriding_fault_sees_every_cycle_of_a_run():
    probe = _CycleProbe()
    res = run_with([probe])
    assert res.completed
    assert probe.seen == list(range(1, res.cycles + 1))


# ---- misconfiguration ------------------------------------------------------


def test_unknown_channel_raises_fault_error():
    with pytest.raises(FaultError, match="unknown channel"):
        run_with([ChannelBitFlip(target="nope", word_index=0, bit=0)])


def test_unknown_process_raises_fault_error():
    with pytest.raises(FaultError, match="unknown process"):
        run_with([RegisterUpset(target="ghost", cycle=1)])


def test_ir_fault_matching_nothing_raises_fault_error():
    app = make_app([1])  # SRC has no comparison wider than 60 bits
    func = app.processes["p"].func
    with pytest.raises(FaultError, match="matched nothing"):
        apply_faults(func, (NarrowCompare(width=60),))


# ---- end-to-end through hardware execution ---------------------------------


def test_bitflip_corrupts_hw_output_silently():
    golden = software_sim(make_app([1, 2, 3, 4])).outputs["out"]
    res = run_with([ChannelBitFlip(target="out", word_index=2, bit=3)])
    assert res.completed and res.reason == "completed"
    assert res.outputs["out"] != golden
    assert res.outputs["out"][2] == golden[2] ^ 8
    assert any("bit 3" in e for e in res.fault_events)


def test_drop_on_feeder_loses_one_word():
    res = run_with([DropWord(target="in", word_index=0)])
    assert res.completed
    assert res.outputs["out"] == [3, 4, 5]


def test_duplicate_on_feeder_repeats_one_word():
    res = run_with([DuplicateWord(target="in", word_index=3)])
    assert res.completed
    assert res.outputs["out"] == [2, 3, 4, 5, 5]


def test_stall_is_benign_for_a_correct_design():
    golden = software_sim(make_app([1, 2, 3, 4])).outputs["out"]
    clean = run_with([])
    res = run_with([StreamStall(target="out", start_cycle=2, duration=40)])
    assert res.completed
    assert res.outputs["out"] == golden
    assert res.cycles > clean.cycles  # the storm cost cycles, nothing else


def test_register_upset_fires_once_and_logs():
    res = run_with([RegisterUpset(target="p", cycle=3, reg_index=1, bit=0)])
    assert res.completed
    assert len([e for e in res.fault_events if "flipped" in e]) <= 1


def test_same_faults_reproduce_identical_results():
    faults = [
        ChannelBitFlip(target="out", word_index=1, bit=2),
        StreamStall(target="in", start_cycle=4, duration=8),
    ]
    a = run_with(faults)
    b = run_with(faults)
    assert a.outputs == b.outputs
    assert a.cycles == b.cycles
    assert a.fault_events == b.fault_events


def test_rtl_sim_honors_channel_faults():
    # the same fault corrupts the same word whether the design runs under
    # the schedule-level cycle model or the RTL simulator
    from repro.hls.cyclemodel import ProcessExec
    from repro.rtl.sim import RtlSim
    from tests.helpers import compile_one

    cp = compile_one(SRC.replace("void p(", "void f("))
    data = [10, 20, 30]

    def fresh():
        cin = Channel("i", depth=64)
        cout = Channel("o", depth=64)
        for v in data:
            cin.push(v)
        cin.close()
        return cin, cout

    def faulted():
        return RuntimeFaultInjector(
            [ChannelBitFlip(target="output", word_index=1, bit=4)]
        )

    cin, cout = fresh()
    inj = faulted()
    inj.attach({"input": cin, "output": cout})
    pe = ProcessExec(cp.schedule, {"input": cin, "output": cout})
    while not pe.done and pe.cycles < 10_000:
        inj.tick()
        pe.tick()
    model_out = list(cout.queue)
    inj.detach()

    cin, cout = fresh()
    sim = RtlSim(cp.rtl, {"input": cin, "output": cout}, injector=faulted())
    sim.run()
    rtl_out = list(cout.queue)

    assert model_out == rtl_out == [11, 21 ^ 16, 31]
