"""Runtime faults: hardware upsets injected during cycle-accurate execution.

Where :mod:`repro.faults.ir` models *translation* defects (the tool emitted
the wrong circuit), this module models *physical and interface* defects in
an otherwise correct circuit: single-event upsets, stuck-at bits on a
link, words lost or duplicated by a flaky stream endpoint, and transient
back-pressure storms. They are the fault space a systematic robustness
campaign sweeps (following the functional fault-injection methodology of
Rodrigues & Cardoso) to measure how well synthesized assertions and the
runtime watchdog detect misbehaviour.

Mechanics: every fault is a small stateful dataclass attached by a
:class:`RuntimeFaultInjector` to the execution fabric —

* channel faults hook :class:`repro.hls.cyclemodel.Channel` push/full
  logic, so they apply identically under the schedule-level cycle model
  (:mod:`repro.runtime.hwexec`) and the RTL simulator
  (:mod:`repro.rtl.sim`), both of which move words through ``Channel``;
* :class:`RegisterUpset` uses the :meth:`ProcessExec.upset_register` hook.

Faults are deterministic: they trigger on a fixed word index or cycle
number, never on wall-clock or unseeded randomness, so a campaign run with
the same seed reproduces bit-for-bit. ``reset()`` rearms a fault so the
same scenario object can be executed at several assertion levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FaultError

__all__ = [
    "RuntimeFault",
    "ChannelBitFlip",
    "StuckAtBit",
    "DropWord",
    "DuplicateWord",
    "StreamStall",
    "RegisterUpset",
    "RuntimeFaultInjector",
]


@dataclass
class RuntimeFault:
    """Base class: one deterministic defect bound to a channel or process.

    Subclasses set ``channel`` (a stream name) to hook word movement
    through that channel, or ``process`` to act on a
    :class:`~repro.hls.cyclemodel.ProcessExec` each cycle. ``events``
    records what the fault actually did, for campaign reports.
    """

    channel: str | None = field(default=None, init=False)
    process: str | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.events: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Rearm the fault for a fresh execution."""
        self.events = []

    # -- channel hooks (called by Channel when the fault is attached) ------

    def on_push(self, value, channel, now: int) -> list:
        """Transform one pushed word; return the words actually enqueued."""
        return [value]

    def blocks_push(self, channel, now: int) -> bool:
        """True while the fault asserts back-pressure on the channel."""
        return False

    # -- process hook (called by the injector once per cycle) --------------

    def on_cycle(self, now: int, execs: dict) -> None:
        """Act on process state at cycle ``now``."""

    def next_edge(self, now: int) -> int | None:
        """The first cycle after ``now`` at which the fault may change
        behaviour with no word moving, or None if there is none. The
        co-simulation loop skips no cycle at or past it. A subclass that
        overrides ``on_cycle`` or ``blocks_push`` but not this answers
        ``now``, so no cycle is skipped."""
        cls = type(self)
        if (cls.on_cycle is RuntimeFault.on_cycle
                and cls.blocks_push is RuntimeFault.blocks_push):
            return None
        return now

    def describe(self) -> str:
        return repr(self)


@dataclass
class _ChannelWordFault(RuntimeFault):
    """Shared machinery: a fault keyed on the Nth word pushed to a channel."""

    target: str = ""

    def __post_init__(self) -> None:
        self.channel = self.target
        super().__post_init__()

    def reset(self) -> None:
        super().reset()
        self.seen = 0

    def on_push(self, value, channel, now: int) -> list:
        # tap channels carry tuples; word faults only corrupt scalar words
        if not isinstance(value, int):
            return [value]
        index = self.seen
        self.seen += 1
        return self._transform(value, index, channel, now)

    def _transform(self, value: int, index: int, channel, now: int) -> list:
        raise NotImplementedError


@dataclass
class ChannelBitFlip(_ChannelWordFault):
    """Transient upset: XOR one bit of the ``word_index``-th word pushed."""

    word_index: int = 0
    bit: int = 0

    def _transform(self, value, index, channel, now):
        if index != self.word_index:
            return [value]
        flipped = value ^ (1 << (self.bit % channel.width))
        self.events.append(
            f"cycle {now}: {channel.name} word {index}: "
            f"{value:#x} -> {flipped:#x} (bit {self.bit % channel.width})"
        )
        return [flipped]


@dataclass
class StuckAtBit(_ChannelWordFault):
    """Permanent defect: one wire of the channel stuck at 0 or 1."""

    bit: int = 0
    stuck_value: int = 1
    from_word: int = 0

    def _transform(self, value, index, channel, now):
        if index < self.from_word:
            return [value]
        mask = 1 << (self.bit % channel.width)
        forced = (value | mask) if self.stuck_value else (value & ~mask)
        if forced != value and len(self.events) < 64:
            self.events.append(
                f"cycle {now}: {channel.name} word {index}: "
                f"{value:#x} -> {forced:#x} (stuck-at-{self.stuck_value})"
            )
        return [forced]


@dataclass
class DropWord(_ChannelWordFault):
    """Flaky endpoint: the ``word_index``-th word pushed is lost."""

    word_index: int = 0

    def _transform(self, value, index, channel, now):
        if index != self.word_index:
            return [value]
        self.events.append(
            f"cycle {now}: {channel.name} dropped word {index} ({value:#x})"
        )
        return []


@dataclass
class DuplicateWord(_ChannelWordFault):
    """Flaky handshake: the ``word_index``-th word is enqueued twice."""

    word_index: int = 0

    def _transform(self, value, index, channel, now):
        if index != self.word_index:
            return [value]
        self.events.append(
            f"cycle {now}: {channel.name} duplicated word {index} ({value:#x})"
        )
        return [value, value]


@dataclass
class StreamStall(RuntimeFault):
    """Back-pressure storm: the channel refuses pushes for a cycle window.

    Producers (and the board feeder) see a full FIFO during
    ``[start_cycle, start_cycle + duration)``; a correct design merely
    slows down, so this fault probes the schedule's stall robustness and
    gives campaigns their *benign* baseline outcomes.
    """

    target: str = ""
    start_cycle: int = 0
    duration: int = 16

    def __post_init__(self) -> None:
        self.channel = self.target
        super().__post_init__()

    def blocks_push(self, channel, now: int) -> bool:
        stalled = self.start_cycle <= now < self.start_cycle + self.duration
        if stalled and not self.events:
            self.events.append(
                f"cycle {now}: {channel.name} back-pressure storm "
                f"({self.duration} cycles)"
            )
        return stalled

    def next_edge(self, now: int) -> int | None:
        end = self.start_cycle + self.duration
        if now < self.start_cycle:
            return self.start_cycle
        return end if now < end else None


@dataclass
class RegisterUpset(RuntimeFault):
    """Single-event upset: flip one bit of one architectural register.

    The register is chosen by ``reg_index`` into the process's sorted
    register file at the moment the upset fires — stable for a given
    compiled design, independent of register *names*, so seeded campaigns
    survive instrumentation-induced renaming.
    """

    target: str = ""
    cycle: int = 64
    reg_index: int = 0
    bit: int = 0

    def __post_init__(self) -> None:
        self.process = self.target
        super().__post_init__()

    def reset(self) -> None:
        super().reset()
        self.fired = False

    def on_cycle(self, now: int, execs: dict) -> None:
        if self.fired or now < self.cycle:
            return
        self.fired = True
        pe = execs.get(self.process)
        if pe is None or pe.done:
            self.events.append(f"cycle {now}: {self.target} already done; no effect")
            return
        reg, bit = pe.upset_register(self.reg_index, self.bit)
        self.events.append(f"cycle {now}: {self.target}.{reg} bit {bit} flipped")

    def next_edge(self, now: int) -> int | None:
        return None if self.fired else self.cycle


class RuntimeFaultInjector:
    """Owns a fault list and the simulation clock they are armed against.

    ``attach`` validates every fault against the actual fabric (unknown
    channel or process names raise :class:`FaultError`, mirroring
    :func:`repro.faults.ir.apply_faults`'s matched-nothing check), rearms
    the faults, and hooks them into the channels. The executor then calls
    ``tick()`` once per clock; it calls ``on_cycle`` only on the faults
    whose class overrides it.
    """

    def __init__(self, faults=()):
        self.faults = list(faults)
        self._cycle_faults = [
            f for f in self.faults
            if type(f).on_cycle is not RuntimeFault.on_cycle
        ]
        self.cycle = 0
        self._execs: dict = {}
        self._hooked: list = []

    def detach(self) -> None:
        """Unhook every channel this injector previously attached to."""
        for ch in self._hooked:
            ch.faults = [f for f in ch.faults if all(f is not g for g in self.faults)]
        self._hooked = []

    def attach(self, channels: dict, execs: dict | None = None) -> None:
        self.detach()
        self.cycle = 0
        self._execs = dict(execs or {})
        for fault in self.faults:
            fault.reset()
            if fault.channel is not None:
                if fault.channel not in channels:
                    raise FaultError(
                        f"{fault!r} targets unknown channel {fault.channel!r}; "
                        f"have {sorted(channels)}", code="RPR-F002")
                ch = channels[fault.channel]
                ch.faults.append(fault)
                ch.clock = self
                self._hooked.append(ch)
            if fault.process is not None:
                if self._execs and fault.process not in self._execs:
                    raise FaultError(
                        f"{fault!r} targets unknown process {fault.process!r}; "
                        f"have {sorted(self._execs)}", code="RPR-F003")

    def tick(self) -> None:
        self.cycle += 1
        for fault in self._cycle_faults:
            fault.on_cycle(self.cycle, self._execs)

    def next_edge(self) -> int | None:
        """The earliest :meth:`RuntimeFault.next_edge` of any fault."""
        edges = [e for f in self.faults
                 if (e := f.next_edge(self.cycle)) is not None]
        return min(edges, default=None)

    def event_log(self) -> list[str]:
        out: list[str] = []
        for fault in self.faults:
            out.extend(fault.events)
        return out
