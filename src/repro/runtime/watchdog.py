"""Runtime watchdogs: termination classification, hang triage, quarantine.

The original hang detector was a single idle counter: if nothing in the
system moved for ``idle_limit`` cycles the run was declared ``hung``, and
``max_cycles`` exhaustion was folded into the same flag. That conflates
four different endings that the paper's Section 5.1 debugging methodology
— and any fault-injection campaign — needs to tell apart:

* ``deadlock``  — every component is stalled on a handshake (the classic
  blocked-channel cycle); detected by the idle counter.
* ``livelock``  — circuits are *active* but make no observable forward
  progress (no stream word moves anywhere): the paper's DES bug, where a
  process spins polling a flag that a mistranslated store never writes.
* ``timeout``   — the cycle budget ran out while words were still moving;
  the run was merely slower than budgeted, not provably stuck.
* ``completed`` / ``aborted`` — the normal and assertion-halt endings.

The watchdog also performs hang *triage* (per-process blocked-line traces
and starvation fractions) and, under ``NABORT``, graceful degradation: the
processes it identifies as stuck can be quarantined — retired, their
output streams closed — so the rest of the application drains to
completion and every in-flight assertion notification reaches the CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hls.cyclemodel import ProcessTrace

#: termination reasons (HwResult.reason)
COMPLETED = "completed"
ABORTED = "aborted"
DEADLOCK = "deadlock"
LIVELOCK = "livelock"
TIMEOUT = "timeout"

#: the reasons the legacy ``hung`` flag collapses to
HANG_REASONS = (DEADLOCK, LIVELOCK, TIMEOUT)

#: every value HwResult.reason may take
TERMINATIONS = (COMPLETED, ABORTED, DEADLOCK, LIVELOCK, TIMEOUT)


@dataclass(frozen=True)
class WatchdogConfig:
    """Tuning knobs for the runtime watchdog.

    ``livelock_window`` must exceed the longest legitimate stretch of
    stream-quiet computation (Triple-DES grinds ~30k cycles per block
    between handshakes, hence the generous default). ``quarantine``
    enables graceful degradation — it only acts when the image runs under
    ``NABORT``, since quarantining with abort-on-failure semantics would
    mask the abort.
    """

    max_cycles: int = 2_000_000
    idle_limit: int = 64
    livelock_window: int = 100_000
    quarantine: bool = False
    max_quarantine_rounds: int = 4


@dataclass
class WatchdogReport:
    """Triage output attached to a hardware-execution result."""

    reason: str
    fired_at_cycle: int
    traces: list[ProcessTrace] = field(default_factory=list)
    #: per-process fraction of its cycles spent stalled on handshakes
    starvation: dict[str, float] = field(default_factory=dict)
    #: cycles without any stream-word movement when the watchdog fired
    stagnant_cycles: int = 0
    quarantined: list[str] = field(default_factory=list)

    def render(self) -> list[str]:
        lines = [
            f"watchdog: {self.reason} at cycle {self.fired_at_cycle} "
            f"({self.stagnant_cycles} cycles without stream progress)"
        ]
        for name in sorted(self.starvation):
            lines.append(
                f"  starvation {name}: "
                f"{100.0 * self.starvation[name]:.1f}% of cycles stalled"
            )
        lines.extend(f"  trace: {t}" for t in self.traces)
        if self.quarantined:
            lines.append(f"  quarantined: {', '.join(self.quarantined)}")
        return lines


class Watchdog:
    """Observes one hardware execution and classifies how it ends.

    ``observe(active)`` is called once per clock with the cycle's global
    activity flag; it returns ``None`` while the run looks healthy, or a
    verdict (:data:`DEADLOCK` / :data:`LIVELOCK`) once the corresponding
    detector fires. Forward progress is measured as the total number of
    words moved through the application's stream channels (tap traffic is
    the assertion fabric's own concern and does not count).
    """

    def __init__(self, config: WatchdogConfig, app, execs: dict,
                 channels: dict):
        self.config = config
        self.app = app
        self.execs = execs
        self.channels = channels
        self._progress_chs = tuple(channels.values())
        self.cycle = 0
        self.idle = 0
        self.stagnant = 0
        self._last_progress = -1
        self._window_ops: dict[str, int] = {}
        self.quarantined: list[str] = []

    def observe(self, active: bool) -> str | None:
        self.cycle += 1
        if active:
            self.idle = 0
        else:
            self.idle += 1
            if self.idle >= self.config.idle_limit:
                return DEADLOCK
        progress = sum([ch.pushes + ch.pops for ch in self._progress_chs])
        if progress != self._last_progress:
            self._last_progress = progress
            self.stagnant = 0
        else:
            if self.stagnant == 0:
                self._window_ops = {
                    name: (pe.stream_ops, pe.stall_cycles)
                    for name, pe in self.execs.items()
                }
            self.stagnant += 1
            if self.stagnant >= self.config.livelock_window:
                return LIVELOCK
        return None

    def skip(self, n: int) -> None:
        """Account ``n`` active cycles in which no stream word moved, as
        ``n`` calls of ``observe(True)`` that all return None would."""
        self.cycle += n
        self.idle = 0
        self.stagnant += n

    # ---- triage -----------------------------------------------------------

    def victims(self, verdict: str) -> list[str]:
        """The unfinished processes responsible for ``verdict``.

        Deadlock: every blocked non-daemon (nothing moves, so they are all
        part of the wait cycle). Livelock: the non-daemons that performed
        no stream handshake during the stagnant window *while actively
        executing* — the spinners — leaving blocked-but-innocent
        downstream consumers alone (they drain once the spinner's streams
        close).
        """
        out = []
        for pd in self.app.fpga_processes():
            if pd.daemon or self.execs[pd.name].done:
                continue
            if verdict == LIVELOCK:
                before = self._window_ops.get(pd.name)
                if before is not None:
                    ops0, stalls0 = before
                    pe = self.execs[pd.name]
                    if pe.stream_ops != ops0:
                        continue  # made progress: not a spinner
                    stalled = pe.stall_cycles - stalls0
                    if self.stagnant and stalled >= 0.9 * self.stagnant:
                        continue  # blocked, not spinning: innocent
            out.append(pd.name)
        return out

    def reset_after_quarantine(self, victims: list[str]) -> None:
        self.quarantined.extend(victims)
        self.idle = 0
        self.stagnant = 0
        self._last_progress = -1

    def report(self, reason: str) -> WatchdogReport:
        starvation = {
            name: pe.stall_cycles / pe.cycles
            for name, pe in self.execs.items()
            if pe.cycles
        }
        return WatchdogReport(
            reason=reason,
            fired_at_cycle=self.cycle,
            traces=[pe.trace() for pe in self.execs.values()],
            starvation=starvation,
            stagnant_cycles=self.stagnant,
            quarantined=list(self.quarantined),
        )
