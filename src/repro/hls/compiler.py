"""Per-process hardware compilation driver.

``compile_process`` takes an IR function whose assertions have already been
synthesized away by :mod:`repro.core` (or compiled out via ``NDEBUG``) and
produces everything downstream consumers need: the schedule (timing), the
binding (area sharing), and — lazily, via :mod:`repro.hls.codegen` — the
RTL module and Verilog text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hls.binding import BindingReport, bind_function
from repro.hls.constraints import HLSConfig, ScheduleConfig
from repro.hls.faults import apply_faults
from repro.hls.schedule import FunctionSchedule, schedule_function
from repro.ir.function import IRFunction
from repro.ir.verify import verify_function


@dataclass
class CompiledProcess:
    """One FPGA process after hardware compilation."""

    hw_func: IRFunction
    schedule: FunctionSchedule
    binding: BindingReport
    config: HLSConfig
    _rtl: object = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.hw_func.name

    def pipeline_report(self) -> dict[str, tuple[int, int]]:
        """{loop header: (latency, rate)} for every pipelined loop."""
        return {
            header: (ps.latency, ps.ii)
            for header, ps in self.schedule.pipelines.items()
        }

    def sequential_latency(self, block: str) -> int:
        return self.schedule.block_latency(block)

    @property
    def rtl(self):
        """The RTL module, generated on first access."""
        if self._rtl is None:
            from repro.hls.codegen import generate_rtl

            self._rtl = generate_rtl(self)
        return self._rtl

    def verilog(self) -> str:
        from repro.rtl.verilog import emit_module

        return emit_module(self.rtl)

    def __getstate__(self):
        """Drop the lazily generated RTL when pickled (cache entries,
        executor transfers): it regenerates deterministically on first
        access, and excluding it keeps per-process cache artifacts
        byte-stable regardless of whether RTL was materialized before
        the store."""
        state = self.__dict__.copy()
        state["_rtl"] = None
        return state


def compile_process(
    func: IRFunction, config: HLSConfig | None = None
) -> CompiledProcess:
    """Compile one process to a scheduled, bound hardware description.

    ``func`` is verified, then compiled in place: without faults it is the
    result's ``hw_func``, and pipelining may add predicate temporaries to
    it, so the caller passes a function it owns (never shared lowered IR).
    Fault injection compiles a faulted clone and leaves ``func`` as it was.
    """
    config = config or HLSConfig()
    verify_function(func)
    hw = apply_faults(func, config.faults) if config.faults else func
    sched = schedule_function(hw, config.schedule)
    binding = bind_function(sched)
    return CompiledProcess(hw_func=hw, schedule=sched, binding=binding,
                           config=config)


def default_schedule_config() -> ScheduleConfig:
    return ScheduleConfig()
