"""Resource sharing of failure communication channels (Sections 3.3, 4.2).

"Creating a streaming communication channel per Impulse-C process can
become expensive in terms of resources … a single bit of the stream is used
per assertion … a separate process is created that can handle failure
signals from up to 32 assertions per process if a 32-bit communication
channel is used."

Checkers in ``share`` mode raise 1-bit failure events on dedicated tap
wires. This pass groups up to ``word_width`` checkers per *collector*
process; each collector ORs arriving failure bits into a word and sends it
over a single CPU-bound stream. The CPU notifier decodes set bits back to
assertion error codes. The area effect is what Figures 4 and 5 measure:
failure streams drop from one per process to one per 32 assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.parallelize import CheckerPlan
from repro.runtime.hwexec import CollectorSpec, FailStreamDecode
from repro.runtime.taskgraph import Application, ProcessDef


@dataclass
class ShareResult:
    collectors: list[str] = field(default_factory=list)
    fail_streams: dict[str, FailStreamDecode] = field(default_factory=dict)


def build_collectors(
    app: Application,
    plans: list[CheckerPlan],
    registry_lookup,
    word_width: int = 32,
) -> ShareResult:
    """Create collector processes for all bit-mode checker plans."""
    result = ShareResult()
    bit_plans = [p for p in plans if p.fail_mode == "bit"]
    for group_index in range(0, len(bit_plans), word_width):
        group = bit_plans[group_index:group_index + word_width]
        cname = f"__collect{group_index // word_width}"
        stream_name = f"{cname}_out"
        spec = CollectorSpec(output=stream_name)
        decode = FailStreamDecode(mode="bitmask")
        for bit, plan in enumerate(group):
            # failure tap: checker -> collector, 1 bit wide
            app.add_tap(plan.fail_tap, plan.name, cname, (1,))
            spec.inputs.append((plan.fail_tap, bit))
            decode.table[bit] = (plan.app_process, plan.site)
        collector = ProcessDef(name=cname, func=None, kind="collector",
                               daemon=True, collector_spec=spec)
        app.processes[cname] = collector
        app.sink(stream_name, f"{cname}.out", width=word_width,
                 role="assert_bitmask")
        result.collectors.append(cname)
        result.fail_streams[stream_name] = decode
        _ = registry_lookup
    return result
