"""Analytic resource estimation for synthesized applications.

Plays the role of Quartus's fitter report in the reproduction: given a
:class:`HardwareImage` it charges ALUTs, registers, block-RAM bits and
block interconnect per structural element, with per-primitive costs
calibrated to Stratix-II ALM characteristics. The absolute numbers land in
the same range as the paper's case studies; the *overheads* (what Tables 1,
2 and Figure 5 actually compare) come out of the same structural elements
the paper names: assertion checker logic, tap registers, and one 576-bit
stream FIFO per CPU-bound channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hls.binding import BindingReport
from repro.hls.compiler import CompiledProcess
from repro.platform.device import BoardModel, DeviceModel, EP2S180, XD1000
from repro.utils.bitops import clog2


@dataclass
class ResourceReport:
    """One column of the paper's Table 1/2."""

    comb_aluts: int = 0
    registers: int = 0
    bram_bits: int = 0
    interconnect: int = 0
    dsp_mults: int = 0

    @property
    def logic(self) -> int:
        """'Logic used' (occupied ALM sites): registers and combinational
        ALUTs pack two-per-ALM; correlated placement keeps them from fully
        merging, matching Quartus's reported utilization."""
        hi, lo = max(self.comb_aluts, self.registers), min(
            self.comb_aluts, self.registers
        )
        return hi + int(0.46 * lo)

    def add(self, other: "ResourceReport") -> None:
        self.comb_aluts += other.comb_aluts
        self.registers += other.registers
        self.bram_bits += other.bram_bits
        self.interconnect += other.interconnect
        self.dsp_mults += other.dsp_mults

    def as_dict(self) -> dict[str, int]:
        """JSON-able summary (used by the lab result store)."""
        return {
            "logic": self.logic,
            "comb_aluts": self.comb_aluts,
            "registers": self.registers,
            "bram_bits": self.bram_bits,
            "interconnect": self.interconnect,
            "dsp_mults": self.dsp_mults,
        }

    def check_fits(self, device: DeviceModel) -> list[str]:
        problems = []
        if self.comb_aluts > device.aluts:
            problems.append(f"ALUTs {self.comb_aluts} > {device.aluts}")
        if self.registers > device.registers:
            problems.append(f"registers {self.registers} > {device.registers}")
        if self.bram_bits > device.bram_bits:
            problems.append(f"BRAM {self.bram_bits} > {device.bram_bits}")
        if self.interconnect > device.block_interconnect:
            problems.append(
                f"interconnect {self.interconnect} > {device.block_interconnect}"
            )
        return problems


def _op_aluts(instr) -> int:
    """ALUT cost of one operation, constant-operand aware.

    Synthesis specializes constant operands: a bitwise op with a constant
    is rewiring, a shift by a constant is free, a comparison against zero
    is a reduction tree. This matters for fidelity — the paper's
    per-assertion logic (a single ``x > 0`` comparator) is a handful of
    ALUTs, not a full-width comparator.
    """
    from repro.ir.values import Const

    resource = instr.info.resource
    consts = [a for a in instr.args if isinstance(a, Const)]
    # constants synthesize at the width of the variable operand (a uint8
    # compared against the literal 127 is an 8-bit comparator, not a 32-bit
    # one, regardless of C's promotion rules)
    var_widths = [
        a.ty.width for a in instr.args
        if hasattr(a, "ty") and not isinstance(a, Const)
    ]
    width = max(
        var_widths
        or [d.ty.width for d in instr.dests]
        or [a.ty.width for a in instr.args if hasattr(a, "ty")]
        or [1]
    )
    if resource == "addsub":
        return width  # carry chain, constant or not
    if resource == "compare":
        if consts and consts[0].value == 0:
            return (width + 5) // 6 + 1  # zero test: OR-reduce
        if consts:
            return (width + 2) // 3
        return width // 2 + 1
    if resource == "logic":
        if consts:
            return 0  # masking with a constant is wiring
        return (width + 1) // 2
    if resource == "shift":
        if consts:
            return 0  # constant shift is wiring
        return (width * max(1, clog2(max(2, width)))) // 2
    if resource == "divide":
        return width * 4
    if resource == "mult":
        return 4  # glue only; the multiplier maps to a DSP block
    return width


def _fu_aluts(fu) -> int:
    """A shared functional unit is as big as its largest bound operation."""
    return max((_op_aluts(op.instr) for op in fu.ops), default=fu.width)


@dataclass
class ProcessResources:
    name: str
    report: ResourceReport
    detail: dict = field(default_factory=dict)


def estimate_process(cp: CompiledProcess) -> ProcessResources:
    """Charge one process's datapath, FSM, memories and endpoints."""
    func = cp.hw_func
    binding: BindingReport = cp.binding
    r = ResourceReport()
    detail: dict = {}

    # datapath functional units + sharing muxes
    fu_aluts = 0
    for fu in binding.fus:
        fu_aluts += _fu_aluts(fu)
        if fu.resource == "mult":
            r.dsp_mults += 1
    # a 6-input ALUT absorbs ~3 steering-mux bits alongside function logic
    mux_aluts = binding.mux_bits() // 6
    r.comb_aluts += fu_aluts + mux_aluts
    detail["fu_aluts"] = fu_aluts
    detail["mux_aluts"] = mux_aluts

    # registers: one per scalar bit (Impulse-C registers every C variable),
    # plus pipeline stage-valid bits
    scalar_regs = sum(ty.width for ty in func.scalars.values())
    pipe_regs = sum(ps.latency for ps in cp.schedule.pipelines.values())
    r.registers += scalar_regs + pipe_regs
    detail["scalar_regs"] = scalar_regs

    # FSM: state register + next-state/decode logic. Pipeline stages are
    # not decoded FSM states — they carry shift-register valid bits and a
    # small initiation controller per pipeline instead.
    seq_states = sum(bs.length for bs in cp.schedule.blocks.values())
    pipe_stages = sum(ps.latency for ps in cp.schedule.pipelines.values())
    state_bits = clog2(max(2, seq_states + 1))
    r.registers += state_bits
    # pipeline stage-valid bits are registers (charged above via pipe_regs);
    # each pipeline needs only a small initiation controller in logic
    fsm_aluts = seq_states + 2 * len(cp.schedule.pipelines)
    r.comb_aluts += fsm_aluts
    detail["fsm_states"] = seq_states + pipe_stages

    # select ops and predication enables (not bound as FUs)
    from repro.ir.ops import OpKind

    select_aluts = 0
    pred_temps: set[str] = set()
    for instr in func.instructions():
        if instr.op == OpKind.SELECT and instr.dest is not None:
            select_aluts += instr.dest.ty.width
        pred = instr.attrs.get("pred")
        if pred is not None:
            pred_temps.add(pred.name)
    # one squash/enable gate per distinct predicate
    select_aluts += len(pred_temps)
    r.comb_aluts += select_aluts

    # local arrays -> block RAM (rounded up to M4K granularity happens at
    # the design level; bits are charged raw here like the paper's tables)
    array_bits = sum(arr.bits for arr in func.arrays.values())
    r.bram_bits += array_bits
    detail["array_bits"] = array_bits

    # stream endpoints inside the process (handshake + data register)
    endpoint_aluts = 0
    endpoint_regs = 0
    for sp in func.streams:
        # Impulse-C stream endpoints carry handshake FSMs and data staging
        endpoint_aluts += 10 + sp.width // 4
        endpoint_regs += 4 + sp.width // 6
    r.comb_aluts += endpoint_aluts
    r.registers += endpoint_regs

    # interconnect: scales with logic plus per-endpoint routing
    r.interconnect = int(
        1.35 * r.comb_aluts + 0.45 * r.registers + 14 * len(func.streams)
    )
    return ProcessResources(cp.name, r, detail)


@dataclass
class DesignResources:
    """Whole-design estimate: what the paper's tables report."""

    total: ResourceReport
    processes: list[ProcessResources]
    channel_bits: int
    channel_count: int
    device: DeviceModel

    def utilization(self) -> float:
        return self.total.comb_aluts / self.device.aluts


def estimate_image(
    image,
    device: DeviceModel = EP2S180,
    board: BoardModel = XD1000,
) -> DesignResources:
    """Estimate the full application: processes + channels + board glue."""
    total = ResourceReport()
    per_process = []
    # placed instances share one compiled process: estimate it once
    estimates: dict[int, ProcessResources] = {}
    for name, cp in image.compiled.items():
        pr = estimates.get(id(cp))
        if pr is None:
            pr = estimates[id(cp)] = estimate_process(cp)
        per_process.append(ProcessResources(name, pr.report, pr.detail))
        total.add(pr.report)

    # channels: each stream gets a FIFO (the paper's +576-bit observation:
    # 16 deep x (32 data + 4 status) = 576 bits per channel)
    channel_bits = 0
    channel_count = 0
    for sd in image.app.streams.values():
        channel_count += 1
        bits = board.stream_fifo_depth * (sd.width + 4)
        channel_bits += bits
        total.bram_bits += bits
        if sd.cpu_bound or sd.cpu_fed:
            # CPU-bound channels pay the board wrapper: DMA descriptor
            # logic plus a slot in the physical link's time multiplexer.
            # This is the per-channel cost that resource sharing
            # amortizes (Figures 4/5).
            total.comb_aluts += 24
            total.registers += 18
            total.interconnect += 60
        else:
            total.comb_aluts += 9
            total.registers += 7
            total.interconnect += 22
    for td in image.app.taps.values():
        width = sum(td.widths)
        bits = 8 * (width + 2)  # taps use shallow dedicated FIFOs
        channel_bits += bits
        total.bram_bits += bits
        total.comb_aluts += 1  # a tap is wiring plus a shallow FIFO
        total.registers += 4   # control only: it taps an existing register
        total.interconnect += 8
        _ = width

    # collector pseudo-processes: sticky word + OR tree + endpoint
    for pd in image.app.processes.values():
        if pd.kind == "collector" and pd.collector_spec is not None:
            n = len(pd.collector_spec.inputs)
            total.comb_aluts += 8 + n
            total.registers += 36
            total.interconnect += 30 + n

    return DesignResources(
        total=total,
        processes=per_process,
        channel_bits=channel_bits,
        channel_count=channel_count,
        device=device,
    )
