"""Analytic maximum-frequency model (the reproduction's Quartus timing
analyzer).

The critical path is assembled from structural facts of the synthesized
design rather than fitted per benchmark:

* **logic depth** — the deepest combinational chain any control step
  actually schedules (the scheduler records per-instruction chain depth);
* **embedded delays** — a block-RAM flow-through read or a DSP multiplier
  in the chain adds its access time;
* **channel multiplexing pressure** — every CPU-bound logical stream takes
  a slot in the board-side time multiplexer; its fan-in grows the mux tree
  and the routing spread. This is the term that reproduces Figure 4: 128
  unoptimized assertion streams collapse Fmax by ~19%, while the shared
  (1-per-32) channels leave it within a percent of the original;
* **congestion** — a quadratic utilization term (negligible below ~50%
  utilization, as on the paper's 9%-utilized case studies);
* **placement jitter** — a deterministic ±1.5% hash of the design
  fingerprint, reproducing the run-to-run non-monotonicity the paper notes
  in Section 5.3 (their edge-detect "Assert" build came out *faster* than
  the original).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.ops import OpKind
from repro.platform.device import DeviceModel, EP2S180
from repro.platform.resources import DesignResources, estimate_image
from repro.utils.bitops import clog2
from repro.utils.idgen import stable_fingerprint


@dataclass(frozen=True)
class TimingParams:
    """Delay constants (ns), Stratix-II-flavoured."""

    t_reg: float = 1.00          # clk->Q + setup
    t_lut_level: float = 0.65    # one LUT + local routing
    t_bram: float = 2.30         # M4K flow-through access
    t_dsp: float = 2.40          # DSP multiplier
    t_mux_per_stream: float = 0.0045   # linear fan-in/routing spread (CPU slot)
    internal_stream_weight: float = 0.1  # internal streams route locally
    t_mux_level: float = 0.02          # per mux-tree level
    t_fanout_per_process: float = 0.004  # global control fanout past the knee
    fanout_knee: int = 32                # paper: Fmax flat until ~32 processes
    t_congestion: float = 3.0          # * utilization^2
    #: minimum achievable period: clock network, wrapper interface and
    #: board-level timing put a ceiling on Fmax regardless of user logic
    t_floor: float = 4.40
    jitter: float = 0.015              # +/- fraction


@dataclass
class TimingReport:
    fmax_mhz: float
    critical_path_ns: float
    contributions: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.fmax_mhz:.1f} MHz ({self.critical_path_ns:.2f} ns)"

    def as_dict(self) -> dict[str, float]:
        """JSON-able summary (used by the lab result store)."""
        return {
            "fmax_mhz": round(self.fmax_mhz, 4),
            "critical_path_ns": round(self.critical_path_ns, 4),
        }


def _design_depth(image) -> tuple[int, bool, bool]:
    """(max chain depth, bram on path, dsp on path) across all processes."""
    max_depth = 1
    bram_on_path = False
    dsp_on_path = False
    # placed instances share a compiled process: visit each one once
    for cp in {id(cp): cp for cp in image.compiled.values()}.values():
        func = cp.hw_func
        for bname, bs in cp.schedule.blocks.items():
            block = func.blocks[bname]
            step_has_load: dict[int, bool] = {}
            step_has_mul: dict[int, bool] = {}
            for idx, st in bs.instr_step.items():
                instr = block.instrs[idx]
                if instr.op == OpKind.LOAD:
                    step_has_load[st] = True
                if instr.op == OpKind.MUL:
                    step_has_mul[st] = True
            for idx, depth in bs.instr_depth.items():
                st = bs.instr_step[idx]
                max_depth = max(max_depth, depth)
                if depth >= 1 and step_has_load.get(st):
                    bram_on_path = True
                if step_has_mul.get(st):
                    dsp_on_path = True
        for ps in cp.schedule.pipelines.values():
            steps_with_load = {
                ps.instr_step[i]
                for i, ins in enumerate(ps.instrs)
                if ins.op == OpKind.LOAD
            }
            for i, ins in enumerate(ps.instrs):
                if ins.op == OpKind.MUL:
                    dsp_on_path = True
                depth = ps.instr_depth.get(i, ins.info.levels)
                max_depth = max(max_depth, depth)
                if depth >= 1 and ps.instr_step[i] in steps_with_load:
                    bram_on_path = True
    return max_depth, bram_on_path, dsp_on_path


def estimate_fmax(
    image,
    device: DeviceModel = EP2S180,
    params: TimingParams = TimingParams(),
    resources: DesignResources | None = None,
) -> TimingReport:
    """Estimate the design's maximum clock frequency."""
    resources = resources or estimate_image(image, device)
    depth, bram_on_path, dsp_on_path = _design_depth(image)

    t_logic = params.t_reg + depth * params.t_lut_level
    t_embed = 0.0
    if bram_on_path:
        t_embed += params.t_bram
    if dsp_on_path:
        t_embed += params.t_dsp

    # channel multiplexing: every CPU-bound or CPU-fed logical stream takes
    # a slot in the physical link's time multiplexer
    cpu_streams = sum(
        1 for sd in image.app.streams.values() if sd.cpu_bound or sd.cpu_fed
    )
    # internal streams add local routing but not board-mux slots
    internal_streams = len(image.app.streams) - cpu_streams
    t_mux = (
        params.t_mux_per_stream
        * (cpu_streams + params.internal_stream_weight * internal_streams)
        + params.t_mux_level * clog2(max(2, cpu_streams + 1))
    )

    # global control/clock-enable fanout: flat until ~32 processes, then
    # the spread across the die starts to cost (Section 5.3's observation)
    n_procs = sum(
        1 for pd in image.app.fpga_processes() if not pd.daemon
    )
    t_fan = params.t_fanout_per_process * max(0, n_procs - params.fanout_knee)

    u = resources.utilization()
    t_cong = params.t_congestion * u * u

    path = max(t_logic + t_embed + t_mux + t_fan + t_cong, params.t_floor)

    # deterministic placement jitter in [-jitter, +jitter]
    fp = stable_fingerprint(
        sorted(image.compiled),
        sorted(image.app.streams),
        resources.total.comb_aluts,
        resources.total.registers,
    )
    frac = ((fp % 10_000) / 10_000.0) * 2.0 - 1.0
    path *= 1.0 + params.jitter * frac

    fmax = 1000.0 / path
    return TimingReport(
        fmax_mhz=fmax,
        critical_path_ns=path,
        contributions={
            "logic_ns": t_logic,
            "embedded_ns": t_embed,
            "mux_ns": t_mux,
            "congestion_ns": t_cong,
            "depth": depth,
            "cpu_streams": cpu_streams,
            "utilization": u,
            "jitter_frac": frac,
        },
    )
