"""Resource-constrained list scheduling of basic blocks into control steps.

State-machine model (matching the Impulse-C behaviour the paper measures):

* One control step = one clock cycle (stream handshakes may stall a step).
* **States never span basic-block boundaries** and every reachable block
  occupies at least one state. This is why converting an assertion into an
  inline ``if`` costs a cycle even when the comparison itself would chain:
  the control-flow split forces a state boundary (paper Section 3.1).
* Combinational ops chain within a step up to ``max_chain_levels`` LUT
  levels; deeper expressions spill into additional states ("an arbitrarily
  long delay depending on the complexity of the assertion statement").
* A block-RAM access is flow-through but consumes one of the array's ports
  for its step; with the default single datapath port, two accesses to the
  same array in the same candidate step serialize — the paper's
  "Array (consecutive)" +1 cycle.
* Stream ops occupy their stream's endpoint for a full step.
* Multipliers are registered (1 cycle), dividers take 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.hls.constraints import ScheduleConfig
from repro.hls.depgraph import build_depgraph, stream_key
from repro.ir.function import IRFunction
from repro.ir.instr import BasicBlock
from repro.ir.ops import OpKind

#: resources whose results are internally registered: a block must persist
#: long enough for the result to commit before control leaves it.
_REGISTERED_RESULT = {"mult", "divide", "exthdl"}

_STREAM_OPS = (OpKind.STREAM_READ, OpKind.STREAM_WRITE,
               OpKind.STREAM_CLOSE, OpKind.TAP_READ)
_MEM_OPS = (OpKind.LOAD, OpKind.STORE)


@dataclass
class BlockSchedule:
    """Steps for one basic block: ``steps[s]`` lists instr indices in step s."""

    block: str
    steps: list[list[int]] = field(default_factory=list)
    instr_step: dict[int, int] = field(default_factory=dict)
    instr_depth: dict[int, int] = field(default_factory=dict)

    @property
    def length(self) -> int:
        return max(1, len(self.steps))

    def step_of(self, idx: int) -> int:
        return self.instr_step[idx]


def schedule_block(
    func: IRFunction, block: BasicBlock, cfg: ScheduleConfig
) -> BlockSchedule:
    """List-schedule one block. Instructions are visited in program order
    (which is a topological order of the intra-block dependence graph)."""
    g = build_depgraph(block)
    sched = BlockSchedule(block=block.name)
    n = len(block.instrs)
    step: list[int] = [0] * n
    depth: list[int] = [0] * n

    mem_use: dict[tuple[int, str], int] = {}     # (step, array) -> accesses
    stream_use: dict[tuple[int, str], int] = {}  # (step, stream) -> ops

    for i, instr in enumerate(block.instrs):
        info = instr.info
        est = 0
        for j, delay in g.preds[i]:
            est = max(est, step[j] + delay)

        t = est
        for _ in range(n * 8 + 16):  # bounded search; raises below if stuck
            # chaining depth at candidate step t
            depth_in = 0
            for j, _delay in g.preds[i]:
                if step[j] == t:
                    depth_in = max(depth_in, depth[j])
            my_depth = depth_in + info.levels
            if info.levels and my_depth > cfg.max_chain_levels and depth_in > 0:
                t += 1
                continue
            my_depth = min(my_depth, cfg.max_chain_levels)
            # resource availability
            if instr.op in _MEM_OPS:
                array = instr.attrs["array"]
                if mem_use.get((t, array), 0) >= cfg.ports_for(array):
                    t += 1
                    continue
            if instr.op in _STREAM_OPS:
                stream = stream_key(instr)
                if stream_use.get((t, stream), 0) >= cfg.stream_ops_per_step:
                    t += 1
                    continue
            break
        else:
            raise SchedulingError(
                f"{func.name}/{block.name}: cannot place {instr} "
                f"(resource conflict search exhausted)", code="RPR-H001")

        step[i] = t
        # zero-level ops (moves/casts) are wires: they inherit the
        # chain depth of their same-step producers instead of
        # resetting it, so depth accounting sees through them
        depth[i] = my_depth if info.levels else depth_in
        if instr.op in _MEM_OPS:
            key = (t, instr.attrs["array"])
            mem_use[key] = mem_use.get(key, 0) + 1
        if instr.op in _STREAM_OPS:
            key = (t, stream_key(instr))
            stream_use[key] = stream_use.get(key, 0) + 1

    # block length: at least one state; registered-result ops extend it
    length = 1
    for i, instr in enumerate(block.instrs):
        extra = instr.info.latency if instr.info.resource in _REGISTERED_RESULT else 0
        length = max(length, step[i] + 1 + extra)
    sched.steps = [[] for _ in range(length)]
    for i in range(n):
        sched.steps[step[i]].append(i)
        sched.instr_step[i] = step[i]
        sched.instr_depth[i] = depth[i]
    return sched


@dataclass
class FunctionSchedule:
    """Complete schedule for one process.

    ``blocks`` covers every block *not* inside a pipelined loop region;
    pipelined regions live in ``pipelines`` (header block name ->
    :class:`~repro.hls.pipeline.PipelineSchedule`).
    """

    func: IRFunction
    config: ScheduleConfig
    blocks: dict[str, BlockSchedule] = field(default_factory=dict)
    pipelines: dict[str, object] = field(default_factory=dict)

    def state_count(self) -> int:
        """Total FSM states (pipelined regions count their stages once)."""
        total = sum(bs.length for bs in self.blocks.values())
        for ps in self.pipelines.values():
            total += ps.latency  # type: ignore[attr-defined]
        return total

    def block_latency(self, name: str) -> int:
        return self.blocks[name].length

    def memo(self) -> dict:
        """What the simulators derive from this schedule once and reuse
        for every run: a compiled schedule is never modified. Pickling
        drops it."""
        try:
            return self._memo
        except AttributeError:
            self._memo = {}
            return self._memo

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_memo", None)
        return state


def schedule_function(
    func: IRFunction, cfg: ScheduleConfig | None = None
) -> FunctionSchedule:
    """Schedule every block of ``func``; pipelined loops are modulo-scheduled.

    Raises :class:`SchedulingError` if an ``assert_check`` pseudo-op is still
    present — assertion synthesis (:mod:`repro.core`) must decide the
    implementation strategy before hardware scheduling.
    """
    from repro.hls.pipeline import schedule_pipelined_loop
    from repro.ir.cfg import CFG

    cfg = cfg or ScheduleConfig()
    for instr in func.instructions():
        if instr.op == OpKind.ASSERT_CHECK:
            raise SchedulingError(
                f"{func.name}: assert_check reached the scheduler; run "
                "assertion synthesis (repro.core) or compile with NDEBUG first", code="RPR-H002")

    fsched = FunctionSchedule(func=func, config=cfg)
    cfg_graph = CFG.build(func)
    pipelined_blocks: set[str] = set()
    for loop in cfg_graph.pipelined_loops():
        ps = schedule_pipelined_loop(func, cfg_graph, loop, cfg)
        fsched.pipelines[loop.header] = ps
        pipelined_blocks |= set(loop.body)

    reachable = cfg_graph.reachable()
    for name, block in func.blocks.items():
        if name in pipelined_blocks or name not in reachable:
            continue
        fsched.blocks[name] = schedule_block(func, block, cfg)
    return fsched
