"""Application model: processes, streams and tap channels.

An :class:`Application` is the paper's "application modeled as a task
graph" — FPGA processes (C functions compiled by the HLS flow) connected by
streams, plus CPU-side feeders and sinks reached over the board's single
multiplexed physical channel. Assertion synthesis (:mod:`repro.core`)
rewrites an application: it adds checker processes, tap channels, failure
streams and collector processes, then hands the result to
:func:`repro.runtime.hwexec.execute`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.frontend.lowering import lower_source
from repro.hls.constraints import HLSConfig
from repro.ir.function import IRFunction
from repro.ir.ops import OpKind


class GraphError(ReproError):
    """Raised for malformed task graphs."""

    code_prefix = "RPR-R"


@dataclass(frozen=True)
class Endpoint:
    """(process name, stream parameter name). CPU ends use process='cpu'."""

    process: str
    port: str

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        process, _, port = text.partition(".")
        if not port:
            raise GraphError(f"endpoint {text!r} must be 'process.port'", code="RPR-R001")
        return cls(process, port)

    def __str__(self) -> str:
        return f"{self.process}.{self.port}"


@dataclass
class ProcessDef:
    """One node of the task graph."""

    name: str
    func: IRFunction | None = None     # None for collector pseudo-processes
    kind: str = "fpga"                 # 'fpga' | 'collector'
    daemon: bool = False               # daemons need not finish for app completion
    config: HLSConfig | None = None
    ext_sw: dict = field(default_factory=dict)
    ext_hw: dict = field(default_factory=dict)
    collector_spec: object = None      # set by repro.core.share for collectors

    @property
    def stream_params(self) -> list[str]:
        return self.func.stream_names() if self.func is not None else []


@dataclass
class StreamDef:
    """One co_stream channel of the task graph.

    Exactly one of (``source``, ``feeder_data``) is a producer; exactly one
    of (``dest``, cpu sink) is a consumer. CPU-side streams cross the
    board's multiplexed physical link during hardware execution.
    """

    name: str
    source: Endpoint | None = None       # None => CPU feeder
    dest: Endpoint | None = None         # None => CPU sink
    width: int = 32
    depth: int = 16
    feeder_data: list[int] | None = None
    #: decoding role during hardware execution: None (plain data),
    #: 'assert_code' (word = assertion error code) or 'assert_bitmask'
    #: (bit i identifies an assertion; see repro.core.share)
    role: str | None = None
    role_info: dict = field(default_factory=dict)

    @property
    def cpu_bound(self) -> bool:
        return self.dest is None

    @property
    def cpu_fed(self) -> bool:
        return self.source is None


@dataclass
class TapDef:
    """An assertion data tap: app process -> checker/collector process."""

    name: str
    source: str
    dest: str
    widths: tuple[int, ...] = (32,)


class Application:
    """A task graph plus everything needed to simulate or synthesize it."""

    def __init__(self, name: str):
        self.name = name
        self.processes: dict[str, ProcessDef] = {}
        self.streams: dict[str, StreamDef] = {}
        self.taps: dict[str, TapDef] = {}
        self.nabort = False

    # ---- construction --------------------------------------------------------

    def add_c_process(
        self,
        source: str,
        function: str | None = None,
        name: str | None = None,
        filename: str | None = None,
        defines: dict[str, str] | None = None,
        config: HLSConfig | None = None,
        ext_sw: dict | None = None,
        ext_hw: dict | None = None,
        daemon: bool = False,
    ) -> ProcessDef:
        """Parse and lower C ``source`` and add one of its functions.

        ``function`` defaults to the sole function in the file. ``defines``
        passes preprocessor macros (``NDEBUG``, ``NABORT``...).
        """
        module = lower_source(
            source, filename=filename or f"{name or 'proc'}.c", defines=defines
        )
        if function is None:
            if len(module.functions) != 1:
                raise GraphError(
                    f"source defines {sorted(module.functions)}; "
                    f"pass function=", code="RPR-R002")
            function = next(iter(module.functions))
        if defines and "NABORT" in defines:
            self.nabort = True
        func = module[function]
        return self.add_ir_process(
            func, name=name, config=config, ext_sw=ext_sw, ext_hw=ext_hw,
            daemon=daemon,
        )

    def add_ir_process(
        self,
        func: IRFunction,
        name: str | None = None,
        config: HLSConfig | None = None,
        daemon: bool = False,
        kind: str = "fpga",
        ext_sw: dict | None = None,
        ext_hw: dict | None = None,
    ) -> ProcessDef:
        name = name or func.name
        if name in self.processes:
            raise GraphError(f"duplicate process {name!r}", code="RPR-R003")
        pd = ProcessDef(
            name=name,
            func=func,
            kind=kind,
            daemon=daemon,
            config=config,
            ext_sw=dict(ext_sw or {}),
            ext_hw=dict(ext_hw or {}),
        )
        self.processes[name] = pd
        return pd

    def feed(
        self,
        stream: str,
        to: str,
        data: list[int],
        width: int = 32,
        depth: int = 16,
    ) -> StreamDef:
        """CPU feeder: ``data`` is streamed to ``to`` ('process.port') and
        the stream closes after the last word."""
        sd = StreamDef(
            stream,
            source=None,
            dest=Endpoint.parse(to),
            width=width,
            depth=depth,
            feeder_data=list(data),
        )
        return self._add_stream(sd)

    def sink(self, stream: str, source: str, width: int = 32,
             depth: int = 16, role: str | None = None,
             role_info: dict | None = None) -> StreamDef:
        """CPU sink: everything ``source`` writes is collected on the CPU."""
        sd = StreamDef(
            stream,
            source=Endpoint.parse(source),
            dest=None,
            width=width,
            depth=depth,
            role=role,
            role_info=dict(role_info or {}),
        )
        return self._add_stream(sd)

    def connect(self, stream: str, source: str, to: str,
                width: int = 32, depth: int = 16) -> StreamDef:
        """FPGA-internal stream between two processes."""
        sd = StreamDef(
            stream,
            source=Endpoint.parse(source),
            dest=Endpoint.parse(to),
            width=width,
            depth=depth,
        )
        return self._add_stream(sd)

    def add_tap(self, name: str, source: str, dest: str,
                widths: tuple[int, ...]) -> TapDef:
        if name in self.taps:
            raise GraphError(f"duplicate tap {name!r}", code="RPR-R004")
        td = TapDef(name, source, dest, tuple(widths))
        self.taps[name] = td
        return td

    def _add_stream(self, sd: StreamDef) -> StreamDef:
        if sd.name in self.streams:
            raise GraphError(f"duplicate stream {sd.name!r}", code="RPR-R005")
        self.streams[sd.name] = sd
        return sd

    def clone(self, name: str | None = None) -> "Application":
        """Copy the graph; process functions are shared, not copied.
        Assertion synthesis rewires a clone, so the original (used for
        software simulation) stays untouched, and it swaps in the
        instrumented functions it cloned itself (lowered IR is read-only)."""
        import copy as _copy

        other = Application(name or self.name)
        other.nabort = self.nabort
        for pd in self.processes.values():
            other.processes[pd.name] = ProcessDef(
                name=pd.name,
                func=pd.func,
                kind=pd.kind,
                daemon=pd.daemon,
                config=pd.config,
                ext_sw=dict(pd.ext_sw),
                ext_hw=dict(pd.ext_hw),
                collector_spec=_copy.deepcopy(pd.collector_spec),
            )
        for sd in self.streams.values():
            other.streams[sd.name] = StreamDef(
                name=sd.name,
                source=sd.source,
                dest=sd.dest,
                width=sd.width,
                depth=sd.depth,
                feeder_data=list(sd.feeder_data) if sd.feeder_data is not None else None,
                role=sd.role,
                role_info=dict(sd.role_info),
            )
        for td in self.taps.values():
            other.taps[td.name] = TapDef(td.name, td.source, td.dest, td.widths)
        return other

    # ---- validation / queries ---------------------------------------------------

    def stream_binding(self, process: str) -> dict[str, StreamDef]:
        """Map a process's stream parameter names to their StreamDefs."""
        out: dict[str, StreamDef] = {}
        for sd in self.streams.values():
            for ep in (sd.source, sd.dest):
                if ep is not None and ep.process == process:
                    if ep.port in out:
                        raise GraphError(
                            f"{process}.{ep.port} bound to multiple "
                            f"streams", code="RPR-R006")
                    out[ep.port] = sd
        return out

    def validate(self) -> None:
        """Check the graph is closed: every stream param of every FPGA
        process is bound, and stream directions match IR usage."""
        for pd in self.processes.values():
            if pd.func is None:
                continue
            binding = self.stream_binding(pd.name)
            for param in pd.stream_params:
                if param not in binding:
                    raise GraphError(f"{pd.name}.{param} is unbound", code="RPR-R007")
            reads, writes = _stream_directions(pd.func)
            for param, sd in binding.items():
                is_source = sd.source is not None and sd.source.process == pd.name \
                    and sd.source.port == param
                if is_source and param in reads and param not in writes:
                    raise GraphError(
                        f"{pd.name}.{param} reads stream {sd.name} "
                        f"but is its producer", code="RPR-R008")
                if not is_source and param in writes and param not in reads:
                    raise GraphError(
                        f"{pd.name}.{param} writes stream {sd.name} "
                        f"but is its consumer", code="RPR-R009")

    def fpga_processes(self) -> list[ProcessDef]:
        return [p for p in self.processes.values() if p.kind == "fpga"]

    def assertion_sites(self) -> list[tuple[str, object]]:
        """(process name, AssertionSite) for every assertion in the app."""
        out = []
        for pd in self.fpga_processes():
            for site in pd.func.assertion_sites:
                out.append((pd.name, site))
        return out


def _stream_directions(func: IRFunction) -> tuple[set[str], set[str]]:
    reads: set[str] = set()
    writes: set[str] = set()
    for instr in func.instructions():
        if instr.op == OpKind.STREAM_READ:
            reads.add(instr.attrs["stream"])
        elif instr.op in (OpKind.STREAM_WRITE, OpKind.STREAM_CLOSE):
            writes.add(instr.attrs["stream"])
    return reads, writes
