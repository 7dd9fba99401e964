"""repro — high-level synthesis of in-circuit ANSI-C assertions.

An open reproduction of Curreri, Stitt & George, "High-Level Synthesis
Techniques for In-Circuit Assertion-Based Verification" (IPDPS 2010):
a complete HLS flow for an Impulse-C-like C dialect (in-tree frontend,
list/modulo scheduling, FSM+datapath codegen, Verilog emission, cycle-
accurate simulation), a Stratix-II EP2S180 resource/timing model, and the
paper's contribution — synthesis of ``assert()`` statements into FPGA
circuits with parallelization, resource-replication and resource-sharing
optimizations.

Quick start::

    from repro import Application, software_sim, synthesize, execute

    app = Application("demo")
    app.add_c_process(C_SOURCE, name="filt")
    app.feed("in", "filt.input", data=[1, 2, 3])
    app.sink("out", "filt.output")

    sim = software_sim(app)                       # CPU-side simulation
    image = synthesize(app, assertions="optimized")
    result = execute(image)                       # cycle-accurate "in circuit"
"""

import importlib

__version__ = "1.0.0"

#: public name -> defining module, imported on first access (PEP 562), so
#: ``import repro`` (and every ``repro.*`` submodule import, which runs
#: this file first) costs nothing until the flow is actually used
_EXPORTS = {
    "Application": "repro.runtime.taskgraph",
    "HardwareImage": "repro.runtime.hwexec",
    "HwResult": "repro.runtime.hwexec",
    "SimResult": "repro.runtime.swsim",
    "SynthesisOptions": "repro.core.synth",
    "HLSConfig": "repro.hls.constraints",
    "ScheduleConfig": "repro.hls.constraints",
    "NarrowCompare": "repro.faults",
    "ReadForWrite": "repro.faults",
    "WatchdogConfig": "repro.runtime.watchdog",
    "WatchdogReport": "repro.runtime.watchdog",
    "EP2S180": "repro.platform.device",
    "XD1000": "repro.platform.device",
    "ReproError": "repro.errors",
    "execute": "repro.runtime.hwexec",
    "software_sim": "repro.runtime.swsim",
    "synthesize": "repro.core.synth",
    "overhead_report": "repro.platform.report",
    "execution_summary": "repro.platform.report",
    "estimate_image": "repro.platform.resources",
    "estimate_fmax": "repro.platform.timing",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    # not cached in the module namespace: every access reads the defining
    # module, so a rebinding there (e.g. a tracing wrapper) is seen here
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
