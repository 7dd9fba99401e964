"""Incremental app synthesis through the per-process artifact cache.

:func:`repro.core.synth.synthesize` is already structured as
``synth_process`` per FPGA process followed by ``assemble_image``; this
module inserts a :func:`repro.lab.cache.process_cache_key` lookup between
the two, so synthesizing an app means: fingerprint each process, rebuild
only the ones whose key misses, and assemble the image from the artifact
set. Editing one process of an N-process app costs one process synthesis
plus assembly instead of N.

Because full and incremental synthesis share the exact same two-phase
pipeline, their outputs are identical by construction (and pinned
byte-identical by ``tests/lab/test_incremental.py``).

Each cache miss is filled under a :class:`repro.lab.cache.FillLease`, so
N workers or runs cold-starting the same point perform exactly one
synthesis per process while the rest wait and read the filled entries.
"""

from __future__ import annotations

from repro.core.synth import (
    ProcessArtifact,
    SynthesisOptions,
    assemble_image,
    effective_level,
    synth_process,
)
from repro.lab.cache import SynthesisCache, process_cache_key
from repro.platform.device import EP2S180, DeviceModel
from repro.runtime.hwexec import HardwareImage
from repro.runtime.taskgraph import Application

__all__ = ["synthesize_incremental"]


def synthesize_incremental(
    app: Application,
    assertions: str = "optimized",
    options: SynthesisOptions | None = None,
    cache: SynthesisCache | None = None,
    device: DeviceModel = EP2S180,
    nabort: bool | None = None,
    faults: dict[str, tuple] | None = None,
    configs: dict[str, object] | None = None,
    retry=None,
) -> tuple[HardwareImage, dict]:
    """Synthesize ``app`` reusing cached per-process artifacts.

    Returns ``(image, info)`` where ``image`` is identical to
    ``synthesize(app, ...)`` and ``info`` reports the incremental work:

    * ``processes``    — FPGA process count;
    * ``proc_hits``    — artifacts reused from the cache;
    * ``proc_misses``  — artifacts synthesized (= ``resyntheses``);
    * ``resyntheses``  — processes actually rebuilt this call;
    * ``partial_rebuild`` — True when the call both reused and rebuilt
      (the edit-one-process case the whole seam exists for).

    ``cache=None`` (or a disabled cache) degrades to a full resynthesis
    with the same return shape.
    """
    options = options or SynthesisOptions()
    level = effective_level(assertions, options)
    cache = cache if cache is not None else SynthesisCache(None)

    artifacts: dict[str, ProcessArtifact] = {}
    code_base = 1
    hits = 0
    misses = 0
    for pd in app.fpga_processes():
        config = (configs or {}).get(pd.name)
        fault_spec = (faults or {}).get(pd.name)
        key = process_cache_key(
            pd.name, str(pd.func), level, options, code_base,
            device=device, config=config or pd.config,
            fault_spec=fault_spec,
        )

        def produce(pd=pd, config=config, fault_spec=fault_spec,
                    base=code_base):
            return synth_process(pd, level, options, base,
                                 config=config, fault_spec=fault_spec)

        art, filled = cache.get_or_fill_process(key, produce, retry=retry)
        if filled:
            misses += 1
        else:
            hits += 1
        artifacts[pd.name] = art
        code_base += art.n_codes

    image = assemble_image(app, artifacts, level, options, nabort=nabort,
                           faults=faults, configs=configs)
    partial = 0 < misses < len(artifacts)
    if partial:
        cache.note_partial_rebuild()
    info = {
        "processes": len(artifacts),
        "proc_hits": hits,
        "proc_misses": misses,
        "resyntheses": misses,
        "partial_rebuild": partial,
    }
    return image, info
