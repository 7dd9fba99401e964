"""Incremental app synthesis through the per-process artifact cache.

:func:`repro.core.synth.synthesize` is already structured as
``synth_process`` per FPGA process followed by ``assemble_image``; this
module inserts a :func:`repro.lab.cache.process_cache_key` lookup between
the two, so synthesizing an app means: fingerprint each process, rebuild
only the ones whose key misses, and assemble the image from the artifact
set. Editing one process of an N-process app costs one process synthesis
plus assembly instead of N.

Artifacts are *relocatable*: the key abstracts the process's name and
source file and leaves out its error-code base, so every instance of one
process (the 128 stages of the paper's Section 5.3 loopback, an unedited
pipeline) shares one entry. A miss synthesizes the artifact at its
process's own name with codes from 1 and stores it. A call reads each
distinct key once and :func:`relocate` moves the artifact to its first
instance; each further instance is *placed* on it, relocating only the
metadata assembly reads and sharing its IR, so a sweep point's estimates
copy no IR. :meth:`repro.runtime.hwexec.HardwareImage.materialize`
relocates a private copy per placement before the image runs or emits
RTL. :func:`repro.core.synth.synthesize` keeps synthesizing every process
at its real position, so "incremental = full" (pinned by
``tests/lab/test_incremental.py`` and ``tests/lab/test_relocate.py``) is
the proof that relocation and placement are exact.

Each cache miss is filled under a :class:`repro.lab.cache.FillLease`, so
N workers or runs cold-starting the same point perform exactly one
synthesis per distinct process while the rest wait and read the filled
entries.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle

from repro.core.instrument import FAIL_PARAM
from repro.core.parallelize import CHECK_FAIL_PARAM
from repro.core.synth import (
    ProcessArtifact,
    SynthesisOptions,
    assemble_image,
    effective_level,
    synth_process,
)
from repro.ir.ops import OpKind
from repro.ir.values import Const
from repro.lab.cache import SynthesisCache, process_cache_key
from repro.platform.device import EP2S180, DeviceModel
from repro.runtime.hwexec import HardwareImage
from repro.runtime.taskgraph import Application

__all__ = ["materialize", "relocate", "synthesize_incremental"]


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
    ``synthesize(app, ...)`` once materialized and ``info`` reports the
    incremental work:

    * ``processes``    — FPGA process count;
    * ``proc_hits``    — artifacts reused from the cache (a repeated
      instance of a process synthesized earlier in the same call counts
      here too);
    * ``proc_misses``  — artifacts synthesized (= ``resyntheses``);
    * ``resyntheses``  — processes actually rebuilt this call;
    * ``partial_rebuild`` — True when the call both reused and rebuilt
      (the edit-one-process case the whole seam exists for).

    An instance whose checker IR assembly reads (merging checkers, or
    recompiling one that ``faults`` or ``configs`` names) is not placed
    but copied at once. ``cache=None`` (or a disabled cache) degrades to
    a full resynthesis with the same return shape.
    """
    options = options or SynthesisOptions()
    level = effective_level(assertions, options)
    cache = cache if cache is not None else SynthesisCache(None)
    merges = options.multichecker and options.share
    overridden = [*(faults or ()), *(configs or ())]

    loaded: dict[str, ProcessArtifact] = {}
    artifacts: dict[str, ProcessArtifact] = {}
    # (artifact, *at) of instances that share IR / that assembly reads
    placements, private = [], []
    code_base = 1
    misses = 0
    for pd in app.fpga_processes():
        config = (configs or {}).get(pd.name)
        fault_spec = (faults or {}).get(pd.name)
        key = process_cache_key(
            pd.func.relocatable_text(), level, options, device=device,
            config=config or pd.config, fault_spec=fault_spec,
        )
        at = (pd.name, pd.func.name, pd.func.source_file, code_base)
        art = loaded.get(key)
        if art is None:
            art, filled = cache.get_or_fill_process(key, functools.partial(
                synth_process, pd, level, options, 1, config=config,
                fault_spec=fault_spec), retry=retry)
            misses += filled
            artifacts[pd.name] = relocate(art, *at)
            if cache.enabled:
                loaded[key] = art
        elif merges or any(o.startswith(f"{pd.name}__") for o in overridden):
            private.append((art, *at))
        else:
            placements.append((art, *at))
            artifacts[pd.name] = relocate(art, *at, ir=False)
        code_base += art.n_codes
    artifacts.update((art.name, art) for art in materialize(private))

    image = assemble_image(app, artifacts, level, options, nabort=nabort,
                           faults=faults, configs=configs)
    image.placements = placements
    partial = 0 < misses < len(artifacts)
    if partial:
        cache.note_partial_rebuild()
    info = {
        "processes": len(artifacts),
        "proc_hits": len(artifacts) - misses,
        "proc_misses": misses,
        "resyntheses": misses,
        "partial_rebuild": partial,
    }
    return image, info


def materialize(placements):
    """For each placement ``(artifact, name, function, filename,
    code_base)``, yield a private copy of the artifact relocated there;
    each distinct artifact is pickled once and unpickled per placement."""
    blobs: dict[int, bytes] = {}
    for art, *at in placements:
        if id(art) not in blobs:
            blobs[id(art)] = pickle.dumps(art)
        yield relocate(pickle.loads(blobs[id(art)]), *at)


def relocate(art: ProcessArtifact, name: str, function: str, filename: str,
             code_base: int, ir: bool = True) -> ProcessArtifact:
    """Move ``art`` to process ``name`` (C function ``function``, source
    file ``filename``) with its first error code at ``code_base``.

    Rewrites, in place, every field that carries the process name, the
    function name, the source file or an error code, and returns ``art``;
    the result equals :func:`repro.core.synth.synth_process` run at that
    position. ``art`` must be the caller's own copy (a fresh synthesis or
    an unpickled one). ``ir=False`` instead returns a copy of ``art``
    with only its metadata relocated, sharing its IR (a placement).
    The rewrites are structural, never textual:

    * process-owned names -- ``{name}__afail``, the ``{name}__tap*``
      channels, the ``{name}__chk*`` checkers and their ``__fail`` taps,
      the ``{name}__lat*`` latency channels -- change their ``{name}__``
      prefix, so relocating process ``x`` leaves an ``x1__`` name alone;
    * the function and every assertion site naming it take ``function``;
    * the function's file, and every site and coord in it, take
      ``filename``; another file stays;
    * every error code shifts by the code-base difference: the artifact's
      ``codes`` and ``plans`` and the code constants the IR writes to a
      failure stream, found by the stream they write (``__afail`` in the
      process, ``__cfail`` in a checker), never by value.

    The compiled processes' schedules and bindings hold the functions'
    instructions or pipeline copies of them; those are rewritten too, and
    the lazily generated RTL is dropped to rebuild on demand. Objects the
    artifact shares (a site, a coord, a code constant) stay shared.
    """
    if not ir:
        art = dataclasses.replace(art)
    old_name, old_func = art.name, art.func.name
    old_file = art.func.source_file
    shift = code_base - art.codes[0][0] if art.codes else 0
    if (old_name, old_func, old_file, shift) == (name, function, filename, 0):
        return art
    prefix = f"{old_name}__"
    # id -> (original, relocated); holding the originals keeps every id
    # unique for the whole walk
    seen: dict[int, tuple] = {}

    def once(obj, make):
        hit = seen.get(id(obj))
        if hit is None:
            hit = seen[id(obj)] = (obj, make(obj))
        return hit[1]

    def owned(s: str | None) -> str | None:
        if s is not None and s.startswith(prefix):
            return name + s[len(old_name):]
        return s

    def site(s):
        return once(s, lambda s: dataclasses.replace(
            s, file=filename if s.file == old_file else s.file,
            function=function if s.function == old_func else s.function))

    def coord(c):
        return once(c, lambda c: (filename, c[1]) if c[0] == old_file else c)

    def code(c):
        return once(c, lambda c: Const(c.value + shift, c.ty))

    def instr(i, code_stream: str) -> None:
        if id(i) in seen:
            return
        seen[id(i)] = (i, i)
        attrs = i.attrs
        if id(attrs) not in seen:
            seen[id(attrs)] = (attrs, attrs)
            if attrs.get("coord"):
                attrs["coord"] = coord(attrs["coord"])
            for k in ("assertion", "latency_site"):
                if k in attrs:
                    attrs[k] = site(attrs[k])
            if "channel" in attrs:
                attrs["channel"] = owned(attrs["channel"])
        if (shift and i.op is OpKind.STREAM_WRITE
                and attrs.get("stream") == code_stream):
            i.args = [code(a) for a in i.args]

    def func(f, new_name: str, code_stream: str) -> None:
        if id(f) in seen:
            return
        seen[id(f)] = (f, f)
        f.name = new_name
        if f.source_file == old_file:
            f.source_file = filename
        f.assertion_sites = [site(s) for s in f.assertion_sites]
        for block in f.blocks.values():
            for i in block.instrs:
                instr(i, code_stream)

    def compiled(cp, new_name: str, code_stream: str) -> None:
        func(cp.hw_func, new_name, code_stream)
        func(cp.schedule.func, new_name, code_stream)
        for ps in cp.schedule.pipelines.values():
            for i in ps.instrs:
                instr(i, code_stream)
        for fu in cp.binding.fus:
            for op in fu.ops:
                instr(op.instr, code_stream)
        cp._rtl = None

    if ir:
        func(art.func, function, FAIL_PARAM)
        compiled(art.compiled, function, FAIL_PARAM)
        for plan in art.plans:
            func(plan.checker, owned(plan.name), CHECK_FAIL_PARAM)
        for cname, cp in art.compiled_checkers.items():
            compiled(cp, owned(cname), CHECK_FAIL_PARAM)

    art.plans = [dataclasses.replace(
        p, name=owned(p.name), tap_channel=owned(p.tap_channel),
        fail_tap=owned(p.fail_tap), app_process=name, site=site(p.site),
        code=p.code + shift) for p in art.plans]
    art.compiled_checkers = {
        owned(cname): cp for cname, cp in art.compiled_checkers.items()}
    art.codes = [(c + shift, site(s)) for c, s in art.codes]
    art.fail_stream = owned(art.fail_stream)
    art.latency_regions = [dataclasses.replace(
        r, process=name, start_channel=owned(r.start_channel),
        end_channel=owned(r.end_channel), site=site(r.site))
        for r in art.latency_regions]
    art.name = name
    return art
