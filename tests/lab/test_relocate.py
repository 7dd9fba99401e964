"""Relocatable process artifacts: relocation and placement are exact.

:func:`repro.lab.incremental.synthesize_incremental` reads each distinct
process once, relocates it to its first instance and places it at every
further one; :func:`repro.core.synth.synthesize` synthesizes every
process at its real name and code base. Every image built from relocated
and placed artifacts must equal the full synthesis in everything a
consumer reads: the journaled point summary of the image as assembled,
and, once materialized, the IR of every process and checker, the
simulator codegen key of every compiled process, the assertion decode
tables, the Verilog and an executed run.
"""

import functools
import io
import json
import pickle

import pytest

from repro.apps.loopback import build_loopback
from repro.apps.pipeline import build_pipeline
from repro.core.synth import LEVELS, effective_level, synth_process, synthesize
from repro.faults.ir import ReadForWrite
from repro.hls.constraints import HLSConfig, ScheduleConfig
from repro.lab.cache import SynthesisCache, process_cache_key
from repro.lab.incremental import relocate, synthesize_incremental
from repro.lab.sweep import OPTION_VARIANTS
from repro.platform import resources
from repro.platform.report import point_summary
from repro.rtl.verilog import emit_image
from repro.runtime.hwexec import execute
from repro.runtime.taskgraph import Application
from repro.simc.bench import _hw_signature
from repro.simc.schedgen import _schedule_digest

APPS = {
    "loopback:128": lambda: build_loopback(128),
    "pipeline:8": lambda: build_pipeline(8),
}


def signature(image) -> dict:
    """Everything a consumer reads from an image, as comparable values:
    the point summary of the image as assembled (a sweep point never
    materializes), and the rest after :meth:`materialize` gives every
    placed instance its own IR."""
    summary = json.dumps(point_summary(image), sort_keys=True)
    image.materialize()
    return {
        "summary": summary,
        "ir": {name: str(pd.func)
               for name, pd in sorted(image.app.processes.items())
               if pd.func is not None},
        "hw_ir": {name: str(cp.hw_func)
                  for name, cp in sorted(image.compiled.items())},
        "codegen": {name: _schedule_digest(cp.schedule)
                    for name, cp in sorted(image.compiled.items())},
        "decode": sorted(
            (stream, dec.mode, word, name, repr(site))
            for stream, dec in image.assert_decode.items()
            for word, (name, site) in dec.table.items()),
        "verilog": emit_image(image),
        "run": _hw_signature(execute(image)),
    }


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One cache over every case: later cases relocate earlier artifacts."""
    return SynthesisCache(tmp_path_factory.mktemp("relocate"))


@pytest.mark.parametrize("variant", sorted(OPTION_VARIANTS))
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("app", sorted(APPS))
def test_relocated_image_equals_full_synthesis(app, level, variant,
                                               shared_cache):
    options = OPTION_VARIANTS[variant]
    image, info = synthesize_incremental(APPS[app](), level, options,
                                         cache=shared_cache)
    # every stage is one process up to relocation
    assert info["resyntheses"] <= 1
    assert info["proc_hits"] == info["processes"] - info["resyntheses"]
    assert signature(image) == signature(
        synthesize(APPS[app](), level, options))


@pytest.mark.parametrize("level", LEVELS)
def test_a_cold_loopback_reads_its_one_process_once(tmp_path, level,
                                                    monkeypatch):
    """128 identical stages: one cache read and one process estimate per
    distinct compiled object, while ``info`` still counts instances."""
    cache = SynthesisCache(tmp_path)
    image, info = synthesize_incremental(build_loopback(128), level,
                                         cache=cache)
    assert cache.stats.proc_hits + cache.stats.proc_misses == 1
    assert (info["proc_hits"], info["proc_misses"]) == (127, 1)
    assert len(image.placements) == 127

    calls = []
    real = resources.estimate_process
    monkeypatch.setattr(resources, "estimate_process",
                        lambda cp: calls.append(cp) or real(cp))
    report = resources.estimate_image(image)
    distinct = {id(cp) for cp in image.compiled.values()}
    assert sorted(map(id, calls)) == sorted(distinct)
    assert len(distinct) == (2 if level == "optimized" else 1)
    assert len(report.processes) == len(image.compiled)


class _CanonicalPickler(pickle._Pickler):
    """Pickles by value: strings are never memoized (equal strings print
    alike whether or not they are one object) and sets are sorted."""

    dispatch = dict(pickle._Pickler.dispatch)

    def _save_str(self, obj):
        pickle._Pickler.save_str(self, obj)
        self.memo.pop(id(obj), None)

    def _save_set(self, obj):
        self.write(pickle.EMPTY_SET)
        self.memoize(obj)
        self.write(pickle.MARK)
        for item in sorted(obj, key=repr):
            self.save(item)
        self.write(pickle.ADDITEMS)

    dispatch[str] = _save_str
    dispatch[set] = _save_set


def by_value(obj) -> bytes:
    # a cache round trip first, so both sides are unpickled objects
    out = io.BytesIO()
    _CanonicalPickler(out, pickle.HIGHEST_PROTOCOL).dump(
        pickle.loads(pickle.dumps(obj)))
    return out.getvalue()


@pytest.mark.parametrize("variant", sorted(OPTION_VARIANTS))
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("build", [lambda: build_loopback(8),
                                   lambda: build_pipeline(8)],
                         ids=["loopback:8", "pipeline:8"])
def test_relocated_artifact_equals_synth_process_at_its_position(
        build, level, variant):
    """Stage 0's artifact, relocated to every stage, is field for field
    (object sharing included) what :func:`synth_process` builds there."""
    options = OPTION_VARIANTS[variant]
    level = effective_level(level, options)
    stages = list(build().fpga_processes())
    blob = pickle.dumps(synth_process(stages[0], level, options, 1))
    code_base = 1
    for pd in stages:
        art = relocate(pickle.loads(blob), pd.name, pd.func.name,
                       pd.func.source_file, code_base)
        fresh = synth_process(pd, level, options, code_base)
        assert by_value(art) == by_value(fresh), pd.name
        code_base += fresh.n_codes


PREFIX_SRC = """
void {name}(co_stream input, co_stream output) {{
  uint32 x;
  uint32 i;
  uint32 acc;
  while (co_stream_read(input, &x)) {{
    co_latency_start(1);
    acc = 0;
    for (i = 0; i < x; i++) {{ acc += i; }}
    co_latency_end(1, 12);
    assert(x < 3);
    co_stream_write(output, x + 1);
  }}
  co_stream_close(output);
}}
"""


def chain(name: str, src: str, stages: list[str], data: list[int]):
    app = Application(name)
    for stage in stages:
        app.add_c_process(src.format(name=stage), name=stage,
                          filename=f"{stage}.c")
    app.feed("feed", f"{stages[0]}.input", data=data)
    for a, b in zip(stages, stages[1:]):
        app.connect(f"{a}_to_{b}", f"{a}.output", f"{b}.input")
    app.sink("drain", f"{stages[-1]}.output")
    return app


@pytest.mark.parametrize("variant", ["default", "noshare"])
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("order", [("x", "x1"), ("x1", "x")])
def test_a_name_that_prefixes_another_is_relocated_exactly(
        tmp_path, order, level, variant):
    """Process ``x`` relocates to ``x1`` and back without touching the
    other's ``x1__``/``x__`` channels, checkers or latency monitors; the
    assertion fails on the second stage so the decode tables matter."""
    options = OPTION_VARIANTS[variant]
    stages = list(order)
    build = functools.partial(chain, "prefix", PREFIX_SRC, stages, [1, 2, 0])
    app = build()
    keys = {process_cache_key(pd.func.relocatable_text(),
                              effective_level(level, options), options)
            for pd in app.fpga_processes()}
    assert len(keys) == 1
    image, info = synthesize_incremental(app, level, options,
                                         cache=SynthesisCache(tmp_path))
    assert info["resyntheses"] == 1 and info["proc_hits"] == 1
    got = signature(image)
    assert got == signature(synthesize(build(), level, options))
    if level != "none":
        assert got["run"][4], "the x < 3 assertion should have fired"


CONST_SRC = """
void {name}(co_stream input, co_stream output) {{
  uint32 x;
  while (co_stream_read(input, &x)) {{
    assert(x != 2);
    co_stream_write(output, 1);
    co_stream_write(output, x + 2);
    co_stream_write(output, 3);
  }}
  co_stream_close(output);
}}
"""


@pytest.mark.parametrize("variant", ["default", "noshare"])
@pytest.mark.parametrize("level", ["unoptimized", "optimized"])
def test_user_constants_equal_to_codes_are_left_alone(tmp_path, level,
                                                      variant):
    """The stages write and compare the constants 1, 2 and 3, which are
    also their error codes: relocation shifts only the code a failure
    stream carries, never a user constant of the same value."""
    options = OPTION_VARIANTS[variant]
    build = functools.partial(chain, "consts", CONST_SRC, ["s0", "s1", "s2"],
                              [2, 5])
    image, info = synthesize_incremental(build(), level, options,
                                         cache=SynthesisCache(tmp_path))
    assert info["resyntheses"] == 1
    assert [image.registry.lookup(code)[0] for code in (1, 2, 3)] == \
        ["s0", "s1", "s2"]
    assert signature(image) == signature(synthesize(build(), level, options))


@pytest.mark.parametrize("level", LEVELS)
def test_faulted_instances_relocate_exactly(tmp_path, level):
    """Two stages carrying the same translation fault share one artifact
    whose faulted hardware function is a separate clone: both functions
    relocate."""
    faults = {f"stage{i}": (ReadForWrite("buf", line=8),) for i in (1, 2)}
    image, info = synthesize_incremental(build_loopback(3), level,
                                         cache=SynthesisCache(tmp_path),
                                         faults=faults)
    assert info["resyntheses"] == 2 and info["proc_hits"] == 1
    assert signature(image) == signature(
        synthesize(build_loopback(3), level, faults=faults))


@pytest.mark.parametrize("variant", ["default", "noshare"])
def test_an_overridden_checker_of_a_repeated_stage_is_exact(tmp_path,
                                                            variant):
    """Assembly recompiles a checker that ``configs`` names from the
    checker's IR, so that stage gets its own copy up front; the stage
    after it is placed as usual."""
    options = OPTION_VARIANTS[variant]
    checker = next(name for name in synthesize(build_loopback(3),
                                               options=options).compiled
                   if name.startswith("stage1__chk"))
    configs = {checker: HLSConfig(schedule=ScheduleConfig(
        max_chain_levels=1))}
    image, info = synthesize_incremental(
        build_loopback(3), options=options, cache=SynthesisCache(tmp_path),
        configs=configs)
    assert info["resyntheses"] == 1
    assert [name for _art, name, *_ in image.placements] == ["stage2"]
    assert signature(image) == signature(
        synthesize(build_loopback(3), options=options, configs=configs))
