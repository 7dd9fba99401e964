"""Incremental per-process synthesis.

The contract pinned here: assembling an app from cached per-process
artifacts is *indistinguishable* from a monolithic resynthesis — same
report bytes, same assertion decode table, same execution — while
rebuilding only the processes whose fingerprints changed. A fingerprint
holds no process name or code base, so identical stages share one
artifact; distinct deltas (:func:`distinct`) give every stage its own.
"""

import json
import subprocess
import sys

from repro.apps.pipeline import build_pipeline, expected_output
from repro.core.synth import SynthesisOptions, synthesize
from repro.lab.cache import SynthesisCache, process_cache_key
from repro.lab.incremental import synthesize_incremental
from repro.platform.report import point_summary
from repro.runtime.hwexec import execute


def report_bytes(image) -> bytes:
    """The journaled point record, byte-exactly as a sweep would store it."""
    return json.dumps(point_summary(image), sort_keys=True).encode()


def decode_table(image):
    return sorted(
        (stream, dec.mode, word, name, site.ordinal, site.expr_text)
        for stream, dec in image.assert_decode.items()
        for word, (name, site) in dec.table.items())


def distinct(stages: int) -> dict[int, int]:
    """Per-stage deltas that make every stage a distinct process."""
    return {i: i + 1 for i in range(stages)}


# ---- byte-identity with full resynthesis ---------------------------------

def test_cold_incremental_matches_full_at_every_level(tmp_path):
    """Identical stages synthesize once and relocate; distinct stages
    synthesize once each. Both match a full resynthesis."""
    for level in ("none", "unoptimized", "optimized"):
        for deltas, resyntheses in ((None, 1), (distinct(3), 3)):
            cache = SynthesisCache(tmp_path / f"{level}-{resyntheses}")
            inc, info = synthesize_incremental(
                build_pipeline(3, deltas=deltas), level, cache=cache)
            full = synthesize(build_pipeline(3, deltas=deltas), level)
            assert report_bytes(inc) == report_bytes(full), level
            assert decode_table(inc) == decode_table(full), level
            assert info["processes"] == 3
            assert info["resyntheses"] == resyntheses
            assert info["proc_hits"] == 3 - resyntheses
            assert info["partial_rebuild"] is (resyntheses == 1)


def test_warm_rerun_rebuilds_nothing_and_matches(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    cold, _ = synthesize_incremental(build_pipeline(3), cache=cache)
    warm, info = synthesize_incremental(build_pipeline(3), cache=cache)
    assert info == {"processes": 3, "proc_hits": 3, "proc_misses": 0,
                    "resyntheses": 0, "partial_rebuild": False}
    assert report_bytes(warm) == report_bytes(cold)
    assert decode_table(warm) == decode_table(cold)


def test_disabled_cache_degrades_to_full_resynthesis():
    image, info = synthesize_incremental(build_pipeline(2),
                                         cache=SynthesisCache(None))
    assert info["resyntheses"] == 2 and info["proc_hits"] == 0
    assert report_bytes(image) == report_bytes(synthesize(build_pipeline(2)))


# ---- edit-one-process (the seam's raison d'être) -------------------------

def test_edit_one_process_rebuilds_exactly_that_process(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    # the cold build synthesizes stage0 and relocates it to the two
    # identical stages: it reuses and rebuilds, so it is partial too
    _, info = synthesize_incremental(build_pipeline(3), cache=cache)
    assert info["partial_rebuild"] is True
    assert cache.stats.partial_rebuilds == 1

    edited = {1: 7}
    inc, info = synthesize_incremental(build_pipeline(3, deltas=edited),
                                       cache=cache)
    assert info == {"processes": 3, "proc_hits": 2, "proc_misses": 1,
                    "resyntheses": 1, "partial_rebuild": True}
    assert cache.stats.partial_rebuilds == 2

    full = synthesize(build_pipeline(3, deltas=edited))
    assert report_bytes(inc) == report_bytes(full)
    assert decode_table(inc) == decode_table(full)

    # the spliced image must also *run* correctly end to end
    data = list(range(1, 17))
    res = execute(synthesize_incremental(
        build_pipeline(3, deltas=edited, data=data), cache=cache)[0])
    assert res.completed
    assert list(res.outputs["drain"]) == expected_output(data, 3, edited)


def test_edit_first_process_spares_later_stages(tmp_path):
    """Delta edits don't change assertion counts, so later stages' global
    code bases — and therefore their fingerprints — must not shift."""
    cache = SynthesisCache(tmp_path / "c")
    synthesize_incremental(build_pipeline(3), cache=cache)
    _, info = synthesize_incremental(build_pipeline(3, deltas={0: 9}),
                                     cache=cache)
    assert info["resyntheses"] == 1 and info["proc_hits"] == 2


# ---- fingerprint stability ------------------------------------------------

def key_of(app, stage: int) -> str:
    return process_cache_key(
        app.processes[f"stage{stage}"].func.relocatable_text(),
        "optimized", SynthesisOptions())


def test_process_key_independent_of_sibling_processes():
    """A process's fingerprint is a pure function of its own IR and
    options slice — never of its siblings or the app wiring. This is
    what lets a 5-stage pipeline reuse a 3-stage pipeline's shared
    prefix artifacts (and loopback n=3 reuse n=2's)."""
    a = build_pipeline(3, deltas=distinct(3))
    b = build_pipeline(5, deltas=distinct(5))
    assert key_of(a, 0) == key_of(b, 0)
    assert key_of(a, 2) == key_of(b, 2)
    assert key_of(b, 3) != key_of(b, 2)


def test_cross_pipeline_prefix_reuse(tmp_path):
    """The sibling-independence property, end to end: a longer pipeline
    cold-starts into a cache warmed by a shorter one and reuses every
    shared-prefix artifact; with identical stages it reuses them all."""
    cache = SynthesisCache(tmp_path / "c")
    synthesize_incremental(build_pipeline(3, deltas=distinct(3)),
                           cache=cache)
    _, info = synthesize_incremental(build_pipeline(5, deltas=distinct(5)),
                                     cache=cache)
    assert info == {"processes": 5, "proc_hits": 3, "proc_misses": 2,
                    "resyntheses": 2, "partial_rebuild": True}
    synthesize_incremental(build_pipeline(3), cache=cache)
    _, info = synthesize_incremental(build_pipeline(5), cache=cache)
    assert info == {"processes": 5, "proc_hits": 5, "proc_misses": 0,
                    "resyntheses": 0, "partial_rebuild": False}


def test_name_and_code_base_stay_out_of_the_key():
    """Stages that differ only in their name, file and code base share
    one key; a different delta is a different process."""
    app = build_pipeline(3, deltas={2: 4})
    assert key_of(app, 0) == key_of(app, 1) != key_of(app, 2)


def test_process_key_is_stable_across_interpreter_runs():
    """PYTHONHASHSEED must not leak into the per-process fingerprint
    (satellite c): two fresh interpreters with different seeds and the
    parent process all derive the same key."""
    prog = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.apps.pipeline import build_pipeline\n"
        "from repro.lab.cache import process_cache_key\n"
        "app = build_pipeline(2)\n"
        "print(process_cache_key("
        "app.processes['stage1'].func.relocatable_text(), 'optimized'))\n"
    )
    keys = set()
    for seed in ("0", "4321"):
        out = subprocess.run(
            [sys.executable, "-c", prog], capture_output=True, text=True,
            check=True, cwd=str(_repo_root()),
            env=_env_with(PYTHONHASHSEED=seed),
        )
        keys.add(out.stdout.strip())
    app = build_pipeline(2)
    keys.add(process_cache_key(
        app.processes["stage1"].func.relocatable_text(), "optimized"))
    assert len(keys) == 1


def _repo_root():
    import pathlib
    return pathlib.Path(__file__).resolve().parents[2]


def _env_with(**kw):
    import os
    env = dict(os.environ)
    env.update(kw)
    env["PYTHONPATH"] = str(_repo_root() / "src") + os.pathsep + \
        str(_repo_root())
    return env
