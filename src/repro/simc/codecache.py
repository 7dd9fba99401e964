"""Content-addressed caching for generated simulator source.

Specializing a design to Python source is itself work (a walk over
every schedule step), and sweeps/campaigns/difftest construct
thousands of simulators for a handful of distinct designs. Generated
source is therefore cached at two levels:

* an in-process memo keyed by the content fingerprint, so repeated
  constructions inside one process pay codegen once;
* the existing :class:`repro.lab.cache.SynthesisCache` (the process-wide
  handle configured by ``REPRO_LAB_CACHE``, or any handle the caller
  passes), so parallel sweep workers and warm reruns share one codegen
  across processes.

Compiled code objects are additionally memoized per source text, so the
common path from a warm construction to a running simulator is two dict
hits and one ``exec`` of an already-compiled code object.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.utils.idgen import stable_fingerprint

__all__ = ["cached_source", "compile_source", "clear_memo"]

#: bump to invalidate every cached generated source on a codegen change
CODEGEN_SCHEMA = 4

_SOURCE_MEMO: dict[str, str] = {}
_CODE_MEMO: dict[tuple[str, str], object] = {}

#: bumped by :func:`clear_memo`; a per-schedule executor template built
#: under an older value is stale
generation = 0


def clear_memo() -> None:
    """Drop the in-process memos (tests exercise cold codegen with this)."""
    global generation
    generation += 1
    _SOURCE_MEMO.clear()
    _CODE_MEMO.clear()


def _default_cache():
    """The process-wide lab cache, or None while ``REPRO_LAB_CACHE`` is
    unset: that cache would be disabled, so ``repro.lab`` stays unloaded."""
    if not os.environ.get("REPRO_LAB_CACHE"):
        return None
    from repro.lab.bench import session_cache

    return session_cache()


def cached_source(
    key_parts: tuple,
    generate: Callable[[], str],
    cache=None,
) -> str:
    """Return generated source for ``key_parts``, memoized + disk-cached.

    ``generate`` runs only on a full miss. ``cache=None`` uses the
    process-wide lab cache (disabled unless ``REPRO_LAB_CACHE`` is set),
    so call sites need no conditionals.
    """
    from repro import __version__

    # "sched" stays in the fingerprint and the key so that entries already
    # on disk under this CODEGEN_SCHEMA keep their keys
    fp = stable_fingerprint("simc", "sched", CODEGEN_SCHEMA, __version__,
                            *key_parts)
    key = f"simc-sched-{fp:016x}"
    src = _SOURCE_MEMO.get(key)
    if src is not None:
        return src
    if cache is None:
        cache = _default_cache()
    if cache is not None and cache.enabled:
        obj = cache.get(key)
        if isinstance(obj, str):
            _SOURCE_MEMO[key] = obj
            return obj
    src = generate()
    _SOURCE_MEMO[key] = src
    if cache is not None and cache.enabled:
        cache.put(key, src)
    return src


def compile_source(source: str, filename: str):
    """``compile()`` with a per-source memo (bytecode is design-invariant)."""
    key = (filename, source)
    code = _CODE_MEMO.get(key)
    if code is None:
        code = compile(source, filename, "exec")
        _CODE_MEMO[key] = code
    return code
