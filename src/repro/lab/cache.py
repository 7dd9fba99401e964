"""Content-addressed on-disk cache for synthesis artifacts.

The evaluation is a design-space sweep: the same (application, assertion
level, optimization switches, device) point is synthesized again and again
across benchmark runs, campaign levels and sweep reruns. The cache keys
each point by a :func:`stable_fingerprint` over everything that can change
the result — the canonical IR text of every process (i.e. the source), the
task-graph wiring, every :class:`SynthesisOptions` field, the assertion
level, the device model and the package version — and memoizes the
expensive artifacts (synthesized images, per-process artifacts, and the
point summaries a sweep journals).

Properties:

* **content-addressed** — the key is derived from design content, never
  from file paths or timestamps, so logically identical inputs hit across
  processes, machines and interpreter runs;
* **cross-process safe** — entries are written to a temp file and
  ``os.replace``-d into place, so concurrent sweep workers can share one
  cache directory without locks (last writer wins on identical content);
* **thread-safe** — one handle may be shared across threads (a
  long-lived caller's worker threads); get/put/evict and the stats
  counters are serialized by an internal lock;
* **bounded** — each handle keeps an entry count (one directory scan on
  its first ``put``, then +1 per new key and -1 per entry it drops); only
  when that count passes ``max_entries`` does an LRU sweep (by access
  time) evict the oldest entries and recount. Eviction is advisory: puts
  by other processes leave the count stale, which costs at most one late
  sweep;
* **observable** — hit/miss/store/eviction counters are kept per handle
  and surfaced in sweep manifests and progress lines.

Three entry kinds share the store, in disjoint key namespaces:

* **app-level** entries (:func:`cache_key`) memoize a synthesized image
  for the callers that execute or return it (the fault campaign,
  :func:`repro.lab.bench.synth`);
* **point-summary** entries (:func:`summary_key`) memoize the flat
  :func:`repro.platform.report.point_summary` dict a sweep point journals
  — a few hundred bytes instead of the whole image, resources and Fmax
  report it is computed from;
* **process-level** entries (:func:`process_cache_key`) memoize one
  :class:`repro.core.synth.ProcessArtifact`, so editing one process of a
  multi-process app rebuilds only that process
  (:mod:`repro.lab.incremental`). Process lookups keep their own
  ``proc_hits``/``proc_misses`` counters so app-level hit-rate assertions
  stay meaningful.

**Fill leases** dedupe *concurrent first-touch fills*: the on-disk store
already dedupes across time (second run hits), but N processes (sweep
workers, or concurrent ``repro`` runs over one ``--cache``) cold-starting
the same campaign used to synthesize the same points N times in parallel.
:meth:`SynthesisCache.acquire_fill` claims a fingerprint-keyed lease file
(claimed by atomic hard link of a fully written payload: owner pid +
takeover epoch inside) so exactly
one process fills while the rest wait on the shared
:class:`~repro.lab.retry.RetryPolicy` backoff and then read the filled
entry. Leases held by dead owners (worker SIGKILL) are taken over via an
atomic rename, eviction never removes an entry whose key has a live lease,
and a bounded wall-clock wait means a wedged owner degrades to a duplicate
fill — availability over strict dedup.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.synth import SynthesisOptions
from repro.hls.constraints import HLSConfig
from repro.lab.chaos import active_chaos
from repro.platform.device import EP2S180, DeviceModel
from repro.utils.idgen import stable_fingerprint

__all__ = [
    "CacheStats",
    "FillLease",
    "SynthesisCache",
    "app_key_parts",
    "cache_key",
    "process_cache_key",
    "summary_key",
]

#: bump to invalidate every cached artifact on a format change
CACHE_SCHEMA = 1

#: bump to invalidate process-level artifacts only
PROC_SCHEMA = 1

#: a lease older than this is presumed wedged even if its owner pid is
#: alive (e.g. the owner is stuck in an unrelated syscall) — waiters take
#: it over; real fills are seconds, so five minutes is generous
LEASE_STALE_S = 300.0

#: default bounded wait for a lease-protected fill before degrading to a
#: duplicate (unleased) fill — availability over strict dedup
LEASE_WAIT_S = 120.0


def _stable(part: object) -> object:
    """Normalize one fingerprint part: callables by qualified name (their
    repr embeds a memory address, which would poison the key)."""
    if callable(part) and not isinstance(part, type):
        return f"{getattr(part, '__module__', '?')}.{getattr(part, '__qualname__', repr(part))}"
    return part


def app_key_parts(app) -> list[object]:
    """Canonical, content-only description of an Application.

    Includes everything synthesis consumes: per-process IR text (which
    changes whenever the C source changes), HLS configs, stream/tap wiring,
    feeder data and the abort mode. Iteration order is sorted so dict
    insertion order cannot leak into the key. A function lowered through
    the frontend memo prints its text once per interpreter (see
    :meth:`repro.ir.function.IRFunction.mark_shared`).
    """
    parts: list[object] = [app.name, app.nabort]
    for name in sorted(app.processes):
        pd = app.processes[name]
        parts.append((
            "proc", name, pd.kind, pd.daemon,
            str(pd.func) if pd.func is not None else None,
            repr(pd.config),
            tuple(sorted((k, _stable(v)) for k, v in pd.ext_sw.items())),
            tuple(sorted((k, _stable(v)) for k, v in pd.ext_hw.items())),
        ))
    for name in sorted(app.streams):
        sd = app.streams[name]
        parts.append((
            "stream", name, str(sd.source), str(sd.dest), sd.width, sd.depth,
            tuple(sd.feeder_data or ()), sd.role,
            tuple(sorted(sd.role_info.items())),
        ))
    for name in sorted(app.taps):
        td = app.taps[name]
        parts.append(("tap", name, td.source, td.dest, td.widths))
    return parts


def cache_key(
    app,
    assertions: str,
    options: SynthesisOptions | None = None,
    device: DeviceModel = EP2S180,
    extra: tuple = (),
) -> str:
    """Hex cache key for one synthesis point.

    Any change to the source text (via the process IR), any
    ``SynthesisOptions`` field, the assertion level, the device model, the
    package version or the cache schema produces a different key.
    """
    from repro import __version__

    options = options or SynthesisOptions()
    fp = stable_fingerprint(
        CACHE_SCHEMA,
        __version__,
        assertions,
        options.key_parts(),
        repr(device),
        app_key_parts(app),
        tuple(_stable(e) for e in extra),
    )
    return f"{fp:016x}"


def summary_key(point_key: str) -> str:
    """Hex key of one sweep point's memoized point summary.

    Derived from the point's :func:`cache_key`, which already covers every
    input. The ``"s"`` prefix keeps the namespace disjoint from the
    app-level entries stored under the bare key, so a summary dict and a
    whole image can never be served for one another.
    """
    return f"s{stable_fingerprint('point-summary', point_key):015x}"


def process_cache_key(
    name: str,
    ir_text: str,
    assertions: str,
    options: SynthesisOptions | None = None,
    code_base: int = 1,
    device: DeviceModel = EP2S180,
    config: HLSConfig | None = None,
    fault_spec: tuple | None = None,
) -> str:
    """Hex cache key for ONE process's synthesis artifact.

    Keyed on everything :func:`repro.core.synth.synth_process` consumes:
    the process's canonical IR text (the source), the
    :meth:`~repro.core.synth.SynthesisOptions.process_key_parts` options
    slice (app-assembly and execution options are deliberately excluded so
    artifacts are shared across those variants), the effective assertion
    level, the error-code base (registry numbering is global and
    sequential, so a process's codes shift when an *earlier* process gains
    or loses assertions), the HLS config override, the translation-fault
    tuple, the device model, the package version and the schemas. The
    ``"p"`` prefix keeps the namespace disjoint from app-level keys.
    """
    from repro import __version__

    options = options or SynthesisOptions()
    fp = stable_fingerprint(
        "proc",
        CACHE_SCHEMA,
        PROC_SCHEMA,
        __version__,
        assertions,
        options.process_key_parts(),
        repr(device),
        name,
        ir_text,
        code_base,
        repr(config),
        repr(tuple(fault_spec)) if fault_spec else None,
    )
    return f"p{fp:015x}"


@dataclass
class CacheStats:
    """Counters for one cache handle (not persisted; per-process)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    errors: int = 0
    #: corrupt entries found on get() — evicted and counted separately so
    #: a sweep can surface "the cache directory is rotting" loudly rather
    #: than silently re-synthesizing forever
    corrupt: int = 0
    #: process-level artifact lookups (kept apart from hits/misses so
    #: app-level hit-rate assertions are not diluted by the per-process
    #: lookups an app miss fans out into)
    proc_hits: int = 0
    proc_misses: int = 0
    #: fill-lease contention: acquires that had to wait on another
    #: owner's fill (counted once per waiting acquire)
    lease_waits: int = 0
    #: stale leases (dead or wedged owner) taken over
    lease_takeovers: int = 0
    #: app syntheses that reused at least one cached process artifact and
    #: rebuilt at least one — the incremental win the counters exist for
    partial_rebuilds: int = 0

    _FIELDS = ("hits", "misses", "stores", "evictions", "errors", "corrupt",
               "proc_hits", "proc_misses", "lease_waits", "lease_takeovers",
               "partial_rebuilds")

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self._FIELDS}

    def snapshot(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def delta(self, before: tuple[int, ...]) -> dict[str, int]:
        now = self.snapshot()
        return {k: now[i] - before[i] for i, k in enumerate(self._FIELDS)}

    def __str__(self) -> str:
        return (f"cache hits={self.hits} misses={self.misses} "
                f"stores={self.stores} evictions={self.evictions} "
                f"proc={self.proc_hits}/{self.proc_hits + self.proc_misses}")


@dataclass
class FillLease:
    """A held (or degraded) claim on filling one cache key.

    ``owned=False`` marks the degraded cases — disabled cache, or a
    bounded wait that timed out and fell back to a duplicate fill — where
    there is no lease file to release.
    """

    key: str
    path: Path | None
    pid: int
    epoch: int
    owned: bool = True

    def release(self) -> None:
        """Drop the claim (idempotent; no-op for degraded leases)."""
        if self.owned and self.path is not None:
            try:
                os.unlink(self.path)
            except OSError:
                pass
        self.owned = False


class SynthesisCache:
    """Pickle-backed artifact store addressed by :func:`cache_key`.

    ``root=None`` disables the cache entirely (every ``get`` misses, every
    ``put`` is dropped) so call sites need no conditionals.
    """

    def __init__(self, root: str | os.PathLike | None,
                 max_entries: int = 512,
                 lease_stale_s: float = LEASE_STALE_S,
                 lease_wait_s: float = LEASE_WAIT_S) -> None:
        self.root = Path(root) if root is not None else None
        self.max_entries = max_entries
        self.lease_stale_s = lease_stale_s
        self.lease_wait_s = lease_wait_s
        self.stats = CacheStats()
        # the on-disk format is cross-process safe via atomic replaces,
        # but one *handle* (stats counters + get/put/evict sequences) is
        # not inherently thread-safe; a caller may share one warm handle
        # across threads, so serialize here
        self._lock = threading.RLock()
        # entries in objects/ as this handle knows them: None until the
        # first put() takes it with one scan; puts of new keys add, this
        # handle's evictions and corrupt-entry drops subtract
        self._count: int | None = None
        if self.root is not None:
            (self.root / "objects").mkdir(parents=True, exist_ok=True)
            (self.root / "leases").mkdir(parents=True, exist_ok=True)

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _path(self, key: str) -> Path:
        return self.root / "objects" / f"{key}.pkl"

    def _lease_path(self, key: str) -> Path:
        return self.root / "leases" / f"{key}.lease"

    def get(self, key: str):
        """Return the cached object for ``key`` or None on a miss."""
        return self._get(key, "hits", "misses")

    def get_process(self, key: str):
        """Process-artifact lookup (counts ``proc_hits``/``proc_misses``
        instead of the app-level hit/miss counters)."""
        return self._get(key, "proc_hits", "proc_misses")

    def _get(self, key: str, hit_field: str, miss_field: str):
        with self._lock:
            if self.root is None:
                setattr(self.stats, miss_field,
                        getattr(self.stats, miss_field) + 1)
                return None
            path = self._path(key)
            try:
                with open(path, "rb") as fh:
                    obj = pickle.load(fh)
            except FileNotFoundError:
                setattr(self.stats, miss_field,
                        getattr(self.stats, miss_field) + 1)
                return None
            except Exception:
                # truncated/corrupt entry (e.g. version skew): treat as a
                # miss and drop it so the slot heals on the next put
                self.stats.errors += 1
                self.stats.corrupt += 1
                setattr(self.stats, miss_field,
                        getattr(self.stats, miss_field) + 1)
                try:
                    os.unlink(path)
                    if self._count is not None:
                        self._count -= 1
                except OSError:
                    pass
                return None
            setattr(self.stats, hit_field,
                    getattr(self.stats, hit_field) + 1)
            try:
                os.utime(path)  # LRU touch
            except OSError:
                pass
            return obj

    def put(self, key: str, obj) -> None:
        """Atomically store ``obj`` under ``key``; run the LRU sweep once
        the entry count passes ``max_entries``."""
        with self._lock:
            if self.root is None:
                return
            path = self._path(key)
            if self._count is None:
                self._count = self._scan_count()
            new = not path.exists()
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self.stats.stores += 1
            if new:
                self._count += 1
            if self._count > self.max_entries:
                self._evict()

    def put_process(self, key: str, artifact) -> None:
        """Store one process artifact (same atomic path as :meth:`put`)."""
        self.put(key, artifact)

    # ---- fill leases -----------------------------------------------------

    @staticmethod
    def _unlink_quietly(path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def _read_lease(self, path: Path) -> dict | None:
        try:
            with open(path) as fh:
                return json.loads(fh.read())
        except (OSError, ValueError):
            return None

    def _lease_live(self, info: dict | None) -> bool:
        """Is this lease held by a live, non-wedged owner?"""
        if info is None:
            # Unreadable/corrupt lease: claimable. Leases are claimed by
            # hard-linking a fully written payload, so this is never a
            # live owner caught mid-write.
            return False
        if time.time() - info.get("t", 0) > self.lease_stale_s:
            return False
        pid = info.get("pid")
        if not isinstance(pid, int):
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False  # owner died (SIGKILL leaks land here)
        except OSError:
            pass  # e.g. EPERM: someone else's live process
        return True

    def _takeover(self, path: Path) -> bool:
        """Atomically remove a stale lease; False when another waiter won
        the race (rename is the compare-and-swap: only one succeeds)."""
        doomed = path.with_suffix(f".stale{os.getpid()}")
        try:
            os.rename(path, doomed)
        except OSError:
            return False
        try:
            os.unlink(doomed)
        except OSError:
            pass
        with self._lock:
            self.stats.lease_takeovers += 1
        return True

    def acquire_fill(self, key: str, retry=None,
                     timeout: float | None = None) -> FillLease | None:
        """Claim the right to fill ``key``; block while someone else has it.

        Returns a :class:`FillLease` when the caller must produce and
        :meth:`put` the entry (release the lease in a ``finally``), or
        ``None`` when the entry appeared while waiting (the caller should
        simply :meth:`get` it). While another live owner holds the lease,
        this polls on the shared :class:`~repro.lab.retry.RetryPolicy`
        backoff shape; a dead or wedged owner is taken over (epoch + 1);
        after ``timeout`` seconds the wait degrades to an *unleased* fill
        so a stuck fleet never deadlocks on one wedged filler.
        """
        pid = os.getpid()
        if self.root is None:
            return FillLease(key=key, path=None, pid=pid, epoch=0, owned=False)
        if retry is None:
            from repro.lab.retry import RetryPolicy
            retry = RetryPolicy(base_delay=0.02, max_delay=0.25, jitter=0.5)
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.lease_wait_s)
        path = self._lease_path(key)
        epoch = 1
        attempt = 2  # RetryPolicy.delay() is 2-based (first retry)
        waited = False
        # unique per thread too: a pid-only name would alias the claim
        # file across threads, and re-opening it after a sibling's link
        # would truncate the canonical lease through the shared inode
        claim = path.with_suffix(f".claim{pid}-{threading.get_ident()}")
        while True:
            if self._path(key).exists():
                return None  # filled while we were waiting
            try:
                # Write the payload to a private file first, then claim
                # with an atomic hard link: the canonical lease path never
                # exists without its full JSON, so a concurrent waiter can
                # never misread a mid-write lease as torn and steal it.
                with open(claim, "w") as fh:
                    fh.write(json.dumps(
                        {"key": key, "pid": pid, "epoch": epoch,
                         "t": time.time()}))
                os.link(claim, path)
            except FileExistsError:
                self._unlink_quietly(claim)
                info = self._read_lease(path)
                if not self._lease_live(info):
                    if self._takeover(path):
                        epoch = (info or {}).get("epoch", 0) + 1
                    continue
                if not waited:
                    waited = True
                    with self._lock:
                        self.stats.lease_waits += 1
                if time.monotonic() > deadline:
                    # bounded wait expired: duplicate the fill rather than
                    # hang on a wedged owner
                    return FillLease(key=key, path=None, pid=pid,
                                     epoch=(info or {}).get("epoch", 0),
                                     owned=False)
                time.sleep(min(retry.delay(attempt, token=key),
                               max(0.0, deadline - time.monotonic())))
                attempt += 1
                continue
            except OSError:
                # lease dir unwritable (read-only cache): fill unleased
                self._unlink_quietly(claim)
                return FillLease(key=key, path=None, pid=pid, epoch=0,
                                 owned=False)
            self._unlink_quietly(claim)
            lease = FillLease(key=key, path=path, pid=pid, epoch=epoch)
            chaos = active_chaos()
            if chaos is not None:
                chaos.injure_lease_holder(f"lease-fill:{key}")
            return lease

    def get_or_fill(self, key: str, producer, retry=None,
                    timeout: float | None = None, kind: str = "point"):
        """Lease-deduplicated read-through: ``(object, filled_by_us)``.

        A hit (including one that appeared while waiting on another
        owner's fill) returns ``(obj, False)``; a miss runs ``producer()``
        under the fill lease, stores the result and returns
        ``(obj, True)``. ``kind="process"`` routes the lookups through the
        ``proc_hits``/``proc_misses`` counters.
        """
        fetch = self.get_process if kind == "process" else self.get
        obj = fetch(key)
        if obj is not None:
            return obj, False
        while True:
            lease = self.acquire_fill(key, retry=retry, timeout=timeout)
            if lease is None:
                obj = fetch(key)
                if obj is not None:
                    return obj, False
                continue  # filled entry evicted before we read it: reclaim
            try:
                # Re-check under the lease: the previous owner stores the
                # entry *before* releasing, so a lease won in the gap
                # between its put and our claim means the entry is there.
                if self.root is not None and self._path(key).exists():
                    obj = fetch(key)
                    if obj is not None:
                        return obj, False
                obj = producer()
                self.put(key, obj)
                return obj, True
            finally:
                lease.release()

    def get_or_fill_process(self, key: str, producer, retry=None,
                            timeout: float | None = None):
        """:meth:`get_or_fill` for process artifacts."""
        return self.get_or_fill(key, producer, retry=retry, timeout=timeout,
                                kind="process")

    def note_partial_rebuild(self) -> None:
        """Record one app synthesis that mixed cached and rebuilt
        process artifacts (:mod:`repro.lab.incremental`)."""
        with self._lock:
            self.stats.partial_rebuilds += 1

    def _live_lease_keys(self) -> set[str]:
        """Keys protected from eviction by a live fill lease. Dead leases
        found along the way are collected (same takeover CAS as waiters
        use), so leaked lease files do not accumulate."""
        live: set[str] = set()
        for lp in self.root.glob("leases/*.lease"):
            info = self._read_lease(lp)
            if self._lease_live(info):
                live.add(lp.stem)
            else:
                self._takeover(lp)
        for orphan in self.root.glob("leases/*.stale*"):
            # a takeover that crashed between rename and unlink
            self._unlink_quietly(orphan)
        for orphan in self.root.glob("leases/*.claim*"):
            # a claimer that crashed between payload write and link; leave
            # young ones alone (their owner is about to link or unlink)
            try:
                if time.time() - orphan.stat().st_mtime > self.lease_stale_s:
                    os.unlink(orphan)
            except OSError:
                pass
        return live

    def _evict(self) -> None:
        entries = []
        protected = self._live_lease_keys()
        for p in self.root.glob("objects/*.pkl"):
            try:
                entries.append((p.stat().st_mtime, p))
            except OSError:
                continue  # concurrently evicted by another handle
        entries.sort()
        over = len(entries) - self.max_entries
        self._count = len(entries)
        for _, victim in list(entries):
            if over <= 0:
                break
            if victim.stem in protected:
                # a concurrent filler just wrote (or is about to reread)
                # this entry; evicting it would turn its waiters' reads
                # into duplicate fills
                continue
            try:
                os.unlink(victim)
                self.stats.evictions += 1
                self._count -= 1
            except OSError:
                pass
            over -= 1

    def _scan_count(self) -> int:
        return sum(1 for _ in self.root.glob("objects/*.pkl"))

    def __len__(self) -> int:
        with self._lock:
            if self.root is None:
                return 0
            return self._scan_count()

    def clear(self) -> None:
        with self._lock:
            if self.root is None:
                return
            for path in self.root.glob("objects/*.pkl"):
                try:
                    os.unlink(path)
                except OSError:
                    pass
            self._count = 0
