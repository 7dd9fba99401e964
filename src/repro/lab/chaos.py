"""Deterministic fault injection for the lab's own infrastructure.

:mod:`repro.faults` injects faults into *simulated hardware* to measure
whether in-circuit assertions catch them; this module injects faults into
the *campaign infrastructure* — worker processes, the result journal and
the cache's fill leases — to prove that the executor/retry/store/shard
stack survives its own failure modes. Same philosophy, one layer down:
the verification infrastructure is itself a system under test.

Four fault kinds, mirroring what long campaigns see:

``crash``
    the worker process dies mid-point (``os._exit``), exactly like a
    segfaulting synthesis job — exercises pool-break salvage, RPR-E001
    classification and retry;
``hang``
    the worker sleeps forever — exercises deadline-based timeouts,
    stuck-worker hard-kills and RPR-E002 retry;
``torn_write``
    the *driver* process is killed between appending a result record and
    fsyncing it, leaving a torn JSONL line — exercises
    :class:`repro.lab.store.StoreStats` corruption counting and
    resume-to-identical-results semantics;
``lease_kill``
    the worker SIGKILLs itself right after claiming a cache fill lease
    (:meth:`repro.lab.cache.SynthesisCache.acquire_fill`) — exercises
    stale-lease detection by owner pid and atomic takeover, the property
    that keeps a crashed filler from wedging every waiter. **Never arm
    in-process.**

Determinism: whether a fault fires for a given token is a pure function
of ``(seed, kind, token)`` via :func:`stable_fingerprint` — no RNG state,
no clock. Each (kind, token) fires **once**: the first execution to roll
the fault claims it by atomically creating a marker file in ``state_dir``
(shared across processes and re-runs), so a retried or resumed campaign
converges to the same final results as an uninterrupted one — which is
exactly the property the chaos suite asserts.

Arming: set ``REPRO_CHAOS`` to a JSON object (see :meth:`ChaosSpec.to_env`)
in the environment of the run under test. Workers, the store and the cache
check the variable lazily; when unset, the hooks cost one dict lookup. A
value that does not parse as a :class:`ChaosSpec` raises ``RPR-E005``
rather than silently disarming the run.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

from repro.errors import ReproError
from repro.utils.idgen import stable_fingerprint

__all__ = ["ENV_VAR", "ChaosSpec", "ChaosMonkey", "active_chaos"]

ENV_VAR = "REPRO_CHAOS"

#: worker-crash exit code (distinguishable from normal failures in logs)
CRASH_EXIT = 13
#: driver torn-write exit code
TORN_EXIT = 23


@dataclass(frozen=True)
class ChaosSpec:
    """What to break, how often, and where the once-only ledger lives.

    Rates are fractions in [0, 1] evaluated per token; ``only`` (when
    non-empty) further restricts injection to tokens containing at least
    one of the substrings — tests use ``only=`` with rate 1.0 to target
    exact points deterministically.
    """

    seed: int = 0
    state_dir: str = ""
    crash: float = 0.0
    hang: float = 0.0
    torn_write: float = 0.0
    hang_s: float = 3600.0
    torn_style: str = "partial"   # 'partial' line or 'afterwrite' kill
    #: SIGKILL the process right after it claims a cache fill lease —
    #: proves leases never leak (waiters detect the dead owner pid and
    #: take the lease over instead of waiting out the stale window)
    lease_kill: float = 0.0
    only: tuple[str, ...] = field(default_factory=tuple)

    def to_env(self) -> str:
        """JSON for ``REPRO_CHAOS`` (give the run under test this env)."""
        doc = asdict(self)
        doc["only"] = list(self.only)
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_env(cls, value: str) -> "ChaosSpec":
        doc = json.loads(value)
        doc["only"] = tuple(doc.get("only") or ())
        return cls(**doc)


class ChaosMonkey:
    """Evaluates a :class:`ChaosSpec` against tokens, with a shared
    once-only ledger so every fault fires exactly one time."""

    def __init__(self, spec: ChaosSpec) -> None:
        self.spec = spec
        if spec.state_dir:
            os.makedirs(spec.state_dir, exist_ok=True)

    # ---- selection ------------------------------------------------------

    def _selected(self, kind: str, rate: float, token: str) -> bool:
        if rate <= 0.0:
            return False
        if self.spec.only and not any(s in token for s in self.spec.only):
            return False
        roll = stable_fingerprint(self.spec.seed, kind, token) % 10_000
        return roll < rate * 10_000

    def _claim(self, kind: str, token: str) -> bool:
        """Atomically claim (kind, token); False when already fired."""
        if not self.spec.state_dir:
            return True  # no ledger: fire every time
        name = f"{kind}-{stable_fingerprint(kind, token):016x}.fired"
        path = os.path.join(self.spec.state_dir, name)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(token[:512])
        return True

    def should_fire(self, kind: str, rate: float, token: str) -> bool:
        return self._selected(kind, rate, token) and self._claim(kind, token)

    # ---- worker-side injection (executor shim) --------------------------

    def injure_worker(self, token: str) -> None:
        """Called from :func:`repro.lab.executor._worker_shim` as the
        worker picks up a point. May never return."""
        if self.should_fire("crash", self.spec.crash, token):
            os._exit(CRASH_EXIT)
        if self.should_fire("hang", self.spec.hang, token):
            time.sleep(self.spec.hang_s)

    # ---- driver-side injection (store append) ---------------------------

    def torn_write_kill(self, fh, line: str, token: str) -> bool:
        """Called from :meth:`repro.lab.store.RunHandle.append` with the
        record's line *before* it is written. When the fault fires this
        writes a torn (or unsynced) line and kills the driver; returns
        False when the caller should append normally."""
        if not self.should_fire("torn_write", self.spec.torn_write, token):
            return False
        if self.spec.torn_style == "afterwrite":
            # full line written and flushed, killed before fsync — the
            # record's durability is up to the OS
            fh.write(line + "\n")
            fh.flush()
        else:
            # torn mid-line: the classic half-record a power cut leaves
            fh.write(line[: max(1, len(line) // 2)])
            fh.flush()
        os._exit(TORN_EXIT)

    # ---- cache-side injection (fill leases) -----------------------------

    def injure_lease_holder(self, token: str) -> None:
        """Called from :meth:`repro.lab.cache.SynthesisCache.acquire_fill`
        right after the lease file is created; SIGKILLs the holder so the
        lease leaks — the stale-takeover path other fillers must survive.
        Only arm in subprocess workers."""
        if self.should_fire("lease_kill", self.spec.lease_kill, token):
            import signal

            os.kill(os.getpid(), signal.SIGKILL)


_cache: dict[str, ChaosMonkey] = {}


def active_chaos() -> ChaosMonkey | None:
    """The armed :class:`ChaosMonkey`, or None when ``REPRO_CHAOS`` is
    unset. Parsed once per distinct env value; a value that is not a
    valid :class:`ChaosSpec` raises ``RPR-E005``, because a silently
    disarmed run would let a chaos test pass without injecting anything."""
    value = os.environ.get(ENV_VAR)
    if not value:
        return None
    if value not in _cache:
        try:
            _cache[value] = ChaosMonkey(ChaosSpec.from_env(value))
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise ReproError(
                f"malformed ${ENV_VAR}: {exc}", code="RPR-E005",
                hint="unset it, or give a JSON object of ChaosSpec fields "
                     "(crash, hang, torn_write, lease_kill, ...)") from None
    return _cache[value]
