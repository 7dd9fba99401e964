"""repro.lab — parallel design-space exploration with memoized synthesis.

Design note
===========

The paper's entire evaluation is one *shape*: a cross-product sweep over
application x assertion level x optimization switches, where every point
runs the identical, deterministic pipeline (lower -> instrument ->
schedule -> bind -> estimate). That shape used to be re-implemented ad hoc
by every benchmark and by the fault-campaign runner, serially, from
scratch, with nothing persisted between runs. ``repro.lab`` factors it
into four small, separately testable pieces:

``cache``
    A content-addressed on-disk artifact cache. The key is a
    :func:`repro.utils.idgen.stable_fingerprint` over everything that can
    change a synthesis result — canonical per-process IR text (i.e. the
    source), task-graph wiring, every ``SynthesisOptions`` field, the
    assertion level, the device model and the package version. Entries are
    written atomically (temp file + ``os.replace``) so concurrent workers
    share one cache directory without locks; the payoff is that a
    warm-cache rerun of the full benchmark sweep performs zero
    re-synthesis.

``executor``
    A crash-isolated parallel runner. Points fan out over a
    ``ProcessPoolExecutor`` (``--jobs``); a worker exception records a
    failed point instead of killing the sweep, a hard worker crash
    replaces the pool and carries on, a per-point timeout bounds hangs,
    and results return in submission order so parallel runs stay
    bit-identical to serial ones.

``store``
    An append-only JSONL result store with run manifests. Every resolved
    point is flushed immediately; the run id is derived from the sweep's
    content fingerprint, so re-invoking an interrupted sweep reopens the
    same run directory and resumes by skipping completed points.

``sweep``
    The declarative front end: ``SweepSpec.cross`` builds the paper-shaped
    cross product, ``run_sweep`` drives it through the three pieces above,
    and ``repro sweep`` exposes it on the command line.

On top of those sit the fault-tolerant **campaign fabric** pieces:

``retry``
    Per-point retry with exponential backoff + deterministic jitter.
    Transient failures (worker crash RPR-E001, timeout RPR-E002, pool
    break RPR-E003) retry; synthesis errors do not. A circuit breaker
    degrades to no-retry when a large fraction of points is failing.

``shard``
    Deterministic K/N sharding by stable point fingerprint, plus
    ``merge_runs``: fold per-shard run directories into one canonical run
    that is byte-identical whether the campaign ran sharded, unsharded,
    interrupted-and-resumed, or under chaos.

``chaos``
    Deterministic fault injection into the fabric itself (worker crashes,
    hangs, torn journal writes, killed cache-lease holders) — the harness
    that proves the pieces above actually deliver their guarantees.

Determinism contract: workers receive pure, picklable inputs
(:class:`SweepPoint`), the toolchain itself is seedless, and outcomes are
collected in submission order — so the same spec produces byte-identical
tables at any ``--jobs`` value, and cached artifacts are indistinguishable
from freshly synthesized ones. Retries, sharding and chaos all preserve
that contract at the *merged record* level.
"""

from repro.lab.cache import CacheStats, SynthesisCache, cache_key
from repro.lab.chaos import ChaosMonkey, ChaosSpec, active_chaos
from repro.lab.executor import ExecStats, LabExecutor, PointOutcome
from repro.lab.retry import CircuitBreaker, RetryPolicy
from repro.lab.shard import MergeResult, ShardSpec, merge_runs
from repro.lab.store import ResultStore, RunHandle, StoreStats
from repro.lab.sweep import (
    AppSpec,
    SweepPoint,
    SweepResult,
    SweepSpec,
    evaluate_point,
    run_sweep,
)

__all__ = [
    "AppSpec",
    "CacheStats",
    "ChaosMonkey",
    "ChaosSpec",
    "CircuitBreaker",
    "ExecStats",
    "LabExecutor",
    "MergeResult",
    "PointOutcome",
    "ResultStore",
    "RetryPolicy",
    "RunHandle",
    "ShardSpec",
    "StoreStats",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "SynthesisCache",
    "active_chaos",
    "cache_key",
    "evaluate_point",
    "merge_runs",
    "run_sweep",
]
