"""The fabric client: one campaign, N daemons, any one allowed to die.

Given peer daemons that share one ``--store`` root on a common
filesystem, :func:`run_fabric`:

1. **Shards** the job space with :meth:`repro.lab.shard.ShardSpec.partition`
   — the partitioning CI matrix legs use, so shard membership depends
   only on content, never on which peer runs it;
2. **Submits** every shard concurrently, shard *k* to its home peer
   ``peers[(k-1) % n]`` of the sorted peer list, as an ordinary submit
   with a ``shard: "K/N"`` param (the daemon's drivers journal into
   ``<base>.sKofN`` run directories);
3. **Fails over** by walking the sorted peer list cyclically from the
   home peer, trying each peer at most once. A transient outcome (dead
   peer RPR-V006, truncated stream RPR-V007, capacity/drain rejection
   RPR-V002/V004, timeout) resubmits the same shard to the next peer
   after a :class:`repro.lab.retry.RetryPolicy` backoff; the next
   peer's driver resumes past the points already journaled. A permanent
   failure fails the shard at once; a shard every peer failed is
   ``lost``. No health table is kept: :class:`ServeClient` already
   retries a refused connect before it raises RPR-V006;
4. **Merges** the shard run directories with
   :func:`repro.lab.shard.merge_runs` into the canonical run, which is
   byte-identical to a clean unsharded run of the same spec.

:func:`peer_status` is the ``repro fabric status`` probe: one ping per
peer, no reconnect retries.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import ServeError
from repro.lab.retry import (
    TRANSIENT_CODES,
    RetryPolicy,
    is_transient_exception,
)
from repro.lab.shard import ShardSpec, base_run_id, merge_runs
from repro.serve.client import ServeClient

__all__ = ["FabricResult", "ShardOutcome", "peer_status", "run_fabric"]


@dataclass
class ShardOutcome:
    """One shard's journey through the fabric."""

    shard: str                       # "K/N"
    status: str = "pending"          # ok | failed | timeout | rejected | lost
    peer: str | None = None          # who finally produced the outcome
    record: dict | None = None
    diagnostics: list = field(default_factory=list)
    #: every (peer, what-happened) hop, in order — the failover audit trail
    attempts: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def rerouted(self) -> bool:
        return len(self.attempts) > 1

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "status": self.status,
            "peer": self.peer,
            "attempts": list(self.attempts),
            "rerouted": self.rerouted,
        }


@dataclass
class FabricResult:
    """A sharded, failover-capable run: per-shard outcomes plus the
    canonical merge."""

    kind: str
    shards: list[ShardOutcome]
    base_run_id: str | None = None
    merge: object | None = None      # MergeResult when every shard landed
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return bool(self.shards) and all(s.ok for s in self.shards)

    @property
    def rerouted_shards(self) -> int:
        return sum(1 for s in self.shards if s.rerouted)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "base_run_id": self.base_run_id,
            "merged_dir": str(self.merge.run.dir) if self.merge else None,
            "merged_records": len(self.merge.records) if self.merge else 0,
            "rerouted_shards": self.rerouted_shards,
            "shards": [s.as_dict() for s in self.shards],
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _sorted_peers(peers) -> list[str]:
    cleaned = sorted({str(p).strip() for p in peers if str(p).strip()})
    if not cleaned:
        raise ServeError("the fabric needs at least one peer address",
                         code="RPR-V005")
    return cleaned


def run_fabric(peers, kind: str, params: dict, store_root: str, *,
               shards: int | None = None, timeout: float | None = None,
               retry: RetryPolicy | None = None, client_factory=None,
               progress=None) -> FabricResult:
    """Shard ``params`` over ``peers``, submit, fail over, merge.

    ``shards`` defaults to one per peer. ``client_factory(address)`` is
    injectable for tests; ``retry`` supplies only the *backoff schedule*
    between hops (transience classification is
    :func:`repro.lab.retry.is_transient_exception` and
    :data:`TRANSIENT_CODES` — shared with every other layer).
    """
    t0 = time.monotonic()
    peers = _sorted_peers(peers)
    specs = ShardSpec.partition(len(peers) if shards is None else shards)
    client_factory = client_factory or (
        lambda address: ServeClient(address, client_id="fabric-router"))
    retry = retry or RetryPolicy(base_delay=0.1, max_delay=5.0,
                                 breaker=None)

    def say(msg: str) -> None:
        if progress:
            print(f"[fabric] {msg}", file=progress, flush=True)

    def run_shard(spec: ShardSpec, out: ShardOutcome) -> None:
        """Drive one shard to a terminal outcome, walking the peer list
        once from its home peer."""
        job_params = dict(params)
        job_params["shard"] = out.shard
        home = spec.index - 1
        for hop in range(len(peers)):
            peer = peers[(home + hop) % len(peers)]
            if hop:
                # deterministic backoff before hitting the next peer
                time.sleep(retry.delay(hop + 1, f"{spec.label}@{peer}"))
            attempt = {"peer": peer, "outcome": "?"}
            out.attempts.append(attempt)
            try:
                reply = client_factory(peer).submit(
                    kind, job_params, timeout=timeout)
            except ServeError as exc:
                attempt["outcome"] = f"error:{exc.code}"
                if not is_transient_exception(exc):
                    out.status = "failed"
                    out.peer = peer
                    out.diagnostics = [{"code": exc.code,
                                        "message": exc.message}]
                    return
                say(f"shard {out.shard}: {peer} failed ({exc.code}); "
                    "trying the next peer")
                continue

            terminal = reply.terminal
            event = terminal.get("event")
            if event == "result" and terminal.get("status") == "ok":
                out.status = "ok"
                out.peer = peer
                out.record = terminal.get("record")
                attempt["outcome"] = "ok"
                return

            code = terminal.get("code")
            status = terminal.get("status", event)
            attempt["outcome"] = f"{status}:{code or '-'}"
            if terminal.get("transient") or code in TRANSIENT_CODES \
                    or status == "timeout":
                # the peer answered but cannot take this work
                # (draining, at capacity, timing out)
                say(f"shard {out.shard}: {peer} answered {status}; "
                    "trying the next peer")
                continue
            out.status = "rejected" if event == "rejected" else str(status)
            out.peer = peer
            out.diagnostics = list(terminal.get("diagnostics", ()))
            return
        out.status = "lost"
        say(f"shard {out.shard}: every peer failed it")

    say(f"{kind}: {len(specs)} shard(s) over {len(peers)} peer(s) {peers}")
    outcomes = [ShardOutcome(shard=f"{s.index}/{s.total}") for s in specs]
    threads = [threading.Thread(target=run_shard, args=(spec, out),
                                name=f"fabric-shard-{spec.label}",
                                daemon=True)
               for spec, out in zip(specs, outcomes)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    result = FabricResult(kind=kind, shards=outcomes)
    run_ids = [o.record["run_id"] for o in outcomes
               if o.ok and (o.record or {}).get("run_id")]
    if run_ids:
        result.base_run_id = base_run_id(run_ids[0])
    if result.ok and result.base_run_id:
        result.merge = merge_runs(store_root, result.base_run_id,
                                  progress=progress or None)
        say(f"merged -> {result.merge.run.dir}")
    result.elapsed_s = time.monotonic() - t0
    return result


def peer_status(peers, client_factory=None) -> dict:
    """Ping every peer once (no reconnect retries) and return
    ``{address: {alive, draining, error}}`` — the ``repro fabric
    status`` payload."""
    client_factory = client_factory or (lambda address: ServeClient(
        address, client_id="fabric-status", connect_attempts=1))
    status = {}
    for address in _sorted_peers(peers):
        try:
            pong = client_factory(address).ping(timeout=2.0)
        except Exception as exc:  # noqa: BLE001 - any failure = dead peer
            status[address] = {"alive": False, "draining": False,
                               "error": str(exc)}
        else:
            status[address] = {"alive": True,
                               "draining": bool(pong.get("draining")),
                               "error": None}
    return status
