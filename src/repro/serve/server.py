"""The ``repro serve`` daemon: synthesis as a long-running local service.

One process owns one warm :class:`~repro.lab.cache.SynthesisCache` handle
(thread-safe), one in-process codegen memo, and one thread pool; clients
submit jobs over localhost TCP (:mod:`repro.serve.protocol`) and get
streamed events back. The interesting machinery lives in two policies the
server composes per request:

* :class:`~repro.serve.coalesce.Coalescer` — identical in-flight requests
  share one execution (leader runs, followers wait);
* :class:`~repro.serve.admission.AdmissionController` — bounded global
  and per-client budgets, rejected loudly rather than queued silently.

The submit path, end to end::

    parse -> fingerprint -> acquire_client          (every request)
          -> coalescer.join(can_lead=acquire_global)
          -> leader: pool.submit(run_job); complete the flight
             follower: flight.wait()
          -> stream "accepted" then terminal "result"

Shutdown is drain-first: SIGTERM (via :meth:`ReproServer.request_shutdown`,
which is signal-safe) flips admission into draining, closes the listener,
lets in-flight work finish up to ``drain_timeout`` seconds, aborts any
still-open flight with a transient RPR-V004 failure (so every waiting
follower receives a terminal event), then tears the pool down and reports
whether the drain was clean.

Every accepted job is logged to a crash-recoverable **write-ahead
journal** (:mod:`repro.serve.journal`) before execution, so a SIGKILL
between acceptance and completion surfaces as an *orphaned job* in the
restarted daemon's ``/stats`` instead of vanishing. A daemon knows
nothing about its peers: the fabric client
(:func:`repro.serve.fabric.run_fabric`) assigns shards and fails them
over, and daemons sharing one ``--cache`` directory perform one
synthesis per key through the cache's fill leases.
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field

from repro.diagnostics.bridge import diagnostics_from_exception
from repro.diagnostics.core import Diagnostic
from repro.errors import ReproError, ServeError
from repro.lab.cache import SynthesisCache
from repro.lab.chaos import active_chaos
from repro.lab.executor import ExecStats, PointOutcome
from repro.lab.retry import is_transient
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.coalesce import Coalescer
from repro.serve.jobs import JobContext, job_fingerprint, parse_job, run_job
from repro.serve.journal import JobJournal
from repro.simc.codecache import memo_stats

__all__ = ["JobResult", "ReproServer", "ServeConfig"]

#: diagnostic code a timed-out job carries — deliberately the executor's
#: hang code, so :func:`repro.lab.retry.is_transient` classifies daemon
#: timeouts exactly like sweep-fabric timeouts
TIMEOUT_CODE = "RPR-E002"


@dataclass
class ServeConfig:
    """Everything ``repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = kernel-assigned; the bound port is in .address
    max_inflight: int = 4
    queue_depth: int = 16
    per_client: int = 16
    #: inner parallelism handed to sweep/campaign/difftest drivers
    inner_jobs: int = 1
    cache_root: str | None = None
    store_root: str = "serve-runs"
    #: default per-job timeout (seconds); a request's own timeout wins
    job_timeout: float | None = None
    drain_timeout: float = 30.0
    #: stable daemon name — keys the write-ahead job journal across
    #: restarts; defaults to host-port once the listener is bound
    name: str = ""


@dataclass
class JobResult:
    """What one executed job produced, in terminal-event shape."""

    status: str  # ok | failed | timeout
    record: dict | None = None
    diagnostics: list = field(default_factory=list)
    transient: bool = False
    elapsed_s: float = 0.0


def _timeout_result(fingerprint: str, timeout: float,
                    elapsed: float) -> JobResult:
    diag = Diagnostic(
        code=TIMEOUT_CODE,
        severity="error",
        message=f"job {fingerprint} exceeded its {timeout:.1f}s timeout",
        hint="raise --timeout, or let the client's retry policy resubmit; "
             "the daemon keeps running the job and later identical "
             "requests may find its result cached",
    ).to_dict()
    return JobResult(status="timeout", diagnostics=[diag], transient=True,
                     elapsed_s=elapsed)


class ReproServer:
    """The daemon. Construct, then :meth:`serve_forever`.

    The listener socket binds in the constructor so ``.address`` is known
    (and printable / writable to an address file) before the accept loop
    starts — tests and the CLI rely on that ordering.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        self.cache = SynthesisCache(cfg.cache_root)
        self.coalescer = Coalescer()
        self.admission = AdmissionController(
            max_inflight=cfg.max_inflight, queue_depth=cfg.queue_depth,
            per_client=cfg.per_client)
        self.context = JobContext(
            cache=self.cache, cache_root=cfg.cache_root,
            store_root=cfg.store_root, jobs=cfg.inner_jobs)
        self.pool = ThreadPoolExecutor(
            max_workers=cfg.max_inflight,
            thread_name_prefix="repro-serve-worker")
        #: fabric stats folded out of every driver-run manifest
        self.exec_stats = ExecStats()
        self._counters = {
            "submitted": 0, "completed": 0, "failed": 0, "timeout": 0,
            "rejected": 0, "coalesced": 0,
        }
        #: incremental-synthesis work done by this daemon's synth jobs:
        #: how many process rebuilds cold submissions actually cost, and
        #: how many were warm partial rebuilds (the edited-app fast path)
        self._incremental = {
            "synth_jobs": 0, "resyntheses": 0, "proc_hits": 0,
            "proc_misses": 0, "partial_rebuilds": 0,
        }
        self._by_kind: dict[str, int] = {}
        self._active_jobs = 0
        self._job_seq = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._conn_threads: list[threading.Thread] = []
        self._started = time.monotonic()

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((cfg.host, cfg.port))
        self._listener.listen(128)
        self._listener.settimeout(0.2)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]

        #: stable identity for the write-ahead journal
        self.name = cfg.name or f"{self.address[0]}-{self.address[1]}"
        self.journal = JobJournal(cfg.store_root, self.name)

    # -- lifecycle ------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Ask the accept loop to stop; safe to call from a signal
        handler (only sets an Event)."""
        self._stop.set()

    def serve_forever(self) -> dict:
        """Accept until :meth:`request_shutdown`, then drain; returns the
        shutdown report (``{"drained": bool, ...}``)."""
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed under us
                t = threading.Thread(target=self._handle_connection,
                                     args=(conn,), daemon=True)
                t.start()
                with self._lock:
                    self._conn_threads.append(t)
                    # prune finished handlers so the list stays bounded
                    self._conn_threads = [
                        th for th in self._conn_threads if th.is_alive()]
        finally:
            report = self._drain()
        return report

    def _drain(self) -> dict:
        """Stop accepting, let in-flight jobs finish, tear down."""
        self.admission.start_drain()
        try:
            self._listener.close()
        except OSError:
            pass
        deadline = time.monotonic() + self.config.drain_timeout
        while time.monotonic() < deadline:
            with self._lock:
                active = self._active_jobs
            if active == 0:
                break
            time.sleep(0.05)
        with self._lock:
            abandoned = self._active_jobs
            threads = list(self._conn_threads)
        # last rites: any flight still open (a leader that will never
        # report, or a job the drain deadline abandoned) is resolved with
        # a transient RPR-V004 failure so every waiting follower receives
        # a terminal event instead of hanging on a dead daemon
        aborted = self.coalescer.abort_all(JobResult(
            status="failed",
            diagnostics=diagnostics_from_exception(ServeError(
                "job abandoned by daemon shutdown", code="RPR-V004")),
            transient=True))
        self.pool.shutdown(wait=abandoned == 0, cancel_futures=True)
        for t in threads:
            t.join(timeout=1.0)
        return {
            "drained": abandoned == 0,
            "abandoned_jobs": abandoned,
            "aborted_flights": aborted,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "jobs": self.job_counters(),
        }

    # -- per-connection protocol ----------------------------------------------

    def _handle_connection(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(30.0)
            with conn, conn.makefile("rwb") as stream:
                line = stream.readline()
                if not line:
                    return
                try:
                    request = protocol.parse_request(
                        protocol.decode_line(line))
                except ServeError as exc:
                    self._send(stream, protocol.error_event(
                        exc.code, exc.message))
                    return
                conn.settimeout(None)  # submits block on job completion
                try:
                    self._dispatch(stream, request)
                except ReproError as exc:
                    # last-resort: a structured failure anywhere in the
                    # dispatch path becomes an error event, never a dead
                    # handler thread with a traceback
                    self._send(stream, protocol.error_event(
                        exc.code, exc.message))
        except (OSError, ValueError):
            pass  # client went away mid-stream; nothing to clean up

    def _send(self, stream, event: dict) -> None:
        stream.write(protocol.encode(event))
        stream.flush()

    def _dispatch(self, stream, request: dict) -> None:
        op = request["op"]
        if op == "ping":
            self._send(stream, {"schema": protocol.PROTOCOL_VERSION,
                                "event": "pong",
                                "draining": self.admission.draining})
        elif op == "stats":
            self._send(stream, self.stats())
        elif op == "shutdown":
            self._send(stream, {"schema": protocol.PROTOCOL_VERSION,
                                "event": "shutdown"})
            self.request_shutdown()
        else:
            self._submit(stream, request)

    # -- the submit path ------------------------------------------------------

    def _submit(self, stream, request: dict) -> None:
        client = request["client"]
        timeout = request["timeout"] or self.config.job_timeout
        try:
            spec = parse_job(request["job"])
            fingerprint = job_fingerprint(spec)
        except ReproError as exc:
            # fingerprinting builds the app, so a malformed job (bad app
            # params, unparseable C source) is refused here — before it
            # consumes any admission budget or worker time
            self._send(stream, protocol.error_event(exc.code, exc.message))
            return

        try:
            # a request that can ride an existing flight is a "rider":
            # admitted even during drain (its leader predates the drain)
            self.admission.acquire_client(
                client, rider=self.coalescer.flight_info(fingerprint)[0])
        except ServeError as exc:
            with self._lock:
                self._counters["rejected"] += 1
            self._send(stream, protocol.rejected_event(
                exc.code, exc.message, fingerprint=fingerprint))
            return

        try:
            try:
                flight, is_leader = self.coalescer.join(
                    fingerprint, can_lead=self.admission.acquire_global)
            except ServeError as exc:
                with self._lock:
                    self._counters["rejected"] += 1
                self._send(stream, protocol.rejected_event(
                    exc.code, exc.message, fingerprint=fingerprint))
                return

            with self._lock:
                self._job_seq += 1
                job_id = f"j{self._job_seq}"
                self._counters["submitted"] += 1
                self._by_kind[spec.kind] = self._by_kind.get(spec.kind, 0) + 1
                if not is_leader:
                    self._counters["coalesced"] += 1
            self._send(stream, protocol.accepted_event(
                job_id, spec.kind, fingerprint, coalesced=not is_leader))

            t0 = time.monotonic()
            if is_leader:
                result = self._lead(spec, fingerprint, flight, timeout,
                                    job_id=job_id, client=client)
            else:
                result = self._follow(fingerprint, flight, timeout, t0)
            with self._lock:
                self._counters[
                    "completed" if result.status == "ok"
                    else result.status if result.status in self._counters
                    else "failed"] += 1
            chaos = active_chaos()
            if chaos is not None:
                if chaos.cut_stream(f"serve-stream:{fingerprint}"):
                    return  # handler exits; client sees a truncated stream
                chaos.delay_reply(f"serve-reply:{fingerprint}")
            self._send(stream, protocol.result_event(
                job_id, spec.kind, result.status, record=result.record,
                diagnostics=result.diagnostics, transient=result.transient,
                coalesced=not is_leader, elapsed_s=result.elapsed_s))
        finally:
            self.admission.release_client(client)

    def _lead(self, spec, fingerprint: str, flight,
              timeout: float | None, job_id: str = "j0",
              client: str = "anon") -> JobResult:
        """Run the job on the worker pool, publish its outcome to the
        flight.

        The accepted record hits the write-ahead journal *before* any
        execution: if the daemon dies past this point, the next epoch
        reports the job as orphaned instead of forgetting it.
        """
        self.journal.accepted(job_id, fingerprint, spec.kind, client)
        result = self._lead_inner(spec, fingerprint, flight, timeout)
        self.journal.done(job_id, fingerprint, result.status)
        return result

    def _lead_inner(self, spec, fingerprint: str, flight,
                    timeout: float | None) -> JobResult:
        with self._lock:
            self._active_jobs += 1
        t0 = time.monotonic()
        try:
            future = self.pool.submit(self._execute, spec, fingerprint, t0)
        except RuntimeError as exc:  # pool torn down mid-submit
            with self._lock:
                self._active_jobs -= 1
            self.admission.release_global()
            result = JobResult(
                status="failed",
                diagnostics=diagnostics_from_exception(ServeError(
                    f"worker pool unavailable: {exc}", code="RPR-V004")),
                transient=True, elapsed_s=0.0)
            self.coalescer.complete(flight, result)
            return result
        try:
            result = future.result(timeout)
        except CancelledError:  # drain cancelled a queued job
            with self._lock:
                self._active_jobs -= 1
            self.admission.release_global()
            result = JobResult(
                status="failed",
                diagnostics=diagnostics_from_exception(ServeError(
                    "job cancelled by daemon shutdown", code="RPR-V004")),
                transient=True, elapsed_s=round(time.monotonic() - t0, 4))
            self.coalescer.complete(flight, result)
            return result
        except FuturesTimeout:
            # the worker keeps running (its global slot frees when
            # _execute actually returns); the flight resolves now so
            # followers time out in lockstep rather than hanging
            result = _timeout_result(fingerprint, timeout,
                                     time.monotonic() - t0)
            self.coalescer.complete(flight, result)
            return result
        self.coalescer.complete(flight, result)
        return result

    def _follow(self, fingerprint: str, flight, timeout: float | None,
                t0: float) -> JobResult:
        """Wait out the leader; the result is shared verbatim except for
        the follower's own elapsed time."""
        try:
            result = flight.wait(timeout)
        except TimeoutError:
            return _timeout_result(fingerprint, timeout or 0.0,
                                   time.monotonic() - t0)
        return JobResult(
            status=result.status, record=result.record,
            diagnostics=result.diagnostics, transient=result.transient,
            elapsed_s=round(time.monotonic() - t0, 4))

    def _execute(self, spec, fingerprint: str, t0: float) -> JobResult:
        """Worker-thread body: run the job, classify any failure."""
        try:
            chaos = active_chaos()
            if chaos is not None:
                # the hardest fault in the chaos menu: SIGKILL the whole
                # daemon as execution starts (subprocess daemons only)
                chaos.injure_daemon(f"serve-exec:{fingerprint}")
            record = run_job(spec, self.context)
        except BaseException as exc:  # noqa: BLE001 - classified below
            diags = diagnostics_from_exception(exc)
            shim = PointOutcome(index=0, status="failed",
                                diagnostics=diags)
            return JobResult(status="failed", diagnostics=diags,
                             transient=is_transient(shim),
                             elapsed_s=round(time.monotonic() - t0, 4))
        finally:
            with self._lock:
                self._active_jobs -= 1
            self.admission.release_global()
        self._merge_exec_stats(record)
        if spec.kind == "synth" and isinstance(record, dict):
            with self._lock:
                inc = self._incremental
                inc["synth_jobs"] += 1
                inc["resyntheses"] += record.get("resyntheses", 0)
                inc["proc_hits"] += record.get("proc_hits", 0)
                inc["proc_misses"] += record.get("proc_misses", 0)
                if record.get("partial_rebuild"):
                    inc["partial_rebuilds"] += 1
        return JobResult(status="ok", record=record,
                         elapsed_s=round(time.monotonic() - t0, 4))

    def _merge_exec_stats(self, record: dict) -> None:
        """Fold a driver result's manifest executor block into the
        daemon-wide aggregate (synth records have none; that's fine)."""
        manifest = record.get("manifest") if isinstance(record, dict) else None
        if isinstance(manifest, dict):
            block = manifest.get("executor")
            if isinstance(block, dict):
                with self._lock:
                    self.exec_stats.merge(block)

    # -- observability --------------------------------------------------------

    def job_counters(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
            counters["active"] = self._active_jobs
            counters["by_kind"] = dict(self._by_kind)
        return counters

    def incremental_counters(self) -> dict:
        with self._lock:
            return dict(self._incremental)

    def stats(self) -> dict:
        """The ``/stats`` verb's payload — every layer's counters."""
        cfg = self.config
        with self._lock:
            exec_block = self.exec_stats.as_dict()
        return {
            "schema": protocol.PROTOCOL_VERSION,
            "event": "stats",
            "address": list(self.address),
            "name": self.name,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "draining": self.admission.draining,
            "jobs": self.job_counters(),
            "coalesce": self.coalescer.snapshot(),
            "admission": self.admission.snapshot(),
            "journal": self.journal.snapshot(),
            "cache": self.cache.stats.as_dict(),
            "incremental": self.incremental_counters(),
            "executor": exec_block,
            "codecache": memo_stats.as_dict(),
            "config": {
                "max_inflight": cfg.max_inflight,
                "queue_depth": cfg.queue_depth,
                "per_client": cfg.per_client,
                "inner_jobs": cfg.inner_jobs,
                "cache_root": cfg.cache_root,
                "store_root": cfg.store_root,
                "job_timeout": cfg.job_timeout,
                "drain_timeout": cfg.drain_timeout,
                "name": self.name,
            },
        }
