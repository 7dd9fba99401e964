"""Wire protocol for the repro synthesis service.

The transport is deliberately primitive: newline-delimited JSON over a
local TCP socket. A client connects, writes exactly one request object on
one line, and reads a stream of event objects (one per line) until a
terminal event arrives; the server then closes the connection. Framing a
request per connection keeps the daemon's concurrency model trivial (one
handler thread per request) and makes every client — shell scripts with
``nc``, the bundled :mod:`repro.serve.client`, tests — equally easy.

Requests (``op`` field)::

    {"op": "submit", "job": {"kind": "synth", "params": {...}},
     "client": "bench-3", "timeout": 120.0}
    {"op": "stats"}
    {"op": "ping"}
    {"op": "shutdown"}

Events (``event`` field)::

    {"event": "accepted", "job_id": "j12", "fingerprint": "...",
     "coalesced": true}                      # job admitted; result follows
    {"event": "result", "job_id": "j12", "status": "ok",
     "record": {...}, ...}                   # terminal: the job's payload
    {"event": "rejected", "code": "RPR-V002", ...}   # admission refused it
    {"event": "error", "code": "RPR-V001", ...}      # malformed request
    {"event": "stats", ...} / {"event": "pong", ...} / {"event": "shutdown"}

Every event carries ``schema`` so clients can detect version skew. The
``record`` payload of a result event uses the *same* summary schema the
CLI's ``--json`` flags print (:func:`sweep_summary`,
:func:`campaign_summary`, :func:`difftest_summary`, and the sweep point
record for ``synth`` jobs), so daemon output and CLI output stay
byte-compatible.
"""

from __future__ import annotations

import json

from repro.diagnostics.render import diagnostic_records
from repro.errors import ServeError
# re-exported: result payloads are compared under the shard merge's
# volatile-field list, the only such list
from repro.lab.shard import canonical_record

__all__ = [
    "PROTOCOL_VERSION",
    "JOB_KINDS",
    "OPS",
    "TERMINAL_EVENTS",
    "accepted_event",
    "campaign_summary",
    "canonical_record",
    "decode_line",
    "difftest_summary",
    "encode",
    "error_event",
    "parse_request",
    "rejected_event",
    "result_event",
    "submit_request",
    "sweep_summary",
]

PROTOCOL_VERSION = 1

#: job kinds the daemon executes; ``sleep`` exists for load probing and
#: admission/timeout tests (it holds a worker slot and does nothing else)
JOB_KINDS = ("synth", "sweep", "campaign", "difftest", "sleep")

OPS = ("submit", "stats", "ping", "shutdown")

#: events that end a request's stream (the server closes after one)
TERMINAL_EVENTS = ("result", "rejected", "error", "stats", "pong",
                   "shutdown")


# ---- framing ----------------------------------------------------------------


def encode(msg: dict) -> bytes:
    """One protocol message as a newline-terminated JSON line."""
    return (json.dumps(msg, sort_keys=True, default=str) + "\n").encode()


def decode_line(line: str | bytes) -> dict:
    """Parse one received line; raises :class:`ServeError` on garbage."""
    if isinstance(line, bytes):
        try:
            line = line.decode()
        except UnicodeDecodeError as exc:
            raise ServeError(f"undecodable protocol line: {exc}",
                             code="RPR-V001") from None
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServeError(f"malformed protocol line (not JSON): {exc}",
                         code="RPR-V001") from None
    if not isinstance(msg, dict):
        raise ServeError(
            f"protocol message must be a JSON object, got "
            f"{type(msg).__name__}", code="RPR-V001")
    return msg


# ---- requests ---------------------------------------------------------------


def submit_request(kind: str, params: dict, client: str | None = None,
                   timeout: float | None = None) -> dict:
    """Build a submit request (the client module's one constructor)."""
    req = {"op": "submit", "job": {"kind": kind, "params": dict(params)}}
    if client is not None:
        req["client"] = client
    if timeout is not None:
        req["timeout"] = float(timeout)
    return req


def parse_request(msg: dict) -> dict:
    """Validate one request object; raises :class:`ServeError` RPR-V001.

    Returns the message with defaults normalized (``client`` always set,
    ``timeout`` a float or None, submit jobs shaped ``{kind, params}``).
    """
    op = msg.get("op")
    if op not in OPS:
        raise ServeError(
            f"unknown op {op!r}; have {', '.join(OPS)}", code="RPR-V001")
    out = {"op": op, "client": str(msg.get("client") or "anon")}
    timeout = msg.get("timeout")
    if timeout is not None:
        try:
            timeout = float(timeout)
        except (TypeError, ValueError):
            raise ServeError(f"timeout must be a number, got {timeout!r}",
                             code="RPR-V001") from None
        if timeout <= 0:
            raise ServeError(f"timeout must be positive, got {timeout}",
                             code="RPR-V001")
    out["timeout"] = timeout
    if op == "submit":
        job = msg.get("job")
        if not isinstance(job, dict):
            raise ServeError("submit needs a job object", code="RPR-V001")
        kind = job.get("kind")
        if kind not in JOB_KINDS:
            raise ServeError(
                f"unknown job kind {kind!r}; have {', '.join(JOB_KINDS)}",
                code="RPR-V001")
        params = job.get("params", {})
        if not isinstance(params, dict):
            raise ServeError("job params must be an object",
                             code="RPR-V001")
        out["job"] = {"kind": kind, "params": params}
    return out


# ---- events -----------------------------------------------------------------


def _event(name: str, **fields) -> dict:
    ev = {"schema": PROTOCOL_VERSION, "event": name}
    ev.update(fields)
    return ev


def accepted_event(job_id: str, kind: str, fingerprint: str,
                   coalesced: bool) -> dict:
    return _event("accepted", job_id=job_id, kind=kind,
                  fingerprint=fingerprint, coalesced=bool(coalesced))


def result_event(
    job_id: str,
    kind: str,
    status: str,
    record: dict | None = None,
    diagnostics: list | None = None,
    transient: bool | None = None,
    coalesced: bool = False,
    elapsed_s: float = 0.0,
) -> dict:
    """The terminal event of a submitted job (ok, failed or timeout)."""
    ev = _event("result", job_id=job_id, kind=kind, status=status,
                coalesced=bool(coalesced),
                elapsed_s=round(float(elapsed_s), 4))
    if status == "ok":
        ev["record"] = record
    else:
        ev["diagnostics"] = diagnostic_records(diagnostics or [])
        ev["transient"] = bool(transient)
    return ev


def rejected_event(code: str, message: str, **extra) -> dict:
    return _event("rejected", code=code, message=message, **extra)


def error_event(code: str, message: str, **extra) -> dict:
    return _event("error", code=code, message=message, **extra)


# ---- shared result schemas --------------------------------------------------
#
# These builders are the single source of truth for "what a finished job
# looks like as JSON": the daemon embeds them in result events and the CLI
# prints them for `repro sweep --json` / `repro campaign --json`, so the
# two surfaces can never drift apart.


def sweep_summary(result) -> dict:
    """One JSON object for a finished :class:`repro.lab.sweep.SweepResult`:
    the run manifest (counters, executor stats, cache stats) plus the
    latest record per point."""
    return {
        "schema": PROTOCOL_VERSION,
        "kind": "sweep",
        "name": result.spec.name,
        "run_id": result.run.run_id,
        "ok": result.ok,
        "points": [p.point_id for p in result.points],
        "manifest": result.manifest,
        "records": [result.records[pid]
                    for pid in sorted(result.records)],
    }


def campaign_summary(result) -> dict:
    """One JSON object for a finished
    :class:`repro.faults.campaign.CampaignResult`: the coverage matrix as
    records, per-level classification counts and detection rates."""
    from repro.faults.campaign import record_from_outcome

    return {
        "schema": PROTOCOL_VERSION,
        "kind": "campaign",
        "app": result.app,
        "seed": result.seed,
        "run_id": result.run_id,
        "levels": list(result.levels),
        "ok": not result.harness_errors,
        "scenarios": [{"name": sc.name, "description": sc.description}
                      for sc in result.scenarios],
        "summary": {lv: result.summary(lv) for lv in result.levels},
        "detection_rate": {lv: result.detection_rate(lv)
                           for lv in result.levels},
        "outcomes": [record_from_outcome(oc) for oc in result.outcomes],
    }


def difftest_summary(result) -> dict:
    """One JSON object for a finished
    :class:`repro.difftest.runner.DifftestResult`."""
    return {
        "schema": PROTOCOL_VERSION,
        "kind": "difftest",
        "name": result.spec.name,
        "run_id": result.run.run_id,
        "ok": result.ok,
        "seeds": list(result.spec.seeds),
        "manifest": result.manifest,
        "records": [result.records[pid]
                    for pid in sorted(result.records)],
        "seed_files": list(result.seed_files),
    }
