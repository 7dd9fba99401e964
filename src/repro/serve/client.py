"""Client for the ``repro serve`` daemon — one connection per request.

The protocol is one-request-per-connection (see
:mod:`repro.serve.protocol`), so the client is stateless: every call
opens a socket, writes one line, reads events until a terminal one, and
returns a :class:`SubmitReply`. ``repro submit`` is a thin CLI shell over
this module; tests drive it directly.

Failure classification is deliberately precise, because callers decide
on it whether to resubmit:

* the daemon cannot be reached at all, or closes the connection before
  sending *any* event — ``RPR-V006``. Nothing was accepted, so the
  client transparently retries the connection a bounded number of times
  with the deterministic backoff of :class:`repro.lab.retry.RetryPolicy`
  (daemon-startup races stop failing submits);
* the stream dies *after* events started flowing (daemon crashed or was
  killed mid-job) — ``RPR-V007``, a **truncated stream**. The raised
  error preserves the partial events (``exc.events``) for triage, and
  the code is classified transient by :mod:`repro.lab.retry`, so a
  caller may resubmit. Truncated streams are never blindly retried
  here: the job may be running on the (possibly still alive) daemon,
  and resubmission policy belongs to the caller.

The daemon address comes from the ``--address`` flag, the
``REPRO_SERVE`` environment variable, or an address file ``repro serve``
wrote — always ``host:port`` text.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass, field

from repro.errors import ServeError
from repro.lab.retry import RetryPolicy
from repro.serve import protocol

__all__ = ["ADDRESS_ENV", "ServeClient", "SubmitReply", "parse_address"]

ADDRESS_ENV = "REPRO_SERVE"

#: generous socket-level ceiling on top of the job timeout, so a wedged
#: daemon cannot hang a client forever even with no job timeout set
_SOCKET_GRACE_S = 10.0

#: reconnect policy: 3 connection attempts total, fast deterministic
#: backoff, no circuit breaker — after these, RPR-V006 means the daemon
#: is down
_CONNECT_POLICY = RetryPolicy(max_attempts=3, base_delay=0.1,
                              max_delay=2.0, breaker=None)


def parse_address(text: str | None) -> tuple[str, int]:
    """``host:port`` -> tuple; falls back to ``$REPRO_SERVE``."""
    if not text:
        text = os.environ.get(ADDRESS_ENV, "")
    if not text:
        raise ServeError(
            "no daemon address: pass --address host:port or set "
            f"${ADDRESS_ENV}", code="RPR-V006")
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ServeError(f"bad daemon address {text!r}; expected host:port",
                         code="RPR-V006")
    try:
        return host, int(port)
    except ValueError:
        raise ServeError(f"bad port in daemon address {text!r}",
                         code="RPR-V006") from None


@dataclass
class SubmitReply:
    """Everything the daemon streamed back for one request."""

    events: list[dict] = field(default_factory=list)

    @property
    def terminal(self) -> dict:
        """The stream's final event (result/rejected/error/stats/pong)."""
        if not self.events:
            raise ServeError("empty reply from daemon", code="RPR-V006")
        return self.events[-1]

    @property
    def accepted(self) -> dict | None:
        for ev in self.events:
            if ev.get("event") == "accepted":
                return ev
        return None

    @property
    def ok(self) -> bool:
        t = self.terminal
        return t.get("event") == "result" and t.get("status") == "ok"

    @property
    def rejected(self) -> bool:
        return self.terminal.get("event") == "rejected"

    @property
    def status(self) -> str:
        t = self.terminal
        if t.get("event") == "result":
            return t.get("status", "failed")
        return t.get("event", "error")

    @property
    def record(self) -> dict | None:
        return self.terminal.get("record")

    @property
    def coalesced(self) -> bool:
        """True when the daemon rode an existing in-flight execution."""
        acc = self.accepted
        return bool(acc and acc.get("coalesced"))

    @property
    def fingerprint(self) -> str | None:
        acc = self.accepted
        if acc is not None:
            return acc.get("fingerprint")
        return self.terminal.get("fingerprint")

    @property
    def diagnostics(self) -> list[dict]:
        return list(self.terminal.get("diagnostics", ()))


def _truncated_error(address: str, events: list[dict],
                     cause: str) -> ServeError:
    """The RPR-V007 a mid-stream disconnect raises: transient (the
    daemon died or dropped us, not the job's fault), carrying the
    partial event stream for triage."""
    accepted = any(ev.get("event") == "accepted" for ev in events)
    exc = ServeError(
        f"daemon at {address} disconnected mid-stream after "
        f"{len(events)} event(s){' (job was accepted)' if accepted else ''}"
        f": {cause}",
        code="RPR-V007",
        hint="the daemon likely crashed or was killed; the job is "
             "idempotent and its runs are journaled in the result store, "
             "so resubmitting it resumes rather than recomputes")
    #: the events received before the stream died, for triage
    exc.events = list(events)
    return exc


class ServeClient:
    """A named client of one daemon.

    ``client_id`` is what per-client admission control budgets against;
    parallel tools should pick distinct ids (the CLI defaults to
    ``user@pid``).
    """

    def __init__(self, address: str | tuple[str, int] | None = None,
                 client_id: str | None = None) -> None:
        if isinstance(address, tuple):
            self.address = address
        else:
            self.address = parse_address(address)
        self.client_id = client_id or f"{os.environ.get('USER', 'user')}" \
                                      f"@{os.getpid()}"

    @property
    def address_text(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def _roundtrip(self, request: dict,
                   timeout: float | None = None) -> SubmitReply:
        """One logical request: connect (with bounded, deterministically
        backed-off reconnects on RPR-V006), write one line, collect
        events until a terminal one arrives."""
        deadline = (timeout + _SOCKET_GRACE_S) if timeout else None
        attempt = 1
        while True:
            try:
                return self._attempt(request, deadline)
            except ServeError as exc:
                # only connection-level failures (nothing accepted, no
                # event seen) are safe to retry transparently; truncated
                # streams (RPR-V007) and protocol errors propagate
                if exc.code != "RPR-V006" or \
                        attempt >= _CONNECT_POLICY.max_attempts:
                    raise
            attempt += 1
            time.sleep(_CONNECT_POLICY.delay(attempt, self.address_text))

    def _attempt(self, request: dict,
                 deadline: float | None) -> SubmitReply:
        """One connection; raises RPR-V006 (retryable: no event ever
        arrived) or RPR-V007 (truncated: events arrived, then the stream
        died before a terminal event)."""
        address = self.address_text
        try:
            conn = socket.create_connection(self.address, timeout=5.0)
        except OSError as exc:
            raise ServeError(
                f"cannot reach daemon at {address}: {exc}",
                code="RPR-V006") from None
        reply = SubmitReply()
        try:
            with conn:
                conn.settimeout(deadline)
                with conn.makefile("rwb") as stream:
                    stream.write(protocol.encode(request))
                    stream.flush()
                    while True:
                        line = stream.readline()
                        if not line:
                            break
                        event = protocol.decode_line(line)
                        reply.events.append(event)
                        if event.get("event") in protocol.TERMINAL_EVENTS:
                            return reply
        except OSError as exc:
            if not reply.events:
                raise ServeError(
                    f"connection to daemon at {address} failed before "
                    f"any reply: {exc}", code="RPR-V006") from None
            raise _truncated_error(address, reply.events, str(exc)) \
                from None
        # clean EOF without a terminal event
        if not reply.events:
            raise ServeError(
                f"daemon at {address} closed the connection without "
                "replying (it may be draining or mid-restart)",
                code="RPR-V006")
        raise _truncated_error(address, reply.events,
                               "connection closed by daemon")

    # -- verbs ----------------------------------------------------------------

    def submit(self, kind: str, params: dict,
               timeout: float | None = None) -> SubmitReply:
        """Submit one job and block until its terminal event."""
        return self._roundtrip(
            protocol.submit_request(kind, params, client=self.client_id,
                                    timeout=timeout),
            timeout=timeout)

    def stats(self, timeout: float | None = None) -> dict:
        return self._roundtrip({"op": "stats"}, timeout=timeout).terminal

    def ping(self, timeout: float | None = None) -> dict:
        return self._roundtrip({"op": "ping"}, timeout=timeout).terminal

    def shutdown(self) -> dict:
        """Ask the daemon to drain and exit."""
        return self._roundtrip({"op": "shutdown"}).terminal
