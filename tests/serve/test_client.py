"""The daemon client's failure contract, against a scripted listener.

Each test runs a tiny TCP listener on ``127.0.0.1:0`` that answers every
accepted connection with the next reply of a script (nothing at all, a
``pong``, or one ``accepted`` line), then closes it. Counting the
accepted connections proves whether the client retried:

* a connection closed before any event is RPR-V006 and is retried
  transparently, a bounded number of times;
* a stream cut after ``accepted`` is RPR-V007, keeps the partial events,
  and is never retried by the client itself.
"""

import socket
import threading

import pytest

from repro.errors import ServeError
from repro.lab.retry import is_transient_exception
from repro.serve import protocol
from repro.serve.client import _CONNECT_POLICY, ServeClient, parse_address

PONG = protocol.encode({"schema": protocol.PROTOCOL_VERSION,
                        "event": "pong", "draining": False})
ACCEPTED = protocol.encode(protocol.accepted_event(
    "j1", "sleep", "sleep-0123456789ab", coalesced=False))


class ScriptedListener:
    """Answers connection *i* with ``replies[i]`` (the last reply repeats;
    ``b""`` closes unanswered) after reading the request line."""

    def __init__(self, replies: list[bytes]) -> None:
        self.replies = replies
        self.connections = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._sock.settimeout(0.1)
        self.address = self._sock.getsockname()[:2]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            conn.settimeout(5.0)
            with conn, conn.makefile("rwb") as stream:
                stream.readline()
                reply = self.replies[min(self.connections,
                                         len(self.replies) - 1)]
                # count before replying: the client may return as soon
                # as the reply lands
                self.connections += 1
                if reply:
                    stream.write(reply)
                    stream.flush()

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()


@pytest.fixture
def scripted():
    listeners = []

    def make(replies):
        listener = ScriptedListener(replies)
        listeners.append(listener)
        return listener

    yield make
    for listener in listeners:
        listener.close()


def test_refused_connect_is_retried_transparently(scripted):
    """A first connection closed unanswered must be invisible to the
    caller: the bounded reconnect loop absorbs it."""
    listener = scripted([b"", PONG])
    pong = ServeClient(listener.address, client_id="c").ping()
    assert pong["event"] == "pong"
    assert listener.connections == 2


def test_dead_daemon_exhausts_retries_with_v006(scripted):
    # a listener that never answers takes exactly the policy's attempts
    listener = scripted([b""])
    with pytest.raises(ServeError) as exc:
        ServeClient(listener.address, client_id="c").ping()
    assert exc.value.code == "RPR-V006"
    assert is_transient_exception(exc.value)
    assert listener.connections == _CONNECT_POLICY.max_attempts > 1

    # and an address nobody listens on fails the same way
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(ServeError) as exc:
        ServeClient(("127.0.0.1", port), client_id="c").ping()
    assert exc.value.code == "RPR-V006"
    assert is_transient_exception(exc.value)


def test_cut_after_accepted_raises_transient_v007_with_partial_events(scripted):
    """A daemon dying after ``accepted`` is a *different* failure from
    one that never answered: RPR-V007, transient, partial events kept,
    and never blindly retried by the client itself."""
    listener = scripted([ACCEPTED, PONG])
    with pytest.raises(ServeError) as exc:
        ServeClient(listener.address, client_id="c").submit(
            "sleep", {"seconds": 0.02, "token": "cut"}, timeout=30)
    err = exc.value
    assert err.code == "RPR-V007"
    assert is_transient_exception(err)
    assert [ev["event"] for ev in err.events] == ["accepted"]
    assert listener.connections == 1


def test_parse_address_roundtrip():
    assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    with pytest.raises(ServeError):
        parse_address("no-port-here")
