"""End-to-end daemon tests: coalescing proof, load, drain, SIGTERM.

Every test runs a real :class:`ReproServer` on a kernel-assigned port
with real clients over TCP — the same path production traffic takes.
The ``sleep`` job kind (a worker-slot-holding no-op) makes concurrency
scenarios deterministic: a leader that sleeps 1s *will* still be in
flight when the barrier releases the followers.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve.client import ServeClient, parse_address
from repro.serve.protocol import canonical_record
from repro.serve.server import ReproServer, ServeConfig

IDENT = {"app": {"kind": "loopback", "params": {"n": 4}},
         "level": "optimized"}


@pytest.fixture
def server(tmp_path):
    """A live daemon on a fresh cache/store; drained at teardown."""
    srv = ReproServer(ServeConfig(
        max_inflight=4, queue_depth=8, per_client=16,
        cache_root=str(tmp_path / "cache"),
        store_root=str(tmp_path / "runs"),
        drain_timeout=10.0,
    ))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.request_shutdown()
    thread.join(timeout=15)
    assert not thread.is_alive()


def client_for(srv, name="test"):
    return ServeClient(srv.address, client_id=name)


# ---- basic verbs ------------------------------------------------------------


def test_ping_and_stats(server):
    cli = client_for(server)
    pong = cli.ping()
    assert pong["event"] == "pong" and pong["draining"] is False
    stats = cli.stats()
    assert stats["event"] == "stats"
    for section in ("jobs", "coalesce", "admission", "cache", "executor",
                    "codecache", "config"):
        assert section in stats


def test_malformed_request_gets_structured_error(server):
    import socket as socketlib

    with socketlib.create_connection(server.address, timeout=5) as conn:
        conn.sendall(b"this is not json\n")
        reply = json.loads(conn.makefile("rb").readline())
    assert reply["event"] == "error"
    assert reply["code"] == "RPR-V001"


def test_bad_job_params_refused_before_admission(server):
    reply = client_for(server).submit(
        "synth", {"app": {"kind": "no-such-app"}}, timeout=10)
    assert reply.terminal["event"] == "error"
    stats = client_for(server).stats()
    assert stats["admission"]["admitted"] == 0


# ---- the coalescing proof ---------------------------------------------------


def test_n_identical_concurrent_jobs_cost_one_synthesis(server):
    """The issue's acceptance bar: N identical concurrent submits against
    a cold cache run exactly one synthesis — 1 cache miss, the rest
    coalesced onto the leader's flight or served warm — and every client
    receives a byte-identical canonical payload."""
    n = 8
    barrier = threading.Barrier(n)

    def submit(i):
        cli = client_for(server, name=f"c{i}")
        barrier.wait()
        return cli.submit("synth", IDENT, timeout=60)

    with ThreadPoolExecutor(n) as pool:
        replies = list(pool.map(submit, range(n)))

    assert all(r.ok for r in replies)
    stats = client_for(server).stats()
    # exactly one actual synthesis: one app-level miss filled once (the
    # fill stores one artifact per process plus the app-level entry)
    assert stats["cache"]["misses"] == 1
    assert stats["cache"]["stores"] == 1 + 4
    assert stats["cache"]["proc_misses"] == 4
    # every non-leader either coalesced onto the flight or (if it arrived
    # after the leader finished) was served from the warm cache
    coalesced = sum(1 for r in replies if r.coalesced)
    warm_hits = sum(1 for r in replies
                    if not r.coalesced and r.record["cache_hit"])
    assert coalesced + warm_hits == n - 1
    assert stats["jobs"]["coalesced"] == coalesced
    # byte-identical canonical payloads for every client
    payloads = {json.dumps(canonical_record(r.record), sort_keys=True)
                for r in replies}
    assert len(payloads) == 1
    # all clients saw the same fingerprint
    assert len({r.fingerprint for r in replies}) == 1


def test_sleep_jobs_coalesce_deterministically(server):
    """With a slow leader, every follower provably rides the flight (no
    cache involved for the sleep kind): 1 leader, n-1 followers."""
    n = 6
    barrier = threading.Barrier(n)

    def submit(i):
        cli = client_for(server, name=f"s{i}")
        barrier.wait()
        return cli.submit("sleep", {"seconds": 1.0, "token": "same"},
                          timeout=30)

    with ThreadPoolExecutor(n) as pool:
        replies = list(pool.map(submit, range(n)))
    assert all(r.ok for r in replies)
    assert sum(1 for r in replies if r.coalesced) == n - 1
    stats = client_for(server).stats()
    assert stats["coalesce"]["leaders"] >= 1
    assert stats["coalesce"]["followers"] == n - 1


def test_distinct_jobs_do_not_coalesce(server):
    cli = client_for(server)
    r1 = cli.submit("sleep", {"seconds": 0.01, "token": "a"}, timeout=10)
    r2 = cli.submit("sleep", {"seconds": 0.01, "token": "b"}, timeout=10)
    assert r1.ok and r2.ok
    assert r1.fingerprint != r2.fingerprint
    assert not r1.coalesced and not r2.coalesced


# ---- mixed-type concurrent load ---------------------------------------------


def test_mixed_job_types_from_concurrent_clients(server):
    """Four clients, four different job kinds, all in flight at once."""
    jobs = [
        ("synth", {"app": {"kind": "loopback", "params": {"n": 3}},
                   "level": "none"}),
        ("sweep", {"name": "load", "levels": ["none"],
                   "apps": [{"kind": "loopback", "params": {"n": 4}}]}),
        ("campaign", {"app": "loopback", "count": 2, "levels": ["none"]}),
        ("sleep", {"seconds": 0.2, "token": "load"}),
    ]
    barrier = threading.Barrier(len(jobs))

    def submit(i):
        kind, params = jobs[i]
        cli = client_for(server, name=f"mix{i}")
        barrier.wait()
        return kind, cli.submit(kind, params, timeout=120)

    with ThreadPoolExecutor(len(jobs)) as pool:
        results = list(pool.map(submit, range(len(jobs))))

    for kind, reply in results:
        assert reply.ok, (kind, reply.terminal)
    by_kind = {kind: reply for kind, reply in results}
    assert by_kind["sweep"].record["kind"] == "sweep"
    assert by_kind["sweep"].record["ok"] is True
    assert by_kind["campaign"].record["kind"] == "campaign"
    assert by_kind["campaign"].record["ok"] is True
    assert by_kind["synth"].record["comb_aluts"] > 0
    stats = client_for(server).stats()
    assert stats["jobs"]["by_kind"] == {
        "synth": 1, "sweep": 1, "campaign": 1, "sleep": 1}
    # sweep/campaign manifests folded their executor stats into the
    # daemon aggregate (counters may be zero, but the merge ran)
    assert stats["executor"]["retries"] >= 0


# ---- admission over the wire ------------------------------------------------


def test_capacity_rejection_over_the_wire(tmp_path):
    srv = ReproServer(ServeConfig(
        max_inflight=1, queue_depth=0, per_client=16,
        cache_root=str(tmp_path / "cache"),
        store_root=str(tmp_path / "runs")))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        hold = ThreadPoolExecutor(1).submit(
            lambda: client_for(srv, "holder").submit(
                "sleep", {"seconds": 2.0, "token": "hold"}, timeout=30))
        # wait until the holder's job is actually running
        _wait_for(lambda: srv.job_counters()["active"], "holder job")
        reply = client_for(srv, "late").submit(
            "sleep", {"seconds": 0.1, "token": "other"}, timeout=10)
        assert reply.rejected
        assert reply.terminal["code"] == "RPR-V002"
        # ...but an *identical* request coalesces instead of rejecting:
        # followers don't consume global capacity
        rider = client_for(srv, "rider").submit(
            "sleep", {"seconds": 2.0, "token": "hold"}, timeout=30)
        assert rider.ok and rider.coalesced
        assert hold.result(timeout=30).ok
    finally:
        srv.request_shutdown()
        thread.join(timeout=10)


def test_per_client_limit_rejects_the_greedy_client(tmp_path):
    srv = ReproServer(ServeConfig(
        max_inflight=4, queue_depth=8, per_client=1,
        cache_root=str(tmp_path / "cache"),
        store_root=str(tmp_path / "runs")))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        hold = ThreadPoolExecutor(1).submit(
            lambda: ServeClient(srv.address, client_id="greedy").submit(
                "sleep", {"seconds": 2.0, "token": "g1"}, timeout=30))
        _wait_for(lambda: srv.job_counters()["active"], "greedy job")
        second = ServeClient(srv.address, client_id="greedy").submit(
            "sleep", {"seconds": 0.1, "token": "g2"}, timeout=10)
        assert second.rejected
        assert second.terminal["code"] == "RPR-V003"
        # a different client id is unaffected
        other = ServeClient(srv.address, client_id="polite").submit(
            "sleep", {"seconds": 0.1, "token": "g3"}, timeout=10)
        assert other.ok
        assert hold.result(timeout=30).ok
    finally:
        srv.request_shutdown()
        thread.join(timeout=10)


# ---- timeouts and failures --------------------------------------------------


def test_job_timeout_is_transient_and_structured(server):
    reply = client_for(server).submit(
        "sleep", {"seconds": 5.0, "token": "slow"}, timeout=0.3)
    term = reply.terminal
    assert term["status"] == "timeout"
    assert term["transient"] is True
    assert reply.diagnostics[0]["code"] == "RPR-E002"


def test_failing_job_returns_classified_diagnostics(server):
    # an unknown campaign target fingerprints fine but fails at run time
    reply = client_for(server).submit(
        "campaign", {"app": "no-such-target", "count": 1}, timeout=30)
    term = reply.terminal
    assert term["status"] == "failed"
    assert term["transient"] is False  # a deterministic error: no retry
    assert reply.diagnostics, term


# ---- shutdown ---------------------------------------------------------------


def test_drain_finishes_inflight_work(tmp_path):
    srv = ReproServer(ServeConfig(
        max_inflight=2, cache_root=str(tmp_path / "cache"),
        store_root=str(tmp_path / "runs"), drain_timeout=10.0))
    report = {}

    def run():
        report.update(srv.serve_forever())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    inflight = ThreadPoolExecutor(1).submit(
        lambda: ServeClient(srv.address, client_id="d").submit(
            "sleep", {"seconds": 1.0, "token": "drain"}, timeout=30))
    _wait_for(lambda: srv.job_counters()["active"], "in-flight job")
    srv.request_shutdown()
    thread.join(timeout=15)
    assert not thread.is_alive()
    assert report["drained"] is True
    assert report["abandoned_jobs"] == 0
    # the in-flight job completed despite the shutdown racing it
    assert inflight.result(timeout=10).ok


def test_shutdown_verb_drains_the_daemon(server):
    reply = client_for(server).shutdown()
    assert reply["event"] == "shutdown"
    # the fixture's teardown asserts the serve thread actually exited


# ---- the full binary under SIGTERM ------------------------------------------


def test_cli_daemon_sigterm_drains_cleanly(tmp_path):
    """`repro serve` as a real subprocess: SIGTERM -> drain -> exit 0."""
    addr_file = tmp_path / "serve.addr"
    env = dict(os.environ)
    src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_root) + os.pathsep + \
        env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "2", "--cache", str(tmp_path / "cache"),
         "--store", str(tmp_path / "runs"),
         "--address-file", str(addr_file)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, cwd=str(tmp_path))
    try:
        import time
        for _ in range(100):
            if addr_file.exists() and addr_file.read_text().strip():
                break
            time.sleep(0.1)
        else:
            pytest.fail("daemon never wrote its address file")
        address = parse_address(addr_file.read_text().strip())
        cli = ServeClient(address, client_id="sig")
        reply = cli.submit(
            "synth",
            {"app": {"kind": "loopback", "params": {"n": 3}},
             "level": "none"}, timeout=60)
        assert reply.ok
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        assert "drained=True" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)


# ---- drain with coalesced followers -----------------------------------------


def _submit_async(srv, name, params):
    return ThreadPoolExecutor(1).submit(
        lambda: ServeClient(srv.address, client_id=name).submit(
            "sleep", params, timeout=30))


def _sleep_fingerprint(params):
    from repro.serve.jobs import JobSpec, job_fingerprint

    return job_fingerprint(JobSpec(kind="sleep", params=params))


def _wait_for(predicate, what, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    pytest.fail(f"timed out waiting for {what}")


def test_drain_delivers_results_to_waiting_followers(tmp_path):
    """SIGTERM with riders on board: a drain must hold the connection
    open until the leader finishes, so every coalesced follower receives
    its terminal event over the wire — never a silent hangup."""
    srv = ReproServer(ServeConfig(
        max_inflight=2, cache_root=str(tmp_path / "cache"),
        store_root=str(tmp_path / "runs"), drain_timeout=10.0))
    report = {}
    thread = threading.Thread(
        target=lambda: report.update(srv.serve_forever()), daemon=True)
    thread.start()

    params = {"seconds": 1.2, "token": "drain-followers"}
    fp = _sleep_fingerprint(params)
    leader = _submit_async(srv, "lead", params)
    _wait_for(lambda: srv.coalescer.flight_info(fp)[0], "leader flight")
    followers = [_submit_async(srv, f"f{i}", params) for i in range(2)]
    _wait_for(lambda: srv.coalescer.flight_info(fp)[1] == 2, "followers")

    srv.request_shutdown()
    thread.join(timeout=15)
    assert not thread.is_alive()
    assert report["drained"] is True
    assert report["aborted_flights"] == 0  # nobody needed last rites

    for fut in [leader, *followers]:
        reply = fut.result(timeout=10)
        assert reply.ok
        assert reply.terminal["event"] == "result"
    # exactly one execution happened for all three clients
    assert srv.job_counters()["coalesced"] == 2


def test_abandoned_drain_aborts_followers_with_terminal_failure(tmp_path):
    """When the drain deadline abandons a job, waiting followers must
    still get a terminal event — a transient RPR-V004 failure they can
    re-route — instead of hanging on a dead daemon."""
    srv = ReproServer(ServeConfig(
        max_inflight=2, cache_root=str(tmp_path / "cache"),
        store_root=str(tmp_path / "runs"), drain_timeout=0.3))
    report = {}
    thread = threading.Thread(
        target=lambda: report.update(srv.serve_forever()), daemon=True)
    thread.start()

    params = {"seconds": 3.0, "token": "abandoned"}
    fp = _sleep_fingerprint(params)
    leader = _submit_async(srv, "lead", params)
    _wait_for(lambda: srv.coalescer.flight_info(fp)[0], "leader flight")
    follower = _submit_async(srv, "follower", params)
    _wait_for(lambda: srv.coalescer.flight_info(fp)[1] == 1, "follower")

    srv.request_shutdown()
    thread.join(timeout=15)
    assert not thread.is_alive()
    assert report["drained"] is False
    assert report["abandoned_jobs"] == 1
    assert report["aborted_flights"] >= 1

    reply = follower.result(timeout=10)
    term = reply.terminal
    assert term["event"] == "result" and term["status"] == "failed"
    assert term["transient"] is True
    assert any(d["code"] == "RPR-V004" for d in term["diagnostics"])
    # the leader's worker finishes anyway; its client gets the real result
    assert leader.result(timeout=15).ok


def test_riders_join_during_drain_but_new_work_is_rejected(server):
    """The accept/drain race window: a request for an already-flying
    fingerprint is a rider (its leader predates the drain) and is
    admitted; genuinely new work is refused with RPR-V004."""
    params = {"seconds": 1.0, "token": "rider"}
    fp = _sleep_fingerprint(params)
    leader = _submit_async(server, "lead", params)
    _wait_for(lambda: server.coalescer.flight_info(fp)[0], "leader flight")

    server.admission.start_drain()
    rider = client_for(server, "rider").submit("sleep", params, timeout=30)
    assert rider.ok and rider.coalesced

    fresh = client_for(server, "fresh").submit(
        "sleep", {"seconds": 0.1, "token": "new-work"}, timeout=30)
    assert fresh.rejected
    assert fresh.terminal["code"] == "RPR-V004"
    assert leader.result(timeout=10).ok
