"""Network-layer chaos against the serve fabric: refused connects,
truncated streams, delayed replies, and the hardest fault — a daemon
SIGKILL'd mid-campaign — with the byte-identity invariant asserted
across the failover."""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ServeError
from repro.faults.campaign import run_campaign
from repro.lab.chaos import ChaosSpec
from repro.lab.retry import RetryPolicy, is_transient_exception
from repro.lab.shard import merge_runs
from repro.serve.client import ServeClient, parse_address
from repro.serve.fabric import FabricRouter
from repro.serve.peers import PeerRegistry
from repro.serve.server import ReproServer, ServeConfig


def _spawn(tmp_path):
    srv = ReproServer(ServeConfig(
        max_inflight=2, cache_root=str(tmp_path / "cache"),
        store_root=str(tmp_path / "store"), drain_timeout=10.0))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv, thread


def _stop(srv, thread):
    srv.request_shutdown()
    thread.join(timeout=15)
    assert not thread.is_alive()


def _arm(monkeypatch, tmp_path, **kw):
    spec = ChaosSpec(state_dir=str(tmp_path / "chaos"), **kw)
    monkeypatch.setenv("REPRO_CHAOS", spec.to_env())
    return spec


# ---- connect faults: the client's bounded reconnect loop --------------------


def test_refused_connect_is_retried_transparently(tmp_path, monkeypatch):
    """One chaos-refused connect must be invisible to the caller: the
    client's RetryPolicy-backed reconnect loop absorbs it."""
    srv, thread = _spawn(tmp_path)
    try:
        _arm(monkeypatch, tmp_path, connect_refuse=1.0,
             only=("serve-connect",))
        reply = ServeClient(srv.address, client_id="c").submit(
            "sleep", {"seconds": 0.02, "token": "retry"}, timeout=30)
        assert reply.ok
        # the fault fired exactly once (the ledger claimed it)
        fired = list((tmp_path / "chaos").glob("connect_refuse-*.fired"))
        assert len(fired) == 1
    finally:
        _stop(srv, thread)


def test_single_attempt_client_never_retries(tmp_path, monkeypatch):
    """connect_attempts=1 means fail fast — the peer registry's pings and
    fabric router want the raw verdict, not a masked one."""
    srv, thread = _spawn(tmp_path)
    try:
        _arm(monkeypatch, tmp_path, connect_refuse=1.0,
             only=("serve-connect",))
        with pytest.raises(ServeError) as exc:
            ServeClient(srv.address, client_id="c",
                        connect_attempts=1).ping()
        assert exc.value.code == "RPR-V006"
    finally:
        _stop(srv, thread)


def test_dead_daemon_exhausts_retries_with_v006():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nobody is listening here now
    client = ServeClient(("127.0.0.1", port), client_id="c",
                         connect_attempts=2,
                         retry_policy=RetryPolicy(
                             max_attempts=2, base_delay=0.01,
                             max_delay=0.02, breaker=None))
    with pytest.raises(ServeError) as exc:
        client.ping()
    assert exc.value.code == "RPR-V006"
    assert is_transient_exception(exc.value)


# ---- stream faults: truncation vs delay -------------------------------------


def test_midstream_cut_raises_transient_v007_with_partial_events(
        tmp_path, monkeypatch):
    """A daemon dying after ``accepted`` is a *different* failure from
    one that never answered: RPR-V007, transient, partial events kept,
    and never blindly retried by the client itself."""
    srv, thread = _spawn(tmp_path)
    try:
        _arm(monkeypatch, tmp_path, stream_cut=1.0, only=("serve-stream",))
        params = {"seconds": 0.02, "token": "cut"}
        with pytest.raises(ServeError) as exc:
            ServeClient(srv.address, client_id="c").submit(
                "sleep", params, timeout=30)
        err = exc.value
        assert err.code == "RPR-V007"
        assert is_transient_exception(err)
        assert [ev["event"] for ev in err.events] == ["accepted"]
        # resubmission is the *caller's* decision — and it succeeds,
        # because the fault ledger fired the cut exactly once
        reply = ServeClient(srv.address, client_id="c").submit(
            "sleep", params, timeout=30)
        assert reply.ok
    finally:
        _stop(srv, thread)


def test_delayed_reply_stalls_the_terminal_event(tmp_path, monkeypatch):
    srv, thread = _spawn(tmp_path)
    try:
        _arm(monkeypatch, tmp_path, reply_delay=1.0, delay_s=0.4,
             only=("serve-reply",))
        t0 = time.monotonic()
        reply = ServeClient(srv.address, client_id="c").submit(
            "sleep", {"seconds": 0.02, "token": "slow"}, timeout=30)
        assert reply.ok
        assert time.monotonic() - t0 >= 0.4
    finally:
        _stop(srv, thread)


# ---- the marquee chaos test: SIGKILL one of three daemons mid-campaign ------


def _spawn_daemon(tmp_path, name, extra_env=None):
    addr_file = tmp_path / f"{name}.addr"
    env = dict(os.environ)
    env.pop("REPRO_CHAOS", None)  # only the victim gets chaos
    src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_root) + os.pathsep + \
        env.get("PYTHONPATH", "")
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "2", "--name", name,
         "--cache", str(tmp_path / "cache"),
         "--store", str(tmp_path / "store"),
         "--address-file", str(addr_file)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, cwd=str(tmp_path))
    return proc, addr_file


def _await_address(proc, addr_file):
    for _ in range(100):
        if proc.poll() is not None:
            pytest.fail(f"daemon died on startup: {proc.stdout.read()}")
        if addr_file.exists() and addr_file.read_text().strip():
            return addr_file.read_text().strip()
        time.sleep(0.1)
    pytest.fail("daemon never wrote its address file")


def test_fabric_survives_a_daemon_sigkill_mid_campaign(tmp_path):
    """Kill 1 of 3 real daemons (chaos SIGKILL as its shard starts
    executing) and assert the full robustness story: the shard re-routes,
    the merged bytes equal a clean single-process run, and the victim's
    write-ahead journal surfaces the orphaned job on restart."""
    victim_name = "chaos-victim"
    chaos_env = {"REPRO_CHAOS": ChaosSpec(
        state_dir=str(tmp_path / "chaos"), daemon_kill=1.0,
        only=("serve-exec",)).to_env()}
    daemons = [
        _spawn_daemon(tmp_path, victim_name, extra_env=chaos_env),
        _spawn_daemon(tmp_path, "node-1"),
        _spawn_daemon(tmp_path, "node-2"),
    ]
    try:
        addrs = sorted(_await_address(proc, af) for proc, af in daemons)
        victim_proc = daemons[0][0]

        registry = PeerRegistry(addrs)
        router = FabricRouter(
            registry, store_root=str(tmp_path / "store"),
            retry=RetryPolicy(max_attempts=8, base_delay=0.05,
                              max_delay=0.2, breaker=None),
            timeout=300)
        result = router.run("campaign", {
            "app": "loopback", "seed": 11, "count": 4,
            "levels": ["none", "optimized"]})

        assert result.ok
        assert result.rerouted_shards >= 1
        # the victim really was SIGKILL'd (by itself, mid-execution)
        victim_proc.wait(timeout=15)
        assert victim_proc.returncode == -signal.SIGKILL
        # the failed hop is on the audit trail as a truncated stream
        assert any(h["outcome"] == "error:RPR-V007"
                   for s in result.shards for h in s.attempts)

        # byte-identity: the merged fabric run == a clean local run
        solo = run_campaign(
            target="loopback", levels=("none", "optimized"), seed=11,
            count=4, nabort=False, jobs=1,
            cache_root=str(tmp_path / "cache"),
            store_root=str(tmp_path / "solo"))
        solo_merge = merge_runs(str(tmp_path / "solo"), solo.run_id)
        assert result.merge.run.results_path.read_bytes() == \
            solo_merge.run.results_path.read_bytes()
        assert result.merge.matrix_path.read_bytes() == \
            solo_merge.matrix_path.read_bytes()

        # the victim's WAL journal: accepted, never done -> orphaned,
        # and a restarted daemon with the same name reports it
        restarted = ReproServer(ServeConfig(
            cache_root=str(tmp_path / "cache"),
            store_root=str(tmp_path / "store"), name=victim_name))
        try:
            journal = restarted.stats()["journal"]
            assert journal["epoch"] == 2
            assert journal["orphaned"] >= 1
            assert any(o["kind"] == "campaign"
                       for o in journal["orphans"])
        finally:
            restarted._listener.close()
    finally:
        for proc, _ in daemons:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc, _ in daemons:
            if proc.poll() is None:
                try:
                    proc.communicate(timeout=20)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate(timeout=10)


def test_parse_address_roundtrip():
    assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    with pytest.raises(ServeError):
        parse_address("no-port-here")
