"""The fabric client: deterministic shard assignment, failover as one
walk over the sorted peer list, the status probe, merge byte-identity,
and one synthesis per key across daemons that share only a cache
directory."""

import json
import threading

import pytest

from repro.cli import main
from repro.errors import ServeError
from repro.faults.campaign import run_campaign
from repro.lab.retry import RetryPolicy
from repro.lab.shard import merge_runs
from repro.serve import canonical_record
from repro.serve.client import ServeClient, SubmitReply
from repro.serve.fabric import peer_status, run_fabric
from repro.serve.server import ReproServer, ServeConfig

ADDRS = ["10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001"]

#: millisecond backoffs so failover tests don't sleep for real
FAST_RETRY = RetryPolicy(max_attempts=8, base_delay=0.001,
                         max_delay=0.002, breaker=None)


def ok_reply(run_id=None):
    record = {"kind": "test"}
    if run_id:
        record["run_id"] = run_id
    return SubmitReply(events=[
        {"schema": 1, "event": "accepted", "job_id": "j1"},
        {"schema": 1, "event": "result", "status": "ok", "record": record},
    ])


def rejected_reply(code):
    return SubmitReply(events=[
        {"schema": 1, "event": "rejected", "code": code, "message": "no"},
    ])


def result_reply(status, transient=False, diagnostics=()):
    return SubmitReply(events=[
        {"schema": 1, "event": "accepted", "job_id": "j1"},
        {"schema": 1, "event": "result", "status": status,
         "transient": transient, "diagnostics": list(diagnostics)},
    ])


class ScriptedMesh:
    """A fabric of scripted daemons: each address pops outcomes off its
    script (an exception instance raises, a reply returns); when the
    script runs dry the peer answers ok. Every submit is recorded.
    Pings fail for addresses in ``dead`` and report ``draining``."""

    def __init__(self):
        self.scripts = {}
        self.submits = []  # (address, kind, params) in arrival order
        self.dead = set()
        self.draining = set()
        self.pings = []

    def script(self, address, *outcomes):
        self.scripts[address] = list(outcomes)

    def __call__(self, address):
        mesh = self

        class _Client:
            def submit(self, kind, params, timeout=None):
                mesh.submits.append((address, kind, dict(params)))
                script = mesh.scripts.get(address)
                outcome = script.pop(0) if script else ok_reply()
                if isinstance(outcome, BaseException):
                    raise outcome
                return outcome

            def ping(self, timeout=None):
                mesh.pings.append(address)
                if address in mesh.dead:
                    raise ServeError(f"{address} is dead", code="RPR-V006")
                return {"event": "pong",
                        "draining": address in mesh.draining}

        return _Client()


def run(mesh, params=None, addrs=ADDRS, **kw):
    kw.setdefault("retry", FAST_RETRY)
    return run_fabric(addrs, "sleep",
                      {"seconds": 0} if params is None else params,
                      "unused-store", client_factory=mesh, **kw)


# ---- happy path -------------------------------------------------------------


def test_shards_land_on_distinct_home_peers(tmp_path):
    mesh = ScriptedMesh()
    result = run(mesh)
    assert result.ok
    assert result.rerouted_shards == 0
    assert [s.shard for s in result.shards] == ["1/3", "2/3", "3/3"]
    # deterministic assignment: shard k -> k-th peer in sorted order
    by_shard = {p["shard"]: a for a, _, p in mesh.submits}
    assert by_shard == {"1/3": ADDRS[0], "2/3": ADDRS[1],
                        "3/3": ADDRS[2]}


def test_caller_params_are_not_mutated(tmp_path):
    mesh = ScriptedMesh()
    params = {"seconds": 0}
    run(mesh, params)
    assert params == {"seconds": 0}  # shard key added to a copy only


def test_more_shards_than_peers_wraps_deterministically():
    mesh = ScriptedMesh()
    result = run(mesh, addrs=ADDRS[:2], shards=4)
    assert result.ok and len(result.shards) == 4
    homes = [a for a, _, _ in mesh.submits]
    assert sorted(homes) == sorted([ADDRS[0], ADDRS[1]] * 2)
    by_shard = {p["shard"]: a for a, _, p in mesh.submits}
    assert by_shard["1/4"] == ADDRS[0] and by_shard["2/4"] == ADDRS[1]
    assert by_shard["3/4"] == ADDRS[0] and by_shard["4/4"] == ADDRS[1]


def test_no_routable_peers_is_an_error():
    """An empty peer list is a coded configuration error, not a
    zero-shard run."""
    mesh = ScriptedMesh()
    for addrs in ([], ["", "  "]):
        with pytest.raises(ServeError) as exc:
            run(mesh, addrs=addrs)
        assert exc.value.code == "RPR-V005"
    assert mesh.submits == []


# ---- failover: one walk over the sorted peer list ---------------------------


def test_dead_peer_shard_reroutes_to_next_survivor():
    mesh = ScriptedMesh()
    dead = ServeError("connection refused", code="RPR-V006")
    mesh.script(ADDRS[0], dead, dead, dead, dead)
    result = run(mesh)
    assert result.ok
    assert result.rerouted_shards == 1
    (moved,) = [s for s in result.shards if s.rerouted]
    assert moved.shard == "1/3"
    assert [h["peer"] for h in moved.attempts] == [ADDRS[0], ADDRS[1]]
    assert moved.attempts[0]["outcome"] == "error:RPR-V006"
    assert moved.attempts[1]["outcome"] == "ok"


def test_failover_walks_the_peer_list_cyclically_from_home():
    """Every transient failure moves the shard one peer further along
    the sorted cyclic order, starting at its home peer."""
    mesh = ScriptedMesh()
    mesh.script(ADDRS[0], ServeError("refused", code="RPR-V006"))
    mesh.script(ADDRS[1], ServeError("cut", code="RPR-V007"))
    result = run(mesh, shards=1)
    (shard,) = result.shards
    assert shard.ok and shard.peer == ADDRS[2]
    assert shard.attempts == [
        {"peer": ADDRS[0], "outcome": "error:RPR-V006"},
        {"peer": ADDRS[1], "outcome": "error:RPR-V007"},
        {"peer": ADDRS[2], "outcome": "ok"},
    ]


def test_truncated_stream_reroutes():
    mesh = ScriptedMesh()
    cut = ServeError("died mid-stream", code="RPR-V007")
    mesh.script(ADDRS[1], cut)
    result = run(mesh)
    assert result.ok
    (moved,) = [s for s in result.shards if s.rerouted]
    assert moved.shard == "2/3"
    assert [h["peer"] for h in moved.attempts] == [ADDRS[1], ADDRS[2]]


def test_draining_peer_rejection_reroutes():
    mesh = ScriptedMesh()
    mesh.script(ADDRS[0], rejected_reply("RPR-V004"))
    result = run(mesh)
    assert result.ok
    (moved,) = [s for s in result.shards if s.rerouted]
    assert moved.attempts[0]["outcome"] == "rejected:RPR-V004"
    assert moved.peer == ADDRS[1]


def test_timeout_outcome_reroutes():
    mesh = ScriptedMesh()
    mesh.script(ADDRS[2], result_reply("timeout", transient=True))
    result = run(mesh)
    assert result.ok
    (moved,) = [s for s in result.shards if s.rerouted]
    assert moved.attempts[0]["outcome"].startswith("timeout")
    assert moved.peer == ADDRS[0]  # 3/3's next peer wraps to the front


def test_permanent_failure_fails_fast_without_rerouting():
    mesh = ScriptedMesh()
    diag = {"code": "RPR-E001", "severity": "error", "message": "crash"}
    mesh.script(ADDRS[0], result_reply("failed", diagnostics=[diag]))
    result = run(mesh, shards=1)
    assert not result.ok
    (shard,) = result.shards
    assert shard.status == "failed"
    assert len(shard.attempts) == 1  # a broken job fails once, not N times
    assert shard.diagnostics == [diag]
    assert result.merge is None
    # only the home peer ever saw the job
    assert {a for a, _, _ in mesh.submits} == {ADDRS[0]}


def test_invalid_job_error_is_permanent():
    mesh = ScriptedMesh()
    mesh.script(ADDRS[0], ServeError("bad params", code="RPR-V001"))
    result = run(mesh, shards=1)
    (shard,) = result.shards
    assert shard.status == "failed"
    assert shard.diagnostics[0]["code"] == "RPR-V001"
    assert not shard.rerouted


def test_shard_is_lost_when_no_survivor_remains():
    mesh = ScriptedMesh()
    dead = ServeError("refused", code="RPR-V006")
    mesh.script(ADDRS[0], dead, dead, dead, dead)
    result = run(mesh, addrs=ADDRS[:1])
    (shard,) = result.shards
    assert shard.status == "lost"
    assert not result.ok
    assert shard.attempts == [{"peer": ADDRS[0],
                               "outcome": "error:RPR-V006"}]


def test_reroute_budget_bounds_the_ping_pong():
    """The attempt bound is the peer count: a shard tries each peer
    exactly once, then is lost — it never ping-pongs between them."""
    mesh = ScriptedMesh()
    dead = ServeError("refused", code="RPR-V006")
    for addr in ADDRS[:2]:
        mesh.script(addr, *[dead] * 8)
    result = run(mesh, addrs=ADDRS[:2], shards=1)
    (shard,) = result.shards
    assert shard.status == "lost"
    assert [h["peer"] for h in shard.attempts] == ADDRS[:2]
    assert [a for a, _, _ in mesh.submits] == ADDRS[:2]


# ---- fabric status: one ping per peer ---------------------------------------


def test_status_pings_every_peer_including_dead_ones():
    mesh = ScriptedMesh()
    mesh.dead.add(ADDRS[1])
    status = peer_status(reversed(ADDRS), client_factory=mesh)
    assert list(status) == ADDRS
    assert sorted(mesh.pings) == ADDRS  # exactly one ping each
    assert {a: s["alive"] for a, s in status.items()} == {
        ADDRS[0]: True, ADDRS[1]: False, ADDRS[2]: True}
    assert status[ADDRS[0]]["error"] is None
    assert "dead" in status[ADDRS[1]]["error"]


def test_status_notices_draining_peers():
    mesh = ScriptedMesh()
    mesh.draining.add(ADDRS[2])
    status = peer_status(ADDRS, client_factory=mesh)
    assert status[ADDRS[2]] == {"alive": True, "draining": True,
                                "error": None}
    assert status[ADDRS[0]]["draining"] is False


# ---- live fabric: 3 daemons, one refuses, bytes still canonical -------------


CAMPAIGN = {"app": "loopback", "seed": 7, "count": 4,
            "levels": ["none", "optimized"]}


def _spawn(tmp_path, name, cache="cache"):
    srv = ReproServer(ServeConfig(
        max_inflight=2, cache_root=str(tmp_path / cache),
        store_root=str(tmp_path / "store"), drain_timeout=10.0,
        name=name))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv, thread


def _stop(servers):
    for srv, thread in servers:
        srv.request_shutdown()
        thread.join(timeout=15)
        assert not thread.is_alive()


def test_fabric_survives_a_draining_peer_and_merges_identically(tmp_path):
    """The tentpole invariant, live: shard a campaign over three real
    daemons, have one refuse all work (draining), and assert the merged
    output is byte-identical to a clean unsharded run."""
    servers = [_spawn(tmp_path, f"node{i}") for i in range(3)]
    try:
        addrs = sorted(f"{s.address[0]}:{s.address[1]}"
                       for s, _ in servers)
        victim_addr = addrs[0]  # home of shard 1/3
        victim = next(s for s, _ in servers
                      if f"{s.address[0]}:{s.address[1]}" == victim_addr)
        victim.admission.start_drain()  # rejects everything: RPR-V004

        result = run_fabric(addrs, "campaign", CAMPAIGN,
                            str(tmp_path / "store"), retry=FAST_RETRY,
                            timeout=300)

        assert result.ok
        assert result.rerouted_shards >= 1
        moved = [s for s in result.shards if s.rerouted]
        assert any(h["peer"] == victim_addr and "RPR-V004" in h["outcome"]
                   for s in moved for h in s.attempts)
        assert all(s.peer != victim_addr for s in result.shards)
        assert result.merge is not None

        # byte-identity vs a clean, unsharded, daemon-free run
        solo = run_campaign(
            target="loopback", levels=("none", "optimized"), seed=7,
            count=4, nabort=False, jobs=1,
            cache_root=str(tmp_path / "cache"),
            store_root=str(tmp_path / "solo"))
        solo_merge = merge_runs(str(tmp_path / "solo"), solo.run_id)
        assert result.merge.run.results_path.read_bytes() == \
            solo_merge.run.results_path.read_bytes()
        assert result.merge.matrix_path.read_bytes() == \
            solo_merge.matrix_path.read_bytes()
    finally:
        _stop(servers)


def test_cli_status_exit_code_tracks_liveness(tmp_path, capsys):
    """`repro fabric status` exits 0 while any peer answers a ping and
    1 when none does."""
    dead = "127.0.0.1:1"
    assert main(["fabric", "--peers", dead, "status"]) == 1
    assert json.loads(capsys.readouterr().out)[dead]["alive"] is False

    servers = [_spawn(tmp_path, "live")]
    try:
        live = "{}:{}".format(*servers[0][0].address)
        assert main(["fabric", "--peers", f"{live},{dead}", "status"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status[live] == {"alive": True, "draining": False,
                                "error": None}
        assert status[dead]["alive"] is False
    finally:
        _stop(servers)


@pytest.mark.parametrize("shards", ["0", "-1"])
def test_cli_bad_shard_count_exits_with_the_code(shards):
    """--shards 0 is an error, not "one per peer"; --shards -1 is an
    error, not a zero-shard run."""
    with pytest.raises(SystemExit) as exc:
        main(["fabric", "--peers", "127.0.0.1:1", "--shards", shards,
              "--json", "campaign"])
    assert "RPR-W010" in str(exc.value.code)


# ---- cross-daemon dedup: fill leases over a shared cache --------------------


SYNTH = {"app": {"kind": "pipeline", "params": {"stages": 6}},
         "level": "optimized"}


def test_daemons_sharing_a_cache_fill_each_key_once(tmp_path):
    """Two peerless daemons over one cache directory, racing on the same
    synth job, write exactly what one daemon alone writes: the cache's
    fill leases (or a warm hit) make the second execution free."""
    solo, solo_thread = _spawn(tmp_path, "solo", cache="solo-cache")
    try:
        alone = ServeClient(solo.address, client_id="alone").submit(
            "synth", SYNTH, timeout=120)
        assert alone.ok
        alone_cache = solo.stats()["cache"]
    finally:
        _stop([(solo, solo_thread)])

    servers = [_spawn(tmp_path, f"shared{i}") for i in range(2)]
    try:
        barrier = threading.Barrier(len(servers))
        replies = [None] * len(servers)

        def go(i, srv):
            client = ServeClient(srv.address, client_id=f"c{i}")
            barrier.wait()
            replies[i] = client.submit("synth", SYNTH, timeout=120)

        threads = [threading.Thread(target=go, args=(i, srv))
                   for i, (srv, _) in enumerate(servers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert all(r is not None and r.ok for r in replies), replies

        caches = [srv.stats()["cache"] for srv, _ in servers]
        for key in ("stores", "proc_misses"):
            assert sum(c[key] for c in caches) == alone_cache[key], \
                (key, caches, alone_cache)
        assert canonical_record(replies[0].record) == \
            canonical_record(replies[1].record) == \
            canonical_record(alone.record)
    finally:
        _stop(servers)
