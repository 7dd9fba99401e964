"""Wire-protocol framing, validation and the shared result schemas."""

import json

import pytest

from repro.errors import ServeError
from repro.serve import protocol


# ---- framing ----------------------------------------------------------------


def test_encode_decode_roundtrip():
    msg = {"op": "submit", "job": {"kind": "sleep", "params": {"n": 1}}}
    line = protocol.encode(msg)
    assert line.endswith(b"\n")
    assert protocol.decode_line(line) == msg
    assert protocol.decode_line(line.decode()) == msg


def test_encode_is_one_line_and_sorted():
    line = protocol.encode({"b": 1, "a": {"z": 2, "y": 3}})
    assert line.count(b"\n") == 1
    assert line.index(b'"a"') < line.index(b'"b"')


def test_decode_rejects_garbage():
    with pytest.raises(ServeError) as exc:
        protocol.decode_line(b"not json at all\n")
    assert exc.value.code == "RPR-V001"


def test_decode_rejects_non_object():
    with pytest.raises(ServeError) as exc:
        protocol.decode_line(b"[1, 2, 3]\n")
    assert exc.value.code == "RPR-V001"


def test_decode_rejects_undecodable_bytes():
    with pytest.raises(ServeError) as exc:
        protocol.decode_line(b"\xff\xfe{}\n")
    assert exc.value.code == "RPR-V001"


# ---- request validation -----------------------------------------------------


def test_parse_request_normalizes_submit():
    req = protocol.parse_request(protocol.submit_request(
        "synth", {"level": "none"}, client="c1", timeout=5))
    assert req == {"op": "submit", "client": "c1", "timeout": 5.0,
                   "job": {"kind": "synth", "params": {"level": "none"}}}


def test_parse_request_defaults_client_and_timeout():
    req = protocol.parse_request({"op": "stats"})
    assert req["client"] == "anon"
    assert req["timeout"] is None


@pytest.mark.parametrize("bad", [
    {"op": "nope"},
    {},
    {"op": "submit"},
    {"op": "submit", "job": "synth"},
    {"op": "submit", "job": {"kind": "frobnicate"}},
    {"op": "submit", "job": {"kind": "synth", "params": []}},
    {"op": "submit", "job": {"kind": "synth"}, "timeout": "soon"},
    {"op": "submit", "job": {"kind": "synth"}, "timeout": -1},
    {"op": "lookup", "fingerprint": "abc"},
])
def test_parse_request_rejects_malformed(bad):
    with pytest.raises(ServeError) as exc:
        protocol.parse_request(bad)
    assert exc.value.code == "RPR-V001"


# ---- events -----------------------------------------------------------------


def test_every_event_carries_schema():
    events = [
        protocol.accepted_event("j1", "synth", "abc", coalesced=True),
        protocol.result_event("j1", "synth", "ok", record={"x": 1}),
        protocol.rejected_event("RPR-V002", "full"),
        protocol.error_event("RPR-V001", "bad"),
    ]
    for ev in events:
        assert ev["schema"] == protocol.PROTOCOL_VERSION
        assert ev["event"] in protocol.TERMINAL_EVENTS + ("accepted",)


def test_result_event_ok_carries_record_not_diagnostics():
    ev = protocol.result_event("j1", "synth", "ok", record={"x": 1},
                               elapsed_s=0.123456)
    assert ev["record"] == {"x": 1}
    assert "diagnostics" not in ev
    assert ev["elapsed_s"] == 0.1235


def test_result_event_failure_carries_sorted_diagnostics():
    diags = [
        {"code": "RPR-E002", "severity": "error", "message": "hang",
         "span": {"file": "b.c", "line": 9, "col": 1}},
        {"code": "RPR-E001", "severity": "error", "message": "crash",
         "span": {"file": "a.c", "line": 2, "col": 1}},
    ]
    ev = protocol.result_event("j1", "synth", "failed", diagnostics=diags,
                               transient=True)
    assert "record" not in ev
    assert ev["transient"] is True
    files = [d["span"]["file"] for d in ev["diagnostics"]]
    assert files == sorted(files)


# ---- canonical records ------------------------------------------------------


def test_canonical_record_strips_only_volatile_keys():
    record = {"point_id": "p", "comb_aluts": 12, "elapsed_s": 0.5,
              "cache_hit": True, "cache_stats": {"hits": 1}, "attempts": 2}
    canon = protocol.canonical_record(record)
    assert canon == {"point_id": "p", "comb_aluts": 12}
    # a miss and a hit of the same point canonicalize identically
    miss = dict(record, cache_hit=False, elapsed_s=3.2,
                cache_stats={"misses": 1}, attempts=1)
    assert protocol.canonical_record(miss) == canon
    # a failed point's bundle path and traceback vary by run too
    failed = dict(record, bundle="runs/r/bundles/p", detail="Traceback ...")
    assert protocol.canonical_record(failed) == canon


# ---- shared summary schemas -------------------------------------------------


class _Run:
    run_id = "r-1"


class _Spec:
    name = "s"
    seeds = (0, 3)


class _SweepResultStub:
    spec = _Spec()
    run = _Run()
    ok = True
    manifest = {"status": "completed"}
    records = {"b": {"point_id": "b"}, "a": {"point_id": "a"}}

    class _P:
        def __init__(self, pid):
            self.point_id = pid

    points = [_P("a"), _P("b")]


def test_sweep_summary_shape_and_record_order():
    s = protocol.sweep_summary(_SweepResultStub())
    assert s["kind"] == "sweep" and s["schema"] == protocol.PROTOCOL_VERSION
    assert s["points"] == ["a", "b"]
    assert [r["point_id"] for r in s["records"]] == ["a", "b"]
    json.dumps(s)  # must be JSON-able as-is


def test_difftest_summary_shape():
    class Stub:
        spec = _Spec()
        run = _Run()
        ok = False
        manifest = {"status": "completed-with-failures"}
        records = {"seed-1": {"point_id": "seed-1"}}
        seed_files = ["lab-runs/x/seed-1.json"]

    s = protocol.difftest_summary(Stub())
    assert s["kind"] == "difftest" and s["ok"] is False
    assert s["seeds"] == [0, 3]
    assert s["seed_files"] == ["lab-runs/x/seed-1.json"]
    json.dumps(s)
