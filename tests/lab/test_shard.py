"""Sharding: deterministic partition, merge identity, error codes."""

import json

import pytest

from repro.errors import ReproError
from repro.lab.shard import (
    ShardError,
    ShardSpec,
    base_run_id,
    canonical_record,
    find_run_group,
    merge_runs,
)
from repro.lab.store import ResultStore


# ---- spec parsing and validation ----------------------------------------

def test_parse_and_labels():
    spec = ShardSpec.parse("2/8")
    assert (spec.index, spec.total) == (2, 8)
    assert spec.label == "s2of8"
    assert spec.run_id("sweep-abc") == "sweep-abc.s2of8"
    assert base_run_id("sweep-abc.s2of8") == "sweep-abc"
    assert base_run_id("sweep-abc") == "sweep-abc"


def test_bad_specs_rejected_with_codes():
    with pytest.raises(ShardError) as exc:
        ShardSpec(0, 4)
    assert exc.value.code == "RPR-W010"
    with pytest.raises(ShardError) as exc:
        ShardSpec(5, 4)
    assert exc.value.code == "RPR-W010"
    with pytest.raises(ShardError) as exc:
        ShardSpec.parse("2-8")
    assert exc.value.code == "RPR-W011"
    for total in (0, -1):
        with pytest.raises(ShardError) as exc:
            ShardSpec.partition(total)
        assert exc.value.code == "RPR-W010"


def test_shards_partition_the_space_exactly():
    """Every token lands in exactly one shard, for any N."""
    tokens = [f"point-{i}" for i in range(200)]
    for total in (1, 2, 3, 7):
        shards = [ShardSpec(k, total) for k in range(1, total + 1)]
        selected = [s.select(tokens) for s in shards]
        combined = sorted(tok for part in selected for tok in part)
        assert combined == sorted(tokens)
        if total > 1:
            # the stable hash actually spreads work around
            assert all(part for part in selected)


def test_assignment_is_stable_across_processes():
    # stable_fingerprint is PYTHONHASHSEED-independent, so a fixed token
    # must land in a fixed shard forever (this pins the contract)
    spec = ShardSpec(1, 2)
    picks = [t for t in ("a", "b", "c", "d", "e") if spec.contains(t)]
    assert picks == spec.select(["a", "b", "c", "d", "e"])


def test_canonical_record_strips_volatile_fields():
    rec = {"point_id": "p", "status": "ok", "elapsed_s": 1.2,
           "cache_hit": True, "attempts": 3, "value": 7}
    assert canonical_record(rec) == {"point_id": "p", "status": "ok",
                                     "value": 7}


def test_canonical_record_strips_only_volatile_keys():
    rec = {"point_id": "p", "comb_aluts": 12, "elapsed_s": 0.5,
           "cache_hit": True, "cache_stats": {"hits": 1}, "attempts": 2}
    canon = canonical_record(rec)
    assert canon == {"point_id": "p", "comb_aluts": 12}
    # a miss and a hit of the same point canonicalize identically
    miss = dict(rec, cache_hit=False, elapsed_s=3.2,
                cache_stats={"misses": 1}, attempts=1)
    assert canonical_record(miss) == canon
    # a failed point's bundle path and traceback vary by run too
    failed = dict(rec, bundle="runs/r/bundles/p", detail="Traceback ...")
    assert canonical_record(failed) == canon


# ---- run-group resolution ------------------------------------------------

def write_run(store, run_id, records, manifest=None):
    run = store.open_run(run_id)
    for rec in records:
        run.append(rec)
    run.write_manifest(manifest or {"kind": "sweep", "run_id": run_id})
    return run


def test_find_run_group_exact_shard_and_prefix(tmp_path):
    store = ResultStore(tmp_path)
    write_run(store, "sweep-abc.s1of2", [])
    write_run(store, "sweep-abc.s2of2", [])
    base, members = find_run_group(tmp_path, "sweep-abc")
    assert base == "sweep-abc"
    assert members == ["sweep-abc.s1of2", "sweep-abc.s2of2"]
    # a shard id and a unique prefix resolve to the same group
    assert find_run_group(tmp_path, "sweep-abc.s1of2")[1] == members
    assert find_run_group(tmp_path, "sweep")[1] == members


def test_find_run_group_errors(tmp_path):
    store = ResultStore(tmp_path)
    write_run(store, "alpha-1", [])
    write_run(store, "alphb-2", [])
    with pytest.raises(ShardError) as exc:
        find_run_group(tmp_path, "alph")
    assert exc.value.code == "RPR-W012"
    with pytest.raises(ShardError) as exc:
        find_run_group(tmp_path, "nothing")
    assert exc.value.code == "RPR-W013"


# ---- merging -------------------------------------------------------------

def test_merge_of_shards_equals_merge_of_unsharded(tmp_path):
    records = [
        {"point_id": f"p{i}", "status": "ok", "value": i,
         "elapsed_s": 0.1 * i, "attempts": 1 + i % 2}
        for i in range(10)
    ]
    spec1, spec2 = ShardSpec(1, 2), ShardSpec(2, 2)
    sharded = ResultStore(tmp_path / "sharded")
    write_run(sharded, "run-x.s1of2",
              [r for r in records if spec1.contains(r["point_id"])],
              {"kind": "sweep", "name": "x", "fingerprint": "f"})
    write_run(sharded, "run-x.s2of2",
              [r for r in records if spec2.contains(r["point_id"])],
              {"kind": "sweep", "name": "x", "fingerprint": "f"})
    plain = ResultStore(tmp_path / "plain")
    write_run(plain, "run-x", records,
              {"kind": "sweep", "name": "x", "fingerprint": "f"})

    m1 = merge_runs(tmp_path / "sharded", "run-x")
    m2 = merge_runs(tmp_path / "plain", "run-x")
    assert m1.run.results_path.read_bytes() == \
        m2.run.results_path.read_bytes()
    assert m1.run.manifest_path.read_bytes() == \
        m2.run.manifest_path.read_bytes()
    assert len(m1.records) == 10
    assert m1.counters == {"ok": 10}


def test_merge_is_latest_wins_and_idempotent(tmp_path):
    store = ResultStore(tmp_path)
    write_run(store, "r-1", [
        {"point_id": "p0", "status": "failed", "error": "boom"},
        {"point_id": "p0", "status": "ok", "value": 1},
    ])
    first = merge_runs(tmp_path, "r-1")
    assert [r["status"] for r in first.records] == ["ok"]
    again = merge_runs(tmp_path, "r-1")
    assert again.run.results_path.read_bytes() == \
        first.run.results_path.read_bytes()
    # the .merged output itself is never folded back in as a source
    assert again.sources == ["r-1"]


def test_merge_counts_corrupt_lines(tmp_path):
    store = ResultStore(tmp_path)
    run = write_run(store, "r-2", [{"point_id": "p0", "status": "ok"}])
    with open(run.results_path, "a") as fh:
        fh.write('{"point_id": "p1", "status": "o')   # torn tail
    result = merge_runs(tmp_path, "r-2")
    assert result.corrupt == 1
    assert [r["point_id"] for r in result.records] == ["p0"]


def test_disagreeing_shard_manifests_rejected(tmp_path):
    store = ResultStore(tmp_path)
    write_run(store, "r-3.s1of2", [],
              {"kind": "sweep", "fingerprint": "aaa"})
    write_run(store, "r-3.s2of2", [],
              {"kind": "sweep", "fingerprint": "bbb"})
    with pytest.raises(ReproError) as exc:
        merge_runs(tmp_path, "r-3")
    assert exc.value.code == "RPR-W014"


def test_merged_results_are_sorted_and_canonically_encoded(tmp_path):
    store = ResultStore(tmp_path)
    write_run(store, "r-4", [
        {"point_id": "zz", "status": "ok", "elapsed_s": 9.0},
        {"point_id": "aa", "status": "ok", "cache_hit": False},
    ])
    result = merge_runs(tmp_path, "r-4")
    lines = result.run.results_path.read_text().splitlines()
    assert [json.loads(ln)["point_id"] for ln in lines] == ["aa", "zz"]
    for ln in lines:
        rec = json.loads(ln)
        assert "elapsed_s" not in rec and "cache_hit" not in rec
        assert ln == json.dumps(rec, sort_keys=True)
