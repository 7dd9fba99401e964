"""Deterministic sharding and shard merging for campaign runs.

A shard is a horizontal slice of a sweep/campaign/difftest space: point
``p`` belongs to shard ``k`` of ``N`` iff ``stable_fingerprint(p) % N ==
k - 1``. Because assignment hashes the *point* (never the host, the job
count or the clock), any K/N split partitions the space exactly, every
shard can run on a different machine (or a different CI matrix leg) with
its own :class:`~repro.lab.store.ResultStore` run directory, and a
crashed shard resumes independently of its siblings.

``merge_runs`` folds per-shard run directories back into one **canonical
run**: records are stripped of volatile fields (timings, cache hits,
retry/attempt counts — things that legitimately differ between an
interrupted-and-resumed run and a clean one), deduplicated latest-wins
per point, sorted by point id, and written with deterministic JSON
encoding next to a canonical manifest. The invariant the whole fabric is
built around, and that the chaos suite asserts:

    merge(shard 1/N .. N/N)  ==  merge(unsharded run)   (byte-identical)

for any N and any interleaving of crashes, hangs, torn writes and
resumes along the way. For fault campaigns the merge additionally renders
the detection-coverage matrix (``matrix.txt``) from the merged records,
with the same bit-identity guarantee.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.lab.store import ResultStore, RunHandle
from repro.utils.idgen import stable_fingerprint

__all__ = [
    "VOLATILE_RECORD_FIELDS",
    "MergeResult",
    "ShardError",
    "ShardSpec",
    "canonical_record",
    "find_run_group",
    "merge_runs",
]

MERGE_SCHEMA = 1

#: record fields that legitimately differ between an uninterrupted run
#: and a crashed/retried/resumed one — stripped before merging so the
#: canonical output is bit-identical either way
VOLATILE_RECORD_FIELDS = frozenset({
    "elapsed_s", "cache_hit", "cache_stats", "attempts", "bundle", "detail",
    # incremental-synthesis accounting: which processes were rebuilt vs
    # read from cache depends on run interleaving, not on the point
    "resyntheses", "proc_hits", "proc_misses", "partial_rebuild",
})

_SHARD_SUFFIX = re.compile(r"\.s(\d+)of(\d+)$")


class ShardError(ReproError):
    """Raised for malformed shard specs or unmergeable run groups."""

    code_prefix = "RPR-W"


@dataclass(frozen=True)
class ShardSpec:
    """One slice ``index``/``total`` (1-based, like CI matrix legs)."""

    index: int
    total: int

    def __post_init__(self) -> None:
        if self.total < 1 or not 1 <= self.index <= self.total:
            raise ShardError(
                f"bad shard {self.index}/{self.total}: want 1 <= K <= N",
                code="RPR-W010")

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``K/N`` (e.g. ``--shard 2/8``)."""
        m = re.fullmatch(r"(\d+)/(\d+)", text.strip())
        if not m:
            raise ShardError(
                f"bad --shard {text!r}: want K/N (e.g. 2/8)", code="RPR-W011")
        return cls(int(m.group(1)), int(m.group(2)))

    @classmethod
    def partition(cls, total: int) -> list["ShardSpec"]:
        """All ``total`` slices of a K/N split, in order — together they
        cover every point exactly once."""
        if total < 1:
            raise ShardError(
                f"bad shard count {total}: want N >= 1", code="RPR-W010")
        return [cls(k, total) for k in range(1, total + 1)]

    def contains(self, token: object) -> bool:
        """Does the point with this stable token land in this shard?"""
        return stable_fingerprint("shard", token) % self.total == \
            self.index - 1

    def select(self, items, key=lambda x: x) -> list:
        return [it for it in items if self.contains(key(it))]

    @property
    def label(self) -> str:
        return f"s{self.index}of{self.total}"

    def run_id(self, base: str) -> str:
        return f"{base}.{self.label}"

    def as_dict(self) -> dict:
        return {"index": self.index, "total": self.total}


def canonical_record(rec: dict) -> dict:
    """One record with every volatile field stripped (recursion-free:
    volatility only occurs at the top level of our records)."""
    return {k: v for k, v in rec.items() if k not in VOLATILE_RECORD_FIELDS}


def base_run_id(run_id: str) -> str:
    """Strip a ``.sKofN`` shard suffix (identity for unsharded ids)."""
    return _SHARD_SUFFIX.sub("", run_id)


def find_run_group(store_root, run: str) -> tuple[str, list[str]]:
    """Resolve ``run`` (a base run id, a shard run id, or a unique
    prefix) to ``(base_id, member run ids)`` within ``store_root``."""
    store = ResultStore(store_root)
    ids = store.run_ids()
    base = base_run_id(run)
    members = [rid for rid in ids if base_run_id(rid) == base]
    if not members:
        bases = sorted({base_run_id(rid) for rid in ids
                        if base_run_id(rid).startswith(base)
                        and not base_run_id(rid).endswith(".merged")})
        if len(bases) > 1:
            raise ShardError(
                f"run prefix {run!r} is ambiguous in {store_root}: "
                f"{bases}", code="RPR-W012")
        if not bases:
            raise ShardError(
                f"no runs matching {run!r} in {store_root}; have {ids}",
                code="RPR-W013")
        base = bases[0]
        members = [rid for rid in ids if base_run_id(rid) == base]
    # never fold a previous merge output back into itself
    members = [rid for rid in members if not rid.endswith(".merged")]
    return base, sorted(members)


@dataclass
class MergeResult:
    """The canonical merged run plus provenance counters."""

    run: RunHandle
    base_id: str
    sources: list[str]
    records: list[dict]
    counters: dict
    corrupt: int
    kind: str

    @property
    def matrix_path(self) -> Path | None:
        path = self.run.dir / "matrix.txt"
        return path if path.exists() else None


def _consistent(manifests: list[dict], key: str):
    """The shared value of ``key`` across shard manifests (None-tolerant)."""
    values = [m[key] for m in manifests if key in m and m[key] is not None]
    if not values:
        return None
    first = values[0]
    for v in values[1:]:
        if v != first:
            raise ShardError(
                f"shard manifests disagree on {key!r}: {first!r} != {v!r} "
                "(were these shards of the same spec?)", code="RPR-W014")
    return first


def merge_runs(store_root, run: str, out_dir=None,
               progress=None) -> MergeResult:
    """Merge every shard of ``run`` into one canonical run directory.

    The output (``<base>.merged`` under ``store_root`` unless ``out_dir``
    overrides it) holds a deterministic ``results.jsonl`` (volatile
    fields stripped, latest record per point, sorted by point id), a
    canonical ``manifest.json`` derived only from merged content, and —
    for fault campaigns — the rendered coverage matrix ``matrix.txt``.
    Merging the shards of a K/N split and merging the unsharded run
    produce byte-identical files.
    """
    base, members = find_run_group(store_root, run)
    store = ResultStore(store_root)
    latest: dict[str, dict] = {}
    manifests: list[dict] = []
    corrupt = 0
    for rid in members:
        handle = store.open_run(rid)
        for rec in handle.records():
            pid = rec.get("point_id")
            if pid is None:
                continue
            latest[pid] = canonical_record(rec)
        corrupt += handle.stats.corrupt
        manifest = handle.read_manifest()
        if manifest:
            manifests.append(manifest)

    kind = _consistent(manifests, "kind") or "run"
    merged_records = [latest[pid] for pid in sorted(latest)]
    counters: dict = {}
    for rec in merged_records:
        status = rec.get("status", "ok")
        counters[status] = counters.get(status, 0) + 1
    divergent = sum(1 for r in merged_records if r.get("divergent"))
    if kind == "difftest":
        counters["divergent"] = divergent

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        merged = RunHandle(out.parent, out.name)
    else:
        merged = store.open_run(f"{base}.merged")
    # rewrite, never append: a re-merge must be idempotent
    if merged.results_path.exists():
        merged.results_path.unlink()
    with open(merged.results_path, "w") as fh:
        for rec in merged_records:
            fh.write(json.dumps(rec, sort_keys=True, default=str) + "\n")

    context = _consistent(manifests, "context")
    manifest = {
        "merge_schema": MERGE_SCHEMA,
        "kind": kind,
        "run_id": base,
        "name": _consistent(manifests, "name"),
        "fingerprint": _consistent(manifests, "fingerprint"),
        "context": context,
        "points": sorted(latest),
        "counters": counters,
        "records": len(merged_records),
    }
    merged.write_manifest(manifest)

    if kind == "campaign" and context:
        from repro.faults.campaign import matrix_from_records

        (merged.dir / "matrix.txt").write_text(
            matrix_from_records(merged_records, context) + "\n")

    if progress:
        print(f"merged {len(members)} run(s) -> {merged.dir} "
              f"({len(merged_records)} points, {corrupt} corrupt "
              "journal lines skipped)", file=progress)
    return MergeResult(run=merged, base_id=base, sources=members,
                       records=merged_records, counters=counters,
                       corrupt=corrupt, kind=kind)
