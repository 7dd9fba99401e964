"""Append-only JSONL result store with run manifests.

A sweep writes one record per evaluated point to
``<root>/<run_id>/results.jsonl`` the moment the point resolves (append +
flush + fsync, so a SIGINT or crash loses at most the in-flight point),
alongside a ``manifest.json`` snapshot of the run's configuration,
progress counters and cache statistics. Because the run id is derived
from the sweep's content fingerprint, re-invoking the same sweep lands in
the same run directory; :meth:`RunHandle.completed_ids` then tells the
sweep driver which points are already done, so an interrupted run resumes
by evaluating only the missing (or previously failed) points.

A hard kill mid-append leaves a torn final line; :meth:`RunHandle.records`
skips it but **counts** it in :class:`StoreStats` (parallel to
``CacheStats.corrupt``) so drivers can warn that the journal took damage
instead of silently shrinking. The chaos harness
(:mod:`repro.lab.chaos`) injects exactly that kill between append and
fsync to prove resume semantics hold.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.lab.chaos import active_chaos

__all__ = ["StoreStats", "RunHandle", "ResultStore"]

MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.jsonl"


@dataclass
class StoreStats:
    """Counters from the most recent journal scan of one handle."""

    records: int = 0
    #: torn/corrupt JSONL lines skipped during the scan — non-zero means
    #: a previous run was killed mid-write (or the disk is rotting)
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"records": self.records, "corrupt": self.corrupt}


class RunHandle:
    """One run directory: an open JSONL results log plus its manifest."""

    def __init__(self, root: Path, run_id: str) -> None:
        self.run_id = run_id
        self.dir = root / run_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.results_path = self.dir / RESULTS_NAME
        self.manifest_path = self.dir / MANIFEST_NAME
        #: refreshed by every :meth:`records` scan
        self.stats = StoreStats()
        self._tail_healed = False

    # ---- results log ----------------------------------------------------

    def _heal_torn_tail(self) -> None:
        """A hard kill mid-append can leave the journal's final line
        without its newline. Appending straight onto that tail would fuse
        the torn fragment with the *next* record and corrupt it too, so
        before the first append of a resumed run we terminate the tail —
        the fragment stays one isolated corrupt line."""
        try:
            with open(self.results_path, "rb+") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() == 0:
                    return
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
                    fh.flush()
                    os.fsync(fh.fileno())
        except FileNotFoundError:
            pass

    def append(self, record: dict) -> None:
        """Append one JSON record; flushed and fsynced immediately so
        interruption never loses an already-resolved point."""
        if not self._tail_healed:
            self._heal_torn_tail()
            self._tail_healed = True
        line = json.dumps(record, sort_keys=True, default=str)
        with open(self.results_path, "a") as fh:
            chaos = active_chaos()
            if chaos is not None:
                chaos.torn_write_kill(fh, line,
                                      str(record.get("point_id", "")))
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def records(self) -> list[dict]:
        """Every parseable record in append order. Torn/corrupt lines
        (e.g. the half-written final line a hard kill leaves) are skipped
        and counted in :attr:`stats`, never fatal."""
        self.stats = StoreStats()
        if not self.results_path.exists():
            return []
        out = []
        with open(self.results_path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError:
                    self.stats.corrupt += 1
                    continue
        self.stats.records = len(out)
        return out

    def completed_ids(self, include_failed: bool = False) -> set[str]:
        """Point ids this run has already resolved.

        By default only successful points count as done — failed/timed-out
        points are retried on resume.
        """
        done = set()
        for rec in self.records():
            pid = rec.get("point_id")
            if pid is None:
                continue
            if rec.get("status") == "ok" or include_failed:
                done.add(pid)
        return done

    # ---- manifest -------------------------------------------------------

    def write_manifest(self, manifest: dict) -> None:
        tmp = self.manifest_path.with_suffix(".json.tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        os.replace(tmp, self.manifest_path)

    def read_manifest(self) -> dict:
        if not self.manifest_path.exists():
            return {}
        with open(self.manifest_path) as fh:
            return json.load(fh)


class ResultStore:
    """A directory of runs, one subdirectory per run id."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def open_run(self, run_id: str) -> RunHandle:
        return RunHandle(self.root, run_id)

    def run_ids(self) -> list[str]:
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and ((p / RESULTS_NAME).exists()
                               or (p / MANIFEST_NAME).exists())
        )

