"""Crash-recoverable write-ahead journal of the daemon's accepted jobs.

The daemon's promise after ``accepted`` is that *somebody* will learn the
job's fate. A SIGKILL between acceptance and the terminal event used to
break that promise invisibly: the client saw a truncated stream, and the
restarted daemon remembered nothing. The journal closes the gap with the
cheapest possible write-ahead log: before a leader starts executing, its
``accepted`` record is appended (flushed + fsynced) to a per-daemon JSONL
run; when the job resolves, a ``done`` record follows.

On restart the journal replays itself: any ``accepted`` from a *previous
process epoch* without a matching ``done`` is an **orphan** — a job the
old daemon promised and never delivered. Orphans are surfaced in the
``/stats`` verb's ``journal`` section (and counted), so operators and the
fabric router can see exactly what a crash swallowed; because every job
is content-fingerprinted and drivers are journaled/resumable, simply
resubmitting an orphan's fingerprint resumes rather than recomputes.

Storage reuses :class:`repro.lab.store.RunHandle` wholesale — the same
append-fsync discipline, the same torn-tail healing (a daemon killed
mid-append leaves a half line; the next epoch heals it and counts it
corrupt, never fatal), the same tooling (``repro runs`` can inspect a
journal like any run). Records use ``point_id`` = ``e<epoch>:<job_id>``
so ids never collide across restarts of the same daemon name.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.lab.store import RunHandle

__all__ = ["JobJournal", "journal_run_id"]

JOURNAL_SCHEMA = 1

#: how many orphaned jobs /stats lists verbatim (the count is always exact)
MAX_ORPHANS_LISTED = 32


def _sanitize(name: str) -> str:
    out = "".join(c if (c.isalnum() or c in "-_.") else "-"
                  for c in str(name).strip())
    return out or "anon"


def journal_run_id(name: str) -> str:
    """The store run id a daemon named ``name`` journals under."""
    return f"serve-journal.{_sanitize(name)}"


class JobJournal:
    """One daemon's write-ahead log of accepted jobs.

    Thread-safe: handler threads append concurrently. Only coalescing
    *leaders* are journaled — a follower owns no execution, so it has
    nothing to orphan.
    """

    def __init__(self, store_root: str, name: str) -> None:
        self.name = _sanitize(name)
        self.run = RunHandle(Path(store_root), journal_run_id(name))
        self._lock = threading.Lock()
        self._accepted = 0
        self._done = 0
        # replay previous epochs: accepted-without-done = orphaned
        pending: dict[str, dict] = {}
        epochs = 0
        for rec in self.run.records():
            phase = rec.get("phase")
            if phase == "boot":
                epochs += 1
            elif phase == "accepted":
                pending[rec.get("point_id", "")] = rec
            elif phase == "done":
                pending.pop(rec.get("point_id", ""), None)
        self.epoch = epochs + 1
        #: jobs a previous life accepted and never finished
        self.orphans: list[dict] = [
            {"point_id": rec.get("point_id"),
             "fingerprint": rec.get("fingerprint"),
             "kind": rec.get("kind"),
             "client": rec.get("client")}
            for _, rec in sorted(pending.items())
        ]
        self._torn = self.run.stats.corrupt
        self.run.append({
            "journal_schema": JOURNAL_SCHEMA,
            "phase": "boot",
            "point_id": f"e{self.epoch}:boot",
            "epoch": self.epoch,
            "orphans": len(self.orphans),
            "ts": time.time(),
        })

    # -- write-ahead ----------------------------------------------------------

    def job_key(self, job_id: str) -> str:
        return f"e{self.epoch}:{job_id}"

    def accepted(self, job_id: str, fingerprint: str, kind: str,
                 client: str) -> None:
        """Log intent *before* execution starts (the write-ahead part)."""
        with self._lock:
            self._accepted += 1
            self.run.append({
                "journal_schema": JOURNAL_SCHEMA,
                "phase": "accepted",
                "point_id": self.job_key(job_id),
                "epoch": self.epoch,
                "fingerprint": fingerprint,
                "kind": kind,
                "client": client,
                "ts": time.time(),
            })

    def done(self, job_id: str, fingerprint: str, status: str) -> None:
        with self._lock:
            self._done += 1
            self.run.append({
                "journal_schema": JOURNAL_SCHEMA,
                "phase": "done",
                "point_id": self.job_key(job_id),
                "epoch": self.epoch,
                "fingerprint": fingerprint,
                "status": status,
                "ts": time.time(),
            })

    # -- queries --------------------------------------------------------------

    def snapshot(self) -> dict:
        """The ``journal`` section of the daemon's ``/stats``."""
        with self._lock:
            return {
                "run_id": self.run.run_id,
                "path": str(self.run.results_path),
                "epoch": self.epoch,
                "accepted": self._accepted,
                "done": self._done,
                "torn_lines_healed": self._torn,
                "orphaned": len(self.orphans),
                "orphans": self.orphans[:MAX_ORPHANS_LISTED],
            }
