"""The write-ahead job journal: WAL ordering, orphan detection across
daemon restarts, and torn-tail tolerance."""

import json

from repro.serve.journal import JobJournal, journal_run_id


def test_journal_run_id_is_stable_and_sanitized():
    assert journal_run_id("node-a") == "serve-journal.node-a"
    assert journal_run_id("127.0.0.1:8080") == \
        "serve-journal.127.0.0.1-8080"
    assert journal_run_id("") == "serve-journal.anon"


def test_fresh_journal_has_no_orphans(tmp_path):
    j = JobJournal(str(tmp_path), "node-a")
    assert j.epoch == 1
    assert j.orphans == []
    snap = j.snapshot()
    assert snap["orphaned"] == 0
    assert snap["epoch"] == 1


def test_accepted_is_written_before_done(tmp_path):
    """The write-ahead property: after accepted() alone the record is
    already durable on disk."""
    j = JobJournal(str(tmp_path), "node-a")
    j.accepted("j1", "fp-abc", "synth", "client-1")
    lines = [json.loads(ln) for ln in
             j.run.results_path.read_text().splitlines()]
    phases = [rec["phase"] for rec in lines]
    assert phases == ["boot", "accepted"]
    assert lines[1]["fingerprint"] == "fp-abc"
    assert lines[1]["kind"] == "synth"


def test_completed_jobs_do_not_orphan(tmp_path):
    j1 = JobJournal(str(tmp_path), "node-a")
    j1.accepted("j1", "fp-abc", "synth", "c")
    j1.done("j1", "fp-abc", "ok")
    j2 = JobJournal(str(tmp_path), "node-a")
    assert j2.epoch == 2
    assert j2.orphans == []


def test_crash_between_accept_and_done_surfaces_an_orphan(tmp_path):
    j1 = JobJournal(str(tmp_path), "node-a")
    j1.accepted("j1", "fp-abc", "campaign", "c")
    j1.accepted("j2", "fp-def", "sweep", "c")
    j1.done("j2", "fp-def", "ok")
    # daemon "dies" here: j1 accepted, never done
    j2 = JobJournal(str(tmp_path), "node-a")
    assert j2.epoch == 2
    assert [o["fingerprint"] for o in j2.orphans] == ["fp-abc"]
    assert j2.orphans[0]["kind"] == "campaign"
    snap = j2.snapshot()
    assert snap["orphaned"] == 1
    assert snap["orphans"][0]["fingerprint"] == "fp-abc"


def test_job_ids_do_not_collide_across_epochs(tmp_path):
    """Every daemon life restarts job numbering at j1; the epoch prefix
    keeps their journal keys distinct."""
    j1 = JobJournal(str(tmp_path), "node-a")
    j1.accepted("j1", "fp-old", "synth", "c")  # orphaned in epoch 1
    j2 = JobJournal(str(tmp_path), "node-a")
    j2.accepted("j1", "fp-new", "synth", "c")  # same id, new epoch
    j2.done("j1", "fp-new", "ok")
    j3 = JobJournal(str(tmp_path), "node-a")
    # epoch 2's j1 completed; epoch 1's j1 is still the orphan
    assert [o["fingerprint"] for o in j3.orphans] == ["fp-old"]


def test_failed_jobs_count_as_done_but_not_known(tmp_path):
    j1 = JobJournal(str(tmp_path), "node-a")
    j1.accepted("j1", "fp-abc", "synth", "c")
    j1.done("j1", "fp-abc", "failed")
    j2 = JobJournal(str(tmp_path), "node-a")
    assert j2.orphans == []           # its fate was recorded


def test_torn_tail_is_healed_not_fatal(tmp_path):
    """A SIGKILL mid-append leaves a half-written line; the next epoch
    heals it, counts it, and keeps every intact record."""
    j1 = JobJournal(str(tmp_path), "node-a")
    j1.accepted("j1", "fp-abc", "synth", "c")
    with open(j1.run.results_path, "a") as fh:
        fh.write('{"journal_schema": 1, "phase": "done", "poi')  # torn
    j2 = JobJournal(str(tmp_path), "node-a")
    assert j2.snapshot()["torn_lines_healed"] == 1
    # the torn done-record never landed, so the job is an orphan
    assert [o["fingerprint"] for o in j2.orphans] == ["fp-abc"]
    # and the journal keeps appending cleanly after the heal
    j2.accepted("j1", "fp-new", "synth", "c")
    j2.done("j1", "fp-new", "ok")
    j3 = JobJournal(str(tmp_path), "node-a")
    assert [o["fingerprint"] for o in j3.orphans] == ["fp-abc"]


def test_distinct_daemon_names_do_not_share_journals(tmp_path):
    ja = JobJournal(str(tmp_path), "node-a")
    ja.accepted("j1", "fp-abc", "synth", "c")
    jb = JobJournal(str(tmp_path), "node-b")
    assert jb.orphans == []
    assert ja.run.dir != jb.run.dir
