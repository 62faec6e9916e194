"""Torn-record fuzz for the campaign journal.

A campaign runner can die mid-``write()``: the fsynced prefix of
``journal.jsonl`` is intact, the final record is an arbitrary byte
prefix of itself.  These tests truncate a finished campaign's journal
at *every byte offset* spanning the last experiment record and the
completion record, then ``--resume``.  Required behaviour at every cut
point:

* resume succeeds and reports the campaign ok,
* no run directory is ever duplicated (no second timestamp folder, no
  stray ``run-*`` sibling), and
* the final campaign directory — journal included — is byte-identical
  to the uninterrupted baseline.

The same torn-tail machinery backs the per-experiment run journal, so
the truncate-then-append recovery is exercised there too.
"""

from __future__ import annotations

import json
import os
import shutil

from repro.campaign import campaign_status, run_campaign
from repro.campaign.admission import ADMISSION_NAME
from repro.core.journal import JOURNAL_NAME, RunJournal
from tests.conftest import tree as tree_snapshot

CAMPAIGN = """\
name: torn
pool: [alpha, beta]
experiments:
  - name: first
    user: alice
    nodes: 1
    duration: 30
    rates: [100]
  - name: second
    user: bob
    nodes: 2
    duration: 20
    rates: [200]
"""


def run_directories(campaign_dir):
    """Every per-run artifact directory, plus the timestamp level."""
    found = []
    experiments = os.path.join(campaign_dir, "experiments")
    for dirpath, dirnames, __ in os.walk(experiments):
        for name in dirnames:
            if name.startswith("run-"):
                found.append(os.path.relpath(os.path.join(dirpath, name),
                                             campaign_dir))
    return sorted(found)


def test_campaign_resumes_cleanly_from_every_torn_byte(tmp_path):
    spec_path = str(tmp_path / "c.yml")
    with open(spec_path, "w") as handle:
        handle.write(CAMPAIGN)
    baseline = str(tmp_path / "baseline")
    assert run_campaign(spec_path, baseline, jobs=1).ok
    expected_tree = tree_snapshot(baseline)
    expected_runs = run_directories(baseline)

    journal_path = os.path.join(baseline, JOURNAL_NAME)
    with open(journal_path, "rb") as handle:
        journal_bytes = handle.read()
    lines = journal_bytes.splitlines(keepends=True)
    assert len(lines) >= 3  # header, experiments, complete
    # Cut everywhere inside the last two records (the final experiment
    # entry and the completion marker), including clean line boundaries.
    tail_start = len(journal_bytes) - len(lines[-1]) - len(lines[-2])
    scratch = str(tmp_path / "scratch")

    for cut in range(tail_start, len(journal_bytes)):
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(baseline, scratch)
        with open(os.path.join(scratch, JOURNAL_NAME), "r+b") as handle:
            handle.truncate(cut)
        result = run_campaign(spec_path, scratch, jobs=1, resume=True)
        assert result.ok, f"resume failed at cut offset {cut}"
        assert run_directories(scratch) == expected_runs, (
            f"run directories duplicated or lost at cut offset {cut}"
        )
        resumed_tree = tree_snapshot(scratch)
        different = [
            path for path in sorted(set(expected_tree) | set(resumed_tree))
            if expected_tree.get(path) != resumed_tree.get(path)
        ]
        assert different == [], (
            f"tree diverged at cut offset {cut}: {different}"
        )


def test_admission_log_heals_from_every_torn_byte(tmp_path):
    """``admission.jsonl`` is written atomically, so a torn tail can only
    come from outside interference — but the plan is a pure function of
    the spec, so resume recomputes it and the atomic rewrite restores
    the exact baseline bytes at every cut point.  ``campaign status``
    must tolerate the torn file in the meantime."""
    spec_path = str(tmp_path / "c.yml")
    with open(spec_path, "w") as handle:
        handle.write(CAMPAIGN)
    baseline = str(tmp_path / "baseline")
    assert run_campaign(spec_path, baseline, jobs=1).ok
    expected_tree = tree_snapshot(baseline)
    expected_runs = run_directories(baseline)
    admission_path = os.path.join(baseline, ADMISSION_NAME)
    with open(admission_path, "rb") as handle:
        admission_bytes = handle.read()
    assert not os.path.exists(admission_path + ".tmp")  # atomic rename
    lines = admission_bytes.splitlines(keepends=True)
    assert len(lines) >= 2
    tail_start = len(admission_bytes) - len(lines[-1])
    scratch = str(tmp_path / "scratch")

    for cut in range(tail_start, len(admission_bytes)):
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(baseline, scratch)
        with open(os.path.join(scratch, ADMISSION_NAME), "r+b") as handle:
            handle.truncate(cut)
        # Observers never crash on the torn log ...
        status = campaign_status(scratch)
        assert "campaign:" in status, cut
        # ... and resume heals it: recompute, atomic rewrite, no re-runs.
        result = run_campaign(spec_path, scratch, jobs=1, resume=True)
        assert result.ok, f"resume failed at cut offset {cut}"
        with open(os.path.join(scratch, ADMISSION_NAME), "rb") as handle:
            assert handle.read() == admission_bytes, cut
        assert run_directories(scratch) == expected_runs, cut
        assert tree_snapshot(scratch) == expected_tree, cut


def test_run_journal_append_after_torn_tail_leaves_clean_records(tmp_path):
    """Reopening a torn run journal truncates the fragment; the next
    append starts on a clean line, never concatenating records."""
    journal = RunJournal.create(str(tmp_path), "exp", 3)
    journal.record_run(0, {"r": 1}, ok=True, run_dir="run-000")
    journal.record_run(1, {"r": 2}, ok=True, run_dir="run-001")
    journal.close()
    path = os.path.join(str(tmp_path), JOURNAL_NAME)
    with open(path, "rb") as handle:
        clean = handle.read()
    # Tear at every byte of the last record and append over it.
    lines = clean.splitlines(keepends=True)
    tail_start = len(clean) - len(lines[-1])
    for cut in range(tail_start, len(clean)):
        with open(path, "wb") as handle:
            handle.write(clean[:cut])
        reopened = RunJournal.open(str(tmp_path))
        # The torn record is always dropped (its newline is gone), the
        # fsynced prefix always survives.
        assert sorted(reopened.completed()) == [0], cut
        reopened.record_run(2, {"r": 3}, ok=True, run_dir="run-002")
        reopened.close()
        # Every line in the file now parses — no corrupted boundary.
        with open(path, "rb") as handle:
            raw_lines = handle.read().splitlines()
        parsed = [json.loads(line) for line in raw_lines if line.strip()]
        assert parsed[-1]["index"] == 2
