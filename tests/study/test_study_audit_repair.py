"""Audit and repair of damaged study trees.

The contract under test: ``audit_study`` lists *exactly* the holes a
seeded mutilation created (and nothing on a pristine tree), and
``repair_study`` re-executes only those holes, restoring a tree
byte-identical to the uninterrupted baseline — journals, aggregate,
and summary page included.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.core.errors import StudyError
from repro.study import (
    STUDY_JOURNAL_NAME,
    audit_study,
    load_study,
    render_audit,
    repair_study,
    run_study,
)
from tests.core.test_campaign_journal_torn import tree_snapshot

SPEC_DOC = {
    "name": "audit",
    "factors": {"rate": [1.0, 2.0], "size": [64, 128]},
    "replications": 2,
    "seed": 5,
}


@pytest.fixture()
def study_tree(tmp_path):
    """A finished baseline study plus a scratch copy to mutilate."""
    baseline = str(tmp_path / "baseline")
    assert run_study(load_study(SPEC_DOC), baseline, jobs=2).ok
    scratch = str(tmp_path / "scratch")
    shutil.copytree(baseline, scratch)
    return baseline, scratch


def experiment_dirs(study_dir, replication):
    root = os.path.join(
        study_dir, "replications", f"rep-{replication:03d}",
        "experiments", "study",
    )
    found = {}
    for cell in sorted(os.listdir(root)):
        timestamps = sorted(os.listdir(os.path.join(root, cell)))
        assert len(timestamps) == 1
        found[cell] = os.path.join(root, cell, timestamps[0])
    return found


def assert_repaired_to_baseline(baseline, scratch, expected_kinds):
    report = audit_study(scratch)
    assert not report["complete"]
    assert {hole["kind"] for hole in report["holes"]} == expected_kinds
    outcome = repair_study(scratch)
    assert {h["kind"] for h in outcome["repaired"]} == expected_kinds
    assert outcome["audit"]["complete"]
    assert tree_snapshot(scratch) == tree_snapshot(baseline)


class TestAudit:
    def test_pristine_tree_audits_complete(self, study_tree):
        __, scratch = study_tree
        report = audit_study(scratch)
        assert report["complete"]
        assert report["holes"] == []
        assert "verdict: complete" in render_audit(report)

    def test_audit_requires_a_study_tree(self, tmp_path):
        with pytest.raises(StudyError):
            audit_study(str(tmp_path))

    def test_missing_run_is_named_exactly(self, study_tree):
        __, scratch = study_tree
        cell_dir = experiment_dirs(scratch, 0)["cell-002"]
        shutil.rmtree(os.path.join(cell_dir, "run-000"))
        report = audit_study(scratch)
        holes = report["holes"]
        assert [h["kind"] for h in holes] == ["missing-run"]
        assert holes[0]["replication"] == 0
        assert holes[0]["cell"] == "cell-002"
        assert holes[0]["run"] == 0
        assert "cell-002" in render_audit(report)

    def test_assignment_mismatch_detected(self, study_tree):
        __, scratch = study_tree
        cell_dir = experiment_dirs(scratch, 1)["cell-001"]
        metadata = os.path.join(cell_dir, "run-000", "metadata.yml")
        text = open(metadata).read().replace("128", "129")
        with open(metadata, "w") as handle:
            handle.write(text)
        holes = audit_study(scratch)["holes"]
        assert [h["kind"] for h in holes] == ["assignment-mismatch"]
        assert holes[0]["replication"] == 1

    def test_stale_aggregate_detected(self, study_tree):
        __, scratch = study_tree
        aggregate_path = os.path.join(scratch, "study.json")
        aggregate = json.load(open(aggregate_path))
        aggregate["verdict"] = "inconsistent"
        with open(aggregate_path, "w") as handle:
            json.dump(aggregate, handle, sort_keys=True, indent=2)
            handle.write("\n")
        holes = audit_study(scratch)["holes"]
        assert [h["kind"] for h in holes] == ["stale-aggregate"]

    def test_missing_study_journal_detected(self, study_tree):
        __, scratch = study_tree
        os.unlink(os.path.join(scratch, STUDY_JOURNAL_NAME))
        holes = audit_study(scratch)["holes"]
        assert [h["kind"] for h in holes] == ["missing-study-journal"]

    def test_incomplete_campaign_detected(self, study_tree):
        """A campaign journal cut before its completion marker is an
        incomplete campaign, even with every run directory present."""
        __, scratch = study_tree
        journal = os.path.join(
            scratch, "replications", "rep-000", "journal.jsonl"
        )
        lines = open(journal).readlines()
        with open(journal, "w") as handle:
            handle.writelines(lines[:-2])
        holes = audit_study(scratch)["holes"]
        assert "incomplete-campaign" in {h["kind"] for h in holes}

    def test_holes_are_deterministically_ordered(self, study_tree):
        __, scratch = study_tree
        shutil.rmtree(os.path.join(scratch, "replications", "rep-001"))
        cell_dir = experiment_dirs(scratch, 0)["cell-003"]
        shutil.rmtree(cell_dir)
        first = audit_study(scratch)["holes"]
        second = audit_study(scratch)["holes"]
        assert first == second
        assert [h["kind"] for h in first] == [
            "missing-experiment", "missing-replication",
        ]


class TestRepair:
    def test_repair_of_pristine_tree_is_a_noop(self, study_tree):
        baseline, scratch = study_tree
        outcome = repair_study(scratch)
        assert outcome["repaired"] == []
        assert outcome["result"] is None
        assert tree_snapshot(scratch) == tree_snapshot(baseline)

    def test_repairs_a_missing_run(self, study_tree):
        baseline, scratch = study_tree
        cell_dir = experiment_dirs(scratch, 0)["cell-001"]
        shutil.rmtree(os.path.join(cell_dir, "run-000"))
        assert_repaired_to_baseline(baseline, scratch, {"missing-run"})

    def test_repairs_a_missing_experiment(self, study_tree):
        baseline, scratch = study_tree
        shutil.rmtree(experiment_dirs(scratch, 1)["cell-000"])
        assert_repaired_to_baseline(
            baseline, scratch, {"missing-experiment"}
        )

    def test_repairs_a_missing_replication(self, study_tree):
        baseline, scratch = study_tree
        shutil.rmtree(os.path.join(scratch, "replications", "rep-001"))
        assert_repaired_to_baseline(
            baseline, scratch, {"missing-replication"}
        )

    def test_repairs_a_missing_study_journal(self, study_tree):
        baseline, scratch = study_tree
        os.unlink(os.path.join(scratch, STUDY_JOURNAL_NAME))
        assert_repaired_to_baseline(
            baseline, scratch, {"missing-study-journal"}
        )

    def test_repairs_a_stale_aggregate(self, study_tree):
        baseline, scratch = study_tree
        with open(os.path.join(scratch, "study.json"), "a") as handle:
            handle.write("\n")
        assert_repaired_to_baseline(
            baseline, scratch, {"stale-aggregate"}
        )

    def test_repairs_compound_damage(self, study_tree):
        """Several hole kinds at once: a lost replication, a lost run in
        the surviving one, and a doctored aggregate."""
        baseline, scratch = study_tree
        shutil.rmtree(os.path.join(scratch, "replications", "rep-001"))
        cell_dir = experiment_dirs(scratch, 0)["cell-002"]
        shutil.rmtree(os.path.join(cell_dir, "run-000"))
        os.unlink(os.path.join(scratch, "study.json"))
        report = audit_study(scratch)
        kinds = {h["kind"] for h in report["holes"]}
        assert kinds == {"missing-replication", "missing-run"}
        outcome = repair_study(scratch)
        assert outcome["audit"]["complete"]
        assert tree_snapshot(scratch) == tree_snapshot(baseline)

    def test_repair_touches_only_the_damaged_experiment(self, study_tree):
        """Intact experiment directories keep their exact mtimes-aside
        bytes: repair deletes and re-creates only the damaged cell."""
        baseline, scratch = study_tree
        cells_before = experiment_dirs(scratch, 0)
        victim = cells_before["cell-001"]
        inode_before = {
            cell: os.stat(path).st_ino
            for cell, path in cells_before.items()
        }
        shutil.rmtree(victim)
        repaired = repair_study(scratch)["repaired"]
        # The re-created directory may reuse the freed inode, so the
        # repair's own report says which experiment it touched.
        assert repaired
        assert {hole.get("cell") for hole in repaired} == {"cell-001"}
        inode_after = {
            cell: os.stat(path).st_ino
            for cell, path in experiment_dirs(scratch, 0).items()
        }
        for cell, inode in inode_before.items():
            if cell != "cell-001":
                assert inode_after[cell] == inode
        assert tree_snapshot(scratch) == tree_snapshot(baseline)
