"""Unit and end-to-end tests for the multi-tenant campaign scheduler.

Covers the full stack: spec parsing/validation, the deterministic
admission planner (priority, backfill, fairness, deadlines), the
campaign journal, the dispatch machinery, campaign telemetry and the
published index, the status report, and the ``pos campaign`` CLI.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.campaign import (
    CampaignJournal,
    CampaignSpec,
    ExperimentSpec,
    campaign_status,
    load_campaign,
    plan_admission,
    run_campaign,
)
from repro.campaign.admission import ADMISSION_NAME
from repro.campaign.workload import (
    build_campaign_experiment,
    inspect_result_dir,
)
from repro.cli.main import build_parser, main
from repro.core.errors import CampaignError, JournalError
from repro.core.journal import JOURNAL_NAME
from tests.conftest import tree


def make_spec(experiments, pool=("alpha", "beta", "gamma"), **kwargs):
    specs = [
        ExperimentSpec(submit_index=index, **raw)
        for index, raw in enumerate(experiments)
    ]
    return CampaignSpec(
        name="camp", pool=list(pool), experiments=specs, **kwargs
    )


def write_campaign_file(path, body):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(body)
    return str(path)


SMALL_CAMPAIGN = """\
name: demo
pool: [alpha, beta]
max_active_per_user: 2
experiments:
  - name: sweep-a
    user: alice
    nodes: 2
    duration: 60
    priority: 5
    rates: [100]
  - name: sweep-b
    user: bob
    nodes: 1
    duration: 30
    rates: [200]
"""


# --------------------------------------------------------------------------
# spec parsing and validation
# --------------------------------------------------------------------------


class TestSpec:
    def test_load_assigns_submit_indices_in_file_order(self, tmp_path):
        path = write_campaign_file(tmp_path / "c.yml", SMALL_CAMPAIGN)
        from repro.campaign import load_campaign_file

        spec = load_campaign_file(path)
        assert [e.submit_index for e in spec.experiments] == [0, 1]
        assert spec.experiments[0].priority == 5
        assert spec.experiments[1].priority == 0
        assert spec.max_active_per_user == 2

    def test_empty_pool_rejected(self):
        with pytest.raises(CampaignError, match="non-empty node pool"):
            make_spec(
                [dict(name="a", user="u", nodes=1, duration=10.0)], pool=()
            ).validate()

    def test_duplicate_experiment_names_per_user_rejected(self):
        spec = make_spec([
            dict(name="a", user="u", nodes=1, duration=10.0),
            dict(name="a", user="u", nodes=1, duration=10.0),
        ])
        with pytest.raises(CampaignError, match="duplicate experiment"):
            spec.validate()

    def test_same_name_different_users_allowed(self):
        make_spec([
            dict(name="a", user="alice", nodes=1, duration=10.0),
            dict(name="a", user="bob", nodes=1, duration=10.0),
        ]).validate()

    def test_deadline_shorter_than_duration_rejected(self):
        spec = make_spec(
            [dict(name="a", user="u", nodes=1, duration=100.0, deadline=50.0)]
        )
        with pytest.raises(CampaignError, match="deadline"):
            spec.validate()

    def test_node_count_exceeding_pool_rejected(self):
        spec = make_spec([dict(name="a", user="u", nodes=9, duration=10.0)])
        with pytest.raises(CampaignError, match="wants 9 nodes"):
            spec.validate()

    def test_explicit_nodes_outside_pool_rejected(self):
        spec = make_spec(
            [dict(name="a", user="u", nodes=["zeta"], duration=10.0)]
        )
        with pytest.raises(CampaignError, match="outside"):
            spec.validate()

    def test_bool_priority_rejected(self):
        with pytest.raises(CampaignError, match="priority"):
            load_campaign({
                "name": "c", "pool": ["n"],
                "experiments": [
                    {"name": "a", "user": "u", "duration": 10,
                     "priority": True}
                ],
            })

    def test_non_mapping_document_rejected(self):
        with pytest.raises(CampaignError, match="mapping"):
            load_campaign(["not", "a", "mapping"])

    @pytest.mark.parametrize("mutate, message", [
        (lambda s: setattr(s, "name", ""), "needs a name"),
        (lambda s: setattr(s, "pool", ["n", "n"]), "duplicate nodes in pool"),
        (lambda s: setattr(s, "experiments", []), "submits no experiments"),
        (lambda s: setattr(s, "max_active_per_user", 0), "at least 1"),
        (lambda s: setattr(s.experiments[0], "name", ""), "needs a name"),
        (lambda s: setattr(s.experiments[0], "user", ""), "needs a user"),
        (lambda s: setattr(s.experiments[0], "duration", 0.0), "positive"),
        (lambda s: setattr(s.experiments[0], "rates", []), "empty rates"),
        (lambda s: setattr(s.experiments[0], "nodes", 0), ">= 1"),
        (lambda s: setattr(s.experiments[0], "nodes", []), "empty node list"),
        (lambda s: setattr(s.experiments[0], "nodes", ["alpha", "alpha"]),
         "duplicate nodes"),
    ])
    def test_validation_rejects_each_malformed_field(self, mutate, message):
        spec = make_spec([dict(name="a", user="u", nodes=1, duration=10.0)])
        mutate(spec)
        with pytest.raises(CampaignError, match=message):
            spec.validate()

    @pytest.mark.parametrize("document, message", [
        ({"name": "c", "pool": ["n"]}, "'experiments' list"),
        ({"name": "c", "pool": ["n"], "experiments": ["x"]},
         "must be a mapping"),
        ({"name": "c", "pool": "n",
          "experiments": [{"name": "a", "user": "u", "duration": 1}]},
         "'pool' list"),
        ({"name": "c", "pool": ["n"],
          "experiments": [{"name": "a", "user": "u", "duration": "soon"}]},
         "must be a number"),
        ({"name": "c", "pool": ["n"],
          "experiments": [{"name": "a", "user": "u", "duration": 1,
                           "rates": 100}]},
         "rates must be a list"),
        ({"name": "c", "pool": ["n"],
          "experiments": [{"name": "a", "user": "u", "duration": 1,
                           "nodes": "n"}]},
         "must be an integer"),
    ])
    def test_loader_rejects_each_malformed_document(self, document, message):
        with pytest.raises(CampaignError, match=message):
            load_campaign(document)


# --------------------------------------------------------------------------
# admission planning
# --------------------------------------------------------------------------


class TestAdmission:
    def test_priority_order_with_submit_index_tiebreak(self):
        plan = plan_admission(make_spec([
            dict(name="low", user="u", nodes=1, duration=10.0, priority=1),
            dict(name="hi-late", user="u", nodes=1, duration=10.0, priority=5),
            dict(name="hi-early", user="v", nodes=1, duration=10.0, priority=5),
        ]))
        names = [p.spec.name for p in plan.admitted]
        # Priority first; equal priorities fall back to file order.
        assert names == ["hi-late", "hi-early", "low"]

    def test_whole_pool_requests_serialize_back_to_back(self):
        plan = plan_admission(make_spec([
            dict(name="a", user="u", nodes=3, duration=100.0),
            dict(name="b", user="v", nodes=3, duration=50.0),
        ]))
        (first, second) = plan.admitted
        assert (first.start, first.end) == (0.0, 100.0)
        # Half-open windows: the follow-up starts exactly at the end.
        assert (second.start, second.end) == (100.0, 150.0)

    def test_small_job_backfills_without_delaying_big_ones(self):
        plan = plan_admission(make_spec([
            dict(name="big", user="u", nodes=2, duration=100.0, priority=9),
            dict(name="small", user="v", nodes=1, duration=100.0, priority=0),
        ]))
        by_name = {p.spec.name: p for p in plan.admitted}
        # Pool has three nodes; the small job fits beside the big one.
        assert by_name["big"].start == 0.0
        assert by_name["small"].start == 0.0
        assert not set(by_name["big"].nodes) & set(by_name["small"].nodes)

    def test_fairness_cap_delays_same_user(self):
        plan = plan_admission(make_spec(
            [
                dict(name="a", user="u", nodes=1, duration=60.0),
                dict(name="b", user="u", nodes=1, duration=60.0),
            ],
            max_active_per_user=1,
        ))
        starts = sorted(p.start for p in plan.admitted)
        # Two free nodes exist, but the cap forces serialization.
        assert starts == [0.0, 60.0]

    def test_deadline_miss_is_rejected_with_reason(self):
        plan = plan_admission(make_spec([
            dict(name="hog", user="u", nodes=3, duration=100.0, priority=9),
            dict(name="late", user="v", nodes=3, duration=50.0, deadline=60.0),
        ]))
        assert [p.spec.name for p in plan.admitted] == ["hog"]
        assert len(plan.rejected) == 1
        assert "deadline" in plan.rejected[0].reason

    def test_explicit_node_request_keeps_those_nodes(self):
        plan = plan_admission(make_spec([
            dict(name="a", user="u", nodes=["gamma", "alpha"], duration=10.0),
        ]))
        assert plan.admitted[0].nodes == ["alpha", "gamma"]

    def test_no_node_window_overlap_ever(self):
        plan = plan_admission(make_spec([
            dict(name=f"e{i}", user="u", nodes=2, duration=30.0)
            for i in range(5)
        ]))
        per_node = {}
        for placement in plan.admitted:
            for node in placement.nodes:
                per_node.setdefault(node, []).append(placement)
        for placements in per_node.values():
            placements.sort(key=lambda p: p.start)
            for earlier, later in zip(placements, placements[1:]):
                assert earlier.end <= later.start

    def test_plan_is_a_pure_function_of_the_spec(self):
        experiments = [
            dict(name="a", user="u", nodes=2, duration=60.0, priority=3),
            dict(name="b", user="v", nodes=1, duration=45.0),
            dict(name="c", user="u", nodes=3, duration=20.0, priority=7),
        ]
        first = plan_admission(make_spec(experiments)).entries()
        second = plan_admission(make_spec(experiments)).entries()
        assert first == second

    def test_dispatch_order_and_predecessors(self):
        plan = plan_admission(make_spec([
            dict(name="a", user="u", nodes=3, duration=50.0, priority=9),
            dict(name="b", user="v", nodes=1, duration=30.0),
        ]))
        order = plan.dispatch_order()
        assert [p.spec.name for p in order] == ["a", "b"]
        predecessors = plan.predecessors(order[1])
        assert [p.spec.name for p in predecessors] == ["a"]
        assert plan.predecessors(order[0]) == []

    def test_admission_log_round_trips_as_jsonl(self, tmp_path):
        plan = plan_admission(make_spec([
            dict(name="a", user="u", nodes=1, duration=10.0),
        ]))
        path = plan.write(str(tmp_path))
        assert os.path.basename(path) == ADMISSION_NAME
        with open(path) as handle:
            entries = [json.loads(line) for line in handle]
        assert entries == plan.entries()


# --------------------------------------------------------------------------
# campaign journal
# --------------------------------------------------------------------------


class TestCampaignJournal:
    def test_header_and_entries(self, tmp_path):
        journal = CampaignJournal.create(str(tmp_path), "camp", 2)
        journal.record_experiment(
            0, "a", "u", ok=True, result_dir="experiments/u/a/x",
            runs_completed=2,
        )
        journal.close()
        reopened = CampaignJournal.open(str(tmp_path))
        assert reopened.header["name"] == "camp"
        assert list(reopened.completed()) == [0]
        reopened.close()

    def test_failed_experiments_are_not_completed(self, tmp_path):
        journal = CampaignJournal.create(str(tmp_path), "camp", 2)
        journal.record_experiment(0, "a", "u", ok=False, error="boom")
        journal.record_experiment(1, "b", "u", ok=True, runs_completed=1)
        assert list(journal.completed()) == [1]
        journal.close()

    def test_validate_against_rejects_other_campaigns(self, tmp_path):
        CampaignJournal.create(str(tmp_path), "camp", 2).close()
        journal = CampaignJournal.open(str(tmp_path))
        with pytest.raises(JournalError, match="belongs to"):
            journal.validate_against("other", 2)
        with pytest.raises(JournalError, match="refusing to resume"):
            journal.validate_against("camp", 5)
        journal.close()

    def test_open_without_header_raises(self, tmp_path):
        path = os.path.join(str(tmp_path), JOURNAL_NAME)
        with open(path, "w") as handle:
            handle.write('{"event": "experiment", "index": 0}\n')
        with pytest.raises(JournalError, match="no campaign header"):
            CampaignJournal.open(str(tmp_path))


# --------------------------------------------------------------------------
# workload construction
# --------------------------------------------------------------------------


class TestWorkload:
    def test_experiment_shape_is_deterministic(self):
        experiment = build_campaign_experiment(
            "sweep", ["beta", "alpha"], 60.0, [100, 200]
        )
        assert [role.node for role in experiment.roles] == ["alpha", "beta"]
        assert experiment.variables.loop_vars == {"pkt_rate": [100, 200]}

    def test_inspect_missing_dir(self, tmp_path):
        assert inspect_result_dir(str(tmp_path / "nope"), 2) == "missing"

    def test_inspect_unreadable_journal_wipes_the_tree(self, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "run-000").mkdir()
        assert inspect_result_dir(str(broken), 2) == "missing"
        assert not broken.exists()


# --------------------------------------------------------------------------
# end-to-end campaign execution
# --------------------------------------------------------------------------


class TestRunCampaign:
    def test_small_campaign_end_to_end(self, tmp_path):
        path = write_campaign_file(tmp_path / "c.yml", SMALL_CAMPAIGN)
        target = str(tmp_path / "out")
        result = run_campaign(path, target, jobs=1)
        assert result.ok
        assert result.admitted == 2 and result.rejected == 0
        assert result.completed_experiments == 2
        # All the campaign-level artifacts exist.
        for name in (ADMISSION_NAME, JOURNAL_NAME, "campaign.json",
                     "campaign-trace.jsonl", "index.html"):
            assert os.path.isfile(os.path.join(target, name)), name
        # Every experiment landed in its own per-user tree.
        assert os.path.isdir(os.path.join(target, "experiments", "alice",
                                          "sweep-a"))
        assert os.path.isdir(os.path.join(target, "experiments", "bob",
                                          "sweep-b"))

    def test_campaign_summary_contents(self, tmp_path):
        path = write_campaign_file(tmp_path / "c.yml", SMALL_CAMPAIGN)
        target = str(tmp_path / "out")
        run_campaign(path, target, jobs=1)
        with open(os.path.join(target, "campaign.json")) as handle:
            summary = json.load(handle)
        assert summary["ok"] is True
        assert summary["pool"] == ["alpha", "beta"]
        assert set(summary["users"]) == {"alice", "bob"}
        assert summary["users"]["alice"]["experiments"] == 1
        assert [e["name"] for e in summary["experiments"]] == [
            "sweep-a", "sweep-b"
        ]

    def test_health_rollup_counts_every_node_observation(self, tmp_path):
        # Two experiments over three nodes, one run each: three
        # observations, each of a known kind.
        path = write_campaign_file(tmp_path / "c.yml", SMALL_CAMPAIGN)
        target = str(tmp_path / "out")
        run_campaign(path, target, jobs=1)
        with open(os.path.join(target, "campaign.json")) as handle:
            observations = json.load(handle)["health"]["node_observations"]
        assert "unknown" not in observations
        assert sum(observations.values()) == 3
        assert observations["healthy"] == 3

    def test_journal_entries_follow_admission_order(self, tmp_path):
        path = write_campaign_file(tmp_path / "c.yml", SMALL_CAMPAIGN)
        target = str(tmp_path / "out")
        run_campaign(path, target, jobs=2)
        with open(os.path.join(target, JOURNAL_NAME)) as handle:
            entries = [json.loads(line) for line in handle]
        assert entries[0]["event"] == "campaign"
        indices = [e["index"] for e in entries if e["event"] == "experiment"]
        assert indices == sorted(indices)
        assert entries[-1] == {"event": "complete", "ok": True}

    def test_rerun_without_resume_never_duplicates_run_dirs(self, tmp_path):
        path = write_campaign_file(tmp_path / "c.yml", SMALL_CAMPAIGN)
        target = str(tmp_path / "out")
        run_campaign(path, target, jobs=1)
        run_campaign(path, target, jobs=1)  # fresh re-run over old trees
        sweep = os.path.join(target, "experiments", "alice", "sweep-a")
        stamps = os.listdir(sweep)
        assert len(stamps) == 1
        runs = [entry for entry in os.listdir(os.path.join(sweep, stamps[0]))
                if entry.startswith("run-")]
        assert runs == ["run-000"]

    def test_resume_of_a_finished_campaign_is_a_no_op(self, tmp_path):
        path = write_campaign_file(tmp_path / "c.yml", SMALL_CAMPAIGN)
        target = str(tmp_path / "out")
        run_campaign(path, target, jobs=1)
        with open(os.path.join(target, JOURNAL_NAME), "rb") as handle:
            before = handle.read()
        result = run_campaign(path, target, jobs=1, resume=True)
        assert result.ok
        with open(os.path.join(target, JOURNAL_NAME), "rb") as handle:
            after = handle.read()
        assert before == after

    def test_resume_without_journal_raises(self, tmp_path):
        path = write_campaign_file(tmp_path / "c.yml", SMALL_CAMPAIGN)
        with pytest.raises(JournalError, match="nothing to resume"):
            run_campaign(path, str(tmp_path / "empty"), jobs=1, resume=True)

    def test_progress_callback_counts_up(self, tmp_path):
        path = write_campaign_file(tmp_path / "c.yml", SMALL_CAMPAIGN)
        seen = []
        run_campaign(path, str(tmp_path / "out"), jobs=1,
                     progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_published_index_links_every_experiment(self, tmp_path):
        path = write_campaign_file(tmp_path / "c.yml", SMALL_CAMPAIGN)
        target = str(tmp_path / "out")
        run_campaign(path, target, jobs=1)
        with open(os.path.join(target, "index.html")) as handle:
            html = handle.read()
        assert "sweep-a" in html and "sweep-b" in html
        assert "alice" in html and "bob" in html


class TestResumePartialTree:
    def test_partial_experiment_tree_is_resumed_to_byte_identity(self, tmp_path):
        """A campaign crash can leave one experiment half-run: its own
        journal has a trustworthy prefix.  Campaign resume must hand it
        to the run-level resume and reconverge on identical bytes."""
        path = write_campaign_file(tmp_path / "c.yml", SMALL_CAMPAIGN)
        target = str(tmp_path / "out")
        run_campaign(path, target, jobs=1)

        baseline = tree(target)

        # Doctor sweep-b (execution index 1) back to "mid-run": drop its
        # run directory and journal records, and cut the campaign
        # journal back to before its entry.
        sweep = os.path.join(target, "experiments", "bob", "sweep-b")
        stamp = os.path.join(sweep, os.listdir(sweep)[0])
        shutil.rmtree(os.path.join(stamp, "run-000"))
        for victim in ("metadata.yml",):
            victim_path = os.path.join(stamp, victim)
            if os.path.isfile(victim_path):
                os.unlink(victim_path)
        exp_journal = os.path.join(stamp, JOURNAL_NAME)
        with open(exp_journal, "rb") as handle:
            first_line_len = len(handle.read().splitlines(keepends=True)[0])
        with open(exp_journal, "r+b") as handle:
            handle.truncate(first_line_len)
        campaign_journal = os.path.join(target, JOURNAL_NAME)
        with open(campaign_journal, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        with open(campaign_journal, "wb") as handle:
            handle.write(b"".join(lines[:2]))  # header + experiment 0

        result = run_campaign(path, target, jobs=1, resume=True)
        assert result.ok
        resumed = tree(target)
        assert sorted(resumed) == sorted(baseline)
        different = [name for name in baseline
                     if resumed[name] != baseline[name]]
        # Everything reconverges byte for byte except the resumed
        # experiment's controller.log: an append-only execution log
        # that records the resume itself as history, by design.
        assert different in ([], [
            os.path.relpath(os.path.join(stamp, "controller.log"), target)
        ])


class TestRunPlacementErrors:
    def test_failing_placement_reports_instead_of_raising(self, tmp_path):
        """A PosError inside the worker becomes a not-ok outcome: the
        campaign journals the failure and keeps going."""
        from repro.campaign.workload import run_placement

        outcome = run_placement({
            "campaign_dir": str(tmp_path),
            "index": 0,
            "name": "ghost",
            "user": "alice",
            "nodes": ["alpha"],
            "duration": 10.0,
            "rates": [100],
            "epoch": 1_600_000_000.0,
            "mode": "resume",  # nothing to resume -> JournalError
        })
        assert outcome["ok"] is False
        assert outcome["error"]
        assert outcome["runs_completed"] == 0


class TestDescribe:
    def test_spec_describe_round_trips_the_interesting_fields(self):
        spec = make_spec(
            [dict(name="a", user="u", nodes=2, duration=60.0, priority=3,
                  deadline=600.0, rates=[100])],
            max_active_per_user=2,
        )
        described = spec.describe()
        assert described["max_active_per_user"] == 2
        assert described["experiments"][0]["deadline"] == 600.0
        assert described["experiments"][0]["priority"] == 3


# --------------------------------------------------------------------------
# status report
# --------------------------------------------------------------------------


class TestStatus:
    def test_status_of_finished_campaign(self, tmp_path):
        path = write_campaign_file(tmp_path / "c.yml", SMALL_CAMPAIGN)
        target = str(tmp_path / "out")
        run_campaign(path, target, jobs=1)
        report = campaign_status(target)
        assert "campaign: demo" in report
        assert "finished: 2/2" in report
        assert "[complete]" in report
        assert "alice/sweep-a" in report

    def test_status_before_any_execution(self, tmp_path):
        spec = make_spec([dict(name="a", user="u", nodes=1, duration=10.0)])
        plan = plan_admission(spec)
        plan.write(str(tmp_path))
        report = campaign_status(str(tmp_path))
        assert "finished: 0/1" in report
        assert "pending" in report

    def test_status_without_admission_log_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="no admission log"):
            campaign_status(str(tmp_path))

    def test_status_reports_failures_and_rejections(self, tmp_path):
        spec = make_spec([
            dict(name="hog", user="u", nodes=3, duration=100.0, priority=9),
            dict(name="late", user="v", nodes=3, duration=50.0,
                 deadline=60.0),
        ])
        plan = plan_admission(spec)
        plan.write(str(tmp_path))
        journal = CampaignJournal.create(str(tmp_path), "camp", 1)
        journal.record_experiment(0, "hog", "u", ok=False, error="boom")
        journal.close()
        report = campaign_status(str(tmp_path))
        assert "FAILED (boom)" in report
        assert "REJECTED" in report and "deadline" in report


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


class TestCli:
    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_run_parses_flags(self):
        args = build_parser().parse_args([
            "campaign", "run", "c.yml", "--results", "/tmp/x",
            "--jobs", "4", "--resume",
        ])
        assert args.campaign_command == "run"
        assert args.jobs == 4 and args.resume

    def test_campaign_run_and_status_commands(self, tmp_path, capsys):
        path = write_campaign_file(tmp_path / "c.yml", SMALL_CAMPAIGN)
        target = str(tmp_path / "out")
        assert main(["campaign", "run", path, "--results", target,
                     "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "experiments completed: 2, failed: 0, rejected: 0" in out
        assert main(["campaign", "status", target]) == 0
        assert "finished: 2/2" in capsys.readouterr().out
