"""Parallel cross-product scheduler: determinism, resume, fault plans.

The contract under test is strong: for any ``--jobs N`` the result tree
is *byte-identical* to the sequential execution — same run directories,
same file contents, same journal lines in the same order — because the
workers replay the exact per-run workflow primitives the sequential
controller uses and the parent merges outcomes in cross-product order.
"""

from __future__ import annotations

import os

import pytest

from repro.casestudy import build_case_study_experiment, build_environment, run_case_study
from repro.core.errors import ExperimentError
from repro.core.journal import JOURNAL_NAME
from repro.core.scheduler import (
    resolve_jobs,
    shard_runs,
    validate_parallel_fault_plan,
)
from repro.faults.plan import FaultPlan, FaultSpec

CLOCK = lambda: 1_600_000_000.0  # noqa: E731 - fixed wall clock => fixed tree paths


class CrashRequested(RuntimeError):
    """Simulated controller death: NOT a PosError, so nothing handles it."""


def crashing_progress(after):
    """A progress callback that kills the controller after ``after`` runs."""

    def callback(done, total):
        if done >= after:
            raise CrashRequested(f"killed after {after} runs")

    return callback


def tree(root):
    """Relative path -> file bytes for every file under ``root``."""
    contents = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                contents[os.path.relpath(path, root)] = handle.read()
    return contents


def run_dir_files(contents):
    """Only the per-run artifacts (run-NNN*/...) of a tree mapping."""
    return {
        rel: data
        for rel, data in contents.items()
        if any(part.startswith("run-") for part in rel.split(os.sep)[:-1])
    }


def journal_entries(contents):
    import json

    for rel, data in contents.items():
        if os.path.basename(rel) == JOURNAL_NAME:
            return [
                json.loads(line)
                for line in data.decode().splitlines()
                if line.strip()
            ]
    raise AssertionError("no journal in result tree")


def find_result_dir(root):
    for dirpath, _, filenames in os.walk(root):
        if JOURNAL_NAME in filenames:
            return dirpath
    raise AssertionError(f"no journal found under {root}")


# --------------------------------------------------------------------------
# pure helpers
# --------------------------------------------------------------------------


class TestShardRuns:
    def test_round_robin(self):
        assert shard_runs([0, 1, 2, 3, 4], 2) == [[0, 2, 4], [1, 3]]

    def test_more_jobs_than_runs_drops_empty_shards(self):
        assert shard_runs([0, 1], 4) == [[0], [1]]

    def test_single_job_is_one_shard(self):
        assert shard_runs([3, 5, 7], 1) == [[3, 5, 7]]


class TestResolveJobs:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv("POS_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("POS_JOBS", "8")
        assert resolve_jobs(2) == 2

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("POS_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ExperimentError):
            resolve_jobs(0)
        monkeypatch.setenv("POS_JOBS", "banana")
        with pytest.raises(ExperimentError):
            resolve_jobs(None)


class TestFaultPlanValidation:
    def test_run_scoped_deterministic_plan_accepted(self):
        plan = FaultPlan([
            FaultSpec(kind="script", runs=(0, 1), times=2),
            FaultSpec(kind="power", node="tartu", runs=(2,), times=None),
        ])
        validate_parallel_fault_plan(plan)  # must not raise

    def test_wildcard_runs_rejected(self):
        plan = FaultPlan([FaultSpec(kind="script")])
        with pytest.raises(ExperimentError):
            validate_parallel_fault_plan(plan)

    def test_probabilistic_spec_rejected(self):
        plan = FaultPlan([
            FaultSpec(kind="timeout", runs=(0,), probability=0.5, times=None)
        ])
        with pytest.raises(ExperimentError):
            validate_parallel_fault_plan(plan)

    def test_truncating_budget_rejected(self):
        # times=1 over two pinned runs: which run the fault strikes would
        # depend on execution order, which the shards do not share.
        plan = FaultPlan([FaultSpec(kind="script", runs=(0, 1), times=1)])
        with pytest.raises(ExperimentError):
            validate_parallel_fault_plan(plan)


# --------------------------------------------------------------------------
# controller-level guard rails
# --------------------------------------------------------------------------


class TestParallelGuards:
    def test_jobs_require_worker_environment(self, tmp_path):
        env = build_environment("pos", str(tmp_path), clock=CLOCK)
        experiment = build_case_study_experiment(
            "pos", rates=[200_000], sizes=(64,), duration_s=0.05
        )
        with pytest.raises(ExperimentError, match="worker"):
            env.controller.run(
                experiment, setup_context_extra={"setup": env.setup}, jobs=2
            )

    def test_on_error_continue_incompatible_with_jobs(self, tmp_path):
        with pytest.raises(ExperimentError, match="continue"):
            run_case_study(
                "pos", str(tmp_path), rates=[200_000], sizes=(64,),
                duration_s=0.05, clock=CLOCK, on_error="continue", jobs=2,
            )

    def test_unpinned_fault_plan_incompatible_with_jobs(self, tmp_path):
        plan = FaultPlan([FaultSpec(kind="transport", node="riga", times=None)])
        with pytest.raises(ExperimentError, match="fault"):
            run_case_study(
                "pos", str(tmp_path), rates=[200_000], sizes=(64,),
                duration_s=0.05, clock=CLOCK, fault_plan=plan, jobs=2,
            )


# --------------------------------------------------------------------------
# byte-identical result trees
# --------------------------------------------------------------------------


class TestByteIdentity:
    def run_tree(self, root, platform, jobs, **kwargs):
        handle = run_case_study(
            platform,
            str(root),
            rates=kwargs.pop("rates", [200_000, 400_000]),
            sizes=kwargs.pop("sizes", (64, 1500)),
            duration_s=kwargs.pop("duration_s", 0.05),
            interval_s=0.02,
            clock=CLOCK,
            jobs=jobs,
            **kwargs,
        )
        return handle, tree(str(root))

    def test_pos_tree_identical_jobs_1_vs_4(self, tmp_path):
        handle_seq, tree_seq = self.run_tree(tmp_path / "seq", "pos", jobs=1)
        handle_par, tree_par = self.run_tree(tmp_path / "par", "pos", jobs=4)
        assert handle_seq.completed_runs == handle_par.completed_runs == 4
        assert tree_par == tree_seq

    def test_vpos_tree_identical_jobs_1_vs_2(self, tmp_path):
        # The virtualized platform exercises the stochastic components
        # (lognormal service times, preemption timer, poisson pacing):
        # identity holds only if per-run reseeding and epoch alignment
        # actually isolate runs from their schedule.
        __, tree_seq = self.run_tree(
            tmp_path / "seq", "vpos", jobs=1,
            rates=[100_000], sizes=(64, 1500), seed=7,
        )
        __, tree_par = self.run_tree(
            tmp_path / "par", "vpos", jobs=2,
            rates=[100_000], sizes=(64, 1500), seed=7,
        )
        assert tree_par == tree_seq

    def test_journal_is_ordered_by_run_index(self, tmp_path):
        __, contents = self.run_tree(tmp_path, "pos", jobs=4)
        indices = [
            entry["index"]
            for entry in journal_entries(contents)
            if entry.get("event") == "run"
        ]
        assert indices == sorted(indices) == [0, 1, 2, 3]


# --------------------------------------------------------------------------
# fault plans under parallel execution
# --------------------------------------------------------------------------


class TestParallelFaults:
    PLAN_KWARGS = dict(
        rates=[200_000, 400_000],
        sizes=(64,),
        duration_s=0.05,
        interval_s=0.02,
        clock=CLOCK,
        on_error="recover",
        # Shell-style measurement scripts check exit codes, so the
        # injected non-zero exit actually fails the run.
        script_style="shell",
    )

    @staticmethod
    def plan():
        # Fresh plan per execution: FaultPlan carries firing budgets.
        return FaultPlan(
            [FaultSpec(kind="script", runs=(1,), times=1)], seed=11
        )

    def test_fault_run_identical_under_job_counts(self, tmp_path):
        handle_seq = run_case_study(
            "pos", str(tmp_path / "seq"), fault_plan=self.plan(),
            jobs=1, **self.PLAN_KWARGS,
        )
        handle_par = run_case_study(
            "pos", str(tmp_path / "par"), fault_plan=self.plan(),
            jobs=2, **self.PLAN_KWARGS,
        )
        # The injected script fault fails run 1 once; recovery replays it.
        for handle in (handle_seq, handle_par):
            assert handle.completed_runs == 2
            assert handle.failed_runs == 0
            assert [record.retried for record in handle.runs] == [False, True]
        assert tree(str(tmp_path / "par")) == tree(str(tmp_path / "seq"))


# --------------------------------------------------------------------------
# resume of a partially-completed parallel sweep
# --------------------------------------------------------------------------


class TestParallelResume:
    KWARGS = dict(
        rates=[100_000, 200_000],
        sizes=(64, 1500),
        duration_s=0.05,
        interval_s=0.02,
        clock=CLOCK,
    )

    def test_crash_then_resume_matches_clean_run(self, tmp_path):
        # Reference: one uninterrupted sequential execution.
        run_case_study("pos", str(tmp_path / "clean"), jobs=1, **self.KWARGS)
        clean = tree(str(tmp_path / "clean"))

        # Crash a 2-worker execution after two runs were journalled.
        with pytest.raises(CrashRequested):
            run_case_study(
                "pos", str(tmp_path / "crashed"), jobs=2,
                progress=crashing_progress(2), **self.KWARGS,
            )
        result_dir = find_result_dir(str(tmp_path / "crashed"))
        partial = journal_entries(tree(str(tmp_path / "crashed")))
        done = [e["index"] for e in partial if e.get("event") == "run"]
        assert done == [0, 1]

        # Resume in parallel: adopted runs stay untouched, the rest
        # re-execute, and the per-run artifacts match the clean run.
        handle = run_case_study(
            "pos", str(tmp_path / "crashed"), jobs=2,
            resume_path=result_dir, **self.KWARGS,
        )
        assert handle.completed_runs == 4
        assert handle.resumed_runs == 2
        resumed = tree(str(tmp_path / "crashed"))
        assert run_dir_files(resumed) == run_dir_files(clean)
        indices = [
            entry["index"]
            for entry in journal_entries(resumed)
            if entry.get("event") == "run"
        ]
        assert indices == [0, 1, 2, 3]

    def test_resume_sequentially_after_parallel_crash(self, tmp_path):
        run_case_study("pos", str(tmp_path / "clean"), jobs=1, **self.KWARGS)
        clean = tree(str(tmp_path / "clean"))
        with pytest.raises(CrashRequested):
            run_case_study(
                "pos", str(tmp_path / "crashed"), jobs=4,
                progress=crashing_progress(1), **self.KWARGS,
            )
        result_dir = find_result_dir(str(tmp_path / "crashed"))
        handle = run_case_study(
            "pos", str(tmp_path / "crashed"), jobs=1,
            resume_path=result_dir, **self.KWARGS,
        )
        assert handle.completed_runs == 4
        resumed = tree(str(tmp_path / "crashed"))
        assert run_dir_files(resumed) == run_dir_files(clean)


# --------------------------------------------------------------------------
# per-run dispatch on warm worker worlds
# --------------------------------------------------------------------------


def _append_line(path, line):
    """One whole line per O_APPEND write, so workers never interleave."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, (line + "\n").encode())
    finally:
        os.close(fd)


def _recording_worker_world(platform, seed, fault_plan, log_path, slow_from):
    """A worker world factory that logs its build and every run it starts.

    Writes ``build <pid>`` once per world and ``run <pid> <index>`` from
    the run-isolation hook.  Runs at or above ``slow_from`` sleep first,
    keeping both workers busy while the parent reacts to earlier runs.
    Module-level so the WorkerEnv recipe pickles by reference.
    """
    import time

    from repro.casestudy.experiment import _build_worker_world

    world = _build_worker_world(platform, seed, fault_plan)
    _append_line(log_path, f"build {os.getpid()}")
    setup = world.context_extra["setup"]
    begin_run = setup.begin_run

    def logged_begin_run(index):
        _append_line(log_path, f"run {os.getpid()} {index}")
        if slow_from is not None and index >= slow_from:
            time.sleep(1.0)
        begin_run(index)

    setup.begin_run = logged_begin_run
    return world


def _read_worker_log(path):
    """(builds per pid, run indices per pid in execution order)."""
    builds, runs = {}, {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            kind, pid, *rest = line.split()
            if kind == "build":
                builds[pid] = builds.get(pid, 0) + 1
            else:
                runs.setdefault(pid, []).append(int(rest[0]))
    return builds, runs


class TestPerRunDispatch:
    """Workers build one world per pass and stream runs one at a time."""

    RATES = [100_000, 150_000, 200_000, 250_000, 300_000, 350_000,
             400_000, 450_000]

    def run_with_env(self, root, worker_env, jobs, fault_plan=None, **kwargs):
        env = build_environment(
            "pos", str(root), clock=CLOCK, fault_plan=fault_plan,
        )
        experiment = build_case_study_experiment(
            platform="pos", rates=self.RATES, sizes=(64,), duration_s=0.02,
            interval_s=0.01, script_style=kwargs.pop("script_style", "python"),
        )
        return env.controller.run(
            experiment, setup_context_extra={"setup": env.setup},
            jobs=jobs, worker_env=worker_env, **kwargs,
        )

    @staticmethod
    def recording_env(log_path, fault_plan=None, slow_from=None):
        from repro.core.scheduler import WorkerEnv

        return WorkerEnv(
            factory=_recording_worker_world,
            kwargs={
                "platform": "pos", "seed": 0, "fault_plan": fault_plan,
                "log_path": log_path, "slow_from": slow_from,
            },
        )

    def test_one_world_per_worker_and_ascending_indices(self, tmp_path):
        log_path = str(tmp_path / "workers.log")
        handle = self.run_with_env(
            tmp_path / "par", self.recording_env(log_path), jobs=2,
        )
        assert handle.completed_runs == 8
        builds, runs = _read_worker_log(log_path)
        assert set(builds) == set(runs)
        assert all(count == 1 for count in builds.values())
        for indices in runs.values():
            assert indices == sorted(indices)
        executed = sorted(i for indices in runs.values() for i in indices)
        assert executed == list(range(8))

    def test_setup_failure_in_a_worker_raises_the_setup_error(self, tmp_path):
        from repro.casestudy.experiment import case_study_worker_env
        from repro.core.errors import ScriptError

        # Every command on the load generator fails in the workers'
        # worlds only: their setup scripts fail, the parent's does not.
        broken = FaultPlan([FaultSpec(kind="script", node="riga", times=None)])
        worker_env = case_study_worker_env("pos", fault_plan=broken)
        # Not a NodeError: that would be retried as a dead worker.
        with pytest.raises(ScriptError, match="setup of role"):
            self.run_with_env(tmp_path, worker_env, jobs=2)

    def test_abort_cancels_queued_runs_and_matches_sequential(self, tmp_path):
        from repro.core.errors import ScriptError

        def plan():
            return FaultPlan(
                [FaultSpec(kind="script", runs=(1,), times=1)], seed=11
            )

        errors = {}
        for name, jobs in (("seq", 1), ("par", 2)):
            log_path = str(tmp_path / f"{name}.log")
            with pytest.raises(ScriptError) as caught:
                self.run_with_env(
                    tmp_path / name,
                    self.recording_env(log_path, plan(), slow_from=2),
                    jobs=jobs, fault_plan=plan(), on_error="abort",
                    script_style="shell",
                )
            errors[name] = str(caught.value)
        assert errors["par"] == errors["seq"]
        assert errors["par"].startswith("measurement run 1 failed")
        seq, par = tree(str(tmp_path / "seq")), tree(str(tmp_path / "par"))
        assert par == seq
        assert [
            entry["index"]
            for entry in journal_entries(par)
            if entry.get("event") == "run"
        ] == [0, 1]
        # Runs 0 and 1 are fast; the parent aborts while the workers
        # sleep in runs 2 and 3, so the rest of the queue never starts.
        __, runs = _read_worker_log(str(tmp_path / "par.log"))
        executed = sorted(i for indices in runs.values() for i in indices)
        assert executed[:2] == [0, 1]
        assert len(executed) < 8


# --------------------------------------------------------------------------
# worker crashes: BrokenProcessPool is a retryable infrastructure fault
# --------------------------------------------------------------------------


def _suicidal_worker_world(platform, seed, fault_plan, sentinel):
    """A worker world factory whose first-ever call SIGKILLs the worker.

    The sentinel file marks the first attempt; the retried pass finds it
    and builds a perfectly normal world.  Module-level so the WorkerEnv
    recipe pickles by reference into the pool workers.
    """
    import signal

    from repro.casestudy.experiment import _build_worker_world

    if sentinel is None:
        os.kill(os.getpid(), signal.SIGKILL)  # persistently dying fleet
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as handle:
            handle.write("first worker died here\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return _build_worker_world(platform, seed, fault_plan)


class TestWorkerCrash:
    """A SIGKILLed pool worker is infrastructure failure, not run
    failure: the pass is retried under the recovery policy and the
    merged tree stays byte-identical to a clean run."""

    KWARGS = dict(
        rates=[200_000, 400_000], sizes=(64, 1500),
        duration_s=0.05, interval_s=0.02,
    )

    def run_with_env(self, root, worker_env, jobs):
        env = build_environment("pos", str(root), clock=CLOCK)
        experiment = build_case_study_experiment(
            platform="pos",
            rates=self.KWARGS["rates"],
            sizes=self.KWARGS["sizes"],
            duration_s=self.KWARGS["duration_s"],
            interval_s=self.KWARGS["interval_s"],
        )
        try:
            return env.controller.run(
                experiment,
                setup_context_extra={"setup": env.setup},
                jobs=jobs,
                worker_env=worker_env,
            )
        finally:
            if env.setup.hypervisor is not None:
                env.setup.hypervisor.stop()

    def test_worker_sigkill_is_retried_and_tree_is_identical(self, tmp_path):
        from repro.core.scheduler import WorkerEnv

        run_case_study("pos", str(tmp_path / "clean"), jobs=1,
                       clock=CLOCK, **self.KWARGS)
        clean = tree(str(tmp_path / "clean"))

        sentinel = str(tmp_path / "first-attempt-died")
        worker_env = WorkerEnv(
            factory=_suicidal_worker_world,
            kwargs={
                "platform": "pos", "seed": 0, "fault_plan": None,
                "sentinel": sentinel,
            },
        )
        handle = self.run_with_env(tmp_path / "crashy", worker_env, jobs=2)
        assert handle.completed_runs == 4
        assert handle.failed_runs == 0
        assert os.path.exists(sentinel)  # the first pass really died
        crashy = tree(str(tmp_path / "crashy"))
        assert run_dir_files(crashy) == run_dir_files(clean)
        indices = [
            entry["index"]
            for entry in journal_entries(crashy)
            if entry.get("event") == "run"
        ]
        assert indices == [0, 1, 2, 3]

    def test_persistently_dying_workers_exhaust_the_recovery_policy(
        self, tmp_path,
    ):
        from repro.core.errors import NodeError
        from repro.core.scheduler import WorkerEnv

        # sentinel=None: every incarnation dies, every retried pass
        # dies again, and the NodeError escapes once the recovery
        # policy is exhausted.
        worker_env = WorkerEnv(
            factory=_suicidal_worker_world,
            kwargs={
                "platform": "pos", "seed": 0, "fault_plan": None,
                "sentinel": None,
            },
        )
        with pytest.raises(NodeError, match="worker process died"):
            self.run_with_env(tmp_path / "doomed", worker_env, jobs=2)
